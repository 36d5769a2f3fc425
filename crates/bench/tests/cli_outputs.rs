//! Output flags fail before the run: a file that cannot be created ends
//! `simulate` with exit code 2 and a line naming the flag, not a panic
//! after the whole simulation.

use std::process::Command;

#[test]
fn unwritable_trace_out_exits_2_before_simulating() {
    // A path under a regular file can never be created.
    let blocker = std::env::temp_dir().join(format!("aqua-cli-outputs-{}", std::process::id()));
    std::fs::write(&blocker, b"").expect("create the blocking file");
    let path = blocker.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args([
            "--scheme",
            "baseline",
            "--workload",
            "povray",
            "--epochs",
            "1",
        ])
        .arg("--trace-out")
        .arg(&path)
        .output()
        .expect("run simulate");
    std::fs::remove_file(&blocker).expect("remove the blocking file");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--trace-out"), "stderr: {stderr}");
    assert!(
        stderr.contains(&*path.to_string_lossy()),
        "stderr: {stderr}"
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!stdout.contains("running"), "simulated anyway: {stdout}");
}
