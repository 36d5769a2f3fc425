//! Output flags fail before the run: a file that cannot be created ends
//! `simulate` or `profile` with exit code 2 and a line naming the flag,
//! not a panic after the whole simulation. A file that cannot be written
//! ends it the same way after the run, instead of a silent exit 0.

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

/// `/dev/full` opens fine but fails every write with ENOSPC, so the export
/// fails only when its buffer is flushed.
#[cfg(target_os = "linux")]
#[test]
fn full_device_timeseries_out_exits_2_naming_the_flag() {
    let out = Command::new(env!("CARGO_BIN_EXE_simulate"))
        .args([
            "--scheme",
            "baseline",
            "--workload",
            "povray",
            "--epochs",
            "1",
            "--timeseries-out",
            "/dev/full",
        ])
        .output()
        .expect("run simulate");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot write --timeseries-out file /dev/full"),
        "stderr: {stderr}"
    );
}

/// `profile` makes no directory a flag names: a `--jsonl` path in a
/// missing directory exits 2 like `simulate`, and the directory stays
/// missing.
#[test]
fn profile_jsonl_in_missing_directory_exits_2_and_creates_nothing() {
    let root = std::env::temp_dir().join(format!("aqua-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&root).expect("create the temporary directory");
    let missing = root.join("missing");
    let path = missing.join("x.jsonl");
    // Run inside the temporary directory, so the default `--folded` file
    // lands there too.
    let out = Command::new(env!("CARGO_BIN_EXE_profile"))
        .current_dir(&root)
        .arg("--jsonl")
        .arg(&path)
        .output()
        .expect("run profile");
    let created = missing.exists();
    std::fs::remove_dir_all(&root).expect("remove the temporary directory");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains("--jsonl"), "stderr: {stderr}");
    assert!(!created, "profile created {}", missing.display());
}
