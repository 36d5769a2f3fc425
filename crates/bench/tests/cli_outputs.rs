//! Arguments, `AQUA_BENCH_WORKLOADS`, journals and output flags fail
//! before the run. An argument a binary does not read, or a value it cannot
//! use, ends it with exit code 2 and a usage line before it does any work;
//! an unknown workload selection, or a journal that cannot be opened or
//! read, ends it with exit code 2 and one line. A file that cannot be
//! created ends `simulate` or `profile` with exit code 2 and a line naming
//! the flag, not a panic after the whole simulation, and the outputs it had
//! just created are removed. A file that cannot be written ends it the same
//! way after the run, instead of a silent exit 0.

use std::ffi::{OsStr, OsString};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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
/// missing. It opens both outputs before it truncates either, so the
/// previous run's folded stacks stay as they were.
#[test]
fn profile_jsonl_in_missing_directory_exits_2_and_creates_nothing() {
    let root = empty_dir("profile");
    let missing = root.join("missing");
    // Run inside the temporary directory, so the default `--folded` file
    // lands there too.
    let folded = root.join("target/experiments/profile.folded");
    std::fs::create_dir_all(folded.parent().unwrap()).expect("create target/experiments");
    std::fs::write(&folded, "sim.run 42\n").expect("write the previous profile");
    let out = run_in(
        &root,
        "profile",
        &["--jsonl".as_ref(), missing.join("x.jsonl").as_ref()],
    );
    let created = missing.exists();
    let kept = std::fs::read_to_string(&folded).expect("read the profile back");
    std::fs::remove_dir_all(&root).expect("remove the temporary directory");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot create --jsonl file"),
        "stderr: {stderr}"
    );
    assert!(!created, "profile created {}", missing.display());
    assert_eq!(kept, "sim.run 42\n", "profile truncated its --folded file");
}

/// A fresh, empty directory for one test's working directory.
fn empty_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aqua-cli-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the temporary directory");
    dir
}

/// The bench binary `name`, to run in `dir`.
fn bin_in(dir: &Path, name: &str) -> Command {
    let exe = format!("{name}{}", std::env::consts::EXE_SUFFIX);
    let mut cmd = Command::new(Path::new(env!("CARGO_BIN_EXE_simulate")).with_file_name(exe));
    cmd.current_dir(dir);
    cmd
}

/// Runs the bench binary `name` with `args` in `dir`.
fn run_in(dir: &Path, name: &str, args: &[&OsStr]) -> Output {
    bin_in(dir, name)
        .args(args)
        .output()
        .expect("run the binary")
}

/// When one output cannot be created, the files the others created are
/// removed again; a file that existed before keeps its contents.
#[test]
fn failed_output_removes_the_files_it_created() {
    let dir = empty_dir("new-outputs");
    std::fs::write(dir.join("old.json"), "{}").expect("write the previous trace");
    let out = run_in(
        &dir,
        "simulate",
        &[
            "--scheme",
            "baseline",
            "--workload",
            "povray",
            "--epochs",
            "1",
            "--spans-out",
            "old.json",
            "--trace-out",
            "new.json",
            "--histograms",
            "missing/x.jsonl",
        ]
        .map(OsStr::new),
    );
    let mut left: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name())
        .collect();
    left.sort();
    let kept = std::fs::read_to_string(dir.join("old.json")).expect("read the trace back");
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(
        stderr.contains("cannot create --histograms file missing/x.jsonl"),
        "stderr: {stderr}"
    );
    assert_eq!(left, ["old.json"], "simulate left {left:?}");
    assert_eq!(kept, "{}", "simulate truncated an existing output");
}

/// A mistyped or non-UTF-8 `AQUA_BENCH_WORKLOADS` ends every binary that
/// reads it with exit code 2 and one line (listing the valid names for a
/// mistyped one), before it prints, runs or writes anything.
#[test]
fn bad_workload_selection_exits_2_before_any_work() {
    let mut selections = vec![(
        OsString::from("mcf,nope"),
        "AQUA_BENCH_WORKLOADS entry \"nope\": unknown workload; valid names: lbm, ",
    )];
    #[cfg(unix)]
    selections.push((
        std::os::unix::ffi::OsStringExt::from_vec(b"mcf\xff".to_vec()),
        "AQUA_BENCH_WORKLOADS \"mcf\\xFF\" is not UTF-8",
    ));
    let dir = empty_dir("bad-workloads");
    for name in [
        "ablation_trackers",
        "fault_campaign",
        "fig03_rrs_scaling",
        "fig06_migrations",
        "fig07_performance",
        "fig09_memory_mapped",
        "fig10_fpt_breakdown",
        "fig11_threshold_sensitivity",
        "table4_victim_refresh",
        "table6_comparison",
    ] {
        for (selection, want) in &selections {
            let out = bin_in(&dir, name)
                .env("AQUA_BENCH_WORKLOADS", selection)
                .output()
                .expect("run the binary");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{name}: {stderr}");
            assert!(stderr.starts_with(want), "{name}: {stderr}");
            assert!(!stderr.contains("panicked"), "{name}: {stderr}");
            assert!(out.stdout.is_empty(), "{name} printed to stdout");
            let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
            assert!(left.is_empty(), "{name} created {left:?}");
        }
    }
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
}

/// An argument a binary does not read (`--help` included) or a value it
/// cannot use ends the binary with exit code 2, a line naming the problem
/// and a usage line, before it writes anything. Every binary in `src/bin`
/// is checked.
#[test]
fn bad_arguments_exit_2_before_any_work() {
    let bins = std::fs::read_dir(concat!(env!("CARGO_MANIFEST_DIR"), "/src/bin"))
        .expect("list src/bin")
        .map(|entry| entry.unwrap().path().file_stem().unwrap().to_owned());
    let bins: Vec<String> = bins.map(|name| name.into_string().unwrap()).collect();
    assert_eq!(bins.len(), 22);
    let mut cases: Vec<(&str, Vec<&OsStr>, String)> = Vec::new();
    for (name, flag) in bins
        .iter()
        .flat_map(|n| [(n, "--no-such-flag"), (n, "--help")])
    {
        cases.push((
            name,
            vec![flag.as_ref()],
            format!("{name}: unknown flag {flag}\n"),
        ));
    }
    for (args, want) in [
        (["--epochs", "abc"], "simulate: --epochs \"abc\": "),
        (
            ["--workload", "nope"],
            "\"nope\": unknown workload; valid names: lbm, ",
        ),
    ] {
        cases.push(("simulate", args.map(OsStr::new).to_vec(), want.to_string()));
    }
    #[cfg(unix)]
    cases.push((
        "simulate",
        vec![
            "--workload".as_ref(),
            std::os::unix::ffi::OsStrExt::from_bytes(b"mcf\xff"),
        ],
        "simulate: --workload \"mcf\\xFF\" is not UTF-8\n".into(),
    ));
    // A threshold below a scheme's minimum would panic in its config.
    for (scheme, below, min) in [
        ("aqua-sram", "1", 2),
        ("aqua-mapped", "1", 2),
        ("rrs", "5", 6),
        ("victim-refresh", "1", 2),
        ("blockhammer", "1", 2),
    ] {
        for name in ["simulate", "profile"] {
            let args = ["--scheme", scheme, "--trh", below];
            let want = format!("{name}: --trh \"{below}\": {scheme} needs T_RH >= {min}\n");
            cases.push((name, args.map(OsStr::new).to_vec(), want));
        }
    }
    let profile_files = ["--trh", "1", "--folded", "p.folded", "--jsonl", "p.jsonl"];
    cases.push((
        "profile",
        profile_files.map(OsStr::new).to_vec(),
        "profile: --trh \"1\": aqua-sram needs T_RH >= 2\n".into(),
    ));
    cases.push((
        "fault_campaign",
        vec!["--trh".as_ref(), "5".as_ref()],
        "fault_campaign: --trh \"5\": rrs needs T_RH >= 6\n".into(),
    ));
    let dir = empty_dir("bad-arguments");
    for (name, args, want) in cases {
        let out = run_in(&dir, name, &args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(&want), "{name} {args:?}: {stderr}");
        assert!(stderr.contains(&format!("usage: {name}")), "{stderr}");
        assert!(out.stdout.is_empty(), "{name} {args:?} printed to stdout");
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert!(left.is_empty(), "{name} {args:?} created {left:?}");
    }
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
}

/// A journal that cannot be opened (its parent is a file) or read (a
/// format version this build does not know) ends a binary with exit code 2
/// and one line naming it, before any cell runs: no CSV is written and the
/// journal keeps its bytes.
#[test]
fn unusable_journal_exits_2_before_any_cell() {
    let dir = empty_dir("bad-journal");
    let future = "{\"v\":2,\"key\":\"0000000000000000\",\"label\":\"x\",\"status\":\"ok\",\
                  \"retriable\":false,\"attempts\":1}\n";
    std::fs::write(dir.join("v2.jsonl"), future).expect("write the v2 journal");
    for journal in ["/dev/null/x", "v2.jsonl"] {
        let fig06 = bin_in(&dir, "fig06_migrations")
            .env("AQUA_BENCH_JOURNAL", journal)
            .env("AQUA_BENCH_WORKLOADS", "povray")
            .env("AQUA_BENCH_EPOCHS", "1")
            .output()
            .expect("run fig06_migrations");
        let campaign = bin_in(&dir, "fault_campaign")
            .args(["--epochs", "1", "--rates", "0", "--resume", journal])
            .env("AQUA_BENCH_WORKLOADS", "povray")
            .output()
            .expect("run fault_campaign");
        for (name, out) in [("fig06_migrations", fig06), ("fault_campaign", campaign)] {
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{name} {journal}: {stderr}");
            assert_eq!(stderr.lines().count(), 1, "{name} {journal}: {stderr}");
            assert!(
                stderr.starts_with(&format!("journal {journal}")),
                "{name}: {stderr}"
            );
            assert!(!stderr.contains("panicked"), "{name}: {stderr}");
            let experiments = dir.join("target/experiments");
            assert!(!experiments.exists(), "{name} {journal} wrote a CSV");
        }
    }
    let kept = std::fs::read_to_string(dir.join("v2.jsonl")).expect("read the journal back");
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
    assert_eq!(kept, future, "the v2 journal changed");
}

/// `--help` is an unknown flag like any other: no campaign starts, and the
/// previous CSV stays as it was.
#[test]
fn fault_campaign_help_keeps_the_previous_csv() {
    let dir = empty_dir("campaign-help");
    let csv = dir.join("target/experiments/fault_campaign.csv");
    std::fs::create_dir_all(csv.parent().unwrap()).expect("create target/experiments");
    std::fs::write(&csv, "rate,scheme\n").expect("write the previous CSV");
    let out = run_in(&dir, "fault_campaign", &["--help".as_ref()]);
    let kept = std::fs::read_to_string(&csv).expect("read the CSV back");
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(kept, "rate,scheme\n");
}

/// The gate reads its baseline before the canary, so a missing one fails
/// at once.
#[test]
fn regression_gate_missing_baseline_exits_2_before_the_canary() {
    let dir = empty_dir("gate-baseline");
    let missing = dir.join("missing.json");
    let out = run_in(
        &dir,
        "regression_gate",
        &["--baseline".as_ref(), missing.as_ref()],
    );
    std::fs::remove_dir_all(&dir).expect("remove the temporary directory");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "stderr: {stderr}");
    assert!(stderr.contains(&*missing.to_string_lossy()), "{stderr}");
    assert!(!stderr.contains("canary"), "the canary ran: {stderr}");
    assert!(out.stdout.is_empty(), "the canary ran");
}
