//! End-to-end checks of the benchmark binary on its cheapest workload.
//! Each test runs whole simulations: use `cargo test --release`.

use std::path::{Path, PathBuf};
use std::process::Command;

use aqua_bench::gate::json::{get, parse};
use aqua_bench::gate::JsonValue;

/// The repository root, where the benchmark runs from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Runs one short suite-quiet round from `dir` and returns the metadata
/// and result objects (the last two lines of standard output).
fn run_suite_quiet(dir: &Path, env: &[(&str, &str)]) -> (JsonValue, JsonValue) {
    let out = Command::new(env!("CARGO_BIN_EXE_aqua-perfbench"))
        .current_dir(dir)
        .args([
            "--workload",
            "suite-quiet",
            "--seed",
            "42",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .envs(env.iter().copied())
        .output()
        .expect("benchmark starts");
    assert!(
        out.status.success(),
        "benchmark failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., meta, result] = lines[..] else {
        panic!("expected a metadata and a result line, got {stdout:?}");
    };
    (
        parse(meta).expect("metadata is JSON"),
        parse(result).expect("result is JSON"),
    )
}

fn field<'a>(value: &'a JsonValue, path: &[&str]) -> &'a JsonValue {
    path.iter().fold(value, |v, name| {
        get(v.as_obj().expect("an object"), name).unwrap_or_else(|| panic!("no field {name}"))
    })
}

#[test]
fn one_changed_expected_value_fails_exactly_one_cell() {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("changed-expected");
    let expected_dir = dir.join("perfbench/expected");
    std::fs::create_dir_all(&expected_dir).unwrap();
    let recorded =
        std::fs::read_to_string(repo_root().join("perfbench/expected/suite-quiet.tsv")).unwrap();
    // Change one value of one cell: the first cell's epoch count.
    let changed = recorded.replacen("\"epochs\":1,", "\"epochs\":2,", 1);
    assert_ne!(changed, recorded);
    std::fs::write(expected_dir.join("suite-quiet.tsv"), changed).unwrap();

    let (_, result) = run_suite_quiet(&dir, &[]);
    assert_eq!(field(&result, &["correct"]).as_bool(), Some(false));
    assert_eq!(field(&result, &["attempted"]).as_f64(), Some(36.0));
    assert_eq!(field(&result, &["failed"]).as_f64(), Some(1.0));
}

#[test]
fn env_knobs_change_neither_outputs_nor_threads() {
    let (meta, result) = run_suite_quiet(&repo_root(), &[]);
    assert_eq!(field(&result, &["correct"]).as_bool(), Some(true));
    let (knob_meta, knob_result) = run_suite_quiet(
        &repo_root(),
        &[
            ("AQUA_BENCH_EPOCHS", "3"),
            ("AQUA_BENCH_JOBS", "1"),
            ("AQUA_BENCH_WORKLOADS", "mcf"),
            ("AQUA_METRICS_ADDR", "127.0.0.1:0"),
        ],
    );
    assert_eq!(field(&knob_result, &["correct"]).as_bool(), Some(true));
    for name in ["outputs_digest", "threads_peak"] {
        assert_eq!(
            field(&meta, &["meta", name]),
            field(&knob_meta, &["meta", name]),
            "{name} moved with the AQUA_* knobs set"
        );
    }
}
