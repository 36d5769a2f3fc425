//! Performance benchmark of the AQUA simulator.
//!
//! ```text
//! bash perfbench/run.sh --workload <spec-hot|suite-quiet|attack-flood> \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root; `run.sh` builds this crate first. An
//! untraced run (`--trace 0`) times the workload's units of work (each
//! cell of spec-hot and attack-flood, suite-quiet's whole matrix) again
//! and again for at most `--seconds`, and construction passes spread over
//! the same time. A run of the `reference` kernel follows each of them,
//! and every time is also stated at nominal host speed, scaled by the
//! kernel runs on either side. It reports `accesses_per_ref_s` from each
//! unit's median scaled time, `setup_s` as the median scaled pass, and
//! the process's `peak_rss_mb`; the unscaled figures go to the metadata
//! line. A traced run (`--trace 1`) reports the per-layer ledger of
//! `replay`.
//! Every cell run is checked (see `check`); the last line of standard
//! output is the result object, the line before it the run's metadata.

mod cells;
mod check;
mod host;
mod json;
mod reference;
mod replay;
mod round;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use aqua_telemetry::{Telemetry, TelemetryConfig};

use cells::Workload;
use check::{Checker, Expected, EXPECTED_SEED};
use json::Obj;

const USAGE: &str = "usage: aqua-perfbench --workload <spec-hot|suite-quiet|attack-flood> \
                     [--seed N] [--seconds S] [--trace 0|1] [--record-expected]";

/// Construction passes of the set-up measurement; `setup_s` is their median.
const SETUP_PASSES: usize = 21;

/// Where runs leave the suite-quiet journal and the traced run's spans.
const OUT_DIR: &str = "perfbench/out";

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Write the run's reports as the expected outputs instead of checking.
    record_expected: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut record_expected) = (EXPECTED_SEED, 10, false, false);
    while let Some(flag) = args.next() {
        if flag == "--record-expected" {
            record_expected = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a whole number: {v:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = number(&value)?,
            "--seconds" => seconds = number(&value)?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if record_expected && seed != EXPECTED_SEED {
        return Err(format!(
            "--record-expected records seed {EXPECTED_SEED} only"
        ));
    }
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
        record_expected,
    })
}

/// What a run measured, ready to print.
pub struct Outcome {
    /// Distinct cells checked.
    pub attempted: usize,
    /// Distinct cells with at least one failing run.
    pub failed: usize,
    /// `(name, value, unit)` in print order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Workload-specific lines for the metadata record.
    pub notes: Obj,
    /// Digest of every cell's first report, equal across runs whose
    /// outputs are equal.
    pub outputs_digest: String,
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // The library reads `AQUA_*` knobs outside `Harness` too (pool
    // progress lines, alert rules, the journal's crash hook); none may
    // reach a measured run.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("AQUA_") {
            std::env::remove_var(&key);
        }
    }
    let expected = if args.seed == EXPECTED_SEED && !args.record_expected {
        match Expected::load(args.workload) {
            Ok(e) => Some(e),
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::from(1);
            }
        }
    } else {
        None
    };
    let out = PathBuf::from(OUT_DIR);
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: cannot create {OUT_DIR}: {e}");
        return ExitCode::from(1);
    }

    if args.record_expected {
        return match record(args.workload, &out) {
            Ok(path) => {
                eprintln!("recorded {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(1)
            }
        };
    }

    let ticks = host::CpuTicks::read();
    let started = Instant::now();
    let sampler = host::ThreadSampler::start();
    let outcome = if args.trace {
        replay::traced(args.workload, args.seed, expected.as_ref(), &out)
    } else {
        untraced(&args, expected.as_ref(), &out)
    };
    let threads_peak = sampler.finish();
    let ticks = host::CpuTicks::read().since(ticks);

    let features = if Telemetry::new(TelemetryConfig::default()).is_enabled() {
        "telemetry"
    } else {
        ""
    };
    let mut meta = Obj::new();
    meta.str("workload", args.workload.name())
        .num("seed", args.seed as f64)
        .num("trace", u8::from(args.trace) as f64)
        .num("nproc", cells::host_cores() as f64)
        .str("cpu_model", &host::cpu_model())
        .str(
            "git_commit",
            host::git_commit().as_deref().unwrap_or("none"),
        )
        .str("source_digest", &host::source_digest())
        .str("cargo_features", features)
        .num("steal_ticks", ticks.steal as f64)
        .num("total_ticks", ticks.total as f64)
        .num("wall_s", started.elapsed().as_secs_f64())
        .num("threads_peak", threads_peak as f64)
        .str("outputs_digest", &outcome.outputs_digest)
        .obj("notes", outcome.notes);
    let mut meta_line = Obj::new();
    meta_line.obj("meta", meta);
    println!("{}", meta_line.render());

    let mut metrics = Obj::new();
    for &(name, value, unit) in &outcome.metrics {
        let mut m = Obj::new();
        m.num("value", value).str("unit", unit);
        metrics.obj(name, m);
    }
    let mut result = Obj::new();
    result
        .bool("correct", outcome.failed == 0)
        .num("attempted", outcome.attempted as f64)
        .num("failed", outcome.failed as f64)
        .obj("metrics", metrics);
    println!("{}", result.render());
    ExitCode::SUCCESS
}

/// The untraced run. It cycles through the workload's units of work (each
/// cell of a serial workload, or suite-quiet's whole matrix), starting a
/// unit only while its previous run would still end within
/// `args.seconds`, and spreads the construction passes of `setup_s` evenly
/// over the same time, so both sample the same phases of the host. A run
/// of the reference kernel follows every unit and every pass; each unit's
/// time is also stated at nominal host speed by the runs on either side.
fn untraced(args: &Args, expected: Option<&Expected>, out: &Path) -> Outcome {
    let workload = args.workload;
    let h = workload.harness(args.seed);
    let cells = workload.cells();
    // Each unit with the index of its first cell.
    let units: Vec<(usize, &[cells::Cell])> = match workload {
        Workload::SuiteQuiet => vec![(0, &cells[..])],
        Workload::SpecHot | Workload::AttackFlood => cells.chunks(1).enumerate().collect(),
    };
    let construct = || -> f64 { cells.iter().map(|c| c.construct_seconds(&h)).sum() };

    let budget = args.seconds as f64;
    let mut checker = Checker::new(workload, cells.len(), expected);
    // The reference kernel runs on as many threads as a unit keeps busy.
    let mut scaler = reference::Scaler::new(h.jobs.max(1) * h.shard_workers.max(1));
    let (mut setup, mut setup_scaled) = (Vec::new(), Vec::new());
    let mut unit_seconds: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut unit_scaled: Vec<Vec<f64>> = vec![Vec::new(); units.len()];
    let mut unit_requests = vec![0u64; units.len()];
    let start = Instant::now();
    for u in (0..units.len()).cycle() {
        // Construction pass i is due at i / SETUP_PASSES of the budget.
        while setup.len() < SETUP_PASSES
            && setup.len() as f64 * budget <= start.elapsed().as_secs_f64() * SETUP_PASSES as f64
        {
            let seconds = construct();
            setup.push(seconds);
            setup_scaled.push(scaler.scale(seconds));
        }
        if let Some(&last) = unit_seconds[u].last() {
            if start.elapsed().as_secs_f64() + last + scaler.last() > budget {
                break;
            }
        }
        let (first, unit) = units[u];
        let round = round::run(workload, &h, unit, out);
        for (i, (&cell, run)) in unit.iter().zip(&round.runs).enumerate() {
            checker.run(first + i, cell, &run.report);
        }
        unit_requests[u] = round.requests();
        unit_seconds[u].push(round.seconds);
        unit_scaled[u].push(scaler.scale(round.seconds));
    }
    while setup.len() < SETUP_PASSES {
        let seconds = construct();
        setup.push(seconds);
        setup_scaled.push(scaler.scale(seconds));
    }

    // A ratio of sums over the cells: each unit's requests over the median
    // of its runs' seconds, scaled or not.
    let requests = unit_requests.iter().sum::<u64>() as f64;
    let medians = |seconds: &[Vec<f64>]| -> Vec<f64> {
        seconds.iter().map(|s| median(&mut s.clone())).collect()
    };
    let (raw, scaled) = (medians(&unit_seconds), medians(&unit_scaled));
    let runs: Vec<f64> = unit_seconds.iter().map(|s| s.len() as f64).collect();
    let mut notes = Obj::new();
    notes
        .nums("runs_per_unit", &runs)
        .nums("unit_median_s", &raw)
        .nums("unit_median_ref_s", &scaled)
        .num("accesses_per_s", requests / raw.iter().sum::<f64>())
        .num("reference_median_s", median(&mut scaler.runs.clone()))
        .nums("setup_pass_s", &setup)
        .num("setup_s", median(&mut setup));
    for (u, (raw, scaled)) in unit_seconds.iter().zip(&unit_scaled).enumerate() {
        notes
            .nums(&format!("unit{u}_s"), raw)
            .nums(&format!("unit{u}_ref_s"), scaled);
    }
    Outcome {
        attempted: cells.len(),
        failed: checker.failed(),
        metrics: vec![
            (
                "accesses_per_ref_s",
                requests / scaled.iter().sum::<f64>(),
                "1/s",
            ),
            ("setup_s", median(&mut setup_scaled), "s"),
            ("peak_rss_mb", host::peak_rss_mb(), "MB"),
        ],
        notes,
        outputs_digest: checker.outputs_digest(),
    }
}

/// Runs every cell of `workload` once at [`EXPECTED_SEED`] and writes the
/// reports as its expected outputs.
fn record(workload: Workload, out: &Path) -> Result<PathBuf, String> {
    let h = workload.harness(EXPECTED_SEED);
    let cells = workload.cells();
    let round = round::run(workload, &h, &cells, out);
    let mut reports = Vec::new();
    for (&cell, run) in cells.iter().zip(&round.runs) {
        check::cell(cell, &run.report, None).map_err(|why| format!("{}: {why}", cell.label()))?;
        reports.push((cell, run.report.as_ref().expect("checked above")));
    }
    Expected::record(workload, &reports).map_err(|e| format!("cannot record expected outputs: {e}"))
}

/// Median of `values` (0 for none).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}
