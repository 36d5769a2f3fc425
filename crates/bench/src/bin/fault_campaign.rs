//! Seeded fault-injection campaign: fault-rate × scheme sweep.
//!
//! ```text
//! fault_campaign [--seed N] [--trh N] [--epochs N] [--rates A,B,C]
//!                [--watchdog-secs N] [--out NAME] [--resume JOURNAL]
//!                [--strict] [--chaos-cell SCHEME/WORKLOAD]
//!                [--metrics-addr HOST:PORT] [--fail-on-alert]
//! ```
//!
//! - `--seed`: campaign base seed (default 42). Every `(scheme, workload)`
//!   cell derives its own plan seed from it, so two runs with the same seed
//!   produce byte-identical CSVs — `ci.sh` diffs exactly that.
//! - `--trh`: Rowhammer threshold (default 1000)
//! - `--epochs`: 64 ms epochs per cell (default 2, or `AQUA_BENCH_EPOCHS`)
//! - `--rates`: comma-separated fault events per epoch (default `0,2,8,32`)
//! - `--watchdog-secs`: per-cell wall-clock budget; a cell that exceeds it
//!   becomes a failed cell instead of hanging the sweep (default 120)
//! - `--out`: CSV basename under `target/experiments/` (default
//!   `fault_campaign`)
//! - `--resume`: checkpoint journal path (see DESIGN.md section 14). Every
//!   concluded cell is durable before the sweep moves on; re-running with
//!   the same journal replays concluded cells and re-runs only the rest,
//!   and the final CSV is byte-identical to an uninterrupted run.
//! - `--strict`: also exit non-zero when a cell was *quarantined* as
//!   nondeterministic (by default quarantine is reported but not fatal,
//!   keeping it distinct from the failed-cell exit).
//! - `--chaos-cell`: sabotage one cell so its first attempt panics and the
//!   determinism probe succeeds — the supervision layer's own must-fail
//!   hook (the cell ends quarantined; see `--strict`).
//! - `--metrics-addr`: serve live `/metrics` (Prometheus text) and
//!   `/healthz` while the sweep runs (port 0 binds an ephemeral port;
//!   equivalent to `AQUA_METRICS_ADDR`; watch with the `monitor` binary).
//!   Observer-only: the CSV is byte-identical with the plane on or off.
//! - `--fail-on-alert`: exit non-zero when any deterministic alert rule
//!   fired during the sweep (`sim.alerts_fired` summed over every cell) —
//!   under seeded faults the built-in `integrity_escape` rule trips as
//!   soon as a corrupted translation is observed, so this is ci.sh's
//!   must-fail hook for the alert engine.
//!
//! Workloads default to a small representative trio (`mcf`, `lbm`, `mix00`);
//! set `AQUA_BENCH_WORKLOADS` to sweep others. Schemes are the ones with
//! fault-injectable state: aqua-sram, aqua-mapped, rrs, plus victim-refresh
//! as the no-translation-state control.
//!
//! Exits non-zero if any run reports `unaccounted > 0` (a corruption whose
//! wrong access escaped the shadow memory uncounted) or any cell failed.

use aqua_bench::cli::{self, Args};
use aqua_bench::output::{print_table, write_csv};
use aqua_bench::{Chaos, Harness, RunError, Scheme};
use aqua_faults::{FaultReport, FaultSpec};

const SCHEMES: [Scheme; 4] = [
    Scheme::AquaSram,
    Scheme::AquaMapped,
    Scheme::Rrs,
    Scheme::VictimRefresh,
];

const HEADER: [&str; 15] = [
    "rate",
    "scheme",
    "workload",
    "status",
    "injected",
    "unsupported",
    "applied",
    "corruptions",
    "recovered",
    "escaped_counted",
    "dormant",
    "unaccounted",
    "engine_recovered",
    "degraded_epochs",
    "integrity_violations",
];

fn main() {
    let mut args = Args::from_env();
    let seed: u64 = args.parse("--seed", "N").unwrap_or(42);
    let t_rh: u64 = args.parse("--trh", "N").unwrap_or(1000);
    let epochs: Option<u64> = args.parse("--epochs", "N");
    let rates: Vec<u32> = args
        .parse_with("--rates", "A,B,C", |raw| {
            raw.split(',')
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .map(|s| {
                    s.parse()
                        .map_err(|_| format!("unparsable fault rate {s:?}"))
                })
                .collect()
        })
        .unwrap_or_else(|| vec![0, 2, 8, 32]);
    let watchdog_secs: u64 = args.parse("--watchdog-secs", "N").unwrap_or(120);
    let out = args
        .value("--out", "NAME")
        .unwrap_or_else(|| "fault_campaign".into());
    let journal = args.value("--resume", "JOURNAL");
    let strict = args.switch("--strict");
    let chaos_cell = args.value("--chaos-cell", "SCHEME/WORKLOAD");
    let metrics_addr = args.value("--metrics-addr", "HOST:PORT");
    let fail_on_alert = args.switch("--fail-on-alert");
    args.finish();

    let mut harness = Harness::new(t_rh);
    // Default to a small representative workload trio; AQUA_BENCH_WORKLOADS
    // (checked by workloads() before any work) overrides it.
    let workloads = if std::env::var_os("AQUA_BENCH_WORKLOADS").is_some() {
        harness.workloads()
    } else {
        vec!["mcf".to_string(), "lbm".to_string(), "mix00".to_string()]
    };
    cli::bind_metrics(&mut harness, metrics_addr);
    harness.epochs = epochs.unwrap_or(harness.epochs);
    harness.watchdog = Some(std::time::Duration::from_secs(watchdog_secs));
    if let Some(path) = journal {
        harness.journal = Some(path.into());
    }
    harness.chaos = chaos_cell.map(|cell| Chaos {
        cell,
        fail_attempts: 1,
    });
    // `--fail-on-alert` gates on per-cell `sim.alerts_fired` counters, and
    // the alert engine only runs on an enabled hub — so bring one for the
    // sweep. (A live plane auto-creates its own inside the matrix runner;
    // this is only for the gate.) CSV bytes are unchanged either way.
    let telemetry = fail_on_alert
        .then(|| aqua_telemetry::Telemetry::new(aqua_telemetry::TelemetryConfig::default()));

    println!(
        "fault campaign: seed={seed} T_RH={t_rh} epochs={} rates={rates:?} \
         schemes={:?} workloads={workloads:?} watchdog={watchdog_secs}s",
        harness.epochs,
        SCHEMES.map(Scheme::name),
    );

    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut unaccounted_total: u64 = 0;
    let mut failed_cells: u64 = 0;
    let mut quarantined_cells: u64 = 0;
    let mut alerts_fired: u64 = 0;
    for &rate in &rates {
        harness.faults = Some(FaultSpec {
            seed,
            events_per_epoch: rate,
        });
        let results = harness.run_matrix_instrumented(&SCHEMES, &workloads, telemetry.as_ref());
        alerts_fired += results.alerts_fired();
        for cell in results.cells() {
            let mut row = vec![
                rate.to_string(),
                cell.scheme.name().to_string(),
                cell.workload.clone(),
            ];
            match &cell.outcome {
                Ok(report) => {
                    let f = report.faults;
                    unaccounted_total += f.unaccounted;
                    row.push("ok".into());
                    row.extend(f.fields().map(|(_, v)| v.to_string()));
                    row.push(report.integrity_violations.to_string());
                }
                Err(err) => {
                    // The classified error kind becomes a deterministic
                    // status marker so seeded reruns still diff clean.
                    let status = match err {
                        RunError::Nondeterministic { .. } => {
                            quarantined_cells += 1;
                            "quarantined:nondeterministic".to_string()
                        }
                        other => {
                            failed_cells += 1;
                            format!("failed:{}", other.kind())
                        }
                    };
                    row.push(status);
                    // One filler per fault field plus integrity_violations.
                    row.extend((0..FaultReport::FIELD_NAMES.len() + 1).map(|_| "-".to_string()));
                }
            }
            rows.push(row);
        }
    }

    print_table(&format!("Fault campaign (seed {seed})"), &HEADER, &rows);
    write_csv(&out, &HEADER, &rows);

    if telemetry.is_some() {
        println!("alert rules fired across the sweep: {alerts_fired}");
    }
    // Keep the endpoint up for late scrapers (AQUA_METRICS_LINGER_MS) —
    // before the exit paths, so a watching `monitor` sees the final state
    // even when the campaign is about to fail.
    if let Some(plane) = &harness.metrics {
        plane.linger_from_env();
    }

    if failed_cells > 0 {
        eprintln!("FAIL: {failed_cells} campaign cell(s) failed");
    }
    if unaccounted_total > 0 {
        eprintln!("FAIL: {unaccounted_total} corruption(s) escaped accounting (unaccounted > 0)");
    }
    if quarantined_cells > 0 {
        eprintln!(
            "{}: {quarantined_cells} cell(s) quarantined as nondeterministic \
             (seeded re-run did not reproduce the failure)",
            if strict { "FAIL" } else { "WARNING" }
        );
    }
    if fail_on_alert && alerts_fired > 0 {
        eprintln!("FAIL: {alerts_fired} alert firing(s) during the sweep (--fail-on-alert)");
    }
    if failed_cells > 0
        || unaccounted_total > 0
        || (strict && quarantined_cells > 0)
        || (fail_on_alert && alerts_fired > 0)
    {
        std::process::exit(1);
    }
    println!("every injected corruption accounted for: recovered, counted, or dormant");
}
