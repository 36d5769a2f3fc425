//! Compare all mitigation schemes on one four-way workload mix: normalized
//! performance, migrations, and the security verdict, side by side.
//!
//! ```text
//! cargo run --release --example mitigation_compare [-- --workload NAME]
//! ```
//!
//! `--workload` is any Table II name (`lbm`, `mcf`, ...) or `mixNN`
//! (default `mix00`). Any other argument, or an unknown name, exits 2
//! with a usage line before the first run.

use aqua_bench::cli::Args;
use aqua_bench::{Harness, Scheme};

fn main() {
    let mut args = Args::from_env();
    let workload = args
        .parse_with("--workload", "NAME", Harness::known_workload)
        .unwrap_or_else(|| "mix00".into());
    args.finish();
    let harness = Harness::new(1000);
    let baseline = harness.run(Scheme::Baseline, &workload);
    println!(
        "workload {workload}: {} requests/epoch unmitigated\n",
        baseline.requests_done / baseline.epochs
    );
    println!(
        "{:<16} {:>10} {:>14} {:>12} {:>10}",
        "scheme", "perf", "migrations/ep", "refreshes", "rows>T_RH"
    );
    for scheme in [
        Scheme::AquaSram,
        Scheme::AquaMapped,
        Scheme::Rrs,
        Scheme::VictimRefresh,
        Scheme::Blockhammer,
    ] {
        let report = harness.run(scheme, &workload);
        println!(
            "{:<16} {:>10.3} {:>14.0} {:>12} {:>10}",
            scheme.name(),
            report.normalized_perf(&baseline),
            report.migrations_per_epoch(),
            report.mitigation.victim_refreshes,
            report.oracle.rows_over_trh,
        );
    }
}
