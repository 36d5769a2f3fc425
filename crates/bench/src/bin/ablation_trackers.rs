//! Ablation: AQUA with different aggressor-row trackers (Appendix B).
//!
//! The tracker choice is orthogonal to AQUA's design; this sweep runs the
//! same workloads with the Misra-Gries (paper default), Hydra-style, CRA-
//! style, and idealized exact trackers, comparing performance, migrations
//! (spurious mitigations show up here), SRAM footprint, and the security
//! verdict.

use aqua::{AquaEngine, TrackerKind};
use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{pool, Harness, Scheme};
use aqua_sim::gmean;

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let workloads = harness.workloads();
    // One shared set of baseline runs; only the tracker varies per sweep.
    let bases = harness.run_matrix(&[Scheme::Baseline], &workloads);
    bases.expect_complete();
    let trackers = [
        ("misra-gries", TrackerKind::MisraGries),
        ("hydra", TrackerKind::Hydra),
        ("cra", TrackerKind::Cra),
        ("exact", TrackerKind::Exact),
    ];
    let mut rows = Vec::new();
    for (name, kind) in trackers {
        let mut cfg = harness.aqua_config();
        cfg.tracker = kind;
        let outcomes = pool::run_indexed(harness.jobs, &workloads, |_, workload| {
            let (report, engines) = harness.run_engines(
                Scheme::AquaSram.name(),
                |_| AquaEngine::new(cfg).expect("valid config"),
                workload,
                None,
            );
            let perf = report.normalized_perf(bases.get(Scheme::Baseline, workload));
            (
                perf,
                report.migrations_per_epoch(),
                report.oracle.rows_over_trh,
                // One tracker per channel engine.
                engines
                    .iter()
                    .map(AquaEngine::tracker_sram_bits)
                    .sum::<u64>(),
            )
        });
        let mut perfs = Vec::new();
        let mut migrations = 0.0;
        let mut over_trh = 0u64;
        let mut sram_bits = 0u64;
        let mut runs = 0u32;
        for (workload, outcome) in workloads.iter().zip(outcomes) {
            let (perf, migs, over, bits) =
                outcome.unwrap_or_else(|e| panic!("{name}/{workload} failed: {e}"));
            perfs.push(perf);
            migrations += migs;
            over_trh += over;
            sram_bits = bits;
            runs += 1;
        }
        rows.push(vec![
            name.to_string(),
            f2(gmean(perfs).expect("positive perfs")),
            format!("{:.0}", migrations / runs as f64),
            format!("{} KB", sram_bits / 8 / 1024),
            over_trh.to_string(),
        ]);
        eprintln!("{name} swept");
    }
    print_table(
        "Tracker ablation at T_RH=1K (Appendix B: the mitigation is tracker-agnostic)",
        &[
            "tracker",
            "gmean perf",
            "migrations/epoch",
            "tracker SRAM",
            "rows>T_RH",
        ],
        &rows,
    );
    write_csv(
        "ablation_trackers",
        &["tracker", "perf", "migrations", "sram", "rows_over_trh"],
        &rows,
    );
}
