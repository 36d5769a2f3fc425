//! Ablation: security margin of the Eq. 3 quarantine-area sizing.
//!
//! The paper sizes the RQA so that, under the worst-case migration flood,
//! no slot is reused within an epoch. This ablation shrinks the RQA below
//! the Eq. 3 bound and counts the slot-reuse violations the engine detects
//! — demonstrating both that the bound is needed (undersized areas violate)
//! and that it is not wasteful (full size plus margin shows zero).
//!
//! A second sweep measures the effect of the optional background draining
//! (`drain_per_refresh`): with draining on, installs find clean slots and
//! the 2.74 us evict-then-install path disappears from the critical path.

use aqua::{AquaConfig, AquaEngine};
use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{pool, Harness};
use aqua_sim::{SimConfig, Simulation};
use aqua_workload::attack::MigrationFlood;
use aqua_workload::RequestGenerator;

fn run_flood(harness: &Harness, cfg: AquaConfig) -> (u64, u64, u64) {
    let space = harness.space();
    let gens = (0..harness.base.cores)
        .map(|_| Box::new(MigrationFlood::new(&space, 16, 500)) as Box<dyn RequestGenerator>);
    let sim_cfg = SimConfig::new(harness.base)
        .epochs(harness.epochs)
        .t_rh(harness.t_rh);
    let mut sim = Simulation::new(sim_cfg, AquaEngine::new(cfg).expect("valid config"), gens);
    let report = sim.run();
    let stats = sim.mitigation().stats();
    (
        report.mitigation.row_migrations,
        report.mitigation.violations,
        stats.evictions,
    )
}

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let full = harness.aqua_config();

    println!("RQA sizing margin under the worst-case migration flood:");
    let sizes = [100u64, 75, 50, 25, 10];
    let floods = pool::run_indexed(harness.jobs, &sizes, |_, &pct| {
        let cfg = full.with_rqa_rows((full.rqa_rows * pct / 100).max(16));
        let out = run_flood(&harness, cfg);
        eprintln!("{pct}% done");
        (cfg.rqa_rows, out)
    });
    let mut rows = Vec::new();
    for (&pct, outcome) in sizes.iter().zip(floods) {
        let (rqa_rows, (migrations, violations, _)) =
            outcome.unwrap_or_else(|e| panic!("{pct}% flood failed: {e}"));
        rows.push(vec![
            format!("{pct}% of Eq.3"),
            rqa_rows.to_string(),
            migrations.to_string(),
            violations.to_string(),
        ]);
    }
    print_table(
        "RQA margin ablation (violations must be zero only at full size)",
        &["size", "rows", "migrations", "slot-reuse violations"],
        &rows,
    );
    write_csv(
        "ablation_rqa_margin",
        &["size", "rows", "migrations", "violations"],
        &rows,
    );

    println!("\nBackground-drain ablation (evictions left on the critical path):");
    let drains = [0u32, 1, 4, 16];
    let drained = pool::run_indexed(harness.jobs, &drains, |_, &drain| {
        let out = run_flood(&harness, full.with_drain_per_refresh(drain));
        eprintln!("drain {drain} done");
        out
    });
    let mut rows = Vec::new();
    for (&drain, outcome) in drains.iter().zip(drained) {
        let (migrations, _, evictions) =
            outcome.unwrap_or_else(|e| panic!("drain {drain} flood failed: {e}"));
        rows.push(vec![
            drain.to_string(),
            migrations.to_string(),
            evictions.to_string(),
            f2(evictions as f64 / migrations.max(1) as f64),
        ]);
    }
    print_table(
        "Background draining (section IV-D: takes evictions off the critical path)",
        &[
            "drain/refresh",
            "migrations",
            "critical-path evictions",
            "evict fraction",
        ],
        &rows,
    );
    write_csv(
        "ablation_drain",
        &["drain_per_refresh", "migrations", "evictions", "fraction"],
        &rows,
    );
}
