//! Section VI-C: worst-case (denial-of-service) slowdown, measured by
//! simulation and compared against the closed-form bounds.
//!
//! Paper: AQUA's worst case is 2.95x (one quarantine per bank per 22.5 us,
//! each possibly with an eviction); RRS's is ~11x; Blockhammer's is 1280x.
//! Four cores drive the maximal migration-flood pattern, split across the
//! 16 banks.
//!
//! The six simulations run under the supervision layer; `--resume JOURNAL`
//! (or `AQUA_BENCH_JOURNAL`) checkpoints each as it concludes and replays
//! concluded ones on a re-run (DESIGN.md section 14).

use aqua::AquaEngine;
use aqua_analysis::dos::{
    aqua_worst_case_slowdown, blockhammer_worst_case_slowdown, rrs_worst_case_slowdown,
};
use aqua_baselines::{Blockhammer, BlockhammerConfig};
use aqua_bench::cli::Args;
use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{journal, supervise, Harness};
use aqua_dram::mitigation::{Mitigation, NoMitigation};
use aqua_dram::{DdrTiming, DramGeometry};
use aqua_rrs::{RrsConfig, RrsEngine};
use aqua_sim::{RunReport, Simulation};
use aqua_workload::attack::{Hammer, MigrationFlood};
use aqua_workload::RequestGenerator;

/// One flood generator per core, covering all 16 banks between them.
fn flood_gens(harness: &Harness, threshold: u64) -> Vec<Box<dyn RequestGenerator>> {
    let space = harness.space();
    (0..harness.base.cores)
        .map(|_| Box::new(MigrationFlood::new(&space, 16, threshold)) as Box<dyn RequestGenerator>)
        .collect()
}

fn run<M: Mitigation>(
    harness: &Harness,
    tag: &str,
    engine: M,
    gens: Vec<Box<dyn RequestGenerator>>,
) -> RunReport {
    // The shared sim_config path honours the soft/hard deadline knobs.
    Simulation::new(harness.sim_config(tag, "dos-flood"), engine, gens).run()
}

fn main() {
    let mut args = Args::from_env();
    let journal = args.value("--resume", "JOURNAL");
    args.finish();
    let mut harness = Harness::new(1000);
    if let Some(path) = journal {
        harness.journal = Some(path.into());
    }
    let timing = DdrTiming::ddr4_2400();
    let geometry = DramGeometry::paper_table1();
    let space = harness.space();
    let conflict = || {
        (0..harness.base.cores)
            .map(|c| Box::new(Hammer::row_conflict(&space, c, 5000)) as Box<dyn RequestGenerator>)
            .collect::<Vec<_>>()
    };

    // Each attacked scheme and its matching unmitigated baseline is an
    // independent simulation; fan all six out on the worker pool.
    let cells = [
        "aqua-base",
        "aqua",
        "rrs-base",
        "rrs",
        "blockhammer-base",
        "blockhammer",
    ];
    let journal = harness.open_journal();
    let keys: Vec<journal::CellKey> = cells
        .iter()
        .map(|&tag| harness.cell_key("dos_worstcase", tag, "dos-flood"))
        .collect();
    let labels: Vec<String> = cells.iter().map(|&t| t.to_string()).collect();
    let binding = journal.as_ref().map(|j| supervise::JournalBinding {
        journal: j,
        keys: &keys,
        labels: &labels,
        codec: supervise::Codec {
            encode: |r: &RunReport| journal::report_to_json(r),
            decode: journal::report_from_json,
        },
    });
    let supervisor = supervise::Supervisor::default();
    let reports = supervise::run_supervised(
        harness.jobs,
        &cells,
        &supervisor,
        binding.as_ref(),
        |_, &tag, _attempt| {
            let report = match tag {
                "aqua-base" => run(
                    &harness,
                    tag,
                    NoMitigation::new(harness.base.geometry),
                    flood_gens(&harness, 500),
                ),
                "aqua" => run(
                    &harness,
                    tag,
                    AquaEngine::new(harness.aqua_config()).expect("valid config"),
                    flood_gens(&harness, 500),
                ),
                "rrs-base" => run(
                    &harness,
                    tag,
                    NoMitigation::new(harness.base.geometry),
                    flood_gens(&harness, 166),
                ),
                "rrs" => run(
                    &harness,
                    tag,
                    RrsEngine::new(RrsConfig::for_rowhammer_threshold(1000, &harness.base)),
                    flood_gens(&harness, 166),
                ),
                "blockhammer-base" => run(
                    &harness,
                    tag,
                    NoMitigation::new(harness.base.geometry),
                    conflict(),
                ),
                "blockhammer" => run(
                    &harness,
                    tag,
                    Blockhammer::new(
                        BlockhammerConfig::for_rowhammer_threshold(1000),
                        harness.base.geometry,
                    ),
                    conflict(),
                ),
                _ => unreachable!(),
            };
            eprintln!(
                "{tag} done ({} migrations)",
                report.mitigation.row_migrations
            );
            report
        },
    );
    let report = |tag: &str| {
        let i = cells.iter().position(|&t| t == tag).unwrap();
        reports[i]
            .outcome
            .as_ref()
            .unwrap_or_else(|e| panic!("{tag} failed: {e}"))
    };
    let measured = |tag: &str| {
        report(&format!("{tag}-base")).requests_done as f64 / report(tag).requests_done as f64
    };

    let rows = vec![
        vec![
            "aqua".into(),
            f2(measured("aqua")),
            f2(aqua_worst_case_slowdown(&timing, &geometry, 500)),
            "2.95x".into(),
        ],
        vec![
            "rrs".into(),
            f2(measured("rrs")),
            f2(rrs_worst_case_slowdown(&timing, &geometry, 166)),
            "11x".into(),
        ],
        vec![
            "blockhammer".into(),
            f2(measured("blockhammer")),
            f2(blockhammer_worst_case_slowdown(&timing, 500, 100)),
            "1280x".into(),
        ],
    ];
    print_table(
        "Section VI-C / VII-B: worst-case slowdown under adversarial patterns",
        &["scheme", "measured", "model bound", "paper"],
        &rows,
    );
    write_csv(
        "dos_worstcase",
        &["scheme", "measured", "model", "paper"],
        &rows,
    );
}
