//! Figure 11: AQUA's sensitivity to the Rowhammer threshold, plus the
//! section V-F structure-size sensitivity (`--structures`).
//!
//! Paper result: memory-mapped AQUA loses 0.2% at `T_RH` = 2K, 2.1% at 1K,
//! and 6.8% at 500. Bloom-filter sizing 8/16/32 KB moves the loss only
//! between 2.3% and 2.0%.

use aqua::TableMode;
use aqua_bench::cli::Args;
use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{pool, Harness, Scheme};
use aqua_sim::gmean;

fn threshold_sweep() {
    let mut rows = Vec::new();
    for t_rh in [2000u64, 1000, 500] {
        let harness = Harness::new(t_rh);
        let workloads = harness.workloads();
        let results = harness.run_matrix(&[Scheme::Baseline, Scheme::AquaMapped], &workloads);
        results.expect_complete();
        let perfs: Vec<f64> = workloads
            .iter()
            .map(|w| {
                results
                    .get(Scheme::AquaMapped, w)
                    .normalized_perf(results.get(Scheme::Baseline, w))
            })
            .collect();
        rows.push(vec![
            t_rh.to_string(),
            f2(gmean(perfs).expect("positive perfs")),
        ]);
    }
    print_table(
        "Figure 11: AQUA (mapped) vs T_RH (paper gmean: 0.998 @2K, 0.979 @1K, 0.932 @500)",
        &["T_RH", "normalized perf"],
        &rows,
    );
    write_csv("fig11_threshold_sensitivity", &["t_rh", "perf"], &rows);
}

fn structure_sweep() {
    let harness = Harness::new(1000);
    let workloads = harness.workloads();
    // One shared set of baseline runs; only the AQUA structure sizing varies.
    let bases = harness.run_matrix(&[Scheme::Baseline], &workloads);
    bases.expect_complete();
    let mut rows = Vec::new();
    for (bloom_kb, cache_kb) in [(8u32, 16u32), (16, 16), (32, 16), (16, 8), (16, 32)] {
        let cfg = aqua::AquaConfig {
            table_mode: TableMode::Mapped {
                bloom_bits: bloom_kb as usize * 1024 * 8,
                cache_entries: cache_kb as usize * 1024 / 4, // 4 B/entry
            },
            ..harness.aqua_config()
        };
        let outcomes = pool::run_indexed(harness.jobs, &workloads, |_, workload| {
            let (report, _) = harness.run_engines(
                Scheme::AquaMapped.name(),
                |_| aqua::AquaEngine::new(cfg).expect("valid config"),
                workload,
                None,
            );
            report.normalized_perf(bases.get(Scheme::Baseline, workload))
        });
        let perfs: Vec<f64> = workloads
            .iter()
            .zip(outcomes)
            .map(|(w, o)| o.unwrap_or_else(|e| panic!("{w} failed: {e}")))
            .collect();
        rows.push(vec![
            format!("bloom {bloom_kb} KB / cache {cache_kb} KB"),
            f2(gmean(perfs).expect("positive perfs")),
        ]);
        eprintln!("bloom {bloom_kb} KB cache {cache_kb} KB done");
    }
    print_table(
        "Section V-F: structure-size sensitivity (paper: 2.3% / 2.1% / 2.0% loss for 8/16/32 KB bloom)",
        &["configuration", "normalized perf"],
        &rows,
    );
    write_csv("fig11_structures", &["config", "perf"], &rows);
}

fn main() {
    let mut args = Args::from_env();
    let structures = args.switch("--structures");
    args.finish();
    if structures {
        structure_sweep();
    } else {
        threshold_sweep();
    }
}
