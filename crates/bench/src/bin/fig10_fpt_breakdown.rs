//! Figure 10: classification of FPT lookups with memory-mapped tables.
//!
//! Paper result (averages): 92.2% resolved by a clear bloom bit, 7.3% by an
//! FPT-Cache hit, 0.4% by the singleton optimization, and <0.1% need a DRAM
//! access.

use aqua::{AquaEngine, LookupBreakdown};
use aqua_bench::output::{pct, print_table, write_csv};
use aqua_bench::{pool, Harness, Scheme};

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let workloads = harness.workloads();
    let total = workloads.len();
    let cfg = harness.aqua_config().with_mapped_tables();
    let breakdowns = pool::run_indexed(harness.jobs, &workloads, |i, workload| {
        let (_, engines) = harness.run_engines(
            Scheme::AquaMapped.name(),
            |_| AquaEngine::new(cfg).expect("valid AQUA config"),
            workload,
            None,
        );
        eprintln!("[{}/{total}] {workload} done", i + 1);
        // One engine per channel: the system's lookups are their sum.
        let per_channel: Vec<LookupBreakdown> = engines
            .iter()
            .map(|e| {
                e.lookup_breakdown()
                    .expect("mapped engine reports a breakdown")
            })
            .collect();
        LookupBreakdown::aggregate(&per_channel)
    });
    let mut rows = Vec::new();
    let mut sums = [0.0f64; 4];
    for (workload, breakdown) in workloads.iter().zip(breakdowns) {
        let breakdown = breakdown.unwrap_or_else(|e| panic!("{workload} failed: {e}"));
        let f = breakdown.fractions();
        for (s, v) in sums.iter_mut().zip(f) {
            *s += v;
        }
        rows.push(vec![
            workload.clone(),
            pct(f[0]),
            pct(f[1]),
            pct(f[2]),
            pct(f[3]),
        ]);
    }
    let n = total as f64;
    rows.push(vec![
        "average".into(),
        pct(sums[0] / n),
        pct(sums[1] / n),
        pct(sums[2] / n),
        pct(sums[3] / n),
    ]);
    print_table(
        "Figure 10: FPT-lookup breakdown (paper avg: 92.2% / 7.3% / 0.4% / <0.1%)",
        &["workload", "bloom-clear", "cache-hit", "singleton", "dram"],
        &rows,
    );
    write_csv(
        "fig10_fpt_breakdown",
        &["workload", "bloom_clear", "cache_hit", "singleton", "dram"],
        &rows,
    );
}
