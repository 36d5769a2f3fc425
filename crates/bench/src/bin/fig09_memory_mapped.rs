//! Figure 9: AQUA with SRAM tables vs memory-mapped tables.
//!
//! Paper result: 1.8% average slowdown with SRAM tables, 2.1% with
//! memory-mapped tables — the 4x SRAM saving costs almost nothing because
//! the bloom filter and FPT-Cache absorb nearly every lookup.

use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{Harness, Scheme};
use aqua_sim::gmean;

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let workloads = harness.workloads();
    let results = harness.run_matrix(
        &[Scheme::Baseline, Scheme::AquaSram, Scheme::AquaMapped],
        &workloads,
    );
    results.expect_complete();
    let mut rows = Vec::new();
    let (mut sram_perf, mut mapped_perf) = (Vec::new(), Vec::new());
    for workload in &workloads {
        let base = results.get(Scheme::Baseline, workload);
        let s = results
            .get(Scheme::AquaSram, workload)
            .normalized_perf(base);
        let m = results
            .get(Scheme::AquaMapped, workload)
            .normalized_perf(base);
        sram_perf.push(s);
        mapped_perf.push(m);
        rows.push(vec![workload.clone(), f2(s), f2(m)]);
    }
    rows.push(vec![
        "gmean".into(),
        f2(gmean(sram_perf).expect("positive perfs")),
        f2(gmean(mapped_perf).expect("positive perfs")),
    ]);
    print_table(
        "Figure 9: AQUA SRAM vs memory-mapped tables (paper gmean: 0.982 vs 0.979)",
        &["workload", "aqua-sram", "aqua-mapped"],
        &rows,
    );
    write_csv(
        "fig09_memory_mapped",
        &["workload", "aqua_sram", "aqua_mapped"],
        &rows,
    );
}
