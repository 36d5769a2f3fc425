//! Figure 7: normalized performance of AQUA (SRAM tables) and RRS vs the
//! unmitigated baseline at `T_RH` = 1K, over 18 SPEC + 16 mix workloads.
//!
//! Paper result: AQUA loses 1.8% on average (gmean over 34), RRS 19.8%.

use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{Harness, Scheme};
use aqua_sim::gmean;

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let workloads = harness.workloads();
    let results = harness.run_matrix(
        &[Scheme::Baseline, Scheme::AquaSram, Scheme::Rrs],
        &workloads,
    );
    results.expect_complete();
    let mut rows = Vec::new();
    let mut aqua_perf = Vec::new();
    let mut rrs_perf = Vec::new();
    for workload in &workloads {
        let base = results.get(Scheme::Baseline, workload);
        let a = results
            .get(Scheme::AquaSram, workload)
            .normalized_perf(base);
        let r = results.get(Scheme::Rrs, workload).normalized_perf(base);
        aqua_perf.push(a);
        rrs_perf.push(r);
        rows.push(vec![workload.clone(), f2(a), f2(r)]);
    }
    rows.push(vec![
        "gmean".into(),
        f2(gmean(aqua_perf.iter().copied()).expect("positive perfs")),
        f2(gmean(rrs_perf.iter().copied()).expect("positive perfs")),
    ]);
    print_table(
        "Figure 7: normalized performance at T_RH=1K (paper gmean: AQUA 0.982, RRS 0.802)",
        &["workload", "aqua", "rrs"],
        &rows,
    );
    write_csv("fig07_performance", &["workload", "aqua", "rrs"], &rows);
}
