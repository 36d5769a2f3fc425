//! Figure 3: RRS slowdown as the Rowhammer threshold drops 4K -> 2K -> 1K.
//!
//! Paper result: average slowdown 2.7% at 4K, 8.2% at 2K, 19.8% at 1K —
//! the scalability cliff that motivates AQUA.

use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{Harness, Scheme};
use aqua_sim::gmean;

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let thresholds = [4000u64, 2000, 1000];
    let workloads = Harness::new(1000).workloads();
    let mut per_wl: Vec<Vec<String>> = workloads.iter().map(|w| vec![w.clone()]).collect();
    let mut means = vec!["gmean".to_string()];
    for &t_rh in &thresholds {
        let harness = Harness::new(t_rh);
        let results = harness.run_matrix(&[Scheme::Baseline, Scheme::Rrs], &workloads);
        results.expect_complete();
        let mut perfs = Vec::new();
        for (i, workload) in workloads.iter().enumerate() {
            let base = results.get(Scheme::Baseline, workload);
            let p = results.get(Scheme::Rrs, workload).normalized_perf(base);
            perfs.push(p);
            per_wl[i].push(f2(p));
        }
        means.push(f2(gmean(perfs).expect("positive perfs")));
    }
    per_wl.push(means);
    print_table(
        "Figure 3: RRS normalized perf vs T_RH (paper gmean: 0.973 @4K, 0.918 @2K, 0.802 @1K)",
        &["workload", "rrs@4K", "rrs@2K", "rrs@1K"],
        &per_wl,
    );
    write_csv(
        "fig03_rrs_scaling",
        &["workload", "rrs_4k", "rrs_2k", "rrs_1k"],
        &per_wl,
    );
}
