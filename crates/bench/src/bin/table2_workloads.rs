//! Table II: workload characteristics — MPKI and rows with 166+/500+/1000+
//! activations per 64 ms — measured by the security oracle on an
//! unmitigated baseline run of each calibrated generator.
//!
//! This experiment validates the workload substitution: the measured band
//! counts should track the paper's Table II inputs.

use aqua_bench::output::{print_table, write_csv};
use aqua_bench::{Harness, Scheme};
use aqua_workload::spec::TABLE2;

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let workloads: Vec<String> = TABLE2.iter().map(|w| w.name.to_string()).collect();
    let results = harness.run_matrix(&[Scheme::Baseline], &workloads);
    results.expect_complete();
    let mut rows = Vec::new();
    for w in TABLE2 {
        let report = results.get(Scheme::Baseline, w.name);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.2}", w.mpki),
            format!("{}/{}", report.oracle.avg_rows_166, w.act_166),
            format!("{}/{}", report.oracle.avg_rows_500, w.act_500),
            format!("{}/{}", report.oracle.avg_rows_1000, w.act_1000),
        ]);
    }
    print_table(
        "Table II: measured/paper rows per activation band (64 ms epochs)",
        &["workload", "mpki", "act166+", "act500+", "act1000+"],
        &rows,
    );
    write_csv(
        "table2_workloads",
        &["workload", "mpki", "act166", "act500", "act1000"],
        &rows,
    );
}
