//! Figure 6: row migrations per 64 ms epoch, AQUA vs RRS, at `T_RH` = 1K.
//!
//! Paper result: AQUA performs 1099 migrations per epoch on average, RRS
//! 9935 — a 9x reduction (the Appendix A model explains the ratio).

use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{Harness, Scheme};

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let workloads = harness.workloads();
    let results = harness.run_matrix(&[Scheme::AquaSram, Scheme::Rrs], &workloads);
    results.expect_complete();
    let mut rows = Vec::new();
    let mut aqua_total = 0.0;
    let mut rrs_total = 0.0;
    for workload in &workloads {
        let a = results
            .get(Scheme::AquaSram, workload)
            .migrations_per_epoch();
        let r = results.get(Scheme::Rrs, workload).migrations_per_epoch();
        aqua_total += a;
        rrs_total += r;
        rows.push(vec![
            workload.clone(),
            f2(a),
            f2(r),
            if a > 0.0 { f2(r / a) } else { "-".into() },
        ]);
    }
    let n = workloads.len() as f64;
    let (a_avg, r_avg) = (aqua_total / n, rrs_total / n);
    rows.push(vec![
        "average".into(),
        f2(a_avg),
        f2(r_avg),
        if a_avg > 0.0 {
            f2(r_avg / a_avg)
        } else {
            "-".into()
        },
    ]);
    print_table(
        "Figure 6: row migrations per 64 ms at T_RH=1K (paper avg: AQUA 1099, RRS 9935, 9x)",
        &["workload", "aqua", "rrs", "rrs/aqua"],
        &rows,
    );
    write_csv(
        "fig06_migrations",
        &["workload", "aqua", "rrs", "rrs_over_aqua"],
        &rows,
    );
}
