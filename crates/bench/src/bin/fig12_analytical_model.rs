//! Figure 12 / Appendix A: the analytical migration-overhead model
//! `r(f) = 2 (1 + 2f) / f`, cross-checked against the simulator.
//!
//! Paper result: RRS performs at least 6x more row migrations than AQUA
//! (`f` = 1), ~9x on average across the 34 workloads (`f` ~= 0.4).

use aqua_analysis::migration_model::{figure12, implied_f, rrs_over_aqua_ratio};
use aqua_bench::output::{f2, print_table, write_csv};
use aqua_bench::{Harness, Scheme};

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    // The analytical curve.
    let fig = figure12(20);
    let rows: Vec<Vec<String>> = fig
        .points
        .iter()
        .map(|(f, r)| vec![f2(*f), f2(*r)])
        .collect();
    print_table(
        "Figure 12: analytical r(f) = 2(1+2f)/f (6x at f=1, 9x at f=0.4)",
        &["f", "RRS/AQUA migrations"],
        &rows,
    );
    write_csv("fig12_analytical_model", &["f", "ratio"], &rows);

    // Cross-check against measured migrations on a few hot workloads.
    let harness = Harness::new(1000);
    let workloads: Vec<String> = ["mcf", "blender", "gcc"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let results = harness.run_matrix(&[Scheme::AquaSram, Scheme::Rrs], &workloads);
    results.expect_complete();
    let mut check = Vec::new();
    for workload in &workloads {
        let a = results
            .get(Scheme::AquaSram, workload)
            .migrations_per_epoch();
        let r = results.get(Scheme::Rrs, workload).migrations_per_epoch();
        if a > 0.0 && r / a > 6.0 {
            let f = implied_f(r / a);
            check.push(vec![
                workload.clone(),
                f2(r / a),
                f2(f),
                f2(rrs_over_aqua_ratio(f)),
            ]);
        } else if a > 0.0 {
            check.push(vec![workload.clone(), f2(r / a), "-".into(), "-".into()]);
        }
        eprintln!(
            "{workload}: measured ratio {:.1}",
            if a > 0.0 { r / a } else { f64::NAN }
        );
    }
    print_table(
        "Appendix A cross-check: measured RRS/AQUA ratio and implied f",
        &["workload", "measured ratio", "implied f", "model r(f)"],
        &check,
    );
    write_csv(
        "fig12_crosscheck",
        &["workload", "ratio", "implied_f", "model"],
        &check,
    );
}
