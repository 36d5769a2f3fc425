//! Table V: the Rowhammer threshold CROW can tolerate as copy-rows grow.
//!
//! Paper: CROW's Row-Clone confinement to one subarray means even 100% DRAM
//! overhead only reaches `T_RH` ~= 5.3K — above thresholds already observed
//! in 2020 devices.

use aqua_baselines::crow::table5;
use aqua_bench::output::{pct, print_table, write_csv};

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let rows: Vec<Vec<String>> = table5()
        .iter()
        .map(|p| {
            vec![
                p.copy_rows.to_string(),
                pct(p.dram_overhead),
                p.aggressors_tolerated.to_string(),
                p.t_rh_tolerated.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table V: CROW copy-rows vs tolerated T_RH (paper: 340K / 85K / 21.3K / 5.3K)",
        &["copy rows", "DRAM overhead", "aggressors", "T_RH tolerated"],
        &rows,
    );
    write_csv(
        "table5_crow",
        &["copy_rows", "overhead", "aggressors", "t_rh"],
        &rows,
    );
}
