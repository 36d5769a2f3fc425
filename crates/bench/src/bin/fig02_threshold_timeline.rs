//! Figure 2: the Rowhammer threshold over DRAM generations.
//!
//! Paper: the threshold fell ~30x, from 139K (DDR3, 2014) to 4.8K
//! (LPDDR4, 2020).

use aqua_analysis::thresholds::{reduction_factor, TIMELINE};
use aqua_bench::output::{print_table, write_csv};

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let rows: Vec<Vec<String>> = TIMELINE
        .iter()
        .map(|p| vec![p.device.to_string(), p.year.to_string(), p.t_rh.to_string()])
        .collect();
    print_table(
        "Figure 2: Rowhammer threshold timeline",
        &["device", "year", "T_RH"],
        &rows,
    );
    println!(
        "overall reduction: {:.1}x (paper: ~30x)",
        reduction_factor()
    );
    write_csv(
        "fig02_threshold_timeline",
        &["device", "year", "t_rh"],
        &rows,
    );
}
