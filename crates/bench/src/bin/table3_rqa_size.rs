//! Table III: quarantine-area size vs effective threshold (Eq. 1–3).
//!
//! Paper values: 15,302 rows at A=1000 down to 46,620 rows (2.2% of DRAM)
//! at A=1.

use aqua_analysis::rqa_sizing::table3;
use aqua_bench::output::{pct, print_table, write_csv};
use aqua_dram::{DdrTiming, DramGeometry};

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let rows: Vec<Vec<String>> = table3(&DdrTiming::ddr4_2400(), &DramGeometry::paper_table1())
        .iter()
        .map(|p| {
            vec![
                p.threshold.to_string(),
                p.rows.to_string(),
                format!("{:.0} MB", p.megabytes),
                pct(p.dram_overhead),
            ]
        })
        .collect();
    print_table(
        "Table III: quarantine size vs threshold (paper: 15302/23053/30872/37176/42367/46620 rows)",
        &["threshold A", "R_max rows", "size", "DRAM overhead"],
        &rows,
    );
    write_csv(
        "table3_rqa_size",
        &["threshold", "rows", "size_mb", "overhead"],
        &rows,
    );
}
