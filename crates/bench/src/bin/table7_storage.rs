//! Table VII: total per-rank SRAM including trackers (Appendix B), plus the
//! section V-H power estimates (`--power`).
//!
//! Paper: RRS-MG 2870 KB, AQUA-MG 437 KB, RRS-Hydra 2502 KB, AQUA-Hydra
//! 71 KB; power 13.6 mW SRAM + ~8.5 mW DRAM for AQUA.

use aqua_analysis::power::aqua_power;
use aqua_analysis::storage::table7;
use aqua_bench::cli::Args;
use aqua_bench::output::{f2, print_table, write_csv};

fn storage_table() {
    let rows: Vec<Vec<String>> = table7()
        .iter()
        .map(|(name, b)| {
            vec![
                name.to_string(),
                format!("{} KB", b.tracker_bytes / 1024),
                format!("{} KB", b.mapping_bytes / 1024),
                format!("{} KB", b.buffer_bytes / 1024),
                format!("{} KB", b.total() / 1024),
            ]
        })
        .collect();
    print_table(
        "Table VII: SRAM per rank incl. tracker (paper totals: 2870/437/2502/71 KB)",
        &["configuration", "tracker", "mapping", "buffers", "total"],
        &rows,
    );
    write_csv(
        "table7_storage",
        &[
            "config",
            "tracker_kb",
            "mapping_kb",
            "buffer_kb",
            "total_kb",
        ],
        &rows,
    );
}

fn power_table() {
    // The paper's design point: 16 KB bloom, 16 KB FPT-Cache, 8 KB copy
    // buffer, 1099 migrations per 64 ms (the Figure 6 average).
    let p = aqua_power(16.0, 16.0, 8.0, 1099.0);
    let rows = vec![
        vec!["bloom filter".into(), f2(p.bloom_mw)],
        vec!["FPT-Cache".into(), f2(p.fpt_cache_mw)],
        vec!["copy buffer".into(), f2(p.copy_buffer_mw)],
        vec!["SRAM total".into(), f2(p.sram_mw())],
        vec!["DRAM (migrations)".into(), f2(p.dram_mw)],
        vec!["total".into(), f2(p.total_mw())],
    ];
    print_table(
        "Section V-H power (paper: 5.4 + 5.4 + 2.8 = 13.6 mW SRAM, 8.5 mW DRAM)",
        &["component", "mW"],
        &rows,
    );
    write_csv("table7_power", &["component", "mw"], &rows);
}

fn main() {
    let mut args = Args::from_env();
    let power = args.switch("--power");
    args.finish();
    if power {
        power_table();
    } else {
        storage_table();
        power_table();
    }
}
