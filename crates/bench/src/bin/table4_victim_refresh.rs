//! Table IV: AQUA vs victim refresh.
//!
//! Paper: victim refresh has near-zero slowdown and stops classic Rowhammer,
//! but Half-Double's far aggressors defeat it; AQUA stops both. This binary
//! runs the actual attack patterns at full scale (`T_RH` = 1K, 64 ms epochs)
//! and reports whether each defence kept the targeted victim safe, plus the
//! average-workload slowdown of both schemes.

use aqua::AquaEngine;
use aqua_baselines::{VictimRefresh, VictimRefreshConfig};
use aqua_bench::output::{print_table, write_csv};
use aqua_bench::{pool, Harness, Scheme};
use aqua_dram::mitigation::Mitigation;
use aqua_dram::{BankId, RowAddr};
use aqua_sim::{gmean, SimConfig, Simulation};
use aqua_workload::attack::Hammer;
use aqua_workload::RequestGenerator;

const VICTIM_ROW: u32 = 5000;

fn attack_outcome<M: Mitigation>(harness: &Harness, engine: M, pattern: Hammer) -> bool {
    let cfg = SimConfig::new(harness.base)
        .epochs(harness.epochs)
        .t_rh(harness.t_rh);
    let mut sim = Simulation::new(
        cfg,
        engine,
        [Box::new(pattern) as Box<dyn RequestGenerator>],
    );
    sim.run();
    sim.oracle().is_flippable(RowAddr {
        bank: BankId::new(0),
        row: VICTIM_ROW,
    })
}

fn main() {
    aqua_bench::cli::Args::from_env().finish();
    let harness = Harness::new(1000);
    let workloads = harness.workloads();
    let space = harness.space();
    let vr = || {
        VictimRefresh::new(
            VictimRefreshConfig::for_rowhammer_threshold(harness.t_rh),
            harness.base.geometry,
        )
    };
    let aqua = || AquaEngine::new(harness.aqua_config()).expect("valid config");

    let classic = || Hammer::double_sided(&space, 0, VICTIM_ROW);
    let half_double = || Hammer::half_double(&space, 0, VICTIM_ROW);

    // The four attack cells are independent simulations; fan them out on the
    // same pool the workload matrix uses.
    let attacks = ["vr-classic", "vr-hd", "aqua-classic", "aqua-hd"];
    let outcomes = pool::run_indexed(harness.jobs, &attacks, |_, &tag| {
        let flipped = match tag {
            "vr-classic" => attack_outcome(&harness, vr(), classic()),
            "vr-hd" => attack_outcome(&harness, vr(), half_double()),
            "aqua-classic" => attack_outcome(&harness, aqua(), classic()),
            "aqua-hd" => attack_outcome(&harness, aqua(), half_double()),
            _ => unreachable!(),
        };
        eprintln!("attack {tag} done");
        flipped
    });
    let outcome = |tag: &str| {
        let i = attacks.iter().position(|&t| t == tag).unwrap();
        *outcomes[i]
            .as_ref()
            .unwrap_or_else(|e| panic!("attack {tag} failed: {e}"))
    };
    let (vr_classic, vr_hd) = (outcome("vr-classic"), outcome("vr-hd"));
    let (aqua_classic, aqua_hd) = (outcome("aqua-classic"), outcome("aqua-hd"));

    // Average slowdown over the workloads (victim refresh < 0.2% in paper).
    let results = harness.run_matrix(
        &[Scheme::Baseline, Scheme::VictimRefresh, Scheme::AquaSram],
        &workloads,
    );
    results.expect_complete();
    let mut vr_perf = Vec::new();
    let mut aqua_perf = Vec::new();
    for workload in &workloads {
        let base = results.get(Scheme::Baseline, workload);
        vr_perf.push(
            results
                .get(Scheme::VictimRefresh, workload)
                .normalized_perf(base),
        );
        aqua_perf.push(
            results
                .get(Scheme::AquaSram, workload)
                .normalized_perf(base),
        );
    }
    let defended = |flipped: bool| if flipped { "NO (bit flip)" } else { "yes" }.to_string();
    let rows = vec![
        vec![
            "slowdown (gmean)".into(),
            format!(
                "{:.1}%",
                (1.0 - gmean(vr_perf).expect("positive perfs")) * 100.0
            ),
            format!(
                "{:.1}%",
                (1.0 - gmean(aqua_perf).expect("positive perfs")) * 100.0
            ),
        ],
        vec![
            "mitigates classic Rowhammer".into(),
            defended(vr_classic),
            defended(aqua_classic),
        ],
        vec![
            "mitigates Half-Double".into(),
            defended(vr_hd),
            defended(aqua_hd),
        ],
        vec![
            "works without DRAM mapping".into(),
            "no".into(),
            "yes".into(),
        ],
    ];
    print_table(
        "Table IV: victim refresh vs AQUA (paper: <0.2% vs 2.1%; VR fails Half-Double)",
        &["attribute", "victim-refresh", "aqua"],
        &rows,
    );
    write_csv(
        "table4_victim_refresh",
        &["attribute", "victim_refresh", "aqua"],
        &rows,
    );
}
