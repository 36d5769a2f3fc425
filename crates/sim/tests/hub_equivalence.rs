//! Attaching a telemetry hub never changes a simulated result.
//!
//! `Simulation::run` compiles its serve loop twice, with and without the
//! hub calls, and picks the copy by whether a hub is attached. Every
//! scheme runs a migration flood with seeded faults on one and on two
//! channels, once with a hub and once without, and the two reports must
//! agree in every field but the telemetry summary.

use aqua::{AquaConfig, AquaEngine};
use aqua_baselines::{Blockhammer, BlockhammerConfig, VictimRefresh, VictimRefreshConfig};
use aqua_dram::mitigation::{Mitigation, NoMitigation};
use aqua_dram::BaselineConfig;
use aqua_faults::FaultSpec;
use aqua_rrs::{RrsConfig, RrsEngine};
use aqua_sim::{RunReport, ShardedSimulation, SimConfig};
use aqua_telemetry::{Telemetry, TelemetryConfig};
use aqua_workload::attack::{Hammer, MigrationFlood};
use aqua_workload::{AddressSpace, RequestGenerator};

const T_RH: u64 = 1000;

fn tiny() -> BaselineConfig {
    BaselineConfig {
        cores: 2,
        ..BaselineConfig::tiny()
    }
}

/// A flood that makes every scheme act, plus a core whose row-buffer hits
/// queue behind it.
fn flood(_channel: u32) -> Vec<Box<dyn RequestGenerator>> {
    let space = AddressSpace::new(tiny().geometry, 0.75);
    vec![
        Box::new(MigrationFlood::new(&space, 4, 166)) as Box<dyn RequestGenerator>,
        Box::new(Hammer::single_sided(&space, 3, 7)),
    ]
}

fn run<M: Mitigation>(engine: impl FnMut(u32) -> M, channels: u32, hub: bool) -> RunReport {
    let cfg = SimConfig::new(tiny().with_channels(channels))
        .epochs(2)
        .t_rh(T_RH)
        .faults(FaultSpec {
            seed: 7,
            events_per_epoch: 6,
        });
    let mut sim = ShardedSimulation::new(cfg, engine, flood);
    if hub {
        sim.attach_telemetry(Telemetry::new(TelemetryConfig::default()));
    }
    sim.run()
}

fn assert_hub_changes_nothing<M: Mitigation>(engine: impl Fn(u32) -> M, acts: bool) {
    for channels in [1, 2] {
        let with_hub = run(&engine, channels, true);
        let without = run(&engine, channels, false);
        assert!(with_hub.telemetry.is_some() && without.telemetry.is_none());
        assert!(without.faults.injected > 0, "no fault was injected");
        if acts {
            assert!(
                without.mitigation.mitigations_triggered > 0,
                "{} never acted",
                without.scheme
            );
        }
        assert_eq!(
            RunReport {
                telemetry: None,
                ..with_hub
            },
            without,
            "{} on {channels} channel(s)",
            without.scheme
        );
    }
}

fn aqua(mapped: bool) -> AquaEngine {
    let cfg = AquaConfig::for_rowhammer_threshold(T_RH, &tiny()).with_rqa_rows(512);
    let cfg = AquaConfig {
        tracker_entries_per_bank: 256,
        fpt_entries: 1024,
        ..cfg
    };
    let cfg = if mapped {
        cfg.with_mapped_tables().with_drain_per_refresh(8)
    } else {
        cfg
    };
    AquaEngine::new(cfg).unwrap()
}

#[test]
fn baseline_is_unchanged_by_a_hub() {
    assert_hub_changes_nothing(|_| NoMitigation::new(tiny().geometry), false);
}

#[test]
fn aqua_sram_is_unchanged_by_a_hub() {
    assert_hub_changes_nothing(|_| aqua(false), true);
}

#[test]
fn aqua_mapped_is_unchanged_by_a_hub() {
    assert_hub_changes_nothing(|_| aqua(true), true);
}

#[test]
fn rrs_is_unchanged_by_a_hub() {
    assert_hub_changes_nothing(
        |_| {
            let mut cfg = RrsConfig::for_rowhammer_threshold(T_RH, &tiny());
            cfg.tracker_entries_per_bank = 256;
            cfg.rit_pairs = 512;
            RrsEngine::new(cfg)
        },
        true,
    );
}

#[test]
fn victim_refresh_is_unchanged_by_a_hub() {
    assert_hub_changes_nothing(
        |_| {
            let mut cfg = VictimRefreshConfig::for_rowhammer_threshold(T_RH);
            cfg.tracker_entries_per_bank = 256;
            VictimRefresh::new(cfg, tiny().geometry)
        },
        true,
    );
}

#[test]
fn blockhammer_is_unchanged_by_a_hub() {
    assert_hub_changes_nothing(
        |_| {
            Blockhammer::new(
                BlockhammerConfig::for_rowhammer_threshold(T_RH),
                tiny().geometry,
            )
        },
        true,
    );
}
