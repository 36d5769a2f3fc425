//! Golden telemetry: the exported streams of a short hub-attached
//! migration flood, pinned by byte length and FNV-1a digest.
//!
//! Four schemes (memory-mapped AQUA, RRS, victim refresh and Blockhammer)
//! run the section VI-C `MigrationFlood` on two sharded channels for two
//! epochs, at one and at two shard workers, with seeded faults and, for
//! AQUA, background RQA draining on refresh ticks, so spans come from
//! every place the simulator and the engines record them: migrations and
//! table writes, victim refreshes, throttles, and the speculative roots
//! each of them materializes. The span JSONL, the full Chrome trace
//! (events plus spans) and the summary must reproduce the recorded bytes
//! exactly, as must `spans_recorded`. Any change to how the simulator
//! records spans (ids, parent links, ring order, the speculative roots,
//! the shard merge) therefore fails here unless it is byte-for-byte
//! invisible.

use aqua::{AquaConfig, AquaEngine};
use aqua_baselines::{Blockhammer, BlockhammerConfig, VictimRefresh, VictimRefreshConfig};
use aqua_dram::mitigation::{Mitigation, MitigationStats};
use aqua_dram::BaselineConfig;
use aqua_faults::FaultSpec;
use aqua_rrs::{RrsConfig, RrsEngine};
use aqua_sim::{ShardedSimulation, SimConfig};
use aqua_telemetry::export::{write_chrome_trace_full, write_spans_jsonl};
use aqua_telemetry::{Telemetry, TelemetryConfig};
use aqua_workload::attack::{Hammer, MigrationFlood};
use aqua_workload::{AddressSpace, RequestGenerator};

const T_RH: u64 = 1000;

/// Byte length and FNV-1a digest of one exported stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Digest {
    len: usize,
    fnv: u64,
}

impl Digest {
    fn of(bytes: &[u8]) -> Digest {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
        Digest {
            len: bytes.len(),
            fnv: h,
        }
    }
}

/// Everything the golden table pins for one run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    spans_jsonl: Digest,
    chrome_trace: Digest,
    /// Counters, histograms (span stats included) and ring accounting of
    /// the summary; the host-time wallclock is left out.
    summary: Digest,
    spans_recorded: u64,
}

fn base() -> BaselineConfig {
    BaselineConfig {
        cores: 2,
        ..BaselineConfig::tiny()
    }
    .with_channels(2)
}

/// Channel `c` floods `4 - c` banks, so the two shards do different work
/// and a swapped merge order would show. A second core hammers one row,
/// whose row-buffer hits queue behind the flood without activating, so
/// queue waits are still pending when a refresh tick or an epoch end
/// arrives.
fn flood(threshold: u64, channel: u32) -> Vec<Box<dyn RequestGenerator>> {
    let space = AddressSpace::new(BaselineConfig::tiny().geometry, 0.75);
    vec![
        Box::new(MigrationFlood::new(&space, 4 - channel, threshold)) as Box<dyn RequestGenerator>,
        Box::new(Hammer::single_sided(&space, 3, 7)),
    ]
}

/// Runs the flood with a hub attached and returns the hub. `acted` reads
/// the statistic that proves the scheme did its work (migrations, victim
/// refreshes or throttles), so its spans are in the exports.
fn run_hub<M: Mitigation>(
    engine: impl FnMut(u32) -> M,
    threshold: u64,
    workers: usize,
    acted: fn(&MitigationStats) -> u64,
) -> Telemetry {
    let cfg = SimConfig::new(base())
        .epochs(2)
        .t_rh(T_RH)
        .faults(FaultSpec {
            seed: 7,
            events_per_epoch: 6,
        });
    let mut sim =
        ShardedSimulation::new(cfg, engine, |c| flood(threshold, c)).shard_workers(workers);
    // Rings large enough to retain every span and event of both shards, so
    // a difference anywhere in the run shows in the exports.
    let hub = Telemetry::new(TelemetryConfig {
        trace_capacity: 1 << 18,
        span_capacity: 1 << 19,
        ..TelemetryConfig::default()
    });
    sim.attach_telemetry(hub.clone());
    let report = sim.run();
    assert!(
        acted(&report.mitigation) > 0,
        "the flood must make {} act",
        report.scheme
    );
    hub
}

fn golden_of(hub: &Telemetry) -> Golden {
    let spans = hub.spans();
    let events = hub.trace_events();
    let mut spans_jsonl = Vec::new();
    write_spans_jsonl(&mut spans_jsonl, &spans).unwrap();
    let mut chrome = Vec::new();
    write_chrome_trace_full(&mut chrome, &events, &spans).unwrap();
    let summary = hub.summary().unwrap();
    // Every committed span lands in exactly one per-name duration
    // histogram, so their counts must add up to the spans recorded.
    let span_stats: u64 = summary
        .histograms
        .iter()
        .filter(|(name, _)| name.starts_with("span."))
        .map(|(_, h)| h.count)
        .sum();
    assert_eq!(span_stats, summary.spans_recorded);
    let simulated = format!(
        "{:?} {:?} {} {} {} {}",
        summary.counters,
        summary.histograms,
        summary.events_recorded,
        summary.events_dropped,
        summary.epochs_recorded,
        summary.spans_dropped,
    );
    Golden {
        spans_jsonl: Digest::of(&spans_jsonl),
        chrome_trace: Digest::of(&chrome),
        summary: Digest::of(simulated.as_bytes()),
        spans_recorded: summary.spans_recorded,
    }
}

fn aqua_mapped(_channel: u32) -> AquaEngine {
    let cfg = AquaConfig::for_rowhammer_threshold(T_RH, &BaselineConfig::tiny()).with_rqa_rows(512);
    let cfg = AquaConfig {
        tracker_entries_per_bank: 256,
        fpt_entries: 1024,
        ..cfg
    }
    .with_mapped_tables()
    .with_drain_per_refresh(8);
    AquaEngine::new(cfg).unwrap()
}

fn rrs(_channel: u32) -> RrsEngine {
    let mut cfg = RrsConfig::for_rowhammer_threshold(T_RH, &BaselineConfig::tiny());
    cfg.tracker_entries_per_bank = 256;
    cfg.rit_pairs = 512;
    RrsEngine::new(cfg)
}

fn victim_refresh(_channel: u32) -> VictimRefresh {
    let mut cfg = VictimRefreshConfig::for_rowhammer_threshold(T_RH);
    cfg.tracker_entries_per_bank = 256;
    VictimRefresh::new(cfg, BaselineConfig::tiny().geometry)
}

fn blockhammer(_channel: u32) -> Blockhammer {
    Blockhammer::new(
        BlockhammerConfig::for_rowhammer_threshold(T_RH),
        BaselineConfig::tiny().geometry,
    )
}

/// Recorded with every leaf span committed by its own `span_record` call,
/// the reference that batched recording must reproduce.
const AQUA_MAPPED: Golden = Golden {
    spans_jsonl: Digest {
        len: 14_365_218,
        fnv: 0x8a56_c496_5c30_0d2a,
    },
    chrome_trace: Digest {
        len: 21_195_820,
        fnv: 0x311d_1c3d_4035_0073,
    },
    summary: Digest {
        len: 3_097,
        fnv: 0xf7bd_2a13_4689_4cc7,
    },
    spans_recorded: 133_608,
};

const RRS: Golden = Golden {
    spans_jsonl: Digest {
        len: 14_380_113,
        fnv: 0x34d0_aeab_c833_4533,
    },
    chrome_trace: Digest {
        len: 15_180_275,
        fnv: 0x8ddd_85c8_5a8a_e4c5,
    },
    summary: Digest {
        len: 1_563,
        fnv: 0x73b2_d35f_e142_1dd3,
    },
    spans_recorded: 134_269,
};

const VICTIM_REFRESH: Golden = Golden {
    spans_jsonl: Digest {
        len: 29_004_361,
        fnv: 0x78de_4ed6_cb65_e425,
    },
    chrome_trace: Digest {
        len: 30_448_409,
        fnv: 0x0b1b_4655_a626_95c9,
    },
    summary: Digest {
        len: 1_015,
        fnv: 0xf4b2_0cc2_cfff_511b,
    },
    spans_recorded: 269_916,
};

const BLOCKHAMMER: Golden = Golden {
    spans_jsonl: Digest {
        len: 942_095,
        fnv: 0xd051_94c3_cc09_f6b2,
    },
    chrome_trace: Digest {
        len: 1_016_376,
        fnv: 0xb267_cedb_3851_a2e1,
    },
    summary: Digest {
        len: 1_062,
        fnv: 0xf0fa_cb01_779f_ba7c,
    },
    spans_recorded: 8_984,
};

#[test]
fn aqua_mapped_flood_exports_are_golden() {
    for workers in [1, 2] {
        let got = golden_of(&run_hub(aqua_mapped, 500, workers, |m| m.row_migrations));
        assert_eq!(got, AQUA_MAPPED, "aqua-mapped at {workers} shard workers");
    }
}

#[test]
fn rrs_flood_exports_are_golden() {
    for workers in [1, 2] {
        let got = golden_of(&run_hub(rrs, 166, workers, |m| m.row_migrations));
        assert_eq!(got, RRS, "rrs at {workers} shard workers");
    }
}

#[test]
fn victim_refresh_flood_exports_are_golden() {
    for workers in [1, 2] {
        let got = golden_of(&run_hub(victim_refresh, 500, workers, |m| {
            m.victim_refreshes
        }));
        assert_eq!(
            got, VICTIM_REFRESH,
            "victim-refresh at {workers} shard workers"
        );
    }
}

#[test]
fn blockhammer_flood_exports_are_golden() {
    for workers in [1, 2] {
        let got = golden_of(&run_hub(blockhammer, 500, workers, |m| m.throttled));
        assert_eq!(got, BLOCKHAMMER, "blockhammer at {workers} shard workers");
    }
}
