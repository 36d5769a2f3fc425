//! Criterion micro-benchmarks for the hot structures on AQUA's critical
//! path: CAT/FPT lookup, bloom-filter check, FPT-Cache access, RQA slot
//! allocation, the deterministic fast-hash map against std's SipHash map,
//! Misra-Gries updates on full and on lightly used tables, the telemetry
//! spans the serve path records (the speculative root on the quiet
//! mitigation path and the per-access leaf spans), the quarantine
//! operation itself, and the simulator's activation oracle and
//! shadow-memory check.

use aqua::{
    AquaConfig, AquaEngine, CollisionAvoidanceTable, FptCache, MappedTables, QuarantineArea,
    ResettableBloomFilter, RqaSlot,
};
use aqua_dram::mitigation::Mitigation;
use aqua_dram::{BaselineConfig, DramGeometry, GlobalRowId, RowAddr, Time};
use aqua_sim::{ActivationOracle, ShadowMemory};
use aqua_telemetry::{SpanBatch, Telemetry};
use aqua_tracker::{AggressorTracker, MisraGriesTracker, TrackerConfig};
use aqua_workload::AddressSpace;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench_cat(c: &mut Criterion) {
    let mut cat: CollisionAvoidanceTable<u32> = CollisionAvoidanceTable::new(32 * 1024);
    for k in 0..23_000u64 {
        cat.insert(k.wrapping_mul(0x2545_f491_4f6c_dd1d), k as u32)
            .unwrap();
    }
    let mut i = 0u64;
    c.bench_function("cat_lookup_hit", |b| {
        b.iter(|| {
            i = (i + 1) % 23_000;
            black_box(cat.get(i.wrapping_mul(0x2545_f491_4f6c_dd1d)))
        })
    });
    c.bench_function("cat_lookup_miss", |b| {
        b.iter(|| {
            i += 1;
            black_box(cat.get(i | 1 << 63))
        })
    });
}

fn bench_bloom(c: &mut Criterion) {
    let mut bf = ResettableBloomFilter::new(128 * 1024, 16);
    for g in (0..23_000u64).map(|g| g * 7) {
        bf.insert(g);
    }
    let mut g = 0u64;
    c.bench_function("bloom_query", |b| {
        b.iter(|| {
            g += 13;
            black_box(bf.maybe_quarantined(g % 131_072))
        })
    });
}

fn bench_fpt_cache(c: &mut Criterion) {
    let mut cache = FptCache::new(4 * 1024);
    for r in 0..4_000u64 {
        cache.insert(r * 16, r, RqaSlot::new(r), true);
    }
    let mut r = 0u64;
    c.bench_function("fpt_cache_lookup", |b| {
        b.iter(|| {
            r = (r + 1) % 4_000;
            black_box(cache.lookup(r * 16, r))
        })
    });
}

fn bench_mapped_lookup(c: &mut Criterion) {
    let mut tables = MappedTables::new(128 * 1024, 4 * 1024, 16);
    for r in 0..10_000u64 {
        tables.map(GlobalRowId::new(r * 97), RqaSlot::new(r));
    }
    let mut r = 0u64;
    c.bench_function("mapped_lookup_cold_row", |b| {
        b.iter(|| {
            r += 1;
            black_box(tables.lookup(GlobalRowId::new((r * 31) % 2_000_000)))
        })
    });
}

fn bench_rqa(c: &mut Criterion) {
    let mut rqa = QuarantineArea::new(4096);
    let mut n = 0u64;
    c.bench_function("rqa_allocate", |b| {
        b.iter(|| {
            n += 1;
            if n.is_multiple_of(4096) {
                rqa.advance_epoch();
            }
            black_box(rqa.allocate())
        })
    });
}

fn bench_fastmap(c: &mut Criterion) {
    let mut map = aqua_fastmap::FxHashMap::<u64, u64>::default();
    for k in 0..23_000u64 {
        map.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
    }
    let mut k = 0u64;
    c.bench_function("fastmap_lookup_hit", |b| {
        b.iter(|| {
            k = (k + 1) % 23_000;
            black_box(map.get(&k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        })
    });
    let mut std_map = std::collections::HashMap::<u64, u64>::new();
    for k in 0..23_000u64 {
        std_map.insert(k.wrapping_mul(0x9e37_79b9_7f4a_7c15), k);
    }
    c.bench_function("sip_hashmap_lookup_hit", |b| {
        b.iter(|| {
            k = (k + 1) % 23_000;
            black_box(std_map.get(&k.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        })
    });
}

/// `misra_gries_update` spreads activations over every row, so each bank's
/// table is full and most updates replace an entry. `misra_gries_hot_rows`
/// hammers four rows per bank and never fills a table: the increment path
/// that quiet workloads and the migration flood take.
fn bench_tracker(c: &mut Criterion) {
    let cfg = TrackerConfig::for_rowhammer_threshold(1000);
    let mut tracker = MisraGriesTracker::new(cfg, 16);
    let mut i = 0u32;
    c.bench_function("misra_gries_update", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(tracker.on_activation(RowAddr {
                bank: aqua_dram::BankId::new(i % 16),
                row: i.wrapping_mul(2_654_435_761) % 131_072,
            }))
        })
    });
    let mut tracker = MisraGriesTracker::new(cfg, 16);
    c.bench_function("misra_gries_hot_rows", |b| {
        b.iter(|| {
            i = i.wrapping_add(1);
            black_box(tracker.on_activation(RowAddr {
                bank: aqua_dram::BankId::new(i % 16),
                row: (i / 16 % 4) * 4099,
            }))
        })
    });
}

/// The span costs the simulator pays per access. Each mitigation
/// consultation arms a speculative root; its quiet path (speculate +
/// end_if_used with no child attached, the overwhelmingly common case) is
/// relaxed loads and stores only, with no lock and no read-modify-write.
/// The eager variant is the lock-taking cost it replaced, kept as the
/// reference point. Queued requests and blocked banks record leaf spans:
/// `span_record_leaf` is the one-lock direct path, `span_batch_leaf` the
/// lock-free batch the simulator uses, timed as four leaves and one flush
/// per iteration (the migration flood's ratio of leaf spans to
/// activations).
fn bench_span_costs(c: &mut Criterion) {
    let hub = Telemetry::new(Default::default());
    let mut t = 0u64;
    c.bench_function("span_speculate_quiet", |b| {
        b.iter(|| {
            t += 50;
            let sp = hub.span_speculate("bench.quiet", t);
            sp.end_if_used(&hub, black_box(t + 10));
        })
    });
    c.bench_function("span_eager_quiet", |b| {
        b.iter(|| {
            t += 50;
            let sp = hub.span_start("bench.eager", t);
            sp.end(black_box(t + 10));
        })
    });
    let off = Telemetry::disabled();
    c.bench_function("span_speculate_disabled_hub", |b| {
        b.iter(|| {
            t += 50;
            let sp = off.span_speculate("bench.off", t);
            sp.end_if_used(&off, black_box(t + 10));
        })
    });
    c.bench_function("span_record_leaf", |b| {
        b.iter(|| {
            t += 50;
            hub.span_record("bench.leaf", t, black_box(t + 10));
        })
    });
    let mut batch = SpanBatch::default();
    c.bench_function("span_batch_leaf", |b| {
        b.iter(|| {
            for _ in 0..4 {
                t += 50;
                batch.record("bench.leaf", t, black_box(t + 10));
            }
            hub.flush_spans(&mut batch);
        })
    });
}

fn bench_translate(c: &mut Criterion) {
    let base = BaselineConfig::paper_table1();
    let cfg = AquaConfig::for_rowhammer_threshold(1000, &base);
    let mut engine = AquaEngine::new(cfg).unwrap();
    let mut row = 0u64;
    c.bench_function("aqua_translate", |b| {
        b.iter(|| {
            row = (row + 1) % 1_000_000;
            black_box(engine.translate(GlobalRowId::new(row), Time::ZERO))
        })
    });
}

/// The 4,096 rows a quiet Table II workload touches in one epoch on the
/// paper's module: its cold region, consecutive rows of the address space
/// interleaved over the banks.
fn quiet_rows() -> (DramGeometry, Vec<(GlobalRowId, RowAddr)>) {
    let g = DramGeometry::paper_table1();
    let space = AddressSpace::new(g, 0.97);
    let rows = (0..4096)
        .map(|k| {
            let id = space.nth(k);
            (id, g.expand(id).unwrap())
        })
        .collect();
    (g, rows)
}

fn bench_oracle(c: &mut Criterion) {
    let (g, rows) = quiet_rows();
    let mut oracle = ActivationOracle::new(&g, 1000);
    let mut k = 0;
    c.bench_function("oracle_record", |b| {
        b.iter(|| {
            k = (k + 1) % rows.len();
            black_box(oracle.record(rows[k].1))
        })
    });
    // Every row touched once, as at the end of a quiet epoch; later
    // iterations roll over the same touched state.
    let mut oracle = ActivationOracle::new(&g, 1000);
    for &(_, row) in &rows {
        oracle.record(row);
    }
    c.bench_function("oracle_end_epoch", |b| b.iter(|| oracle.end_epoch()));
}

fn bench_shadow(c: &mut Criterion) {
    let (g, rows) = quiet_rows();
    let mut shadow = ShadowMemory::new(&g);
    // A vacated reserved area, as AQUA's RQA leaves it.
    for id in (g.total_rows() - 4096)..g.total_rows() {
        shadow.vacate(g.expand(GlobalRowId::new(id)).unwrap());
    }
    let mut k = 0;
    c.bench_function("shadow_verify", |b| {
        b.iter(|| {
            k = (k + 1) % rows.len();
            let (id, phys) = rows[k];
            black_box(shadow.verify(id, phys))
        })
    });
}

criterion_group!(
    benches,
    bench_cat,
    bench_bloom,
    bench_fpt_cache,
    bench_mapped_lookup,
    bench_rqa,
    bench_fastmap,
    bench_tracker,
    bench_span_costs,
    bench_translate,
    bench_oracle,
    bench_shadow
);
criterion_main!(benches);
