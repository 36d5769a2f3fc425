//! The traced run: a per-layer ledger of host time, built from the
//! benchmark's own files around the public calls into each layer.
//!
//! After one construction pass that warms the heap, it runs these passes
//! over the workload's cells:
//!
//! 1. **round**: the untraced path, as `--trace 0` runs it. It gives the
//!    checked reports and the exact counts.
//! 2. **calls**: `Simulation::new` and `Simulation::run` of every channel
//!    of every cell, timed as whole calls on one thread (one simulation per
//!    channel, as the sharded runner builds them): the untraced rate. Their
//!    reports must equal the round's.
//! 3. **flood extras** (attack-flood only): the sharded flood at 1 shard
//!    worker, and at 2 without a telemetry hub.
//!
//!    These passes are repeated in rotating order (see [`repeats`]), and
//!    every time compared across them is the median of its repeats.
//! 4. **replay**: each channel's served request stream is recorded once,
//!    then fed through fresh instances of every layer: the generators,
//!    the engine's `translate`, `on_activation_into`, `on_refresh_tick_into`
//!    and `end_epoch`, a standalone `MisraGriesTracker`, `Bank::access`,
//!    `ActivationOracle::record`/`end_epoch` and `ShadowMemory::verify`.
//!    Every call is counted. One access in [`TIMED_EVERY`] is timed: each
//!    of its calls is a span (name, start, end, parent) under one root span
//!    for the access, and a layer's self time is its spans' time minus
//!    their children's, less the tracer's own cost per span. The span
//!    records of a sample of the timed accesses stay in memory and are
//!    written out at the end.
//!
//! The replay serves requests in the recorded order on a uniform clock,
//! not the simulator's queueing model, so its activation and migration
//! counts can drift from the real run's. Requests, activations and row
//! migrations are printed side by side with the round's.
//! The clock reads between calls also stop the CPU from overlapping one
//! call's memory misses with the next call's, so a timed call costs more
//! than the same call inside the untraced loop, and the per-layer times
//! can add up to more than `sim.run_ns_per_access`.

use std::any::Any;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use aqua::AquaEngine;
use aqua_bench::journal::report_to_json;
use aqua_bench::{output, Harness, Scheme};
use aqua_dram::mitigation::{DataMovement, Mitigation, MitigationAction};
use aqua_dram::{Bank, Duration, GlobalRowId, RowAddr, Time};
use aqua_rrs::RrsEngine;
use aqua_sim::{ActivationOracle, RunReport, ShadowMemory, Simulation};
use aqua_telemetry::{Telemetry, TelemetryConfig};
use aqua_tracker::{AggressorTracker, MisraGriesTracker, TrackerConfig};
use aqua_workload::{MemoryRequest, RequestGenerator};

use crate::cells::{Cell, EngineVisitor, Workload};
use crate::check::{Checker, Expected};
use crate::json::Obj;
use crate::round::{self, run_flood};
use crate::{median, Outcome};

/// One access in this many is timed. The others make the same calls with
/// the clock left alone: a clock read costs ~40 ns on a 2-vCPU Xeon VM, and
/// timing every call of the full streams would not fit a run.
const TIMED_EVERY: usize = 8;

/// Accesses per channel of a cell whose span records are kept (each a
/// multiple of `TIMED_EVERY`, so a timed one).
const SAMPLED_ACCESSES: usize = 512;

/// One refresh-tick span record is kept per this many ticks.
const SAMPLED_TICKS: u64 = 64;

/// Span names. Engine calls are named after the crate of the engine:
/// `aqua`, `rrs`, `baselines` (victim refresh, Blockhammer) or `dram`
/// (the unmitigated baseline).
const NAMES: [&str; 23] = [
    "sim.access",
    "workload.next_request",
    "sim.shadow_verify",
    "dram.access",
    "sim.oracle_record",
    "tracker.update",
    "sim.oracle_end_epoch",
    "aqua.translate",
    "rrs.translate",
    "baselines.translate",
    "dram.translate",
    "aqua.on_activation",
    "rrs.on_activation",
    "baselines.on_activation",
    "dram.on_activation",
    "aqua.refresh_tick",
    "rrs.refresh_tick",
    "baselines.refresh_tick",
    "dram.refresh_tick",
    "aqua.end_epoch",
    "rrs.end_epoch",
    "baselines.end_epoch",
    "dram.end_epoch",
];
const ACCESS: usize = 0;
const NEXT_REQUEST: usize = 1;
const SHADOW_VERIFY: usize = 2;
const DRAM_ACCESS: usize = 3;
const ORACLE_RECORD: usize = 4;
const TRACKER: usize = 5;
const ORACLE_END_EPOCH: usize = 6;
const TRANSLATE: usize = 7;
const ON_ACTIVATION: usize = 11;
const REFRESH_TICK: usize = 15;
const END_EPOCH: usize = 19;

/// The engine family of a scheme: an offset into the per-engine names.
fn family(scheme: Scheme) -> usize {
    match scheme {
        Scheme::AquaSram | Scheme::AquaMapped => 0,
        Scheme::Rrs => 1,
        Scheme::VictimRefresh | Scheme::Blockhammer => 2,
        Scheme::Baseline => 3,
    }
}

/// One kept span.
#[derive(Debug, Clone, Copy)]
struct SpanRecord {
    id: u64,
    /// 0 for a root span.
    parent: u64,
    /// The simulated access the span belongs to (0 outside accesses).
    access: u64,
    name: usize,
    start_ns: u64,
    end_ns: u64,
}

/// Collects spans: call counts for every call, times for timed ones,
/// records for kept ones.
struct Tracer {
    origin: Instant,
    /// Calls per name, timed or not.
    calls: [u64; NAMES.len()],
    /// Timed calls per name and their summed self time.
    timed_calls: [u64; NAMES.len()],
    nanos: [u64; NAMES.len()],
    spans: Vec<SpanRecord>,
    next_id: u64,
    accesses: u64,
    /// The current access: whether it is timed, its root start, the last
    /// span boundary, its children's time, and its root span id when kept.
    timed: bool,
    root_start: Instant,
    last: Instant,
    children_ns: u64,
    root_id: Option<u64>,
}

impl Tracer {
    fn new() -> Tracer {
        let now = Instant::now();
        Tracer {
            origin: now,
            calls: [0; NAMES.len()],
            timed_calls: [0; NAMES.len()],
            nanos: [0; NAMES.len()],
            spans: Vec::new(),
            next_id: 1,
            accesses: 0,
            timed: false,
            root_start: now,
            last: now,
            children_ns: 0,
            root_id: None,
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Counts one span of `name` lasting `start..end`, keeping its record
    /// under `parent` when `kept`.
    fn span(&mut self, name: usize, start: Instant, end: Instant, parent: Option<u64>, kept: bool) {
        let ns = end.duration_since(start).as_nanos() as u64;
        self.calls[name] += 1;
        self.timed_calls[name] += 1;
        self.nanos[name] += ns;
        if kept {
            let id = self.next_id;
            self.next_id += 1;
            self.spans.push(SpanRecord {
                id,
                parent: parent.unwrap_or(0),
                access: if parent.is_some() { self.accesses } else { 0 },
                name,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
    }

    /// Opens the root span of the next simulated access. An access that is
    /// not `timed` makes the same calls with the clock left alone; a `kept`
    /// one also keeps its span records.
    fn begin_access(&mut self, timed: bool, kept: bool) {
        self.accesses += 1;
        self.timed = timed;
        if timed {
            let now = Instant::now();
            self.root_start = now;
            self.last = now;
            self.children_ns = 0;
            self.root_id = kept.then(|| {
                self.next_id += 1;
                self.next_id - 1
            });
        }
    }

    /// Closes a child span of the current access that started at the
    /// previous boundary.
    fn step(&mut self, name: usize) {
        if !self.timed {
            self.calls[name] += 1;
            return;
        }
        let now = Instant::now();
        self.children_ns += now.duration_since(self.last).as_nanos() as u64;
        let root = self.root_id;
        self.span(name, self.last, now, root, root.is_some());
        self.last = now;
    }

    /// Moves the boundary past untimed bookkeeping (root self time).
    fn skip(&mut self) {
        if self.timed {
            self.last = Instant::now();
        }
    }

    fn end_access(&mut self) {
        if !self.timed {
            self.calls[ACCESS] += 1;
            return;
        }
        let now = Instant::now();
        let total = now.duration_since(self.root_start).as_nanos() as u64;
        self.calls[ACCESS] += 1;
        self.timed_calls[ACCESS] += 1;
        self.nanos[ACCESS] += total.saturating_sub(self.children_ns);
        if let Some(id) = self.root_id {
            let (start_ns, end_ns) = (self.ns(self.root_start), self.ns(now));
            let access = self.accesses;
            self.spans.push(SpanRecord {
                id,
                parent: 0,
                access,
                name: ACCESS,
                start_ns,
                end_ns,
            });
        }
    }

    /// Times `f` as a root span outside any access; `kept` keeps its record.
    fn root<T>(&mut self, name: usize, kept: bool, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.span(name, start, Instant::now(), None, kept);
        out
    }

    /// Mean self nanoseconds of one timed call of `name`, with the tracer's
    /// own cost per span (`span_cost_ns`) taken out.
    fn per_call_ns(&self, name: usize, span_cost_ns: f64) -> f64 {
        let timed = self.timed_calls[name].max(1) as f64;
        (self.nanos[name] as f64 / timed - span_cost_ns).max(0.0)
    }

    /// Self nanoseconds `name` adds to an average simulated access.
    fn per_access_ns(&self, name: usize, span_cost_ns: f64) -> f64 {
        self.per_call_ns(name, span_cost_ns) * self.calls[name] as f64
            / self.calls[ACCESS].max(1) as f64
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut w = BufWriter::new(File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"access\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.access, NAMES[s.name], s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Host nanoseconds the tracer itself adds to each span: the median over
/// nine batches of spans around no work at all.
fn empty_span_ns() -> f64 {
    const SPANS: u64 = 20_000;
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let mut tracer = Tracer::new();
            tracer.begin_access(true, false);
            for _ in 0..SPANS {
                tracer.step(NEXT_REQUEST);
            }
            tracer.per_call_ns(NEXT_REQUEST, 0.0)
        })
        .collect();
    median(&mut batches)
}

/// A recorded request: the core in the top byte, the row id below it.
type Packed = u64;
const CORE_SHIFT: u32 = 56;

fn unpack(p: Packed) -> (usize, GlobalRowId) {
    (
        (p >> CORE_SHIFT) as usize,
        GlobalRowId::new(p & ((1 << CORE_SHIFT) - 1)),
    )
}

/// A generator that logs every request it hands out, in global order.
struct Recorder {
    inner: Box<dyn RequestGenerator>,
    core: u64,
    log: Arc<Mutex<Vec<Packed>>>,
}

impl RequestGenerator for Recorder {
    fn next_request(&mut self) -> MemoryRequest {
        let req = self.inner.next_request();
        assert!(
            req.row.index() >> CORE_SHIFT == 0,
            "row id too wide to record"
        );
        self.log
            .lock()
            .expect("request log poisoned")
            .push(self.core << CORE_SHIFT | req.row.index());
        req
    }

    fn label(&self) -> String {
        self.inner.label()
    }
}

/// Turns recorded pulls into the served order, in place. A core pulls its
/// next request when it commits the current one, and the last pull of
/// each core is never served; so each pull after a core's first marks the
/// service of that core's previous request.
fn into_served_order(mut pulls: Vec<Packed>, cores: usize) -> Vec<Packed> {
    let mut previous: Vec<Option<Packed>> = vec![None; cores];
    let mut served = 0;
    for i in 0..pulls.len() {
        let pull = pulls[i];
        if let Some(p) = previous[unpack(pull).0].replace(pull) {
            pulls[served] = p;
            served += 1;
        }
    }
    pulls.truncate(served);
    pulls
}

/// What the whole-call pass learned about one channel of a cell.
#[derive(Debug, Default)]
struct ChannelCalls {
    report: RunReport,
    new_s: f64,
    run_s: f64,
    /// The served stream (recording pass only).
    stream: Vec<Packed>,
    lookups: Option<aqua::LookupBreakdown>,
    rrs_swaps: u64,
}

/// Builds and runs every channel of a cell as plain `Simulation`s,
/// optionally recording each channel's request stream.
struct Calls<'a> {
    cell: Cell,
    h: &'a Harness,
    record: bool,
}

impl EngineVisitor for Calls<'_> {
    type Out = Vec<ChannelCalls>;
    fn visit<M: Mitigation + 'static>(self, mut engine: impl FnMut() -> M) -> Vec<ChannelCalls> {
        (0..self.h.base.channels)
            .map(|channel| {
                let log = Arc::new(Mutex::new(Vec::new()));
                let mut generators = self.cell.generators(self.h, channel);
                if self.record {
                    generators = generators
                        .into_iter()
                        .enumerate()
                        .map(|(core, inner)| {
                            Box::new(Recorder {
                                inner,
                                core: core as u64,
                                log: Arc::clone(&log),
                            }) as Box<dyn RequestGenerator>
                        })
                        .collect();
                }
                let start = Instant::now();
                let mut sim = Simulation::new(self.cell.shard_config(self.h), engine(), generators);
                let new_s = start.elapsed().as_secs_f64();
                let start = Instant::now();
                let mut report = sim.run();
                let run_s = start.elapsed().as_secs_f64();
                // The simulator names a report after its first core's
                // stream; the harness renames it after the workload.
                report.workload = self.cell.workload().to_string();
                let engine = sim.into_mitigation();
                let any = &engine as &dyn Any;
                let pulls = std::mem::take(&mut *log.lock().expect("request log poisoned"));
                ChannelCalls {
                    report,
                    new_s,
                    run_s,
                    stream: into_served_order(pulls, self.h.base.cores as usize),
                    lookups: any
                        .downcast_ref::<AquaEngine>()
                        .and_then(AquaEngine::lookup_breakdown),
                    rrs_swaps: any
                        .downcast_ref::<RrsEngine>()
                        .map_or(0, |e| e.stats().swaps),
                }
            })
            .collect()
    }
}

/// Counts of one replayed channel, to set beside the real run's.
#[derive(Debug, Default, Clone, Copy)]
struct ReplayCounts {
    requests: u64,
    activations: u64,
    migrations: u64,
    /// Replayed requests whose regenerated row differs from the recorded one.
    stream_mismatches: u64,
}

impl std::ops::AddAssign for ReplayCounts {
    fn add_assign(&mut self, o: ReplayCounts) {
        self.requests += o.requests;
        self.activations += o.activations;
        self.migrations += o.migrations;
        self.stream_mismatches += o.stream_mismatches;
    }
}

/// Fresh instances of every layer below the engine, for one channel.
struct Layers {
    banks: Vec<Bank>,
    oracle: ActivationOracle,
    shadow: ShadowMemory,
    tracker: MisraGriesTracker,
    actions: Vec<MitigationAction>,
    family: usize,
}

impl Layers {
    /// One activation of `phys` at `at`: the oracle, the standalone
    /// tracker and the engine each see it, and the engine's actions are
    /// applied to the banks, the oracle and the shadow memory.
    fn activate<M: Mitigation>(
        &mut self,
        engine: &mut M,
        phys: RowAddr,
        at: Time,
        tracer: &mut Tracer,
    ) {
        self.oracle.record(phys);
        tracer.step(ORACLE_RECORD);
        self.tracker.on_activation(phys);
        tracer.step(TRACKER);
        engine.on_activation_into(phys, at, &mut self.actions);
        tracer.step(ON_ACTIVATION + self.family);
        self.apply(at);
        tracer.skip();
    }

    fn apply(&mut self, at: Time) {
        for action in self.actions.drain(..) {
            match action {
                MitigationAction::BlockChannel { movement, .. } => {
                    if movement != DataMovement::None {
                        self.shadow.apply(movement);
                    }
                }
                MitigationAction::RefreshRows(rows) => {
                    for r in rows {
                        self.banks[r.bank.index() as usize].refresh_row(r.row, at);
                        self.oracle.record_refresh(r);
                    }
                }
                MitigationAction::Throttle { .. } | MitigationAction::TableWrites { .. } => {}
            }
        }
    }

    /// One access of `row` at `now`, under its own root span.
    fn access<M: Mitigation>(
        &mut self,
        engine: &mut M,
        row: GlobalRowId,
        now: Time,
        tracer: &mut Tracer,
    ) {
        let tr = engine.translate(row, now);
        tracer.step(TRANSLATE + self.family);
        if let Some(table) = tr.table_row {
            // A memory-mapped table read is a real access of its own row.
            let res = self.banks[table.bank.index() as usize].access(table.row, now);
            tracer.step(DRAM_ACCESS);
            if res.activated {
                self.activate(engine, table, res.data_ready, tracer);
            }
        }
        self.shadow.verify(row, tr.phys);
        tracer.step(SHADOW_VERIFY);
        let res = self.banks[tr.phys.bank.index() as usize].access(tr.phys.row, now);
        tracer.step(DRAM_ACCESS);
        if res.activated {
            self.activate(engine, tr.phys, res.data_ready, tracer);
        }
    }
}

/// Feeds one channel's served stream through fresh layer instances.
struct Replay<'a> {
    cell: Cell,
    h: &'a Harness,
    channel: u32,
    stream: &'a [Packed],
    tracer: &'a mut Tracer,
}

impl EngineVisitor for Replay<'_> {
    type Out = ReplayCounts;
    fn visit<M: Mitigation + 'static>(self, mut make: impl FnMut() -> M) -> ReplayCounts {
        let Replay {
            cell,
            h,
            channel,
            stream,
            tracer,
        } = self;
        let base = h.base;
        let geometry = base.geometry;
        let mut engine = make();
        let mut generators = cell.generators(h, channel);
        let aqua = h.aqua_config();
        let mut layers = Layers {
            banks: (0..geometry.total_banks())
                .map(|_| Bank::with_policy(base.timing, base.page_policy))
                .collect(),
            oracle: ActivationOracle::new(&geometry, h.t_rh),
            shadow: ShadowMemory::new(&geometry),
            tracker: MisraGriesTracker::new(
                TrackerConfig::with_mitigation_threshold(aqua.mitigation_threshold)
                    .entries_per_bank(aqua.tracker_entries_per_bank),
                geometry.total_banks(),
            ),
            actions: Vec::new(),
            family: family(cell.scheme()),
        };
        for row in engine.reserved_rows() {
            layers.shadow.vacate(row);
        }
        let f = layers.family;
        let mut mismatches = 0;

        // The recorded requests spread evenly over the simulated epochs.
        let horizon = u128::from(base.epoch.as_ps()) * u128::from(h.epochs);
        let n = stream.len().max(1) as u128;
        let mut next_tick = Time::ZERO + base.timing.t_refi;
        let mut next_epoch = Time::ZERO + base.epoch;
        let mut ticks: u64 = 0;
        let end = Time::ZERO + Duration::from_ps(horizon as u64);
        let keep_every = (stream.len() / SAMPLED_ACCESSES)
            .next_multiple_of(TIMED_EVERY)
            .max(TIMED_EVERY);
        for (i, &packed) in stream.iter().enumerate() {
            let (core, row) = unpack(packed);
            let now = Time::ZERO + Duration::from_ps((horizon * i as u128 / n) as u64);
            while now >= next_tick {
                let sampled = ticks.is_multiple_of(SAMPLED_TICKS);
                tracer.root(REFRESH_TICK + f, sampled, || {
                    engine.on_refresh_tick_into(next_tick, &mut layers.actions)
                });
                layers.apply(next_tick);
                next_tick += base.timing.t_refi;
                ticks += 1;
            }
            while now >= next_epoch {
                tracer.root(END_EPOCH + f, true, || engine.end_epoch());
                tracer.root(ORACLE_END_EPOCH, true, || layers.oracle.end_epoch());
                next_epoch += base.epoch;
            }
            tracer.begin_access(i.is_multiple_of(TIMED_EVERY), i.is_multiple_of(keep_every));
            let req = generators[core].next_request();
            tracer.step(NEXT_REQUEST);
            mismatches += u64::from(req.row != row);
            layers.access(&mut engine, row, now, tracer);
            tracer.end_access();
        }
        while next_epoch <= end {
            tracer.root(END_EPOCH + f, true, || engine.end_epoch());
            tracer.root(ORACLE_END_EPOCH, true, || layers.oracle.end_epoch());
            next_epoch += base.epoch;
        }
        ReplayCounts {
            requests: stream.len() as u64,
            activations: layers.oracle.summary().total_activations,
            migrations: engine.mitigation_stats().row_migrations,
            stream_mismatches: mismatches,
        }
    }
}

/// Repeats of the traced run's timed comparisons, which run in rotating
/// order; each figure is the median of its repeats. spec-hot's round alone
/// takes ~17 s on a 2-vCPU VM, so it runs them once to keep its traced run
/// well within the 180 s a run may take.
fn repeats(workload: Workload) -> usize {
    match workload {
        Workload::SpecHot => 1,
        Workload::SuiteQuiet | Workload::AttackFlood => 3,
    }
}

/// Every cell of `cells` as plain `Simulation`s, one per channel.
fn whole_calls(cells: &[Cell], h: &Harness, record: bool) -> Vec<Vec<ChannelCalls>> {
    cells
        .iter()
        .map(|&cell| cell.with_engine(h, Calls { cell, h, record }))
        .collect()
}

/// Host seconds of every flood cell on the sharded runner.
fn time_flood(cells: &[Cell], h: &Harness, workers: usize, hub: bool) -> f64 {
    let start = Instant::now();
    for &cell in cells {
        run_flood(
            cell,
            h,
            workers,
            hub.then(|| Telemetry::new(TelemetryConfig::default())),
        );
    }
    start.elapsed().as_secs_f64()
}

/// Checks that the whole-call pass reproduced the round's report `real`:
/// the same report on one channel, the same summed counts on several
/// (the sharded runner sums its channels' counts).
fn same_as_round(channels: &[ChannelCalls], real: &RunReport) -> Result<(), String> {
    if let [only] = channels {
        let (got, want) = (report_to_json(&only.report), report_to_json(real));
        return if got == want {
            Ok(())
        } else {
            Err(format!(
                "whole-call report differs from the round's\n  round      {want}\n  whole-call {got}"
            ))
        };
    }
    let sum = |f: fn(&RunReport) -> u64| channels.iter().map(|c| f(&c.report)).sum::<u64>();
    let counts = [
        ("requests", sum(|r| r.requests_done), real.requests_done),
        (
            "activations",
            sum(|r| r.oracle.total_activations),
            real.oracle.total_activations,
        ),
        (
            "row migrations",
            sum(|r| r.mitigation.row_migrations),
            real.mitigation.row_migrations,
        ),
    ];
    for (name, got, want) in counts {
        if got != want {
            return Err(format!(
                "whole-call {name} {got} differ from the round's {want}"
            ));
        }
    }
    Ok(())
}

/// The traced run of `workload`; see the module documentation.
pub fn traced(workload: Workload, seed: u64, expected: Option<&Expected>, out: &Path) -> Outcome {
    let h = workload.harness(seed);
    let cells = workload.cells();
    let mut checker = Checker::new(workload, cells.len(), expected);
    // Warm the heap the way the untraced run's first construction pass
    // does, so the first timed pass pays no first-touch faults the later
    // ones do not.
    for cell in &cells {
        cell.construct_seconds(&h);
    }

    // Passes 1 to 3, the timed comparisons. Variant 0 is the round, 1 the
    // whole-call pass, 2 the flood on one shard worker and 3 the flood
    // without a hub.
    let variants = if workload == Workload::AttackFlood {
        4
    } else {
        2
    };
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); variants];
    let (mut new_times, mut run_times) = (Vec::new(), Vec::new());
    let (mut first_round, mut first_calls) = (None, None);
    for rep in 0..repeats(workload) {
        for k in 0..variants {
            match (rep + k) % variants {
                0 => {
                    let round = round::run(workload, &h, &cells, out);
                    for (i, (&cell, run)) in cells.iter().zip(&round.runs).enumerate() {
                        checker.run(i, cell, &run.report);
                    }
                    times[0].push(round.seconds);
                    first_round.get_or_insert(round);
                }
                1 => {
                    let calls = whole_calls(&cells, &h, false);
                    let channels = || calls.iter().flatten();
                    new_times.push(channels().map(|c| c.new_s).sum::<f64>());
                    run_times.push(channels().map(|c| c.run_s).sum::<f64>());
                    times[1].push(channels().map(|c| c.new_s + c.run_s).sum());
                    first_calls.get_or_insert(calls);
                }
                2 => times[2].push(time_flood(&cells, &h, 1, true)),
                _ => times[3].push(time_flood(&cells, &h, h.shard_workers, false)),
            }
        }
    }
    let round = first_round.expect("one repeat at least");
    let calls = first_calls.expect("one repeat at least");
    for (i, ((&cell, run), channels)) in cells.iter().zip(&round.runs).zip(&calls).enumerate() {
        if let Ok(real) = &run.report {
            if let Err(why) = same_as_round(channels, real) {
                checker.fail(i, cell, &why);
            }
        }
    }
    let medians: Vec<f64> = times.iter().map(|t| median(&mut t.clone())).collect();
    let (round_s, cell_s) = (medians[0], medians[1]);
    let new_s = median(&mut new_times);
    let run_s = median(&mut run_times);

    let reports: Vec<(Cell, &RunReport)> = cells
        .iter()
        .zip(&round.runs)
        .filter_map(|(&c, r)| r.report.as_ref().ok().map(|r| (c, r)))
        .collect();
    let csv_rows: Vec<Vec<String>> = reports.iter().map(|(_, r)| round::csv_row(r)).collect();
    let csv_start = Instant::now();
    output::write_csv(
        &format!("perfbench-{}", workload.name()),
        &round::CSV_HEADER,
        &csv_rows,
    );
    let csv_ms = csv_start.elapsed().as_secs_f64() * 1e3;
    let channel_calls = || calls.iter().flatten();
    let call_requests: u64 = channel_calls().map(|c| c.report.requests_done).sum();

    // Pass 4: record and replay, one channel at a time.
    let span_cost_ns = empty_span_ns();
    let mut tracer = Tracer::new();
    let mut replayed = ReplayCounts::default();
    let mut replay_s = 0.0;
    let mut drift = Vec::new();
    for &(cell, real) in &reports {
        let recorded = cell.with_engine(
            &h,
            Calls {
                cell,
                h: &h,
                record: true,
            },
        );
        let mut counts = ReplayCounts::default();
        for (channel, rec) in recorded.iter().enumerate() {
            let start = Instant::now();
            counts += cell.with_engine(
                &h,
                Replay {
                    cell,
                    h: &h,
                    channel: channel as u32,
                    stream: &rec.stream,
                    tracer: &mut tracer,
                },
            );
            replay_s += start.elapsed().as_secs_f64();
        }
        drift.push(format!(
            "{:<28} requests {:>9} / {:>9}  activations {:>9} / {:>9}  migrations {:>6} / {:>6}  stream mismatches {}",
            cell.label(),
            counts.requests,
            real.requests_done,
            counts.activations,
            real.oracle.total_activations,
            counts.migrations,
            real.mitigation.row_migrations,
            counts.stream_mismatches,
        ));
        replayed += counts;
    }
    let spans_path = out.join(format!("spans-{}.jsonl", workload.name()));
    if let Err(e) = tracer.write(&spans_path) {
        eprintln!("warning: cannot write {}: {e}", spans_path.display());
    }

    let (shard_speedup, hub_cost_pct) = if workload == Workload::AttackFlood {
        (medians[2] / round_s, (round_s / medians[3] - 1.0) * 100.0)
    } else {
        (1.0, 0.0)
    };

    // The ledger.
    let n = cells.len() as f64;
    let workers = match workload {
        Workload::SpecHot => 1,
        Workload::SuiteQuiet => h.jobs,
        Workload::AttackFlood => h.shard_workers,
    } as f64;
    let per_call = |name: usize| tracer.per_call_ns(name, span_cost_ns);
    let per_access = |name: usize| tracer.per_access_ns(name, span_cost_ns);
    let sum_per_access = |names: &[usize]| names.iter().map(|&i| per_access(i)).sum::<f64>();
    let engine_ns = |base: usize, f: usize| per_call(base + f);
    // Every call the simulator's own loop makes, per access; the
    // standalone tracker is left out (the engines track internally).
    let loop_layers: Vec<usize> = [
        NEXT_REQUEST,
        SHADOW_VERIFY,
        DRAM_ACCESS,
        ORACLE_RECORD,
        ORACLE_END_EPOCH,
    ]
    .into_iter()
    .chain((0..4).flat_map(|f| {
        [
            TRANSLATE + f,
            ON_ACTIVATION + f,
            REFRESH_TICK + f,
            END_EPOCH + f,
        ]
    }))
    .collect();
    let run_ns_per_access = run_s * 1e9 / call_requests.max(1) as f64;
    let total = |f: fn(&RunReport) -> u64| reports.iter().map(|(_, r)| f(r)).sum::<u64>();
    let real_requests = total(|r| r.requests_done);
    let real_activations = total(|r| r.oracle.total_activations);
    let real_migrations = total(|r| r.mitigation.row_migrations);
    let aqua_migrations: u64 = reports
        .iter()
        .filter(|(c, _)| matches!(c.scheme(), Scheme::AquaSram | Scheme::AquaMapped))
        .map(|(_, r)| r.mitigation.row_migrations)
        .sum();
    let epoch_ps = h.base.epoch.as_ps() as f64 * h.epochs as f64 * h.base.channels as f64;
    let busy_frac = |f: fn(&RunReport) -> u64| total(f) as f64 / (epoch_ps * n);
    let lookups = channel_calls()
        .filter_map(|c| c.lookups)
        .fold([0u64; 4], |acc, b| {
            [
                acc[0] + b.bloom_clear,
                acc[1] + b.cache_hit,
                acc[2] + b.dram_access,
                acc[3] + b.total(),
            ]
        });
    let lookup_frac = |i: usize| lookups[i] as f64 / lookups[3].max(1) as f64;
    let spans_real: u64 = reports
        .iter()
        .filter_map(|(_, r)| r.telemetry.as_ref().map(|t| t.spans_recorded))
        .sum();
    // Every replayed call is a span; the hub's spans are the simulator's
    // own (mitigations, migrations, queue waits), not one per call, so the
    // two counts are printed apart, not compared.
    let replay_spans: u64 = tracer.calls.iter().sum();
    // Both rates are serial, on one thread: the whole-call pass untraced,
    // the replay traced.
    let untraced_rate = call_requests as f64 / cell_s;
    let traced_rate = replayed.requests as f64 / replay_s;

    let metrics = vec![
        ("workload.next_request_ns", per_call(NEXT_REQUEST), "ns"),
        ("tracker.update_ns", per_call(TRACKER), "ns"),
        ("aqua.translate_ns", engine_ns(TRANSLATE, 0), "ns"),
        ("aqua.on_activation_ns", engine_ns(ON_ACTIVATION, 0), "ns"),
        ("rrs.translate_ns", engine_ns(TRANSLATE, 1), "ns"),
        ("rrs.on_activation_ns", engine_ns(ON_ACTIVATION, 1), "ns"),
        ("dram.access_ns", per_call(DRAM_ACCESS), "ns"),
        ("sim.oracle_record_ns", per_call(ORACLE_RECORD), "ns"),
        ("sim.shadow_verify_ns", per_call(SHADOW_VERIFY), "ns"),
        ("sim.run_ns_per_access", run_ns_per_access, "ns"),
        (
            "sim.loop_residual_ns",
            run_ns_per_access - sum_per_access(&loop_layers),
            "ns",
        ),
        (
            "sim.oracle_end_epoch_ms",
            per_call(ORACLE_END_EPOCH) / 1e6,
            "ms",
        ),
        (
            "sim.new_ms",
            new_s * 1e3 / calls.iter().map(Vec::len).sum::<usize>().max(1) as f64,
            "ms",
        ),
        (
            "bench.cell_overhead_ms",
            (round_s * workers - cell_s) * 1e3 / n,
            "ms",
        ),
        (
            "bench.pool_busy_frac",
            cell_s / (round_s * workers),
            "fraction",
        ),
        ("bench.csv_ms", csv_ms, "ms"),
        ("telemetry.hub_cost_pct", hub_cost_pct, "%"),
        ("sim.shard_speedup", shard_speedup, "x"),
        ("sim.requests", real_requests as f64, "count"),
        ("sim.activations", real_activations as f64, "count"),
        ("aqua.migrations", aqua_migrations as f64, "count"),
        (
            "rrs.swaps",
            channel_calls().map(|c| c.rrs_swaps).sum::<u64>() as f64,
            "count",
        ),
        ("aqua.lookup_bloom_frac", lookup_frac(0), "fraction"),
        ("aqua.lookup_cache_frac", lookup_frac(1), "fraction"),
        ("aqua.lookup_dram_frac", lookup_frac(2), "fraction"),
        (
            "dram.migration_busy_frac",
            busy_frac(|r| r.migration_busy.as_ps()),
            "fraction",
        ),
        (
            "dram.table_busy_frac",
            busy_frac(|r| r.table_busy.as_ps()),
            "fraction",
        ),
        ("telemetry.spans", spans_real as f64, "count"),
        ("bench.cells", n, "count"),
        (
            "bench.retries",
            round
                .runs
                .iter()
                .map(|r| u64::from(r.attempts.saturating_sub(1)))
                .sum::<u64>() as f64,
            "count",
        ),
        (
            "trace.overhead_pct",
            (untraced_rate / traced_rate - 1.0) * 100.0,
            "%",
        ),
    ];

    eprintln!("== replayed vs real ({}) ==", workload.name());
    for line in &drift {
        eprintln!("{line}");
    }
    eprintln!(
        "total: requests {} / {}  activations {} / {}  migrations {} / {}",
        replayed.requests,
        real_requests,
        replayed.activations,
        real_activations,
        replayed.migrations,
        real_migrations,
    );
    eprintln!("replay spans: {replay_spans} (one per replayed call)");
    eprintln!("== per-layer ledger ({}) ==", workload.name());
    for (i, name) in NAMES.iter().enumerate() {
        if tracer.calls[i] > 0 {
            eprintln!(
                "{name:<26} {:>10} calls  {:>9.1} ns/call  {:>8.1} ns/access",
                tracer.calls[i],
                per_call(i),
                per_access(i)
            );
        }
    }
    for (name, value, unit) in &metrics {
        eprintln!("{name:<26} {value:>16.4} {unit}");
    }

    let mut counts = Obj::new();
    counts
        .nums(
            "requests",
            &[replayed.requests as f64, real_requests as f64],
        )
        .nums(
            "activations",
            &[replayed.activations as f64, real_activations as f64],
        )
        .nums(
            "row_migrations",
            &[replayed.migrations as f64, real_migrations as f64],
        )
        .num("stream_mismatches", replayed.stream_mismatches as f64);
    let mut layers = Obj::new();
    for (i, name) in NAMES.iter().enumerate() {
        if tracer.calls[i] > 0 {
            layers.nums(name, &[tracer.calls[i] as f64, per_call(i)]);
        }
    }
    let mut notes = Obj::new();
    notes
        .obj("replayed_vs_real", counts)
        .obj("layer_calls_and_ns", layers)
        .num("replay_spans", replay_spans as f64)
        .num("span_cost_ns", span_cost_ns)
        .nums("round_s", &times[0])
        .nums("whole_call_s", &times[1]);
    if let [_, _, serial, no_hub] = &times[..] {
        notes
            .nums("flood_one_worker_s", serial)
            .nums("flood_no_hub_s", no_hub);
    }
    notes
        .num("replay_s", replay_s)
        .str("spans_file", &spans_path.display().to_string());
    Outcome {
        attempted: cells.len(),
        failed: checker.failed(),
        metrics,
        notes,
        outputs_digest: checker.outputs_digest(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pull(core: u64, row: u64) -> Packed {
        core << CORE_SHIFT | row
    }

    #[test]
    fn served_order_drops_each_cores_unserved_last_pull() {
        // Two cores pull their first requests at construction, then each
        // commit pulls the committing core's next one.
        let pulls = vec![
            pull(0, 10),
            pull(1, 20),
            pull(1, 21),
            pull(0, 11),
            pull(0, 12),
            pull(1, 22),
        ];
        let served: Vec<_> = into_served_order(pulls, 2)
            .into_iter()
            .map(unpack)
            .collect();
        let expect = [(1, 20), (0, 10), (0, 11), (1, 21)];
        assert_eq!(
            served,
            expect.map(|(c, r)| (c, GlobalRowId::new(r))).to_vec()
        );
    }
}
