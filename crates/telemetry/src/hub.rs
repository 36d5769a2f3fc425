//! The shared telemetry hub and its metric handles.
//!
//! [`Telemetry`] is the cheap-to-clone handle every simulator layer holds.
//! A live hub ([`Telemetry::new`]) feeds shared atomics, the bounded ring
//! trace, histograms, spans, wallclock phases and the epoch series. A
//! disabled handle ([`Telemetry::disabled`], also the `Default`) holds
//! nothing, and every call on it returns after one `None` test. The
//! simulator's serve loop goes further: it checks
//! [`Telemetry::is_enabled`] once per run and, without a hub, runs a copy
//! of its loop that makes none of these calls (DESIGN.md section 13).
//!
//! Causal spans have one closer per kind. An eager [`ActiveSpan`] guard
//! ends with [`ActiveSpan::end`] or [`ActiveSpan::cancel`], and dropping
//! it cancels. A speculative root's [`Speculation`] token ends with
//! [`Speculation::end_if_used`], which commits the root only if a child
//! span materialized it. Finished leaves go through
//! [`Telemetry::span_record`] one at a time or a [`SpanBatch`] in bulk.

use crate::epoch::{EpochRecord, EpochSeries};
use crate::event::{Event, EventKind};
use crate::hist::HistogramData;
use crate::ring::RingBuffer;
use crate::span::Span;
use crate::summary::TelemetrySummary;
use crate::wallclock::{WallProfile, WallclockSummary};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Construction-time options for a telemetry hub.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TelemetryConfig {
    /// Maximum events retained by the ring trace (oldest dropped first).
    pub trace_capacity: usize,
    /// Whether high-volume `Activate` events enter the trace at all.
    pub trace_activates: bool,
    /// Maximum completed spans retained (oldest dropped first).
    pub span_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            trace_capacity: 65_536,
            trace_activates: false,
            span_capacity: 65_536,
        }
    }
}

struct Inner {
    cfg: TelemetryConfig,
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Mutex<HistogramData>>>>,
    trace: Mutex<RingBuffer<Event>>,
    epochs: Mutex<EpochSeries>,
    spans: Mutex<SpanTrack>,
    wall: Mutex<WallTrack>,
    /// Token of the armed speculative span (0 = none). One slot per hub,
    /// owned by the one serial loop that arms it, so arming and the quiet
    /// close are relaxed loads and stores only: no lock, no
    /// read-modify-write (see [`Telemetry::span_speculate`]).
    spec_token: AtomicU64,
    /// Open-span id of the armed speculative span once a child span
    /// materialized it (0 = still unmaterialized).
    spec_id: AtomicU64,
    /// Token source for speculative spans.
    spec_next: AtomicU64,
}

impl Inner {
    /// Materializes the armed speculative span, if any, under the spans
    /// lock the caller already holds: assigns it the next span id *before*
    /// the caller takes one (preserving the parent-before-child id order an
    /// eager `span_start` would have produced) and pushes it as the
    /// innermost open span, so the caller's span nests under it.
    fn materialize_speculative(&self, sp: &mut SpanTrack) {
        if self.spec_token.load(Ordering::Relaxed) == 0 || self.spec_id.load(Ordering::Relaxed) != 0
        {
            return;
        }
        let id = sp.open_child();
        self.spec_id.store(id, Ordering::Relaxed);
    }
}

/// A wallclock phase currently open on the hub's phase stack.
struct OpenPhase {
    token: u64,
    name: &'static str,
    start: std::time::Instant,
    /// Host time already attributed to child phases closed under this one.
    child_ns: u64,
}

/// All mutable wallclock-profiling state, behind one lock so open/close
/// stay atomic. Unlike [`SpanTrack`] this measures *host* nanoseconds via
/// `Instant`, not simulated picoseconds.
struct WallTrack {
    profile: WallProfile,
    stack: Vec<OpenPhase>,
    next_token: u64,
}

impl WallTrack {
    fn new() -> Self {
        WallTrack {
            profile: WallProfile::new(),
            stack: Vec::new(),
            next_token: 1,
        }
    }

    /// Closes the open phase identified by `token`: measures its elapsed
    /// host time, attributes it to the parent's child time, and records it
    /// under its `;`-joined stack path. Phases normally close LIFO;
    /// searching from the top tolerates out-of-order drops.
    fn close(&mut self, token: u64) {
        let Some(idx) = self.stack.iter().rposition(|o| o.token == token) else {
            return;
        };
        let elapsed = self.stack[idx].start.elapsed().as_nanos() as u64;
        let mut path = String::new();
        for (k, open) in self.stack[..=idx].iter().enumerate() {
            if k > 0 {
                path.push(';');
            }
            path.push_str(open.name);
        }
        let child_ns = self.stack[idx].child_ns;
        if idx > 0 {
            self.stack[idx - 1].child_ns += elapsed;
        }
        self.stack.remove(idx);
        self.profile.record(&path, elapsed, child_ns);
    }
}

/// A span currently open on the hub's causal stack.
struct OpenSpan {
    id: u64,
    parent: Option<u64>,
}

/// All mutable span state, behind one lock so begin/end stay atomic.
struct SpanTrack {
    ring: RingBuffer<Span>,
    stack: Vec<OpenSpan>,
    next_id: u64,
    /// Per-name duration histograms over committed spans.
    stats: BTreeMap<&'static str, HistogramData>,
}

impl SpanTrack {
    fn new(capacity: usize) -> Self {
        SpanTrack {
            ring: RingBuffer::new(capacity),
            stack: Vec::new(),
            next_id: 1,
            stats: BTreeMap::new(),
        }
    }

    /// Takes the next span id for a span nesting under the innermost open
    /// span. Returns the id and the parent.
    fn next_child(&mut self) -> (u64, Option<u64>) {
        let id = self.next_id;
        self.next_id += 1;
        (id, self.stack.last().map(|top| top.id))
    }

    /// Commits one finished leaf span without touching the per-name stats:
    /// takes the next id, nests under the innermost open span, and pushes
    /// the span into the ring. The caller materializes an armed speculative
    /// span first. Returns the duration for the caller's stats.
    fn push_leaf(&mut self, name: &'static str, start_ps: u64, end_ps: u64) -> u64 {
        let (id, parent) = self.next_child();
        let span = Span {
            id,
            parent,
            name,
            start_ps,
            end_ps: end_ps.max(start_ps),
        };
        self.ring.push(span);
        span.duration_ps()
    }

    /// [`SpanTrack::next_child`], pushed as the innermost open span.
    fn open_child(&mut self) -> u64 {
        let (id, parent) = self.next_child();
        self.stack.push(OpenSpan { id, parent });
        id
    }

    /// Removes the innermost open entry with `id` (spans normally close
    /// LIFO; searching from the top tolerates out-of-order ends).
    fn remove_open(&mut self, id: u64) -> Option<OpenSpan> {
        let idx = self.stack.iter().rposition(|o| o.id == id)?;
        Some(self.stack.remove(idx))
    }

    /// Closes the open span `id` and commits it ending at `end_ps` (clamped
    /// to `start_ps`), recording its duration under `name`. Nothing is
    /// committed if `id` is no longer open.
    fn close(&mut self, id: u64, name: &'static str, start_ps: u64, end_ps: u64) {
        let Some(open) = self.remove_open(id) else {
            return;
        };
        let span = Span {
            id,
            parent: open.parent,
            name,
            start_ps,
            end_ps: end_ps.max(start_ps),
        };
        self.stats
            .entry(name)
            .or_default()
            .record(span.duration_ps());
        self.ring.push(span);
    }
}

/// Cheap-to-clone handle to the telemetry hub (or to nothing, when
/// constructed via [`Telemetry::disabled`]).
#[derive(Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Inner>>,
}

impl std::fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.inner.is_some())
            .finish()
    }
}

impl Telemetry {
    /// Creates an active hub.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            inner: Some(Arc::new(Inner {
                cfg,
                counters: Mutex::new(BTreeMap::new()),
                gauges: Mutex::new(BTreeMap::new()),
                histograms: Mutex::new(BTreeMap::new()),
                trace: Mutex::new(RingBuffer::new(cfg.trace_capacity)),
                epochs: Mutex::new(EpochSeries::new()),
                spans: Mutex::new(SpanTrack::new(cfg.span_capacity)),
                wall: Mutex::new(WallTrack::new()),
                spec_token: AtomicU64::new(0),
                spec_id: AtomicU64::new(0),
                spec_next: AtomicU64::new(1),
            })),
        }
    }

    /// A handle that records nothing.
    pub fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh, empty hub with this hub's configuration (disabled handles
    /// fork into disabled handles). The parallel experiment runner gives
    /// each job a fork of the caller's hub so that concurrently running
    /// simulations never interleave writes, then [`Telemetry::merge_from`]s
    /// the forks back in deterministic job order.
    pub fn fork(&self) -> Telemetry {
        match &self.inner {
            Some(i) => Telemetry::new(i.cfg),
            None => Telemetry::disabled(),
        }
    }

    /// Absorbs everything `other` recorded into this hub.
    ///
    /// Counters add, gauges take `other`'s value, histograms merge
    /// bucket-wise, the epoch series appends `other`'s records after this
    /// hub's own, and `other`'s retained trace events are replayed into this
    /// hub's ring (events `other` already dropped stay counted as dropped).
    /// Merging per-job hubs in job-index order therefore yields the same
    /// aggregate regardless of how the jobs were scheduled across threads.
    ///
    /// A no-op when either handle is disabled or both refer to the same hub.
    pub fn merge_from(&self, other: &Telemetry) {
        self.merge_impl(other, None);
    }

    /// Like [`Telemetry::merge_from`], but parks `other`'s completed
    /// wallclock phases *under* the non-empty path `wall_prefix` instead of
    /// merging them at the root.
    ///
    /// Each of `other`'s paths lands at `{wall_prefix};{path}`, a synthetic
    /// all-child occurrence is recorded at `wall_prefix` itself, and the
    /// absorbed root total is credited as child time to the phase currently
    /// innermost on this hub's stack. The sharded simulation runner merges
    /// shard hubs with prefix `sim.sharded;shard{i}` while its own
    /// `sim.sharded` phase is open, so per-shard host time nests under the
    /// coordinator instead of inflating the root wallclock — on a parallel
    /// host the coordinator's real elapsed time is then *less* than the sum
    /// of its children, which is exactly the speedup signal.
    pub fn merge_from_prefixed(&self, other: &Telemetry, wall_prefix: &str) {
        self.merge_impl(other, Some(wall_prefix));
    }

    fn merge_impl(&self, other: &Telemetry, wall_prefix: Option<&str>) {
        let (Some(a), Some(b)) = (&self.inner, &other.inner) else {
            return;
        };
        if Arc::ptr_eq(a, b) {
            return;
        }
        for (&name, c) in b.counters.lock().unwrap().iter() {
            self.counter(name).add(c.load(Ordering::Relaxed));
        }
        for (&name, g) in b.gauges.lock().unwrap().iter() {
            self.gauge(name)
                .set(f64::from_bits(g.load(Ordering::Relaxed)));
        }
        for (&name, h) in b.histograms.lock().unwrap().iter() {
            let data = h.lock().unwrap().clone();
            if let Some(mine) = self.histogram(name).0 {
                mine.lock().unwrap().merge(&data);
            }
        }
        a.epochs
            .lock()
            .unwrap()
            .merge_from(&b.epochs.lock().unwrap());
        a.trace.lock().unwrap().merge_from(&b.trace.lock().unwrap());
        let mut mine = a.spans.lock().unwrap();
        let theirs = b.spans.lock().unwrap();
        // Offset the other hub's span ids past every id this hub has ever
        // issued, so ids (and parent links) stay unique after the merge and
        // the result depends only on merge order, never on scheduling.
        let base = mine.next_id;
        mine.ring.merge_from_with(&theirs.ring, |s| Span {
            id: base + s.id,
            parent: s.parent.map(|p| base + p),
            ..*s
        });
        mine.next_id = base + theirs.next_id;
        for (&name, data) in theirs.stats.iter() {
            mine.stats.entry(name).or_default().merge(data);
        }
        drop(mine);
        drop(theirs);
        // Completed wallclock phases merge path-wise (counts add
        // deterministically); phases still open on either stack are not
        // transferred.
        let theirs_wall = b.wall.lock().unwrap();
        let mut w = a.wall.lock().unwrap();
        match wall_prefix {
            None => w.profile.merge(&theirs_wall.profile),
            Some(prefix) => {
                let root_total = w.profile.merge_nested(prefix, &theirs_wall.profile);
                if let Some(top) = w.stack.last_mut() {
                    top.child_ns += root_total;
                }
            }
        }
    }

    /// Whether this handle feeds a live hub.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Registers (or re-fetches) a named counter.
    pub fn counter(&self, name: &'static str) -> Counter {
        Counter(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.counters
                    .lock()
                    .unwrap()
                    .entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0))),
            )
        }))
    }

    /// Registers (or re-fetches) a named gauge.
    pub fn gauge(&self, name: &'static str) -> Gauge {
        Gauge(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.gauges
                    .lock()
                    .unwrap()
                    .entry(name)
                    .or_insert_with(|| Arc::new(AtomicU64::new(0f64.to_bits()))),
            )
        }))
    }

    /// Registers (or re-fetches) a named histogram.
    pub fn histogram(&self, name: &'static str) -> Histogram {
        Histogram(self.inner.as_ref().map(|i| {
            Arc::clone(
                i.histograms
                    .lock()
                    .unwrap()
                    .entry(name)
                    .or_insert_with(|| Arc::new(Mutex::new(HistogramData::new()))),
            )
        }))
    }

    /// Pushes a typed event into the ring trace.
    ///
    /// `Activate` events are filtered out unless
    /// [`TelemetryConfig::trace_activates`] was set.
    pub fn record(&self, ts_ps: u64, kind: EventKind) {
        if let Some(i) = &self.inner {
            if matches!(kind, EventKind::Activate { .. }) && !i.cfg.trace_activates {
                return;
            }
            i.trace.lock().unwrap().push(Event { ts_ps, kind });
        }
    }

    /// Opens a span named `name` starting at simulated time `start_ps`.
    ///
    /// The span's parent is whatever span is innermost on this hub's causal
    /// stack at call time; the returned guard closes it via
    /// [`ActiveSpan::end`] (commit) or [`ActiveSpan::cancel`] (discard).
    /// Dropping the guard without ending it cancels the span, so early
    /// returns never wedge the stack.
    pub fn span_start(&self, name: &'static str, start_ps: u64) -> ActiveSpan {
        let Some(i) = &self.inner else {
            return ActiveSpan {
                inner: None,
                id: 0,
                name,
                start_ps,
            };
        };
        let mut sp = i.spans.lock().unwrap();
        i.materialize_speculative(&mut sp);
        let id = sp.open_child();
        ActiveSpan {
            inner: Some(Arc::clone(i)),
            id,
            name,
            start_ps,
        }
    }

    /// Arms a *speculative* span and returns its [`Speculation`] token:
    /// relaxed loads and stores only, no lock, no read-modify-write.
    ///
    /// The span stays virtual until a child span attaches (via
    /// [`Telemetry::span_start`], [`Telemetry::span_record`] or a
    /// [`Telemetry::flush_spans`] commit), at which point it materializes
    /// on the causal stack — with its id assigned before the child's,
    /// exactly as if it had been opened eagerly. If no child ever attaches,
    /// [`Speculation::end_if_used`] discards it with relaxed loads and
    /// stores alone, which is why the simulator wraps every mitigation
    /// consultation in one of these: the common quiet path (engine returns
    /// no actions) pays no synchronization.
    ///
    /// Only one speculative span can be armed per hub at a time; arming a
    /// second before closing the first discards the first (closing a
    /// superseded token is a no-op). The slot belongs to one serial loop:
    /// arming, the child spans that materialize it, and the close must all
    /// come from that loop, which is what lets them skip atomic
    /// read-modify-writes. Close the token on the hub that armed it.
    pub fn span_speculate(&self, name: &'static str, start_ps: u64) -> Speculation {
        let Some(i) = &self.inner else {
            return Speculation {
                token: 0,
                name,
                start_ps,
            };
        };
        let token = i.spec_next.load(Ordering::Relaxed);
        i.spec_next.store(token + 1, Ordering::Relaxed);
        let stale = i.spec_id.load(Ordering::Relaxed);
        if stale != 0 {
            // The previously armed speculative span materialized but was
            // never closed. Drop it from the causal stack now so it cannot
            // corrupt the parentage of everything opened after it.
            i.spec_id.store(0, Ordering::Relaxed);
            i.spans.lock().unwrap().remove_open(stale);
        }
        i.spec_token.store(token, Ordering::Relaxed);
        Speculation {
            token,
            name,
            start_ps,
        }
    }

    /// Records an already-finished leaf span in a single lock acquisition.
    ///
    /// Equivalent to `span_start(name, start_ps).end(end_ps)` for spans
    /// that never take children: an armed speculative span materializes
    /// first, and the recorded span's parent is the innermost open span.
    /// The simulator's per-action spans (migration windows, table writes,
    /// victim refreshes, throttles) use this; the per-access leaves (queue
    /// waits, bank blocks) go through a lock-free [`SpanBatch`] instead,
    /// and this stays the reference path that [`Telemetry::flush_spans`]
    /// reproduces.
    pub fn span_record(&self, name: &'static str, start_ps: u64, end_ps: u64) {
        let Some(i) = &self.inner else {
            return;
        };
        let mut sp = i.spans.lock().unwrap();
        i.materialize_speculative(&mut sp);
        let duration = sp.push_leaf(name, start_ps, end_ps);
        sp.stats.entry(name).or_default().record(duration);
    }

    /// Commits `batch`'s pending leaf spans under one spans lock, in record
    /// order, exactly as [`Telemetry::span_record`] would have at the time
    /// of the flush: the first materializes an armed speculative span, and
    /// each takes the next id and nests under the innermost open span.
    /// Their per-name duration stats stay in the batch until
    /// [`Telemetry::flush_span_stats`], so a caller that flushes per
    /// activation does not merge histograms per activation.
    ///
    /// Spans take ids from the hub in commit order, so a caller that
    /// records into a batch must flush it before anything else records a
    /// span on this hub; leaves recorded since the last span then commit
    /// with the same ids, parents and ring positions as direct
    /// `span_record` calls. An empty batch takes no lock.
    pub fn flush_spans(&self, batch: &mut SpanBatch) {
        if batch.pending.is_empty() {
            return;
        }
        let Some(i) = &self.inner else {
            batch.pending.clear();
            return;
        };
        let mut sp = i.spans.lock().unwrap();
        // The first leaf materializes an armed speculative span, if any;
        // the later ones would find it materialized already.
        i.materialize_speculative(&mut sp);
        for leaf in batch.pending.drain(..) {
            sp.push_leaf(leaf.name, leaf.start_ps, leaf.end_ps);
        }
    }

    /// Flushes `batch` ([`Telemetry::flush_spans`]), then merges its
    /// per-name duration stats into the hub's `span.<name>` histograms and
    /// empties them. Stats are order-free, so merging them at coarse
    /// boundaries (epoch end, run end) gives exactly the histograms
    /// per-span recording would have.
    pub fn flush_span_stats(&self, batch: &mut SpanBatch) {
        self.flush_spans(batch);
        if batch.stats.is_empty() {
            return;
        }
        let Some(i) = &self.inner else {
            batch.stats.clear();
            return;
        };
        let mut sp = i.spans.lock().unwrap();
        for (name, data) in batch.stats.drain(..) {
            sp.stats.entry(name).or_default().merge(&data);
        }
    }

    /// Opens a host-wallclock phase named `name` and returns the guard that
    /// closes it (on drop or via [`PhaseGuard::finish`]).
    ///
    /// Phases nest on a per-hub stack: time measured for a phase is
    /// attributed to the enclosing phase's child time, and the completed
    /// occurrence is recorded under its `;`-joined stack path. Phases are
    /// meant for *coarse* units of work (an epoch, a refresh drain, a bench
    /// job batch) — each open/close takes a lock and reads `Instant`, so
    /// never put one on a per-access path. On a disabled handle this reads
    /// no clock and takes no lock.
    pub fn phase(&self, name: &'static str) -> PhaseGuard {
        let Some(i) = &self.inner else {
            return PhaseGuard {
                inner: None,
                token: 0,
            };
        };
        let mut w = i.wall.lock().unwrap();
        let token = w.next_token;
        w.next_token += 1;
        w.stack.push(OpenPhase {
            token,
            name,
            start: std::time::Instant::now(),
            child_ns: 0,
        });
        PhaseGuard {
            inner: Some(Arc::clone(i)),
            token,
        }
    }

    /// Clones the retained completed spans, oldest first (empty when
    /// disabled).
    pub fn spans(&self) -> Vec<Span> {
        self.inner
            .as_ref()
            .map(|i| i.spans.lock().unwrap().ring.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Appends one epoch sample to the time series.
    pub fn push_epoch(&self, record: EpochRecord) {
        if let Some(i) = &self.inner {
            i.epochs.lock().unwrap().push(record);
        }
    }

    /// Clones the recorded epoch series (empty when disabled).
    pub fn epochs(&self) -> EpochSeries {
        self.inner
            .as_ref()
            .map(|i| i.epochs.lock().unwrap().clone())
            .unwrap_or_default()
    }

    /// Clones the retained trace events, oldest first (empty when disabled).
    pub fn trace_events(&self) -> Vec<Event> {
        self.inner
            .as_ref()
            .map(|i| i.trace.lock().unwrap().iter().copied().collect())
            .unwrap_or_default()
    }

    /// Condenses everything recorded so far (None when disabled).
    pub fn summary(&self) -> Option<TelemetrySummary> {
        let i = self.inner.as_ref()?;
        let counters: Vec<(String, u64)> = i
            .counters
            .lock()
            .unwrap()
            .iter()
            .map(|(n, c)| (n.to_string(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = i
            .gauges
            .lock()
            .unwrap()
            .iter()
            .map(|(n, g)| (n.to_string(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect();
        // Span duration stats fold in as `span.<name>` histograms so every
        // consumer (reports, JSONL, the regression gate) reads one table.
        let mut hists: BTreeMap<String, crate::hist::HistogramSummary> = i
            .histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.to_string(), h.lock().unwrap().summary()))
            .collect();
        let sp = i.spans.lock().unwrap();
        for (name, data) in sp.stats.iter() {
            hists.insert(format!("span.{name}"), data.summary());
        }
        let wall = i.wall.lock().unwrap();
        let wallclock = if wall.profile.is_empty() {
            None
        } else {
            let accesses = counters
                .iter()
                .find(|entry: &&(String, u64)| entry.0 == "sim.requests")
                .map(|entry| entry.1)
                .unwrap_or(0);
            Some(WallclockSummary::from_profile(&wall.profile, accesses))
        };
        let trace = i.trace.lock().unwrap();
        Some(TelemetrySummary {
            counters,
            gauges,
            histograms: hists.into_iter().collect(),
            events_recorded: trace.offered(),
            events_dropped: trace.dropped(),
            epochs_recorded: i.epochs.lock().unwrap().len() as u64,
            spans_recorded: sp.ring.offered(),
            spans_dropped: sp.ring.dropped(),
            wallclock,
        })
    }

    /// Full bucket data of every registered histogram, sorted by name
    /// (empty when disabled). Each entry is copied through the shared
    /// [`Histogram::snapshot`] helper, one registry lock per histogram.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramData)> {
        let Some(i) = self.inner.as_ref() else {
            return Vec::new();
        };
        i.histograms
            .lock()
            .unwrap()
            .iter()
            .map(|(n, h)| (n.to_string(), Histogram(Some(Arc::clone(h))).snapshot()))
            .collect()
    }
}

/// Monotone counter handle (shared atomic when live).
#[derive(Clone, Debug, Default)]
pub struct Counter(Option<Arc<AtomicU64>>);

impl Counter {
    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.0 {
            c.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current value (0 for detached handles).
    pub fn get(&self) -> u64 {
        self.0
            .as_ref()
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }
}

/// Last-value gauge handle (shared atomic `f64` bits when live).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Option<Arc<AtomicU64>>);

impl Gauge {
    /// Overwrites the gauge value.
    #[inline]
    pub fn set(&self, v: f64) {
        if let Some(g) = &self.0 {
            g.store(v.to_bits(), Ordering::Relaxed);
        }
    }

    /// Current value (0 for detached handles).
    pub fn get(&self) -> f64 {
        self.0
            .as_ref()
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
            .unwrap_or(0.0)
    }
}

/// Histogram recording handle (shared when live).
#[derive(Clone, Debug, Default)]
pub struct Histogram(Option<Arc<Mutex<HistogramData>>>);

impl Histogram {
    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        if let Some(h) = &self.0 {
            h.lock().unwrap().record(v);
        }
    }

    /// Merges a locally accumulated batch in one lock acquisition.
    ///
    /// Hot loops record into a private [`HistogramData`] and flush it here
    /// at coarse boundaries (epoch end), keeping the per-sample path free of
    /// synchronization.
    pub fn merge(&self, batch: &HistogramData) {
        if batch.count() == 0 {
            return;
        }
        if let Some(h) = &self.0 {
            h.lock().unwrap().merge(batch);
        }
    }

    /// Snapshot of the underlying data (empty for detached handles).
    pub fn snapshot(&self) -> HistogramData {
        self.0
            .as_ref()
            .map(|h| h.lock().unwrap().clone())
            .unwrap_or_default()
    }
}

/// Guard for a span opened with [`Telemetry::span_start`].
///
/// [`ActiveSpan::end`] commits it and [`ActiveSpan::cancel`] discards it;
/// dropping the guard unclosed is equivalent to `cancel` (nothing is
/// recorded), so an early return never leaves the span on the stack.
#[must_use = "bind the span and close it with end() or cancel()"]
pub struct ActiveSpan {
    inner: Option<Arc<Inner>>,
    id: u64,
    name: &'static str,
    start_ps: u64,
}

impl std::fmt::Debug for ActiveSpan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveSpan")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("start_ps", &self.start_ps)
            .finish()
    }
}

impl ActiveSpan {
    /// Hub-unique id of this span (0 when the hub is disabled).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Commits the span, ending at `end_ps` (clamped to the start time).
    pub fn end(mut self, end_ps: u64) {
        self.close(Some(end_ps));
    }

    /// Discards the span without recording anything.
    pub fn cancel(mut self) {
        self.close(None);
    }

    fn close(&mut self, end_ps: Option<u64>) {
        let Some(i) = self.inner.take() else {
            return;
        };
        let mut sp = i.spans.lock().unwrap();
        match end_ps {
            Some(end_ps) => sp.close(self.id, self.name, self.start_ps, end_ps),
            None => {
                sp.remove_open(self.id);
            }
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        self.close(None);
    }
}

/// Token of a speculative span armed with [`Telemetry::span_speculate`].
///
/// A plain value: it holds no reference to the hub and has no `Drop`, so
/// arming and the quiet close touch nothing but the hub's relaxed
/// speculation slot. Its one closer, [`Speculation::end_if_used`], takes
/// the hub that armed it. A token that is never closed stays armed until
/// the next `span_speculate` supersedes it.
#[must_use = "close the speculation with end_if_used()"]
#[derive(Debug)]
pub struct Speculation {
    token: u64,
    name: &'static str,
    start_ps: u64,
}

impl Speculation {
    /// Closes the span on `hub`. If a child span materialized it, commits
    /// it ending at `end_ps` (clamped to the start time) under one spans
    /// lock; otherwise disarms it with relaxed loads and stores alone,
    /// which makes this the free-when-quiet closer hot loops pair with
    /// [`Telemetry::span_speculate`]. A token superseded by a later
    /// `span_speculate` closes as a no-op.
    pub fn end_if_used(self, hub: &Telemetry, end_ps: u64) {
        let Some(i) = &hub.inner else {
            return;
        };
        // Disarm the slot, but only if it is still ours: a later
        // span_speculate supersedes this token (and already cleaned up any
        // materialized residue).
        if i.spec_token.load(Ordering::Relaxed) != self.token {
            return;
        }
        i.spec_token.store(0, Ordering::Relaxed);
        let id = i.spec_id.load(Ordering::Relaxed);
        if id == 0 {
            // Never materialized: nothing is on the stack.
            return;
        }
        i.spec_id.store(0, Ordering::Relaxed);
        i.spans
            .lock()
            .unwrap()
            .close(id, self.name, self.start_ps, end_ps);
    }
}

/// One finished leaf span waiting in a [`SpanBatch`].
#[derive(Debug)]
struct Leaf {
    name: &'static str,
    start_ps: u64,
    end_ps: u64,
}

/// Finished leaf spans recorded without a lock or an atomic operation, for
/// [`Telemetry::flush_spans`] to commit in bulk.
///
/// The owner records into it on a hot path and flushes it before anything
/// else can record a span on the hub (see [`Telemetry::flush_spans`]).
/// Each leaf's duration is also tallied into per-name stats held here
/// until [`Telemetry::flush_span_stats`] merges them.
#[derive(Debug, Default)]
pub struct SpanBatch {
    /// Leaves not yet committed, in record order.
    pending: Vec<Leaf>,
    /// Per-name duration stats not yet merged. A batch sees a handful of
    /// names, so a linear scan beats a map.
    stats: Vec<(&'static str, HistogramData)>,
}

impl SpanBatch {
    /// Records a finished leaf span `start_ps..end_ps` (the end clamped to
    /// the start), as [`Telemetry::span_record`] would once flushed.
    // Deliberately not `#[inline]`: inlined at each call site of the
    // simulator's serve loop, it grows that loop's code.
    pub fn record(&mut self, name: &'static str, start_ps: u64, end_ps: u64) {
        let end_ps = end_ps.max(start_ps);
        self.pending.push(Leaf {
            name,
            start_ps,
            end_ps,
        });
        // Keyed by address: a name spelled at two addresses just gets two
        // entries here, which the hub merges by content.
        let k = match self.stats.iter().position(|(n, _)| std::ptr::eq(*n, name)) {
            Some(k) => k,
            None => {
                self.stats.push((name, HistogramData::new()));
                self.stats.len() - 1
            }
        };
        self.stats[k].1.record(end_ps - start_ps);
    }
}

/// Guard for a host-wallclock phase opened with [`Telemetry::phase`].
///
/// Dropping the guard closes the phase and records its elapsed host time;
/// [`PhaseGuard::finish`] is the explicit-close spelling for call sites
/// that reopen a phase in a loop. For a disabled handle the guard holds
/// nothing and closing it is a no-op.
#[must_use = "bind the guard; the phase is timed until it drops"]
pub struct PhaseGuard {
    inner: Option<Arc<Inner>>,
    token: u64,
}

impl std::fmt::Debug for PhaseGuard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhaseGuard")
            .field("enabled", &self.inner.is_some())
            .field("token", &self.token)
            .finish()
    }
}

impl PhaseGuard {
    /// Closes the phase now (equivalent to dropping the guard).
    #[inline]
    pub fn finish(self) {}
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            i.wall.lock().unwrap().close(self.token);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    #[test]
    fn counters_count_in_both_modes() {
        let t = Telemetry::new(TelemetryConfig::default());
        let c = t.counter("x");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauges_hold_last_value() {
        let t = Telemetry::new(TelemetryConfig::default());
        let g = t.gauge("g");
        g.set(0.5);
        g.set(0.75);
        assert_eq!(g.get(), 0.75);
    }

    #[test]
    fn named_handles_share_state() {
        let t = Telemetry::new(TelemetryConfig::default());
        let a = t.counter("shared");
        let b = t.counter("shared");
        a.inc();
        b.inc();
        assert_eq!(a.get(), 2);
        let s = t.summary().unwrap();
        assert_eq!(s.counter("shared"), Some(2));
    }

    #[test]
    fn activates_are_filtered_by_default() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.record(10, EventKind::Activate { bank: 0, row: 1 });
        t.record(20, EventKind::EpochRollover { epoch: 0 });
        assert_eq!(t.trace_events().len(), 1);

        let t2 = Telemetry::new(TelemetryConfig {
            trace_activates: true,
            ..Default::default()
        });
        t2.record(10, EventKind::Activate { bank: 0, row: 1 });
        assert_eq!(t2.trace_events().len(), 1);
    }

    #[test]
    fn merge_aggregates_every_metric_kind() {
        use crate::epoch::EpochRecord;

        let parent = Telemetry::new(TelemetryConfig::default());
        parent.counter("c").add(3);
        parent.gauge("g").set(0.25);
        parent.histogram("h").record(10);
        parent.push_epoch(EpochRecord {
            epoch: 0,
            ..Default::default()
        });
        parent.record(1, EventKind::EpochRollover { epoch: 0 });

        let job = parent.fork();
        assert!(job.is_enabled());
        job.counter("c").add(4);
        job.counter("job_only").inc();
        job.gauge("g").set(0.75);
        job.histogram("h").record(20);
        job.push_epoch(EpochRecord {
            epoch: 1,
            ..Default::default()
        });
        job.record(2, EventKind::EpochRollover { epoch: 1 });

        parent.merge_from(&job);
        let s = parent.summary().unwrap();
        assert_eq!(s.counter("c"), Some(7));
        assert_eq!(s.counter("job_only"), Some(1));
        assert_eq!(s.gauge("g"), Some(0.75));
        let h = s.histogram("h").unwrap();
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 20);
        assert_eq!(s.epochs_recorded, 2);
        assert_eq!(s.events_recorded, 2);
        let epochs: Vec<u64> = parent.epochs().records().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![0, 1]);
    }

    #[test]
    fn spans_nest_and_record_duration_stats() {
        let t = Telemetry::new(TelemetryConfig::default());
        let root = t.span_start("root", 100);
        let child = t.span_start("child", 120);
        child.end(150);
        root.end(200);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        // Children commit before their parent (end order), parent links hold.
        assert_eq!(spans[0].name, "child");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[1].name, "root");
        assert_eq!(spans[1].parent, None);
        assert_eq!(spans[0].duration_ps(), 30);
        let s = t.summary().unwrap();
        assert_eq!(s.spans_recorded, 2);
        assert_eq!(s.histogram("span.root").unwrap().count, 1);
        assert_eq!(s.histogram("span.child").unwrap().max, 30);
    }

    #[test]
    fn end_if_used_commits_only_with_children() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.span_speculate("speculative", 0).end_if_used(&t, 10);
        assert!(t.spans().is_empty());

        let used = t.span_speculate("speculative", 20);
        let child = t.span_start("work", 21);
        child.end(25);
        used.end_if_used(&t, 30);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].name, "speculative");
    }

    #[test]
    fn cancel_and_drop_record_nothing() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.span_start("a", 0).cancel();
        {
            let _dropped = t.span_start("b", 0);
        }
        assert!(t.spans().is_empty());
        // The stack is clean: a new root has no parent.
        let root = t.span_start("c", 5);
        root.end(9);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.summary().unwrap().spans_recorded, 1);
    }

    #[test]
    fn end_clamps_backwards_time() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.span_start("x", 100).end(40);
        let s = t.spans()[0];
        assert_eq!((s.start_ps, s.end_ps), (100, 100));
    }

    #[test]
    fn merge_remaps_span_ids_and_parents() {
        let parent = Telemetry::new(TelemetryConfig::default());
        let r = parent.span_start("r", 0);
        r.end(1);
        let job = parent.fork();
        let root = job.span_start("jr", 10);
        let child = job.span_start("jc", 11);
        child.end(12);
        root.end(20);
        parent.merge_from(&job);
        let spans = parent.spans();
        assert_eq!(spans.len(), 3);
        let mut ids = std::collections::BTreeSet::new();
        for s in &spans {
            assert!(ids.insert(s.id), "duplicate span id after merge");
        }
        let jc = spans.iter().find(|s| s.name == "jc").unwrap();
        let jr = spans.iter().find(|s| s.name == "jr").unwrap();
        assert_eq!(jc.parent, Some(jr.id));
        let s = parent.summary().unwrap();
        assert_eq!(s.spans_recorded, 3);
        assert_eq!(s.histogram("span.jc").unwrap().count, 1);
        // A span opened after the merge still gets a fresh id.
        let post = parent.span_start("post", 30);
        let post_id = post.id();
        post.end(31);
        assert!(!ids.contains(&post_id));
    }

    #[test]
    fn zero_capacity_span_ring_never_panics() {
        let t = Telemetry::new(TelemetryConfig {
            span_capacity: 0,
            ..Default::default()
        });
        let a = t.span_start("a", 0);
        let b = t.span_start("b", 1);
        b.end(2);
        a.end(3);
        assert!(t.spans().is_empty());
        let s = t.summary().unwrap();
        assert_eq!(s.spans_recorded, 2);
        assert_eq!(s.spans_dropped, 2);
        // Duration stats still accumulate even when the ring retains nothing.
        assert_eq!(s.histogram("span.a").unwrap().count, 1);
    }

    #[test]
    fn merge_with_disabled_or_self_is_a_no_op() {
        let t = Telemetry::new(TelemetryConfig::default());
        t.counter("c").inc();
        t.merge_from(&t.clone()); // same hub: must not deadlock or double
        t.merge_from(&Telemetry::disabled());
        Telemetry::disabled().merge_from(&t);
        assert_eq!(t.summary().unwrap().counter("c"), Some(1));
    }

    #[test]
    fn fork_inherits_config_but_not_state() {
        let t = Telemetry::new(TelemetryConfig {
            trace_activates: true,
            ..Default::default()
        });
        t.counter("c").inc();
        let f = t.fork();
        assert_eq!(f.summary().unwrap().counter("c"), None);
        // The fork inherits `trace_activates`.
        f.record(1, EventKind::Activate { bank: 0, row: 1 });
        assert_eq!(f.trace_events().len(), 1);
        assert!(!Telemetry::disabled().fork().is_enabled());
    }

    #[test]
    fn disabled_handle_records_nothing() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.record(1, EventKind::EpochRollover { epoch: 0 });
        let c = t.counter("x");
        c.inc();
        assert_eq!(c.get(), 0);
        let h = t.histogram("h");
        h.record(10);
        assert_eq!(h.snapshot().count(), 0);
        t.span_speculate("x", 0).end_if_used(&t, 1);
        t.span_record("leaf", 0, 1);
        let mut batch = SpanBatch::default();
        batch.record("leaf", 0, 1);
        t.flush_span_stats(&mut batch);
        let live = Telemetry::new(TelemetryConfig::default());
        live.counter("c").inc();
        live.phase("p").finish();
        t.merge_from_prefixed(&live, "p");
        t.phase("x").finish();
        let _held = t.phase("y");
        assert!(t.summary().is_none());
        assert!(t.trace_events().is_empty());
        assert!(t.spans().is_empty());
    }

    #[test]
    fn phases_nest_and_account_self_vs_child() {
        let t = Telemetry::new(TelemetryConfig::default());
        {
            let _outer = t.phase("outer");
            {
                let _inner = t.phase("inner");
            }
            {
                let _inner = t.phase("inner");
            }
        }
        let w = t.summary().unwrap().wallclock.unwrap();
        let outer = w.phase("outer").unwrap();
        let inner = w.phase("inner").unwrap();
        assert_eq!(outer.count, 1);
        assert_eq!(inner.count, 2);
        // The two inner occurrences landed on the nested path and their
        // time was attributed to outer's child time.
        assert_eq!(w.path("outer;inner").unwrap().count, 2);
        assert!(w.path("inner").is_none());
        assert!(outer.child_ns >= inner.total_ns);
        assert!(outer.total_ns >= outer.child_ns);
        assert_eq!(outer.self_ns(), outer.total_ns - outer.child_ns);
        // Root totals define the profiled wallclock.
        assert_eq!(w.host_wallclock_ns, outer.total_ns);
    }

    #[test]
    fn phase_finish_closes_early_and_loops_reopen() {
        let t = Telemetry::new(TelemetryConfig::default());
        let run = t.phase("run");
        let mut epoch = t.phase("epoch");
        for _ in 0..3 {
            epoch.finish();
            epoch = t.phase("epoch");
        }
        epoch.finish();
        run.finish();
        let w = t.summary().unwrap().wallclock.unwrap();
        assert_eq!(w.phase("epoch").unwrap().count, 4);
        assert_eq!(w.path("run;epoch").unwrap().count, 4);
        assert_eq!(w.phase("run").unwrap().count, 1);
    }

    #[test]
    fn open_phases_do_not_leak_into_summary_or_merge() {
        let t = Telemetry::new(TelemetryConfig::default());
        let _open = t.phase("still_open");
        assert!(t.summary().unwrap().wallclock.is_none());

        let job = t.fork();
        let done = job.phase("job_work");
        done.finish();
        let _job_open = job.phase("job_open");
        t.merge_from(&job);
        let w = t.summary().unwrap().wallclock.unwrap();
        assert_eq!(w.phase("job_work").unwrap().count, 1);
        assert!(w.phase("job_open").is_none());
        // The parent's own open phase is still unrecorded.
        assert!(w.phase("still_open").is_none());
    }

    #[test]
    fn phase_counts_merge_deterministically_across_forks() {
        fn exercise(hub: &Telemetry) {
            let r = hub.phase("r");
            hub.phase("c").finish();
            hub.phase("c").finish();
            r.finish();
        }
        let whole = Telemetry::new(TelemetryConfig::default());
        exercise(&whole);
        let job = whole.fork();
        exercise(&job);
        whole.merge_from(&job);
        let w = whole.summary().unwrap().wallclock.unwrap();
        assert_eq!(w.phase("r").unwrap().count, 2);
        assert_eq!(w.path("r;c").unwrap().count, 4);
    }

    #[test]
    fn disabled_handle_phase_is_inert() {
        let t = Telemetry::disabled();
        let g = t.phase("x");
        g.finish();
        assert!(t.summary().is_none());
    }

    #[test]
    fn speculative_quiet_path_records_nothing_and_burns_no_id() {
        let t = Telemetry::new(TelemetryConfig::default());
        let sp = t.span_speculate("quiet", 0);
        sp.end_if_used(&t, 10);
        assert!(t.spans().is_empty());
        assert!(t.summary().unwrap().histogram("span.quiet").is_none());
        // No span id was consumed: the next eager span gets id 1.
        let root = t.span_start("after", 20);
        assert_eq!(root.id(), 1);
        root.end(21);
    }

    #[test]
    fn speculative_materializes_via_child_span_start() {
        let t = Telemetry::new(TelemetryConfig::default());
        let sp = t.span_speculate("mitigation", 100);
        let child = t.span_start("migration", 110);
        child.end(150);
        sp.end_if_used(&t, 200);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let child = spans.iter().find(|s| s.name == "migration").unwrap();
        let root = spans.iter().find(|s| s.name == "mitigation").unwrap();
        assert_eq!(child.parent, Some(root.id));
        // Parent materialized before the child took an id, exactly as an
        // eager span_start would have ordered them.
        assert!(root.id < child.id);
        assert_eq!((root.start_ps, root.end_ps), (100, 200));
        assert_eq!(root.parent, None);
    }

    #[test]
    fn speculative_materializes_via_span_record() {
        let t = Telemetry::new(TelemetryConfig::default());
        let sp = t.span_speculate("drain", 10);
        t.span_record("refresh", 11, 15);
        sp.end_if_used(&t, 20);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let leaf = spans.iter().find(|s| s.name == "refresh").unwrap();
        let root = spans.iter().find(|s| s.name == "drain").unwrap();
        assert_eq!(leaf.parent, Some(root.id));
    }

    #[test]
    fn speculative_nests_under_open_parent_only_when_used() {
        let t = Telemetry::new(TelemetryConfig::default());
        // A quiet speculative span inside an open parent leaves only the
        // parent.
        let outer = t.span_start("outer", 0);
        let quiet = t.span_speculate("quiet", 1);
        quiet.end_if_used(&t, 2);
        outer.end(3);
        let names: Vec<&str> = t.spans().iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["outer"]);

        // A used speculative span nests under the open parent.
        let outer = t.span_start("outer", 10);
        let sp = t.span_speculate("mid", 11);
        let leaf = t.span_start("leaf", 12);
        leaf.end(13);
        sp.end_if_used(&t, 14);
        outer.end(15);
        let all = t.spans();
        let spans = &all[1..];
        assert_eq!(spans.len(), 3);
        let outer = spans.iter().find(|s| s.name == "outer").unwrap();
        let mid = spans.iter().find(|s| s.name == "mid").unwrap();
        let leaf = spans.iter().find(|s| s.name == "leaf").unwrap();
        assert_eq!(mid.parent, Some(outer.id));
        assert_eq!(leaf.parent, Some(mid.id));
    }

    #[test]
    fn superseded_speculative_span_is_discarded_and_stack_stays_clean() {
        let t = Telemetry::new(TelemetryConfig::default());
        let first = t.span_speculate("first", 0);
        t.span_record("c1", 1, 2); // materializes `first`
        let second = t.span_speculate("second", 10); // supersedes `first`
        t.span_record("c2", 11, 12); // materializes `second`
        second.end_if_used(&t, 20);
        first.end_if_used(&t, 30); // superseded: must be a no-op
        let spans = t.spans();
        let names: Vec<&str> = spans.iter().map(|s| s.name).collect();
        assert_eq!(names, vec!["c1", "c2", "second"]);
        let c2 = spans.iter().find(|s| s.name == "c2").unwrap();
        let second = spans.iter().find(|s| s.name == "second").unwrap();
        assert_eq!(c2.parent, Some(second.id));
        // `first`'s materialized residue was removed at supersede time:
        // `second` is a root, and so is a fresh eager span.
        assert_eq!(second.parent, None);
        let root = t.span_start("after", 40);
        root.end(41);
        assert_eq!(t.spans().last().unwrap().parent, None);
    }

    #[test]
    fn span_batch_commits_like_span_record() {
        let direct = Telemetry::new(TelemetryConfig::default());
        let batched = Telemetry::new(TelemetryConfig::default());
        let mut batch = SpanBatch::default();
        for hub in [&direct, &batched] {
            hub.span_start("before", 0).end(1);
        }
        // Leaves recorded between two flush points, one end clamped.
        direct.span_record("wait", 2, 5);
        direct.span_record("block", 6, 4);
        batch.record("wait", 2, 5);
        batch.record("block", 6, 4);
        // The next speculative root materializes on the first leaf that
        // commits, in either path.
        let a = direct.span_speculate("root", 7);
        direct.span_record("wait", 8, 9);
        a.end_if_used(&direct, 10);
        batched.flush_spans(&mut batch);
        let b = batched.span_speculate("root", 7);
        batch.record("wait", 8, 9);
        batched.flush_spans(&mut batch);
        b.end_if_used(&batched, 10);
        assert_eq!(direct.spans(), batched.spans());
        // Stats wait in the batch until flush_span_stats merges them.
        let stats = |hub: &Telemetry, name: &str| {
            hub.summary()
                .unwrap()
                .histogram(name)
                .map(|h| (h.count, h.max))
        };
        assert_eq!(stats(&batched, "span.wait"), None);
        batched.flush_span_stats(&mut batch);
        for name in ["span.wait", "span.block", "span.root", "span.before"] {
            assert_eq!(stats(&direct, name), stats(&batched, name), "{name}");
        }
        assert_eq!(stats(&batched, "span.block"), Some((1, 0)));
        // A flush on a disabled hub empties the batch without recording.
        let off = Telemetry::disabled();
        batch.record("wait", 0, 1);
        off.flush_span_stats(&mut batch);
        batched.flush_span_stats(&mut batch);
        assert_eq!(batched.summary().unwrap().spans_recorded, 5);
    }

    #[test]
    fn merge_from_prefixed_nests_wall_phases_and_credits_child_time() {
        let t = Telemetry::new(TelemetryConfig::default());
        let shard = t.fork();
        {
            let run = shard.phase("sim.run");
            shard.phase("sim.epoch").finish();
            run.finish();
        }
        let shard_total = shard
            .summary()
            .unwrap()
            .wallclock
            .unwrap()
            .phase("sim.run")
            .unwrap()
            .total_ns;
        let coord = t.phase("sim.sharded");
        t.merge_from_prefixed(&shard, "sim.sharded;shard0");
        coord.finish();
        let w = t.summary().unwrap().wallclock.unwrap();
        // Shard rows nest under the coordinator instead of the root.
        assert_eq!(w.path("sim.sharded;shard0;sim.run").unwrap().count, 1);
        assert!(w.path("sim.run").is_none());
        let root = w.phase("sim.sharded").unwrap();
        // The absorbed shard total was credited as the coordinator's child
        // time, and only the coordinator's real elapsed time is the root.
        assert!(root.child_ns >= shard_total);
        assert_eq!(w.host_wallclock_ns, root.total_ns);
    }
}
