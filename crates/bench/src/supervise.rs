//! Supervised execution of experiment cells: structured errors, bounded
//! deterministic retries, quarantine, and journal-backed resume.
//!
//! [`run_supervised`] wraps [`crate::pool::run_indexed`] with three layers
//! (DESIGN.md section 14):
//!
//! 1. **Error taxonomy.** A failed cell surfaces as a typed [`RunError`]
//!    classified from its panic payload, not a bare string.
//! 2. **Retry determinism contract.** The whole stack is seeded, so a
//!    genuine simulation failure must reproduce byte-for-byte. A watchdog
//!    expiry is host-time noise and is retried up to
//!    [`Supervisor::max_retries`] times; any other panic gets exactly one
//!    *determinism probe* re-run from the same seed — if the probe does not
//!    reproduce the identical panic, the cell is quarantined as
//!    [`RunError::Nondeterministic`] (a result that cannot be trusted *or*
//!    reproduced has no business in a figure).
//! 3. **Checkpoint/resume.** With a [`JournalBinding`], every concluded
//!    cell is appended to the crash-consistent journal before the runner
//!    moves on, and cells already concluded by an earlier (possibly
//!    interrupted) run are replayed instead of re-simulated.
//!
//! Supervision telemetry — retry/resume/quarantine counters and events —
//! is recorded on the supervisor's hub *after* the pool drains, in input
//! order, so it is byte-identical regardless of worker count.
//!
//! A [`MetricsPlane`], by contrast, is updated *live* (cell started,
//! in flight, completed, failed, retried, quarantined, resumed) — it is a
//! host-time observer whose update order legitimately depends on
//! scheduling, and nothing deterministic ever reads it back.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use crate::gate::JsonValue;
use crate::journal::{CellKey, Journal};
use crate::pool;
use aqua_telemetry::{EventKind, MetricsPlane, Telemetry};

/// Why an experiment cell has no trustworthy result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// The job panicked, and a seeded re-run reproduced the identical
    /// panic: a deterministic failure worth debugging.
    Panic(String),
    /// The cell exceeded its hard wall-clock budget
    /// (`DramError::WatchdogExpired`). Host-time, not simulated time, so
    /// this is the one *retriable* failure: a loaded machine can expire a
    /// watchdog that a retry — or a resume on a quieter host — completes.
    WatchdogExpired {
        /// The budget that was exceeded, in milliseconds.
        budget_ms: u64,
    },
    /// The job tripped an internal consistency assertion. Never retried:
    /// the simulator state it describes is already wrong.
    InvariantViolation(String),
    /// The determinism probe could not reproduce the original failure —
    /// the cell's behaviour depends on something outside its seed, and it
    /// is quarantined (no retry can make its result trustworthy).
    Nondeterministic {
        /// What the first attempt and the probe each did.
        detail: String,
    },
}

impl RunError {
    /// Classifies a raw panic message into the taxonomy.
    pub fn classify(msg: &str) -> RunError {
        if let Some(rest) = msg.split("watchdog: simulation exceeded its ").nth(1) {
            let budget_ms = rest
                .split_whitespace()
                .next()
                .and_then(|n| n.parse().ok())
                .unwrap_or(0);
            return RunError::WatchdogExpired { budget_ms };
        }
        if msg.contains("assertion") || msg.contains("invariant") {
            return RunError::InvariantViolation(msg.to_string());
        }
        RunError::Panic(msg.to_string())
    }

    /// Stable kind tag, used as the journal record status and in campaign
    /// CSV status columns.
    pub fn kind(&self) -> &'static str {
        match self {
            RunError::Panic(_) => "panic",
            RunError::WatchdogExpired { .. } => "watchdog",
            RunError::InvariantViolation(_) => "invariant",
            RunError::Nondeterministic { .. } => "nondeterministic",
        }
    }

    /// Whether resuming (or retrying) may legitimately produce a result:
    /// true only for host-time failures. A journal record with
    /// `retriable: true` (also an older journal's `canceled` record) is
    /// re-run on resume instead of replayed.
    pub fn retriable(&self) -> bool {
        matches!(self, RunError::WatchdogExpired { .. })
    }

    /// The kind-free detail string journaled in a record's `error` field;
    /// `from_journal(self.kind(), &self.detail())` rebuilds `self`.
    pub(crate) fn detail(&self) -> String {
        match self {
            RunError::Panic(msg) => msg.clone(),
            // classify() parses the budget back out of the display form.
            RunError::WatchdogExpired { .. } => self.to_string(),
            RunError::InvariantViolation(msg) => msg.clone(),
            RunError::Nondeterministic { detail } => detail.clone(),
        }
    }

    /// Rebuilds the error a journal record describes.
    pub(crate) fn from_journal(status: &str, error: &str) -> RunError {
        match status {
            "watchdog" => RunError::classify(error),
            "invariant" => RunError::InvariantViolation(error.to_string()),
            "nondeterministic" => RunError::Nondeterministic {
                detail: error.to_string(),
            },
            _ => RunError::Panic(error.to_string()),
        }
    }
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Panic(msg) => write!(f, "panic: {msg}"),
            RunError::WatchdogExpired { budget_ms } => write!(
                f,
                "watchdog: simulation exceeded its {budget_ms} ms wall-clock budget"
            ),
            RunError::InvariantViolation(msg) => write!(f, "invariant violation: {msg}"),
            RunError::Nondeterministic { detail } => {
                write!(f, "nondeterministic (quarantined): {detail}")
            }
        }
    }
}

/// Retry policy and supervision telemetry for one supervised pool run.
#[derive(Debug, Clone)]
pub struct Supervisor {
    /// Extra seeded attempts granted to *watchdog* failures (the
    /// `AQUA_BENCH_RETRIES` knob). The determinism probe after an ordinary
    /// panic is separate and always exactly one.
    pub max_retries: u32,
    /// Hub receiving retry/resume/quarantine counters and events
    /// (recorded post-drain in input order; disabled hub = free).
    pub telemetry: Telemetry,
    /// Live metrics plane receiving cell-health updates as they happen
    /// (see the module docs; `None` = no live observer).
    pub plane: Option<Arc<MetricsPlane>>,
}

impl Default for Supervisor {
    fn default() -> Self {
        Supervisor {
            max_retries: 1,
            telemetry: Telemetry::disabled(),
            plane: None,
        }
    }
}

/// The conclusion the supervisor reached for one cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Attempted<T> {
    /// The cell's result, or why there is none.
    pub outcome: Result<T, RunError>,
    /// Attempts spent on the cell; a replayed cell (see `resumed`) reports
    /// the count its journal record carries.
    pub attempts: u32,
    /// True when the outcome was replayed from a journal record written by
    /// an earlier run rather than simulated now.
    pub resumed: bool,
}

/// Encodes/decodes one cell result to/from its journal payload.
pub struct Codec<T> {
    /// Renders a result as one compact (single-line) JSON value.
    pub encode: fn(&T) -> String,
    /// Rebuilds a result from a parsed payload.
    pub decode: fn(&JsonValue) -> Result<T, String>,
}

impl<T> Clone for Codec<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for Codec<T> {}

/// Wires a supervised run to a checkpoint journal: per-cell keys and
/// labels (parallel to the item slice) plus the payload codec.
pub struct JournalBinding<'a, T> {
    /// The open journal.
    pub journal: &'a Journal,
    /// Per-item [`CellKey`], same order as the item slice.
    pub keys: &'a [CellKey],
    /// Per-item human-readable label (`scheme/workload`), for log lines.
    pub labels: &'a [String],
    /// Payload codec.
    pub codec: Codec<T>,
}

/// Runs `f(index, item, attempt)` over every item under supervision (see
/// the module docs), with at most `jobs` cells in flight. `attempt` is
/// 1-based; a retried cell re-invokes `f` with the same index and item —
/// everything that seeds the cell must come from those, so the re-run is
/// deterministic. Results come back in input order.
pub fn run_supervised<I, T, F>(
    jobs: usize,
    items: &[I],
    sup: &Supervisor,
    binding: Option<&JournalBinding<'_, T>>,
    f: F,
) -> Vec<Attempted<T>>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I, u32) -> T + Sync,
{
    // Resolve journal replays serially up front (deterministic log order).
    let mut slots: Vec<Option<Attempted<T>>> = (0..items.len())
        .map(|i| binding.and_then(|b| replay(b, i)))
        .collect();
    let pending: Vec<usize> = (0..items.len()).filter(|&i| slots[i].is_none()).collect();
    if let Some(plane) = &sup.plane {
        let resumed = (items.len() - pending.len()) as u64;
        if resumed > 0 {
            plane.update_cells(|c| c.resumed += resumed);
        }
    }
    let ran = pool::run_indexed(jobs, &pending, |_, &i| {
        if let Some(plane) = &sup.plane {
            plane.update_cells(|c| {
                c.started += 1;
                c.in_flight += 1;
            });
        }
        let att = attempt_cell(i, &items[i], sup, &f);
        if let Some(plane) = &sup.plane {
            plane.update_cells(|c| {
                c.in_flight = c.in_flight.saturating_sub(1);
                c.retried += u64::from(att.attempts.saturating_sub(1));
                match &att.outcome {
                    Ok(_) => c.completed += 1,
                    Err(RunError::Nondeterministic { .. }) => {
                        c.failed += 1;
                        c.quarantined += 1;
                    }
                    Err(_) => c.failed += 1,
                }
            });
        }
        if let Some(b) = binding {
            append(b, i, &att);
        }
        att
    });
    for (&i, outcome) in pending.iter().zip(ran) {
        slots[i] = Some(outcome.unwrap_or_else(|msg| Attempted {
            // attempt_cell contains job panics itself; reaching this arm
            // means the supervisor's own bookkeeping panicked.
            outcome: Err(RunError::classify(&msg)),
            attempts: 1,
            resumed: false,
        }));
    }
    let results: Vec<Attempted<T>> = slots
        .into_iter()
        .map(|slot| slot.expect("every slot resolved"))
        .collect();
    record_telemetry(sup, &results);
    results
}

/// Replays cell `i` from its journal record, or `None` if it must run.
fn replay<T>(b: &JournalBinding<'_, T>, i: usize) -> Option<Attempted<T>> {
    let rec = b.journal.lookup(&b.keys[i])?;
    let label = &b.labels[i];
    if rec.retriable {
        eprintln!(
            "[journal] {label}: previous run ended {} (retriable); re-running",
            rec.status
        );
        return None;
    }
    if rec.status == "ok" {
        let decoded = rec
            .payload
            .as_ref()
            .ok_or_else(|| "record has no payload".to_string())
            .and_then(|p| (b.codec.decode)(p));
        return match decoded {
            Ok(v) => {
                eprintln!("[journal] {label}: resumed from checkpoint");
                Some(Attempted {
                    outcome: Ok(v),
                    attempts: rec.attempts,
                    resumed: true,
                })
            }
            Err(e) => {
                eprintln!("warning: [journal] {label}: undecodable record ({e}); re-running");
                None
            }
        };
    }
    eprintln!(
        "[journal] {label}: resumed as {} (deterministic failure)",
        rec.status
    );
    Some(Attempted {
        outcome: Err(RunError::from_journal(
            &rec.status,
            rec.error.as_deref().unwrap_or(""),
        )),
        attempts: rec.attempts,
        resumed: true,
    })
}

/// Appends a concluded cell to the journal (crash-consistent: the record
/// is durable before the pool reports the cell done).
fn append<T>(b: &JournalBinding<'_, T>, i: usize, att: &Attempted<T>) {
    let (key, label) = (b.keys[i], b.labels[i].as_str());
    match &att.outcome {
        Ok(v) => b
            .journal
            .append_ok(key, label, att.attempts, &(b.codec.encode)(v)),
        Err(e) => b.journal.append_err(
            key,
            label,
            att.attempts,
            e.kind(),
            e.retriable(),
            &e.detail(),
        ),
    }
}

/// Runs one cell's attempt loop; never panics (panics are contained and
/// classified per attempt).
fn attempt_cell<I, T>(
    i: usize,
    item: &I,
    sup: &Supervisor,
    f: &(impl Fn(usize, &I, u32) -> T + Sync),
) -> Attempted<T> {
    let run = |attempt: u32| {
        catch_unwind(AssertUnwindSafe(|| f(i, item, attempt))).map_err(pool::panic_message)
    };
    let conclude = |outcome: Result<T, RunError>, attempts: u32| Attempted {
        outcome,
        attempts,
        resumed: false,
    };
    let first_msg = match run(1) {
        Ok(v) => return conclude(Ok(v), 1),
        Err(msg) => msg,
    };
    match RunError::classify(&first_msg) {
        RunError::WatchdogExpired { budget_ms } => {
            // Host-time flake: grant up to `max_retries` full re-runs.
            let mut last = RunError::WatchdogExpired { budget_ms };
            let mut attempts = 1;
            for attempt in 2..=sup.max_retries.saturating_add(1) {
                attempts = attempt;
                match run(attempt) {
                    Ok(v) => return conclude(Ok(v), attempts),
                    Err(msg) => {
                        last = RunError::classify(&msg);
                        if !matches!(last, RunError::WatchdogExpired { .. }) {
                            break;
                        }
                    }
                }
            }
            conclude(Err(last), attempts)
        }
        RunError::Panic(_) => {
            // Determinism probe: one seeded re-run must reproduce the
            // byte-identical panic, else the cell is quarantined.
            match run(2) {
                Err(probe_msg) if probe_msg == first_msg => {
                    conclude(Err(RunError::Panic(first_msg)), 2)
                }
                Err(probe_msg) => conclude(
                    Err(RunError::Nondeterministic {
                        detail: format!(
                            "first attempt panicked ({first_msg}); seeded re-run \
                             panicked differently ({probe_msg})"
                        ),
                    }),
                    2,
                ),
                Ok(_) => conclude(
                    Err(RunError::Nondeterministic {
                        detail: format!(
                            "first attempt panicked ({first_msg}); seeded re-run \
                             completed cleanly"
                        ),
                    }),
                    2,
                ),
            }
        }
        other => conclude(Err(other), 1),
    }
}

/// Records supervision counters/events on the supervisor's hub, in input
/// order (scheduling-independent, so parallel == serial byte-for-byte).
fn record_telemetry<T>(sup: &Supervisor, results: &[Attempted<T>]) {
    let hub = &sup.telemetry;
    if !hub.is_enabled() {
        return;
    }
    let retries = hub.counter("bench.retries");
    let resumed = hub.counter("bench.cells_resumed");
    let quarantined = hub.counter("bench.cells_quarantined");
    let watchdogs = hub.counter("bench.watchdog_expired");
    for (i, att) in results.iter().enumerate() {
        let job = i as u64;
        if att.resumed {
            resumed.inc();
            hub.record(0, EventKind::CellResumed { job });
            continue;
        }
        for attempt in 2..=u64::from(att.attempts) {
            retries.inc();
            hub.record(0, EventKind::RetryAttempt { job, attempt });
        }
        match &att.outcome {
            Err(RunError::Nondeterministic { .. }) => quarantined.inc(),
            Err(RunError::WatchdogExpired { .. }) => watchdogs.inc(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::CellKey;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("aqua-supervise-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.jsonl", std::process::id()))
    }

    fn int_codec() -> Codec<u32> {
        fn enc(v: &u32) -> String {
            format!("{{\"value\":{v}}}")
        }
        fn dec(v: &JsonValue) -> Result<u32, String> {
            v.as_obj()
                .and_then(|o| crate::gate::json::get(o, "value"))
                .and_then(JsonValue::as_f64)
                .map(|f| f as u32)
                .ok_or_else(|| "bad payload".into())
        }
        Codec {
            encode: enc,
            decode: dec,
        }
    }

    #[test]
    fn classification_covers_the_taxonomy() {
        assert_eq!(
            RunError::classify("watchdog: simulation exceeded its 250 ms wall-clock budget"),
            RunError::WatchdogExpired { budget_ms: 250 }
        );
        assert!(matches!(
            RunError::classify("assertion `left == right` failed"),
            RunError::InvariantViolation(_)
        ));
        assert!(matches!(
            RunError::classify("quarantine invariant broken"),
            RunError::InvariantViolation(_)
        ));
        assert!(matches!(
            RunError::classify("unknown workload nope"),
            RunError::Panic(_)
        ));
        assert!(RunError::WatchdogExpired { budget_ms: 1 }.retriable());
        assert!(!RunError::Panic("x".into()).retriable());
        assert!(!RunError::Nondeterministic { detail: "x".into() }.retriable());
    }

    #[test]
    fn watchdog_display_reclassifies_to_the_same_error() {
        let e = RunError::WatchdogExpired { budget_ms: 77 };
        assert_eq!(RunError::classify(&e.to_string()), e);
    }

    #[test]
    fn deterministic_panic_is_probed_once_and_kept() {
        let calls = AtomicU32::new(0);
        let out = run_supervised(1, &[0u32], &Supervisor::default(), None, |_, _, _| {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("always the same");
        });
        let _: &Vec<Attempted<()>> = &out;
        assert_eq!(calls.load(Ordering::Relaxed), 2, "exactly one probe");
        assert_eq!(out[0].attempts, 2);
        assert_eq!(
            out[0].outcome,
            Err(RunError::Panic("always the same".into()))
        );
    }

    #[test]
    fn flaky_panic_is_quarantined_as_nondeterministic() {
        let calls = AtomicU32::new(0);
        let out = run_supervised(1, &[0u32], &Supervisor::default(), None, |_, _, _| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("only the first time");
            }
            7u32
        });
        assert_eq!(out[0].attempts, 2);
        match &out[0].outcome {
            Err(RunError::Nondeterministic { detail }) => {
                assert!(detail.contains("only the first time"), "{detail}");
                assert!(detail.contains("completed cleanly"), "{detail}");
            }
            other => panic!("expected quarantine, got {other:?}"),
        }
    }

    #[test]
    fn watchdog_failures_get_bounded_retries() {
        // Expires twice, then would succeed — but max_retries=1 grants only
        // one re-run, so the cell concludes expired after 2 attempts.
        let calls = AtomicU32::new(0);
        let sup = Supervisor::default();
        let out = run_supervised(1, &[0u32], &sup, None, |_, _, _| -> u32 {
            calls.fetch_add(1, Ordering::Relaxed);
            panic!("watchdog: simulation exceeded its 5 ms wall-clock budget");
        });
        assert_eq!(calls.load(Ordering::Relaxed), 2);
        assert_eq!(
            out[0].outcome,
            Err(RunError::WatchdogExpired { budget_ms: 5 })
        );

        // With a transient expiry, the retry's success is accepted as-is
        // (host time does not affect simulated results).
        let calls = AtomicU32::new(0);
        let out = run_supervised(1, &[0u32], &sup, None, |_, _, _| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("watchdog: simulation exceeded its 5 ms wall-clock budget");
            }
            42u32
        });
        assert_eq!(out[0].outcome, Ok(42));
        assert_eq!(out[0].attempts, 2);
    }

    #[test]
    fn journal_roundtrip_replays_ok_and_deterministic_failures() {
        let path = tmp("roundtrip");
        let _ = std::fs::remove_file(&path);
        let items = [10u32, 20, 30];
        let keys: Vec<CellKey> = items
            .iter()
            .map(|v| CellKey::digest(&["test", &v.to_string()]))
            .collect();
        let labels: Vec<String> = items.iter().map(|v| format!("cell/{v}")).collect();
        let run = |f: fn(usize, &u32, u32) -> u32| {
            let journal = Journal::open(&path).unwrap();
            let binding = JournalBinding {
                journal: &journal,
                keys: &keys,
                labels: &labels,
                codec: int_codec(),
            };
            run_supervised(2, &items, &Supervisor::default(), Some(&binding), f)
        };
        // First pass: the middle cell fails deterministically.
        let first = run(|_, &v, _| {
            if v == 20 {
                panic!("bad cell 20");
            }
            v * 2
        });
        assert_eq!(first[0].outcome, Ok(20));
        assert!(matches!(first[1].outcome, Err(RunError::Panic(_))));
        assert!(first.iter().all(|a| !a.resumed));
        // Second pass would succeed everywhere — but every cell (including
        // the deterministic failure) replays from the journal instead.
        let second = run(|_, &v, _| v * 2);
        assert!(second.iter().all(|a| a.resumed));
        assert_eq!(second[0].outcome, Ok(20));
        assert_eq!(
            second[1].outcome,
            Err(RunError::Panic("bad cell 20".into()))
        );
        assert_eq!(second[2].outcome, Ok(60));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn supervision_telemetry_is_input_ordered() {
        let hub = Telemetry::new(Default::default());
        let sup = Supervisor {
            telemetry: hub.clone(),
            ..Supervisor::default()
        };
        let out = run_supervised(4, &[0u32, 1, 2], &sup, None, |_, &v, _| {
            if v == 1 {
                panic!("deterministic failure");
            }
            v
        });
        assert_eq!(out.len(), 3);
        let summary = hub.summary().unwrap();
        assert_eq!(summary.counter("bench.retries"), Some(1));
        let events: Vec<_> = hub
            .trace_events()
            .into_iter()
            .filter(|e| matches!(e.kind, EventKind::RetryAttempt { .. }))
            .collect();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].kind,
            EventKind::RetryAttempt { job: 1, attempt: 2 }
        );
    }
}
