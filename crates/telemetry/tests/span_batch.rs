//! Equivalence of batched and direct leaf-span recording.
//!
//! Two hubs run the same random sequence of span operations. The reference
//! hub records every leaf span with `Telemetry::span_record`; the batched
//! hub records them into a `SpanBatch` and commits them with
//! `Telemetry::flush_spans`, flushing before every other span operation as
//! the batch's contract requires. The sequences interleave speculative
//! roots (quiet, materialized by a child `span_start`, materialized by a
//! leaf, superseded), nested `span_start` children under open parents,
//! ended or cancelled, and `merge_from` of other hubs. After every flush
//! point the two hubs must hold identical spans, and once the batch's stats
//! are merged, identical summaries.

use aqua_telemetry::{ActiveSpan, SpanBatch, Speculation, Telemetry, TelemetryConfig};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Leaf names. The last one equals the first by content but lives at
/// another address, so per-name stats must key on the string, not the
/// pointer.
fn leaf_names() -> &'static [&'static str; 4] {
    static NAMES: OnceLock<[&'static str; 4]> = OnceLock::new();
    NAMES.get_or_init(|| {
        [
            "sim.queue_wait",
            "sim.bank_block",
            "leaf.other",
            Box::leak(String::from("sim.queue_wait").into_boxed_str()),
        ]
    })
}

const SPAN_NAMES: [&str; 3] = ["root", "mid", "child"];

/// The two hubs and the handles each side holds, kept in lockstep.
struct Pair {
    reference: Telemetry,
    batched: Telemetry,
    batch: SpanBatch,
    open: Vec<(ActiveSpan, ActiveSpan)>,
    armed: Option<(Speculation, Speculation)>,
    superseded: Vec<(Speculation, Speculation)>,
}

impl Pair {
    fn new(span_capacity: usize) -> Pair {
        let cfg = TelemetryConfig {
            span_capacity,
            ..TelemetryConfig::default()
        };
        Pair {
            reference: Telemetry::new(cfg),
            batched: Telemetry::new(cfg),
            batch: SpanBatch::default(),
            open: Vec::new(),
            armed: None,
            superseded: Vec::new(),
        }
    }

    /// The batch contract: pending leaves commit before anything else
    /// touches the batched hub's spans. Each such flush is a flush point.
    fn before_span_op(&mut self, step: usize) {
        self.batched.flush_spans(&mut self.batch);
        self.assert_spans_equal(step);
    }

    fn assert_spans_equal(&self, step: usize) {
        assert_eq!(
            self.reference.spans(),
            self.batched.spans(),
            "spans differ after step {step}"
        );
    }

    fn assert_all_equal(&mut self, step: usize) {
        self.batched.flush_span_stats(&mut self.batch);
        self.assert_spans_equal(step);
        assert_eq!(
            self.reference.summary(),
            self.batched.summary(),
            "summaries differ after step {step}"
        );
    }

    fn apply(&mut self, step: usize, (op, a, b): (u8, u64, u64)) {
        let names = leaf_names();
        match op {
            // Leaf spans are the common case; some end before they start.
            0..=3 => {
                let name = names[(a % names.len() as u64) as usize];
                let end = (a + b).saturating_sub(20);
                self.reference.span_record(name, a, end);
                self.batch.record(name, a, end);
            }
            4 => self.before_span_op(step),
            5 => self.assert_all_equal(step),
            6 => {
                self.before_span_op(step);
                let name = SPAN_NAMES[(a % 3) as usize];
                self.open.push((
                    self.reference.span_start(name, a),
                    self.batched.span_start(name, a),
                ));
            }
            7 if !self.open.is_empty() => {
                self.before_span_op(step);
                // Mostly LIFO, sometimes out of order.
                let idx = if b % 4 == 0 {
                    (a as usize) % self.open.len()
                } else {
                    self.open.len() - 1
                };
                let (r, t) = self.open.remove(idx);
                if b % 3 == 0 {
                    r.cancel();
                    t.cancel();
                } else {
                    r.end(a + b);
                    t.end(a + b);
                }
            }
            8 => {
                self.before_span_op(step);
                let name = SPAN_NAMES[(b % 3) as usize];
                let fresh = (
                    self.reference.span_speculate(name, a),
                    self.batched.span_speculate(name, a),
                );
                if let Some(old) = self.armed.replace(fresh) {
                    self.superseded.push(old);
                }
            }
            9 => {
                self.before_span_op(step);
                if let Some((r, t)) = self.armed.take() {
                    r.end_if_used(&self.reference, a + b);
                    t.end_if_used(&self.batched, a + b);
                }
            }
            // Closing a superseded token must change nothing.
            10 => {
                self.before_span_op(step);
                if let Some((r, t)) = self.superseded.pop() {
                    r.end_if_used(&self.reference, a);
                    t.end_if_used(&self.batched, a);
                }
            }
            11 => {
                self.before_span_op(step);
                let job = self.reference.fork();
                let root = job.span_start("job.root", a);
                job.span_record("job.leaf", a + 1, a + 1 + b % 50);
                if b % 2 == 0 {
                    root.end(a + 100);
                } else {
                    root.cancel();
                }
                self.reference.merge_from(&job);
                self.batched.merge_from(&job);
            }
            _ => {}
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Batched leaves are indistinguishable from direct `span_record`
    /// calls at every flush point.
    #[test]
    fn batched_leaves_match_span_record(
        ops in prop::collection::vec((0u8..12, 0u64..1000, 0u64..100), 0..80),
        capacity in 0usize..4,
    ) {
        // Rings from no capacity through overflowing to roomy.
        let mut pair = Pair::new([0, 3, 16, 1024][capacity]);
        for (step, &op) in ops.iter().enumerate() {
            pair.apply(step, op);
        }
        while !pair.open.is_empty() {
            pair.apply(ops.len(), (7, 5000, 1));
        }
        pair.assert_all_equal(ops.len());
    }
}
