//! Consistent in-run snapshots of a live telemetry hub.
//!
//! A [`Snapshot`] is a read-only, point-in-time view of everything a
//! [`Telemetry`] hub has registered — counters, histograms (both
//! condensed summaries and full bucket data), ring/epoch/span
//! statistics, and the wallclock phase profile — plus per-counter deltas
//! against the previous snapshot taken by the same [`SnapshotTracker`].
//!
//! Consistency model (DESIGN.md section 16): capture reuses the hub's own
//! [`Telemetry::summary`] pass, which holds each registry lock only long
//! enough to copy it, so a snapshot is *per-structure* consistent (every
//! counter read is a single atomic load; every histogram is copied under
//! its own lock) but not a global stop-the-world cut — two counters
//! incremented by a concurrently running shard may straddle the capture.
//! That is deliberate: snapshots exist to *observe* a live run, and the
//! simulator's hot path must never block on an observer. Capture mutates
//! nothing, so a run with snapshots enabled is byte-identical to one
//! without.
//!
//! Host-time discipline: `host_elapsed_ns` follows the wallclock layer's
//! count-only-equality convention — [`Snapshot`]'s `PartialEq` ignores it
//! entirely, so snapshot comparisons stay deterministic across hosts.

use std::time::Instant;

use crate::hist::HistogramData;
use crate::hub::Telemetry;
use crate::summary::TelemetrySummary;

/// A point-in-time view of one telemetry hub (see the module docs for the
/// consistency model).
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// Monotone capture sequence number within one [`SnapshotTracker`]
    /// (the first capture is 1).
    pub seq: u64,
    /// The condensed registry view: counters, histogram summaries
    /// (including folded `span.<name>` stats), ring/epoch/span statistics,
    /// and the wallclock profile.
    pub summary: TelemetrySummary,
    /// Full bucket data of every *registered* histogram (folded span stats
    /// are summaries only), sorted by name. Captured through the shared
    /// [`crate::hub::Histogram::snapshot`] helper.
    pub histogram_data: Vec<(String, HistogramData)>,
    /// Per-counter increase since the previous snapshot of the same
    /// tracker (saturating; a counter first seen in this capture reports
    /// its full value). Sorted by name.
    pub counter_deltas: Vec<(String, u64)>,
    /// Host nanoseconds since the previous capture (or since the tracker
    /// was created, for the first). Host-time noise: excluded from
    /// equality, like every nanosecond field in the wallclock layer.
    pub host_elapsed_ns: u64,
}

impl PartialEq for Snapshot {
    /// Equality ignores `host_elapsed_ns` (host-time noise), mirroring
    /// [`crate::wallclock::WallclockSummary`]'s count-only convention.
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
            && self.summary == other.summary
            && self.histogram_data == other.histogram_data
            && self.counter_deltas == other.counter_deltas
    }
}

impl Snapshot {
    /// Current value of a counter, or `None` if it is not registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.summary.counter(name)
    }

    /// Increase of a counter since the previous snapshot (0 when absent).
    pub fn delta(&self, name: &str) -> u64 {
        self.counter_deltas
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Host-time rate of a counter over the capture interval, per second.
    /// 0 when the interval is empty (first capture on a fast host).
    pub fn rate_per_sec(&self, name: &str) -> f64 {
        if self.host_elapsed_ns == 0 {
            return 0.0;
        }
        self.delta(name) as f64 / (self.host_elapsed_ns as f64 / 1e9)
    }
}

/// Takes successive [`Snapshot`]s of one hub and computes the deltas
/// between them. One tracker per observed hub; captures are cheap enough
/// for an epoch-boundary cadence.
#[derive(Debug)]
pub struct SnapshotTracker {
    seq: u64,
    prev_counters: Vec<(String, u64)>,
    last_capture: Instant,
}

impl Default for SnapshotTracker {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotTracker {
    /// A tracker with no history: the first capture reports every counter
    /// as its own delta.
    pub fn new() -> Self {
        SnapshotTracker {
            seq: 0,
            prev_counters: Vec::new(),
            last_capture: Instant::now(),
        }
    }

    /// Captures a snapshot of `hub`, or `None` when the hub is disabled.
    /// Read-only: nothing in the hub changes, so enabling captures never
    /// perturbs a run's recorded telemetry.
    pub fn capture(&mut self, hub: &Telemetry) -> Option<Snapshot> {
        let summary = hub.summary()?;
        let now = Instant::now();
        let host_elapsed_ns = now.duration_since(self.last_capture).as_nanos() as u64;
        self.last_capture = now;
        self.seq += 1;
        let counter_deltas: Vec<(String, u64)> = summary
            .counters
            .iter()
            .map(|(name, v)| {
                let before = self
                    .prev_counters
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|&(_, b)| b)
                    .unwrap_or(0);
                (name.clone(), v.saturating_sub(before))
            })
            .collect();
        self.prev_counters = summary.counters.clone();
        Some(Snapshot {
            seq: self.seq,
            histogram_data: hub.histogram_snapshots(),
            counter_deltas,
            summary,
            host_elapsed_ns,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::TelemetryConfig;

    #[test]
    fn capture_none_when_disabled() {
        let mut tracker = SnapshotTracker::new();
        assert!(tracker.capture(&Telemetry::disabled()).is_none());
    }

    #[test]
    fn deltas_track_counter_increases() {
        let hub = Telemetry::new(TelemetryConfig::default());
        let c = hub.counter("sim.requests");
        let mut tracker = SnapshotTracker::new();
        c.add(5);
        let s1 = tracker.capture(&hub).unwrap();
        assert_eq!(s1.seq, 1);
        assert_eq!(s1.counter("sim.requests"), Some(5));
        assert_eq!(s1.delta("sim.requests"), 5, "first capture = full value");
        c.add(3);
        let s2 = tracker.capture(&hub).unwrap();
        assert_eq!(s2.seq, 2);
        assert_eq!(s2.counter("sim.requests"), Some(8));
        assert_eq!(s2.delta("sim.requests"), 3);
        assert_eq!(s2.delta("sim.unknown"), 0);
    }

    #[test]
    fn histograms_capture_via_the_shared_helper() {
        let hub = Telemetry::new(TelemetryConfig::default());
        hub.histogram("mem.access_ps").record(100);
        hub.histogram("mem.access_ps").record(200);
        let mut tracker = SnapshotTracker::new();
        let snap = tracker.capture(&hub).unwrap();
        let (name, data) = &snap.histogram_data[0];
        assert_eq!(name, "mem.access_ps");
        assert_eq!(data.count(), 2);
        assert_eq!(snap.summary.histogram("mem.access_ps").unwrap().count, 2);
    }

    #[test]
    fn equality_ignores_host_elapsed() {
        let a = Snapshot {
            seq: 1,
            host_elapsed_ns: 10,
            ..Snapshot::default()
        };
        let b = Snapshot {
            seq: 1,
            host_elapsed_ns: 99_999,
            ..Snapshot::default()
        };
        assert_eq!(a, b, "host nanoseconds never break snapshot equality");
    }

    #[test]
    fn rates_follow_the_capture_interval() {
        let snap = Snapshot {
            counter_deltas: vec![("sim.requests".into(), 1000)],
            host_elapsed_ns: 500_000_000, // 0.5 s
            ..Snapshot::default()
        };
        assert!((snap.rate_per_sec("sim.requests") - 2000.0).abs() < 1e-9);
        let empty = Snapshot::default();
        assert_eq!(empty.rate_per_sec("sim.requests"), 0.0);
    }
}
