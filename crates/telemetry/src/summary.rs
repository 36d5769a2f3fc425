//! Condensed end-of-run telemetry, embeddable in `RunReport`.

use crate::hist::HistogramSummary;
use crate::wallclock::WallclockSummary;

/// Snapshot of all registered metrics at the end of a run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TelemetrySummary {
    /// Registered counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Registered histograms, condensed, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Events offered to the ring trace (kept + dropped).
    pub events_recorded: u64,
    /// Events the ring trace had to drop.
    pub events_dropped: u64,
    /// Epoch samples captured in the time series.
    pub epochs_recorded: u64,
    /// Completed spans offered to the span ring (kept + dropped). Per-name
    /// duration stats appear in `histograms` under `span.<name>`.
    pub spans_recorded: u64,
    /// Completed spans the span ring had to drop.
    pub spans_dropped: u64,
    /// Host-time phase profile and throughput, present when any wallclock
    /// phase was recorded. Its equality ignores nanosecond values (host
    /// noise), so summary comparisons stay deterministic.
    pub wallclock: Option<WallclockSummary>,
}

impl TelemetrySummary {
    /// Looks up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// Looks up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_name() {
        let s = TelemetrySummary {
            counters: vec![("aqua.installs".into(), 3)],
            histograms: vec![(
                "mem.access_ps".into(),
                HistogramSummary {
                    count: 2,
                    mean: 10.0,
                    p50: 10.0,
                    p95: 12.0,
                    p99: 12.0,
                    max: 12,
                },
            )],
            ..Default::default()
        };
        assert_eq!(s.counter("aqua.installs"), Some(3));
        assert_eq!(s.counter("absent"), None);
        assert_eq!(s.histogram("mem.access_ps").unwrap().max, 12);
        assert!(s.histogram("absent").is_none());
    }
}
