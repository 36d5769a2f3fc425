//! Per-epoch time-series recording.

/// One sample of simulator state, taken at an epoch boundary.
///
/// Fixed fields cover what every mitigation scheme reports; scheme-specific
/// values (RQA occupancy, FPT-cache hit rate, RIT fill, ...) ride in
/// `gauges` as name/value pairs supplied by the mitigation itself.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochRecord {
    /// Zero-based epoch index.
    pub epoch: u64,
    /// Simulator time at the epoch boundary, picoseconds.
    pub end_ps: u64,
    /// Requests completed during this epoch.
    pub requests_done: u64,
    /// Row migrations performed during this epoch.
    pub migrations: u64,
    /// Mitigation triggers (tracker hits) during this epoch.
    pub mitigations_triggered: u64,
    /// Victim-row refreshes issued during this epoch.
    pub victim_refreshes: u64,
    /// Requests throttled during this epoch.
    pub throttled: u64,
    /// Fraction of the epoch the channel spent moving demand data.
    pub data_busy_frac: f64,
    /// Fraction of the epoch the channel spent on migrations.
    pub migration_busy_frac: f64,
    /// Fraction of the epoch the channel spent on table accesses.
    pub table_busy_frac: f64,
    /// Scheme-specific gauges (e.g. `rqa_occupancy`, `fpt_cache_hit_rate`).
    pub gauges: Vec<(String, f64)>,
}

/// An append-only series of [`EpochRecord`]s.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EpochSeries {
    records: Vec<EpochRecord>,
}

impl EpochSeries {
    /// An empty series.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one epoch sample.
    pub fn push(&mut self, record: EpochRecord) {
        self.records.push(record);
    }

    /// Number of recorded epochs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no epochs were recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The recorded epochs, oldest first.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// Appends all of `other`'s records after this series' own, preserving
    /// `other`'s internal order (used when per-job series from a parallel
    /// run are stitched together in deterministic job order).
    pub fn merge_from(&mut self, other: &EpochSeries) {
        self.records.extend(other.records.iter().cloned());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_appends_in_order() {
        let rec = |epoch| EpochRecord {
            epoch,
            ..Default::default()
        };
        let mut a = EpochSeries::new();
        a.push(rec(0));
        let mut b = EpochSeries::new();
        b.push(rec(1));
        b.push(rec(2));
        a.merge_from(&b);
        let epochs: Vec<u64> = a.records().iter().map(|r| r.epoch).collect();
        assert_eq!(epochs, vec![0, 1, 2]);
        assert_eq!(a.len(), 3);
    }
}
