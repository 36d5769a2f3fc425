//! Property test: `MisraGriesTracker` answers exactly like a naive
//! `Vec`-based Space-Saving summary with the same victim rule, the row
//! that has been at the minimum count longest, through random streams
//! interleaved with epoch ends and injected resets and saturations.

use aqua_dram::{BankId, RowAddr};
use aqua_tracker::{
    AggressorTracker, MisraGriesTracker, TrackerConfig, TrackerDecision, TrackerStats,
};
use proptest::prelude::*;

const BANKS: u32 = 3;

/// A tracked row, its count and the step at which it reached that count.
#[derive(Debug, Clone, Copy)]
struct Entry {
    row: u32,
    count: u64,
    since: u64,
}

/// Space-Saving by linear search: one `Vec` of entries per bank.
struct Reference {
    threshold: u64,
    capacity: usize,
    banks: Vec<Vec<Entry>>,
    step: u64,
    stats: TrackerStats,
}

impl Reference {
    fn new(threshold: u64, capacity: usize) -> Self {
        Reference {
            threshold,
            capacity,
            banks: vec![Vec::new(); BANKS as usize],
            step: 0,
            stats: TrackerStats::default(),
        }
    }

    fn tick(&mut self) -> u64 {
        self.step += 1;
        self.step
    }

    fn on_activation(&mut self, bank: u32, row: u32) -> TrackerDecision {
        let since = self.tick();
        self.stats.activations += 1;
        let entries = &mut self.banks[bank as usize];
        let count = if let Some(e) = entries.iter_mut().find(|e| e.row == row) {
            e.count += 1;
            e.since = since;
            e.count
        } else if entries.len() < self.capacity {
            entries.push(Entry {
                row,
                count: 1,
                since,
            });
            1
        } else {
            let victim = entries
                .iter_mut()
                .min_by_key(|e| (e.count, e.since))
                .expect("a full table has entries");
            self.stats.replacements += 1;
            *victim = Entry {
                row,
                count: victim.count + 1,
                since,
            };
            victim.count
        };
        if count.is_multiple_of(self.threshold) {
            self.stats.mitigations += 1;
            TrackerDecision::trigger(count)
        } else {
            TrackerDecision::quiet(count)
        }
    }

    fn clear(&mut self) {
        self.banks.iter_mut().for_each(Vec::clear);
    }

    /// Every row to one shy of the threshold, queued by old count, then by
    /// the order in which rows reached it.
    fn saturate(&mut self) {
        let value = self.threshold.saturating_sub(1).max(1);
        for bank in 0..self.banks.len() {
            self.banks[bank].sort_by_key(|e| (e.count, e.since));
            for i in 0..self.banks[bank].len() {
                let since = self.tick();
                self.banks[bank][i].count = value;
                self.banks[bank][i].since = since;
            }
        }
    }

    fn estimate(&self, bank: u32, row: u32) -> Option<u64> {
        let entries = &self.banks[bank as usize];
        entries.iter().find(|e| e.row == row).map(|e| e.count)
    }
}

fn addr(bank: u32, row: u32) -> RowAddr {
    RowAddr {
        bank: BankId::new(bank),
        row,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Ops: 0 ends the epoch, 1 injects a reset, 2 a saturation, anything
    /// else activates `row % rows` in `bank`. Few distinct rows keep most
    /// touches on tracked rows; many make nearly every touch a replacement.
    #[test]
    fn tracker_matches_the_reference(
        capacity in 1usize..9,
        threshold in 1u64..13,
        rows in 1u32..25,
        ops in prop::collection::vec((0u32..64, 0u32..BANKS, 0u32..1000), 1..400),
    ) {
        let config = TrackerConfig::with_mitigation_threshold(threshold).entries_per_bank(capacity);
        let mut tracker = MisraGriesTracker::new(config, BANKS);
        let mut reference = Reference::new(threshold, capacity);
        for (op, bank, row) in ops {
            match op {
                0 => {
                    tracker.end_epoch();
                    reference.clear();
                    reference.stats.epochs += 1;
                }
                1 => {
                    prop_assert!(tracker.inject_reset());
                    reference.clear();
                }
                2 => {
                    prop_assert!(tracker.inject_saturate());
                    reference.saturate();
                }
                _ => {
                    let row = row % rows;
                    prop_assert_eq!(
                        tracker.on_activation(addr(bank, row)),
                        reference.on_activation(bank, row)
                    );
                }
            }
            prop_assert_eq!(tracker.stats(), reference.stats);
            for bank in 0..BANKS {
                for row in 0..rows {
                    prop_assert_eq!(tracker.estimate(addr(bank, row)), reference.estimate(bank, row));
                }
            }
        }
    }
}
