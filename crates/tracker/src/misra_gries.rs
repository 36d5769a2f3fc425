//! Per-bank Misra-Gries / Space-Saving aggressor tracker (Graphene-style).

use crate::{AggressorTracker, TrackerConfig, TrackerDecision, TrackerStats};
use aqua_dram::RowAddr;
use aqua_fastmap::FxHashMap;

/// The end of a list: no slot or bucket.
const NIL: u32 = u32::MAX;

/// A tracked row and its place in its bucket's list.
#[derive(Debug, Clone, Copy)]
struct Slot {
    row: u32,
    bucket: u32,
    prev: u32,
    next: u32,
}

/// The rows that share one count, in the order they reached it, linked to
/// the buckets with the next lower (`down`) and higher (`up`) counts.
#[derive(Debug, Clone, Copy)]
struct Bucket {
    count: u64,
    head: u32,
    tail: u32,
    down: u32,
    up: u32,
}

/// One bank's Space-Saving summary, kept as Metwally et al.'s
/// stream-summary: a slot per tracked row, in a list per distinct count,
/// with the lists linked in count order.
///
/// An increment moves one slot to the tail of the count + 1 bucket, and a
/// full table evicts the head of the minimum bucket, so both are O(1). The
/// victim is therefore *the row that has been at the minimum count
/// longest*. The arenas grow on first use and [`BankSummary::clear`] keeps
/// their capacity, so a bank that has reached its working size allocates
/// nothing more.
#[derive(Debug)]
struct BankSummary {
    /// Row to slot.
    index: FxHashMap<u32, u32>,
    slots: Vec<Slot>,
    buckets: Vec<Bucket>,
    /// The lowest-count bucket, or `NIL` when nothing is tracked.
    min: u32,
    /// Freed buckets, linked through `up`.
    free: u32,
    replacements: u64,
}

impl BankSummary {
    fn new() -> Self {
        BankSummary {
            index: FxHashMap::default(),
            slots: Vec::new(),
            buckets: Vec::new(),
            min: NIL,
            free: NIL,
            replacements: 0,
        }
    }

    fn estimate(&self, row: u32) -> Option<u64> {
        let slot = *self.index.get(&row)?;
        Some(self.buckets[self.slots[slot as usize].bucket as usize].count)
    }

    /// Records one activation; returns the row's new estimated count.
    fn touch(&mut self, row: u32, capacity: usize) -> u64 {
        if let Some(&slot) = self.index.get(&row) {
            return self.increment(slot);
        }
        if self.slots.len() < capacity {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                row,
                bucket: NIL,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(row, slot);
            let ones = match self.min {
                min if min != NIL && self.buckets[min as usize].count == 1 => min,
                min => self.new_bucket(1, NIL, min),
            };
            self.append(ones, slot);
            return 1;
        }
        // Table full: the newcomer takes the victim's slot and inherits
        // min + 1, the overestimate that causes the paper's spurious
        // mitigations (section IV-F).
        let slot = self.buckets[self.min as usize].head;
        let victim = std::mem::replace(&mut self.slots[slot as usize].row, row);
        self.index.remove(&victim);
        self.index.insert(row, slot);
        self.replacements += 1;
        self.increment(slot)
    }

    /// Moves `slot` to the tail of the next count's bucket; returns that
    /// count.
    fn increment(&mut self, slot: u32) -> u64 {
        let from = self.slots[slot as usize].bucket;
        let Bucket {
            count,
            head,
            tail,
            up,
            ..
        } = self.buckets[from as usize];
        let count = count + 1;
        let to = if up != NIL && self.buckets[up as usize].count == count {
            up
        } else if head == tail {
            // The row is alone at its count, so its bucket moves up with it.
            self.buckets[from as usize].count = count;
            return count;
        } else {
            self.new_bucket(count, from, up)
        };
        self.unlink(slot);
        self.append(to, slot);
        count
    }

    /// A bucket for `count`, linked between `down` and `up`.
    fn new_bucket(&mut self, count: u64, down: u32, up: u32) -> u32 {
        let bucket = Bucket {
            count,
            head: NIL,
            tail: NIL,
            down,
            up,
        };
        let b = if self.free == NIL {
            self.buckets.push(bucket);
            self.buckets.len() as u32 - 1
        } else {
            let b = self.free;
            self.free = self.buckets[b as usize].up;
            self.buckets[b as usize] = bucket;
            b
        };
        match down {
            NIL => self.min = b,
            down => self.buckets[down as usize].up = b,
        }
        if up != NIL {
            self.buckets[up as usize].down = b;
        }
        b
    }

    fn append(&mut self, bucket: u32, slot: u32) {
        let tail = self.buckets[bucket as usize].tail;
        self.slots[slot as usize] = Slot {
            bucket,
            prev: tail,
            next: NIL,
            ..self.slots[slot as usize]
        };
        match tail {
            NIL => self.buckets[bucket as usize].head = slot,
            tail => self.slots[tail as usize].next = slot,
        }
        self.buckets[bucket as usize].tail = slot;
    }

    /// Takes `slot` out of its bucket, freeing the bucket if it empties.
    fn unlink(&mut self, slot: u32) {
        let Slot {
            bucket, prev, next, ..
        } = self.slots[slot as usize];
        match prev {
            NIL => self.buckets[bucket as usize].head = next,
            prev => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.buckets[bucket as usize].tail = prev,
            next => self.slots[next as usize].prev = prev,
        }
        if self.buckets[bucket as usize].head != NIL {
            return;
        }
        let Bucket { down, up, .. } = self.buckets[bucket as usize];
        match down {
            NIL => self.min = up,
            down => self.buckets[down as usize].up = up,
        }
        if up != NIL {
            self.buckets[up as usize].down = down;
        }
        self.buckets[bucket as usize].up = self.free;
        self.free = bucket;
    }

    fn clear(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.buckets.clear();
        self.min = NIL;
        self.free = NIL;
    }

    /// Injected fault: pegs every tracked row's count to `value`. The rows
    /// end in one bucket, in ascending-count and then FIFO order.
    fn saturate_to(&mut self, value: u64) {
        if self.min == NIL {
            return;
        }
        let Bucket {
            head,
            mut tail,
            mut up,
            ..
        } = self.buckets[self.min as usize];
        while up != NIL {
            let next = self.buckets[up as usize];
            self.slots[tail as usize].next = next.head;
            self.slots[next.head as usize].prev = tail;
            tail = next.tail;
            up = next.up;
        }
        self.buckets.clear();
        self.free = NIL;
        let all = self.new_bucket(value, NIL, NIL);
        let bucket = &mut self.buckets[all as usize];
        (bucket.head, bucket.tail) = (head, tail);
        for slot in &mut self.slots {
            slot.bucket = all;
        }
    }
}

/// Graphene-style per-bank Misra-Gries (Space-Saving) tracker.
///
/// Guarantee: with `entries_per_bank >= ACTmax / A`, any row that receives `A`
/// activations within an epoch is flagged at or before its `A`-th activation
/// (the summary may *overestimate* counts, never underestimate by more than
/// the minimum count, which the sizing keeps below `A`).
///
/// # Example
///
/// ```
/// use aqua_dram::{BankId, RowAddr};
/// use aqua_tracker::{AggressorTracker, MisraGriesTracker, TrackerConfig};
///
/// let mut t = MisraGriesTracker::new(TrackerConfig::with_mitigation_threshold(10), 4);
/// let row = RowAddr { bank: BankId::new(1), row: 3 };
/// let fired: u32 = (0..25).map(|_| t.on_activation(row).mitigate() as u32).sum();
/// assert_eq!(fired, 2); // at counts 10 and 20
/// ```
#[derive(Debug)]
pub struct MisraGriesTracker {
    config: TrackerConfig,
    banks: Vec<BankSummary>,
    stats: TrackerStats,
}

impl MisraGriesTracker {
    /// Creates a tracker with one summary per bank.
    pub fn new(config: TrackerConfig, banks: u32) -> Self {
        MisraGriesTracker {
            config,
            banks: (0..banks).map(|_| BankSummary::new()).collect(),
            stats: TrackerStats::default(),
        }
    }

    /// The configured mitigation threshold `A`.
    pub fn mitigation_threshold(&self) -> u64 {
        self.config.mitigation_threshold
    }

    /// Current estimated count for `row`, if tracked.
    pub fn estimate(&self, row: RowAddr) -> Option<u64> {
        self.banks
            .get(row.bank.index() as usize)
            .and_then(|b| b.estimate(row.row))
    }
}

impl AggressorTracker for MisraGriesTracker {
    fn on_activation(&mut self, row: RowAddr) -> TrackerDecision {
        self.stats.activations += 1;
        let bank = self
            .banks
            .get_mut(row.bank.index() as usize)
            .expect("bank index within configured bank count");
        let before_replacements = bank.replacements;
        let count = bank.touch(row.row, self.config.entries_per_bank);
        self.stats.replacements += bank.replacements - before_replacements;
        if count >= self.config.mitigation_threshold
            && count.is_multiple_of(self.config.mitigation_threshold)
        {
            self.stats.mitigations += 1;
            TrackerDecision::trigger(count)
        } else {
            TrackerDecision::quiet(count)
        }
    }

    fn end_epoch(&mut self) {
        for bank in &mut self.banks {
            bank.clear();
        }
        self.stats.epochs += 1;
    }

    fn stats(&self) -> TrackerStats {
        self.stats
    }

    fn sram_bits(&self) -> u64 {
        // Per entry: 17-bit row address (128K rows/bank), 21-bit counter
        // (counts up to ACTmax), valid bit. CAM/comparator overhead excluded.
        let bits_per_entry = 17 + 21 + 1;
        self.banks.len() as u64 * self.config.entries_per_bank as u64 * bits_per_entry
    }

    fn inject_reset(&mut self) -> bool {
        for bank in &mut self.banks {
            bank.clear();
        }
        true
    }

    fn inject_saturate(&mut self) -> bool {
        // One shy of the threshold: the very next touch of any tracked row
        // crosses it and fires a spurious mitigation.
        let target = self.config.mitigation_threshold.saturating_sub(1).max(1);
        for bank in &mut self.banks {
            bank.saturate_to(target);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BankId;

    fn row(bank: u32, row: u32) -> RowAddr {
        RowAddr {
            bank: BankId::new(bank),
            row,
        }
    }

    fn tracker(a: u64, entries: usize) -> MisraGriesTracker {
        MisraGriesTracker::new(
            TrackerConfig::with_mitigation_threshold(a).entries_per_bank(entries),
            4,
        )
    }

    #[test]
    fn fires_at_every_multiple_of_threshold() {
        let mut t = tracker(100, 8);
        let mut fired = vec![];
        for i in 1..=350u64 {
            if t.on_activation(row(0, 1)).mitigate() {
                fired.push(i);
            }
        }
        assert_eq!(fired, vec![100, 200, 300]);
        assert_eq!(t.stats().mitigations, 3);
    }

    #[test]
    fn separate_banks_do_not_interfere() {
        let mut t = tracker(10, 8);
        for _ in 0..9 {
            assert!(!t.on_activation(row(0, 5)).mitigate());
            assert!(!t.on_activation(row(1, 5)).mitigate());
        }
        assert!(t.on_activation(row(0, 5)).mitigate());
        assert!(t.on_activation(row(1, 5)).mitigate());
    }

    #[test]
    fn replacement_inherits_min_count() {
        let mut t = tracker(100, 2);
        // Fill the 2-entry bank summary.
        for _ in 0..5 {
            t.on_activation(row(0, 1));
        }
        for _ in 0..3 {
            t.on_activation(row(0, 2));
        }
        // New row evicts the min (count 3) and starts at 4.
        let d = t.on_activation(row(0, 3));
        assert_eq!(d.estimate(), 4);
        assert_eq!(t.estimate(row(0, 2)), None);
        assert_eq!(t.stats().replacements, 1);
    }

    #[test]
    fn victim_is_the_row_longest_at_the_minimum_count() {
        let mut t = tracker(100, 3);
        // Rows 1, 2 and 3 enter in that order but reach count 2 in the
        // order 2, 3, 1.
        for r in [1, 2, 3, 2, 3, 1] {
            t.on_activation(row(0, r));
        }
        // Each newcomer evicts the row that reached the minimum count
        // first and queues behind the rows already at min + 1.
        for (newcomer, victim, min) in [(4, 2, 2), (5, 3, 2), (6, 1, 2), (7, 4, 3), (8, 5, 3)] {
            assert_eq!(t.estimate(row(0, victim)), Some(min));
            assert_eq!(t.on_activation(row(0, newcomer)).estimate(), min + 1);
            assert_eq!(
                t.estimate(row(0, victim)),
                None,
                "{newcomer} evicts {victim}"
            );
        }
        assert_eq!(t.stats().replacements, 5);
    }

    #[test]
    fn saturation_keeps_count_then_arrival_order() {
        let mut t = tracker(10, 3);
        // Counts 3, 1 and 2 for rows 1, 2 and 3.
        for r in [1, 1, 1, 2, 3, 3] {
            t.on_activation(row(0, r));
        }
        assert!(t.inject_saturate());
        // All three sit at 9 now, ordered by their old counts: 2, 3, 1.
        for (newcomer, victim) in [(4, 2), (5, 3), (6, 1)] {
            assert_eq!(t.on_activation(row(0, newcomer)).estimate(), 10);
            assert_eq!(t.estimate(row(0, victim)), None, "row {newcomer}");
        }
    }

    #[test]
    fn spurious_mitigation_from_spill() {
        // Paper IV-F: a fresh row can inherit a near-threshold count and
        // trigger a mitigation it never earned.
        let mut t = tracker(10, 1);
        for _ in 0..9 {
            t.on_activation(row(0, 1));
        }
        // Row 2 replaces row 1, inheriting count 9 + 1 = 10 -> fires.
        let d = t.on_activation(row(0, 2));
        assert!(d.mitigate());
        assert_eq!(d.estimate(), 10);
    }

    #[test]
    fn never_undercounts() {
        // Estimated count >= true count for every tracked row, always.
        let mut t = tracker(50, 4);
        let mut truth: std::collections::HashMap<u32, u64> = Default::default();
        let pattern = [1u32, 2, 1, 3, 4, 5, 1, 2, 6, 1, 7, 1, 1, 2, 3];
        for &r in pattern.iter().cycle().take(600) {
            *truth.entry(r).or_default() += 1;
            t.on_activation(row(0, r));
            if let Some(est) = t.estimate(row(0, r)) {
                assert!(est >= truth[&r], "row {r}: est {est} < true {}", truth[&r]);
            }
        }
    }

    #[test]
    fn epoch_reset_clears_counts() {
        let mut t = tracker(10, 4);
        for _ in 0..9 {
            t.on_activation(row(0, 1));
        }
        t.end_epoch();
        assert_eq!(t.estimate(row(0, 1)), None);
        // After reset, 9 more activations do not fire (would have at 10).
        for _ in 0..9 {
            assert!(!t.on_activation(row(0, 1)).mitigate());
        }
        assert_eq!(t.stats().epochs, 1);
    }

    #[test]
    fn guarantee_with_graphene_sizing() {
        // With entries >= ACTs/threshold, a hot row among background noise is
        // always flagged by its A-th activation.
        let a = 20;
        let total_acts = 400;
        let entries = (total_acts / a) as usize; // Graphene sizing
        let mut t = tracker(a, entries);
        let mut hot_acts = 0;
        let mut flagged = false;
        for i in 0..total_acts {
            if i % 2 == 0 {
                hot_acts += 1;
                if t.on_activation(row(0, 9999)).mitigate() {
                    flagged = true;
                    break;
                }
            } else {
                t.on_activation(row(0, i as u32)); // unique cold rows
            }
        }
        assert!(flagged, "hot row not flagged");
        assert!(hot_acts <= a, "flagged only after {hot_acts} > {a} ACTs");
    }

    #[test]
    fn injected_reset_blinds_the_tracker() {
        let mut t = tracker(10, 4);
        for _ in 0..9 {
            t.on_activation(row(0, 1));
        }
        assert!(t.inject_reset());
        assert_eq!(t.estimate(row(0, 1)), None);
        // Counters restart from scratch: 9 more touches stay quiet.
        for _ in 0..9 {
            assert!(!t.on_activation(row(0, 1)).mitigate());
        }
        // A mid-epoch reset is not an epoch boundary.
        assert_eq!(t.stats().epochs, 0);
    }

    #[test]
    fn injected_saturation_fires_on_next_touch() {
        let mut t = tracker(100, 8);
        t.on_activation(row(0, 1));
        t.on_activation(row(1, 2));
        assert!(t.inject_saturate());
        assert_eq!(t.estimate(row(0, 1)), Some(99));
        assert!(t.on_activation(row(0, 1)).mitigate());
        assert!(t.on_activation(row(1, 2)).mitigate());
        // Untracked rows are unaffected.
        assert!(!t.on_activation(row(0, 3)).mitigate());
    }

    #[test]
    fn sram_bits_scale_with_entries() {
        let small = tracker(100, 10).sram_bits();
        let large = tracker(100, 100).sram_bits();
        assert_eq!(large, small * 10);
    }
}
