//! Resettable bloom filter over FPT groups (section V-B).
//!
//! The filter holds a single bit per *group* of rows whose FPT entries share
//! one half of a 64-byte FPT cache line (16 rows per group for the baseline).
//! A clear bit proves none of the group's rows are quarantined, eliminating
//! the in-DRAM FPT lookup for ~92% of accesses. Unlike a classic bloom
//! filter, entries can be removed: the hardware clears the bit when an FPT
//! invalidation finds all other entries of the group invalid (it just read
//! that FPT line anyway). This model tracks a per-bit count of valid entries
//! to implement exactly that semantics in O(1); only the one bit per entry is
//! SRAM (a counting bloom filter would cost ~6x more, which the paper
//! explicitly avoids).

use serde::{Deserialize, Serialize};

/// Statistics for bloom-filter behaviour.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BloomStats {
    /// Queries answered "definitely not quarantined" (bit clear).
    pub clear_hits: u64,
    /// Queries answered "possibly quarantined" (bit set).
    pub set_hits: u64,
    /// Removes that found a zero count (insert/remove mismatch — only ever
    /// non-zero after injected filter faults).
    pub underflows: u64,
}

/// Single-bit-per-entry resettable bloom filter.
///
/// # Example
///
/// ```
/// use aqua::ResettableBloomFilter;
///
/// let mut bf = ResettableBloomFilter::new(1024, 16);
/// assert!(!bf.maybe_quarantined(5));
/// bf.insert(5);
/// assert!(bf.maybe_quarantined(5));
/// bf.remove(5);
/// assert!(!bf.maybe_quarantined(5)); // resettable, unlike a classic bloom
/// ```
#[derive(Debug, Clone)]
pub struct ResettableBloomFilter {
    /// Valid-entry count per filter bit (bit value = `count > 0`).
    counts: Vec<u32>,
    rows_per_group: u32,
    stats: BloomStats,
}

impl ResettableBloomFilter {
    /// Creates a filter with `bits` entries for groups of `rows_per_group`
    /// rows. When `bits` is smaller than the number of groups, multiple
    /// groups alias onto one bit (extra false positives, never false
    /// negatives) — this is how the 8 KB/32 KB sensitivity points work.
    ///
    /// # Panics
    ///
    /// Panics if `bits` or `rows_per_group` is zero.
    pub fn new(bits: usize, rows_per_group: u32) -> Self {
        assert!(bits > 0 && rows_per_group > 0);
        ResettableBloomFilter {
            counts: vec![0; bits],
            rows_per_group,
            stats: BloomStats::default(),
        }
    }

    /// Number of filter bits.
    pub fn bits(&self) -> usize {
        self.counts.len()
    }

    /// Rows per FPT group.
    pub fn rows_per_group(&self) -> u32 {
        self.rows_per_group
    }

    /// The group a row belongs to.
    pub fn group_of(&self, row: u64) -> u64 {
        row / self.rows_per_group as u64
    }

    /// The filter bit a group hashes to.
    pub fn bit_of(&self, group: u64) -> usize {
        (group % self.counts.len() as u64) as usize
    }

    /// Queries the filter: `false` means *definitely not quarantined*.
    pub fn maybe_quarantined(&mut self, group: u64) -> bool {
        let set = self.counts[self.bit_of(group)] > 0;
        if set {
            self.stats.set_hits += 1;
        } else {
            self.stats.clear_hits += 1;
        }
        set
    }

    /// Non-recording query (for assertions and diagnostics).
    pub fn peek(&self, group: u64) -> bool {
        self.counts[self.bit_of(group)] > 0
    }

    /// Records that a row of `group` gained a valid FPT entry.
    pub fn insert(&mut self, group: u64) {
        let bit = self.bit_of(group);
        self.counts[bit] += 1;
    }

    /// Records that a row of `group` lost its FPT entry; the bit resets when
    /// the last entry of all aliasing groups goes away.
    ///
    /// A remove that finds a zero count saturates (and bumps
    /// `BloomStats::underflows`) instead of panicking: injected filter
    /// faults can legitimately zero a count while entries still exist, and
    /// the end-of-epoch audit rebuilds the counts from the FPT afterwards.
    pub fn remove(&mut self, group: u64) {
        let bit = self.bit_of(group);
        if self.counts[bit] == 0 {
            self.stats.underflows += 1;
            return;
        }
        self.counts[bit] -= 1;
    }

    /// Injected fault: zeroes the first non-zero count scanning circularly
    /// from `entropy % bits`, creating false negatives for every aliasing
    /// group. Returns the cleared bit, or `None` if the filter is empty.
    pub fn fault_clear_bit(&mut self, entropy: u64) -> Option<usize> {
        let bits = self.counts.len();
        let start = (entropy % bits as u64) as usize;
        let bit = (0..bits)
            .map(|i| (start + i) % bits)
            .find(|&b| self.counts[b] > 0)?;
        self.counts[bit] = 0;
        Some(bit)
    }

    /// Rebuilds the count table from an iterator of `(group, valid_entries)`
    /// pairs (the audit's view of the FPT). Returns whether any count
    /// changed. Summation is order-independent, so callers may feed hash-map
    /// iteration order without hurting determinism.
    pub fn rebuild<I: IntoIterator<Item = (u64, u32)>>(&mut self, groups: I) -> bool {
        let mut counts = vec![0u32; self.counts.len()];
        for (group, valid) in groups {
            counts[self.bit_of(group)] += valid;
        }
        let changed = counts != self.counts;
        self.counts = counts;
        changed
    }

    /// Fraction of bits currently set.
    pub fn fill_fraction(&self) -> f64 {
        let set = self.counts.iter().filter(|&&c| c > 0).count();
        set as f64 / self.counts.len() as f64
    }

    /// Query statistics so far.
    pub fn stats(&self) -> BloomStats {
        self.stats
    }

    /// SRAM bits: one bit per entry.
    pub fn sram_bits(&self) -> u64 {
        self.counts.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_false_negatives() {
        let mut bf = ResettableBloomFilter::new(64, 16);
        for g in [3u64, 70, 134] {
            bf.insert(g);
        }
        for g in [3u64, 70, 134] {
            assert!(bf.maybe_quarantined(g));
        }
    }

    #[test]
    fn aliasing_gives_false_positives_only() {
        let mut bf = ResettableBloomFilter::new(64, 16);
        bf.insert(3);
        // Group 67 aliases group 3 in a 64-bit filter.
        assert!(bf.maybe_quarantined(67));
        // A non-aliasing group stays clear.
        assert!(!bf.maybe_quarantined(4));
    }

    #[test]
    fn reset_when_last_entry_leaves() {
        let mut bf = ResettableBloomFilter::new(64, 16);
        bf.insert(5);
        bf.insert(5); // two quarantined rows in the group
        bf.remove(5);
        assert!(bf.peek(5), "bit must stay set while one entry remains");
        bf.remove(5);
        assert!(!bf.peek(5), "bit must reset when the group empties");
    }

    #[test]
    fn unbalanced_remove_saturates() {
        let mut bf = ResettableBloomFilter::new(64, 16);
        bf.remove(1);
        assert_eq!(bf.stats().underflows, 1);
        assert!(!bf.peek(1));
    }

    #[test]
    fn fault_clear_and_rebuild() {
        let mut bf = ResettableBloomFilter::new(64, 16);
        bf.insert(3);
        bf.insert(3);
        bf.insert(10);
        // Scan starts at bit 5, wraps, and lands on bit 10.
        assert_eq!(bf.fault_clear_bit(5), Some(10));
        assert!(!bf.peek(10), "cleared bit must read as a false negative");
        assert!(bf.peek(3));
        // Audit rebuild restores the counts from the (group, valid) view.
        assert!(bf.rebuild([(3u64, 2u32), (10, 1)]));
        assert!(bf.peek(10));
        bf.remove(3);
        assert!(bf.peek(3), "one of two entries remains");
        // Empty filter has nothing to clear.
        let mut empty = ResettableBloomFilter::new(8, 16);
        assert_eq!(empty.fault_clear_bit(0), None);
    }

    #[test]
    fn stats_track_query_outcomes() {
        let mut bf = ResettableBloomFilter::new(64, 16);
        bf.insert(1);
        bf.maybe_quarantined(1);
        bf.maybe_quarantined(2);
        let s = bf.stats();
        assert_eq!(s.set_hits, 1);
        assert_eq!(s.clear_hits, 1);
    }

    #[test]
    fn paper_sizing_is_16kb() {
        let bf = ResettableBloomFilter::new(128 * 1024, 16);
        assert_eq!(bf.sram_bits() / 8 / 1024, 16);
    }

    #[test]
    fn fill_fraction() {
        let mut bf = ResettableBloomFilter::new(4, 16);
        assert_eq!(bf.fill_fraction(), 0.0);
        bf.insert(0);
        bf.insert(1);
        assert_eq!(bf.fill_fraction(), 0.5);
    }
}
