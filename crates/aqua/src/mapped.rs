//! Memory-mapped FPT/RPT design (section V).
//!
//! To cut the 172 KB SRAM cost of the section-IV tables, AQUA can store a
//! *flat* FPT (one 2-byte entry per memory row, 4 MB of DRAM) and the RPT in
//! DRAM, keeping only three small SRAM structures on chip:
//!
//! 1. a [`ResettableBloomFilter`] (16 KB) that proves most rows are not
//!    quarantined without any table access,
//! 2. an [`FptCache`] (16 KB) holding entries of currently quarantined rows,
//! 3. pinned SRAM entries for the rows that *store* the tables themselves
//!    (so a table lookup never recurses, and PTHammer-style attacks on the
//!    tables are mitigated like any other row — section VI-B).
//!
//! Each lookup is classified into the four categories of Figure 10:
//! bloom-clear, FPT-Cache hit, singleton skip, or a real DRAM access.

use crate::{FptCache, ResettableBloomFilter, RqaSlot};
use aqua_dram::GlobalRowId;
use aqua_fastmap::FxHashMap;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How a memory-mapped FPT lookup was resolved (Figure 10 categories).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum LookupOutcome {
    /// Bloom-filter bit clear: definitely not quarantined (avg 92.2%).
    BloomClear,
    /// Hit in the FPT-Cache (avg 7.3%).
    CacheHit,
    /// Miss, but a singleton-group entry proved non-quarantine (avg 0.4%).
    SingletonSkip,
    /// Had to read the FPT entry from DRAM (avg < 0.1%).
    DramAccess,
}

aqua_telemetry::stat_struct! {
    /// Counters per lookup outcome.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct LookupBreakdown {
        /// Lookups resolved by a clear bloom bit.
        pub bloom_clear: u64,
        /// Lookups resolved by an FPT-Cache hit.
        pub cache_hit: u64,
        /// Lookups resolved by the singleton optimization.
        pub singleton_skip: u64,
        /// Lookups requiring a DRAM FPT read.
        pub dram_access: u64,
    }
}

impl LookupBreakdown {
    /// Total lookups recorded.
    pub fn total(&self) -> u64 {
        self.bloom_clear + self.cache_hit + self.singleton_skip + self.dram_access
    }

    /// Fractions in Figure 10 order (bloom, cache, singleton, dram).
    pub fn fractions(&self) -> [f64; 4] {
        let t = self.total().max(1) as f64;
        [
            self.bloom_clear as f64 / t,
            self.cache_hit as f64 / t,
            self.singleton_skip as f64 / t,
            self.dram_access as f64 / t,
        ]
    }

    fn record(&mut self, outcome: LookupOutcome) {
        match outcome {
            LookupOutcome::BloomClear => self.bloom_clear += 1,
            LookupOutcome::CacheHit => self.cache_hit += 1,
            LookupOutcome::SingletonSkip => self.singleton_skip += 1,
            LookupOutcome::DramAccess => self.dram_access += 1,
        }
    }
}

/// Result of one memory-mapped lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MappedLookup {
    /// The quarantine slot, if the row is quarantined.
    pub slot: Option<RqaSlot>,
    /// Which path resolved the lookup.
    pub outcome: LookupOutcome,
    /// In-DRAM table reads performed (0 or 1).
    pub dram_reads: u32,
}

/// The memory-mapped FPT with its SRAM filter/cache hierarchy.
#[derive(Debug, Clone)]
pub struct MappedTables {
    /// Model of the flat in-DRAM FPT (one entry per memory row).
    fpt: FxHashMap<u64, RqaSlot>,
    /// Valid FPT entries per group (drives bloom reset + singleton bits).
    group_valid: FxHashMap<u64, u32>,
    bloom: ResettableBloomFilter,
    cache: FptCache,
    /// Pinned SRAM entries for table-storing rows (anti-recursion).
    pinned: FxHashMap<u64, Option<RqaSlot>>,
    /// Inverted index: bloom bit → mapped FPT rows hashing to it, kept in
    /// sync by [`map`](Self::map) / [`unmap`](Self::unmap). Lets
    /// [`fault_clear_filter`](Self::fault_clear_filter) report the rows a
    /// cleared bit affects in O(affected) instead of scanning the whole FPT;
    /// `BTreeSet` keeps each bit's rows sorted for free.
    bit_rows: FxHashMap<usize, BTreeSet<u64>>,
    breakdown: LookupBreakdown,
    dram_writes: u64,
}

impl MappedTables {
    /// Creates the structure with `bloom_bits` filter bits and
    /// `cache_entries` FPT-Cache entries, grouping `rows_per_group` rows per
    /// FPT line half (16 for the baseline).
    pub fn new(bloom_bits: usize, cache_entries: usize, rows_per_group: u32) -> Self {
        MappedTables {
            fpt: FxHashMap::default(),
            group_valid: FxHashMap::default(),
            bloom: ResettableBloomFilter::new(bloom_bits, rows_per_group),
            cache: FptCache::new(cache_entries),
            pinned: FxHashMap::default(),
            bit_rows: FxHashMap::default(),
            breakdown: LookupBreakdown::default(),
            dram_writes: 0,
        }
    }

    /// Declares `row` a table-storing row whose FPT entry is pinned in SRAM.
    pub fn pin(&mut self, row: GlobalRowId) {
        self.pinned.entry(row.index()).or_insert(None);
    }

    /// Number of pinned entries.
    pub fn pinned_count(&self) -> usize {
        self.pinned.len()
    }

    /// Figure 10 lookup breakdown.
    pub fn breakdown(&self) -> LookupBreakdown {
        self.breakdown
    }

    /// In-DRAM table writes performed so far.
    pub fn dram_writes(&self) -> u64 {
        self.dram_writes
    }

    /// Access to the bloom filter (diagnostics).
    pub fn bloom(&self) -> &ResettableBloomFilter {
        &self.bloom
    }

    /// Number of quarantined rows tracked.
    pub fn len(&self) -> usize {
        self.fpt.len() + self.pinned.values().filter(|v| v.is_some()).count()
    }

    /// Whether no rows are quarantined.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Looks up `row` through the bloom → cache → singleton → DRAM path.
    pub fn lookup(&mut self, row: GlobalRowId) -> MappedLookup {
        // Pinned (table-storing) rows resolve entirely in SRAM and are not
        // part of the Figure 10 breakdown.
        if let Some(slot) = self.pinned.get(&row.index()) {
            return MappedLookup {
                slot: *slot,
                outcome: LookupOutcome::CacheHit,
                dram_reads: 0,
            };
        }
        let group = self.bloom.group_of(row.index());
        if !self.bloom.maybe_quarantined(group) {
            self.breakdown.record(LookupOutcome::BloomClear);
            return MappedLookup {
                slot: None,
                outcome: LookupOutcome::BloomClear,
                dram_reads: 0,
            };
        }
        match self.cache.lookup(row.index(), group) {
            crate::CacheLookup::Hit(slot) => {
                self.breakdown.record(LookupOutcome::CacheHit);
                MappedLookup {
                    slot: Some(slot),
                    outcome: LookupOutcome::CacheHit,
                    dram_reads: 0,
                }
            }
            crate::CacheLookup::SingletonMiss => {
                self.breakdown.record(LookupOutcome::SingletonSkip);
                MappedLookup {
                    slot: None,
                    outcome: LookupOutcome::SingletonSkip,
                    dram_reads: 0,
                }
            }
            crate::CacheLookup::Miss => {
                self.breakdown.record(LookupOutcome::DramAccess);
                let slot = self.fpt.get(&row.index()).copied();
                // The DRAM read fetched the whole 64-byte FPT line; cache
                // every valid entry of the group it contains (still only
                // quarantined rows — the anti-thrashing rule of V-C). After
                // one fetch, the group's other rows resolve via the cache or
                // the singleton bit without further DRAM traffic.
                let singleton = self.group_valid.get(&group).copied() == Some(1);
                let first = group * self.bloom.rows_per_group() as u64;
                for member in first..first + self.bloom.rows_per_group() as u64 {
                    if let Some(&s) = self.fpt.get(&member) {
                        self.cache.insert(member, group, s, singleton);
                    }
                }
                MappedLookup {
                    slot,
                    outcome: LookupOutcome::DramAccess,
                    dram_reads: 1,
                }
            }
        }
    }

    /// Records that `row` is now quarantined at `slot`. Returns the number of
    /// in-DRAM table writes this required (FPT entry + RPT entry).
    pub fn map(&mut self, row: GlobalRowId, slot: RqaSlot) -> u32 {
        if let Some(p) = self.pinned.get_mut(&row.index()) {
            *p = Some(slot);
            return 0; // pinned entries live in SRAM
        }
        let group = self.bloom.group_of(row.index());
        let was_mapped = self.fpt.insert(row.index(), slot).is_some();
        if !was_mapped {
            let count = self.group_valid.entry(group).or_insert(0);
            *count += 1;
            self.bloom.insert(group);
            if *count == 2 {
                self.cache.set_group_singleton(group, false);
            }
            self.bit_rows
                .entry(self.bloom.bit_of(group))
                .or_default()
                .insert(row.index());
        }
        let singleton = self.group_valid.get(&group).copied() == Some(1);
        self.cache.insert(row.index(), group, slot, singleton);
        self.dram_writes += 2;
        2
    }

    /// Removes the quarantine mapping for `row`. Returns `(slot, writes)`.
    pub fn unmap(&mut self, row: GlobalRowId) -> (Option<RqaSlot>, u32) {
        if let Some(p) = self.pinned.get_mut(&row.index()) {
            return (p.take(), 0);
        }
        let group = self.bloom.group_of(row.index());
        let slot = self.fpt.remove(&row.index());
        if slot.is_some() {
            self.cache.invalidate(row.index(), group);
            // A missing or zero group count means the count bookkeeping was
            // corrupted (only possible under injected faults); saturate
            // instead of panicking and let the epoch audit rebuild it.
            match self.group_valid.get_mut(&group) {
                Some(count) if *count > 1 => {
                    *count -= 1;
                    if *count == 1 {
                        self.cache.set_group_singleton(group, true);
                    }
                }
                Some(_) | None => {
                    self.group_valid.remove(&group);
                }
            }
            self.bloom.remove(group);
            let bit = self.bloom.bit_of(group);
            if let Some(rows) = self.bit_rows.get_mut(&bit) {
                rows.remove(&row.index());
                if rows.is_empty() {
                    self.bit_rows.remove(&bit);
                }
            }
            self.dram_writes += 2;
            (slot, 2)
        } else {
            (None, 0)
        }
    }

    /// Non-mutating translation check: the slot `row` maps to, bypassing the
    /// filter and cache (the audit's ground-truth view of the in-DRAM FPT).
    pub fn peek(&self, row: GlobalRowId) -> Option<RqaSlot> {
        if let Some(p) = self.pinned.get(&row.index()) {
            return *p;
        }
        self.fpt.get(&row.index()).copied()
    }

    /// Injected fault: rewrites the FPT entry for `row` (which must already
    /// be mapped or pinned-mapped) to `slot`, and poisons any cached copy so
    /// the corruption is visible on the fast path too. Returns whether an
    /// entry was corrupted. Group counts are untouched — the entry stays
    /// valid, it just points at the wrong slot.
    pub fn fault_corrupt_fpt(&mut self, row: GlobalRowId, slot: RqaSlot) -> bool {
        if let Some(p) = self.pinned.get_mut(&row.index()) {
            if p.is_some() {
                *p = Some(slot);
                return true;
            }
            return false;
        }
        match self.fpt.get_mut(&row.index()) {
            Some(entry) => {
                *entry = slot;
                let group = self.bloom.group_of(row.index());
                let singleton = self.group_valid.get(&group).copied() == Some(1);
                self.cache.insert(row.index(), group, slot, singleton);
                true
            }
            None => false,
        }
    }

    /// Injected fault: inserts a wrong-slot entry for `row` into the
    /// FPT-Cache only (the in-DRAM FPT stays correct). Returns `false` for
    /// pinned rows, whose lookups never consult the cache.
    pub fn fault_poison_cache(&mut self, row: GlobalRowId, slot: RqaSlot) -> bool {
        if self.pinned.contains_key(&row.index()) {
            return false;
        }
        let group = self.bloom.group_of(row.index());
        let singleton = self.group_valid.get(&group).copied() == Some(1);
        self.cache.insert(row.index(), group, slot, singleton);
        true
    }

    /// Injected fault: zeroes one bloom count (see
    /// [`ResettableBloomFilter::fault_clear_bit`]). Returns the flat FPT rows
    /// whose translations became false negatives, sorted ascending (pinned
    /// rows bypass the filter and are unaffected).
    pub fn fault_clear_filter(&mut self, entropy: u64) -> Vec<u64> {
        let Some(bit) = self.bloom.fault_clear_bit(entropy) else {
            return Vec::new();
        };
        // The inverted index holds exactly the mapped rows hashing to `bit`
        // (in ascending order), so this is O(affected rows) — no whole-FPT
        // scan-filter-sort per injected fault.
        self.bit_rows
            .get(&bit)
            .map(|rows| rows.iter().copied().collect())
            .unwrap_or_default()
    }

    /// End-of-epoch audit rebuild: recomputes the group-valid counts and
    /// bloom counts from the in-DRAM FPT (the authoritative copy) and purges
    /// the FPT-Cache, which may hold poisoned entries. Returns whether any
    /// SRAM state actually changed.
    pub fn fault_audit_rebuild(&mut self) -> bool {
        let mut groups: FxHashMap<u64, u32> = FxHashMap::default();
        for &row in self.fpt.keys() {
            *groups.entry(self.bloom.group_of(row)).or_insert(0) += 1;
        }
        let groups_changed = groups != self.group_valid;
        self.group_valid = groups;
        // Feed the rebuild in sorted group order: the filter's final counts
        // are a sum and thus order-independent, but sorting makes the whole
        // audit path — including any tracing or debugging inside rebuild —
        // a pure function of the mapping set rather than of hash-iteration
        // order.
        let mut sorted: Vec<(u64, u32)> = self.group_valid.iter().map(|(&g, &c)| (g, c)).collect();
        sorted.sort_unstable_by_key(|&(g, _)| g);
        let bloom_changed = self.bloom.rebuild(sorted);
        let cache_dirty = !self.cache.is_empty();
        self.cache.purge();
        groups_changed || bloom_changed || cache_dirty
    }

    /// All current `(row, slot)` quarantine mappings (flat FPT plus pinned),
    /// sorted by row id so the output is observably deterministic — audit
    /// logs and consistency dumps never depend on hash-iteration order.
    pub fn mappings(&self) -> Vec<(GlobalRowId, RqaSlot)> {
        let mut all: Vec<(GlobalRowId, RqaSlot)> = self
            .fpt
            .iter()
            .map(|(&r, &s)| (GlobalRowId::new(r), s))
            .chain(
                self.pinned
                    .iter()
                    .filter_map(|(&r, s)| s.map(|s| (GlobalRowId::new(r), s))),
            )
            .collect();
        all.sort_unstable_by_key(|&(r, _)| r.index());
        all
    }

    /// SRAM bits: bloom filter + FPT-Cache + pinned entries (16 bits each).
    pub fn sram_bits(&self) -> u64 {
        self.bloom.sram_bits() + self.cache.sram_bits() + self.pinned.len() as u64 * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> MappedTables {
        MappedTables::new(1024, 64, 16)
    }

    fn row(i: u64) -> GlobalRowId {
        GlobalRowId::new(i)
    }

    #[test]
    fn unquarantined_row_is_bloom_filtered() {
        let mut t = tables();
        let l = t.lookup(row(5));
        assert_eq!(l.outcome, LookupOutcome::BloomClear);
        assert_eq!(l.slot, None);
        assert_eq!(l.dram_reads, 0);
    }

    #[test]
    fn quarantined_row_hits_cache_after_map() {
        let mut t = tables();
        t.map(row(5), RqaSlot::new(3));
        let l = t.lookup(row(5));
        assert_eq!(l.outcome, LookupOutcome::CacheHit);
        assert_eq!(l.slot, Some(RqaSlot::new(3)));
    }

    #[test]
    fn groupmate_of_singleton_skips_dram() {
        let mut t = tables();
        t.map(row(16), RqaSlot::new(0)); // group 1 = rows 16..32
        let l = t.lookup(row(17));
        assert_eq!(l.outcome, LookupOutcome::SingletonSkip);
        assert_eq!(l.slot, None);
    }

    #[test]
    fn groupmate_of_pair_needs_dram() {
        let mut t = tables();
        t.map(row(16), RqaSlot::new(0));
        t.map(row(17), RqaSlot::new(1)); // group now has 2 entries
        let l = t.lookup(row(18));
        assert_eq!(l.outcome, LookupOutcome::DramAccess);
        assert_eq!(l.slot, None);
        assert_eq!(l.dram_reads, 1);
    }

    #[test]
    fn dram_lookup_fills_cache_for_quarantined_row() {
        let mut t = tables();
        t.map(row(16), RqaSlot::new(0));
        t.map(row(17), RqaSlot::new(1));
        // Evict row 16 from the cache by invalidating it there only.
        t.cache.invalidate(16, 1);
        let first = t.lookup(row(16));
        assert_eq!(first.outcome, LookupOutcome::DramAccess);
        assert_eq!(first.slot, Some(RqaSlot::new(0)));
        let second = t.lookup(row(16));
        assert_eq!(second.outcome, LookupOutcome::CacheHit);
    }

    #[test]
    fn unmap_restores_bloom_clear() {
        let mut t = tables();
        t.map(row(40), RqaSlot::new(2));
        let (slot, writes) = t.unmap(row(40));
        assert_eq!(slot, Some(RqaSlot::new(2)));
        assert_eq!(writes, 2);
        let l = t.lookup(row(40));
        assert_eq!(l.outcome, LookupOutcome::BloomClear);
    }

    #[test]
    fn unmap_demotes_pair_to_singleton() {
        let mut t = tables();
        t.map(row(16), RqaSlot::new(0));
        t.map(row(17), RqaSlot::new(1));
        t.unmap(row(17));
        // Row 16 is again the group's only entry: group-mates skip DRAM.
        let l = t.lookup(row(18));
        assert_eq!(l.outcome, LookupOutcome::SingletonSkip);
    }

    #[test]
    fn pinned_rows_resolve_in_sram() {
        let mut t = tables();
        t.pin(row(7));
        t.map(row(7), RqaSlot::new(5));
        let l = t.lookup(row(7));
        assert_eq!(l.slot, Some(RqaSlot::new(5)));
        assert_eq!(l.dram_reads, 0);
        let (slot, writes) = t.unmap(row(7));
        assert_eq!(slot, Some(RqaSlot::new(5)));
        assert_eq!(writes, 0);
        // Pinned lookups stay out of the Figure 10 breakdown.
        assert_eq!(t.breakdown().total(), 0);
    }

    #[test]
    fn breakdown_counts_every_path() {
        let mut t = tables();
        t.map(row(16), RqaSlot::new(0));
        t.lookup(row(500)); // bloom clear
        t.lookup(row(16)); // cache hit
        t.lookup(row(17)); // singleton skip
        t.map(row(17), RqaSlot::new(1));
        t.lookup(row(18)); // dram access
        let b = t.breakdown();
        assert_eq!(b.bloom_clear, 1);
        assert_eq!(b.cache_hit, 1);
        assert_eq!(b.singleton_skip, 1);
        assert_eq!(b.dram_access, 1);
        assert_eq!(b.total(), 4);
        let f = b.fractions();
        assert!((f.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn peek_bypasses_filter_and_cache() {
        let mut t = tables();
        t.map(row(5), RqaSlot::new(3));
        t.cache.invalidate(5, 0);
        assert_eq!(t.peek(row(5)), Some(RqaSlot::new(3)));
        assert_eq!(t.peek(row(6)), None);
        assert_eq!(t.breakdown().total(), 0, "peek must not record lookups");
    }

    #[test]
    fn corrupted_fpt_entry_is_visible_and_audit_repairable() {
        let mut t = tables();
        t.map(row(5), RqaSlot::new(3));
        assert!(t.fault_corrupt_fpt(row(5), RqaSlot::new(7)));
        assert_eq!(t.lookup(row(5)).slot, Some(RqaSlot::new(7)));
        assert_eq!(t.peek(row(5)), Some(RqaSlot::new(7)));
        // Unmapped rows have no entry to corrupt.
        assert!(!t.fault_corrupt_fpt(row(6), RqaSlot::new(1)));
        // The engine's audit repairs via map(); the tables converge again.
        t.map(row(5), RqaSlot::new(3));
        assert_eq!(t.lookup(row(5)).slot, Some(RqaSlot::new(3)));
    }

    #[test]
    fn poisoned_cache_is_cured_by_audit_rebuild() {
        let mut t = tables();
        t.map(row(5), RqaSlot::new(3));
        assert!(t.fault_poison_cache(row(5), RqaSlot::new(9)));
        assert_eq!(t.lookup(row(5)).slot, Some(RqaSlot::new(9)));
        assert!(t.fault_audit_rebuild());
        // A second audit straight after finds nothing left to fix.
        assert!(!t.fault_audit_rebuild());
        // DRAM FPT was never wrong; after the purge the lookup refetches it.
        assert_eq!(t.lookup(row(5)).slot, Some(RqaSlot::new(3)));
    }

    #[test]
    fn cleared_filter_bit_reports_affected_rows() {
        let mut t = tables();
        t.map(row(16), RqaSlot::new(0));
        t.map(row(17), RqaSlot::new(1));
        let rows = t.fault_clear_filter(t.bloom().bit_of(1) as u64);
        assert_eq!(rows, vec![16, 17]);
        // False negative: the filter now denies the quarantine.
        assert_eq!(t.lookup(row(16)).outcome, LookupOutcome::BloomClear);
        assert!(t.fault_audit_rebuild());
        assert_eq!(t.lookup(row(16)).slot, Some(RqaSlot::new(0)));
    }

    #[test]
    fn map_is_idempotent_on_group_counts() {
        let mut t = tables();
        t.map(row(16), RqaSlot::new(0));
        t.map(row(16), RqaSlot::new(9)); // re-map (internal migration)
                                         // Still a singleton group.
        let l = t.lookup(row(17));
        assert_eq!(l.outcome, LookupOutcome::SingletonSkip);
        let l = t.lookup(row(16));
        assert_eq!(l.slot, Some(RqaSlot::new(9)));
    }
}
