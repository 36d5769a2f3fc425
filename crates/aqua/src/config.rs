//! AQUA configuration and memory-region layout.

use crate::AquaError;
use aqua_dram::{BankId, BaselineConfig, DdrTiming, DramGeometry, GlobalRowId, RowAddr};
use serde::{Deserialize, Serialize};

/// Which aggressor-row tracker (ART) drives the mitigations.
///
/// The tracker choice is orthogonal to AQUA's design (section IV-B); the
/// paper's default is the Misra-Gries tracker, with the storage-optimized
/// Hydra tracker evaluated in Appendix B (Table VII: AQUA-MG 437 KB vs
/// AQUA-Hydra 71 KB of SRAM per rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TrackerKind {
    /// Per-bank Misra-Gries summary (Graphene-style; the paper default).
    MisraGries,
    /// Hydra-style hybrid SRAM/DRAM tracker (Appendix B).
    Hydra,
    /// CRA-style exact in-DRAM counters behind an SRAM counter cache
    /// (reference \[14\] of the paper).
    Cra,
    /// Idealized exact per-row counters (for analysis and tests).
    Exact,
}

/// Where the FPT/RPT mapping tables live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableMode {
    /// Tables in SRAM (section IV): CAT-based FPT, direct-mapped RPT.
    /// 172 KB per rank at `T_RH` = 1K.
    Sram,
    /// Memory-mapped tables (section V): flat FPT/RPT in DRAM, filtered by a
    /// resettable bloom filter and cached in the FPT-Cache. 32 KB per rank.
    Mapped {
        /// Bloom-filter bits (paper default: 128K bits = 16 KB).
        bloom_bits: usize,
        /// FPT-Cache entries (paper default: 4K entries = 16 KB).
        cache_entries: usize,
    },
}

impl TableMode {
    /// The paper's default memory-mapped configuration (16 KB bloom filter,
    /// 4K-entry FPT-Cache).
    pub const fn mapped_default() -> Self {
        TableMode::Mapped {
            bloom_bits: 128 * 1024,
            cache_entries: 4 * 1024,
        }
    }
}

/// Complete configuration of one AQUA instance (one rank).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AquaConfig {
    /// DRAM geometry.
    pub geometry: DramGeometry,
    /// DDR4 timing.
    pub timing: DdrTiming,
    /// The Rowhammer threshold `T_RH` being defended against.
    pub t_rh: u64,
    /// Per-epoch mitigation threshold `A` (`T_RH / 2`, section IV-B).
    pub mitigation_threshold: u64,
    /// Rows reserved for the quarantine area (Eq. 3).
    pub rqa_rows: u64,
    /// FPT entries (SRAM mode): over-provisioned ~1.4x beyond `rqa_rows`.
    pub fpt_entries: usize,
    /// Table placement.
    pub table_mode: TableMode,
    /// Misra-Gries tracker entries per bank.
    pub tracker_entries_per_bank: usize,
    /// Which aggressor-row tracker to use.
    pub tracker: TrackerKind,
    /// Stale RQA entries drained in the background per refresh command
    /// (0 = evictions happen lazily on install, the paper's default).
    pub drain_per_refresh: u32,
}

/// Minimum quarantine-area rows for security at mitigation threshold `a`
/// (Eq. 3 of the paper).
///
/// `R_max = tREFW * B / (t_AGG + B * t_mov)` where `t_AGG = a * tRC` (Eq. 1)
/// and `t_mov` is the 1.37 us row-migration latency. The result is rounded up.
///
/// ```
/// use aqua::required_rqa_rows;
/// use aqua_dram::{DdrTiming, DramGeometry};
///
/// let rows = required_rqa_rows(&DdrTiming::ddr4_2400(), &DramGeometry::paper_table1(), 500);
/// assert_eq!(rows, 23_053); // paper section IV-E
/// ```
pub fn required_rqa_rows(timing: &DdrTiming, geometry: &DramGeometry, a: u64) -> u64 {
    let banks = geometry.total_banks() as u64;
    let t_agg = timing.aggressor_time(a).as_ps();
    let t_mov = timing.row_migration_latency(geometry).as_ps();
    let denom = t_agg + banks * t_mov;
    let numer = timing.t_refw.as_ps() * banks;
    numer.div_ceil(denom)
}

impl AquaConfig {
    /// The lowest Rowhammer threshold [`AquaConfig::for_rowhammer_threshold`]
    /// accepts: below it the mitigation threshold `t_rh / 2` is 0.
    pub const MIN_T_RH: u64 = 2;

    /// Builds the paper's default AQUA configuration for a Rowhammer
    /// threshold `t_rh` on the given baseline system: mitigation threshold
    /// `t_rh / 2`, RQA sized by Eq. 3, SRAM tables.
    ///
    /// # Panics
    ///
    /// Panics if `t_rh` is below [`AquaConfig::MIN_T_RH`].
    pub fn for_rowhammer_threshold(t_rh: u64, base: &BaselineConfig) -> Self {
        assert!(
            t_rh >= Self::MIN_T_RH,
            "Rowhammer threshold must be at least {}",
            Self::MIN_T_RH
        );
        let a = t_rh / 2;
        let rqa_rows = required_rqa_rows(&base.timing, &base.geometry, a);
        // FPT over-provisioning mirrors the paper: 32K entries for 23K rows.
        let fpt_entries = (rqa_rows as usize * 32).div_ceil(23).next_power_of_two();
        const ACT_MAX: u64 = 1_360_000;
        AquaConfig {
            geometry: base.geometry,
            timing: base.timing,
            t_rh,
            mitigation_threshold: a,
            rqa_rows,
            fpt_entries,
            table_mode: TableMode::Sram,
            tracker_entries_per_bank: (ACT_MAX / a).max(1) as usize,
            tracker: TrackerKind::MisraGries,
            drain_per_refresh: 0,
        }
    }

    /// Switches to the Hydra-style hybrid tracker (Appendix B).
    pub fn with_hydra_tracker(mut self) -> Self {
        self.tracker = TrackerKind::Hydra;
        self
    }

    /// Switches to memory-mapped tables with the paper's default filter and
    /// cache sizes.
    pub fn with_mapped_tables(mut self) -> Self {
        self.table_mode = TableMode::mapped_default();
        self
    }

    /// Overrides the RQA size (used by tests that deliberately undersize the
    /// quarantine area to demonstrate the security check).
    pub fn with_rqa_rows(mut self, rows: u64) -> Self {
        self.rqa_rows = rows;
        self
    }

    /// Enables background draining of `n` stale RQA entries per refresh tick.
    pub fn with_drain_per_refresh(mut self, n: u32) -> Self {
        self.drain_per_refresh = n;
        self
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`AquaError`] if the reserved regions exceed the module or a
    /// parameter is degenerate.
    pub fn validate(&self) -> Result<(), AquaError> {
        if self.mitigation_threshold == 0 {
            return Err(AquaError::InvalidConfig("mitigation threshold is zero"));
        }
        if self.rqa_rows == 0 {
            return Err(AquaError::InvalidConfig("quarantine area is empty"));
        }
        let reserved = self.rqa_rows_per_bank() as u64 + self.table_rows_per_bank() as u64;
        if reserved >= self.geometry.rows_per_bank as u64 {
            return Err(AquaError::RqaTooLarge {
                requested: self.rqa_rows,
                available: self.geometry.total_rows(),
            });
        }
        Ok(())
    }

    /// RQA rows reserved in each bank (slots round-robin across banks).
    pub fn rqa_rows_per_bank(&self) -> u32 {
        self.rqa_rows.div_ceil(self.geometry.total_banks() as u64) as u32
    }

    /// Rows per bank reserved for in-DRAM mapping tables (mapped mode only).
    pub fn table_rows_per_bank(&self) -> u32 {
        match self.table_mode {
            TableMode::Sram => 0,
            TableMode::Mapped { .. } => (self.fpt_table_rows() + self.rpt_table_rows())
                .div_ceil(self.geometry.total_banks() as u64)
                as u32,
        }
    }

    /// Total DRAM rows holding the flat in-DRAM FPT (2 bytes per memory row;
    /// 4 MB = 512 rows for the 16 GB baseline).
    pub fn fpt_table_rows(&self) -> u64 {
        let bytes = self.geometry.total_rows() * 2;
        bytes.div_ceil(self.geometry.row_bytes as u64)
    }

    /// Total DRAM rows holding the in-DRAM RPT (3 bytes per RQA slot).
    pub fn rpt_table_rows(&self) -> u64 {
        (self.rqa_rows * 3).div_ceil(self.geometry.row_bytes as u64)
    }

    /// Physical location of RQA slot `slot`.
    ///
    /// Slots stripe round-robin across banks, occupying the highest row
    /// indices of each bank (invisible to the OS address range).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= rqa_rows`.
    pub fn rqa_slot_location(&self, slot: u64) -> RowAddr {
        assert!(slot < self.rqa_rows, "RQA slot {slot} out of range");
        let banks = self.geometry.total_banks() as u64;
        RowAddr {
            bank: BankId::new((slot % banks) as u32),
            row: self.geometry.rows_per_bank - 1 - (slot / banks) as u32,
        }
    }

    /// Whether `addr` lies inside the reserved quarantine region.
    pub fn rqa_region_contains(&self, addr: RowAddr) -> bool {
        addr.row >= self.geometry.rows_per_bank - self.rqa_rows_per_bank()
            && self.rqa_slot_of(addr).is_some()
    }

    /// The RQA slot stored at physical address `addr`, if any.
    pub fn rqa_slot_of(&self, addr: RowAddr) -> Option<u64> {
        let banks = self.geometry.total_banks() as u64;
        let depth = (self.geometry.rows_per_bank - 1).checked_sub(addr.row)? as u64;
        let slot = depth * banks + addr.bank.index() as u64;
        (slot < self.rqa_rows).then_some(slot)
    }

    /// Physical row holding the in-DRAM FPT entry for `row` (mapped mode).
    ///
    /// FPT table rows sit directly below the RQA region, striped across banks.
    pub fn fpt_table_row_of(&self, row: GlobalRowId) -> RowAddr {
        let entries_per_row = (self.geometry.row_bytes / 2) as u64;
        let table_row = row.index() / entries_per_row;
        let banks = self.geometry.total_banks() as u64;
        RowAddr {
            bank: BankId::new((table_row % banks) as u32),
            row: self.geometry.rows_per_bank
                - 1
                - self.rqa_rows_per_bank()
                - (table_row / banks) as u32,
        }
    }

    /// Whether `addr` holds in-DRAM mapping-table contents (mapped mode).
    pub fn is_table_row(&self, addr: RowAddr) -> bool {
        if matches!(self.table_mode, TableMode::Sram) {
            return false;
        }
        let top = self.geometry.rows_per_bank - self.rqa_rows_per_bank();
        let bottom = top - self.table_rows_per_bank();
        addr.row >= bottom && addr.row < top
    }

    /// Number of OS-visible rows (total minus quarantine and table regions).
    pub fn visible_rows(&self) -> u64 {
        let reserved_per_bank = (self.rqa_rows_per_bank() + self.table_rows_per_bank()) as u64;
        self.geometry.total_rows() - reserved_per_bank * self.geometry.total_banks() as u64
    }

    /// DRAM overhead of AQUA as a fraction of module capacity (paper: ~1.1%
    /// for the quarantine area alone, 1.13% including the in-DRAM tables).
    pub fn dram_overhead(&self) -> f64 {
        let table_rows = match self.table_mode {
            TableMode::Sram => 0,
            TableMode::Mapped { .. } => self.fpt_table_rows() + self.rpt_table_rows(),
        };
        (self.rqa_rows + table_rows) as f64 / self.geometry.total_rows() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BaselineConfig;

    fn base() -> BaselineConfig {
        BaselineConfig::paper_table1()
    }

    #[test]
    fn eq3_matches_paper_table3() {
        // Table III of the paper.
        let t = DdrTiming::ddr4_2400();
        let g = DramGeometry::paper_table1();
        assert_eq!(required_rqa_rows(&t, &g, 1000), 15_302);
        assert_eq!(required_rqa_rows(&t, &g, 500), 23_053);
        assert_eq!(required_rqa_rows(&t, &g, 250), 30_872);
        assert_eq!(required_rqa_rows(&t, &g, 125), 37_176);
        assert_eq!(required_rqa_rows(&t, &g, 50), 42_367);
        assert_eq!(required_rqa_rows(&t, &g, 1), 46_620);
    }

    #[test]
    fn default_config_matches_paper() {
        let c = AquaConfig::for_rowhammer_threshold(1000, &base());
        assert_eq!(c.mitigation_threshold, 500);
        assert_eq!(c.rqa_rows, 23_053);
        assert_eq!(c.fpt_entries, 32 * 1024);
        // DRAM overhead ~1.1% (quarantine only, SRAM tables).
        assert!((c.dram_overhead() - 0.011).abs() < 0.001);
        c.validate().unwrap();
    }

    #[test]
    fn mapped_overhead_is_1_13_percent() {
        let c = AquaConfig::for_rowhammer_threshold(1000, &base()).with_mapped_tables();
        assert_eq!(c.fpt_table_rows(), 512); // 4 MB / 8 KB
        assert!((c.dram_overhead() - 0.0113).abs() < 0.0005);
        c.validate().unwrap();
    }

    #[test]
    fn rqa_slot_roundtrip() {
        let c = AquaConfig::for_rowhammer_threshold(1000, &base());
        for slot in [0, 1, 15, 16, 17, 12345, c.rqa_rows - 1] {
            let loc = c.rqa_slot_location(slot);
            assert!(c.rqa_region_contains(loc), "slot {slot} at {loc}");
            assert_eq!(c.rqa_slot_of(loc), Some(slot));
        }
    }

    #[test]
    fn visible_rows_exclude_reserved() {
        let c = AquaConfig::for_rowhammer_threshold(1000, &base());
        let visible = c.visible_rows();
        assert!(visible < c.geometry.total_rows());
        assert!(visible > c.geometry.total_rows() * 98 / 100);
    }

    #[test]
    fn table_region_is_below_rqa() {
        let c = AquaConfig::for_rowhammer_threshold(1000, &base()).with_mapped_tables();
        let t = c.fpt_table_row_of(GlobalRowId::new(0));
        assert!(c.is_table_row(t));
        assert!(!c.rqa_region_contains(t));
        let last = c.fpt_table_row_of(GlobalRowId::new(c.geometry.total_rows() - 1));
        assert!(c.is_table_row(last));
    }

    #[test]
    fn validate_rejects_oversized_rqa() {
        let c = AquaConfig::for_rowhammer_threshold(1000, &base())
            .with_rqa_rows(BaselineConfig::paper_table1().geometry.total_rows());
        assert!(matches!(c.validate(), Err(AquaError::RqaTooLarge { .. })));
    }

    #[test]
    fn rqa_region_boundary_is_exact() {
        let c = AquaConfig::for_rowhammer_threshold(1000, &base());
        // A row just below the RQA region must not be classified as RQA.
        let below = RowAddr {
            bank: BankId::new(0),
            row: c.geometry.rows_per_bank - c.rqa_rows_per_bank() - 1,
        };
        assert!(!c.rqa_region_contains(below));
    }
}
