//! RRS configuration.

use aqua_dram::{BaselineConfig, DdrTiming, DramGeometry};
use serde::{Deserialize, Serialize};

/// Configuration of one RRS instance (one rank).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RrsConfig {
    /// DRAM geometry.
    pub geometry: DramGeometry,
    /// DDR4 timing.
    pub timing: DdrTiming,
    /// The Rowhammer threshold being defended against.
    pub t_rh: u64,
    /// Swap threshold `T_RRS = T_RH / 6` (birthday-paradox margin).
    pub swap_threshold: u64,
    /// Maximum live swap pairs the RIT can hold.
    pub rit_pairs: usize,
    /// Misra-Gries tracker entries per bank.
    pub tracker_entries_per_bank: usize,
    /// Deterministic seed for destination selection.
    pub seed: u64,
}

impl RrsConfig {
    /// The lowest Rowhammer threshold [`RrsConfig::for_rowhammer_threshold`]
    /// accepts: below it the swap threshold `t_rh / 6` is 0.
    pub const MIN_T_RH: u64 = 6;

    /// The RRS design point for Rowhammer threshold `t_rh`: swap at
    /// `t_rh / 6`, RIT sized for the worst-case swap rate in one refresh
    /// window (~2.4 MB of SRAM at `t_rh` = 1K).
    ///
    /// # Panics
    ///
    /// Panics if `t_rh` is below [`RrsConfig::MIN_T_RH`].
    pub fn for_rowhammer_threshold(t_rh: u64, base: &BaselineConfig) -> Self {
        assert!(
            t_rh >= Self::MIN_T_RH,
            "RRS needs T_RH >= {}",
            Self::MIN_T_RH
        );
        let swap_threshold = t_rh / 6;
        // Worst-case swaps per refresh window: every bank can trigger one
        // swap per T_RRS activations out of its ACTmax budget. (RRS keeps
        // all of a window's pairs live, hence the multi-MB RIT at low T_RH.)
        let banks = base.geometry.total_banks() as u64;
        const ACT_MAX: u64 = 1_360_000;
        let max_swaps = banks * ACT_MAX / swap_threshold;
        RrsConfig {
            geometry: base.geometry,
            timing: base.timing,
            t_rh,
            swap_threshold,
            rit_pairs: max_swaps as usize,
            tracker_entries_per_bank: (ACT_MAX / swap_threshold).max(1) as usize,
            seed: 0x5eed_5eed,
        }
    }

    /// Overrides the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// SRAM bits of the RIT: two entries per pair, ~1.4x CAT
    /// over-provisioning, 48 bits per entry (tag + pointer + valid) —
    /// ~2.2 MB per rank at `T_RH` = 1K, matching the paper's ~2.4 MB.
    pub fn rit_sram_bits(&self) -> u64 {
        self.rit_pairs as u64 * 2 * 14 / 10 * 48
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_is_one_sixth() {
        let c = RrsConfig::for_rowhammer_threshold(1000, &BaselineConfig::paper_table1());
        assert_eq!(c.swap_threshold, 166);
    }

    #[test]
    fn rit_is_megabytes_at_1k() {
        // Paper section II-F: ~2.4 MB per rank at T_RH = 1K.
        let c = RrsConfig::for_rowhammer_threshold(1000, &BaselineConfig::paper_table1());
        let mb = c.rit_sram_bits() as f64 / 8.0 / 1024.0 / 1024.0;
        assert!((1.5..=3.0).contains(&mb), "RIT = {mb:.2} MB");
    }

    #[test]
    fn rit_shrinks_with_higher_threshold() {
        let base = BaselineConfig::paper_table1();
        let c1 = RrsConfig::for_rowhammer_threshold(1000, &base);
        let c4 = RrsConfig::for_rowhammer_threshold(4000, &base);
        assert!(c4.rit_pairs < c1.rit_pairs / 3);
    }

    #[test]
    #[should_panic(expected = "T_RH >= 6")]
    fn tiny_threshold_rejected() {
        RrsConfig::for_rowhammer_threshold(5, &BaselineConfig::paper_table1());
    }
}
