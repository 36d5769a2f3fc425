//! Aggressor-row trackers (the "ART" of the AQUA paper, section IV-B).
//!
//! A tracker watches the stream of DRAM row activations and decides when a row
//! has accrued enough activations within the current 64 ms epoch to require a
//! mitigation (quarantine for AQUA, swap for RRS, extra refresh for
//! victim-refresh schemes).
//!
//! Four trackers are provided:
//!
//! - [`MisraGriesTracker`] — the per-bank Misra-Gries / Space-Saving summary
//!   used by Graphene, RRS, and AQUA's default configuration. It guarantees
//!   that no row crosses the threshold undetected, at the cost of *spurious*
//!   mitigations: a newly installed entry inherits the minimum (spill) count,
//!   which the paper calls out as the source of unnecessary mitigations in
//!   workloads like `imagick` (section IV-F).
//! - [`ExactTracker`] — an idealized per-row counter (no spurious mitigations,
//!   unbounded SRAM); used as the "ideal tracker" baseline in the Blockhammer
//!   comparison.
//! - [`HydraTracker`] — a storage-optimized hybrid in the style of Hydra: small
//!   SRAM group counters that fall back to per-row counters "in DRAM" once a
//!   group gets hot, trading a small number of extra DRAM accesses for a much
//!   smaller SRAM footprint (paper Appendix B).
//! - [`CraTracker`] — CRA-style exact per-row counters in DRAM behind an SRAM
//!   counter cache (reference \[14\] of the paper): never spurious, but every
//!   counter-cache miss is a DRAM access.
//!
//! All trackers share the [`AggressorTracker`] trait and the epoch-reset
//! semantics of section VI-A property P1: the tracker is reset every epoch, so
//! the effective mitigation threshold must be `T_RH / 2` to guarantee that no
//! row reaches `T_RH` activations in any 64 ms window spanning two epochs.
//!
//! # Example
//!
//! ```
//! use aqua_dram::{BankId, RowAddr};
//! use aqua_tracker::{AggressorTracker, MisraGriesTracker, TrackerConfig};
//!
//! let cfg = TrackerConfig::for_rowhammer_threshold(1000); // mitigate at 500
//! let mut tracker = MisraGriesTracker::new(cfg, 16);
//! let row = RowAddr { bank: BankId::new(0), row: 7 };
//! let mut mitigations = 0;
//! for _ in 0..1000 {
//!     if tracker.on_activation(row).mitigate() {
//!         mitigations += 1;
//!     }
//! }
//! assert_eq!(mitigations, 2); // at 500 and at 1000 activations
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod cra;
mod exact;
mod hydra;
mod misra_gries;

pub use config::TrackerConfig;
pub use cra::{CraConfig, CraTracker};
pub use exact::ExactTracker;
pub use hydra::{HydraConfig, HydraTracker};
pub use misra_gries::MisraGriesTracker;

use aqua_dram::RowAddr;
use serde::{Deserialize, Serialize};

/// The verdict a tracker returns for one activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrackerDecision {
    /// Whether the row just crossed a mitigation threshold.
    mitigate: bool,
    /// The tracker's (possibly overestimated) activation count for the row.
    estimate: u64,
}

impl TrackerDecision {
    /// A decision that requires no mitigation.
    pub const fn quiet(estimate: u64) -> Self {
        TrackerDecision {
            mitigate: false,
            estimate,
        }
    }

    /// A decision that triggers a mitigation.
    pub const fn trigger(estimate: u64) -> Self {
        TrackerDecision {
            mitigate: true,
            estimate,
        }
    }

    /// Whether a mitigation must be performed now.
    pub fn mitigate(self) -> bool {
        self.mitigate
    }

    /// The tracker's activation-count estimate for the row.
    pub fn estimate(self) -> u64 {
        self.estimate
    }
}

aqua_telemetry::stat_struct! {
    /// Cumulative tracker statistics.
    #[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
    pub struct TrackerStats {
        /// Activations observed.
        pub activations: u64,
        /// Mitigations signalled.
        pub mitigations: u64,
        /// Entry replacements (Misra-Gries evictions / Hydra spills).
        pub replacements: u64,
        /// Extra DRAM accesses incurred by the tracker itself (Hydra).
        pub dram_accesses: u64,
        /// Epochs completed.
        pub epochs: u64,
    }
}

/// Common interface of all aggressor-row trackers.
///
/// The tracker is indexed with the *physical* row address — i.e. the address
/// after consulting the mitigation scheme's indirection table (paper property
/// P3) — so that quarantined rows are themselves tracked at their new
/// locations.
pub trait AggressorTracker: std::fmt::Debug {
    /// Records one activation of `row`; returns whether to mitigate now.
    fn on_activation(&mut self, row: RowAddr) -> TrackerDecision;

    /// Resets per-epoch state at the 64 ms epoch boundary.
    fn end_epoch(&mut self);

    /// Cumulative statistics.
    fn stats(&self) -> TrackerStats;

    /// SRAM footprint of the tracker state, in bits.
    fn sram_bits(&self) -> u64;

    /// Injected fault: wipes every per-epoch counter mid-epoch, leaving the
    /// tracker blind until rows are re-observed. Returns `false` if this
    /// tracker does not support counter injection (the fault is then
    /// reported as unsupported rather than silently ignored).
    fn inject_reset(&mut self) -> bool {
        false
    }

    /// Injected fault: saturates every tracked counter to just below the
    /// mitigation threshold, so the next touch of any tracked row fires a
    /// spurious mitigation (migration-storm pressure). Returns `false` if
    /// unsupported.
    fn inject_saturate(&mut self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_accessors() {
        let q = TrackerDecision::quiet(3);
        assert!(!q.mitigate());
        assert_eq!(q.estimate(), 3);
        let t = TrackerDecision::trigger(500);
        assert!(t.mitigate());
        assert_eq!(t.estimate(), 500);
    }
}
