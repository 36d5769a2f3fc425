//! Workload and attack-pattern generators.
//!
//! The paper evaluates AQUA on 18 SPEC CPU2017 *rate* workloads and 16
//! four-way mixes running under gem5. Neither SPEC binaries nor gem5 traces
//! are available here, so this crate substitutes *calibrated synthetic
//! generators*: for each workload, Table II of the paper publishes the MPKI
//! and the number of rows receiving 166+/500+/1000+ activations per 64 ms
//! epoch — precisely the statistics that determine how many mitigations a
//! row-migration scheme performs and how its cost is amortized. The
//! generators reproduce those statistics exactly (in expectation), so the
//! *shape* of every result — who wins, by what factor — carries over even
//! though absolute IPC differs from the authors' gem5 testbed. See DESIGN.md
//! for the substitution rationale.
//!
//! The crate also provides the adversarial patterns of the security analysis:
//! single-/double-/many-sided hammering, the Half-Double pattern (far
//! aggressors at distance 2), the worst-case denial-of-service pattern of
//! section VI-C, and a row-conflict pattern that exhibits Blockhammer's
//! 1280x worst case.
//!
//! # Example
//!
//! ```
//! use aqua_dram::BaselineConfig;
//! use aqua_workload::{spec, AddressSpace, RequestGenerator};
//!
//! let base = BaselineConfig::paper_table1();
//! let space = AddressSpace::new(base.geometry, 0.98);
//! let lbm = spec::by_name("lbm").unwrap();
//! let mut gen = lbm.generator(&space, /*core=*/ 0, base.cores, 42);
//! let req = gen.next_request();
//! assert!(space.contains(req.row));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod attack;
mod gen;
mod mix;
mod space;
pub mod spec;

pub use gen::HotColdGenerator;
pub use mix::{mix_table, MixWorkload};
pub use space::AddressSpace;
pub use spec::SpecWorkload;

use aqua_dram::{Duration, GlobalRowId};

/// One memory request produced by a generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoryRequest {
    /// The OS-visible row accessed.
    pub row: GlobalRowId,
    /// Compute ("think") time separating this request from the previous one
    /// issued by the same core.
    pub gap: Duration,
}

/// An infinite, deterministic stream of memory requests for one core.
pub trait RequestGenerator: Send {
    /// Produces the next request.
    fn next_request(&mut self) -> MemoryRequest;

    /// Human-readable label for reports.
    fn label(&self) -> String;
}

/// Nominal instructions one core retires per millisecond at the baseline
/// IPC of 1.0 and 3 GHz (used to convert MPKI into a request rate).
pub const INSTRUCTIONS_PER_MS_PER_CORE: u64 = 3_000_000;

/// Derives the workload seed for one channel shard of a multi-channel
/// system.
///
/// Channel 0 keeps `seed` unchanged, so a sharded single-channel run
/// replays exactly the same request streams as the unsharded simulator.
/// Higher channels get independent, well-mixed seeds (splitmix64
/// finalizer over a channel-tagged state), so their cores do not hammer
/// the same rows in lockstep. The mapping is pure: equal inputs always
/// produce equal seeds, keeping sharded runs replayable.
pub fn channel_seed(seed: u64, channel: u32) -> u64 {
    if channel == 0 {
        return seed;
    }
    let mut z = seed ^ u64::from(channel).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_rate_conversion() {
        // 20.9 MPKI at 3 GHz, IPC 1 => ~4.0M misses per core per 64 ms.
        let misses_per_epoch = (20.9 * (INSTRUCTIONS_PER_MS_PER_CORE * 64) as f64 / 1000.0) as u64;
        assert!((3_900_000..4_100_000).contains(&misses_per_epoch));
    }

    #[test]
    fn channel_seed_is_identity_on_channel_zero_and_mixed_elsewhere() {
        assert_eq!(channel_seed(42, 0), 42);
        assert_eq!(channel_seed(42, 3), channel_seed(42, 3), "pure");
        let seeds: std::collections::BTreeSet<u64> = (0..16).map(|c| channel_seed(42, c)).collect();
        assert_eq!(seeds.len(), 16, "distinct per channel");
        // Nearby base seeds do not collide after mixing.
        assert_ne!(channel_seed(42, 1), channel_seed(43, 1));
    }
}
