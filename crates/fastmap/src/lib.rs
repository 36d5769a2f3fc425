//! Deterministic fast hashing for the simulator's hot paths.
//!
//! `std::collections::HashMap`'s default `RandomState` seeds SipHash from
//! process-local entropy, which costs two things the simulator cares about:
//!
//! - **Speed.** SipHash-1-3 is a keyed cryptographic PRF; on the per-access
//!   hot loop (tracker row counters, mapped-table lookups) its full
//!   permutation rounds dominate the probe itself for 4-8 byte keys.
//! - **Determinism.** The random seed makes *iteration order* differ from
//!   process to process, so any code that observes iteration order (bloom
//!   rebuilds, debug dumps) silently becomes nondeterministic across runs
//!   even with identical inputs.
//!
//! [`FxHasher`] is a hand-rolled reimplementation of the Firefox/rustc
//! "FxHash" multiply-rotate scheme: one rotate, one xor, and one multiply by
//! a Fibonacci-style constant per 8-byte word, with no per-instance state.
//! Two processes hashing the same keys always agree, so [`FxHashMap`]s
//! iterate identically for identical insertion histories.
//!
//! HashDoS resistance is deliberately traded away: every key hashed here is
//! a simulator-internal row id or slot index, never attacker-controlled
//! input from outside the process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Multiplier from the FxHash scheme: `2^64 / phi`, an odd constant whose
/// high bits diffuse well under wrapping multiplication.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// Bits to rotate between words, spreading consecutive small keys across
/// the table's index bits.
const ROTATE: u32 = 5;

/// The deterministic multiply-rotate hasher.
///
/// Implements the classic FxHash mixing step
/// `hash = (hash <<< 5 ^ word) * SEED` over the input words. It is *not*
/// collision-resistant against adversarial keys — use it only for trusted,
/// simulator-internal keys.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    /// Creates a hasher with the (fixed, seedless) initial state.
    pub const fn new() -> Self {
        FxHasher { hash: 0 }
    }

    #[inline]
    fn add_to_hash(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(ROTATE) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add_to_hash(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            // Fold the byte count in so "ab" and "ab\0" hash differently.
            self.add_to_hash(u64::from_le_bytes(word));
            self.add_to_hash(rest.len() as u64);
        }
    }

    #[inline]
    fn write_u8(&mut self, i: u8) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u16(&mut self, i: u16) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.add_to_hash(u64::from(i));
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.add_to_hash(i);
    }

    #[inline]
    fn write_u128(&mut self, i: u128) {
        self.add_to_hash(i as u64);
        self.add_to_hash((i >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.add_to_hash(i as u64);
    }
}

/// Stateless [`BuildHasher`] producing [`FxHasher`]s.
///
/// Unlike `RandomState` there is no per-instance seed: every build site in
/// every process yields the same hash function.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher::new()
    }
}

/// A `HashMap` keyed by the deterministic [`FxHasher`].
pub type FxHashMap<K, V> = HashMap<K, V, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn hash_of<T: Hash>(value: &T) -> u64 {
        let mut h = FxHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    #[test]
    fn identical_inputs_hash_identically() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"aggressor row"), hash_of(&"aggressor row"));
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
    }

    #[test]
    fn known_vector_pins_the_algorithm() {
        // The exact FxHash mixing step for one u64 word from state zero:
        // (0 <<< 5 ^ w) * SEED = w * SEED. A change to the scheme (seed,
        // rotation, byte order) breaks this vector and must be deliberate,
        // because it silently re-orders every map in the simulator.
        assert_eq!(hash_of(&1u64), SEED);
        assert_eq!(hash_of(&2u64), SEED.wrapping_mul(2));
    }

    #[test]
    fn byte_stream_matches_word_boundary_behaviour() {
        let mut a = FxHasher::new();
        a.write(&[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut b = FxHasher::new();
        b.write_u64(u64::from_le_bytes([1, 2, 3, 4, 5, 6, 7, 8]));
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn trailing_bytes_are_length_disambiguated() {
        let mut a = FxHasher::new();
        a.write(b"ab");
        let mut b = FxHasher::new();
        b.write(b"ab\0");
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn maps_with_identical_histories_iterate_identically() {
        let build = |keys: &[u64]| -> Vec<(u64, u64)> {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for &k in keys {
                m.insert(k, k * 10);
            }
            m.iter().map(|(&k, &v)| (k, v)).collect()
        };
        let keys: Vec<u64> = (0..500).map(|i| i * 37 % 1009).collect();
        assert_eq!(build(&keys), build(&keys));
    }
}
