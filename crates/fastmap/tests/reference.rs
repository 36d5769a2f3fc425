//! Property tests: the fast-hash map must agree with `std::collections`
//! reference behaviour for any operation interleaving.

use aqua_fastmap::FxHashMap;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Insert/remove interleavings leave the FxHashMap with exactly the
    /// reference map's contents, length, and per-key values.
    #[test]
    fn map_matches_reference(ops in prop::collection::vec((0u64..200, any::<bool>()), 1..300)) {
        let mut fx: FxHashMap<u64, u64> = FxHashMap::default();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        for (key, insert) in ops {
            if insert {
                prop_assert_eq!(fx.insert(key, key * 7), reference.insert(key, key * 7));
            } else {
                prop_assert_eq!(fx.remove(&key), reference.remove(&key));
            }
            prop_assert_eq!(fx.len(), reference.len());
        }
        for (k, v) in &reference {
            prop_assert_eq!(fx.get(k), Some(v));
        }
        for (k, v) in &fx {
            prop_assert_eq!(reference.get(k), Some(v));
        }
    }

    /// Counting through an FxHashMap entry API matches a reference counter.
    #[test]
    fn occurrence_counts_match_reference(rows in prop::collection::vec(0u32..64, 1..500)) {
        let mut fx: FxHashMap<u32, u64> = FxHashMap::default();
        let mut reference: HashMap<u32, u64> = HashMap::new();
        for r in &rows {
            *fx.entry(*r).or_insert(0) += 1;
            *reference.entry(*r).or_insert(0) += 1;
        }
        prop_assert_eq!(fx.len(), reference.len());
        let total_fx: u64 = fx.values().sum();
        let total_ref: u64 = reference.values().sum();
        prop_assert_eq!(total_fx, total_ref);
        for (k, v) in &reference {
            prop_assert_eq!(fx.get(k), Some(v));
        }
    }

    /// Two maps fed the same history iterate in the same order — the
    /// determinism property the RandomState default does not provide.
    #[test]
    fn iteration_order_is_reproducible(keys in prop::collection::vec(0u64..10_000, 1..200)) {
        let build = |ks: &[u64]| -> Vec<u64> {
            let mut m: FxHashMap<u64, u64> = FxHashMap::default();
            for &k in ks {
                m.insert(k, k);
            }
            m.keys().copied().collect()
        };
        prop_assert_eq!(build(&keys), build(&keys));
    }
}
