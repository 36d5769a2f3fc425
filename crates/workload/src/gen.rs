//! The calibrated hot/cold request generator.

use crate::{AddressSpace, MemoryRequest, RequestGenerator, SpecWorkload};
use aqua_dram::{Duration, GlobalRowId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Target activations per epoch for rows in each Table II band. The bands
/// are what the paper reports; concrete targets are drawn uniformly inside
/// each band.
const BAND_166: (u64, u64) = (166, 500);
const BAND_500: (u64, u64) = (500, 1000);
const BAND_1000: (u64, u64) = (1000, 2000);

/// Cold rows should stay well below the 166-activation band.
const COLD_ACTS_PER_ROW: u64 = 50;

/// A per-core request stream with a calibrated set of *hot* rows (matching a
/// Table II activation profile) on top of a uniform *cold* footprint.
///
/// Hot rows are selected by weighted sampling so that, in expectation over
/// one epoch, each hot row receives exactly its target activation count; the
/// remaining requests spread over a cold footprint sized to keep cold rows
/// below the lowest band. The stream is deterministic for a given seed.
#[derive(Debug)]
pub struct HotColdGenerator {
    label: String,
    rng: StdRng,
    hot_rows: Vec<GlobalRowId>,
    /// Cumulative activation targets, parallel to `hot_rows`.
    hot_cumulative: Vec<u64>,
    hot_total: u64,
    requests_per_epoch: u64,
    cold_start: u64,
    cold_len: u64,
    space: AddressSpace,
    gap: Duration,
}

impl HotColdGenerator {
    /// Builds the generator for core `core` of a `cores`-core run of `spec`.
    ///
    /// Each core receives `1/cores` of the Table II hot-row counts (SPEC
    /// *rate* mode: four copies with disjoint footprints) and `1/cores` of
    /// the request rate.
    ///
    /// # Panics
    ///
    /// Panics if `core >= cores` or the address space is too small for the
    /// workload's footprint.
    pub fn calibrated(
        spec: &SpecWorkload,
        space: &AddressSpace,
        core: u32,
        cores: u32,
        seed: u64,
    ) -> Self {
        assert!(core < cores, "core index out of range");
        let mut rng = StdRng::seed_from_u64(seed ^ (core as u64).wrapping_mul(0x9e37_79b9));
        let share = |n: u32| -> u64 {
            let base = (n / cores) as u64;
            // Distribute the remainder over the low-index cores.
            base + u64::from(n % cores > core)
        };
        let n1 = share(spec.act_166 - spec.act_500);
        let n2 = share(spec.act_500 - spec.act_1000);
        let n3 = share(spec.act_1000);
        let seg_len = space.len() / cores as u64;
        let seg_start = seg_len * core as u64;

        // Hot rows are spread through the segment with a stride co-prime to
        // the bank count and the 16-row FPT-group size: real workloads' hot
        // pages scatter across the physical address space, so two hot rows
        // rarely share an FPT group (which is what makes the paper's
        // singleton-group optimization effective).
        const HOT_STRIDE: u64 = 33;
        let mut hot_rows = Vec::new();
        let mut hot_cumulative = Vec::new();
        let mut total = 0u64;
        let mut dense = seg_start;
        for (count, (lo, hi)) in [(n1, BAND_166), (n2, BAND_500), (n3, BAND_1000)] {
            for _ in 0..count {
                total += rng.gen_range(lo..hi);
                hot_rows.push(space.nth(dense));
                hot_cumulative.push(total);
                dense += HOT_STRIDE;
            }
        }

        let requests = (spec.requests_per_epoch(cores) / cores as u64).max(total.max(1));
        let cold_requests = requests - total;
        let cold_cap = seg_len.saturating_sub(dense - seg_start).saturating_sub(1);
        let cold_len = (cold_requests / COLD_ACTS_PER_ROW)
            .max(1024)
            .min(cold_cap)
            .max(1);
        let epoch = Duration::from_ms(64);
        HotColdGenerator {
            label: format!("{}#{}", spec.name, core),
            rng,
            hot_rows,
            hot_cumulative,
            hot_total: total,
            requests_per_epoch: requests,
            cold_start: dense,
            cold_len,
            space: *space,
            gap: epoch / requests,
        }
    }

    /// A purely uniform stream: `requests_per_epoch` requests spread over a
    /// `footprint`-row region starting at dense index `start` (no hot rows).
    ///
    /// `epoch` is the simulated epoch length the request rate is paced
    /// against (`gap = epoch / requests_per_epoch`), so the stream really
    /// does issue `requests_per_epoch` requests per epoch even on systems
    /// configured with a non-default epoch (e.g. `BaselineConfig::tiny`'s
    /// 1 ms) — previously a hardcoded 64 ms gap underpaced such systems by
    /// the ratio of the two epoch lengths.
    pub fn uniform(
        space: &AddressSpace,
        start: u64,
        footprint: u64,
        requests_per_epoch: u64,
        epoch: Duration,
        seed: u64,
    ) -> Self {
        assert!(footprint >= 1 && start + footprint <= space.len());
        HotColdGenerator {
            label: format!("uniform@{start}"),
            rng: StdRng::seed_from_u64(seed),
            hot_rows: Vec::new(),
            hot_cumulative: Vec::new(),
            hot_total: 0,
            requests_per_epoch: requests_per_epoch.max(1),
            cold_start: start,
            cold_len: footprint,
            space: *space,
            gap: epoch / requests_per_epoch.max(1),
        }
    }

    /// Requests this core issues per epoch at nominal IPC.
    pub fn requests_per_epoch(&self) -> u64 {
        self.requests_per_epoch
    }

    /// Number of hot rows this core drives.
    pub fn hot_rows(&self) -> usize {
        self.hot_rows.len()
    }
}

impl RequestGenerator for HotColdGenerator {
    fn next_request(&mut self) -> MemoryRequest {
        let draw = self.rng.gen_range(0..self.requests_per_epoch);
        let row = if draw < self.hot_total {
            let idx = self.hot_cumulative.partition_point(|&c| c <= draw);
            self.hot_rows[idx]
        } else {
            self.space
                .nth(self.cold_start + self.rng.gen_range(0..self.cold_len))
        };
        MemoryRequest { row, gap: self.gap }
    }

    fn label(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::DramGeometry;
    use std::collections::HashMap;

    fn space() -> AddressSpace {
        AddressSpace::new(DramGeometry::paper_table1(), 0.98)
    }

    fn spec() -> SpecWorkload {
        crate::spec::by_name("mcf").unwrap()
    }

    #[test]
    fn hot_row_counts_split_across_cores() {
        let s = space();
        let w = spec();
        let total_hot: usize = (0..4).map(|c| w.generator(&s, c, 4, 1).hot_rows()).sum();
        assert_eq!(total_hot, w.act_166 as usize);
    }

    #[test]
    fn empirical_band_counts_match_table2() {
        // Simulate one epoch's worth of requests and count rows per band.
        let s = space();
        let w = spec();
        let mut g = w.generator(&s, 0, 4, 7);
        let n = g.requests_per_epoch();
        let mut counts: HashMap<GlobalRowId, u64> = HashMap::new();
        for _ in 0..n {
            *counts.entry(g.next_request().row).or_default() += 1;
        }
        let band = |lo, hi| counts.values().filter(|&&c| c >= lo && c < hi).count() as f64;
        let expect1 = (w.act_166 - w.act_500) as f64 / 4.0;
        let expect2 = (w.act_500 - w.act_1000) as f64 / 4.0;
        let expect3 = w.act_1000 as f64 / 4.0;
        // Sampling noise blurs band boundaries; 15% tolerance.
        assert!((band(166, 500) - expect1).abs() < expect1 * 0.15 + 20.0);
        assert!((band(500, 1000) - expect2).abs() < expect2 * 0.15 + 20.0);
        assert!((band(1000, u64::MAX) - expect3).abs() < expect3 * 0.15 + 20.0);
    }

    #[test]
    fn stream_is_deterministic_per_seed() {
        let s = space();
        let w = spec();
        let mut a = w.generator(&s, 0, 4, 9);
        let mut b = w.generator(&s, 0, 4, 9);
        for _ in 0..1000 {
            assert_eq!(a.next_request(), b.next_request());
        }
    }

    #[test]
    fn cores_have_disjoint_footprints() {
        let s = space();
        let w = spec();
        let g0 = w.generator(&s, 0, 4, 1);
        let g1 = w.generator(&s, 1, 4, 1);
        let set0: std::collections::HashSet<_> = g0.hot_rows.iter().collect();
        assert!(g1.hot_rows.iter().all(|r| !set0.contains(r)));
    }

    #[test]
    fn quiet_workloads_have_no_hot_rows() {
        let s = space();
        let w = crate::spec::by_name("povray").unwrap();
        let g = w.generator(&s, 0, 4, 1);
        assert_eq!(g.hot_rows(), 0);
        assert!(g.requests_per_epoch() > 0);
    }

    #[test]
    fn gap_times_requests_fills_epoch() {
        let s = space();
        let g = spec().generator(&s, 0, 4, 1);
        let total = g.gap * g.requests_per_epoch();
        let epoch = Duration::from_ms(64);
        assert!(total <= epoch && total > epoch - epoch / 10);
    }

    #[test]
    fn uniform_generator_covers_footprint() {
        let s = space();
        let mut g = HotColdGenerator::uniform(&s, 100, 50, 10_000, Duration::from_ms(64), 3);
        for _ in 0..500 {
            let r = g.next_request();
            assert!(s.contains(r.row));
        }
    }

    #[test]
    fn uniform_generator_paces_against_the_given_epoch() {
        let s = space();
        let paper = HotColdGenerator::uniform(&s, 0, 64, 1000, Duration::from_ms(64), 3);
        let tiny = HotColdGenerator::uniform(&s, 0, 64, 1000, Duration::from_ms(1), 3);
        assert_eq!(paper.gap, Duration::from_ms(64) / 1000);
        // A 1 ms epoch must pace 64x faster for the same per-epoch rate.
        assert_eq!(tiny.gap, Duration::from_ms(1) / 1000);
    }
}
