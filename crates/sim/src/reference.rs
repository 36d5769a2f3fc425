//! The dense oracle and shadow memory, kept unchanged as reference models.
//!
//! Before paging, [`crate::ActivationOracle`] and [`crate::ShadowMemory`]
//! held one array entry per physical row of the module. These are those
//! implementations. The tests below drive a reference and a paged copy
//! through the same random operation sequences and require every query,
//! summary and violation count to agree after every step.

use crate::OracleSummary;
use aqua_dram::mitigation::DataMovement;
use aqua_dram::{DramGeometry, GlobalRowId, RowAddr};

/// Counts every activation of every *physical* row, independent of the
/// mitigation scheme's own (fallible, resettable) tracker.
///
/// Any 64 ms refresh window spans at most two tracker epochs, so the count
/// `previous_epoch + current_epoch` upper-bounds the sliding-window
/// activation count of a row; a row whose bound exceeds `T_RH` is reported
/// as vulnerable.
#[derive(Debug)]
pub struct ActivationOracle {
    t_rh: u64,
    rows_per_bank: u32,
    curr: Vec<u32>,
    prev: Vec<u32>,
    flagged: Vec<bool>,
    /// Disturbance on each row from its lower neighbour (`row - 1`) since
    /// the row's last refresh.
    dist_lo: Vec<u32>,
    /// Disturbance from the upper neighbour (`row + 1`).
    dist_hi: Vec<u32>,
    flippable: Vec<bool>,
    summary: OracleSummary,
    band_totals: [u64; 3],
}

impl ActivationOracle {
    /// Creates the oracle for a module, flagging rows whose two-epoch count
    /// exceeds `t_rh`.
    pub fn new(geometry: &DramGeometry, t_rh: u64) -> Self {
        let rows = geometry.total_rows() as usize;
        ActivationOracle {
            t_rh,
            rows_per_bank: geometry.rows_per_bank,
            curr: vec![0; rows],
            prev: vec![0; rows],
            flagged: vec![false; rows],
            dist_lo: vec![0; rows],
            dist_hi: vec![0; rows],
            flippable: vec![false; rows],
            summary: OracleSummary::default(),
            band_totals: [0; 3],
        }
    }

    fn index(&self, row: RowAddr) -> usize {
        row.bank.index() as usize * self.rows_per_bank as usize + row.row as usize
    }

    /// Records one activation of physical row `row`. Returns `true` when
    /// this activation first pushed the row's two-epoch window count over
    /// `T_RH` (used to trace `ThresholdCrossed` events).
    pub fn record(&mut self, row: RowAddr) -> bool {
        let i = self.index(row);
        self.curr[i] += 1;
        self.summary.total_activations += 1;
        let window = self.curr[i] as u64 + self.prev[i] as u64;
        if window > self.summary.max_window_activations {
            self.summary.max_window_activations = window;
        }
        let mut crossed = false;
        if window > self.t_rh && !self.flagged[i] {
            self.flagged[i] = true;
            self.summary.rows_over_trh += 1;
            crossed = true;
        }
        self.disturb_neighbours(row, i);
        crossed
    }

    /// Records a mitigative refresh of `row`: the refresh is itself a row
    /// activation (it disturbs the row's neighbours — the Half-Double
    /// mechanism) but it *restores* the row's own charge, resetting the
    /// disturbance accumulated on it.
    pub fn record_refresh(&mut self, row: RowAddr) {
        let i = self.index(row);
        self.curr[i] += 1;
        self.summary.total_activations += 1;
        self.dist_lo[i] = 0;
        self.dist_hi[i] = 0;
        self.disturb_neighbours(row, i);
    }

    fn disturb_neighbours(&mut self, row: RowAddr, i: usize) {
        if row.row > 0 {
            // `row` is the upper neighbour of `row - 1`.
            let below = i - 1;
            self.dist_hi[below] += 1;
            self.check_flippable(below);
        }
        if row.row + 1 < self.rows_per_bank {
            let above = i + 1;
            self.dist_lo[above] += 1;
            self.check_flippable(above);
        }
    }

    fn check_flippable(&mut self, i: usize) {
        if !self.flippable[i]
            && (self.dist_lo[i] as u64 > self.t_rh || self.dist_hi[i] as u64 > self.t_rh)
        {
            self.flippable[i] = true;
            self.summary.rows_flippable += 1;
        }
    }

    /// Current-epoch activation count of `row`.
    pub fn epoch_count(&self, row: RowAddr) -> u64 {
        self.curr[self.index(row)] as u64
    }

    /// Two-epoch window bound for `row`.
    pub fn window_count(&self, row: RowAddr) -> u64 {
        let i = self.index(row);
        self.curr[i] as u64 + self.prev[i] as u64
    }

    /// Whether a bit flip became possible in `row` at any point in the run
    /// (a single neighbour exceeded `T_RH` activations since `row`'s last
    /// refresh).
    pub fn is_flippable(&self, row: RowAddr) -> bool {
        self.flippable[self.index(row)]
    }

    /// Rolls over to the next epoch, folding the band histogram
    /// (Table II's 166+/500+/1000+ columns) into the running averages.
    pub fn end_epoch(&mut self) {
        for &c in &self.curr {
            let c = c as u64;
            if c >= 166 {
                self.band_totals[0] += 1;
                if c >= 500 {
                    self.band_totals[1] += 1;
                    if c >= 1000 {
                        self.band_totals[2] += 1;
                    }
                }
            }
        }
        self.summary.epochs += 1;
        std::mem::swap(&mut self.prev, &mut self.curr);
        self.curr.fill(0);
        // Every row receives its periodic refresh once per window, which
        // restores its charge; disturbance does not carry across epochs.
        self.dist_lo.fill(0);
        self.dist_hi.fill(0);
    }

    /// The oracle's summary (per-epoch band counts averaged over epochs).
    pub fn summary(&self) -> OracleSummary {
        let mut s = self.summary;
        let epochs = s.epochs.max(1);
        s.avg_rows_166 = self.band_totals[0] / epochs;
        s.avg_rows_500 = self.band_totals[1] / epochs;
        s.avg_rows_1000 = self.band_totals[2] / epochs;
        s
    }
}

/// Sentinel for "no data here". Stored in the same `u32` as logical row ids,
/// so a geometry with `u32::MAX` (~4.3 G) rows or more would collide with
/// it; [`ShadowMemory::new`] rejects such geometries up front. Every
/// configuration in this repository (paper-scale is 2 M rows per rank) is
/// orders of magnitude below the limit.
const VACANT: u32 = u32::MAX;

/// Tracks data placement across migrations and verifies translations.
#[derive(Debug)]
pub struct ShadowMemory {
    rows_per_bank: u32,
    /// `contents[phys]` = logical row id stored there (or `VACANT`).
    contents: Vec<u32>,
    violations: u64,
}

impl ShadowMemory {
    /// Creates the shadow with identity placement: every physical row holds
    /// its own logical row's data.
    ///
    /// # Panics
    ///
    /// Panics if the geometry has `u32::MAX` rows or more (the top row id
    /// would collide with the vacancy sentinel).
    pub fn new(geometry: &DramGeometry) -> Self {
        let rows = geometry.total_rows();
        assert!(
            rows < u64::from(VACANT),
            "geometry with {rows} rows collides with the shadow's vacancy sentinel"
        );
        ShadowMemory {
            rows_per_bank: geometry.rows_per_bank,
            contents: (0..rows as u32).collect(),
            violations: 0,
        }
    }

    /// Flat index of `row`, or `None` if the address lies outside the
    /// geometry the shadow was built for.
    fn index(&self, row: RowAddr) -> Option<usize> {
        if row.row >= self.rows_per_bank {
            return None;
        }
        let i = row.bank.index() as usize * self.rows_per_bank as usize + row.row as usize;
        (i < self.contents.len()).then_some(i)
    }

    /// Marks `row` as holding no data (reserved regions like AQUA's RQA).
    /// An out-of-geometry address is counted as a violation.
    pub fn vacate(&mut self, row: RowAddr) {
        match self.index(row) {
            Some(i) => self.contents[i] = VACANT,
            None => self.violations += 1,
        }
    }

    /// Integrity violations observed so far.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// The logical row whose data occupies `phys`, if any (`None` for vacant
    /// or out-of-geometry addresses).
    pub fn occupant(&self, phys: RowAddr) -> Option<GlobalRowId> {
        let c = self.contents[self.index(phys)?];
        (c != VACANT).then(|| GlobalRowId::new(c as u64))
    }

    /// Applies one declared data movement. Movements naming rows outside
    /// the geometry are dropped and counted.
    pub fn apply(&mut self, movement: DataMovement) {
        match movement {
            DataMovement::None => {}
            DataMovement::Move { from, to } => {
                let (Some(fi), Some(ti)) = (self.index(from), self.index(to)) else {
                    self.violations += 1;
                    return;
                };
                if self.contents[ti] != VACANT {
                    // Overwriting live data is a bug in the scheme's
                    // sequencing (e.g. installing before evicting).
                    self.violations += 1;
                }
                self.contents[ti] = self.contents[fi];
                self.contents[fi] = VACANT;
            }
            DataMovement::Swap { a, b } => {
                let (Some(ai), Some(bi)) = (self.index(a), self.index(b)) else {
                    self.violations += 1;
                    return;
                };
                self.contents.swap(ai, bi);
            }
        }
    }

    /// Whether accessing `phys` would return the data of logical `row`
    /// (non-mutating: used by the fault driver's end-of-run audit).
    pub fn check(&self, row: GlobalRowId, phys: RowAddr) -> bool {
        self.index(phys)
            .is_some_and(|i| u64::from(self.contents[i]) == row.index())
    }

    /// Verifies that accessing `phys` returns the data of logical `row`,
    /// counting a violation (and returning `false`) if it does not.
    pub fn verify(&mut self, row: GlobalRowId, phys: RowAddr) -> bool {
        let ok = self.check(row, phys);
        if !ok {
            self.violations += 1;
        }
        ok
    }
}

mod tests {
    use super as dense;
    use crate::paged::PAGE_ROWS;
    use crate::{ActivationOracle, ShadowMemory};
    use aqua_dram::mitigation::DataMovement;
    use aqua_dram::{BankId, DramGeometry, GlobalRowId, RowAddr};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `tiny()` has whole pages with banks on page edges; the odd geometry
    /// puts bank edges inside pages and ends on a partial page.
    fn geometries() -> [DramGeometry; 2] {
        let tiny = DramGeometry::tiny();
        let odd = DramGeometry {
            banks_per_rank: 3,
            rows_per_bank: 1000,
            ..tiny
        };
        [tiny, odd]
    }

    /// A random row, biased to where paging can go wrong: either side of a
    /// page edge, the edges of a bank, and a few hot rows that cross the
    /// thresholds.
    fn pick_row(rng: &mut StdRng, g: &DramGeometry) -> RowAddr {
        let rows = g.total_rows();
        let rpb = u64::from(g.rows_per_bank);
        let page = PAGE_ROWS as u64;
        let flat = match rng.gen_range(0..8u32) {
            0..=2 => rng.gen_range(1..rows / page) * page - 1 + rng.gen_range(0..3u64),
            3 | 4 => {
                let bank = rng.gen_range(0..u64::from(g.total_banks()));
                bank * rpb + [0, 1, rpb - 2, rpb - 1][rng.gen_range(0..4usize)]
            }
            5 | 6 => 500 + 37 * rng.gen_range(0..4u64),
            _ => rng.gen_range(0..rows),
        };
        g.expand(GlobalRowId::new(flat)).unwrap()
    }

    /// Rows `row - 2 ..= row + 2` within its bank.
    fn around(row: RowAddr, g: &DramGeometry) -> impl Iterator<Item = RowAddr> {
        let lo = row.row.saturating_sub(2);
        let hi = (row.row + 2).min(g.rows_per_bank - 1);
        (lo..=hi).map(move |r| RowAddr { row: r, ..row })
    }

    fn all_rows(g: &DramGeometry) -> impl Iterator<Item = RowAddr> {
        let g = *g;
        (0..g.total_rows()).map(move |i| g.expand(GlobalRowId::new(i)).unwrap())
    }

    fn assert_oracles_agree(
        dense: &dense::ActivationOracle,
        paged: &ActivationOracle,
        rows: impl Iterator<Item = RowAddr>,
    ) {
        assert_eq!(dense.summary(), paged.summary());
        for row in rows {
            assert_eq!(dense.epoch_count(row), paged.epoch_count(row), "{row:?}");
            assert_eq!(dense.window_count(row), paged.window_count(row), "{row:?}");
            assert_eq!(dense.is_flippable(row), paged.is_flippable(row), "{row:?}");
        }
    }

    #[test]
    fn paged_oracle_matches_dense_reference() {
        for (seed, g) in (0..6u64).zip(geometries().into_iter().cycle()) {
            let mut rng = StdRng::seed_from_u64(seed);
            let t_rh = [12, 150][seed as usize % 2];
            let mut dense = dense::ActivationOracle::new(&g, t_rh);
            let mut paged = ActivationOracle::new(&g, t_rh);
            for step in 0..1500 {
                let row = pick_row(&mut rng, &g);
                match rng.gen_range(0..100u32) {
                    0 => {
                        dense.end_epoch();
                        paged.end_epoch();
                    }
                    1..=10 => {
                        dense.record_refresh(row);
                        paged.record_refresh(row);
                    }
                    // A burst long enough to reach the 166/500/1000 bands.
                    11..=14 => {
                        for _ in 0..rng.gen_range(1..1200u32) {
                            assert_eq!(dense.record(row), paged.record(row), "{row:?}");
                        }
                    }
                    _ => assert_eq!(dense.record(row), paged.record(row), "{row:?}"),
                }
                if step % 100 == 99 {
                    assert_oracles_agree(&dense, &paged, all_rows(&g));
                } else {
                    assert_oracles_agree(&dense, &paged, around(row, &g));
                }
            }
            dense.end_epoch();
            paged.end_epoch();
            assert_oracles_agree(&dense, &paged, all_rows(&g));
            let s = paged.summary();
            assert!(s.rows_over_trh > 0 && s.rows_flippable > 0 && s.avg_rows_166 > 0);
        }
    }

    /// A row the shadow must reject: past the last bank or the bank's end.
    fn outside(rng: &mut StdRng, g: &DramGeometry) -> RowAddr {
        if rng.gen_range(0..2u32) == 0 {
            RowAddr {
                bank: BankId::new(g.total_banks()),
                row: 0,
            }
        } else {
            RowAddr {
                bank: BankId::new(rng.gen_range(0..g.total_banks())),
                row: g.rows_per_bank,
            }
        }
    }

    fn assert_shadows_agree(
        dense: &dense::ShadowMemory,
        paged: &ShadowMemory,
        g: &DramGeometry,
        rows: impl Iterator<Item = RowAddr>,
    ) {
        assert_eq!(dense.violations(), paged.violations());
        for row in rows {
            let occupant = dense.occupant(row);
            assert_eq!(occupant, paged.occupant(row), "{row:?}");
            let own = g.flatten(row).unwrap_or(GlobalRowId::new(0));
            for data in [occupant.unwrap_or(own), own] {
                assert_eq!(dense.check(data, row), paged.check(data, row), "{row:?}");
            }
        }
    }

    #[test]
    fn paged_shadow_matches_dense_reference() {
        for (seed, g) in (0..6u64).zip(geometries().into_iter().cycle()) {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let mut dense = dense::ShadowMemory::new(&g);
            let mut paged = ShadowMemory::new(&g);
            // Rows vacated so far: moves mostly target one of them, as a
            // scheme installing into its reserved area does.
            let mut vacated = Vec::new();
            for step in 0..1500 {
                let mut row = || {
                    if rng.gen_range(0..50u32) == 0 {
                        outside(&mut rng, &g)
                    } else {
                        pick_row(&mut rng, &g)
                    }
                };
                let (a, b) = (row(), row());
                match rng.gen_range(0..10u32) {
                    0 => {
                        dense.vacate(a);
                        paged.vacate(a);
                        vacated.push(a);
                    }
                    1..=3 => {
                        let to = if vacated.is_empty() || rng.gen_range(0..4u32) == 0 {
                            b
                        } else {
                            vacated.swap_remove(rng.gen_range(0..vacated.len()))
                        };
                        let movement = DataMovement::Move { from: a, to };
                        dense.apply(movement);
                        paged.apply(movement);
                        vacated.push(a);
                    }
                    4..=6 => {
                        let movement = DataMovement::Swap { a, b };
                        dense.apply(movement);
                        paged.apply(movement);
                    }
                    _ => {
                        // Verify against the true occupant or a wrong row.
                        let data = match dense.occupant(a) {
                            Some(d) if rng.gen_range(0..4u32) != 0 => d,
                            _ => GlobalRowId::new(rng.gen_range(0..g.total_rows())),
                        };
                        assert_eq!(dense.verify(data, a), paged.verify(data, a), "{a:?}");
                    }
                }
                if step % 100 == 99 {
                    assert_shadows_agree(&dense, &paged, &g, all_rows(&g));
                } else {
                    let touched = around(a, &g).chain(around(b, &g));
                    assert_shadows_agree(&dense, &paged, &g, touched);
                }
            }
            assert_shadows_agree(&dense, &paged, &g, all_rows(&g));
            assert!(
                paged.violations() > 0,
                "the sequence reached the violation paths"
            );
        }
    }
}
