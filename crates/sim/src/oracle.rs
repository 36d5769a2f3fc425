//! Ground-truth activation oracle (the security checker).

use crate::paged::{Pages, PAGE_ROWS};
use aqua_dram::{DramGeometry, RowAddr};
use serde::{Deserialize, Serialize};

/// Summary of what the oracle observed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OracleSummary {
    /// Maximum activations any physical row accumulated in a two-epoch
    /// window (the refresh-window upper bound of section VI-A).
    pub max_window_activations: u64,
    /// Distinct physical rows whose window count exceeded `T_RH` —
    /// each one is a potential Rowhammer bit flip.
    pub rows_over_trh: u64,
    /// Total activations recorded (normal + victim refresh).
    pub total_activations: u64,
    /// Distinct rows where a Rowhammer bit flip is possible: some *single*
    /// adjacent row accumulated more than `T_RH` activations since this
    /// row's last refresh. Victim refreshes reset the disturbance, so this
    /// metric credits victim-refresh where it works — and exposes
    /// Half-Double where it does not.
    pub rows_flippable: u64,
    /// Average rows per epoch with 166+ activations (Table II column).
    pub avg_rows_166: u64,
    /// Average rows per epoch with 500+ activations (Table II column).
    pub avg_rows_500: u64,
    /// Average rows per epoch with 1000+ activations (Table II column).
    pub avg_rows_1000: u64,
    /// Epochs completed.
    pub epochs: u64,
}

/// Counts every activation of every *physical* row, independent of the
/// mitigation scheme's own (fallible, resettable) tracker.
///
/// Any 64 ms refresh window spans at most two tracker epochs, so the count
/// `previous_epoch + current_epoch` upper-bounds the sliding-window
/// activation count of a row; a row whose bound exceeds `T_RH` is reported
/// as vulnerable.
///
/// Rows are counted in pages of `PAGE_ROWS` rows, allocated by the first
/// activation that touches one (the row itself or a neighbour it disturbs).
/// A page never touched reads as all zero, so construction and
/// [`end_epoch`](Self::end_epoch) cost follows the touched rows, not the
/// module size.
#[derive(Debug)]
pub struct ActivationOracle {
    t_rh: u64,
    rows_per_bank: u32,
    pages: Pages<OraclePage>,
    summary: OracleSummary,
    band_totals: [u64; 3],
}

/// The counters of one row, kept together so a row and its neighbours
/// share cache lines.
#[derive(Debug, Default, Clone, Copy)]
struct RowCounts {
    /// Activations in the current epoch.
    curr: u32,
    /// Activations in the previous epoch.
    prev: u32,
    /// Disturbance from the lower neighbour (`row - 1`) since the row's
    /// last refresh.
    dist_lo: u32,
    /// Disturbance from the upper neighbour (`row + 1`).
    dist_hi: u32,
}

/// Oracle state of [`PAGE_ROWS`] consecutive physical rows.
#[derive(Debug)]
struct OraclePage {
    rows: [RowCounts; PAGE_ROWS],
    /// Rows already counted in `rows_over_trh`.
    flagged: [bool; PAGE_ROWS],
    /// Rows already counted in `rows_flippable`.
    flippable: [bool; PAGE_ROWS],
}

impl OraclePage {
    fn new() -> Self {
        OraclePage {
            rows: [RowCounts::default(); PAGE_ROWS],
            flagged: [false; PAGE_ROWS],
            flippable: [false; PAGE_ROWS],
        }
    }

    /// Adds one activation of an adjacent row to row `j`'s disturbance
    /// from below (`from_below`) or above; returns 1 if that first made the
    /// row flippable, else 0.
    fn disturb(&mut self, j: usize, from_below: bool, t_rh: u64) -> u64 {
        let r = &mut self.rows[j];
        if from_below {
            r.dist_lo += 1;
        } else {
            r.dist_hi += 1;
        }
        let newly =
            !self.flippable[j] && (u64::from(r.dist_lo) > t_rh || u64::from(r.dist_hi) > t_rh);
        self.flippable[j] |= newly;
        u64::from(newly)
    }
}

impl ActivationOracle {
    /// Creates the oracle for a module, flagging rows whose two-epoch count
    /// exceeds `t_rh`.
    pub fn new(geometry: &DramGeometry, t_rh: u64) -> Self {
        ActivationOracle {
            t_rh,
            rows_per_bank: geometry.rows_per_bank,
            pages: Pages::new(geometry.total_rows(), |_| OraclePage::new()),
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
        self.activate(row, false)
    }

    /// Records a mitigative refresh of `row`: the refresh is itself a row
    /// activation (it disturbs the row's neighbours — the Half-Double
    /// mechanism) but it *restores* the row's own charge, resetting the
    /// disturbance accumulated on it.
    pub fn record_refresh(&mut self, row: RowAddr) {
        self.activate(row, true);
    }

    /// One activation of `row`, a normal one or a `refresh`. The row and
    /// its in-bank neighbours are updated through one page lookup unless a
    /// neighbour lies across a page edge.
    fn activate(&mut self, row: RowAddr, refresh: bool) -> bool {
        let i = self.index(row);
        let (p, j) = (i / PAGE_ROWS, i % PAGE_ROWS);
        let below = row.row > 0;
        let above = row.row + 1 < self.rows_per_bank;
        let t_rh = self.t_rh;
        let s = &mut self.summary;
        let page = self.pages.get_mut(p);
        let r = &mut page.rows[j];
        r.curr += 1;
        s.total_activations += 1;
        let mut crossed = false;
        if refresh {
            r.dist_lo = 0;
            r.dist_hi = 0;
        } else {
            let window = u64::from(r.curr) + u64::from(r.prev);
            s.max_window_activations = s.max_window_activations.max(window);
            crossed = window > t_rh && !page.flagged[j];
            page.flagged[j] |= crossed;
            s.rows_over_trh += u64::from(crossed);
        }
        // `row` is the upper neighbour of `row - 1` and the lower
        // neighbour of `row + 1`.
        if below && j > 0 {
            s.rows_flippable += page.disturb(j - 1, false, t_rh);
        }
        if above && j + 1 < PAGE_ROWS {
            s.rows_flippable += page.disturb(j + 1, true, t_rh);
        }
        if below && j == 0 {
            s.rows_flippable += self
                .pages
                .get_mut(p - 1)
                .disturb(PAGE_ROWS - 1, false, t_rh);
        }
        if above && j + 1 == PAGE_ROWS {
            s.rows_flippable += self.pages.get_mut(p + 1).disturb(0, true, t_rh);
        }
        crossed
    }

    /// The counters of `row` (all zero on a page never touched).
    fn counts(&self, row: RowAddr) -> RowCounts {
        let i = self.index(row);
        self.pages
            .get(i / PAGE_ROWS)
            .map_or_else(RowCounts::default, |page| page.rows[i % PAGE_ROWS])
    }

    /// Current-epoch activation count of `row`.
    pub fn epoch_count(&self, row: RowAddr) -> u64 {
        u64::from(self.counts(row).curr)
    }

    /// Two-epoch window bound for `row`.
    pub fn window_count(&self, row: RowAddr) -> u64 {
        let r = self.counts(row);
        u64::from(r.curr) + u64::from(r.prev)
    }

    /// Whether a bit flip became possible in `row` at any point in the run
    /// (a single neighbour exceeded `T_RH` activations since `row`'s last
    /// refresh).
    pub fn is_flippable(&self, row: RowAddr) -> bool {
        let i = self.index(row);
        self.pages
            .get(i / PAGE_ROWS)
            .is_some_and(|page| page.flippable[i % PAGE_ROWS])
    }

    /// Rolls over to the next epoch, folding the band histogram
    /// (Table II's 166+/500+/1000+ columns) into the running averages.
    /// Only allocated pages are walked: every other row has zero counts.
    pub fn end_epoch(&mut self) {
        let bands = &mut self.band_totals;
        self.pages.for_each_mut(|page| {
            for r in &mut page.rows {
                let c = u64::from(r.curr);
                if c >= 166 {
                    bands[0] += 1;
                    if c >= 500 {
                        bands[1] += 1;
                        if c >= 1000 {
                            bands[2] += 1;
                        }
                    }
                }
                // Every row receives its periodic refresh once per window,
                // which restores its charge; disturbance does not carry
                // across epochs.
                *r = RowCounts {
                    prev: r.curr,
                    ..RowCounts::default()
                };
            }
        });
        self.summary.epochs += 1;
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

    /// Pages allocated so far, out of [`Self::page_capacity`].
    #[cfg(test)]
    pub(crate) fn allocated_pages(&self) -> usize {
        self.pages.allocated()
    }

    /// Pages covering the whole module.
    #[cfg(test)]
    pub(crate) fn page_capacity(&self) -> usize {
        self.pages.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BankId;

    fn addr(bank: u32, row: u32) -> RowAddr {
        RowAddr {
            bank: BankId::new(bank),
            row,
        }
    }

    fn oracle(t_rh: u64) -> ActivationOracle {
        ActivationOracle::new(&DramGeometry::tiny(), t_rh)
    }

    #[test]
    fn counts_accumulate_per_row() {
        let mut o = oracle(100);
        for _ in 0..5 {
            o.record(addr(0, 1));
        }
        o.record(addr(1, 1));
        assert_eq!(o.epoch_count(addr(0, 1)), 5);
        assert_eq!(o.epoch_count(addr(1, 1)), 1);
        assert_eq!(o.summary().total_activations, 6);
    }

    #[test]
    fn window_spans_two_epochs() {
        let mut o = oracle(100);
        for _ in 0..60 {
            o.record(addr(0, 1));
        }
        o.end_epoch();
        for _ in 0..50 {
            o.record(addr(0, 1));
        }
        // 60 + 50 = 110 > 100: flagged once.
        assert_eq!(o.window_count(addr(0, 1)), 110);
        let s = o.summary();
        assert_eq!(s.rows_over_trh, 1);
        assert_eq!(s.max_window_activations, 110);
    }

    #[test]
    fn window_forgets_after_two_epochs() {
        let mut o = oracle(100);
        for _ in 0..60 {
            o.record(addr(0, 1));
        }
        o.end_epoch();
        o.end_epoch();
        for _ in 0..60 {
            o.record(addr(0, 1));
        }
        assert_eq!(o.summary().rows_over_trh, 0);
    }

    #[test]
    fn exactly_trh_is_not_a_violation() {
        // The threat model: a flip needs MORE than T_RH activations.
        let mut o = oracle(100);
        for _ in 0..100 {
            o.record(addr(0, 1));
        }
        assert_eq!(o.summary().rows_over_trh, 0);
        o.record(addr(0, 1));
        assert_eq!(o.summary().rows_over_trh, 1);
    }

    #[test]
    fn band_histogram_averages_over_epochs() {
        let mut o = oracle(10_000);
        // Epoch 1: one row with 200 acts, one with 600.
        for _ in 0..200 {
            o.record(addr(0, 1));
        }
        for _ in 0..600 {
            o.record(addr(0, 2));
        }
        o.end_epoch();
        // Epoch 2: nothing.
        o.end_epoch();
        let s = o.summary();
        assert_eq!(s.epochs, 2);
        assert_eq!(s.avg_rows_166, 1); // 2 rows / 2 epochs
        assert_eq!(s.avg_rows_500, 0); // 1 row / 2 epochs, integer division
    }

    #[test]
    fn disturbance_accumulates_from_single_neighbour() {
        let mut o = oracle(10);
        // Hammer row 5; row 4 and row 6 each accumulate disturbance.
        for _ in 0..11 {
            o.record(addr(0, 5));
        }
        let s = o.summary();
        assert_eq!(s.rows_flippable, 2, "{s:?}");
    }

    #[test]
    fn refresh_resets_victim_disturbance() {
        let mut o = oracle(10);
        for _ in 0..8 {
            o.record(addr(0, 5));
        }
        // Victim refresh of row 6 restores its charge.
        o.record_refresh(addr(0, 6));
        for _ in 0..8 {
            o.record(addr(0, 5));
        }
        // Row 6 never saw more than 8 post-refresh activations; row 4 did.
        assert_eq!(o.summary().rows_flippable, 1);
    }

    #[test]
    fn refreshes_disturb_the_next_row_over() {
        // The Half-Double mechanism in miniature: refreshes of row 6 count
        // as activations adjacent to row 7.
        let mut o = oracle(10);
        for _ in 0..11 {
            o.record_refresh(addr(0, 6));
        }
        let s = o.summary();
        assert!(s.rows_flippable >= 1);
    }

    #[test]
    fn bank_edges_do_not_wrap() {
        let mut o = oracle(5);
        let last = DramGeometry::tiny().rows_per_bank - 1;
        for _ in 0..10 {
            o.record(addr(0, 0));
            o.record(addr(0, last));
        }
        // Only the single in-bank neighbour of each edge row is disturbed.
        assert_eq!(o.summary().rows_flippable, 2);
    }

    #[test]
    fn disturbance_resets_at_epoch() {
        let mut o = oracle(10);
        for _ in 0..8 {
            o.record(addr(0, 5));
        }
        o.end_epoch();
        for _ in 0..8 {
            o.record(addr(0, 5));
        }
        assert_eq!(o.summary().rows_flippable, 0);
    }

    #[test]
    fn flagged_rows_counted_once() {
        let mut o = oracle(10);
        for _ in 0..50 {
            o.record(addr(0, 1));
        }
        assert_eq!(o.summary().rows_over_trh, 1);
    }
}
