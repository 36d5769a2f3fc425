//! Shadow memory: end-to-end data-placement verification.
//!
//! Every row migration a mitigation scheme performs is declared as a
//! [`DataMovement`](aqua_dram::mitigation::DataMovement). The shadow memory
//! replays those movements on a map of *which logical row's data lives in
//! each physical row* and checks, on every access, that the scheme's address
//! translation resolved to the physical row that actually holds the
//! requested data. Any divergence — an FPT pointing at a recycled slot, an
//! eviction to the wrong home, a mis-sequenced swap — shows up as an
//! integrity violation instead of silent data corruption.
//!
//! The shadow itself must survive corrupt inputs: under fault injection a
//! scheme may hand it an out-of-geometry address. Those are *counted* as
//! violations, never panics, so a fault campaign can keep simulating and
//! report the damage at the end of the run.

use crate::paged::{Pages, PAGE_ROWS};
use aqua_dram::mitigation::DataMovement;
use aqua_dram::{DramGeometry, GlobalRowId, RowAddr};

/// Sentinel for "no data here". Stored in the same `u32` as logical row ids,
/// so a geometry with `u32::MAX` (~4.3 G) rows or more would collide with
/// it; [`ShadowMemory::new`] rejects such geometries up front. Every
/// configuration in this repository (paper-scale is 2 M rows per rank) is
/// orders of magnitude below the limit.
const VACANT: u32 = u32::MAX;

/// Tracks data placement across migrations and verifies translations.
///
/// Placement is kept in pages of `PAGE_ROWS` physical rows. A page that
/// no vacancy or movement ever wrote holds identity placement, so it is
/// not stored at all and verifying an access to it is one comparison.
#[derive(Debug)]
pub struct ShadowMemory {
    rows_per_bank: u32,
    rows: u64,
    /// Logical row id stored in each physical row (or `VACANT`).
    pages: Pages<[u32; PAGE_ROWS]>,
    violations: u64,
}

/// Identity placement of page `p`: each row holds its own data.
fn identity_page(p: usize) -> [u32; PAGE_ROWS] {
    std::array::from_fn(|j| (p * PAGE_ROWS + j) as u32)
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
            rows,
            pages: Pages::new(rows, identity_page),
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
        ((i as u64) < self.rows).then_some(i)
    }

    /// The logical row id stored at flat index `i`.
    fn contents(&self, i: usize) -> u32 {
        self.pages
            .get(i / PAGE_ROWS)
            .map_or(i as u32, |page| page[i % PAGE_ROWS])
    }

    /// Stores logical row id `c` at flat index `i`.
    fn set(&mut self, i: usize, c: u32) {
        self.pages.get_mut(i / PAGE_ROWS)[i % PAGE_ROWS] = c;
    }

    /// Marks `row` as holding no data (reserved regions like AQUA's RQA).
    /// An out-of-geometry address is counted as a violation.
    pub fn vacate(&mut self, row: RowAddr) {
        match self.index(row) {
            Some(i) => self.set(i, VACANT),
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
        let c = self.contents(self.index(phys)?);
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
                if self.contents(ti) != VACANT {
                    // Overwriting live data is a bug in the scheme's
                    // sequencing (e.g. installing before evicting).
                    self.violations += 1;
                }
                self.set(ti, self.contents(fi));
                self.set(fi, VACANT);
            }
            DataMovement::Swap { a, b } => {
                let (Some(ai), Some(bi)) = (self.index(a), self.index(b)) else {
                    self.violations += 1;
                    return;
                };
                let (ca, cb) = (self.contents(ai), self.contents(bi));
                self.set(ai, cb);
                self.set(bi, ca);
            }
        }
    }

    /// Whether accessing `phys` would return the data of logical `row`
    /// (non-mutating: used by the fault driver's end-of-run audit).
    pub fn check(&self, row: GlobalRowId, phys: RowAddr) -> bool {
        self.index(phys)
            .is_some_and(|i| u64::from(self.contents(i)) == row.index())
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

    /// Pages allocated so far (each written by a vacancy or movement).
    #[cfg(test)]
    pub(crate) fn allocated_pages(&self) -> usize {
        self.pages.allocated()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aqua_dram::BankId;

    fn addr(row: u32) -> RowAddr {
        RowAddr {
            bank: BankId::new(0),
            row,
        }
    }

    fn shadow() -> ShadowMemory {
        ShadowMemory::new(&DramGeometry::tiny())
    }

    #[test]
    fn identity_placement_verifies() {
        let mut s = shadow();
        assert!(s.verify(GlobalRowId::new(5), addr(5)));
        assert_eq!(s.violations(), 0);
        assert!(!s.verify(GlobalRowId::new(5), addr(6)));
        assert_eq!(s.violations(), 1);
    }

    #[test]
    fn move_relocates_data() {
        let mut s = shadow();
        s.vacate(addr(900));
        s.apply(DataMovement::Move {
            from: addr(5),
            to: addr(900),
        });
        s.verify(GlobalRowId::new(5), addr(900));
        assert_eq!(s.occupant(addr(5)), None);
        assert_eq!(s.violations(), 0);
    }

    #[test]
    fn move_onto_live_data_is_flagged() {
        let mut s = shadow();
        s.apply(DataMovement::Move {
            from: addr(5),
            to: addr(6),
        });
        assert_eq!(s.violations(), 1);
    }

    #[test]
    fn swap_exchanges_data() {
        let mut s = shadow();
        s.apply(DataMovement::Swap {
            a: addr(3),
            b: addr(9),
        });
        s.verify(GlobalRowId::new(3), addr(9));
        s.verify(GlobalRowId::new(9), addr(3));
        assert_eq!(s.violations(), 0);
        // Swapping back restores identity.
        s.apply(DataMovement::Swap {
            a: addr(3),
            b: addr(9),
        });
        s.verify(GlobalRowId::new(3), addr(3));
        assert_eq!(s.violations(), 0);
    }

    #[test]
    fn round_trip_move_restores_home() {
        let mut s = shadow();
        s.vacate(addr(1000));
        s.apply(DataMovement::Move {
            from: addr(7),
            to: addr(1000),
        });
        s.apply(DataMovement::Move {
            from: addr(1000),
            to: addr(7),
        });
        s.verify(GlobalRowId::new(7), addr(7));
        assert_eq!(s.occupant(addr(1000)), None);
        assert_eq!(s.violations(), 0);
    }

    #[test]
    fn out_of_geometry_addresses_are_counted_not_fatal() {
        let g = DramGeometry::tiny();
        let mut s = ShadowMemory::new(&g);
        let bad = RowAddr {
            bank: BankId::new(0),
            row: g.rows_per_bank, // one past the last row of the bank
        };
        assert!(!s.verify(GlobalRowId::new(0), bad));
        s.vacate(bad);
        s.apply(DataMovement::Move {
            from: bad,
            to: addr(3),
        });
        s.apply(DataMovement::Swap { a: addr(3), b: bad });
        assert_eq!(s.violations(), 4);
        assert_eq!(s.occupant(bad), None);
        // In-geometry state is untouched by the rejected movements.
        assert!(s.check(GlobalRowId::new(3), addr(3)));
    }

    #[test]
    fn check_is_non_mutating() {
        let s = shadow();
        assert!(s.check(GlobalRowId::new(5), addr(5)));
        assert!(!s.check(GlobalRowId::new(5), addr(6)));
        assert_eq!(s.violations(), 0);
    }
}
