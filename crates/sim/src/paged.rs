//! Per-row state kept in pages of consecutive physical rows, each page
//! allocated the first time one of its rows is written.
//!
//! The oracle and the shadow memory hold one entry per physical row, 2 M
//! rows on the paper's module, yet a quiet workload touches a few thousand.
//! Paging lets their set-up and epoch roll-over cost follow the touched
//! rows: a page that was never written still reads as its initial state,
//! which each user defines through the `init` function it hands to
//! [`Pages::new`].

/// Rows per page. 256 rows of the oracle's four `u32` counters fill one
/// 4 KiB memory page, and an activated row shares its page with both
/// neighbours unless it is one of the page's two edge rows.
pub(crate) const PAGE_ROWS: usize = 256;

/// A page directory over a fixed number of rows. Pages are boxed one by
/// one, so allocating one never moves or reserves memory for the others.
#[derive(Debug)]
pub(crate) struct Pages<P> {
    /// The page holding each `PAGE_ROWS` rows, once written.
    dir: Vec<Option<Box<P>>>,
    /// Numbers of the allocated pages, in allocation order.
    live: Vec<usize>,
    /// Builds page `p` (rows `p * PAGE_ROWS ..`) on its first write.
    init: fn(usize) -> P,
}

impl<P> Pages<P> {
    /// An empty directory covering `rows` rows.
    pub(crate) fn new(rows: u64, init: fn(usize) -> P) -> Self {
        let pages = rows.div_ceil(PAGE_ROWS as u64) as usize;
        Pages {
            dir: std::iter::repeat_with(|| None).take(pages).collect(),
            live: Vec::new(),
            init,
        }
    }

    /// Page `p`, if it was ever written.
    pub(crate) fn get(&self, p: usize) -> Option<&P> {
        self.dir[p].as_deref()
    }

    /// Page `p`, allocated from its initial state on first use.
    pub(crate) fn get_mut(&mut self, p: usize) -> &mut P {
        let (init, live) = (self.init, &mut self.live);
        self.dir[p].get_or_insert_with(|| {
            live.push(p);
            new_page(init, p)
        })
    }

    /// Calls `f` on every allocated page, in allocation order.
    pub(crate) fn for_each_mut(&mut self, mut f: impl FnMut(&mut P)) {
        for &p in &self.live {
            if let Some(page) = self.dir[p].as_deref_mut() {
                f(page);
            }
        }
    }

    /// Number of allocated pages.
    #[cfg(test)]
    pub(crate) fn allocated(&self) -> usize {
        self.live.len()
    }

    /// Number of pages the directory covers.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.dir.len()
    }
}

/// Builds page `p` out of line: a page is kilobytes, and building it
/// inside [`Pages::get_mut`] would give every lookup a page-sized stack
/// frame (with a stack probe on each call).
#[cold]
#[inline(never)]
fn new_page<P>(init: fn(usize) -> P, p: usize) -> Box<P> {
    Box::new(init(p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationOracle, ShadowMemory};
    use aqua_dram::DramGeometry;
    use aqua_workload::{spec, AddressSpace, RequestGenerator};
    use std::collections::BTreeSet;

    #[test]
    fn quiet_stream_allocates_only_the_pages_it_touches() {
        let g = DramGeometry::paper_table1();
        let space = AddressSpace::new(g, 0.97);
        let povray = spec::by_name("povray").unwrap();
        let mut oracle = ActivationOracle::new(&g, 1000);
        let mut shadow = ShadowMemory::new(&g);
        oracle.end_epoch();
        assert_eq!(
            oracle.allocated_pages(),
            0,
            "an idle epoch allocates nothing"
        );

        // Every access of one epoch on four cores, each counted as an
        // activation (an upper bound on what the simulator records).
        let mut expected = BTreeSet::new();
        for core in 0..4 {
            let mut gen = povray.generator(&space, core, 4, 42);
            for _ in 0..gen.requests_per_epoch() {
                let req = gen.next_request();
                let phys = g.expand(req.row).unwrap();
                oracle.record(phys);
                assert!(shadow.verify(req.row, phys));
                let i = req.row.index();
                expected.insert(i / PAGE_ROWS as u64);
                if phys.row > 0 {
                    expected.insert((i - 1) / PAGE_ROWS as u64);
                }
                if phys.row + 1 < g.rows_per_bank {
                    expected.insert((i + 1) / PAGE_ROWS as u64);
                }
            }
        }
        oracle.end_epoch();
        assert_eq!(oracle.allocated_pages(), expected.len());
        assert!(
            expected.len() * 100 <= oracle.page_capacity(),
            "{} of {} pages",
            expected.len(),
            oracle.page_capacity()
        );
        assert_eq!(
            shadow.allocated_pages(),
            0,
            "identity placement is never stored"
        );
    }

    #[test]
    fn pages_read_as_initial_state_until_written() {
        let mut pages: Pages<[u32; PAGE_ROWS]> =
            Pages::new(3 * PAGE_ROWS as u64 + 1, |p| [p as u32; PAGE_ROWS]);
        assert_eq!(
            pages.capacity(),
            4,
            "a partial last page still gets an entry"
        );
        assert!(pages.get(2).is_none());
        pages.get_mut(2)[7] = 99;
        pages.get_mut(0)[0] = 5;
        assert_eq!(pages.get(2).map(|p| (p[0], p[7])), Some((2, 99)));
        assert_eq!(pages.allocated(), 2);
        assert!(pages.get(1).is_none());
        let mut firsts = Vec::new();
        pages.for_each_mut(|p| firsts.push(p[0]));
        assert_eq!(firsts, [2, 5], "live pages are walked in allocation order");
    }
}
