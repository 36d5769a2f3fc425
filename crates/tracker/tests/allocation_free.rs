//! Once a bank has reached its working size, `MisraGriesTracker` allocates
//! nothing: on full tables, a second epoch that replays the first epoch's
//! stream makes no heap allocation. The count needs a global allocator,
//! which takes `unsafe` code the library itself forbids, so this test has
//! a file of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use aqua_dram::{BankId, RowAddr};
use aqua_tracker::{AggressorTracker, MisraGriesTracker, TrackerConfig};

/// The system allocator, counting the allocations of threads that set
/// `COUNTING`.
struct Counting;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Counts one allocation if this thread is counting. It allocates nothing
/// itself: the thread local is `const`-initialised and has no destructor.
fn count() {
    if COUNTING.try_with(Cell::get).unwrap_or(false) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: each method passes its caller's arguments unchanged to `System`,
// so `System` upholds the `GlobalAlloc` contract for it.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` are passed on.
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, that is from `System`, with
        // `layout`; the caller's guarantees for `realloc` are passed on.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Half the activations hammer 8 rows per bank, enough to cross the
/// threshold; the other half are spread over every row of a bank, so each
/// table fills and keeps replacing entries.
fn stream(banks: u32, len: usize) -> Vec<RowAddr> {
    let mut state = 0x2545_f491_4f6c_dd1d_u64;
    (0..len)
        .map(|i| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let row = if i % 2 == 0 {
                (state % 8) as u32 * 1021
            } else {
                (state % 131_072) as u32
            };
            RowAddr {
                bank: BankId::new(i as u32 % banks),
                row,
            }
        })
        .collect()
}

#[test]
fn a_replayed_epoch_on_full_tables_allocates_nothing() {
    let banks = 16;
    let mut tracker = MisraGriesTracker::new(TrackerConfig::for_rowhammer_threshold(1000), banks);
    let stream = stream(banks, 16 * 30_000);
    let first: Vec<_> = stream
        .iter()
        .map(|&row| tracker.on_activation(row))
        .collect();
    let stats = tracker.stats();
    assert!(stats.replacements > 100_000, "{stats:?}");
    assert!(stats.mitigations > 0, "{stats:?}");
    tracker.end_epoch();

    let mut second = Vec::with_capacity(stream.len());
    COUNTING.with(|c| c.set(true));
    for &row in &stream {
        second.push(tracker.on_activation(row));
    }
    COUNTING.with(|c| c.set(false));
    assert_eq!(ALLOCATIONS.load(Ordering::Relaxed), 0);
    assert_eq!(first, second);
}
