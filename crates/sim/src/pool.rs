//! A bounded worker pool for embarrassingly-parallel work.
//!
//! Hand-rolled on `std::thread::scope` — no external dependencies, no
//! unsafe. Jobs are index-tagged, so results always come back in input
//! order regardless of how the OS schedules the workers, and a panicking
//! job is contained to its own cell (`Err(panic message)`) instead of
//! aborting the whole run. Both the sharded multi-channel simulator (one
//! job per channel shard) and the bench harness (one job per experiment
//! cell) fan out on this pool.

// Lock unwraps here are on mutexes no job can poison (job panics are
// contained by `catch_unwind` before they reach a lock), and the final
// slot expect is a pool invariant.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `f(index, item)` over every item with at most `jobs` running
/// concurrently, returning results in input order.
///
/// `jobs <= 1` (or a single item) recovers strictly serial behaviour: every
/// job runs inline on the caller's thread and no threads are spawned.
/// A job that panics yields `Err` carrying the panic message; the remaining
/// jobs still run to completion.
pub fn run_indexed<I, T, F>(jobs: usize, items: &[I], f: F) -> Vec<Result<T, String>>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| run_one(i, item, &f))
            .collect();
    }
    let workers = jobs.min(items.len());
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..items.len()).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let outcome = run_one(i, &items[i], &f);
                *slots[i].lock().unwrap() = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("every slot is filled before the scope ends")
        })
        .collect()
}

fn run_one<I, T>(
    index: usize,
    item: &I,
    f: &(impl Fn(usize, &I) -> T + Sync),
) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(|| f(index, item))).map_err(panic_message)
}

/// Renders a `catch_unwind` payload as the panic message (shared with the
/// bench supervised runner, whose retry contract compares these
/// byte-for-byte, and with the sharded simulator's panic propagation).
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "job panicked (non-string payload)".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<usize> = (0..57).collect();
        for jobs in [1, 2, 4, 16] {
            let out = run_indexed(jobs, &items, |i, &item| {
                assert_eq!(i, item);
                item * 10
            });
            let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..57).map(|i| i * 10).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panics_become_failed_cells_without_stopping_others() {
        let items: Vec<u32> = (0..20).collect();
        let out = run_indexed(4, &items, |_, &item| {
            if item % 7 == 3 {
                panic!("boom at {item}");
            }
            item
        });
        for (i, r) in out.iter().enumerate() {
            if i % 7 == 3 {
                assert_eq!(r.as_ref().unwrap_err(), &format!("boom at {i}"));
            } else {
                assert_eq!(*r.as_ref().unwrap(), i as u32);
            }
        }
    }

    #[test]
    fn serial_mode_runs_on_the_caller_thread() {
        let caller = std::thread::current().id();
        let out = run_indexed(1, &[1, 2, 3], |_, &x| {
            assert_eq!(std::thread::current().id(), caller);
            x
        });
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<usize> = (0..100).collect();
        let out = run_indexed(8, &items, |i, _| {
            hits.fetch_add(1, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), 100);
        let seen: HashSet<usize> = out.into_iter().map(|r| r.unwrap()).collect();
        assert_eq!(seen.len(), 100);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let out: Vec<Result<u8, String>> = run_indexed(4, &[], |_, _: &u8| unreachable!());
        assert!(out.is_empty());
    }
}
