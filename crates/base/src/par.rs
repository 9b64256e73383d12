//! Index-ordered parallel work over a shared slice.
//!
//! The CAD scheduler in `jitise-core` fans independent candidate
//! implementations out to a small pool of OS threads, but every consumer
//! of the results (report rows, telemetry finalization, IR patching)
//! requires *selection order* — the order items appear in the input —
//! regardless of which worker finished first. [`parallel_map_indexed`]
//! provides exactly that contract: results come back indexed by input
//! position, never by completion time, so the caller cannot observe the
//! scheduling interleaving through the return value.
//!
//! [`Claims`] is the claim-and-run loop underneath: any thread holding a
//! reference may claim items and run them, which is how the adaptive
//! runtime's VM thread runs CAD jobs of a specialization that its
//! background worker owns while it waits for the swap.

use crate::sync::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// A fixed set of indexed work items that any number of threads drain
/// together. Each thread claims the next unclaimed index with one atomic
/// increment, runs it, and stores the result at that index, so every item
/// runs exactly once whoever runs it.
pub struct Claims<R> {
    next: AtomicUsize,
    slots: Vec<Mutex<Option<std::thread::Result<R>>>>,
    panicked: AtomicBool,
}

impl<R> Claims<R> {
    /// `len` unclaimed items, indexed `0..len`.
    pub fn new(len: usize) -> Claims<R> {
        Claims {
            next: AtomicUsize::new(0),
            slots: (0..len).map(|_| Mutex::new(None)).collect(),
            panicked: AtomicBool::new(false),
        }
    }

    /// Claims and runs items until none is left, an item has panicked, or
    /// `stop` returns true (asked before each claim). A panic in `run` is
    /// caught and kept with its item, so a thread that helps out never
    /// unwinds: the panic resurfaces from [`Self::into_results`] on the
    /// owner.
    pub fn run_claims(&self, stop: impl Fn() -> bool, run: impl Fn(usize) -> R) {
        while !stop() && !self.panicked.load(Ordering::Relaxed) {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.slots.len() {
                break;
            }
            let out = catch_unwind(AssertUnwindSafe(|| run(i)));
            if out.is_err() {
                self.panicked.store(true, Ordering::Relaxed);
            }
            *self.slots[i].lock() = Some(out);
        }
    }

    /// Runs items on `lanes` lanes — the calling thread plus `lanes − 1`
    /// scoped threads; zero counts as one — until none is left to claim.
    /// Items other threads claimed may still be running when this returns.
    pub fn drain(&self, lanes: usize, run: impl Fn(usize) -> R + Sync)
    where
        R: Send,
    {
        let never = || false;
        std::thread::scope(|scope| {
            for _ in 1..lanes.min(self.slots.len()) {
                scope.spawn(|| self.run_claims(never, &run));
            }
            self.run_claims(never, &run);
        });
    }

    /// The results in index order. Owning `self` means no thread is still
    /// running an item. Re-raises the panic of the lowest-index item that
    /// panicked; panics if an item was never run.
    pub fn into_results(self) -> Vec<R> {
        let mut results = Vec::with_capacity(self.slots.len());
        let mut unrun = 0;
        for slot in self.slots {
            match slot.into_inner() {
                Some(Ok(r)) => results.push(r),
                Some(Err(payload)) => resume_unwind(payload),
                None => unrun += 1,
            }
        }
        assert_eq!(unrun, 0, "every item must have been claimed and run");
        results
    }
}

/// Applies `f` to every item of `items` on `workers` lanes and returns the
/// results **in input order**.
///
/// The caller runs one lane itself and `workers − 1` scoped threads run
/// the others; work is handed out through [`Claims`], so lanes stay busy
/// while long and short items mix. With `workers <= 1` (or fewer than two
/// items) no thread is spawned and the map runs sequentially on the
/// caller — the two paths are observationally identical for any pure `f`.
///
/// A panic inside `f` propagates to the caller once every lane has
/// stopped.
pub fn parallel_map_indexed<T, R, F>(workers: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let claims = Claims::new(items.len());
    claims.drain(workers, |i| f(i, &items[i]));
    claims.into_results()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn maps_in_input_order_sequentially() {
        let items = vec![3u64, 1, 4, 1, 5];
        let out = parallel_map_indexed(1, &items, |i, &v| (i, v * 10));
        assert_eq!(out, vec![(0, 30), (1, 10), (2, 40), (3, 10), (4, 50)]);
    }

    #[test]
    fn shuffled_completion_order_does_not_reorder_results() {
        // Earlier items sleep longest, so completion order is roughly the
        // reverse of input order — results must still come back by index.
        let items: Vec<usize> = (0..8).collect();
        let out = parallel_map_indexed(4, &items, |i, &v| {
            assert_eq!(i, v);
            std::thread::sleep(Duration::from_millis(((8 - v) * 3) as u64));
            v * 2
        });
        assert_eq!(out, (0..8).map(|v| v * 2).collect::<Vec<_>>());
    }

    #[test]
    fn worker_counts_agree() {
        let items: Vec<u64> = (0..40).collect();
        let seq = parallel_map_indexed(1, &items, |i, &v| v.wrapping_mul(i as u64 + 7));
        for workers in [0, 2, 4, 16, 64] {
            let par = parallel_map_indexed(workers, &items, |i, &v| v.wrapping_mul(i as u64 + 7));
            assert_eq!(par, seq, "workers={workers}");
        }
    }

    #[test]
    fn empty_and_single_item_take_the_sequential_path() {
        let none: Vec<u32> = vec![];
        assert!(parallel_map_indexed(8, &none, |_, &v| v).is_empty());
        assert_eq!(parallel_map_indexed(8, &[9u32], |i, &v| v + i as u32), [9]);
    }

    #[test]
    fn caller_runs_one_of_the_lanes() {
        // The first two items only return once both are running at the
        // same time, so two lanes must run them concurrently; the caller
        // must be one of those lanes and no third thread may take part.
        let caller = std::thread::current().id();
        let meet = Barrier::new(2);
        let items: Vec<u32> = (0..6).collect();
        let ran_on = parallel_map_indexed(2, &items, |i, _| {
            if i < 2 {
                meet.wait();
            }
            std::thread::current().id()
        });
        let threads: HashSet<_> = ran_on.iter().copied().collect();
        assert!(threads.contains(&caller), "the caller must run items");
        assert_eq!(threads.len(), 2, "two lanes are the caller plus one thread");
    }

    #[test]
    fn panic_in_a_helping_thread_reaches_the_owner() {
        let claims: Claims<u32> = Claims::new(4);
        let ran = AtomicUsize::new(0);
        let run = |i: usize| {
            ran.fetch_add(1, Ordering::Relaxed);
            if i == 0 {
                panic!("job 0 failed");
            }
            i as u32
        };
        // A helping thread claims item 0 and panics in it; the panic is
        // kept with the item instead of unwinding the helper.
        std::thread::scope(|scope| {
            scope
                .spawn(|| claims.run_claims(|| false, run))
                .join()
                .expect("a helping thread never unwinds");
        });
        // Claiming stops at the panic: the owner claims nothing more and
        // gets the panic back from the results.
        claims.run_claims(|| false, run);
        assert_eq!(ran.into_inner(), 1, "claims stop after a panic");
        let payload = catch_unwind(AssertUnwindSafe(|| claims.into_results()))
            .expect_err("the helper's panic must reach the owner");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job 0 failed"));
    }

    #[test]
    fn stop_is_asked_before_every_claim() {
        let claims: Claims<usize> = Claims::new(5);
        let ran = std::cell::Cell::new(0);
        claims.run_claims(
            || ran.get() == 2,
            |i| {
                ran.set(ran.get() + 1);
                i
            },
        );
        assert_eq!(ran.get(), 2);
        claims.drain(1, |i| i);
        assert_eq!(claims.into_results(), vec![0, 1, 2, 3, 4]);
    }
}
