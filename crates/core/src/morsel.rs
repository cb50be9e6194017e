//! Morsel decomposition of R-side work for a parallel join.
//!
//! A *morsel* is a bounded unit of query-side work: an LPQ subtree for
//! MBA, one Hilbert-contiguous group for BNN, an `I_R` subtree (degrading
//! to single leaf runs) for MNN/kNN-style per-object searches, and a
//! fixed-size slice of query points for HNN. Morsels live in per-worker
//! deques inside a [`MorselPool`]; a worker consumes its own deque
//! depth-first (newest first, for locality with the subtree it just
//! split) and steals the *oldest* morsel from a sibling when its own
//! deque runs dry — the oldest queued unit is the coarsest, so a steal
//! moves the most work for one synchronization.
//!
//! The pool is deliberately simple: one uncontended `Mutex<VecDeque>` per
//! worker (a worker locks its own deque for nanoseconds per morsel; a
//! steal locks a sibling's), one atomic in-flight counter for
//! termination, and one abort flag for prompt error propagation. No
//! morsel is ever dropped silently: a unit leaves the pool either by
//! being processed ([`MorselPool::complete`]) or because the pool aborted
//! and the remaining units became unreachable by construction.
//!
//! An idle worker spins through a few steal rounds and then *parks* on a
//! condvar instead of busy-waiting: during a long morsel (an inline walk
//! of a 512-object subtree, the tail of a skewed query) the blocked
//! siblings consume no CPU, so granted-but-idle workers do not
//! oversubscribe the box under concurrent serving load. Every event that
//! can unblock a sleeper — a push, the in-flight counter reaching zero,
//! an abort — bumps a wake epoch under the condvar's lock and notifies;
//! a would-be sleeper snapshots the epoch *before* scanning the deques
//! and only parks while it is unchanged, so no wakeup can be lost.
//!
//! Determinism note: morsel boundaries never depend on the worker count —
//! they are fixed by the input (tree structure, group size, point order).
//! Which worker processes which morsel *does* vary run to run; every
//! algorithm built on this pool therefore only uses morsels whose results
//! are independent of processing order, and the join driver (`exec.rs`)
//! canonicalizes the merged output.

use ann_store::sync::{unpoisoned, Mutex};
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Condvar;

/// Subtrees holding at most this many objects are processed inline
/// (serial recursion) instead of being split into child morsels: below
/// this size the deque traffic costs more than the imbalance it fixes.
pub const INLINE_SUBTREE_OBJECTS: u64 = 512;

/// Failed pop-and-steal rounds an idle worker burns (yielding between
/// rounds) before parking on the pool's condvar. A short spin covers the
/// common case where a sibling splits a subtree within microseconds; the
/// park covers long morsels where spinning would waste whole cores.
const SPIN_ROUNDS: u32 = 32;

/// Points per object-batch morsel for poolless per-point algorithms
/// (HNN). Small enough that a skewed hot cell cannot hide a multi-second
/// stall inside one morsel, large enough to amortize a deque operation
/// over hundreds of kernel calls.
pub const POINT_MORSEL: usize = 256;

/// Resolves a requested thread count: `0` means one worker per available
/// core, anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Splits `0..len` into consecutive ranges of `chunk` elements (the last
/// may be shorter) — identical boundaries to `slice::chunks(chunk)`, so
/// a chunked parallel loop visits exactly the serial loop's groups.
pub fn chunk_ranges(len: usize, chunk: usize) -> Vec<Range<usize>> {
    assert!(chunk >= 1, "chunk size must be at least 1");
    let mut ranges = Vec::with_capacity(len.div_ceil(chunk));
    let mut at = 0;
    while at < len {
        let end = (at + chunk).min(len);
        ranges.push(at..end);
        at = end;
    }
    ranges
}

/// The work-stealing morsel pool: per-worker deques, an in-flight
/// counter for termination, and an abort flag for prompt teardown.
#[derive(Debug)]
pub struct MorselPool<T> {
    deques: Vec<Mutex<VecDeque<T>>>,
    /// Morsels queued or currently being processed. Seeds count from
    /// construction; [`push`](Self::push) increments *before* the unit
    /// becomes stealable and [`complete`](Self::complete) decrements
    /// after processing, so the counter can only reach zero when no
    /// worker will produce further work.
    in_flight: AtomicUsize,
    aborted: AtomicBool,
    /// Wake epoch for parked workers: bumped under the lock by every
    /// event that can unblock a sleeper (push, in-flight reaching zero,
    /// abort). See the module docs for the lost-wakeup argument.
    wake: Mutex<u64>,
    wake_cv: Condvar,
}

impl<T> MorselPool<T> {
    /// A pool for `workers` deques, seeded round-robin with `seeds`.
    pub fn new(workers: usize, seeds: Vec<T>) -> Self {
        assert!(workers >= 1, "a pool needs at least one worker");
        let mut deques: Vec<VecDeque<T>> = (0..workers).map(|_| VecDeque::new()).collect();
        let in_flight = seeds.len();
        for (i, unit) in seeds.into_iter().enumerate() {
            deques[i % workers].push_back(unit);
        }
        MorselPool {
            deques: deques.into_iter().map(Mutex::new).collect(),
            in_flight: AtomicUsize::new(in_flight),
            aborted: AtomicBool::new(false),
            wake: Mutex::new(0),
            wake_cv: Condvar::new(),
        }
    }

    /// Bumps the wake epoch and wakes every parked worker. Called by
    /// every event a sleeper's park condition depends on.
    fn notify(&self) {
        *self.wake.lock() += 1;
        self.wake_cv.notify_all();
    }

    /// Adds a morsel to `worker`'s own deque (newest end).
    pub fn push(&self, worker: usize, unit: T) {
        self.in_flight.fetch_add(1, Ordering::SeqCst);
        self.deques[worker].lock().push_back(unit);
        self.notify();
    }

    /// Takes the next morsel for `worker`: its own newest first, then a
    /// steal of the oldest unit from a sibling. Blocks while other
    /// workers are still processing — they may push more work — spinning
    /// briefly and then parking; returns `None` once all work is done or
    /// the pool aborted.
    pub fn pop(&self, worker: usize) -> Option<T> {
        let n = self.deques.len();
        let mut spins = 0u32;
        loop {
            if self.aborted.load(Ordering::Acquire) {
                return None;
            }
            // Snapshot the wake epoch before scanning: any push /
            // final-complete / abort racing with the scan bumps it and
            // forbids the park below, so the event cannot be missed.
            let epoch = *self.wake.lock();
            if let Some(unit) = self.deques[worker].lock().pop_back() {
                return Some(unit);
            }
            for i in 1..n {
                let victim = (worker + i) % n;
                if let Some(unit) = self.deques[victim].lock().pop_front() {
                    return Some(unit);
                }
            }
            if self.in_flight.load(Ordering::SeqCst) == 0 {
                return None;
            }
            if spins < SPIN_ROUNDS {
                spins += 1;
                std::thread::yield_now();
                continue;
            }
            let mut guard = self.wake.lock();
            while *guard == epoch
                && !self.aborted.load(Ordering::Acquire)
                && self.in_flight.load(Ordering::SeqCst) != 0
            {
                guard = unpoisoned(self.wake_cv.wait(guard));
            }
            drop(guard);
            spins = 0;
        }
    }

    /// Marks one previously popped morsel as fully processed. Call this
    /// *after* pushing any child morsels the unit produced, so the
    /// in-flight counter can never be zero while work remains.
    pub fn complete(&self) {
        if self.in_flight.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.notify();
        }
    }

    /// Aborts the pool: every pending and future [`pop`](Self::pop)
    /// returns `None` promptly, regardless of queued work.
    pub fn abort(&self) {
        self.aborted.store(true, Ordering::Release);
        self.notify();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_ranges_match_slice_chunks() {
        for (len, chunk) in [(0usize, 3usize), (1, 3), (3, 3), (10, 3), (9, 3), (10, 256)] {
            let data: Vec<usize> = (0..len).collect();
            let via_ranges: Vec<Vec<usize>> = chunk_ranges(len, chunk)
                .into_iter()
                .map(|r| data[r].to_vec())
                .collect();
            let via_chunks: Vec<Vec<usize>> = data.chunks(chunk).map(|c| c.to_vec()).collect();
            assert_eq!(via_ranges, via_chunks, "len={len} chunk={chunk}");
        }
    }

    #[test]
    fn single_worker_drains_in_lifo_order() {
        let pool = MorselPool::new(1, vec![1, 2, 3]);
        // Own deque pops newest first.
        assert_eq!(pool.pop(0), Some(3));
        pool.complete();
        pool.push(0, 4);
        assert_eq!(pool.pop(0), Some(4));
        pool.complete();
        assert_eq!(pool.pop(0), Some(2));
        pool.complete();
        assert_eq!(pool.pop(0), Some(1));
        pool.complete();
        assert_eq!(pool.pop(0), None, "all work completed");
    }

    #[test]
    fn steal_takes_oldest_from_sibling() {
        let pool = MorselPool::new(2, Vec::new());
        pool.push(0, 10);
        pool.push(0, 11);
        // Worker 1 has nothing of its own; it steals worker 0's oldest.
        assert_eq!(pool.pop(1), Some(10));
        pool.complete();
        assert_eq!(pool.pop(0), Some(11));
        pool.complete();
        assert_eq!(pool.pop(0), None);
    }

    #[test]
    fn abort_unblocks_pop_with_work_queued() {
        let pool = MorselPool::new(1, vec![7]);
        pool.abort();
        assert_eq!(pool.pop(0), None, "aborted pools hand out no work");
    }

    #[test]
    fn parked_worker_wakes_on_push() {
        use std::sync::Arc;
        // Worker 0 holds the only unit, so worker 1's pop must block
        // (eventually parking) until a child is published.
        let pool = Arc::new(MorselPool::new(2, vec![0u32]));
        assert_eq!(pool.pop(0), Some(0));
        let stealer = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.pop(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.push(0, 7);
        assert_eq!(stealer.join().unwrap(), Some(7));
        pool.complete();
        pool.complete();
        assert_eq!(pool.pop(1), None);
    }

    #[test]
    fn parked_worker_wakes_on_abort() {
        use std::sync::Arc;
        let pool = Arc::new(MorselPool::new(2, vec![0u32]));
        assert_eq!(pool.pop(0), Some(0));
        let stealer = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.pop(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.abort();
        assert_eq!(stealer.join().unwrap(), None);
    }

    #[test]
    fn parked_worker_wakes_on_final_complete() {
        use std::sync::Arc;
        let pool = Arc::new(MorselPool::new(2, vec![0u32]));
        assert_eq!(pool.pop(0), Some(0));
        let stealer = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.pop(1))
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.complete();
        assert_eq!(stealer.join().unwrap(), None);
    }

    #[test]
    fn termination_waits_for_in_flight_producers() {
        // One seed; the worker that pops it pushes a child before
        // completing, so a concurrent pop must see the child rather than
        // terminating early.
        let pool = MorselPool::new(2, vec![0]);
        let unit = pool.pop(0).unwrap();
        assert_eq!(unit, 0);
        pool.push(0, 1);
        pool.complete();
        assert_eq!(pool.pop(1), Some(1));
        pool.complete();
        assert_eq!(pool.pop(1), None);
    }
}
