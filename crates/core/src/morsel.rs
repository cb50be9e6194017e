//! Morsel decomposition of R-side work for a parallel join.
//!
//! A *morsel* is a bounded unit of query-side work: an LPQ subtree for
//! MBA, one Hilbert-contiguous group for BNN, an `I_R` subtree (degrading
//! to single leaf runs) for MNN's per-object searches, and a
//! fixed-size slice of query points for HNN. Morsels live in one queue
//! inside a [`MorselPool`], and every worker takes the newest: a worker
//! that just split a subtree usually takes one of its children back, for
//! locality, while its siblings take the others.
//!
//! The pool is one `Mutex` over the queue, the count of morsels queued or
//! being processed, and an abort flag, plus one `Condvar`. A worker that
//! finds the queue empty while morsels are still in flight waits on the
//! condvar, so an idle worker consumes no CPU during a long morsel (an
//! inline walk of a 512-object subtree, the tail of a skewed query).
//! Every event that can end the wait — a push, the in-flight count
//! reaching zero, an abort — changes the state under the lock and
//! notifies, so no wakeup can be lost. No morsel is ever dropped
//! silently: a unit leaves the pool either by being processed
//! ([`MorselPool::complete`]) or because the pool aborted and the
//! remaining units became unreachable by construction.
//!
//! Determinism note: morsel boundaries never depend on the worker count —
//! they are fixed by the input (tree structure, group size, point order).
//! Which worker processes which morsel *does* vary run to run; every
//! algorithm built on this pool therefore only uses morsels whose results
//! are independent of processing order, and the join driver (`exec.rs`)
//! canonicalizes the merged output.

use ann_store::sync::{unpoisoned, Mutex};
use std::ops::Range;
use std::sync::Condvar;

/// Subtrees holding at most this many objects are processed inline
/// (serial recursion) instead of being split into child morsels: below
/// this size the queue traffic costs more than the imbalance it fixes.
pub const INLINE_SUBTREE_OBJECTS: u64 = 512;

/// Points per object-batch morsel for poolless per-point algorithms
/// (HNN). Small enough that a skewed hot cell cannot hide a multi-second
/// stall inside one morsel, large enough to amortize a queue operation
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

/// The shared morsel queue, with an in-flight count for termination and
/// an abort flag for prompt teardown.
#[derive(Debug)]
pub struct MorselPool<T> {
    state: Mutex<State<T>>,
    changed: Condvar,
}

#[derive(Debug)]
struct State<T> {
    /// Queued morsels; the newest is popped first.
    queue: Vec<T>,
    /// Morsels queued or currently being processed. Seeds count from
    /// construction; [`MorselPool::push`] counts a child before it is
    /// queued and [`MorselPool::complete`] uncounts its parent after
    /// processing, so the count can only reach zero when no worker will
    /// produce further work.
    in_flight: usize,
    aborted: bool,
}

impl<T> MorselPool<T> {
    /// A pool holding `seeds`; the last seed is popped first.
    pub fn new(seeds: Vec<T>) -> Self {
        MorselPool {
            state: Mutex::new(State {
                in_flight: seeds.len(),
                queue: seeds,
                aborted: false,
            }),
            changed: Condvar::new(),
        }
    }

    /// Queues a morsel.
    pub fn push(&self, unit: T) {
        let mut state = self.state.lock();
        state.in_flight += 1;
        state.queue.push(unit);
        drop(state);
        self.changed.notify_one();
    }

    /// Takes the newest queued morsel. Waits while the queue is empty but
    /// other workers are still processing — they may push more work;
    /// returns `None` once all work is done or the pool aborted.
    pub fn pop(&self) -> Option<T> {
        let mut state = self.state.lock();
        loop {
            if state.aborted {
                return None;
            }
            if let Some(unit) = state.queue.pop() {
                return Some(unit);
            }
            if state.in_flight == 0 {
                return None;
            }
            state = unpoisoned(self.changed.wait(state));
        }
    }

    /// Marks one previously popped morsel as fully processed. Call this
    /// *after* pushing any child morsels the unit produced, so the
    /// in-flight count can never be zero while work remains.
    pub fn complete(&self) {
        let mut state = self.state.lock();
        state.in_flight -= 1;
        let done = state.in_flight == 0;
        drop(state);
        if done {
            self.changed.notify_all();
        }
    }

    /// Aborts the pool: every pending and future [`pop`](Self::pop)
    /// returns `None` promptly, regardless of queued work.
    pub fn abort(&self) {
        self.state.lock().aborted = true;
        self.changed.notify_all();
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
        let pool = MorselPool::new(vec![1, 2, 3]);
        // The queue pops newest first.
        assert_eq!(pool.pop(), Some(3));
        pool.complete();
        pool.push(4);
        assert_eq!(pool.pop(), Some(4));
        pool.complete();
        assert_eq!(pool.pop(), Some(2));
        pool.complete();
        assert_eq!(pool.pop(), Some(1));
        pool.complete();
        assert_eq!(pool.pop(), None, "all work completed");
    }

    #[test]
    fn abort_unblocks_pop_with_work_queued() {
        let pool = MorselPool::new(vec![7]);
        pool.abort();
        assert_eq!(pool.pop(), None, "aborted pools hand out no work");
    }

    #[test]
    fn parked_worker_wakes_on_push() {
        use std::sync::Arc;
        // The lead holds the only unit, so a second worker's pop must wait
        // until a child is published.
        let pool = Arc::new(MorselPool::new(vec![0u32]));
        assert_eq!(pool.pop(), Some(0));
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.push(7);
        assert_eq!(waiter.join().unwrap(), Some(7));
        pool.complete();
        pool.complete();
        assert_eq!(pool.pop(), None);
    }

    #[test]
    fn parked_worker_wakes_on_abort() {
        use std::sync::Arc;
        let pool = Arc::new(MorselPool::new(vec![0u32]));
        assert_eq!(pool.pop(), Some(0));
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.abort();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn parked_worker_wakes_on_final_complete() {
        use std::sync::Arc;
        let pool = Arc::new(MorselPool::new(vec![0u32]));
        assert_eq!(pool.pop(), Some(0));
        let waiter = {
            let pool = Arc::clone(&pool);
            std::thread::spawn(move || pool.pop())
        };
        std::thread::sleep(std::time::Duration::from_millis(50));
        pool.complete();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn termination_waits_for_in_flight_producers() {
        // One seed; the worker that pops it pushes a child before
        // completing, so a later pop must see the child rather than
        // terminating early.
        let pool = MorselPool::new(vec![0]);
        let unit = pool.pop().unwrap();
        assert_eq!(unit, 0);
        pool.push(1);
        pool.complete();
        assert_eq!(pool.pop(), Some(1));
        pool.complete();
        assert_eq!(pool.pop(), None);
    }
}
