//! Readahead hinting for the traversal hot paths.
//!
//! Every traversal in this crate (MBA's LPQ probes, MNN's best-first
//! descents, BNN's group heap) makes its visit decisions in a
//! tight loop over a decoded node's entries, then consumes the accepted
//! child pages strictly later — after more heap pops or queue drains.
//! That gap is free overlap: the moment a child is *accepted* its page id
//! is handed to [`ann_store::BufferPool::prefetch`], so by the time the
//! decision loop reaches it the physical read has (often) already
//! happened.
//!
//! # Correctness contract
//!
//! Prefetching changes only *when* a physical read happens, never
//! *whether* a logical one does. The hints collected here are exactly the
//! pages the decision loop has already committed to enqueue; submitting
//! them mutates no traversal state — decision order, tie-breaks and every
//! logical counter (`logical_reads`, `distance_computations`, queue
//! traffic) are byte-identical with hinting on or off. The pool enforces
//! the physical side: prefetch loads are unpinned, charge no logical
//! read, and are first-out under pressure (see `ann_store::pool`).
//!
//! # Priority
//!
//! Hints carry a depth proxy derived from the child entry's subtree
//! `count`: deeper nodes hold fewer points, and the tracer's per-level
//! expansion histograms show traversals consume deep (small-count)
//! children soonest — a depth-first descent pops the freshly pushed,
//! smallest-MIND child next, and best-first heaps drain toward leaves.
//! [`depth_priority`] therefore maps smaller counts to higher priorities
//! so the readahead queue services soonest-needed pages first.

use ann_store::{BufferPool, PageId};

/// Maps a child entry's subtree `count` to a prefetch priority: smaller
/// subtrees (deeper nodes, consumed soonest) get higher priority. The
/// `| 1` guard keeps a (degenerate) zero count finite.
#[inline]
pub fn depth_priority(count: u64) -> u32 {
    (count | 1).leading_zeros()
}

/// Submits the accumulated hints to `pool` and clears the buffer.
///
/// A no-op on an empty buffer, so callers can invoke it unconditionally
/// after each decision loop. The buffer is cleared even if the pool has
/// prefetching disabled (hints are then dropped inside the pool).
#[inline]
pub fn submit(pool: &BufferPool, hints: &mut Vec<(PageId, u32)>) {
    if !hints.is_empty() {
        pool.prefetch(hints);
        hints.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn depth_priority_orders_deeper_first() {
        // Deeper subtrees hold fewer points and must pop first.
        assert!(depth_priority(10) > depth_priority(10_000));
        assert!(depth_priority(10_000) > depth_priority(10_000_000));
        // Degenerate counts stay finite and maximal.
        assert_eq!(depth_priority(0), depth_priority(1));
        assert_eq!(depth_priority(0), 63);
    }

    #[test]
    fn submit_clears_and_is_noop_when_empty() {
        use ann_store::MemDisk;
        let pool = BufferPool::new(MemDisk::new(), 4);
        let mut hints: Vec<(PageId, u32)> = Vec::new();
        submit(&pool, &mut hints); // empty: no panic, no effect
        hints.push((0, 1));
        submit(&pool, &mut hints); // pool has prefetch disabled: dropped
        assert!(hints.is_empty(), "submit always clears the buffer");
        assert_eq!(pool.stats().prefetch_issued, 0);
    }
}
