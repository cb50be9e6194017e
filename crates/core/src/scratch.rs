//! [`QueryScratch`] — a per-thread arena of reusable query buffers.
//!
//! Every algorithm in this crate used to allocate its working memory
//! per query (LPQ entry vectors in MBA, best-first heaps in kNN/MNN/BNN,
//! per-point k-best heaps in BNN/HNN, visit stacks, and the distance
//! buffers the batched kernels of [`ann_geom::kernels`] write into).
//! `QueryScratch` pools those buffers so a steady stream of queries
//! re-uses the same allocations: after a warm-up query every pool has
//! reached its high-water capacity and subsequent queries perform no
//! heap allocation from the pooled paths.
//!
//! # Lifecycle
//!
//! Buffers are checked out with `take_*` (popping a parked buffer, or
//! allocating an empty one the first time) and checked back in with
//! `put_*`, which clears the contents but keeps the capacity. The arena
//! is deliberately not thread-safe: the workers of a parallel join each
//! own one. [`query::run`](crate::query::run) creates a transient arena
//! internally; [`query::run_scratch`](crate::query::run_scratch) accepts a
//! caller-owned arena, which a join resolving to one worker uses
//! directly, for an allocation-free steady state.
//!
//! # Observability
//!
//! [`footprint_bytes`](QueryScratch::footprint_bytes) reports the total
//! capacity currently *parked* in the arena. Because capacities only
//! ever grow, a stable footprint across repeated identical queries
//! proves the steady state reallocates nothing — that is exactly what
//! the reuse test in `crates/core/tests/scratch_reuse.rs` asserts.

use crate::lpq::{Lpq, QueuedEntry};
use crate::node::Entry;
use ann_store::PageId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem::size_of;

/// Min-heap item for best-first index descents (kNN and MNN): popped in
/// ascending `(MIND, nodes-before-objects, page/oid)` order. A child's
/// MIND never undercuts its parent's, so popping tied nodes first
/// guarantees every object at distance `d` is in the heap before any tied
/// object is emitted — equal-distance hits then surface in the canonical
/// smaller-oid-first order.
#[derive(Clone, Copy, Debug)]
pub struct BestFirstItem<const D: usize> {
    /// Squared `MINMINDIST` to the query — the pop priority.
    pub mind_sq: f64,
    /// Squared pruning-metric upper bound.
    pub maxd_sq: f64,
    /// The queued target-index entry.
    pub entry: Entry<D>,
}

impl<const D: usize> BestFirstItem<D> {
    #[inline]
    fn key(&self) -> (f64, u8, u64) {
        match self.entry {
            Entry::Node(n) => (self.mind_sq, 0, u64::from(n.page)),
            Entry::Object(o) => (self.mind_sq, 1, o.oid),
        }
    }
}

impl<const D: usize> PartialEq for BestFirstItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<const D: usize> Eq for BestFirstItem<D> {}
impl<const D: usize> PartialOrd for BestFirstItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for BestFirstItem<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we need the smallest key.
        other
            .key()
            .partial_cmp(&self.key())
            .expect("distances are finite")
    }
}

/// Min-heap item for BNN's group traversal: popped in ascending `MIND`
/// order with ties left to the heap (exactly the ordering BNN has always
/// used — changing it would change the baseline's counter trajectory).
#[derive(Clone, Copy, Debug)]
pub struct GroupHeapItem<const D: usize> {
    /// Squared `MINMINDIST(group MBR, entry)` — the pop priority.
    pub mind_sq: f64,
    /// Squared pruning-metric upper bound.
    pub maxd_sq: f64,
    /// The queued target-index entry.
    pub entry: Entry<D>,
}

impl<const D: usize> PartialEq for GroupHeapItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.mind_sq == other.mind_sq
    }
}
impl<const D: usize> Eq for GroupHeapItem<D> {}
impl<const D: usize> PartialOrd for GroupHeapItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for GroupHeapItem<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .mind_sq
            .partial_cmp(&self.mind_sq)
            .expect("distances are finite")
    }
}

/// Max-heap entry of a per-point k-best candidate list (BNN and HNN):
/// for equal distances the larger oid is "greater" (evicted first),
/// matching the brute-force tie-break of keeping the smaller oid.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KBest {
    /// Squared distance of the candidate.
    pub dist_sq: f64,
    /// The candidate's object id on the `S` side.
    pub s_oid: u64,
}
impl Eq for KBest {}
impl PartialOrd for KBest {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KBest {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq
            .partial_cmp(&other.dist_sq)
            .expect("finite")
            .then(self.s_oid.cmp(&other.s_oid))
    }
}

/// The arena. See the module docs for the lifecycle contract.
#[derive(Debug, Default)]
pub struct QueryScratch<const D: usize> {
    f64_bufs: Vec<Vec<f64>>,
    /// LPQ backing storage, pooled by owner kind (`[object-owned,
    /// node-owned]`). A node-owned LPQ queues hundreds of entries, an
    /// object-owned one a few dozen; out of one shared LIFO pool every
    /// buffer eventually serves a node owner and keeps that capacity
    /// (8.6 MiB parked per serving worker after ~100 queries of a
    /// 4 000-point join, against 0.75 MiB pooled by kind).
    entry_bufs: [Vec<Vec<QueuedEntry<D>>>; 2],
    lpq_lists: Vec<Vec<Lpq<D>>>,
    lpq_queues: Vec<VecDeque<Lpq<D>>>,
    page_stacks: Vec<Vec<PageId>>,
    hint_bufs: Vec<Vec<(PageId, u32)>>,
    best_first_bufs: Vec<Vec<BestFirstItem<D>>>,
    group_heap_bufs: Vec<Vec<GroupHeapItem<D>>>,
    kbest_bufs: Vec<Vec<KBest>>,
}

fn pool_bytes<T>(pool: &[Vec<T>]) -> usize {
    pool.iter().map(|v| v.capacity() * size_of::<T>()).sum()
}

impl<const D: usize> QueryScratch<D> {
    /// An empty arena; pools fill lazily as buffers are returned.
    pub fn new() -> Self {
        Self::default()
    }

    /// A distance buffer for the batched kernels.
    pub fn take_f64(&mut self) -> Vec<f64> {
        self.f64_bufs.pop().unwrap_or_default()
    }

    /// Returns a distance buffer to the pool.
    pub fn put_f64(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.f64_bufs.push(buf);
    }

    fn entry_pool(&mut self, owner: &Entry<D>) -> &mut Vec<Vec<QueuedEntry<D>>> {
        &mut self.entry_bufs[usize::from(matches!(owner, Entry::Node(_)))]
    }

    /// An empty LPQ for `owner` (see [`Lpq::new`]) over pooled storage.
    pub fn take_lpq(&mut self, owner: Entry<D>, k: usize, inherited_bound_sq: f64) -> Lpq<D> {
        let storage = self.entry_pool(&owner).pop().unwrap_or_default();
        Lpq::new_in(owner, k, inherited_bound_sq, storage)
    }

    /// Returns a finished (or abandoned) LPQ's storage to its owner kind's
    /// pool.
    pub fn put_lpq(&mut self, lpq: Lpq<D>) {
        let owner = lpq.owner;
        self.entry_pool(&owner).push(lpq.into_storage());
    }

    /// A child-LPQ list for MBA's Expand stage.
    pub fn take_lpq_list(&mut self) -> Vec<Lpq<D>> {
        self.lpq_lists.pop().unwrap_or_default()
    }

    /// Returns a (drained) child-LPQ list to the pool.
    pub fn put_lpq_list(&mut self, mut list: Vec<Lpq<D>>) {
        list.clear();
        self.lpq_lists.push(list);
    }

    /// A traversal queue of LPQs for MBA's depth-/breadth-first loops.
    pub fn take_lpq_queue(&mut self) -> VecDeque<Lpq<D>> {
        self.lpq_queues.pop().unwrap_or_default()
    }

    /// Returns a (drained) LPQ traversal queue to the pool.
    pub fn put_lpq_queue(&mut self, mut queue: VecDeque<Lpq<D>>) {
        queue.clear();
        self.lpq_queues.push(queue);
    }

    /// A page-id visit stack (index walks).
    pub fn take_pages(&mut self) -> Vec<PageId> {
        self.page_stacks.pop().unwrap_or_default()
    }

    /// Returns a page-id visit stack to the pool.
    pub fn put_pages(&mut self, mut stack: Vec<PageId>) {
        stack.clear();
        self.page_stacks.push(stack);
    }

    /// A `(page, priority)` hint buffer for readahead submission
    /// ([`crate::readahead`]).
    pub fn take_hints(&mut self) -> Vec<(PageId, u32)> {
        self.hint_bufs.pop().unwrap_or_default()
    }

    /// Returns a readahead hint buffer to the pool.
    pub fn put_hints(&mut self, mut buf: Vec<(PageId, u32)>) {
        buf.clear();
        self.hint_bufs.push(buf);
    }

    /// A best-first heap for kNN/MNN descents. An empty `Vec` heapifies
    /// trivially, so this preserves the parked buffer's capacity.
    pub fn take_best_first(&mut self) -> BinaryHeap<BestFirstItem<D>> {
        BinaryHeap::from(self.best_first_bufs.pop().unwrap_or_default())
    }

    /// Returns a best-first heap's backing storage to the pool.
    pub fn put_best_first(&mut self, heap: BinaryHeap<BestFirstItem<D>>) {
        let mut buf = heap.into_vec();
        buf.clear();
        self.best_first_bufs.push(buf);
    }

    /// A group-traversal heap for BNN.
    pub fn take_group_heap(&mut self) -> BinaryHeap<GroupHeapItem<D>> {
        BinaryHeap::from(self.group_heap_bufs.pop().unwrap_or_default())
    }

    /// Returns a BNN group heap's backing storage to the pool.
    pub fn put_group_heap(&mut self, heap: BinaryHeap<GroupHeapItem<D>>) {
        let mut buf = heap.into_vec();
        buf.clear();
        self.group_heap_bufs.push(buf);
    }

    /// A per-point k-best heap for BNN/HNN.
    pub fn take_kbest(&mut self) -> BinaryHeap<KBest> {
        BinaryHeap::from(self.kbest_bufs.pop().unwrap_or_default())
    }

    /// Returns a k-best heap's backing storage to the pool.
    pub fn put_kbest(&mut self, heap: BinaryHeap<KBest>) {
        let mut buf = heap.into_vec();
        buf.clear();
        self.kbest_bufs.push(buf);
    }

    /// Total bytes of capacity currently parked in the arena (checked-out
    /// buffers are not counted — return everything before comparing).
    /// Capacities never shrink, so a stable footprint across repeated
    /// identical queries proves the steady state allocates nothing new.
    pub fn footprint_bytes(&self) -> usize {
        pool_bytes(&self.f64_bufs)
            + self.entry_bufs.iter().map(|p| pool_bytes(p)).sum::<usize>()
            + self
                .lpq_lists
                .iter()
                .map(|v| v.capacity() * size_of::<Lpq<D>>())
                .sum::<usize>()
            + self
                .lpq_queues
                .iter()
                .map(|q| q.capacity() * size_of::<Lpq<D>>())
                .sum::<usize>()
            + pool_bytes(&self.page_stacks)
            + pool_bytes(&self.hint_bufs)
            + pool_bytes(&self.best_first_bufs)
            + pool_bytes(&self.group_heap_bufs)
            + pool_bytes(&self.kbest_bufs)
    }

    /// Number of buffers currently parked across all pools.
    pub fn parked(&self) -> usize {
        self.f64_bufs.len()
            + self.entry_bufs.iter().map(Vec::len).sum::<usize>()
            + self.lpq_lists.len()
            + self.lpq_queues.len()
            + self.page_stacks.len()
            + self.hint_bufs.len()
            + self.best_first_bufs.len()
            + self.group_heap_bufs.len()
            + self.kbest_bufs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffers_round_trip_with_capacity() {
        let mut s: QueryScratch<2> = QueryScratch::new();
        let mut b = s.take_f64();
        assert_eq!(b.capacity(), 0);
        b.extend_from_slice(&[1.0; 100]);
        s.put_f64(b);
        let b = s.take_f64();
        assert!(b.is_empty(), "returned buffers come back cleared");
        assert!(b.capacity() >= 100, "…but keep their capacity");
        s.put_f64(b);
        assert_eq!(s.parked(), 1);
    }

    #[test]
    fn lpq_storage_is_pooled_by_owner_kind() {
        use crate::node::{NodeEntry, ObjectEntry};
        use ann_geom::{Mbr, Point};
        let node = Entry::Node(NodeEntry {
            page: 0,
            count: 300,
            mbr: Mbr::new([0.0, 0.0], [1.0, 1.0]),
        });
        let object = Entry::Object(ObjectEntry {
            oid: 1,
            point: Point::new([0.0, 0.0]),
        });
        let mut s: QueryScratch<2> = QueryScratch::new();
        let mut big = s.take_lpq(node, 1, f64::INFINITY);
        for i in 0..300 {
            big.try_enqueue(QueuedEntry {
                mind_sq: f64::from(i),
                maxd_sq: f64::INFINITY,
                entry: object,
            });
        }
        s.put_lpq(big);
        // An object-owned queue does not inherit the node-owned capacity…
        let small = s.take_lpq(object, 1, f64::INFINITY);
        assert_eq!(small.into_storage().capacity(), 0);
        // …which is parked for the next node owner.
        let big = s.take_lpq(node, 1, f64::INFINITY);
        assert!(big.into_storage().capacity() >= 300);
    }

    #[test]
    fn heaps_keep_backing_capacity() {
        let mut s: QueryScratch<2> = QueryScratch::new();
        let mut h = s.take_kbest();
        for i in 0..50 {
            h.push(KBest {
                dist_sq: i as f64,
                s_oid: i,
            });
        }
        s.put_kbest(h);
        let before = s.footprint_bytes();
        assert!(before >= 50 * size_of::<KBest>());
        let h = s.take_kbest();
        assert!(h.is_empty());
        s.put_kbest(h);
        assert_eq!(s.footprint_bytes(), before, "no growth on reuse");
    }

    #[test]
    fn footprint_counts_only_parked_buffers() {
        let mut s: QueryScratch<2> = QueryScratch::new();
        let mut b = s.take_f64();
        b.resize(32, 0.0);
        assert_eq!(s.footprint_bytes(), 0, "checked-out buffers don't count");
        s.put_f64(b);
        assert!(s.footprint_bytes() >= 32 * size_of::<f64>());
    }
}
