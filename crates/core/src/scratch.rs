//! [`QueryScratch`] — a per-thread arena of reusable query buffers.
//!
//! Every algorithm in this crate used to allocate its working memory
//! per query (LPQ storage in MBA, best-first heaps in MNN/BNN,
//! the live-bound vectors of the LPQs' and frontiers'
//! [`BoundTracker`](crate::lpq::BoundTracker)s, per-point k-best heaps in
//! BNN/HNN, visit stacks, and the distance buffers the batched kernels of
//! [`ann_geom::kernels`] write into). `QueryScratch` pools those buffers
//! so a steady stream of queries re-uses the same allocations: after a
//! warm-up query every pool has reached its high-water capacity and
//! subsequent queries perform no heap allocation from the pooled paths,
//! at any `k`.
//!
//! One kind of storage is deliberately not pooled: that of an LPQ owned
//! by an index *node* (its [`LpqStorage`]: keys, entry slab and live
//! bounds). A join
//! creates few of those (about 1 000 in a 20 000-point 10-D self-join),
//! but each can grow to thousands of entries; a pool hands its buffers
//! out LIFO, so every parked buffer would keep the capacity of the
//! largest queue it ever served, and the arena would ratchet up join
//! after join. A node-owned LPQ starts from empty storage, which goes
//! back to the allocator when the queue is retired. Object-owned LPQs —
//! tens of thousands per join, each at most a few dozen entries — draw
//! from the pool.
//!
//! # Lifecycle
//!
//! Buffers are checked out with `take_*` (popping a parked buffer, or
//! allocating an empty one the first time) and checked back in with
//! `put_*`, which clears the contents but keeps the capacity. The arena
//! is deliberately not thread-safe: the workers of a parallel join each
//! own one. [`query::run`](crate::query::run) creates a transient arena
//! internally; [`query::run_scratch`](crate::query::run_scratch) accepts a
//! caller-owned arena, which the join's worker on the calling thread
//! uses directly at every worker count, so its pooled buffers survive
//! from one join to the next.
//!
//! # Observability
//!
//! [`footprint_bytes`](QueryScratch::footprint_bytes) reports the total
//! capacity currently *parked* in the arena. Because pooled capacities
//! only ever grow, a stable footprint across repeated identical queries
//! proves the pooled paths reallocate nothing, and a small one proves no
//! node-sized queue is being hoarded — `crates/core/tests/scratch_reuse.rs`
//! asserts both.

use crate::lpq::{Lpq, LpqStorage};
use crate::node::Entry;
use crate::stats::NeighborPair;
use ann_store::PageId;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::mem::size_of;

/// Min-heap item for best-first index descents (MNN): popped in
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

/// Max-heap entry of a [`KBestSet`]: for equal distances the larger oid
/// is "greater" (evicted first), matching the brute-force tie-break of
/// keeping the smaller oid.
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

/// The candidates one query point keeps for its `k` neighbours: `k`, plus
/// one in an `exclude_self` self-join, whose bounds must guarantee a
/// candidate beyond the self match they may discard. Saturating: at
/// `k = usize::MAX` that is every candidate either way.
pub fn self_join_room(k: usize, exclude_self: bool) -> usize {
    k.saturating_add(usize::from(exclude_self))
}

/// The `want` best candidates of one query point, ranked by ascending
/// `(dist_sq, s_oid)` — the canonical tie-break brute force applies. BNN,
/// HNN and GORDER keep one per query point.
#[derive(Debug)]
pub struct KBestSet {
    want: usize,
    heap: BinaryHeap<KBest>,
}

impl KBestSet {
    /// An empty set keeping the `want ≥ 1` best, over the empty `heap`'s
    /// storage.
    pub fn new(want: usize, heap: BinaryHeap<KBest>) -> Self {
        debug_assert!(want >= 1 && heap.is_empty());
        KBestSet { want, heap }
    }

    /// The squared distance a candidate has to beat: the worst one kept,
    /// or infinity until `want` are kept.
    #[inline]
    pub fn bound_sq(&self) -> f64 {
        if self.heap.len() < self.want {
            f64::INFINITY
        } else {
            self.heap.peek().expect("a full set is non-empty").dist_sq
        }
    }

    /// Keeps the candidate if it ranks among the `want` best so far;
    /// returns whether it did.
    #[inline]
    pub fn offer(&mut self, dist_sq: f64, s_oid: u64) -> bool {
        if self.heap.len() < self.want {
            self.heap.push(KBest { dist_sq, s_oid });
            return true;
        }
        let mut worst = self.heap.peek_mut().expect("a full set is non-empty");
        // One compare rejects all but exact ties; only those read oids.
        if dist_sq < worst.dist_sq || (dist_sq == worst.dist_sq && s_oid < worst.s_oid) {
            *worst = KBest { dist_sq, s_oid };
            true
        } else {
            false
        }
    }

    /// Appends the best `k` kept candidates to `out` as pairs of `r_oid`,
    /// nearest first, and returns the emptied heap for reuse.
    pub fn emit(self, r_oid: u64, k: usize, out: &mut Vec<NeighborPair>) -> BinaryHeap<KBest> {
        let mut best = self.heap.into_sorted_vec();
        out.extend(best.iter().take(k).map(|b| NeighborPair {
            r_oid,
            s_oid: b.s_oid,
            dist: b.dist_sq.sqrt(),
        }));
        best.clear();
        BinaryHeap::from(best)
    }
}

/// The arena. See the module docs for the lifecycle contract.
#[derive(Debug, Default)]
pub struct QueryScratch<const D: usize> {
    f64_bufs: Vec<Vec<f64>>,
    /// Candidate-index lists (a leaf batch's accepted points).
    index_bufs: Vec<Vec<u32>>,
    /// Backing storage of object-owned LPQs only; a node-owned LPQ
    /// allocates its own and frees it (see the module docs). With
    /// node-owned storage pooled too, a 20 000-point uniform 10-D
    /// self-join at k = 10 parked 201 MiB.
    lpq_bufs: Vec<LpqStorage<D>>,
    /// Live-bound storage of the [`BoundTracker`](crate::lpq::BoundTracker)s
    /// that best-first frontiers hold.
    bound_bufs: Vec<Vec<f64>>,
    lpq_lists: Vec<Vec<Lpq<D>>>,
    lpq_queues: Vec<VecDeque<Lpq<D>>>,
    page_stacks: Vec<Vec<PageId>>,
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

    /// A list of candidate indices.
    pub(crate) fn take_indices(&mut self) -> Vec<u32> {
        self.index_bufs.pop().unwrap_or_default()
    }

    /// Returns a candidate-index list to the pool.
    pub(crate) fn put_indices(&mut self, mut buf: Vec<u32>) {
        buf.clear();
        self.index_bufs.push(buf);
    }

    /// Live-bound storage for a [`BoundTracker`](crate::lpq::BoundTracker).
    pub fn take_bounds(&mut self) -> Vec<f64> {
        self.bound_bufs.pop().unwrap_or_default()
    }

    /// Returns a bound tracker's live-bound storage to the pool.
    pub fn put_bounds(&mut self, mut buf: Vec<f64>) {
        buf.clear();
        self.bound_bufs.push(buf);
    }

    /// An empty LPQ for `owner` (see [`Lpq::new`]): over pooled storage
    /// for an object owner, over fresh storage for a node owner.
    pub fn take_lpq(&mut self, owner: Entry<D>, k: usize, inherited_bound_sq: f64) -> Lpq<D> {
        let storage = match owner {
            Entry::Object(_) => self.lpq_bufs.pop().unwrap_or_default(),
            Entry::Node(_) => LpqStorage::default(),
        };
        Lpq::new_in(owner, k, inherited_bound_sq, storage)
    }

    /// Retires a finished (or abandoned) LPQ: an object owner's storage
    /// goes back to the pool, a node owner's back to the allocator.
    pub fn put_lpq(&mut self, lpq: Lpq<D>) {
        if let Entry::Object(_) = lpq.owner {
            self.lpq_bufs.push(lpq.into_storage());
        }
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

    /// A best-first heap for MNN descents. An empty `Vec` heapifies
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
    /// Pooled capacities never shrink, so a stable footprint across
    /// repeated identical queries proves the pooled paths allocate
    /// nothing new.
    pub fn footprint_bytes(&self) -> usize {
        pool_bytes(&self.f64_bufs)
            + pool_bytes(&self.index_bufs)
            + self
                .lpq_bufs
                .iter()
                .map(LpqStorage::capacity_bytes)
                .sum::<usize>()
            + pool_bytes(&self.bound_bufs)
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
            + pool_bytes(&self.best_first_bufs)
            + pool_bytes(&self.group_heap_bufs)
            + pool_bytes(&self.kbest_bufs)
    }

    /// Number of buffers currently parked across all pools.
    pub fn parked(&self) -> usize {
        self.f64_bufs.len()
            + self.index_bufs.len()
            + self.lpq_bufs.len()
            + self.bound_bufs.len()
            + self.lpq_lists.len()
            + self.lpq_queues.len()
            + self.page_stacks.len()
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
    fn node_owned_lpq_storage_is_not_parked() {
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
        let fill = |lpq: &mut Lpq<2>, n: u32| {
            for i in 0..n {
                lpq.try_enqueue(crate::lpq::QueuedEntry {
                    mind_sq: f64::from(i),
                    maxd_sq: f64::INFINITY,
                    entry: object,
                });
            }
        };
        // k = 2 keeps the bound tracker's live multiset as well.
        let mut s: QueryScratch<2> = QueryScratch::new();
        let mut big = s.take_lpq(node, 2, f64::INFINITY);
        fill(&mut big, 300);
        s.put_lpq(big);
        // A node-owned queue's storage goes back to the allocator…
        assert_eq!(s.parked(), 0);
        assert_eq!(s.footprint_bytes(), 0);
        // …and the next node owner starts from nothing.
        let storage = s.take_lpq(node, 2, f64::INFINITY).into_storage();
        assert_eq!(storage.capacity_bytes(), 0);
        // An object-owned queue's storage — keys, slab and live bounds,
        // one parked buffer — keeps its capacity.
        let mut small = s.take_lpq(object, 2, f64::INFINITY);
        fill(&mut small, 40);
        s.put_lpq(small);
        assert_eq!(s.parked(), 1);
        let per_entry = size_of::<Entry<2>>() + size_of::<f64>();
        assert!(s.footprint_bytes() >= 40 * per_entry);
        let storage = s.take_lpq(object, 2, f64::INFINITY).into_storage();
        assert!(storage.capacity_bytes() >= 40 * per_entry);
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
