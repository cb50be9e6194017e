//! The **Local Priority Queue** (LPQ) and its pruning bound (paper §3.3.1).
//!
//! During ANN evaluation every entry of the query index `I_R` owns exactly
//! one LPQ holding candidate entries from the target index `I_S`. Each
//! queued entry carries:
//!
//! * `MIND` — `MINMINDIST(owner, entry)`, the priority (lower bound);
//! * `MAXD` — the pruning metric (NXNDIST or MAXMAXDIST), an upper bound on
//!   the distance within which the entry guarantees neighbors.
//!
//! The LPQ also maintains the owner's pruning bound `MAXD`:
//! for ANN (`k = 1`) the minimum of all offered entry `MAXD`s, and for AkNN
//! the `k`-th smallest (each queued `I_S` entry is a disjoint subtree
//! guaranteeing at least one point within its own `MAXD` of every point in
//! the owner, so `k` entries guarantee `k` candidates — §3.4). Both are
//! additionally clipped by the bound inherited from the parent LPQ, making
//! the bound monotonically non-increasing over the whole search, which is
//! the property the Three-Stage pruning relies on (§3.3.3).
//!
//! The queue is kept as a `MIND`-sorted vector. That makes the **Filter
//! stage** — "entries with a MIND greater than the MAXD of the new entry
//! are immediately discarded" — a truncation of the sorted tail whenever
//! the bound tightens.

use crate::node::Entry;
use ann_geom::{min_min_dist_sq, min_min_dist_sq_within, PruneMetric};

/// Non-NaN `f64` with a total order.
#[derive(Clone, Copy, Debug, PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Bounds are never NaN, and the squared distances compared here
        // are never negative zero, so the total order agrees with the
        // partial one — without a panic path.
        self.0.total_cmp(&other.0)
    }
}

/// Relative tolerance for pruning comparisons.
///
/// `MIND` and `MAXD` of the *same* geometric configuration are computed
/// through different floating-point expression trees; when the true values
/// coincide (the nearest neighbor sits exactly on the face of the MBR that
/// determines the bound) the computed `MIND` can exceed the computed
/// `MAXD` by a few ulps, and an exact comparison would prune the true
/// result. All pruning tests therefore allow this relative slack —
/// pruning slightly *less* is always sound.
pub const PRUNE_EPS: f64 = 1e-12;

/// Tracks the owner's pruning bound `MAXD`.
///
/// Soundness for `k > 1` requires care: the `k` entries backing the bound
/// must guarantee `k` *distinct* points, which holds only while they are
/// pairwise-disjoint subtrees. Entries in a queue are always disjoint
/// (a popped node is replaced by its children), so the tracker counts only
/// *live* entries: [`offer`](Self::offer) on enqueue,
/// [`remove`](Self::remove) on dequeue/filter. Each emitted result lowers
/// the requirement by one ([`satisfy_one`](Self::satisfy_one)). Once a
/// single neighbor remains wanted, the tracker switches to the tighter
/// min-over-everything-ever-offered bound, which is sound for one point
/// regardless of entry overlap.
#[derive(Clone, Debug)]
pub struct BoundTracker {
    /// Neighbors originally requested.
    k_original: usize,
    /// Neighbors still wanted.
    k_remaining: usize,
    /// Bound inherited from the parent LPQ (squared).
    inherited_sq: f64,
    /// Minimum upper bound ever offered (squared) — sound for `k == 1`.
    min_ever_sq: f64,
    /// Multiset of live entries' upper bounds (squared), for `k > 1`.
    /// Never maintained when `k_original == 1` (the dominant ANN case):
    /// the min-ever bound is strictly tighter there and the map would be
    /// pure overhead in the hottest loop of the whole system.
    live: std::collections::BTreeMap<OrdF64, usize>,
    live_len: usize,
    /// Cached result of the k-th-smallest scan; `None` after a mutation.
    cached_kth: std::cell::Cell<Option<f64>>,
}

impl BoundTracker {
    /// Creates a tracker for `k` neighbors with an inherited initial bound
    /// (squared). Pass `f64::INFINITY` at the root.
    pub fn new(k: usize, inherited_sq: f64) -> Self {
        assert!(k >= 1, "k must be at least 1");
        BoundTracker {
            k_original: k,
            k_remaining: k,
            inherited_sq,
            min_ever_sq: f64::INFINITY,
            live: std::collections::BTreeMap::new(),
            live_len: 0,
            cached_kth: std::cell::Cell::new(None),
        }
    }

    /// Records the squared upper bound of an entry entering the queue.
    pub fn offer(&mut self, maxd_sq: f64) {
        if maxd_sq < self.min_ever_sq {
            self.min_ever_sq = maxd_sq;
        }
        if self.k_original > 1 {
            *self.live.entry(OrdF64(maxd_sq)).or_insert(0) += 1;
            self.live_len += 1;
            self.cached_kth.set(None);
        }
    }

    /// Records that an entry with this squared upper bound left the queue
    /// (dequeued or filtered).
    pub fn remove(&mut self, maxd_sq: f64) {
        if self.k_original == 1 {
            return; // no live multiset in the min-ever regime
        }
        if let Some(n) = self.live.get_mut(&OrdF64(maxd_sq)) {
            *n -= 1;
            if *n == 0 {
                self.live.remove(&OrdF64(maxd_sq));
            }
            self.live_len -= 1;
            self.cached_kth.set(None);
        } else {
            debug_assert!(false, "removed a bound that was never offered");
        }
    }

    /// Records one emitted result: one fewer neighbor is wanted.
    pub fn satisfy_one(&mut self) {
        self.k_remaining = self.k_remaining.saturating_sub(1);
        self.cached_kth.set(None);
    }

    /// Current squared pruning bound.
    pub fn bound_sq(&self) -> f64 {
        if self.k_remaining == 0 {
            // Nothing more is wanted: prune everything.
            return 0.0;
        }
        if self.k_original == 1 {
            // Plain ANN: the min over everything ever offered is sound
            // (each offer guarantees one point, and expanding the entry
            // that backs the minimum re-offers a child that still covers
            // its guaranteed point). This is the tightest bound and never
            // taints, because the search ends at the first emission.
            return self.inherited_sq.min(self.min_ever_sq);
        }
        // AkNN: only live (still-queued, pairwise-disjoint) entries may
        // back the bound — an emitted or historical offer might alias a
        // point a live descendant also guarantees.
        if self.live_len < self.k_remaining {
            return self.inherited_sq;
        }
        if let Some(kth) = self.cached_kth.get() {
            return self.inherited_sq.min(kth);
        }
        // k_remaining-th smallest live upper bound (with multiplicity);
        // O(k) scan, amortized by the mutation-invalidated cache.
        let mut need = self.k_remaining;
        for (v, n) in &self.live {
            if *n >= need {
                self.cached_kth.set(Some(v.0));
                return self.inherited_sq.min(v.0);
            }
            need -= n;
        }
        unreachable!("live_len >= k_remaining guarantees termination")
    }

    /// The epsilon-tolerant rejection threshold: [`prunes`](Self::prunes)
    /// is exactly `mind_sq > prune_threshold_sq()`.
    #[inline]
    pub fn prune_threshold_sq(&self) -> f64 {
        self.bound_sq() * (1.0 + PRUNE_EPS)
    }

    /// Epsilon-tolerant pruning test: `true` when an entry at squared
    /// lower-bound distance `mind_sq` cannot contribute a result.
    #[inline]
    pub fn prunes(&self, mind_sq: f64) -> bool {
        mind_sq > self.prune_threshold_sq()
    }
}

/// An `I_S` entry queued in an LPQ, with its distance fields.
#[derive(Clone, Copy, Debug)]
pub struct QueuedEntry<const D: usize> {
    /// Squared `MINMINDIST(owner, entry)` — the queue priority.
    pub mind_sq: f64,
    /// Squared pruning-metric upper bound.
    pub maxd_sq: f64,
    /// The target-index entry itself.
    pub entry: Entry<D>,
}

/// The `Distances` procedure of the paper's Algorithm 4: computes the
/// `(MIND², MAXD²)` pair between an owner entry (from `I_R`) and a target
/// entry (from `I_S`) under pruning metric `M`.
#[inline]
pub fn distances<const D: usize, M: PruneMetric>(
    owner: &Entry<D>,
    target: &Entry<D>,
) -> (f64, f64) {
    let om = owner.mbr();
    let tm = target.mbr();
    (min_min_dist_sq(&om, &tm), M::upper_sq(&om, &tm))
}

/// Early-exit `Distances`: computes `(MIND², MAXD²)` only when the entry
/// can survive a pruning test at `threshold_sq` (pass
/// [`Lpq::prune_threshold_sq`]). Returns `None` — without computing the
/// upper bound at all — exactly when `MIND² > threshold_sq`, i.e. exactly
/// when [`Lpq::try_enqueue`] would reject the entry, whose `MAXD²` is then
/// never consulted. The MIND accumulation stops at the first dimension
/// where the running sum exceeds the threshold
/// ([`min_min_dist_sq_within`]), which is where high-dimensional LPQ
/// filtering spends most of its arithmetic.
#[inline]
pub fn distances_within<const D: usize, M: PruneMetric>(
    owner: &Entry<D>,
    target: &Entry<D>,
    threshold_sq: f64,
) -> Option<(f64, f64)> {
    if let (Entry::Object(o), Entry::Object(t)) = (owner, target) {
        // Between two points MIND ≡ MAXD ≡ `dist_sq`, bit for bit under
        // either metric (see [`crate::scan`]), and the early exit fires
        // iff the full sum exceeds the threshold: same decision, same
        // values, no metric evaluation.
        let d_sq = o.point.dist_sq(&t.point);
        return (d_sq <= threshold_sq).then_some((d_sq, d_sq));
    }
    let om = owner.mbr();
    let tm = target.mbr();
    let mind_sq = min_min_dist_sq_within(&om, &tm, threshold_sq)?;
    Some((mind_sq, M::upper_sq(&om, &tm)))
}

/// A Local Priority Queue: `MIND`-ordered candidates from `I_S`, owned by
/// one unique entry of `I_R`.
#[derive(Clone, Debug)]
pub struct Lpq<const D: usize> {
    /// The owning `I_R` entry (node or object).
    pub owner: Entry<D>,
    entries: Vec<QueuedEntry<D>>,
    head: usize,
    bound: BoundTracker,
    /// `true` while [`satisfy_one`](Self::satisfy_one) has tightened the
    /// bound since the last Filter pass — the one way the bound can drop
    /// below a queued entry's `MIND` outside [`try_enqueue`](Self::try_enqueue).
    filter_pending: bool,
    /// Lifetime tallies for observability ([`crate::trace`]): entries ever
    /// accepted, entries the Filter stage evicted, and the queue-length
    /// high-water mark. Maintained unconditionally — three integer ops per
    /// accepted entry, invisible next to the sorted insert they ride on.
    enqueued_total: u64,
    filtered_total: u64,
    high_water: u32,
}

impl<const D: usize> Lpq<D> {
    /// Creates an LPQ for `owner` seeking `k` neighbors, inheriting the
    /// parent LPQ's squared bound (Expand stage, Algorithm 4 line 12).
    pub fn new(owner: Entry<D>, k: usize, inherited_bound_sq: f64) -> Self {
        Self::new_in(owner, k, inherited_bound_sq, Vec::new())
    }

    /// [`new`](Self::new) with caller-provided backing storage, typically
    /// recycled through [`crate::scratch::QueryScratch`]; the storage is
    /// cleared, its capacity is kept.
    pub fn new_in(
        owner: Entry<D>,
        k: usize,
        inherited_bound_sq: f64,
        mut storage: Vec<QueuedEntry<D>>,
    ) -> Self {
        storage.clear();
        Lpq {
            owner,
            entries: storage,
            head: 0,
            bound: BoundTracker::new(k, inherited_bound_sq),
            filter_pending: false,
            enqueued_total: 0,
            filtered_total: 0,
            high_water: 0,
        }
    }

    /// Consumes the queue and hands its backing storage back (cleared,
    /// capacity kept) for recycling via
    /// [`crate::scratch::QueryScratch::put_lpq`].
    pub fn into_storage(self) -> Vec<QueuedEntry<D>> {
        let mut v = self.entries;
        v.clear();
        v
    }

    /// Dequeue-order key: ascending `(MIND, nodes-before-objects, MAXD,
    /// oid)`. Child MIND never undercuts its parent's, so dequeuing tied
    /// nodes first guarantees all objects at a tied distance are queued
    /// before any of them is emitted.
    #[inline]
    fn order_key(q: &QueuedEntry<D>) -> (f64, u8, f64, u64) {
        match q.entry {
            Entry::Node(n) => (q.mind_sq, 0, q.maxd_sq, u64::from(n.page)),
            Entry::Object(o) => (q.mind_sq, 1, q.maxd_sq, o.oid),
        }
    }

    /// Current squared pruning bound (`LPQ.MAXD` in the paper).
    #[inline]
    pub fn bound_sq(&self) -> f64 {
        self.bound.bound_sq()
    }

    /// The exact epsilon-tolerant rejection threshold
    /// [`try_enqueue`](Self::try_enqueue) applies: an entry with
    /// `MIND² > prune_threshold_sq()` is rejected. Exposed so probing can
    /// hand it to [`distances_within`] and skip distance work for entries
    /// that cannot be accepted.
    #[inline]
    pub fn prune_threshold_sq(&self) -> f64 {
        self.bound.prune_threshold_sq()
    }

    /// Entries currently queued (not yet dequeued, not filtered).
    pub fn len(&self) -> usize {
        self.entries.len() - self.head
    }

    /// `true` when nothing remains to dequeue.
    pub fn is_empty(&self) -> bool {
        self.head == self.entries.len()
    }

    /// Attempts to enqueue `entry` with the given distance fields.
    ///
    /// Implements the probe test (reject when `MIND > MAXD`, Algorithm 4
    /// lines 8/17) and the **Filter stage**: when the new entry tightens
    /// the bound, queued entries whose `MIND` now exceeds it are discarded.
    ///
    /// Returns `(accepted, filtered)`: whether the entry was queued, and
    /// how many queued entries the Filter stage evicted.
    pub fn try_enqueue(&mut self, e: QueuedEntry<D>) -> (bool, u64) {
        let bound_before = self.bound.bound_sq();
        if e.mind_sq > bound_before * (1.0 + PRUNE_EPS) {
            return (false, 0);
        }
        self.bound.offer(e.maxd_sq);
        // Insertion position: ties on MIND dequeue nodes before objects (a
        // tied node may still hold a smaller-oid object at the same
        // distance), then break on MAXD (paper §3.3.3), then on oid so
        // equal-distance objects dequeue in the canonical smaller-oid-first
        // order.
        let key = Self::order_key(&e);
        let pos =
            self.entries[self.head..].partition_point(|q| Self::order_key(q) <= key) + self.head;
        self.entries.insert(pos, e);
        self.enqueued_total += 1;
        let len = (self.entries.len() - self.head) as u32;
        if len > self.high_water {
            self.high_water = len;
        }
        // Filter stage: drop the tail that the tightened bound now
        // excludes. Every queued entry passed the probe test against a
        // bound no tighter than `bound_before` (a dequeue only loosens
        // it; `satisfy_one` raises `filter_pending`), so when the offer
        // left the bound where it was there is nothing to evict.
        let bound_after = self.bound.bound_sq();
        if bound_after == bound_before && !self.filter_pending {
            return (true, 0);
        }
        self.filter_pending = false;
        // The vector is MIND-sorted, so the victims form a suffix.
        let bound = bound_after * (1.0 + PRUNE_EPS);
        let cut = self.entries[self.head..].partition_point(|q| q.mind_sq <= bound) + self.head;
        let filtered = (self.entries.len() - cut) as u64;
        for victim in &self.entries[cut..] {
            self.bound.remove(victim.maxd_sq);
        }
        self.entries.truncate(cut);
        self.filtered_total += filtered;
        (true, filtered)
    }

    /// Entries this queue ever accepted (observability tally).
    #[inline]
    pub fn enqueued_total(&self) -> u64 {
        self.enqueued_total
    }

    /// Entries the Filter stage ever evicted from this queue
    /// (observability tally).
    #[inline]
    pub fn filtered_total(&self) -> u64 {
        self.filtered_total
    }

    /// Largest queue length this queue ever reached (observability tally).
    #[inline]
    pub fn high_water(&self) -> u32 {
        self.high_water
    }

    /// Pops the entry with the smallest `MIND`, if any. The entry leaves
    /// the live-bound multiset; callers expanding a popped node re-offer
    /// its children through [`try_enqueue`](Self::try_enqueue).
    pub fn dequeue(&mut self) -> Option<QueuedEntry<D>> {
        if self.head < self.entries.len() {
            let e = self.entries[self.head];
            self.head += 1;
            self.bound.remove(e.maxd_sq);
            Some(e)
        } else {
            None
        }
    }

    /// Epsilon-tolerant pruning test against this LPQ's bound.
    #[inline]
    pub fn prunes(&self, mind_sq: f64) -> bool {
        self.bound.prunes(mind_sq)
    }

    /// Records one emitted result for this LPQ's owner (AkNN bookkeeping).
    pub fn satisfy_one(&mut self) {
        self.bound.satisfy_one();
        self.filter_pending = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::{NodeEntry, ObjectEntry};
    use ann_geom::{Mbr, NxnDist, Point};

    fn obj(oid: u64, x: f64, y: f64) -> Entry<2> {
        Entry::Object(ObjectEntry {
            oid,
            point: Point::new([x, y]),
        })
    }

    fn node(page: u32, lo: [f64; 2], hi: [f64; 2]) -> Entry<2> {
        Entry::Node(NodeEntry {
            page,
            count: 10,
            mbr: Mbr::new(lo, hi),
        })
    }

    fn qe(entry: Entry<2>, mind: f64, maxd: f64) -> QueuedEntry<2> {
        QueuedEntry {
            mind_sq: mind,
            maxd_sq: maxd,
            entry,
        }
    }

    #[test]
    fn bound_tracker_k1_takes_minimum() {
        let mut b = BoundTracker::new(1, f64::INFINITY);
        b.offer(9.0);
        assert_eq!(b.bound_sq(), 9.0);
        b.offer(16.0);
        assert_eq!(b.bound_sq(), 9.0);
        b.offer(4.0);
        assert_eq!(b.bound_sq(), 4.0);
    }

    #[test]
    fn bound_tracker_k1_respects_inherited() {
        let mut b = BoundTracker::new(1, 2.0);
        assert_eq!(b.bound_sq(), 2.0);
        b.offer(5.0);
        assert_eq!(b.bound_sq(), 2.0, "looser offers cannot widen the bound");
    }

    #[test]
    fn bound_tracker_k3_takes_third_smallest() {
        let mut b = BoundTracker::new(3, f64::INFINITY);
        b.offer(10.0);
        b.offer(2.0);
        assert_eq!(
            b.bound_sq(),
            f64::INFINITY,
            "fewer than k entries guarantee nothing"
        );
        b.offer(6.0);
        assert_eq!(b.bound_sq(), 10.0);
        b.offer(3.0); // smallest three now 2, 3, 6
        assert_eq!(b.bound_sq(), 6.0);
        b.offer(100.0); // no change
        assert_eq!(b.bound_sq(), 6.0);
        b.offer(1.0); // smallest three now 1, 2, 3
        assert_eq!(b.bound_sq(), 3.0);
    }

    #[test]
    fn enqueue_orders_by_mind() {
        let mut lpq = Lpq::new(node(0, [0.0, 0.0], [1.0, 1.0]), 1, f64::INFINITY);
        lpq.try_enqueue(qe(obj(1, 0.0, 0.0), 9.0, 9.0));
        lpq.try_enqueue(qe(obj(2, 0.0, 0.0), 1.0, 1.0));
        lpq.try_enqueue(qe(obj(3, 0.0, 0.0), 1.0, 1.0));
        let order: Vec<f64> = std::iter::from_fn(|| lpq.dequeue())
            .map(|e| e.mind_sq)
            .collect();
        // The 9.0 entry was filtered when the 1.0 bound arrived.
        assert_eq!(order, vec![1.0, 1.0]);
    }

    #[test]
    fn probe_test_rejects_beyond_bound() {
        let mut lpq = Lpq::new(node(0, [0.0, 0.0], [1.0, 1.0]), 1, 4.0);
        let (accepted, _) = lpq.try_enqueue(qe(obj(1, 0.0, 0.0), 5.0, 6.0));
        assert!(!accepted);
        assert!(lpq.is_empty());
        // Within the bound: accepted.
        let (accepted, _) = lpq.try_enqueue(qe(obj(2, 0.0, 0.0), 3.0, 3.5));
        assert!(accepted);
        assert_eq!(lpq.len(), 1);
    }

    #[test]
    fn filter_stage_evicts_tail() {
        let mut lpq = Lpq::new(node(0, [0.0, 0.0], [1.0, 1.0]), 1, f64::INFINITY);
        // Three loose node entries...
        lpq.try_enqueue(qe(node(1, [5.0, 5.0], [6.0, 6.0]), 7.0, 50.0));
        lpq.try_enqueue(qe(node(2, [5.0, 5.0], [6.0, 6.0]), 8.0, 50.0));
        lpq.try_enqueue(qe(node(3, [5.0, 5.0], [6.0, 6.0]), 9.0, 50.0));
        assert_eq!(lpq.len(), 3);
        // ...then a tight object: bound drops to 7.5, filtering MIND 8 & 9.
        let (accepted, filtered) = lpq.try_enqueue(qe(obj(9, 0.0, 0.0), 7.5, 7.5));
        assert!(accepted);
        assert_eq!(filtered, 2);
        assert_eq!(lpq.len(), 2);
        assert_eq!(lpq.bound_sq(), 7.5);
    }

    #[test]
    fn ties_on_mind_break_on_maxd() {
        let mut lpq = Lpq::new(node(0, [0.0, 0.0], [1.0, 1.0]), 1, f64::INFINITY);
        lpq.try_enqueue(qe(node(1, [0.0, 0.0], [1.0, 1.0]), 2.0, 90.0));
        lpq.try_enqueue(qe(node(2, [0.0, 0.0], [1.0, 1.0]), 2.0, 10.0));
        let first = lpq.dequeue().unwrap();
        assert_eq!(first.maxd_sq, 10.0, "tighter MAXD wins the tie");
    }

    #[test]
    fn aknn_bound_needs_k_entries() {
        let mut lpq = Lpq::new(node(0, [0.0, 0.0], [1.0, 1.0]), 2, f64::INFINITY);
        lpq.try_enqueue(qe(node(1, [0.0, 0.0], [1.0, 1.0]), 1.0, 4.0));
        assert_eq!(lpq.bound_sq(), f64::INFINITY);
        // A second disjoint subtree establishes the k=2 guarantee.
        lpq.try_enqueue(qe(node(2, [0.0, 0.0], [1.0, 1.0]), 2.0, 9.0));
        assert_eq!(lpq.bound_sq(), 9.0);
    }

    #[test]
    fn distances_for_objects_is_exact() {
        let owner = obj(1, 0.0, 0.0);
        let target = obj(2, 3.0, 4.0);
        let (mind, maxd) = distances::<2, NxnDist>(&owner, &target);
        assert_eq!(mind, 25.0);
        assert_eq!(maxd, 25.0);
    }

    #[test]
    fn distances_node_vs_node() {
        let owner = node(1, [0.0, 5.0], [4.0, 7.0]);
        let target = node(2, [5.0, 0.0], [9.0, 2.0]);
        let (mind, maxd) = distances::<2, NxnDist>(&owner, &target);
        assert_eq!(mind, 1.0 + 9.0); // gap (1, 3)
        assert_eq!(maxd, 74.0); // the Figure 1(a) example
    }
}
