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
//! Every probe reads that bound, and far fewer operations change it, so
//! [`BoundTracker`] keeps it in a field that each change refreshes:
//! reading it is a load.
//!
//! The queue is kept as a `MIND`-sorted vector. That makes the **Filter
//! stage** — "entries with a MIND greater than the MAXD of the new entry
//! are immediately discarded" — a truncation of the sorted tail whenever
//! the bound tightens.
//!
//! # Storage: keys, slab and free list
//!
//! The sorted vector holds 32-byte keys — `MIND²`, `MAXD²`, the page or
//! oid, a slot index and the node-first flag — not the entries, whose
//! `Entry<D>` payload (up to ~200 bytes at `D = 10`) would make every
//! sorted insert memmove it. The payloads live in a slab indexed by slot.
//! A dequeued or filtered entry's slot goes on a free list chained through
//! the free slots themselves, and the next accepted offer reuses it, so the
//! slab never holds more slots than the queue's
//! [`high_water`](Lpq::high_water) length and the list costs no allocation
//! of its own. The key carries the whole dequeue order, so insert positions
//! never touch the slab, and the Filter stage truncates keys only. The
//! three vectors — keys, slab and the bound tracker's live bounds — travel
//! together as one [`LpqStorage`] for recycling.
//!
//! # One leaf, one batched offer
//!
//! [`Lpq::offer_points`] offers a leaf's points with the outcome of one
//! [`Lpq::try_enqueue`] per point, replaying the bound on a shadow
//! tracker and keeping the indices of the accepted points still alive.
//! Only the points within the final threshold — exactly that list — are
//! written to the keys, the slab and the tracker.

use crate::node::Entry;
use ann_geom::{min_min_dist_sq, min_min_dist_sq_within, PruneMetric};
use std::mem::size_of;

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
/// the requirement by one ([`satisfy_one`](Self::satisfy_one)), and the
/// bound stays the `k_remaining`-th smallest live bound down to the last
/// wanted neighbor. It never falls back to the minimum over everything
/// ever offered: once the self match (MAXD 0) of an `exclude_self` join
/// is emitted, that minimum would be 0 and would prune the true nearest
/// neighbor. Only a tracker created for `k = 1` uses the min-ever bound,
/// because its search ends at the first emission.
///
/// The bound is read on every probe and written far less often, so it is
/// kept in a field: every method that changes an input of the formula
/// ([`formula_sq`](Self::formula_sq)) refreshes it, and
/// [`bound_sq`](Self::bound_sq) is a load.
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
    /// Live entries' upper bounds (squared), sorted ascending by
    /// `f64::total_cmp` with multiplicity, for `k > 1`: the bound is the
    /// O(1) read `live[k_remaining - 1]`, and an offer or removal is a
    /// binary search plus a memmove of the tail. Never maintained when
    /// `k_original == 1`: the min-ever bound is strictly tighter there.
    /// An `exclude_self` self-join runs at `k + 1`, so every `k = 1`
    /// self-join keeps this vector.
    live: Vec<f64>,
    /// [`formula_sq`](Self::formula_sq) as of the last change.
    bound_sq: f64,
}

impl BoundTracker {
    /// Creates a tracker for `k` neighbors with an inherited initial bound
    /// (squared). Pass `f64::INFINITY` at the root.
    pub fn new(k: usize, inherited_sq: f64) -> Self {
        Self::new_in(k, inherited_sq, Vec::new())
    }

    /// [`new`](Self::new) over caller-provided storage for the live
    /// bounds, typically recycled through
    /// [`crate::scratch::QueryScratch`]; the storage is cleared, its
    /// capacity is kept.
    pub fn new_in(k: usize, inherited_sq: f64, mut live: Vec<f64>) -> Self {
        assert!(k >= 1, "k must be at least 1");
        live.clear();
        let mut tracker = BoundTracker {
            k_original: k,
            k_remaining: k,
            inherited_sq,
            min_ever_sq: f64::INFINITY,
            live,
            bound_sq: 0.0,
        };
        tracker.refresh();
        tracker
    }

    /// Consumes the tracker and hands its live-bound storage back
    /// (cleared, capacity kept) for recycling.
    pub fn into_storage(self) -> Vec<f64> {
        let mut v = self.live;
        v.clear();
        v
    }

    /// Records the squared upper bound of an entry entering the queue.
    pub fn offer(&mut self, maxd_sq: f64) {
        if maxd_sq < self.min_ever_sq {
            self.min_ever_sq = maxd_sq;
        }
        if self.k_original > 1 {
            let at = self.live.partition_point(|v| v.total_cmp(&maxd_sq).is_lt());
            self.live.insert(at, maxd_sq);
        }
        self.refresh();
    }

    /// Records that an entry with this squared upper bound left the queue
    /// (dequeued or filtered).
    pub fn remove(&mut self, maxd_sq: f64) {
        if self.k_original == 1 {
            return; // no live multiset in the min-ever regime
        }
        match self.live.binary_search_by(|v| v.total_cmp(&maxd_sq)) {
            Ok(at) => {
                self.live.remove(at);
            }
            Err(_) => debug_assert!(false, "removed a bound that was never offered"),
        }
        self.refresh();
    }

    /// Records one emitted result: one fewer neighbor is wanted.
    pub fn satisfy_one(&mut self) {
        self.k_remaining = self.k_remaining.saturating_sub(1);
        self.refresh();
    }

    /// Current squared pruning bound.
    #[inline]
    pub fn bound_sq(&self) -> f64 {
        self.bound_sq
    }

    /// Stores [`formula_sq`](Self::formula_sq) as the bound.
    #[inline]
    fn refresh(&mut self) {
        self.bound_sq = self.formula_sq();
    }

    /// The squared pruning bound, derived from the tracker's state.
    #[inline]
    fn formula_sq(&self) -> f64 {
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
        // point a live descendant also guarantees. The k_remaining-th
        // smallest counts multiplicity; fewer live entries guarantee
        // nothing beyond the inherited bound.
        match self.live.get(self.k_remaining - 1) {
            Some(&kth) => self.inherited_sq.min(kth),
            None => self.inherited_sq,
        }
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

    /// A tracker over `storage` that reads this one's bound and keeps it
    /// through further [`offer_kept`](Self::offer_kept)s while nothing is
    /// removed: it holds only the `k_remaining` smallest live bounds, the
    /// only ones [`bound_sq`](Self::bound_sq) can read.
    fn shadow_in(&self, mut storage: Vec<f64>) -> BoundTracker {
        storage.clear();
        storage.extend_from_slice(&self.live[..self.live.len().min(self.k_remaining)]);
        BoundTracker {
            k_original: self.k_original,
            k_remaining: self.k_remaining,
            inherited_sq: self.inherited_sq,
            min_ever_sq: self.min_ever_sq,
            live: storage,
            bound_sq: self.bound_sq,
        }
    }

    /// [`offer`](Self::offer) on a [`shadow_in`](Self::shadow_in) tracker.
    /// The bound reads `live[k_remaining - 1]`, which the truncation
    /// keeps, so the refresh inside `offer` stays current.
    fn offer_kept(&mut self, maxd_sq: f64) {
        self.offer(maxd_sq);
        self.live.truncate(self.k_remaining);
    }
}

/// The working buffers of [`Lpq::offer_points`], kept by the caller so a
/// warm batch allocates nothing.
#[derive(Debug, Default)]
pub(crate) struct PointBatch {
    /// The shadow bound tracker's live bounds.
    pub(crate) smallest: Vec<f64>,
    /// Leaf indices of the accepted points the batch's Filter stage has
    /// not evicted yet, ascending.
    pub(crate) alive: Vec<u32>,
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

/// One queued entry's sort key: the whole `(MIND, nodes-before-objects,
/// MAXD, page/oid)` dequeue order, plus the slab slot holding its entry.
#[derive(Clone, Copy, Debug)]
struct QueueKey {
    mind_sq: f64,
    maxd_sq: f64,
    /// Page of a node entry, oid of an object.
    id: u64,
    slot: u32,
    /// 0 for a node entry, 1 for an object: tied nodes dequeue first.
    kind: u8,
}

impl QueueKey {
    /// Dequeue-order key: ascending `(MIND, nodes-before-objects, MAXD,
    /// oid)`. Child MIND never undercuts its parent's, so dequeuing tied
    /// nodes first guarantees all objects at a tied distance are queued
    /// before any of them is emitted.
    #[inline]
    fn order(&self) -> (f64, u8, f64, u64) {
        (self.mind_sq, self.kind, self.maxd_sq, self.id)
    }
}

/// One slab slot: a queued entry's payload, or a link of the free list.
#[derive(Clone, Copy, Debug)]
enum Slot<const D: usize> {
    Full(Entry<D>),
    /// The next free slot, or [`NO_SLOT`] at the end of the list.
    Free(u32),
}

/// The end of the free list.
const NO_SLOT: u32 = u32::MAX;

/// The backing storage of one [`Lpq`] — sorted keys, entry slab and the
/// bound tracker's live bounds — handed between queues by
/// [`crate::scratch::QueryScratch`]. Always empty outside a queue;
/// capacity is what it carries.
#[derive(Debug, Default)]
pub struct LpqStorage<const D: usize> {
    keys: Vec<QueueKey>,
    slab: Vec<Slot<D>>,
    live: Vec<f64>,
}

impl<const D: usize> LpqStorage<D> {
    /// Bytes of capacity held across the three vectors.
    pub fn capacity_bytes(&self) -> usize {
        self.keys.capacity() * size_of::<QueueKey>()
            + self.slab.capacity() * size_of::<Slot<D>>()
            + self.live.capacity() * size_of::<f64>()
    }
}

/// A Local Priority Queue: `MIND`-ordered candidates from `I_S`, owned by
/// one unique entry of `I_R`.
#[derive(Clone, Debug)]
pub struct Lpq<const D: usize> {
    /// The owning `I_R` entry (node or object).
    pub owner: Entry<D>,
    /// Sort keys in dequeue order; `keys[head..]` are queued.
    keys: Vec<QueueKey>,
    head: usize,
    /// Entry payloads, indexed by [`QueueKey::slot`].
    slab: Vec<Slot<D>>,
    /// First slab slot no queued key refers to, or [`NO_SLOT`].
    free: u32,
    bound: BoundTracker,
    /// `true` while [`satisfy_one`](Self::satisfy_one) has tightened the
    /// bound since the last Filter pass — the one way the bound can drop
    /// below a queued entry's `MIND` outside an offer.
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
        Self::new_in(owner, k, inherited_bound_sq, LpqStorage::default())
    }

    /// [`new`](Self::new) over caller-provided backing storage, typically
    /// recycled through [`crate::scratch::QueryScratch`]: its capacity is
    /// kept.
    pub fn new_in(
        owner: Entry<D>,
        k: usize,
        inherited_bound_sq: f64,
        storage: LpqStorage<D>,
    ) -> Self {
        let LpqStorage { keys, slab, live } = storage;
        Lpq {
            owner,
            keys,
            head: 0,
            slab,
            free: NO_SLOT,
            bound: BoundTracker::new_in(k, inherited_bound_sq, live),
            filter_pending: false,
            enqueued_total: 0,
            filtered_total: 0,
            high_water: 0,
        }
    }

    /// Consumes the queue and hands its backing storage back (cleared,
    /// capacity kept) for recycling via
    /// [`crate::scratch::QueryScratch::put_lpq`].
    pub fn into_storage(self) -> LpqStorage<D> {
        let Lpq {
            mut keys,
            mut slab,
            bound,
            ..
        } = self;
        keys.clear();
        slab.clear();
        LpqStorage {
            keys,
            slab,
            live: bound.into_storage(),
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
        self.keys.len() - self.head
    }

    /// `true` when nothing remains to dequeue.
    pub fn is_empty(&self) -> bool {
        self.head == self.keys.len()
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
        self.insert(e);
        self.enqueued_total += 1;
        let len = (self.keys.len() - self.head) as u32;
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
        // The keys are MIND-sorted, so the victims form a suffix.
        let bound = bound_after * (1.0 + PRUNE_EPS);
        let cut = self.keys[self.head..].partition_point(|q| q.mind_sq <= bound) + self.head;
        let filtered = (self.keys.len() - cut) as u64;
        self.evict_from(cut);
        self.filtered_total += filtered;
        (true, filtered)
    }

    /// Offers the points of one leaf — `entries[i]` at squared distance
    /// `dist_sq[i]`, which is both its MIND and its MAXD — with the
    /// outcome of one [`try_enqueue`](Self::try_enqueue) per point in
    /// order: the same queue, bound and tallies, and the same summed
    /// `(accepted, filtered)`. Only the points still queued at the end
    /// of the batch touch the keys, the slab and the bound tracker.
    ///
    /// The batch replays the bound on a shadow tracker that nothing ever
    /// leaves. That is exact because nothing dequeues within a batch, so
    /// the bound only falls, and because an entry the Filter stage evicts
    /// never moved the bound: its MAXD is at least its MIND (equal for a
    /// point, clamped for NXNDIST, a sum of larger terms for MAXMAXDIST),
    /// which is above the bound. The queue length is replayed as a count,
    /// the queued entries as the evicted suffix of the keys plus the
    /// indices of the accepted points still alive. Since the threshold
    /// only falls, a point is queued at the end exactly when its distance
    /// passes the final threshold, and queued entries are evicted exactly
    /// when theirs does not. The alive list is exactly those points, in
    /// leaf order, so the final pass writes them without rescanning the
    /// leaf.
    pub(crate) fn offer_points(
        &mut self,
        entries: &[Entry<D>],
        dist_sq: &[f64],
        batch: &mut PointBatch,
    ) -> (u64, u64) {
        debug_assert_eq!(entries.len(), dist_sq.len());
        debug_assert!(u32::try_from(dist_sq.len()).is_ok());
        let mut shadow = self.bound.shadow_in(std::mem::take(&mut batch.smallest));
        let alive = &mut batch.alive;
        alive.clear();
        let mut pending = self.filter_pending;
        let mut cut = self.keys.len();
        let mut high_water = self.high_water;
        let mut accepted = 0u64;
        let mut bound = shadow.bound_sq();
        let mut threshold = bound * (1.0 + PRUNE_EPS);
        let mut next = 0;
        // Each round skips the run of points above the threshold in force
        // and accepts the first one within it.
        while let Some(skipped) = dist_sq[next..].iter().position(|&d| d <= threshold) {
            let i = next + skipped;
            next = i + 1;
            shadow.offer_kept(dist_sq[i]);
            alive.push(i as u32);
            accepted += 1;
            high_water = high_water.max((cut - self.head + alive.len()) as u32);
            let bound_after = shadow.bound_sq();
            if bound_after == bound && !pending {
                continue;
            }
            pending = false;
            bound = bound_after;
            threshold = bound * (1.0 + PRUNE_EPS);
            while cut > self.head && self.keys[cut - 1].mind_sq > threshold {
                cut -= 1;
            }
            alive.retain(|&a| dist_sq[a as usize] <= threshold);
        }
        let survivors = alive.len();
        batch.smallest = shadow.into_storage();
        if accepted == 0 {
            return (0, 0);
        }
        let filtered = (self.keys.len() - cut) as u64 + accepted - survivors as u64;
        debug_assert!(self.keys[cut..].iter().all(|q| q.maxd_sq >= q.mind_sq));
        self.evict_from(cut);
        for &i in &batch.alive {
            let d = dist_sq[i as usize];
            debug_assert!(d <= threshold);
            self.bound.offer(d);
            self.insert(QueuedEntry {
                mind_sq: d,
                maxd_sq: d,
                entry: entries[i as usize],
            });
        }
        debug_assert_eq!(self.len(), cut - self.head + survivors);
        debug_assert_eq!(self.bound.bound_sq().to_bits(), bound.to_bits());
        self.enqueued_total += accepted;
        self.filtered_total += filtered;
        self.high_water = high_water;
        self.filter_pending = false;
        (accepted, filtered)
    }

    /// Writes `e` into a slab slot and its key at its sorted position.
    fn insert(&mut self, e: QueuedEntry<D>) {
        let slot = if self.free == NO_SLOT {
            self.slab.push(Slot::Full(e.entry));
            u32::try_from(self.slab.len() - 1)
                .ok()
                .filter(|&slot| slot != NO_SLOT)
                .expect("an LPQ holds fewer than 2^32 - 1 entries")
        } else {
            let slot = self.free;
            let Slot::Free(next) = self.slab[slot as usize] else {
                unreachable!("the free list links only free slots")
            };
            self.free = next;
            self.slab[slot as usize] = Slot::Full(e.entry);
            slot
        };
        let (kind, id) = match e.entry {
            Entry::Node(n) => (0, u64::from(n.page)),
            Entry::Object(o) => (1, o.oid),
        };
        let key = QueueKey {
            mind_sq: e.mind_sq,
            maxd_sq: e.maxd_sq,
            id,
            slot,
            kind,
        };
        // Insertion position: ties on MIND dequeue nodes before objects (a
        // tied node may still hold a smaller-oid object at the same
        // distance), then break on MAXD (paper §3.3.3), then on oid so
        // equal-distance objects dequeue in the canonical smaller-oid-first
        // order.
        let order = key.order();
        let pos = self.keys[self.head..].partition_point(|q| q.order() <= order) + self.head;
        self.keys.insert(pos, key);
    }

    /// The Filter stage's eviction: drops `keys[cut..]`, their bounds and
    /// their slab slots.
    fn evict_from(&mut self, cut: usize) {
        for victim in &self.keys[cut..] {
            self.bound.remove(victim.maxd_sq);
            self.slab[victim.slot as usize] = Slot::Free(self.free);
            self.free = victim.slot;
        }
        self.keys.truncate(cut);
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
        let key = *self.keys.get(self.head)?;
        self.head += 1;
        self.bound.remove(key.maxd_sq);
        let freed = Slot::Free(self.free);
        let Slot::Full(entry) = std::mem::replace(&mut self.slab[key.slot as usize], freed) else {
            unreachable!("a queued key's slot holds its entry")
        };
        self.free = key.slot;
        Some(QueuedEntry {
            mind_sq: key.mind_sq,
            maxd_sq: key.maxd_sq,
            entry,
        })
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
    use ann_datagen::Rng;
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
    fn bound_tracker_last_wanted_neighbor_stays_on_live_entries() {
        // An exclude_self self-join at k = 1 tracks k_eff = 2. The self
        // match (MAXD 0) is dequeued and emitted; the one neighbor still
        // wanted is backed by the smallest *live* bound, not by the 0
        // that min-over-everything-ever-offered would read.
        let mut b = BoundTracker::new(2, f64::INFINITY);
        for v in [0.0, 4.0, 9.0] {
            b.offer(v);
        }
        assert_eq!(b.bound_sq(), 4.0);
        b.remove(0.0);
        b.satisfy_one();
        assert_eq!(b.bound_sq(), 4.0);
    }

    /// The bound recomputed from a model of the tracker's history: every
    /// value ever offered (`min_ever`), the values offered and not
    /// removed (`live`, any order) and the neighbors still wanted.
    fn model_bound(
        k: usize,
        k_remaining: usize,
        inherited: f64,
        min_ever: f64,
        live: &[f64],
    ) -> f64 {
        if k_remaining == 0 {
            return 0.0;
        }
        if k == 1 {
            return inherited.min(min_ever);
        }
        let mut sorted = live.to_vec();
        sorted.sort_by(f64::total_cmp);
        sorted
            .get(k_remaining - 1)
            .map_or(inherited, |&kth| inherited.min(kth))
    }

    /// After every offer, removal, emitted result and shadow
    /// `offer_kept` of a random sequence, the tracker's bound and
    /// threshold are the ones the model recomputes from scratch.
    #[test]
    fn bound_equals_from_scratch_formula_after_every_operation() {
        ann_datagen::for_each_case(0xB0B0, 64, |rng| {
            for k in [1, 2, 3, 11, 51] {
                for inherited in [f64::INFINITY, 40.0] {
                    let mut b = BoundTracker::new(k, inherited);
                    let (mut k_remaining, mut min_ever) = (k, f64::INFINITY);
                    let mut live: Vec<f64> = Vec::new();
                    let check = |b: &BoundTracker, k_rem: usize, min_ever: f64, live: &[f64]| {
                        let want = model_bound(k, k_rem, inherited, min_ever, live);
                        let case = format!("k={k} inherited={inherited} k_remaining={k_rem}");
                        assert_eq!(b.bound_sq().to_bits(), want.to_bits(), "{case}");
                        let threshold = want * (1.0 + PRUNE_EPS);
                        assert_eq!(
                            b.prune_threshold_sq().to_bits(),
                            threshold.to_bits(),
                            "{case}"
                        );
                    };
                    check(&b, k_remaining, min_ever, &live);
                    for _ in 0..rng.range(1, 4 * k + 20) {
                        match rng.range(0, 16) {
                            // Down to 0 and past it: satisfy_one saturates.
                            0 => {
                                b.satisfy_one();
                                k_remaining = k_remaining.saturating_sub(1);
                            }
                            1..=4 if !live.is_empty() => {
                                let v = live.swap_remove(rng.range(0, live.len()));
                                b.remove(v);
                            }
                            5 => {
                                // A shadow keeps the bound through offers
                                // while nothing is removed.
                                let mut shadow = b.shadow_in(Vec::new());
                                let mut shadow_live = live.clone();
                                let mut shadow_min = min_ever;
                                check(&shadow, k_remaining, shadow_min, &shadow_live);
                                for _ in 0..rng.range(1, 2 * k + 4) {
                                    let v = rng.range_f64(0.0, 100.0);
                                    shadow.offer_kept(v);
                                    shadow_live.push(v);
                                    shadow_min = shadow_min.min(v);
                                    check(&shadow, k_remaining, shadow_min, &shadow_live);
                                }
                            }
                            _ => {
                                // Repeat a live value now and then: ties.
                                let v = match live.last() {
                                    Some(&v) if rng.chance(0.2) => v,
                                    _ => rng.range_f64(0.0, 100.0),
                                };
                                b.offer(v);
                                live.push(v);
                                min_ever = min_ever.min(v);
                            }
                        }
                        check(&b, k_remaining, min_ever, &live);
                    }
                }
            }
        });
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

    /// The sorted vector's element type at dimension `D`.
    fn key_bytes<const D: usize>() -> usize {
        fn element<T>(_: &[T]) -> usize {
            size_of::<T>()
        }
        let owner = Entry::Object(ObjectEntry {
            oid: 0,
            point: Point::new([0.0; D]),
        });
        element(&Lpq::<D>::new(owner, 1, f64::INFINITY).keys)
    }

    #[test]
    fn sorted_key_carries_no_coordinates() {
        assert!(key_bytes::<2>() <= 32, "{} B at D = 2", key_bytes::<2>());
        assert!(key_bytes::<10>() <= 32, "{} B at D = 10", key_bytes::<10>());
    }

    /// Offers, dequeues, Filter-stage evictions and emitted results in
    /// random order: every dequeued entry carries the distances it was
    /// offered with (slot reuse never crosses two payloads), and the slab
    /// never holds more slots than the queue's high-water length.
    #[test]
    fn slab_reuses_slots_and_stays_within_high_water() {
        use std::collections::HashMap;
        ann_datagen::for_each_case(0x51AB, 128, |rng| {
            let mut lpq = Lpq::new(node(0, [0.0, 0.0], [1.0, 1.0]), rng.range(1, 4), 1e4);
            let mut offered = HashMap::new();
            for id in 0..rng.range(1, 400) as u32 {
                match rng.range(0, 40) {
                    0 => lpq.satisfy_one(),
                    1..=12 => {
                        if let Some(q) = lpq.dequeue() {
                            let id = match q.entry {
                                Entry::Node(n) => u64::from(n.page),
                                Entry::Object(o) => o.oid,
                            };
                            assert_eq!(offered.remove(&id), Some((q.mind_sq, q.maxd_sq)));
                        }
                    }
                    _ => {
                        let mind = rng.range_f64(0.0, 100.0);
                        let maxd = mind + rng.range_f64(0.0, 50.0);
                        let entry = if rng.chance(0.5) {
                            node(id, [0.0, 0.0], [1.0, 1.0])
                        } else {
                            obj(u64::from(id), 0.0, 0.0)
                        };
                        if lpq.try_enqueue(qe(entry, mind, maxd)).0 {
                            offered.insert(u64::from(id), (mind, maxd));
                        }
                    }
                }
                assert!(lpq.slab.len() <= lpq.high_water() as usize);
                let mut free = 0;
                let mut at = lpq.free;
                while let Some(&Slot::Free(next)) = lpq.slab.get(at as usize) {
                    (free, at) = (free + 1, next);
                }
                assert_eq!(at, NO_SLOT, "the free list ends in NO_SLOT");
                assert_eq!(lpq.slab.len(), lpq.len() + free);
            }
        });
    }

    fn drain(mut lpq: Lpq<2>) -> Vec<(u64, u64, Entry<2>)> {
        std::iter::from_fn(|| lpq.dequeue())
            .map(|q| (q.mind_sq.to_bits(), q.maxd_sq.to_bits(), q.entry))
            .collect()
    }

    /// A queue for `k` neighbors under an `inherited` bound, seeded with
    /// node entries (MAXD above MIND) and objects, some dequeued again,
    /// then one emitted result when `satisfied`.
    fn seeded_queue(rng: &mut Rng, k: usize, inherited: f64, satisfied: bool) -> Lpq<2> {
        let mut lpq = Lpq::new(node(0, [0.0, 0.0], [1.0, 1.0]), k, inherited);
        for id in 0..rng.range(0, 2 * k + 4) as u32 {
            let mind = rng.range_f64(0.0, 100.0);
            if rng.chance(0.5) {
                let maxd = mind + rng.range_f64(0.0, 50.0);
                lpq.try_enqueue(qe(node(id, [0.0; 2], [1.0; 2]), mind, maxd));
            } else {
                lpq.try_enqueue(qe(obj(u64::from(id), 0.0, 0.0), mind, mind));
            }
        }
        for _ in 0..rng.range(0, 3) {
            lpq.dequeue();
        }
        if satisfied {
            lpq.satisfy_one();
        }
        lpq
    }

    /// `len` leaf points and their distances: fresh draws, exact
    /// duplicates (one in five under a repeated oid), values a fraction of
    /// `PRUNE_EPS` away from the previous one or from `near`.
    fn leaf(rng: &mut Rng, len: usize, near: f64) -> (Vec<Entry<2>>, Vec<f64>) {
        let (mut entries, mut dist) = (Vec::new(), Vec::<f64>::new());
        for i in 0..len as u64 {
            let prev = dist.last().copied();
            let eps = PRUNE_EPS * *rng.pick(&[-1.5, -1.0, -0.5, 0.5, 1.0, 1.5]);
            let d = match (rng.range(0, 8), prev) {
                (0, Some(p)) => p,
                (1, Some(p)) => p * (1.0 + eps),
                (2, _) if near.is_finite() => near * (1.0 + eps),
                _ => rng.range_f64(0.0, 100.0),
            };
            let oid = match prev {
                Some(p) if d == p && rng.chance(0.2) => 1000 + i - 1,
                _ => 1000 + i,
            };
            entries.push(obj(oid, i as f64, 0.0));
            dist.push(d);
        }
        (entries, dist)
    }

    /// One batched offer ≡ one `try_enqueue` per point, on clones of the
    /// same queue: same drained keys and bound, bit for bit, same
    /// `(accepted, filtered)` and same tallies.
    #[test]
    fn offer_points_equals_per_point_replay() {
        let mut batch = PointBatch::default();
        let (mut accepted_total, mut filtered_total) = (0, 0);
        ann_datagen::for_each_case(0xBA7C, 24, |rng| {
            for len in [1, 15, 16, 17, 125, 500] {
                for k in [1, 2, 3, 11, 51] {
                    for inherited in [f64::INFINITY, 40.0] {
                        for satisfied in [false, true] {
                            let mut want = seeded_queue(rng, k, inherited, satisfied);
                            let (entries, dist) = leaf(rng, len, want.bound_sq());
                            let mut got = want.clone();
                            let mut replayed = (0, 0);
                            for (e, &d) in entries.iter().zip(&dist) {
                                let (acc, filtered) = want.try_enqueue(qe(*e, d, d));
                                replayed.0 += u64::from(acc);
                                replayed.1 += filtered;
                            }
                            let batched = got.offer_points(&entries, &dist, &mut batch);
                            let case = format!(
                                "len={len} k={k} inherited={inherited} satisfied={satisfied}"
                            );
                            assert_eq!(batched, replayed, "{case}");
                            assert_eq!(
                                got.bound_sq().to_bits(),
                                want.bound_sq().to_bits(),
                                "{case}"
                            );
                            let tallies = |q: &Lpq<2>| {
                                (q.enqueued_total(), q.filtered_total(), q.high_water())
                            };
                            assert_eq!(tallies(&got), tallies(&want), "{case}");
                            assert_eq!(drain(got), drain(want), "{case}");
                            accepted_total += batched.0;
                            filtered_total += batched.1;
                        }
                    }
                }
            }
        });
        assert!(accepted_total > 0 && filtered_total > 0);
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
