//! A bounded, sharded cache of *decoded* nodes.
//!
//! The buffer pool caches page bytes; every traversal that revisits a node
//! still pays `read_node`'s decode (header parse, entry unpacking,
//! continuation-chain walk) plus a trip through the pool's shard lock. The
//! `NodeCache` sits above the pool and memoizes the decoded node — as a
//! [`DecodedNode`], i.e. together with its column-major SoA mirror for the
//! batched kernels — behind an `Arc`, so repeat visits — ubiquitous in MBA's bidirectional
//! expansion and the BNN/MNN baselines' re-descents — are a lock-brief
//! hash probe returning a shared pointer.
//!
//! # Invalidation
//!
//! Entries are keyed by `(key, PageId)`, where `key` is either a tree
//! epoch or an MVCC version (see below). Structural mutation (MBRQT /
//! R*-tree insert and delete) bumps the tree's epoch, which atomically
//! invalidates every cached node: stale entries can never match a post-bump
//! lookup, and the bump also drops them eagerly to free memory. The cache
//! additionally maintains a **retired floor**: inserts under a key below
//! the floor are dropped on arrival, so a lookup/insert pair racing a bump
//! can never park an unreachable entry in a shard ([`NodeCache::stale_len`]
//! counts any that slip through, and stays zero). Bulk-built trees never
//! mutate, so their caches stay hot for the life of the tree.
//!
//! # Versioned trees
//!
//! An index backed by an [`ann_store::VersionedStore`] keys the cache by
//! **version** instead of epoch (via `SpatialIndex::cache_key`). Commits
//! then never clear the cache: entries cached under version `v` stay
//! valid and shareable for every reader pinning `v`, while readers of
//! `v+1` simply miss and fill their own entries. When the store's GC
//! floor advances, [`NodeCache::retire_below`] drops entries for
//! versions no snapshot can pin anymore.
//!
//! Cache hits bypass the buffer pool entirely, so a traversal over a hot
//! node cache charges *no* logical or physical page reads for the cached
//! nodes; benchmarks that want the paper's cold-cache I/O accounting clear
//! the node cache alongside the pool between phases
//! ([`NodeCache::clear`]).
//!
//! # Concurrency
//!
//! The map is striped into shards, each behind its own mutex,
//! so parallel MBA workers probing different nodes rarely contend.
//! Eviction is per shard by least-recent access stamp. The cache is
//! purely an accelerator: it never holds the only copy of anything, and
//! any entry may be evicted at any time.

use crate::node::DecodedNode;
use ann_store::sync::Mutex;
use ann_store::PageId;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Default capacity in decoded nodes. Sized to hold the working set of the
/// benchmark trees many times over; decoded nodes are at most a few KiB,
/// so the worst case is a few MiB per tree.
pub const DEFAULT_NODE_CACHE_CAPACITY: usize = 1024;

/// Default number of lock stripes (fixed, for determinism across machines).
const DEFAULT_SHARDS: usize = 8;

struct Slot<const D: usize> {
    node: Arc<DecodedNode<D>>,
    /// Last-access stamp from the cache-wide clock; the per-shard eviction
    /// victim is the minimum-stamp slot.
    stamp: u64,
}

/// Hit/miss counters for one [`NodeCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NodeCacheStats {
    /// Lookups served from the cache (no pool access, no decode).
    pub hits: u64,
    /// Lookups that fell through to `read_node`.
    pub misses: u64,
}

/// One lock stripe: `(epoch, page)` → slot.
type Shard<const D: usize> = Mutex<HashMap<(u64, PageId), Slot<D>>>;

/// A sharded `(epoch, page) → Arc<Node>` cache with per-shard
/// least-recently-stamped eviction. See the module docs.
pub struct NodeCache<const D: usize> {
    shards: Box<[Shard<D>]>,
    per_shard_capacity: usize,
    epoch: AtomicU64,
    /// Keys strictly below this floor are retired: inserts under them are
    /// dropped and resident entries are purged when the floor advances.
    floor: AtomicU64,
    clock: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<const D: usize> NodeCache<D> {
    /// A cache bounded to `capacity` decoded nodes (minimum one per
    /// shard), striped into a fixed number of shards.
    pub fn new(capacity: usize) -> Self {
        Self::with_shards(capacity, DEFAULT_SHARDS)
    }

    /// A cache bounded to `capacity` nodes across exactly `shards` lock
    /// stripes (clamped so every stripe holds at least one node).
    pub fn with_shards(capacity: usize, shards: usize) -> Self {
        let shards = shards.clamp(1, capacity.max(1));
        NodeCache {
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            per_shard_capacity: (capacity / shards).max(1),
            epoch: AtomicU64::new(0),
            floor: AtomicU64::new(0),
            clock: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Total node capacity (per-shard bound × shard count).
    pub fn capacity(&self) -> usize {
        self.per_shard_capacity * self.shards.len()
    }

    /// The current epoch. Readers snapshot this once per lookup/insert
    /// pair so a concurrent bump can never publish a stale node under the
    /// new epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Invalidates every cached node: future lookups miss until re-filled
    /// under the new epoch. Called by the owning tree on structural
    /// mutation (insert/delete).
    ///
    /// The new epoch also becomes the retired floor, so an insert racing
    /// this bump (its key snapshotted pre-bump) is dropped on arrival
    /// instead of lingering invisibly in a shard until LRU pressure.
    pub fn bump_epoch(&self) {
        let new_epoch = self.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.floor.fetch_max(new_epoch, Ordering::AcqRel);
        // Eager drop: stale epochs can never be read again, so free them
        // now rather than waiting for capacity eviction to find them.
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }

    /// Retires every key strictly below `floor`: resident entries under
    /// retired keys are purged and future inserts under them are dropped.
    /// Versioned indexes call this when the store's GC floor advances;
    /// the floor never moves backwards.
    pub fn retire_below(&self, floor: u64) {
        let prev = self.floor.fetch_max(floor, Ordering::AcqRel);
        if prev >= floor {
            return;
        }
        for shard in self.shards.iter() {
            shard.lock().retain(|(key, _), _| *key >= floor);
        }
    }

    /// Number of resident entries keyed below the retired floor. The
    /// insert-side floor check keeps this at zero; mutation paths assert
    /// it to catch any regression in the invalidation protocol.
    pub fn stale_len(&self) -> usize {
        let floor = self.floor.load(Ordering::Acquire);
        self.shards
            .iter()
            .map(|s| s.lock().keys().filter(|(key, _)| *key < floor).count())
            .sum()
    }

    #[inline]
    fn shard(&self, page: PageId) -> &Shard<D> {
        &self.shards[page as usize % self.shards.len()]
    }

    /// Reports whether `page` is cached under `epoch` without refreshing
    /// its access stamp or recording a hit/miss. Prefetch hook sites use
    /// this to hint only pages the traversal will actually demand from the
    /// buffer pool: a node-cached page is never read again, so hinting it
    /// would be pure wasted I/O.
    pub fn contains(&self, epoch: u64, page: PageId) -> bool {
        self.shard(page).lock().contains_key(&(epoch, page))
    }

    /// Looks up `page` under `epoch`, refreshing its access stamp.
    pub fn get(&self, epoch: u64, page: PageId) -> Option<Arc<DecodedNode<D>>> {
        let mut shard = self.shard(page).lock();
        match shard.get_mut(&(epoch, page)) {
            Some(slot) => {
                slot.stamp = self.clock.fetch_add(1, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&slot.node))
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Caches `node` for `page` under `epoch`, evicting the shard's
    /// least-recently-stamped slot if the shard is full. Inserts under a
    /// retired key (below the floor set by [`NodeCache::bump_epoch`] /
    /// [`NodeCache::retire_below`]) are dropped: they could never match a
    /// lookup, and admitting them would waste slots until LRU pressure.
    pub fn insert(&self, epoch: u64, page: PageId, node: Arc<DecodedNode<D>>) {
        if epoch < self.floor.load(Ordering::Acquire) {
            return;
        }
        let mut shard = self.shard(page).lock();
        if shard.len() >= self.per_shard_capacity && !shard.contains_key(&(epoch, page)) {
            if let Some(victim) = shard
                .iter()
                .min_by_key(|(_, slot)| slot.stamp)
                .map(|(&k, _)| k)
            {
                shard.remove(&victim);
            }
        }
        let stamp = self.clock.fetch_add(1, Ordering::Relaxed);
        shard.insert((epoch, page), Slot { node, stamp });
    }

    /// Drops every cached node without changing the epoch. Benchmarks use
    /// this (with [`ann_store::BufferPool::clear`]) to start a phase cold.
    pub fn clear(&self) {
        for shard in self.shards.iter() {
            shard.lock().clear();
        }
    }

    /// Number of cached nodes (any epoch).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache currently holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Point-in-time hit/miss counters.
    pub fn stats(&self) -> NodeCacheStats {
        NodeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the hit/miss counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
    }
}

impl<const D: usize> Default for NodeCache<D> {
    fn default() -> Self {
        Self::new(DEFAULT_NODE_CACHE_CAPACITY)
    }
}

impl<const D: usize> std::fmt::Debug for NodeCache<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("NodeCache")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .field("epoch", &self.epoch())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(tag: u8) -> Arc<DecodedNode<2>> {
        Arc::new(DecodedNode::new(crate::node::Node {
            is_leaf: true,
            aux: tag,
            mbr: ann_geom::Mbr::empty(),
            entries: vec![],
        }))
    }

    #[test]
    fn get_after_insert_hits() {
        let c: NodeCache<2> = NodeCache::new(8);
        assert!(c.get(c.epoch(), 3).is_none());
        c.insert(c.epoch(), 3, leaf(1));
        let got = c.get(c.epoch(), 3).expect("cached");
        assert_eq!(got.aux, 1);
        assert_eq!(c.stats(), NodeCacheStats { hits: 1, misses: 1 });
    }

    #[test]
    fn epoch_bump_invalidates_everything() {
        let c: NodeCache<2> = NodeCache::new(8);
        let e = c.epoch();
        c.insert(e, 1, leaf(1));
        c.insert(e, 2, leaf(2));
        c.bump_epoch();
        assert_ne!(c.epoch(), e);
        assert!(c.get(c.epoch(), 1).is_none());
        assert!(c.get(c.epoch(), 2).is_none());
        assert!(c.is_empty(), "bump drops stale entries eagerly");
    }

    #[test]
    fn stale_epoch_insert_is_invisible_and_dropped() {
        let c: NodeCache<2> = NodeCache::new(8);
        let old = c.epoch();
        c.bump_epoch();
        c.insert(old, 5, leaf(9)); // raced with the bump
        assert!(c.get(c.epoch(), 5).is_none());
        // The raced insert must not occupy a slot either: it is dropped
        // at the floor check, not parked until LRU pressure finds it.
        assert!(c.is_empty());
        assert_eq!(c.stale_len(), 0);
    }

    #[test]
    fn retire_below_purges_old_versions_and_keeps_new() {
        let c: NodeCache<2> = NodeCache::new(16);
        for v in 1..=4u64 {
            c.insert(v, 10 + v as PageId, leaf(v as u8));
        }
        c.retire_below(3);
        assert!(c.get(1, 11).is_none());
        assert!(c.get(2, 12).is_none());
        assert_eq!(c.get(3, 13).unwrap().aux, 3);
        assert_eq!(c.get(4, 14).unwrap().aux, 4);
        assert_eq!(c.stale_len(), 0);
        // Late insert under a retired version is dropped.
        c.insert(2, 12, leaf(2));
        assert!(c.get(2, 12).is_none());
        assert_eq!(c.stale_len(), 0);
        // The floor never regresses.
        c.retire_below(1);
        assert_eq!(c.get(4, 14).unwrap().aux, 4);
    }

    #[test]
    fn versioned_keys_coexist_without_invalidation() {
        let c: NodeCache<2> = NodeCache::new(16);
        c.insert(1, 7, leaf(1));
        c.insert(2, 7, leaf(2));
        // Same page cached under two versions: both remain servable.
        assert_eq!(c.get(1, 7).unwrap().aux, 1);
        assert_eq!(c.get(2, 7).unwrap().aux, 2);
    }

    #[test]
    fn capacity_bound_evicts_least_recent() {
        // One shard so the eviction order is fully observable.
        let c: NodeCache<2> = NodeCache::with_shards(2, 1);
        let e = c.epoch();
        c.insert(e, 1, leaf(1));
        c.insert(e, 2, leaf(2));
        c.get(e, 1); // 1 is now more recent than 2
        c.insert(e, 3, leaf(3)); // evicts 2
        assert!(c.get(e, 1).is_some());
        assert!(c.get(e, 2).is_none());
        assert!(c.get(e, 3).is_some());
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn reinsert_of_resident_page_does_not_evict_neighbors() {
        let c: NodeCache<2> = NodeCache::with_shards(2, 1);
        let e = c.epoch();
        c.insert(e, 1, leaf(1));
        c.insert(e, 2, leaf(2));
        c.insert(e, 1, leaf(7)); // refresh in place
        assert_eq!(c.get(e, 1).unwrap().aux, 7);
        assert!(c.get(e, 2).is_some());
    }

    #[test]
    fn clear_keeps_epoch_but_drops_contents() {
        let c: NodeCache<2> = NodeCache::new(8);
        let e = c.epoch();
        c.insert(e, 1, leaf(1));
        c.clear();
        assert_eq!(c.epoch(), e);
        assert!(c.get(e, 1).is_none());
    }

    #[test]
    fn shards_clamped() {
        let c: NodeCache<2> = NodeCache::with_shards(3, 64);
        assert!(c.capacity() >= 3);
        let c: NodeCache<2> = NodeCache::with_shards(0, 4);
        assert!(c.capacity() >= 1, "zero capacity clamps to one per shard");
    }

    #[test]
    fn concurrent_probes_share_one_decode() {
        let c: Arc<NodeCache<2>> = Arc::new(NodeCache::new(64));
        let e = c.epoch();
        c.insert(e, 7, leaf(7));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..100 {
                        assert_eq!(c.get(e, 7).unwrap().aux, 7);
                    }
                });
            }
        });
        assert_eq!(c.stats().hits, 400);
    }
}
