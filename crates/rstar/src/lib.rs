//! A disk-resident **R\*-tree** (Beckmann, Kriegel, Schneider, Seeger,
//! SIGMOD 1990), built from scratch.
//!
//! This is the index structure all prior ANN work traverses, and the
//! baseline the paper's MBRQT is measured against. Running the generic
//! [`ann_core::mba::mba`] traversal over two `RStar` indices yields the
//! paper's **RBA** algorithm; the **BNN** baseline also searches an
//! `RStar`.
//!
//! Implemented features:
//!
//! * **ChooseSubtree** with the R\* rules: minimum *overlap* enlargement at
//!   the level above the leaves, minimum *area* enlargement elsewhere;
//! * the **R\* split**: margin-driven split-axis election followed by
//!   overlap-driven split-index election;
//! * **forced reinsertion**: the first overflow per level per insertion
//!   evicts the 30 % of entries farthest from the node center and
//!   re-inserts them, improving the packing;
//! * **STR bulk loading** (Sort-Tile-Recursive, Leutenegger et al. 1997)
//!   for building well-packed trees from a known dataset;
//! * one node per 8 KiB page via the shared codec in [`ann_core::node`].
//!
//! # Example
//!
//! ```
//! use ann_geom::Point;
//! use ann_rstar::{RStar, RStarConfig};
//! use ann_store::{BufferPool, MemDisk};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::new(MemDisk::new(), 64));
//! let pts: Vec<(u64, Point<2>)> = (0..1000)
//!     .map(|i| (i, Point::new([(i % 53) as f64, (i % 71) as f64])))
//!     .collect();
//! let tree = RStar::bulk_build(pool, &pts, &RStarConfig::default()).unwrap();
//! assert_eq!(ann_core::index::validate(&tree).unwrap().objects, 1000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bulk;
mod delete;
mod insert;
mod meta;

use ann_core::index::SpatialIndex;
use ann_core::node::Node;
use ann_core::node_cache::NodeCache;
use ann_core::snapshot::VersionedHandle;
use ann_core::trace::{Side, Tracer};
use ann_geom::{Mbr, Point};
use ann_store::{BufferPool, Journal, PageId, PageStore, Result, StoreError, Txn, VersionedStore};
use std::sync::Arc;

/// Tuning knobs for [`RStar`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RStarConfig {
    /// Maximum entries per leaf node. `0` = fill one page.
    pub max_leaf_entries: usize,
    /// Maximum entries per internal node. `0` = fill one page.
    pub max_internal_entries: usize,
    /// Minimum fill as a percentage of the maximum (the R\* paper
    /// recommends 40).
    pub min_fill_percent: usize,
    /// Fraction of entries (percent) evicted by forced reinsertion
    /// (the R\* paper recommends 30). `0` disables reinsertion.
    pub reinsert_percent: usize,
}

impl Default for RStarConfig {
    fn default() -> Self {
        RStarConfig {
            max_leaf_entries: 0,
            max_internal_entries: 0,
            min_fill_percent: 40,
            reinsert_percent: 30,
        }
    }
}

impl RStarConfig {
    pub(crate) fn resolved_max<const D: usize>(&self, is_leaf: bool) -> usize {
        let configured = if is_leaf {
            self.max_leaf_entries
        } else {
            self.max_internal_entries
        };
        let v = if configured > 0 {
            configured
        } else {
            Node::<D>::single_page_capacity(is_leaf)
        };
        v.max(4)
    }
}

/// A disk-resident R\*-tree over `D`-dimensional points.
pub struct RStar<const D: usize> {
    pub(crate) pool: Arc<BufferPool>,
    pub(crate) meta_page: PageId,
    pub(crate) journal: Journal,
    pub(crate) root: PageId,
    /// Number of levels; leaves are level 0, the root is `height - 1`.
    pub(crate) height: u32,
    pub(crate) num_points: u64,
    pub(crate) bounds: Mbr<D>,
    pub(crate) max_leaf: usize,
    pub(crate) max_internal: usize,
    pub(crate) min_fill_percent: usize,
    pub(crate) reinsert_percent: usize,
    /// Decoded-node cache for query traversals. Epoch-keyed (bumped on
    /// every structural mutation) until versioning is enabled; keyed by
    /// snapshot version afterwards (shared with [`VersionedHandle`]s).
    pub(crate) cache: Arc<NodeCache<D>>,
    /// MVCC mode: when set, every mutation commits a new immutable
    /// snapshot version instead of updating pages in place.
    pub(crate) versions: Option<Arc<VersionedStore>>,
}

impl<const D: usize> RStar<D> {
    /// Creates an empty tree.
    pub fn create(pool: Arc<BufferPool>, config: &RStarConfig) -> Result<Self> {
        let meta_page = pool.allocate()?;
        let journal = crate::create_journal_after_meta(&pool, meta_page)?;
        let txn = Txn::begin(&pool, journal);
        let root = txn.allocate()?;
        ann_core::node::write_node::<D>(&txn, root, &Node::empty_leaf())?;
        let tree = RStar {
            pool: Arc::clone(&pool),
            meta_page,
            journal,
            root,
            height: 1,
            num_points: 0,
            bounds: Mbr::empty(),
            max_leaf: config.resolved_max::<D>(true),
            max_internal: config.resolved_max::<D>(false),
            min_fill_percent: config.min_fill_percent.clamp(10, 50),
            reinsert_percent: config.reinsert_percent.min(45),
            cache: Arc::new(NodeCache::default()),
            versions: None,
        };
        tree.save_meta_to(&txn)?;
        txn.commit()?;
        Ok(tree)
    }

    /// Bulk-builds a well-packed tree over `points` with STR.
    pub fn bulk_build(
        pool: Arc<BufferPool>,
        points: &[(u64, Point<D>)],
        config: &RStarConfig,
    ) -> Result<Self> {
        bulk::bulk_build(pool, points, config, Side::R, Tracer::disabled())
    }

    /// Bulk-builds a packed tree from a point *stream*, keeping memory
    /// bounded by `run_budget` records: the stream spills to `scratch`
    /// (computing bounds), external-sorts by `(hilbert_key, oid)`, and
    /// packs leaves sequentially in curve order. Use this when the
    /// dataset does not fit in memory; for in-memory data,
    /// [`bulk_build`](Self::bulk_build) (STR) packs marginally tighter.
    ///
    /// `scratch` holds only temporary spill pages — give it its own pool
    /// (typically over a [`ann_store::MemDisk`] or a separate file) so
    /// spill traffic cannot evict the tree's pages from `pool`.
    pub fn bulk_build_stream(
        pool: Arc<BufferPool>,
        scratch: Arc<BufferPool>,
        points: impl IntoIterator<Item = (u64, Point<D>)>,
        run_budget: usize,
        config: &RStarConfig,
    ) -> Result<Self> {
        bulk::bulk_build_stream(pool, scratch, points, run_budget, config)
    }

    /// [`bulk_build`](Self::bulk_build) with an attached [`Tracer`]:
    /// wraps construction in a `Build` span (pool I/O deltas included)
    /// and emits one [`ann_core::trace::TraceEvent::IndexLevelBuilt`] per
    /// tree level (level 0 is the root, matching the query-side per-level
    /// accounting), tagged with `side`. With `Tracer::disabled()` this is
    /// exactly [`bulk_build`](Self::bulk_build).
    pub fn bulk_build_traced(
        pool: Arc<BufferPool>,
        points: &[(u64, Point<D>)],
        config: &RStarConfig,
        side: Side,
        tracer: Tracer<'_>,
    ) -> Result<Self> {
        bulk::bulk_build(pool, points, config, side, tracer)
    }

    /// Opens a previously built tree from its metadata page.
    ///
    /// Opening runs crash recovery first — a committed-but-unapplied
    /// journal batch is replayed, a partial one is discarded — and then
    /// verifies every structural invariant with
    /// [`ann_core::index::validate`], so an `Ok` tree is never silently
    /// partial: after any mid-update crash this either restores a
    /// consistent tree or reports [`ann_store::StoreError::Corrupt`].
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<Self> {
        let (journal, _recovery) = Journal::open(&pool, meta_page + 1)?;
        let tree = meta::load(pool, meta_page, journal)?;
        ann_core::index::validate(&tree)?;
        Ok(tree)
    }

    /// The metadata page identifying this tree on disk.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Maximum entries per node (leaf, internal).
    pub fn capacities(&self) -> (usize, usize) {
        (self.max_leaf, self.max_internal)
    }

    /// Minimum entries per node of each kind (root excepted).
    pub fn min_entries(&self, is_leaf: bool) -> usize {
        let max = if is_leaf {
            self.max_leaf
        } else {
            self.max_internal
        };
        (max * self.min_fill_percent / 100).max(2)
    }

    /// Inserts one point (R\* insertion with forced reinsertion).
    pub fn insert(&mut self, oid: u64, point: Point<D>) -> Result<()> {
        insert::insert(self, oid, point)?;
        self.note_mutation();
        Ok(())
    }

    /// Deletes the object `(oid, point)` (both must match an indexed
    /// object exactly). Underfull nodes dissolve and their entries
    /// re-insert, per the classic CondenseTree treatment. Returns whether
    /// the object existed.
    pub fn delete(&mut self, oid: u64, point: &Point<D>) -> Result<bool> {
        let existed = delete::delete(self, oid, point)?;
        if existed {
            self.note_mutation();
        }
        Ok(existed)
    }

    /// Switches the tree into MVCC snapshot mode: from here on every
    /// insert/delete commits an immutable new version (copy-on-write
    /// pages) instead of updating pages in place, and concurrent readers
    /// pin versions through [`versioned_handle`](Self::versioned_handle)
    /// without ever blocking on the writer.
    ///
    /// `keep` bounds the history window (see [`ann_store::DEFAULT_KEEP`]).
    /// Returns the manifest head page the caller must persist to reopen
    /// the tree with [`open_versioned`](Self::open_versioned) — after the
    /// first versioned commit the meta page is copy-on-write and its
    /// original physical page goes stale, so the manifest (not the meta
    /// page alone) is the durable root of a versioned tree.
    pub fn enable_versioning(&mut self, keep: u32) -> Result<PageId> {
        if self.versions.is_some() {
            return Err(StoreError::corrupt("versioning is already enabled"));
        }
        let store = VersionedStore::create(Arc::clone(&self.pool), self.journal, keep)?;
        let head = store.manifest_head();
        // Fresh cache: version numbers live in their own key space, which
        // must not collide with the retired epoch counter's.
        self.cache = Arc::new(NodeCache::default());
        self.versions = Some(store);
        Ok(head)
    }

    /// Opens a versioned tree from its meta page and the manifest head
    /// returned by [`enable_versioning`](Self::enable_versioning). Runs
    /// journal crash recovery, loads the version manifest, and reads the
    /// meta fields *through* the latest snapshot (the on-disk meta page
    /// itself is stale once copy-on-write commits exist).
    pub fn open_versioned(
        pool: Arc<BufferPool>,
        meta_page: PageId,
        manifest_head: PageId,
    ) -> Result<Self> {
        let (journal, _recovery) = Journal::open(&pool, meta_page + 1)?;
        let store = VersionedStore::open(Arc::clone(&pool), journal, manifest_head)?;
        let snap = store.pin(None)?;
        let mut tree = meta::load_via(&snap, Arc::clone(&pool), meta_page, journal)?;
        drop(snap);
        tree.versions = Some(store);
        ann_core::index::validate(&tree)?;
        Ok(tree)
    }

    /// The tree's versioned store, when versioning is enabled.
    pub fn versioned_store(&self) -> Option<&Arc<VersionedStore>> {
        self.versions.as_ref()
    }

    /// A cloneable, thread-safe factory of pinned read views ([`None`]
    /// until [`enable_versioning`](Self::enable_versioning)). The handle
    /// shares this tree's node cache, so snapshot readers and the writer
    /// populate one cache keyed by `(version, page)`.
    pub fn versioned_handle(&self) -> Option<VersionedHandle<D>> {
        let store = self.versions.as_ref()?;
        Some(VersionedHandle::new(
            Arc::clone(store),
            Arc::clone(&self.cache),
            self.meta_page,
            meta::snapshot_meta_fields::<D>,
        ))
    }

    /// Writes all dirty pages through to the backing disk.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()
    }

    /// Post-mutation cache upkeep. Non-versioned trees invalidate the
    /// whole cache (epoch bump); versioned trees keep old-version entries
    /// live for pinned readers and only purge keys below the GC floor.
    fn note_mutation(&self) {
        match &self.versions {
            Some(store) => self.cache.retire_below(u64::from(store.version_floor())),
            None => self.cache.bump_epoch(),
        }
        debug_assert_eq!(
            self.cache.stale_len(),
            0,
            "node cache holds stale entries after a mutation"
        );
    }

    pub(crate) fn save_meta_to(&self, store: &impl PageStore) -> Result<()> {
        meta::save_to(self, store)
    }

    pub(crate) fn max_entries(&self, is_leaf: bool) -> usize {
        if is_leaf {
            self.max_leaf
        } else {
            self.max_internal
        }
    }
}

/// Creates the tree's journal right after its freshly allocated meta page,
/// enforcing the `meta_page + 1` adjacency convention that lets
/// [`RStar::open`] find the journal without persisting its id anywhere.
/// Interleaved allocations from another thread would break the convention,
/// so that is reported as an error rather than silently accepted.
pub(crate) fn create_journal_after_meta(pool: &BufferPool, meta_page: PageId) -> Result<Journal> {
    let journal = Journal::create(pool)?;
    if journal.header_page() != meta_page + 1 {
        return Err(StoreError::corrupt(
            "journal header page must immediately follow the meta page",
        ));
    }
    Ok(journal)
}

impl<const D: usize> SpatialIndex<D> for RStar<D> {
    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn root_page(&self) -> PageId {
        self.root
    }

    fn num_points(&self) -> u64 {
        self.num_points
    }

    fn bounds(&self) -> Mbr<D> {
        self.bounds
    }

    fn read_node(&self, page: PageId) -> Result<Node<D>> {
        match &self.versions {
            // A versioned tree's logical pages are remapped by COW
            // commits; direct tree reads go through the latest snapshot.
            Some(store) => ann_core::node::read_node(&store.pin(None)?, page),
            None => ann_core::node::read_node(self.pool.as_ref(), page),
        }
    }

    fn node_cache(&self) -> Option<&NodeCache<D>> {
        Some(self.cache.as_ref())
    }

    fn cache_key(&self) -> u64 {
        match &self.versions {
            // Share entries with ReadContexts pinned at the same version.
            Some(store) => u64::from(store.latest()),
            None => self.cache.epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn versioned_mutations_preserve_pinned_snapshots() {
        let pool = Arc::new(BufferPool::new(ann_store::MemDisk::new(), 256));
        let mut tree = RStar::<2>::create(pool, &RStarConfig::default()).unwrap();
        tree.insert(0, Point::new([1.0, 1.0])).unwrap();
        tree.enable_versioning(8).unwrap();

        let handle = tree.versioned_handle().unwrap();
        let old = handle.pin(None).unwrap();
        assert_eq!(SpatialIndex::num_points(&old), 1);

        tree.insert(1, Point::new([2.0, 2.0])).unwrap();
        tree.insert(2, Point::new([60.0, 60.0])).unwrap();
        assert!(tree.delete(0, &Point::new([1.0, 1.0])).unwrap());

        // The writer sees the newest state; the pinned reader still sees
        // exactly the point set from before the mutations.
        assert_eq!(SpatialIndex::num_points(&tree), 2);
        let old_objs = ann_core::index::collect_objects(&old).unwrap();
        assert_eq!(old_objs, vec![(0, Point::new([1.0, 1.0]))]);
        ann_core::index::validate(&old).unwrap();
        ann_core::index::validate(&tree).unwrap();

        let new = handle.pin(None).unwrap();
        assert_eq!(ann_core::index::collect_objects(&new).unwrap().len(), 2);
        assert!(new.version() > old.version());
        drop((old, new));
        assert_eq!(handle.store().pinned_readers(), 0);
    }

    #[test]
    fn versioned_tree_reopens_from_manifest() {
        let pool = Arc::new(BufferPool::new(ann_store::MemDisk::new(), 256));
        let mut tree = RStar::<2>::create(Arc::clone(&pool), &RStarConfig::default()).unwrap();
        let meta_page = tree.meta_page();
        let head = tree.enable_versioning(4).unwrap();
        for i in 0..40u64 {
            tree.insert(i, Point::new([(i % 10) as f64, (i / 10) as f64]))
                .unwrap();
        }
        tree.flush().unwrap();
        drop(tree);

        let tree = RStar::<2>::open_versioned(pool, meta_page, head).unwrap();
        assert_eq!(SpatialIndex::num_points(&tree), 40);
        let handle = tree.versioned_handle().unwrap();
        let ctx = handle.pin(None).unwrap();
        assert_eq!(ann_core::index::collect_objects(&ctx).unwrap().len(), 40);
    }
}
