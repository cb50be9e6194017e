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

use ann_core::node::Node;
use ann_core::trace::{Side, Tracer};
use ann_core::tree_file::{Params, RStarParams, TreeFile, WritableIndex};
use ann_geom::Point;
use ann_store::{BufferPool, PageId, Result, StoreError};
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
///
/// Derefs to its [`TreeFile`], which carries everything about durability
/// and versioning (`meta_page`, `enable_versioning`, `versioned_handle`,
/// `flush`, …) and whose header holds the root, point count and bounds.
#[derive(Clone)]
pub struct RStar<const D: usize> {
    pub(crate) file: TreeFile<D>,
    pub(crate) params: RStarParams,
}

impl<const D: usize> RStar<D> {
    /// Creates an empty tree.
    pub fn create(pool: Arc<BufferPool>, config: &RStarConfig) -> Result<Self> {
        RStar::new(pool, config)?.with_empty_root()
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

    /// Opens a previously built (unversioned) tree from its metadata
    /// page; [`WritableIndex::open_at`] says what opening recovers and
    /// checks.
    pub fn open(pool: Arc<BufferPool>, meta_page: PageId) -> Result<Self> {
        Self::open_at(pool, meta_page, None)
    }

    /// Opens a versioned tree from its meta page and the manifest `head`
    /// returned by [`TreeFile::enable_versioning`]: as [`open`](Self::open),
    /// but the header is read *through* the latest snapshot.
    pub fn open_versioned(pool: Arc<BufferPool>, meta_page: PageId, head: PageId) -> Result<Self> {
        Self::open_at(pool, meta_page, Some(head))
    }

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.params.height
    }

    /// Maximum entries per node (leaf, internal).
    pub fn capacities(&self) -> (usize, usize) {
        (self.params.max_leaf, self.params.max_internal)
    }

    /// Minimum entries per node of each kind (root excepted).
    pub fn min_entries(&self, is_leaf: bool) -> usize {
        let max = if is_leaf {
            self.params.max_leaf
        } else {
            self.params.max_internal
        };
        (max * self.params.min_fill_percent / 100).max(2)
    }

    /// Inserts one point (R\* insertion with forced reinsertion).
    pub fn insert(&mut self, oid: u64, point: Point<D>) -> Result<()> {
        insert::insert(self, oid, point)
    }

    /// Deletes the object `(oid, point)` (both must match an indexed
    /// object exactly). Underfull nodes dissolve and their entries
    /// re-insert, per the classic CondenseTree treatment. Returns whether
    /// the object existed.
    pub fn delete(&mut self, oid: u64, point: &Point<D>) -> Result<bool> {
        delete::delete(self, oid, point)
    }

    /// Starts a tree on `pool` — its file exists, its root does not yet:
    /// what `create` and the bulk builds begin with.
    pub(crate) fn new(pool: Arc<BufferPool>, config: &RStarConfig) -> Result<Self> {
        Ok(RStar {
            file: TreeFile::create(pool)?,
            params: RStarParams {
                height: 1,
                max_leaf: config.resolved_max::<D>(true),
                max_internal: config.resolved_max::<D>(false),
                min_fill_percent: config.min_fill_percent.clamp(10, 50),
                reinsert_percent: config.reinsert_percent.min(45),
            },
        })
    }

    pub(crate) fn max_entries(&self, is_leaf: bool) -> usize {
        if is_leaf {
            self.params.max_leaf
        } else {
            self.params.max_internal
        }
    }
}

impl<const D: usize> std::ops::Deref for RStar<D> {
    type Target = TreeFile<D>;

    fn deref(&self) -> &TreeFile<D> {
        &self.file
    }
}

impl<const D: usize> std::ops::DerefMut for RStar<D> {
    fn deref_mut(&mut self) -> &mut TreeFile<D> {
        &mut self.file
    }
}

impl<const D: usize> WritableIndex<D> for RStar<D> {
    fn open_at(pool: Arc<BufferPool>, meta_page: PageId, head: Option<PageId>) -> Result<Self> {
        let (file, Params::RStar(params)) = TreeFile::open(pool, meta_page, head)? else {
            return Err(StoreError::corrupt("not an R*-tree meta page"));
        };
        let tree = RStar { file, params };
        ann_core::index::validate(&tree)?;
        Ok(tree)
    }

    fn insert(&mut self, oid: u64, point: Point<D>) -> Result<()> {
        RStar::insert(self, oid, point)
    }

    fn delete(&mut self, oid: u64, point: &Point<D>) -> Result<bool> {
        RStar::delete(self, oid, point)
    }

    fn params(&self) -> Params<D> {
        Params::RStar(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_core::index::SpatialIndex;

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
