//! **MBRQT** — the MBR-enhanced disk-resident PR bucket quadtree
//! (paper §3.2).
//!
//! A PR bucket quadtree decomposes a fixed universe by regular halving:
//! every internal node splits its quadrant into `2^D` orthants around the
//! quadrant center, and points live in leaf buckets. Regular decomposition
//! gives quadtrees two properties the paper exploits for ANN:
//!
//! * sibling subtrees never overlap (unlike R*-tree MBRs), and
//! * both indices of a join decompose space *identically*, so pruning
//!   metrics compare like against like.
//!
//! Plain quadtrees have one fatal flaw for ANN, though: neighboring
//! quadrants touch, so `MINMINDIST` between them is 0 and lower-bound
//! pruning never fires. The paper's enhancement — the "MBR" in MBRQT — is
//! to store, with every child entry, the **tight minimum bounding
//! rectangle of the points below it** instead of the quadrant box.
//! [`MbrqtConfig::use_subtree_mbrs`] keeps the plain-quadrant variant
//! available as an ablation.
//!
//! **Soundness note for the ablation:** quadrant boxes are not *minimum*
//! bounding rectangles, and the NXNDIST upper bound is only valid against
//! minimal MBRs (its guarantee rests on every face of the target rectangle
//! touching a point). With `use_subtree_mbrs = false` the index must be
//! queried with the `MAXMAXDIST` metric; with the default `true` both
//! metrics are sound.
//!
//! Nodes are serialized one-per-page with the shared codec in
//! [`ann_core::node`]; in high dimensions (`2^D` children) a node
//! transparently chains continuation pages.
//!
//! # Example
//!
//! ```
//! use ann_geom::{Mbr, Point};
//! use ann_mbrqt::{Mbrqt, MbrqtConfig};
//! use ann_store::{BufferPool, MemDisk};
//! use std::sync::Arc;
//!
//! let pool = Arc::new(BufferPool::new(MemDisk::new(), 64));
//! let pts: Vec<(u64, Point<2>)> = (0..1000)
//!     .map(|i| (i, Point::new([(i % 37) as f64, (i % 91) as f64])))
//!     .collect();
//! let tree = Mbrqt::bulk_build(pool, &pts, &MbrqtConfig::default()).unwrap();
//! assert_eq!(ann_core::index::validate(&tree).unwrap().objects, 1000);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod build;
mod delete;
mod insert;

use ann_core::node::Node;
use ann_core::trace::{Side, Tracer};
use ann_core::tree_file::{MbrqtParams, Params, TreeFile, WritableIndex};
use ann_geom::{Mbr, Point};
use ann_store::{BufferPool, PageId, Result, StoreError};
use std::sync::Arc;

/// Tuning knobs for [`Mbrqt`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MbrqtConfig {
    /// Leaf bucket capacity. `0` means "whatever fills one leaf page".
    pub bucket_capacity: usize,
    /// Quadtree decomposition levels packed into one disk node, so an
    /// internal node has up to `2^(D * levels)` children. `0` picks the
    /// largest value whose full fanout still fits one page — disk-resident
    /// quadtrees pack several levels per page because a raw `2^D`-way node
    /// would waste almost the whole page in low dimensions (cf. Hjaltason
    /// & Samet's PMR-quadtree paging).
    pub levels_per_node: usize,
    /// Maximum tree depth; a bucket at this depth is allowed to overflow
    /// into chained pages instead of splitting further (this is what makes
    /// heavily duplicated points safe).
    pub max_depth: usize,
    /// Store tight subtree MBRs on child entries (the paper's MBRQT).
    /// `false` stores the raw quadrant boxes — the plain-quadtree ablation,
    /// only sound with the `MAXMAXDIST` metric (see the crate docs).
    pub use_subtree_mbrs: bool,
}

impl Default for MbrqtConfig {
    fn default() -> Self {
        MbrqtConfig {
            bucket_capacity: 0,
            levels_per_node: 0,
            max_depth: 48,
            use_subtree_mbrs: true,
        }
    }
}

impl MbrqtConfig {
    /// Resolves `bucket_capacity == 0` to the page-derived default.
    pub(crate) fn resolved_bucket_capacity<const D: usize>(&self) -> usize {
        if self.bucket_capacity > 0 {
            self.bucket_capacity
        } else {
            Node::<D>::single_page_capacity(true)
        }
    }

    /// Resolves `levels_per_node == 0` to the deepest packing whose full
    /// fanout fits a single page (at least 1).
    pub(crate) fn resolved_levels_per_node<const D: usize>(&self) -> usize {
        if self.levels_per_node > 0 {
            return self.levels_per_node;
        }
        let cap = Node::<D>::single_page_capacity(false);
        let mut levels = 1usize;
        while D * (levels + 1) < usize::BITS as usize - 1 && (1usize << (D * (levels + 1))) <= cap {
            levels += 1;
        }
        levels
    }
}

/// A disk-resident MBR-enhanced PR bucket quadtree.
///
/// Derefs to its [`TreeFile`], which carries everything about durability
/// and versioning (`meta_page`, `enable_versioning`, `versioned_handle`,
/// `flush`, …) and whose header holds the root, point count and bounds.
#[derive(Clone)]
pub struct Mbrqt<const D: usize> {
    pub(crate) file: TreeFile<D>,
    pub(crate) params: MbrqtParams<D>,
}

impl<const D: usize> Mbrqt<D> {
    /// Creates an empty tree over the given fixed `universe`.
    ///
    /// Points inserted later must lie inside the universe; PR quadtrees
    /// decompose a fixed space, so the universe cannot grow afterwards.
    pub fn create(pool: Arc<BufferPool>, universe: Mbr<D>, config: &MbrqtConfig) -> Result<Self> {
        if universe.is_empty() {
            return Err(StoreError::corrupt("quadtree universe must be non-empty"));
        }
        Mbrqt::new(pool, universe, config)?.with_empty_root()
    }

    /// Builds a tree over `points` in one top-down pass. The universe is
    /// the tight bounding box of the input.
    pub fn bulk_build(
        pool: Arc<BufferPool>,
        points: &[(u64, Point<D>)],
        config: &MbrqtConfig,
    ) -> Result<Self> {
        build::bulk_build(pool, points, config, Side::R, Tracer::disabled())
    }

    /// [`bulk_build`](Self::bulk_build) with an attached
    /// [`Tracer`]: wraps construction in a `Build` span (pool I/O deltas
    /// included) and emits one [`ann_core::trace::TraceEvent::IndexLevelBuilt`] per disk
    /// level, tagged with `side` so a joined pair of builds stays
    /// distinguishable in the report. With `Tracer::disabled()` this is
    /// exactly [`bulk_build`](Self::bulk_build).
    pub fn bulk_build_traced(
        pool: Arc<BufferPool>,
        points: &[(u64, Point<D>)],
        config: &MbrqtConfig,
        side: Side,
        tracer: Tracer<'_>,
    ) -> Result<Self> {
        build::bulk_build(pool, points, config, side, tracer)
    }

    /// Builds a tree from a point *stream*, keeping memory bounded by
    /// `memory_budget` records: the stream spills to `scratch` (fixing
    /// the universe from the computed bounds) and oversized partitions
    /// split externally, cell by cell, until they fit the budget — from
    /// there down construction delegates to the same in-memory builder as
    /// [`bulk_build`](Self::bulk_build), so the resulting tree structure
    /// is identical to what `bulk_build` would produce for the same
    /// input.
    ///
    /// `scratch` holds only temporary spill pages — give it its own pool
    /// so spill traffic cannot evict the tree's pages from `pool`.
    pub fn bulk_build_stream(
        pool: Arc<BufferPool>,
        scratch: Arc<BufferPool>,
        points: impl IntoIterator<Item = (u64, Point<D>)>,
        memory_budget: usize,
        config: &MbrqtConfig,
    ) -> Result<Self> {
        build::bulk_build_stream(pool, scratch, points, memory_budget, config)
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

    /// The fixed universe the tree decomposes.
    pub fn universe(&self) -> Mbr<D> {
        self.params.universe
    }

    /// Leaf bucket capacity in use.
    pub fn bucket_capacity(&self) -> usize {
        self.params.bucket_capacity
    }

    /// Decomposition levels packed per disk node (node fanout is up to
    /// `2^(D * levels_per_node)`).
    pub fn levels_per_node(&self) -> usize {
        self.params.levels_per_node
    }

    /// Whether entries carry tight subtree MBRs (`true` for real MBRQT).
    pub fn uses_subtree_mbrs(&self) -> bool {
        self.params.use_subtree_mbrs
    }

    /// Inserts one point. Fails if the point is non-finite or outside the
    /// universe.
    pub fn insert(&mut self, oid: u64, point: Point<D>) -> Result<()> {
        insert::insert(self, oid, point)
    }

    /// Deletes the object `(oid, point)` (both must match an indexed
    /// object exactly). Internal nodes whose subtrees shrink to bucket
    /// size collapse back into single leaf buckets. Returns whether the
    /// object existed.
    pub fn delete(&mut self, oid: u64, point: &Point<D>) -> Result<bool> {
        delete::delete(self, oid, point)
    }

    /// Starts a tree over `universe` on `pool` — its file exists, its root
    /// does not yet: what `create` and the bulk builds begin with.
    pub(crate) fn new(
        pool: Arc<BufferPool>,
        universe: Mbr<D>,
        config: &MbrqtConfig,
    ) -> Result<Self> {
        Ok(Mbrqt {
            file: TreeFile::create(pool)?,
            params: MbrqtParams {
                universe,
                bucket_capacity: config.resolved_bucket_capacity::<D>(),
                levels_per_node: config.resolved_levels_per_node::<D>(),
                max_depth: config.max_depth,
                use_subtree_mbrs: config.use_subtree_mbrs,
            },
        })
    }
}

impl<const D: usize> std::ops::Deref for Mbrqt<D> {
    type Target = TreeFile<D>;

    fn deref(&self) -> &TreeFile<D> {
        &self.file
    }
}

impl<const D: usize> std::ops::DerefMut for Mbrqt<D> {
    fn deref_mut(&mut self) -> &mut TreeFile<D> {
        &mut self.file
    }
}

impl<const D: usize> WritableIndex<D> for Mbrqt<D> {
    fn open_at(pool: Arc<BufferPool>, meta_page: PageId, head: Option<PageId>) -> Result<Self> {
        let (file, Params::Mbrqt(params)) = TreeFile::open(pool, meta_page, head)? else {
            return Err(StoreError::corrupt("not an MBRQT meta page"));
        };
        let tree = Mbrqt { file, params };
        ann_core::index::validate(&tree)?;
        Ok(tree)
    }

    fn insert(&mut self, oid: u64, point: Point<D>) -> Result<()> {
        Mbrqt::insert(self, oid, point)
    }

    fn delete(&mut self, oid: u64, point: &Point<D>) -> Result<bool> {
        Mbrqt::delete(self, oid, point)
    }

    fn params(&self) -> Params<D> {
        Params::Mbrqt(self.params)
    }
}

/// The orthant (child index in `0..2^D`) of `point` within a quadrant
/// centered at `center`: bit `d` is set when `point[d] >= center[d]`.
#[inline]
pub(crate) fn orthant_of<const D: usize>(point: &Point<D>, center: &Point<D>) -> usize {
    let mut idx = 0;
    for d in 0..D {
        if point[d] >= center[d] {
            idx |= 1 << d;
        }
    }
    idx
}

/// The grid cell (in `0..2^(D*levels)`) of `point` after `levels` rounds
/// of regular halving of `quadrant`. Level 0 provides the most significant
/// `D` bits of the index.
#[inline]
pub(crate) fn cell_of_point<const D: usize>(
    quadrant: &Mbr<D>,
    point: &Point<D>,
    levels: usize,
) -> usize {
    let mut q = *quadrant;
    let mut idx = 0usize;
    for _ in 0..levels {
        let center = q.center();
        let o = orthant_of(point, &center);
        idx = (idx << D) | o;
        q = child_quadrant(&q, o);
    }
    idx
}

/// The quadrant box of grid cell `cell` (as produced by [`cell_of_point`])
/// within `quadrant`.
#[inline]
pub(crate) fn cell_quadrant<const D: usize>(
    quadrant: &Mbr<D>,
    cell: usize,
    levels: usize,
) -> Mbr<D> {
    let mut q = *quadrant;
    let mask = (1usize << D) - 1;
    for level in (0..levels).rev() {
        let o = (cell >> (level * D)) & mask;
        q = child_quadrant(&q, o);
    }
    q
}

/// Recovers the grid cell of a child entry from its stored MBR's lower
/// corner (see [`orthant_of_mbr`] for why the lower corner classifies
/// correctly at every level).
#[inline]
pub(crate) fn cell_of_mbr<const D: usize>(quadrant: &Mbr<D>, mbr: &Mbr<D>, levels: usize) -> usize {
    cell_of_point(quadrant, &Point::new(mbr.lo), levels)
}

/// The quadrant box of orthant `idx` within `quadrant`.
#[inline]
pub(crate) fn child_quadrant<const D: usize>(quadrant: &Mbr<D>, idx: usize) -> Mbr<D> {
    let center = quadrant.center();
    let mut lo = quadrant.lo;
    let mut hi = quadrant.hi;
    for d in 0..D {
        if idx & (1 << d) != 0 {
            lo[d] = center[d];
        } else {
            hi[d] = center[d];
        }
    }
    Mbr::new(lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_core::index::SpatialIndex;

    #[test]
    fn orthant_round_trips_through_child_quadrant() {
        let q = Mbr::new([0.0, 0.0, 0.0], [8.0, 8.0, 8.0]);
        let center = q.center();
        for idx in 0..8usize {
            let child = child_quadrant(&q, idx);
            // Any interior point of the child maps back to idx.
            let probe = child.center();
            assert_eq!(orthant_of(&probe, &center), idx);
            assert_eq!(cell_of_mbr(&q, &child, 1), idx);
        }
    }

    #[test]
    fn center_plane_points_go_to_upper_orthant() {
        let q = Mbr::new([0.0, 0.0], [4.0, 4.0]);
        let center = q.center();
        assert_eq!(orthant_of(&Point::new([2.0, 2.0]), &center), 0b11);
        assert_eq!(orthant_of(&Point::new([2.0, 1.0]), &center), 0b01);
        assert_eq!(orthant_of(&Point::new([1.0, 2.0]), &center), 0b10);
    }

    #[test]
    fn child_quadrants_partition_parent() {
        let q = Mbr::new([-2.0, 3.0], [6.0, 11.0]);
        let mut vol = 0.0;
        for idx in 0..4 {
            let c = child_quadrant(&q, idx);
            assert!(q.contains(&c));
            vol += c.volume();
        }
        assert!((vol - q.volume()).abs() < 1e-9);
    }

    fn versioned_tree() -> Mbrqt<2> {
        let pool = Arc::new(BufferPool::new(ann_store::MemDisk::new(), 256));
        let universe = Mbr::new([0.0, 0.0], [100.0, 100.0]);
        let mut tree = Mbrqt::<2>::create(pool, universe, &MbrqtConfig::default()).unwrap();
        tree.insert(0, Point::new([1.0, 1.0])).unwrap();
        tree.enable_versioning(8).unwrap();
        tree
    }

    #[test]
    fn versioned_mutations_preserve_pinned_snapshots() {
        let mut tree = versioned_tree();
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

        // A fresh pin sees the newest version, and both views coexist.
        let new = handle.pin(None).unwrap();
        assert_eq!(ann_core::index::collect_objects(&new).unwrap().len(), 2);
        assert!(new.version() > old.version());
        assert_eq!(handle.store().pinned_readers(), 2);
        drop((old, new));
        assert_eq!(handle.store().pinned_readers(), 0);
    }

    #[test]
    fn versioned_tree_reopens_from_manifest() {
        let pool = Arc::new(BufferPool::new(ann_store::MemDisk::new(), 256));
        let universe = Mbr::new([0.0, 0.0], [100.0, 100.0]);
        let mut tree =
            Mbrqt::<2>::create(Arc::clone(&pool), universe, &MbrqtConfig::default()).unwrap();
        let meta_page = tree.meta_page();
        let head = tree.enable_versioning(4).unwrap();
        for i in 0..40u64 {
            tree.insert(i, Point::new([(i % 10) as f64, (i / 10) as f64]))
                .unwrap();
        }
        tree.flush().unwrap();
        drop(tree);

        let tree = Mbrqt::<2>::open_versioned(pool, meta_page, head).unwrap();
        assert_eq!(SpatialIndex::num_points(&tree), 40);
        let handle = tree.versioned_handle().unwrap();
        let ctx = handle.pin(None).unwrap();
        assert_eq!(ann_core::index::collect_objects(&ctx).unwrap().len(), 40);
    }
}
