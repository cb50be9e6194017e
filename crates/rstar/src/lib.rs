//! A disk-resident **R\*-tree** (Beckmann, Kriegel, Schneider, Seeger,
//! SIGMOD 1990), built from scratch.
//!
//! This is the index structure all prior ANN work traverses, and the
//! baseline the paper's MBRQT is measured against. Running the generic
//! [`ann_core::mba::mba`] traversal over two `RStar` indices yields the
//! paper's **RBA** algorithm; the **BNN** baseline also searches an
//! `RStar`.
//!
//! The paper's joins run over indexes built once, so a tree is built
//! one way only:
//!
//! * **STR bulk loading** (Sort-Tile-Recursive, Leutenegger et al. 1997)
//!   packs the known dataset into near-full nodes. It is a stronger
//!   baseline than the paper's dynamically built R\*-tree (EXPERIMENTS.md,
//!   "Why"); the R\* insertion rules (ChooseSubtree, the R\* split,
//!   forced reinsertion) are not implemented, and a built tree takes no
//!   inserts or deletes;
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

use ann_core::node::Node;
use ann_core::trace::{Side, Tracer};
use ann_core::tree_file::{Params, RStarParams, TreeFile, WritableIndex};
use ann_geom::Point;
use ann_store::{BufferPool, PageId, Result, StoreError};
use std::sync::Arc;

/// Node sizes for [`RStar`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RStarConfig {
    /// Maximum entries per leaf node. `0` = fill one page.
    pub max_leaf_entries: usize,
    /// Maximum entries per internal node. `0` = fill one page.
    pub max_internal_entries: usize,
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

/// A disk-resident R\*-tree over `D`-dimensional points, built by STR.
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
    /// Bulk-builds a well-packed tree over `points` with STR.
    pub fn bulk_build(
        pool: Arc<BufferPool>,
        points: &[(u64, Point<D>)],
        config: &RStarConfig,
    ) -> Result<Self> {
        bulk::bulk_build(pool, points, config, Side::R, Tracer::disabled())
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

    /// Tree height (1 = a single leaf).
    pub fn height(&self) -> u32 {
        self.params.height
    }

    /// Starts a tree on `pool` — its file exists, its root does not yet:
    /// what the bulk build begins with.
    pub(crate) fn new(pool: Arc<BufferPool>, config: &RStarConfig) -> Result<Self> {
        Ok(RStar {
            file: TreeFile::create(pool)?,
            params: RStarParams {
                height: 1,
                max_leaf: config.resolved_max::<D>(true),
                max_internal: config.resolved_max::<D>(false),
            },
        })
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

    fn params(&self) -> Params<D> {
        Params::RStar(self.params)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_core::index::SpatialIndex;

    #[test]
    fn versioned_tree_reopens_from_manifest() {
        let pool = Arc::new(BufferPool::new(ann_store::MemDisk::new(), 256));
        let pts: Vec<_> = (0..40u64)
            .map(|i| (i, Point::new([(i % 10) as f64, (i / 10) as f64])))
            .collect();
        let mut tree =
            RStar::<2>::bulk_build(Arc::clone(&pool), &pts, &RStarConfig::default()).unwrap();
        let meta_page = tree.meta_page();
        let head = tree.enable_versioning(4).unwrap();
        tree.flush().unwrap();
        drop(tree);

        let tree = RStar::<2>::open_at(pool, meta_page, Some(head)).unwrap();
        assert_eq!(SpatialIndex::num_points(&tree), 40);
        let handle = tree.versioned_handle().unwrap();
        let ctx = handle.pin(None).unwrap();
        assert_eq!(ann_core::index::collect_objects(&ctx).unwrap().len(), 40);
    }
}
