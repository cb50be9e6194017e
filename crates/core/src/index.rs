//! The [`SpatialIndex`] trait: what an index must expose for the ANN
//! algorithms to traverse it. This is the read side; the write side of
//! the two trees (create, open and recovery, transactions, versioning)
//! is [`crate::tree_file`].

use crate::node::{read_node, DecodedNode, Entry, Node};
use crate::node_cache::NodeCache;
use ann_geom::{Mbr, Point};
use ann_store::{BufferPool, PageId, Result, StoreError};
use std::sync::Arc;

/// A disk-resident spatial index over `D`-dimensional points.
///
/// Both the MBRQT (`ann-mbrqt`) and the R*-tree (`ann-rstar`) implement
/// this; the MBA traversal, the BNN/MNN baselines and the validation
/// helpers below work against it generically — instantiating MBA over an
/// R*-tree yields the paper's RBA algorithm with no further code.
pub trait SpatialIndex<const D: usize> {
    /// The buffer pool this index reads through.
    fn pool(&self) -> &BufferPool;

    /// First page of the root node.
    fn root_page(&self) -> PageId;

    /// Number of indexed points.
    fn num_points(&self) -> u64;

    /// Tight bounding box of all indexed points ([`Mbr::empty`] when the
    /// index is empty).
    fn bounds(&self) -> Mbr<D>;

    /// Reads and decodes the node starting at `page`.
    ///
    /// The default implementation uses the shared codec in [`crate::node`];
    /// indices with bespoke layouts can override it.
    fn read_node(&self, page: PageId) -> Result<Node<D>> {
        read_node(self.pool(), page)
    }

    /// Reads the root node.
    fn read_root(&self) -> Result<Node<D>> {
        self.read_node(self.root_page())
    }

    /// The index's decoded-node cache, when it keeps one.
    ///
    /// Indices that return `Some` must either bump the cache's epoch on
    /// every structural mutation (the default, epoch-keyed scheme) or key
    /// the cache by MVCC version via [`cache_key`](Self::cache_key), so
    /// [`read_node_cached`](Self::read_node_cached) can never serve a
    /// node from a different tree state than the one being traversed.
    fn node_cache(&self) -> Option<&NodeCache<D>> {
        None
    }

    /// The invalidation key this view caches nodes under.
    ///
    /// Defaults to the node cache's current epoch (whole-cache
    /// invalidation on mutation). Snapshot views over a versioned store
    /// override this with their pinned version, so entries cached for
    /// older snapshots stay valid and shareable instead of being thrown
    /// away on every commit.
    fn cache_key(&self) -> u64 {
        self.node_cache().map_or(0, |cache| cache.epoch())
    }

    /// Reports whether `page` is already held decoded in the node cache.
    ///
    /// A cached node is served by [`read_node_cached`](Self::read_node_cached)
    /// without touching the buffer pool, so readahead hook sites skip
    /// hinting such pages: prefetching them could only waste disk reads.
    /// Indices without a node cache report `false` for every page.
    fn node_is_cached(&self, page: PageId) -> bool {
        let key = self.cache_key();
        self.node_cache()
            .is_some_and(|cache| cache.contains(key, page))
    }

    /// Reads the node starting at `page` through the decoded-node cache:
    /// a hit returns the shared decoded node — with its column-major SoA
    /// mirror for the batched kernels — without touching the buffer pool;
    /// a miss decodes via [`read_node`](Self::read_node), builds the
    /// columns, and caches the result. Falls back to a plain (uncached)
    /// read-and-decode when the index keeps no cache.
    ///
    /// The traversal hot paths (MBA/RBA, BNN, MNN, kNN, closest pairs)
    /// read through this; structural validation and collection deliberately
    /// use the uncached [`read_node`](Self::read_node) so they observe the
    /// on-disk bytes.
    fn read_node_cached(&self, page: PageId) -> Result<Arc<DecodedNode<D>>> {
        let Some(cache) = self.node_cache() else {
            return Ok(Arc::new(DecodedNode::new(self.read_node(page)?)));
        };
        // Snapshot the key before the pool read: if a mutation lands in
        // between, the insert goes under the superseded key and is
        // dropped at the cache's retired floor instead of poisoning the
        // new one.
        let key = self.cache_key();
        if let Some(node) = cache.get(key, page) {
            return Ok(node);
        }
        let node = Arc::new(DecodedNode::new(self.read_node(page)?));
        cache.insert(key, page, Arc::clone(&node));
        Ok(node)
    }
}

/// Collects every `(oid, point)` in the index by a full traversal.
/// Intended for tests and examples, not hot paths.
pub fn collect_objects<const D: usize, I: SpatialIndex<D> + ?Sized>(
    index: &I,
) -> Result<Vec<(u64, Point<D>)>> {
    let mut out = Vec::with_capacity(index.num_points() as usize);
    let mut stack = vec![index.root_page()];
    while let Some(page) = stack.pop() {
        let node = index.read_node(page)?;
        for e in &node.entries {
            match e {
                Entry::Object(o) => out.push((o.oid, o.point)),
                Entry::Node(n) => stack.push(n.page),
            }
        }
    }
    Ok(out)
}

/// Structural statistics gathered by [`validate`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeShape {
    /// Total nodes (internal + leaf).
    pub nodes: u64,
    /// Leaf nodes.
    pub leaves: u64,
    /// Height (a lone leaf has height 1).
    pub height: u32,
    /// Data objects found.
    pub objects: u64,
}

/// Exhaustively checks the structural invariants every index must uphold:
///
/// 1. each child entry's MBR contains its child node's MBR, and equals the
///    MBR the child node reports for itself;
/// 2. a node's MBR is the tight union of its entries;
/// 3. each child entry's `count` equals the child subtree's object count;
/// 4. every object lies inside its leaf's MBR (implied by 2 — and what
///    lets a point×leaf scan reject a whole leaf on
///    `MINMINDIST(point, leaf MBR)`, see `scan.rs`);
/// 5. the root's count matches [`SpatialIndex::num_points`].
///
/// Returns shape statistics on success.
pub fn validate<const D: usize, I: SpatialIndex<D> + ?Sized>(index: &I) -> Result<TreeShape> {
    fn recurse<const D: usize, I: SpatialIndex<D> + ?Sized>(
        index: &I,
        page: PageId,
        shape: &mut TreeShape,
    ) -> Result<(Node<D>, u64, u32)> {
        let node = index.read_node(page)?;
        shape.nodes += 1;
        // Invariant 2: tight MBR over entries.
        let mut union = Mbr::empty();
        for e in &node.entries {
            union.expand(&e.mbr());
        }
        if !node.entries.is_empty() && union != node.mbr {
            return Err(StoreError::corrupt("node MBR is not tight over entries"));
        }
        if node.is_leaf {
            shape.leaves += 1;
            let count = node.entries.len() as u64;
            shape.objects += count;
            for e in &node.entries {
                if let Entry::Node(_) = e {
                    return Err(StoreError::corrupt("leaf holds a child entry"));
                }
                // Invariant 4 is implied by invariant 2 for leaves.
            }
            return Ok((node, count, 1));
        }
        let mut count = 0;
        let mut height = 0;
        for e in node.entries.clone() {
            let Entry::Node(child_ref) = e else {
                return Err(StoreError::corrupt("internal node holds an object"));
            };
            let (child, child_count, child_height) = recurse(index, child_ref.page, shape)?;
            // Invariant 1.
            if child.mbr != child_ref.mbr {
                return Err(StoreError::corrupt("child entry MBR mismatch"));
            }
            // Invariant 3.
            if child_count != child_ref.count {
                return Err(StoreError::corrupt("child entry count mismatch"));
            }
            count += child_count;
            height = height.max(child_height);
        }
        Ok((node, count, height + 1))
    }

    let mut shape = TreeShape::default();
    let (_, count, height) = recurse(index, index.root_page(), &mut shape)?;
    shape.height = height;
    // Invariant 5.
    if count != index.num_points() {
        return Err(StoreError::corrupt("root count != num_points"));
    }
    Ok(shape)
}
