//! Bulk loading: STR (Sort-Tile-Recursive).
//!
//! STR packs a static dataset into a near-100%-full R-tree: sort by the
//! first dimension, cut into vertical slabs, recursively tile each slab by
//! the remaining dimensions, and emit full leaves; then pack the leaf
//! entries the same way into internal levels until one node remains.
//! Every node is written through one [`pack`] at one 90 % fill
//! ([`fills`]), and [`finish`] climbs to the root.

use crate::{RStar, RStarConfig};
use ann_core::node::{write_node, Entry, Node, NodeEntry, ObjectEntry};
use ann_core::trace::{Phase, Side, TraceEvent, Tracer};
use ann_core::tree_file::{RStarParams, WritableIndex};
use ann_geom::{Mbr, Point};
use ann_store::{BufferPool, Result, StoreError};
use std::sync::Arc;

/// Builds a packed tree over `points`; see [`RStar::bulk_build`].
pub(crate) fn bulk_build<const D: usize>(
    pool: Arc<BufferPool>,
    points: &[(u64, Point<D>)],
    config: &RStarConfig,
    side: Side,
    tracer: Tracer<'_>,
) -> Result<RStar<D>> {
    if points.iter().any(|(_, p)| !p.is_finite()) {
        return Err(StoreError::corrupt("points must have finite coordinates"));
    }
    let io_now = || pool.stats();
    let span_b = tracer.span_enter(Phase::Build, io_now);
    let tree = RStar::new(Arc::clone(&pool), config)?;

    // One leaf per tile. The points are tiled as tuples, keyed by their
    // coordinates: half the bytes of an `Entry` to sort, and no
    // `Mbr::center`, which overflows above `f64::MAX / 2`.
    let tiles = str_tiles::<D, _>(&mut points.to_vec(), fills(&tree.params).0, |(_, p), d| {
        p[d]
    });
    let leaves = tiles.into_iter().map(|tile| {
        tile.into_iter()
            .map(|(oid, point)| Entry::Object(ObjectEntry { oid, point }))
            .collect()
    });
    let leaves = pack(&pool, leaves, true)?;
    let bounds = Mbr::from_points(points.iter().map(|(_, p)| p));
    let (tree, level_nodes) = finish(tree, &pool, leaves, points.len() as u64, bounds)?;
    // `level_nodes` runs leaves first; report levels with 0 = root to
    // match the query-side per-level accounting.
    for (round, &nodes) in level_nodes.iter().enumerate() {
        let level = (level_nodes.len() - 1 - round) as u32;
        tracer.event(|| TraceEvent::IndexLevelBuilt { side, level, nodes });
    }
    tracer.span_exit(Phase::Build, span_b, io_now);
    Ok(tree)
}

/// Bulk-load fill of a leaf and of an internal node: 90 % of capacity.
/// The tree takes no inserts, so the slack is not headroom; it is kept
/// because every figure's R\*-tree pages were measured at this fill.
fn fills(params: &RStarParams) -> (usize, usize) {
    let fill = |max| max * 9 / 10;
    (
        fill(params.max_leaf).max(1),
        fill(params.max_internal).max(2),
    )
}

/// Writes one node per group, in order, each on a page allocated as it is
/// written, and returns their entries for the level above.
fn pack<const D: usize>(
    pool: &BufferPool,
    groups: impl IntoIterator<Item = Vec<Entry<D>>>,
    is_leaf: bool,
) -> Result<Vec<Entry<D>>> {
    let mut level = Vec::new();
    for entries in groups {
        let mut node = Node {
            is_leaf,
            aux: 0,
            mbr: Mbr::empty(),
            entries,
        };
        node.recompute_mbr();
        let page = pool.allocate()?;
        write_node(pool, page, &node)?;
        level.push(Entry::Node(NodeEntry {
            page,
            count: node.count(),
            mbr: node.mbr,
        }));
    }
    Ok(level)
}

/// Packs internal levels over `leaves`, each the STR tiles of the level
/// below, until one node remains; sets the height and commits the tree
/// over `n` points with `bounds`. An empty dataset gets one empty leaf as
/// its root. Returns the tree and the nodes written per level, leaves
/// first.
fn finish<const D: usize>(
    mut tree: RStar<D>,
    pool: &BufferPool,
    leaves: Vec<Entry<D>>,
    n: u64,
    bounds: Mbr<D>,
) -> Result<(RStar<D>, Vec<u64>)> {
    let mut level = if leaves.is_empty() {
        pack(pool, [Vec::new()], true)?
    } else {
        leaves
    };
    let fill = fills(&tree.params).1;
    let mut level_nodes = vec![level.len() as u64];
    while level.len() > 1 {
        let groups = str_tiles::<D, _>(&mut level, fill, |e, d| e.mbr().center()[d]);
        level = pack(pool, groups, false)?;
        level_nodes.push(level.len() as u64);
    }
    let Entry::Node(root) = level[0] else {
        unreachable!("packing produces node entries")
    };
    tree.params.height = level_nodes.len() as u32;
    Ok((tree.built(root.page, n, bounds)?, level_nodes))
}

/// Sort-Tile-Recursive: tiles `items` into runs of at most `cap`, sorting
/// by `key(item, dim)` and slicing dimension `dim` into
/// `ceil((n/cap)^(1/(D-dim)))` slabs, each tiled by the next dimension.
fn str_tiles<const D: usize, T: Clone>(
    items: &mut [T],
    cap: usize,
    key: impl Fn(&T, usize) -> f64,
) -> Vec<Vec<T>> {
    fn tile<const D: usize, T: Clone>(
        items: &mut [T],
        cap: usize,
        dim: usize,
        key: &impl Fn(&T, usize) -> f64,
        out: &mut Vec<Vec<T>>,
    ) {
        let n = items.len();
        if n == 0 {
            return;
        }
        if n <= cap {
            out.push(items.to_vec());
            return;
        }
        items.sort_by(|a, b| key(a, dim).partial_cmp(&key(b, dim)).expect("finite"));
        if dim + 1 >= D {
            out.extend(items.chunks(cap).map(<[T]>::to_vec));
            return;
        }
        let slabs = (n.div_ceil(cap) as f64)
            .powf(1.0 / (D - dim) as f64)
            .ceil()
            .max(1.0) as usize;
        for slab in items.chunks_mut(n.div_ceil(slabs)) {
            tile::<D, T>(slab, cap, dim + 1, key, out);
        }
    }
    let mut out = Vec::new();
    tile::<D, T>(items, cap, 0, &key, &mut out);
    out
}
