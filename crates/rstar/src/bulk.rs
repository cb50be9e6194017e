//! STR (Sort-Tile-Recursive) bulk loading.
//!
//! STR packs a static dataset into a near-100%-full R-tree: sort by the
//! first dimension, cut into vertical slabs, recursively tile each slab by
//! the remaining dimensions, and emit full leaves; then pack the leaf
//! entries the same way into internal levels until one node remains.

use crate::{RStar, RStarConfig};
use ann_core::extsort::{HilbertSorter, PointSpill};
use ann_core::node::{write_node, Entry, Node, NodeEntry, ObjectEntry};
use ann_core::trace::{Phase, Side, TraceEvent, Tracer};
use ann_core::tree_file::WritableIndex;
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
    let max_leaf = config.resolved_max::<D>(true);
    let max_internal = config.resolved_max::<D>(false);
    let mut tree = RStar::new(Arc::clone(&pool), config)?;

    // Pack leaves: tile the points, one leaf per tile.
    let mut leaf_fill = (max_leaf * 9) / 10; // leave headroom for inserts
    leaf_fill = leaf_fill.max(1);
    let mut internal_fill = ((max_internal * 9) / 10).max(2);

    let mut current: Vec<Entry<D>> = Vec::new();
    let mut height = 1u32;
    // Nodes written per packing round; round 0 is the leaf level.
    let mut round_nodes: Vec<u64> = Vec::new();
    {
        let mut pts: Vec<(u64, Point<D>)> = points.to_vec();
        let mut tiles: Vec<Vec<(u64, Point<D>)>> = Vec::new();
        tile_points(&mut pts, leaf_fill, 0, &mut tiles);
        for tile in tiles {
            let mut node = Node {
                is_leaf: true,
                aux: 0,
                mbr: Mbr::empty(),
                entries: tile
                    .into_iter()
                    .map(|(oid, point)| Entry::Object(ObjectEntry { oid, point }))
                    .collect(),
            };
            node.recompute_mbr();
            let page = pool.allocate()?;
            write_node(&pool, page, &node)?;
            current.push(Entry::Node(NodeEntry {
                page,
                count: node.entries.len() as u64,
                mbr: node.mbr,
            }));
        }
    }

    // Handle the empty dataset: a single empty leaf as the root.
    if current.is_empty() {
        let page = pool.allocate()?;
        write_node::<D>(&pool, page, &Node::empty_leaf())?;
        let tree = tree.built(page, 0, Mbr::empty())?;
        tracer.event(|| TraceEvent::IndexLevelBuilt {
            side,
            level: 0,
            nodes: 1,
        });
        tracer.span_exit(Phase::Build, span_b, io_now);
        return Ok(tree);
    }
    round_nodes.push(current.len() as u64);

    // Pack internal levels until a single entry remains.
    internal_fill = internal_fill.max(2);
    while current.len() > 1 {
        let mut tiles: Vec<Vec<Entry<D>>> = Vec::new();
        tile_entries(&mut current, internal_fill, 0, &mut tiles);
        let mut next: Vec<Entry<D>> = Vec::with_capacity(tiles.len());
        for tile in tiles {
            let mut node = Node {
                is_leaf: false,
                aux: 0,
                mbr: Mbr::empty(),
                entries: tile,
            };
            node.recompute_mbr();
            let page = pool.allocate()?;
            write_node(&pool, page, &node)?;
            next.push(Entry::Node(NodeEntry {
                page,
                count: node.count(),
                mbr: node.mbr,
            }));
        }
        round_nodes.push(next.len() as u64);
        current = next;
        height += 1;
    }

    let Entry::Node(root_entry) = current[0] else {
        unreachable!("packing produces node entries")
    };
    // A single leaf needs no extra root; `current[0]` is already it.
    let bounds = Mbr::from_points(points.iter().map(|(_, p)| p));
    tree.params.height = height;
    let tree = tree.built(root_entry.page, points.len() as u64, bounds)?;
    if tracer.enabled() {
        // round 0 = leaves; report levels with 0 = root to match the
        // query-side per-level accounting.
        for (round, &nodes) in round_nodes.iter().enumerate() {
            let level = round_nodes.len() as u32 - 1 - round as u32;
            tracer.event(|| TraceEvent::IndexLevelBuilt { side, level, nodes });
        }
    }
    tracer.span_exit(Phase::Build, span_b, io_now);
    Ok(tree)
}

/// Builds a packed tree from a point *stream*; see
/// [`RStar::bulk_build_stream`].
///
/// Unlike [`bulk_build`], which materializes and tiles the whole dataset
/// (STR), this keeps memory bounded by `run_budget` records regardless of
/// input size:
///
/// 1. the stream is consumed once into a raw spill on `scratch`, which
///    computes the dataset bounds the Hilbert grid needs up front;
/// 2. the spill replays into a [`HilbertSorter`] (runs of `run_budget`
///    records, spilled sorted, k-way merged);
/// 3. leaves are packed *sequentially* from the merged `(hilbert_key,
///    oid)` order — curve locality replaces STR's tiling — and internal
///    levels chunk the previous level's entries in that same order.
///
/// The result is deterministic for a given input *set* (the `(key, oid)`
/// order is total, so chunking of the input stream is immaterial) but is
/// a different — Hilbert-packed rather than STR-packed — tree than
/// [`bulk_build`] produces. All structural invariants
/// ([`ann_core::index::validate`]) hold identically.
pub(crate) fn bulk_build_stream<const D: usize>(
    pool: Arc<BufferPool>,
    scratch: Arc<BufferPool>,
    points: impl IntoIterator<Item = (u64, Point<D>)>,
    run_budget: usize,
    config: &RStarConfig,
) -> Result<RStar<D>> {
    let max_leaf = config.resolved_max::<D>(true);
    let max_internal = config.resolved_max::<D>(false);

    // Pass 1: stream to a raw spill (bounds + finite check).
    let spill = PointSpill::consume(Arc::clone(&scratch), points)?;
    // Pass 2: replay through the external sorter.
    let mut sorter = HilbertSorter::new(Arc::clone(&scratch), spill.bounds, run_budget.max(1));
    spill.replay(|oid, p| sorter.push(oid, p))?;
    let mut stream = sorter.finish()?;

    let mut tree = RStar::new(Arc::clone(&pool), config)?;
    let leaf_fill = ((max_leaf * 9) / 10).max(1);
    let internal_fill = ((max_internal * 9) / 10).max(2);

    // Pack leaves sequentially in merge order.
    let mut current: Vec<Entry<D>> = Vec::new();
    let mut height = 1u32;
    let mut pending: Vec<Entry<D>> = Vec::with_capacity(leaf_fill);
    loop {
        let rec = stream.next_point()?;
        if let Some(r) = &rec {
            pending.push(Entry::Object(ObjectEntry {
                oid: r.oid,
                point: r.point,
            }));
        }
        if pending.len() == leaf_fill || (rec.is_none() && !pending.is_empty()) {
            let mut node = Node {
                is_leaf: true,
                aux: 0,
                mbr: Mbr::empty(),
                entries: std::mem::take(&mut pending),
            };
            node.recompute_mbr();
            let page = pool.allocate()?;
            write_node(&pool, page, &node)?;
            current.push(Entry::Node(NodeEntry {
                page,
                count: node.entries.len() as u64,
                mbr: node.mbr,
            }));
            pending = node.entries; // recycle the (moved-out) capacity
            pending.clear();
        }
        if rec.is_none() {
            break;
        }
    }

    // Empty dataset: a single empty leaf as the root, exactly as in the
    // in-memory build.
    if current.is_empty() {
        let page = pool.allocate()?;
        write_node::<D>(&pool, page, &Node::empty_leaf())?;
        return tree.built(page, 0, Mbr::empty());
    }

    // Internal levels: consecutive chunks of the previous level, which is
    // already in Hilbert order — sequential chunking preserves locality.
    while current.len() > 1 {
        let mut next: Vec<Entry<D>> = Vec::with_capacity(current.len().div_ceil(internal_fill));
        for chunk in current.chunks(internal_fill) {
            let mut node = Node {
                is_leaf: false,
                aux: 0,
                mbr: Mbr::empty(),
                entries: chunk.to_vec(),
            };
            node.recompute_mbr();
            let page = pool.allocate()?;
            write_node(&pool, page, &node)?;
            next.push(Entry::Node(NodeEntry {
                page,
                count: node.count(),
                mbr: node.mbr,
            }));
        }
        current = next;
        height += 1;
    }

    let Entry::Node(root_entry) = current[0] else {
        unreachable!("packing produces node entries")
    };
    tree.params.height = height;
    tree.built(root_entry.page, spill.len, spill.bounds)
}

/// Recursively tiles `pts` into chunks of `cap`, sorting by dimension
/// `dim` and slicing into `ceil((n/cap)^(1/(D-dim)))` slabs.
fn tile_points<const D: usize>(
    pts: &mut [(u64, Point<D>)],
    cap: usize,
    dim: usize,
    out: &mut Vec<Vec<(u64, Point<D>)>>,
) {
    let n = pts.len();
    if n == 0 {
        return;
    }
    if n <= cap {
        out.push(pts.to_vec());
        return;
    }
    if dim + 1 >= D {
        // Last dimension: emit consecutive runs of `cap`.
        pts.sort_by(|a, b| a.1[dim].partial_cmp(&b.1[dim]).expect("finite"));
        for chunk in pts.chunks(cap) {
            out.push(chunk.to_vec());
        }
        return;
    }
    pts.sort_by(|a, b| a.1[dim].partial_cmp(&b.1[dim]).expect("finite"));
    let tiles_total = n.div_ceil(cap);
    let slabs = (tiles_total as f64)
        .powf(1.0 / (D - dim) as f64)
        .ceil()
        .max(1.0) as usize;
    let per_slab = n.div_ceil(slabs);
    for slab in pts.chunks_mut(per_slab) {
        tile_points(slab, cap, dim + 1, out);
    }
}

/// Same tiling for already-built node entries, keyed by MBR centers.
fn tile_entries<const D: usize>(
    entries: &mut [Entry<D>],
    cap: usize,
    dim: usize,
    out: &mut Vec<Vec<Entry<D>>>,
) {
    let n = entries.len();
    if n == 0 {
        return;
    }
    if n <= cap {
        out.push(entries.to_vec());
        return;
    }
    let key = |e: &Entry<D>, d: usize| e.mbr().center()[d];
    entries.sort_by(|a, b| key(a, dim).partial_cmp(&key(b, dim)).expect("finite"));
    if dim + 1 >= D {
        for chunk in entries.chunks(cap) {
            out.push(chunk.to_vec());
        }
        return;
    }
    let tiles_total = n.div_ceil(cap);
    let slabs = (tiles_total as f64)
        .powf(1.0 / (D - dim) as f64)
        .ceil()
        .max(1.0) as usize;
    let per_slab = n.div_ceil(slabs);
    for slab in entries.chunks_mut(per_slab) {
        tile_entries(slab, cap, dim + 1, out);
    }
}
