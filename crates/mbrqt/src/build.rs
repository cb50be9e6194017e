//! The one place an MBRQT node is written.
//!
//! [`Builder`] holds the tree's build rule: a cell splits into the
//! sparse, sorted grid cells of [`Builder::pick_levels`] levels, a bucket
//! is a leaf, and every child entry carries the tight MBR of its subtree
//! (or its quadrant, in the plain-quadtree ablation). The bulk build, the
//! streamed build and an insert's path rewrite and bucket split all
//! write their nodes through it, so they cannot disagree on that rule.
//! Pages are allocated at write time, after their children (post-order).

use crate::{cell_of_point, cell_quadrant, Mbrqt, MbrqtConfig, MAX_DEPTH};
use ann_core::node::{write_node, Entry, Node, NodeEntry, ObjectEntry};
use ann_core::trace::{Phase, Side, TraceEvent, Tracer};
use ann_core::tree_file::{MbrqtParams, WritableIndex};
use ann_geom::{Mbr, Point};
use ann_store::{BufferPool, HeapFile, PageId, PageStore, Reader, Result, StoreError, Writer};
use std::sync::Arc;

/// Builds the tree for `points`; see [`Mbrqt::bulk_build`].
pub(crate) fn bulk_build<const D: usize>(
    pool: Arc<BufferPool>,
    points: &[(u64, Point<D>)],
    config: &MbrqtConfig,
    side: Side,
    tracer: Tracer<'_>,
) -> Result<Mbrqt<D>> {
    if points.iter().any(|(_, p)| !p.is_finite()) {
        return Err(StoreError::corrupt("points must have finite coordinates"));
    }
    let io_now = || pool.stats();
    let span_b = tracer.span_enter(Phase::Build, io_now);
    let bounds = Mbr::from_points(points.iter().map(|(_, p)| p));
    let universe = universe_of(bounds, points.is_empty());
    let tree = Mbrqt::new(Arc::clone(&pool), universe, config)?;
    // Node pages are written straight through the pool (journaling the
    // whole build would double its I/O for no benefit); see
    // `WritableIndex::built` for why that is crash-safe.
    let mut builder = Builder::new(pool.as_ref(), tree.params);
    builder.level_tally = tracer.enabled().then(Vec::new);
    let root = builder.build(points.to_vec(), universe, 0, 0)?;
    for (level, &nodes) in builder.level_tally.iter().flatten().enumerate() {
        if nodes > 0 {
            tracer.event(|| TraceEvent::IndexLevelBuilt {
                side,
                level: level as u32,
                nodes,
            });
        }
    }

    let tree = tree.built(root.page, points.len() as u64, bounds)?;
    tracer.span_exit(Phase::Build, span_b, io_now);
    Ok(tree)
}

/// Builds the tree from a point *stream*; see [`Mbrqt::bulk_build_stream`].
///
/// The quadtree's distribution partitioning externalizes naturally: the
/// stream is consumed once into a raw spill on `scratch` (computing the
/// bounds that fix the universe), and each oversized partition is split
/// into per-cell child spills by one sequential scan. A partition that
/// fits `memory_budget` records materializes and goes to
/// [`Builder::build`]; an oversized one is assembled by the same
/// [`Builder::write_internal`]. Every cell is split by the same decisions
/// as in [`bulk_build`], so the streaming build produces the *identical*
/// tree for the same input set (partitioning by cell is order-preserving
/// per cell).
pub(crate) fn bulk_build_stream<const D: usize>(
    pool: Arc<BufferPool>,
    scratch: Arc<BufferPool>,
    points: impl IntoIterator<Item = (u64, Point<D>)>,
    memory_budget: usize,
    config: &MbrqtConfig,
) -> Result<Mbrqt<D>> {
    // Pass 1: spill the stream, computing bounds (and the finite check).
    let spill = PointSpill::consume(Arc::clone(&scratch), points)?;
    let universe = universe_of(spill.bounds, spill.heap.is_empty());
    let tree = Mbrqt::new(Arc::clone(&pool), universe, config)?;
    let mut builder = Builder::new(pool.as_ref(), tree.params);
    // A budget below one bucket would materialize less than a leaf holds.
    let budget = memory_budget.max(tree.params.bucket_capacity).max(1);
    let root = build_external(&mut builder, &scratch, &spill, universe, 0, budget)?;
    tree.built(root.page, spill.heap.len(), spill.bounds)
}

/// The universe over data with `bounds`. Halving needs positive extent in
/// every dimension to make progress, so degenerate dimensions are padded
/// to unit width and empty input gets the unit box.
fn universe_of<const D: usize>(bounds: Mbr<D>, empty: bool) -> Mbr<D> {
    if empty {
        return Mbr::new([0.0; D], [1.0; D]);
    }
    let mut u = bounds;
    for d in 0..D {
        if u.extent(d) <= 0.0 {
            u.hi[d] = u.lo[d] + 1.0;
        }
    }
    u
}

/// One step of the external distribution partitioning: materialize when
/// the partition fits the budget (or the depth budget is exhausted —
/// heavy duplicates stop making partitioning progress, exactly as in the
/// in-memory build), otherwise split into per-cell spills and recurse.
fn build_external<const D: usize, S: PageStore>(
    builder: &mut Builder<'_, S, D>,
    scratch: &Arc<BufferPool>,
    part: &PointSpill<D>,
    quadrant: Mbr<D>,
    depth: usize,
    budget: usize,
) -> Result<NodeEntry<D>> {
    if part.heap.len() as usize <= budget || depth >= MAX_DEPTH {
        let mut points = Vec::with_capacity(part.heap.len() as usize);
        part.replay(|oid, p| {
            points.push((oid, p));
            Ok(())
        })?;
        return builder.build(points, quadrant, depth, 0);
    }
    // Same cell decomposition `Builder::split` would pick at this node.
    let levels = builder.pick_levels(part.heap.len() as usize, depth);
    let mut parts: Vec<(usize, PointSpill<D>)> = Vec::new();
    part.replay(|oid, p| {
        let idx = cell_of_point(&quadrant, &p, levels);
        match parts.binary_search_by_key(&idx, |(i, _)| *i) {
            Ok(at) => parts[at].1.push(oid, p),
            Err(at) => {
                let mut child = PointSpill::create(Arc::clone(scratch))?;
                child.push(oid, p)?;
                parts.insert(at, (idx, child));
                Ok(())
            }
        }
    })?;
    let mut entries = Vec::with_capacity(parts.len());
    for (idx, child) in parts {
        let child_q = cell_quadrant(&quadrant, idx, levels);
        let entry = build_external(builder, scratch, &child, child_q, depth + levels, budget)?;
        entries.push(Entry::Node(entry));
    }
    builder.write_internal(entries, levels, quadrant, None)
}

/// A raw, unsorted spill of `(oid, point)` records on a scratch pool: the
/// stream build's input, and each partition it splits off.
struct PointSpill<const D: usize> {
    heap: HeapFile,
    /// Reusable record-encoding buffer.
    rec: Writer,
    /// Tight bounds over every spilled point.
    bounds: Mbr<D>,
}

impl<const D: usize> PointSpill<D> {
    /// An empty spill on `scratch`; fill it with [`push`](Self::push).
    fn create(scratch: Arc<BufferPool>) -> Result<Self> {
        Ok(PointSpill {
            heap: HeapFile::create(scratch, ObjectEntry::<D>::SIZE)?,
            rec: Writer::with_capacity(ObjectEntry::<D>::SIZE),
            bounds: Mbr::empty(),
        })
    }

    /// Appends one record, expanding the bounds. Rejects non-finite
    /// coordinates.
    fn push(&mut self, oid: u64, point: Point<D>) -> Result<()> {
        if !point.is_finite() {
            return Err(StoreError::corrupt("points must have finite coordinates"));
        }
        self.rec.clear();
        ObjectEntry { oid, point }.put(&mut self.rec);
        self.heap.append(self.rec.as_bytes())?;
        self.bounds.expand(&Mbr::from_point(&point));
        Ok(())
    }

    /// Consumes `points` into a spill on `scratch`.
    fn consume(
        scratch: Arc<BufferPool>,
        points: impl IntoIterator<Item = (u64, Point<D>)>,
    ) -> Result<Self> {
        let mut spill = Self::create(scratch)?;
        for (oid, point) in points {
            spill.push(oid, point)?;
        }
        Ok(spill)
    }

    /// Replays every spilled record, in spill order, into `f`.
    fn replay(&self, mut f: impl FnMut(u64, Point<D>) -> Result<()>) -> Result<()> {
        self.heap.scan(|_, record| {
            let o = ObjectEntry::get(&mut Reader::new(record))?;
            f(o.oid, o.point)
        })
    }
}

/// Writes MBRQT nodes under one tree's parameters.
pub(crate) struct Builder<'a, S: PageStore, const D: usize> {
    pub(crate) store: &'a S,
    pub(crate) params: MbrqtParams<D>,
    /// When tracing a bulk build: nodes written per disk-node level
    /// (index = distance from the subtree root being built).
    level_tally: Option<Vec<u64>>,
}

impl<'a, S: PageStore, const D: usize> Builder<'a, S, D> {
    pub(crate) fn new(store: &'a S, params: MbrqtParams<D>) -> Self {
        Builder {
            store,
            params,
            level_tally: None,
        }
    }

    /// Builds the subtree for `points` within `quadrant` on fresh pages,
    /// returning the child entry describing it. `depth` counts quadtree
    /// decomposition levels (for the [`MAX_DEPTH`] budget); `level` counts
    /// disk nodes from the subtree root (for the build tally only).
    pub(crate) fn build(
        &mut self,
        points: Vec<(u64, Point<D>)>,
        quadrant: Mbr<D>,
        depth: usize,
        level: u32,
    ) -> Result<NodeEntry<D>> {
        if let Some(tally) = self.level_tally.as_mut() {
            let level = level as usize;
            if tally.len() <= level {
                tally.resize(level + 1, 0);
            }
            tally[level] += 1;
        }
        if points.len() <= self.params.bucket_capacity || depth >= MAX_DEPTH {
            return self.write_leaf(points, quadrant);
        }
        self.split(points, quadrant, depth, level, None)
    }

    /// Writes `points` (more than a bucket) as an internal node over
    /// `quadrant`: at `at`, or on a fresh page. The node packs the
    /// `2^(D * levels)` cells of [`pick_levels`](Self::pick_levels)
    /// levels; only non-empty cells get a child (a sparse vector sorted
    /// by cell index). A degenerate split (all points in one cell at
    /// every level) is bounded by [`MAX_DEPTH`].
    pub(crate) fn split(
        &mut self,
        points: Vec<(u64, Point<D>)>,
        quadrant: Mbr<D>,
        depth: usize,
        level: u32,
        at: Option<PageId>,
    ) -> Result<NodeEntry<D>> {
        let levels = self.pick_levels(points.len(), depth);
        let mut parts: Vec<(usize, Vec<(u64, Point<D>)>)> = Vec::new();
        for (oid, p) in points {
            let idx = cell_of_point(&quadrant, &p, levels);
            match parts.binary_search_by_key(&idx, |(i, _)| *i) {
                Ok(i) => parts[i].1.push((oid, p)),
                Err(i) => parts.insert(i, (idx, vec![(oid, p)])),
            }
        }
        let mut entries = Vec::with_capacity(parts.len());
        for (idx, part) in parts {
            let child_q = cell_quadrant(&quadrant, idx, levels);
            let entry = self.build(part, child_q, depth + levels, level + 1)?;
            entries.push(Entry::Node(entry));
        }
        self.write_internal(entries, levels, quadrant, at)
    }

    /// Decomposition levels for a node over `n` points at `depth`: enough
    /// halvings that cells come out bucket-sized (deeper packing on a
    /// small node would scatter one bucket across many near-empty leaf
    /// pages), capped by the per-page packing limit and the remaining
    /// depth budget.
    pub(crate) fn pick_levels(&self, n: usize, depth: usize) -> usize {
        let p = &self.params;
        let ratio = (n.max(1) as f64 / p.bucket_capacity.max(1) as f64).max(2.0);
        let needed = (ratio.log2() / D as f64).ceil() as usize;
        needed
            .clamp(1, p.levels_per_node)
            .min((MAX_DEPTH - depth).max(1))
    }

    /// Writes an internal node over `entries`, its `levels` kept in the
    /// aux byte so updates route at the same granularity.
    fn write_internal(
        &self,
        entries: Vec<Entry<D>>,
        levels: usize,
        quadrant: Mbr<D>,
        at: Option<PageId>,
    ) -> Result<NodeEntry<D>> {
        let node = Node {
            is_leaf: false,
            aux: levels as u8,
            mbr: Mbr::empty(),
            entries,
        };
        self.write(node, quadrant, at)
    }

    /// Writes the bucket of `objects` over `quadrant` on a fresh page.
    pub(crate) fn write_leaf(
        &self,
        objects: impl IntoIterator<Item = (u64, Point<D>)>,
        quadrant: Mbr<D>,
    ) -> Result<NodeEntry<D>> {
        let entries = objects
            .into_iter()
            .map(|(oid, point)| Entry::Object(ObjectEntry { oid, point }))
            .collect();
        let node = Node {
            is_leaf: true,
            aux: 0,
            mbr: Mbr::empty(),
            entries,
        };
        self.write(node, quadrant, None)
    }

    /// Writes `node` over `quadrant` at `at`, or on a page allocated now,
    /// and returns the parent's entry for it. The node itself always
    /// carries its tight MBR; the entry carries it too unless the tree is
    /// the plain-quadrant ablation, whose entries carry the quadrant (an
    /// empty subtree keeps its empty box either way).
    pub(crate) fn write(
        &self,
        mut node: Node<D>,
        quadrant: Mbr<D>,
        at: Option<PageId>,
    ) -> Result<NodeEntry<D>> {
        node.recompute_mbr();
        let page = match at {
            Some(page) => page,
            None => self.store.allocate()?,
        };
        write_node(self.store, page, &node)?;
        let count = node.count();
        let tight = self.params.use_subtree_mbrs || count == 0;
        Ok(NodeEntry {
            page,
            count,
            mbr: if tight { node.mbr } else { quadrant },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_store::MemDisk;

    #[test]
    fn point_spill_replays_in_order_with_bounds() {
        let scratch = || Arc::new(BufferPool::new(MemDisk::new(), 64));
        let pts = vec![
            (3u64, Point::new([0.5, -1.0])),
            (1, Point::new([2.0, 4.0])),
            (2, Point::new([-3.0, 0.25])),
        ];
        let spill = PointSpill::consume(scratch(), pts.clone()).unwrap();
        assert_eq!(spill.heap.len(), 3);
        assert_eq!(spill.bounds, Mbr::new([-3.0, -1.0], [2.0, 4.0]));
        let mut replayed = Vec::new();
        spill
            .replay(|oid, p| {
                replayed.push((oid, p));
                Ok(())
            })
            .unwrap();
        assert_eq!(replayed, pts);

        let bad = PointSpill::consume(scratch(), vec![(0u64, Point::new([f64::INFINITY, 0.0]))]);
        assert!(bad.is_err());
    }
}
