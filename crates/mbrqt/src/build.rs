//! Top-down bulk construction of an MBRQT.

use crate::{cell_of_point, cell_quadrant, Mbrqt, MbrqtConfig};
use ann_core::extsort::PointSpill;
use ann_core::node::{write_node, Entry, Node, NodeEntry, ObjectEntry};
use ann_core::trace::{Phase, Side, TraceEvent, Tracer};
use ann_core::tree_file::WritableIndex;
use ann_geom::{Mbr, Point};
use ann_store::BufferPool;
use ann_store::{PageStore, Result, StoreError};
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
    // The universe needs positive extent in every dimension for halving to
    // make progress; degenerate (or empty) input gets a unit-padded box.
    let universe = if points.is_empty() {
        Mbr::new([0.0; D], {
            let mut hi = [0.0; D];
            hi.iter_mut().for_each(|v| *v = 1.0);
            hi
        })
    } else {
        let mut u = bounds;
        for d in 0..D {
            if u.extent(d) <= 0.0 {
                u.hi[d] = u.lo[d] + 1.0;
            }
        }
        u
    };

    let tree = Mbrqt::new(Arc::clone(&pool), universe, config)?;
    // Node pages are written straight through the pool (journaling the
    // whole build would double its I/O for no benefit); see
    // `WritableIndex::built` for why that is crash-safe.
    let mut builder = Builder {
        store: pool.as_ref(),
        bucket_capacity: config.resolved_bucket_capacity::<D>(),
        levels_per_node: config.resolved_levels_per_node::<D>(),
        max_depth: config.max_depth,
        use_subtree_mbrs: config.use_subtree_mbrs,
        level_tally: tracer.enabled().then(Vec::new),
    };
    let mut owned: Vec<(u64, Point<D>)> = points.to_vec();
    let root_entry = builder.build(&mut owned, universe, 0, 0)?;
    if let Some(tally) = builder.level_tally.take() {
        for (level, &nodes) in tally.iter().enumerate() {
            if nodes > 0 {
                tracer.event(|| TraceEvent::IndexLevelBuilt {
                    side,
                    level: level as u32,
                    nodes,
                });
            }
        }
    }

    let tree = tree.built(root_entry.page, points.len() as u64, bounds)?;
    tracer.span_exit(Phase::Build, span_b, io_now);
    Ok(tree)
}

/// Builds the tree from a point *stream*; see [`Mbrqt::bulk_build_stream`].
///
/// The quadtree's distribution partitioning externalizes naturally: the
/// stream is consumed once into a raw spill on `scratch` (computing the
/// bounds that fix the universe), and each oversized partition is split
/// into per-cell child spills by one sequential scan. A partition that
/// fits `memory_budget` records materializes and delegates to the
/// in-memory [`Builder`] — from there down the tree is built by exactly
/// the same decisions as [`bulk_build`], so the streaming build produces
/// the *identical* tree structure for the same input set (partitioning by
/// cell is order-preserving per cell, and `Builder::build` re-partitions
/// the same cells the external pass did).
pub(crate) fn bulk_build_stream<const D: usize>(
    pool: Arc<BufferPool>,
    scratch: Arc<BufferPool>,
    points: impl IntoIterator<Item = (u64, Point<D>)>,
    memory_budget: usize,
    config: &MbrqtConfig,
) -> Result<Mbrqt<D>> {
    // Pass 1: spill the stream, computing bounds (and the finite check).
    let spill = PointSpill::consume(Arc::clone(&scratch), points)?;
    let bounds = spill.bounds;
    let universe = if spill.len == 0 {
        Mbr::new([0.0; D], {
            let mut hi = [0.0; D];
            hi.iter_mut().for_each(|v| *v = 1.0);
            hi
        })
    } else {
        let mut u = bounds;
        for d in 0..D {
            if u.extent(d) <= 0.0 {
                u.hi[d] = u.lo[d] + 1.0;
            }
        }
        u
    };

    let tree = Mbrqt::new(Arc::clone(&pool), universe, config)?;
    let bucket_capacity = config.resolved_bucket_capacity::<D>();
    let mut builder = Builder {
        store: pool.as_ref(),
        bucket_capacity,
        levels_per_node: config.resolved_levels_per_node::<D>(),
        max_depth: config.max_depth,
        use_subtree_mbrs: config.use_subtree_mbrs,
        level_tally: None,
    };
    // A budget below one bucket would materialize less than a leaf holds.
    let budget = memory_budget.max(bucket_capacity).max(1);
    let root_entry = build_external(&mut builder, &scratch, &spill, universe, 0, 0, budget)?;

    tree.built(root_entry.page, spill.len, bounds)
}

/// One step of the external distribution partitioning: materialize when
/// the partition fits the budget (or the depth budget is exhausted —
/// heavy duplicates stop making partitioning progress, exactly as in the
/// in-memory build), otherwise split into per-cell spills and recurse.
fn build_external<const D: usize, S: PageStore>(
    builder: &mut Builder<'_, S>,
    scratch: &Arc<BufferPool>,
    part: &PointSpill<D>,
    quadrant: Mbr<D>,
    depth: usize,
    level: u32,
    budget: usize,
) -> Result<NodeEntry<D>> {
    if part.len as usize <= budget || depth >= builder.max_depth {
        let mut pts: Vec<(u64, Point<D>)> = Vec::with_capacity(part.len as usize);
        part.replay(|oid, p| {
            pts.push((oid, p));
            Ok(())
        })?;
        return builder.build(&mut pts, quadrant, depth, level);
    }
    if let Some(tally) = builder.level_tally.as_mut() {
        let level = level as usize;
        if tally.len() <= level {
            tally.resize(level + 1, 0);
        }
        tally[level] += 1;
    }
    // Same cell decomposition `Builder::build` would pick at this node.
    let levels = builder.pick_levels::<D>(part.len as usize, depth);
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
    let mut node = Node {
        is_leaf: false,
        aux: 0,
        mbr: Mbr::empty(),
        entries: Vec::with_capacity(parts.len()),
    };
    for (idx, child) in parts {
        let child_q = cell_quadrant(&quadrant, idx, levels);
        let entry = build_external(
            builder,
            scratch,
            &child,
            child_q,
            depth + levels,
            level + 1,
            budget,
        )?;
        node.entries.push(Entry::Node(entry));
    }
    node.recompute_mbr();
    node.aux = levels as u8;
    let count = node.count();
    let page = builder.store.allocate()?;
    write_node(builder.store, page, &node)?;
    Ok(NodeEntry {
        page,
        count,
        mbr: if builder.use_subtree_mbrs {
            node.mbr
        } else {
            quadrant
        },
    })
}

pub(crate) struct Builder<'a, S: PageStore> {
    pub(crate) store: &'a S,
    pub(crate) bucket_capacity: usize,
    pub(crate) levels_per_node: usize,
    pub(crate) max_depth: usize,
    pub(crate) use_subtree_mbrs: bool,
    /// When tracing a bulk build: nodes written per disk-node level
    /// (index = distance from the subtree root being built).
    pub(crate) level_tally: Option<Vec<u64>>,
}

impl<S: PageStore> Builder<'_, S> {
    /// Recursively builds the subtree for `points` within `quadrant`,
    /// returning the child entry describing it. `points` is consumed
    /// (drained into leaves or partitions). `depth` counts quadtree
    /// decomposition levels (for the `max_depth` budget); `level` counts
    /// disk nodes from the subtree root (for the build tally only).
    pub(crate) fn build<const D: usize>(
        &mut self,
        points: &mut Vec<(u64, Point<D>)>,
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
        if points.len() <= self.bucket_capacity || depth >= self.max_depth {
            return self.write_leaf(points, &quadrant);
        }
        // Partition into the 2^(D * levels) cells of this node's packed
        // decomposition, choosing just enough levels that the expected
        // cell population is bucket-sized — deeper packing on a small node
        // would scatter one bucket across many near-empty leaf pages.
        // Only non-empty cells are materialized (sparse, sorted vector
        // keyed by cell index).
        let levels = self.pick_levels::<D>(points.len(), depth);
        let mut parts: Vec<(usize, Vec<(u64, Point<D>)>)> = Vec::new();
        for (oid, p) in points.drain(..) {
            let idx = cell_of_point(&quadrant, &p, levels);
            match parts.binary_search_by_key(&idx, |(i, _)| *i) {
                Ok(at) => parts[at].1.push((oid, p)),
                Err(at) => parts.insert(at, (idx, vec![(oid, p)])),
            }
        }
        // Degenerate split (all points in one cell at every level) is
        // bounded by max_depth; recursion proceeds normally here.
        let mut node = Node {
            is_leaf: false,
            aux: 0,
            mbr: Mbr::empty(),
            entries: Vec::with_capacity(parts.len()),
        };
        for (idx, mut part) in parts {
            let child_q = cell_quadrant(&quadrant, idx, levels);
            let entry = self.build(&mut part, child_q, depth + levels, level + 1)?;
            node.entries.push(Entry::Node(entry));
        }
        node.recompute_mbr();
        node.aux = levels as u8;
        let count = node.count();
        let page = self.store.allocate()?;
        write_node(self.store, page, &node)?;
        Ok(NodeEntry {
            page,
            count,
            mbr: if self.use_subtree_mbrs {
                node.mbr
            } else {
                quadrant
            },
        })
    }

    /// Decomposition levels for a node over `n` points at `depth`: enough
    /// halvings that cells come out bucket-sized, capped by the per-page
    /// packing limit and the remaining depth budget.
    pub(crate) fn pick_levels<const D: usize>(&self, n: usize, depth: usize) -> usize {
        let ratio = (n.max(1) as f64 / self.bucket_capacity.max(1) as f64).max(2.0);
        let needed = (ratio.log2() / D as f64).ceil() as usize;
        needed
            .clamp(1, self.levels_per_node)
            .min((self.max_depth - depth).max(1))
    }

    fn write_leaf<const D: usize>(
        &mut self,
        points: &mut Vec<(u64, Point<D>)>,
        quadrant: &Mbr<D>,
    ) -> Result<NodeEntry<D>> {
        let mut node = Node {
            is_leaf: true,
            aux: 0,
            mbr: Mbr::empty(),
            entries: points
                .drain(..)
                .map(|(oid, point)| Entry::Object(ObjectEntry { oid, point }))
                .collect(),
        };
        node.recompute_mbr();
        let count = node.entries.len() as u64;
        // Leaves always carry their tight MBR in `node.mbr`; the parent
        // entry's MBR is the ablation knob.
        let entry_mbr = if self.use_subtree_mbrs || count == 0 {
            node.mbr
        } else {
            *quadrant
        };
        let page = self.store.allocate()?;
        write_node(self.store, page, &node)?;
        Ok(NodeEntry {
            page,
            count,
            mbr: entry_mbr,
        })
    }
}
