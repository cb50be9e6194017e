//! The scheduled block nested-loops kNN join over G-ordered data.

use crate::grid::GridOrder;
use crate::pca::Pca;
use ann_core::node::ObjectEntry;
use ann_core::scratch::{self_join_room, KBestSet};
use ann_core::stats::AnnOutput;
use ann_core::trace::{Phase, PruneReason, TraceEvent, Tracer};
use ann_geom::{min_min_dist_sq, Mbr, Point};
use ann_store::{BufferPool, HeapFile, Reader, Result, Writer};
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Grid segments per (principal) dimension; the GORDER paper's
/// recommended operating range is tens-to-hundreds depending on
/// dimensionality.
pub const SEGMENTS_PER_DIM: u32 = 64;

/// Pages per outer (`R`) block held in memory at a time.
pub const R_BLOCK_PAGES: usize = 8;

/// Pages per inner (`S`) block.
pub const S_BLOCK_PAGES: usize = 2;

/// Configuration for [`gorder_join`]: what a query asks for. The grid and
/// block sizes are [`SEGMENTS_PER_DIM`], [`R_BLOCK_PAGES`] and
/// [`S_BLOCK_PAGES`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GorderConfig {
    /// Neighbors per query object.
    pub k: usize,
    /// Self-join mode: skip same-oid pairs.
    pub exclude_self: bool,
}

impl Default for GorderConfig {
    fn default() -> Self {
        GorderConfig {
            k: 1,
            exclude_self: false,
        }
    }
}

/// A G-order-sorted dataset materialized on pages, chopped into blocks
/// with per-block bounding boxes (computed in the transformed space).
struct BlockFile<const D: usize> {
    heap: HeapFile,
    /// `(first_record_index, record_count, bbox)` per block.
    blocks: Vec<(u64, usize, Mbr<D>)>,
}

impl<const D: usize> BlockFile<D> {
    fn write(
        pool: Arc<BufferPool>,
        sorted: &[(u64, Point<D>)],
        block_pages: usize,
    ) -> Result<Self> {
        let mut heap = HeapFile::create(pool, ObjectEntry::<D>::SIZE)?;
        let records_per_block = (heap.records_per_page() * block_pages).max(1);
        let mut blocks = Vec::new();
        let mut rec = Writer::with_capacity(ObjectEntry::<D>::SIZE);
        for (i, &(oid, point)) in sorted.iter().enumerate() {
            rec.clear();
            ObjectEntry { oid, point }.put(&mut rec);
            heap.append(rec.as_bytes())?;
            if i % records_per_block == 0 {
                blocks.push((i as u64, 0, Mbr::empty()));
            }
            let last = blocks.last_mut().expect("block started");
            last.1 += 1;
            last.2.expand_point(&point);
        }
        Ok(BlockFile { heap, blocks })
    }

    fn num_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Reads block `b` into memory (through the buffer pool; each page of
    /// the block is fetched once).
    fn read_block(&self, b: usize) -> Result<Vec<(u64, Point<D>)>> {
        let (first, count, _) = self.blocks[b];
        let mut out = Vec::with_capacity(count);
        self.heap.scan_range(first, count as u64, |_, record| {
            let o = ObjectEntry::get(&mut Reader::new(record))?;
            out.push((o.oid, o.point));
            Ok(())
        })?;
        Ok(out)
    }
}

/// Evaluates the kNN join of `r` against `s` with the GORDER method.
///
/// `pool` hosts the sorted block files; pass the same pool the competing
/// index-based algorithms use so I/O comparisons are like-for-like.
pub fn gorder_join<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    pool: Arc<BufferPool>,
    cfg: &GorderConfig,
) -> Result<AnnOutput> {
    gorder_join_traced(r, s, pool, cfg, Tracer::disabled())
}

/// [`gorder_join`] with an attached [`Tracer`]: per-phase spans (PCA,
/// sort+materialize, scheduled join) with pool I/O deltas, plus one
/// [`TraceEvent::GorderBlock`] per outer block recording how much of the
/// inner schedule the block bound cut off. With `Tracer::disabled()` this
/// is exactly [`gorder_join`].
pub fn gorder_join_traced<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    pool: Arc<BufferPool>,
    cfg: &GorderConfig,
    tracer: Tracer<'_>,
) -> Result<AnnOutput> {
    let mut out = AnnOutput::default();
    let io0 = pool.stats();
    if cfg.k == 0 || r.is_empty() || s.is_empty() {
        return Ok(out);
    }
    let io_now = || pool.stats();
    let span_q = tracer.span_enter(Phase::Query, io_now);

    // Phase 1: PCA on the union of both inputs.
    let span_pca = tracer.span_enter(Phase::Pca, io_now);
    let union: Vec<Point<D>> = r.iter().chain(s.iter()).map(|&(_, p)| p).collect();
    let pca = Pca::fit(&union);
    let mut tr: Vec<(u64, Point<D>)> = r.iter().map(|&(o, p)| (o, pca.transform(&p))).collect();
    let mut ts: Vec<(u64, Point<D>)> = s.iter().map(|&(o, p)| (o, pca.transform(&p))).collect();
    tracer.span_exit(Phase::Pca, span_pca, io_now);

    // Phase 2: grid-order sort and write back in sorted blocks.
    let span_sort = tracer.span_enter(Phase::Sort, io_now);
    let bounds = Mbr::from_points(tr.iter().chain(ts.iter()).map(|(_, p)| p));
    let grid = GridOrder::with_uniform_segments(bounds, SEGMENTS_PER_DIM);
    grid.sort(&mut tr);
    grid.sort(&mut ts);
    let rf = BlockFile::write(pool.clone(), &tr, R_BLOCK_PAGES)?;
    let sf = BlockFile::write(pool.clone(), &ts, S_BLOCK_PAGES)?;
    drop(tr);
    drop(ts);
    tracer.span_exit(Phase::Sort, span_sort, io_now);

    let k_eff = self_join_room(cfg.k, cfg.exclude_self);

    // Phase 3: scheduled block nested-loops join.
    let span_j = tracer.span_enter(Phase::Join, io_now);
    let mut blocks_skipped_total = 0u64;
    for rb in 0..rf.num_blocks() {
        let r_bbox = rf.blocks[rb].2;
        let r_pts = rf.read_block(rb)?;
        let mut sets: Vec<KBestSet> = r_pts
            .iter()
            .map(|_| KBestSet::new(k_eff, BinaryHeap::with_capacity(k_eff.min(s.len()))))
            .collect();

        // Schedule: inner blocks in ascending MINMINDIST to the outer block.
        let mut schedule: Vec<(f64, usize)> = (0..sf.num_blocks())
            .map(|sb| (min_min_dist_sq(&r_bbox, &sf.blocks[sb].2), sb))
            .collect();
        schedule.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));

        let mut block_bound = f64::INFINITY;
        let mut scanned = 0u32;
        for &(mind_sq, sb) in &schedule {
            if mind_sq > block_bound {
                break; // ascending schedule: all later blocks farther
            }
            scanned += 1;
            let s_bbox = sf.blocks[sb].2;
            let s_pts = sf.read_block(sb)?;
            for (set, (r_oid, r_pt)) in sets.iter_mut().zip(&r_pts) {
                // Per-point block filter.
                let pm = Mbr::from_point(r_pt);
                out.stats.distance_computations += 1;
                if min_min_dist_sq(&pm, &s_bbox) > set.bound_sq() {
                    continue;
                }
                for &(s_oid, s_pt) in &s_pts {
                    if cfg.exclude_self && s_oid == *r_oid {
                        continue;
                    }
                    out.stats.distance_computations += 1;
                    set.offer(r_pt.dist_sq(&s_pt), s_oid);
                }
            }
            block_bound = sets.iter().map(KBestSet::bound_sq).fold(0.0f64, f64::max);
        }
        if tracer.enabled() {
            let skipped = schedule.len() as u32 - scanned;
            blocks_skipped_total += u64::from(skipped);
            tracer.event(|| TraceEvent::GorderBlock {
                outer: rb as u32,
                scanned,
                skipped,
            });
        }

        for (set, (r_oid, _)) in sets.into_iter().zip(&r_pts) {
            set.emit(*r_oid, cfg.k, &mut out.results);
        }
    }

    if blocks_skipped_total > 0 {
        tracer.event(|| TraceEvent::Pruned {
            metric: "euclidean",
            reason: PruneReason::BlockSkip,
            count: blocks_skipped_total,
        });
    }
    tracer.span_exit(Phase::Join, span_j, io_now);
    tracer.span_exit(Phase::Query, span_q, io_now);

    out.stats.io = pool.stats().since(&io0);
    Ok(out)
}
