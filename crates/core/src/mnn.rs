//! **MNN** — multiple nearest-neighbor search (Zhang et al., SSDBM 2004):
//! an index-nested-loops baseline that runs one best-first kNN search over
//! `I_S` per query object.
//!
//! The paper (§2) notes MNN maximizes query locality to keep I/O down but
//! pays a high CPU price: every query repeats the descent from the root.
//! Locality is obtained here by enumerating the query objects in index
//! order (a depth-first walk of `I_R`), which visits spatially adjacent
//! points consecutively — consecutive searches then hit the same upper
//! `I_S` pages in the buffer pool.

use crate::index::SpatialIndex;
use crate::node::{Entry, ObjectEntry};
use crate::resilience::{attach_partial_stats, QueryGuard, QueryResult};
use crate::scan::{BestFirst, NodeScan};
use crate::scratch::QueryScratch;
use crate::stats::{AnnOutput, NeighborPair};
use crate::trace::{Phase, PruneReason, Side, TraceEvent, Tracer};
use ann_geom::PruneMetric;

/// Configuration for [`mnn`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MnnConfig {
    /// Neighbors per query object.
    pub k: usize,
    /// Self-join mode: skip same-oid pairs.
    pub exclude_self: bool,
}

impl Default for MnnConfig {
    fn default() -> Self {
        MnnConfig {
            k: 1,
            exclude_self: false,
        }
    }
}

/// Evaluates AkNN by running an independent best-first kNN search on `is`
/// for every object indexed by `ir`.
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mnn<const D: usize, M, IR, IS>(ir: &IR, is: &IS, cfg: &MnnConfig) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    mnn_guarded::<D, M, IR, IS>(
        ir,
        is,
        cfg,
        Tracer::disabled(),
        &mut QueryScratch::new(),
        &QueryGuard::disabled(),
    )
}

/// [`mnn`] with an attached [`Tracer`]. With `Tracer::disabled()` this is
/// exactly [`mnn`]: all instrumentation sites are guarded.
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mnn_traced<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MnnConfig,
    tracer: Tracer<'_>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    mnn_guarded::<D, M, IR, IS>(ir, is, cfg, tracer, &mut QueryScratch::new(), &QueryGuard::disabled())
}

/// [`mnn_traced`] with a caller-owned [`QueryScratch`] — every per-query
/// best-first heap and batch distance buffer is recycled through the
/// scratch, so the steady state of the R-side walk allocates nothing.
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mnn_traced_scratch<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MnnConfig,
    tracer: Tracer<'_>,
    scratch: &mut QueryScratch<D>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    mnn_guarded::<D, M, IR, IS>(ir, is, cfg, tracer, scratch, &QueryGuard::disabled())
}

/// [`mnn_traced_scratch`] under a [`QueryGuard`], consulted before every
/// node read on either side. Aborts close the open spans, record a
/// [`TraceEvent::QueryAborted`], and report the stats accumulated so far.
pub fn mnn_guarded<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MnnConfig,
    tracer: Tracer<'_>,
    scratch: &mut QueryScratch<D>,
    guard: &QueryGuard<'_>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    if cfg.k == 0 {
        guard.tick()?;
        return Ok(AnnOutput::default());
    }
    let mut out = AnnOutput::default();
    let io_r0 = ir.pool().stats();
    let shared_pool = std::ptr::eq(
        ir.pool() as *const _ as *const u8,
        is.pool() as *const _ as *const u8,
    );
    let io_s0 = is.pool().stats();
    let io_now = || {
        let mut io = ir.pool().stats();
        if !shared_pool {
            io = io.merge(&is.pool().stats());
        }
        io
    };
    let span_q = tracer.span_enter(Phase::Query, io_now);
    let abort_phase = std::cell::Cell::new(Phase::Query.name());

    let walk = (|out: &mut AnnOutput| -> QueryResult<()> {
        guard.tick()?;
        if ir.num_points() == 0 || is.num_points() == 0 {
            return Ok(());
        }
        tracer.event(|| TraceEvent::Root {
            side: Side::R,
            page: ir.root_page(),
        });
        tracer.event(|| TraceEvent::Root {
            side: Side::S,
            page: is.root_page(),
        });
        let span_j = tracer.span_enter(Phase::Join, io_now);
        abort_phase.set(Phase::Join.name());
        let mut cutoff_total = 0u64;
        // Depth-first walk of I_R: queries in index (spatial) order.
        let mut stack = scratch.take_pages();
        let join = (|| -> QueryResult<()> {
            stack.push(ir.root_page());
            while let Some(page) = stack.pop() {
                guard.tick()?;
                let node = ir.read_node_cached(page)?;
                out.stats.r_nodes_expanded += 1;
                tracer.node_expanded(Side::R, page, &node.entries);
                for e in &node.entries {
                    match e {
                        Entry::Node(n) => stack.push(n.page),
                        Entry::Object(o) => {
                            knn_search::<D, M, IS>(
                                is,
                                o,
                                cfg,
                                out,
                                tracer,
                                &mut cutoff_total,
                                scratch,
                                guard,
                            )?;
                        }
                    }
                }
            }
            Ok(())
        })();
        stack.clear();
        scratch.put_pages(stack);
        if tracer.enabled() {
            for (reason, count) in [
                (PruneReason::OnProbe, out.stats.pruned_on_probe),
                (PruneReason::HeapCutoff, cutoff_total),
            ] {
                if count > 0 {
                    tracer.event(|| TraceEvent::Pruned {
                        metric: M::NAME,
                        reason,
                        count,
                    });
                }
            }
        }
        tracer.span_exit(Phase::Join, span_j, io_now);
        join
    })(&mut out);
    tracer.span_exit(Phase::Query, span_q, io_now);

    let mut io = ir.pool().stats().since(&io_r0);
    if !shared_pool {
        io = io.merge(&is.pool().stats().since(&io_s0));
    }
    out.stats.io = io;
    match walk {
        Ok(()) => Ok(out),
        Err(e) => {
            tracer.event(|| TraceEvent::QueryAborted {
                reason: e.reason(),
                phase: abort_phase.get(),
            });
            Err(attach_partial_stats(e, &out.stats))
        }
    }
}

/// [`mnn_guarded`] with the `I_R` walk fanned out over the shared morsel
/// engine ([`crate::par::run_workers`]).
///
/// A morsel is one `I_R` subtree, `(page, object count)`. Subtrees at or
/// under [`crate::morsel::INLINE_SUBTREE_OBJECTS`] objects are walked
/// inline exactly like the serial loop; larger ones expand one node and
/// publish each child subtree as a stealable morsel, running the node's
/// object entries' kNN searches in place. Every per-object search is
/// self-contained (own heap, own bound), so results are independent of
/// scheduling and the engine's canonical merge makes the output
/// byte-identical to (sorted) serial at any thread count.
pub fn mnn_parallel_guarded<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MnnConfig,
    threads: usize,
    tracer: Tracer<'_>,
    guard: &QueryGuard<'_>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    if cfg.k == 0 {
        guard.tick()?;
        return Ok(AnnOutput::default());
    }
    let threads = crate::morsel::resolve_threads(threads);
    if threads <= 1 {
        let mut out =
            mnn_guarded::<D, M, IR, IS>(ir, is, cfg, tracer, &mut QueryScratch::new(), guard)?;
        out.sort();
        return Ok(out);
    }
    let mut out = AnnOutput::default();
    let io_r0 = ir.pool().stats();
    let shared_pool = std::ptr::eq(
        ir.pool() as *const _ as *const u8,
        is.pool() as *const _ as *const u8,
    );
    let io_s0 = is.pool().stats();
    let io_now = || {
        let mut io = ir.pool().stats();
        if !shared_pool {
            io = io.merge(&is.pool().stats());
        }
        io
    };
    let span_q = tracer.span_enter(Phase::Query, io_now);
    let abort_phase = std::cell::Cell::new(Phase::Query.name());

    let walk = (|out: &mut AnnOutput| -> QueryResult<()> {
        guard.tick()?;
        if ir.num_points() == 0 || is.num_points() == 0 {
            return Ok(());
        }
        tracer.event(|| TraceEvent::Root {
            side: Side::R,
            page: ir.root_page(),
        });
        tracer.event(|| TraceEvent::Root {
            side: Side::S,
            page: is.root_page(),
        });
        let span_j = tracer.span_enter(Phase::Join, io_now);
        abort_phase.set(Phase::Join.name());
        let seeds = vec![(ir.root_page(), ir.num_points())];
        let (pout, err) = crate::par::run_workers(threads, seeds, tracer, |h| {
            let mut scratch = QueryScratch::new();
            let mut wout = AnnOutput::default();
            let mut cutoff_total = 0u64;
            let wt = h.tracer();
            let join = (|| -> QueryResult<()> {
                while let Some((page, count)) = h.pop() {
                    let step = (|| -> QueryResult<()> {
                        if count <= crate::morsel::INLINE_SUBTREE_OBJECTS {
                            return mnn_subtree::<D, M, IR, IS>(
                                ir,
                                is,
                                page,
                                cfg,
                                &mut wout,
                                wt,
                                &mut cutoff_total,
                                &mut scratch,
                                guard,
                            );
                        }
                        guard.tick()?;
                        let node = ir.read_node_cached(page)?;
                        wout.stats.r_nodes_expanded += 1;
                        wt.node_expanded(Side::R, page, &node.entries);
                        for e in &node.entries {
                            match e {
                                Entry::Node(n) => h.push((n.page, n.count)),
                                Entry::Object(o) => {
                                    knn_search::<D, M, IS>(
                                        is,
                                        o,
                                        cfg,
                                        &mut wout,
                                        wt,
                                        &mut cutoff_total,
                                        &mut scratch,
                                        guard,
                                    )?;
                                }
                            }
                        }
                        Ok(())
                    })();
                    h.complete();
                    step?;
                }
                Ok(())
            })();
            if wt.enabled() {
                for (reason, count) in [
                    (PruneReason::OnProbe, wout.stats.pruned_on_probe),
                    (PruneReason::HeapCutoff, cutoff_total),
                ] {
                    if count > 0 {
                        wt.event(|| TraceEvent::Pruned {
                            metric: M::NAME,
                            reason,
                            count,
                        });
                    }
                }
            }
            (wout, join)
        });
        *out = pout;
        tracer.span_exit(Phase::Join, span_j, io_now);
        match err {
            None => Ok(()),
            Some(e) => Err(e),
        }
    })(&mut out);
    tracer.span_exit(Phase::Query, span_q, io_now);

    let mut io = ir.pool().stats().since(&io_r0);
    if !shared_pool {
        io = io.merge(&is.pool().stats().since(&io_s0));
    }
    out.stats.io = io;
    match walk {
        Ok(()) => Ok(out),
        Err(e) => {
            tracer.event(|| TraceEvent::QueryAborted {
                reason: e.reason(),
                phase: abort_phase.get(),
            });
            Err(attach_partial_stats(e, &out.stats))
        }
    }
}

/// The serial depth-first walk of one `I_R` subtree — the inline tail of
/// a small MNN morsel, byte-identical per object to [`mnn_guarded`]'s
/// outer loop restricted to that subtree.
#[allow(clippy::too_many_arguments)]
fn mnn_subtree<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    root: ann_store::PageId,
    cfg: &MnnConfig,
    out: &mut AnnOutput,
    tracer: Tracer<'_>,
    cutoff_total: &mut u64,
    scratch: &mut QueryScratch<D>,
    guard: &QueryGuard<'_>,
) -> QueryResult<()>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    let mut stack = scratch.take_pages();
    let join = (|| -> QueryResult<()> {
        stack.push(root);
        while let Some(page) = stack.pop() {
            guard.tick()?;
            let node = ir.read_node_cached(page)?;
            out.stats.r_nodes_expanded += 1;
            tracer.node_expanded(Side::R, page, &node.entries);
            for e in &node.entries {
                match e {
                    Entry::Node(n) => stack.push(n.page),
                    Entry::Object(o) => {
                        knn_search::<D, M, IS>(
                            is,
                            o,
                            cfg,
                            out,
                            tracer,
                            cutoff_total,
                            scratch,
                            guard,
                        )?;
                    }
                }
            }
        }
        Ok(())
    })();
    stack.clear();
    scratch.put_pages(stack);
    join
}

/// One best-first (Hjaltason-Samet) kNN search from the `I_R` object `r`
/// over `is`, with the pruning-metric upper bound tightening the search
/// exactly as the LPQ bound does in MBA.
#[allow(clippy::too_many_arguments)]
fn knn_search<const D: usize, M, IS>(
    is: &IS,
    r: &ObjectEntry<D>,
    cfg: &MnnConfig,
    out: &mut AnnOutput,
    tracer: Tracer<'_>,
    cutoff_total: &mut u64,
    scratch: &mut QueryScratch<D>,
    guard: &QueryGuard<'_>,
) -> QueryResult<()>
where
    M: PruneMetric,
    IS: SpatialIndex<D>,
{
    let k_eff = cfg.k + usize::from(cfg.exclude_self);
    let owner = Entry::Object(*r);
    let mut front = BestFirst::seeded::<M, IS>(is, &r.point, k_eff, scratch.take_best_first());
    let mut scan = NodeScan::checkout(scratch);
    // The root's probe, tallied like every other.
    out.stats.distance_computations += 1;
    out.stats.enqueued += 1;

    let mut found = 0;
    let walk = (|| -> QueryResult<()> {
        while let Some(item) = front.heap.pop() {
            if front.bound.prunes(item.mind_sq) {
                // The min-heap yields ascending MIND: everything else is at
                // least this far, and the bound is backed by entries we have
                // already processed or emitted.
                if tracer.enabled() {
                    *cutoff_total += front.heap.len() as u64 + 1;
                }
                break;
            }
            front.bound.remove(item.maxd_sq);
            match item.entry {
                Entry::Object(s) => {
                    if cfg.exclude_self && s.oid == r.oid {
                        continue;
                    }
                    out.results.push(NeighborPair {
                        r_oid: r.oid,
                        s_oid: s.oid,
                        dist: item.mind_sq.sqrt(),
                    });
                    front.bound.satisfy_one();
                    found += 1;
                    if found == cfg.k {
                        break;
                    }
                }
                Entry::Node(n) => {
                    guard.tick()?;
                    let node = is.read_node_cached(n.page)?;
                    out.stats.s_nodes_expanded += 1;
                    tracer.node_expanded(Side::S, n.page, &node.entries);
                    scan.scan::<D, M, _, _>(is, &owner, &node, &mut front, &mut out.stats);
                }
            }
        }
        Ok(())
    })();
    scratch.put_best_first(front.heap);
    scan.release(scratch);
    walk
}
