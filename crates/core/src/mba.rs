//! The **MBA** algorithm (paper §3.3.2, Algorithms 2-4) and its traversal /
//! expansion variants (§3.3.2's four-way design space).
//!
//! [`mba`] evaluates ANN (or AkNN for `k > 1`) between two indexed point
//! sets by descending both indices simultaneously. Each reached entry of
//! the query index `I_R` owns a [`Lpq`] of candidate `I_S` entries; the
//! `ExpandAndPrune` equivalent in this module applies the Three-Stage
//! pruning of §3.3.3:
//!
//! * **Expand stage** — an internal owner spawns one child LPQ per child
//!   entry (inheriting the parent's bound), then drains its own queue,
//!   probing each drained entry (or, under bi-directional expansion, that
//!   entry's children) against every child LPQ;
//! * **Filter stage** — inside [`Lpq::try_enqueue`]: queued entries whose
//!   `MIND` exceeds a newly tightened bound are evicted;
//! * **Gather stage** — an object owner drains its queue in `MIND` order;
//!   the first `k` objects popped are its `k` nearest neighbors.
//!
//! The function is generic over the index type — run it over MBRQT indices
//! and it is the paper's MBA; over R*-trees it is **RBA** — and over the
//! pruning metric ([`ann_geom::NxnDist`] vs [`ann_geom::MaxMaxDist`]),
//! which is the comparison of Figure 3(a).

use crate::index::SpatialIndex;
use crate::lpq::{distances_within, Lpq, QueuedEntry};
use crate::node::{DecodedNode, Entry, NodeEntry};
use crate::resilience::{attach_partial_stats, QueryError, QueryGuard, QueryResult};
use crate::scan::NodeScan;
use crate::scratch::QueryScratch;
use crate::stats::{AnnOutput, NeighborPair};
use crate::trace::{Phase, PruneReason, Side, TraceEvent, Tracer};
use ann_geom::PruneMetric;
use std::collections::VecDeque;

/// Index traversal order for the query-side recursion (§3.3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Traversal {
    /// Depth-first: recurse into each child LPQ before its siblings —
    /// the paper's choice (bounded memory, maximal locality).
    #[default]
    DepthFirst,
    /// Breadth-first: process LPQs level by level from a global FIFO.
    BreadthFirst,
}

/// Node-expansion strategy (§3.3.2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Expansion {
    /// Bi-directional: when an `I_R` node is expanded, drained `I_S` node
    /// entries are expanded too (synchronous descent) — the paper's choice.
    #[default]
    Bidirectional,
    /// Uni-directional: only `I_R` descends during the Expand stage;
    /// `I_S` entries are re-probed unexpanded and only open up during the
    /// Gather stage.
    Unidirectional,
}

/// Configuration for [`mba`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MbaConfig {
    /// Number of nearest neighbors per query object (`k = 1` is ANN).
    pub k: usize,
    /// Query-side traversal order.
    pub traversal: Traversal,
    /// Node-expansion strategy.
    pub expansion: Expansion,
    /// Self-join mode: skip the pair `(r, s)` when both sides carry the
    /// same object id. The pruning bound is computed for `k + 1` neighbors
    /// internally so that excluding the self match never starves a query.
    pub exclude_self: bool,
}

impl Default for MbaConfig {
    fn default() -> Self {
        MbaConfig {
            k: 1,
            traversal: Traversal::DepthFirst,
            expansion: Expansion::Bidirectional,
            exclude_self: false,
        }
    }
}

struct Ctx<'a, const D: usize, M: PruneMetric, IS: SpatialIndex<D>> {
    is: &'a IS,
    cfg: MbaConfig,
    /// `cfg.k`, plus one in self-join mode (the self match may have to be
    /// discarded, so bounds must guarantee one extra candidate).
    k_eff: usize,
    out: AnnOutput,
    tracer: Tracer<'a>,
    /// Of `out.stats.pruned_on_probe`, how many came from the parent-level
    /// rejection in [`Ctx::expand`]. Tallied only while tracing, to split
    /// the prune-reason breakdown without a new `AnnStats` field.
    parent_rejects: u64,
    /// Buffer arena for LPQ storage, traversal queues and kernel outputs.
    scratch: &'a mut QueryScratch<D>,
    /// Checked-out node-scan buffers (returned by [`Ctx::finish`]).
    scan: NodeScan,
    _metric: std::marker::PhantomData<M>,
}

impl<'a, const D: usize, M: PruneMetric, IS: SpatialIndex<D>> Ctx<'a, D, M, IS> {
    fn new(is: &'a IS, cfg: &MbaConfig, tracer: Tracer<'a>, scratch: &'a mut QueryScratch<D>) -> Self {
        let scan = NodeScan::checkout(scratch);
        Ctx {
            is,
            cfg: *cfg,
            k_eff: cfg.k + usize::from(cfg.exclude_self),
            out: AnnOutput::default(),
            tracer,
            parent_rejects: 0,
            scratch,
            scan,
            _metric: std::marker::PhantomData,
        }
    }

    /// Returns the checked-out buffers to the arena and yields the output.
    fn finish(self) -> AnnOutput {
        let Ctx {
            scratch, scan, out, ..
        } = self;
        scan.release(scratch);
        out
    }

    /// Probes `target` against `lpq`, computing distances and enqueueing
    /// when the probe test passes.
    fn probe(&mut self, lpq: &mut Lpq<D>, target: Entry<D>) {
        self.out.stats.distance_computations += 1;
        // Early-exit Distances: `None` iff try_enqueue would reject on the
        // probe test, so the decision (and every counter) is identical to
        // the full computation — only the arithmetic for hopeless entries
        // is skipped.
        let Some((mind_sq, maxd_sq)) =
            distances_within::<D, M>(&lpq.owner, &target, lpq.prune_threshold_sq())
        else {
            self.out.stats.pruned_on_probe += 1;
            return;
        };
        let (accepted, filtered) = lpq.try_enqueue(QueuedEntry {
            mind_sq,
            maxd_sq,
            entry: target,
        });
        if accepted {
            self.out.stats.enqueued += 1;
        } else {
            self.out.stats.pruned_on_probe += 1;
        }
        self.out.stats.pruned_in_queue += filtered;
    }

    /// Probes every entry of a decoded `I_S` node against `lpq` in one
    /// [`NodeScan::scan`] instead of one [`Ctx::probe`] per entry — same
    /// decisions, queue contents and counters (see [`crate::scan`]).
    fn probe_node(&mut self, lpq: &mut Lpq<D>, node: &DecodedNode<D>) {
        let owner = lpq.owner;
        self.scan
            .scan::<D, M, _, _>(self.is, &owner, node, lpq, &mut self.out.stats);
    }

    /// The Gather stage: `lpq.owner` is a data object; drain in `MIND`
    /// order and report the first `k` objects popped.
    fn gather(&mut self, guard: &QueryGuard<'_>, mut lpq: Lpq<D>) -> QueryResult<()> {
        let Entry::Object(owner) = lpq.owner else {
            unreachable!("gather called with a node owner")
        };
        let mut found = 0;
        while let Some(q) = lpq.dequeue() {
            match q.entry {
                Entry::Object(s) => {
                    if self.cfg.exclude_self && s.oid == owner.oid {
                        continue;
                    }
                    self.out.results.push(NeighborPair {
                        r_oid: owner.oid,
                        s_oid: s.oid,
                        dist: q.mind_sq.sqrt(),
                    });
                    lpq.satisfy_one();
                    found += 1;
                    if found == self.cfg.k {
                        break;
                    }
                }
                Entry::Node(n) => {
                    guard.tick()?;
                    let node = self.is.read_node_cached(n.page)?;
                    self.out.stats.s_nodes_expanded += 1;
                    self.tracer.node_expanded(Side::S, n.page, &node.entries);
                    self.probe_node(&mut lpq, &node);
                }
            }
        }
        self.trace_lpq_retired(&lpq);
        self.scratch.put_lpq(lpq);
        Ok(())
    }

    /// Emits the queue-lifecycle summary for a retired object LPQ.
    #[inline]
    fn trace_lpq_retired(&self, lpq: &Lpq<D>) {
        self.tracer.event(|| TraceEvent::LpqRetired {
            enqueued: lpq.enqueued_total(),
            filtered: lpq.filtered_total(),
            high_water: lpq.high_water(),
        });
    }

    /// The Expand stage: `lpq.owner` is an internal `I_R` node; spawn one
    /// child LPQ per child entry and redistribute the drained queue.
    fn expand<IR: SpatialIndex<D>>(
        &mut self,
        ir: &IR,
        guard: &QueryGuard<'_>,
        mut lpq: Lpq<D>,
        queue: &mut VecDeque<Lpq<D>>,
    ) -> QueryResult<()> {
        let Entry::Node(owner) = lpq.owner else {
            unreachable!("expand called with an object owner")
        };
        guard.tick()?;
        let node = ir.read_node_cached(owner.page)?;
        self.out.stats.r_nodes_expanded += 1;
        self.tracer.node_expanded(Side::R, owner.page, &node.entries);
        let inherited = lpq.bound_sq();
        let mut children = self.scratch.take_lpq_list();
        for c in node.entries.iter() {
            children.push(self.scratch.take_lpq(*c, self.k_eff, inherited));
        }
        self.out.stats.lpqs_created += children.len() as u64;

        while let Some(q) = lpq.dequeue() {
            // Algorithm 4 lines 13-18: a popped entry is only worth
            // processing if its MIND passes at least one child LPQ's MAXD —
            // MIND against the parent owner lower-bounds MIND against every
            // child, so this rejection is safe and saves the node read.
            if children.iter().all(|c| c.prunes(q.mind_sq)) {
                self.out.stats.pruned_on_probe += 1;
                if self.tracer.enabled() {
                    self.parent_rejects += 1;
                }
                continue;
            }
            match (self.cfg.expansion, q.entry) {
                (Expansion::Bidirectional, Entry::Node(n)) => {
                    // Bi-directional: descend the I_S side one level too.
                    guard.tick()?;
                    let s_node = self.is.read_node_cached(n.page)?;
                    self.out.stats.s_nodes_expanded += 1;
                    self.tracer.node_expanded(Side::S, n.page, &s_node.entries);
                    // The scalar path iterated entry-outer / child-inner;
                    // batching flips that so each child scans the node's SoA
                    // columns once. Children are independent queues, so each
                    // child still sees the same entries in the same order
                    // under the same own-bound evolution, and the summed
                    // counters are nesting-order-invariant: decisions and
                    // stats are unchanged.
                    for child in children.iter_mut() {
                        self.probe_node(child, &s_node);
                    }
                }
                // Objects cannot be expanded; under uni-directional
                // expansion nodes are re-probed as-is.
                (_, entry) => {
                    for child in children.iter_mut() {
                        self.probe(child, entry);
                    }
                }
            }
        }

        // Algorithm 4 line 19: enqueue all non-empty child LPQs; empty
        // ones hand their storage straight back to the arena, as does the
        // fully drained parent.
        for child in children.drain(..) {
            if !child.is_empty() {
                queue.push_back(child);
            } else {
                self.scratch.put_lpq(child);
            }
        }
        self.scratch.put_lpq_list(children);
        self.scratch.put_lpq(lpq);
        Ok(())
    }

    /// One `ExpandAndPrune` step (Algorithm 4): dispatches on the owner.
    fn expand_and_prune<IR: SpatialIndex<D>>(
        &mut self,
        ir: &IR,
        guard: &QueryGuard<'_>,
        lpq: Lpq<D>,
        queue: &mut VecDeque<Lpq<D>>,
    ) -> QueryResult<()> {
        match lpq.owner {
            Entry::Object(_) => self.gather(guard, lpq),
            Entry::Node(_) => self.expand(ir, guard, lpq, queue),
        }
    }

    /// `ANN-DFBI` (Algorithm 3): depth-first recursion over child LPQs.
    fn dfbi<IR: SpatialIndex<D>>(
        &mut self,
        ir: &IR,
        guard: &QueryGuard<'_>,
        lpq: Lpq<D>,
    ) -> QueryResult<()> {
        let mut queue = self.scratch.take_lpq_queue();
        let walk = (|| -> QueryResult<()> {
            self.expand_and_prune(ir, guard, lpq, &mut queue)?;
            while let Some(child) = queue.pop_front() {
                self.dfbi(ir, guard, child)?;
            }
            Ok(())
        })();
        // On abort the queue may still hold live LPQs; hand their storage
        // (and the queue itself) back so the scratch stays reusable.
        for child in queue.drain(..) {
            self.scratch.put_lpq(child);
        }
        self.scratch.put_lpq_queue(queue);
        walk
    }

    /// One parallel morsel: object-owned LPQs and small node-owned
    /// subtrees are finished inline with the exact serial recursion
    /// ([`Ctx::dfbi`]); a large node-owned subtree is split by one
    /// `ExpandAndPrune` step, its child LPQs published to the pool as
    /// fresh stealable morsels. Each child inherits the parent's bound at
    /// creation and never reads shared mutable state afterwards, so its
    /// results are identical no matter which worker runs it, or when.
    fn morsel_step<IR: SpatialIndex<D>>(
        &mut self,
        ir: &IR,
        guard: &QueryGuard<'_>,
        lpq: Lpq<D>,
        children: &mut VecDeque<Lpq<D>>,
        h: &crate::par::WorkerHandle<'_, Lpq<D>>,
    ) -> QueryResult<()> {
        let split = match lpq.owner {
            Entry::Object(_) => false,
            Entry::Node(n) => n.count > crate::morsel::INLINE_SUBTREE_OBJECTS,
        };
        if !split {
            return self.dfbi(ir, guard, lpq);
        }
        self.expand_and_prune(ir, guard, lpq, children)?;
        for child in children.drain(..) {
            h.push(child);
        }
        Ok(())
    }

    /// Emits this context's prune-reason breakdown. Safe to call from
    /// several worker contexts sharing one sink: the sink sums the counts.
    fn emit_prune_summary(&self) {
        if !self.tracer.enabled() {
            return;
        }
        let s = &self.out.stats;
        let on_probe = s.pruned_on_probe - self.parent_rejects;
        for (reason, count) in [
            (PruneReason::OnProbe, on_probe),
            (PruneReason::ParentReject, self.parent_rejects),
            (PruneReason::InQueue, s.pruned_in_queue),
        ] {
            if count > 0 {
                self.tracer.event(|| TraceEvent::Pruned {
                    metric: M::NAME,
                    reason,
                    count,
                });
            }
        }
    }
}

/// Evaluates the all-`k`-nearest-neighbor join: for every point indexed by
/// `ir`, find its `cfg.k` nearest neighbors among the points indexed by
/// `is` (paper Algorithm 2).
///
/// With the default configuration this is the paper's MBA/RBA algorithm
/// (depth-first, bi-directional); other [`Traversal`] × [`Expansion`]
/// combinations reproduce the §3.3.2 design-space ablation.
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mba<const D: usize, M, IR, IS>(ir: &IR, is: &IS, cfg: &MbaConfig) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    mba_guarded::<D, M, IR, IS>(
        ir,
        is,
        cfg,
        Tracer::disabled(),
        &mut QueryScratch::new(),
        &QueryGuard::disabled(),
    )
}

/// [`mba`] with an attached [`Tracer`]. With `Tracer::disabled()` this is
/// exactly [`mba`]: every instrumentation site is guarded, so decisions,
/// counters and physical page-op order are identical.
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mba_traced<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MbaConfig,
    tracer: Tracer<'_>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    mba_guarded::<D, M, IR, IS>(
        ir,
        is,
        cfg,
        tracer,
        &mut QueryScratch::new(),
        &QueryGuard::disabled(),
    )
}

/// [`mba`] with a caller-owned [`QueryScratch`]: repeated queries through
/// the same arena reach an allocation-free steady state. Results, stats
/// and page-op order are identical to [`mba`].
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mba_scratch<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MbaConfig,
    scratch: &mut QueryScratch<D>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    mba_guarded::<D, M, IR, IS>(ir, is, cfg, Tracer::disabled(), scratch, &QueryGuard::disabled())
}

/// [`mba_traced`] with a caller-owned [`QueryScratch`] — delegates to
/// [`mba_guarded`] with resilience checks disabled.
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mba_traced_scratch<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MbaConfig,
    tracer: Tracer<'_>,
    scratch: &mut QueryScratch<D>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    mba_guarded::<D, M, IR, IS>(ir, is, cfg, tracer, scratch, &QueryGuard::disabled())
}

/// [`mba_traced_scratch`] under a [`QueryGuard`] — the fully general serial
/// entrypoint the other serial variants delegate to.
///
/// The guard is consulted once before the traversal starts (so a
/// pre-cancelled request returns without touching either index) and then
/// before every node read, bounding abort latency to one node expansion.
/// On abort the open trace spans are closed, a
/// [`TraceEvent::QueryAborted`] records the reason and phase, every
/// checked-out scratch buffer returns to the arena, and — because node
/// reads pin pages only for the duration of the copy — no buffer-pool pin
/// outlives the call. [`QueryError::BudgetExhausted`] carries the counters
/// accumulated up to the abort point.
pub fn mba_guarded<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MbaConfig,
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
    let mut ctx: Ctx<D, M, IS> = Ctx::new(is, cfg, tracer, scratch);

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

    let walk = (|ctx: &mut Ctx<D, M, IS>| -> QueryResult<()> {
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
        // Algorithm 2: root LPQ owns I_R's root, seeded with I_S's root.
        let root_owner = Entry::Node(NodeEntry {
            page: ir.root_page(),
            count: ir.num_points(),
            mbr: ir.bounds(),
        });
        let mut root_lpq = ctx.scratch.take_lpq(root_owner, ctx.k_eff, f64::INFINITY);
        ctx.out.stats.lpqs_created += 1;
        let root_target = Entry::Node(NodeEntry {
            page: is.root_page(),
            count: is.num_points(),
            mbr: is.bounds(),
        });
        ctx.probe(&mut root_lpq, root_target);

        let mut queue = ctx.scratch.take_lpq_queue();
        queue.push_back(root_lpq);
        let join = (|| -> QueryResult<()> {
            match cfg.traversal {
                Traversal::DepthFirst => {
                    while let Some(lpq) = queue.pop_front() {
                        ctx.dfbi(ir, guard, lpq)?;
                    }
                }
                Traversal::BreadthFirst => {
                    while let Some(lpq) = queue.pop_front() {
                        ctx.expand_and_prune(ir, guard, lpq, &mut queue)?;
                    }
                }
            }
            Ok(())
        })();
        // On abort the queue may still hold live LPQs; recycle them so the
        // scratch arena is fully reusable by the next query.
        for lpq in queue.drain(..) {
            ctx.scratch.put_lpq(lpq);
        }
        ctx.scratch.put_lpq_queue(queue);
        tracer.span_exit(Phase::Join, span_j, io_now);
        join
    })(&mut ctx);

    ctx.emit_prune_summary();
    tracer.span_exit(Phase::Query, span_q, io_now);

    let mut io = ir.pool().stats().since(&io_r0);
    if !shared_pool {
        io = io.merge(&is.pool().stats().since(&io_s0));
    }
    let mut out = ctx.finish();
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

/// Parallel MBA: identical results to [`mba`], with the depth-first
/// recursion over the root's child LPQs fanned out across `threads` OS
/// threads (0 = one per available core).
///
/// The expansion of the root is inherently serial (it produces the
/// first-level LPQs); everything below is independent per subtree because
/// the indices are read-only and the buffer pool is internally
/// synchronized. With a shared pool the threads also share cache capacity,
/// exactly as concurrent scans would in a database.
///
/// This is an extension beyond the paper (which evaluates single-threaded
/// on a 2007 laptop); it exists to show the algorithm parallelizes
/// naturally, and by how much — see the `parallel_speedup` test and the
/// bench harness.
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mba_parallel<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MbaConfig,
    threads: usize,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    mba_parallel_guarded::<D, M, IR, IS>(
        ir,
        is,
        cfg,
        threads,
        Tracer::disabled(),
        &QueryGuard::disabled(),
    )
}

/// [`mba_parallel`] with an attached [`Tracer`]. The sink is shared by all
/// workers (hence the `Send + Sync` bound on [`crate::trace::TraceSink`]);
/// per-worker prune summaries are emitted separately and summed by the
/// sink. With `Tracer::disabled()` this is exactly [`mba_parallel`].
#[deprecated(
    since = "0.1.0",
    note = "thin delegate kept for compatibility; use ann_core::query::run / run_scratch (or the *_guarded canonical path)"
)]
pub fn mba_parallel_traced<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MbaConfig,
    threads: usize,
    tracer: Tracer<'_>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    mba_parallel_guarded::<D, M, IR, IS>(ir, is, cfg, threads, tracer, &QueryGuard::disabled())
}

/// [`mba_parallel_traced`] under a [`QueryGuard`] — a thin delegate onto
/// the shared morsel engine ([`crate::par::run_workers`]).
///
/// The engine is seeded with the single root LPQ; workers split
/// node-owned subtrees on demand, one `ExpandAndPrune` step at a time,
/// publishing child LPQs as stealable morsels until a subtree falls at or
/// under [`crate::morsel::INLINE_SUBTREE_OBJECTS`] objects and is
/// finished inline with the exact serial recursion. Skewed data
/// therefore rebalances continuously instead of depending on the top
/// tree levels being uniform (the old static `threads * 16` seeding
/// split, which this replaces).
///
/// The guard's counters are interior atomics, so the one guard is shared
/// by every worker: a deadline, cancellation or budget trip observed by
/// any worker aborts the pool and is observed by all of them within one
/// morsel step. The first error (in worker index order) is the one
/// reported; its partial stats cover the seeding probe plus every worker
/// that folded its tallies before unwinding.
pub fn mba_parallel_guarded<const D: usize, M, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &MbaConfig,
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
            mba_guarded::<D, M, IR, IS>(ir, is, cfg, tracer, &mut QueryScratch::new(), guard)?;
        // The parallel contract promises canonical output order; the
        // serial traversal emits in discovery order.
        out.sort();
        return Ok(out);
    }

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
    let mut failure: Option<QueryError> = None;

    let mut out = AnnOutput::default();
    if ir.num_points() > 0 && is.num_points() > 0 {
        tracer.event(|| TraceEvent::Root {
            side: Side::R,
            page: ir.root_page(),
        });
        tracer.event(|| TraceEvent::Root {
            side: Side::S,
            page: is.root_page(),
        });
        let span_seed = tracer.span_enter(Phase::Seed, io_now);
        abort_phase.set(Phase::Seed.name());
        // Serial seeding is now minimal: one root LPQ, probed with the
        // I_S root. All further splitting happens dynamically inside the
        // workers, so skew rebalances continuously via stealing.
        let mut seed_scratch = QueryScratch::new();
        let mut ctx: Ctx<D, M, IS> = Ctx::new(is, cfg, tracer, &mut seed_scratch);
        let seeded = (|ctx: &mut Ctx<D, M, IS>| -> QueryResult<Lpq<D>> {
            guard.tick()?;
            let root_owner = Entry::Node(NodeEntry {
                page: ir.root_page(),
                count: ir.num_points(),
                mbr: ir.bounds(),
            });
            let mut root_lpq = ctx.scratch.take_lpq(root_owner, ctx.k_eff, f64::INFINITY);
            ctx.out.stats.lpqs_created += 1;
            ctx.probe(
                &mut root_lpq,
                Entry::Node(NodeEntry {
                    page: is.root_page(),
                    count: is.num_points(),
                    mbr: is.bounds(),
                }),
            );
            Ok(root_lpq)
        })(&mut ctx);
        ctx.emit_prune_summary();
        tracer.span_exit(Phase::Seed, span_seed, io_now);
        let seed_out = ctx.finish();
        let seed_stats = seed_out.stats;
        out.results = seed_out.results;

        match seeded {
            Err(e) => {
                out.stats = seed_stats;
                failure = Some(e);
            }
            Ok(root_lpq) => {
                let span_j = tracer.span_enter(Phase::Join, io_now);
                abort_phase.set(Phase::Join.name());
                let (pout, err) =
                    crate::par::run_workers(threads, vec![root_lpq], tracer, |h| {
                        let mut scratch = QueryScratch::new();
                        let mut ctx: Ctx<D, M, IS> = Ctx::new(is, cfg, h.tracer(), &mut scratch);
                        let mut children = VecDeque::new();
                        let walk = (|| -> QueryResult<()> {
                            while let Some(lpq) = h.pop() {
                                let step = ctx.morsel_step(ir, guard, lpq, &mut children, &h);
                                h.complete();
                                step?;
                            }
                            Ok(())
                        })();
                        // On abort unpublished children recycle into the
                        // worker's arena before the tallies fold.
                        for lpq in children.drain(..) {
                            ctx.scratch.put_lpq(lpq);
                        }
                        ctx.emit_prune_summary();
                        (ctx.finish(), walk)
                    });
                out.results.extend(pout.results);
                out.stats = pout.stats;
                out.stats.merge(&seed_stats);
                failure = err;
                tracer.span_exit(Phase::Join, span_j, io_now);
            }
        }
    }
    tracer.span_exit(Phase::Query, span_q, io_now);

    let mut io = ir.pool().stats().since(&io_r0);
    if !shared_pool {
        io = io.merge(&is.pool().stats().since(&io_s0));
    }
    out.stats.io = io;
    match failure {
        None => Ok(out),
        Some(e) => {
            tracer.event(|| TraceEvent::QueryAborted {
                reason: e.reason(),
                phase: abort_phase.get(),
            });
            Err(attach_partial_stats(e, &out.stats))
        }
    }
}
