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
//!
//! The per-object search, `knn_search`, is the crate's one best-first
//! search. It probes nodes through the shared node scan (`scan.rs`).

use crate::exec::{self, ExecCtx, Join, Spill};
use crate::index::SpatialIndex;
use crate::morsel::INLINE_SUBTREE_OBJECTS;
use crate::node::{Entry, ObjectEntry};
use crate::resilience::QueryResult;
use crate::scan::{BestFirst, NodeScan};
use crate::scratch::QueryScratch;
use crate::stats::{AnnOutput, NeighborPair};
use crate::trace::{PruneReason, Side, TraceEvent};
use ann_geom::PruneMetric;
use ann_store::PageId;
use std::marker::PhantomData;

/// One MNN join: the two indices and the request's knobs. Shared
/// read-only by every worker.
struct Mnn<'a, const D: usize, M, IR, IS> {
    ir: &'a IR,
    is: &'a IS,
    k: usize,
    exclude_self: bool,
    _metric: PhantomData<fn() -> M>,
}

/// A worker's only MNN state beside its scratch and output: heap entries
/// cut off unpopped, tallied while tracing.
type Worker<'w, const D: usize> = exec::Worker<'w, D, u64>;

impl<const D: usize, M, IR, IS> Join<D> for Mnn<'_, D, M, IR, IS>
where
    M: PruneMetric,
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    /// One `I_R` subtree, `(page, object count)`. Every per-object search
    /// is self-contained (own heap, own bound), so results are
    /// independent of scheduling.
    type Morsel = (PageId, u64);
    type Local = u64;

    fn local(&self, _scratch: &mut QueryScratch<D>) -> u64 {
        0
    }

    fn seeds(&self, _lead: &mut Worker<'_, D>) -> Vec<(PageId, u64)> {
        vec![(self.ir.root_page(), self.ir.num_points())]
    }

    /// With siblings to feed, a subtree above [`INLINE_SUBTREE_OBJECTS`]
    /// expands one node, publishing each child subtree as a morsel and
    /// running the node's object entries' searches in place; anything
    /// smaller — and every subtree of a lone worker — is walked inline.
    fn step(
        &self,
        w: &mut Worker<'_, D>,
        (page, count): (PageId, u64),
        spill: &mut Spill<'_, (PageId, u64)>,
    ) -> QueryResult<()> {
        if !spill.shared() || count <= INLINE_SUBTREE_OBJECTS {
            return self.subtree(w, page);
        }
        w.guard.tick()?;
        let node = self.ir.read_node_cached(page)?;
        w.out.stats.r_nodes_expanded += 1;
        w.tracer.node_expanded(Side::R, page, &node.entries);
        for e in &node.entries {
            match e {
                Entry::Node(n) => spill.push((n.page, n.count)),
                Entry::Object(o) => {
                    knn_search::<D, M, IS>(self.is, w, o, self.k, self.exclude_self)?
                }
            }
        }
        Ok(())
    }

    fn retire(&self, w: Worker<'_, D>) -> AnnOutput {
        exec::emit_pruned(
            w.tracer,
            M::NAME,
            &[
                (PruneReason::OnProbe, w.out.stats.pruned_on_probe),
                (PruneReason::HeapCutoff, w.local),
            ],
        );
        w.out
    }
}

impl<const D: usize, M, IR, IS> Mnn<'_, D, M, IR, IS>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    /// The depth-first walk of one `I_R` subtree: queries in index
    /// (spatial) order.
    fn subtree(&self, w: &mut Worker<'_, D>, root: PageId) -> QueryResult<()> {
        let mut stack = w.scratch.take_pages();
        let join = (|| -> QueryResult<()> {
            stack.push(root);
            while let Some(page) = stack.pop() {
                w.guard.tick()?;
                let node = self.ir.read_node_cached(page)?;
                w.out.stats.r_nodes_expanded += 1;
                w.tracer.node_expanded(Side::R, page, &node.entries);
                for e in &node.entries {
                    match e {
                        Entry::Node(n) => stack.push(n.page),
                        Entry::Object(o) => {
                            knn_search::<D, M, IS>(self.is, w, o, self.k, self.exclude_self)?
                        }
                    }
                }
            }
            Ok(())
        })();
        stack.clear();
        w.scratch.put_pages(stack);
        join
    }
}

/// Evaluates AkNN by running an independent best-first kNN search on `is`
/// for every object indexed by `ir`, skipping same-oid pairs under
/// `exclude_self`.
pub(crate) fn run<const D: usize, M, IR, IS>(
    ctx: ExecCtx<'_, D>,
    ir: &IR,
    is: &IS,
    k: usize,
    exclude_self: bool,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    let degenerate = k == 0 || ir.num_points() == 0 || is.num_points() == 0;
    exec::drive(ctx, degenerate, |frame| {
        for (side, page) in [(Side::R, ir.root_page()), (Side::S, is.root_page())] {
            frame.tracer.event(|| TraceEvent::Root { side, page });
        }
        frame.join(&Mnn::<D, M, IR, IS> {
            ir,
            is,
            k,
            exclude_self,
            _metric: PhantomData,
        })
    })
}

/// One best-first (Hjaltason–Samet) search of `is` for the `k` nearest
/// neighbors of `r`, with the pruning-metric upper bound tightening it
/// exactly as the LPQ bound does in MBA. Pushes them, nearest first, to
/// `w.out.results`, skipping `r`'s own oid under `exclude_self`. MNN runs
/// one per `I_R` object.
fn knn_search<const D: usize, M, I>(
    is: &I,
    w: &mut Worker<'_, D>,
    r: &ObjectEntry<D>,
    k: usize,
    exclude_self: bool,
) -> QueryResult<()>
where
    M: PruneMetric,
    I: SpatialIndex<D>,
{
    let exec::Worker {
        tracer,
        guard,
        scratch,
        out,
        local: cutoff_total,
    } = w;
    let k_eff = k + usize::from(exclude_self);
    let owner = Entry::Object(*r);
    let mut front = BestFirst::seeded::<M, I>(is, &r.point, k_eff, scratch);
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
                    if exclude_self && s.oid == r.oid {
                        continue;
                    }
                    out.results.push(NeighborPair {
                        r_oid: r.oid,
                        s_oid: s.oid,
                        dist: item.mind_sq.sqrt(),
                    });
                    front.bound.satisfy_one();
                    found += 1;
                    if found == k {
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
    front.release(scratch);
    scan.release(scratch);
    walk
}
