//! The **MBA** algorithm (paper §3.3.2, Algorithms 2-4) and its traversal /
//! expansion variants (§3.3.2's four-way design space).
//!
//! [`run`] evaluates ANN (or AkNN for `k > 1`) between two indexed point
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

use crate::exec::{self, ExecCtx, Join, Spill};
use crate::index::SpatialIndex;
use crate::lpq::{distances_within, Lpq, QueuedEntry};
use crate::morsel::INLINE_SUBTREE_OBJECTS;
use crate::node::{DecodedNode, Entry, NodeEntry};
use crate::resilience::QueryResult;
use crate::scan::NodeScan;
use crate::scratch::QueryScratch;
use crate::stats::{AnnOutput, AnnStats, NeighborPair};
use crate::trace::{PruneReason, Side, TraceEvent};
use ann_geom::PruneMetric;
use std::marker::PhantomData;

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

/// One MBA join: the two indices and the request's knobs. Shared
/// read-only by every worker.
struct Mba<'a, const D: usize, M, IR, IS> {
    ir: &'a IR,
    is: &'a IS,
    k: usize,
    /// `k`, plus one in self-join mode (the self match may have to be
    /// discarded, so bounds must guarantee one extra candidate).
    k_eff: usize,
    exclude_self: bool,
    traversal: Traversal,
    expansion: Expansion,
    _metric: PhantomData<fn() -> M>,
}

/// A worker's MBA state beside its scratch and output.
struct Local {
    /// Checked-out node-scan buffers.
    scan: NodeScan,
    /// Of `stats.pruned_on_probe`, how many came from the parent-level
    /// rejection in [`Mba::expand`]. Tallied only while tracing, to split
    /// the prune-reason breakdown without a new `AnnStats` field.
    parent_rejects: u64,
}

type Worker<'w, const D: usize> = exec::Worker<'w, D, Local>;

/// Probes `target` against `lpq`, computing distances and enqueueing
/// when the probe test passes.
fn probe<const D: usize, M: PruneMetric>(stats: &mut AnnStats, lpq: &mut Lpq<D>, target: Entry<D>) {
    stats.distance_computations += 1;
    // Early-exit Distances: `None` iff try_enqueue would reject on the
    // probe test, so the decision (and every counter) is identical to
    // the full computation — only the arithmetic for hopeless entries
    // is skipped.
    let Some((mind_sq, maxd_sq)) =
        distances_within::<D, M>(&lpq.owner, &target, lpq.prune_threshold_sq())
    else {
        stats.pruned_on_probe += 1;
        return;
    };
    let (accepted, filtered) = lpq.try_enqueue(QueuedEntry {
        mind_sq,
        maxd_sq,
        entry: target,
    });
    if accepted {
        stats.enqueued += 1;
    } else {
        stats.pruned_on_probe += 1;
    }
    stats.pruned_in_queue += filtered;
}

/// The root entry of `index`: the whole point set behind its root page.
fn root_entry<const D: usize, I: SpatialIndex<D>>(index: &I) -> Entry<D> {
    Entry::Node(NodeEntry {
        page: index.root_page(),
        count: index.num_points(),
        mbr: index.bounds(),
    })
}

impl<const D: usize, M, IR, IS> Mba<'_, D, M, IR, IS>
where
    M: PruneMetric,
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    /// Probes every entry of a decoded `I_S` node against `lpq` in one
    /// [`NodeScan::scan`] instead of one [`probe`] per entry — same
    /// decisions, queue contents and counters (see [`crate::scan`]).
    fn probe_node(&self, w: &mut Worker<'_, D>, lpq: &mut Lpq<D>, node: &DecodedNode<D>) {
        let owner = lpq.owner;
        w.local
            .scan
            .scan::<D, M, _, _>(self.is, &owner, node, lpq, &mut w.out.stats);
    }

    /// The Gather stage: `lpq.owner` is a data object; drain in `MIND`
    /// order and report the first `k` objects popped.
    fn gather(&self, w: &mut Worker<'_, D>, mut lpq: Lpq<D>) -> QueryResult<()> {
        let Entry::Object(owner) = lpq.owner else {
            unreachable!("gather called with a node owner")
        };
        let mut found = 0;
        while let Some(q) = lpq.dequeue() {
            match q.entry {
                Entry::Object(s) => {
                    if self.exclude_self && s.oid == owner.oid {
                        continue;
                    }
                    w.out.results.push(NeighborPair {
                        r_oid: owner.oid,
                        s_oid: s.oid,
                        dist: q.mind_sq.sqrt(),
                    });
                    lpq.satisfy_one();
                    found += 1;
                    if found == self.k {
                        break;
                    }
                }
                Entry::Node(n) => {
                    w.guard.tick()?;
                    let node = self.is.read_node_cached(n.page)?;
                    w.out.stats.s_nodes_expanded += 1;
                    w.tracer.node_expanded(Side::S, n.page, &node.entries);
                    self.probe_node(w, &mut lpq, &node);
                }
            }
        }
        // The queue-lifecycle summary for a retired object LPQ.
        w.tracer.event(|| TraceEvent::LpqRetired {
            enqueued: lpq.enqueued_total(),
            filtered: lpq.filtered_total(),
            high_water: lpq.high_water(),
        });
        w.scratch.put_lpq(lpq);
        Ok(())
    }

    /// The Expand stage: `lpq.owner` is an internal `I_R` node; spawn one
    /// child LPQ per child entry, redistribute the drained queue and hand
    /// the non-empty children to `emit`.
    fn expand(
        &self,
        w: &mut Worker<'_, D>,
        mut lpq: Lpq<D>,
        emit: &mut impl FnMut(Lpq<D>),
    ) -> QueryResult<()> {
        let Entry::Node(owner) = lpq.owner else {
            unreachable!("expand called with an object owner")
        };
        w.guard.tick()?;
        let node = self.ir.read_node_cached(owner.page)?;
        w.out.stats.r_nodes_expanded += 1;
        w.tracer.node_expanded(Side::R, owner.page, &node.entries);
        let inherited = lpq.bound_sq();
        let mut children = w.scratch.take_lpq_list();
        for c in node.entries.iter() {
            children.push(w.scratch.take_lpq(*c, self.k_eff, inherited));
        }
        w.out.stats.lpqs_created += children.len() as u64;

        while let Some(q) = lpq.dequeue() {
            // Algorithm 4 lines 13-18: a popped entry is only worth
            // processing if its MIND passes at least one child LPQ's MAXD —
            // MIND against the parent owner lower-bounds MIND against every
            // child, so this rejection is safe and saves the node read.
            if children.iter().all(|c| c.prunes(q.mind_sq)) {
                w.out.stats.pruned_on_probe += 1;
                if w.tracer.enabled() {
                    w.local.parent_rejects += 1;
                }
                continue;
            }
            match (self.expansion, q.entry) {
                (Expansion::Bidirectional, Entry::Node(n)) => {
                    // Bi-directional: descend the I_S side one level too.
                    w.guard.tick()?;
                    let s_node = self.is.read_node_cached(n.page)?;
                    w.out.stats.s_nodes_expanded += 1;
                    w.tracer.node_expanded(Side::S, n.page, &s_node.entries);
                    // The scalar path iterated entry-outer / child-inner;
                    // batching flips that so each child scans the node's SoA
                    // columns once. Children are independent queues, so each
                    // child still sees the same entries in the same order
                    // under the same own-bound evolution, and the summed
                    // counters are nesting-order-invariant: decisions and
                    // stats are unchanged.
                    for child in children.iter_mut() {
                        self.probe_node(w, child, &s_node);
                    }
                }
                // Objects cannot be expanded; under uni-directional
                // expansion nodes are re-probed as-is.
                (_, entry) => {
                    for child in children.iter_mut() {
                        probe::<D, M>(&mut w.out.stats, child, entry);
                    }
                }
            }
        }

        // Algorithm 4 line 19: enqueue all non-empty child LPQs; empty
        // ones hand their storage straight back to the arena, as does the
        // fully drained parent.
        for child in children.drain(..) {
            if !child.is_empty() {
                emit(child);
            } else {
                w.scratch.put_lpq(child);
            }
        }
        w.scratch.put_lpq_list(children);
        w.scratch.put_lpq(lpq);
        Ok(())
    }

    /// One `ExpandAndPrune` step (Algorithm 4): dispatches on the owner.
    fn expand_and_prune(
        &self,
        w: &mut Worker<'_, D>,
        lpq: Lpq<D>,
        emit: &mut impl FnMut(Lpq<D>),
    ) -> QueryResult<()> {
        match lpq.owner {
            Entry::Object(_) => self.gather(w, lpq),
            Entry::Node(_) => self.expand(w, lpq, emit),
        }
    }

    /// `ANN-DFBI` (Algorithm 3): depth-first recursion over child LPQs.
    fn dfbi(&self, w: &mut Worker<'_, D>, lpq: Lpq<D>) -> QueryResult<()> {
        let mut queue = w.scratch.take_lpq_queue();
        let walk = (|| -> QueryResult<()> {
            self.expand_and_prune(w, lpq, &mut |child| queue.push_back(child))?;
            while let Some(child) = queue.pop_front() {
                self.dfbi(w, child)?;
            }
            Ok(())
        })();
        // On abort the queue may still hold live LPQs; hand their storage
        // (and the queue itself) back so the scratch stays reusable.
        for child in queue.drain(..) {
            w.scratch.put_lpq(child);
        }
        w.scratch.put_lpq_queue(queue);
        walk
    }
}

impl<const D: usize, M, IR, IS> Join<D> for Mba<'_, D, M, IR, IS>
where
    M: PruneMetric,
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    /// One LPQ: the `I_R` subtree (or object) that owns it. A child
    /// inherits its parent's bound at creation and never reads shared
    /// mutable state afterwards, so its results are identical no matter
    /// which worker runs it, or when.
    type Morsel = Lpq<D>;
    type Local = Local;

    fn local(&self, scratch: &mut QueryScratch<D>) -> Local {
        Local {
            scan: NodeScan::checkout(scratch),
            parent_rejects: 0,
        }
    }

    /// Algorithm 2: the root LPQ owns `I_R`'s root, seeded with `I_S`'s.
    fn seeds(&self, lead: &mut Worker<'_, D>) -> Vec<Lpq<D>> {
        let mut root = lead
            .scratch
            .take_lpq(root_entry(self.ir), self.k_eff, f64::INFINITY);
        lead.out.stats.lpqs_created += 1;
        probe::<D, M>(&mut lead.out.stats, &mut root, root_entry(self.is));
        vec![root]
    }

    /// With siblings to feed, a node-owned subtree above
    /// [`INLINE_SUBTREE_OBJECTS`] is split by one `ExpandAndPrune` step,
    /// its child LPQs published as fresh morsels, so skewed data
    /// rebalances continuously; anything smaller is finished inline with
    /// the serial recursion. Alone, the walk is the request's
    /// [`Traversal`]: depth-first finishes the root LPQ inline,
    /// breadth-first splits every LPQ into the FIFO.
    fn step(
        &self,
        w: &mut Worker<'_, D>,
        lpq: Lpq<D>,
        spill: &mut Spill<'_, Lpq<D>>,
    ) -> QueryResult<()> {
        let split = if spill.shared() {
            matches!(lpq.owner, Entry::Node(n) if n.count > INLINE_SUBTREE_OBJECTS)
        } else {
            self.traversal == Traversal::BreadthFirst
        };
        if split {
            self.expand_and_prune(w, lpq, &mut |child| spill.push(child))
        } else {
            self.dfbi(w, lpq)
        }
    }

    fn retire(&self, w: Worker<'_, D>) -> AnnOutput {
        let s = &w.out.stats;
        exec::emit_pruned(
            w.tracer,
            M::NAME,
            &[
                (
                    PruneReason::OnProbe,
                    s.pruned_on_probe - w.local.parent_rejects,
                ),
                (PruneReason::ParentReject, w.local.parent_rejects),
                (PruneReason::InQueue, s.pruned_in_queue),
            ],
        );
        w.local.scan.release(w.scratch);
        w.out
    }
}

/// Evaluates the all-`k`-nearest-neighbor join: for every point indexed by
/// `ir`, find its `k` nearest neighbors among the points indexed by `is`
/// (paper Algorithm 2).
///
/// Depth-first, bi-directional is the paper's MBA/RBA algorithm; the other
/// [`Traversal`] × [`Expansion`] combinations reproduce the §3.3.2
/// design-space ablation. In self-join mode (`exclude_self`) the pair
/// `(r, s)` is skipped when both sides carry the same object id.
pub(crate) fn run<const D: usize, M, IR, IS>(
    ctx: ExecCtx<'_, D>,
    ir: &IR,
    is: &IS,
    k: usize,
    exclude_self: bool,
    traversal: Traversal,
    expansion: Expansion,
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
        frame.join(&Mba::<D, M, IR, IS> {
            ir,
            is,
            k,
            k_eff: k + usize::from(exclude_self),
            exclude_self,
            traversal,
            expansion,
            _metric: PhantomData,
        })
    })
}
