//! **BNN** — batched nearest-neighbor search (Zhang et al., SSDBM 2004),
//! the strongest prior R*-tree-based ANN method and the main index-based
//! baseline of the paper's Figure 3(a).
//!
//! BNN splits the query set `R` into spatially coherent groups (here:
//! Hilbert-curve order, chunked), and runs **one** best-first traversal of
//! `I_S` per group instead of one per point, amortizing the descent. Each
//! group keeps per-point k-nearest heaps; a subtree of `I_S` is pruned when
//! its `MINMINDIST` to the group MBR exceeds the group's pruning bound —
//! the maximum over the group's per-point bounds, clipped by the pruning
//! *metric* bound (MAXMAXDIST in the original; NXNDIST here when
//! instantiated with [`ann_geom::NxnDist`], which is the "BNN NXNDIST"
//! bar of Figure 3a).
//!
//! Each expanded `I_S` node is probed by the node scan MBA uses
//! (`scan.rs`), with the group's MBR as the owner, so both baselines
//! of Figure 3a prune under the very code the paper's method runs. Each
//! group point keeps its candidates in a [`KBestSet`], which holds the
//! canonical `(distance, s_oid)` tie-break.

use crate::exec::{self, ExecCtx, Join, Spill};
use crate::index::SpatialIndex;
use crate::lpq::{BoundTracker, QueuedEntry, PRUNE_EPS};
use crate::morsel::chunk_ranges;
use crate::node::{Entry, NodeEntry};
use crate::resilience::QueryResult;
use crate::scan::{CandidateQueue, NodeScan};
use crate::scratch::{self_join_room, GroupHeapItem, KBestSet, QueryScratch};
use crate::stats::AnnOutput;
use crate::trace::{Phase, PruneReason, Side, TraceEvent};
use ann_geom::{curve::GridMapper, kernels, min_min_dist_sq, Mbr, Point, PruneMetric, SoaPoints};
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::ops::Range;

/// One group's frontier: the `MIND`-ordered heap of `I_S` entries, the
/// metric bound their offers back, and the realized bound of the group's
/// points. It is the queue the node scan offers into.
struct GroupFrontier<const D: usize> {
    heap: BinaryHeap<GroupHeapItem<D>>,
    /// Each probed `I_S` entry guarantees `k_eff` candidates for *every*
    /// group point once `k_eff` entries are seen.
    metric: BoundTracker,
    /// The max over the group points' k-best bounds.
    point_bound: f64,
}

impl<const D: usize> CandidateQueue<D> for GroupFrontier<D> {
    #[inline]
    fn prune_threshold_sq(&self) -> f64 {
        self.metric.bound_sq().min(self.point_bound) * (1.0 + PRUNE_EPS)
    }

    #[inline]
    fn offer(&mut self, e: QueuedEntry<D>) -> (bool, u64) {
        self.metric.offer(e.maxd_sq);
        self.heap.push(GroupHeapItem {
            mind_sq: e.mind_sq,
            maxd_sq: e.maxd_sq,
            entry: e.entry,
        });
        (true, 0)
    }
}

/// One BNN join: the Hilbert-sorted queries, the target index and the
/// request's knobs. Shared read-only by every worker.
struct Bnn<'a, const D: usize, M, IS> {
    sorted: Vec<&'a (u64, Point<D>)>,
    is: &'a IS,
    k: usize,
    group_size: usize,
    exclude_self: bool,
    _metric: PhantomData<fn() -> M>,
}

/// A worker's only BNN state beside its scratch and output: heap entries
/// cut off unpopped, tallied while tracing.
type Worker<'w, const D: usize> = exec::Worker<'w, D, u64>;

impl<const D: usize, M, IS> Join<D> for Bnn<'_, D, M, IS>
where
    M: PruneMetric,
    IS: SpatialIndex<D> + Sync,
{
    /// One group: an index range over the sorted queries.
    type Morsel = Range<usize>;
    type Local = u64;

    fn local(&self, _scratch: &mut QueryScratch<D>) -> u64 {
        0
    }

    /// Exactly the boundaries `slice::chunks(group_size)` produces. Each
    /// group's traversal, heaps and bounds are self-contained in
    /// [`run_group`], so per-group results are independent of
    /// scheduling.
    fn seeds(&self, _lead: &mut Worker<'_, D>) -> Vec<Range<usize>> {
        chunk_ranges(self.sorted.len(), self.group_size)
    }

    fn step(
        &self,
        w: &mut Worker<'_, D>,
        range: Range<usize>,
        _spill: &mut Spill<'_, Range<usize>>,
    ) -> QueryResult<()> {
        run_group(self, w, &self.sorted[range])
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

/// Evaluates AkNN for the points `r` (not necessarily indexed) against the
/// indexed set `is`, with the batched traversal described above:
/// `group_size` query objects per group (Zhang et al. size groups to fit
/// memory), same-oid pairs skipped under `exclude_self`.
pub(crate) fn run<const D: usize, M, IS>(
    ctx: ExecCtx<'_, D>,
    r: &[(u64, Point<D>)],
    is: &IS,
    k: usize,
    group_size: usize,
    exclude_self: bool,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IS: SpatialIndex<D> + Sync,
{
    assert!(group_size >= 1, "group size must be at least 1");
    let degenerate = k == 0 || r.is_empty() || is.num_points() == 0;
    exec::drive(ctx, degenerate, |frame| {
        // Sort queries in Hilbert order over their own bounding box; the
        // order defines the group boundaries, so the sort stays serial.
        let sorted = frame.phase(Phase::Sort, || {
            let mapper = GridMapper::new(Mbr::from_points(r.iter().map(|(_, p)| p)));
            let mut sorted: Vec<&(u64, Point<D>)> = r.iter().collect();
            sorted.sort_by_key(|(_, p)| mapper.hilbert_key(p));
            sorted
        });
        frame.tracer.event(|| TraceEvent::Root {
            side: Side::S,
            page: is.root_page(),
        });
        frame.join(&Bnn::<D, M, IS> {
            sorted,
            is,
            k,
            group_size,
            exclude_self,
            _metric: PhantomData,
        })
    })
}

/// One group's best-first traversal of `I_S`.
fn run_group<const D: usize, M, IS>(
    join: &Bnn<'_, D, M, IS>,
    w: &mut Worker<'_, D>,
    group: &[&(u64, Point<D>)],
) -> QueryResult<()>
where
    M: PruneMetric,
    IS: SpatialIndex<D>,
{
    let exec::Worker {
        tracer,
        guard,
        scratch,
        out,
        local: cutoff_total,
    } = w;
    let is = join.is;
    let mut heap_pops = 0u64;
    let k_eff = self_join_room(join.k, join.exclude_self);
    let gmbr = Mbr::from_points(group.iter().map(|(_, p)| p));
    // Each group point's oid beside its candidates.
    let mut sets: Vec<(u64, KBestSet)> = group
        .iter()
        .map(|&&(oid, _)| (oid, KBestSet::new(k_eff, scratch.take_kbest())))
        .collect();
    // Column-major mirror of the group's query points, so each popped
    // object batches its distances to the whole group in one kernel call.
    let mut gcols = scratch.take_f64();
    for d in 0..D {
        gcols.extend(group.iter().map(|(_, p)| p[d]));
    }
    let mut dist_buf = scratch.take_f64();
    let mut scan = NodeScan::checkout(scratch);
    // The scan's owner: the group as a node. Only its MBR is read, and a
    // node owner never takes the exact point×leaf path.
    let owner = Entry::Node(NodeEntry {
        page: is.root_page(),
        count: group.len() as u64,
        mbr: gmbr,
    });

    let mut front = GroupFrontier {
        heap: scratch.take_group_heap(),
        metric: BoundTracker::new(k_eff, f64::INFINITY),
        point_bound: f64::INFINITY,
    };
    let root_mbr = is.bounds();
    out.stats.distance_computations += 1;
    front.offer(QueuedEntry {
        mind_sq: min_min_dist_sq(&gmbr, &root_mbr),
        maxd_sq: M::upper_sq(&gmbr, &root_mbr),
        entry: Entry::Node(NodeEntry {
            page: is.root_page(),
            count: is.num_points(),
            mbr: root_mbr,
        }),
    });
    out.stats.enqueued += 1;

    while let Some(item) = front.heap.pop() {
        heap_pops += 1;
        if item.mind_sq > front.prune_threshold_sq() {
            if tracer.enabled() {
                // The popped item and everything still queued are cut off.
                *cutoff_total += front.heap.len() as u64 + 1;
            }
            break; // min-heap: everything remaining is at least this far
        }
        front.metric.remove(item.maxd_sq);
        match item.entry {
            Entry::Object(s) => {
                // One kernel call for the whole group: (s - p)^2 sums the
                // same squares as the scalar (p - s)^2, bit for bit. The
                // self-pair's distance is computed but never offered or
                // counted, exactly like the scalar skip.
                let gpoints = SoaPoints::new(group.len(), &gcols);
                kernels::dist_sq_batch(&s.point, &gpoints, &mut dist_buf);
                let mut improved_max = false;
                for (i, (oid, set)) in sets.iter_mut().enumerate() {
                    if join.exclude_self && *oid == s.oid {
                        continue;
                    }
                    out.stats.distance_computations += 1;
                    let old = set.bound_sq();
                    if set.offer(dist_buf[i], s.oid) && old >= front.point_bound {
                        improved_max = true;
                    }
                }
                if improved_max {
                    front.point_bound = sets
                        .iter()
                        .map(|(_, set)| set.bound_sq())
                        .fold(0.0f64, f64::max);
                }
            }
            Entry::Node(n) => {
                guard.tick()?;
                let node = is.read_node_cached(n.page)?;
                out.stats.s_nodes_expanded += 1;
                tracer.node_expanded(Side::S, n.page, &node.entries);
                scan.scan::<D, M, _>(&owner, &node, &mut front, &mut out.stats);
            }
        }
    }

    tracer.event(|| TraceEvent::BnnBatch {
        size: group.len() as u32,
        heap_pops,
    });

    // Emit: per point, at most k (the k_eff-th candidate only existed to
    // keep the bound sound in self-join mode).
    for (oid, set) in sets {
        scratch.put_kbest(set.emit(oid, join.k, &mut out.results));
    }
    scratch.put_group_heap(front.heap);
    scan.release(scratch);
    scratch.put_f64(gcols);
    scratch.put_f64(dist_buf);
    Ok(())
}
