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

use crate::exec::{self, ExecCtx, Join, Spill};
use crate::index::SpatialIndex;
use crate::lpq::{BoundTracker, PRUNE_EPS};
use crate::morsel::chunk_ranges;
use crate::node::Entry;
use crate::resilience::QueryResult;
use crate::scratch::{GroupHeapItem, KBest, QueryScratch};
use crate::stats::{AnnOutput, NeighborPair};
use crate::trace::{Phase, PruneReason, Side, TraceEvent};
use ann_geom::{curve::GridMapper, kernels, min_min_dist_sq, Mbr, Point, PruneMetric, SoaPoints};
use std::collections::BinaryHeap;
use std::marker::PhantomData;
use std::ops::Range;

/// Per-query-point state within a group.
struct PointState<const D: usize> {
    oid: u64,
    point: Point<D>,
    /// Max-heap of the k best candidates so far.
    best: BinaryHeap<KBest>,
    want: usize,
}

impl<const D: usize> PointState<D> {
    /// Current per-point bound: distance of the k-th best candidate
    /// (infinite until `want` candidates have been seen).
    fn bound_sq(&self) -> f64 {
        if self.best.len() < self.want {
            f64::INFINITY
        } else {
            self.best.peek().expect("non-empty").dist_sq
        }
    }

    fn offer(&mut self, dist_sq: f64, s_oid: u64) -> bool {
        let cand = KBest { dist_sq, s_oid };
        if self.best.len() < self.want {
            self.best.push(cand);
            true
        } else if cand < *self.best.peek().expect("non-empty") {
            // Lexicographic (dist_sq, s_oid): a tied candidate with a
            // smaller oid must displace the current worst, or results
            // diverge from the canonical brute-force tie-break.
            self.best.pop();
            self.best.push(cand);
            true
        } else {
            false
        }
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
    let k_eff = join.k + usize::from(join.exclude_self);
    let gmbr = Mbr::from_points(group.iter().map(|(_, p)| p));
    let mut states: Vec<PointState<D>> = group
        .iter()
        .map(|&&(oid, point)| PointState {
            oid,
            point,
            best: scratch.take_kbest(),
            want: k_eff,
        })
        .collect();
    // Column-major mirror of the group's query points, so each popped
    // object batches its distances to the whole group in one kernel call.
    let mut gcols = scratch.take_f64();
    for d in 0..D {
        gcols.extend(states.iter().map(|st| st.point[d]));
    }
    let mut dist_buf = scratch.take_f64();
    let mut mind_buf = scratch.take_f64();
    let mut maxd_buf = scratch.take_f64();

    // The group bound combines the metric guarantee (each probed I_S entry
    // guarantees k_eff candidates for *every* group point once k_eff
    // entries are seen) with the realized per-point bounds.
    let mut metric_bound = BoundTracker::new(k_eff, f64::INFINITY);
    let mut point_bound = f64::INFINITY; // max over per-point bounds
    let recompute = |states: &[PointState<D>]| -> f64 {
        states
            .iter()
            .map(PointState::bound_sq)
            .fold(0.0f64, f64::max)
    };

    let mut heap = scratch.take_group_heap();
    let mut hints = scratch.take_hints();
    let hinting = is.pool().prefetch_enabled();
    let root_mbr = is.bounds();
    out.stats.distance_computations += 1;
    let root_maxd = M::upper_sq(&gmbr, &root_mbr);
    metric_bound.offer(root_maxd);
    heap.push(GroupHeapItem {
        mind_sq: min_min_dist_sq(&gmbr, &root_mbr),
        maxd_sq: root_maxd,
        entry: Entry::Node(crate::node::NodeEntry {
            page: is.root_page(),
            count: is.num_points(),
            mbr: root_mbr,
        }),
    });
    out.stats.enqueued += 1;

    while let Some(item) = heap.pop() {
        heap_pops += 1;
        let bound = metric_bound.bound_sq().min(point_bound);
        if item.mind_sq > bound * (1.0 + PRUNE_EPS) {
            if tracer.enabled() {
                // The popped item and everything still queued are cut off.
                *cutoff_total += heap.len() as u64 + 1;
            }
            break; // min-heap: everything remaining is at least this far
        }
        metric_bound.remove(item.maxd_sq);
        match item.entry {
            Entry::Object(s) => {
                // One kernel call for the whole group: (s - p)^2 sums the
                // same squares as the scalar (p - s)^2, bit for bit. The
                // self-pair's distance is computed but never offered or
                // counted, exactly like the scalar skip.
                let gpoints = SoaPoints::new(states.len(), &gcols);
                kernels::dist_sq_batch(&s.point, &gpoints, &mut dist_buf);
                let mut improved_max = false;
                for (i, st) in states.iter_mut().enumerate() {
                    if join.exclude_self && st.oid == s.oid {
                        continue;
                    }
                    out.stats.distance_computations += 1;
                    let old = st.bound_sq();
                    if st.offer(dist_buf[i], s.oid) && old >= point_bound {
                        improved_max = true;
                    }
                }
                if improved_max {
                    point_bound = recompute(&states);
                }
            }
            Entry::Node(n) => {
                guard.tick()?;
                let node = is.read_node_cached(n.page)?;
                out.stats.s_nodes_expanded += 1;
                tracer.node_expanded(Side::S, n.page, &node.entries);
                // Batch both bounds over the node's SoA columns, then
                // replay the accept/prune decisions sequentially under the
                // evolving bound — bit-identical to the scalar loop.
                let cols = node.soa_mbrs();
                kernels::min_min_dist_sq_batch(&gmbr, &cols, &mut mind_buf);
                M::upper_sq_batch(&gmbr, &cols, &mut maxd_buf);
                for (i, e) in node.entries.iter().enumerate() {
                    out.stats.distance_computations += 1;
                    let bound = metric_bound.bound_sq().min(point_bound);
                    if mind_buf[i] <= bound * (1.0 + PRUNE_EPS) {
                        metric_bound.offer(maxd_buf[i]);
                        heap.push(GroupHeapItem {
                            mind_sq: mind_buf[i],
                            maxd_sq: maxd_buf[i],
                            entry: *e,
                        });
                        out.stats.enqueued += 1;
                        if hinting {
                            if let Entry::Node(c) = e {
                                // First touch only: a node-cached page is
                                // served without a pool read, so hinting it
                                // would be pure wasted disk I/O.
                                if !is.node_is_cached(c.page) {
                                    hints.push((c.page, crate::readahead::depth_priority(c.count)));
                                }
                            }
                        }
                    } else {
                        out.stats.pruned_on_probe += 1;
                    }
                }
                // Readahead for the pages just pushed: changes only when
                // their physical reads happen, never the group decisions.
                crate::readahead::submit(is.pool(), &mut hints);
            }
        }
    }

    tracer.event(|| TraceEvent::BnnBatch {
        size: group.len() as u32,
        heap_pops,
    });

    // Emit: per point, best candidates in ascending distance, at most k
    // (the k_eff-th candidate only existed to keep the bound sound in
    // self-join mode).
    for st in states {
        let mut best: Vec<KBest> = st.best.into_vec();
        best.sort_by(|a, b| {
            (a.dist_sq, a.s_oid)
                .partial_cmp(&(b.dist_sq, b.s_oid))
                .expect("finite")
        });
        for b in best.iter().take(join.k) {
            out.results.push(NeighborPair {
                r_oid: st.oid,
                s_oid: b.s_oid,
                dist: b.dist_sq.sqrt(),
            });
        }
        scratch.put_kbest(BinaryHeap::from(best));
    }
    scratch.put_group_heap(heap);
    scratch.put_hints(hints);
    scratch.put_f64(gcols);
    scratch.put_f64(dist_buf);
    scratch.put_f64(mind_buf);
    scratch.put_f64(maxd_buf);
    Ok(())
}
