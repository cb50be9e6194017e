//! **k-closest-pairs** — the distance-join relative of ANN (paper §2;
//! Corral et al., SIGMOD 2000).
//!
//! Finds the `k` globally closest `(r, s)` pairs between two indexed point
//! sets by a best-first traversal over *pairs* of index entries, ordered
//! by `MINMINDIST`. Two pruning bounds cooperate:
//!
//! * the realized bound — the `k`-th best object pair found so far;
//! * the guarantee bound — queued entry pairs are pairwise-disjoint
//!   *pair sets* (they differ in at least one subtree), and each
//!   guarantees one concrete pair within its `MAXMAXDIST`, so the `k`-th
//!   smallest queued `MAXMAXDIST` bounds the answer before any object
//!   pair has even been seen. This reuses [`crate::lpq::BoundTracker`].
//!
//! Included because the paper positions ANN within the distance-join
//! family; the implementation shares the node model and costs I/O through
//! the same buffer pool.

use crate::index::SpatialIndex;
use crate::lpq::BoundTracker;
use crate::node::Entry;
use crate::resilience::QueryResult;
use crate::stats::{AnnOutput, NeighborPair};
use ann_geom::{max_max_dist_sq, min_min_dist_sq};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Configuration for [`closest_pairs`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClosestPairsConfig {
    /// Number of closest pairs to report.
    pub k: usize,
    /// Skip pairs whose two sides carry the same object id (self-join
    /// mode). Note that a self-join still reports both orientations of a
    /// pair of distinct points, `(a, b)` and `(b, a)`, matching the
    /// relational semantics of a join.
    pub exclude_self: bool,
}

impl Default for ClosestPairsConfig {
    fn default() -> Self {
        ClosestPairsConfig {
            k: 1,
            exclude_self: false,
        }
    }
}

struct PairItem<const D: usize> {
    mind_sq: f64,
    maxd_sq: f64,
    r: Entry<D>,
    s: Entry<D>,
}

impl<const D: usize> PartialEq for PairItem<D> {
    fn eq(&self, other: &Self) -> bool {
        self.mind_sq == other.mind_sq
    }
}
impl<const D: usize> Eq for PairItem<D> {}
impl<const D: usize> PartialOrd for PairItem<D> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for PairItem<D> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .mind_sq
            .partial_cmp(&self.mind_sq)
            .expect("distances are finite")
    }
}

/// Max-heap item over realized pairs.
#[derive(Clone, Copy, PartialEq)]
struct Realized {
    dist_sq: f64,
    r_oid: u64,
    s_oid: u64,
}
impl Eq for Realized {}
impl PartialOrd for Realized {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Realized {
    fn cmp(&self, other: &Self) -> Ordering {
        self.dist_sq
            .partial_cmp(&other.dist_sq)
            .expect("finite")
            .then(self.r_oid.cmp(&other.r_oid))
            .then(self.s_oid.cmp(&other.s_oid))
    }
}

/// Finds the `cfg.k` closest pairs between the points of `ir` and `is`,
/// reported in ascending distance order.
pub fn closest_pairs<const D: usize, IR, IS>(
    ir: &IR,
    is: &IS,
    cfg: &ClosestPairsConfig,
) -> QueryResult<AnnOutput>
where
    IR: SpatialIndex<D>,
    IS: SpatialIndex<D>,
{
    if cfg.k == 0 {
        return Ok(AnnOutput::default());
    }
    let mut out = AnnOutput::default();
    let io_r0 = ir.pool().stats();
    let shared_pool = std::ptr::eq(
        ir.pool() as *const _ as *const u8,
        is.pool() as *const _ as *const u8,
    );
    let io_s0 = is.pool().stats();

    let walk = (|out: &mut AnnOutput| -> QueryResult<()> {
        if ir.num_points() == 0 || is.num_points() == 0 {
            return Ok(());
        }
        // Guarantee soundness under self-exclusion: MAXMAXDIST bounds
        // *every* pair of a product, so any product other than a
        // same-single-point `{a}×{a}` guarantees a non-self pair within
        // its MAXMAXDIST — and those singleton self products are filtered
        // out before they are ever queued (below).
        let mut guarantee = BoundTracker::new(cfg.k, f64::INFINITY);
        let mut realized: BinaryHeap<Realized> = BinaryHeap::with_capacity(cfg.k + 1);
        let mut heap: BinaryHeap<PairItem<D>> = BinaryHeap::new();

        let r_root = Entry::Node(crate::node::NodeEntry {
            page: ir.root_page(),
            count: ir.num_points(),
            mbr: ir.bounds(),
        });
        let s_root = Entry::Node(crate::node::NodeEntry {
            page: is.root_page(),
            count: is.num_points(),
            mbr: is.bounds(),
        });
        let mind_sq = min_min_dist_sq(&ir.bounds(), &is.bounds());
        let maxd_sq = max_max_dist_sq(&ir.bounds(), &is.bounds());
        out.stats.distance_computations += 1;
        guarantee.offer(maxd_sq);
        heap.push(PairItem {
            mind_sq,
            maxd_sq,
            r: r_root,
            s: s_root,
        });
        out.stats.enqueued += 1;

        let realized_bound = |h: &BinaryHeap<Realized>| -> f64 {
            if h.len() < cfg.k {
                f64::INFINITY
            } else {
                h.peek().expect("non-empty").dist_sq
            }
        };

        while let Some(item) = heap.pop() {
            let bound = guarantee.bound_sq().min(realized_bound(&realized));
            if item.mind_sq > bound * (1.0 + crate::lpq::PRUNE_EPS) {
                break;
            }
            guarantee.remove(item.maxd_sq);
            match (item.r, item.s) {
                (Entry::Object(r), Entry::Object(s)) => {
                    if cfg.exclude_self && r.oid == s.oid {
                        continue; // the root pair of a 1-point self-join
                    }
                    // mind of two degenerate MBRs is the exact distance.
                    realized.push(Realized {
                        dist_sq: item.mind_sq,
                        r_oid: r.oid,
                        s_oid: s.oid,
                    });
                    if realized.len() > cfg.k {
                        realized.pop();
                    }
                    // No `satisfy_one` here: unlike a kNN gather, the
                    // search does not end after k emissions — later
                    // products can still yield *closer* pairs, and the
                    // realized k-th-best bound is what tightens from now
                    // on. The guarantee tracker keeps needing k live
                    // products, which stays sound (k disjoint products
                    // always guarantee k distinct pairs).
                }
                (r, s) => {
                    // Expand the side with the larger region (objects and
                    // smaller boxes stay fixed), the classic heuristic.
                    let expand_r = match (&r, &s) {
                        (Entry::Node(rn), Entry::Node(sn)) => rn.mbr.margin() >= sn.mbr.margin(),
                        (Entry::Node(_), Entry::Object(_)) => true,
                        (Entry::Object(_), Entry::Node(_)) => false,
                        _ => unreachable!("object/object handled above"),
                    };
                    let (node_page, fixed, fixed_is_r) = if expand_r {
                        let Entry::Node(rn) = r else { unreachable!() };
                        (rn.page, s, false)
                    } else {
                        let Entry::Node(sn) = s else { unreachable!() };
                        (sn.page, r, true)
                    };
                    let node = if expand_r {
                        ir.read_node_cached(node_page)?
                    } else {
                        is.read_node_cached(node_page)?
                    };
                    if expand_r {
                        out.stats.r_nodes_expanded += 1;
                    } else {
                        out.stats.s_nodes_expanded += 1;
                    }
                    for child in node.entries.iter().copied() {
                        let (re, se) = if fixed_is_r {
                            (fixed, child)
                        } else {
                            (child, fixed)
                        };
                        if cfg.exclude_self {
                            if let (Entry::Object(ro), Entry::Object(so)) = (&re, &se) {
                                if ro.oid == so.oid {
                                    continue; // singleton self product
                                }
                            }
                        }
                        let mind_sq = min_min_dist_sq(&re.mbr(), &se.mbr());
                        let maxd_sq = max_max_dist_sq(&re.mbr(), &se.mbr());
                        out.stats.distance_computations += 1;
                        let bound = guarantee.bound_sq().min(realized_bound(&realized));
                        if mind_sq <= bound * (1.0 + crate::lpq::PRUNE_EPS) {
                            guarantee.offer(maxd_sq);
                            heap.push(PairItem {
                                mind_sq,
                                maxd_sq,
                                r: re,
                                s: se,
                            });
                            out.stats.enqueued += 1;
                        } else {
                            out.stats.pruned_on_probe += 1;
                        }
                    }
                }
            }
        }

        let mut pairs: Vec<Realized> = realized.into_vec();
        pairs.sort();
        for p in pairs {
            out.results.push(NeighborPair {
                r_oid: p.r_oid,
                s_oid: p.s_oid,
                dist: p.dist_sq.sqrt(),
            });
        }
        Ok(())
    })(&mut out);

    let mut io = ir.pool().stats().since(&io_r0);
    if !shared_pool {
        io = io.merge(&is.pool().stats().since(&io_s0));
    }
    out.stats.io = io;
    walk.map(|()| out)
}
