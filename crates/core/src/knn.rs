//! Single-query k-nearest-neighbor search — the point-query counterpart
//! of the ANN join, exposed as a standalone primitive.
//!
//! This is the classic best-first (Hjaltason–Samet) search augmented with
//! the paper's pruning-metric upper bound, shared with the MNN baseline.
//! Use it when you need neighbors of a handful of query points; use
//! [`crate::mba`] when you need neighbors of *every* indexed point.

use crate::index::SpatialIndex;
use crate::node::{Entry, ObjectEntry};
use crate::resilience::QueryResult;
use crate::scan::{BestFirst, NodeScan};
use crate::scratch::QueryScratch;
use crate::stats::AnnStats;
use ann_geom::{min_min_dist_sq, Mbr, Point, PruneMetric};

/// Finds the `k` nearest indexed points to `query`, closest first.
///
/// Returns fewer than `k` results only when the index holds fewer than
/// `k` points.
///
/// ```no_run
/// use ann_core::knn::knn;
/// use ann_core::SpatialIndex;
/// use ann_geom::{NxnDist, Point};
/// # fn demo<I: SpatialIndex<2>>(index: &I) -> ann_core::QueryResult<()> {
/// let hits = knn::<2, NxnDist, _>(index, &Point::new([1.0, 2.0]), 5)?;
/// for (oid, dist) in hits {
///     println!("#{oid} at {dist}");
/// }
/// # Ok(()) }
/// ```
pub fn knn<const D: usize, M, I>(
    index: &I,
    query: &Point<D>,
    k: usize,
) -> QueryResult<Vec<(u64, f64)>>
where
    M: PruneMetric,
    I: SpatialIndex<D>,
{
    knn_scratch::<D, M, I>(index, query, k, &mut QueryScratch::new())
}

/// [`knn`] with a caller-owned [`QueryScratch`]: repeated queries through
/// the same scratch reuse its heap and distance buffers instead of
/// allocating fresh ones per call.
pub fn knn_scratch<const D: usize, M, I>(
    index: &I,
    query: &Point<D>,
    k: usize,
    scratch: &mut QueryScratch<D>,
) -> QueryResult<Vec<(u64, f64)>>
where
    M: PruneMetric,
    I: SpatialIndex<D>,
{
    let mut out = Vec::with_capacity(k);
    if k == 0 || index.num_points() == 0 {
        return Ok(out);
    }
    // The scan's owner: the query as a data object (its oid is never read).
    let owner = Entry::Object(ObjectEntry {
        oid: u64::MAX,
        point: *query,
    });
    let mut front = BestFirst::seeded::<M, I>(index, query, k, scratch.take_best_first());
    let mut scan = NodeScan::checkout(scratch);
    // kNN reports no work counters.
    let mut stats = AnnStats::default();

    let walk = (|| -> QueryResult<()> {
        while let Some(item) = front.heap.pop() {
            if front.bound.prunes(item.mind_sq) {
                break;
            }
            front.bound.remove(item.maxd_sq);
            match item.entry {
                Entry::Object(o) => {
                    out.push((o.oid, item.mind_sq.sqrt()));
                    front.bound.satisfy_one();
                    if out.len() == k {
                        break;
                    }
                }
                Entry::Node(n) => {
                    let node = index.read_node_cached(n.page)?;
                    scan.scan::<D, M, _, _>(index, &owner, &node, &mut front, &mut stats);
                }
            }
        }
        Ok(())
    })();
    scratch.put_best_first(front.heap);
    scan.release(scratch);
    walk.map(|()| out)
}

/// Finds every indexed point within `radius` of `query`, closest first.
///
/// A range counterpart to [`knn`]; subtrees are pruned with the same
/// `MINMINDIST` lower bound.
pub fn within_radius<const D: usize, I>(
    index: &I,
    query: &Point<D>,
    radius: f64,
) -> QueryResult<Vec<(u64, f64)>>
where
    I: SpatialIndex<D>,
{
    assert!(radius >= 0.0, "radius must be non-negative");
    let mut out = Vec::new();
    if index.num_points() == 0 {
        return Ok(out);
    }
    let qmbr = Mbr::from_point(query);
    let radius_sq = radius * radius;
    let mut stack = vec![index.root_page()];
    while let Some(page) = stack.pop() {
        let node = index.read_node_cached(page)?;
        for e in &node.entries {
            match e {
                Entry::Object(o) => {
                    let d2 = query.dist_sq(&o.point);
                    if d2 <= radius_sq {
                        out.push((o.oid, d2.sqrt()));
                    }
                }
                Entry::Node(n) => {
                    if min_min_dist_sq(&qmbr, &n.mbr) <= radius_sq {
                        stack.push(n.page);
                    }
                }
            }
        }
    }
    out.sort_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).expect("finite"));
    Ok(out)
}
