//! Single-query k-nearest-neighbor search — the point-query counterpart
//! of the ANN join, exposed as a standalone primitive.
//!
//! This is the classic best-first (Hjaltason–Samet) search augmented with
//! the paper's pruning-metric upper bound: the MNN baseline's per-object
//! search ([`crate::mnn`]), run for one query point.
//! Use it when you need neighbors of a handful of query points; use
//! [`crate::mba`] when you need neighbors of *every* indexed point.

use crate::index::SpatialIndex;
use crate::mnn::{knn_search, Worker};
use crate::node::{Entry, ObjectEntry};
use crate::resilience::{QueryGuard, QueryResult};
use crate::scratch::QueryScratch;
use crate::stats::AnnOutput;
use crate::trace::Tracer;
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
    if k == 0 || index.num_points() == 0 {
        return Ok(Vec::new());
    }
    // MNN's search for one object, with no limits, no trace, and its
    // counters dropped. The query's oid is never read without a self-skip.
    let guard = QueryGuard::disabled();
    let mut w = Worker {
        tracer: Tracer::disabled(),
        guard: &guard,
        scratch,
        out: AnnOutput::default(),
        local: 0,
    };
    let query = ObjectEntry {
        oid: u64::MAX,
        point: *query,
    };
    knn_search::<D, M, I>(index, &mut w, &query, k, false)?;
    Ok(w.out.results.iter().map(|p| (p.s_oid, p.dist)).collect())
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
