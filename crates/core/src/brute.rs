//! Brute-force ANN / AkNN — the `O(|R| · |S|)` ground truth every other
//! algorithm is validated against in the test suites.

use crate::stats::NeighborPair;
use ann_geom::{kernels, Point, SoaPoints};

/// Computes, for every `(oid, point)` in `r`, its `k` nearest neighbors in
/// `s` by exhaustive search.
///
/// This is the reference implementation of the **canonical tie-breaking
/// contract** every index-based algorithm must reproduce byte-for-byte:
/// per query object, candidates are ranked by `(distance, s_oid)`
/// ascending, so equal-distance neighbors are won by the smaller target
/// oid. `k = 0` returns an empty result; `k > |s|` returns all of `s`.
/// This matches the canonical order of
/// [`AnnOutput::sort`](crate::stats::AnnOutput::sort).
///
/// When `exclude_self` is set, candidate pairs with equal object ids are
/// skipped (self-join semantics).
pub fn brute_force_aknn<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    k: usize,
    exclude_self: bool,
) -> Vec<NeighborPair> {
    if k == 0 {
        return Vec::new();
    }
    let mut out = Vec::with_capacity(r.len() * k.min(s.len()));
    // Column-major mirror of S, built once: every query point then runs
    // one batched kernel call over all of S instead of |S| scalar calls.
    let mut s_cols: Vec<f64> = Vec::with_capacity(D * s.len());
    for d in 0..D {
        s_cols.extend(s.iter().map(|(_, p)| p[d]));
    }
    let s_points = SoaPoints::new(s.len(), &s_cols);
    let mut dists: Vec<f64> = Vec::new();
    // (dist_sq, s_oid) candidates per query; a simple select-k via sort is
    // fine at test scales.
    let mut candidates: Vec<(f64, u64)> = Vec::with_capacity(s.len());
    for &(r_oid, r_point) in r {
        candidates.clear();
        kernels::dist_sq_batch(&r_point, &s_points, &mut dists);
        for (i, &(s_oid, _)) in s.iter().enumerate() {
            if exclude_self && s_oid == r_oid {
                continue;
            }
            candidates.push((dists[i], s_oid));
        }
        candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite distances"));
        for &(dist_sq, s_oid) in candidates.iter().take(k) {
            out.push(NeighborPair {
                r_oid,
                s_oid,
                dist: dist_sq.sqrt(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[[f64; 2]]) -> Vec<(u64, Point<2>)> {
        coords
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64, Point::new(c)))
            .collect()
    }

    #[test]
    fn nearest_neighbor_by_hand() {
        let r = pts(&[[0.0, 0.0], [10.0, 10.0]]);
        let s = pts(&[[1.0, 0.0], [9.0, 10.0], [5.0, 5.0]]);
        let out = brute_force_aknn(&r, &s, 1, false);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].r_oid, out[0].s_oid, out[0].dist), (0, 0, 1.0));
        assert_eq!((out[1].r_oid, out[1].s_oid, out[1].dist), (1, 1, 1.0));
    }

    #[test]
    fn k2_returns_two_per_query_in_distance_order() {
        let r = pts(&[[0.0, 0.0]]);
        let s = pts(&[[3.0, 0.0], [1.0, 0.0], [2.0, 0.0]]);
        let out = brute_force_aknn(&r, &s, 2, false);
        assert_eq!(out.len(), 2);
        assert_eq!((out[0].s_oid, out[0].dist), (1, 1.0));
        assert_eq!((out[1].s_oid, out[1].dist), (2, 2.0));
    }

    #[test]
    fn self_join_exclusion() {
        let pts = pts(&[[0.0, 0.0], [1.0, 0.0], [5.0, 0.0]]);
        let with_self = brute_force_aknn(&pts, &pts, 1, false);
        assert!(with_self
            .iter()
            .all(|p| p.dist == 0.0 && p.r_oid == p.s_oid));
        let without = brute_force_aknn(&pts, &pts, 1, true);
        assert_eq!(without[0].s_oid, 1);
        assert_eq!(without[1].s_oid, 0);
        assert_eq!(without[2].s_oid, 1);
        assert_eq!(without[2].dist, 4.0);
    }

    #[test]
    fn k_larger_than_s_returns_all() {
        let r = pts(&[[0.0, 0.0]]);
        let s = pts(&[[1.0, 0.0], [2.0, 0.0]]);
        let out = brute_force_aknn(&r, &s, 10, false);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn distance_ties_break_on_oid() {
        let r = pts(&[[0.0, 0.0]]);
        let s = vec![
            (7u64, Point::new([1.0, 0.0])),
            (3u64, Point::new([0.0, 1.0])),
        ];
        let out = brute_force_aknn(&r, &s, 1, false);
        assert_eq!(out[0].s_oid, 3);
    }
}
