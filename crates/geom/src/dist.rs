//! The classical MBR ↔ MBR distance metrics (paper §3.1.1 and Figure 2a).
//!
//! All of these treat an MBR as the *set* of points it covers and bound the
//! Euclidean distance between one point from each MBR:
//!
//! * [`min_min_dist`] — smallest possible distance between any pair
//!   (the lower-bound metric every ANN algorithm prunes with);
//! * [`max_max_dist`] — largest possible distance between any pair
//!   (the traditional, loose upper bound the paper improves upon);
//! * [`min_max_dist`] — an upper bound on the distance of *at least one*
//!   pair, generalizing Roussopoulos' point-to-MBR MINMAXDIST to two MBRs
//!   following Corral et al. (SIGMOD 2000). Included for completeness; the
//!   paper notes it is *not* a sound upper bound for ANN pruning (a claim
//!   the tests in this module demonstrate).

use crate::nxndist::max_dist_d;
use crate::Mbr;

/// Squared `MINMINDIST(M, N)`: the squared minimum distance between any
/// point in `m` and any point in `n`. Zero when the rectangles intersect.
#[inline]
pub fn min_min_dist_sq<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
    let mut acc = 0.0;
    for d in 0..D {
        // Gap between the two intervals in dimension d (0 when they overlap).
        let gap = (m.lo[d] - n.hi[d]).max(n.lo[d] - m.hi[d]).max(0.0);
        acc += gap * gap;
    }
    acc
}

/// `MINMINDIST(M, N)` — see [`min_min_dist_sq`].
#[inline]
pub fn min_min_dist<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
    min_min_dist_sq(m, n).sqrt()
}

/// Early-exit variant of [`min_min_dist_sq`] for pruning checks: returns
/// `Some(MINMINDIST²)` when it is `<= bound_sq`, or `None` as soon as the
/// running per-dimension sum exceeds `bound_sq`.
///
/// Per-dimension contributions are non-negative and accumulated in the
/// same order as [`min_min_dist_sq`], so the result is bit-exact with the
/// full computation whenever it is produced, and `None` is returned *iff*
/// the full `MINMINDIST² > bound_sq` — callers deciding "does this entry
/// survive the bound" get exactly the same answer, just without paying for
/// the remaining dimensions of hopeless entries. The savings grow with
/// `D`, which is where LPQ filtering spends its time on high-dimensional
/// workloads.
#[inline]
pub fn min_min_dist_sq_within<const D: usize>(
    m: &Mbr<D>,
    n: &Mbr<D>,
    bound_sq: f64,
) -> Option<f64> {
    let mut acc = 0.0;
    for d in 0..D {
        let gap = (m.lo[d] - n.hi[d]).max(n.lo[d] - m.hi[d]).max(0.0);
        acc += gap * gap;
        if acc > bound_sq {
            return None;
        }
    }
    Some(acc)
}

/// Squared `MAXMAXDIST(M, N)`: the squared maximum possible distance between
/// any point in `m` and any point in `n`.
///
/// This is the pruning upper bound used by previous index-based ANN methods;
/// the paper's NXNDIST ([`crate::nxn_dist`]) is never larger.
#[inline]
pub fn max_max_dist_sq<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
    let mut acc = 0.0;
    for d in 0..D {
        let md = max_dist_d(m, n, d);
        acc += md * md;
    }
    acc
}

/// `MAXMAXDIST(M, N)` — see [`max_max_dist_sq`].
#[inline]
pub fn max_max_dist<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
    max_max_dist_sq(m, n).sqrt()
}

/// Squared `MINMAXDIST(M, N)`: an upper bound on the squared distance
/// between *at least one* pair of points, one from each MBR.
///
/// Because every face of a *minimum* bounding rectangle touches at least one
/// point of the underlying set, fixing one dimension `d` to a pair of faces
/// (one face of `m`, one of `n`) pins the distance in that dimension exactly
/// while every other dimension is bounded by `MAXDIST_j`. The metric takes
/// the best (smallest) such guarantee over all dimensions and face pairs.
#[inline]
pub fn min_max_dist_sq<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
    // Total of squared per-dimension maxima; each candidate replaces one
    // dimension's MAXDIST² with the pinned face-to-face separation².
    let mut total = 0.0;
    let mut max_sq = [0.0; D];
    for d in 0..D {
        let md = max_dist_d(m, n, d);
        max_sq[d] = md * md;
        total += max_sq[d];
    }
    let mut best = f64::INFINITY;
    for d in 0..D {
        let faces_m = [m.lo[d], m.hi[d]];
        let faces_n = [n.lo[d], n.hi[d]];
        let mut pinned = f64::INFINITY;
        for a in faces_m {
            for b in faces_n {
                pinned = pinned.min((a - b).abs());
            }
        }
        best = best.min(total - max_sq[d] + pinned * pinned);
    }
    best
}

/// `MINMAXDIST(M, N)` — see [`min_max_dist_sq`].
#[inline]
pub fn min_max_dist<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
    min_max_dist_sq(m, n).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{nxn_dist, Point};

    #[test]
    fn min_min_dist_disjoint() {
        // Unit squares separated by a (3, 4) offset: distance 5.
        let m = Mbr::new([0.0, 0.0], [1.0, 1.0]);
        let n = Mbr::new([4.0, 5.0], [5.0, 6.0]);
        assert_eq!(min_min_dist(&m, &n), 5.0);
    }

    #[test]
    fn min_min_dist_zero_when_overlapping() {
        let m = Mbr::new([0.0, 0.0], [4.0, 4.0]);
        let n = Mbr::new([2.0, 2.0], [6.0, 6.0]);
        assert_eq!(min_min_dist(&m, &n), 0.0);
        // Touching boundaries also give zero.
        let t = Mbr::new([4.0, 0.0], [5.0, 4.0]);
        assert_eq!(min_min_dist(&m, &t), 0.0);
    }

    #[test]
    fn max_max_dist_corner_to_corner() {
        let m = Mbr::new([0.0, 0.0], [1.0, 1.0]);
        let n = Mbr::new([4.0, 5.0], [5.0, 6.0]);
        // Farthest corners are (0,0) and (5,6).
        assert_eq!(max_max_dist_sq(&m, &n), 25.0 + 36.0);
    }

    #[test]
    fn max_max_dist_of_identical_mbrs_is_diagonal() {
        let m = Mbr::new([0.0, 0.0], [3.0, 4.0]);
        assert_eq!(max_max_dist(&m, &m), 5.0);
    }

    #[test]
    fn point_degenerate_mbrs_reduce_to_point_distance() {
        let p = Mbr::from_point(&Point::new([1.0, 2.0]));
        let q = Mbr::from_point(&Point::new([4.0, 6.0]));
        assert_eq!(min_min_dist(&p, &q), 5.0);
        assert_eq!(max_max_dist(&p, &q), 5.0);
        assert_eq!(min_max_dist(&p, &q), 5.0);
        assert_eq!(nxn_dist(&p, &q), 5.0);
    }

    #[test]
    fn figure_2a_metric_ordering() {
        // The ordering shown in the paper's Figure 2(a):
        // MINMINDIST <= MINMAXDIST, NXNDIST <= MAXMAXDIST.
        let m = Mbr::new([0.0, 4.0], [3.0, 7.0]);
        let n = Mbr::new([5.0, 0.0], [9.0, 2.0]);
        let minmin = min_min_dist(&m, &n);
        let minmax = min_max_dist(&m, &n);
        let nxn = nxn_dist(&m, &n);
        let maxmax = max_max_dist(&m, &n);
        assert!(minmin <= minmax);
        assert!(minmax <= maxmax);
        assert!(minmin <= nxn);
        assert!(nxn <= maxmax);
    }

    #[test]
    fn min_max_dist_is_not_a_sound_ann_upper_bound() {
        // The paper (§3.1.1) notes MINMAXDIST "is not suitable as a pruning
        // upper bound for ANN": it only guarantees *one* pair within the
        // bound, not a neighbor for *every* point of M. Demonstrate with a
        // concrete instance where a point of M has its nearest possible
        // neighbor in N farther than MINMAXDIST(M, N).
        let m = Mbr::new([0.0, 0.0], [10.0, 0.0]);
        let n = Mbr::new([0.0, 1.0], [0.0, 1.0]); // single point (0, 1)
        let mm = min_max_dist(&m, &n);
        // r = (10, 0) in M; its only candidate neighbor is (0, 1).
        let r = Point::new([10.0, 0.0]);
        let s = Point::new([0.0, 1.0]);
        assert!(r.dist(&s) > mm, "{} should exceed {}", r.dist(&s), mm);
        // NXNDIST, by contrast, covers the worst point of M.
        assert!(r.dist(&s) <= nxn_dist(&m, &n) + 1e-12);
    }
}
