//! Minimum bounding rectangles.

use crate::Point;
use std::fmt;

/// A `D`-dimensional minimum bounding rectangle (MBR).
///
/// Represented exactly as in the paper (§3.1.1): a lower-bound vector
/// `lo = <l_1, ..., l_D>` and an upper-bound vector `hi = <u_1, ..., u_D>`
/// with `lo[d] <= hi[d]` for every dimension.
///
/// A single point is a degenerate MBR with `lo == hi`; all metric functions
/// accept degenerate MBRs, which is how the ANN algorithms treat data
/// objects uniformly with index nodes.
#[derive(Clone, Copy, PartialEq)]
pub struct Mbr<const D: usize> {
    /// Lower bound in each dimension.
    pub lo: [f64; D],
    /// Upper bound in each dimension.
    pub hi: [f64; D],
}

impl<const D: usize> Mbr<D> {
    /// Creates an MBR from explicit bounds.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `lo[d] > hi[d]` for some dimension.
    #[inline]
    pub fn new(lo: [f64; D], hi: [f64; D]) -> Self {
        debug_assert!(
            lo.iter().zip(&hi).all(|(l, h)| l <= h),
            "invalid MBR: lo {lo:?} exceeds hi {hi:?}"
        );
        Mbr { lo, hi }
    }

    /// The degenerate MBR covering a single point.
    #[inline]
    pub fn from_point(p: &Point<D>) -> Self {
        Mbr { lo: p.0, hi: p.0 }
    }

    /// An "empty" placeholder rectangle that behaves as the identity under
    /// [`Mbr::union`] and contains nothing.
    #[inline]
    pub fn empty() -> Self {
        Mbr {
            lo: [f64::INFINITY; D],
            hi: [f64::NEG_INFINITY; D],
        }
    }

    /// Returns `true` if this is the [`Mbr::empty`] placeholder.
    #[inline]
    pub fn is_empty(&self) -> bool {
        (0..D).any(|d| self.lo[d] > self.hi[d])
    }

    /// The tightest MBR enclosing a set of points. Returns [`Mbr::empty`]
    /// for an empty iterator.
    pub fn from_points<'a, I>(points: I) -> Self
    where
        I: IntoIterator<Item = &'a Point<D>>,
    {
        let mut out = Self::empty();
        for p in points {
            out.expand_point(p);
        }
        out
    }

    /// Grows this MBR (in place) to include `p`.
    #[inline]
    pub fn expand_point(&mut self, p: &Point<D>) {
        for d in 0..D {
            self.lo[d] = self.lo[d].min(p.0[d]);
            self.hi[d] = self.hi[d].max(p.0[d]);
        }
    }

    /// Grows this MBR (in place) to include `other`.
    #[inline]
    pub fn expand(&mut self, other: &Self) {
        for d in 0..D {
            self.lo[d] = self.lo[d].min(other.lo[d]);
            self.hi[d] = self.hi[d].max(other.hi[d]);
        }
    }

    /// The tightest MBR enclosing both `self` and `other`.
    #[inline]
    pub fn union(&self, other: &Self) -> Self {
        let mut out = *self;
        out.expand(other);
        out
    }

    /// Returns `true` if `p` lies inside this MBR (boundary inclusive).
    #[inline]
    pub fn contains_point(&self, p: &Point<D>) -> bool {
        (0..D).all(|d| self.lo[d] <= p.0[d] && p.0[d] <= self.hi[d])
    }

    /// Returns `true` if `other` lies entirely inside this MBR.
    #[inline]
    pub fn contains(&self, other: &Self) -> bool {
        (0..D).all(|d| self.lo[d] <= other.lo[d] && other.hi[d] <= self.hi[d])
    }

    /// Extent (`hi - lo`) in dimension `d`.
    #[inline]
    pub fn extent(&self, d: usize) -> f64 {
        self.hi[d] - self.lo[d]
    }

    /// The center point of the rectangle.
    #[inline]
    pub fn center(&self) -> Point<D> {
        let mut c = [0.0; D];
        for d in 0..D {
            c[d] = 0.5 * (self.lo[d] + self.hi[d]);
        }
        Point(c)
    }

    /// `D`-dimensional volume (area in 2-D). Zero for degenerate MBRs.
    #[inline]
    pub fn volume(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|d| self.extent(d)).product()
    }

    /// Sum of the extents over all dimensions — the "margin" that the
    /// R*-tree split heuristic minimizes (half the surface perimeter in 2-D).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        (0..D).map(|d| self.extent(d)).sum()
    }

    /// Volume of the intersection with `other` (zero when disjoint).
    #[inline]
    pub fn intersection_volume(&self, other: &Self) -> f64 {
        let mut v = 1.0;
        for d in 0..D {
            let lo = self.lo[d].max(other.lo[d]);
            let hi = self.hi[d].min(other.hi[d]);
            if lo >= hi {
                return 0.0;
            }
            v *= hi - lo;
        }
        v
    }

    /// Squared length of the diagonal.
    #[inline]
    pub fn diagonal_sq(&self) -> f64 {
        (0..D).map(|d| self.extent(d) * self.extent(d)).sum()
    }
}

impl<const D: usize> fmt::Debug for Mbr<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Mbr[{:?}..{:?}]", self.lo, self.hi)
    }
}

impl<const D: usize> From<Point<D>> for Mbr<D> {
    fn from(p: Point<D>) -> Self {
        Mbr::from_point(&p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_of_points_is_tight() {
        let pts = [
            Point::new([1.0, 4.0]),
            Point::new([3.0, 2.0]),
            Point::new([2.0, 9.0]),
        ];
        let m = Mbr::from_points(pts.iter());
        assert_eq!(m, Mbr::new([1.0, 2.0], [3.0, 9.0]));
    }

    #[test]
    fn empty_is_union_identity() {
        let m = Mbr::new([0.0, 0.0], [2.0, 2.0]);
        assert_eq!(Mbr::empty().union(&m), m);
        assert!(Mbr::<2>::empty().is_empty());
        assert!(!m.is_empty());
    }

    #[test]
    fn from_points_empty_iterator() {
        let m = Mbr::<3>::from_points(std::iter::empty());
        assert!(m.is_empty());
        assert_eq!(m.volume(), 0.0);
    }

    #[test]
    fn containment_and_intersection() {
        let big = Mbr::new([0.0, 0.0], [10.0, 10.0]);
        let small = Mbr::new([2.0, 2.0], [4.0, 4.0]);
        let outside = Mbr::new([11.0, 0.0], [12.0, 1.0]);
        assert!(big.contains(&small));
        assert!(!small.contains(&big));
        // Sharing a point is MINMINDIST = 0.
        assert_eq!(crate::min_min_dist_sq(&big, &small), 0.0);
        assert!(crate::min_min_dist_sq(&big, &outside) > 0.0);
        assert!(big.contains_point(&Point::new([10.0, 10.0])));
        assert!(!big.contains_point(&Point::new([10.0, 10.1])));
    }

    #[test]
    fn touching_mbrs_intersect() {
        let a = Mbr::new([0.0, 0.0], [1.0, 1.0]);
        let b = Mbr::new([1.0, 0.0], [2.0, 1.0]);
        assert_eq!(crate::min_min_dist_sq(&a, &b), 0.0);
        assert_eq!(a.intersection_volume(&b), 0.0);
    }

    #[test]
    fn measures() {
        let m = Mbr::new([0.0, 0.0, 0.0], [2.0, 3.0, 4.0]);
        assert_eq!(m.volume(), 24.0);
        assert_eq!(m.margin(), 9.0);
        assert_eq!(m.diagonal_sq(), 4.0 + 9.0 + 16.0);
        assert_eq!(m.center(), Point::new([1.0, 1.5, 2.0]));
    }

    #[test]
    fn intersection_volume() {
        let a = Mbr::new([0.0, 0.0], [4.0, 4.0]);
        let b = Mbr::new([2.0, 1.0], [6.0, 3.0]);
        assert_eq!(a.intersection_volume(&b), 2.0 * 2.0);
        assert_eq!(b.intersection_volume(&a), 4.0);
        let c = Mbr::new([5.0, 5.0], [6.0, 6.0]);
        assert_eq!(a.intersection_volume(&c), 0.0);
    }

    #[test]
    fn degenerate_point_mbr() {
        let p = Point::new([3.0, 7.0]);
        let m = Mbr::from_point(&p);
        assert_eq!(m.lo, m.hi);
        assert!(m.contains_point(&p));
        assert_eq!(m.volume(), 0.0);
        assert_eq!(m.center(), p);
    }
}
