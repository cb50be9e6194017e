//! `D`-dimensional points.

use std::fmt;
use std::ops::{Index, IndexMut};

/// A point in `D`-dimensional Euclidean space.
///
/// The dimensionality is a compile-time constant so that the hot distance
/// loops are fully unrolled for the dimensionalities the paper evaluates
/// (2, 4, 6 and 10).
///
/// Coordinates are `f64`; the paper's datasets (star positions, forest-cover
/// attributes) are real-valued.
#[derive(Clone, Copy, PartialEq)]
pub struct Point<const D: usize>(pub [f64; D]);

impl<const D: usize> Point<D> {
    /// The point at the origin.
    pub const ORIGIN: Self = Point([0.0; D]);

    /// Creates a point from its coordinate array.
    #[inline]
    pub const fn new(coords: [f64; D]) -> Self {
        Point(coords)
    }

    /// Returns the coordinate array.
    #[inline]
    pub const fn coords(&self) -> &[f64; D] {
        &self.0
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// This is the primitive used in all inner loops; compare squared
    /// distances and only take the root at API boundaries.
    #[inline]
    pub fn dist_sq(&self, other: &Self) -> f64 {
        let mut acc = 0.0;
        for d in 0..D {
            let diff = self.0[d] - other.0[d];
            acc += diff * diff;
        }
        acc
    }

    /// Euclidean distance to `other` (`DIST(p, q)` in the paper's notation).
    #[inline]
    pub fn dist(&self, other: &Self) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Distance to `other` in a single dimension `d`
    /// (`DIST_d(p, q)` in the paper's notation).
    #[inline]
    pub fn dist_d(&self, other: &Self, d: usize) -> f64 {
        (self.0[d] - other.0[d]).abs()
    }

    /// Returns `true` if every coordinate is finite (not NaN/inf).
    ///
    /// Index structures require finite coordinates; insertion APIs reject
    /// non-finite points up front rather than corrupting tree invariants.
    #[inline]
    pub fn is_finite(&self) -> bool {
        self.0.iter().all(|c| c.is_finite())
    }
}

impl<const D: usize> Default for Point<D> {
    fn default() -> Self {
        Self::ORIGIN
    }
}

impl<const D: usize> Index<usize> for Point<D> {
    type Output = f64;
    #[inline]
    fn index(&self, d: usize) -> &f64 {
        &self.0[d]
    }
}

impl<const D: usize> IndexMut<usize> for Point<D> {
    #[inline]
    fn index_mut(&mut self, d: usize) -> &mut f64 {
        &mut self.0[d]
    }
}

impl<const D: usize> From<[f64; D]> for Point<D> {
    #[inline]
    fn from(coords: [f64; D]) -> Self {
        Point(coords)
    }
}

impl<const D: usize> fmt::Debug for Point<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Point{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dist_matches_hand_computed() {
        let p = Point::new([0.0, 3.0]);
        let q = Point::new([4.0, 0.0]);
        assert_eq!(p.dist_sq(&q), 25.0);
        assert_eq!(p.dist(&q), 5.0);
    }

    #[test]
    fn dist_is_symmetric() {
        let p = Point::new([1.5, -2.0, 7.25]);
        let q = Point::new([-3.0, 0.5, 2.0]);
        assert_eq!(p.dist_sq(&q), q.dist_sq(&p));
    }

    #[test]
    fn dist_to_self_is_zero() {
        let p = Point::new([1.0, 2.0, 3.0, 4.0]);
        assert_eq!(p.dist_sq(&p), 0.0);
    }

    #[test]
    fn per_dimension_distance() {
        let p = Point::new([1.0, 10.0]);
        let q = Point::new([4.0, 2.0]);
        assert_eq!(p.dist_d(&q, 0), 3.0);
        assert_eq!(p.dist_d(&q, 1), 8.0);
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new([0.0, 1.0]).is_finite());
        assert!(!Point::new([f64::NAN, 1.0]).is_finite());
        assert!(!Point::new([0.0, f64::INFINITY]).is_finite());
    }

    #[test]
    fn indexing() {
        let mut p = Point::new([1.0, 2.0]);
        assert_eq!(p[1], 2.0);
        p[0] = 9.0;
        assert_eq!(p, Point::new([9.0, 2.0]));
    }
}
