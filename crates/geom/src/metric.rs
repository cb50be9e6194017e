//! Pluggable pruning upper-bound metrics.
//!
//! Every ANN algorithm in this workspace is generic over the upper-bound
//! metric it prunes with. Instantiating the same algorithm with
//! [`MaxMaxDist`] versus [`NxnDist`] is exactly the experiment of the
//! paper's Figure 3(a) ("BNN MAXMAXDIST" vs "BNN NXNDIST", etc.).

use crate::{max_max_dist_sq, nxn_dist_sq, Mbr};

/// An upper-bound metric `PM(M, N)` usable for ANN pruning: it must
/// guarantee that every point bounded by `m` has a nearest neighbor among
/// the points bounded by `n` within `PM(m, n)` (assuming `n` is a minimum
/// bounding rectangle of its point set).
///
/// Implementations are zero-sized strategy types so the metric choice
/// monomorphizes into the traversal's inner loops at zero runtime cost.
pub trait PruneMetric: Copy + Default + Send + Sync + 'static {
    /// Human-readable name used in benchmark output
    /// (`"NXNDIST"` / `"MAXMAXDIST"`).
    const NAME: &'static str;

    /// Squared upper bound between the query-side MBR `m` and the
    /// target-side MBR `n`.
    fn upper_sq<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64;
}

/// The paper's new `NXNDIST` metric (§3.1) — the tight upper bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NxnDist;

impl PruneMetric for NxnDist {
    const NAME: &'static str = "NXNDIST";

    #[inline]
    fn upper_sq<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
        nxn_dist_sq(m, n)
    }
}

/// The traditional `MAXMAXDIST` metric used by prior ANN work — a valid but
/// overly conservative upper bound.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MaxMaxDist;

impl PruneMetric for MaxMaxDist {
    const NAME: &'static str = "MAXMAXDIST";

    #[inline]
    fn upper_sq<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
        max_max_dist_sq(m, n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nxn_never_looser_than_maxmax() {
        let m = Mbr::new([0.0, 5.0], [4.0, 7.0]);
        let n = Mbr::new([5.0, 0.0], [9.0, 2.0]);
        assert!(NxnDist::upper_sq(&m, &n) <= MaxMaxDist::upper_sq(&m, &n));
    }

    #[test]
    fn names() {
        assert_eq!(NxnDist::NAME, "NXNDIST");
        assert_eq!(MaxMaxDist::NAME, "MAXMAXDIST");
    }
}
