//! Geometric primitives and distance metrics for all-nearest-neighbor (ANN)
//! query evaluation.
//!
//! This crate implements the geometric substrate of Chen & Patel,
//! *"Efficient Evaluation of All-Nearest-Neighbor Queries"* (ICDE 2007):
//!
//! * [`Point`] — a `D`-dimensional point with Euclidean distance.
//! * [`Mbr`] — a minimum bounding rectangle represented, as in the paper, by
//!   a lower-bound vector and an upper-bound vector.
//! * The classical MBR distance metrics used by spatial join algorithms:
//!   [`min_min_dist`], [`min_max_dist`], [`max_max_dist`].
//! * The paper's new pruning metric **NXNDIST** ([`nxn_dist`]), computed with
//!   the `O(D)` two-pass procedure of the paper's Algorithm 1, together with
//!   its building blocks [`max_dist_d`] and [`max_min_d`].
//! * [`PruneMetric`] — a zero-sized strategy type that lets every ANN
//!   algorithm in the workspace run with either NXNDIST or the traditional
//!   MAXMAXDIST upper bound (the switch that produces the paper's Figure 3a).
//! * The Hilbert curve ([`curve::hilbert`]), which groups query points in
//!   the BNN baseline.
//! * Batched SoA kernels ([`kernels`]) — the same metrics evaluated over
//!   column-major candidate sets, unrolled across candidates so every
//!   result is bit-identical to the scalar path.
//!
//! All metrics come in squared form (`*_sq`) as the primary primitive;
//! square roots are taken only at API boundaries, because ANN inner loops
//! compare distances and never need the root.
//!
//! # Example
//!
//! ```
//! use ann_geom::{Mbr, Point, min_min_dist, nxn_dist, max_max_dist};
//!
//! let m = Mbr::new([0.0, 5.0], [4.0, 7.0]);
//! let n = Mbr::new([5.0, 0.0], [9.0, 2.0]);
//!
//! // NXNDIST is a *much* tighter upper bound than MAXMAXDIST:
//! assert!(nxn_dist(&m, &n) <= max_max_dist(&m, &n));
//! // ...while still upper-bounding the true nearest-neighbor distance for
//! // every point of `m` (Lemma 3.1 in the paper):
//! assert!(min_min_dist(&m, &n) <= nxn_dist(&m, &n));
//! ```

// Indexing `0..D` across several same-shaped arrays is the clearest
// way to write fixed-dimensional numeric kernels; iterator zips obscure it.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod curve;
mod dist;
pub mod kernels;
mod mbr;
mod metric;
mod nxndist;
mod point;

pub use dist::{
    max_max_dist, max_max_dist_sq, min_max_dist, min_max_dist_sq, min_min_dist, min_min_dist_sq,
    min_min_dist_sq_within,
};
pub use kernels::{SoaMbrs, SoaPoints};
pub use mbr::Mbr;
pub use metric::{MaxMaxDist, NxnDist, PruneMetric};
pub use nxndist::{max_dist_d, max_min_d, nxn_dist, nxn_dist_sq};
pub use point::Point;
