//! **GORDER** (Xia, Lu, Ooi, Hu — VLDB 2004): the strongest non-indexed
//! kNN-join baseline the paper compares against.
//!
//! GORDER evaluates the kNN join in three phases:
//!
//! 1. **PCA transform** ([`pca`]): both datasets are rotated into the
//!    principal-component space of their union, concentrating variance in
//!    the leading dimensions (on correlated data like Forest Cover this is
//!    where most of the distance signal ends up).
//! 2. **Grid-order sort** ([`grid`]): a grid is superimposed on the
//!    transformed space and points are sorted lexicographically by cell
//!    coordinate ("G-order"), then written back to disk in sorted blocks.
//! 3. **Scheduled block nested-loops join** ([`join`]): outer blocks of
//!    `R` join against inner blocks of `S`, visiting inner blocks in
//!    ascending `MINMINDIST`-to-outer-block order and stopping as soon as
//!    that distance exceeds the block's pruning bound; within surviving
//!    block pairs, per-point bounds prune object tests. Each outer point
//!    keeps its candidates in an [`ann_core::scratch::KBestSet`], so equal
//!    distances resolve to the smaller `s_oid` exactly as brute force and
//!    the index-based algorithms resolve them. Distances are computed in
//!    the PCA space and can differ from brute force's in the last ulp.
//!
//! All block I/O goes through the shared [`ann_store::BufferPool`], so
//! GORDER runs are charged I/O on exactly the same terms as the
//! index-based algorithms.

// Indexing `0..D` across several same-shaped arrays is the clearest
// way to write fixed-dimensional numeric kernels; iterator zips obscure it.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod grid;
pub mod join;
pub mod pca;

pub use join::{gorder_join, gorder_join_traced, GorderConfig};
