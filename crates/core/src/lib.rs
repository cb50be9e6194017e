//! The paper's primary contribution: all-nearest-neighbor (ANN) and
//! all-k-nearest-neighbor (AkNN) query evaluation over disk-resident
//! spatial indices.
//!
//! This crate implements, from Chen & Patel (ICDE 2007):
//!
//! * the shared disk-resident node model and the [`SpatialIndex`] trait
//!   ([`node`], [`index`]) that both the MBRQT (`ann-mbrqt`) and the
//!   R*-tree (`ann-rstar`) implement;
//! * the **Local Priority Queue** with the Three-Stage (Expand / Filter /
//!   Gather) pruning heuristic ([`lpq`], paper §3.3.1, §3.3.3);
//! * the **MBA** algorithm — depth-first traversal with bi-directional
//!   node expansion (paper Algorithms 2-4) — generic over index structure
//!   (over an R*-tree it is the paper's **RBA**), pruning metric
//!   (NXNDIST vs MAXMAXDIST) and `k` ([`mba`]);
//! * the alternative traversal/expansion combinations the paper ablates in
//!   §3.3.2 ([`mba::Traversal`], [`mba::Expansion`]);
//! * the **BNN** (batched nearest neighbors, Zhang et al. SSDBM'04),
//!   **MNN** (index nested loops) and **HNN** (spatial-hash, no index)
//!   baselines ([`Algorithm::Bnn`], [`Algorithm::Mnn`], [`Algorithm::Hnn`]);
//! * brute-force ground truth for testing ([`brute`]);
//! * per-run counters ([`stats::AnnStats`]) covering distance
//!   computations, queue traffic, node expansions and buffer-pool I/O.
//!
//! # Quickstart
//!
//! ```no_run
//! use ann_core::prelude::*;
//! # fn demo<I: SpatialIndex<2> + Sync>(ir: &I, is: &I) -> QueryResult<()> {
//! // `ir` indexes the query set R, `is` the target set S.
//! let req = AnnRequest::new(Algorithm::mba());
//! let output = run(&req, Input::Index(ir), Input::Index(is))?;
//! for pair in &output.results {
//!     println!("r#{} -> s#{} at distance {}", pair.r_oid, pair.s_oid, pair.dist);
//! }
//! # Ok(()) }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Store-error paths in the traversals must propagate typed errors, not
// panic: flag any unwrap that sneaks into non-test code.
#![cfg_attr(not(test), warn(clippy::unwrap_used))]

mod bnn;
pub mod brute;
mod exec;
mod hnn;
pub mod index;
pub mod lpq;
pub mod mba;
mod mnn;
pub mod morsel;
pub mod node;
mod node_cache;
pub mod prelude;
pub mod query;
pub mod resilience;
mod scan;
pub mod scratch;
pub mod snapshot;
pub mod stats;
pub mod trace;
pub mod tree_file;
pub mod wire;

pub use index::SpatialIndex;
pub use node::{DecodedNode, Entry, Node, NodeColumns, NodeEntry, ObjectEntry};
pub use node_cache::{NodeCache, NodeCacheStats};
pub use query::{Algorithm, AnnRequest, MetricChoice};
pub use resilience::{BudgetKind, CancelToken, QueryError, QueryGuard, QueryResult};
pub use scratch::QueryScratch;
pub use snapshot::{ReadContext, VersionedHandle};
pub use stats::{AnnOutput, AnnStats, NeighborPair};
pub use trace::{ExecutionReport, RecordingSink, TraceSink, Tracer};
pub use tree_file::{TreeFile, WritableIndex};
pub use wire::{
    CollectionId, ErrorCode, JsonValue, QueryOutcome, QuerySpec, WireError, WIRE_SCHEMA_VERSION,
};
