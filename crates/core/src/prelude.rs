//! One-line import for the common case: `use ann_core::prelude::*;`.
//!
//! Brings in the unified query API ([`AnnRequest`] and friends), the
//! tracing facade, the [`SpatialIndex`] trait (needed in scope to call
//! index methods generically), and the result types every caller touches.

pub use crate::index::{collect_objects, SpatialIndex};
pub use crate::mba::{Expansion, Traversal};
pub use crate::query::{run, run_scratch, Algorithm, AnnRequest, Input, MetricChoice, NoIndex};
pub use crate::resilience::{BudgetKind, CancelToken, QueryError, QueryGuard, QueryResult};
pub use crate::stats::{AnnOutput, AnnStats, NeighborPair};
pub use crate::trace::{ExecutionReport, RecordingSink, TraceSink, Tracer};
pub use crate::wire::{
    CollectionId, ErrorCode, QueryOutcome, QuerySpec, WireError, WIRE_SCHEMA_VERSION,
};
pub use ann_store::RetryPolicy;
