//! The unified ANN query entrypoint: one request builder, one `run`.
//!
//! [`AnnRequest`] carries the fields every join algorithm shares (`k`,
//! `exclude_self`, the pruning-metric choice, the worker count, the
//! resilience limits and the [`Tracer`] hookup), while [`Algorithm`]
//! carries each method's extras as variant payload. [`run_scratch`] is the
//! only way in: it builds the guard and hands each algorithm's single
//! `run` one execution context (tracer, guard, scratch, worker count),
//! and the crate-private join driver (`exec.rs`) executes it — serially
//! when the count resolves to one worker, over the morsel engine
//! otherwise.
//!
//! GORDER lives downstream of this crate (`ann-gorder` depends on
//! `ann-core`), so it cannot appear in [`Algorithm`]; it follows the same
//! pattern with `ann_gorder::gorder_join_traced`.
//!
//! ```no_run
//! use ann_core::prelude::*;
//! # fn demo<I: SpatialIndex<2> + Sync>(ir: &I, is: &I) -> ann_core::QueryResult<()> {
//! let out = AnnRequest::new(Algorithm::mba())
//!     .k(10)
//!     .metric(MetricChoice::Nxn)
//!     .run(Input::Index(ir), Input::Index(is))?;
//! # let _ = out; Ok(()) }
//! ```
//!
//! # Resilience
//!
//! A request also carries the query-resilience knobs: a deadline, a
//! shareable [`CancelToken`], I/O and node-visit budgets, and a
//! per-request transient-fault [`RetryPolicy`]. All of them default to
//! off, in which case the traversals run their original fault-free fast
//! path. See [`crate::resilience`] for the abort taxonomy and guarantees.
//!
//! ```no_run
//! use ann_core::prelude::*;
//! use std::time::Duration;
//! # fn demo<I: SpatialIndex<2> + Sync>(ir: &I, is: &I) -> ann_core::QueryResult<()> {
//! let cancel = CancelToken::new();
//! let out = AnnRequest::new(Algorithm::mba())
//!     .deadline_in(Duration::from_secs(30))
//!     .cancel_token(cancel.clone()) // another thread may cancel() it
//!     .io_budget(50_000)
//!     .run(Input::Index(ir), Input::Index(is));
//! match out {
//!     Ok(out) => println!("{} pairs", out.results.len()),
//!     Err(QueryError::DeadlineExceeded) => println!("too slow, shed"),
//!     Err(e) => return Err(e),
//! }
//! # Ok(()) }
//! ```

use crate::exec::ExecCtx;
use crate::index::{collect_objects, SpatialIndex};
use crate::mba::{Expansion, Traversal};
use crate::node_cache::NodeCache;
use crate::resilience::{CancelToken, QueryGuard, QueryResult, RetryOverride};
use crate::scratch::QueryScratch;
use crate::stats::AnnOutput;
use crate::trace::{TraceSink, Tracer};
use crate::{bnn, hnn, mba, mnn};
use ann_geom::{MaxMaxDist, Mbr, NxnDist, Point, PruneMetric};
use ann_store::{BufferPool, PageId, RetryPolicy};
use std::time::{Duration, Instant};

/// Which pruning metric bounds the search (Figure 3(a)'s comparison).
///
/// Wire-facing (serialized by `ann_core::wire`): `#[non_exhaustive]`, so
/// downstream matches keep a wildcard arm and a future metric variant is
/// not a breaking change.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum MetricChoice {
    /// `NXNDIST` — the paper's contributed tighter bound.
    #[default]
    Nxn,
    /// `MAXMAXDIST` — the classical loose bound.
    MaxMax,
}

impl MetricChoice {
    /// The metric's display name ([`PruneMetric::NAME`]).
    pub fn name(self) -> &'static str {
        match self {
            MetricChoice::Nxn => NxnDist::NAME,
            MetricChoice::MaxMax => MaxMaxDist::NAME,
        }
    }
}

/// Which join algorithm evaluates the request, with its method-specific
/// knobs as payload. Construct via the [`Algorithm::mba`]-style helpers
/// for each method's defaults.
///
/// Wire-facing (serialized by `ann_core::wire`): `#[non_exhaustive]`, so
/// downstream matches keep a wildcard arm and the roadmap's future
/// scenarios (reverse k-NN, aggregate NN, …) are not breaking changes.
#[derive(Clone, Copy, Debug, PartialEq)]
#[non_exhaustive]
pub enum Algorithm {
    /// The paper's MBA (over MBRQTs) / RBA (over R*-trees): depth-first
    /// bi-directional traversal with Three-Stage pruning. Requires
    /// [`Input::Index`] on both sides.
    Mba {
        /// Query-side traversal order (§3.3.2).
        traversal: Traversal,
        /// Node-expansion strategy (§3.3.2).
        expansion: Expansion,
        /// Worker threads: `1` = the serial algorithm, `0` = one per
        /// core, otherwise that many workers.
        threads: usize,
    },
    /// Batched NN baseline (Zhang et al. SSDBM'04): Hilbert-grouped
    /// best-first searches over the `S` index. `R` may be plain points.
    Bnn {
        /// Query objects per Hilbert-contiguous group.
        group_size: usize,
    },
    /// Index-nested-loops baseline: one best-first kNN search per query
    /// object. Requires [`Input::Index`] on both sides.
    Mnn,
    /// Spatial-hash baseline: no index at all; both sides may be plain
    /// points. Ignores the metric choice (it prunes on exact grid-ring
    /// geometry).
    Hnn {
        /// Target average number of `S` points per grid cell.
        avg_cell_occupancy: f64,
    },
}

/// [`Algorithm::bnn`]'s group size: approximates one leaf page of queries.
const DEFAULT_BNN_GROUP_SIZE: usize = 256;

/// [`Algorithm::hnn`]'s target average number of `S` points per grid cell.
const DEFAULT_HNN_CELL_OCCUPANCY: f64 = 8.0;

impl Algorithm {
    /// MBA/RBA with the paper's defaults: depth-first, bi-directional,
    /// serial.
    pub fn mba() -> Self {
        Algorithm::Mba {
            traversal: Traversal::default(),
            expansion: Expansion::default(),
            threads: 1,
        }
    }

    /// BNN with the default group size (256 query objects).
    pub fn bnn() -> Self {
        Algorithm::Bnn {
            group_size: DEFAULT_BNN_GROUP_SIZE,
        }
    }

    /// HNN with the default occupancy (8 points per cell).
    pub fn hnn() -> Self {
        Algorithm::Hnn {
            avg_cell_occupancy: DEFAULT_HNN_CELL_OCCUPANCY,
        }
    }

    /// Short display name for reports and labels.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Mba { .. } => "mba",
            Algorithm::Bnn { .. } => "bnn",
            Algorithm::Mnn => "mnn",
            Algorithm::Hnn { .. } => "hnn",
        }
    }
}

/// One side of the join: an index, or plain points.
///
/// Algorithms that need an index on a side will panic when handed
/// [`Input::Points`] there (building an index implicitly would need a
/// pool and build configuration this API deliberately does not own).
/// Algorithms that need points will accept [`Input::Index`] and collect
/// the objects with a full traversal first — convenient, but the
/// collection's page reads happen *outside* the query's I/O accounting,
/// exactly like the bench harness's explicit materialization.
pub enum Input<'a, const D: usize, I: SpatialIndex<D>> {
    /// A disk-resident spatial index over the side's points.
    Index(&'a I),
    /// The side's `(oid, point)` pairs directly.
    Points(&'a [(u64, Point<D>)]),
}

/// Placeholder index type for point-only [`Input`] sides: an empty enum,
/// so the index paths are statically unreachable. Use as
/// `Input::<D, NoIndex>::Points(..)` when a side has no index type to
/// name.
#[derive(Clone, Copy, Debug)]
pub enum NoIndex {}

impl<const D: usize> SpatialIndex<D> for NoIndex {
    fn pool(&self) -> &BufferPool {
        match *self {}
    }
    fn root_page(&self) -> PageId {
        match *self {}
    }
    fn num_points(&self) -> u64 {
        match *self {}
    }
    fn bounds(&self) -> Mbr<D> {
        match *self {}
    }
    fn node_cache(&self) -> Option<&NodeCache<D>> {
        match *self {}
    }
}

/// A unified ANN/AkNN query: the shared knobs every algorithm honors,
/// plus the [`Algorithm`] selection and an optional [`TraceSink`].
///
/// Build with [`AnnRequest::new`] and the chained setters, then call
/// [`run`](AnnRequest::run) (or the free function [`run`]).
#[derive(Clone)]
pub struct AnnRequest<'a> {
    /// Neighbors per query object (`1` = plain ANN).
    pub k: usize,
    /// Self-join mode: skip same-oid pairs (bounds are computed for one
    /// extra neighbor internally so no query starves).
    pub exclude_self: bool,
    /// Pruning metric.
    pub metric: MetricChoice,
    /// Algorithm and its method-specific knobs.
    pub algorithm: Algorithm,
    /// Abort with [`crate::QueryError::DeadlineExceeded`] once this
    /// instant passes (checked at node-expansion granularity).
    pub deadline: Option<Instant>,
    /// Abort with [`crate::QueryError::BudgetExhausted`] after this many
    /// physical page reads attributable to the query.
    pub io_budget: Option<u64>,
    /// Abort with [`crate::QueryError::BudgetExhausted`] after this many
    /// node expansions.
    pub visit_budget: Option<u64>,
    /// Transient-fault retry policy applied to the touched pools for the
    /// duration of the query (restored afterwards, error or not).
    pub retry: Option<RetryPolicy>,
    /// Snapshot version to evaluate against, for time-travel queries over
    /// versioned indexes. The core algorithms don't interpret this — the
    /// layer that owns the index (e.g. the serving registry) pins the
    /// version and hands the resulting [`crate::ReadContext`] in as the
    /// [`Input`]; the field rides along so one request value carries the
    /// full query description across the wire and into logs.
    pub version: Option<u32>,
    /// Intra-query worker threads: `1` (the default) asks for the serial
    /// algorithm, `0` for one worker per available core, and any other
    /// value for that many workers. A count that *resolves* to one
    /// worker — `1`, or `0` on a one-core host — runs on the calling
    /// thread with the caller's scratch; more fan the join out through
    /// the morsel engine ([`crate::par`]). Output is in canonical
    /// `(r_oid, dist, s_oid)` order at *every* count, so results are
    /// byte-identical regardless of this knob. For [`Algorithm::Mba`]
    /// this overrides the variant's own `threads` knob unless left at
    /// `1` (see [`effective_threads`](AnnRequest::effective_threads)).
    pub threads: usize,
    cancel: Option<CancelToken>,
    tracer: Tracer<'a>,
}

impl<'a> AnnRequest<'a> {
    /// A request for `algorithm` with `k = 1`, no self-exclusion,
    /// NXNDIST, tracing disabled, and no resilience limits.
    pub fn new(algorithm: Algorithm) -> Self {
        AnnRequest {
            k: 1,
            exclude_self: false,
            metric: MetricChoice::default(),
            algorithm,
            deadline: None,
            io_budget: None,
            visit_budget: None,
            retry: None,
            version: None,
            threads: 1,
            cancel: None,
            tracer: Tracer::disabled(),
        }
    }

    /// Sets the intra-query worker-thread count (see the
    /// [`threads`](AnnRequest::threads) field docs; `1` = serial, `0` =
    /// one per core).
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The worker count the request asks for, before `0` is resolved to
    /// the host's cores: the request-level [`threads`](AnnRequest::threads)
    /// wins unless left at its serial default, in which case
    /// [`Algorithm::Mba`]'s own wire-level `threads` knob applies. The
    /// one statement of that precedence — the join driver resolves this
    /// value, and a server sizing a compute grant must ask for the same.
    pub fn effective_threads(&self) -> usize {
        match (self.threads, self.algorithm) {
            (1, Algorithm::Mba { threads, .. }) => threads,
            (n, _) => n,
        }
    }

    /// Pins the query to snapshot `version` of a versioned index
    /// (time-travel). Resolution happens in the index-owning layer; see
    /// the [`version`](AnnRequest::version) field docs.
    pub fn at_version(mut self, version: u32) -> Self {
        self.version = Some(version);
        self
    }

    /// Sets the neighbors-per-object count.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Sets self-join mode.
    pub fn exclude_self(mut self, exclude: bool) -> Self {
        self.exclude_self = exclude;
        self
    }

    /// Sets the pruning metric.
    pub fn metric(mut self, metric: MetricChoice) -> Self {
        self.metric = metric;
        self
    }

    /// Attaches a trace sink — the single point where observability plugs
    /// into every algorithm.
    pub fn trace(mut self, sink: &'a dyn TraceSink) -> Self {
        self.tracer = Tracer::new(sink);
        self
    }

    /// Aborts the query once `deadline` passes.
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Aborts the query `timeout` from now — sugar for
    /// [`deadline`](AnnRequest::deadline).
    pub fn deadline_in(self, timeout: Duration) -> Self {
        self.deadline(Instant::now() + timeout)
    }

    /// Attaches a cancellation token; keep a clone to cancel the running
    /// query from another thread.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps the query's physical page reads.
    pub fn io_budget(mut self, pages: u64) -> Self {
        self.io_budget = Some(pages);
        self
    }

    /// Caps the query's node expansions.
    pub fn visit_budget(mut self, nodes: u64) -> Self {
        self.visit_budget = Some(nodes);
        self
    }

    /// Overrides the transient-fault retry policy on the pools this query
    /// touches, for the duration of the query.
    pub fn retry(mut self, policy: RetryPolicy) -> Self {
        self.retry = Some(policy);
        self
    }

    /// The tracer this request will thread through the algorithm.
    pub fn tracer(&self) -> Tracer<'a> {
        self.tracer
    }

    /// Evaluates the request — method-call sugar for the free [`run`].
    pub fn run<const D: usize, IR, IS>(
        &self,
        r: Input<'_, D, IR>,
        s: Input<'_, D, IS>,
    ) -> QueryResult<AnnOutput>
    where
        IR: SpatialIndex<D> + Sync,
        IS: SpatialIndex<D> + Sync,
    {
        run(self, r, s)
    }

    /// Evaluates the request through a caller-owned [`QueryScratch`] —
    /// method-call sugar for the free [`run_scratch`].
    pub fn run_scratch<const D: usize, IR, IS>(
        &self,
        r: Input<'_, D, IR>,
        s: Input<'_, D, IS>,
        scratch: &mut QueryScratch<D>,
    ) -> QueryResult<AnnOutput>
    where
        IR: SpatialIndex<D> + Sync,
        IS: SpatialIndex<D> + Sync,
    {
        run_scratch(self, r, s, scratch)
    }
}

/// The `Debug` rendering is the server's request-log line, so it must
/// cover *every* knob — the resilience fields included (a log that hides
/// the deadline or budgets is useless for debugging shed requests). The
/// deadline renders as the duration remaining (`deadline_in`), which is
/// what a log reader actually wants; `None` means no deadline, and
/// `Some(0ns)` means already expired.
impl std::fmt::Debug for AnnRequest<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnnRequest")
            .field("k", &self.k)
            .field("exclude_self", &self.exclude_self)
            .field("metric", &self.metric)
            .field("algorithm", &self.algorithm)
            .field(
                "deadline_in",
                &self
                    .deadline
                    .map(|d| d.saturating_duration_since(Instant::now())),
            )
            .field("cancellable", &self.cancel.is_some())
            .field(
                "cancelled",
                &self.cancel.as_ref().is_some_and(|c| c.is_cancelled()),
            )
            .field("io_budget", &self.io_budget)
            .field("visit_budget", &self.visit_budget)
            .field("retry", &self.retry)
            .field("version", &self.version)
            .field("threads", &self.threads)
            .field("traced", &self.tracer.enabled())
            .finish()
    }
}

/// Evaluates `req` joining `r` against `s`: for every object on the `r`
/// side, find its `req.k` nearest neighbors on the `s` side.
///
/// Dispatches the runtime [`MetricChoice`] onto the compile-time
/// [`PruneMetric`] generics of the algorithms, so their inner loops stay
/// monomorphised.
///
/// Degenerate requests are uniform across algorithms: `k == 0` or an
/// empty side yields an empty result, and `k > |S|` yields fewer than `k`
/// neighbors per query — never a panic. Equal-distance neighbors follow
/// the canonical tie-break of [`brute_force_aknn`](crate::brute): per
/// query, ascending `(distance, s_oid)`.
///
/// # Panics
///
/// When the algorithm requires an index on a side that was passed
/// [`Input::Points`] (see [`Algorithm`] variant docs).
pub fn run<const D: usize, IR, IS>(
    req: &AnnRequest<'_>,
    r: Input<'_, D, IR>,
    s: Input<'_, D, IS>,
) -> QueryResult<AnnOutput>
where
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    run_scratch(req, r, s, &mut QueryScratch::new())
}

/// [`run`] through a caller-owned [`QueryScratch`] — **the** execution
/// path. Everything else (the free [`run`], the [`AnnRequest::run`]
/// sugar, and the serving layer's `QuerySpec` path) funnels into this one
/// function, so there is exactly one place where metric dispatch, guard
/// setup, and algorithm selection happen.
///
/// A long-lived caller (a server worker, a benchmark loop) reuses one
/// scratch arena across queries and reaches a zero-allocation steady
/// state whenever the worker count resolves to 1; results, stats, and
/// page-op order are identical to [`run`].
pub fn run_scratch<const D: usize, IR, IS>(
    req: &AnnRequest<'_>,
    r: Input<'_, D, IR>,
    s: Input<'_, D, IS>,
    scratch: &mut QueryScratch<D>,
) -> QueryResult<AnnOutput>
where
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    match req.metric {
        MetricChoice::Nxn => run_with_metric::<D, NxnDist, IR, IS>(req, r, s, scratch),
        MetricChoice::MaxMax => run_with_metric::<D, MaxMaxDist, IR, IS>(req, r, s, scratch),
    }
}

fn run_with_metric<const D: usize, M, IR, IS>(
    req: &AnnRequest<'_>,
    r: Input<'_, D, IR>,
    s: Input<'_, D, IS>,
    scratch: &mut QueryScratch<D>,
) -> QueryResult<AnnOutput>
where
    M: PruneMetric,
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    // The pools the query will touch: the guard charges their physical
    // reads against the I/O budget and the retry override applies there.
    let mut pools: Vec<&BufferPool> = Vec::with_capacity(2);
    if let Input::Index(ir) = &r {
        pools.push(ir.pool());
    }
    if let Input::Index(is) = &s {
        pools.push(is.pool());
    }
    let guard = QueryGuard::new(
        req.cancel.clone(),
        req.deadline,
        req.visit_budget,
        req.io_budget,
        &pools,
    );
    guard.preflight()?;
    let _retry = req.retry.map(|policy| RetryOverride::apply(&pools, policy));
    let ctx = ExecCtx {
        tracer: req.tracer,
        guard: &guard,
        scratch,
        threads: req.effective_threads(),
    };
    let (k, exclude_self) = (req.k, req.exclude_self);
    match req.algorithm {
        Algorithm::Mba {
            traversal,
            expansion,
            ..
        } => {
            let Input::Index(ir) = r else {
                panic!("Algorithm::Mba requires Input::Index on the r side")
            };
            let Input::Index(is) = s else {
                panic!("Algorithm::Mba requires Input::Index on the s side")
            };
            mba::run::<D, M, IR, IS>(ctx, ir, is, k, exclude_self, traversal, expansion)
        }
        Algorithm::Bnn { group_size } => {
            let Input::Index(is) = s else {
                panic!("Algorithm::Bnn requires Input::Index on the s side")
            };
            let collected;
            let r_pts = match r {
                Input::Points(p) => p,
                Input::Index(ir) => {
                    collected = collect_objects(ir)?;
                    &collected
                }
            };
            bnn::run::<D, M, IS>(ctx, r_pts, is, k, group_size, exclude_self)
        }
        Algorithm::Mnn => {
            let Input::Index(ir) = r else {
                panic!("Algorithm::Mnn requires Input::Index on the r side")
            };
            let Input::Index(is) = s else {
                panic!("Algorithm::Mnn requires Input::Index on the s side")
            };
            mnn::run::<D, M, IR, IS>(ctx, ir, is, k, exclude_self)
        }
        Algorithm::Hnn { avg_cell_occupancy } => {
            let r_collected;
            let r_pts = match r {
                Input::Points(p) => p,
                Input::Index(ir) => {
                    r_collected = collect_objects(ir)?;
                    &r_collected
                }
            };
            let s_collected;
            let s_pts = match s {
                Input::Points(p) => p,
                Input::Index(is) => {
                    s_collected = collect_objects(is)?;
                    &s_collected
                }
            };
            hnn::run(ctx, r_pts, s_pts, k, avg_cell_occupancy, exclude_self)
        }
    }
}
