//! Zero-dependency query-execution tracing.
//!
//! The algorithms in this crate are instrumented against a run-time
//! [`TraceSink`]. A [`Tracer`] is a `Copy` handle that is either *enabled*
//! (wraps a `&dyn TraceSink`) or *disabled* (`None`); every instrumentation
//! site is guarded so that a disabled tracer performs no work at all — no
//! closures run, no allocations happen, no counters move. Disabled-tracer
//! runs are therefore decision- and counter-identical to the uninstrumented
//! code (the equivalence suite asserts this).
//!
//! Two kinds of signal flow into a sink:
//!
//! * **Spans** — coarse phases of a query ([`Phase`]): enter/exit pairs,
//!   with the buffer-pool I/O delta over the span handed to the sink at
//!   exit. The sink supplies its own wall clock, so the algorithms never
//!   touch `Instant` themselves.
//! * **Events** — typed observations ([`TraceEvent`]): node expansions
//!   (from which a sink infers per-level histograms), prune tallies by
//!   reason and metric, LPQ lifecycle summaries, BNN batch sizes, GORDER
//!   block-scheduling decisions, and bulk-build level completions.
//!
//! [`RecordingSink`] is the built-in aggregating sink: bounded memory
//! (tallies, not an event log), thread-safe, and able to render a
//! structured [`ExecutionReport`] serializable to JSON without any
//! third-party dependency. The bench `figures --trace DIR` mode writes one
//! such report per run.

use ann_store::sync::Mutex;
use ann_store::{IoSnapshot, PageId};
use std::collections::BTreeMap;
use std::fmt;
use std::time::Instant;

/// Which of the two joined sets an index-side observation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Side {
    /// The query set R (each of whose objects receives neighbors).
    R,
    /// The target set S (whose objects are the neighbor candidates).
    S,
}

impl Side {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Side::R => "r",
            Side::S => "s",
        }
    }
}

/// A coarse phase of query execution, used as the span label.
///
/// Variant order is the order phases appear in an [`ExecutionReport`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Index or grid construction (bulk build, HNN grid, BNN ordering
    /// preparation).
    Build,
    /// GORDER's PCA transform of both point sets.
    Pca,
    /// Space-ordering sort (GORDER grid-order, BNN Hilbert sort).
    Sort,
    /// The main join / traversal loop.
    Join,
    /// The whole query, from entry to returning results.
    Query,
}

impl Phase {
    /// Stable lowercase name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Build => "build",
            Phase::Pca => "pca",
            Phase::Sort => "sort",
            Phase::Join => "join",
            Phase::Query => "query",
        }
    }
}

/// Why a candidate (entry, node, or block) was discarded.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PruneReason {
    /// Rejected on first contact: MINDIST already above the LPQ bound
    /// (the Expand stage's probe check).
    OnProbe,
    /// Evicted from a queue tail after a better candidate tightened the
    /// bound (the Filter stage).
    InQueue,
    /// A parent's whole child set was rejected against an object queue, so
    /// the object was not propagated to any child (bi-directional
    /// expansion's parent-level rejection).
    ParentReject,
    /// A best-first heap terminated because its next candidate's MINDIST
    /// reached the current kNN bound (BNN / MNN / kNN cutoff).
    HeapCutoff,
    /// A GORDER inner block was skipped because its MINMINDIST to the
    /// outer block exceeded the block's pruning bound.
    BlockSkip,
    /// An HNN grid ring was not visited because nearer rings already
    /// satisfied the kNN bound.
    RingCutoff,
}

impl PruneReason {
    /// Stable snake_case name used in reports.
    pub fn name(self) -> &'static str {
        match self {
            PruneReason::OnProbe => "on_probe",
            PruneReason::InQueue => "in_queue",
            PruneReason::ParentReject => "parent_reject",
            PruneReason::HeapCutoff => "heap_cutoff",
            PruneReason::BlockSkip => "block_skip",
            PruneReason::RingCutoff => "ring_cutoff",
        }
    }
}

/// A typed observation delivered to a [`TraceSink`].
///
/// Events are aggregates or per-node/per-block records — never per-point —
/// so a traced run stays within a small constant factor of the untraced
/// one.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A traversal is starting from this root page. Seeds the sink's
    /// page-to-level inference (the root is level 0).
    Root {
        /// Which tree.
        side: Side,
        /// The root node's first page.
        page: PageId,
    },
    /// An index node was expanded (its entries enumerated). `children`
    /// lists the child *node* pages (empty for leaves) so the sink can
    /// assign them `level + 1`; `objects` counts object entries.
    NodeExpanded {
        /// Which tree.
        side: Side,
        /// The expanded node's first page.
        page: PageId,
        /// First pages of the child nodes, in entry order.
        children: Vec<PageId>,
        /// Object entries held directly by this node.
        objects: u32,
    },
    /// `count` candidates were discarded for `reason` under `metric`
    /// (a [`ann_geom::PruneMetric::NAME`] or `"euclidean"` for exact
    /// cutoffs).
    Pruned {
        /// The pruning metric in effect.
        metric: &'static str,
        /// The discard site.
        reason: PruneReason,
        /// How many candidates the site discarded (batched per call
        /// site, not one event per candidate).
        count: u64,
    },
    /// One object's Local Priority Queue was retired (its kNN satisfied
    /// or its queue exhausted).
    LpqRetired {
        /// Entries the queue ever accepted.
        enqueued: u64,
        /// Entries the Filter stage evicted from its tail.
        filtered: u64,
        /// The queue's length high-water mark.
        high_water: u32,
    },
    /// One BNN batch (a Hilbert-contiguous group) completed.
    BnnBatch {
        /// Points in the batch.
        size: u32,
        /// Heap pops (node or object) the batch's best-first search made.
        heap_pops: u64,
    },
    /// One GORDER outer block's schedule was executed.
    GorderBlock {
        /// Outer block ordinal.
        outer: u32,
        /// Inner blocks actually joined.
        scanned: u32,
        /// Inner blocks pruned off the schedule tail.
        skipped: u32,
    },
    /// One level of a bulk build finished (leaves are level 0).
    IndexLevelBuilt {
        /// Which tree is being built.
        side: Side,
        /// Tree level, counting up from the leaves.
        level: u32,
        /// Nodes the level contains.
        nodes: u64,
    },
    /// The query aborted instead of completing: cancellation, deadline,
    /// budget exhaustion, or a storage failure that survived the retry
    /// policy. Emitted once by the traversal entrypoint, after closing
    /// its open spans.
    QueryAborted {
        /// Stable abort label ([`crate::QueryError::reason`]).
        reason: &'static str,
        /// The phase the traversal was in when it aborted.
        phase: &'static str,
    },
}

/// Receiver of spans and events. Implementations must be cheap and
/// thread-safe: the workers of a parallel join share one sink.
///
/// All methods default to no-ops so a sink only implements what it needs.
pub trait TraceSink: Send + Sync {
    /// A [`Phase`] span was entered.
    fn span_enter(&self, _phase: Phase) {}
    /// A [`Phase`] span was exited; `io` is the buffer-pool counter delta
    /// over the span (all-zero for poolless phases).
    fn span_exit(&self, _phase: Phase, _io: IoSnapshot) {}
    /// A typed observation.
    fn event(&self, _event: &TraceEvent) {}
}

/// A sink that ignores everything. Useful for overhead measurements where
/// the *enabled* path must run but nothing should be retained.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullSink;

impl TraceSink for NullSink {}

/// A `Copy` handle threading an optional [`TraceSink`] through a query.
///
/// Every helper takes closures for anything that costs work (building a
/// child-page list, snapshotting pool counters) and guarantees the closure
/// never runs when the tracer is disabled.
#[derive(Clone, Copy, Default)]
pub struct Tracer<'a> {
    sink: Option<&'a dyn TraceSink>,
}

impl<'a> Tracer<'a> {
    /// A tracer delivering to `sink`.
    pub fn new(sink: &'a dyn TraceSink) -> Self {
        Tracer { sink: Some(sink) }
    }

    /// The disabled tracer: every operation is a no-op.
    pub const fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// Whether a sink is attached. Instrumentation that must tally
    /// locally (e.g. per-queue counters) guards on this.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Delivers `make()` to the sink; `make` never runs when disabled.
    #[inline]
    pub fn event(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(sink) = self.sink {
            sink.event(&make());
        }
    }

    /// Emits a [`TraceEvent::NodeExpanded`] for a node whose entry slice
    /// is `entries`. Builds nothing when disabled.
    #[inline]
    pub fn node_expanded<const D: usize>(
        &self,
        side: Side,
        page: PageId,
        entries: &[crate::node::Entry<D>],
    ) {
        if let Some(sink) = self.sink {
            let mut children = Vec::new();
            let mut objects = 0u32;
            for e in entries {
                match e {
                    crate::node::Entry::Node(n) => children.push(n.page),
                    crate::node::Entry::Object(_) => objects += 1,
                }
            }
            sink.event(&TraceEvent::NodeExpanded {
                side,
                page,
                children,
                objects,
            });
        }
    }

    /// Enters a `phase` span. Returns the enter-time I/O snapshot (taken
    /// via `io`) to be handed back to [`span_exit`](Self::span_exit);
    /// returns `None` — without calling `io` — when disabled.
    #[inline]
    pub fn span_enter(&self, phase: Phase, io: impl FnOnce() -> IoSnapshot) -> Option<IoSnapshot> {
        let sink = self.sink?;
        let at_enter = io();
        sink.span_enter(phase);
        Some(at_enter)
    }

    /// Exits a `phase` span entered with the matching
    /// [`span_enter`](Self::span_enter) token, reporting the I/O delta
    /// over the span. No-op (and `io` never runs) when disabled.
    #[inline]
    pub fn span_exit(
        &self,
        phase: Phase,
        entered: Option<IoSnapshot>,
        io: impl FnOnce() -> IoSnapshot,
    ) {
        if let Some(sink) = self.sink {
            let delta = match entered {
                Some(at_enter) => io().since(&at_enter),
                None => IoSnapshot::default(),
            };
            sink.span_exit(phase, delta);
        }
    }
}

impl std::fmt::Debug for Tracer<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

/// Per-phase aggregate kept by [`RecordingSink`].
#[derive(Debug, Default, Clone, Copy)]
struct PhaseAgg {
    wall_seconds: f64,
    enters: u64,
    exits: u64,
    io: IoSnapshot,
}

/// Mutable state behind the [`RecordingSink`] mutex.
#[derive(Debug, Default)]
struct RecState {
    open: Vec<(Phase, Instant)>,
    phases: BTreeMap<Phase, PhaseAgg>,
    /// Page -> inferred tree level (root = 0), per side.
    page_level: BTreeMap<(Side, PageId), u32>,
    /// (side, level) -> (expansions, objects enumerated).
    levels: BTreeMap<(Side, u32), (u64, u64)>,
    prunes: BTreeMap<(&'static str, PruneReason), u64>,
    lpq_retired: u64,
    lpq_enqueued: u64,
    lpq_filtered: u64,
    lpq_max_high_water: u32,
    bnn_batches: u64,
    bnn_total_size: u64,
    bnn_min_size: u32,
    bnn_max_size: u32,
    bnn_heap_pops: u64,
    gorder_outer_blocks: u64,
    gorder_scanned: u64,
    gorder_skipped: u64,
    build_levels: BTreeMap<(Side, u32), u64>,
    aborts: Vec<AbortReport>,
}

/// The built-in aggregating sink.
///
/// Keeps tallies — per-phase wall time and I/O deltas, per-level expansion
/// histograms (levels inferred from [`TraceEvent::Root`] +
/// [`TraceEvent::NodeExpanded`] parent-before-child ordering), prune
/// counts by `(metric, reason)`, LPQ / batch / block summaries — in
/// bounded memory: it never logs raw events. Thread-safe behind one
/// mutex; tracing is off the measured path, so contention is acceptable.
#[derive(Debug, Default)]
pub struct RecordingSink {
    state: Mutex<RecState>,
}

impl RecordingSink {
    /// A fresh sink with empty tallies.
    pub fn new() -> Self {
        Self::default()
    }

    /// Spans currently open (entered, not yet exited). Zero after a
    /// well-formed query.
    pub fn open_spans(&self) -> usize {
        self.state.lock().open.len()
    }

    /// Total span enters and exits seen, for balance checks.
    pub fn span_counts(&self) -> (u64, u64) {
        let st = self.state.lock();
        let enters = st.phases.values().map(|a| a.enters).sum();
        let exits = st.phases.values().map(|a| a.exits).sum();
        (enters, exits)
    }

    /// Renders everything recorded so far as an [`ExecutionReport`]
    /// labeled `label`. Does not reset the sink.
    pub fn report(&self, label: &str) -> ExecutionReport {
        let st = self.state.lock();
        ExecutionReport {
            label: label.to_string(),
            phases: st
                .phases
                .iter()
                .map(|(p, a)| PhaseReport {
                    phase: p.name(),
                    wall_seconds: a.wall_seconds,
                    enters: a.enters,
                    exits: a.exits,
                    io: a.io,
                })
                .collect(),
            levels: st
                .levels
                .iter()
                .map(|(&(side, level), &(expansions, objects))| LevelReport {
                    side: side.name(),
                    level,
                    expansions,
                    objects,
                })
                .collect(),
            prunes: st
                .prunes
                .iter()
                .map(|(&(metric, reason), &count)| PruneReport {
                    metric,
                    reason: reason.name(),
                    count,
                })
                .collect(),
            lpq: LpqReport {
                retired: st.lpq_retired,
                enqueued: st.lpq_enqueued,
                filtered: st.lpq_filtered,
                max_high_water: st.lpq_max_high_water,
            },
            bnn: BatchReport {
                batches: st.bnn_batches,
                total_size: st.bnn_total_size,
                min_size: if st.bnn_batches == 0 {
                    0
                } else {
                    st.bnn_min_size
                },
                max_size: st.bnn_max_size,
                heap_pops: st.bnn_heap_pops,
            },
            gorder: BlockReport {
                outer_blocks: st.gorder_outer_blocks,
                inner_scanned: st.gorder_scanned,
                inner_skipped: st.gorder_skipped,
            },
            build_levels: st
                .build_levels
                .iter()
                .map(|(&(side, level), &nodes)| BuildLevelReport {
                    side: side.name(),
                    level,
                    nodes,
                })
                .collect(),
            aborts: st.aborts.clone(),
        }
    }
}

impl TraceSink for RecordingSink {
    fn span_enter(&self, phase: Phase) {
        let mut st = self.state.lock();
        st.open.push((phase, Instant::now()));
        st.phases.entry(phase).or_default().enters += 1;
    }

    fn span_exit(&self, phase: Phase, io: IoSnapshot) {
        let mut st = self.state.lock();
        // Close the innermost open span of this phase; tolerate (but
        // record) an unbalanced exit so tests can detect it.
        let wall = st
            .open
            .iter()
            .rposition(|(p, _)| *p == phase)
            .map(|i| st.open.remove(i).1.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        let agg = st.phases.entry(phase).or_default();
        agg.exits += 1;
        agg.wall_seconds += wall;
        agg.io = agg.io.merge(&io);
    }

    fn event(&self, event: &TraceEvent) {
        let mut st = self.state.lock();
        match event {
            TraceEvent::Root { side, page } => {
                st.page_level.insert((*side, *page), 0);
            }
            TraceEvent::NodeExpanded {
                side,
                page,
                children,
                objects,
            } => {
                let level = st.page_level.get(&(*side, *page)).copied().unwrap_or(0);
                let slot = st.levels.entry((*side, level)).or_insert((0, 0));
                slot.0 += 1;
                slot.1 += u64::from(*objects);
                for &child in children {
                    st.page_level.insert((*side, child), level + 1);
                }
            }
            TraceEvent::Pruned {
                metric,
                reason,
                count,
            } => {
                *st.prunes.entry((metric, *reason)).or_insert(0) += count;
            }
            TraceEvent::LpqRetired {
                enqueued,
                filtered,
                high_water,
            } => {
                st.lpq_retired += 1;
                st.lpq_enqueued += enqueued;
                st.lpq_filtered += filtered;
                st.lpq_max_high_water = st.lpq_max_high_water.max(*high_water);
            }
            TraceEvent::BnnBatch { size, heap_pops } => {
                if st.bnn_batches == 0 {
                    st.bnn_min_size = *size;
                    st.bnn_max_size = *size;
                } else {
                    st.bnn_min_size = st.bnn_min_size.min(*size);
                    st.bnn_max_size = st.bnn_max_size.max(*size);
                }
                st.bnn_batches += 1;
                st.bnn_total_size += u64::from(*size);
                st.bnn_heap_pops += heap_pops;
            }
            TraceEvent::GorderBlock {
                outer: _,
                scanned,
                skipped,
            } => {
                st.gorder_outer_blocks += 1;
                st.gorder_scanned += u64::from(*scanned);
                st.gorder_skipped += u64::from(*skipped);
            }
            TraceEvent::IndexLevelBuilt { side, level, nodes } => {
                *st.build_levels.entry((*side, *level)).or_insert(0) += nodes;
            }
            TraceEvent::QueryAborted { reason, phase } => {
                st.aborts.push(AbortReport { reason, phase });
            }
        }
    }
}

/// One phase row of an [`ExecutionReport`].
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// Phase name ([`Phase::name`]).
    pub phase: &'static str,
    /// Total wall-clock seconds across this phase's spans.
    pub wall_seconds: f64,
    /// Spans entered.
    pub enters: u64,
    /// Spans exited.
    pub exits: u64,
    /// Buffer-pool counter delta summed over this phase's spans.
    pub io: IoSnapshot,
}

/// Per-level traversal tallies (root is level 0).
#[derive(Clone, Debug)]
pub struct LevelReport {
    /// `"r"` or `"s"`.
    pub side: &'static str,
    /// Tree level, root = 0.
    pub level: u32,
    /// Nodes of this level expanded.
    pub expansions: u64,
    /// Object entries enumerated while expanding this level.
    pub objects: u64,
}

/// Prune tallies for one `(metric, reason)` pair.
#[derive(Clone, Debug)]
pub struct PruneReport {
    /// Pruning metric name (`"NXNDIST"`, `"MAXMAXDIST"`, `"euclidean"`).
    pub metric: &'static str,
    /// Discard-site name ([`PruneReason::name`]).
    pub reason: &'static str,
    /// Candidates discarded.
    pub count: u64,
}

/// Aggregated Local-Priority-Queue lifecycle over a run.
#[derive(Clone, Debug, Default)]
pub struct LpqReport {
    /// Queues retired.
    pub retired: u64,
    /// Entries accepted across all queues.
    pub enqueued: u64,
    /// Entries the Filter stage evicted across all queues.
    pub filtered: u64,
    /// Largest queue length any queue reached.
    pub max_high_water: u32,
}

/// Aggregated BNN batch shape over a run (all-zero for other methods).
#[derive(Clone, Debug, Default)]
pub struct BatchReport {
    /// Batches executed.
    pub batches: u64,
    /// Points across all batches.
    pub total_size: u64,
    /// Smallest batch.
    pub min_size: u32,
    /// Largest batch.
    pub max_size: u32,
    /// Best-first heap pops across all batches.
    pub heap_pops: u64,
}

/// Aggregated GORDER block scheduling over a run (all-zero for other
/// methods).
#[derive(Clone, Debug, Default)]
pub struct BlockReport {
    /// Outer blocks processed.
    pub outer_blocks: u64,
    /// Inner blocks joined.
    pub inner_scanned: u64,
    /// Inner blocks pruned off schedule tails.
    pub inner_skipped: u64,
}

/// One recorded query abort ([`TraceEvent::QueryAborted`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbortReport {
    /// Stable abort label ([`crate::QueryError::reason`]).
    pub reason: &'static str,
    /// The phase the traversal was in when it aborted.
    pub phase: &'static str,
}

/// Nodes written per level during a traced bulk build.
#[derive(Clone, Debug)]
pub struct BuildLevelReport {
    /// `"r"` or `"s"`.
    pub side: &'static str,
    /// Tree level counting up from the leaves (leaves = 0).
    pub level: u32,
    /// Nodes the level contains.
    pub nodes: u64,
}

/// The structured result of one traced query: per-phase wall times and
/// I/O, per-level expansion histograms, and the pruning-effectiveness
/// breakdown. Rendered by [`RecordingSink::report`], serialized by
/// [`ExecutionReport::to_json`].
#[derive(Clone, Debug)]
pub struct ExecutionReport {
    /// Caller-chosen run label (method, metric, k, workload...).
    pub label: String,
    /// One row per phase observed, in [`Phase`] order.
    pub phases: Vec<PhaseReport>,
    /// Traversal histogram rows, ordered by (side, level).
    pub levels: Vec<LevelReport>,
    /// Prune tallies, ordered by (metric, reason).
    pub prunes: Vec<PruneReport>,
    /// LPQ lifecycle aggregate.
    pub lpq: LpqReport,
    /// BNN batch aggregate.
    pub bnn: BatchReport,
    /// GORDER block aggregate.
    pub gorder: BlockReport,
    /// Bulk-build level rows, ordered by (side, level).
    pub build_levels: Vec<BuildLevelReport>,
    /// Query aborts observed, in occurrence order (empty for completed
    /// runs).
    pub aborts: Vec<AbortReport>,
}

/// Escapes a string for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Writes a float as a JSON number (`null` for non-finite values).
/// `Display` for a finite f64 is the shortest decimal string that parses
/// back to the same bits (never an exponent), so a JSON round-trip
/// through this is lossless; a whole value prints without a fraction and
/// gets `.0` appended so it stays a float on the wire.
pub(crate) fn write_json_num(out: &mut impl fmt::Write, f: f64) -> fmt::Result {
    if !f.is_finite() {
        out.write_str("null")
    } else if f.fract() == 0.0 {
        write!(out, "{f}.0")
    } else {
        write!(out, "{f}")
    }
}

/// [`write_json_num`] into a fresh `String`.
pub(crate) fn json_num(f: f64) -> String {
    let mut s = String::new();
    write_json_num(&mut s, f).expect("writing to a String cannot fail");
    s
}

pub(crate) fn json_io(io: &IoSnapshot) -> String {
    format!(
        "{{\"logical_reads\":{},\"physical_reads\":{},\"physical_writes\":{},\
         \"pool_hits\":{},\"pool_misses\":{},\"evictions\":{},\"retries\":{},\
         \"checksum_failures\":{},\"lock_contention\":{},\
         \"quarantined_pages\":{},\"quarantine_hits\":{}}}",
        io.logical_reads,
        io.physical_reads,
        io.physical_writes,
        io.pool_hits,
        io.pool_misses,
        io.evictions,
        io.retries,
        io.checksum_failures,
        io.lock_contention,
        io.quarantined_pages,
        io.quarantine_hits,
    )
}

impl ExecutionReport {
    /// Serializes the report to a self-contained JSON object. Hand-rolled
    /// so the tracing layer stays dependency-free; output is deterministic
    /// for fixed tallies.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str(&format!("{{\"label\":\"{}\",", json_escape(&self.label)));

        out.push_str("\"phases\":[");
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"phase\":\"{}\",\"wall_seconds\":{},\"enters\":{},\"exits\":{},\"io\":{}}}",
                p.phase,
                json_num(p.wall_seconds),
                p.enters,
                p.exits,
                json_io(&p.io),
            ));
        }
        out.push_str("],");

        out.push_str("\"levels\":[");
        for (i, l) in self.levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"side\":\"{}\",\"level\":{},\"expansions\":{},\"objects\":{}}}",
                l.side, l.level, l.expansions, l.objects,
            ));
        }
        out.push_str("],");

        out.push_str("\"prunes\":[");
        for (i, p) in self.prunes.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"metric\":\"{}\",\"reason\":\"{}\",\"count\":{}}}",
                json_escape(p.metric),
                p.reason,
                p.count,
            ));
        }
        out.push_str("],");

        out.push_str(&format!(
            "\"lpq\":{{\"retired\":{},\"enqueued\":{},\"filtered\":{},\"max_high_water\":{}}},",
            self.lpq.retired, self.lpq.enqueued, self.lpq.filtered, self.lpq.max_high_water,
        ));
        out.push_str(&format!(
            "\"bnn\":{{\"batches\":{},\"total_size\":{},\"min_size\":{},\"max_size\":{},\
             \"heap_pops\":{}}},",
            self.bnn.batches,
            self.bnn.total_size,
            self.bnn.min_size,
            self.bnn.max_size,
            self.bnn.heap_pops,
        ));
        out.push_str(&format!(
            "\"gorder\":{{\"outer_blocks\":{},\"inner_scanned\":{},\"inner_skipped\":{}}},",
            self.gorder.outer_blocks, self.gorder.inner_scanned, self.gorder.inner_skipped,
        ));

        out.push_str("\"build_levels\":[");
        for (i, b) in self.build_levels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"side\":\"{}\",\"level\":{},\"nodes\":{}}}",
                b.side, b.level, b.nodes,
            ));
        }
        out.push_str("],");

        out.push_str("\"aborts\":[");
        for (i, a) in self.aborts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"reason\":\"{}\",\"phase\":\"{}\"}}",
                a.reason, a.phase,
            ));
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_runs_no_closures() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        t.event(|| unreachable!("event closure ran on a disabled tracer"));
        let tok = t.span_enter(Phase::Query, || unreachable!("enter io closure ran"));
        assert!(tok.is_none());
        t.span_exit(Phase::Query, tok, || unreachable!("exit io closure ran"));
    }

    #[test]
    fn recording_sink_balances_spans_and_times_them() {
        let sink = RecordingSink::new();
        let t = Tracer::new(&sink);
        assert!(t.enabled());
        let q = t.span_enter(Phase::Query, IoSnapshot::default);
        let j = t.span_enter(Phase::Join, IoSnapshot::default);
        assert_eq!(sink.open_spans(), 2);
        t.span_exit(Phase::Join, j, IoSnapshot::default);
        t.span_exit(Phase::Query, q, IoSnapshot::default);
        assert_eq!(sink.open_spans(), 0);
        let (enters, exits) = sink.span_counts();
        assert_eq!(enters, 2);
        assert_eq!(exits, 2);
        let report = sink.report("spans");
        assert_eq!(report.phases.len(), 2);
        for p in &report.phases {
            assert_eq!(p.enters, 1);
            assert_eq!(p.exits, 1);
            assert!(p.wall_seconds >= 0.0);
        }
    }

    #[test]
    fn span_io_delta_is_reported() {
        let sink = RecordingSink::new();
        let t = Tracer::new(&sink);
        let before = IoSnapshot {
            logical_reads: 10,
            pool_hits: 7,
            pool_misses: 3,
            physical_reads: 3,
            ..Default::default()
        };
        let after = IoSnapshot {
            logical_reads: 25,
            pool_hits: 20,
            pool_misses: 5,
            physical_reads: 5,
            evictions: 2,
            ..Default::default()
        };
        let tok = t.span_enter(Phase::Join, || before);
        t.span_exit(Phase::Join, tok, || after);
        let report = sink.report("io");
        let join = &report.phases[0];
        assert_eq!(join.io.logical_reads, 15);
        assert_eq!(join.io.pool_hits, 13);
        assert_eq!(join.io.evictions, 2);
    }

    #[test]
    fn level_inference_from_expansion_order() {
        let sink = RecordingSink::new();
        let t = Tracer::new(&sink);
        t.event(|| TraceEvent::Root {
            side: Side::R,
            page: 1,
        });
        t.event(|| TraceEvent::NodeExpanded {
            side: Side::R,
            page: 1,
            children: vec![2, 3],
            objects: 0,
        });
        t.event(|| TraceEvent::NodeExpanded {
            side: Side::R,
            page: 2,
            children: vec![],
            objects: 8,
        });
        t.event(|| TraceEvent::NodeExpanded {
            side: Side::R,
            page: 3,
            children: vec![],
            objects: 5,
        });
        // A different side with the same page numbers stays separate.
        t.event(|| TraceEvent::Root {
            side: Side::S,
            page: 1,
        });
        t.event(|| TraceEvent::NodeExpanded {
            side: Side::S,
            page: 1,
            children: vec![],
            objects: 2,
        });
        let report = sink.report("levels");
        assert_eq!(report.levels.len(), 3);
        let r0 = &report.levels[0];
        assert_eq!(
            (r0.side, r0.level, r0.expansions, r0.objects),
            ("r", 0, 1, 0)
        );
        let r1 = &report.levels[1];
        assert_eq!(
            (r1.side, r1.level, r1.expansions, r1.objects),
            ("r", 1, 2, 13)
        );
        let s0 = &report.levels[2];
        assert_eq!(
            (s0.side, s0.level, s0.expansions, s0.objects),
            ("s", 0, 1, 2)
        );
    }

    #[test]
    fn prune_and_lpq_and_batch_tallies() {
        let sink = RecordingSink::new();
        let t = Tracer::new(&sink);
        t.event(|| TraceEvent::Pruned {
            metric: "NXNDIST",
            reason: PruneReason::OnProbe,
            count: 4,
        });
        t.event(|| TraceEvent::Pruned {
            metric: "NXNDIST",
            reason: PruneReason::OnProbe,
            count: 6,
        });
        t.event(|| TraceEvent::Pruned {
            metric: "NXNDIST",
            reason: PruneReason::InQueue,
            count: 1,
        });
        t.event(|| TraceEvent::LpqRetired {
            enqueued: 12,
            filtered: 3,
            high_water: 7,
        });
        t.event(|| TraceEvent::LpqRetired {
            enqueued: 2,
            filtered: 0,
            high_water: 2,
        });
        t.event(|| TraceEvent::BnnBatch {
            size: 256,
            heap_pops: 40,
        });
        t.event(|| TraceEvent::BnnBatch {
            size: 100,
            heap_pops: 25,
        });
        t.event(|| TraceEvent::GorderBlock {
            outer: 0,
            scanned: 3,
            skipped: 5,
        });
        let report = sink.report("tallies");
        assert_eq!(report.prunes.len(), 2);
        let on_probe = report
            .prunes
            .iter()
            .find(|p| p.reason == "on_probe")
            .unwrap();
        assert_eq!(on_probe.count, 10);
        assert_eq!(report.lpq.retired, 2);
        assert_eq!(report.lpq.enqueued, 14);
        assert_eq!(report.lpq.filtered, 3);
        assert_eq!(report.lpq.max_high_water, 7);
        assert_eq!(report.bnn.batches, 2);
        assert_eq!(report.bnn.min_size, 100);
        assert_eq!(report.bnn.max_size, 256);
        assert_eq!(report.bnn.heap_pops, 65);
        assert_eq!(report.gorder.outer_blocks, 1);
        assert_eq!(report.gorder.inner_scanned, 3);
        assert_eq!(report.gorder.inner_skipped, 5);
    }

    #[test]
    fn json_is_well_formed() {
        let sink = RecordingSink::new();
        let t = Tracer::new(&sink);
        let tok = t.span_enter(Phase::Query, IoSnapshot::default);
        t.event(|| TraceEvent::Root {
            side: Side::R,
            page: 9,
        });
        t.event(|| TraceEvent::NodeExpanded {
            side: Side::R,
            page: 9,
            children: vec![],
            objects: 3,
        });
        t.event(|| TraceEvent::Pruned {
            metric: "MAXMAXDIST",
            reason: PruneReason::HeapCutoff,
            count: 2,
        });
        t.span_exit(Phase::Query, tok, IoSnapshot::default);
        let json = sink.report("a \"quoted\" label\n").to_json();
        // Structural smoke checks (no JSON parser in this crate): balanced
        // braces/brackets, escaped label, all sections present.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces in {json}"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"label\":\"a \\\"quoted\\\" label\\n\""));
        for key in [
            "\"phases\":[",
            "\"levels\":[",
            "\"prunes\":[",
            "\"lpq\":{",
            "\"bnn\":{",
            "\"gorder\":{",
            "\"build_levels\":[",
            "\"wall_seconds\":",
            "\"heap_cutoff\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
    }

    #[test]
    fn json_num_formats() {
        assert_eq!(json_num(0.0), "0.0");
        assert_eq!(json_num(1.5), "1.5");
        assert_eq!(json_num(f64::NAN), "null");
        assert_eq!(json_num(f64::INFINITY), "null");
        assert_eq!(json_num(-0.0), "-0.0");
        assert_eq!(json_num(9007199254740992.0), "9007199254740992.0");
        // Every rendering is a JSON float that reads back bit for bit.
        for f in [0.1, -2.5e-7, 1e300, f64::MAX, f64::MIN_POSITIVE, 5e-324] {
            let s = json_num(f);
            assert!(s.contains('.') && !s.contains(['e', 'E']), "{s}");
            assert_eq!(s.parse::<f64>().map(f64::to_bits), Ok(f.to_bits()));
        }
    }
}
