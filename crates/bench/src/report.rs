//! Table formatting and JSON dumping for experiment results.

use crate::harness::Measurement;
use ann_core::wire::JsonValue;
use std::path::Path;

/// A value that becomes one JSON value in a report file.
pub trait ToJson {
    /// The value as JSON.
    fn to_json(&self) -> JsonValue;
}

impl ToJson for String {
    fn to_json(&self) -> JsonValue {
        JsonValue::Str(self.clone())
    }
}

impl ToJson for bool {
    fn to_json(&self) -> JsonValue {
        JsonValue::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> JsonValue {
        JsonValue::Num(*self)
    }
}

macro_rules! int_to_json {
    ($($ty:ty),+) => {$(
        impl ToJson for $ty {
            fn to_json(&self) -> JsonValue {
                JsonValue::Int(*self as u64)
            }
        }
    )+};
}
int_to_json!(u32, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> JsonValue {
        self.as_ref().map_or(JsonValue::Null, T::to_json)
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> JsonValue {
        JsonValue::Arr(self.iter().map(T::to_json).collect())
    }
}

/// Implements [`ToJson`] for a struct as an object of the listed fields,
/// in the listed order, keyed by field name. The list must name every
/// field: the destructuring pattern has no `..`, so a field added to the
/// struct and forgotten here is a compile error.
macro_rules! json_fields {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::report::ToJson for $ty {
            fn to_json(&self) -> ann_core::wire::JsonValue {
                let $ty { $($field),+ } = self;
                ann_core::wire::JsonValue::Obj(vec![
                    $((stringify!($field).to_string(), $crate::report::ToJson::to_json($field))),+
                ])
            }
        }
    };
}
pub(crate) use json_fields;

/// A regenerated figure or `BENCH_*` study: a text table for the
/// terminal and a JSON document for `results/`.
pub trait Report: ToJson {
    /// Output id — also the JSON file stem.
    fn id(&self) -> &str;

    /// Renders the report as an aligned text table.
    fn render(&self) -> String;

    /// Writes the report as JSON under `dir/<id>.json` (for EXPERIMENTS.md
    /// bookkeeping). Creates the directory when missing.
    fn write_json(&self, dir: &Path) -> std::io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("{}.json", self.id()));
        std::fs::write(path, self.to_json().to_string())
    }
}

/// A complete regenerated figure: its id, workload description, and rows.
#[derive(Clone, Debug)]
pub struct Figure {
    /// Paper figure id (e.g. `"fig3a"`).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// One measurement per bar/series point; `group` labels the x-position
    /// (e.g. buffer size, dimensionality, k).
    pub rows: Vec<FigureRow>,
}

json_fields!(Figure { id, workload, rows });

/// One bar / series point.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// X-axis group (dataset, buffer size, dimensionality, k, ...).
    pub group: String,
    /// The measurement; its fields sit beside `group` in the JSON row.
    pub measurement: Measurement,
}

impl ToJson for FigureRow {
    fn to_json(&self) -> JsonValue {
        let mut fields = vec![("group".to_string(), self.group.to_json())];
        if let JsonValue::Obj(measurement) = self.measurement.to_json() {
            fields.extend(measurement);
        }
        JsonValue::Obj(fields)
    }
}

impl Figure {
    /// Creates an empty figure.
    pub fn new(id: &str, workload: &str) -> Self {
        Figure {
            id: id.to_string(),
            workload: workload.to_string(),
            rows: Vec::new(),
        }
    }

    /// Adds one measurement under an x-axis group.
    pub fn push(&mut self, group: &str, m: Measurement) {
        self.rows.push(FigureRow {
            group: group.to_string(),
            measurement: m,
        });
    }
}

impl Report for Figure {
    fn id(&self) -> &str {
        &self.id
    }

    /// The same rows/series the paper plots.
    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<16} {:<18} {:>9} {:>9} {:>9} {:>10} {:>12} {:>10}\n",
            "group", "method", "cpu(s)", "io(s)", "total(s)", "pages", "dist-comps", "enqueued"
        ));
        for row in &self.rows {
            let m = &row.measurement;
            out.push_str(&format!(
                "{:<16} {:<18} {:>9.3} {:>9.3} {:>9.3} {:>10} {:>12} {:>10}\n",
                row.group,
                m.label,
                m.cpu_seconds,
                m.io_seconds,
                m.total_seconds(),
                m.physical_pages,
                m.distance_computations,
                m.enqueued,
            ));
        }
        out
    }
}

/// One row of the thread-scaling study (`BENCH_parallel_scaling`).
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Pool variant the row ran against: `"sharded"` or `"single-mutex"`.
    pub pool: String,
    /// Worker threads requested (`AnnRequest::threads`).
    pub threads: usize,
    /// Wall-clock seconds for the join.
    pub wall_seconds: f64,
    /// Wall(1 thread, same pool) / wall(this row).
    pub speedup_vs_one_thread: f64,
    /// Wall(single-mutex, same threads) / wall(this row); `None` on the
    /// single-mutex rows themselves.
    pub speedup_vs_single_mutex: Option<f64>,
    /// Buffer-pool accesses served by a resident frame.
    pub pool_hits: u64,
    /// Buffer-pool accesses that faulted the page in.
    pub pool_misses: u64,
    /// Shard-lock acquisitions that found the lock held.
    pub lock_contention: u64,
    /// Decoded-node cache hits across both trees.
    pub node_cache_hits: u64,
    /// Decoded-node cache misses across both trees.
    pub node_cache_misses: u64,
    /// Result pairs produced (sanity: identical on every row).
    pub result_pairs: usize,
}

json_fields!(ScalingRow {
    pool,
    threads,
    wall_seconds,
    speedup_vs_one_thread,
    speedup_vs_single_mutex,
    pool_hits,
    pool_misses,
    lock_contention,
    node_cache_hits,
    node_cache_misses,
    result_pairs,
});

/// The thread-scaling figure: sharded pool vs a single-mutex pool across
/// worker-thread counts, with the concurrency counters that explain the
/// difference.
#[derive(Clone, Debug)]
pub struct ScalingReport {
    /// Output id (`BENCH_parallel_scaling` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Cores the host reported; speedup flattens beyond this.
    pub host_cores: usize,
    /// One row per (pool variant, thread count).
    pub rows: Vec<ScalingRow>,
}

json_fields!(ScalingReport {
    id,
    workload,
    host_cores,
    rows
});

impl Report for ScalingReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<14} {:>7} {:>9} {:>8} {:>9} {:>10} {:>9} {:>10} {:>9} {:>9}\n",
            "pool",
            "threads",
            "wall(s)",
            "x1T",
            "x1mutex",
            "hits",
            "misses",
            "contention",
            "nc-hits",
            "nc-miss"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<14} {:>7} {:>9.3} {:>8.2} {:>9} {:>10} {:>9} {:>10} {:>9} {:>9}\n",
                r.pool,
                r.threads,
                r.wall_seconds,
                r.speedup_vs_one_thread,
                r.speedup_vs_single_mutex
                    .map_or("-".to_string(), |s| format!("{s:.2}")),
                r.pool_hits,
                r.pool_misses,
                r.lock_contention,
                r.node_cache_hits,
                r.node_cache_misses,
            ));
        }
        out
    }
}

/// One row of the batched-kernel throughput study (`BENCH_kernels`).
#[derive(Clone, Debug)]
pub struct KernelRow {
    /// Pipeline measured: `"point-leaf-scan"` (point→candidate-points
    /// distances, the HNN/BNN/brute inner loop) or `"mbr-probe"`
    /// (MINMINDIST + NXNDIST per candidate MBR, the tree-probe inner
    /// loop).
    pub kernel: String,
    /// Dimensionality of the candidate set.
    pub dims: usize,
    /// `"cold"` (candidate columns evicted from cache before the timed
    /// pass) or `"warm"` (averaged over repeat passes on resident data).
    pub cache: String,
    /// Candidate entries scanned per pass.
    pub candidates: usize,
    /// Seconds per pass over the AoS scalar loop.
    pub scalar_seconds: f64,
    /// Seconds per pass over the SoA batched kernels.
    pub batched_seconds: f64,
    /// Scalar throughput in million candidate entries per second.
    pub scalar_melems_per_sec: f64,
    /// Batched throughput in million candidate entries per second.
    pub batched_melems_per_sec: f64,
    /// `scalar_seconds / batched_seconds`.
    pub speedup: f64,
    /// Whether the batched outputs matched the scalar outputs
    /// bit-for-bit on this row's data (must always be `true`).
    pub bit_identical: bool,
}

json_fields!(KernelRow {
    kernel,
    dims,
    cache,
    candidates,
    scalar_seconds,
    batched_seconds,
    scalar_melems_per_sec,
    batched_melems_per_sec,
    speedup,
    bit_identical,
});

/// The batched-kernel throughput figure: the scalar per-entry loops the
/// algorithms used before the SoA kernels landed, against the batched
/// kernels, on the same candidate sets — cold and warm cache, across
/// dimensionalities. Emitted as `BENCH_kernels.json`.
#[derive(Clone, Debug)]
pub struct KernelsReport {
    /// Output id (`BENCH_kernels` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Unroll width of the batched kernels ([`ann_geom::kernels::LANES`]).
    pub lanes: usize,
    /// One row per (kernel, dims, cache state).
    pub rows: Vec<KernelRow>,
}

json_fields!(KernelsReport {
    id,
    workload,
    lanes,
    rows
});

impl Report for KernelsReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<16} {:>4} {:>5} {:>10} {:>12} {:>12} {:>10} {:>10} {:>8} {:>6}\n",
            "kernel",
            "dims",
            "cache",
            "candidates",
            "scalar(s)",
            "batched(s)",
            "scalar-Me/s",
            "batch-Me/s",
            "speedup",
            "bits"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<16} {:>4} {:>5} {:>10} {:>12.6} {:>12.6} {:>10.1} {:>10.1} {:>7.2}x {:>6}\n",
                r.kernel,
                r.dims,
                r.cache,
                r.candidates,
                r.scalar_seconds,
                r.batched_seconds,
                r.scalar_melems_per_sec,
                r.batched_melems_per_sec,
                r.speedup,
                if r.bit_identical { "ok" } else { "DIFF" },
            ));
        }
        out
    }
}

/// One row of the resilience-overhead study (`BENCH_robustness`).
#[derive(Clone, Debug)]
pub struct RobustnessRow {
    /// Algorithm variant measured (e.g. `"mba"`, `"mba-2t"`, `"bnn"`).
    pub algorithm: String,
    /// Points per side of the self-join.
    pub n: usize,
    /// Timed repetitions each figure is averaged over.
    pub runs: usize,
    /// Seconds per run through the unified entrypoint with no resilience
    /// limits configured (the guard reduces to one branch per expansion).
    pub baseline_seconds: f64,
    /// Seconds per run with every resilience feature armed but
    /// non-firing: a live cancel token, a far deadline, generous visit
    /// and I/O budgets, and a per-request retry override.
    pub armed_seconds: f64,
    /// `(armed_seconds / baseline_seconds - 1) * 100`.
    pub overhead_percent: f64,
    /// Whether the armed run's results and work counters (I/O block
    /// excluded) matched the baseline exactly (must always be `true`).
    pub decision_identical: bool,
}

json_fields!(RobustnessRow {
    algorithm,
    n,
    runs,
    baseline_seconds,
    armed_seconds,
    overhead_percent,
    decision_identical,
});

/// The resilience fault-free-overhead figure: every pool-backed variant
/// (plus HNN) through the unified entrypoint, ungoverned vs fully armed,
/// on the same warm indexes. Emitted as `BENCH_robustness.json`.
#[derive(Clone, Debug)]
pub struct RobustnessReport {
    /// Output id (`BENCH_robustness` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Largest `overhead_percent` across the rows (the gated headline).
    pub max_overhead_percent: f64,
    /// One row per algorithm variant.
    pub rows: Vec<RobustnessRow>,
}

json_fields!(RobustnessReport {
    id,
    workload,
    max_overhead_percent,
    rows
});

impl Report for RobustnessReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<8} {:>8} {:>5} {:>12} {:>12} {:>10} {:>10}\n",
            "variant", "n", "runs", "baseline(s)", "armed(s)", "overhead", "decisions"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:>8} {:>5} {:>12.6} {:>12.6} {:>9.2}% {:>10}\n",
                r.algorithm,
                r.n,
                r.runs,
                r.baseline_seconds,
                r.armed_seconds,
                r.overhead_percent,
                if r.decision_identical { "ok" } else { "DIFF" },
            ));
        }
        out.push_str(&format!(
            "max overhead: {:.2}%\n",
            self.max_overhead_percent
        ));
        out
    }
}

/// One cell of the out-of-core sweep (`BENCH_outofcore`): an MBA
/// self-join over two streamed-built MBRQT trees on a [`FileDisk`],
/// cold pool, with the prefetcher off or on.
///
/// [`FileDisk`]: ann_store::FileDisk
#[derive(Clone, Debug)]
pub struct OutofcoreRow {
    /// Points per side of the self-join.
    pub points: usize,
    /// Buffer-pool frames during the query phase.
    pub pool_pages: usize,
    /// Pages the two trees occupy on disk (≥ 10× `pool_pages` on the
    /// gated cold cell).
    pub dataset_pages: u64,
    /// Whether the pipelined leaf prefetcher was enabled.
    pub prefetch: bool,
    /// Streaming (external) build time for both trees, seconds.
    pub build_seconds: f64,
    /// Query-phase wall clock, seconds.
    pub wall_seconds: f64,
    /// Logical page reads during the query phase (must be identical
    /// prefetch-on vs prefetch-off).
    pub logical_reads: u64,
    /// Physical page reads during the query phase (prefetch batches
    /// these; demand faults shrink accordingly).
    pub physical_reads: u64,
    /// Pages the prefetcher read ahead of demand.
    pub prefetch_issued: u64,
    /// Prefetched frames later claimed by a demand access.
    pub prefetch_hits: u64,
    /// Prefetched frames evicted before any demand access claimed them.
    pub prefetch_wasted: u64,
    /// `prefetch_hits / prefetch_issued` (0 when nothing was issued).
    pub prefetch_hit_rate: f64,
    /// Result pairs produced.
    pub result_pairs: usize,
    /// Whether this row's sorted results and logical read count matched
    /// its prefetch-off twin exactly (trivially `true` on the off rows;
    /// must always be `true`).
    pub identical_to_baseline: bool,
}

json_fields!(OutofcoreRow {
    points,
    pool_pages,
    dataset_pages,
    prefetch,
    build_seconds,
    wall_seconds,
    logical_reads,
    physical_reads,
    prefetch_issued,
    prefetch_hits,
    prefetch_wasted,
    prefetch_hit_rate,
    result_pairs,
    identical_to_baseline,
});

/// The ≥10⁷-point external-build validation row of `BENCH_outofcore`.
#[derive(Clone, Debug)]
pub struct OutofcoreCensus {
    /// Points streamed through the external build.
    pub points: usize,
    /// Sorter run budget (records held in memory at once).
    pub run_budget: usize,
    /// Streaming build wall clock, seconds.
    pub build_seconds: f64,
    /// [`validate`](ann_core::index::validate) wall clock, seconds.
    pub validate_seconds: f64,
    /// Full-census wall clock, seconds.
    pub census_seconds: f64,
    /// Objects the validated tree reported.
    pub objects: u64,
    /// Whether every input oid came back from the census exactly once.
    pub census_complete: bool,
}

json_fields!(OutofcoreCensus {
    points,
    run_budget,
    build_seconds,
    validate_seconds,
    census_seconds,
    objects,
    census_complete,
});

/// The out-of-core figure: streaming external builds plus the
/// prefetch-off vs prefetch-on cold query sweep. Emitted as
/// `BENCH_outofcore.json`.
#[derive(Clone, Debug)]
pub struct OutofcoreReport {
    /// Output id (`BENCH_outofcore` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Dataset seed (reproducibility).
    pub seed: u64,
    /// One row per (points, pool pages, prefetch) cell.
    pub rows: Vec<OutofcoreRow>,
    /// The large-scale external-build validation.
    pub census: OutofcoreCensus,
}

json_fields!(OutofcoreReport {
    id,
    workload,
    seed,
    rows,
    census
});

impl Report for OutofcoreReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<9} {:>6} {:>8} {:>8} {:>9} {:>9} {:>9} {:>8} {:>7} {:>7} {:>8} {:>9}\n",
            "points",
            "pool",
            "ds-pages",
            "prefetch",
            "build(s)",
            "wall(s)",
            "logical",
            "physical",
            "issued",
            "hits",
            "hit-rate",
            "identical"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<9} {:>6} {:>8} {:>8} {:>9.3} {:>9.3} {:>9} {:>8} {:>7} {:>7} {:>7.1}% {:>9}\n",
                r.points,
                r.pool_pages,
                r.dataset_pages,
                if r.prefetch { "on" } else { "off" },
                r.build_seconds,
                r.wall_seconds,
                r.logical_reads,
                r.physical_reads,
                r.prefetch_issued,
                r.prefetch_hits,
                r.prefetch_hit_rate * 100.0,
                if r.identical_to_baseline {
                    "ok"
                } else {
                    "DIFF"
                },
            ));
        }
        let c = &self.census;
        out.push_str(&format!(
            "census: {} points, run budget {}, build {:.1}s, validate {:.1}s, \
             census {:.1}s, {} objects, complete: {}\n",
            c.points,
            c.run_budget,
            c.build_seconds,
            c.validate_seconds,
            c.census_seconds,
            c.objects,
            if c.census_complete {
                "ok"
            } else {
                "INCOMPLETE"
            },
        ));
        out
    }
}

/// One closed-loop serving load level (`BENCH_serving`): a fixed number
/// of concurrent keep-alive clients, each issuing queries back-to-back
/// against the in-process HTTP front-end.
#[derive(Clone, Debug)]
pub struct ServingRow {
    /// Concurrent closed-loop clients at this level.
    pub clients: usize,
    /// Requests each client issued.
    pub requests_per_client: usize,
    /// Total queries completed (`clients * requests_per_client`).
    pub total_requests: usize,
    /// Requests that did not come back `200 OK` (gated to zero).
    pub failed_requests: usize,
    /// Whether every response's result set was byte-identical to the
    /// in-process `query::run` path (gated to `true`).
    pub results_identical: bool,
    /// Wall-clock seconds for the whole level.
    pub wall_seconds: f64,
    /// Completed queries per second of wall clock.
    pub throughput_qps: f64,
    /// Median request latency, microseconds.
    pub p50_us: f64,
    /// 95th-percentile request latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile request latency, microseconds.
    pub p99_us: f64,
}

json_fields!(ServingRow {
    clients,
    requests_per_client,
    total_requests,
    failed_requests,
    results_identical,
    wall_seconds,
    throughput_qps,
    p50_us,
    p95_us,
    p99_us,
});

/// The serving benchmark: the zero-dep HTTP front-end under a
/// closed-loop load sweep, one row per concurrency level. Emitted as
/// `BENCH_serving.json`; CI gates on zero failures and result identity
/// at every level.
#[derive(Clone, Debug)]
pub struct ServingReport {
    /// Output id (`BENCH_serving` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Points in the served collection.
    pub n: usize,
    /// Neighbors per point requested.
    pub k: usize,
    /// Server worker threads.
    pub workers: usize,
    /// Admission-control queue depth.
    pub queue_depth: usize,
    /// One row per concurrency level.
    pub rows: Vec<ServingRow>,
}

json_fields!(ServingReport {
    id,
    workload,
    n,
    k,
    workers,
    queue_depth,
    rows
});

impl Report for ServingReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:>7} {:>7} {:>6} {:>9} {:>10} {:>10} {:>10} {:>10}\n",
            "clients", "reqs", "failed", "identical", "qps", "p50(us)", "p95(us)", "p99(us)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>7} {:>7} {:>6} {:>9} {:>10.1} {:>10.0} {:>10.0} {:>10.0}\n",
                r.clients,
                r.total_requests,
                r.failed_requests,
                if r.results_identical { "ok" } else { "DIFF" },
                r.throughput_qps,
                r.p50_us,
                r.p95_us,
                r.p99_us,
            ));
        }
        out
    }
}

/// One cell of the morsel-engine scaling study (`BENCH_parallel_join`):
/// one algorithm variant on one dataset at one thread count, always
/// diffed against its own single-thread run.
#[derive(Clone, Debug)]
pub struct ParallelJoinRow {
    /// Algorithm variant (`"mba"`, `"bnn"`, `"mnn"`, `"hnn"`, ...).
    pub algorithm: String,
    /// Dataset family: `"uniform"` or `"clustered"`.
    pub dataset: String,
    /// Points per side of the self-join.
    pub n: usize,
    /// Worker threads requested via `AnnRequest::threads`.
    pub threads: usize,
    /// Wall-clock seconds for the join (best of the timed repeats).
    pub wall_seconds: f64,
    /// Wall(1 thread, same variant+dataset) / wall(this row).
    pub speedup_vs_serial: f64,
    /// Result pairs produced (sanity: identical on every row of a
    /// variant+dataset group).
    pub result_pairs: usize,
    /// Whether this row's sorted `(r_oid, s_oid, dist-bits)` output
    /// matched the single-thread run exactly (must always be `true`;
    /// trivially so on the 1-thread rows).
    pub byte_identical: bool,
}

json_fields!(ParallelJoinRow {
    algorithm,
    dataset,
    n,
    threads,
    wall_seconds,
    speedup_vs_serial,
    result_pairs,
    byte_identical,
});

/// The morsel-driven parallel-join figure: every algorithm variant
/// through the unified entrypoint at 1/2/4/8 worker threads on uniform
/// and clustered data, each row byte-diffed against its serial twin.
/// Emitted as `BENCH_parallel_join.json`; CI gates on the identity bit
/// on every row and (opt-in) on the 4-thread speedup.
#[derive(Clone, Debug)]
pub struct ParallelJoinReport {
    /// Output id (`BENCH_parallel_join` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Cores the host reported; speedup flattens beyond this.
    pub host_cores: usize,
    /// Neighbors per point requested.
    pub k: usize,
    /// One row per (algorithm, dataset, thread count).
    pub rows: Vec<ParallelJoinRow>,
}

json_fields!(ParallelJoinReport {
    id,
    workload,
    host_cores,
    k,
    rows
});

impl Report for ParallelJoinReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:<8} {:<10} {:>8} {:>7} {:>9} {:>8} {:>8} {:>9}\n",
            "variant", "dataset", "n", "threads", "wall(s)", "speedup", "pairs", "identical"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:<8} {:<10} {:>8} {:>7} {:>9.3} {:>7.2}x {:>8} {:>9}\n",
                r.algorithm,
                r.dataset,
                r.n,
                r.threads,
                r.wall_seconds,
                r.speedup_vs_serial,
                r.result_pairs,
                if r.byte_identical { "ok" } else { "DIFF" },
            ));
        }
        out
    }
}

/// One MVCC reader-latency phase (`BENCH_mvcc`): a fixed pool of reader
/// threads, each pinning a snapshot per query and running a full AkNN
/// self-join against it, either on a quiescent store (`read_only`) or
/// while a writer thread commits versioned transactions back-to-back
/// (`with_writer`).
#[derive(Clone, Debug)]
pub struct MvccRow {
    /// Phase name: `"read_only"` or `"with_writer"`.
    pub mode: String,
    /// Concurrent reader threads.
    pub readers: usize,
    /// Total queries completed across all readers.
    pub queries: usize,
    /// Queries that failed to pin or run (gated to zero).
    pub failed: usize,
    /// Versioned transactions the writer committed during the phase
    /// (zero in the `read_only` phase).
    pub writer_commits: usize,
    /// Wall-clock seconds for the phase.
    pub wall_seconds: f64,
    /// Completed queries per second of wall clock.
    pub throughput_qps: f64,
    /// Median per-query latency (pin + run), microseconds.
    pub p50_us: f64,
    /// 95th-percentile per-query latency, microseconds.
    pub p95_us: f64,
    /// 99th-percentile per-query latency, microseconds.
    pub p99_us: f64,
}

json_fields!(MvccRow {
    mode,
    readers,
    queries,
    failed,
    writer_commits,
    wall_seconds,
    throughput_qps,
    p50_us,
    p95_us,
    p99_us,
});

/// The MVCC snapshot-isolation benchmark: reader latency with an active
/// writer vs. read-only, over the versioned page store. Emitted as
/// `BENCH_mvcc.json`; CI gates on zero failed queries and on
/// `reader_p95_ratio` staying within the readers-not-blocked bound.
#[derive(Clone, Debug)]
pub struct MvccReport {
    /// Output id (`BENCH_mvcc` — also the JSON file stem).
    pub id: String,
    /// Human description of the workload.
    pub workload: String,
    /// Points in the versioned collection at phase start.
    pub n: usize,
    /// Neighbors per point requested.
    pub k: usize,
    /// Snapshot history window (versions retained past the newest).
    pub keep: u32,
    /// One row per phase.
    pub rows: Vec<MvccRow>,
    /// `with_writer` p95 divided by `read_only` p95 — the
    /// readers-not-blocked headline (CI gates this ≤ 1.25).
    pub reader_p95_ratio: f64,
}

json_fields!(MvccReport {
    id,
    workload,
    n,
    k,
    keep,
    rows,
    reader_p95_ratio
});

impl Report for MvccReport {
    fn id(&self) -> &str {
        &self.id
    }

    fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("== {} — {} ==\n", self.id, self.workload));
        out.push_str(&format!(
            "{:>12} {:>7} {:>8} {:>6} {:>8} {:>10} {:>10} {:>10} {:>10}\n",
            "mode",
            "readers",
            "queries",
            "failed",
            "commits",
            "qps",
            "p50(us)",
            "p95(us)",
            "p99(us)"
        ));
        for r in &self.rows {
            out.push_str(&format!(
                "{:>12} {:>7} {:>8} {:>6} {:>8} {:>10.1} {:>10.0} {:>10.0} {:>10.0}\n",
                r.mode,
                r.readers,
                r.queries,
                r.failed,
                r.writer_commits,
                r.throughput_qps,
                r.p50_us,
                r.p95_us,
                r.p99_us,
            ));
        }
        out.push_str(&format!(
            "reader p95 with writer / read-only: {:.3}\n",
            self.reader_p95_ratio
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_measurement(label: &str) -> Measurement {
        Measurement {
            label: label.to_string(),
            cpu_seconds: 1.25,
            physical_pages: 100,
            io_seconds: 1.0,
            logical_reads: 1000,
            result_pairs: 42,
            distance_computations: 9000,
            enqueued: 300,
            build_seconds: 0.5,
        }
    }

    #[test]
    fn render_contains_all_rows() {
        let mut fig = Figure::new("figX", "test workload");
        fig.push("g1", sample_measurement("MBA NXNDIST"));
        fig.push("g2", sample_measurement("GORDER"));
        let text = fig.render();
        assert!(text.contains("figX"));
        assert!(text.contains("MBA NXNDIST"));
        assert!(text.contains("GORDER"));
        assert!(text.contains("2.250")); // total = cpu + io
        assert_eq!(text.lines().count(), 2 + 2); // header x2 + 2 rows
    }

    #[test]
    fn kernels_report_renders_and_serializes() {
        let rep = KernelsReport {
            id: "BENCH_kernels".into(),
            workload: "test".into(),
            lanes: 4,
            rows: vec![KernelRow {
                kernel: "point-leaf-scan".into(),
                dims: 2,
                cache: "warm".into(),
                candidates: 100_000,
                scalar_seconds: 2e-4,
                batched_seconds: 1e-4,
                scalar_melems_per_sec: 500.0,
                batched_melems_per_sec: 1000.0,
                speedup: 2.0,
                bit_identical: true,
            }],
        };
        let text = rep.render();
        assert!(text.contains("BENCH_kernels"));
        assert!(text.contains("point-leaf-scan"));
        assert!(text.contains("2.00x"));
        let parsed = JsonValue::parse(&rep.to_json().to_string()).unwrap();
        let row = &parsed.get("rows").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(row.get("speedup"), Some(&JsonValue::Num(2.0)));
        assert_eq!(row.get("bit_identical"), Some(&JsonValue::Bool(true)));
    }

    #[test]
    fn parallel_join_report_renders_and_serializes() {
        let rep = ParallelJoinReport {
            id: "BENCH_parallel_join".into(),
            workload: "test".into(),
            host_cores: 4,
            k: 2,
            rows: vec![ParallelJoinRow {
                algorithm: "mba".into(),
                dataset: "clustered".into(),
                n: 10_000,
                threads: 4,
                wall_seconds: 0.25,
                speedup_vs_serial: 3.1,
                result_pairs: 20_000,
                byte_identical: true,
            }],
        };
        let text = rep.render();
        assert!(text.contains("BENCH_parallel_join"));
        assert!(text.contains("clustered"));
        assert!(text.contains("3.10x"));
        let parsed = JsonValue::parse(&rep.to_json().to_string()).unwrap();
        let row = &parsed.get("rows").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(row.get("threads"), Some(&JsonValue::Int(4)));
        assert_eq!(row.get("byte_identical"), Some(&JsonValue::Bool(true)));
        assert_eq!(row.get("speedup_vs_serial"), Some(&JsonValue::Num(3.1)));
    }

    #[test]
    fn json_round_trip() {
        let dir = std::env::temp_dir().join(format!("ann-bench-test-{}", std::process::id()));
        let mut fig = Figure::new("figY", "json test");
        fig.push("g", sample_measurement("BNN MAXMAXDIST"));
        fig.write_json(&dir).unwrap();
        let body = std::fs::read_to_string(dir.join("figY.json")).unwrap();
        let parsed = JsonValue::parse(&body).unwrap();
        assert_eq!(parsed.get("id").and_then(JsonValue::as_str), Some("figY"));
        let row = &parsed.get("rows").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(row.get("group").and_then(JsonValue::as_str), Some("g"));
        assert_eq!(
            row.get("label").and_then(JsonValue::as_str),
            Some("BNN MAXMAXDIST")
        );
        std::fs::remove_dir_all(&dir).ok();

        // Same keys, in the same order, as the committed figure artifacts.
        let keys = |v: &JsonValue| match v {
            JsonValue::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            _ => Vec::new(),
        };
        let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/fig3a.json");
        let committed = JsonValue::parse(&std::fs::read_to_string(committed).unwrap()).unwrap();
        let committed_row = &committed.get("rows").and_then(JsonValue::as_arr).unwrap()[0];
        assert_eq!(keys(&parsed), keys(&committed));
        assert_eq!(keys(row), keys(committed_row));
    }
}
