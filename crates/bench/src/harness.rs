//! Run one (algorithm, metric, dataset, k) cell and measure it.
//!
//! All index-based methods dispatch through the unified
//! [`ann_core::query::run`] entrypoint; GORDER (which lives downstream of
//! `ann-core`) goes through its own traced entrypoint. When tracing is
//! enabled ([`enable_tracing`]) each run records into a
//! [`RecordingSink`] and writes one `ExecutionReport` JSON per run.

use ann_core::query::{Algorithm, AnnRequest, Input, MetricChoice, NoIndex, QuerySpec};
use ann_core::stats::AnnOutput;
use ann_core::trace::{RecordingSink, Side, TraceSink, Tracer};
use ann_geom::Point;
use ann_gorder::{gorder_join_traced, GorderConfig};
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, MemDisk};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Simulated cost of one physical page transfer, in seconds.
///
/// The paper's testbed (1.2 GHz Pentium M laptop disk, 2007) serviced a
/// random 8 KB page in roughly 10 ms; the figures' "I/O" bars are page
/// faults × this constant.
pub const IO_SECONDS_PER_PAGE: f64 = 0.010;

/// Default buffer pool: the paper's 64 frames = 512 KiB.
pub const DEFAULT_POOL_FRAMES: usize = 64;

/// What a run evaluates that its [`QuerySpec`] cannot say.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    /// The spec's algorithm on the paper's indexes: MBA over MBRQTs, BNN
    /// against an R*-tree, MNN from an MBRQT into an R*-tree, HNN on
    /// points.
    Spec,
    /// The spec's MBA over R*-trees: the paper's RBA.
    Rba,
    /// The GORDER block nested-loops join (Xia et al.). `ann-gorder` lives
    /// downstream of `ann-core`, so no [`Algorithm`] names it; it reads
    /// the spec's `k` and `exclude_self`.
    Gorder,
}

/// One experiment configuration.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The query: algorithm, pruning metric (its name is the paper's bar
    /// label), `k` and self-join mode.
    pub spec: QuerySpec,
    /// The tree behind MBA, or GORDER in place of the spec's algorithm.
    pub method: Method,
    /// Buffer pool frames (64 = the paper's 512 KiB).
    pub pool_frames: usize,
    /// MBRQT stores tight subtree MBRs (ablation flag).
    pub use_subtree_mbrs: bool,
    /// MBRQT decomposition levels per disk node (0 = adaptive default;
    /// 1 = the naive one-level-per-page layout, for the packing ablation).
    pub mbrqt_levels_per_node: usize,
}

impl Default for RunConfig {
    /// A k = 1 MBA self-join under NXNDIST in the paper's 64-frame pool.
    fn default() -> Self {
        RunConfig {
            spec: QuerySpec {
                exclude_self: true,
                ..QuerySpec::new(Algorithm::mba())
            },
            method: Method::Spec,
            pool_frames: DEFAULT_POOL_FRAMES,
            use_subtree_mbrs: true,
            mbrqt_levels_per_node: 0,
        }
    }
}

impl RunConfig {
    /// The default run with `algorithm` under `metric`.
    pub fn query(algorithm: Algorithm, metric: MetricChoice) -> Self {
        let mut cfg = RunConfig::default();
        cfg.spec.algorithm = algorithm;
        cfg.spec.metric = metric;
        cfg
    }

    /// The run's display name: `"MBA NXNDIST"`-style, the bare method for
    /// the two that take no pruning metric (GORDER, HNN).
    pub fn label(&self) -> String {
        let name = match (self.method, self.spec.algorithm) {
            (Method::Gorder, _) => return "GORDER".into(),
            (Method::Rba, _) => "RBA".to_string(),
            (Method::Spec, Algorithm::Hnn { .. }) => return "HNN".into(),
            (Method::Spec, alg) => alg.name().to_ascii_uppercase(),
        };
        format!("{name} {}", self.spec.metric.name())
    }
}

/// Measured outcome of one run.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// `"MBA NXNDIST"`-style label.
    pub label: String,
    /// Query-phase wall time in seconds (the "CPU" bar).
    pub cpu_seconds: f64,
    /// Physical page reads + writes during the query phase.
    pub physical_pages: u64,
    /// Simulated I/O seconds (`physical_pages * IO_SECONDS_PER_PAGE`).
    pub io_seconds: f64,
    /// Logical page reads.
    pub logical_reads: u64,
    /// Number of result pairs produced.
    pub result_pairs: usize,
    /// Distance computations performed.
    pub distance_computations: u64,
    /// Entries enqueued across all queues.
    pub enqueued: u64,
    /// Time spent building indices / sorted files (not part of the bars).
    pub build_seconds: f64,
}

crate::report::json_fields!(Measurement {
    label,
    cpu_seconds,
    physical_pages,
    io_seconds,
    logical_reads,
    result_pairs,
    distance_computations,
    enqueued,
    build_seconds,
});

impl Measurement {
    fn from_output(label: String, output: &AnnOutput, cpu: f64, build: f64) -> Self {
        let io = output.stats.io;
        Measurement {
            label,
            cpu_seconds: cpu,
            physical_pages: io.physical_total(),
            io_seconds: io.physical_total() as f64 * IO_SECONDS_PER_PAGE,
            logical_reads: io.logical_reads,
            result_pairs: output.results.len(),
            distance_computations: output.stats.distance_computations,
            enqueued: output.stats.enqueued,
            build_seconds: build,
        }
    }

    /// CPU + simulated I/O, the height of the paper's stacked bars.
    pub fn total_seconds(&self) -> f64 {
        self.cpu_seconds + self.io_seconds
    }
}

/// Directory for per-run `ExecutionReport` JSON files, once tracing is
/// enabled; paired with a process-wide run sequence number.
static TRACE_DIR: OnceLock<PathBuf> = OnceLock::new();
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Turns on per-run execution tracing for every subsequent [`run`] in
/// this process: each run records into a [`RecordingSink`] and writes
/// `<seq>_<label>.json` into `dir`. Returns an error if the directory
/// cannot be created; enabling twice keeps the first directory.
pub fn enable_tracing(dir: impl Into<PathBuf>) -> std::io::Result<()> {
    let dir = dir.into();
    std::fs::create_dir_all(&dir)?;
    let _ = TRACE_DIR.set(dir);
    Ok(())
}

/// Runs one configured experiment cell on the given datasets.
///
/// Builds whatever structures the method needs into a fresh pool, clears
/// the pool (cold cache), then measures the query phase. With tracing
/// enabled ([`enable_tracing`]) the run additionally writes one
/// `ExecutionReport` JSON; the measured counters are identical either
/// way (the tracer's no-op path is free).
pub fn run<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    cfg: &RunConfig,
) -> Measurement {
    let Some(dir) = TRACE_DIR.get() else {
        return run_with_sink(r, s, cfg, None);
    };
    let sink = RecordingSink::new();
    let m = run_with_sink(r, s, cfg, Some(&sink));
    let report = sink.report(&m.label);
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed);
    let slug: String = m
        .label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect();
    let path = dir.join(format!("{seq:04}_{slug}.json"));
    if let Err(e) = std::fs::write(&path, report.to_json()) {
        eprintln!(
            "warning: could not write trace report {}: {e}",
            path.display()
        );
    }
    m
}

/// [`run`] against an explicit optional [`TraceSink`] (the sink used when
/// process-wide tracing is enabled; tests pass their own).
pub fn run_with_sink<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    cfg: &RunConfig,
    sink: Option<&dyn TraceSink>,
) -> Measurement {
    let pool = Arc::new(BufferPool::new(MemDisk::new(), cfg.pool_frames.max(8)));
    let label = cfg.label();
    let spec = &cfg.spec;

    eprintln!(
        "  [harness] {} (k={}, pool={} frames, |R|={}, |S|={})",
        label,
        spec.k,
        cfg.pool_frames,
        r.len(),
        s.len()
    );
    let tracer = sink.map_or(Tracer::disabled(), Tracer::new);
    let mut request = AnnRequest::from(spec.clone());
    if let Some(sink) = sink {
        request = request.trace(sink);
    }

    match (cfg.method, spec.algorithm) {
        (Method::Gorder, _) => {
            // GORDER's sort phase is part of its method; the paper charges
            // it to the run, and so do we (build_seconds stays 0).
            prepare_query_phase(&pool);
            let g_cfg = GorderConfig {
                k: spec.k,
                exclude_self: spec.exclude_self,
            };
            let t0 = Instant::now();
            let out = gorder_join_traced(r, s, pool.clone(), &g_cfg, tracer).expect("GORDER run");
            Measurement::from_output(label, &out, t0.elapsed().as_secs_f64(), 0.0)
        }
        (Method::Rba, _) => {
            let rs_cfg = RStarConfig::default();
            let t0 = Instant::now();
            let ir =
                RStar::bulk_build_traced(pool.clone(), r, &rs_cfg, Side::R, tracer).expect("build");
            let is =
                RStar::bulk_build_traced(pool.clone(), s, &rs_cfg, Side::S, tracer).expect("build");
            let build = t0.elapsed().as_secs_f64();
            prepare_query_phase(&pool);
            let t0 = Instant::now();
            let out = request
                .run(Input::Index(&ir), Input::Index(&is))
                .expect("RBA run");
            Measurement::from_output(label, &out, t0.elapsed().as_secs_f64(), build)
        }
        (Method::Spec, Algorithm::Mba { .. }) => {
            let qt_cfg = MbrqtConfig {
                use_subtree_mbrs: cfg.use_subtree_mbrs,
                levels_per_node: cfg.mbrqt_levels_per_node,
                ..Default::default()
            };
            let t0 = Instant::now();
            let ir = Mbrqt::bulk_build_traced(pool.clone(), r, &qt_cfg, Side::R, tracer)
                .expect("build I_R");
            let is = Mbrqt::bulk_build_traced(pool.clone(), s, &qt_cfg, Side::S, tracer)
                .expect("build I_S");
            let build = t0.elapsed().as_secs_f64();
            prepare_query_phase(&pool);
            let t0 = Instant::now();
            let out = request
                .run(Input::Index(&ir), Input::Index(&is))
                .expect("MBA run");
            Measurement::from_output(label, &out, t0.elapsed().as_secs_f64(), build)
        }
        (Method::Spec, Algorithm::Bnn { .. }) => {
            let t0 = Instant::now();
            let is =
                RStar::bulk_build_traced(pool.clone(), s, &RStarConfig::default(), Side::S, tracer)
                    .expect("build");
            let build = t0.elapsed().as_secs_f64();
            prepare_query_phase(&pool);
            let t0 = Instant::now();
            let out = request
                .run(Input::<D, NoIndex>::Points(r), Input::Index(&is))
                .expect("BNN run");
            Measurement::from_output(label, &out, t0.elapsed().as_secs_f64(), build)
        }
        (Method::Spec, Algorithm::Mnn) => {
            let qt_cfg = MbrqtConfig::default();
            let t0 = Instant::now();
            let ir =
                Mbrqt::bulk_build_traced(pool.clone(), r, &qt_cfg, Side::R, tracer).expect("build");
            let is =
                RStar::bulk_build_traced(pool.clone(), s, &RStarConfig::default(), Side::S, tracer)
                    .expect("build");
            let build = t0.elapsed().as_secs_f64();
            prepare_query_phase(&pool);
            let t0 = Instant::now();
            let out = request
                .run(Input::Index(&ir), Input::Index(&is))
                .expect("MNN run");
            Measurement::from_output(label, &out, t0.elapsed().as_secs_f64(), build)
        }
        (Method::Spec, _) => {
            // HNN is entirely in-memory (the paper's §2 notes it avoids
            // index construction); no pages are charged.
            prepare_query_phase(&pool);
            let t0 = Instant::now();
            let out = request
                .run(
                    Input::<D, NoIndex>::Points(r),
                    Input::<D, NoIndex>::Points(s),
                )
                .expect("HNN run");
            Measurement::from_output(label, &out, t0.elapsed().as_secs_f64(), 0.0)
        }
    }
}

/// Clears the pool (cold cache) and zeroes the I/O counters.
fn prepare_query_phase(pool: &BufferPool) {
    pool.clear().expect("clear pool");
    pool.reset_stats();
}
