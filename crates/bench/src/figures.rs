//! One generator per table/figure of the paper's evaluation (§4).
//!
//! Every generator takes a `fraction` scaling the paper's cardinalities
//! (1.0 = full paper scale; the `figures` binary defaults to 0.1 so a
//! laptop run finishes in minutes). Workloads are ANN/AkNN *self-joins*
//! with self-matches excluded — the natural reading of "run ANN on the TAC
//! dataset" (with self-matches allowed every answer is trivially the point
//! itself).

use crate::harness::{run, Method, Metric, RunConfig};
use crate::report::Figure;
use ann_core::mba::{Expansion, Traversal};
use ann_geom::Point;

fn scaled(paper_n: usize, fraction: f64) -> usize {
    ((paper_n as f64 * fraction) as usize).max(2_000)
}

/// The seeds used everywhere, so runs are reproducible.
const SEED: u64 = 20070415;

fn tac(fraction: f64) -> Vec<(u64, Point<2>)> {
    ann_datagen::tac_like(scaled(700_000, fraction), SEED)
}

fn fc(fraction: f64) -> Vec<(u64, Point<10>)> {
    ann_datagen::fc_like(scaled(580_000, fraction), SEED)
}

/// Figure 3(a): comparison of methods on the TAC data — BNN/RBA/MBA with
/// both pruning metrics, plus GORDER; CPU and I/O per bar.
pub fn fig3a(fraction: f64) -> Figure {
    let data = tac(fraction);
    let mut fig = Figure::new(
        "fig3a",
        &format!(
            "TAC-like 2D self-join ANN (k=1, |R|=|S|={}, 512KiB pool)",
            data.len()
        ),
    );
    let cells = [
        (Method::Bnn, Metric::MaxMax),
        (Method::Bnn, Metric::Nxn),
        (Method::Rba, Metric::MaxMax),
        (Method::Rba, Metric::Nxn),
        (Method::Mba, Metric::MaxMax),
        (Method::Mba, Metric::Nxn),
    ];
    for (method, metric) in cells {
        let cfg = RunConfig {
            method,
            metric,
            ..Default::default()
        };
        fig.push("TAC", run(&data, &data, &cfg));
    }
    let cfg = RunConfig {
        method: Method::Gorder,
        ..Default::default()
    };
    fig.push("TAC", run(&data, &data, &cfg));
    fig
}

/// The §4.3 remark: the same metric comparison on synthetic data
/// ("similar results are also observed with the synthetic datasets").
pub fn fig3a_synthetic(fraction: f64) -> Figure {
    let data = ann_datagen::synthetic_nd::<2>(scaled(500_000, fraction), SEED);
    let mut fig = Figure::new(
        "fig3a-synthetic",
        &format!(
            "synthetic 500K2D-style self-join ANN (k=1, n={})",
            data.len()
        ),
    );
    for (method, metric) in [
        (Method::Bnn, Metric::MaxMax),
        (Method::Bnn, Metric::Nxn),
        (Method::Mba, Metric::MaxMax),
        (Method::Mba, Metric::Nxn),
    ] {
        let cfg = RunConfig {
            method,
            metric,
            ..Default::default()
        };
        fig.push("500K2D", run(&data, &data, &cfg));
    }
    fig
}

/// Figure 3(b): MBA vs GORDER on the 10-D FC data across buffer pool
/// sizes 512 KiB, 1 MiB, 4 MiB, 8 MiB.
pub fn fig3b(fraction: f64) -> Figure {
    let data = fc(fraction);
    let mut fig = Figure::new(
        "fig3b",
        &format!(
            "FC-like 10D self-join ANN (k=1, n={}), buffer sweep",
            data.len()
        ),
    );
    for (label, frames) in [
        ("512KB", 64usize),
        ("1MB", 128),
        ("4MB", 512),
        ("8MB", 1024),
    ] {
        for method in [Method::Mba, Method::Gorder] {
            let cfg = RunConfig {
                method,
                pool_frames: frames,
                ..Default::default()
            };
            fig.push(label, run(&data, &data, &cfg));
        }
    }
    fig
}

/// Figure 4: effect of dimensionality — MBA vs GORDER on the synthetic
/// 500K 2D/4D/6D datasets.
pub fn fig4(fraction: f64) -> Figure {
    let n = scaled(500_000, fraction);
    let mut fig = Figure::new(
        "fig4",
        &format!("synthetic self-join ANN (k=1, n={n}) over dimensionality"),
    );
    macro_rules! sweep {
        ($dim:literal, $label:expr) => {{
            let data = ann_datagen::synthetic_nd::<$dim>(n, SEED);
            for method in [Method::Mba, Method::Gorder] {
                let cfg = RunConfig {
                    method,
                    ..Default::default()
                };
                fig.push($label, run(&data, &data, &cfg));
            }
        }};
    }
    sweep!(2, "2D");
    sweep!(4, "4D");
    sweep!(6, "6D");
    fig
}

/// Figure 5: AkNN on TAC, k = 10..50 — MBA vs GORDER.
pub fn fig5(fraction: f64) -> Figure {
    let data = tac(fraction);
    let mut fig = Figure::new(
        "fig5",
        &format!("TAC-like 2D self-join AkNN (n={})", data.len()),
    );
    for k in [10usize, 20, 30, 40, 50] {
        for method in [Method::Mba, Method::Gorder] {
            let cfg = RunConfig {
                method,
                k,
                ..Default::default()
            };
            fig.push(&format!("k={k}"), run(&data, &data, &cfg));
        }
    }
    fig
}

/// Figure 6: AkNN on FC, k = 10..50 — MBA vs GORDER.
pub fn fig6(fraction: f64) -> Figure {
    let data = fc(fraction);
    let mut fig = Figure::new(
        "fig6",
        &format!("FC-like 10D self-join AkNN (n={})", data.len()),
    );
    for k in [10usize, 20, 30, 40, 50] {
        for method in [Method::Mba, Method::Gorder] {
            let cfg = RunConfig {
                method,
                k,
                ..Default::default()
            };
            fig.push(&format!("k={k}"), run(&data, &data, &cfg));
        }
    }
    fig
}

/// §3.3.2 ablation: the four traversal × expansion combinations of the
/// design space (the paper reports DF+BI wins and omits the table).
pub fn ablation_traversal(fraction: f64) -> Figure {
    let data = tac(fraction * 0.5);
    let mut fig = Figure::new(
        "ablation-traversal",
        &format!(
            "traversal/expansion design space, TAC-like (n={})",
            data.len()
        ),
    );
    for (t, tname) in [
        (Traversal::DepthFirst, "DF"),
        (Traversal::BreadthFirst, "BF"),
    ] {
        for (e, ename) in [
            (Expansion::Bidirectional, "BI"),
            (Expansion::Unidirectional, "UNI"),
        ] {
            let cfg = RunConfig {
                traversal: t,
                expansion: e,
                ..Default::default()
            };
            let mut m = run(&data, &data, &cfg);
            m.label = format!("MBA {tname}+{ename}");
            fig.push(&format!("{tname}+{ename}"), m);
        }
    }
    fig
}

/// §3.2 ablation: the MBR enhancement of the quadtree. The plain-quadrant
/// variant is only sound with MAXMAXDIST (see `ann-mbrqt` docs), so the
/// comparison is MBRQT+NXN vs MBRQT+MAXMAX vs plain-quadrant+MAXMAX.
pub fn ablation_mbr(fraction: f64) -> Figure {
    let data = tac(fraction * 0.5);
    let mut fig = Figure::new(
        "ablation-mbr",
        &format!(
            "MBR enhancement of the quadtree, TAC-like (n={})",
            data.len()
        ),
    );
    let mut m = run(
        &data,
        &data,
        &RunConfig {
            metric: Metric::Nxn,
            ..Default::default()
        },
    );
    m.label = "MBRQT NXNDIST".into();
    fig.push("mbr", m);
    let mut m = run(
        &data,
        &data,
        &RunConfig {
            metric: Metric::MaxMax,
            ..Default::default()
        },
    );
    m.label = "MBRQT MAXMAXDIST".into();
    fig.push("mbr", m);
    let mut m = run(
        &data,
        &data,
        &RunConfig {
            metric: Metric::MaxMax,
            use_subtree_mbrs: false,
            ..Default::default()
        },
    );
    m.label = "plain-quadrant MAXMAXDIST".into();
    fig.push("quadrant", m);
    fig
}

/// Extra: MNN (index nested loops) next to MBA, quantifying the §2 claim
/// that per-point searches pay a high CPU price.
pub fn extra_mnn(fraction: f64) -> Figure {
    let data = tac(fraction * 0.25);
    let mut fig = Figure::new(
        "extra-mnn",
        &format!("MNN vs MBA, TAC-like (n={})", data.len()),
    );
    for method in [Method::Mnn, Method::Mba] {
        let cfg = RunConfig {
            method,
            ..Default::default()
        };
        fig.push("TAC", run(&data, &data, &cfg));
    }
    fig
}

/// Ablation of this implementation's own design decision: multi-level
/// node packing in the MBRQT (DESIGN.md §6). `levels=1` is the naive
/// one-decomposition-level-per-page layout; the adaptive default packs
/// several levels per node so internal fanout fills the page.
pub fn ablation_packing(fraction: f64) -> Figure {
    let data = tac(fraction * 0.5);
    let mut fig = Figure::new(
        "ablation-packing",
        &format!("MBRQT node packing, TAC-like (n={})", data.len()),
    );
    for (group, levels) in [("adaptive", 0usize), ("1-level", 1)] {
        let cfg = RunConfig {
            mbrqt_levels_per_node: levels,
            ..Default::default()
        };
        let mut m = run(&data, &data, &cfg);
        m.label = format!("MBA NXNDIST ({group} packing)");
        fig.push(group, m);
    }
    fig
}

/// Extra: the no-index HNN baseline (§2) next to BNN and MBA on 2-D
/// data — where a uniform grid is viable — and on skewed data, where the
/// paper notes HNN degrades.
pub fn extra_hnn(fraction: f64) -> Figure {
    let n = scaled(500_000, fraction / 2.0);
    let mut fig = Figure::new(
        "extra-hnn",
        &format!("HNN vs index methods, 2D (n={n}), uniform and skewed"),
    );
    let uniform = ann_datagen::uniform::<2>(n, SEED);
    let skewed = ann_datagen::skewed::<2>(n, 4.0, SEED);
    for (group, data) in [("uniform", &uniform), ("skewed", &skewed)] {
        for method in [Method::Hnn, Method::Bnn, Method::Mba] {
            let cfg = RunConfig {
                method,
                ..Default::default()
            };
            fig.push(group, run(data, data, &cfg));
        }
    }
    fig
}

/// The resilience fault-free-overhead study: every pool-backed algorithm
/// variant (plus the poolless HNN) through the unified entrypoint, first
/// ungoverned (no limits — the guard is one branch per expansion), then
/// with every resilience feature armed but never firing: a live cancel
/// token, a one-hour deadline, effectively-unbounded visit and I/O
/// budgets, and a per-request retry override. The armed run must be
/// decision-identical — same pairs, same work counters — and its wall
/// time is the measured cost of resilience on the fault-free path.
/// Emitted as `BENCH_robustness.json`.
pub fn robustness_bench(fraction: f64) -> crate::report::RobustnessReport {
    use ann_core::prelude::*;
    use ann_mbrqt::{Mbrqt, MbrqtConfig};
    use ann_rstar::{RStar, RStarConfig};
    use ann_store::{BufferPool, MemDisk, RetryPolicy};
    use std::hint::black_box;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let n = scaled(60_000, fraction);
    let data = ann_datagen::tac_like(n, SEED);
    let k = 2;
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 2_048));
    let ir = Mbrqt::bulk_build(pool.clone(), &data, &MbrqtConfig::default()).expect("build R");
    let is = RStar::bulk_build(pool, &data, &RStarConfig::default()).expect("build S");

    let mut report = crate::report::RobustnessReport {
        id: "BENCH_robustness".into(),
        workload: format!(
            "TAC-like 2D self-join AkNN (k={k}, |R|=|S|={n}, warm 2048-frame \
             pool): ungoverned vs fully-armed resilience, per-run average"
        ),
        max_overhead_percent: 0.0,
        rows: Vec::new(),
    };

    // Canonical decision content: sorted pairs + counters with the I/O
    // block zeroed (cache state differs across repeats; decisions must
    // not).
    let canon = |out: &AnnOutput| {
        let mut o = out.clone();
        o.sort();
        let mut stats = o.stats;
        stats.io = Default::default();
        (o.results, stats)
    };

    let variants: Vec<(&str, Algorithm)> = vec![
        ("mba", Algorithm::mba()),
        (
            "mba-2t",
            Algorithm::Mba {
                traversal: Traversal::default(),
                expansion: Expansion::default(),
                threads: 2,
            },
        ),
        ("bnn", Algorithm::Bnn { group_size: 256 }),
        ("mnn", Algorithm::Mnn),
        ("hnn", Algorithm::hnn()),
    ];
    const RUNS: usize = 9;
    for (name, alg) in variants {
        let baseline_req = || AnnRequest::new(alg).k(k).exclude_self(true);
        let armed_req = || {
            baseline_req()
                .cancel_token(CancelToken::new())
                .deadline_in(Duration::from_secs(3_600))
                .visit_budget(u64::MAX / 2)
                .io_budget(u64::MAX / 2)
                .retry(RetryPolicy::default())
        };
        // The entrypoint is input-generic: point-based algorithms (BNN's
        // R side, HNN) extract objects from the index, identically on
        // both timed paths.
        let run_one = |req: AnnRequest<'static>| -> AnnOutput {
            req.run(Input::Index(&ir), Input::Index(&is))
                .expect("fault-free run")
        };

        // Warm every cache, and pin down the reference decisions.
        let reference = canon(&run_one(baseline_req()));
        let armed_out = canon(&run_one(armed_req()));
        let decision_identical = armed_out == reference;

        // Interleave the two timed paths so slow machine-load drift hits
        // both equally instead of biasing whichever ran second.
        let mut baseline_total = 0.0;
        let mut armed_total = 0.0;
        for _ in 0..RUNS {
            let t0 = Instant::now();
            black_box(run_one(baseline_req()));
            baseline_total += t0.elapsed().as_secs_f64();
            let t0 = Instant::now();
            black_box(run_one(armed_req()));
            armed_total += t0.elapsed().as_secs_f64();
        }
        let baseline_seconds = baseline_total / RUNS as f64;
        let armed_seconds = armed_total / RUNS as f64;

        let overhead_percent = (armed_seconds / baseline_seconds - 1.0) * 100.0;
        report.max_overhead_percent = report.max_overhead_percent.max(overhead_percent);
        report.rows.push(crate::report::RobustnessRow {
            algorithm: name.to_string(),
            n,
            runs: RUNS,
            baseline_seconds,
            armed_seconds,
            overhead_percent,
            decision_identical,
        });
    }
    report
}

/// A [`DiskBackend`] wrapper that charges rotating-disk latency on reads:
/// one seek per read operation plus one transfer per page, with
/// [`read_batch`](ann_store::DiskBackend::read_batch) paying a single
/// seek per *contiguous ascending run* — the cost model under which the
/// prefetcher's sequential coalescing shows up in wall clock the way it
/// would on the paper's 2007 testbed (where a random page cost ~10 ms,
/// see [`crate::harness::IO_SECONDS_PER_PAGE`]). Buffered file reads
/// alone are microseconds, which would reduce the sweep to CPU noise.
///
/// Charging is toggleable so builds and `open()` validation runs are not
/// billed; writes are never charged (the measured workloads are
/// read-only).
struct SeekDisk<D> {
    inner: D,
    seek: std::time::Duration,
    transfer: std::time::Duration,
    charging: std::sync::atomic::AtomicBool,
}

impl<D: ann_store::DiskBackend> SeekDisk<D> {
    fn new(inner: D, seek: std::time::Duration, transfer: std::time::Duration) -> Self {
        SeekDisk {
            inner,
            seek,
            transfer,
            charging: std::sync::atomic::AtomicBool::new(false),
        }
    }

    fn set_charging(&self, on: bool) {
        self.charging
            .store(on, std::sync::atomic::Ordering::Relaxed);
    }

    fn charge(&self, seeks: u32, pages: u32) {
        if self.charging.load(std::sync::atomic::Ordering::Relaxed) {
            std::thread::sleep(self.seek * seeks + self.transfer * pages);
        }
    }
}

impl<D: ann_store::DiskBackend> ann_store::DiskBackend for SeekDisk<D> {
    fn read_page(&self, id: ann_store::PageId, buf: &mut [u8]) -> ann_store::Result<()> {
        self.charge(1, 1);
        self.inner.read_page(id, buf)
    }

    fn write_page(&self, id: ann_store::PageId, buf: &[u8]) -> ann_store::Result<()> {
        self.inner.write_page(id, buf)
    }

    fn allocate(&self) -> ann_store::Result<ann_store::PageId> {
        self.inner.allocate()
    }

    fn num_pages(&self) -> ann_store::PageId {
        self.inner.num_pages()
    }

    fn read_batch(&self, ids: &[ann_store::PageId], out: &mut [u8]) -> ann_store::Result<()> {
        let runs =
            ids.windows(2).filter(|w| w[1] != w[0] + 1).count() as u32 + u32::from(!ids.is_empty());
        self.charge(runs, ids.len() as u32);
        self.inner.read_batch(ids, out)
    }
}

/// Overrides for the out-of-core sweep (`figures outofcore --points N
/// --pool-pages P --seed S`); `None` keeps the fraction-scaled defaults.
#[derive(Clone, Copy, Debug, Default)]
pub struct OutofcoreOpts {
    /// Points per side of the largest sweep cell.
    pub points: Option<usize>,
    /// Single query-phase pool size instead of the default sweep list.
    pub pool_pages: Option<usize>,
    /// Dataset seed.
    pub seed: Option<u64>,
}

/// The out-of-core study (`BENCH_outofcore.json`): streaming external
/// bulk builds onto a [`FileDisk`], then per (points, pool pages) cell a
/// cold BNN self-join against the Hilbert-packed tree — with the leaf
/// prefetcher off and on — under the [`SeekDisk`] rotating-disk cost
/// model.
///
/// Prefetching is gated on two invariants, recorded per row: identical
/// sorted results and an identical logical read count — the prefetcher
/// may change only *when* a physical read happens, never *whether* a
/// logical one does. The separate census row streams `scaled(10⁷)`
/// points through the external R*-tree build, validates every structural
/// invariant, and checks that each input oid comes back exactly once.
///
/// [`FileDisk`]: ann_store::FileDisk
pub fn outofcore(fraction: f64, opts: &OutofcoreOpts) -> crate::report::OutofcoreReport {
    use ann_core::index::{collect_objects, validate};
    use ann_core::query::{Algorithm, AnnRequest, Input, MetricChoice, NoIndex};
    use ann_rstar::{RStar, RStarConfig};
    use ann_store::{BufferPool, FileDisk, PrefetchConfig};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    // The charged disk geometry: 2 ms per seek, 25 µs per page transfer
    // (a scaled-down version of the paper's 10 ms/page 2007 laptop disk,
    // keeping runs short while I/O still dominates a cold sweep).
    const SEEK: Duration = Duration::from_micros(2_000);
    const TRANSFER: Duration = Duration::from_micros(25);

    let seed = opts.seed.unwrap_or(SEED);
    let n_max = opts.points.unwrap_or_else(|| scaled(400_000, fraction));
    let mut sweep_points = vec![(n_max / 4).max(2_000), n_max];
    sweep_points.dedup();
    let pool_sizes = opts
        .pool_pages
        .map_or_else(|| vec![64usize, 256], |p| vec![p]);

    let tmp = std::env::temp_dir();
    let file = |tag: &str| tmp.join(format!("ann-outofcore-{}-{tag}.pages", std::process::id()));

    let mut report = crate::report::OutofcoreReport {
        id: "BENCH_outofcore".into(),
        workload: format!(
            "uniform 2D self-join BNN ANN (k=1) against a streamed-built \
             Hilbert-packed R*-tree on FileDisk (seek {} µs, transfer {} µs \
             per page), cold pool, prefetch off vs on (n up to {n_max})",
            SEEK.as_micros(),
            TRANSFER.as_micros()
        ),
        seed,
        rows: Vec::new(),
        census: crate::report::OutofcoreCensus {
            points: 0,
            run_budget: 0,
            build_seconds: 0.0,
            validate_seconds: 0.0,
            census_seconds: 0.0,
            objects: 0,
            census_complete: false,
        },
    };

    for &n in &sweep_points {
        // Build the S tree once per cardinality through the external
        // pipeline: the input is a lazy stream, spill traffic goes to its
        // own file-backed scratch pool, and the build runs uncharged on a
        // generous pool.
        let tree_path = file(&format!("tree-{n}"));
        let scratch_path = file(&format!("scratch-{n}"));
        let build_pool = Arc::new(BufferPool::new(
            FileDisk::create(&tree_path).expect("create tree file"),
            2_048,
        ));
        let scratch = Arc::new(BufferPool::new(
            FileDisk::create(&scratch_path).expect("create scratch file"),
            256,
        ));
        let budget = (n / 8).max(4_096);
        let t0 = Instant::now();
        let is = RStar::bulk_build_stream(
            build_pool.clone(),
            scratch,
            ann_datagen::uniform_stream::<2>(n, seed),
            budget,
            &RStarConfig::default(),
        )
        .expect("stream-build I_S");
        let build_seconds = t0.elapsed().as_secs_f64();
        let dataset_pages = build_pool.num_pages() as u64;
        let is_meta = is.meta_page();
        drop((is, build_pool));
        std::fs::remove_file(&scratch_path).ok();

        // Query phase: the same file reopened behind the charged disk.
        let r = ann_datagen::uniform::<2>(n, seed);
        let disk = Arc::new(SeekDisk::new(
            FileDisk::open(&tree_path).expect("reopen tree file"),
            SEEK,
            TRANSFER,
        ));
        let pool = Arc::new(BufferPool::new(disk.clone(), 2_048));

        for &pool_pages in &pool_sizes {
            eprintln!(
                "  [outofcore] n={n}, pool={pool_pages} frames, {dataset_pages} dataset pages"
            );
            let mut baseline: Option<(Vec<ann_core::stats::NeighborPair>, u64)> = None;
            for prefetch in [false, true] {
                // Fresh handle per variant: the decoded-node cache lives
                // on the tree handle, and a warm cache would let the
                // second run skip the pool entirely. `open` validates the
                // tree, which is why charging only starts afterwards.
                let is = RStar::<2>::open(pool.clone(), is_meta).expect("reopen I_S");
                pool.clear().expect("clear pool");
                pool.set_capacity(pool_pages.max(8)).expect("set capacity");
                pool.reset_stats();
                if prefetch {
                    // Pipelined: the pool's worker thread overlaps the
                    // speculative seeks with BNN compute; `disable_prefetch`
                    // below parks it before the counters are read.
                    pool.enable_prefetch_pipelined(PrefetchConfig {
                        max_inflight: (pool_pages / 8).clamp(4, 32),
                        batch: 8,
                    });
                } else {
                    pool.disable_prefetch();
                }
                disk.set_charging(true);
                let t0 = Instant::now();
                let mut out = AnnRequest::new(Algorithm::Bnn { group_size: 256 })
                    .k(1)
                    .exclude_self(true)
                    .metric(MetricChoice::Nxn)
                    .run(Input::<2, NoIndex>::Points(&r), Input::Index(&is))
                    .expect("BNN run");
                let wall_seconds = t0.elapsed().as_secs_f64();
                disk.set_charging(false);
                pool.disable_prefetch();
                let io = pool.stats();
                out.sort();
                let identical_to_baseline = match &baseline {
                    None => {
                        baseline = Some((out.results.clone(), io.logical_reads));
                        true
                    }
                    Some((pairs, logical)) => *pairs == out.results && *logical == io.logical_reads,
                };
                report.rows.push(crate::report::OutofcoreRow {
                    points: n,
                    pool_pages,
                    dataset_pages,
                    prefetch,
                    build_seconds,
                    wall_seconds,
                    logical_reads: io.logical_reads,
                    physical_reads: io.physical_reads,
                    prefetch_issued: io.prefetch_issued,
                    prefetch_hits: io.prefetch_hits,
                    prefetch_wasted: io.prefetch_wasted,
                    prefetch_hit_rate: if io.prefetch_issued == 0 {
                        0.0
                    } else {
                        io.prefetch_hits as f64 / io.prefetch_issued as f64
                    },
                    result_pairs: out.results.len(),
                    identical_to_baseline,
                });
            }
        }
        drop(pool);
        std::fs::remove_file(&tree_path).ok();
    }

    // The ≥10⁷-point external build: stream, validate, census.
    let census_n = scaled(10_000_000, fraction);
    let run_budget = census_n.clamp(1, 1 << 20);
    eprintln!("  [outofcore] census: streaming {census_n} points (run budget {run_budget})");
    let tree_path = file("census-tree");
    let scratch_path = file("census-scratch");
    let pool = Arc::new(BufferPool::new(
        FileDisk::create(&tree_path).expect("create census tree file"),
        2_048,
    ));
    let scratch = Arc::new(BufferPool::new(
        FileDisk::create(&scratch_path).expect("create census scratch file"),
        512,
    ));
    let t0 = Instant::now();
    let tree = RStar::bulk_build_stream(
        pool,
        scratch,
        ann_datagen::uniform_stream::<2>(census_n, seed),
        run_budget,
        &RStarConfig::default(),
    )
    .expect("census stream build");
    let build_seconds = t0.elapsed().as_secs_f64();
    std::fs::remove_file(&scratch_path).ok();

    let t0 = Instant::now();
    let shape = validate(&tree).expect("census tree validates");
    let validate_seconds = t0.elapsed().as_secs_f64();

    let t0 = Instant::now();
    let mut oids: Vec<u64> = collect_objects(&tree)
        .expect("census collect")
        .into_iter()
        .map(|(oid, _)| oid)
        .collect();
    oids.sort_unstable();
    let census_complete = shape.objects == census_n as u64
        && oids.len() == census_n
        && oids.iter().enumerate().all(|(i, &oid)| oid == i as u64);
    let census_seconds = t0.elapsed().as_secs_f64();
    drop(tree);
    std::fs::remove_file(&tree_path).ok();

    report.census = crate::report::OutofcoreCensus {
        points: census_n,
        run_budget,
        build_seconds,
        validate_seconds,
        census_seconds,
        objects: shape.objects,
        census_complete,
    };
    report
}

/// All figures at the given fraction (the `figures all` command).
pub fn all(fraction: f64) -> Vec<Figure> {
    vec![
        fig3a(fraction),
        fig3a_synthetic(fraction),
        fig3b(fraction),
        fig4(fraction),
        fig5(fraction),
        fig6(fraction),
        ablation_traversal(fraction),
        ablation_mbr(fraction),
        extra_mnn(fraction),
        extra_hnn(fraction),
        ablation_packing(fraction),
    ]
}

/// Returns a textual rendering of the paper's Table 2
/// (dataset inventory), including the scaled cardinalities in effect.
pub fn table2(fraction: f64) -> String {
    let mut out = String::from("== Table 2 — experimental datasets ==\n");
    out.push_str(&format!(
        "{:<10} {:>12} {:>12} {:>6}  {}\n",
        "name", "paper-card.", "scaled-card.", "dims", "description"
    ));
    for spec in ann_datagen::TABLE2 {
        out.push_str(&format!(
            "{:<10} {:>12} {:>12} {:>6}  {}\n",
            spec.name,
            spec.cardinality,
            scaled(spec.cardinality, fraction),
            spec.dims,
            spec.description
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke test: every generator runs end-to-end at a tiny fraction.
    /// (Figure *values* are covered by the EXPERIMENTS.md runs; here we
    /// only assert structure.)
    #[test]
    fn generators_produce_expected_row_counts() {
        let f = 0.003; // floors to the 2000-point minimum everywhere
        assert_eq!(fig3a(f).rows.len(), 7);
        assert_eq!(fig3b(f).rows.len(), 8);
        assert_eq!(fig4(f).rows.len(), 6);
        assert_eq!(fig5(f).rows.len(), 10);
        assert_eq!(fig6(f).rows.len(), 10);
        assert_eq!(ablation_traversal(f).rows.len(), 4);
        assert_eq!(ablation_mbr(f).rows.len(), 3);
        assert_eq!(extra_mnn(f).rows.len(), 2);
    }

    #[test]
    fn every_method_produces_full_results() {
        let f = 0.003;
        for fig in [fig3a(f), fig4(f)] {
            let expected = fig.rows[0].measurement.result_pairs;
            assert!(expected > 0);
            for row in &fig.rows {
                assert_eq!(
                    row.measurement.result_pairs, expected,
                    "{} disagrees on result count",
                    row.measurement.label
                );
            }
        }
    }

    /// Every committed artifact parses, is named after its `id`, and that
    /// id is a string literal in this file, where the generators name
    /// their outputs: an artifact whose generator was deleted fails here.
    #[test]
    fn every_committed_result_has_a_generator() {
        use ann_core::wire::JsonValue;
        let generators = include_str!("figures.rs");
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results");
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            let stem = path.file_stem().unwrap().to_str().unwrap();
            let doc = JsonValue::parse(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
            assert_eq!(doc.get("id").and_then(JsonValue::as_str), Some(stem));
            assert!(
                generators.contains(&format!("\"{stem}\"")),
                "no generator writes {stem}.json"
            );
        }
    }

    #[test]
    fn table2_lists_all_datasets() {
        let t = table2(0.1);
        for name in ["500K2D", "500K4D", "500K6D", "TAC", "FC"] {
            assert!(t.contains(name));
        }
    }
}
