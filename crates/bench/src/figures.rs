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

/// Extra: scaling of the parallel MBA extension over worker threads.
/// Builds the indices once and measures the join at 2/4/8 threads, with
/// the one-worker (serial) run as the baseline.
pub fn extra_parallel(fraction: f64) -> Figure {
    use ann_core::query::{Algorithm, AnnRequest, Input};
    use ann_mbrqt::{Mbrqt, MbrqtConfig};
    use ann_store::{BufferPool, MemDisk};
    use std::sync::Arc;
    use std::time::Instant;

    let data = tac(fraction);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut fig = Figure::new(
        "extra-parallel",
        &format!(
            "parallel MBA scaling, TAC-like (n={}), host has {cores} core(s) —              expect no speedup beyond that",
            data.len()
        ),
    );
    // A pool big enough to hold both trees: this experiment isolates CPU
    // scaling (with 512 KiB the threads would serialize on page faults).
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 1 << 16));
    let ir = Mbrqt::bulk_build(pool.clone(), &data, &MbrqtConfig::default()).expect("build");
    let is = Mbrqt::bulk_build(pool.clone(), &data, &MbrqtConfig::default()).expect("build");
    let req = AnnRequest::new(Algorithm::mba()).exclude_self(true);
    let join = |threads: usize| {
        req.clone()
            .threads(threads)
            .run(Input::Index(&ir), Input::Index(&is))
            .expect("join")
    };

    let mut push = |group: &str, label: String, out: ann_core::stats::AnnOutput, secs: f64| {
        let io = out.stats.io;
        fig.push(
            group,
            crate::harness::Measurement {
                label,
                cpu_seconds: secs,
                physical_pages: io.physical_total(),
                io_seconds: io.physical_total() as f64 * crate::harness::IO_SECONDS_PER_PAGE,
                logical_reads: io.logical_reads,
                result_pairs: out.results.len(),
                distance_computations: out.stats.distance_computations,
                enqueued: out.stats.enqueued,
                build_seconds: 0.0,
            },
        );
    };

    let t0 = Instant::now();
    let out = join(1);
    push(
        "serial",
        "MBA serial".into(),
        out,
        t0.elapsed().as_secs_f64(),
    );
    for threads in [2usize, 4, 8] {
        let t0 = Instant::now();
        let out = join(threads);
        push(
            &format!("{threads}T"),
            format!("MBA parallel x{threads}"),
            out,
            t0.elapsed().as_secs_f64(),
        );
    }
    fig
}

/// Thread-scaling figure for the concurrency work: the same AkNN
/// self-join at 1/2/4/8/… worker threads, against the default sharded
/// buffer pool and against a single-shard pool (the seed's one-big-mutex
/// design), with the pool hit/miss/contention and node-cache counters
/// that explain the curves. Emitted as `BENCH_parallel_scaling.json`.
pub fn parallel_scaling(fraction: f64) -> crate::report::ScalingReport {
    use crate::report::{ScalingReport, ScalingRow};
    use ann_core::index::SpatialIndex;
    use ann_core::query::{Algorithm, AnnRequest, Input};
    use ann_mbrqt::{Mbrqt, MbrqtConfig};
    use ann_store::{BufferPool, MemDisk};
    use std::sync::Arc;
    use std::time::Instant;

    let data = tac(fraction);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut thread_counts = vec![1usize, 2, 4, 8];
    if cores > 1 && !thread_counts.contains(&cores) {
        thread_counts.push(cores);
        thread_counts.sort_unstable();
    }

    let mut report = ScalingReport {
        id: "BENCH_parallel_scaling".into(),
        workload: format!(
            "parallel MBA AkNN self-join, TAC-like (n={}), sharded vs single-mutex pool",
            data.len()
        ),
        host_cores: cores,
        rows: Vec::new(),
    };

    // Big enough to hold both trees: the study isolates lock/cache
    // behavior, not eviction policy.
    const FRAMES: usize = 1 << 16;
    let req = AnnRequest::new(Algorithm::mba()).exclude_self(true);

    for (kind, shards) in [("single-mutex", Some(1)), ("sharded", None)] {
        let pool = Arc::new(match shards {
            Some(n) => BufferPool::with_shards(MemDisk::new(), FRAMES, n),
            None => BufferPool::new(MemDisk::new(), FRAMES),
        });
        let ir = Mbrqt::bulk_build(pool.clone(), &data, &MbrqtConfig::default()).expect("build");
        let is = Mbrqt::bulk_build(pool.clone(), &data, &MbrqtConfig::default()).expect("build");

        let mut wall_1t = None;
        for &threads in &thread_counts {
            // Cold decoded-node caches each run so every row pays the
            // same first-visit decode cost and the counters compare.
            for tree in [&ir, &is] {
                if let Some(c) = tree.node_cache() {
                    c.clear();
                    c.reset_stats();
                }
            }
            let t0 = Instant::now();
            let out = req
                .clone()
                .threads(threads)
                .run(Input::Index(&ir), Input::Index(&is))
                .expect("join");
            let wall = t0.elapsed().as_secs_f64();
            let wall_1t = *wall_1t.get_or_insert(wall);

            let io = out.stats.io;
            let (mut nc_hits, mut nc_misses) = (0u64, 0u64);
            for tree in [&ir, &is] {
                if let Some(c) = tree.node_cache() {
                    let s = c.stats();
                    nc_hits += s.hits;
                    nc_misses += s.misses;
                }
            }
            let vs_mutex = report
                .rows
                .iter()
                .find(|r| r.pool == "single-mutex" && r.threads == threads && kind == "sharded")
                .map(|r| r.wall_seconds / wall);
            report.rows.push(ScalingRow {
                pool: kind.into(),
                threads,
                wall_seconds: wall,
                speedup_vs_one_thread: wall_1t / wall,
                speedup_vs_single_mutex: vs_mutex,
                pool_hits: io.pool_hits,
                pool_misses: io.pool_misses,
                lock_contention: io.lock_contention,
                node_cache_hits: nc_hits,
                node_cache_misses: nc_misses,
                result_pairs: out.results.len(),
            });
        }
    }
    report
}

/// The morsel-engine scaling study (`BENCH_parallel_join.json`): every
/// algorithm variant through the unified [`AnnRequest`] entrypoint with
/// [`threads`](ann_core::query::AnnRequest::threads) at 1/2/4/8, on a
/// uniform and a clustered dataset, each row byte-diffed against its own
/// single-thread run. The identity bit is the load-bearing output: the
/// work-stealing engine must produce the exact serial pair set at every
/// thread count, on every workload shape. CI validates the schema and
/// the identity bits unconditionally, and the 4-thread speedup when the
/// artifact's own `host_cores` is at least 4 (wall clock is meaningless
/// on hosts with fewer cores than workers).
///
/// [`AnnRequest`]: ann_core::query::AnnRequest
pub fn parallel_join(fraction: f64) -> crate::report::ParallelJoinReport {
    use crate::report::{ParallelJoinReport, ParallelJoinRow};
    use ann_core::prelude::*;
    use ann_mbrqt::{Mbrqt, MbrqtConfig};
    use ann_rstar::{RStar, RStarConfig};
    use ann_store::{BufferPool, MemDisk};
    use std::sync::Arc;
    use std::time::Instant;

    let n = scaled(40_000, fraction);
    let k = 2;
    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    let mut report = ParallelJoinReport {
        id: "BENCH_parallel_join".into(),
        workload: format!(
            "2D self-join AkNN (k={k}, |R|=|S|={n}, warm pool): every \
             algorithm at 1/2/4/8 request threads, byte-diffed vs serial"
        ),
        host_cores: cores,
        k,
        rows: Vec::new(),
    };

    // Canonical pair bytes: the engine's guarantee is about the result
    // set, not the timing-dependent I/O counters.
    let canon = |out: &AnnOutput| -> Vec<(u64, u64, u64)> {
        let mut o = out.clone();
        o.sort();
        o.results
            .iter()
            .map(|p| (p.r_oid, p.s_oid, p.dist.to_bits()))
            .collect()
    };

    let datasets: Vec<(&str, Vec<(u64, ann_geom::Point<2>)>)> = vec![
        ("uniform", ann_datagen::uniform::<2>(n, SEED)),
        (
            "clustered",
            ann_datagen::gaussian_clusters::<2>(n, 24, 0.02, SEED),
        ),
    ];
    let variants: Vec<(&str, Algorithm)> = vec![
        ("mba", Algorithm::mba()),
        ("bnn", Algorithm::Bnn { group_size: 256 }),
        ("mnn", Algorithm::Mnn),
        ("hnn", Algorithm::hnn()),
    ];

    for (ds_name, data) in &datasets {
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 4_096));
        let ir = Mbrqt::bulk_build(pool.clone(), data, &MbrqtConfig::default()).expect("build R");
        let is = RStar::bulk_build(pool, data, &RStarConfig::default()).expect("build S");
        for (name, alg) in &variants {
            let run_one = |threads: usize| -> (AnnOutput, f64) {
                let t0 = Instant::now();
                let out = AnnRequest::new(*alg)
                    .k(k)
                    .exclude_self(true)
                    .threads(threads)
                    .run(Input::Index(&ir), Input::Index(&is))
                    .expect("fault-free run");
                (out, t0.elapsed().as_secs_f64())
            };
            // Warm every cache before anything is timed.
            let (warm, _) = run_one(1);
            let reference = canon(&warm);
            let mut wall_1t = None;
            for threads in [1usize, 2, 4, 8] {
                let (out, wall) = run_one(threads);
                let wall_1t = *wall_1t.get_or_insert(wall);
                report.rows.push(ParallelJoinRow {
                    algorithm: name.to_string(),
                    dataset: ds_name.to_string(),
                    n,
                    threads,
                    wall_seconds: wall,
                    speedup_vs_serial: wall_1t / wall,
                    result_pairs: out.results.len(),
                    byte_identical: canon(&out) == reference,
                });
            }
        }
    }
    report
}

/// Timings for one benchmark pipeline: cold and warm seconds for each
/// side, plus the bitwise comparison of their output buffers.
struct PipelineTimings {
    scalar_cold: f64,
    batched_cold: f64,
    scalar_warm: f64,
    batched_warm: f64,
    bit_identical: bool,
}

/// Times one scalar/batched pipeline pair. Both closures fill the same
/// output buffers and return the final value of their serial decision
/// replay (so neither side can be dead-code-eliminated and both make the
/// same pruning decisions). "Cold" passes run right after streaming the
/// evictor buffer (larger than any L3) to push the candidate columns out
/// of cache; "warm" is the mean of `warm_reps` back-to-back passes after
/// one untimed warm-up. The buffers are compared bit-for-bit at the end.
fn measure_pipeline(
    evictor: &mut [u8],
    sink: &mut u64,
    warm_reps: usize,
    scalar: &mut dyn FnMut(&mut Vec<f64>, &mut Vec<f64>) -> f64,
    batched: &mut dyn FnMut(&mut Vec<f64>, &mut Vec<f64>) -> f64,
    scalar_bufs: (&mut Vec<f64>, &mut Vec<f64>),
    batched_bufs: (&mut Vec<f64>, &mut Vec<f64>),
) -> PipelineTimings {
    use std::hint::black_box;
    use std::time::Instant;
    let (out_a, out_b) = scalar_bufs;
    let (bout_a, bout_b) = batched_bufs;

    let mut evict = |sink: &mut u64| {
        for b in evictor.iter_mut() {
            *b = b.wrapping_add(1);
        }
        *sink ^= evictor[*sink as usize % evictor.len()] as u64;
    };

    evict(sink);
    let t0 = Instant::now();
    let r = scalar(out_a, out_b);
    let scalar_cold = t0.elapsed().as_secs_f64();
    *sink ^= black_box(r).to_bits();

    evict(sink);
    let t0 = Instant::now();
    let r = batched(bout_a, bout_b);
    let batched_cold = t0.elapsed().as_secs_f64();
    *sink ^= black_box(r).to_bits();

    scalar(out_a, out_b);
    let t0 = Instant::now();
    for _ in 0..warm_reps {
        *sink ^= black_box(scalar(out_a, out_b)).to_bits();
    }
    let scalar_warm = t0.elapsed().as_secs_f64() / warm_reps as f64;

    batched(bout_a, bout_b);
    let t0 = Instant::now();
    for _ in 0..warm_reps {
        *sink ^= black_box(batched(bout_a, bout_b)).to_bits();
    }
    let batched_warm = t0.elapsed().as_secs_f64() / warm_reps as f64;

    let bit_identical = out_a
        .iter()
        .zip(bout_a.iter())
        .chain(out_b.iter().zip(bout_b.iter()))
        .all(|(x, y)| x.to_bits() == y.to_bits());
    PipelineTimings {
        scalar_cold,
        batched_cold,
        scalar_warm,
        batched_warm,
        bit_identical,
    }
}

/// Batched-kernel throughput study (DESIGN.md §11): the scalar AoS
/// per-entry loops the query algorithms used before the SoA kernels
/// landed, against [`ann_geom::kernels`] over the same candidates in
/// column-major layout. Three pipelines — the point scan of
/// HNN/BNN/brute force (`DIST²` per candidate point), the MBA/kNN leaf
/// scan (MINMINDIST + NXNDIST per leaf point as a degenerate MBR), and
/// the internal-node probe (the same metrics per candidate MBR) — measured
/// cold (candidate columns evicted from cache) and warm (averaged repeat
/// passes), at D ∈ {2, 8, 10}.
///
/// Every pipeline ends with the serial decision replay the algorithms
/// perform: an evolving pruning bound consumes each value in candidate
/// order. The scalar side interleaves it with the metric evaluation —
/// the exact shape of the pre-kernel per-entry loops, whose loop-carried
/// bound dependency is what kept them from vectorizing — while the
/// batched side runs the kernel first and replays the decisions over the
/// output buffers, the compute-full/decide-after structure the
/// algorithms use today. Both sides compute every metric, produce the
/// same buffers (re-checked bit-for-bit on every row's data), and reach
/// the same final bound. Emitted as `BENCH_kernels.json`; `fraction`
/// scales the candidate count (the 0.1 default → 100 000 candidates per
/// pass).
pub fn kernels_bench(fraction: f64) -> crate::report::KernelsReport {
    use crate::report::{KernelRow, KernelsReport};
    use ann_geom::{kernels, min_min_dist_sq, nxn_dist_sq, Mbr, SoaMbrs, SoaPoints};
    use std::hint::black_box;

    let n = scaled(1_000_000, fraction);
    const WARM_REPS: usize = 16;
    let mut report = KernelsReport {
        id: "BENCH_kernels".into(),
        workload: format!(
            "scalar AoS loops vs batched SoA kernels + decision replay, {n} uniform \
             candidates per pass, warm = mean of {WARM_REPS} passes"
        ),
        lanes: kernels::LANES,
        rows: Vec::new(),
    };

    fn mk_row(
        kernel: &str,
        dims: usize,
        cache: &str,
        n: usize,
        scalar_seconds: f64,
        batched_seconds: f64,
        bit_identical: bool,
    ) -> KernelRow {
        KernelRow {
            kernel: kernel.into(),
            dims,
            cache: cache.into(),
            candidates: n,
            scalar_seconds,
            batched_seconds,
            scalar_melems_per_sec: n as f64 / scalar_seconds / 1e6,
            batched_melems_per_sec: n as f64 / batched_seconds / 1e6,
            speedup: scalar_seconds / batched_seconds,
            bit_identical,
        }
    }

    // Streaming through a buffer larger than L3 evicts the candidate
    // columns, so "cold" rows pay the memory-bound cost the first probe
    // of a node pays after a buffer-pool miss.
    let mut evictor = vec![1u8; 64 << 20];
    let mut sink = 0u64;

    macro_rules! sweep {
        ($dim:literal) => {{
            let mut rng = ann_datagen::Rng::new(SEED ^ ($dim as u64));
            let pts: Vec<Point<$dim>> = (0..n)
                .map(|_| {
                    let mut c = [0.0; $dim];
                    for v in c.iter_mut() {
                        *v = rng.f64() * 100.0;
                    }
                    Point::new(c)
                })
                .collect();
            let mut pt_cols = vec![0.0f64; $dim * n];
            for d in 0..$dim {
                for i in 0..n {
                    pt_cols[d * n + i] = pts[i].coords()[d];
                }
            }
            let mbrs: Vec<Mbr<$dim>> = (0..n)
                .map(|_| {
                    let mut lo = [0.0; $dim];
                    let mut hi = [0.0; $dim];
                    for d in 0..$dim {
                        lo[d] = rng.f64() * 100.0;
                        hi[d] = lo[d] + rng.f64() * 5.0;
                    }
                    Mbr::new(lo, hi)
                })
                .collect();
            let mut lo_cols = vec![0.0f64; $dim * n];
            let mut hi_cols = vec![0.0f64; $dim * n];
            for d in 0..$dim {
                for i in 0..n {
                    lo_cols[d * n + i] = mbrs[i].lo[d];
                    hi_cols[d * n + i] = mbrs[i].hi[d];
                }
            }
            let mut qc = [0.0; $dim];
            let mut qlo = [0.0; $dim];
            let mut qhi = [0.0; $dim];
            for d in 0..$dim {
                qc[d] = rng.f64() * 100.0;
                qlo[d] = rng.f64() * 100.0;
                qhi[d] = qlo[d] + rng.f64() * 10.0;
            }
            let q = Point::new(qc);
            let qm = Mbr::new(qlo, qhi);

            let mut out_a = vec![0.0f64; n];
            let mut out_b = vec![0.0f64; n];
            let mut bout_a: Vec<f64> = Vec::with_capacity(n);
            let mut bout_b: Vec<f64> = Vec::with_capacity(n);

            // -- point-leaf-scan: DIST² of one query point against every
            //    candidate point, the HNN/BNN/brute inner loop. The
            //    replay is the running best the k-best heap maintains.
            {
                let mut scalar = |out: &mut Vec<f64>, _unused: &mut Vec<f64>| {
                    let mut best = f64::INFINITY;
                    let mut improved = 0u64;
                    for i in 0..n {
                        let d2 = q.dist_sq(&pts[i]);
                        out[i] = d2;
                        if d2 < best {
                            best = d2;
                            improved += 1;
                        }
                    }
                    best + improved as f64
                };
                let mut batched = |out: &mut Vec<f64>, _unused: &mut Vec<f64>| {
                    let sp = SoaPoints::new(n, &pt_cols);
                    kernels::dist_sq_batch(&q, &sp, out);
                    let mut best = f64::INFINITY;
                    let mut improved = 0u64;
                    for &d2 in out.iter() {
                        if d2 < best {
                            best = d2;
                            improved += 1;
                        }
                    }
                    best + improved as f64
                };
                let t = measure_pipeline(
                    &mut evictor,
                    &mut sink,
                    WARM_REPS,
                    &mut scalar,
                    &mut batched,
                    (&mut out_a, &mut out_b),
                    (&mut bout_a, &mut bout_b),
                );
                report.rows.push(mk_row(
                    "point-leaf-scan",
                    $dim,
                    "cold",
                    n,
                    t.scalar_cold,
                    t.batched_cold,
                    t.bit_identical,
                ));
                report.rows.push(mk_row(
                    "point-leaf-scan",
                    $dim,
                    "warm",
                    n,
                    t.scalar_warm,
                    t.batched_warm,
                    t.bit_identical,
                ));
            }

            // -- leaf-scan: MINMINDIST + NXNDIST of one LPQ-owner MBR
            //    against every leaf point viewed as a degenerate MBR
            //    (`soa_mbrs()` on a leaf aliases lo = hi to the point
            //    columns; the scalar path gathered each entry through
            //    `Mbr::from_point`). This is the scan a *node* owner
            //    runs over a leaf; a point owner (MBA's Gather stage,
            //    kNN, MNN) takes the exact `dist_sq_batch` path that
            //    the point-leaf-scan row above times.
            {
                let mut scalar = |omin: &mut Vec<f64>, oup: &mut Vec<f64>| {
                    let mut bound = f64::INFINITY;
                    for i in 0..n {
                        let pm = Mbr::from_point(&pts[i]);
                        let mind = min_min_dist_sq(&qm, &pm);
                        let up = nxn_dist_sq(&qm, &pm);
                        omin[i] = mind;
                        oup[i] = up;
                        if mind <= bound {
                            bound = bound.min(up);
                        }
                    }
                    bound
                };
                let mut batched = |omin: &mut Vec<f64>, oup: &mut Vec<f64>| {
                    let sm = SoaPoints::new(n, &pt_cols).as_mbrs();
                    kernels::min_min_dist_sq_batch(&qm, &sm, omin);
                    kernels::nxn_dist_sq_batch(&qm, &sm, oup);
                    let mut bound = f64::INFINITY;
                    for i in 0..n {
                        if omin[i] <= bound {
                            bound = bound.min(oup[i]);
                        }
                    }
                    bound
                };
                let t = measure_pipeline(
                    &mut evictor,
                    &mut sink,
                    WARM_REPS,
                    &mut scalar,
                    &mut batched,
                    (&mut out_a, &mut out_b),
                    (&mut bout_a, &mut bout_b),
                );
                report.rows.push(mk_row(
                    "leaf-scan",
                    $dim,
                    "cold",
                    n,
                    t.scalar_cold,
                    t.batched_cold,
                    t.bit_identical,
                ));
                report.rows.push(mk_row(
                    "leaf-scan",
                    $dim,
                    "warm",
                    n,
                    t.scalar_warm,
                    t.batched_warm,
                    t.bit_identical,
                ));
            }

            // -- mbr-probe: MINMINDIST + NXNDIST of one query MBR against
            //    every candidate MBR, the MBA/MNN/kNN node-probe loop.
            {
                let mut scalar = |omin: &mut Vec<f64>, oup: &mut Vec<f64>| {
                    let mut bound = f64::INFINITY;
                    for i in 0..n {
                        let mind = min_min_dist_sq(&qm, &mbrs[i]);
                        let up = nxn_dist_sq(&qm, &mbrs[i]);
                        omin[i] = mind;
                        oup[i] = up;
                        if mind <= bound {
                            bound = bound.min(up);
                        }
                    }
                    bound
                };
                let mut batched = |omin: &mut Vec<f64>, oup: &mut Vec<f64>| {
                    let sm = SoaMbrs::new(n, &lo_cols, &hi_cols);
                    kernels::min_min_dist_sq_batch(&qm, &sm, omin);
                    kernels::nxn_dist_sq_batch(&qm, &sm, oup);
                    let mut bound = f64::INFINITY;
                    for i in 0..n {
                        if omin[i] <= bound {
                            bound = bound.min(oup[i]);
                        }
                    }
                    bound
                };
                let t = measure_pipeline(
                    &mut evictor,
                    &mut sink,
                    WARM_REPS,
                    &mut scalar,
                    &mut batched,
                    (&mut out_a, &mut out_b),
                    (&mut bout_a, &mut bout_b),
                );
                report.rows.push(mk_row(
                    "mbr-probe",
                    $dim,
                    "cold",
                    n,
                    t.scalar_cold,
                    t.batched_cold,
                    t.bit_identical,
                ));
                report.rows.push(mk_row(
                    "mbr-probe",
                    $dim,
                    "warm",
                    n,
                    t.scalar_warm,
                    t.batched_warm,
                    t.bit_identical,
                ));
            }
        }};
    }
    sweep!(2);
    sweep!(8);
    sweep!(10);
    black_box(sink);
    report
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
        extra_parallel(fraction),
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

/// The serving load sweep (`BENCH_serving`): the zero-dep HTTP
/// front-end under closed-loop load.
///
/// One in-process [`ann_serve::server::Server`] hosts a TAC-like 2-D
/// collection; each level runs a fixed pool of concurrent keep-alive
/// clients, every client issuing full AkNN self-join queries
/// back-to-back over a real socket. Every response is checked
/// byte-for-byte against the in-process [`run`](ann_core::query::run)
/// reference (stats excluded — pool counters legitimately vary under
/// concurrency), so the sweep doubles as the serving-identity gate:
/// CI fails on any non-200 response or any result divergence.
pub fn serving(fraction: f64) -> crate::report::ServingReport {
    use ann_core::query::{run, Input};
    use ann_core::stats::AnnStats;
    use ann_core::wire::{QueryOutcome, QuerySpec};
    use ann_mbrqt::{Mbrqt, MbrqtConfig};
    use ann_serve::client::{Client, Conn};
    use ann_serve::server::{Server, ServerConfig};
    use ann_store::{BufferPool, MemDisk};
    use std::sync::Arc;
    use std::time::Instant;

    let n = scaled(20_000, fraction);
    let k = 2;
    let workers = 4;
    let queue_depth = 64;

    // The server assigns positional oids on create, so the library-side
    // reference must be built over the same positional keying.
    let data = ann_datagen::tac_like(n, SEED);
    let points: Vec<(u64, Point<2>)> = data
        .iter()
        .enumerate()
        .map(|(i, (_, p))| (i as u64, *p))
        .collect();
    let rows: Vec<[f64; 2]> = points.iter().map(|(_, p)| [p.0[0], p.0[1]]).collect();

    let spec = QuerySpec {
        k,
        exclude_self: true,
        ..QuerySpec::default()
    };

    // Library-side reference, canonicalized to "pairs only" in the
    // server's canonical `(r_oid, dist, s_oid)` wire order.
    let pairs_only = |mut results: Vec<ann_core::stats::NeighborPair>| {
        results.sort_by(|a, b| {
            (a.r_oid, a.dist, a.s_oid)
                .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
                .expect("distances are finite")
        });
        QueryOutcome {
            results,
            stats: AnnStats::default(),
            report: None,
            version: None,
        }
        .to_json()
    };
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 2_048));
    let ir = Mbrqt::bulk_build(pool, &points, &MbrqtConfig::default()).expect("build reference");
    let expected = Arc::new(pairs_only(
        run(&spec.to_request(), Input::Index(&ir), Input::Index(&ir))
            .expect("reference run")
            .results,
    ));

    let data_dir = std::env::temp_dir().join(format!("ann-serve-bench-{}", std::process::id()));
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        queue_depth,
        data_dir: data_dir.clone(),
        pool_frames: 2_048,
        compute_tokens: 0,
    })
    .expect("server starts");
    let client = Client::new(server.addr().to_string());
    let created = client
        .create_collection("bench", "mbrqt", &rows)
        .expect("create collection");
    assert_eq!(created.status, 201, "create failed: {}", created.body);

    let mut report = crate::report::ServingReport {
        id: "BENCH_serving".into(),
        workload: format!(
            "TAC-like 2D self-join AkNN (k={k}, |R|=|S|={n}) over the HTTP \
             front-end: closed-loop keep-alive clients, {workers} workers, \
             queue depth {queue_depth}, every response checked against \
             query::run"
        ),
        n,
        k,
        workers,
        queue_depth,
        rows: Vec::new(),
    };

    let spec_json = Arc::new(spec.to_json());
    let addr = server.addr().to_string();
    for clients in [1usize, 8, 32] {
        let requests_per_client = (256 / clients).max(4);
        let t0 = Instant::now();
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                let spec_json = Arc::clone(&spec_json);
                let expected = Arc::clone(&expected);
                std::thread::spawn(move || {
                    let mut latencies = Vec::with_capacity(requests_per_client);
                    let mut failed = 0usize;
                    let mut identical = true;
                    let mut conn = Conn::connect(&addr).expect("connect");
                    for _ in 0..requests_per_client {
                        let r0 = Instant::now();
                        let resp = conn
                            .request("POST", "/collections/bench/query", &spec_json)
                            .expect("request");
                        latencies.push(r0.elapsed().as_micros() as u64);
                        if resp.status != 200 {
                            failed += 1;
                            continue;
                        }
                        let pairs = QueryOutcome::from_json(&resp.body)
                            .map(|o| {
                                QueryOutcome {
                                    results: o.results,
                                    stats: AnnStats::default(),
                                    report: None,
                                    version: None,
                                }
                                .to_json()
                            })
                            .unwrap_or_default();
                        identical &= pairs == *expected;
                    }
                    (latencies, failed, identical)
                })
            })
            .collect();

        let mut latencies = Vec::new();
        let mut failed = 0usize;
        let mut identical = true;
        for h in handles {
            let (l, f, i) = h.join().expect("client thread");
            latencies.extend(l);
            failed += f;
            identical &= i;
        }
        let wall_seconds = t0.elapsed().as_secs_f64();
        latencies.sort_unstable();
        let pct = |q: f64| -> f64 {
            let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
            latencies[idx] as f64
        };
        let total = clients * requests_per_client;
        report.rows.push(crate::report::ServingRow {
            clients,
            requests_per_client,
            total_requests: total,
            failed_requests: failed,
            results_identical: identical,
            wall_seconds,
            throughput_qps: total as f64 / wall_seconds,
            p50_us: pct(0.50),
            p95_us: pct(0.95),
            p99_us: pct(0.99),
        });
    }

    server.shutdown();
    std::fs::remove_dir_all(&data_dir).ok();
    report
}

/// The MVCC snapshot-isolation benchmark (`BENCH_mvcc`): reader latency
/// over a versioned MBRQT with and without an active writer.
///
/// A pool of reader threads each pins a fresh snapshot per query
/// ([`VersionedHandle::pin`](ann_core::snapshot::VersionedHandle::pin))
/// and runs a full AkNN self-join against it — once on a quiescent
/// store (`read_only`) and once while a writer thread commits versioned
/// insert/delete transactions at a steady cadence (`with_writer`).
/// The two modes alternate in short rounds rather than running as two
/// monolithic blocks, so transient machine noise (CI runners are shared
/// and small) lands on both modes evenly instead of skewing whichever
/// block it happened to hit. Readers never take the writer's lock, so
/// the two modes' p95 latencies should sit close together — CI gates
/// `reader_p95_ratio` (with-writer p95 / read-only p95) at 1.25, the
/// "readers are not blocked by writers" headline.
pub fn mvcc(fraction: f64) -> crate::report::MvccReport {
    use ann_core::query::{run as run_query, Input};
    use ann_core::snapshot::VersionedHandle;
    use ann_core::wire::QuerySpec;
    use ann_mbrqt::{Mbrqt, MbrqtConfig};
    use ann_store::{BufferPool, MemDisk, DEFAULT_KEEP};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    let n = scaled(20_000, fraction);
    let k = 2;
    let readers = 2;
    let rounds = 6;
    let queries_per_reader = 8; // per reader per round; 96 total per mode

    let data = ann_datagen::tac_like(n, SEED);
    let points: Vec<(u64, Point<2>)> = data
        .iter()
        .enumerate()
        .map(|(i, (_, p))| (i as u64, *p))
        .collect();

    let pool = Arc::new(BufferPool::new(MemDisk::new(), 4_096));
    let mut tree =
        Mbrqt::bulk_build(Arc::clone(&pool), &points, &MbrqtConfig::default()).expect("build");
    tree.enable_versioning(DEFAULT_KEEP).expect("versioning");
    let handle = tree.versioned_handle().expect("versioned handle");

    let spec = QuerySpec {
        k,
        exclude_self: true,
        ..QuerySpec::default()
    };
    let req = spec.to_request();

    // Warm the buffer pool and the node cache for the current version.
    {
        let ctx = handle.pin(None).expect("warmup pin");
        run_query(&req, Input::Index(&ctx), Input::Index(&ctx)).expect("warmup query");
    }

    // One reader phase: every query pins its own snapshot, runs the full
    // self-join against it, and releases the pin. Returns the merged
    // per-query latencies (µs) plus the failure count and wall time.
    let reader_phase = |handle: &VersionedHandle<2>| -> (Vec<u64>, usize, f64) {
        let t0 = Instant::now();
        let mut latencies = Vec::new();
        let mut failed = 0usize;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..readers)
                .map(|_| {
                    let handle = handle.clone();
                    let req = &req;
                    scope.spawn(move || {
                        let mut lat = Vec::with_capacity(queries_per_reader);
                        let mut fail = 0usize;
                        for _ in 0..queries_per_reader {
                            let q0 = Instant::now();
                            let ok = handle.pin(None).ok().and_then(|ctx| {
                                run_query(req, Input::Index(&ctx), Input::Index(&ctx)).ok()
                            });
                            lat.push(q0.elapsed().as_micros() as u64);
                            if ok.is_none() {
                                fail += 1;
                            }
                        }
                        (lat, fail)
                    })
                })
                .collect();
            for h in handles {
                let (lat, fail) = h.join().expect("reader thread");
                latencies.extend(lat);
                failed += fail;
            }
        });
        (latencies, failed, t0.elapsed().as_secs_f64())
    };

    let pct = |latencies: &[u64], q: f64| -> f64 {
        let idx = ((latencies.len() - 1) as f64 * q).round() as usize;
        latencies[idx] as f64
    };
    let row = |mode: &str,
               latencies: &mut Vec<u64>,
               failed: usize,
               commits: usize,
               wall: f64|
     -> crate::report::MvccRow {
        latencies.sort_unstable();
        crate::report::MvccRow {
            mode: mode.into(),
            readers,
            queries: latencies.len(),
            failed,
            writer_commits: commits,
            wall_seconds: wall,
            throughput_qps: latencies.len() as f64 / wall,
            p50_us: pct(latencies, 0.50),
            p95_us: pct(latencies, 0.95),
            p99_us: pct(latencies, 0.99),
        }
    };

    // Alternate read-only and with-writer rounds. During a with-writer
    // round the writer commits versioned insert+delete transactions at a
    // steady ~50 Hz cadence. The pacing matters: the gate is about
    // snapshot *blocking*, and a spinning writer on a small machine
    // would instead measure raw CPU contention (CI runners can have a
    // single core).
    let (mut lat_ro, mut lat_w) = (Vec::new(), Vec::new());
    let (mut failed_ro, mut failed_w) = (0usize, 0usize);
    let (mut wall_ro, mut wall_w) = (0.0f64, 0.0f64);
    let mut commits = 0usize;
    let mut next_oid = n as u64;
    for _ in 0..rounds {
        let (lat, fail, wall) = reader_phase(&handle);
        lat_ro.extend(lat);
        failed_ro += fail;
        wall_ro += wall;

        let stop = AtomicBool::new(false);
        let (lat, fail, wall) = std::thread::scope(|scope| {
            let tree = &mut tree;
            let points = &points;
            let next_oid = &mut next_oid;
            let stop = &stop;
            let writer = scope.spawn(move || {
                let mut done = 0usize;
                while !stop.load(Ordering::Acquire) {
                    // Reuse an existing coordinate so the insert always
                    // lands inside the MBRQT's bulk-build universe.
                    let p = points[*next_oid as usize % n].1;
                    tree.insert(*next_oid, p).expect("writer insert");
                    tree.delete(*next_oid, &p).expect("writer delete");
                    *next_oid += 1;
                    done += 2;
                    std::thread::sleep(Duration::from_millis(20));
                }
                done
            });
            let out = reader_phase(&handle);
            stop.store(true, Ordering::Release);
            commits += writer.join().expect("writer thread");
            out
        });
        lat_w.extend(lat);
        failed_w += fail;
        wall_w += wall;
    }
    let row_ro = row("read_only", &mut lat_ro, failed_ro, 0, wall_ro);
    let row_w = row("with_writer", &mut lat_w, failed_w, commits, wall_w);

    let ratio = row_w.p95_us / row_ro.p95_us;
    crate::report::MvccReport {
        id: "BENCH_mvcc".into(),
        workload: format!(
            "TAC-like 2D self-join AkNN (k={k}, |R|=|S|={n}) over a \
             versioned MBRQT: {readers} readers pinning a snapshot per \
             query, read-only vs. concurrent writer committing versioned \
             insert/delete transactions (history window {DEFAULT_KEEP})"
        ),
        n,
        k,
        keep: DEFAULT_KEEP,
        rows: vec![row_ro, row_w],
        reader_p95_ratio: ratio,
    }
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

    #[test]
    fn table2_lists_all_datasets() {
        let t = table2(0.1);
        for name in ["500K2D", "500K4D", "500K6D", "TAC", "FC"] {
            assert!(t.contains(name));
        }
    }
}
