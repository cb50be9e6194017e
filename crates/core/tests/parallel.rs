//! Tests for the parallel join engine: identical results to the serial
//! algorithm, across thread counts, configurations and index types.

use ann_core::brute::brute_force_aknn;
use ann_core::query::{Algorithm, AnnRequest, Input, NoIndex};
use ann_core::{CancelToken, ExecutionReport, QueryError, RecordingSink, SpatialIndex};
use ann_datagen::Rng;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, MemDisk};
use std::sync::Arc;

fn pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(MemDisk::new(), frames))
}

fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<(u64, Point<D>)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = rng.range_f64(0.0, 100.0);
            }
            (i as u64, Point::new(c))
        })
        .collect()
}

/// MBA with the paper's defaults over `threads` workers.
fn mba(threads: usize) -> AnnRequest<'static> {
    AnnRequest::new(Algorithm::mba()).threads(threads)
}

/// Runs `req` over two indexed sides.
fn join<const D: usize, IR, IS>(req: AnnRequest<'_>, ir: &IR, is: &IS) -> ann_core::AnnOutput
where
    IR: SpatialIndex<D> + Sync,
    IS: SpatialIndex<D> + Sync,
{
    req.run(Input::Index(ir), Input::Index(is)).unwrap()
}

fn canonical(mut out: ann_core::stats::AnnOutput) -> Vec<(u64, u64)> {
    out.sort();
    out.results
        .into_iter()
        .map(|p| (p.r_oid, p.dist.to_bits()))
        .collect()
}

#[test]
fn parallel_matches_serial_exactly() {
    let r = random_points::<2>(3000, 41);
    let s = random_points::<2>(3200, 42);
    let p = pool(1024);
    let ir = Mbrqt::bulk_build(p.clone(), &r, &MbrqtConfig::default()).unwrap();
    let is = Mbrqt::bulk_build(p, &s, &MbrqtConfig::default()).unwrap();
    let serial = canonical(join(mba(1), &ir, &is));
    for threads in [2usize, 4, 7] {
        let par = canonical(join(mba(threads), &ir, &is));
        assert_eq!(par, serial, "threads={threads}");
    }
}

#[test]
fn parallel_matches_brute_force_aknn() {
    let pts = random_points::<3>(1500, 43);
    let p = pool(1024);
    let tree = RStar::bulk_build(p, &pts, &RStarConfig::default()).unwrap();
    let out = join(mba(0).k(4).exclude_self(true), &tree, &tree);
    let mut truth = brute_force_aknn(&pts, &pts, 4, true);
    truth.sort_by(|a, b| {
        (a.r_oid, a.dist, a.s_oid)
            .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
            .unwrap()
    });
    assert_eq!(out.results.len(), truth.len());
    for (g, t) in out.results.iter().zip(&truth) {
        assert_eq!(g.r_oid, t.r_oid);
        assert!((g.dist - t.dist).abs() < 1e-9);
    }
}

#[test]
fn parallel_on_empty_and_tiny_inputs() {
    let p = pool(64);
    let empty = Mbrqt::<2>::bulk_build(p.clone(), &[], &MbrqtConfig::default()).unwrap();
    let one =
        Mbrqt::bulk_build(p, &[(7, Point::new([1.0, 1.0]))], &MbrqtConfig::default()).unwrap();
    assert!(join(mba(4), &empty, &one).results.is_empty());
    let out = join(mba(4), &one, &one);
    assert_eq!(out.results.len(), 1);
}

#[test]
fn parallel_work_counters_match_serial() {
    // Same pruning decisions happen in each subtree regardless of which
    // thread runs it, so the aggregate counters are identical.
    let pts = random_points::<2>(4000, 44);
    let p = pool(4096);
    let tree = Mbrqt::bulk_build(p, &pts, &MbrqtConfig::default()).unwrap();
    let serial = join(mba(1), &tree, &tree).stats;
    let par = join(mba(4), &tree, &tree).stats;
    assert_eq!(serial.distance_computations, par.distance_computations);
    assert_eq!(serial.enqueued, par.enqueued);
    assert_eq!(serial.r_nodes_expanded, par.r_nodes_expanded);
    assert_eq!(serial.s_nodes_expanded, par.s_nodes_expanded);
}

#[test]
fn parallel_speedup_on_large_input() {
    // Not a strict benchmark — just assert the parallel path is not
    // pathologically slower than serial on a workload big enough to
    // amortize thread startup.
    if std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        < 2
    {
        return; // single-core runner: nothing to measure
    }
    let pts = ann_datagen::tac_like(40_000, 45);
    let p = pool(16384);
    let tree = Mbrqt::bulk_build(p, &pts, &MbrqtConfig::default()).unwrap();
    let t0 = std::time::Instant::now();
    let serial = join(mba(1).exclude_self(true), &tree, &tree);
    let t_serial = t0.elapsed();
    let t0 = std::time::Instant::now();
    let par = join(mba(0).exclude_self(true), &tree, &tree);
    let t_par = t0.elapsed();
    assert_eq!(serial.results.len(), par.results.len());
    assert!(
        t_par < t_serial * 2,
        "parallel run degenerated: {t_par:?} vs serial {t_serial:?}"
    );
    eprintln!("serial {t_serial:?}, parallel {t_par:?}");
}

// ---- every algorithm over the shared morsel engine ----

fn triples(mut out: ann_core::stats::AnnOutput) -> Vec<(u64, u64, u64)> {
    out.sort();
    out.results
        .into_iter()
        .map(|p| (p.r_oid, p.s_oid, p.dist.to_bits()))
        .collect()
}

/// Every algorithm must produce byte-identical (canonicalized) output at
/// every thread count, on clustered data that stresses work stealing.
#[test]
fn request_threads_identical_across_algorithms() {
    let r = ann_datagen::tac_like(2500, 46);
    let s = ann_datagen::tac_like(2700, 47);
    let p = pool(1024);
    let ir = Mbrqt::bulk_build(p.clone(), &r, &MbrqtConfig::default()).unwrap();
    let is = Mbrqt::bulk_build(p, &s, &MbrqtConfig::default()).unwrap();
    for algorithm in [
        Algorithm::mba(),
        Algorithm::bnn(),
        Algorithm::Mnn,
        Algorithm::hnn(),
    ] {
        let base = AnnRequest::new(algorithm).k(3);
        let serial = triples(
            base.clone()
                .run(Input::Index(&ir), Input::Index(&is))
                .unwrap(),
        );
        for threads in [0usize, 2, 3, 8] {
            let par = triples(
                base.clone()
                    .threads(threads)
                    .run(Input::Index(&ir), Input::Index(&is))
                    .unwrap(),
            );
            assert_eq!(
                par,
                serial,
                "algorithm={} threads={threads}",
                algorithm.name()
            );
        }
    }
}

/// Work counters are scheduling-invariant sums for every parallel path.
#[test]
fn request_threads_counters_match_serial() {
    let pts = ann_datagen::gaussian_clusters::<2>(3000, 12, 0.02, 48);
    let p = pool(2048);
    let tree = Mbrqt::bulk_build(p, &pts, &MbrqtConfig::default()).unwrap();
    for algorithm in [Algorithm::mba(), Algorithm::bnn(), Algorithm::Mnn] {
        let base = AnnRequest::new(algorithm).k(2).exclude_self(true);
        let serial = base
            .clone()
            .run(Input::Index(&tree), Input::Index(&tree))
            .unwrap()
            .stats;
        let par = base
            .clone()
            .threads(3)
            .run(Input::Index(&tree), Input::Index(&tree))
            .unwrap()
            .stats;
        let name = algorithm.name();
        assert_eq!(
            serial.distance_computations, par.distance_computations,
            "{name}"
        );
        assert_eq!(serial.enqueued, par.enqueued, "{name}");
        assert_eq!(serial.pruned_on_probe, par.pruned_on_probe, "{name}");
        assert_eq!(serial.r_nodes_expanded, par.r_nodes_expanded, "{name}");
        assert_eq!(serial.s_nodes_expanded, par.s_nodes_expanded, "{name}");
    }
}

/// The trace is thread-count-invariant too: the same phases (never a
/// `seed` phase — the root probe runs under `join` at every count), the
/// same per-reason prune totals and node-expansion counts as the serial
/// run, and no span left open.
#[test]
fn trace_shape_is_thread_count_invariant() {
    let pts = ann_datagen::gaussian_clusters::<2>(3000, 12, 0.02, 48);
    let p = pool(2048);
    let tree = Mbrqt::bulk_build(p, &pts, &MbrqtConfig::default()).unwrap();
    for (algorithm, prepares) in [
        (Algorithm::mba(), None),
        (Algorithm::bnn(), Some("sort")),
        (Algorithm::Mnn, None),
        (Algorithm::hnn(), Some("build")),
    ] {
        let name = algorithm.name();
        let want_phases: Vec<&str> = prepares.into_iter().chain(["join", "query"]).collect();
        let traced = |threads: usize| {
            let sink = RecordingSink::new();
            AnnRequest::new(algorithm)
                .k(2)
                .exclude_self(true)
                .threads(threads)
                .trace(&sink)
                .run(Input::Index(&tree), Input::Index(&tree))
                .unwrap();
            assert_eq!(sink.open_spans(), 0, "{name} threads={threads}");
            sink.report(name)
        };
        let serial = traced(1);
        for threads in [1usize, 2, 3] {
            let report = traced(threads);
            let phases: Vec<&str> = report.phases.iter().map(|ph| ph.phase).collect();
            assert_eq!(phases, want_phases, "{name} threads={threads}: phases");
            let prunes = |r: &ExecutionReport| -> Vec<(&str, &str, u64)> {
                r.prunes
                    .iter()
                    .map(|p| (p.metric, p.reason, p.count))
                    .collect()
            };
            assert_eq!(
                prunes(&report),
                prunes(&serial),
                "{name} threads={threads}: prune totals"
            );
            let expansions = |r: &ExecutionReport| -> Vec<(&str, u32, u64, u64)> {
                r.levels
                    .iter()
                    .map(|l| (l.side, l.level, l.expansions, l.objects))
                    .collect()
            };
            assert_eq!(
                expansions(&report),
                expansions(&serial),
                "{name} threads={threads}: node expansions"
            );
        }
    }
}

/// HNN's parallel path accepts plain point inputs (no index anywhere).
#[test]
fn hnn_parallel_over_plain_points() {
    let r = random_points::<2>(1200, 49);
    let s = random_points::<2>(1300, 50);
    let req = AnnRequest::new(Algorithm::hnn()).k(2);
    let serial = triples(
        req.clone()
            .run(
                Input::<2, NoIndex>::Points(&r),
                Input::<2, NoIndex>::Points(&s),
            )
            .unwrap(),
    );
    let par = triples(
        req.threads(4)
            .run(
                Input::<2, NoIndex>::Points(&r),
                Input::<2, NoIndex>::Points(&s),
            )
            .unwrap(),
    );
    assert_eq!(par, serial);
}

/// A pre-cancelled token aborts every worker with the typed error, and no
/// buffer-pool pin survives the abort at any thread count.
#[test]
fn parallel_cancel_aborts_all_workers_and_leaks_no_pins() {
    let pts = random_points::<2>(4000, 51);
    let p = pool(1024);
    let tree = Mbrqt::bulk_build(p.clone(), &pts, &MbrqtConfig::default()).unwrap();
    for algorithm in [
        Algorithm::mba(),
        Algorithm::bnn(),
        Algorithm::Mnn,
        Algorithm::hnn(),
    ] {
        let token = CancelToken::new();
        token.cancel();
        let err = AnnRequest::new(algorithm)
            .threads(4)
            .cancel_token(token)
            .run(Input::Index(&tree), Input::Index(&tree))
            .unwrap_err();
        assert!(
            matches!(err, QueryError::Cancelled),
            "algorithm={} err={err:?}",
            algorithm.name()
        );
        assert_eq!(p.pinned_frames(), 0, "algorithm={}", algorithm.name());
    }
}

/// A tiny visit budget trips mid-join inside the workers; the typed error
/// surfaces, pins are released, and a cold rerun without the budget is
/// identical to serial (aborts leave no residue).
#[test]
fn parallel_budget_abort_then_identical_rerun() {
    let pts = ann_datagen::tac_like(3000, 52);
    let p = pool(1024);
    let tree = Mbrqt::bulk_build(p.clone(), &pts, &MbrqtConfig::default()).unwrap();
    for algorithm in [Algorithm::mba(), Algorithm::bnn(), Algorithm::Mnn] {
        let err = AnnRequest::new(algorithm)
            .threads(3)
            .visit_budget(5)
            .run(Input::Index(&tree), Input::Index(&tree))
            .unwrap_err();
        assert!(
            matches!(err, QueryError::BudgetExhausted { .. }),
            "algorithm={} err={err:?}",
            algorithm.name()
        );
        assert_eq!(p.pinned_frames(), 0);
        let serial = triples(
            AnnRequest::new(algorithm)
                .run(Input::Index(&tree), Input::Index(&tree))
                .unwrap(),
        );
        let rerun = triples(
            AnnRequest::new(algorithm)
                .threads(3)
                .run(Input::Index(&tree), Input::Index(&tree))
                .unwrap(),
        );
        assert_eq!(rerun, serial, "algorithm={}", algorithm.name());
    }
}
