//! Request-level resilience semantics: deadlines, cancellation, and work
//! budgets threaded through [`AnnRequest`] must abort promptly, report
//! accurate partial work, and leave the system in a state where a cold
//! clean re-run is byte-identical to a fresh one.

use ann_core::brute::brute_force_aknn;
use ann_core::prelude::*;
use ann_core::WritableIndex;
use ann_datagen::Rng;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, FaultyDisk, InjectedFault, MemDisk};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn random_points(n: usize, seed: u64) -> Vec<(u64, Point<2>)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            (
                i as u64,
                Point::new([rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)]),
            )
        })
        .collect()
}

/// Small nodes so a few hundred points span many pages and expansions.
fn qt_cfg() -> MbrqtConfig {
    MbrqtConfig {
        bucket_capacity: 16,
        ..Default::default()
    }
}

fn rs_cfg() -> RStarConfig {
    RStarConfig {
        max_leaf_entries: 16,
        max_internal_entries: 8,
    }
}

struct Fixture {
    pool: Arc<BufferPool>,
    ir: Mbrqt<2>,
    is: RStar<2>,
}

fn fixture(n: usize, seed: u64, frames: usize) -> Fixture {
    let pts = random_points(n, seed);
    let pool = Arc::new(BufferPool::new(MemDisk::new(), frames));
    let ir = Mbrqt::bulk_build(pool.clone(), &pts, &qt_cfg()).unwrap();
    let is = RStar::bulk_build(pool.clone(), &pts, &rs_cfg()).unwrap();
    Fixture { pool, ir, is }
}

/// Drops every decoded-node cache and pool frame so the next run pays
/// real I/O (the caches otherwise serve repeats without touching disk).
fn chill(f: &Fixture) {
    if let Some(c) = f.ir.node_cache() {
        c.clear();
    }
    if let Some(c) = f.is.node_cache() {
        c.clear();
    }
    f.pool.clear().unwrap();
}

/// Canonical comparison content: sorted pairs plus io-zeroed counters
/// (cache state legitimately differs between runs; decisions must not).
fn canon(out: &AnnOutput) -> (Vec<NeighborPair>, AnnStats) {
    let mut o = out.clone();
    o.sort();
    let mut stats = o.stats;
    stats.io = Default::default();
    (o.results, stats)
}

fn request(alg: Algorithm) -> AnnRequest<'static> {
    AnnRequest::new(alg).k(2)
}

/// The fault-free answer of `alg` from a cold pool and caches.
fn cold_run(f: &Fixture, alg: Algorithm) -> AnnOutput {
    chill(f);
    request(alg)
        .run(Input::Index(&f.ir), Input::Index(&f.is))
        .unwrap()
}

/// The clean-abort contract after one abort: a cold fault-free re-run
/// over the same indexes and pool is byte-identical to `baseline`.
fn assert_cold_rerun(f: &Fixture, alg: Algorithm, baseline: &AnnOutput) {
    assert_eq!(
        canon(&cold_run(f, alg)),
        canon(baseline),
        "{}: cold re-run after abort diverged",
        alg.name()
    );
}

fn algorithms() -> Vec<Algorithm> {
    vec![
        Algorithm::mba(),
        Algorithm::Bnn { group_size: 64 },
        Algorithm::Mnn,
    ]
}

/// A token cancelled before the request starts aborts before the
/// traversal touches a single page.
#[test]
fn cancel_before_start_aborts_without_reading() {
    let f = fixture(400, 1, 64);
    for alg in algorithms() {
        let baseline = cold_run(&f, alg);
        chill(&f);
        let before = f.pool.stats();
        let token = CancelToken::new();
        token.cancel();
        let err = request(alg)
            .cancel_token(token)
            .run(Input::Index(&f.ir), Input::Index(&f.is))
            .expect_err("pre-cancelled request must not run");
        assert!(
            matches!(err, QueryError::Cancelled),
            "{}: wrong abort: {err}",
            alg.name()
        );
        let after = f.pool.stats();
        assert_eq!(
            after.logical_reads,
            before.logical_reads,
            "{}: a pre-cancelled query must not touch the pool",
            alg.name()
        );
        assert_cold_rerun(&f, alg, &baseline);
    }
}

/// A deadline already in the past aborts before the first expansion, and
/// a mid-flight cancellation from another thread stops a long query.
#[test]
fn expired_deadline_aborts_before_first_expansion() {
    let f = fixture(400, 2, 64);
    for alg in algorithms() {
        let baseline = cold_run(&f, alg);
        chill(&f);
        let before = f.pool.stats();
        let err = request(alg)
            .deadline(Instant::now() - Duration::from_millis(1))
            .run(Input::Index(&f.ir), Input::Index(&f.is))
            .expect_err("expired deadline must abort");
        assert!(
            matches!(err, QueryError::DeadlineExceeded),
            "{}: wrong abort: {err}",
            alg.name()
        );
        assert_eq!(
            f.pool.stats().logical_reads,
            before.logical_reads,
            "{}: an expired-deadline query must not touch the pool",
            alg.name()
        );
        assert_cold_rerun(&f, alg, &baseline);
    }
}

/// `deadline_in` is sugar for `deadline(now + timeout)`: a generous
/// timeout lets the query complete normally.
#[test]
fn generous_deadline_does_not_perturb_the_run() {
    let f = fixture(300, 3, 64);
    chill(&f);
    let plain = request(Algorithm::mba())
        .run(Input::Index(&f.ir), Input::Index(&f.is))
        .unwrap();
    chill(&f);
    let deadlined = request(Algorithm::mba())
        .deadline_in(Duration::from_secs(600))
        .run(Input::Index(&f.ir), Input::Index(&f.is))
        .unwrap();
    assert_eq!(canon(&deadlined), canon(&plain));
}

/// Visit budgets bound the number of node expansions: the abort arrives
/// within one expansion of the limit and carries partial counters whose
/// expansion total is exactly the spent budget.
#[test]
fn visit_budget_aborts_with_accurate_partial_stats() {
    let f = fixture(500, 4, 64);
    for alg in algorithms() {
        let full = cold_run(&f, alg);
        let full_visits = full.stats.r_nodes_expanded + full.stats.s_nodes_expanded;
        assert!(
            full_visits > 4,
            "{}: fixture too small to budget",
            alg.name()
        );

        let budget = full_visits / 2;
        chill(&f);
        let err = request(alg)
            .visit_budget(budget)
            .run(Input::Index(&f.ir), Input::Index(&f.is))
            .expect_err("half the expansions cannot finish the join");
        match err {
            QueryError::BudgetExhausted {
                budget: kind,
                partial,
            } => {
                assert_eq!(kind, BudgetKind::Visits, "{}", alg.name());
                // The guard charges a tick per expansion (plus a handful of
                // entry/boundary ticks), so the partial expansion count is
                // bounded by the budget and strictly mid-run.
                let spent = partial.r_nodes_expanded + partial.s_nodes_expanded;
                assert!(
                    spent > 0,
                    "{}: partial stats must record the work done",
                    alg.name()
                );
                assert!(
                    spent <= budget,
                    "{}: expansions ({spent}) cannot exceed the budget \
                     ({budget})",
                    alg.name()
                );
                assert!(
                    spent < full_visits,
                    "{}: the abort must strike mid-run",
                    alg.name()
                );
                assert!(
                    partial.io.logical_reads > 0,
                    "{}: partial stats must include the I/O delta",
                    alg.name()
                );
            }
            other => panic!("{}: wrong abort: {other}", alg.name()),
        }
        assert_cold_rerun(&f, alg, &full);
    }
}

/// I/O budgets bound physical reads; the abort is detected within one
/// expansion of crossing the limit, so the partial I/O delta can overrun
/// by at most the reads of a single expansion.
#[test]
fn io_budget_aborts_once_physical_reads_cross_the_limit() {
    let f = fixture(500, 5, 8); // tiny pool: every run faults pages in
    let full = cold_run(&f, Algorithm::mba());
    assert!(full.stats.io.physical_reads > 8, "fixture must thrash");

    let budget = full.stats.io.physical_reads / 2;
    chill(&f);
    let err = request(Algorithm::mba())
        .io_budget(budget)
        .run(Input::Index(&f.ir), Input::Index(&f.is))
        .expect_err("half the physical reads cannot finish the join");
    match err {
        QueryError::BudgetExhausted {
            budget: kind,
            partial,
        } => {
            assert_eq!(kind, BudgetKind::Io);
            assert!(
                partial.io.physical_reads > budget,
                "the abort fires only after the limit is crossed"
            );
            assert!(
                partial.io.physical_reads < full.stats.io.physical_reads,
                "the abort must strike mid-run"
            );
        }
        other => panic!("wrong abort: {other}"),
    }
    assert_cold_rerun(&f, Algorithm::mba(), &full);
}

/// The clean-abort contract end-to-end: after a cancelled, budgeted, or
/// deadline-aborted run, a fault-free re-run over the very same indexes
/// and pool is byte-identical to the never-aborted baseline.
#[test]
fn aborted_queries_leave_reruns_byte_identical() {
    let f = fixture(400, 6, 16);
    for alg in algorithms() {
        let baseline = cold_run(&f, alg);

        // Abort three different ways, interleaved with verified re-runs.
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let aborts: Vec<AnnRequest> = vec![
            request(alg).cancel_token(cancelled),
            request(alg).deadline(Instant::now() - Duration::from_secs(1)),
            request(alg).visit_budget(2),
        ];
        for req in aborts {
            chill(&f);
            req.run(Input::Index(&f.ir), Input::Index(&f.is))
                .expect_err("the abort must fire");
            assert_cold_rerun(&f, alg, &baseline);
        }
    }
}

/// A store failure mid-traversal (budget-exhausted faulty disk) unwinds
/// through every `?` and leaves the media intact: once the device is
/// dead, the same pages reopened through a fresh pool answer the query
/// byte-identically to a fault-free run.
#[test]
fn store_errors_mid_traversal_release_every_pin() {
    let pts = random_points(400, 7);
    // Calibrate the op budget so the device dies mid-query: ops through
    // build + the pre-query clear (which flushes dirty build pages), so
    // only `extra` operations remain for the query itself.
    let (setup_ops, baseline) = {
        let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
        let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 8));
        let ir = Mbrqt::bulk_build(pool.clone(), &pts, &qt_cfg()).unwrap();
        let is = RStar::bulk_build(pool.clone(), &pts, &rs_cfg()).unwrap();
        pool.clear().unwrap();
        let ops = fd.op_count();
        let out = request(Algorithm::mba())
            .run(Input::Index(&ir), Input::Index(&is))
            .unwrap();
        (ops, out)
    };
    for extra in [1u64, 5, 17, 49] {
        let mem = Arc::new(MemDisk::new());
        let fd = Arc::new(FaultyDisk::new(Arc::clone(&mem), setup_ops + extra));
        let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 8));
        let ir = Mbrqt::bulk_build(pool.clone(), &pts, &qt_cfg()).unwrap();
        let is = RStar::bulk_build(pool.clone(), &pts, &rs_cfg()).unwrap();
        pool.clear().unwrap();
        let err = request(Algorithm::mba())
            .run(Input::Index(&ir), Input::Index(&is))
            .expect_err("the budgeted device must die mid-query");
        assert!(
            matches!(err, QueryError::Io(_)),
            "store failures surface as QueryError::Io, got {err}"
        );
        let (ir_meta, is_meta) = (ir.meta_page(), is.meta_page());
        drop((ir, is, pool));
        let cold = Arc::new(BufferPool::new(Arc::clone(&mem), 8));
        let ir = Mbrqt::<2>::open_at(Arc::clone(&cold), ir_meta, None).unwrap();
        let is = RStar::<2>::open_at(cold, is_meta, None).unwrap();
        let rerun = request(Algorithm::mba())
            .run(Input::Index(&ir), Input::Index(&is))
            .unwrap();
        assert_eq!(
            canon(&rerun),
            canon(&baseline),
            "cold re-run after a store error at +{extra} ops diverged"
        );
    }
}

/// Retry accounting through the parallel fold: transients absorbed during
/// a 2-thread MBA run are counted once each, and the per-query I/O
/// snapshot agrees with the pool's own global counters.
#[test]
fn parallel_fold_accounts_retries_exactly_once() {
    let pts = random_points(600, 8);
    let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
    let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 8));
    let ir = Mbrqt::bulk_build(pool.clone(), &pts, &qt_cfg()).unwrap();
    let is = RStar::bulk_build(pool.clone(), &pts, &rs_cfg()).unwrap();
    pool.clear().unwrap();

    // Schedule a burst of transients inside the query window; the default
    // policy (3 attempts) absorbs each.
    let start = fd.op_count();
    for i in 0..6u64 {
        fd.inject_at(start + 3 + 7 * i, InjectedFault::Transient);
    }
    let before = pool.stats();
    let out = AnnRequest::new(Algorithm::mba())
        .threads(2)
        .k(2)
        .run(Input::Index(&ir), Input::Index(&is))
        .unwrap();
    let delta = pool.stats().since(&before);
    assert!(delta.retries >= 1, "some scheduled transients must fire");
    assert_eq!(
        out.stats.io.retries, delta.retries,
        "the folded per-query snapshot must count each retry exactly once"
    );
    assert_eq!(
        out.stats.io.logical_reads, delta.logical_reads,
        "fold must not double-count the shared pool"
    );
    assert_eq!(out.results.len(), 600 * 2, "retried run completes in full");
}

/// HNN honours its deadline whatever the requested cell occupancy: a tiny
/// occupancy asks for billions of cells, so the grid caps its cells at
/// one per point and every ring consults the guard. The self-join
/// excludes each point's own pair, so every search must leave its home
/// cell. The query must answer exactly or abort on its deadline, well
/// inside the wait.
#[test]
fn hnn_with_tiny_cell_occupancy_honours_its_deadline() {
    let pts = random_points(2_000, 9);
    let (tx, rx) = std::sync::mpsc::channel();
    let worker_pts = pts.clone();
    std::thread::spawn(move || {
        let got = AnnRequest::new(Algorithm::Hnn {
            avg_cell_occupancy: 1e-7,
        })
        .exclude_self(true)
        .deadline_in(Duration::from_secs(2))
        .run(
            Input::<2, NoIndex>::Points(&worker_pts),
            Input::<2, NoIndex>::Points(&worker_pts),
        );
        let _ = tx.send(got);
    });
    match rx.recv_timeout(Duration::from_secs(30)) {
        Ok(Ok(out)) => {
            let mut want = brute_force_aknn(&pts, &pts, 1, true);
            want.sort_by(|a, b| {
                (a.r_oid, a.dist, a.s_oid)
                    .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
                    .unwrap()
            });
            assert_eq!(out.results, want, "HNN diverged from brute force");
        }
        Ok(Err(e)) => assert!(
            matches!(e, QueryError::DeadlineExceeded),
            "wrong abort: {e}"
        ),
        Err(_) => panic!("HNN ignored its 2 s deadline for 30 s"),
    }
}
