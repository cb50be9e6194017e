//! Parallel-equivalence checking: the morsel engine (DESIGN.md §16) must
//! be *invisible* in every answer. For fuzz-generated adversarial
//! workloads, every [`Algorithm`] variant run with
//! [`AnnRequest::threads`] ∈ {2, 3, 8} must reproduce the serial run
//! byte-for-byte — same neighbor ids, bit-identical distances, same
//! canonical order. A parallel query hit mid-flight by a cancel,
//! deadline, exhausted budget, or injected storage fault must land in a
//! typed [`QueryError`] (or, for retried transients, a byte-identical
//! success), and a cold fault-free re-run at the same thread count must
//! be byte-identical to the baseline.

use crate::common::{canonical_pairs, chill, panic_text, qt_cfg, rs_cfg};
use crate::diff;
use crate::gen::{self, DiffCase};
use ann_core::prelude::*;
use ann_datagen::Rng;
use ann_mbrqt::Mbrqt;
use ann_rstar::RStar;
use ann_store::{BufferPool, FaultyDisk, InjectedFault, MemDisk, StoreError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;

/// Thread counts every variant is diffed at (serial is the reference).
pub const THREADS: [usize; 3] = [2, 3, 8];

type RunResult = std::thread::Result<QueryResult<AnnOutput>>;

/// Runs `alg` over the built indexes with `threads` engine workers and
/// an optional abort-inducing constraint.
#[allow(clippy::too_many_arguments)]
fn run_one(
    case: &DiffCase<2>,
    ir: &Mbrqt<2>,
    is: &RStar<2>,
    alg: Algorithm,
    metric: MetricChoice,
    threads: usize,
    constraint: Option<&Constraint>,
    no_retry: bool,
) -> RunResult {
    catch_unwind(AssertUnwindSafe(|| {
        let mut req = AnnRequest::new(alg)
            .k(case.k)
            .exclude_self(case.exclude_self)
            .metric(metric)
            .threads(threads);
        if no_retry {
            req = req.retry(RetryPolicy {
                max_attempts: 1,
                backoff: std::time::Duration::ZERO,
            });
        }
        match constraint {
            None => {}
            Some(Constraint::Cancel(token)) => req = req.cancel_token(token.clone()),
            Some(Constraint::Deadline) => req = req.deadline(Instant::now()),
            Some(Constraint::VisitBudget(n)) => req = req.visit_budget(*n),
        }
        req.run(Input::Index(ir), Input::Index(is))
    }))
}

/// The abort scenarios the faultless leg draws from.
enum Constraint {
    /// A token fired before the engine starts: prompt abort everywhere.
    Cancel(CancelToken),
    /// A deadline already in the past when the query is admitted.
    Deadline,
    /// A visit budget the serial run provably exhausts.
    VisitBudget(u64),
}

impl Constraint {
    fn expected(&self) -> &'static str {
        match self {
            Constraint::Cancel(_) => "cancelled",
            Constraint::Deadline => "deadline",
            Constraint::VisitBudget(_) => "visit-budget",
        }
    }
}

/// One parallel-equivalence case; `None` means every assertion held.
pub fn check_parallel_case(rng: &mut Rng) -> Option<String> {
    let case = gen::diff_case::<2>(rng);
    let metric = *rng.pick(&[MetricChoice::Nxn, MetricChoice::MaxMax]);

    let pool = Arc::new(BufferPool::new(MemDisk::new(), 128));
    let ir = match Mbrqt::bulk_build(pool.clone(), &case.r, &qt_cfg()) {
        Ok(t) => t,
        Err(e) => return Some(format!("parallel: R build failed: {e}")),
    };
    let is = match RStar::bulk_build(pool.clone(), &case.s, &rs_cfg()) {
        Ok(t) => t,
        Err(e) => return Some(format!("parallel: S build failed: {e}")),
    };

    // Leg 1: every variant × every thread count is byte-identical to the
    // serial run of the same variant.
    // The diff class's variants, each re-run here at every worker count.
    let variants: Vec<Algorithm> = diff::variants(&case)
        .into_iter()
        .map(|(alg, _)| alg)
        .collect();
    for alg in &variants {
        let label = format!("{} {:?}", alg.name(), metric);
        let serial = match run_one(&case, &ir, &is, *alg, metric, 1, None, false) {
            Err(e) => return Some(format!("{label}: serial run panicked: {}", panic_text(&*e))),
            Ok(Err(e)) => return Some(format!("{label}: serial run failed: {e}")),
            Ok(Ok(out)) => out,
        };
        let base = canonical_pairs(&serial);
        for t in THREADS {
            match run_one(&case, &ir, &is, *alg, metric, t, None, false) {
                Err(e) => {
                    return Some(format!(
                        "{label} threads={t}: panicked: {}",
                        panic_text(&*e)
                    ))
                }
                Ok(Err(e)) => return Some(format!("{label} threads={t}: failed: {e}")),
                Ok(Ok(out)) => {
                    if canonical_pairs(&out) != base {
                        return Some(format!(
                            "{label} threads={t}: parallel output diverged from serial \
                             ({} vs {} pairs)",
                            out.results.len(),
                            serial.results.len()
                        ));
                    }
                }
            }
        }
    }

    // Leg 2: a mid-flight abort at a random thread count surfaces as the
    // right typed error on every worker's watch, and a cold clean re-run
    // is byte-identical.
    let alg = *rng.pick(&variants);
    let t = *rng.pick(&THREADS);
    let label = format!("{} {:?} threads={t}", alg.name(), metric);
    let baseline = match run_one(&case, &ir, &is, alg, metric, t, None, false) {
        Err(e) => return Some(format!("{label}: baseline panicked: {}", panic_text(&*e))),
        Ok(Err(e)) => return Some(format!("{label}: baseline failed: {e}")),
        Ok(Ok(out)) => out,
    };
    let base = canonical_pairs(&baseline);

    let constraint = match rng.range(0, 3) {
        0 => {
            let token = CancelToken::new();
            token.cancel();
            Constraint::Cancel(token)
        }
        1 => Constraint::Deadline,
        _ => Constraint::VisitBudget(1),
    };
    // A visit budget of one only fires when the traversal ticks at least
    // twice; probe that on the serial path first and skip quietly when
    // the case is too tiny to abort.
    if let Constraint::VisitBudget(n) = &constraint {
        match run_one(
            &case,
            &ir,
            &is,
            alg,
            metric,
            1,
            Some(&Constraint::VisitBudget(*n)),
            false,
        ) {
            Err(e) => {
                return Some(format!(
                    "{label}: serial budget probe panicked: {}",
                    panic_text(&*e)
                ))
            }
            Ok(Ok(_)) => return check_faulted(rng, &case, metric), // too small to exhaust
            Ok(Err(QueryError::BudgetExhausted { .. })) => {}
            Ok(Err(e)) => return Some(format!("{label}: wrong serial budget error: {e}")),
        }
    }
    match run_one(&case, &ir, &is, alg, metric, t, Some(&constraint), false) {
        Err(e) => {
            return Some(format!(
                "{label}: constrained run panicked: {}",
                panic_text(&*e)
            ))
        }
        Ok(Ok(_)) => {
            return Some(format!(
                "{label}: {} constraint never fired",
                constraint.expected()
            ))
        }
        Ok(Err(e)) => {
            if e.reason() != constraint.expected() {
                return Some(format!(
                    "{label}: expected {} abort, got {e}",
                    constraint.expected()
                ));
            }
        }
    }
    if let Err(e) = chill(&pool, &ir, &is) {
        return Some(format!("{label}: clear after abort failed: {e}"));
    }
    match run_one(&case, &ir, &is, alg, metric, t, None, false) {
        Err(e) => return Some(format!("{label}: re-run panicked: {}", panic_text(&*e))),
        Ok(Err(e)) => return Some(format!("{label}: re-run after abort failed: {e}")),
        Ok(Ok(out)) => {
            if canonical_pairs(&out) != base {
                return Some(format!("{label}: re-run after abort diverged"));
            }
        }
    }

    check_faulted(rng, &case, metric)
}

/// Leg 3: a transient injected fault with retries disabled under a
/// parallel run must surface as the typed I/O error (or miss the window
/// entirely) and leave the (intact) store serving
/// byte-identical answers once the fault clears. (A `Crash` fault would
/// leave the device permanently dead — the `faults` class covers that
/// flavor; this leg wants the cold fault-free re-run.)
fn check_faulted(rng: &mut Rng, case: &DiffCase<2>, metric: MetricChoice) -> Option<String> {
    // Pool-backed variants only: HNN never touches the disk.
    let alg = *rng.pick(&[
        Algorithm::mba(),
        Algorithm::Bnn {
            group_size: case.group_size,
        },
        Algorithm::Mnn,
    ]);
    let t = *rng.pick(&THREADS);
    let label = format!("{} {:?} threads={t} faulted", alg.name(), metric);

    let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
    let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 8));
    let ir = match Mbrqt::bulk_build(pool.clone(), &case.r, &qt_cfg()) {
        Ok(t) => t,
        Err(e) => return Some(format!("{label}: R build failed: {e}")),
    };
    let is = match RStar::bulk_build(pool.clone(), &case.s, &rs_cfg()) {
        Ok(t) => t,
        Err(e) => return Some(format!("{label}: S build failed: {e}")),
    };

    if let Err(e) = chill(&pool, &ir, &is) {
        return Some(format!("{label}: pool clear failed: {e}"));
    }
    let o0 = fd.op_count();
    let baseline = match run_one(case, &ir, &is, alg, metric, t, None, false) {
        Err(e) => return Some(format!("{label}: baseline panicked: {}", panic_text(&*e))),
        Ok(Err(e)) => return Some(format!("{label}: baseline failed: {e}")),
        Ok(Ok(out)) => out,
    };
    let span = (fd.op_count() - o0) as usize;
    if span == 0 {
        return None; // never reaches the disk: nothing to fault
    }
    let base = canonical_pairs(&baseline);

    // A transient fault somewhere inside the parallel run's I/O window,
    // with retries disabled so it must surface. Workers race, so the
    // fault may land on any worker's read — or the run may legitimately
    // finish first when caches shift the sequence.
    let delta = rng.range(0, span) as u64;
    if let Err(e) = chill(&pool, &ir, &is) {
        return Some(format!("{label}: pool clear failed: {e}"));
    }
    fd.inject_at(fd.op_count() + delta, InjectedFault::Transient);
    let faulted = run_one(case, &ir, &is, alg, metric, t, None, true);
    fd.clear_faults();
    match faulted {
        Err(e) => {
            return Some(format!(
                "{label}: faulted run panicked: {}",
                panic_text(&*e)
            ))
        }
        Ok(Ok(out)) => {
            // The fault missed (cache-served run): the answer must still
            // be byte-identical — never silently wrong.
            if canonical_pairs(&out) != base {
                return Some(format!("{label}: fault-missed run diverged"));
            }
        }
        Ok(Err(QueryError::Io(StoreError::Injected { transient: true }))) => {}
        Ok(Err(e)) => return Some(format!("{label}: wrong error for unretried transient: {e}")),
    }

    // The media is intact: a cold re-run at the same thread count must
    // reproduce the baseline byte-for-byte.
    if let Err(e) = chill(&pool, &ir, &is) {
        return Some(format!("{label}: clear after fault failed: {e}"));
    }
    match run_one(case, &ir, &is, alg, metric, t, None, false) {
        Err(e) => return Some(format!("{label}: re-run panicked: {}", panic_text(&*e))),
        Ok(Err(e)) => return Some(format!("{label}: re-run failed: {e}")),
        Ok(Ok(out)) => {
            if canonical_pairs(&out) != base {
                return Some(format!("{label}: cold re-run diverged after fault"));
            }
        }
    }
    None
}
