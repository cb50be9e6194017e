//! Fault-trichotomy checking: a query hit by an injected storage fault
//! must land in exactly one of three clean outcomes —
//!
//! 1. **retried and byte-identical**: a transient fault under the retry
//!    policy is absorbed; the output matches the fault-free run
//!    bit-for-bit and the retry is counted;
//! 2. **clean typed error**: the query returns a structured
//!    [`QueryError`] with every pool pin released, and (when the device
//!    survives) a fault-free re-run over the same pool is byte-identical
//!    to a fresh run;
//! 3. **quarantined**: corruption detected by the pool's checksum fails
//!    the query, quarantines the page so the next touch fails fast, and
//!    healing (clearing the quarantine) fully restores service.
//!
//! Never a panic, never a silently wrong answer, never poisoned state.

use crate::gen::{self, DiffCase};
use ann_core::mba::{Expansion, Traversal};
use ann_core::prelude::*;
use ann_datagen::Rng;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{
    BufferPool, FaultyDisk, InjectedFault, MemDisk, PrefetchConfig, RetryPolicy, StoreError,
    FRAME_SIZE, QUARANTINED,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Small-node configs (same as the diff class) so tiny datasets still
/// span several pages — otherwise queries never touch the disk and no
/// fault can fire.
fn qt_cfg() -> MbrqtConfig {
    MbrqtConfig {
        bucket_capacity: 8,
        ..Default::default()
    }
}

fn rs_cfg() -> RStarConfig {
    RStarConfig {
        max_leaf_entries: 8,
        max_internal_entries: 4,
        ..Default::default()
    }
}

/// The fault scenarios a case draws from.
#[derive(Clone, Copy, Debug)]
enum Scenario {
    /// Transient fault under the default (retrying) policy.
    TransientRetried,
    /// Transient fault with retry disabled via the per-request override.
    TransientUnretried,
    /// Bit flip on a read — caught by CRC, page quarantined.
    BitFlip,
    /// Device crash (permanent): every later operation fails.
    Crash,
}

/// Pool-backed algorithm variants (HNN is poolless — no I/O fault can
/// reach it). `serial_only` drops the threaded variant: scenarios that
/// schedule a fault at an exact operation index rely on cold runs
/// replaying the baseline's operation sequence, which only serial
/// traversals guarantee.
fn variants(case: &DiffCase<2>, serial_only: bool) -> Vec<Algorithm> {
    let mut v = vec![
        Algorithm::mba(),
        Algorithm::Mba {
            traversal: Traversal::BreadthFirst,
            expansion: Expansion::Unidirectional,
            threads: 1,
        },
        Algorithm::Bnn {
            group_size: case.group_size,
        },
        Algorithm::Mnn,
    ];
    if !serial_only {
        v.push(Algorithm::Mba {
            traversal: Traversal::default(),
            expansion: Expansion::default(),
            threads: 2,
        });
    }
    v
}

/// The decision content of an output: results in canonical order plus the
/// work counters with the I/O block zeroed. Retries and cache state
/// legitimately differ between a faulted and a clean run; the *decisions*
/// (expansions, distance computations, neighbors) must not.
fn canon(out: &AnnOutput) -> (Vec<NeighborPair>, AnnStats) {
    let mut o = out.clone();
    o.sort();
    let mut stats = o.stats;
    stats.io = Default::default();
    (o.results, stats)
}

type RunResult = std::thread::Result<QueryResult<AnnOutput>>;

/// Makes the next run genuinely cold: drops the decoded-node caches both
/// indexes keep (which otherwise serve repeat traversals without any
/// pool traffic) and evicts every pool frame, so a scheduled fault has a
/// real disk-operation sequence to land in.
fn chill(pool: &BufferPool, ir: &Mbrqt<2>, is: &RStar<2>) -> ann_store::Result<()> {
    if let Some(c) = ir.node_cache() {
        c.clear();
    }
    if let Some(c) = is.node_cache() {
        c.clear();
    }
    pool.clear()
}

fn panic_text(e: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = e.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = e.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One fault-trichotomy case; `None` means every assertion held.
pub fn check_faults_case(rng: &mut Rng) -> Option<String> {
    let case = gen::diff_case::<2>(rng);
    let scenario = *rng.pick(&[
        Scenario::TransientRetried,
        Scenario::TransientUnretried,
        Scenario::BitFlip,
        Scenario::Crash,
    ]);
    let serial_only = !matches!(scenario, Scenario::TransientRetried);
    let alg = *rng.pick(&variants(&case, serial_only));
    let metric = *rng.pick(&[MetricChoice::Nxn, MetricChoice::MaxMax]);
    let label = format!("{} {:?} {:?}", alg.name(), metric, scenario);

    // Shared pool over a schedulable disk; a tiny frame budget forces
    // real disk traffic even for small cases.
    let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
    let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 8));
    let ir = match Mbrqt::bulk_build(pool.clone(), &case.r, &qt_cfg()) {
        Ok(t) => t,
        Err(e) => return Some(format!("{label}: fault-free R build failed: {e}")),
    };
    let is = match RStar::bulk_build(pool.clone(), &case.s, &rs_cfg()) {
        Ok(t) => t,
        Err(e) => return Some(format!("{label}: fault-free S build failed: {e}")),
    };
    // Queries run with readahead on. Batch reads bypass the fault
    // schedule (see `FaultyDisk::read_batch`), so faults stay keyed to
    // the demand op sequence — and the trichotomy must hold regardless
    // of which frames the prefetcher happened to load first.
    pool.enable_prefetch(PrefetchConfig {
        max_inflight: 4,
        batch: 4,
    });

    let run = |retry: Option<RetryPolicy>| -> RunResult {
        catch_unwind(AssertUnwindSafe(|| {
            let mut req = AnnRequest::new(alg)
                .k(case.k)
                .exclude_self(case.exclude_self)
                .metric(metric);
            if let Some(p) = retry {
                req = req.retry(p);
            }
            req.run(Input::Index(&ir), Input::Index(&is))
        }))
    };

    // Cold fault-free baseline: the reference output AND the length of
    // the disk-operation window a fault can be scheduled into.
    if let Err(e) = chill(&pool, &ir, &is) {
        return Some(format!("{label}: pool clear failed: {e}"));
    }
    let o0 = fd.op_count();
    let baseline = match run(None) {
        Err(e) => {
            return Some(format!(
                "{label}: fault-free run panicked: {}",
                panic_text(&*e)
            ))
        }
        Ok(Err(e)) => return Some(format!("{label}: fault-free run failed: {e}")),
        Ok(Ok(out)) => out,
    };
    if pool.pinned_frames() != 0 {
        return Some(format!("{label}: fault-free run leaked pins"));
    }
    let span = (fd.op_count() - o0) as usize;
    if span == 0 {
        return None; // the query never reaches the disk (tiny inputs)
    }
    let base = canon(&baseline);

    let no_retry = RetryPolicy {
        max_attempts: 1,
        backoff: Duration::ZERO,
    };
    let retries0 = pool.stats().retries;
    if let Err(e) = chill(&pool, &ir, &is) {
        return Some(format!("{label}: pool clear failed: {e}"));
    }
    // Serial traversals replay the baseline's operation sequence exactly
    // on a cold pool, so any delta in [0, span) fires mid-query. The
    // threaded variant (TransientRetried only) may land the fault on a
    // different read — harmless, the retry policy absorbs it wherever it
    // lands — or race past the window without firing.
    let delta = rng.range(0, span) as u64;
    let fault = match scenario {
        Scenario::TransientRetried | Scenario::TransientUnretried => InjectedFault::Transient,
        Scenario::BitFlip => InjectedFault::BitFlip {
            bit: rng.range(0, FRAME_SIZE * 8),
        },
        Scenario::Crash => InjectedFault::Crash,
    };
    fd.inject_at(fd.op_count() + delta, fault);
    let request_retry = match scenario {
        Scenario::TransientUnretried => Some(no_retry),
        _ => None,
    };
    let faulted = run(request_retry);
    fd.clear_faults(); // an unfired fault must not leak into the re-runs
    if pool.pinned_frames() != 0 {
        return Some(format!("{label}: faulted run leaked pins"));
    }

    match (scenario, faulted) {
        (_, Err(e)) => {
            return Some(format!(
                "{label}: faulted run panicked: {}",
                panic_text(&*e)
            ));
        }

        (Scenario::TransientRetried, Ok(Ok(out))) => {
            // Leg 1 of the trichotomy: absorbed by retry, byte-identical.
            if canon(&out) != base {
                return Some(format!("{label}: retried run diverged from baseline"));
            }
            let threaded = matches!(alg, Algorithm::Mba { threads, .. } if threads > 1);
            if pool.stats().retries == retries0 && !threaded {
                return Some(format!("{label}: transient fault fired but retries=0"));
            }
        }
        (Scenario::TransientRetried, Ok(Err(e))) => {
            return Some(format!("{label}: retried transient surfaced: {e}"));
        }

        (
            Scenario::TransientUnretried,
            Ok(Err(QueryError::Io(StoreError::Injected { transient: true }))),
        ) => {
            // Leg 2: clean typed error; a fault-free re-run over the same
            // pool is byte-identical to the fresh baseline.
            if let Err(e) = chill(&pool, &ir, &is) {
                return Some(format!("{label}: clear after typed error failed: {e}"));
            }
            match run(None) {
                Err(e) => {
                    return Some(format!("{label}: re-run panicked: {}", panic_text(&*e)));
                }
                Ok(Err(e)) => return Some(format!("{label}: re-run failed: {e}")),
                Ok(Ok(out)) => {
                    if canon(&out) != base {
                        return Some(format!("{label}: re-run diverged after typed error"));
                    }
                }
            }
        }
        (Scenario::TransientUnretried, Ok(Err(e))) => {
            return Some(format!("{label}: wrong error for unretried transient: {e}"));
        }
        (Scenario::TransientUnretried, Ok(Ok(_))) => {
            return Some(format!("{label}: unretried transient was absorbed"));
        }

        (Scenario::BitFlip, Ok(Err(QueryError::Io(StoreError::Corrupt { page, .. })))) => {
            // Leg 3: CRC caught the flip and quarantined the page.
            let Some(bad) = page else {
                return Some(format!("{label}: corrupt error lost its page id"));
            };
            if !pool.is_quarantined(bad) {
                return Some(format!("{label}: corrupt page {bad} not quarantined"));
            }
            // The next touch fails fast: the serial replay reaches the
            // same page without re-reading the (intact) media.
            let hits0 = pool.stats().quarantine_hits;
            if let Err(e) = chill(&pool, &ir, &is) {
                return Some(format!("{label}: clear under quarantine failed: {e}"));
            }
            match run(None) {
                Err(e) => {
                    return Some(format!(
                        "{label}: quarantined re-run panicked: {}",
                        panic_text(&*e)
                    ));
                }
                Ok(Ok(_)) => {
                    return Some(format!("{label}: quarantined page served a clean run"));
                }
                Ok(Err(QueryError::Io(StoreError::Corrupt { what, .. }))) => {
                    if what != QUARANTINED {
                        return Some(format!(
                            "{label}: expected fast quarantine rejection, got {what:?}"
                        ));
                    }
                    if pool.stats().quarantine_hits == hits0 {
                        return Some(format!("{label}: quarantine hit not counted"));
                    }
                }
                Ok(Err(e)) => {
                    return Some(format!("{label}: wrong error under quarantine: {e}"));
                }
            }
            if pool.pinned_frames() != 0 {
                return Some(format!("{label}: quarantined re-run leaked pins"));
            }
            // Heal: the flip only damaged the in-flight read (the media
            // is intact), so lifting the quarantine restores service.
            pool.clear_quarantine();
            if let Err(e) = chill(&pool, &ir, &is) {
                return Some(format!("{label}: clear after heal failed: {e}"));
            }
            match run(None) {
                Err(e) => {
                    return Some(format!("{label}: healed run panicked: {}", panic_text(&*e)));
                }
                Ok(Err(e)) => return Some(format!("{label}: healed run failed: {e}")),
                Ok(Ok(out)) => {
                    if canon(&out) != base {
                        return Some(format!("{label}: healed run diverged from baseline"));
                    }
                }
            }
        }
        (Scenario::BitFlip, Ok(Ok(_))) => {
            return Some(format!("{label}: bit flip went undetected"));
        }
        (Scenario::BitFlip, Ok(Err(e))) => {
            return Some(format!("{label}: wrong error for bit flip: {e}"));
        }

        (Scenario::Crash, Ok(Err(QueryError::Io(StoreError::Injected { transient: false })))) => {
            // Leg 2, permanent flavor: typed error with pins released
            // (checked above). The device stays dead — no re-run leg.
        }
        (Scenario::Crash, Ok(Ok(_))) => {
            return Some(format!("{label}: query survived a crashed device"));
        }
        (Scenario::Crash, Ok(Err(e))) => {
            return Some(format!("{label}: wrong error for crash: {e}"));
        }
    }

    if pool.pinned_frames() != 0 {
        return Some(format!("{label}: case ends with leaked pins"));
    }
    None
}
