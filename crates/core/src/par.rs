//! The shared morsel-driven parallel execution engine.
//!
//! The join driver (`exec.rs`) hands every algorithm's morsel step to
//! [`run_workers`] whenever a request resolves to more than one worker:
//! the driver seeds a [`MorselPool`] with the algorithm's units of work
//! and supplies one worker closure; the engine owns thread spawning, work
//! stealing, the statistics fold, trace aggregation, result merging, and
//! first-error selection. The contract that makes the parallel output
//! **byte-identical** to serial:
//!
//! - **Independent morsels.** Each unit's results and prune decisions
//!   depend only on the unit itself (plus immutable shared state), never
//!   on which worker ran it or what ran before it on the same worker.
//! - **Canonical merge.** Worker outputs are concatenated in worker-index
//!   order and the driver sorts the union under the canonical
//!   `(r_oid, dist, s_oid)` tie-break — the same order every comparison
//!   path in the repo uses, and the same sort the one-worker path gets —
//!   so scheduling nondeterminism cannot reach the caller.
//! - **Commutative counters.** [`AnnStats`](crate::stats::AnnStats)
//!   fields are sums; the engine merges the workers' counters in
//!   worker-index order.
//! - **Ordered trace replay.** A shared `&dyn TraceSink` is `Sync`, but
//!   interleaved emission would corrupt [`RecordingSink`]'s level
//!   inference (it infers a page's level from its parent's earlier
//!   `NodeExpanded`). Workers therefore buffer events into per-worker
//!   sinks tagged by one global sequence counter; after the join the
//!   engine replays the merged stream in acquisition order. A parent's
//!   expansion always acquires its tag before the children become
//!   stealable, so parent-before-child ordering survives the merge.
//!
//! Error propagation: a worker whose closure returns `Err` aborts the
//! pool, so every sibling's next `pop` returns `None` and the whole team
//! unwinds within one morsel step. Outputs from aborted workers still
//! fold in — partial statistics stay faithful — and the first error in
//! worker-index order is returned for the driver to wrap
//! ([`crate::resilience::attach_partial_stats`] plus the `QueryAborted`
//! trace event are the driver's job, exactly as with one worker).
//!
//! Panic propagation: each worker closure runs under `catch_unwind`. A
//! panicking worker popped a morsel it will never `complete()`, so
//! without intervention its siblings would wait on the in-flight counter
//! forever and `run_workers` would never return. The unwind guard aborts
//! the pool instead — siblings drain within one morsel step, the scoped
//! join finishes — and the engine re-raises the first panic payload to
//! the caller, matching what the same panic would do on the serial path.
//!
//! [`RecordingSink`]: crate::trace::RecordingSink

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::morsel::MorselPool;
use crate::resilience::{QueryError, QueryResult};
use crate::stats::AnnOutput;
use crate::trace::{TraceEvent, TraceSink, Tracer};
use ann_store::sync::Mutex;

/// A per-worker buffering sink: every event is tagged with a globally
/// unique, monotonically assigned sequence number and retained locally;
/// the engine merges all buffers by tag after the join and replays them
/// into the real sink. Span notifications are not forwarded — workers do
/// not open phase spans; the caller owns the `Join` span that encloses
/// the whole parallel region.
struct BufferedSink<'e> {
    seq: &'e AtomicU64,
    events: Mutex<Vec<(u64, TraceEvent)>>,
}

impl TraceSink for BufferedSink<'_> {
    fn event(&self, event: &TraceEvent) {
        let tag = self.seq.fetch_add(1, Ordering::Relaxed);
        self.events.lock().push((tag, event.clone()));
    }
}

/// A worker's handle onto the shared [`MorselPool`]: pop/push/complete
/// plus the worker-local [`Tracer`] whose events the engine will merge.
pub struct WorkerHandle<'e, T> {
    index: usize,
    pool: &'e MorselPool<T>,
    tracer: Tracer<'e>,
}

impl<'e, T> WorkerHandle<'e, T> {
    /// This worker's index in `0..threads` (stable for the whole run).
    pub fn index(&self) -> usize {
        self.index
    }

    /// The worker-local tracer. Disabled when the caller's tracer is
    /// disabled, so the traced-off hot path stays free of buffering.
    pub fn tracer(&self) -> Tracer<'e> {
        self.tracer
    }

    /// Next morsel: own deque first, then steal. `None` = run over.
    pub fn pop(&self) -> Option<T> {
        self.pool.pop(self.index)
    }

    /// Publishes a child morsel produced by the unit being processed.
    /// Must precede the matching [`complete`](Self::complete).
    pub fn push(&self, unit: T) {
        self.pool.push(self.index, unit);
    }

    /// Marks the morsel most recently popped as fully processed.
    pub fn complete(&self) {
        self.pool.complete();
    }
}

/// Runs `threads` workers over a morsel pool seeded with `seeds` and
/// merges their outputs deterministically.
///
/// Each worker closure receives a [`WorkerHandle`] and must drain it
/// (`while let Some(unit) = h.pop() { ...; h.complete(); }`), returning
/// its local [`AnnOutput`] *unconditionally* — even when it also returns
/// an error — so partial statistics survive aborts. The engine returns
/// the union of all results (in worker-index order; the caller sorts)
/// plus the first error in worker-index order, if any. The caller keeps
/// responsibility for I/O attribution, `attach_partial_stats`, and the
/// `QueryAborted` event.
pub fn run_workers<T, F>(
    threads: usize,
    seeds: Vec<T>,
    tracer: Tracer<'_>,
    worker: F,
) -> (AnnOutput, Option<QueryError>)
where
    T: Send,
    F: Fn(WorkerHandle<'_, T>) -> (AnnOutput, QueryResult<()>) + Sync,
{
    assert!(threads >= 1, "run_workers needs at least one worker");
    let pool = MorselPool::new(threads, seeds);
    let seq = AtomicU64::new(0);
    let sinks: Vec<BufferedSink<'_>> = (0..threads)
        .map(|_| BufferedSink {
            seq: &seq,
            events: Mutex::new(Vec::new()),
        })
        .collect();

    let mut panicked: Option<Box<dyn std::any::Any + Send>> = None;
    let results: Vec<(AnnOutput, QueryResult<()>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|index| {
                let pool = &pool;
                let sink = &sinks[index];
                let worker = &worker;
                let traced = tracer.enabled();
                scope.spawn(move || {
                    let wtracer = if traced {
                        Tracer::new(sink)
                    } else {
                        Tracer::disabled()
                    };
                    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                        worker(WorkerHandle {
                            index,
                            pool,
                            tracer: wtracer,
                        })
                    }));
                    // A failed worker aborts the pool. A panicking one
                    // popped a morsel it will never complete; aborting lets
                    // siblings drain instead of waiting on the in-flight
                    // counter forever (which would also wedge the join).
                    if !matches!(ran, Ok((_, Ok(())))) {
                        pool.abort();
                    }
                    ran
                })
            })
            .collect();
        let mut results = Vec::with_capacity(threads);
        for h in handles {
            match h
                .join()
                .expect("parallel worker crashed outside catch_unwind")
            {
                Ok(pair) => results.push(pair),
                Err(payload) => {
                    if panicked.is_none() {
                        panicked = Some(payload);
                    }
                }
            }
        }
        results
    });
    if let Some(payload) = panicked {
        // Re-raise on the calling thread, exactly as the serial path
        // would have; all siblings have already drained and joined.
        panic::resume_unwind(payload);
    }

    let mut out = AnnOutput::default();
    let mut failure: Option<QueryError> = None;
    for (wout, status) in results {
        out.stats.merge(&wout.stats);
        out.results.extend(wout.results);
        if let Err(e) = status {
            failure.get_or_insert(e);
        }
    }

    if tracer.enabled() {
        let mut events: Vec<(u64, TraceEvent)> = Vec::new();
        for sink in sinks {
            events.extend(sink.events.into_inner());
        }
        events.sort_by_key(|&(tag, _)| tag);
        for (_, event) in events {
            tracer.event(move || event);
        }
    }

    (out, failure)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::NeighborPair;

    fn pair(r: u64, s: u64, d: f64) -> NeighborPair {
        NeighborPair {
            r_oid: r,
            s_oid: s,
            dist: d,
        }
    }

    #[test]
    fn merges_results_and_folds_stats() {
        for threads in [1usize, 2, 3, 8] {
            let seeds: Vec<u64> = (0..37).collect();
            let (out, err) = run_workers(threads, seeds, Tracer::disabled(), |h| {
                let mut out = AnnOutput::default();
                while let Some(unit) = h.pop() {
                    out.results.push(pair(unit, unit + 1, unit as f64));
                    out.stats.distance_computations += 1;
                    h.complete();
                }
                (out, Ok(()))
            });
            assert!(err.is_none());
            assert_eq!(out.results.len(), 37, "threads={threads}");
            assert_eq!(out.stats.distance_computations, 37);
            let mut oids: Vec<u64> = out.results.iter().map(|p| p.r_oid).collect();
            oids.sort_unstable();
            assert_eq!(oids, (0..37).collect::<Vec<u64>>(), "threads={threads}");
        }
    }

    #[test]
    fn worker_pushed_children_are_processed() {
        // Each seed < 8 fans out two children; count total units handled.
        let (out, err) = run_workers(4, vec![1u64], Tracer::disabled(), |h| {
            let mut out = AnnOutput::default();
            while let Some(unit) = h.pop() {
                if unit < 8 {
                    h.push(unit * 2);
                    h.push(unit * 2 + 1);
                }
                out.stats.enqueued += 1;
                h.complete();
            }
            (out, Ok(()))
        });
        assert!(err.is_none());
        assert_eq!(out.stats.enqueued, 15, "full binary fan-out 1..=15");
    }

    #[test]
    fn first_error_aborts_promptly_and_keeps_partial_stats() {
        let (out, err) = run_workers(3, (0..1000u64).collect(), Tracer::disabled(), |h| {
            let mut out = AnnOutput::default();
            let mut status = Ok(());
            while let Some(unit) = h.pop() {
                out.stats.enqueued += 1;
                h.complete();
                if unit == 5 {
                    status = Err(QueryError::Cancelled);
                    break;
                }
            }
            (out, status)
        });
        assert!(matches!(err, Some(QueryError::Cancelled)));
        assert!(
            out.stats.enqueued < 1000,
            "abort drained the pool early: {}",
            out.stats.enqueued
        );
    }

    #[test]
    fn worker_panic_propagates_instead_of_hanging() {
        // Before the unwind guard, a panicking worker left its popped
        // morsel in-flight forever: siblings waited on the counter and
        // run_workers never returned. Now the pool aborts, siblings
        // drain, and the panic re-raises on the calling thread.
        let caught = std::panic::catch_unwind(|| {
            run_workers(4, (0..1000u64).collect(), Tracer::disabled(), |h| {
                let mut out = AnnOutput::default();
                while let Some(unit) = h.pop() {
                    if unit == 3 {
                        panic!("injected worker panic");
                    }
                    out.stats.enqueued += 1;
                    h.complete();
                }
                (out, Ok(()))
            })
        });
        let payload = caught.expect_err("panic must propagate, not hang");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or("");
        assert_eq!(msg, "injected worker panic");
    }

    #[test]
    fn trace_events_replay_in_acquisition_order() {
        use crate::trace::RecordingSink;
        let rec = RecordingSink::new();
        let tracer = Tracer::new(&rec);
        let (_, err) = run_workers(2, vec![0u64, 1, 2, 3], tracer, |h| {
            let out = AnnOutput::default();
            while let Some(unit) = h.pop() {
                h.tracer().event(|| TraceEvent::LpqRetired {
                    enqueued: unit + 1,
                    filtered: 0,
                    high_water: 1,
                });
                h.complete();
            }
            (out, Ok(()))
        });
        assert!(err.is_none());
        let report = rec.report("par-test");
        assert_eq!(report.lpq.retired, 4, "all worker events reached the sink");
        assert_eq!(report.lpq.enqueued, 1 + 2 + 3 + 4);
    }
}
