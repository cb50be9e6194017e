//! The one join driver: every algorithm is a [`Join`] run inside the
//! frame [`drive`] owns, and the serial algorithm is its one-worker case.
//!
//! [`drive`] is the only place that knows what surrounds a join: the
//! degenerate-request fast path, the I/O delta over the guard's pools,
//! the `Query` span and the first guard tick, the abort phase, the
//! `QueryAborted` event with the partial statistics attached, and the
//! canonical `(r_oid, dist, s_oid)` sort. [`Frame::join`] is the only
//! place that knows how morsels are executed, and the only place in the
//! crate that starts a thread: the `Join` span, one lead [`Worker`] on
//! the calling thread with the *caller's* [`QueryScratch`] that seeds the
//! work, and then either
//!
//! * **one worker** — the lead drains the seeds in order from a local
//!   FIFO. No thread, no [`MorselPool`], no lock or atomic per morsel; a
//!   step is told it may not hand work to siblings ([`Spill::shared`] is
//!   false), so it finishes each morsel inline — which is the serial
//!   algorithm, page-op for page-op; or
//! * **several workers** — the lead and `workers − 1` scoped helpers,
//!   each with a fresh scratch, share one [`MorselPool`]. Every worker
//!   runs [`drain`], splitting large morsels into children any worker may
//!   take, and traces live into the request's [`Tracer`]: a worker
//!   emits a node's expansion before it publishes the children, so a
//!   sink still sees every parent before its children. Outputs fold in
//!   worker order; the first panic is re-raised, else the first error
//!   returned.
//!
//! An algorithm supplies only what is specific to it: serial preparation
//! (under [`Frame::phase`]), its seed morsels, its per-worker local
//! state, one morsel step, and its prune summary.

use crate::morsel::{resolve_threads, MorselPool};
use crate::resilience::{attach_partial_stats, QueryGuard, QueryResult};
use crate::scratch::QueryScratch;
use crate::stats::AnnOutput;
use crate::trace::{Phase, PruneReason, TraceEvent, Tracer};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::thread;

/// What every algorithm's `run` executes over: where observations go,
/// what may stop it, whose buffers it uses, and how many workers the
/// request asked for (`0` = one per core; resolved once, by [`drive`]).
pub(crate) struct ExecCtx<'a, const D: usize> {
    pub(crate) tracer: Tracer<'a>,
    pub(crate) guard: &'a QueryGuard<'a>,
    pub(crate) scratch: &'a mut QueryScratch<D>,
    pub(crate) threads: usize,
}

/// One worker's view of a running join: the shared tracer and guard, its
/// own scratch arena and output, and the algorithm's local state.
pub(crate) struct Worker<'a, const D: usize, L> {
    pub(crate) tracer: Tracer<'a>,
    pub(crate) guard: &'a QueryGuard<'a>,
    pub(crate) scratch: &'a mut QueryScratch<D>,
    pub(crate) out: AnnOutput,
    pub(crate) local: L,
}

/// Where a step puts the child morsels of a morsel it chose to split.
pub(crate) enum Spill<'a, T> {
    /// One worker: children join the back of the calling thread's FIFO.
    Local(&'a mut VecDeque<T>),
    /// Several workers: children join the shared pool's queue.
    Shared(&'a MorselPool<T>),
}

impl<T> Spill<'_, T> {
    /// Whether siblings exist to take a split morsel's children. A step
    /// splits for load balance only when this holds.
    pub(crate) fn shared(&self) -> bool {
        matches!(self, Spill::Shared(..))
    }

    pub(crate) fn push(&mut self, unit: T) {
        match self {
            Spill::Local(queue) => queue.push_back(unit),
            Spill::Shared(pool) => pool.push(unit),
        }
    }
}

/// What one algorithm contributes to [`Frame::join`].
///
/// The byte-identity contract rests on `step`: a morsel's results and
/// counters may depend only on the morsel and on immutable shared state,
/// never on which worker runs it or on what that worker ran before.
pub(crate) trait Join<const D: usize>: Sync {
    /// A bounded unit of query-side work.
    type Morsel: Send;
    /// Per-worker state: checked-out buffers and trace tallies.
    type Local;

    /// Checks a worker's buffers out of its scratch.
    fn local(&self, scratch: &mut QueryScratch<D>) -> Self::Local;

    /// The initial morsels, produced on the calling thread. Their
    /// boundaries must not depend on the worker count.
    fn seeds(&self, lead: &mut Worker<'_, D, Self::Local>) -> Vec<Self::Morsel>;

    /// Processes one morsel: finishes it inline, or expands one level and
    /// pushes the children to `spill`.
    fn step(
        &self,
        w: &mut Worker<'_, D, Self::Local>,
        morsel: Self::Morsel,
        spill: &mut Spill<'_, Self::Morsel>,
    ) -> QueryResult<()>;

    /// Emits the worker's prune summary (see [`emit_pruned`]), returns
    /// its buffers to the scratch and yields its output. Runs on success
    /// and on abort alike.
    fn retire(&self, w: Worker<'_, D, Self::Local>) -> AnnOutput;
}

/// Emits one `Pruned` event per non-zero count. Several workers sharing
/// one sink each emit their own; the sink sums them.
pub(crate) fn emit_pruned(tracer: Tracer<'_>, metric: &'static str, counts: &[(PruneReason, u64)]) {
    for &(reason, count) in counts {
        if count > 0 {
            tracer.event(|| TraceEvent::Pruned {
                metric,
                reason,
                count,
            });
        }
    }
}

/// The part of a running query an algorithm's body sees.
pub(crate) struct Frame<'a, const D: usize> {
    pub(crate) tracer: Tracer<'a>,
    guard: &'a QueryGuard<'a>,
    scratch: &'a mut QueryScratch<D>,
    workers: usize,
    abort_phase: Phase,
    out: AnnOutput,
}

/// Runs `body` inside the query frame and returns its canonically sorted
/// output. `degenerate` — `k == 0` or an empty side — answers with the
/// empty result after one guard tick, touching neither index.
///
/// The guard is consulted once before `body` starts and then by the
/// steps before every node read, bounding abort latency to one node
/// expansion. On abort the open spans are closed, a
/// [`TraceEvent::QueryAborted`] records the reason and phase, every
/// worker has returned its buffers, and — because every page access is
/// one critical section of its pool shard — nothing the query held in
/// the pool outlives the call.
/// [`QueryError::BudgetExhausted`](crate::QueryError) carries the
/// counters every worker accumulated up to the abort point.
pub(crate) fn drive<const D: usize>(
    ctx: ExecCtx<'_, D>,
    degenerate: bool,
    body: impl FnOnce(&mut Frame<'_, D>) -> QueryResult<()>,
) -> QueryResult<AnnOutput> {
    let ExecCtx {
        tracer,
        guard,
        scratch,
        threads,
    } = ctx;
    if degenerate {
        guard.tick()?;
        return Ok(AnnOutput::default());
    }
    let io0 = guard.io();
    let span_q = tracer.span_enter(Phase::Query, || guard.io());
    let mut frame = Frame {
        tracer,
        guard,
        scratch,
        workers: resolve_threads(threads),
        abort_phase: Phase::Query,
        out: AnnOutput::default(),
    };
    let ran = guard.tick().and_then(|()| body(&mut frame));
    tracer.span_exit(Phase::Query, span_q, || guard.io());

    let Frame {
        mut out,
        abort_phase,
        ..
    } = frame;
    out.stats.io = guard.io().since(&io0);
    match ran {
        Ok(()) => {
            // The one canonical sort: output is byte-identical at every
            // worker count, including 1. Its key orders distances by
            // their bits, which order as the values for these.
            debug_assert!(out
                .results
                .iter()
                .all(|p| p.dist.is_finite() && p.dist.is_sign_positive()));
            out.sort();
            Ok(out)
        }
        Err(e) => {
            tracer.event(|| TraceEvent::QueryAborted {
                reason: e.reason(),
                phase: abort_phase.name(),
            });
            Err(attach_partial_stats(e, &out.stats))
        }
    }
}

impl<const D: usize> Frame<'_, D> {
    /// Runs an algorithm's serial preparation under its own span.
    pub(crate) fn phase<R>(&self, phase: Phase, work: impl FnOnce() -> R) -> R {
        let span = self.tracer.span_enter(phase, || self.guard.io());
        let made = work();
        self.tracer.span_exit(phase, span, || self.guard.io());
        made
    }

    /// Runs `join` to completion under the `Join` span.
    pub(crate) fn join<J: Join<D>>(&mut self, join: &J) -> QueryResult<()> {
        let (tracer, guard) = (self.tracer, self.guard);
        let span_j = tracer.span_enter(Phase::Join, || guard.io());
        self.abort_phase = Phase::Join;
        let mut lead = Worker {
            tracer,
            guard,
            local: join.local(self.scratch),
            scratch: &mut *self.scratch,
            out: AnnOutput::default(),
        };
        let seeds = join.seeds(&mut lead);
        let ran = if self.workers == 1 {
            let mut queue = VecDeque::from(seeds);
            let ran = (|| -> QueryResult<()> {
                while let Some(morsel) = queue.pop_front() {
                    join.step(&mut lead, morsel, &mut Spill::Local(&mut queue))?;
                }
                Ok(())
            })();
            self.out = join.retire(lead);
            ran
        } else {
            let pool = MorselPool::new(seeds);
            let drained = thread::scope(|scope| {
                let helpers: Vec<_> = (1..self.workers)
                    .map(|_| {
                        let pool = &pool;
                        scope.spawn(move || {
                            // A helper reads pages under the query's own
                            // retry policy, as the calling thread does.
                            let _retry = guard.retry_scope();
                            let mut scratch = QueryScratch::new();
                            let helper = Worker {
                                tracer,
                                guard,
                                local: join.local(&mut scratch),
                                scratch: &mut scratch,
                                out: AnnOutput::default(),
                            };
                            drain(join, helper, pool)
                        })
                    })
                    .collect();
                let mut drained = vec![drain(join, lead, &pool)];
                drained.extend(helpers.into_iter().map(|h| h.join().unwrap_or_else(Err)));
                drained
            });
            self.out = AnnOutput::default();
            let mut ran = Ok(());
            for worker in drained {
                let (out, status) = worker.unwrap_or_else(|payload| panic::resume_unwind(payload));
                self.out.results.extend(out.results);
                self.out.stats.merge(&out.stats);
                ran = ran.and(status);
            }
            ran
        };
        tracer.span_exit(Phase::Join, span_j, || guard.io());
        ran
    }
}

/// One worker's share of a parallel join: pop, step, complete until the
/// pool runs dry or aborts. A failed or panicking step aborts the pool so
/// no sibling waits on the morsel it will never complete. Returns the
/// retired output with the worker's status, or the panic payload — a
/// panicking worker's state is abandoned unretired, as a serial panic
/// abandons it.
fn drain<J: Join<D>, const D: usize>(
    join: &J,
    mut w: Worker<'_, D, J::Local>,
    pool: &MorselPool<J::Morsel>,
) -> thread::Result<(AnnOutput, QueryResult<()>)> {
    let ran = panic::catch_unwind(AssertUnwindSafe(|| {
        while let Some(morsel) = pool.pop() {
            let step = join.step(&mut w, morsel, &mut Spill::Shared(pool));
            pool.complete();
            step?;
        }
        Ok(())
    }));
    if !matches!(ran, Ok(Ok(()))) {
        pool.abort();
    }
    ran.map(|ran| (join.retire(w), ran))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resilience::{BudgetKind, QueryError};
    use crate::stats::NeighborPair;
    use ann_store::sync::Mutex;
    use std::collections::HashSet;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// How the toy join's step misbehaves.
    #[derive(Clone, Copy)]
    enum Fault {
        None,
        /// The step for this morsel fails with a budget abort.
        ErrAt(u64),
        /// Every step on the calling thread panics.
        PanicOnCaller,
        /// Every step off the calling thread panics.
        PanicOffCaller,
    }

    /// A toy join over `u64` morsels: each yields one pair and counts one
    /// `enqueued`, and one below `split_below` also pushes its two
    /// children `2u` and `2u + 1`. With a fault set, every step that does
    /// not fault takes a millisecond, so the faulting worker is sure to
    /// run while its siblings still hold work.
    struct Toy {
        seeds: Vec<u64>,
        split_below: u64,
        fault: Fault,
        caller: ThreadId,
        ran_on: Mutex<HashSet<ThreadId>>,
    }

    impl Toy {
        fn new(seeds: Vec<u64>, split_below: u64, fault: Fault) -> Self {
            Toy {
                seeds,
                split_below,
                fault,
                caller: thread::current().id(),
                ran_on: Mutex::new(HashSet::new()),
            }
        }

        fn run(&self, workers: usize) -> QueryResult<AnnOutput> {
            let guard = QueryGuard::disabled();
            let ctx = ExecCtx {
                tracer: Tracer::disabled(),
                guard: &guard,
                scratch: &mut QueryScratch::new(),
                threads: workers,
            };
            drive(ctx, false, |frame| frame.join(self))
        }
    }

    impl Join<2> for Toy {
        type Morsel = u64;
        type Local = ();

        fn local(&self, _scratch: &mut QueryScratch<2>) {}

        fn seeds(&self, _lead: &mut Worker<'_, 2, ()>) -> Vec<u64> {
            self.seeds.clone()
        }

        fn step(
            &self,
            w: &mut Worker<'_, 2, ()>,
            unit: u64,
            spill: &mut Spill<'_, u64>,
        ) -> QueryResult<()> {
            let me = thread::current().id();
            self.ran_on.lock().insert(me);
            match self.fault {
                Fault::None => {}
                Fault::ErrAt(at) if unit == at => {
                    return Err(QueryError::BudgetExhausted {
                        budget: BudgetKind::Visits,
                        partial: Box::default(),
                    })
                }
                Fault::PanicOnCaller if me == self.caller => panic!("injected lead panic"),
                Fault::PanicOffCaller if me != self.caller => panic!("injected helper panic"),
                _ => thread::sleep(Duration::from_millis(1)),
            }
            if unit < self.split_below {
                spill.push(2 * unit);
                spill.push(2 * unit + 1);
            }
            w.out.stats.enqueued += 1;
            w.out.results.push(NeighborPair {
                r_oid: unit,
                s_oid: unit,
                dist: 0.0,
            });
            Ok(())
        }

        fn retire(&self, w: Worker<'_, 2, ()>) -> AnnOutput {
            w.out
        }
    }

    /// Runs the toy at 1, 2, 3 and 8 workers and checks every step's pair
    /// and counter reached the folded output once, and that the calling
    /// thread was a worker: at most `workers − 1` other threads ran a step.
    fn assert_folds(seeds: Vec<u64>, split_below: u64, expect: std::ops::Range<u64>) {
        for workers in [1usize, 2, 3, 8] {
            let toy = Toy::new(seeds.clone(), split_below, Fault::None);
            let out = toy.run(workers).unwrap();
            let mut oids: Vec<u64> = out.results.iter().map(|p| p.r_oid).collect();
            oids.sort_unstable();
            assert_eq!(
                oids,
                expect.clone().collect::<Vec<u64>>(),
                "workers={workers}"
            );
            assert_eq!(
                out.stats.enqueued,
                expect.end - expect.start,
                "workers={workers}"
            );
            let ran_on = toy.ran_on.into_inner();
            let helpers = ran_on.iter().filter(|&&t| t != toy.caller).count();
            assert!(helpers < workers, "workers={workers}: {ran_on:?}");
        }
    }

    #[test]
    fn merges_results_and_folds_stats() {
        assert_folds((0..37).collect(), 0, 0..37);
    }

    #[test]
    fn worker_pushed_children_are_processed() {
        // One seed below the split threshold fans out to the full binary
        // tree 1..128.
        assert_folds(vec![1], 64, 1..128);
    }

    #[test]
    fn first_error_aborts_the_pool_and_keeps_partial_stats() {
        // The queue hands out 999, 998, … newest first: the step for 972
        // fails after the 27 newer morsels were taken, and each of those
        // steps finishes and counts before its worker sees the abort.
        let toy = Toy::new((0..1000).collect(), 0, Fault::ErrAt(999 - 27));
        match toy.run(3) {
            Err(QueryError::BudgetExhausted { partial, .. }) => {
                assert!(partial.enqueued >= 27, "every worker's steps folded in");
                assert!(
                    partial.enqueued < 500,
                    "abort drained the pool early: {}",
                    partial.enqueued
                );
            }
            other => panic!("expected the step's budget abort, got {other:?}"),
        }
    }

    fn panic_message(fault: Fault) -> String {
        let caught = panic::catch_unwind(|| Toy::new((0..1000).collect(), 0, fault).run(2));
        let payload = caught.expect_err("the panic must propagate, not hang");
        payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("")
            .to_string()
    }

    #[test]
    fn lead_panic_propagates_instead_of_hanging() {
        assert_eq!(panic_message(Fault::PanicOnCaller), "injected lead panic");
    }

    #[test]
    fn helper_panic_propagates_instead_of_hanging() {
        assert_eq!(
            panic_message(Fault::PanicOffCaller),
            "injected helper panic"
        );
    }
}
