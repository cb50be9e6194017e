//! The one join driver: every algorithm is a [`Join`] run inside the
//! frame [`drive`] owns, and the serial algorithm is its one-worker case.
//!
//! [`drive`] is the only place that knows what surrounds a join: the
//! degenerate-request fast path, the I/O delta over the guard's pools,
//! the `Query` span and the first guard tick, the abort phase, the
//! `QueryAborted` event with the partial statistics attached, and the
//! canonical `(r_oid, dist, s_oid)` sort. [`Frame::join`] is the only
//! place that knows how morsels are executed: the `Join` span, one lead
//! [`Worker`] on the calling thread that seeds the work, and then either
//!
//! * **one worker** — the lead drains the seeds in order from a local
//!   FIFO with the *caller's* [`QueryScratch`]. No thread, no
//!   [`MorselPool`](crate::morsel::MorselPool), no lock or atomic per
//!   morsel; a step is told it may not hand work to siblings
//!   ([`Spill::shared`] is false), so it finishes each morsel inline —
//!   which is the serial algorithm, page-op for page-op; or
//! * **several workers** — the same step runs under
//!   [`par::run_workers`](crate::par::run_workers), one fresh scratch per
//!   worker, splitting large morsels into stealable children.
//!
//! An algorithm supplies only what is specific to it: serial preparation
//! (under [`Frame::phase`]), its seed morsels, its per-worker local
//! state, one morsel step, and its prune summary.

use crate::morsel::resolve_threads;
use crate::par::{self, WorkerHandle};
use crate::resilience::{attach_partial_stats, QueryGuard, QueryResult};
use crate::scratch::QueryScratch;
use crate::stats::AnnOutput;
use crate::trace::{Phase, PruneReason, TraceEvent, Tracer};
use std::collections::VecDeque;

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
    /// Several workers: children become stealable.
    Shared(&'a WorkerHandle<'a, T>),
}

impl<T> Spill<'_, T> {
    /// Whether siblings exist to take a split morsel's children. A step
    /// splits for load balance only when this holds.
    pub(crate) fn shared(&self) -> bool {
        matches!(self, Spill::Shared(_))
    }

    pub(crate) fn push(&mut self, unit: T) {
        match self {
            Spill::Local(queue) => queue.push_back(unit),
            Spill::Shared(handle) => handle.push(unit),
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
/// worker has returned its buffers, and — because node reads pin pages
/// only for the duration of the copy — no buffer-pool pin outlives the
/// call. [`QueryError::BudgetExhausted`](crate::QueryError) carries the
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
            // worker count, including 1.
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
            self.out = join.retire(lead);
            let (pout, err) = par::run_workers(self.workers, seeds, tracer, |h| {
                let mut scratch = QueryScratch::new();
                let mut w = Worker {
                    tracer: h.tracer(),
                    guard,
                    local: join.local(&mut scratch),
                    scratch: &mut scratch,
                    out: AnnOutput::default(),
                };
                let ran = (|| -> QueryResult<()> {
                    while let Some(morsel) = h.pop() {
                        let step = join.step(&mut w, morsel, &mut Spill::Shared(&h));
                        h.complete();
                        step?;
                    }
                    Ok(())
                })();
                (join.retire(w), ran)
            });
            self.out.results.extend(pout.results);
            self.out.stats.merge(&pout.stats);
            err.map_or(Ok(()), Err)
        };
        tracer.span_exit(Phase::Join, span_j, || guard.io());
        ran
    }
}
