//! Query resilience: deadlines, cooperative cancellation, work budgets,
//! and the structured [`QueryError`] every traversal returns.
//!
//! Long-running ANN joins need to be stoppable (a client went away),
//! boundable (admission control wants a worst-case latency or I/O cost),
//! and fault-tolerant (a transient disk error must not kill a batch job;
//! a corrupt page must not wedge it). This module supplies the shared
//! machinery:
//!
//! * [`CancelToken`] — a shareable flag (`Arc<AtomicBool>`); any holder
//!   can cancel an in-flight query from another thread.
//! * [`QueryGuard`] — the per-query limit checker. Every traversal calls
//!   [`QueryGuard::tick`] once per node expansion (HNN, which has no
//!   nodes, ticks per query point), so an abort takes effect within one
//!   expansion. With no limits configured the guard is a single branch,
//!   keeping the fault-free path decision- and counter-identical. It also
//!   carries the request's [`RetryPolicy`], which the join driver scopes
//!   to the query's own threads ([`ann_store::RetryScope`]) —
//!   never written to a pool.
//! * [`QueryError`] — the typed abort/failure taxonomy. Store-layer
//!   failures (after the pool's retries are exhausted) arrive as
//!   [`QueryError::Io`]; budget aborts carry the partial [`AnnStats`]
//!   accumulated up to the abort point.
//!
//! The clean-abort contract: whichever way a query ends, the system is
//! left reusable — a page access is one critical section of its pool
//! shard, so an abort holds no frame and a failed read publishes none,
//! `NodeCache` entries are never published half-built,
//! `QueryScratch` buffers at worst drop (they are re-allocated on next
//! use), and a subsequent fault-free run returns byte-identical results.

use crate::stats::AnnStats;
use ann_store::{BufferPool, IoSnapshot, RetryPolicy, RetryScope, StoreError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A shareable cancellation flag. Clone it, hand a copy to another
/// thread (or a timeout reaper), and [`cancel`](CancelToken::cancel) —
/// the query holding the token aborts at its next node expansion with
/// [`QueryError::Cancelled`].
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// Requests cancellation; idempotent, callable from any thread.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Which limit a [`QueryError::BudgetExhausted`] abort hit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BudgetKind {
    /// The physical-read budget (`io_budget`).
    Io,
    /// The node-expansion budget (`visit_budget`).
    Visits,
}

/// How a query ended other than success. Traversals return this instead
/// of panicking; the variants carry enough to tell policy (retry the
/// request? shed it?) from pathology (bad media).
#[derive(Debug)]
pub enum QueryError {
    /// The request's [`CancelToken`] fired.
    Cancelled,
    /// The request's deadline passed mid-traversal.
    DeadlineExceeded,
    /// A work budget ran out. `partial` holds the statistics accumulated
    /// up to the abort point (result pairs are discarded: a truncated
    /// ANN join is not a meaningful answer under the paper's semantics).
    BudgetExhausted {
        /// Which budget was exhausted.
        budget: BudgetKind,
        /// Work done before the abort — accurate counters plus the I/O
        /// delta attributable to this query.
        partial: Box<AnnStats>,
    },
    /// The storage layer failed after the pool's bounded retries:
    /// permanent injected faults, OS errors, or a (now quarantined)
    /// corrupt page.
    Io(StoreError),
}

impl QueryError {
    /// Short stable label for trace events and reports.
    pub fn reason(&self) -> &'static str {
        match self {
            QueryError::Cancelled => "cancelled",
            QueryError::DeadlineExceeded => "deadline",
            QueryError::BudgetExhausted {
                budget: BudgetKind::Io,
                ..
            } => "io-budget",
            QueryError::BudgetExhausted {
                budget: BudgetKind::Visits,
                ..
            } => "visit-budget",
            QueryError::Io(_) => "io-error",
        }
    }
}

impl std::fmt::Display for QueryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QueryError::Cancelled => write!(f, "query cancelled"),
            QueryError::DeadlineExceeded => write!(f, "query deadline exceeded"),
            QueryError::BudgetExhausted { budget, partial } => write!(
                f,
                "query {} budget exhausted after {} node expansions",
                match budget {
                    BudgetKind::Io => "I/O",
                    BudgetKind::Visits => "visit",
                },
                partial.r_nodes_expanded + partial.s_nodes_expanded
            ),
            QueryError::Io(e) => write!(f, "query I/O failure: {e}"),
        }
    }
}

impl std::error::Error for QueryError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            QueryError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StoreError> for QueryError {
    fn from(e: StoreError) -> Self {
        QueryError::Io(e)
    }
}

/// Convenience alias for everything the query layer returns.
pub type QueryResult<T> = std::result::Result<T, QueryError>;

/// The per-query limit checker threaded through every traversal.
///
/// Internally atomic, so every worker of a parallel join shares one guard
/// by reference. [`QueryGuard::disabled`] reduces
/// [`tick`](QueryGuard::tick) to one predictable branch.
pub struct QueryGuard<'p> {
    active: bool,
    cancel: Option<CancelToken>,
    deadline: Option<Instant>,
    visit_budget: u64,
    visits: AtomicU64,
    io_budget: u64,
    io_base: u64,
    retry: Option<RetryPolicy>,
    /// The distinct pools the query touches: their physical reads count
    /// against `io_budget`, and their counters are the query's I/O.
    pools: Vec<&'p BufferPool>,
}

impl QueryGuard<'static> {
    /// A guard with no limits: every tick is a single branch.
    pub fn disabled() -> Self {
        QueryGuard::new(None, None, None, None, None, &[])
    }
}

impl<'p> QueryGuard<'p> {
    /// Builds a guard for one query; the `deadline` time budget starts
    /// now. `pools` are the buffer pools whose physical reads the
    /// `io_budget` charges (duplicates are folded, so a shared pool is
    /// not double-counted); `retry` is the policy the query's own threads
    /// read pages under, in place of the default.
    pub fn new(
        cancel: Option<CancelToken>,
        deadline: Option<Duration>,
        visit_budget: Option<u64>,
        io_budget: Option<u64>,
        retry: Option<RetryPolicy>,
        pools: &[&'p BufferPool],
    ) -> Self {
        let mut deduped: Vec<&'p BufferPool> = Vec::with_capacity(pools.len());
        for &p in pools {
            if !deduped.iter().any(|&q| std::ptr::eq(q, p)) {
                deduped.push(p);
            }
        }
        // A budget too large for the clock is no deadline at all.
        let deadline = deadline.and_then(|budget| Instant::now().checked_add(budget));
        let active =
            cancel.is_some() || deadline.is_some() || visit_budget.is_some() || io_budget.is_some();
        let mut guard = QueryGuard {
            active,
            cancel,
            deadline,
            visit_budget: visit_budget.unwrap_or(u64::MAX),
            visits: AtomicU64::new(0),
            io_budget: io_budget.unwrap_or(u64::MAX),
            io_base: 0,
            retry,
            pools: deduped,
        };
        guard.io_base = guard.physical_reads();
        guard
    }

    /// Puts the query's retry policy (if it has one) in place of the
    /// default for the I/O the calling thread issues while the scope
    /// lives. It is entered on the query's thread and on every helper
    /// thread of a parallel join, so the policy reaches no other query on
    /// the pools.
    pub(crate) fn retry_scope(&self) -> RetryScope {
        RetryScope::enter(self.retry)
    }

    /// Physical reads so far across the charged pools.
    fn physical_reads(&self) -> u64 {
        self.pools.iter().map(|p| p.physical_reads()).sum()
    }

    /// The touched pools' counters, each distinct pool counted once —
    /// what the join driver takes the query's I/O delta over.
    pub(crate) fn io(&self) -> IoSnapshot {
        self.pools
            .iter()
            .fold(IoSnapshot::default(), |io, p| io.merge(&p.stats()))
    }

    /// Node expansions charged so far.
    pub fn visits(&self) -> u64 {
        self.visits.load(Ordering::Relaxed)
    }

    /// Checks cancellation and deadline without charging a node
    /// expansion. The query entrypoint calls this once before
    /// materializing inputs, so a request that arrives already cancelled
    /// (or past its deadline) aborts before a single page is read — even
    /// for algorithms that extract points from an index up front.
    pub fn preflight(&self) -> QueryResult<()> {
        if !self.active {
            return Ok(());
        }
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(QueryError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(QueryError::DeadlineExceeded);
            }
        }
        Ok(())
    }

    /// Charges one node expansion and checks every configured limit, in
    /// severity order: cancellation, deadline, then budgets. Budget
    /// aborts carry empty partial stats here; the traversal entrypoint
    /// fills them in before returning (it owns the counters).
    #[inline]
    pub fn tick(&self) -> QueryResult<()> {
        if !self.active {
            return Ok(());
        }
        self.tick_slow()
    }

    #[cold]
    fn tick_slow(&self) -> QueryResult<()> {
        if let Some(cancel) = &self.cancel {
            if cancel.is_cancelled() {
                return Err(QueryError::Cancelled);
            }
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(QueryError::DeadlineExceeded);
            }
        }
        let visits = self.visits.fetch_add(1, Ordering::Relaxed) + 1;
        if visits > self.visit_budget {
            return Err(QueryError::BudgetExhausted {
                budget: BudgetKind::Visits,
                partial: Box::default(),
            });
        }
        if self.io_budget != u64::MAX
            && self.physical_reads().saturating_sub(self.io_base) > self.io_budget
        {
            return Err(QueryError::BudgetExhausted {
                budget: BudgetKind::Io,
                partial: Box::default(),
            });
        }
        Ok(())
    }
}

/// Replaces `stats` inside a [`QueryError::BudgetExhausted`] with the
/// partial statistics the aborted traversal accumulated; other variants
/// pass through untouched. Entry points call this on their exit path.
pub fn attach_partial_stats(err: QueryError, stats: &AnnStats) -> QueryError {
    match err {
        QueryError::BudgetExhausted { budget, .. } => QueryError::BudgetExhausted {
            budget,
            partial: Box::new(*stats),
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_store::MemDisk;

    #[test]
    fn disabled_guard_never_aborts() {
        let g = QueryGuard::disabled();
        for _ in 0..10_000 {
            assert!(g.tick().is_ok());
        }
        assert_eq!(g.visits(), 0, "inactive guard does not count");
    }

    #[test]
    fn cancel_token_aborts_immediately() {
        let token = CancelToken::new();
        let g = QueryGuard::new(Some(token.clone()), None, None, None, None, &[]);
        assert!(g.tick().is_ok());
        token.cancel();
        assert!(matches!(g.tick(), Err(QueryError::Cancelled)));
        // Cancellation wins over every other limit.
        assert!(matches!(g.tick(), Err(QueryError::Cancelled)));
    }

    #[test]
    fn preflight_checks_limits_without_charging_the_budget() {
        let token = CancelToken::new();
        let g = QueryGuard::new(Some(token.clone()), None, Some(1), None, None, &[]);
        assert!(g.preflight().is_ok());
        assert_eq!(g.visits(), 0, "preflight must not charge a visit");
        token.cancel();
        assert!(matches!(g.preflight(), Err(QueryError::Cancelled)));

        let g = QueryGuard::new(None, Some(Duration::ZERO), None, None, None, &[]);
        assert!(matches!(g.preflight(), Err(QueryError::DeadlineExceeded)));
    }

    #[test]
    fn expired_deadline_aborts() {
        let g = QueryGuard::new(None, Some(Duration::ZERO), None, None, None, &[]);
        assert!(matches!(g.tick(), Err(QueryError::DeadlineExceeded)));
    }

    #[test]
    fn visit_budget_allows_exactly_budget_ticks() {
        let g = QueryGuard::new(None, None, Some(3), None, None, &[]);
        assert!(g.tick().is_ok());
        assert!(g.tick().is_ok());
        assert!(g.tick().is_ok());
        match g.tick() {
            Err(QueryError::BudgetExhausted { budget, .. }) => {
                assert_eq!(budget, BudgetKind::Visits)
            }
            other => panic!("expected visit-budget abort, got {other:?}"),
        }
    }

    #[test]
    fn io_budget_charges_shared_pool_once() {
        let pool = BufferPool::new(MemDisk::new(), 4);
        for _ in 0..3 {
            pool.allocate().unwrap();
        }
        pool.flush_all().unwrap();
        pool.clear().unwrap();
        let g = QueryGuard::new(None, None, None, Some(1), None, &[&pool, &pool]);
        assert!(g.tick().is_ok(), "no reads yet");
        pool.with_page(0, |_| ()).unwrap(); // 1 physical read: at budget
        assert!(g.tick().is_ok());
        pool.with_page(1, |_| ()).unwrap(); // 2nd read: over budget
        match g.tick() {
            Err(QueryError::BudgetExhausted { budget, .. }) => assert_eq!(budget, BudgetKind::Io),
            other => panic!("expected io-budget abort, got {other:?}"),
        }
    }

    #[test]
    fn attach_partial_stats_fills_budget_aborts_only() {
        let stats = AnnStats {
            r_nodes_expanded: 42,
            ..Default::default()
        };
        let err = QueryError::BudgetExhausted {
            budget: BudgetKind::Io,
            partial: Box::default(),
        };
        match attach_partial_stats(err, &stats) {
            QueryError::BudgetExhausted { partial, .. } => {
                assert_eq!(partial.r_nodes_expanded, 42)
            }
            other => panic!("variant changed: {other:?}"),
        }
        assert!(matches!(
            attach_partial_stats(QueryError::Cancelled, &stats),
            QueryError::Cancelled
        ));
    }
}
