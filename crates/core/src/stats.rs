//! Result and statistics types shared by every ANN algorithm.

use ann_store::IoSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// One `(r, s)` neighbor pair in an ANN / AkNN result.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NeighborPair {
    /// Object id from the query set `R`.
    pub r_oid: u64,
    /// Object id of one of its `k` nearest neighbors in `S`.
    pub s_oid: u64,
    /// Euclidean distance between the two objects.
    pub dist: f64,
}

/// Work counters for one ANN run.
///
/// These are the quantities the paper argues about: the efficiency of an
/// ANN algorithm "heavily depends on how many PQ entries are created and
/// processed" (§1), so the counters make the pruning-metric effect
/// directly observable, independent of wall-clock noise.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct AnnStats {
    /// `Distances` evaluations (one MIND + one MAXD computation).
    pub distance_computations: u64,
    /// Local priority queues created (one per unique `I_R` entry reached).
    pub lpqs_created: u64,
    /// Entries pushed into some LPQ (survived the Expand-stage filter).
    pub enqueued: u64,
    /// Entries rejected by the Expand-stage `MIND > MAXD` test.
    pub pruned_on_probe: u64,
    /// Entries evicted by the Filter stage while already queued.
    pub pruned_in_queue: u64,
    /// Nodes of `I_R` expanded.
    pub r_nodes_expanded: u64,
    /// Nodes of `I_S` expanded.
    pub s_nodes_expanded: u64,
    /// Buffer-pool I/O attributable to this run.
    pub io: IoSnapshot,
}

impl AnnStats {
    /// Total entries considered (enqueued + rejected at probe time).
    pub fn entries_probed(&self) -> u64 {
        self.enqueued + self.pruned_on_probe
    }

    /// Adds another run's counters field-wise, I/O included.
    pub fn merge(&mut self, other: &AnnStats) {
        self.distance_computations += other.distance_computations;
        self.lpqs_created += other.lpqs_created;
        self.enqueued += other.enqueued;
        self.pruned_on_probe += other.pruned_on_probe;
        self.pruned_in_queue += other.pruned_in_queue;
        self.r_nodes_expanded += other.r_nodes_expanded;
        self.s_nodes_expanded += other.s_nodes_expanded;
        self.io = self.io.merge(&other.io);
    }
}

/// Shared, thread-safe work counters for parallel runs.
///
/// Workers keep their hot-loop counters in a plain local [`AnnStats`]
/// (no synchronization in the traversal itself) and fold the totals in
/// with one relaxed [`add`](Self::add) when they finish a unit of work or
/// exit. Relaxed ordering suffices: the counters are statistics, and the
/// thread join that ends the parallel phase provides the happens-before
/// edge that makes the final [`load`](Self::load) complete.
#[derive(Debug, Default)]
pub struct AtomicAnnStats {
    distance_computations: AtomicU64,
    lpqs_created: AtomicU64,
    enqueued: AtomicU64,
    pruned_on_probe: AtomicU64,
    pruned_in_queue: AtomicU64,
    r_nodes_expanded: AtomicU64,
    s_nodes_expanded: AtomicU64,
}

impl AtomicAnnStats {
    /// Fresh zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds a worker's local counters in (relaxed; I/O is measured
    /// globally at the pool and is not part of the merge).
    pub fn add(&self, s: &AnnStats) {
        self.distance_computations
            .fetch_add(s.distance_computations, Ordering::Relaxed);
        self.lpqs_created
            .fetch_add(s.lpqs_created, Ordering::Relaxed);
        self.enqueued.fetch_add(s.enqueued, Ordering::Relaxed);
        self.pruned_on_probe
            .fetch_add(s.pruned_on_probe, Ordering::Relaxed);
        self.pruned_in_queue
            .fetch_add(s.pruned_in_queue, Ordering::Relaxed);
        self.r_nodes_expanded
            .fetch_add(s.r_nodes_expanded, Ordering::Relaxed);
        self.s_nodes_expanded
            .fetch_add(s.s_nodes_expanded, Ordering::Relaxed);
    }

    /// Reads the totals out into a plain [`AnnStats`] (with zeroed I/O —
    /// the caller attributes pool I/O separately).
    pub fn load(&self) -> AnnStats {
        AnnStats {
            distance_computations: self.distance_computations.load(Ordering::Relaxed),
            lpqs_created: self.lpqs_created.load(Ordering::Relaxed),
            enqueued: self.enqueued.load(Ordering::Relaxed),
            pruned_on_probe: self.pruned_on_probe.load(Ordering::Relaxed),
            pruned_in_queue: self.pruned_in_queue.load(Ordering::Relaxed),
            r_nodes_expanded: self.r_nodes_expanded.load(Ordering::Relaxed),
            s_nodes_expanded: self.s_nodes_expanded.load(Ordering::Relaxed),
            io: IoSnapshot::default(),
        }
    }
}

/// The output of an ANN / AkNN run: the neighbor pairs plus work counters.
#[derive(Clone, Debug, Default)]
pub struct AnnOutput {
    /// Neighbor pairs, in no particular order. For AkNN each query object
    /// contributes up to `k` pairs.
    pub results: Vec<NeighborPair>,
    /// Work counters for the run.
    pub stats: AnnStats,
}

impl AnnOutput {
    /// Sorts results by `(r_oid, dist, s_oid)` — canonical order for
    /// comparisons in tests.
    pub fn sort(&mut self) {
        self.results.sort_by(|a, b| {
            (a.r_oid, a.dist, a.s_oid)
                .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
                .expect("distances are finite")
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sort_orders_by_query_then_distance() {
        let mut out = AnnOutput {
            results: vec![
                NeighborPair {
                    r_oid: 2,
                    s_oid: 0,
                    dist: 1.0,
                },
                NeighborPair {
                    r_oid: 1,
                    s_oid: 5,
                    dist: 2.0,
                },
                NeighborPair {
                    r_oid: 1,
                    s_oid: 3,
                    dist: 0.5,
                },
            ],
            stats: AnnStats::default(),
        };
        out.sort();
        let order: Vec<_> = out.results.iter().map(|p| (p.r_oid, p.s_oid)).collect();
        assert_eq!(order, vec![(1, 3), (1, 5), (2, 0)]);
    }

    #[test]
    fn probed_is_sum() {
        let stats = AnnStats {
            enqueued: 3,
            pruned_on_probe: 4,
            ..Default::default()
        };
        assert_eq!(stats.entries_probed(), 7);
    }
}
