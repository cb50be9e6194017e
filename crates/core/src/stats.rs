//! Result and statistics types shared by every ANN algorithm.

use ann_store::IoSnapshot;

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

ann_store::counters! {
    /// Work counters for one ANN run.
    ///
    /// These are the quantities the paper argues about: the efficiency of an
    /// ANN algorithm "heavily depends on how many PQ entries are created and
    /// processed" (§1), so the counters make the pruning-metric effect
    /// directly observable, independent of wall-clock noise. Declaration
    /// order is the wire's key order.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    pub struct AnnStats: u64 {
        /// `Distances` evaluations (one MIND + one MAXD computation).
        distance_computations,
        /// Local priority queues created (one per unique `I_R` entry reached).
        lpqs_created,
        /// Entries pushed into some LPQ (survived the Expand-stage filter).
        enqueued,
        /// Entries rejected by the Expand-stage `MIND > MAXD` test.
        pruned_on_probe,
        /// Entries evicted by the Filter stage while already queued.
        pruned_in_queue,
        /// Nodes of `I_R` expanded.
        r_nodes_expanded,
        /// Nodes of `I_S` expanded.
        s_nodes_expanded,
        ;
        /// Buffer-pool I/O attributable to this run.
        pub io: IoSnapshot,
    }
}

impl AnnStats {
    /// Total entries considered (enqueued + rejected at probe time).
    pub fn entries_probed(&self) -> u64 {
        self.enqueued + self.pruned_on_probe
    }

    /// Adds another run's counters field-wise, I/O included.
    pub fn merge(&mut self, other: &AnnStats) {
        for ((_, a), (_, b)) in self.counters_mut().into_iter().zip(other.counters()) {
            *a += b;
        }
        self.io = self.io.merge(&other.io);
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
