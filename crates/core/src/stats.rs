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
    ///
    /// Every distance is finite and at least `+0.0` (a square root of a
    /// sum of squares; [`crate::exec`] asserts it), and for such values
    /// the bit patterns order as the numbers do. The key
    /// `(r_oid, dist.to_bits(), s_oid)` is then a total order whose ties
    /// are identical pairs, so an unstable sort on it yields the bytes a
    /// stable sort by value would.
    pub fn sort(&mut self) {
        self.results
            .sort_unstable_by_key(|p| (p.r_oid, p.dist.to_bits(), p.s_oid));
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

    /// The unstable bit-key sort equals the stable sort by value on
    /// shuffled outputs with tied distances, repeated oids and `+0.0`.
    #[test]
    fn sort_equals_stable_value_order() {
        ann_datagen::for_each_case(0x5047, 64, |rng| {
            let dists = [0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 2.0, 1e300];
            let mut results: Vec<NeighborPair> = (0..rng.range(0, 200))
                .map(|_| NeighborPair {
                    r_oid: rng.range(0, 6) as u64,
                    s_oid: rng.range(0, 6) as u64,
                    dist: match rng.range(0, 3) {
                        0 => rng.range_f64(0.0, 3.0),
                        _ => *rng.pick(&dists),
                    },
                })
                .collect();
            for i in (1..results.len()).rev() {
                results.swap(i, rng.range(0, i + 1));
            }
            let mut want = results.clone();
            want.sort_by(|a, b| {
                (a.r_oid, a.dist, a.s_oid)
                    .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
                    .expect("finite")
            });
            let mut got = AnnOutput {
                results,
                stats: AnnStats::default(),
            };
            got.sort();
            let bits = |v: &[NeighborPair]| -> Vec<(u64, u64, u64)> {
                v.iter()
                    .map(|p| (p.r_oid, p.dist.to_bits(), p.s_oid))
                    .collect()
            };
            assert_eq!(bits(&got.results), bits(&want));
        });
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
