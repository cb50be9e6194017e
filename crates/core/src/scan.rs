//! The node scan shared by every algorithm that probes `I_S` — MBA's
//! probe, BNN's group traversal, and MNN's best-first search: score every
//! entry of a decoded `I_S` node against one owner, then replay the
//! accept/reject decisions sequentially under the evolving bound. The
//! owner is an `I_R` entry (MBA), a query object (MNN) or a BNN group
//! standing in as a node over the group's MBR.
//!
//! MIND for every entry, the metric for survivors: the scan runs one
//! batched `MINMINDIST` kernel over the node's columns, and the replay
//! evaluates the pruning metric (`PruneMetric::upper_sq`) for an entry
//! only once its MIND has passed the threshold the queue reads just before
//! the offer — the paper's `Distances` yields MAXD for every entry, but
//! Algorithm 4 reads it only then. In the benchmark's 10-D self-join
//! (`join10d_cold`) 94 % of the scanned entries fail MIND, so they never
//! pay for NXNDIST. The batched
//! MIND is bit-identical to the scalar one ([`ann_geom::kernels`]'
//! contract), the metric *is* the scalar one, and the replay reads the
//! queue's threshold before each offer, exactly as a sequence of scalar
//! probes would — so queue contents, tie-breaks and every [`AnnStats`]
//! counter match the one-entry-at-a-time traversal.
//!
//! # The exact point×leaf path
//!
//! When the owner is a data object and the node is a leaf, both sides of
//! every pair are points, and between two points `MAXD ≡ MIND ≡ dist_sq`
//! *bit for bit* under either pruning metric (pinned by
//! `ann-geom`'s `point_pair_metrics_equal_dist_sq_bitwise`). The scan
//! therefore runs [`kernels::dist_sq_batch`] once and uses the value for
//! both fields — no NXNDIST / MAXMAXDIST evaluation at all, not even for
//! survivors.
//!
//! Before touching the columns it rejects the whole leaf when
//! `MINMINDIST(owner, node.mbr)` already exceeds the queue's threshold.
//! That is counter-identical to rejecting the entries one by one: the
//! leaf's MBR contains each of its points (`index::validate`, invariant
//! 4), so each per-dimension gap to the MBR is at most the gap to the
//! point; IEEE subtraction, squaring and addition are monotone, so the
//! MBR's accumulated sum is at most every point's `dist_sq`; and a
//! rejection never moves the threshold, so by induction all `len` entries
//! fail the same test. Both counters a rejected entry touches are charged
//! `len` at once.
//!
//! A leaf that passes goes to the queue in one batched offer
//! ([`Lpq::offer_points`]), which decides every point as the sequential
//! replay would but writes only the points still queued at its end. Three
//! facts make that exact. Nothing dequeues and nothing emits within the
//! batch, so the threshold only falls. An entry the Filter stage evicts
//! never moved the bound (its MAXD is at least its MIND, which is above
//! the bound), so the bound can be replayed from the offers alone. And
//! because the threshold only falls, the points queued at the end are
//! exactly those within the final threshold; each pays one bound-tracker
//! offer and one sorted insert, and a point accepted and evicted within
//! the leaf pays neither. The four counters are charged once per leaf.

use crate::index::SpatialIndex;
use crate::lpq::{BoundTracker, Lpq, PointBatch, QueuedEntry};
use crate::node::{DecodedNode, Entry, NodeEntry};
use crate::scratch::{BestFirstItem, QueryScratch};
use crate::stats::AnnStats;
use ann_geom::{kernels, min_min_dist_sq, min_min_dist_sq_within, Mbr, Point, PruneMetric};
use std::collections::BinaryHeap;

/// Where a node scan delivers the entries that survive the probe test.
pub(crate) trait CandidateQueue<const D: usize> {
    /// Entries with `MIND²` above this are rejected without an offer.
    fn prune_threshold_sq(&self) -> f64;

    /// Queues `e`; returns `(accepted, evicted by the Filter stage)`.
    fn offer(&mut self, e: QueuedEntry<D>) -> (bool, u64);

    /// Offers a leaf's points, `entries[i]` at squared distance
    /// `dist_sq[i]` (its MIND and its MAXD), one after another behind the
    /// probe test; returns the summed `(accepted, evicted)`.
    fn offer_points(
        &mut self,
        entries: &[Entry<D>],
        dist_sq: &[f64],
        _batch: &mut PointBatch,
    ) -> (u64, u64) {
        let (mut accepted, mut filtered) = (0, 0);
        for (e, &d) in entries.iter().zip(dist_sq) {
            if d > self.prune_threshold_sq() {
                continue;
            }
            let (acc, evicted) = self.offer(QueuedEntry {
                mind_sq: d,
                maxd_sq: d,
                entry: *e,
            });
            accepted += u64::from(acc);
            filtered += evicted;
        }
        (accepted, filtered)
    }
}

impl<const D: usize> CandidateQueue<D> for Lpq<D> {
    #[inline]
    fn prune_threshold_sq(&self) -> f64 {
        Lpq::prune_threshold_sq(self)
    }

    #[inline]
    fn offer(&mut self, e: QueuedEntry<D>) -> (bool, u64) {
        self.try_enqueue(e)
    }

    fn offer_points(
        &mut self,
        entries: &[Entry<D>],
        dist_sq: &[f64],
        batch: &mut PointBatch,
    ) -> (u64, u64) {
        Lpq::offer_points(self, entries, dist_sq, batch)
    }
}

/// The frontier of one best-first (Hjaltason–Samet) descent — MNN's
/// per-object search: a `MIND`-ordered heap plus the pruning bound its
/// offers back. Nothing is ever evicted; stale entries are cut off at pop
/// time.
pub(crate) struct BestFirst<const D: usize> {
    pub(crate) bound: BoundTracker,
    pub(crate) heap: BinaryHeap<BestFirstItem<D>>,
}

impl<const D: usize> BestFirst<D> {
    /// A frontier seeking the `k` nearest neighbors of `query` in `index`,
    /// holding `index`'s root entry, over storage checked out of `scratch`
    /// (give it back with [`release`](Self::release)).
    pub(crate) fn seeded<M: PruneMetric, I: SpatialIndex<D>>(
        index: &I,
        query: &Point<D>,
        k: usize,
        scratch: &mut QueryScratch<D>,
    ) -> Self {
        let mut front = BestFirst {
            bound: BoundTracker::new_in(k, f64::INFINITY, scratch.take_bounds()),
            heap: scratch.take_best_first(),
        };
        let (qmbr, root_mbr) = (Mbr::from_point(query), index.bounds());
        front.offer(QueuedEntry {
            mind_sq: min_min_dist_sq(&qmbr, &root_mbr),
            maxd_sq: M::upper_sq(&qmbr, &root_mbr),
            entry: Entry::Node(NodeEntry {
                page: index.root_page(),
                count: index.num_points(),
                mbr: root_mbr,
            }),
        });
        front
    }

    pub(crate) fn release(self, scratch: &mut QueryScratch<D>) {
        scratch.put_best_first(self.heap);
        scratch.put_bounds(self.bound.into_storage());
    }
}

impl<const D: usize> CandidateQueue<D> for BestFirst<D> {
    #[inline]
    fn prune_threshold_sq(&self) -> f64 {
        self.bound.prune_threshold_sq()
    }

    #[inline]
    fn offer(&mut self, e: QueuedEntry<D>) -> (bool, u64) {
        self.bound.offer(e.maxd_sq);
        self.heap.push(BestFirstItem {
            mind_sq: e.mind_sq,
            maxd_sq: e.maxd_sq,
            entry: e.entry,
        });
        (true, 0)
    }
}

/// The scan's working buffers, checked out of a [`QueryScratch`] for the
/// lifetime of one traversal.
pub(crate) struct NodeScan {
    mind: Vec<f64>,
    batch: PointBatch,
}

impl NodeScan {
    pub(crate) fn checkout<const D: usize>(scratch: &mut QueryScratch<D>) -> Self {
        NodeScan {
            mind: scratch.take_f64(),
            batch: PointBatch {
                smallest: scratch.take_f64(),
                alive: scratch.take_indices(),
            },
        }
    }

    pub(crate) fn release<const D: usize>(self, scratch: &mut QueryScratch<D>) {
        scratch.put_indices(self.batch.alive);
        scratch.put_f64(self.batch.smallest);
        scratch.put_f64(self.mind);
    }

    /// Probes every entry of `node` against `queue` on behalf of `owner`,
    /// tallying into `stats` what one scalar probe per entry would have
    /// tallied.
    pub(crate) fn scan<const D: usize, M, Q>(
        &mut self,
        owner: &Entry<D>,
        node: &DecodedNode<D>,
        queue: &mut Q,
        stats: &mut AnnStats,
    ) where
        M: PruneMetric,
        Q: CandidateQueue<D>,
    {
        let mind = &mut self.mind;
        if let (Entry::Object(o), Some(points)) = (owner, node.leaf_points()) {
            let len = points.len as u64;
            let om = Mbr::from_point(&o.point);
            let accepted = if min_min_dist_sq_within(&om, &node.mbr, queue.prune_threshold_sq())
                .is_none()
            {
                0
            } else {
                kernels::dist_sq_batch(&o.point, &points, mind);
                let (accepted, filtered) = queue.offer_points(&node.entries, mind, &mut self.batch);
                stats.enqueued += accepted;
                stats.pruned_in_queue += filtered;
                accepted
            };
            stats.distance_computations += len;
            stats.pruned_on_probe += len - accepted;
            return;
        }
        let om = owner.mbr();
        kernels::min_min_dist_sq_batch(&om, &node.soa_mbrs(), mind);
        for (i, e) in node.entries.iter().enumerate() {
            stats.distance_computations += 1;
            let mind_sq = mind[i];
            if mind_sq > queue.prune_threshold_sq() {
                stats.pruned_on_probe += 1;
                continue;
            }
            let (accepted, filtered) = queue.offer(QueuedEntry {
                mind_sq,
                maxd_sq: M::upper_sq(&om, &e.mbr()),
                entry: *e,
            });
            stats.pruned_in_queue += filtered;
            if !accepted {
                stats.pruned_on_probe += 1;
                continue;
            }
            stats.enqueued += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lpq::distances;
    use crate::node::{Node, ObjectEntry};
    use ann_datagen::Rng;
    use ann_geom::NxnDist;
    use ann_store::PageId;
    use std::cell::Cell;

    thread_local! {
        static UPPER_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// NXNDIST that counts its evaluations on this thread.
    #[derive(Clone, Copy, Debug, Default)]
    struct CountingNxn;

    impl PruneMetric for CountingNxn {
        const NAME: &'static str = "NXNDIST (counted)";
        fn upper_sq<const D: usize>(m: &Mbr<D>, n: &Mbr<D>) -> f64 {
            UPPER_CALLS.with(|c| c.set(c.get() + 1));
            NxnDist::upper_sq(m, n)
        }
    }

    fn random_mbr<const D: usize>(rng: &mut Rng) -> Mbr<D> {
        let mut lo = [0.0; D];
        let mut hi = [0.0; D];
        for d in 0..D {
            lo[d] = rng.f64();
            hi[d] = lo[d] + 0.3 * rng.f64();
        }
        Mbr::new(lo, hi)
    }

    fn random_point<const D: usize>(rng: &mut Rng) -> Point<D> {
        Point::new(std::array::from_fn(|_| rng.f64()))
    }

    /// A leaf of objects or an internal node of children, `len` entries,
    /// about one in eight a geometric copy of its predecessor (ties).
    fn random_node<const D: usize>(rng: &mut Rng, leaf: bool, len: usize) -> DecodedNode<D> {
        let mut entries: Vec<Entry<D>> = Vec::with_capacity(len);
        for i in 0..len {
            let e = match entries.last() {
                Some(&prev) if rng.chance(0.125) => prev,
                _ if leaf => Entry::Object(ObjectEntry {
                    oid: 0,
                    point: random_point(rng),
                }),
                _ => Entry::Node(NodeEntry {
                    page: 0,
                    count: 10,
                    mbr: random_mbr(rng),
                }),
            };
            entries.push(match e {
                Entry::Object(o) => Entry::Object(ObjectEntry { oid: i as u64, ..o }),
                Entry::Node(n) => Entry::Node(NodeEntry {
                    page: i as PageId,
                    ..n
                }),
            });
        }
        let mut node = Node {
            is_leaf: leaf,
            aux: 0,
            mbr: Mbr::empty(),
            entries,
        };
        node.recompute_mbr();
        DecodedNode::new(node)
    }

    /// One scalar `Distances` probe per entry behind the threshold test
    /// (`mba::probe` without its early exit); returns the entries whose
    /// MIND passed.
    fn scalar_scan<const D: usize>(
        owner: &Entry<D>,
        node: &DecodedNode<D>,
        lpq: &mut Lpq<D>,
        stats: &mut AnnStats,
    ) -> u64 {
        let mut passed = 0;
        for e in &node.entries {
            stats.distance_computations += 1;
            let (mind_sq, maxd_sq) = distances::<D, NxnDist>(owner, e);
            if mind_sq > lpq.prune_threshold_sq() {
                stats.pruned_on_probe += 1;
                continue;
            }
            passed += 1;
            let (accepted, filtered) = lpq.try_enqueue(QueuedEntry {
                mind_sq,
                maxd_sq,
                entry: *e,
            });
            stats.pruned_in_queue += filtered;
            if accepted {
                stats.enqueued += 1;
            } else {
                stats.pruned_on_probe += 1;
            }
        }
        passed
    }

    fn drain<const D: usize>(mut lpq: Lpq<D>) -> Vec<(u64, u64, Entry<D>)> {
        std::iter::from_fn(|| lpq.dequeue())
            .map(|q| (q.mind_sq.to_bits(), q.maxd_sq.to_bits(), q.entry))
            .collect()
    }

    /// The queue's `(enqueued, filtered, high-water)` lifetime tallies.
    fn tallies<const D: usize>(lpq: &Lpq<D>) -> (u64, u64, u32) {
        (lpq.enqueued_total(), lpq.filtered_total(), lpq.high_water())
    }

    /// Returns `(entries whose MIND passed, entries rejected)` over the
    /// lazily scored scans, for the caller's coverage check.
    fn check_dims<const D: usize>(seed: u64) -> (u64, u64) {
        let mut scratch = QueryScratch::<D>::new();
        let mut scan = NodeScan::checkout(&mut scratch);
        let mut rng = Rng::new(seed);
        let (mut lazy_passed, mut lazy_rejected) = (0, 0);
        for len in [1, 2, 15, 16, 17, 31, 32, 33, 40, 125, 500] {
            for leaf in [false, true] {
                let node = random_node::<D>(&mut rng, leaf, len);
                for object_owner in [false, true] {
                    let owner = if object_owner {
                        Entry::Object(ObjectEntry {
                            oid: 1 << 40,
                            point: random_point(&mut rng),
                        })
                    } else {
                        Entry::Node(NodeEntry {
                            page: 1 << 20,
                            count: 10,
                            mbr: random_mbr(&mut rng),
                        })
                    };
                    // Seed bounds below, inside and above the node's
                    // MIND spread, so entries both pass and fail.
                    let mut minds: Vec<f64> = node
                        .entries
                        .iter()
                        .map(|e| distances::<D, NxnDist>(&owner, e).0)
                        .collect();
                    minds.sort_by(f64::total_cmp);
                    let seeds = [minds[0] * 0.5, minds[len / 3], f64::INFINITY];
                    for k in [1, 3] {
                        for seed_bound in seeds {
                            let mut seeded = Lpq::new(owner, k, f64::INFINITY);
                            for j in 0..k as u64 {
                                seeded.try_enqueue(QueuedEntry {
                                    mind_sq: seed_bound * 0.5,
                                    maxd_sq: seed_bound,
                                    entry: Entry::Object(ObjectEntry {
                                        oid: (1 << 41) + j,
                                        point: random_point(&mut rng),
                                    }),
                                });
                            }
                            let (mut want, mut got) = (seeded.clone(), seeded);
                            let (mut want_stats, mut got_stats) =
                                (AnnStats::default(), AnnStats::default());
                            let passed = scalar_scan(&owner, &node, &mut want, &mut want_stats);
                            UPPER_CALLS.with(|c| c.set(0));
                            scan.scan::<D, CountingNxn, _>(&owner, &node, &mut got, &mut got_stats);
                            let calls = UPPER_CALLS.with(Cell::get);
                            let case = format!(
                                "D={D} len={len} leaf={leaf} object owner={object_owner} \
                                 k={k} seed bound={seed_bound}"
                            );
                            assert_eq!(got_stats, want_stats, "{case}");
                            assert_eq!(tallies(&got), tallies(&want), "{case}");
                            assert_eq!(drain(got), drain(want), "{case}");
                            if object_owner && leaf {
                                // The exact path evaluates no metric at all.
                                assert_eq!(calls, 0, "{case}");
                            } else {
                                assert_eq!(calls, passed, "one metric per survivor: {case}");
                                lazy_passed += passed;
                                lazy_rejected += len as u64 - passed;
                            }
                        }
                    }
                }
            }
        }
        scan.release(&mut scratch);
        (lazy_passed, lazy_rejected)
    }

    #[test]
    fn scan_is_decision_identical_and_metric_lazy() {
        for (passed, rejected) in [check_dims::<2>(0x5CA2), check_dims::<10>(0x5CAA)] {
            assert!(
                passed > 0 && rejected > 0,
                "{passed} passed, {rejected} rejected"
            );
        }
    }
}
