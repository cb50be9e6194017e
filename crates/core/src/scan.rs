//! The node scan shared by MBA's probe, kNN and MNN: score every entry of
//! a decoded `I_S` node against one owner, then replay the accept/reject
//! decisions sequentially under the evolving bound.
//!
//! Scores are bit-identical to the scalar `Distances` procedure
//! ([`ann_geom::kernels`]' contract) and the replay reads the queue's
//! threshold before each offer, exactly as a sequence of scalar probes
//! would — so queue contents, tie-breaks and every [`AnnStats`] counter
//! match the one-entry-at-a-time traversal.
//!
//! # The exact point×leaf path
//!
//! When the owner is a data object and the node is a leaf, both sides of
//! every pair are points, and between two points `MAXD ≡ MIND ≡ dist_sq`
//! *bit for bit* under either pruning metric (pinned by
//! `ann-geom`'s `point_pair_metrics_equal_dist_sq_bitwise`). The scan
//! therefore runs [`kernels::dist_sq_batch`] once and uses the value for
//! both fields — no NXNDIST / MAXMAXDIST evaluation where it can prune
//! nothing.
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

use crate::index::SpatialIndex;
use crate::lpq::{BoundTracker, Lpq, QueuedEntry};
use crate::node::{DecodedNode, Entry, NodeEntry};
use crate::scratch::{BestFirstItem, QueryScratch};
use crate::stats::AnnStats;
use ann_geom::{kernels, min_min_dist_sq, min_min_dist_sq_within, Mbr, Point, PruneMetric};
use ann_store::PageId;
use std::collections::BinaryHeap;

/// Where a node scan delivers the entries that survive the probe test.
pub(crate) trait CandidateQueue<const D: usize> {
    /// Entries with `MIND²` above this are rejected without an offer.
    fn prune_threshold_sq(&self) -> f64;

    /// Queues `e`; returns `(accepted, evicted by the Filter stage)`.
    fn offer(&mut self, e: QueuedEntry<D>) -> (bool, u64);
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
}

/// The frontier of one best-first (Hjaltason–Samet) descent — kNN and
/// MNN: a `MIND`-ordered heap plus the pruning bound its offers back.
/// Nothing is ever evicted; stale entries are cut off at pop time.
pub(crate) struct BestFirst<const D: usize> {
    pub(crate) bound: BoundTracker,
    pub(crate) heap: BinaryHeap<BestFirstItem<D>>,
}

impl<const D: usize> BestFirst<D> {
    /// A frontier seeking the `k` nearest neighbors of `query` in `index`,
    /// holding `index`'s root entry; `heap` is (recycled) empty storage.
    pub(crate) fn seeded<M: PruneMetric, I: SpatialIndex<D>>(
        index: &I,
        query: &Point<D>,
        k: usize,
        heap: BinaryHeap<BestFirstItem<D>>,
    ) -> Self {
        let mut front = BestFirst {
            bound: BoundTracker::new(k, f64::INFINITY),
            heap,
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
    maxd: Vec<f64>,
    /// Child pages the replay just committed to visit, handed to the
    /// `I_S` pool's prefetcher after the loop.
    hints: Vec<(PageId, u32)>,
}

impl NodeScan {
    pub(crate) fn checkout<const D: usize>(scratch: &mut QueryScratch<D>) -> Self {
        NodeScan {
            mind: scratch.take_f64(),
            maxd: scratch.take_f64(),
            hints: scratch.take_hints(),
        }
    }

    pub(crate) fn release<const D: usize>(self, scratch: &mut QueryScratch<D>) {
        scratch.put_f64(self.mind);
        scratch.put_f64(self.maxd);
        scratch.put_hints(self.hints);
    }

    /// Probes every entry of `node` (read from `index`) against `queue` on
    /// behalf of `owner`, tallying into `stats` what one scalar probe per
    /// entry would have tallied.
    pub(crate) fn scan<const D: usize, M, I, Q>(
        &mut self,
        index: &I,
        owner: &Entry<D>,
        node: &DecodedNode<D>,
        queue: &mut Q,
        stats: &mut AnnStats,
    ) where
        M: PruneMetric,
        I: SpatialIndex<D>,
        Q: CandidateQueue<D>,
    {
        let NodeScan { mind, maxd, hints } = self;
        let exact = match (owner, node.leaf_points()) {
            (Entry::Object(o), Some(points)) => {
                let len = points.len as u64;
                let om = Mbr::from_point(&o.point);
                if min_min_dist_sq_within(&om, &node.mbr, queue.prune_threshold_sq()).is_none() {
                    stats.distance_computations += len;
                    stats.pruned_on_probe += len;
                    return;
                }
                kernels::dist_sq_batch(&o.point, &points, mind);
                true
            }
            _ => {
                let om = owner.mbr();
                let cols = node.soa_mbrs();
                kernels::min_min_dist_sq_batch(&om, &cols, mind);
                M::upper_sq_batch(&om, &cols, maxd);
                false
            }
        };
        let mind: &[f64] = mind;
        let maxd: &[f64] = if exact { mind } else { maxd };
        // Hint collection reads no traversal state and mutates none —
        // decisions and counters are identical with readahead on or off.
        let hinting = index.pool().prefetch_enabled();
        for (i, e) in node.entries.iter().enumerate() {
            stats.distance_computations += 1;
            if mind[i] > queue.prune_threshold_sq() {
                stats.pruned_on_probe += 1;
                continue;
            }
            let (accepted, filtered) = queue.offer(QueuedEntry {
                mind_sq: mind[i],
                maxd_sq: maxd[i],
                entry: *e,
            });
            stats.pruned_in_queue += filtered;
            if !accepted {
                stats.pruned_on_probe += 1;
                continue;
            }
            stats.enqueued += 1;
            if hinting {
                if let Entry::Node(n) = e {
                    // First touch only: a node-cached page is served
                    // without a pool read, so hinting it would be pure
                    // wasted disk I/O.
                    if !index.node_is_cached(n.page) {
                        hints.push((n.page, crate::readahead::depth_priority(n.count)));
                    }
                }
            }
        }
        crate::readahead::submit(index.pool(), hints);
    }
}
