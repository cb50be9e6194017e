//! Property-based tests of the LPQ / BoundTracker machinery — the pruning
//! data structures the whole MBA algorithm rests on.

use ann_core::lpq::{BoundTracker, Lpq, QueuedEntry};
use ann_core::node::{Entry, NodeEntry, ObjectEntry};
use ann_datagen::{for_each_case, Rng};
use ann_geom::{Mbr, Point};

fn obj_entry(oid: u64) -> Entry<2> {
    Entry::Object(ObjectEntry {
        oid,
        point: Point::new([0.0, 0.0]),
    })
}

fn owner() -> Entry<2> {
    Entry::Node(NodeEntry {
        page: 0,
        count: 1,
        mbr: Mbr::new([0.0, 0.0], [1.0, 1.0]),
    })
}

/// A queued entry with mind <= maxd, as geometry guarantees.
fn qe(oid: u64, mind: f64, slack: f64) -> QueuedEntry<2> {
    QueuedEntry {
        mind_sq: mind,
        maxd_sq: mind + slack,
        entry: obj_entry(oid),
    }
}

/// Cases per property.
const CASES: usize = 256;

/// `(mind, slack)` pairs: `mind` in `[0, 100)`, `slack` in `[0, max_slack)`.
fn entries(rng: &mut Rng, max_slack: f64) -> Vec<(f64, f64)> {
    (0..rng.range(1, 60))
        .map(|_| (rng.range_f64(0.0, 100.0), rng.range_f64(0.0, max_slack)))
        .collect()
}

/// Between `min_len` and 39 offers in `[0, 100)`.
fn offers(rng: &mut Rng, min_len: usize) -> Vec<f64> {
    (0..rng.range(min_len, 40))
        .map(|_| rng.range_f64(0.0, 100.0))
        .collect()
}

/// Dequeue order is always ascending MIND, whatever the insert order.
#[test]
fn dequeue_is_sorted() {
    for_each_case(0x1b01, CASES, |rng| {
        let entries = entries(rng, 100.0);
        let mut lpq = Lpq::new(owner(), 1, f64::INFINITY);
        for (i, (mind, slack)) in entries.iter().enumerate() {
            lpq.try_enqueue(qe(i as u64, *mind, *slack));
        }
        let mut last = f64::NEG_INFINITY;
        while let Some(e) = lpq.dequeue() {
            assert!(e.mind_sq >= last);
            last = e.mind_sq;
        }
    });
}

/// Every entry surviving in the queue respects the bound, and the
/// bound equals the minimum MAXD that was ever accepted (k = 1,
/// no inherited bound).
#[test]
fn k1_bound_is_min_accepted_maxd() {
    for_each_case(0x1b02, CASES, |rng| {
        let entries = entries(rng, 100.0);
        let mut lpq = Lpq::new(owner(), 1, f64::INFINITY);
        let mut min_accepted: f64 = f64::INFINITY;
        for (i, (mind, slack)) in entries.iter().enumerate() {
            let e = qe(i as u64, *mind, *slack);
            let (accepted, _) = lpq.try_enqueue(e);
            if accepted {
                min_accepted = min_accepted.min(e.maxd_sq);
            }
        }
        assert_eq!(lpq.bound_sq(), min_accepted);
        let bound = lpq.bound_sq() * (1.0 + 1e-12);
        while let Some(e) = lpq.dequeue() {
            assert!(e.mind_sq <= bound);
        }
    });
}

/// The Filter stage never drops an entry whose MIND is within the
/// final bound — i.e. filtering is exactly the tail truncation.
#[test]
fn filter_only_drops_beyond_bound() {
    for_each_case(0x1b03, CASES, |rng| {
        let entries = entries(rng, 20.0);
        let mut lpq = Lpq::new(owner(), 1, f64::INFINITY);
        let mut accepted: Vec<QueuedEntry<2>> = vec![];
        for (i, (mind, slack)) in entries.iter().enumerate() {
            let e = qe(i as u64, *mind, *slack);
            let (acc, _) = lpq.try_enqueue(e);
            if acc {
                accepted.push(e);
            }
        }
        let bound = lpq.bound_sq() * (1.0 + 1e-12);
        let surviving: Vec<u64> = std::iter::from_fn(|| lpq.dequeue())
            .filter_map(|e| match e.entry {
                Entry::Object(o) => Some(o.oid),
                _ => None,
            })
            .collect();
        // Everything accepted whose mind is within the final bound must
        // still be present.
        for e in &accepted {
            let Entry::Object(o) = e.entry else {
                unreachable!()
            };
            if e.mind_sq <= bound {
                assert!(
                    surviving.contains(&o.oid),
                    "entry {} (mind {}) missing though within bound {}",
                    o.oid,
                    e.mind_sq,
                    bound
                );
            }
        }
    });
}

/// BoundTracker with k entries: the bound is never below the true
/// k-th smallest live offer and never above the inherited bound… and
/// satisfy_one only ever tightens or keeps it.
#[test]
fn tracker_bound_is_kth_smallest_live() {
    for_each_case(0x1b04, CASES, |rng| {
        let offers = offers(rng, 1);
        let k = rng.range(2, 6);
        let mut t = BoundTracker::new(k, f64::INFINITY);
        for &o in &offers {
            t.offer(o);
        }
        let mut sorted = offers.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        if offers.len() >= k {
            assert_eq!(t.bound_sq(), sorted[k - 1]);
        } else {
            assert_eq!(t.bound_sq(), f64::INFINITY);
        }
        // Removing the largest live offer can only tighten or keep the
        // k-th smallest of the rest… recompute and compare.
        if offers.len() > k {
            let largest = *sorted.last().unwrap();
            t.remove(largest);
            assert_eq!(t.bound_sq(), sorted[k - 1]);
        }
    });
}

/// satisfy_one monotonically tightens the tracker's bound.
#[test]
fn satisfy_one_never_loosens() {
    for_each_case(0x1b05, CASES, |rng| {
        let offers = offers(rng, 4);
        let mut t = BoundTracker::new(4, f64::INFINITY);
        for &o in &offers {
            t.offer(o);
        }
        let mut prev = t.bound_sq();
        for _ in 0..4 {
            t.satisfy_one();
            let now = t.bound_sq();
            assert!(now <= prev);
            prev = now;
        }
    });
}

/// An inherited bound caps the tracker regardless of offers.
#[test]
fn inherited_bound_caps() {
    for_each_case(0x1b06, CASES, |rng| {
        let offers = offers(rng, 0);
        let inherited = rng.range_f64(0.0, 50.0);
        let mut t = BoundTracker::new(1, inherited);
        for &o in &offers {
            t.offer(o);
        }
        assert!(t.bound_sq() <= inherited);
    });
}
