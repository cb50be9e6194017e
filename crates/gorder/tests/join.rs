//! End-to-end correctness of the GORDER join against brute force.

use ann_core::brute::brute_force_aknn;
use ann_core::stats::NeighborPair;
use ann_datagen::Rng;
use ann_geom::Point;
use ann_gorder::{gorder_join, GorderConfig};
use ann_store::{BufferPool, MemDisk};
use std::sync::Arc;

fn pool(frames: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(MemDisk::new(), frames))
}

fn random_points<const D: usize>(n: usize, seed: u64) -> Vec<(u64, Point<D>)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = rng.range_f64(0.0, 100.0);
            }
            (i as u64, Point::new(c))
        })
        .collect()
}

fn check<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    cfg: &GorderConfig,
    label: &str,
) {
    let truth = {
        let mut t = brute_force_aknn(r, s, cfg.k, cfg.exclude_self);
        t.sort_by(|a, b| {
            (a.r_oid, a.dist, a.s_oid)
                .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
                .unwrap()
        });
        t
    };
    let mut out = gorder_join(r, s, pool(128), cfg).unwrap();
    out.sort();
    assert_eq!(out.results.len(), truth.len(), "{label}: count");
    for (g, t) in out.results.iter().zip(&truth) {
        assert_eq!(g.r_oid, t.r_oid, "{label}: query order");
        assert_eq!(g.s_oid, t.s_oid, "{label}: r#{} neighbor id", g.r_oid);
        // Distances are computed in PCA space, so they may differ from
        // brute force in the last ulp.
        assert!(
            (g.dist - t.dist).abs() <= 1e-9 * (1.0 + t.dist),
            "{label}: r#{} got {} want {}",
            g.r_oid,
            g.dist,
            t.dist
        );
    }
}

#[test]
fn matches_brute_force_2d() {
    let r = random_points::<2>(700, 11);
    let s = random_points::<2>(800, 22);
    check(&r, &s, &GorderConfig::default(), "2d k=1");
}

#[test]
fn matches_brute_force_k5() {
    let r = random_points::<2>(300, 33);
    let s = random_points::<2>(350, 44);
    let cfg = GorderConfig {
        k: 5,
        ..Default::default()
    };
    check(&r, &s, &cfg, "2d k=5");
}

#[test]
fn matches_brute_force_10d_correlated() {
    // The FC-like data is GORDER's best case (PCA concentrates variance).
    let r = ann_datagen::fc_like(400, 1);
    let s = ann_datagen::fc_like(450, 2);
    check(&r, &s, &GorderConfig::default(), "10d");
}

#[test]
fn self_join_with_exclusion() {
    let pts = random_points::<2>(400, 55);
    let cfg = GorderConfig {
        k: 2,
        exclude_self: true,
        ..Default::default()
    };
    check(&pts, &pts, &cfg, "self-join");
}

#[test]
fn block_sizes_do_not_change_results() {
    let r = random_points::<3>(300, 66);
    let s = random_points::<3>(300, 77);
    let reference: Vec<NeighborPair> = {
        let mut out = gorder_join(&r, &s, pool(128), &GorderConfig::default()).unwrap();
        out.sort();
        out.results
    };
    for (rp, sp) in [(1usize, 1usize), (2, 8), (16, 4)] {
        let cfg = GorderConfig {
            r_block_pages: rp,
            s_block_pages: sp,
            ..Default::default()
        };
        let mut out = gorder_join(&r, &s, pool(128), &cfg).unwrap();
        out.sort();
        assert_eq!(out.results.len(), reference.len());
        for (a, b) in out.results.iter().zip(&reference) {
            assert_eq!(a.r_oid, b.r_oid);
            assert!((a.dist - b.dist).abs() < 1e-9);
        }
    }
}

#[test]
fn grid_granularity_does_not_change_results() {
    let r = random_points::<2>(300, 88);
    let s = random_points::<2>(300, 99);
    for segments in [2, 16, 256] {
        let cfg = GorderConfig {
            segments_per_dim: segments,
            ..Default::default()
        };
        check(&r, &s, &cfg, &format!("segments={segments}"));
    }
}

#[test]
fn empty_inputs() {
    let pts = random_points::<2>(50, 1);
    let out = gorder_join::<2>(&[], &pts, pool(16), &GorderConfig::default()).unwrap();
    assert!(out.results.is_empty());
    let out = gorder_join::<2>(&pts, &[], pool(16), &GorderConfig::default()).unwrap();
    assert!(out.results.is_empty());
}

#[test]
fn schedule_prunes_far_blocks() {
    // Two well separated clusters: the join of the left cluster must not
    // scan every block of the right cluster.
    let mut rng = Rng::new(7);
    let mut pts: Vec<(u64, Point<2>)> = vec![];
    for i in 0..2000u64 {
        let base = if i % 2 == 0 { 0.0 } else { 1000.0 };
        pts.push((i, Point::new([base + rng.f64(), rng.f64()])));
    }
    let p = pool(256);
    // One-page blocks so each cluster spans several blocks (a 2-D record
    // is 24 bytes, ~340 per page).
    let cfg = GorderConfig {
        r_block_pages: 1,
        s_block_pages: 1,
        ..Default::default()
    };
    let out = gorder_join(&pts, &pts, p, &cfg).unwrap();
    assert_eq!(out.results.len(), 2000);
    // Within-cluster work is inherently ~2 * 1000^2 = 2M pair distances;
    // the scheduled block pruning must eliminate essentially all of the
    // ~2M cross-cluster pairs.
    assert!(
        out.stats.distance_computations < 2_500_000,
        "block pruning failed: {} computations",
        out.stats.distance_computations
    );
}

/// Two coincident `S` points given in descending oid order: the smaller
/// oid wins the tie, as in brute force, whichever is scanned first.
#[test]
fn coincident_candidates_resolve_to_smallest_oid() {
    let r = [(0, Point::new([0.0, 0.0]))];
    let s = [(9, Point::new([1.0, 1.0])), (3, Point::new([1.0, 1.0]))];
    for k in [1, 2] {
        for exclude_self in [false, true] {
            let cfg = GorderConfig {
                k,
                exclude_self,
                ..Default::default()
            };
            check(&r, &s, &cfg, &format!("k={k} exclude_self={exclude_self}"));
        }
    }
}

/// `k` beyond `|S|` returns every candidate, and at `k = usize::MAX` the
/// self-join's extra room must not overflow or size an allocation.
#[test]
fn huge_k_returns_every_candidate() {
    let pts = random_points::<2>(50, 3);
    for exclude_self in [false, true] {
        let cfg = GorderConfig {
            k: usize::MAX,
            exclude_self,
            ..Default::default()
        };
        check(&pts, &pts, &cfg, "k = usize::MAX");
        let out = gorder_join(&pts, &pts, pool(16), &cfg).unwrap();
        let per_point = if exclude_self { 49 } else { 50 };
        assert_eq!(out.results.len(), 50 * per_point);
    }
}

#[test]
fn k_zero_returns_empty() {
    let pts = random_points::<2>(50, 2);
    for exclude_self in [false, true] {
        let cfg = GorderConfig {
            k: 0,
            exclude_self,
            ..Default::default()
        };
        let out = gorder_join(&pts, &pts, pool(16), &cfg).unwrap();
        assert!(out.results.is_empty());
    }
}

/// The join's work and I/O on one seeded self-join, pinned: changing how
/// a point keeps its k best must not move a distance test or a page read.
#[test]
fn counters_are_pinned_on_one_seeded_input() {
    let pts = ann_datagen::fc_like(1200, 31);
    let cfg = GorderConfig {
        k: 5,
        exclude_self: true,
        ..Default::default()
    };
    let out = gorder_join(&pts, &pts, pool(16), &cfg).unwrap();
    assert_eq!(
        (out.stats.distance_computations, out.stats.io.physical_reads),
        (655_542, 24)
    );
}

#[test]
fn io_is_charged() {
    let r = random_points::<2>(2000, 111);
    let s = random_points::<2>(2000, 222);
    let p = pool(8); // tiny pool forces physical I/O
    let out = gorder_join(&r, &s, p, &GorderConfig::default()).unwrap();
    assert!(out.stats.io.logical_reads > 0);
    assert!(out.stats.io.physical_reads > 0);
    assert!(
        out.stats.io.physical_writes > 0,
        "sorted blocks are written"
    );
}
