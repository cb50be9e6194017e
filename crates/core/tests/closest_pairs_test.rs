//! Tests for the k-closest-pairs distance join against brute force.

use ann_core::closest_pairs::{closest_pairs, ClosestPairsConfig};
use ann_datagen::Rng;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, MemDisk};
use std::sync::Arc;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(MemDisk::new(), 256))
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

/// Brute-force k closest pairs (distances only — ties may swap ids).
fn brute<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    k: usize,
    exclude_self: bool,
) -> Vec<f64> {
    let mut dists: Vec<f64> = r
        .iter()
        .flat_map(|(ro, rp)| {
            s.iter().filter_map(move |(so, sp)| {
                if exclude_self && ro == so {
                    None
                } else {
                    Some(rp.dist(sp))
                }
            })
        })
        .collect();
    dists.sort_by(|a, b| a.partial_cmp(b).unwrap());
    dists.truncate(k);
    dists
}

fn check<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    k: usize,
    exclude_self: bool,
) {
    let want = brute(r, s, k, exclude_self);
    let p = pool();
    let ir = Mbrqt::bulk_build(
        p.clone(),
        r,
        &MbrqtConfig {
            bucket_capacity: 16,
            ..Default::default()
        },
    )
    .unwrap();
    let is = RStar::bulk_build(
        p,
        s,
        &RStarConfig {
            max_leaf_entries: 16,
            max_internal_entries: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let cfg = ClosestPairsConfig { k, exclude_self };
    let out = closest_pairs(&ir, &is, &cfg).unwrap();
    assert_eq!(out.results.len(), want.len(), "k={k}");
    for (got, want) in out.results.iter().zip(&want) {
        assert!(
            (got.dist - want).abs() < 1e-9,
            "k={k}: got {} want {}",
            got.dist,
            want
        );
    }
    // Ascending order.
    for w in out.results.windows(2) {
        assert!(w[0].dist <= w[1].dist);
    }
}

#[test]
fn matches_brute_force_various_k() {
    let r = random_points::<2>(500, 51);
    let s = random_points::<2>(600, 52);
    for k in [1usize, 2, 10, 50] {
        check(&r, &s, k, false);
    }
}

#[test]
fn three_d_and_mixed_indices() {
    let r = random_points::<3>(400, 53);
    let s = random_points::<3>(400, 54);
    check(&r, &s, 5, false);
}

#[test]
fn self_join_without_exclusion_finds_zero_distances() {
    let pts = random_points::<2>(300, 55);
    let want = brute(&pts, &pts, 3, false);
    assert!(want.iter().all(|&d| d == 0.0), "self pairs dominate");
    check(&pts, &pts, 3, false);
}

#[test]
fn self_join_with_exclusion() {
    let pts = random_points::<2>(300, 56);
    // Both orientations of the closest distinct pair appear.
    check(&pts, &pts, 2, true);
    check(&pts, &pts, 11, true);
}

#[test]
fn known_configuration() {
    // A tiny hand-built instance: closest pair is (1, 10) at distance 1.
    let r = vec![
        (0u64, Point::new([0.0, 0.0])),
        (1u64, Point::new([10.0, 0.0])),
    ];
    let s = vec![
        (10u64, Point::new([11.0, 0.0])),
        (11u64, Point::new([50.0, 50.0])),
    ];
    let p = pool();
    let ir = Mbrqt::bulk_build(p.clone(), &r, &MbrqtConfig::default()).unwrap();
    let is = Mbrqt::bulk_build(p, &s, &MbrqtConfig::default()).unwrap();
    let out = closest_pairs(&ir, &is, &ClosestPairsConfig::default()).unwrap();
    assert_eq!(out.results.len(), 1);
    assert_eq!(out.results[0].r_oid, 1);
    assert_eq!(out.results[0].s_oid, 10);
    assert_eq!(out.results[0].dist, 1.0);
}

#[test]
fn k_exceeding_pair_count() {
    let r = random_points::<2>(3, 57);
    let s = random_points::<2>(4, 58);
    check(&r, &s, 100, false);
}

#[test]
fn empty_inputs() {
    let p = pool();
    let empty = Mbrqt::<2>::bulk_build(p.clone(), &[], &MbrqtConfig::default()).unwrap();
    let some = Mbrqt::bulk_build(p, &random_points::<2>(10, 59), &MbrqtConfig::default()).unwrap();
    let out = closest_pairs(&empty, &some, &ClosestPairsConfig::default()).unwrap();
    assert!(out.results.is_empty());
}
