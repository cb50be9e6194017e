//! Tests for the standalone kNN / range query primitives.

use ann_core::knn::{knn, within_radius};
use ann_datagen::Rng;
use ann_geom::{MaxMaxDist, NxnDist, Point};
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

fn brute_knn<const D: usize>(pts: &[(u64, Point<D>)], q: &Point<D>, k: usize) -> Vec<(u64, f64)> {
    let mut v: Vec<(u64, f64)> = pts.iter().map(|(o, p)| (*o, p.dist(q))).collect();
    v.sort_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).unwrap());
    v.truncate(k);
    v
}

#[test]
fn knn_matches_brute_force_on_both_indices() {
    let pts = random_points::<2>(3000, 31);
    let p = pool();
    let qt = Mbrqt::bulk_build(
        p.clone(),
        &pts,
        &MbrqtConfig {
            bucket_capacity: 32,
            ..Default::default()
        },
    )
    .unwrap();
    let rs = RStar::bulk_build(
        p,
        &pts,
        &RStarConfig {
            max_leaf_entries: 32,
            max_internal_entries: 16,
            ..Default::default()
        },
    )
    .unwrap();
    let mut rng = Rng::new(1);
    for _ in 0..50 {
        let q = Point::new([rng.range_f64(-10.0, 110.0), rng.range_f64(-10.0, 110.0)]);
        for k in [1usize, 7] {
            let want = brute_knn(&pts, &q, k);
            for got in [
                knn::<2, NxnDist, _>(&qt, &q, k).unwrap(),
                knn::<2, MaxMaxDist, _>(&qt, &q, k).unwrap(),
                knn::<2, NxnDist, _>(&rs, &q, k).unwrap(),
            ] {
                assert_eq!(got.len(), k);
                for (g, w) in got.iter().zip(&want) {
                    assert!((g.1 - w.1).abs() < 1e-9, "dist mismatch: {g:?} vs {w:?}");
                }
            }
        }
    }
}

#[test]
fn knn_results_are_sorted_ascending() {
    let pts = random_points::<3>(1000, 33);
    let tree = Mbrqt::bulk_build(pool(), &pts, &MbrqtConfig::default()).unwrap();
    let got = knn::<3, NxnDist, _>(&tree, &Point::new([50.0, 50.0, 50.0]), 20).unwrap();
    assert_eq!(got.len(), 20);
    for w in got.windows(2) {
        assert!(w[0].1 <= w[1].1);
    }
}

#[test]
fn knn_with_k_exceeding_cardinality() {
    let pts = random_points::<2>(5, 35);
    let tree = Mbrqt::bulk_build(pool(), &pts, &MbrqtConfig::default()).unwrap();
    let got = knn::<2, NxnDist, _>(&tree, &Point::new([0.0, 0.0]), 100).unwrap();
    assert_eq!(got.len(), 5);
}

#[test]
fn knn_on_empty_index() {
    let tree = Mbrqt::<2>::bulk_build(pool(), &[], &MbrqtConfig::default()).unwrap();
    assert!(knn::<2, NxnDist, _>(&tree, &Point::new([0.0, 0.0]), 3)
        .unwrap()
        .is_empty());
}

#[test]
fn within_radius_matches_filtered_brute_force() {
    let pts = random_points::<2>(2000, 37);
    let tree = Mbrqt::bulk_build(pool(), &pts, &MbrqtConfig::default()).unwrap();
    let q = Point::new([42.0, 58.0]);
    for radius in [0.0, 3.0, 25.0] {
        let got = within_radius(&tree, &q, radius).unwrap();
        let mut want: Vec<(u64, f64)> = pts
            .iter()
            .map(|(o, p)| (*o, p.dist(&q)))
            .filter(|(_, d)| *d <= radius)
            .collect();
        want.sort_by(|a, b| (a.1, a.0).partial_cmp(&(b.1, b.0)).unwrap());
        assert_eq!(got.len(), want.len(), "radius {radius}");
        for (g, w) in got.iter().zip(&want) {
            assert_eq!(g.0, w.0);
        }
    }
}

#[test]
fn within_radius_boundary_is_inclusive() {
    let pts = vec![(0u64, Point::new([3.0, 4.0]))];
    let tree = Mbrqt::bulk_build(pool(), &pts, &MbrqtConfig::default()).unwrap();
    let got = within_radius(&tree, &Point::new([0.0, 0.0]), 5.0).unwrap();
    assert_eq!(got.len(), 1);
}
