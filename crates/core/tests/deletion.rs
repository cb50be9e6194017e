//! Deletion tests for both indices: structural invariants hold after
//! arbitrary delete sequences, and queries over the remainder stay exact.

use ann_core::brute::brute_force_aknn;
use ann_core::index::{collect_objects, validate};
use ann_core::query::{Algorithm, AnnRequest, Input};
use ann_core::{Entry, SpatialIndex};
use ann_datagen::Rng;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, MemDisk};
use std::sync::Arc;

fn pool() -> Arc<BufferPool> {
    Arc::new(BufferPool::new(MemDisk::new(), 256))
}

fn random_points(n: usize, seed: u64) -> Vec<(u64, Point<2>)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            (
                i as u64,
                Point::new([rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)]),
            )
        })
        .collect()
}

/// Every leaf's own MBR — read the way the traversals read it, through the
/// node cache — contains each point the leaf stores. The point×leaf scan
/// rejects a whole leaf on `MINMINDIST(point, leaf MBR)` (DESIGN.md §11),
/// which is only counter-identical to probing the points one by one while
/// this holds, after any mix of inserts and deletes.
fn assert_leaf_mbrs_contain_their_points<I: SpatialIndex<2>>(tree: &I) {
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node_cached(page).unwrap();
        for e in &node.entries {
            match e {
                Entry::Node(n) => stack.push(n.page),
                Entry::Object(o) => assert!(
                    node.mbr.contains_point(&o.point),
                    "page {page}: {:?} outside leaf MBR {:?}",
                    o.point,
                    node.mbr
                ),
            }
        }
    }
}

#[test]
fn rstar_delete_half_keeps_tree_valid() {
    let pts = random_points(2000, 61);
    let mut tree = RStar::bulk_build(
        pool(),
        &pts,
        &RStarConfig {
            max_leaf_entries: 16,
            max_internal_entries: 8,
            ..Default::default()
        },
    )
    .unwrap();
    let mut order = pts.clone();
    Rng::new(1).shuffle(&mut order);
    for (i, (oid, p)) in order.iter().take(1000).enumerate() {
        assert!(tree.delete(*oid, p).unwrap(), "delete #{i} (oid {oid})");
        if i % 250 == 249 {
            let shape = validate(&tree).unwrap();
            assert_eq!(shape.objects, 2000 - i as u64 - 1);
        }
    }
    assert_eq!(tree.num_points(), 1000);
    validate(&tree).unwrap();
    assert_leaf_mbrs_contain_their_points(&tree);

    // Remaining objects are exactly the undeleted ones.
    let mut got: Vec<u64> = collect_objects(&tree)
        .unwrap()
        .iter()
        .map(|(o, _)| *o)
        .collect();
    got.sort_unstable();
    let mut want: Vec<u64> = order.iter().skip(1000).map(|(o, _)| *o).collect();
    want.sort_unstable();
    assert_eq!(got, want);
}

#[test]
fn mbrqt_delete_half_keeps_tree_valid() {
    let pts = random_points(2000, 62);
    let universe = ann_geom::Mbr::new([0.0, 0.0], [100.0, 100.0]);
    let mut tree = Mbrqt::create(
        pool(),
        universe,
        &MbrqtConfig {
            bucket_capacity: 16,
            ..Default::default()
        },
    )
    .unwrap();
    for &(oid, p) in &pts {
        tree.insert(oid, p).unwrap();
    }
    assert_leaf_mbrs_contain_their_points(&tree);
    let mut order = pts.clone();
    Rng::new(2).shuffle(&mut order);
    for (i, (oid, p)) in order.iter().take(1500).enumerate() {
        assert!(tree.delete(*oid, p).unwrap(), "delete #{i}");
        if i % 300 == 299 {
            let shape = validate(&tree).unwrap();
            assert_eq!(shape.objects, 2000 - i as u64 - 1);
        }
    }
    assert_eq!(tree.num_points(), 500);
    // Collapse should have shrunk the tree considerably.
    let shape = validate(&tree).unwrap();
    assert_eq!(shape.objects, 500);
    assert_leaf_mbrs_contain_their_points(&tree);
}

#[test]
fn queries_stay_exact_under_churn() {
    // Interleave inserts and deletes, then check ANN against brute force
    // over the surviving set.
    let pts = random_points(1200, 63);
    let mut tree = RStar::bulk_build(pool(), &pts[..800], &RStarConfig::default()).unwrap();
    let mut live: Vec<(u64, Point<2>)> = pts[..800].to_vec();
    let mut rng = Rng::new(3);
    for &(oid, p) in &pts[800..] {
        // Insert one, delete one random existing.
        tree.insert(oid, p).unwrap();
        live.push((oid, p));
        let victim = rng.range(0, live.len());
        let (v_oid, v_p) = live.swap_remove(victim);
        assert!(tree.delete(v_oid, &v_p).unwrap());
    }
    validate(&tree).unwrap();
    assert_leaf_mbrs_contain_their_points(&tree);

    let out = AnnRequest::new(Algorithm::mba())
        .exclude_self(true)
        .run(Input::Index(&tree), Input::Index(&tree))
        .unwrap();
    let mut truth = brute_force_aknn(&live, &live, 1, true);
    truth.sort_by(|a, b| {
        (a.r_oid, a.dist, a.s_oid)
            .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
            .unwrap()
    });
    assert_eq!(out.results.len(), truth.len());
    for (g, t) in out.results.iter().zip(&truth) {
        assert_eq!(g.r_oid, t.r_oid);
        assert!((g.dist - t.dist).abs() < 1e-9);
    }
}

#[test]
fn delete_missing_returns_false() {
    let pts = random_points(100, 64);
    let mut rs = RStar::bulk_build(pool(), &pts, &RStarConfig::default()).unwrap();
    let mut qt = Mbrqt::bulk_build(pool(), &pts, &MbrqtConfig::default()).unwrap();
    // Wrong id at a real location; right id at a wrong location; both wrong.
    let (oid, p) = pts[0];
    assert!(!rs.delete(9999, &p).unwrap());
    assert!(!rs.delete(oid, &Point::new([-5.0, -5.0])).unwrap());
    assert!(!qt.delete(9999, &p).unwrap());
    assert!(
        !qt.delete(oid, &Point::new([5.0, 5.0])).unwrap() || pts[0].1 == Point::new([5.0, 5.0])
    );
    assert_eq!(rs.num_points(), 100);
    assert_eq!(qt.num_points(), 100);
}

#[test]
fn delete_everything_leaves_usable_empty_trees() {
    let pts = random_points(300, 65);
    let mut rs = RStar::bulk_build(pool(), &pts, &RStarConfig::default()).unwrap();
    let universe = ann_geom::Mbr::new([0.0, 0.0], [100.0, 100.0]);
    let mut qt = Mbrqt::create(pool(), universe, &MbrqtConfig::default()).unwrap();
    for &(oid, p) in &pts {
        qt.insert(oid, p).unwrap();
    }
    for &(oid, p) in &pts {
        assert!(rs.delete(oid, &p).unwrap());
        assert!(qt.delete(oid, &p).unwrap());
    }
    assert_eq!(rs.num_points(), 0);
    assert_eq!(qt.num_points(), 0);
    assert_eq!(validate(&rs).unwrap().objects, 0);
    assert_eq!(validate(&qt).unwrap().objects, 0);
    // Both accept fresh inserts afterwards.
    rs.insert(7, Point::new([1.0, 1.0])).unwrap();
    qt.insert(7, Point::new([1.0, 1.0])).unwrap();
    assert_eq!(collect_objects(&rs).unwrap().len(), 1);
    assert_eq!(collect_objects(&qt).unwrap().len(), 1);
}

#[test]
fn duplicate_positions_delete_by_oid() {
    // Several objects at the same position: deletion must remove exactly
    // the requested oid.
    let p = Point::new([5.0, 5.0]);
    let pts: Vec<(u64, Point<2>)> = (0..20).map(|i| (i, p)).collect();
    let mut tree = RStar::bulk_build(pool(), &pts, &RStarConfig::default()).unwrap();
    assert!(tree.delete(7, &p).unwrap());
    assert!(!tree.delete(7, &p).unwrap(), "already gone");
    let left: Vec<u64> = collect_objects(&tree)
        .unwrap()
        .iter()
        .map(|(o, _)| *o)
        .collect();
    assert_eq!(left.len(), 19);
    assert!(!left.contains(&7));
}
