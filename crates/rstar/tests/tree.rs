//! Structural tests for the R*-tree: STR bulk builds, incremental R*
//! insertion with forced reinsertion, fanout invariants, persistence.

use ann_core::index::{collect_objects, validate, SpatialIndex};
use ann_core::node::Entry;
use ann_datagen::Rng;
use ann_geom::Point;
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, MemDisk};
use std::collections::HashSet;
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
                *v = rng.range_f64(-1000.0, 1000.0);
            }
            (i as u64, Point::new(c))
        })
        .collect()
}

/// Small fanout to force deep trees in tests.
fn small_cfg() -> RStarConfig {
    RStarConfig {
        max_leaf_entries: 16,
        max_internal_entries: 8,
        ..Default::default()
    }
}

#[test]
fn bulk_build_validates_and_contains_all_points() {
    let pts = random_points::<2>(5000, 41);
    let tree = RStar::bulk_build(pool(64), &pts, &RStarConfig::default()).unwrap();
    let shape = validate(&tree).unwrap();
    assert_eq!(shape.objects, 5000);
    assert!(tree.height() >= 2);

    let got: HashSet<u64> = collect_objects(&tree)
        .unwrap()
        .iter()
        .map(|(o, _)| *o)
        .collect();
    assert_eq!(got.len(), 5000);
}

#[test]
fn incremental_insert_validates() {
    let pts = random_points::<2>(3000, 43);
    let mut tree = RStar::create(pool(64), &small_cfg()).unwrap();
    for &(oid, p) in &pts {
        tree.insert(oid, p).unwrap();
    }
    assert_eq!(tree.num_points(), 3000);
    let shape = validate(&tree).unwrap();
    assert_eq!(shape.objects, 3000);
    assert!(tree.height() >= 3, "small fanout must give a deep tree");
}

#[test]
fn fanout_bounds_hold_after_incremental_build() {
    let pts = random_points::<2>(4000, 47);
    let mut tree = RStar::create(pool(64), &small_cfg()).unwrap();
    for &(oid, p) in &pts {
        tree.insert(oid, p).unwrap();
    }
    let (max_leaf, max_internal) = tree.capacities();
    let mut stack = vec![(tree.root_page(), true)];
    while let Some((page, is_root)) = stack.pop() {
        let node = tree.read_node(page).unwrap();
        let max = if node.is_leaf { max_leaf } else { max_internal };
        assert!(node.entries.len() <= max, "node exceeds max fanout");
        if !is_root {
            let min = tree.min_entries(node.is_leaf);
            assert!(
                node.entries.len() >= min,
                "{} node underfull: {} < {}",
                if node.is_leaf { "leaf" } else { "internal" },
                node.entries.len(),
                min
            );
        }
        for e in &node.entries {
            if let Entry::Node(n) = e {
                stack.push((n.page, false));
            }
        }
    }
}

#[test]
fn reinsert_disabled_still_validates() {
    let pts = random_points::<2>(2000, 53);
    let cfg = RStarConfig {
        reinsert_percent: 0,
        ..small_cfg()
    };
    let mut tree = RStar::create(pool(64), &cfg).unwrap();
    for &(oid, p) in &pts {
        tree.insert(oid, p).unwrap();
    }
    assert_eq!(validate(&tree).unwrap().objects, 2000);
}

#[test]
fn mixed_bulk_then_incremental() {
    let pts = random_points::<2>(2000, 59);
    let (bulk_half, inc_half) = pts.split_at(1000);
    let mut tree = RStar::bulk_build(pool(64), bulk_half, &small_cfg()).unwrap();
    for &(oid, p) in inc_half {
        tree.insert(oid, p).unwrap();
    }
    assert_eq!(validate(&tree).unwrap().objects, 2000);
    let got: HashSet<u64> = collect_objects(&tree)
        .unwrap()
        .iter()
        .map(|(o, _)| *o)
        .collect();
    assert_eq!(got.len(), 2000);
}

#[test]
fn str_build_packs_efficiently() {
    // STR should use close to the minimum number of leaves.
    let pts = random_points::<2>(10_000, 61);
    let cfg = RStarConfig {
        max_leaf_entries: 100,
        max_internal_entries: 100,
        ..Default::default()
    };
    let tree = RStar::bulk_build(pool(64), &pts, &cfg).unwrap();
    let shape = validate(&tree).unwrap();
    // 10k points at 90-point fill → ~112 leaves; allow generous slack.
    assert!(shape.leaves <= 140, "too many leaves: {}", shape.leaves);
}

#[test]
fn open_round_trips_through_meta_page() {
    let pts = random_points::<4>(1500, 67);
    let pool = pool(64);
    let tree = RStar::bulk_build(pool.clone(), &pts, &RStarConfig::default()).unwrap();
    let meta = tree.meta_page();
    let (height, bounds) = (tree.height(), tree.bounds());
    drop(tree);
    let reopened: RStar<4> = RStar::open(pool, meta).unwrap();
    assert_eq!(reopened.height(), height);
    assert_eq!(reopened.bounds(), bounds);
    assert_eq!(validate(&reopened).unwrap().objects, 1500);
}

#[test]
fn wrong_dimension_open_fails() {
    let pts = random_points::<2>(100, 71);
    let pool = pool(64);
    let tree = RStar::bulk_build(pool.clone(), &pts, &RStarConfig::default()).unwrap();
    let meta = tree.meta_page();
    assert!(RStar::<3>::open(pool, meta).is_err());
}

#[test]
fn ten_dimensional_build_and_insert() {
    let pts = random_points::<10>(1200, 73);
    let mut tree = RStar::bulk_build(pool(128), &pts[..1000], &RStarConfig::default()).unwrap();
    for &(oid, p) in &pts[1000..] {
        tree.insert(oid, p).unwrap();
    }
    assert_eq!(validate(&tree).unwrap().objects, 1200);
}

#[test]
fn empty_and_tiny_trees() {
    let empty = RStar::<2>::bulk_build(pool(16), &[], &RStarConfig::default()).unwrap();
    assert_eq!(empty.num_points(), 0);
    assert_eq!(validate(&empty).unwrap().objects, 0);

    let mut one = RStar::<2>::create(pool(16), &RStarConfig::default()).unwrap();
    one.insert(9, Point::new([1.0, 2.0])).unwrap();
    assert_eq!(
        collect_objects(&one).unwrap(),
        vec![(9, Point::new([1.0, 2.0]))]
    );
}

#[test]
fn duplicate_points_are_allowed() {
    let mut tree = RStar::<2>::create(pool(32), &small_cfg()).unwrap();
    for i in 0..200 {
        tree.insert(i, Point::new([1.0, 1.0])).unwrap();
    }
    assert_eq!(validate(&tree).unwrap().objects, 200);
}

#[test]
fn rejects_non_finite_points() {
    let mut tree = RStar::<2>::create(pool(16), &RStarConfig::default()).unwrap();
    assert!(tree.insert(0, Point::new([f64::NAN, 0.0])).is_err());
    assert_eq!(tree.num_points(), 0);
}

#[test]
fn node_cache_invalidated_by_insert_and_delete() {
    let pts = random_points::<2>(1500, 31);
    let mut tree = RStar::bulk_build(pool(64), &pts, &small_cfg()).unwrap();
    let cache = tree.node_cache().expect("R*-tree keeps a node cache");

    cache.reset_stats();
    tree.read_node_cached(tree.root_page()).unwrap();
    tree.read_node_cached(tree.root_page()).unwrap();
    let s = cache.stats();
    assert_eq!(s.misses, 1);
    assert_eq!(s.hits, 1);
    let epoch_before = cache.epoch();

    // Mutations bump the epoch, so cached traversals see the new shape.
    let extra = Point::new([3.5, -8.75]);
    tree.insert(77_777, extra).unwrap();
    let cache = tree.node_cache().unwrap();
    assert_ne!(cache.epoch(), epoch_before, "insert bumps the epoch");

    let mut stack = vec![tree.root_page()];
    let mut found = false;
    while let Some(page) = stack.pop() {
        let node = tree.read_node_cached(page).unwrap();
        for e in node.entries.iter() {
            match e {
                Entry::Object(o) if o.oid == 77_777 => found = true,
                Entry::Node(n) => stack.push(n.page),
                _ => {}
            }
        }
    }
    assert!(found, "cached traversal observes the inserted point");

    let epoch_before = cache.epoch();
    assert!(tree.delete(77_777, &extra).unwrap());
    let cache = tree.node_cache().unwrap();
    assert_ne!(cache.epoch(), epoch_before, "delete bumps the epoch");
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node_cached(page).unwrap();
        for e in node.entries.iter() {
            match e {
                Entry::Object(o) => assert_ne!(o.oid, 77_777, "stale cache"),
                Entry::Node(n) => stack.push(n.page),
            }
        }
    }
    let epoch_before = cache.epoch();
    assert!(!tree.delete(424_242, &extra).unwrap());
    assert_eq!(
        tree.node_cache().unwrap().epoch(),
        epoch_before,
        "no-op delete keeps the cache"
    );
}

#[test]
fn decoded_soa_columns_round_trip_every_node() {
    // Every node of a multi-level tree: the decode-time SoA mirror must
    // gather back to exactly the entry list — bit-for-bit coordinates —
    // because the batched kernels read the columns while decisions and
    // results are still expressed against the entries.
    let pts = random_points::<3>(3000, 44);
    let tree = RStar::bulk_build(pool(64), &pts, &RStarConfig::default()).unwrap();
    let mut stack = vec![tree.root_page()];
    let mut leaves = 0;
    let mut internals = 0;
    while let Some(page) = stack.pop() {
        let node = tree.read_node_cached(page).unwrap();
        let mbrs = node.soa_mbrs();
        assert_eq!(mbrs.len, node.entries.len());
        for (i, e) in node.entries.iter().enumerate() {
            let got = mbrs.mbr::<3>(i);
            let want = e.mbr();
            assert_eq!(got.lo.map(f64::to_bits), want.lo.map(f64::to_bits));
            assert_eq!(got.hi.map(f64::to_bits), want.hi.map(f64::to_bits));
        }
        if node.is_leaf {
            leaves += 1;
            let points = node.leaf_points().expect("leaf has point columns");
            for (i, e) in node.entries.iter().enumerate() {
                let Entry::Object(o) = e else {
                    panic!("leaf holds a child")
                };
                assert_eq!(
                    points.point::<3>(i).coords().map(f64::to_bits),
                    o.point.coords().map(f64::to_bits)
                );
            }
        } else {
            internals += 1;
            assert!(node.leaf_points().is_none());
            for e in node.entries.iter() {
                let Entry::Node(n) = e else {
                    panic!("internal holds an object")
                };
                stack.push(n.page);
            }
        }
    }
    assert!(
        leaves > 1 && internals >= 1,
        "tree too small to be probative"
    );
}
