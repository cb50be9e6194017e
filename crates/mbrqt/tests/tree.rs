//! Structural tests for the MBRQT: bulk build, incremental insertion,
//! persistence, and the quadtree-specific invariants (regular
//! decomposition, non-overlap, tight MBRs).

use ann_core::index::{collect_objects, validate, SpatialIndex};
use ann_core::node::Entry;
use ann_datagen::Rng;
use ann_geom::{Mbr, Point};
use ann_mbrqt::{Mbrqt, MbrqtConfig};
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

#[test]
fn bulk_build_validates_and_contains_all_points() {
    let pts = random_points::<2>(5000, 7);
    let tree = Mbrqt::bulk_build(pool(64), &pts, &MbrqtConfig::default()).unwrap();
    let shape = validate(&tree).unwrap();
    assert_eq!(shape.objects, 5000);
    assert!(shape.height >= 2, "5000 points cannot fit one bucket");

    let mut got = collect_objects(&tree).unwrap();
    got.sort_by_key(|(oid, _)| *oid);
    let mut want = pts.clone();
    want.sort_by_key(|(oid, _)| *oid);
    assert_eq!(got.len(), want.len());
    for ((go, gp), (wo, wp)) in got.iter().zip(&want) {
        assert_eq!(go, wo);
        assert_eq!(gp.coords(), wp.coords());
    }
}

#[test]
fn incremental_insert_matches_bulk_validate() {
    let pts = random_points::<2>(2000, 11);
    let universe = Mbr::from_points(pts.iter().map(|(_, p)| p));
    let mut tree = Mbrqt::create(pool(64), universe, &MbrqtConfig::default()).unwrap();
    for &(oid, p) in &pts {
        tree.insert(oid, p).unwrap();
    }
    assert_eq!(tree.num_points(), 2000);
    let shape = validate(&tree).unwrap();
    assert_eq!(shape.objects, 2000);
    let got: HashSet<u64> = collect_objects(&tree)
        .unwrap()
        .iter()
        .map(|(o, _)| *o)
        .collect();
    assert_eq!(got.len(), 2000);
}

#[test]
fn sibling_subtrees_never_overlap() {
    // Regular decomposition: the *quadrants* of siblings are disjoint, so
    // tight sibling MBRs can only touch, never properly overlap.
    let pts = random_points::<2>(3000, 13);
    let tree = Mbrqt::bulk_build(pool(64), &pts, &MbrqtConfig::default()).unwrap();
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page).unwrap();
        if node.is_leaf {
            continue;
        }
        for (i, a) in node.entries.iter().enumerate() {
            for b in &node.entries[i + 1..] {
                let overlap = a.mbr().intersection_volume(&b.mbr());
                assert_eq!(
                    overlap,
                    0.0,
                    "siblings overlap: {:?} vs {:?}",
                    a.mbr(),
                    b.mbr()
                );
            }
        }
        for e in &node.entries {
            if let Entry::Node(n) = e {
                stack.push(n.page);
            }
        }
    }
}

#[test]
fn bucket_capacity_is_respected_above_max_depth() {
    let pts = random_points::<2>(4000, 17);
    let cfg = MbrqtConfig {
        bucket_capacity: 32,
        ..Default::default()
    };
    let tree = Mbrqt::bulk_build(pool(64), &pts, &cfg).unwrap();
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page).unwrap();
        if node.is_leaf {
            assert!(node.entries.len() <= 32);
        }
        for e in &node.entries {
            if let Entry::Node(n) = e {
                stack.push(n.page);
            }
        }
    }
}

#[test]
fn duplicate_points_overflow_into_one_bucket() {
    // 500 copies of the same point with capacity 8: splitting can never
    // separate them, so max_depth must stop the recursion.
    let pts: Vec<(u64, Point<2>)> = (0..500).map(|i| (i, Point::new([5.0, 5.0]))).collect();
    let cfg = MbrqtConfig {
        bucket_capacity: 8,
        max_depth: 12,
        ..Default::default()
    };
    let tree = Mbrqt::bulk_build(pool(64), &pts, &cfg).unwrap();
    assert_eq!(validate(&tree).unwrap().objects, 500);
}

#[test]
fn open_round_trips_through_meta_page() {
    let pts = random_points::<3>(1000, 19);
    let pool = pool(64);
    let tree = Mbrqt::bulk_build(pool.clone(), &pts, &MbrqtConfig::default()).unwrap();
    let meta = tree.meta_page();
    let bounds = tree.bounds();
    drop(tree);
    let reopened: Mbrqt<3> = Mbrqt::open(pool, meta).unwrap();
    assert_eq!(reopened.num_points(), 1000);
    assert_eq!(reopened.bounds(), bounds);
    assert_eq!(validate(&reopened).unwrap().objects, 1000);
}

#[test]
fn works_under_tiny_buffer_pool() {
    // 4-frame pool: every traversal thrashes, but correctness must hold.
    let pts = random_points::<2>(3000, 23);
    let pool = pool(4);
    let tree = Mbrqt::bulk_build(pool.clone(), &pts, &MbrqtConfig::default()).unwrap();
    assert_eq!(validate(&tree).unwrap().objects, 3000);
    assert!(pool.stats().physical_reads > 0);
}

#[test]
fn ten_dimensional_build() {
    let pts = random_points::<10>(2000, 29);
    let tree = Mbrqt::bulk_build(pool(256), &pts, &MbrqtConfig::default()).unwrap();
    let shape = validate(&tree).unwrap();
    assert_eq!(shape.objects, 2000);
}

#[test]
fn plain_quadrant_ablation_builds() {
    let pts = random_points::<2>(2000, 31);
    let cfg = MbrqtConfig {
        use_subtree_mbrs: false,
        ..Default::default()
    };
    let tree = Mbrqt::bulk_build(pool(64), &pts, &cfg).unwrap();
    assert!(!tree.uses_subtree_mbrs());
    // Tight-MBR validation is expected to fail (entries are quadrant
    // boxes), but all points must still be reachable.
    assert_eq!(collect_objects(&tree).unwrap().len(), 2000);
    // Entries must still *contain* their subtree (upper-bound soundness
    // for MAXMAXDIST).
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node(page).unwrap();
        for e in &node.entries {
            if let Entry::Node(n) = e {
                let child = tree.read_node(n.page).unwrap();
                let child_tight = Mbr::from_points(collect_node_points(&tree, n.page).iter());
                assert!(
                    n.mbr.contains(&child_tight) || child.entries.is_empty(),
                    "entry box must contain its subtree"
                );
                stack.push(n.page);
            }
        }
    }
}

fn collect_node_points<const D: usize>(tree: &Mbrqt<D>, page: ann_store::PageId) -> Vec<Point<D>> {
    let mut out = vec![];
    let mut stack = vec![page];
    while let Some(p) = stack.pop() {
        let node = tree.read_node(p).unwrap();
        for e in &node.entries {
            match e {
                Entry::Object(o) => out.push(o.point),
                Entry::Node(n) => stack.push(n.page),
            }
        }
    }
    out
}

#[test]
fn rejects_bad_input() {
    let universe = Mbr::new([0.0, 0.0], [1.0, 1.0]);
    let mut tree = Mbrqt::create(pool(16), universe, &MbrqtConfig::default()).unwrap();
    assert!(
        tree.insert(0, Point::new([2.0, 0.5])).is_err(),
        "outside universe"
    );
    assert!(tree.insert(0, Point::new([f64::NAN, 0.5])).is_err(), "NaN");
    assert_eq!(tree.num_points(), 0);
}

#[test]
fn empty_and_single_point_trees() {
    let empty = Mbrqt::<2>::bulk_build(pool(16), &[], &MbrqtConfig::default()).unwrap();
    assert_eq!(empty.num_points(), 0);
    assert!(empty.bounds().is_empty());
    assert_eq!(validate(&empty).unwrap().objects, 0);

    let one = Mbrqt::bulk_build(
        pool(16),
        &[(42, Point::new([3.0, 4.0]))],
        &MbrqtConfig::default(),
    )
    .unwrap();
    assert_eq!(one.num_points(), 1);
    assert_eq!(
        collect_objects(&one).unwrap(),
        vec![(42, Point::new([3.0, 4.0]))]
    );
}

#[test]
fn node_cache_serves_repeat_traversals_and_invalidates_on_mutation() {
    let pts = random_points::<2>(2000, 21);
    let mut tree = Mbrqt::bulk_build(pool(64), &pts, &MbrqtConfig::default()).unwrap();
    let cache = tree.node_cache().expect("MBRQT keeps a node cache");

    // First cached traversal fills the cache; second is mostly hits.
    let root1 = tree.read_node_cached(tree.root_page()).unwrap();
    cache.reset_stats();
    let root2 = tree.read_node_cached(tree.root_page()).unwrap();
    assert_eq!(cache.stats().hits, 1, "repeat read of the root is a hit");
    assert_eq!(*root1, *root2);
    let epoch_before = cache.epoch();

    // Insert: the epoch bumps and the post-insert traversal must see the
    // new point — stale cached nodes would hide it.
    let extra = Point::new([12.5, -3.25]);
    tree.insert(999_999, extra).unwrap();
    let cache = tree.node_cache().unwrap();
    assert_ne!(cache.epoch(), epoch_before, "insert bumps the epoch");

    let mut stack = vec![tree.root_page()];
    let mut found = false;
    while let Some(page) = stack.pop() {
        let node = tree.read_node_cached(page).unwrap();
        for e in node.entries.iter() {
            match e {
                Entry::Object(o) if o.oid == 999_999 => found = true,
                Entry::Node(n) => stack.push(n.page),
                _ => {}
            }
        }
    }
    assert!(found, "cached traversal observes the inserted point");

    // Delete: epoch bumps again; the cached traversal must stop seeing it.
    let epoch_before = cache.epoch();
    assert!(tree.delete(999_999, &extra).unwrap());
    let cache = tree.node_cache().unwrap();
    assert_ne!(cache.epoch(), epoch_before, "delete bumps the epoch");
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        let node = tree.read_node_cached(page).unwrap();
        for e in node.entries.iter() {
            match e {
                Entry::Object(o) => assert_ne!(o.oid, 999_999, "stale cache"),
                Entry::Node(n) => stack.push(n.page),
            }
        }
    }

    // A failed delete (nothing removed) must NOT invalidate the cache.
    let epoch_before = cache.epoch();
    assert!(!tree.delete(123_456_789, &extra).unwrap());
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
    let pts = random_points::<3>(3000, 33);
    let tree = Mbrqt::bulk_build(pool(64), &pts, &MbrqtConfig::default()).unwrap();
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
