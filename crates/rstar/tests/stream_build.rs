//! Out-of-core (streamed) bulk build: structural validity, census, and
//! query equivalence against the in-memory STR build.

use ann_core::index::{collect_objects, validate, SpatialIndex};
use ann_core::prelude::{Algorithm, AnnRequest, Input};
use ann_core::tree_file::WritableIndex;
use ann_geom::Point;
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, MemDisk};
use std::sync::Arc;

fn pool(pages: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(MemDisk::new(), pages))
}

/// Deterministic pseudo-random points (no rand dependency needed).
fn points(n: usize, seed: u64) -> Vec<(u64, Point<2>)> {
    let mut s = seed;
    let mut next = move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 40) as f64 / (1u64 << 24) as f64
    };
    (0..n as u64)
        .map(|i| (i, Point::new([next(), next()])))
        .collect()
}

#[test]
fn streamed_build_validates_and_holds_every_point() {
    let pts = points(5000, 0xA11CE);
    let tree = RStar::bulk_build_stream(
        pool(64),
        pool(32),
        pts.iter().copied(),
        // A run budget far below the input size forces multiple spilled
        // runs and a real k-way merge.
        700,
        &RStarConfig::default(),
    )
    .unwrap();

    let shape = validate(&tree).unwrap();
    assert_eq!(shape.objects, 5000);
    assert!(shape.height >= 2, "5000 points cannot fit one leaf");

    let mut census: Vec<_> = collect_objects(&tree).unwrap();
    census.sort_by_key(|(oid, _)| *oid);
    assert_eq!(census, pts, "every point survives the external pipeline");
}

#[test]
fn streamed_tree_answers_queries_like_the_str_tree() {
    let pts = points(2000, 7);
    let streamed = RStar::bulk_build_stream(
        pool(64),
        pool(32),
        pts.iter().copied(),
        333,
        &RStarConfig::default(),
    )
    .unwrap();
    let str_tree = RStar::bulk_build(pool(64), &pts, &RStarConfig::default()).unwrap();

    // Different packing, same contents: every query point's k nearest
    // neighbors must agree.
    let queries = points(40, 0xBEEF);
    let query_tree = RStar::bulk_build(pool(16), &queries, &RStarConfig::default()).unwrap();
    for k in [1, 5, 17] {
        let req = AnnRequest::new(Algorithm::Mnn).k(k);
        let a = req.run(Input::Index(&query_tree), Input::Index(&streamed));
        let b = req.run(Input::Index(&query_tree), Input::Index(&str_tree));
        assert_eq!(a.unwrap().results, b.unwrap().results, "k={k}");
    }
}

#[test]
fn streamed_build_reopens_from_meta() {
    let pts = points(800, 99);
    let p = pool(64);
    let tree = RStar::bulk_build_stream(
        Arc::clone(&p),
        pool(16),
        pts.iter().copied(),
        100,
        &RStarConfig::default(),
    )
    .unwrap();
    let meta = tree.meta_page();
    let bounds = tree.bounds();
    drop(tree);
    let reopened = RStar::<2>::open_at(p, meta, None).unwrap();
    assert_eq!(reopened.num_points(), 800);
    assert_eq!(reopened.bounds(), bounds);
}

#[test]
fn streamed_build_handles_empty_and_degenerate_inputs() {
    // Empty stream: a single empty leaf, validating cleanly.
    let empty = RStar::<2>::bulk_build_stream(
        pool(16),
        pool(16),
        std::iter::empty(),
        10,
        &RStarConfig::default(),
    )
    .unwrap();
    assert_eq!(validate(&empty).unwrap().objects, 0);

    // All-duplicate points: every Hilbert key collides; the oid tie-break
    // still yields a total order and a valid tree.
    let dupes: Vec<(u64, Point<2>)> = (0..500).map(|i| (i, Point::new([0.25, 0.75]))).collect();
    let tree = RStar::bulk_build_stream(
        pool(64),
        pool(16),
        dupes.iter().copied(),
        64,
        &RStarConfig::default(),
    )
    .unwrap();
    assert_eq!(validate(&tree).unwrap().objects, 500);

    // Non-finite input is rejected up front.
    let bad = RStar::<2>::bulk_build_stream(
        pool(16),
        pool(16),
        vec![(0u64, Point::new([f64::NAN, 0.0]))],
        10,
        &RStarConfig::default(),
    );
    assert!(bad.is_err());
}
