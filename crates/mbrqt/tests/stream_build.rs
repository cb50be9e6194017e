//! Out-of-core (streamed) MBRQT build: the external distribution
//! partitioning must produce the *identical* tree the in-memory builder
//! does — same partitioning decisions, same page allocation order.

use ann_core::index::{collect_objects, validate, SpatialIndex};
use ann_core::tree_file::WritableIndex;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_store::{BufferPool, MemDisk};
use std::sync::Arc;

fn pool(pages: usize) -> Arc<BufferPool> {
    Arc::new(BufferPool::new(MemDisk::new(), pages))
}

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
fn streamed_build_is_identical_to_in_memory_build() {
    let pts = points(4000, 0xBEEF);
    let cfg = MbrqtConfig::default();
    let streamed = Mbrqt::bulk_build_stream(
        pool(64),
        pool(32),
        pts.iter().copied(),
        // Budget far below the input: the root and at least one more
        // level partition externally before materializing.
        250,
        &cfg,
    )
    .unwrap();
    let in_memory = Mbrqt::bulk_build(pool(64), &pts, &cfg).unwrap();

    // Identical structure: same shape, same root page (page allocation
    // order on the main pool is deterministic and shared), same census.
    assert_eq!(
        validate(&streamed).unwrap(),
        validate(&in_memory).unwrap(),
        "tree shapes must match exactly"
    );
    assert_eq!(streamed.root_page(), in_memory.root_page());
    assert_eq!(streamed.bounds(), in_memory.bounds());
    let mut a = collect_objects(&streamed).unwrap();
    let mut b = collect_objects(&in_memory).unwrap();
    a.sort_by_key(|(oid, _)| *oid);
    b.sort_by_key(|(oid, _)| *oid);
    assert_eq!(a, b);
}

#[test]
fn streamed_build_validates_at_10x_memory_budget() {
    let pts = points(6000, 3);
    let tree = Mbrqt::bulk_build_stream(
        pool(64),
        pool(32),
        pts.iter().copied(),
        600, // dataset is 10× the materialization budget
        &MbrqtConfig::default(),
    )
    .unwrap();
    let shape = validate(&tree).unwrap();
    assert_eq!(shape.objects, 6000);
    let mut census = collect_objects(&tree).unwrap();
    census.sort_by_key(|(oid, _)| *oid);
    assert_eq!(census, pts);
}

/// The out-of-core study's path: build onto a pool, drop the handle, and
/// reopen the tree from its meta page alone.
#[test]
fn streamed_build_reopens_from_meta() {
    let pts = points(800, 99);
    let p = pool(64);
    let tree = Mbrqt::bulk_build_stream(
        Arc::clone(&p),
        pool(16),
        pts.iter().copied(),
        100,
        &MbrqtConfig::default(),
    )
    .unwrap();
    let meta = tree.meta_page();
    let bounds = tree.bounds();
    let shape = validate(&tree).unwrap();
    drop(tree);
    let reopened = Mbrqt::<2>::open_at(p, meta, None).unwrap();
    assert_eq!(reopened.num_points(), 800);
    assert_eq!(reopened.bounds(), bounds);
    assert_eq!(validate(&reopened).unwrap(), shape);
    let mut census = collect_objects(&reopened).unwrap();
    census.sort_by_key(|(oid, _)| *oid);
    assert_eq!(census, pts);
}

#[test]
fn streamed_build_handles_empty_and_duplicate_inputs() {
    let empty = Mbrqt::<2>::bulk_build_stream(
        pool(16),
        pool(16),
        std::iter::empty(),
        10,
        &MbrqtConfig::default(),
    )
    .unwrap();
    assert_eq!(validate(&empty).unwrap().objects, 0);

    // Duplicates never make partitioning progress; the MAX_DEPTH budget
    // must stop the external recursion exactly as it stops the in-memory
    // one.
    let dupes: Vec<(u64, Point<2>)> = (0..300).map(|i| (i, Point::new([0.5, 0.5]))).collect();
    let cfg = MbrqtConfig::default();
    let streamed =
        Mbrqt::bulk_build_stream(pool(64), pool(16), dupes.iter().copied(), 50, &cfg).unwrap();
    let in_memory = Mbrqt::bulk_build(pool(64), &dupes, &cfg).unwrap();
    assert_eq!(validate(&streamed).unwrap(), validate(&in_memory).unwrap());

    let bad = Mbrqt::<2>::bulk_build_stream(
        pool(16),
        pool(16),
        vec![(0u64, Point::new([0.0, f64::INFINITY]))],
        10,
        &MbrqtConfig::default(),
    );
    assert!(bad.is_err());
}
