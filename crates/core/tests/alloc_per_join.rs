//! Allocator calls per query point of a warm MBA self-join.
//!
//! A counting `#[global_allocator]` tallies every `alloc` and `realloc`.
//! The binary holds exactly one `#[test]`: tests of one binary run on
//! parallel threads and would share the counter.
//!
//! Each case warms one [`QueryScratch`] with three identical joins, then
//! counts the calls of a fourth. What is left is what the pooled paths do
//! not cover: node-owned LPQ storage (deliberately not pooled, see
//! `scratch.rs`), the result vector and its canonical sort. An
//! object-owned LPQ — one per query point — must allocate nothing, bound
//! tracker included: a per-LPQ allocation alone would cost one call per
//! point.

use ann_core::prelude::*;
use ann_core::QueryScratch;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_store::{BufferPool, MemDisk};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        CALLS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocator calls per point of the fourth of four serial `exclude_self`
/// MBA self-joins at `k` through one scratch, over `n` uniform points.
fn calls_per_point<const D: usize>(n: usize, k: usize, seed: u64) -> f64 {
    let pts: Vec<(u64, Point<D>)> = ann_datagen::uniform(n, seed);
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 4096));
    let tree = Mbrqt::bulk_build(pool, &pts, &MbrqtConfig::default()).unwrap();
    let req = AnnRequest::new(Algorithm::mba())
        .k(k)
        .exclude_self(true)
        .threads(1);
    let mut scratch = QueryScratch::new();
    let join = |scratch: &mut QueryScratch<D>| {
        let out = req
            .run_scratch(Input::Index(&tree), Input::Index(&tree), scratch)
            .unwrap();
        assert_eq!(out.results.len(), n * k);
    };
    for _ in 0..3 {
        join(&mut scratch);
    }
    let before = CALLS.load(Ordering::Relaxed);
    join(&mut scratch);
    let calls = CALLS.load(Ordering::Relaxed) - before;
    calls as f64 / n as f64
}

#[test]
fn warm_self_join_allocates_little_per_point() {
    let per_point = calls_per_point::<2>(20_000, 1, 0xa110c);
    assert!(
        per_point < 0.1,
        "2-D k = 1: {per_point:.3} allocator calls per query point"
    );
    let per_point = calls_per_point::<10>(5_000, 10, 0xa110d);
    assert!(
        per_point < 8.0,
        "10-D k = 10: {per_point:.3} allocator calls per query point"
    );
}
