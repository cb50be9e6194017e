//! The [`QueryScratch`] zero-steady-state-allocation contract: after a
//! warm-up query, repeated identical queries through the same scratch
//! must not grow any pooled buffer. The scratch's
//! [`footprint_bytes`](QueryScratch::footprint_bytes) sums the *parked*
//! capacity of every pool, and pooled capacities never shrink — so a
//! byte-stable footprint across 100 queries proves the pooled paths
//! performed no reallocation after warm-up.
//!
//! Node-owned LPQs are not pooled: their storage goes back to the
//! allocator, so a 10-D join — whose node queues reach thousands of
//! entries — parks the same few hundred KiB after every join instead of
//! ratcheting up by megabytes.
//!
//! Also asserts that `run_scratch` with a caller-owned arena returns
//! exactly what `run` with a transient one returns: pooling is invisible.

use ann_core::prelude::*;
use ann_core::QueryScratch;
use ann_datagen::Rng;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_store::{BufferPool, MemDisk};
use std::sync::Arc;

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

fn build_tree(pts: &[(u64, Point<2>)]) -> Mbrqt<2> {
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 256));
    let cfg = MbrqtConfig {
        bucket_capacity: 16,
        ..Default::default()
    };
    Mbrqt::bulk_build(pool, pts, &cfg).unwrap()
}

/// Warms one scratch until its parked footprint reaches the high-water
/// mark (a LIFO pool may hand a buffer to a larger queue of the same kind
/// than any it served before, growing its capacity for a few rounds),
/// then asserts 100 further queries are allocation-free: byte-identical
/// footprint and parked-buffer count on every one.
fn assert_steady_state<F: FnMut(&mut QueryScratch<2>)>(label: &str, mut query: F) {
    let mut scratch = QueryScratch::new();
    query(&mut scratch);
    assert!(
        scratch.footprint_bytes() > 0,
        "{label}: warm-up should park buffers"
    );
    let mut warm = scratch.footprint_bytes();
    let mut converged = false;
    // Convergence is guaranteed within #buffers rounds (capacities are
    // monotone and the take/put pattern repeats); 200 is a safe cap.
    for _ in 0..200 {
        query(&mut scratch);
        if scratch.footprint_bytes() == warm {
            converged = true;
            break;
        }
        warm = scratch.footprint_bytes();
    }
    assert!(converged, "{label}: footprint never reached a fixed point");
    let parked = scratch.parked();
    for i in 0..100 {
        query(&mut scratch);
        assert_eq!(
            scratch.footprint_bytes(),
            warm,
            "{label}: query {i} grew the scratch footprint"
        );
        assert_eq!(
            scratch.parked(),
            parked,
            "{label}: query {i} leaked or duplicated a pooled buffer"
        );
    }
}

#[test]
fn mba_steady_state_reallocates_nothing() {
    let r = random_points::<2>(600, 1);
    let s = random_points::<2>(700, 2);
    let ir = build_tree(&r);
    let is = build_tree(&s);
    let req = AnnRequest::new(Algorithm::mba()).k(3);
    let want = req.run(Input::Index(&ir), Input::Index(&is)).unwrap();
    assert_steady_state("mba", |scratch| {
        let got = req
            .run_scratch(Input::Index(&ir), Input::Index(&is), scratch)
            .unwrap();
        assert_eq!(got.results, want.results);
        assert_eq!(
            got.stats.distance_computations,
            want.stats.distance_computations
        );
        assert_eq!(got.stats.enqueued, want.stats.enqueued);
    });
}

/// A 10-D self-join's node-owned LPQs grow to thousands of entries; if
/// their storage were parked, every join would leave the arena holding
/// more (8.6 MiB after the first of these joins, 13.3 MiB after the
/// next). Only object-owned storage is parked: 340 KiB, from the first
/// join on.
#[test]
fn mba_10d_aknn_scratch_stays_small_and_flat() {
    let pts = random_points::<10>(500, 11);
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 256));
    let tree = Mbrqt::bulk_build(pool, &pts, &MbrqtConfig::default()).unwrap();
    let req = AnnRequest::new(Algorithm::mba()).k(10).exclude_self(true);
    let mut scratch = QueryScratch::new();
    let mut footprints = Vec::new();
    for _ in 0..3 {
        let out = req
            .run_scratch(Input::Index(&tree), Input::Index(&tree), &mut scratch)
            .unwrap();
        assert_eq!(out.results.len(), 500 * 10);
        footprints.push(scratch.footprint_bytes());
    }
    assert!(
        footprints.iter().all(|&f| f == footprints[0]),
        "parked footprint moved between joins: {footprints:?}"
    );
    assert!(
        footprints[0] <= 1 << 20,
        "a 500-point join parks {} bytes",
        footprints[0]
    );
}

#[test]
fn mnn_steady_state_reallocates_nothing() {
    let r = random_points::<2>(300, 3);
    let s = random_points::<2>(400, 4);
    let ir = build_tree(&r);
    let is = build_tree(&s);
    let req = AnnRequest::new(Algorithm::Mnn).k(2);
    let want = req.run(Input::Index(&ir), Input::Index(&is)).unwrap();
    assert_steady_state("mnn", |scratch| {
        let got = req
            .run_scratch(Input::Index(&ir), Input::Index(&is), scratch)
            .unwrap();
        assert_eq!(got.results, want.results);
        assert_eq!(
            got.stats.distance_computations,
            want.stats.distance_computations
        );
    });
}

#[test]
fn bnn_steady_state_reallocates_nothing() {
    let r = random_points::<2>(500, 5);
    let s = random_points::<2>(500, 6);
    let is = build_tree(&s);
    let req = AnnRequest::new(Algorithm::Bnn { group_size: 64 }).k(2);
    let r_side = || Input::<2, NoIndex>::Points(&r);
    let want = req.run(r_side(), Input::Index(&is)).unwrap();
    assert_steady_state("bnn", |scratch| {
        let got = req
            .run_scratch(r_side(), Input::Index(&is), scratch)
            .unwrap();
        assert_eq!(got.results, want.results);
        assert_eq!(
            got.stats.distance_computations,
            want.stats.distance_computations
        );
    });
}

#[test]
fn hnn_steady_state_reallocates_nothing() {
    let r = random_points::<2>(400, 7);
    let s = random_points::<2>(400, 8);
    let req = AnnRequest::new(Algorithm::hnn()).k(2);
    let sides = || {
        (
            Input::<2, NoIndex>::Points(&r),
            Input::<2, NoIndex>::Points(&s),
        )
    };
    let (r_side, s_side) = sides();
    let want = req.run(r_side, s_side).unwrap();
    assert_steady_state("hnn", |scratch| {
        let (r_side, s_side) = sides();
        let got = req.run_scratch(r_side, s_side, scratch).unwrap();
        assert_eq!(got.results, want.results);
        assert_eq!(
            got.stats.distance_computations,
            want.stats.distance_computations
        );
    });
}
