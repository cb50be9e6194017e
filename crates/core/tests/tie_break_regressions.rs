//! Shrunk reproducers from the differential checker (`crates/checker`),
//! checked in as permanent regressions. Each test pins one historical
//! bug class:
//!
//! 1. tie-break nondeterminism — equal-distance neighbors must resolve
//!    to the smallest `s_oid`, in every algorithm, even when candidates
//!    arrive through different heap/queue orders;
//! 2. `exclude_self` with duplicate points — `k_eff = k + 1` must make
//!    room for the excluded self so a coincident *other* point (distance
//!    zero, different oid) still surfaces;
//! 3. degenerate cardinalities — `k = 0`, empty `R` or `S`, `|S| = 1`
//!    self-joins, and `k > |S|` return fewer-than-`k` results uniformly,
//!    never panic;
//! 4. byte-exactness at cancellation-prone offsets — large translated
//!    lattices keep distances bit-identical to brute force.

use ann_core::brute::brute_force_aknn;
use ann_core::mba::{Expansion, Traversal};
use ann_core::prelude::*;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, MemDisk};
use std::sync::Arc;

fn qt_cfg() -> MbrqtConfig {
    MbrqtConfig {
        bucket_capacity: 8,
        ..Default::default()
    }
}

fn rs_cfg() -> RStarConfig {
    RStarConfig {
        max_leaf_entries: 8,
        max_internal_entries: 4,
        ..Default::default()
    }
}

fn variants() -> Vec<Algorithm> {
    vec![
        Algorithm::mba(),
        Algorithm::Mba {
            traversal: Traversal::BreadthFirst,
            expansion: Expansion::Unidirectional,
            threads: 1,
        },
        Algorithm::Mba {
            traversal: Traversal::default(),
            expansion: Expansion::default(),
            threads: 2,
        },
        Algorithm::Bnn { group_size: 1 },
        Algorithm::Bnn { group_size: 64 },
        Algorithm::Mnn,
        Algorithm::Hnn {
            avg_cell_occupancy: 1.0,
        },
    ]
}

/// Runs every variant × metric and asserts byte-exact agreement with
/// canonically sorted brute force.
fn check<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    k: usize,
    exclude_self: bool,
    label: &str,
) {
    let mut want = brute_force_aknn(r, s, k, exclude_self);
    want.sort_by(|a, b| {
        (a.r_oid, a.dist, a.s_oid)
            .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
            .unwrap()
    });
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 128));
    let ir = Mbrqt::bulk_build(pool.clone(), r, &qt_cfg()).unwrap();
    let is = RStar::bulk_build(pool, s, &rs_cfg()).unwrap();
    for alg in variants() {
        for metric in [MetricChoice::Nxn, MetricChoice::MaxMax] {
            let tag = format!("{label}: {} {:?}", alg.name(), metric);
            let mut got = AnnRequest::new(alg)
                .k(k)
                .exclude_self(exclude_self)
                .metric(metric)
                .run(Input::Index(&ir), Input::Index(&is))
                .unwrap();
            got.sort();
            assert_eq!(got.results.len(), want.len(), "{tag}: count");
            for (g, w) in got.results.iter().zip(&want) {
                assert_eq!(
                    (g.r_oid, g.s_oid, g.dist.to_bits()),
                    (w.r_oid, w.s_oid, w.dist.to_bits()),
                    "{tag}"
                );
            }
        }
    }
    // Index-free paths share the contract.
    let mut got = AnnRequest::new(Algorithm::Hnn {
        avg_cell_occupancy: 1.0,
    })
    .k(k)
    .exclude_self(exclude_self)
    .run(
        Input::<D, NoIndex>::Points(r),
        Input::<D, NoIndex>::Points(s),
    )
    .unwrap();
    got.sort();
    assert_eq!(got.results.len(), want.len(), "{label}: hnn points count");
    for (g, w) in got.results.iter().zip(&want) {
        assert_eq!(
            (g.r_oid, g.s_oid, g.dist.to_bits()),
            (w.r_oid, w.s_oid, w.dist.to_bits()),
            "{label}: hnn points"
        );
    }
}

fn pts<const D: usize>(coords: &[[f64; D]], stride: u64) -> Vec<(u64, Point<D>)> {
    coords
        .iter()
        .enumerate()
        .map(|(i, c)| (i as u64 * stride, Point::new(*c)))
        .collect()
}

/// Bug class 1: four corners of a unit square querying its center — every
/// S point ties; each algorithm must pick the smallest `s_oid`, and with
/// `k = 2` the two smallest.
#[test]
fn equal_distance_ties_resolve_to_smallest_oid() {
    let r = pts::<2>(&[[1.0, 1.0]], 1);
    // Non-unit stride decouples oid order from insertion order.
    let s = pts::<2>(&[[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]], 3);
    for k in [1, 2, 3] {
        check(&r, &s, k, false, "tied corners");
    }
}

/// Bug class 1 (heap-order variant): duplicated grid points mean ties at
/// distance zero *and* at positive distances simultaneously.
#[test]
fn duplicate_grid_points_stay_canonical() {
    let coords: Vec<[f64; 2]> = vec![
        [0.0, 0.0],
        [0.0, 0.0],
        [1.0, 0.0],
        [1.0, 0.0],
        [0.0, 1.0],
        [2.0, 2.0],
        [2.0, 2.0],
        [2.0, 2.0],
    ];
    let p = pts::<2>(&coords, 1);
    for k in [1, 2, 4] {
        check(&p, &p, k, false, "duplicate grid");
    }
}

/// Bug class 2: self-join over duplicated points with `exclude_self`.
/// Each point's nearest neighbor is its coincident twin (distance 0,
/// different oid) — dropping the self match must not consume the k-slot.
#[test]
fn exclude_self_with_coincident_duplicates() {
    let coords: Vec<[f64; 2]> = vec![[3.0, 3.0], [3.0, 3.0], [3.0, 3.0], [5.0, 3.0], [5.0, 3.0]];
    let p = pts::<2>(&coords, 1);
    for k in [1, 2, 4] {
        check(&p, &p, k, true, "exclude_self duplicates");
    }
}

/// Bug class 3: the degenerate request matrix — `k = 0`, empty sides,
/// `k > |S|`, and the `|S| = 1` exclude_self self-join (zero neighbors
/// available) must all return uniformly, never panic.
#[test]
fn degenerate_cardinalities_never_panic() {
    let one = pts::<2>(&[[1.0, 2.0]], 1);
    let some = pts::<2>(&[[0.0, 0.0], [4.0, 1.0], [2.0, 7.0]], 1);
    let empty: Vec<(u64, Point<2>)> = Vec::new();

    check(&some, &some, 0, false, "k=0");
    check(&empty, &some, 2, false, "empty R");
    check(&some, &empty, 2, false, "empty S");
    check(&empty, &empty, 2, false, "both empty");
    check(&some, &one, 5, false, "k > |S|");
    check(&one, &one, 1, true, "|S|=1 exclude_self");
    check(&some, &some, 7, true, "k > |S|-1 exclude_self");
}

/// Bug class 4: a lattice translated by 1e8 — subtraction-based metric
/// shortcuts would lose the low bits; results must stay byte-identical
/// to brute force.
#[test]
fn large_offset_lattice_stays_byte_exact() {
    const OFF: f64 = 1.0e8;
    let coords: Vec<[f64; 2]> = (0..5)
        .flat_map(|x| (0..3).map(move |y| [OFF + x as f64, OFF + y as f64]))
        .collect();
    let p = pts::<2>(&coords, 3);
    for k in [1, 3] {
        check(&p, &p, k, false, "offset lattice");
        check(&p, &p, k, true, "offset lattice exclude_self");
    }
}

/// 1-D is the degenerate dimensionality where every MBR is an interval
/// and ties are maximal; 8-D exercises the face-dominant branch of the
/// metrics. Same canonical contract in both.
#[test]
fn extreme_dimensionalities_stay_canonical() {
    let r1 = pts::<1>(&[[0.0], [2.0], [2.0], [4.0]], 1);
    for k in [1, 2] {
        check(&r1, &r1, k, false, "1-D line");
        check(&r1, &r1, k, true, "1-D line exclude_self");
    }
    let coords8: Vec<[f64; 8]> = vec![
        [0.0; 8],
        [0.0; 8],
        [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
        [1.0; 8],
    ];
    let r8 = pts::<8>(&coords8, 1);
    for k in [1, 3] {
        check(&r8, &r8, k, false, "8-D ties");
    }
}
