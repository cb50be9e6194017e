//! Property tests for the MBR metrics on degenerate and
//! cancellation-prone geometry, pinned to fixed seeds so the suite is a
//! permanent regression gate (originally surfaced by `crates/checker`).
//!
//! The contract under test, for any query MBR `M` and any MBR `N` built
//! from a point set `S`:
//!
//! * `NXNDIST(M, N)` is finite, non-negative, never NaN — including
//!   point-degenerate, touching, and coincident `M`/`N`;
//! * `MINMINDIST(M, N) ≤ NXNDIST(M, N) ≤ MAXMAXDIST(M, N)` **exactly**
//!   (same-accumulation-order floating point makes this assertable
//!   without epsilon);
//! * for every `r ∈ M`: `min_{s ∈ S} dist(r, s) ≤ NXNDIST(M, N)` — the
//!   defining ANN-pruning guarantee of the paper.

use ann_datagen::Rng;
use ann_geom::{max_max_dist_sq, min_min_dist_sq, nxn_dist_sq, Mbr, Point};

/// A coordinate on a 9-step lattice, so touching and coincident boxes are
/// common.
fn lattice(rng: &mut Rng) -> f64 {
    rng.range(0, 9) as f64
}

/// One random configuration at a given scale/offset; panics with a full
/// witness on any violated bound.
fn check_one<const D: usize>(rng: &mut Rng, scale: f64, offset: f64) {
    let n_s = rng.range(1, 9);
    let s: Vec<Point<D>> = (0..n_s)
        .map(|_| {
            let mut c = [0.0; D];
            for v in c.iter_mut() {
                *v = lattice(rng) * scale + offset;
            }
            Point::new(c)
        })
        .collect();
    let n = Mbr::from_points(s.iter());

    let mut lo = [0.0; D];
    let mut hi = [0.0; D];
    for d in 0..D {
        let a = lattice(rng) * scale + offset;
        // One third of dimensions degenerate to a point — that also
        // produces shared-face and fully coincident configurations.
        let b = if rng.range(0, 3) == 0 {
            a
        } else {
            lattice(rng) * scale + offset
        };
        lo[d] = a.min(b);
        hi[d] = a.max(b);
    }
    let m = Mbr::new(lo, hi);

    let nxn = nxn_dist_sq(&m, &n);
    let minmin = min_min_dist_sq(&m, &n);
    let maxmax = max_max_dist_sq(&m, &n);
    let ctx = || format!("M={m:?} N={n:?} S={s:?} scale={scale} offset={offset}");
    assert!(nxn.is_finite() && nxn >= 0.0, "NXN² = {nxn:?}: {}", ctx());
    assert!(
        nxn >= minmin,
        "NXN² {nxn:?} < MINMIN² {minmin:?}: {}",
        ctx()
    );
    assert!(
        nxn <= maxmax,
        "NXN² {nxn:?} > MAXMAX² {maxmax:?}: {}",
        ctx()
    );

    // The defining property, sampled at corners and interior points.
    let mut queries = vec![Point::new(m.lo), Point::new(m.hi)];
    for _ in 0..4 {
        let c = std::array::from_fn(|d| m.lo[d] + rng.f64() * (m.hi[d] - m.lo[d]));
        queries.push(Point::new(c));
    }
    for r in &queries {
        let nn = s.iter().map(|p| r.dist_sq(p)).fold(f64::INFINITY, f64::min);
        assert!(
            nn <= nxn * (1.0 + 1e-9),
            "true NN² {nn:?} exceeds NXN² {nxn:?} at r={r:?}: {}",
            ctx()
        );
    }
}

#[test]
fn nxn_bounds_hold_on_lattice_configurations_2d() {
    let mut rng = Rng::new(0x5EED_0001);
    for _ in 0..500 {
        check_one::<2>(&mut rng, 1.0, 0.0);
    }
}

#[test]
fn nxn_bounds_hold_in_1d_and_8d() {
    let mut rng = Rng::new(0x5EED_0002);
    for _ in 0..300 {
        check_one::<1>(&mut rng, 1.0, 0.0);
        check_one::<8>(&mut rng, 1.0, 0.0);
    }
}

/// The cancellation regression: at offsets around `1e8` the NXNDIST
/// inner expression `Σ max² − max_d² + maxmin_d²` loses low bits and,
/// before the clamp, could dip a few ulps *below* MINMINDIST — breaking
/// the metric ordering downstream pruning relies on.
#[test]
fn nxn_stays_above_minmin_at_cancellation_offsets() {
    let mut rng = Rng::new(0x5EED_0003);
    for offset in [1.0e8, 1.0e12, 1.0e15] {
        for scale in [1.0, 1024.0, 0.0078125] {
            for _ in 0..150 {
                check_one::<2>(&mut rng, scale, offset);
                check_one::<8>(&mut rng, scale, offset);
            }
        }
    }
}

/// Hand-shrunk degenerate pairs: coincident point-MBRs, a point on the
/// face of a box, and disjoint intervals in 1-D.
#[test]
fn degenerate_mbr_pairs_are_exact() {
    // Coincident points: every metric is exactly zero.
    let p = Mbr::new([5.0, 5.0], [5.0, 5.0]);
    assert_eq!(nxn_dist_sq(&p, &p), 0.0);
    assert_eq!(min_min_dist_sq(&p, &p), 0.0);
    assert_eq!(max_max_dist_sq(&p, &p), 0.0);

    // A point on the face of a box: MINMIN = 0, NXN spans the box depth.
    let m = Mbr::new([0.0, 1.0], [0.0, 1.0]);
    let n = Mbr::new([0.0, 0.0], [2.0, 2.0]);
    let nxn = nxn_dist_sq(&m, &n);
    assert_eq!(min_min_dist_sq(&m, &n), 0.0);
    assert!(nxn >= 0.0 && nxn <= max_max_dist_sq(&m, &n));

    // Disjoint 1-D intervals: NXN = distance to the far end of the
    // nearer approach, bounded by the exact interval arithmetic.
    let a = Mbr::new([0.0], [1.0]);
    let b = Mbr::new([3.0], [4.0]);
    let nxn = nxn_dist_sq(&a, &b);
    assert_eq!(min_min_dist_sq(&a, &b), 4.0); // (3-1)²
    assert_eq!(max_max_dist_sq(&a, &b), 16.0); // (4-0)²
    assert!((4.0..=16.0).contains(&nxn));
}
