//! Property-based tests for the metric layer: these check the paper's
//! Lemmas 3.1-3.3 on randomized inputs rather than hand-picked examples.
//! Each property runs over seeded cases ([`for_each_case`] names a failing
//! one).

use ann_datagen::{for_each_case, Rng};
use ann_geom::{
    max_dist_d, max_max_dist_sq, max_min_d, min_min_dist_sq, nxn_dist, nxn_dist_sq, Mbr, Point,
};

const EPS: f64 = 1e-9;

/// Cases per metric property.
const CASES: usize = 256;

/// `D` coordinates uniform in `[lo, hi)`.
fn coords<const D: usize>(rng: &mut Rng, lo: f64, hi: f64) -> [f64; D] {
    std::array::from_fn(|_| rng.range_f64(lo, hi))
}

/// `D` interpolation weights uniform in `[0, 1)`.
fn unit_weights<const D: usize>(rng: &mut Rng) -> [f64; D] {
    std::array::from_fn(|_| rng.f64())
}

/// `D` grid cells below `1 << bits`.
fn cell<const D: usize>(rng: &mut Rng, bits: u32) -> [u32; D] {
    std::array::from_fn(|_| rng.range(0, 1 << bits) as u32)
}

/// A valid D-dimensional MBR with coordinates in [-100, 100].
fn mbr<const D: usize>(rng: &mut Rng) -> Mbr<D> {
    let lo: [f64; D] = coords(rng, -100.0, 100.0);
    let ext: [f64; D] = coords(rng, 0.0, 50.0);
    let mut hi = lo;
    for d in 0..D {
        hi[d] += ext[d];
    }
    Mbr::new(lo, hi)
}

/// The point of `m` at interpolation weights `t`.
fn point_in<const D: usize>(m: &Mbr<D>, t: [f64; D]) -> Point<D> {
    let mut c = [0.0; D];
    for d in 0..D {
        c[d] = m.lo[d] + t[d] * (m.hi[d] - m.lo[d]);
    }
    Point::new(c)
}

/// A small point set (its exact MBR is taken by the property).
fn point_set<const D: usize>(rng: &mut Rng) -> Vec<Point<D>> {
    (0..rng.range(1, 20))
        .map(|_| Point::new(coords(rng, -100.0, 100.0)))
        .collect()
}

/// Lemma 3.1: for any point set with MBR N and any r in M, the distance
/// from r to its nearest neighbor in the set is at most NXNDIST(M, N).
#[test]
fn lemma_3_1_nxndist_upper_bounds_nn_distance() {
    for_each_case(0x6e00001, CASES, |rng| {
        let set = point_set::<3>(rng);
        let m = mbr::<3>(rng);
        let t = unit_weights::<3>(rng);
        let n = Mbr::from_points(set.iter());
        let r = point_in(&m, t);
        let nn_dist = set.iter().map(|s| r.dist(s)).fold(f64::INFINITY, f64::min);
        assert!(
            nn_dist <= nxn_dist(&m, &n) + EPS,
            "NN dist {} exceeds NXNDIST {}",
            nn_dist,
            nxn_dist(&m, &n)
        );
    });
}

/// Lemma 3.2: shrinking the query-side MBR never increases NXNDIST.
#[test]
fn lemma_3_2_monotone_in_query_side() {
    for_each_case(0x6e00002, CASES, |rng| {
        let m = mbr::<2>(rng);
        let n = mbr::<2>(rng);
        let t_lo = unit_weights::<2>(rng);
        let t_hi = unit_weights::<2>(rng);
        // Build a child MBR inside m.
        let a = point_in(&m, t_lo);
        let b = point_in(&m, t_hi);
        let child = Mbr::new(
            [a[0].min(b[0]), a[1].min(b[1])],
            [a[0].max(b[0]), a[1].max(b[1])],
        );
        assert!(m.contains(&child));
        assert!(nxn_dist_sq(&child, &n) <= nxn_dist_sq(&m, &n) + EPS);
    });
}

/// NXNDIST always sits between MINMINDIST and MAXMAXDIST.
#[test]
fn nxndist_between_classical_bounds() {
    for_each_case(0x6e00003, CASES, |rng| {
        let m = mbr::<4>(rng);
        let n = mbr::<4>(rng);
        let nxn = nxn_dist_sq(&m, &n);
        assert!(min_min_dist_sq(&m, &n) <= nxn + EPS);
        assert!(nxn <= max_max_dist_sq(&m, &n) + EPS);
    });
}

/// MINMINDIST / MAXMAXDIST really do bound every realized pair distance.
#[test]
fn pair_distances_bracketed() {
    for_each_case(0x6e00004, CASES, |rng| {
        let m = mbr::<3>(rng);
        let n = mbr::<3>(rng);
        let tp = unit_weights::<3>(rng);
        let tq = unit_weights::<3>(rng);
        let p = point_in(&m, tp);
        let q = point_in(&n, tq);
        let d2 = p.dist_sq(&q);
        assert!(min_min_dist_sq(&m, &n) <= d2 + EPS);
        assert!(d2 <= max_max_dist_sq(&m, &n) + EPS);
    });
}

/// Algorithm 1 agrees with a direct evaluation of Definition 3.2.
#[test]
fn algorithm_1_matches_definition() {
    for_each_case(0x6e00005, CASES, |rng| {
        let m = mbr::<4>(rng);
        let n = mbr::<4>(rng);
        let mut s = 0.0;
        let mut best = f64::INFINITY;
        for d in 0..4 {
            let md = max_dist_d(&m, &n, d);
            s += md * md;
        }
        for d in 0..4 {
            let md = max_dist_d(&m, &n, d);
            let mm = max_min_d(&m, &n, d);
            best = best.min(s - md * md + mm * mm);
        }
        let alg = nxn_dist_sq(&m, &n);
        assert!((alg - best).abs() <= EPS.max(best.abs() * 1e-12));
    });
}

/// MAXMIN_d matches a dense 1-D sampling of Definition 3.1.
#[test]
fn max_min_d_matches_sampled_definition() {
    for_each_case(0x6e00006, CASES, |rng| {
        let m = mbr::<2>(rng);
        let n = mbr::<2>(rng);
        for dim in 0..2 {
            let analytic = max_min_d(&m, &n, dim);
            let mut sampled: f64 = 0.0;
            const STEPS: usize = 500;
            for i in 0..=STEPS {
                let p = m.lo[dim] + (m.hi[dim] - m.lo[dim]) * (i as f64 / STEPS as f64);
                let f = (p - n.lo[dim]).abs().min((p - n.hi[dim]).abs());
                sampled = sampled.max(f);
            }
            // The sampled value can only underestimate the true maximum.
            assert!(sampled <= analytic + EPS);
            // ...and must get close to it (f is 1-Lipschitz).
            let step = (m.hi[dim] - m.lo[dim]) / STEPS as f64;
            assert!(analytic <= sampled + step + EPS);
        }
    });
}

/// MAXDIST_d matches its definition on realized pairs.
#[test]
fn max_dist_d_bounds_pairs() {
    for_each_case(0x6e00007, CASES, |rng| {
        let m = mbr::<2>(rng);
        let n = mbr::<2>(rng);
        let tp = unit_weights::<2>(rng);
        let tq = unit_weights::<2>(rng);
        let p = point_in(&m, tp);
        let q = point_in(&n, tq);
        for d in 0..2 {
            assert!(p.dist_d(&q, d) <= max_dist_d(&m, &n, d) + EPS);
        }
    });
}

/// The degenerate-MBR route gives exact point-to-point distance for all
/// metrics.
#[test]
fn all_metrics_collapse_for_points() {
    for_each_case(0x6e00008, CASES, |rng| {
        let a = coords::<3>(rng, -100.0, 100.0);
        let b = coords::<3>(rng, -100.0, 100.0);
        let p = Point::new(a);
        let q = Point::new(b);
        let pm = Mbr::from_point(&p);
        let qm = Mbr::from_point(&q);
        let d2 = p.dist_sq(&q);
        assert!((min_min_dist_sq(&pm, &qm) - d2).abs() <= EPS.max(d2 * 1e-12));
        assert!((max_max_dist_sq(&pm, &qm) - d2).abs() <= EPS.max(d2 * 1e-12));
        assert!((nxn_dist_sq(&pm, &qm) - d2).abs() <= EPS.max(d2 * 1e-12));
    });
}

/// Hilbert keys of distinct cells are distinct (bijectivity spot check
/// on random cell pairs at full 2-D resolution).
#[test]
fn hilbert_injective_on_random_cells() {
    for_each_case(0x6e00009, 64, |rng| {
        let a = cell::<2>(rng, 21);
        let b = cell::<2>(rng, 21);
        if a == b {
            return;
        }
        assert_ne!(
            ann_geom::curve::hilbert(&a, 21),
            ann_geom::curve::hilbert(&b, 21)
        );
    });
}

/// Z-order keys of distinct cells are distinct.
#[test]
fn z_order_injective_on_random_cells() {
    for_each_case(0x6e0000a, 64, |rng| {
        let a = cell::<3>(rng, 20);
        let b = cell::<3>(rng, 20);
        if a == b {
            return;
        }
        assert_ne!(
            ann_geom::curve::z_order(&a, 20),
            ann_geom::curve::z_order(&b, 20)
        );
    });
}
