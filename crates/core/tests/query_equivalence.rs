//! The unified-entrypoint contract: every [`Algorithm`] variant driven
//! through `ann_core::query::run` must match brute-force ground truth and
//! stay counter-identical with a recording [`TraceSink`] attached (tracing
//! observes; it never steers).

use ann_core::brute::brute_force_aknn;
use ann_core::prelude::*;
use ann_core::trace::Side;
use ann_datagen::Rng;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, MemDisk};
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
                *v = rng.range_f64(0.0, 100.0);
            }
            (i as u64, Point::new(c))
        })
        .collect()
}

fn mbrqt_cfg() -> MbrqtConfig {
    MbrqtConfig {
        bucket_capacity: 16,
        ..Default::default()
    }
}

fn rstar_cfg() -> RStarConfig {
    RStarConfig {
        max_leaf_entries: 16,
        max_internal_entries: 8,
    }
}

/// The variants the suite drives; BNN's group size is shrunk so the test
/// trees still produce multiple batches.
fn algorithms() -> Vec<AnnRequest<'static>> {
    vec![
        AnnRequest::new(Algorithm::mba()),
        AnnRequest::new(Algorithm::mba()).threads(2),
        AnnRequest::new(Algorithm::Bnn { group_size: 64 }),
        AnnRequest::new(Algorithm::Mnn),
        AnnRequest::new(Algorithm::hnn()),
    ]
}

fn truth_sorted<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    k: usize,
    exclude_self: bool,
) -> Vec<NeighborPair> {
    let mut t = brute_force_aknn(r, s, k, exclude_self);
    t.sort_by(|a, b| {
        (a.r_oid, a.dist, a.s_oid)
            .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
            .unwrap()
    });
    t
}

/// Byte-exact comparison: under the canonical tie-break (per query,
/// ascending `(distance, s_oid)`) every algorithm must reproduce brute
/// force's neighbor ids and bit-identical distances.
fn assert_matches_truth(mut got: AnnOutput, truth: &[NeighborPair], label: &str) {
    got.sort();
    assert_eq!(got.results.len(), truth.len(), "{label}: result count");
    for (g, t) in got.results.iter().zip(truth) {
        assert_eq!(g.r_oid, t.r_oid, "{label}: query order");
        assert_eq!(g.s_oid, t.s_oid, "{label}: r#{} neighbor id", g.r_oid);
        assert_eq!(
            g.dist.to_bits(),
            t.dist.to_bits(),
            "{label}: r#{} got dist {:?} want {:?}",
            g.r_oid,
            g.dist,
            t.dist
        );
    }
}

/// Drives every algorithm × metric through the unified entrypoint against
/// one dataset pair and checks all of them against brute force.
fn check_all_variants<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    k: usize,
    exclude_self: bool,
) {
    let truth = truth_sorted(r, s, k, exclude_self);
    let p = pool(256);
    // Mixed index kinds on purpose: the entrypoint is generic per side.
    let ir = Mbrqt::bulk_build(p.clone(), r, &mbrqt_cfg()).unwrap();
    let is = RStar::bulk_build(p, s, &rstar_cfg()).unwrap();
    for req in algorithms() {
        for metric in [MetricChoice::Nxn, MetricChoice::MaxMax] {
            let label = format!(
                "{} {:?} D={D} k={k} exclude_self={exclude_self}",
                req.spec.algorithm.name(),
                metric
            );
            let out = req
                .clone()
                .k(k)
                .exclude_self(exclude_self)
                .metric(metric)
                .run(Input::Index(&ir), Input::Index(&is))
                .unwrap();
            assert_matches_truth(out, &truth, &label);
        }
    }
}

#[test]
fn every_variant_matches_brute_force_2d() {
    let r = random_points::<2>(300, 11);
    let s = random_points::<2>(320, 22);
    for k in [1, 10] {
        check_all_variants(&r, &s, k, false);
    }
}

#[test]
fn every_variant_matches_brute_force_2d_self_join() {
    let pts = random_points::<2>(280, 33);
    for k in [1, 10] {
        check_all_variants(&pts, &pts, k, true);
    }
}

#[test]
fn every_variant_matches_brute_force_10d() {
    let r = random_points::<10>(150, 44);
    let s = random_points::<10>(160, 55);
    for k in [1, 10] {
        check_all_variants(&r, &s, k, false);
    }
    let pts = random_points::<10>(140, 66);
    check_all_variants(&pts, &pts, 1, true);
}

/// Builds a fresh (pool, I_R: Mbrqt, I_S: R*) pair — fresh state for every
/// run so cold-cache I/O counters are comparable across runs.
fn fresh_indexes<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
) -> (Mbrqt<D>, RStar<D>) {
    let p = pool(64);
    let ir = Mbrqt::bulk_build(p.clone(), r, &mbrqt_cfg()).unwrap();
    let is = RStar::bulk_build(p, s, &rstar_cfg()).unwrap();
    (ir, is)
}

/// With a recording sink attached, the unified entrypoint must produce
/// the very same `AnnStats` — including logical/physical page counters —
/// and the same results as without one. Each run gets freshly built
/// indices so every comparison starts from the same cold state.
#[test]
fn recording_sink_does_not_perturb_counters() {
    let r = random_points::<2>(400, 77);
    let s = random_points::<2>(420, 88);
    let k = 3;

    for alg in [
        Algorithm::mba(),
        Algorithm::Bnn { group_size: 64 },
        Algorithm::Mnn,
    ] {
        let name = alg.name();
        let run = |req: AnnRequest<'_>| {
            let (ir, is) = fresh_indexes(&r, &s);
            match alg {
                Algorithm::Bnn { .. } => {
                    req.run(Input::<2, NoIndex>::Points(&r), Input::Index(&is))
                }
                _ => req.run(Input::Index(&ir), Input::Index(&is)),
            }
            .unwrap()
        };
        let plain_out = run(AnnRequest::new(alg).k(k));
        let sink = RecordingSink::new();
        let traced_out = run(AnnRequest::new(alg).k(k).trace(&sink));

        assert_eq!(
            traced_out.stats, plain_out.stats,
            "{name}: recording sink must not perturb counters"
        );
        assert_eq!(
            traced_out.results, plain_out.results,
            "{name}: recording sink must not perturb results"
        );
    }

    // HNN is poolless; one dataset pair suffices.
    let run_hnn = |req: AnnRequest<'_>| {
        req.k(k)
            .run(
                Input::<2, NoIndex>::Points(&r),
                Input::<2, NoIndex>::Points(&s),
            )
            .unwrap()
    };
    let plain_out = run_hnn(AnnRequest::new(Algorithm::hnn()));
    let sink = RecordingSink::new();
    let traced_out = run_hnn(AnnRequest::new(Algorithm::hnn()).trace(&sink));
    assert_eq!(traced_out.stats, plain_out.stats, "hnn stats");
    assert_eq!(traced_out.results, plain_out.results, "hnn results");
}

/// Every span a traced run opens must be closed by the time it returns,
/// for every algorithm, including the traced index builds.
#[test]
fn recording_sink_sees_balanced_spans() {
    let r = random_points::<2>(300, 99);
    let s = random_points::<2>(310, 110);
    for req in algorithms() {
        let alg = req.spec.algorithm;
        let sink = RecordingSink::new();
        let tracer = Tracer::new(&sink);
        let p = pool(64);
        let ir = Mbrqt::bulk_build_traced(p.clone(), &r, &mbrqt_cfg(), Side::R, tracer).unwrap();
        let is = RStar::bulk_build_traced(p, &s, &rstar_cfg(), Side::S, tracer).unwrap();
        req.k(2)
            .trace(&sink)
            .run(Input::Index(&ir), Input::Index(&is))
            .unwrap();
        assert_eq!(sink.open_spans(), 0, "{}: spans left open", alg.name());
        let (entered, exited) = sink.span_counts();
        assert_eq!(entered, exited, "{}: span balance", alg.name());
        assert!(entered > 0, "{}: no spans recorded", alg.name());
        let json = sink.report(alg.name()).to_json();
        assert!(
            json.starts_with('{') && json.ends_with('}'),
            "{}: report JSON malformed",
            alg.name()
        );
    }
}

/// The morsel engine is answer-invisible through the unified entrypoint:
/// every variant at every requested thread count (including `0` = one
/// worker per core) matches brute force — and therefore the serial run —
/// byte-for-byte, with and without a recording sink attached.
#[test]
fn every_variant_matches_brute_force_with_request_threads() {
    let r = random_points::<2>(300, 121);
    let s = random_points::<2>(320, 132);
    let k = 3;
    let truth = truth_sorted(&r, &s, k, false);
    let p = pool(256);
    let ir = Mbrqt::bulk_build(p.clone(), &r, &mbrqt_cfg()).unwrap();
    let is = RStar::bulk_build(p, &s, &rstar_cfg()).unwrap();
    for req in algorithms() {
        for threads in [0usize, 2, 3, 8] {
            let label = format!("{} threads={threads}", req.spec.algorithm.name());
            let out = req
                .clone()
                .k(k)
                .threads(threads)
                .run(Input::Index(&ir), Input::Index(&is))
                .unwrap();
            assert_matches_truth(out, &truth, &label);
            // Tracing a parallel run observes, never steers.
            let sink = RecordingSink::new();
            let traced = req
                .clone()
                .k(k)
                .threads(threads)
                .trace(&sink)
                .run(Input::Index(&ir), Input::Index(&is))
                .unwrap();
            assert_matches_truth(traced, &truth, &format!("{label} traced"));
        }
    }
}

#[test]
#[should_panic(expected = "requires Input::Index")]
fn mba_rejects_point_inputs() {
    let pts = random_points::<2>(10, 5);
    let _ = AnnRequest::new(Algorithm::mba()).run(
        Input::<2, NoIndex>::Points(&pts),
        Input::<2, NoIndex>::Points(&pts),
    );
}

// ---------------------------------------------------------------------
// Frozen counters: the exact point×leaf scan (DESIGN.md §11) promises that
// not one decision moves — so every `AnnStats` counter of MBA and MNN is
// pinned here to the values the pre-exact-path traversal produced on three
// seeded inputs.
// ---------------------------------------------------------------------

/// SplitMix64 seeded with the raw state. `ann_datagen::Rng::new` mixes its
/// seed first, so it draws a different stream from the same seed; the
/// `FROZEN` rows below were taken on this one, which therefore stays.
struct SplitMix(u64);

impl SplitMix {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Six blobs in `[0, 100]²`; every 16th point repeats its predecessor so
/// coincident points and distance ties are part of the pinned behaviour.
fn clustered_2d(n: usize, seed: u64) -> Vec<(u64, Point<2>)> {
    let mut rng = SplitMix(seed);
    let centers: Vec<[f64; 2]> = (0..6)
        .map(|_| [10.0 + 80.0 * rng.unit(), 10.0 + 80.0 * rng.unit()])
        .collect();
    let mut out: Vec<(u64, Point<2>)> = Vec::with_capacity(n);
    for i in 0..n {
        if i % 16 == 15 {
            let prev = out[i - 1].1;
            out.push((i as u64, prev));
            continue;
        }
        let c = centers[(rng.next_u64() % 6) as usize];
        let mut p = [0.0; 2];
        for (d, v) in p.iter_mut().enumerate() {
            let bell = rng.unit() + rng.unit() + rng.unit() + rng.unit() - 2.0;
            *v = c[d] + 6.0 * bell;
        }
        out.push((i as u64, Point::new(p)));
    }
    out
}

/// Points scattered around the main diagonal of `[0, 100]¹⁰`.
fn correlated_10d(n: usize, seed: u64) -> Vec<(u64, Point<10>)> {
    let mut rng = SplitMix(seed);
    (0..n)
        .map(|i| {
            let t = 100.0 * rng.unit();
            let mut p = [0.0; 10];
            for (d, v) in p.iter_mut().enumerate() {
                *v = t + (rng.unit() - 0.5) * (2.0 + d as f64);
            }
            (i as u64, Point::new(p))
        })
        .collect()
}

/// The seven traversal counters, then logical reads, physical reads, pool
/// hits, pool misses, evictions.
type Row = [u64; 12];

fn row(s: &AnnStats) -> Row {
    [
        s.distance_computations,
        s.lpqs_created,
        s.enqueued,
        s.pruned_on_probe,
        s.pruned_in_queue,
        s.r_nodes_expanded,
        s.s_nodes_expanded,
        s.io.logical_reads,
        s.io.physical_reads,
        s.io.pool_hits,
        s.io.pool_misses,
        s.io.evictions,
    ]
}

/// Runs MBA (serial and 3 threads) and MNN over one seeded input for
/// k ∈ {1, 10} × ±`exclude_self` × both metrics, on freshly built indexes
/// so every run starts cold. `exclude_self` runs are self-joins of `a`;
/// the others join `a` against `b`.
fn frozen_rows<const D: usize, I, B>(
    tag: &str,
    a: &[(u64, Point<D>)],
    b: &[(u64, Point<D>)],
    build: B,
    rows: &mut Vec<(String, Row)>,
) where
    I: SpatialIndex<D> + Sync,
    B: Fn(Arc<BufferPool>, &[(u64, Point<D>)]) -> I,
{
    for k in [1usize, 10] {
        for exclude_self in [false, true] {
            let s_pts = if exclude_self { a } else { b };
            let truth = truth_sorted(a, s_pts, k, exclude_self);
            for metric in [MetricChoice::Nxn, MetricChoice::MaxMax] {
                for alg in [Algorithm::mba(), Algorithm::Mnn] {
                    let label = format!(
                        "{tag} {} {metric:?} k={k} exclude_self={exclude_self}",
                        alg.name()
                    );
                    let run = |threads: usize| {
                        let p = pool(4096);
                        let ir = build(p.clone(), a);
                        let is = build(p, s_pts);
                        AnnRequest::new(alg)
                            .k(k)
                            .exclude_self(exclude_self)
                            .metric(metric)
                            .threads(threads)
                            .run(Input::Index(&ir), Input::Index(&is))
                            .unwrap()
                    };
                    let serial = run(1);
                    // The traversal counters are thread-count-invariant
                    // (pool I/O is not: workers can miss the same page).
                    let par = run(3);
                    assert_eq!(
                        row(&par.stats)[..7],
                        row(&serial.stats)[..7],
                        "{label}: 3 threads"
                    );
                    assert_matches_truth(par, &truth, &label);
                    rows.push((label.clone(), row(&serial.stats)));
                    assert_matches_truth(serial, &truth, &label);
                }
            }
        }
    }
}

/// BNN (`R` as points, `S` indexed, serial and 3 threads) and HNN over one
/// seeded input for k ∈ {1, 10} × ±`exclude_self`, BNN under both metrics;
/// inputs and indexes as in [`frozen_rows`].
fn frozen_baseline_rows<const D: usize, I, B>(
    tag: &str,
    a: &[(u64, Point<D>)],
    b: &[(u64, Point<D>)],
    build: B,
    rows: &mut Vec<(String, Row)>,
) where
    I: SpatialIndex<D> + Sync,
    B: Fn(Arc<BufferPool>, &[(u64, Point<D>)]) -> I,
{
    for k in [1usize, 10] {
        for exclude_self in [false, true] {
            let s_pts = if exclude_self { a } else { b };
            let truth = truth_sorted(a, s_pts, k, exclude_self);
            let req = |alg| AnnRequest::new(alg).k(k).exclude_self(exclude_self);
            for metric in [MetricChoice::Nxn, MetricChoice::MaxMax] {
                let label = format!("{tag} bnn {metric:?} k={k} exclude_self={exclude_self}");
                let run = |threads: usize| {
                    let is = build(pool(4096), s_pts);
                    req(Algorithm::Bnn { group_size: 64 })
                        .metric(metric)
                        .threads(threads)
                        .run(Input::<D, NoIndex>::Points(a), Input::Index(&is))
                        .unwrap()
                };
                let serial = run(1);
                let par = run(3);
                assert_eq!(
                    row(&par.stats)[..7],
                    row(&serial.stats)[..7],
                    "{label}: 3 threads"
                );
                assert_matches_truth(par, &truth, &label);
                rows.push((label.clone(), row(&serial.stats)));
                assert_matches_truth(serial, &truth, &label);
            }
            let label = format!("{tag} hnn k={k} exclude_self={exclude_self}");
            let out = req(Algorithm::hnn())
                .run(
                    Input::<D, NoIndex>::Points(a),
                    Input::<D, NoIndex>::Points(s_pts),
                )
                .unwrap();
            rows.push((label.clone(), row(&out.stats)));
            assert_matches_truth(out, &truth, &label);
        }
    }
}

fn mbrqt<const D: usize>(p: Arc<BufferPool>, pts: &[(u64, Point<D>)]) -> Mbrqt<D> {
    Mbrqt::bulk_build(p, pts, &mbrqt_cfg()).unwrap()
}

fn rstar<const D: usize>(p: Arc<BufferPool>, pts: &[(u64, Point<D>)]) -> RStar<D> {
    RStar::bulk_build(p, pts, &rstar_cfg()).unwrap()
}

/// Compares `rows` with `frozen`. On a mismatch it prints the actual
/// table in source form: a deliberate change to a traversal re-freezes by
/// pasting it over the table.
fn assert_frozen(rows: &[(String, Row)], frozen: &[(&str, Row)]) {
    let expected = frozen.iter().map(|(l, r)| (l.to_string(), *r));
    if !rows.iter().cloned().eq(expected) {
        let mut dump = String::new();
        for (l, r) in rows {
            dump.push_str(&format!("    ({l:?}, {r:?}),\n"));
        }
        panic!("counters moved; actual table:\n{dump}");
    }
}

#[test]
fn counters_are_frozen_on_three_seeded_inputs() {
    let mut rows = Vec::new();
    frozen_rows(
        "2d-clustered/mbrqt",
        &clustered_2d(600, 1),
        &clustered_2d(640, 2),
        mbrqt,
        &mut rows,
    );
    frozen_rows(
        "10d-correlated/mbrqt",
        &correlated_10d(300, 3),
        &correlated_10d(320, 4),
        mbrqt,
        &mut rows,
    );
    frozen_rows(
        "2d-clustered/rstar",
        &clustered_2d(500, 5),
        &clustered_2d(480, 6),
        rstar,
        &mut rows,
    );
    assert_frozen(&rows, FROZEN);
}

/// The same three inputs through BNN and HNN.
#[test]
fn baseline_counters_are_frozen_on_three_seeded_inputs() {
    let mut rows = Vec::new();
    frozen_baseline_rows(
        "2d-clustered/mbrqt",
        &clustered_2d(600, 1),
        &clustered_2d(640, 2),
        mbrqt,
        &mut rows,
    );
    frozen_baseline_rows(
        "10d-correlated/mbrqt",
        &correlated_10d(300, 3),
        &correlated_10d(320, 4),
        mbrqt,
        &mut rows,
    );
    frozen_baseline_rows(
        "2d-clustered/rstar",
        &clustered_2d(500, 5),
        &clustered_2d(480, 6),
        rstar,
        &mut rows,
    );
    assert_frozen(&rows, FROZEN_BASELINES);
}

/// Taken on the commit before BNN's probe moved onto the shared node scan.
#[rustfmt::skip]
const FROZEN_BASELINES: &[(&str, Row)] = &[
    ("2d-clustered/mbrqt bnn Nxn k=1 exclude_self=false", [132425, 0, 2694, 451, 0, 0, 465, 111, 0, 111, 0, 0]),
    ("2d-clustered/mbrqt bnn MaxMax k=1 exclude_self=false", [132425, 0, 2724, 421, 0, 0, 465, 111, 0, 111, 0, 0]),
    ("2d-clustered/mbrqt hnn k=1 exclude_self=false", [66792, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("2d-clustered/mbrqt bnn Nxn k=1 exclude_self=true", [96246, 0, 2047, 431, 0, 0, 353, 115, 0, 115, 0, 0]),
    ("2d-clustered/mbrqt bnn MaxMax k=1 exclude_self=true", [96246, 0, 2061, 417, 0, 0, 353, 115, 0, 115, 0, 0]),
    ("2d-clustered/mbrqt hnn k=1 exclude_self=true", [88848, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("2d-clustered/mbrqt bnn Nxn k=10 exclude_self=false", [169954, 0, 3457, 433, 0, 0, 572, 114, 0, 114, 0, 0]),
    ("2d-clustered/mbrqt bnn MaxMax k=10 exclude_self=false", [169954, 0, 3463, 427, 0, 0, 572, 114, 0, 114, 0, 0]),
    ("2d-clustered/mbrqt hnn k=10 exclude_self=false", [104444, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("2d-clustered/mbrqt bnn Nxn k=10 exclude_self=true", [121636, 0, 2595, 361, 0, 0, 432, 115, 0, 115, 0, 0]),
    ("2d-clustered/mbrqt bnn MaxMax k=10 exclude_self=true", [121636, 0, 2600, 356, 0, 0, 432, 115, 0, 115, 0, 0]),
    ("2d-clustered/mbrqt hnn k=10 exclude_self=true", [88920, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("10d-correlated/mbrqt bnn Nxn k=1 exclude_self=false", [40144, 0, 1298, 78, 0, 0, 546, 258, 0, 258, 0, 0]),
    ("10d-correlated/mbrqt bnn MaxMax k=1 exclude_self=false", [40144, 0, 1298, 78, 0, 0, 546, 258, 0, 258, 0, 0]),
    ("10d-correlated/mbrqt hnn k=1 exclude_self=false", [95514, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("10d-correlated/mbrqt bnn Nxn k=1 exclude_self=true", [37669, 0, 1196, 133, 0, 0, 492, 226, 0, 226, 0, 0]),
    ("10d-correlated/mbrqt bnn MaxMax k=1 exclude_self=true", [37669, 0, 1196, 133, 0, 0, 492, 226, 0, 226, 0, 0]),
    ("10d-correlated/mbrqt hnn k=1 exclude_self=true", [89700, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("10d-correlated/mbrqt bnn Nxn k=10 exclude_self=false", [42824, 0, 1374, 202, 0, 0, 586, 258, 0, 258, 0, 0]),
    ("10d-correlated/mbrqt bnn MaxMax k=10 exclude_self=false", [42824, 0, 1374, 202, 0, 0, 586, 258, 0, 258, 0, 0]),
    ("10d-correlated/mbrqt hnn k=10 exclude_self=false", [95514, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("10d-correlated/mbrqt bnn Nxn k=10 exclude_self=true", [40809, 0, 1278, 171, 0, 0, 527, 226, 0, 226, 0, 0]),
    ("10d-correlated/mbrqt bnn MaxMax k=10 exclude_self=true", [40809, 0, 1278, 171, 0, 0, 527, 226, 0, 226, 0, 0]),
    ("10d-correlated/mbrqt hnn k=10 exclude_self=true", [89700, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("2d-clustered/rstar bnn Nxn k=1 exclude_self=false", [81111, 0, 1464, 335, 0, 0, 152, 43, 0, 43, 0, 0]),
    ("2d-clustered/rstar bnn MaxMax k=1 exclude_self=false", [81111, 0, 1470, 329, 0, 0, 152, 43, 0, 43, 0, 0]),
    ("2d-clustered/rstar hnn k=1 exclude_self=false", [51510, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("2d-clustered/rstar bnn Nxn k=1 exclude_self=true", [79704, 0, 1463, 325, 0, 0, 149, 43, 0, 43, 0, 0]),
    ("2d-clustered/rstar bnn MaxMax k=1 exclude_self=true", [79704, 0, 1468, 320, 0, 0, 149, 43, 0, 43, 0, 0]),
    ("2d-clustered/rstar hnn k=1 exclude_self=true", [56074, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("2d-clustered/rstar bnn Nxn k=10 exclude_self=false", [102073, 0, 1819, 502, 0, 0, 194, 43, 0, 43, 0, 0]),
    ("2d-clustered/rstar bnn MaxMax k=10 exclude_self=false", [102073, 0, 1819, 502, 0, 0, 194, 43, 0, 43, 0, 0]),
    ("2d-clustered/rstar hnn k=10 exclude_self=false", [68984, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    ("2d-clustered/rstar bnn Nxn k=10 exclude_self=true", [83758, 0, 1585, 297, 0, 0, 157, 43, 0, 43, 0, 0]),
    ("2d-clustered/rstar bnn MaxMax k=10 exclude_self=true", [83758, 0, 1586, 296, 0, 0, 157, 43, 0, 43, 0, 0]),
    ("2d-clustered/rstar hnn k=10 exclude_self=true", [56126, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
];

/// Taken on the commit before the exact point×leaf scan landed.
#[rustfmt::skip]
const FROZEN: &[(&str, Row)] = &[
    ("2d-clustered/mbrqt mba Nxn k=1 exclude_self=false", [16103, 715, 2742, 13671, 1142, 115, 377, 185, 0, 185, 0, 0]),
    ("2d-clustered/mbrqt mnn Nxn k=1 exclude_self=false", [28730, 0, 8419, 20311, 0, 115, 1701, 170, 0, 170, 0, 0]),
    ("2d-clustered/mbrqt mba MaxMax k=1 exclude_self=false", [16304, 715, 3073, 13675, 1329, 115, 387, 186, 0, 186, 0, 0]),
    ("2d-clustered/mbrqt mnn MaxMax k=1 exclude_self=false", [28730, 0, 13295, 15435, 0, 115, 1701, 170, 0, 170, 0, 0]),
    ("2d-clustered/mbrqt mba Nxn k=1 exclude_self=true", [25119, 715, 4714, 21189, 2018, 115, 558, 230, 0, 230, 0, 0]),
    ("2d-clustered/mbrqt mnn Nxn k=1 exclude_self=true", [31396, 0, 12542, 18854, 0, 115, 2124, 230, 0, 230, 0, 0]),
    ("2d-clustered/mbrqt mba MaxMax k=1 exclude_self=true", [25674, 715, 5194, 21566, 2165, 115, 586, 230, 0, 230, 0, 0]),
    ("2d-clustered/mbrqt mnn MaxMax k=1 exclude_self=true", [31396, 0, 14821, 16575, 0, 115, 2124, 230, 0, 230, 0, 0]),
    ("2d-clustered/mbrqt mba Nxn k=10 exclude_self=false", [39252, 715, 13220, 27069, 4062, 115, 1177, 202, 0, 202, 0, 0]),
    ("2d-clustered/mbrqt mnn Nxn k=10 exclude_self=false", [44498, 0, 28218, 16280, 0, 115, 4347, 191, 0, 191, 0, 0]),
    ("2d-clustered/mbrqt mba MaxMax k=10 exclude_self=false", [40489, 715, 13858, 27935, 4398, 115, 1211, 203, 0, 203, 0, 0]),
    ("2d-clustered/mbrqt mnn MaxMax k=10 exclude_self=false", [44498, 0, 30681, 13817, 0, 115, 4347, 191, 0, 191, 0, 0]),
    ("2d-clustered/mbrqt mba Nxn k=10 exclude_self=true", [37900, 715, 15706, 23851, 5725, 115, 1153, 230, 0, 230, 0, 0]),
    ("2d-clustered/mbrqt mnn Nxn k=10 exclude_self=true", [45155, 0, 30401, 14754, 0, 115, 4198, 230, 0, 230, 0, 0]),
    ("2d-clustered/mbrqt mba MaxMax k=10 exclude_self=true", [38505, 715, 16363, 24199, 5942, 115, 1180, 230, 0, 230, 0, 0]),
    ("2d-clustered/mbrqt mnn MaxMax k=10 exclude_self=true", [45155, 0, 31950, 13205, 0, 115, 4198, 230, 0, 230, 0, 0]),
    ("10d-correlated/mbrqt mba Nxn k=1 exclude_self=false", [19441, 526, 2649, 17056, 1180, 226, 756, 436, 0, 436, 0, 0]),
    ("10d-correlated/mbrqt mnn Nxn k=1 exclude_self=false", [23786, 0, 5190, 18596, 0, 226, 1520, 383, 0, 383, 0, 0]),
    ("10d-correlated/mbrqt mba MaxMax k=1 exclude_self=false", [19489, 526, 2683, 17075, 1206, 226, 757, 436, 0, 436, 0, 0]),
    ("10d-correlated/mbrqt mnn MaxMax k=1 exclude_self=false", [23786, 0, 5344, 18442, 0, 226, 1520, 383, 0, 383, 0, 0]),
    ("10d-correlated/mbrqt mba Nxn k=1 exclude_self=true", [18703, 526, 3293, 15710, 1380, 226, 864, 452, 0, 452, 0, 0]),
    ("10d-correlated/mbrqt mnn Nxn k=1 exclude_self=true", [22654, 0, 7669, 14985, 0, 226, 1630, 452, 0, 452, 0, 0]),
    ("10d-correlated/mbrqt mba MaxMax k=1 exclude_self=true", [18703, 526, 3315, 15692, 1397, 226, 864, 452, 0, 452, 0, 0]),
    ("10d-correlated/mbrqt mnn MaxMax k=1 exclude_self=true", [22654, 0, 7794, 14860, 0, 226, 1630, 452, 0, 452, 0, 0]),
    ("10d-correlated/mbrqt mba Nxn k=10 exclude_self=false", [28653, 526, 9376, 19771, 2532, 226, 2919, 484, 0, 484, 0, 0]),
    ("10d-correlated/mbrqt mnn Nxn k=10 exclude_self=false", [28783, 0, 17431, 11352, 0, 226, 3805, 484, 0, 484, 0, 0]),
    ("10d-correlated/mbrqt mba MaxMax k=10 exclude_self=false", [28680, 526, 9446, 19774, 2551, 226, 2924, 484, 0, 484, 0, 0]),
    ("10d-correlated/mbrqt mnn MaxMax k=10 exclude_self=false", [28783, 0, 17540, 11243, 0, 226, 3805, 484, 0, 484, 0, 0]),
    ("10d-correlated/mbrqt mba Nxn k=10 exclude_self=true", [28151, 526, 9064, 19569, 2130, 226, 2779, 452, 0, 452, 0, 0]),
    ("10d-correlated/mbrqt mnn Nxn k=10 exclude_self=true", [27684, 0, 17582, 10102, 0, 226, 3748, 452, 0, 452, 0, 0]),
    ("10d-correlated/mbrqt mba MaxMax k=10 exclude_self=true", [28172, 526, 9122, 19578, 2136, 226, 2784, 452, 0, 452, 0, 0]),
    ("10d-correlated/mbrqt mnn MaxMax k=10 exclude_self=true", [27684, 0, 17643, 10041, 0, 226, 3748, 452, 0, 452, 0, 0]),
    ("2d-clustered/rstar mba Nxn k=1 exclude_self=false", [40622, 543, 2327, 38484, 1266, 43, 241, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mnn Nxn k=1 exclude_self=false", [18752, 0, 5462, 13290, 0, 43, 1990, 66, 0, 66, 0, 0]),
    ("2d-clustered/rstar mba MaxMax k=1 exclude_self=false", [40766, 543, 2987, 38152, 1738, 43, 245, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mnn MaxMax k=1 exclude_self=false", [18752, 0, 8114, 10638, 0, 43, 1990, 66, 0, 66, 0, 0]),
    ("2d-clustered/rstar mba Nxn k=1 exclude_self=true", [43937, 543, 3653, 40504, 2153, 43, 253, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mnn Nxn k=1 exclude_self=true", [17099, 0, 8305, 8794, 0, 43, 1808, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mba MaxMax k=1 exclude_self=true", [44007, 543, 3917, 40378, 2347, 43, 255, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mnn MaxMax k=1 exclude_self=true", [17099, 0, 9752, 7347, 0, 43, 1808, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mba Nxn k=10 exclude_self=false", [65490, 543, 12174, 53705, 6405, 43, 374, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mnn Nxn k=10 exclude_self=false", [35336, 0, 16960, 18376, 0, 43, 3370, 80, 0, 80, 0, 0]),
    ("2d-clustered/rstar mba MaxMax k=10 exclude_self=false", [65525, 543, 12592, 53464, 6680, 43, 375, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mnn MaxMax k=10 exclude_self=false", [35336, 0, 18037, 17299, 0, 43, 3370, 80, 0, 80, 0, 0]),
    ("2d-clustered/rstar mba Nxn k=10 exclude_self=true", [59442, 543, 11394, 48515, 5068, 43, 336, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mnn Nxn k=10 exclude_self=true", [29694, 0, 17486, 12208, 0, 43, 2826, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mba MaxMax k=10 exclude_self=true", [59477, 543, 11550, 48536, 5081, 43, 337, 86, 0, 86, 0, 0]),
    ("2d-clustered/rstar mnn MaxMax k=10 exclude_self=true", [29694, 0, 17918, 11776, 0, 43, 2826, 86, 0, 86, 0, 0]),
];
