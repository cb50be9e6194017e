//! End-to-end correctness of the GORDER join against brute force.

use ann_core::brute::brute_force_aknn;
use ann_core::node::ObjectEntry;
use ann_core::trace::{RecordingSink, Tracer};
use ann_datagen::Rng;
use ann_geom::Point;
use ann_gorder::join::{R_BLOCK_PAGES, SEGMENTS_PER_DIM, S_BLOCK_PAGES};
use ann_gorder::{gorder_join, gorder_join_traced, GorderConfig};
use ann_store::{BufferPool, HeapFile, MemDisk};
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

fn check<const D: usize>(
    r: &[(u64, Point<D>)],
    s: &[(u64, Point<D>)],
    cfg: &GorderConfig,
    label: &str,
) {
    let truth = {
        let mut t = brute_force_aknn(r, s, cfg.k, cfg.exclude_self);
        t.sort_by(|a, b| {
            (a.r_oid, a.dist, a.s_oid)
                .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
                .unwrap()
        });
        t
    };
    let mut out = gorder_join(r, s, pool(128), cfg).unwrap();
    out.sort();
    assert_eq!(out.results.len(), truth.len(), "{label}: count");
    for (g, t) in out.results.iter().zip(&truth) {
        assert_eq!(g.r_oid, t.r_oid, "{label}: query order");
        assert_eq!(g.s_oid, t.s_oid, "{label}: r#{} neighbor id", g.r_oid);
        // Distances are computed in PCA space, so they may differ from
        // brute force in the last ulp.
        assert!(
            (g.dist - t.dist).abs() <= 1e-9 * (1.0 + t.dist),
            "{label}: r#{} got {} want {}",
            g.r_oid,
            g.dist,
            t.dist
        );
    }
}

#[test]
fn matches_brute_force_2d() {
    let r = random_points::<2>(700, 11);
    let s = random_points::<2>(800, 22);
    check(&r, &s, &GorderConfig::default(), "2d k=1");
}

#[test]
fn matches_brute_force_k5() {
    let r = random_points::<2>(300, 33);
    let s = random_points::<2>(350, 44);
    let cfg = GorderConfig {
        k: 5,
        ..Default::default()
    };
    check(&r, &s, &cfg, "2d k=5");
}

#[test]
fn matches_brute_force_10d_correlated() {
    // The FC-like data is GORDER's best case (PCA concentrates variance).
    let r = ann_datagen::fc_like(400, 1);
    let s = ann_datagen::fc_like(450, 2);
    check(&r, &s, &GorderConfig::default(), "10d");
}

#[test]
fn self_join_with_exclusion() {
    let pts = random_points::<2>(400, 55);
    let cfg = GorderConfig {
        k: 2,
        exclude_self: true,
    };
    check(&pts, &pts, &cfg, "self-join");
}

/// Records of a `D`-dimensional point in one outer (`R`) block and one
/// inner (`S`) block.
fn block_records<const D: usize>() -> (usize, usize) {
    let heap = HeapFile::create(pool(4), ObjectEntry::<D>::SIZE).unwrap();
    let per_page = heap.records_per_page();
    (per_page * R_BLOCK_PAGES, per_page * S_BLOCK_PAGES)
}

/// Inputs sized around the block boundaries (one record short of a full
/// block, a full block, one record into the next, several blocks) on both
/// sides: the last, partial block of either file changes no result.
#[test]
fn block_sizes_do_not_change_results() {
    let (r_block, s_block) = block_records::<3>();
    for (nr, ns) in [
        (r_block - 1, s_block + 1),
        (r_block, s_block),
        (r_block + 1, s_block - 1),
        (7, 3 * s_block + 1),
    ] {
        let r = random_points::<3>(nr, 66);
        let s = random_points::<3>(ns, 77);
        check(
            &r,
            &s,
            &GorderConfig::default(),
            &format!("|R|={nr} |S|={ns}"),
        );
    }
}

/// Inputs sized around the grid's resolution: fewer points than segments
/// per dimension (most cells empty), about one per segment, and about one
/// per cell (points on both sides of many cell boundaries).
#[test]
fn grid_granularity_does_not_change_results() {
    let r = random_points::<2>(200, 88);
    let segments = SEGMENTS_PER_DIM as usize;
    for ns in [
        2,
        segments - 1,
        segments,
        segments + 1,
        segments * segments + 1,
    ] {
        let s = random_points::<2>(ns, 99);
        check(&r, &s, &GorderConfig::default(), &format!("|S|={ns}"));
    }
}

#[test]
fn empty_inputs() {
    let pts = random_points::<2>(50, 1);
    let out = gorder_join::<2>(&[], &pts, pool(16), &GorderConfig::default()).unwrap();
    assert!(out.results.is_empty());
    let out = gorder_join::<2>(&pts, &[], pool(16), &GorderConfig::default()).unwrap();
    assert!(out.results.is_empty());
}

#[test]
fn schedule_prunes_far_blocks() {
    // Two well separated clusters of one outer block each (so four inner
    // blocks each): the join of either cluster must not scan a block of
    // the other.
    let (r_block, _) = block_records::<10>();
    let mut rng = Rng::new(7);
    let pts: Vec<(u64, Point<10>)> = (0..2 * r_block as u64)
        .map(|i| {
            let mut c = [0.0; 10];
            for v in c.iter_mut() {
                *v = rng.f64();
            }
            if i % 2 == 1 {
                c[0] += 1000.0;
            }
            (i, Point::new(c))
        })
        .collect();
    let sink = RecordingSink::new();
    let cfg = GorderConfig::default();
    let out = gorder_join_traced(&pts, &pts, pool(256), &cfg, Tracer::new(&sink)).unwrap();
    assert_eq!(out.results.len(), 2 * r_block);
    let blocks = sink.report("two clusters").gorder;
    assert_eq!(
        (
            blocks.outer_blocks,
            blocks.inner_scanned,
            blocks.inner_skipped
        ),
        (2, 8, 8),
        "each outer block must skip the other cluster's four inner blocks"
    );
}

/// Two coincident `S` points given in descending oid order: the smaller
/// oid wins the tie, as in brute force, whichever is scanned first.
#[test]
fn coincident_candidates_resolve_to_smallest_oid() {
    let r = [(0, Point::new([0.0, 0.0]))];
    let s = [(9, Point::new([1.0, 1.0])), (3, Point::new([1.0, 1.0]))];
    for k in [1, 2] {
        for exclude_self in [false, true] {
            let cfg = GorderConfig { k, exclude_self };
            check(&r, &s, &cfg, &format!("k={k} exclude_self={exclude_self}"));
        }
    }
}

/// `k` beyond `|S|` returns every candidate, and at `k = usize::MAX` the
/// self-join's extra room must not overflow or size an allocation.
#[test]
fn huge_k_returns_every_candidate() {
    let pts = random_points::<2>(50, 3);
    for exclude_self in [false, true] {
        let cfg = GorderConfig {
            k: usize::MAX,
            exclude_self,
        };
        check(&pts, &pts, &cfg, "k = usize::MAX");
        let out = gorder_join(&pts, &pts, pool(16), &cfg).unwrap();
        let per_point = if exclude_self { 49 } else { 50 };
        assert_eq!(out.results.len(), 50 * per_point);
    }
}

#[test]
fn k_zero_returns_empty() {
    let pts = random_points::<2>(50, 2);
    for exclude_self in [false, true] {
        let cfg = GorderConfig { k: 0, exclude_self };
        let out = gorder_join(&pts, &pts, pool(16), &cfg).unwrap();
        assert!(out.results.is_empty());
    }
}

/// The join's work and I/O on one seeded self-join, pinned: changing how
/// a point keeps its k best must not move a distance test or a page read.
#[test]
fn counters_are_pinned_on_one_seeded_input() {
    let pts = ann_datagen::fc_like(1200, 31);
    let cfg = GorderConfig {
        k: 5,
        exclude_self: true,
    };
    let out = gorder_join(&pts, &pts, pool(16), &cfg).unwrap();
    assert_eq!(
        (out.stats.distance_computations, out.stats.io.physical_reads),
        (655_542, 24)
    );
}

#[test]
fn io_is_charged() {
    let r = random_points::<2>(2000, 111);
    let s = random_points::<2>(2000, 222);
    let p = pool(8); // tiny pool forces physical I/O
    let out = gorder_join(&r, &s, p, &GorderConfig::default()).unwrap();
    assert!(out.stats.io.logical_reads > 0);
    assert!(out.stats.io.physical_reads > 0);
    assert!(
        out.stats.io.physical_writes > 0,
        "sorted blocks are written"
    );
}
