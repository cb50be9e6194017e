//! Cross-crate integration tests: the whole stack — generators, storage,
//! both indices, every join algorithm — exercised together through the
//! `allnn` facade.

use allnn::core::brute::brute_force_aknn;
use allnn::core::index::validate;
use allnn::core::query::{Algorithm, AnnRequest, Input, NoIndex};
use allnn::core::stats::NeighborPair;
use allnn::core::WritableIndex;
use allnn::gorder::{gorder_join, GorderConfig};
use allnn::mbrqt::{Mbrqt, MbrqtConfig};
use allnn::rstar::{RStar, RStarConfig};
use allnn::store::{BufferPool, FileDisk, MemDisk};
use std::sync::Arc;

fn canonical(mut pairs: Vec<NeighborPair>) -> Vec<(u64, f64)> {
    pairs.sort_by(|a, b| {
        (a.r_oid, a.dist, a.s_oid)
            .partial_cmp(&(b.r_oid, b.dist, b.s_oid))
            .unwrap()
    });
    // Compare on (query, distance) — neighbor ids can differ on exact
    // distance ties.
    pairs.into_iter().map(|p| (p.r_oid, p.dist)).collect()
}

/// Asserts two canonical result lists agree up to floating-point noise
/// (GORDER computes distances in the rotated PCA space, so the last few
/// bits can differ from a direct evaluation).
fn assert_agrees(got: &[(u64, f64)], want: &[(u64, f64)], label: &str) {
    assert_eq!(got.len(), want.len(), "{label}: count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.0, w.0, "{label}: query order");
        assert!(
            (g.1 - w.1).abs() <= 1e-9 * (1.0 + w.1),
            "{label}: query {} got {} want {}",
            g.0,
            g.1,
            w.1
        );
    }
}

/// Every implemented method must agree on a realistic clustered workload.
#[test]
fn all_six_methods_agree() {
    let data = allnn::datagen::tac_like(3_000, 5);
    let k = 3;
    let truth = canonical(brute_force_aknn(&data, &data, k, true));

    let pool = Arc::new(BufferPool::new(MemDisk::new(), 256));
    let qt = Mbrqt::bulk_build(pool.clone(), &data, &MbrqtConfig::default()).unwrap();
    let rs = RStar::bulk_build(pool.clone(), &data, &RStarConfig::default()).unwrap();

    let request = |algorithm| AnnRequest::new(algorithm).k(k).exclude_self(true);
    let mba = request(Algorithm::mba());
    let mba_out = mba.run(Input::Index(&qt), Input::Index(&qt)).unwrap();
    assert_agrees(&canonical(mba_out.results), &truth, "MBA");

    let rba_out = mba.run(Input::Index(&rs), Input::Index(&rs)).unwrap();
    assert_agrees(&canonical(rba_out.results), &truth, "RBA");

    let bnn_out = request(Algorithm::Bnn { group_size: 128 })
        .run(Input::<2, NoIndex>::Points(&data), Input::Index(&rs))
        .unwrap();
    assert_agrees(&canonical(bnn_out.results), &truth, "BNN");

    let mnn_out = request(Algorithm::Mnn)
        .run(Input::Index(&qt), Input::Index(&rs))
        .unwrap();
    assert_agrees(&canonical(mnn_out.results), &truth, "MNN");

    let g_out = gorder_join(
        &data,
        &data,
        pool,
        &GorderConfig {
            k,
            exclude_self: true,
        },
    )
    .unwrap();
    assert_agrees(&canonical(g_out.results), &truth, "GORDER");

    let h_out = request(Algorithm::hnn())
        .run(
            Input::<2, NoIndex>::Points(&data),
            Input::<2, NoIndex>::Points(&data),
        )
        .unwrap();
    assert_agrees(&canonical(h_out.results), &truth, "HNN");
}

/// The full pipeline on a real file-backed disk: build, flush, reopen from
/// the meta pages, query — results must match brute force.
#[test]
fn file_backed_end_to_end() {
    let dir = std::env::temp_dir().join(format!("allnn-int-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("catalog.pages");

    let data = allnn::datagen::gaussian_clusters::<2>(2_000, 10, 0.02, 3);
    let truth = canonical(brute_force_aknn(&data, &data, 1, true));

    let (qt_meta, rs_meta);
    {
        let pool = Arc::new(BufferPool::new(FileDisk::create(&path).unwrap(), 64));
        let qt = Mbrqt::bulk_build(pool.clone(), &data, &MbrqtConfig::default()).unwrap();
        let rs = RStar::bulk_build(pool.clone(), &data, &RStarConfig::default()).unwrap();
        qt_meta = qt.meta_page();
        rs_meta = rs.meta_page();
        pool.flush_all().unwrap();
    } // drop everything: cold restart

    let pool = Arc::new(BufferPool::new(FileDisk::open(&path).unwrap(), 64));
    let qt: Mbrqt<2> = Mbrqt::open_at(pool.clone(), qt_meta, None).unwrap();
    let rs: RStar<2> = RStar::open_at(pool.clone(), rs_meta, None).unwrap();
    assert_eq!(validate(&qt).unwrap().objects, 2_000);
    assert_eq!(validate(&rs).unwrap().objects, 2_000);

    pool.clear().unwrap(); // cold cache for the query phase
    let out = AnnRequest::new(Algorithm::mba())
        .exclude_self(true)
        .run(Input::Index(&qt), Input::Index(&rs))
        .unwrap();
    assert_agrees(&canonical(out.results), &truth, "file-backed");
    assert!(out.stats.io.physical_reads > 0, "cold start must hit disk");

    std::fs::remove_dir_all(&dir).ok();
}

/// Results must be identical regardless of buffer pool size, for every
/// method (the pool only changes *when* pages are fetched).
#[test]
fn results_independent_of_pool_size() {
    let data = allnn::datagen::fc_like(1_500, 9);
    let mut reference: Option<Vec<(u64, f64)>> = None;
    for frames in [8usize, 64, 1024] {
        let pool = Arc::new(BufferPool::new(MemDisk::new(), frames));
        let qt = Mbrqt::bulk_build(pool.clone(), &data, &MbrqtConfig::default()).unwrap();
        let out = AnnRequest::new(Algorithm::mba())
            .k(2)
            .exclude_self(true)
            .run(Input::Index(&qt), Input::Index(&qt))
            .unwrap();
        let canon = canonical(out.results);
        match &reference {
            None => reference = Some(canon),
            Some(r) => assert_agrees(&canon, r, &format!("pool size {frames}")),
        }
    }
}

/// The two indices may live in *separate* pools (e.g. different devices);
/// I/O is then accounted across both.
#[test]
fn separate_pools_per_index() {
    let r = allnn::datagen::uniform::<2>(1_000, 4);
    let s = allnn::datagen::uniform::<2>(1_000, 5);
    let pool_r = Arc::new(BufferPool::new(MemDisk::new(), 16));
    let pool_s = Arc::new(BufferPool::new(MemDisk::new(), 16));
    let ir = Mbrqt::bulk_build(pool_r, &r, &MbrqtConfig::default()).unwrap();
    let is = Mbrqt::bulk_build(pool_s, &s, &MbrqtConfig::default()).unwrap();
    let out = AnnRequest::new(Algorithm::mba())
        .run(Input::Index(&ir), Input::Index(&is))
        .unwrap();
    let truth = canonical(brute_force_aknn(&r, &s, 1, false));
    assert_agrees(&canonical(out.results), &truth, "separate pools");
    assert!(out.stats.io.logical_reads > 0);
}

/// Table 2 scale sanity: a mid-sized TAC-like AkNN run completes and
/// produces exactly k results per star.
#[test]
fn aknn_produces_k_results_per_query() {
    let data = allnn::datagen::tac_like(5_000, 77);
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 256));
    let qt = Mbrqt::bulk_build(pool, &data, &MbrqtConfig::default()).unwrap();
    for k in [1usize, 10] {
        let out = AnnRequest::new(Algorithm::mba())
            .k(k)
            .exclude_self(true)
            .run(Input::Index(&qt), Input::Index(&qt))
            .unwrap();
        assert_eq!(out.results.len(), 5_000 * k);
        // Per-query counts.
        let mut counts = std::collections::HashMap::new();
        for p in &out.results {
            *counts.entry(p.r_oid).or_insert(0usize) += 1;
            assert_ne!(p.r_oid, p.s_oid, "self-match leaked");
        }
        assert!(counts.values().all(|&c| c == k));
    }
}
