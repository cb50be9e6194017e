//! Failure-injection tests: every public operation must surface storage
//! errors as `Err` (never panic) when the disk dies mid-flight, and
//! must never return silently-partial results.

use ann_core::index::validate;
use ann_core::query::{Algorithm, AnnRequest, Input};
use ann_core::{AnnOutput, QueryResult, SpatialIndex};
use ann_datagen::Rng;
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_rstar::{RStar, RStarConfig};
use ann_store::{BufferPool, FaultyDisk, MemDisk};
use std::sync::Arc;

fn random_points(n: usize, seed: u64) -> Vec<(u64, Point<2>)> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|i| {
            (
                i as u64,
                Point::new([rng.range_f64(0.0, 100.0), rng.range_f64(0.0, 100.0)]),
            )
        })
        .collect()
}

/// The paper's MBA (k = 1, NXNDIST) through the unified entrypoint.
fn mba<IR, IS>(ir: &IR, is: &IS) -> QueryResult<AnnOutput>
where
    IR: SpatialIndex<2> + Sync,
    IS: SpatialIndex<2> + Sync,
{
    AnnRequest::new(Algorithm::mba()).run(Input::Index(ir), Input::Index(is))
}

/// Small-node configs so even a 600-point dataset spans many pages.
fn qt_cfg() -> MbrqtConfig {
    MbrqtConfig {
        bucket_capacity: 16,
        ..Default::default()
    }
}

fn rs_cfg() -> RStarConfig {
    RStarConfig {
        max_leaf_entries: 16,
        max_internal_entries: 8,
    }
}

/// Number of disk operations a healthy end-to-end run needs.
fn healthy_op_count(pts: &[(u64, Point<2>)]) -> u64 {
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 16));
    let ir = Mbrqt::bulk_build(pool.clone(), pts, &qt_cfg()).unwrap();
    let is = RStar::bulk_build(pool.clone(), pts, &rs_cfg()).unwrap();
    mba(&ir, &is).unwrap();
    let s = pool.stats();
    s.physical_reads + s.physical_writes + pool.num_pages() as u64
}

#[test]
fn every_budget_point_errors_cleanly() {
    // Drive the full build+query pipeline with every possible failure
    // point in a coarse sweep; each run must either fully succeed or
    // return Err — and must never panic.
    let pts = random_points(600, 1);
    let total = healthy_op_count(&pts);
    assert!(total > 20, "pipeline should touch the disk");

    let mut failures = 0;
    let mut successes = 0;
    let step = (total / 25).max(1);
    let mut budget = 0;
    while budget <= total + step {
        let pool = Arc::new(BufferPool::new(
            FaultyDisk::new(MemDisk::new(), budget),
            16, // small pool: evictions force mid-run disk traffic
        ));
        let result = (|| -> ann_core::QueryResult<usize> {
            let ir = Mbrqt::bulk_build(pool.clone(), &pts, &qt_cfg())?;
            let is = RStar::bulk_build(pool.clone(), &pts, &rs_cfg())?;
            let out = mba(&ir, &is)?;
            Ok(out.results.len())
        })();
        match result {
            Ok(n) => {
                successes += 1;
                assert_eq!(n, 600, "a successful run must be complete");
            }
            Err(_) => failures += 1,
        }
        budget += step;
    }
    assert!(failures > 0, "small budgets must fail");
    assert!(successes > 0, "large budgets must succeed");
}

#[test]
fn incremental_insert_failures_do_not_corrupt_earlier_state() {
    let pts = random_points(400, 2);
    let universe = ann_geom::Mbr::new([0.0, 0.0], [100.0, 100.0]);
    // Calibrate: how many physical ops does the full healthy insert
    // sequence need under the same tiny pool?
    let healthy_ops = {
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 8));
        let mut tree = Mbrqt::create(pool.clone(), universe, &qt_cfg()).unwrap();
        for &(oid, p) in &pts {
            tree.insert(oid, p).unwrap();
        }
        let s = pool.stats();
        s.physical_reads + s.physical_writes + pool.num_pages() as u64
    };
    // Half the budget: the fault must hit mid-sequence.
    let pool = Arc::new(BufferPool::new(
        FaultyDisk::new(MemDisk::new(), healthy_ops / 2),
        8,
    ));
    let mut tree = Mbrqt::create(pool.clone(), universe, &qt_cfg()).unwrap();
    let mut inserted = 0u64;
    for &(oid, p) in &pts {
        match tree.insert(oid, p) {
            Ok(()) => inserted += 1,
            Err(_) => break,
        }
    }
    assert!(inserted > 0, "some inserts must succeed before the fault");
    assert!(
        inserted < 400,
        "the budget must be exhausted before completion"
    );
    // NOTE: the failed insert may have left a torn multi-page update on
    // the *failing* disk; what must hold is that the in-memory tree
    // rejects further use gracefully (no panics) — checked implicitly by
    // reaching this point — and that a tree rebuilt on a healthy disk
    // from the successfully inserted prefix validates.
    let healthy = Arc::new(BufferPool::new(MemDisk::new(), 64));
    let rebuilt =
        Mbrqt::bulk_build(healthy, &pts[..inserted as usize], &MbrqtConfig::default()).unwrap();
    assert_eq!(validate(&rebuilt).unwrap().objects, inserted);
}

// ---------------------------------------------------------------------------
// Scheduled-fault sweeps: torn writes, bit rot, transient errors.
//
// These drive the journaled update paths through `FaultyDisk`'s
// deterministic per-operation schedule. The shared `MemDisk` survives the
// "crash", so a fresh pool over it models a process restart; reopening
// must then either recover a consistent tree or report `Corrupt` — never
// panic, never serve a silently partial index.
// ---------------------------------------------------------------------------

use ann_datagen::splitmix64;
use ann_store::{InjectedFault, RetryPolicy, RetryScope, StoreError, FRAME_SIZE};

/// Disk operations a healthy MBRQT bulk build needs (op indexing matches
/// `FaultyDisk`: every read, write and allocation counts).
fn build_op_count(pts: &[(u64, Point<2>)]) -> u64 {
    let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
    let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 16));
    Mbrqt::bulk_build(pool, pts, &qt_cfg()).unwrap();
    fd.op_count()
}

#[test]
fn torn_write_crash_during_build_never_exposes_partial_tree() {
    let pts = random_points(500, 3);
    let total = build_op_count(&pts);
    assert!(total > 40, "build should touch the disk");

    let step = (total / 24).max(1);
    let (mut recovered_full, mut unopenable) = (0u32, 0u32);
    let mut op = 0;
    while op < total {
        let mem = Arc::new(MemDisk::new());
        let fd = Arc::new(FaultyDisk::unlimited(Arc::clone(&mem)));
        fd.inject_at(
            op,
            InjectedFault::TornWrite {
                persist: (splitmix64(op) as usize) % FRAME_SIZE,
            },
        );
        let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 16));
        assert!(
            Mbrqt::bulk_build(pool, &pts, &qt_cfg()).is_err(),
            "a scheduled crash inside the build must surface as Err"
        );

        // "Restart": a fresh pool over the surviving media.
        let pool = Arc::new(BufferPool::new(Arc::clone(&mem), 64));
        match Mbrqt::<2>::open_at(pool, 0, None) {
            Ok(tree) => {
                // An openable tree must be the *complete* one: the meta
                // page only ever commits after every node page is durable.
                assert_eq!(validate(&tree).unwrap().objects, 500);
                recovered_full += 1;
            }
            Err(_) => unopenable += 1,
        }
        op += step;
    }
    assert!(
        unopenable > 0,
        "crashes before the meta commit must leave an unopenable tree"
    );
    // The very last scheduled ops hit during/after the meta commit, where
    // journal recovery must reconstruct the full tree.
    let _ = recovered_full;
}

#[test]
fn torn_write_crash_during_inserts_recovers_to_a_point_consistent_state() {
    let pts = random_points(250, 7);
    let universe = ann_geom::Mbr::new([0.0, 0.0], [100.0, 100.0]);

    // Ops consumed by create + the full insert sequence, for sweep bounds.
    let total = {
        let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
        let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 8));
        let mut tree = Mbrqt::create(pool, universe, &qt_cfg()).unwrap();
        for &(oid, p) in &pts {
            tree.insert(oid, p).unwrap();
        }
        fd.op_count()
    };

    let step = (total / 20).max(1);
    let mut mid_states = 0u32;
    let mut op = step; // skip op 0: create() itself may not even start
    while op < total {
        let mem = Arc::new(MemDisk::new());
        let fd = Arc::new(FaultyDisk::unlimited(Arc::clone(&mem)));
        fd.inject_at(
            op,
            InjectedFault::TornWrite {
                persist: (splitmix64(op ^ 0xDEAD) as usize) % FRAME_SIZE,
            },
        );
        let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 8));
        let mut inserted = 0u64;
        let crashed = match Mbrqt::create(pool, universe, &qt_cfg()) {
            Err(_) => true,
            Ok(mut tree) => {
                let mut hit = false;
                for &(oid, p) in &pts {
                    match tree.insert(oid, p) {
                        Ok(()) => inserted += 1,
                        Err(_) => {
                            hit = true;
                            break;
                        }
                    }
                }
                hit
            }
        };

        if crashed {
            // Restart over the surviving media. Each insert is one atomic
            // journal commit, so recovery lands on a tree holding exactly
            // the successful prefix — or prefix + 1 when the crash hit
            // after the commit point (insert reported Err, but the batch
            // was durable and replay completes it).
            let pool = Arc::new(BufferPool::new(Arc::clone(&mem), 64));
            match Mbrqt::<2>::open_at(pool, 0, None) {
                Ok(tree) => {
                    let objects = validate(&tree).unwrap().objects;
                    assert!(
                        objects == inserted || objects == inserted + 1,
                        "recovered {objects} objects, expected {inserted} or {}",
                        inserted + 1
                    );
                    if objects > 0 && objects < 250 {
                        mid_states += 1;
                    }
                }
                Err(_) => {
                    // Only acceptable when the crash predates the first
                    // durable commit (nothing referenced the meta page yet).
                    assert_eq!(inserted, 0, "an established tree must reopen after a crash");
                }
            }
        }
        op += step;
    }
    assert!(mid_states > 0, "the sweep must hit mid-sequence crashes");
}

#[test]
fn bit_rot_is_detected_or_harmless_never_silent() {
    let pts = random_points(400, 11);
    let total = build_op_count(&pts);
    let step = (total / 24).max(1);
    let (mut detected, mut intact) = (0u32, 0u32);
    let mut op = 0;
    while op < total {
        let mem = Arc::new(MemDisk::new());
        let fd = Arc::new(FaultyDisk::unlimited(Arc::clone(&mem)));
        fd.inject_at(
            op,
            InjectedFault::BitFlip {
                bit: (splitmix64(op ^ 0xB17F) as usize) % (FRAME_SIZE * 8),
            },
        );
        let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 16));
        let built = Mbrqt::bulk_build(pool.clone(), &pts, &qt_cfg());
        let flipped_on_read = match built {
            // A flip on a read is caught immediately by the pool's
            // checksum verification and surfaces as Corrupt.
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Corrupt { .. }),
                    "bit rot must surface as Corrupt, got {e}"
                );
                assert!(pool.stats().checksum_failures > 0);
                true
            }
            Ok(_) => false, // a flip on a write is silent for now
        };

        // Restart and interrogate the media.
        let pool = Arc::new(BufferPool::new(Arc::clone(&mem), 64));
        match Mbrqt::<2>::open_at(pool.clone(), 0, None) {
            Ok(tree) => {
                // `open` validated the whole tree, so every reachable page
                // passed its checksum: queries must see the full dataset.
                let out = mba(&tree, &tree).expect("queries over a validated tree succeed");
                assert_eq!(out.results.len(), 400, "no silently partial results");
                intact += 1;
            }
            Err(e) => {
                assert!(
                    matches!(e, StoreError::Corrupt { .. }),
                    "reopen over rotted media must report Corrupt, got {e}"
                );
                detected += 1;
            }
        }
        let _ = flipped_on_read;
        op += step;
    }
    assert!(detected > 0, "some flips must be caught by checksums");
    assert!(intact > 0, "flips on read paths leave the media intact");
}

#[test]
fn transient_faults_succeed_under_retry_and_are_counted() {
    let pts = random_points(300, 13);
    let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
    for k in [3, 17, 41, 97] {
        fd.inject_at(k, InjectedFault::Transient);
    }
    let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 16));
    // Default policy: 3 attempts, so each scheduled transient recovers.
    let tree = Mbrqt::bulk_build(pool.clone(), &pts, &qt_cfg()).unwrap();
    assert_eq!(validate(&tree).unwrap().objects, 300);
    assert!(
        pool.stats().retries >= 4,
        "each transient fault must be retried and counted"
    );
}

#[test]
fn transient_faults_surface_when_retry_is_disabled() {
    let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
    fd.inject_at(2, InjectedFault::Transient);
    let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 16));
    let _retry = RetryScope::enter(Some(RetryPolicy {
        max_attempts: 1,
        ..Default::default()
    }));
    let Err(err) = Mbrqt::bulk_build(pool, &random_points(100, 17), &qt_cfg()) else {
        panic!("the un-retried transient fault must surface");
    };
    assert!(matches!(err, StoreError::Injected { transient: true }));
}

#[test]
fn exhausted_budget_is_a_permanent_injected_fault() {
    let pool = Arc::new(BufferPool::new(FaultyDisk::new(MemDisk::new(), 5), 8));
    let Err(err) = Mbrqt::bulk_build(pool, &random_points(100, 19), &qt_cfg()) else {
        panic!("an exhausted budget must surface");
    };
    assert!(matches!(err, StoreError::Injected { transient: false }));
}

// ---------------------------------------------------------------------------
// In-memory rollback: `WritableIndex::update` puts the tree back when the
// commit fails, so the handle keeps matching the disk and stays usable.
// ---------------------------------------------------------------------------

use ann_core::index::collect_objects;
use ann_core::tree_file::WritableIndex;

/// Two clusters of points, far apart.
const CLUSTERS: [[f64; 2]; 5] = [
    [1.0, 1.0],
    [2.0, 2.0],
    [90.0, 90.0],
    [91.0, 91.0],
    [92.0, 92.0],
];

fn cluster_points() -> Vec<(u64, Point<2>)> {
    (0..).zip(CLUSTERS.map(Point::new)).collect()
}

/// One leg: build `CLUSTERS` through `create` + inserts, optionally turn
/// versioning on, then fail the next insert at its commit with an
/// un-retried transient fault. The update's body runs entirely in the
/// warm pool, so the fault lands after it moved the in-memory header.
fn rollback_leg(versioned: bool) {
    let mem = Arc::new(MemDisk::new());
    let fd = Arc::new(FaultyDisk::unlimited(Arc::clone(&mem)));
    let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 256));
    let _retry = RetryScope::enter(Some(RetryPolicy {
        max_attempts: 1,
        ..Default::default()
    }));
    let universe = ann_geom::Mbr::new([0.0, 0.0], [100.0, 100.0]);
    let mut tree = Mbrqt::create(pool, universe, &MbrqtConfig::default()).unwrap();
    for (oid, p) in cluster_points() {
        tree.insert(oid, p).unwrap();
    }
    let head = versioned.then(|| tree.enable_versioning(8).unwrap());
    validate(&tree).unwrap();
    let state = |t: &Mbrqt<2>| (t.root_page(), t.num_points(), t.bounds());
    let update = |t: &mut Mbrqt<2>| t.insert(5, Point::new([95.0, 95.0]));
    let leg = format!("versioned={versioned}");
    let before = state(&tree);

    fd.inject_at(fd.op_count(), InjectedFault::Transient);
    let err = update(&mut tree).err();
    assert!(
        matches!(err, Some(StoreError::Injected { transient: true })),
        "{leg}: the scheduled fault must fail the update, got {err:?}"
    );
    assert!(
        state(&tree) == before,
        "{leg}: the failed update moved the tree"
    );
    validate(&tree).unwrap();

    // The same update, unfaulted, does move it: there was something to
    // roll back.
    update(&mut tree).unwrap();
    let moved = state(&tree);
    assert!(moved != before, "{leg}");

    tree.insert(6, Point::new([50.0, 50.0])).unwrap();
    let meta_page = tree.meta_page();
    tree.flush().unwrap();
    drop(tree);
    let reopened =
        Mbrqt::<2>::open_at(Arc::new(BufferPool::new(mem, 64)), meta_page, head).unwrap();
    assert_eq!(reopened.num_points(), moved.1 + 1, "{leg}");
    let objects = collect_objects(&reopened).unwrap();
    assert!(
        objects.iter().any(|o| o.0 == 6),
        "{leg}: the reopen lacks the last insert"
    );
}

#[test]
fn failed_update_rolls_the_tree_back() {
    for versioned in [false, true] {
        rollback_leg(versioned);
    }
}

// ---------------------------------------------------------------------------
// Typed rejection: a meta page of another kind, another `D` or an older
// layout (v1, v2) opens as `Corrupt` (never a misparse, never a panic),
// both plain and through a manifest head.
// ---------------------------------------------------------------------------

use ann_core::tree_file::Params;
use ann_store::{PageId, PageStore};

/// Where a tree lives once its handle is gone: disk, meta page, head.
type OnDisk = (Arc<MemDisk>, PageId, Option<PageId>);

/// A bulk build over `CLUSTERS`.
type Build<T> = fn(Arc<BufferPool>, &[(u64, Point<2>)]) -> ann_store::Result<T>;

fn mbrqt_build(pool: Arc<BufferPool>, pts: &[(u64, Point<2>)]) -> ann_store::Result<Mbrqt<2>> {
    Mbrqt::bulk_build(pool, pts, &MbrqtConfig::default())
}

/// Four entries per node: STR packs the five points into two leaves
/// under a root, so the meta page records height 2.
fn rstar_build(pool: Arc<BufferPool>, pts: &[(u64, Point<2>)]) -> ann_store::Result<RStar<2>> {
    let cfg = RStarConfig {
        max_leaf_entries: 4,
        max_internal_entries: 4,
    };
    RStar::bulk_build(pool, pts, &cfg)
}

/// `CLUSTERS` in a tree bulk-built by `build`, flushed and dropped;
/// versioned or not, and with its meta page rewritten in the layout of
/// meta version `old` (1 or 2) if one is given.
fn tree_on_disk<T: WritableIndex<2>>(build: Build<T>, versioned: bool, old: Option<u8>) -> OnDisk {
    let mem = Arc::new(MemDisk::new());
    let pool = Arc::new(BufferPool::new(Arc::clone(&mem), 64));
    let mut tree = build(pool, &cluster_points()).unwrap();
    let head = versioned.then(|| tree.enable_versioning(8).unwrap());
    if let Some(version) = old {
        let bytes = old_meta_page(&tree, version);
        tree.transact(|txn| {
            txn.with_page_mut(tree.meta_page(), |page| {
                page.fill(0);
                page[..bytes.len()].copy_from_slice(&bytes);
            })
        })
        .unwrap();
    }
    tree.flush().unwrap();
    (mem, tree.meta_page(), head)
}

/// The meta page as the v1 per-kind codecs or the v2 shared codec wrote
/// it, same values. Both stored the three tree constants v3 dropped: the
/// MBRQT's maximum depth (48) and the R*-tree's minimum fill (40 %) and
/// forced-reinsertion share (30 %).
fn old_meta_page<T: WritableIndex<2>>(tree: &T, version: u8) -> Vec<u8> {
    fn words(out: &mut Vec<u8>, words: &[usize]) {
        words
            .iter()
            .for_each(|&w| out.extend((w as u32).to_le_bytes()));
    }
    fn mbr(out: &mut Vec<u8>, m: ann_geom::Mbr<2>) {
        m.lo.iter()
            .chain(&m.hi)
            .for_each(|v| out.extend(v.to_le_bytes()));
    }
    let (mut out, root) = (Vec::new(), tree.root_page() as usize);
    let n = tree.num_points().to_le_bytes();
    match (tree.params(), version) {
        (Params::Mbrqt(p), 1) => {
            out.extend(b"MBRQTv1\0");
            words(&mut out, &[2, root]);
            out.extend(n);
            let flag = usize::from(p.use_subtree_mbrs);
            words(&mut out, &[p.bucket_capacity, p.levels_per_node, 48, flag]);
            mbr(&mut out, p.universe);
            mbr(&mut out, tree.bounds());
        }
        (Params::RStar(p), 1) => {
            out.extend(b"RSTARv1\0");
            words(&mut out, &[2, root, p.height as usize]);
            out.extend(n);
            words(&mut out, &[p.max_leaf, p.max_internal, 40, 30]);
            mbr(&mut out, tree.bounds());
        }
        (Params::Mbrqt(p), 2) => {
            out.extend(b"MBRQTv2\0");
            words(&mut out, &[2, root]);
            out.extend(n);
            mbr(&mut out, tree.bounds());
            mbr(&mut out, p.universe);
            let flag = usize::from(p.use_subtree_mbrs);
            words(&mut out, &[p.bucket_capacity, p.levels_per_node, 48, flag]);
        }
        (Params::RStar(p), 2) => {
            out.extend(b"RSTARv2\0");
            words(&mut out, &[2, root]);
            out.extend(n);
            mbr(&mut out, tree.bounds());
            let height = p.height as usize;
            words(&mut out, &[height, p.max_leaf, p.max_internal, 40, 30]);
        }
        (_, v) => panic!("no meta layout v{v}"),
    }
    out
}

fn assert_corrupt<T: WritableIndex<D>, const D: usize>(what: &str, (mem, meta, head): &OnDisk) {
    let pool = Arc::new(BufferPool::new(Arc::clone(mem), 64));
    match T::open_at(pool, *meta, *head) {
        Err(StoreError::Corrupt { .. }) => {}
        Err(e) => panic!("{what}: expected Corrupt, got {e:?}"),
        Ok(_) => panic!("{what}: expected Corrupt, but it opened"),
    }
}

#[test]
fn meta_page_of_another_kind_dimension_or_version_is_corrupt() {
    for versioned in [false, true] {
        let qt = tree_on_disk(mbrqt_build, versioned, None);
        let rs = tree_on_disk(rstar_build, versioned, None);
        let leg = |what: &str| format!("{what} (versioned={versioned})");
        assert_corrupt::<RStar<2>, 2>(&leg("MBRQT opened as R*-tree"), &qt);
        assert_corrupt::<Mbrqt<2>, 2>(&leg("R*-tree opened as MBRQT"), &rs);
        assert_corrupt::<Mbrqt<3>, 3>(&leg("D = 2 MBRQT opened at D = 3"), &qt);
        assert_corrupt::<RStar<3>, 3>(&leg("D = 2 R*-tree opened at D = 3"), &rs);
        for version in [1, 2] {
            let old = tree_on_disk(mbrqt_build, versioned, Some(version));
            assert_corrupt::<Mbrqt<2>, 2>(&leg(&format!("v{version} MBRQT meta page")), &old);
            let old = tree_on_disk(rstar_build, versioned, Some(version));
            assert_corrupt::<RStar<2>, 2>(&leg(&format!("v{version} R*-tree meta page")), &old);
        }

        // The same files open as their own kind.
        let open = |(mem, meta, head): &OnDisk| {
            (Arc::new(BufferPool::new(Arc::clone(mem), 64)), *meta, *head)
        };
        let (pool, meta, head) = open(&qt);
        assert_eq!(
            Mbrqt::<2>::open_at(pool, meta, head).unwrap().num_points(),
            5
        );
        let (pool, meta, head) = open(&rs);
        assert_eq!(
            RStar::<2>::open_at(pool, meta, head).unwrap().num_points(),
            5
        );
    }
}
