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
        ..Default::default()
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
use ann_store::{InjectedFault, RetryPolicy, StoreError, FRAME_SIZE};

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
        match Mbrqt::<2>::open(pool, 0) {
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
            match Mbrqt::<2>::open(pool, 0) {
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
        match Mbrqt::<2>::open(pool.clone(), 0) {
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
    pool.set_retry_policy(RetryPolicy {
        max_attempts: 1,
        ..Default::default()
    });
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

/// Two clusters: an R*-tree with four entries per leaf splits them into
/// a 2-point and a 3-point leaf under an internal root, so deleting
/// `(1, 1)` dissolves a leaf and shrinks the root back to height 1.
const CLUSTERS: [[f64; 2]; 5] = [
    [1.0, 1.0],
    [2.0, 2.0],
    [90.0, 90.0],
    [91.0, 91.0],
    [92.0, 92.0],
];

fn small_mbrqt(pool: Arc<BufferPool>) -> Mbrqt<2> {
    let universe = ann_geom::Mbr::new([0.0, 0.0], [100.0, 100.0]);
    Mbrqt::create(pool, universe, &MbrqtConfig::default()).unwrap()
}

fn small_rstar(pool: Arc<BufferPool>) -> RStar<2> {
    let cfg = RStarConfig {
        max_leaf_entries: 4,
        max_internal_entries: 4,
        ..Default::default()
    };
    RStar::create(pool, &cfg).unwrap()
}

/// One leg: build `CLUSTERS` through `create` + inserts, optionally turn
/// versioning on, then fail the next insert or delete at its commit with
/// an un-retried transient fault. The update's body runs entirely in the
/// warm pool, so the fault lands after it moved the in-memory header.
fn rollback_leg<T: WritableIndex<2>>(
    build: fn(Arc<BufferPool>) -> T,
    height: fn(&T) -> u32,
    versioned: bool,
    delete: bool,
) {
    let mem = Arc::new(MemDisk::new());
    let fd = Arc::new(FaultyDisk::unlimited(Arc::clone(&mem)));
    let pool = Arc::new(BufferPool::new(Arc::clone(&fd), 256));
    pool.set_retry_policy(RetryPolicy {
        max_attempts: 1,
        ..Default::default()
    });
    let mut tree = build(pool);
    for (oid, xy) in CLUSTERS.iter().enumerate() {
        tree.insert(oid as u64, Point::new(*xy)).unwrap();
    }
    let head = versioned.then(|| tree.enable_versioning(8).unwrap());
    validate(&tree).unwrap();
    let state = |t: &T| (t.root_page(), t.num_points(), t.bounds(), height(t));
    let update = |t: &mut T| {
        if delete {
            t.delete(0, &Point::new(CLUSTERS[0])).map(drop)
        } else {
            t.insert(5, Point::new([95.0, 95.0]))
        }
    };
    let leg = format!("versioned={versioned} delete={delete}");
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
    // roll back (for the R*-tree delete, the root and the height too).
    update(&mut tree).unwrap();
    let moved = state(&tree);
    assert!(moved != before, "{leg}");
    if delete && before.3 > 0 {
        assert_eq!(
            (before.3, moved.3),
            (2, 1),
            "{leg}: the delete must shrink the root"
        );
    }

    tree.insert(6, Point::new([50.0, 50.0])).unwrap();
    let meta_page = tree.meta_page();
    tree.flush().unwrap();
    drop(tree);
    let reopened = T::open_at(Arc::new(BufferPool::new(mem, 64)), meta_page, head).unwrap();
    assert_eq!(reopened.num_points(), moved.1 + 1, "{leg}");
    let objects = collect_objects(&reopened).unwrap();
    assert!(
        objects.iter().any(|o| o.0 == 6),
        "{leg}: the reopen lacks the last insert"
    );
}

#[test]
fn failed_update_rolls_the_tree_back() {
    let mbrqt_height = |_: &Mbrqt<2>| 0;
    for versioned in [false, true] {
        for delete in [false, true] {
            rollback_leg(small_mbrqt, mbrqt_height, versioned, delete);
            rollback_leg(small_rstar, RStar::height, versioned, delete);
        }
    }
}

// ---------------------------------------------------------------------------
// Typed rejection: a meta page of another kind, another `D` or the v1
// layout opens as `Corrupt` (never a misparse, never a panic), both plain
// and through a manifest head.
// ---------------------------------------------------------------------------

use ann_core::tree_file::Params;
use ann_store::{PageId, PageStore};

/// Where a tree lives once its handle is gone: disk, meta page, head.
type OnDisk = (Arc<MemDisk>, PageId, Option<PageId>);

/// `CLUSTERS` in a tree built by `build`, flushed and dropped; versioned
/// or not, and with its meta page rewritten in the v1 layout if `v1`.
fn tree_on_disk<T: WritableIndex<2>>(
    build: fn(Arc<BufferPool>) -> T,
    versioned: bool,
    v1: bool,
) -> OnDisk {
    let mem = Arc::new(MemDisk::new());
    let mut tree = build(Arc::new(BufferPool::new(Arc::clone(&mem), 64)));
    for (oid, xy) in CLUSTERS.iter().enumerate() {
        tree.insert(oid as u64, Point::new(*xy)).unwrap();
    }
    let head = versioned.then(|| tree.enable_versioning(8).unwrap());
    if v1 {
        let bytes = v1_meta_page(&tree);
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

/// The meta page as the per-kind v1 codecs wrote it, same values.
fn v1_meta_page<T: WritableIndex<2>>(tree: &T) -> Vec<u8> {
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
    match tree.params() {
        Params::Mbrqt(p) => {
            out.extend(b"MBRQTv1\0");
            words(&mut out, &[2, root]);
            out.extend(tree.num_points().to_le_bytes());
            let flag = usize::from(p.use_subtree_mbrs);
            words(
                &mut out,
                &[p.bucket_capacity, p.levels_per_node, p.max_depth, flag],
            );
            mbr(&mut out, p.universe);
        }
        Params::RStar(p) => {
            out.extend(b"RSTARv1\0");
            words(&mut out, &[2, root, p.height as usize]);
            out.extend(tree.num_points().to_le_bytes());
            let fill = [
                p.max_leaf,
                p.max_internal,
                p.min_fill_percent,
                p.reinsert_percent,
            ];
            words(&mut out, &fill);
        }
    }
    mbr(&mut out, tree.bounds());
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
        let qt = tree_on_disk(small_mbrqt, versioned, false);
        let rs = tree_on_disk(small_rstar, versioned, false);
        let leg = |what: &str| format!("{what} (versioned={versioned})");
        assert_corrupt::<RStar<2>, 2>(&leg("MBRQT opened as R*-tree"), &qt);
        assert_corrupt::<Mbrqt<2>, 2>(&leg("R*-tree opened as MBRQT"), &rs);
        assert_corrupt::<Mbrqt<3>, 3>(&leg("D = 2 MBRQT opened at D = 3"), &qt);
        assert_corrupt::<RStar<3>, 3>(&leg("D = 2 R*-tree opened at D = 3"), &rs);
        let v1 = tree_on_disk(small_mbrqt, versioned, true);
        assert_corrupt::<Mbrqt<2>, 2>(&leg("v1 MBRQT meta page"), &v1);
        let v1 = tree_on_disk(small_rstar, versioned, true);
        assert_corrupt::<RStar<2>, 2>(&leg("v1 R*-tree meta page"), &v1);

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
