//! Byte-for-byte pins of what each on-disk structure writes.
//!
//! Every scenario runs on a fresh `MemDisk` behind a recorder that logs
//! each physical operation (allocate, read, write) with its page id. The
//! digest covers that log, the pool's logical-read count and, after a
//! final flush, every frame on the disk, trailer included. A change to a
//! page layout, to the pages a structure allocates, or to the order in
//! which it reads and writes them moves a digest; the paper's I/O figures
//! are page counts, so none of them may move silently.

use allnn::core::node::{read_node, write_node, Entry, Node, ObjectEntry};
use allnn::core::WritableIndex;
use allnn::geom::Point;
use allnn::mbrqt::{Mbrqt, MbrqtConfig};
use allnn::rstar::{RStar, RStarConfig};
use allnn::store::{
    BufferPool, DiskBackend, Journal, MemDisk, PageId, PageStore, Result, Txn, VersionedStore,
    FRAME_SIZE,
};
use std::sync::{Arc, Mutex};

/// A `MemDisk` that logs every physical operation.
#[derive(Default)]
struct Recorder {
    disk: MemDisk,
    log: Mutex<Vec<(u8, PageId)>>,
}

impl Recorder {
    fn note(&self, op: u8, page: PageId) {
        self.log.lock().unwrap().push((op, page));
    }
}

impl DiskBackend for Recorder {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        self.note(b'r', id);
        self.disk.read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        self.note(b'w', id);
        self.disk.write_page(id, buf)
    }

    fn allocate(&self) -> Result<PageId> {
        let id = self.disk.allocate()?;
        self.note(b'a', id);
        Ok(id)
    }

    fn num_pages(&self) -> PageId {
        self.disk.num_pages()
    }
}

/// FNV-1a, 64 bits.
struct Fnv(u64);

impl Fnv {
    fn eat(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Runs `scenario` on a fresh recorded pool of `frames` frames, flushes,
/// and returns `(pages on disk, digest)`.
fn digest(frames: usize, scenario: impl FnOnce(&Arc<BufferPool>)) -> (PageId, u64) {
    let recorder = Arc::new(Recorder::default());
    let pool = Arc::new(BufferPool::new(Arc::clone(&recorder), frames));
    scenario(&pool);
    pool.flush_all().unwrap();
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    h.eat(&pool.stats().logical_reads.to_le_bytes());
    for (op, page) in recorder.log.lock().unwrap().iter() {
        h.eat(&[*op]);
        h.eat(&page.to_le_bytes());
    }
    let mut frame = vec![0u8; FRAME_SIZE];
    for id in 0..recorder.num_pages() {
        recorder.disk.read_page(id, &mut frame).unwrap();
        h.eat(&frame);
    }
    (recorder.num_pages(), h.0)
}

fn leaf(n: usize, salt: u64) -> Node<2> {
    let mut node = Node::empty_leaf();
    for i in 0..n as u64 {
        let x = (i * 7 + salt) as f64 * 0.25;
        node.entries.push(Entry::Object(ObjectEntry {
            oid: i ^ salt,
            point: Point::new([x, -x * 0.5]),
        }));
    }
    node.recompute_mbr();
    node
}

fn image(page: PageId, round: u8) -> impl Fn(&mut [u8]) {
    move |b: &mut [u8]| {
        for (i, v) in b.iter_mut().enumerate() {
            *v = (i as u32 ^ page ^ u32::from(round)).wrapping_mul(2_654_435_761) as u8;
        }
    }
}

#[test]
fn bulk_built_trees_and_their_updates() {
    let data = allnn::datagen::tac_like(2_500, 11);
    let got = digest(64, |pool| {
        let mut qt = Mbrqt::bulk_build(Arc::clone(pool), &data, &MbrqtConfig::default()).unwrap();
        let mut rs = RStar::bulk_build(Arc::clone(pool), &data, &RStarConfig::default()).unwrap();
        for (i, (_, p)) in data.iter().take(40).enumerate() {
            qt.insert(10_000 + i as u64, *p).unwrap();
        }
        let qt_head = qt.enable_versioning(4).unwrap();
        let rs_head = rs.enable_versioning(4).unwrap();
        for (i, (_, p)) in data.iter().skip(500).take(12).enumerate() {
            qt.insert(20_000 + i as u64, *p).unwrap();
        }
        pool.flush_all().unwrap();
        let (qt_meta, rs_meta) = (qt.meta_page(), rs.meta_page());
        drop((qt, rs));
        let qt = Mbrqt::<2>::open_at(Arc::clone(pool), qt_meta, Some(qt_head)).unwrap();
        let rs = RStar::<2>::open_at(Arc::clone(pool), rs_meta, Some(rs_head)).unwrap();
        assert_eq!(qt.header.num_points, 2_552);
        assert_eq!(rs.header.num_points, 2_500);
    });
    assert_eq!(
        got,
        (68, 17636030884231283482),
        "2-D MBRQT and R*-tree files"
    );
}

/// Bulk-builds an MBRQT with 8-point buckets over `data[..400]`, then
/// inserts 300 later points that lie inside its universe; `after_step`
/// sees the tree after each of the two steps.
fn build_then_split(
    pool: &Arc<BufferPool>,
    data: &[(u64, Point<2>)],
    mut after_step: impl FnMut(&Mbrqt<2>),
) {
    let config = MbrqtConfig {
        bucket_capacity: 8,
        ..MbrqtConfig::default()
    };
    let mut qt = Mbrqt::bulk_build(Arc::clone(pool), &data[..400], &config).unwrap();
    after_step(&qt);
    let universe = qt.universe();
    let later = data[400..]
        .iter()
        .filter(|(_, p)| universe.contains_point(p))
        .take(300);
    for (i, (_, p)) in later.enumerate() {
        qt.insert(50_000 + i as u64, *p).unwrap();
    }
    assert_eq!(qt.header.num_points, 700);
    after_step(&qt);
}

#[test]
fn streamed_builds_bucket_splits_and_collapses() {
    let data = allnn::datagen::tac_like(3_000, 5);
    let got = digest(64, |pool| {
        let scratch = Arc::new(BufferPool::new(MemDisk::new(), 32));
        Mbrqt::bulk_build_stream(
            Arc::clone(pool),
            scratch,
            data.iter().copied(),
            500,
            &MbrqtConfig::default(),
        )
        .unwrap();
        build_then_split(pool, &data, |_| {});
    });
    assert_eq!(
        got,
        (303, 13466900679124282301),
        "streamed build and bucket splits"
    );

    // The same updates off the record: inserts split buckets into
    // internal nodes.
    let mut internal = Vec::new();
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 64));
    build_then_split(&pool, &data, |qt| {
        let shape = allnn::core::index::validate(qt).unwrap();
        internal.push(shape.nodes - shape.leaves);
    });
    assert!(
        internal[1] > internal[0],
        "internal nodes after build and inserts: {internal:?}"
    );
}

#[test]
fn ten_dimensional_quadtree_chains_its_wide_nodes() {
    let data = allnn::datagen::fc_like(1_500, 3);
    let got = digest(64, |pool| {
        let qt = Mbrqt::bulk_build(Arc::clone(pool), &data, &MbrqtConfig::default()).unwrap();
        let root = read_node::<10>(pool.as_ref(), qt.header.root).unwrap();
        assert!(root.entries.len() > Node::<10>::single_page_capacity(false));
    });
    assert_eq!(got, (127, 17003242714665818077), "10-D MBRQT file");
}

#[test]
fn node_rewrites_keep_and_extend_the_continuation_chain() {
    let got = digest(16, |pool| {
        let first = pool.allocate().unwrap();
        write_node(pool.as_ref(), first, &leaf(800, 1)).unwrap();
        assert_eq!(pool.num_pages(), 3, "800 2-D entries span three pages");
        write_node(pool.as_ref(), first, &leaf(300, 2)).unwrap();
        assert_eq!(pool.num_pages(), 3, "the spare tail is kept");
        write_node(pool.as_ref(), first, &leaf(1_200, 3)).unwrap();
        assert_eq!(pool.num_pages(), 4, "the chain is extended by one page");
        assert_eq!(
            read_node::<2>(pool.as_ref(), first).unwrap(),
            leaf(1_200, 3)
        );
    });
    assert_eq!(got, (4, 7898657649236108843), "node continuation chain");
}

#[test]
fn journal_commits_lay_records_over_two_pages_each() {
    let got = digest(8, |pool| {
        let journal = Journal::create(pool).unwrap();
        let homes: Vec<PageId> = (0..5).map(|_| pool.allocate().unwrap()).collect();
        for (round, count) in [(1u8, 3usize), (2, 1), (3, 5)] {
            let txn = Txn::begin(pool, journal);
            for &page in &homes[..count] {
                txn.with_page_mut(page, image(page, round)).unwrap();
            }
            txn.commit().unwrap();
        }
        let (_, recovery) = Journal::open(pool, journal.header_page()).unwrap();
        assert_eq!(recovery, allnn::store::Recovery::Clean);
    });
    assert_eq!(got, (12, 2217894412000011386), "journal data chain");
}

#[test]
fn versioned_manifest_spans_pages_and_reopens() {
    let got = digest(64, |pool| {
        let homes: Vec<PageId> = (0..1_100).map(|_| pool.allocate().unwrap()).collect();
        let journal = Journal::create(pool).unwrap();
        let store = VersionedStore::create(Arc::clone(pool), journal, 3).unwrap();
        let txn = Txn::begin_versioned(&store).unwrap();
        for &page in &homes {
            txn.with_page_mut(page, image(page, 1)).unwrap();
        }
        assert_eq!(txn.commit_versioned().unwrap(), 2);
        for round in 2..6u8 {
            let txn = Txn::begin_versioned(&store).unwrap();
            for &page in homes.iter().step_by(usize::from(round) * 97) {
                txn.with_page_mut(page, image(page, round)).unwrap();
            }
            txn.commit_versioned().unwrap();
        }
        let head = store.manifest_head();
        drop(store);
        let reopened = VersionedStore::open(Arc::clone(pool), journal, head).unwrap();
        assert_eq!(reopened.latest(), 6);
        assert_eq!(reopened.retained(), vec![4, 5, 6]);
        let snap = reopened.pin(None).unwrap();
        let mut want = vec![0u8; allnn::store::PAGE_SIZE];
        image(homes[97 * 5], 5)(&mut want);
        assert_eq!(snap.with_page(homes[97 * 5], |b| b.to_vec()).unwrap(), want);
    });
    assert_eq!(got, (3318, 12083836607936844483), "version manifest chain");
}
