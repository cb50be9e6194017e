//! Property-style durability tests (deterministic sweeps, no external
//! generator crates): the checksum codec, the journal record codec, and
//! the atomic-commit protocol under exhaustive crash points.

use ann_datagen::splitmix64;
use ann_store::checksum::{crc32, crc32_finish, crc32_update, seal_frame, verify_frame, CRC_INIT};
use ann_store::journal::{decode_record, encode_record, RECORD_SIZE};
use ann_store::{
    BufferPool, DiskBackend, FaultyDisk, InjectedFault, Journal, MemDisk, PageId, PageStore,
    Recovery, StoreError, Txn, FRAME_SIZE, PAGE_SIZE,
};
use std::sync::Arc;

// ---------------------------------------------------------------------------
// CRC32 and the frame seal
// ---------------------------------------------------------------------------

#[test]
fn crc32_matches_the_reference_check_vector() {
    // The canonical IEEE 802.3 check value.
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(b""), 0);
}

#[test]
fn incremental_crc_equals_one_shot_for_every_split_point() {
    let data: Vec<u8> = (0..257u32).map(|i| splitmix64(i as u64) as u8).collect();
    let expect = crc32(&data);
    for split in 0..=data.len() {
        let mut st = CRC_INIT;
        st = crc32_update(st, &data[..split]);
        st = crc32_update(st, &data[split..]);
        assert_eq!(crc32_finish(st), expect, "split at {split}");
    }
}

#[test]
fn sealed_frames_verify_and_all_zero_frames_pass_as_fresh() {
    let mut frame = vec![0u8; FRAME_SIZE];
    assert!(verify_frame(&frame).is_ok(), "fresh page is valid");
    for (i, b) in frame.iter_mut().enumerate().take(PAGE_SIZE) {
        *b = splitmix64(i as u64) as u8;
    }
    seal_frame(&mut frame);
    assert!(verify_frame(&frame).is_ok());
}

#[test]
fn every_sampled_single_bit_flip_is_detected() {
    let mut frame = vec![0u8; FRAME_SIZE];
    for (i, b) in frame.iter_mut().enumerate().take(PAGE_SIZE) {
        *b = splitmix64(i as u64 ^ 0xF00) as u8;
    }
    seal_frame(&mut frame);
    // Stride-sample the bit positions (a prime stride covers every byte
    // class); CRC32 detects all single-bit errors, so each flip must fail.
    let total_bits = FRAME_SIZE * 8;
    let mut bit = 0usize;
    let mut checked = 0u32;
    while bit < total_bits {
        let mut copy = frame.clone();
        copy[bit / 8] ^= 1 << (bit % 8);
        assert!(
            verify_frame(&copy).is_err(),
            "flip of bit {bit} went undetected"
        );
        checked += 1;
        bit += 509;
    }
    assert!(checked > 100);
}

// ---------------------------------------------------------------------------
// Journal record codec
// ---------------------------------------------------------------------------

#[test]
fn journal_records_round_trip() {
    for seed in 0..16u64 {
        let page = (splitmix64(seed) % 10_000) as PageId;
        let image: Vec<u8> = (0..PAGE_SIZE)
            .map(|i| splitmix64(seed ^ i as u64) as u8)
            .collect();
        let rec = encode_record(page, &image);
        assert_eq!(rec.len(), RECORD_SIZE);
        let (got_page, got_image) = decode_record(&rec).unwrap();
        assert_eq!(got_page, page);
        assert_eq!(got_image, &image[..]);
    }
}

#[test]
fn truncated_and_bit_flipped_records_are_rejected() {
    let image = vec![0x5Au8; PAGE_SIZE];
    let rec = encode_record(42, &image);
    assert!(decode_record(&rec[..RECORD_SIZE - 1]).is_err());
    // Sampled single-bit flips anywhere in the record (page id, crc, or
    // image) must fail the record checksum.
    let mut bit = 0usize;
    while bit < RECORD_SIZE * 8 {
        let mut copy = rec.clone();
        copy[bit / 8] ^= 1 << (bit % 8);
        assert!(
            matches!(decode_record(&copy), Err(StoreError::Corrupt { .. })),
            "flip of bit {bit} went undetected"
        );
        bit += 487;
    }
}

// ---------------------------------------------------------------------------
// Atomic commit under exhaustive crash points
// ---------------------------------------------------------------------------

const PAGES: usize = 4;

fn old_image(i: usize) -> u8 {
    0x11 * (i as u8 + 1)
}

fn new_image(i: usize) -> u8 {
    0x77 ^ (i as u8)
}

/// Sets up `PAGES` home pages with old images plus a journal, all durable.
/// Returns (pool, journal, page ids).
fn setup(disk: impl DiskBackend) -> (Arc<BufferPool>, Journal, Vec<PageId>) {
    let pool = Arc::new(BufferPool::new(disk, 8));
    let journal = Journal::create(&pool).unwrap();
    let mut ids = Vec::new();
    for i in 0..PAGES {
        let id = pool.allocate().unwrap();
        pool.with_page_mut(id, |bytes| bytes.fill(old_image(i)))
            .unwrap();
        ids.push(id);
    }
    pool.flush_all().unwrap();
    (pool, journal, ids)
}

fn commit_new_images(
    pool: &Arc<BufferPool>,
    journal: Journal,
    ids: &[PageId],
) -> ann_store::Result<()> {
    let txn = Txn::begin(pool, journal);
    for (i, &id) in ids.iter().enumerate() {
        txn.with_page_mut(id, |bytes| bytes.fill(new_image(i)))?;
    }
    txn.commit()
}

/// Ops a healthy setup + commit consumes, to bound the crash sweep.
fn op_counts() -> (u64, u64) {
    let fd = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
    let (pool, journal, ids) = setup(Arc::clone(&fd));
    let before = fd.op_count();
    commit_new_images(&pool, journal, &ids).unwrap();
    (before, fd.op_count())
}

#[test]
fn a_crash_at_every_commit_step_leaves_all_old_or_all_new() {
    let (start, end) = op_counts();
    assert!(end > start + 4, "the commit must touch the disk");

    let (mut old_runs, mut new_runs) = (0u32, 0u32);
    for op in start..end {
        let mem = Arc::new(MemDisk::new());
        let fd = Arc::new(FaultyDisk::unlimited(Arc::clone(&mem)));
        // Alternate between a clean crash and a torn write at this step.
        let fault = if op % 2 == 0 {
            InjectedFault::Crash
        } else {
            InjectedFault::TornWrite {
                persist: (splitmix64(op) as usize) % FRAME_SIZE,
            }
        };
        let (pool, journal, ids) = setup(Arc::clone(&fd));
        fd.inject_at(op, fault);
        let result = commit_new_images(&pool, journal, &ids);
        drop(pool);

        // Restart over the surviving media and recover.
        let pool = Arc::new(BufferPool::new(Arc::clone(&mem), 8));
        let (_, recovery) = Journal::open(&pool, journal.header_page()).unwrap();
        let firsts: Vec<u8> = ids
            .iter()
            .map(|&id| pool.with_page(id, |b| b[0]).unwrap())
            .collect();
        let all_old: Vec<u8> = (0..PAGES).map(old_image).collect();
        let all_new: Vec<u8> = (0..PAGES).map(new_image).collect();
        assert!(
            firsts == all_old || firsts == all_new,
            "crash at op {op} left a mixed state {firsts:?} (recovery: {recovery:?})"
        );
        if firsts == all_new {
            new_runs += 1;
            // The commit reached its durability point; if the caller saw
            // an error it was in the apply phase, which replay finished.
        } else {
            old_runs += 1;
            assert!(result.is_err(), "an aborted commit must report failure");
        }

        // Recovery is idempotent: a second open finds a clean journal and
        // the same bytes.
        let (_, again) = Journal::open(&pool, journal.header_page()).unwrap();
        assert_eq!(again, Recovery::Clean);
        let again_firsts: Vec<u8> = ids
            .iter()
            .map(|&id| pool.with_page(id, |b| b[0]).unwrap())
            .collect();
        assert_eq!(firsts, again_firsts);
    }
    assert!(old_runs > 0, "early crashes must roll back");
    assert!(new_runs > 0, "late crashes must roll forward");
}

#[test]
fn committed_batches_survive_a_clean_restart() {
    let mem = Arc::new(MemDisk::new());
    let (pool, journal, ids) = setup(Arc::clone(&mem));
    commit_new_images(&pool, journal, &ids).unwrap();
    drop(pool);

    let pool = Arc::new(BufferPool::new(Arc::clone(&mem), 8));
    let (_, recovery) = Journal::open(&pool, journal.header_page()).unwrap();
    assert_eq!(recovery, Recovery::Clean);
    for (i, &id) in ids.iter().enumerate() {
        pool.with_page(id, |b| assert!(b.iter().all(|&x| x == new_image(i))))
            .unwrap();
    }
}
