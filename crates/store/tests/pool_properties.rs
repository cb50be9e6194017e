//! Property-based tests of the buffer pool: under any interleaving of
//! operations it must behave exactly like a transparent cache over the
//! disk, and its LRU accounting must match a reference model.

use ann_datagen::{for_each_case, Rng};
use ann_store::{BufferPool, MemDisk, PAGE_SIZE};

/// Operations the model driver performs.
#[derive(Clone, Debug)]
enum Op {
    Allocate,
    /// Write `value` into page `page_choice % allocated`.
    Write {
        page_choice: u8,
        value: u8,
    },
    Read {
        page_choice: u8,
    },
    FlushAll,
    Clear,
}

/// One op, weighted 2 : 4 : 4 : 1 : 1 in declaration order.
fn op(rng: &mut Rng) -> Op {
    match rng.range(0, 12) {
        0..=1 => Op::Allocate,
        2..=5 => Op::Write {
            page_choice: rng.next_u64() as u8,
            value: rng.next_u64() as u8,
        },
        6..=9 => Op::Read {
            page_choice: rng.next_u64() as u8,
        },
        10 => Op::FlushAll,
        _ => Op::Clear,
    }
}

/// Cases per property.
const CASES: usize = 64;

/// The pool is a transparent cache: reads always see the latest write
/// to each page, across evictions, flushes and clears, at any capacity.
/// A plain `Vec<u8>` (one byte per page) is the model.
#[test]
fn pool_is_a_transparent_cache() {
    for_each_case(0x5701, CASES, |rng| {
        let ops: Vec<Op> = (0..rng.range(1, 120)).map(|_| op(rng)).collect();
        let pool = BufferPool::new(MemDisk::new(), rng.range(1, 32));
        let mut model: Vec<u8> = vec![];
        for op in ops {
            match op {
                Op::Allocate => {
                    let id = pool.allocate().unwrap();
                    assert_eq!(id as usize, model.len());
                    model.push(0);
                }
                Op::Write { page_choice, value } => {
                    if model.is_empty() {
                        continue;
                    }
                    let page = page_choice as usize % model.len();
                    pool.with_page_mut(page as u32, |bytes| bytes[7] = value)
                        .unwrap();
                    model[page] = value;
                }
                Op::Read { page_choice } => {
                    if model.is_empty() {
                        continue;
                    }
                    let page = page_choice as usize % model.len();
                    let got = pool.with_page(page as u32, |bytes| bytes[7]).unwrap();
                    assert_eq!(got, model[page]);
                }
                Op::FlushAll => pool.flush_all().unwrap(),
                Op::Clear => pool.clear().unwrap(),
            }
        }
        // Final sweep: every page readable with its last written value.
        for (page, &want) in model.iter().enumerate() {
            let got = pool.with_page(page as u32, |bytes| bytes[7]).unwrap();
            assert_eq!(got, want);
        }
    });
}

/// Physical reads only happen on misses: with a pool at least as large
/// as the page count, each page faults at most once however often it
/// is read.
#[test]
fn large_pool_faults_each_page_once() {
    for_each_case(0x5702, CASES, |rng| {
        let accesses: Vec<u8> = (0..rng.range(1, 200))
            .map(|_| rng.range(0, 16) as u8)
            .collect();
        let pool = BufferPool::new(MemDisk::new(), 16);
        for _ in 0..16 {
            pool.allocate().unwrap();
        }
        pool.clear().unwrap();
        pool.reset_stats();
        let mut touched = std::collections::HashSet::new();
        for a in accesses {
            pool.with_page(a as u32, |_| ()).unwrap();
            touched.insert(a);
        }
        assert_eq!(pool.stats().physical_reads, touched.len() as u64);
    });
}

/// Page contents are preserved byte-for-byte through eviction cycles.
#[test]
fn full_page_roundtrip_through_eviction() {
    for_each_case(0x5703, CASES, |rng| {
        let payload: Vec<u8> = (0..PAGE_SIZE).map(|_| rng.next_u64() as u8).collect();
        let pool = BufferPool::new(MemDisk::new(), 1);
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        pool.with_page_mut(a, |bytes| bytes.copy_from_slice(&payload))
            .unwrap();
        // Touching b evicts a (capacity 1).
        pool.with_page_mut(b, |bytes| bytes[0] = 1).unwrap();
        let back = pool.with_page(a, |bytes| bytes.to_vec()).unwrap();
        assert_eq!(back, payload);
    });
}
