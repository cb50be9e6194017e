//! Property-based round-trip tests of the shared node codec, including
//! nodes that chain across continuation pages.

use ann_core::node::{read_node, write_node, Entry, Node, NodeEntry, ObjectEntry};
use ann_datagen::{for_each_case, Rng};
use ann_geom::{Mbr, Point};
use ann_store::{BufferPool, MemDisk, StoreError};
use std::sync::Arc;

/// Cases per property.
const CASES: usize = 64;

fn coords(rng: &mut Rng, lo: f64, hi: f64) -> [f64; 3] {
    std::array::from_fn(|_| rng.range_f64(lo, hi))
}

fn leaf(rng: &mut Rng) -> Node<3> {
    let mut node = Node::empty_leaf();
    // Up to ~3 pages of 3-D leaf entries.
    node.entries = (0..rng.range(0, 900))
        .map(|_| {
            Entry::Object(ObjectEntry {
                oid: rng.next_u64(),
                point: Point::new(coords(rng, -1e6, 1e6)),
            })
        })
        .collect();
    node.recompute_mbr();
    node
}

fn internal(rng: &mut Rng) -> Node<3> {
    let mut node = Node {
        is_leaf: false,
        aux: 0,
        mbr: Mbr::empty(),
        entries: (0..rng.range(1, 400))
            .map(|_| {
                let page = rng.range(0, 1_000_000) as u32;
                let count = rng.next_u64();
                let lo = coords(rng, -1e6, 1e6);
                let ext = coords(rng, 0.0, 1e3);
                let mut hi = lo;
                for d in 0..3 {
                    hi[d] += ext[d];
                }
                Entry::Node(NodeEntry {
                    page,
                    count,
                    mbr: Mbr::new(lo, hi),
                })
            })
            .collect(),
    };
    node.recompute_mbr();
    node
}

#[test]
fn leaf_round_trips() {
    for_each_case(0xc0dec1, CASES, |rng| {
        let mut node = leaf(rng);
        node.aux = rng.next_u64() as u8;
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 32));
        let page = pool.allocate().unwrap();
        write_node(&pool, page, &node).unwrap();
        let back = read_node::<3>(&pool, page).unwrap();
        assert_eq!(back, node);
    });
}

#[test]
fn internal_round_trips() {
    for_each_case(0xc0dec2, CASES, |rng| {
        let mut node = internal(rng);
        node.aux = rng.next_u64() as u8;
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 32));
        let page = pool.allocate().unwrap();
        write_node(&pool, page, &node).unwrap();
        let back = read_node::<3>(&pool, page).unwrap();
        assert_eq!(back, node);
    });
}

/// A continuation link into a page of another node reads as `Corrupt`
/// naming that page: the chain reader checks every page's magic, so the
/// other node's header and entries are never decoded as this node's.
#[test]
fn link_into_another_node_is_corrupt() {
    fn leaf(n: u64, base: u64) -> Node<2> {
        let mut node = Node::empty_leaf();
        node.entries = (0..n)
            .map(|i| {
                Entry::Object(ObjectEntry {
                    oid: base + i,
                    point: Point::new([i as f64, -(i as f64)]),
                })
            })
            .collect();
        node.recompute_mbr();
        node
    }
    let pool = Arc::new(BufferPool::new(MemDisk::new(), 32));
    for _ in 0..302 {
        pool.allocate().unwrap();
    }
    let (a, b) = (300, 301);
    write_node(&pool, a, &leaf(800, 0)).unwrap();
    write_node(&pool, b, &leaf(10, 1_000_000)).unwrap();
    assert_eq!(read_node::<2>(&pool, a).unwrap(), leaf(800, 0));
    // Point A's continuation link (header bytes 8..12) at B.
    pool.with_page_mut(a, |bytes| bytes[8..12].copy_from_slice(&b.to_le_bytes()))
        .unwrap();
    match read_node::<2>(&pool, a) {
        Err(StoreError::Corrupt { page: Some(p), .. }) => assert_eq!(p, b),
        other => panic!(
            "a link into node {b} read as {:?} entries",
            other.map(|n| n.entries.len())
        ),
    }
}

/// Rewriting a page with a sequence of different nodes always reads
/// back the last one (chains are reused safely).
#[test]
fn sequential_rewrites_read_back_latest() {
    for_each_case(0xc0dec3, CASES, |rng| {
        let sizes: Vec<usize> = (0..rng.range(1, 6)).map(|_| rng.range(0, 900)).collect();
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 32));
        let page = pool.allocate().unwrap();
        for (round, size) in sizes.iter().enumerate() {
            let mut node = Node::<3>::empty_leaf();
            node.entries = (0..*size as u64)
                .map(|i| {
                    Entry::Object(ObjectEntry {
                        oid: i * 1000 + round as u64,
                        point: Point::new([i as f64, round as f64, 0.0]),
                    })
                })
                .collect();
            node.recompute_mbr();
            write_node(&pool, page, &node).unwrap();
            let back = read_node::<3>(&pool, page).unwrap();
            assert_eq!(back, node);
        }
    });
}
