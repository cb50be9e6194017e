//! External Hilbert-order sorting for out-of-core bulk builds.
//!
//! The in-memory bulk loaders materialize the whole dataset before
//! packing it; at out-of-core scale that is exactly what a buffer pool
//! exists to avoid. [`HilbertSorter`] implements the classic external
//! merge sort, specialized to the one ordering the streaming builders
//! need — ascending `(hilbert_key, oid)`:
//!
//! 1. **Run formation** — points are pushed one at a time; each is keyed
//!    with [`ann_geom::curve::GridMapper::hilbert_key`] over the dataset
//!    bounds.
//!    When the in-memory buffer reaches the run budget it is sorted by
//!    `(key, oid)` and spilled to a [`HeapFile`] of fixed-size records on
//!    a caller-supplied *scratch* pool, so sort memory is bounded by the
//!    budget regardless of input size.
//! 2. **K-way merge** — [`HilbertSorter::finish`] sorts-and-spills the
//!    final partial run and returns a [`SortedStream`] that merges all
//!    runs through a binary heap, yielding records in globally ascending
//!    `(key, oid)` order.
//!
//! The `oid` tie-break makes the output order *total*: points mapping to
//! the same grid cell (duplicates, or distinct points within one cell)
//! always stream in ascending oid order, so external builds are
//! byte-for-byte reproducible for a given input set — independent of push
//! order, run budget, and therefore of how the input happened to be
//! chunked.

use crate::node::ObjectEntry;
use ann_geom::curve::GridMapper;
use ann_geom::{Mbr, Point};
use ann_store::{BufferPool, HeapFile, Reader, Result, StoreError, Writer};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// One keyed record: the sort key, the tie-breaking object id, and the
/// point itself. On disk `key: u128` then the [`ObjectEntry`] record,
/// `D * 8 + 24` bytes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KeyedPoint<const D: usize> {
    /// Hilbert curve position of the point's grid cell.
    pub key: u128,
    /// Object id; the secondary sort key.
    pub oid: u64,
    /// The point.
    pub point: Point<D>,
}

impl<const D: usize> KeyedPoint<D> {
    /// On-disk record size.
    pub const fn record_size() -> usize {
        16 + ObjectEntry::<D>::SIZE
    }

    fn put(&self, w: &mut Writer) {
        w.u128(self.key);
        ObjectEntry {
            oid: self.oid,
            point: self.point,
        }
        .put(w);
    }

    fn get(record: &[u8]) -> Result<Self> {
        let mut r = Reader::new(record);
        let key = r.u128()?;
        let ObjectEntry { oid, point } = ObjectEntry::get(&mut r)?;
        Ok(KeyedPoint { key, oid, point })
    }
}

/// Streaming external sorter; see the module docs.
pub struct HilbertSorter<const D: usize> {
    scratch: Arc<BufferPool>,
    mapper: GridMapper<D>,
    run_budget: usize,
    buf: Vec<KeyedPoint<D>>,
    runs: Vec<HeapFile>,
    len: u64,
}

impl<const D: usize> HilbertSorter<D> {
    /// Creates a sorter keying points against `bounds`, spilling runs of
    /// at most `run_budget` records to `scratch`.
    ///
    /// `bounds` must cover every point subsequently pushed (out-of-bounds
    /// points clamp to the grid edge — still sorted, just with degraded
    /// locality). The scratch pool is only ever used for spill heaps; use
    /// a dedicated pool so spill traffic doesn't evict the build's pages.
    pub fn new(scratch: Arc<BufferPool>, bounds: Mbr<D>, run_budget: usize) -> Self {
        assert!(run_budget > 0, "run budget must be positive");
        HilbertSorter {
            scratch,
            mapper: GridMapper::new(bounds),
            run_budget,
            buf: Vec::with_capacity(run_budget.min(1 << 16)),
            runs: Vec::new(),
            len: 0,
        }
    }

    /// Number of points pushed so far.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether no points have been pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Keys and buffers one point, spilling a sorted run if the buffer
    /// just reached the run budget.
    pub fn push(&mut self, oid: u64, point: Point<D>) -> Result<()> {
        if !point.is_finite() {
            return Err(StoreError::corrupt("points must have finite coordinates"));
        }
        self.buf.push(KeyedPoint {
            key: self.mapper.hilbert_key(&point),
            oid,
            point,
        });
        self.len += 1;
        if self.buf.len() >= self.run_budget {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable_by_key(|r| (r.key, r.oid));
        let mut heap = HeapFile::create(Arc::clone(&self.scratch), KeyedPoint::<D>::record_size())?;
        let mut rec = Writer::with_capacity(KeyedPoint::<D>::record_size());
        for r in self.buf.drain(..) {
            rec.clear();
            r.put(&mut rec);
            heap.append(rec.as_bytes())?;
        }
        self.runs.push(heap);
        Ok(())
    }

    /// Spills the final run and returns the merged, globally sorted
    /// stream.
    pub fn finish(mut self) -> Result<SortedStream<D>> {
        self.spill()?;
        let mut heads = BinaryHeap::with_capacity(self.runs.len());
        for (run, heap) in self.runs.iter().enumerate() {
            if !heap.is_empty() {
                heads.push(Reverse(MergeHead {
                    rec: KeyedPoint::get(&heap.get(0)?)?,
                    run,
                    next: 1,
                }));
            }
        }
        Ok(SortedStream {
            runs: self.runs,
            heads,
            remaining: self.len,
        })
    }
}

/// Heap entry of the k-way merge: the next undelivered record of one run,
/// ordered by the global `(key, oid)` sort key. Runs are internally
/// sorted, so the heap always holds each run's minimum — popping the heap
/// minimum yields the global order.
#[derive(Clone, Copy)]
struct MergeHead<const D: usize> {
    rec: KeyedPoint<D>,
    run: usize,
    next: u64,
}

impl<const D: usize> MergeHead<D> {
    fn sort_key(&self) -> (u128, u64, usize) {
        (self.rec.key, self.rec.oid, self.run)
    }
}

impl<const D: usize> PartialEq for MergeHead<D> {
    fn eq(&self, other: &Self) -> bool {
        self.sort_key() == other.sort_key()
    }
}
impl<const D: usize> Eq for MergeHead<D> {}
impl<const D: usize> PartialOrd for MergeHead<D> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<const D: usize> Ord for MergeHead<D> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // The run index resolves exact `(key, oid)` collisions (possible
        // only if one oid is pushed twice) deterministically.
        self.sort_key().cmp(&other.sort_key())
    }
}

/// The merged output of a [`HilbertSorter`]: yields every pushed point
/// exactly once, in ascending `(hilbert_key, oid)` order.
///
/// Not an `Iterator` because record reads go through the scratch pool and
/// can fail; call [`next_point`](SortedStream::next_point) until it
/// returns `Ok(None)`.
pub struct SortedStream<const D: usize> {
    runs: Vec<HeapFile>,
    heads: BinaryHeap<Reverse<MergeHead<D>>>,
    remaining: u64,
}

impl<const D: usize> SortedStream<D> {
    /// Records not yet delivered.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Pops the next record in global order, or `Ok(None)` when drained.
    pub fn next_point(&mut self) -> Result<Option<KeyedPoint<D>>> {
        let Some(Reverse(head)) = self.heads.pop() else {
            return Ok(None);
        };
        let run = &self.runs[head.run];
        if head.next < run.len() {
            self.heads.push(Reverse(MergeHead {
                rec: KeyedPoint::get(&run.get(head.next)?)?,
                run: head.run,
                next: head.next + 1,
            }));
        }
        self.remaining -= 1;
        Ok(Some(head.rec))
    }
}

/// A raw (unkeyed, unsorted) spill of `(oid, point)` records — the
/// staging pass of a streaming build: the input iterator is consumed once
/// to disk while the dataset bounds are computed, and then replayed into
/// a [`HilbertSorter`] (whose grid needs those bounds up front).
pub struct PointSpill<const D: usize> {
    heap: HeapFile,
    /// Reusable record-encoding buffer.
    rec: Writer,
    /// Tight bounds over every spilled point.
    pub bounds: Mbr<D>,
    /// Number of spilled points.
    pub len: u64,
}

impl<const D: usize> PointSpill<D> {
    /// An empty spill on `scratch`; fill it with [`push`](Self::push).
    pub fn create(scratch: Arc<BufferPool>) -> Result<Self> {
        Ok(PointSpill {
            heap: HeapFile::create(scratch, ObjectEntry::<D>::SIZE)?,
            rec: Writer::with_capacity(ObjectEntry::<D>::SIZE),
            bounds: Mbr::empty(),
            len: 0,
        })
    }

    /// Appends one record, expanding the bounds. Rejects non-finite
    /// coordinates.
    pub fn push(&mut self, oid: u64, point: Point<D>) -> Result<()> {
        if !point.is_finite() {
            return Err(StoreError::corrupt("points must have finite coordinates"));
        }
        self.rec.clear();
        ObjectEntry { oid, point }.put(&mut self.rec);
        self.heap.append(self.rec.as_bytes())?;
        self.bounds.expand(&Mbr::from_point(&point));
        self.len += 1;
        Ok(())
    }

    /// Consumes `points` into a heap file on `scratch`, computing bounds
    /// and rejecting non-finite coordinates.
    pub fn consume(
        scratch: Arc<BufferPool>,
        points: impl IntoIterator<Item = (u64, Point<D>)>,
    ) -> Result<Self> {
        let mut spill = Self::create(scratch)?;
        for (oid, point) in points {
            spill.push(oid, point)?;
        }
        Ok(spill)
    }

    /// Replays every spilled record, in spill order, into `f`.
    pub fn replay(&self, mut f: impl FnMut(u64, Point<D>) -> Result<()>) -> Result<()> {
        self.heap.scan(|_, record| {
            let o = ObjectEntry::get(&mut Reader::new(record))?;
            f(o.oid, o.point)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_store::MemDisk;

    fn scratch() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(MemDisk::new(), 64))
    }

    fn unit_bounds() -> Mbr<2> {
        Mbr::new([0.0, 0.0], [1.0, 1.0])
    }

    #[test]
    fn matches_in_memory_sort_across_run_budgets() {
        // 257 pseudo-random points, budgets that do and don't divide the
        // input: the external order must equal one big in-memory sort.
        let mut pts = Vec::new();
        let mut s = 0x9E3779B97F4A7C15u64;
        for i in 0..257u64 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (s >> 40) as f64 / (1u64 << 24) as f64;
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (s >> 40) as f64 / (1u64 << 24) as f64;
            pts.push((i, Point::new([x, y])));
        }
        let mapper = GridMapper::new(unit_bounds());
        let mut expect: Vec<(u128, u64)> = pts
            .iter()
            .map(|(oid, p)| (mapper.hilbert_key(p), *oid))
            .collect();
        expect.sort_unstable();

        for budget in [7usize, 64, 500] {
            let mut sorter = HilbertSorter::new(scratch(), unit_bounds(), budget);
            for (oid, p) in &pts {
                sorter.push(*oid, *p).unwrap();
            }
            let mut stream = sorter.finish().unwrap();
            let mut got = Vec::new();
            while let Some(r) = stream.next_point().unwrap() {
                got.push((r.key, r.oid));
            }
            assert_eq!(got, expect, "budget {budget}");
            assert_eq!(stream.remaining(), 0);
        }
    }

    #[test]
    fn duplicate_keys_tie_break_on_oid() {
        // All points identical: every key collides, so the output order is
        // pinned entirely by the oid tie-break — ascending, total, and
        // independent of push order.
        let mut sorter = HilbertSorter::new(scratch(), unit_bounds(), 4);
        for oid in [9u64, 2, 7, 0, 5, 3, 8, 1, 6, 4] {
            sorter.push(oid, Point::new([0.5, 0.5])).unwrap();
        }
        let mut stream = sorter.finish().unwrap();
        let mut oids = Vec::new();
        while let Some(r) = stream.next_point().unwrap() {
            oids.push(r.oid);
        }
        assert_eq!(oids, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_single_inputs() {
        let sorter: HilbertSorter<2> = HilbertSorter::new(scratch(), unit_bounds(), 8);
        assert!(sorter.is_empty());
        let mut stream = sorter.finish().unwrap();
        assert!(stream.next_point().unwrap().is_none());

        let mut sorter = HilbertSorter::new(scratch(), unit_bounds(), 8);
        sorter.push(42, Point::new([0.25, 0.75])).unwrap();
        assert_eq!(sorter.len(), 1);
        let mut stream = sorter.finish().unwrap();
        let r = stream.next_point().unwrap().unwrap();
        assert_eq!(r.oid, 42);
        assert!(stream.next_point().unwrap().is_none());
    }

    #[test]
    fn non_finite_points_are_rejected() {
        let mut sorter = HilbertSorter::new(scratch(), unit_bounds(), 8);
        assert!(sorter.push(0, Point::new([f64::NAN, 0.0])).is_err());
    }

    #[test]
    fn record_round_trips() {
        let r = KeyedPoint::<3> {
            key: 0x0123_4567_89AB_CDEF_0011_2233_4455_6677,
            oid: u64::MAX - 5,
            point: Point::new([1.5, -2.25, 1e300]),
        };
        let mut w = Writer::default();
        r.put(&mut w);
        assert_eq!(w.as_bytes().len(), KeyedPoint::<3>::record_size());
        assert_eq!(KeyedPoint::<3>::get(w.as_bytes()).unwrap(), r);
    }

    #[test]
    fn point_spill_replays_in_order_with_bounds() {
        let pts = vec![
            (3u64, Point::new([0.5, -1.0])),
            (1, Point::new([2.0, 4.0])),
            (2, Point::new([-3.0, 0.25])),
        ];
        let spill = PointSpill::consume(scratch(), pts.clone()).unwrap();
        assert_eq!(spill.len, 3);
        assert_eq!(spill.bounds, Mbr::new([-3.0, -1.0], [2.0, 4.0]));
        let mut replayed = Vec::new();
        spill
            .replay(|oid, p| {
                replayed.push((oid, p));
                Ok(())
            })
            .unwrap();
        assert_eq!(replayed, pts);

        let bad = PointSpill::consume(scratch(), vec![(0u64, Point::new([f64::INFINITY, 0.0]))]);
        assert!(bad.is_err());
    }
}
