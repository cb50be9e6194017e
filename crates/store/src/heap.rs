//! A heap file of fixed-size records, chained page to page.
//!
//! Page layout: `next: u32` (page id of the successor, [`INVALID_PAGE`] at
//! the tail), `count: u32`, then `count` records of `record_size` bytes.
//!
//! Dataset scans (GORDER's sorted input file, BNN's sorted query file) run
//! through [`HeapFile::scan`], so they are charged buffer-pool I/O exactly
//! like index traversals are.

use crate::{BufferPool, PageId, Result, StoreError, INVALID_PAGE, PAGE_SIZE};
use std::sync::Arc;

const HEADER: usize = 8;

fn read_u32(bytes: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
}

fn write_u32(bytes: &mut [u8], at: usize, v: u32) {
    bytes[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// A chained file of fixed-size records stored through a [`BufferPool`].
pub struct HeapFile {
    pool: Arc<BufferPool>,
    record_size: usize,
    per_page: usize,
    first: PageId,
    last: PageId,
    /// In-memory extent directory: page id of every page in the chain, in
    /// order. Keeps record addressing O(1) instead of walking the chain.
    pages: Vec<PageId>,
    len: u64,
}

impl HeapFile {
    /// Creates an empty heap file of `record_size`-byte records.
    ///
    /// # Panics
    ///
    /// Panics if a record (plus header) does not fit in one page or if
    /// `record_size` is zero.
    pub fn create(pool: Arc<BufferPool>, record_size: usize) -> Result<Self> {
        assert!(record_size > 0, "record size must be positive");
        assert!(
            record_size <= PAGE_SIZE - HEADER,
            "record of {record_size} bytes does not fit in a page"
        );
        let first = pool.allocate()?;
        pool.with_page_mut(first, |bytes| {
            write_u32(bytes, 0, INVALID_PAGE);
            write_u32(bytes, 4, 0);
        })?;
        Ok(HeapFile {
            pool,
            record_size,
            per_page: (PAGE_SIZE - HEADER) / record_size,
            first,
            last: first,
            pages: vec![first],
            len: 0,
        })
    }

    /// Number of records in the file.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` when the file holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Records stored per page.
    pub fn records_per_page(&self) -> usize {
        self.per_page
    }

    /// Page id of the first page in the chain.
    pub fn first_page(&self) -> PageId {
        self.first
    }

    /// Number of pages in the chain.
    pub fn num_pages(&self) -> u64 {
        if self.len == 0 {
            1
        } else {
            self.len.div_ceil(self.per_page as u64)
        }
    }

    /// Appends one record.
    ///
    /// # Panics
    ///
    /// Panics if `record.len() != record_size`.
    pub fn append(&mut self, record: &[u8]) -> Result<()> {
        assert_eq!(record.len(), self.record_size, "record size mismatch");
        let count = self
            .pool
            .with_page(self.last, |bytes| read_u32(bytes, 4) as usize)?;
        let target = if count < self.per_page {
            self.last
        } else {
            let new_page = self.pool.allocate()?;
            self.pool.with_page_mut(new_page, |bytes| {
                write_u32(bytes, 0, INVALID_PAGE);
                write_u32(bytes, 4, 0);
            })?;
            self.pool
                .with_page_mut(self.last, |bytes| write_u32(bytes, 0, new_page))?;
            self.last = new_page;
            self.pages.push(new_page);
            new_page
        };
        let rec_size = self.record_size;
        self.pool.with_page_mut(target, |bytes| {
            let count = read_u32(bytes, 4) as usize;
            let at = HEADER + count * rec_size;
            bytes[at..at + rec_size].copy_from_slice(record);
            write_u32(bytes, 4, (count + 1) as u32);
        })?;
        self.len += 1;
        Ok(())
    }

    /// Reads the record at position `idx` (O(1) via the page directory).
    pub fn get(&self, idx: u64) -> Result<Vec<u8>> {
        if idx >= self.len {
            return Err(StoreError::corrupt("heap record index out of range"));
        }
        let page = self.pages[idx as usize / self.per_page];
        let slot = idx as usize % self.per_page;
        let rec_size = self.record_size;
        self.pool.with_page(page, |bytes| {
            let at = HEADER + slot * rec_size;
            bytes[at..at + rec_size].to_vec()
        })
    }

    /// Visits the records `start .. start + count` in order, calling
    /// `f(index, bytes)`. Reads each touched page once.
    ///
    /// Each page is copied out of the pool before `f` runs, so the
    /// callback may itself go through the same pool (e.g. appending to
    /// another heap file) without deadlocking on a page latch.
    pub fn scan_range(&self, start: u64, count: u64, mut f: impl FnMut(u64, &[u8])) -> Result<()> {
        if start + count > self.len {
            return Err(StoreError::corrupt("heap scan range out of bounds"));
        }
        let rec_size = self.record_size;
        let mut copy = vec![0u8; PAGE_SIZE];
        let mut idx = start;
        let end = start + count;
        while idx < end {
            let page = self.pages[idx as usize / self.per_page];
            let first_slot = idx as usize % self.per_page;
            let here = (self.per_page - first_slot).min((end - idx) as usize);
            self.pool
                .with_page(page, |bytes| copy.copy_from_slice(bytes))?;
            for s in 0..here {
                let at = HEADER + (first_slot + s) * rec_size;
                f(idx + s as u64, &copy[at..at + rec_size]);
            }
            idx += here as u64;
        }
        Ok(())
    }

    /// Visits every record in order, calling `f(index, bytes)`.
    ///
    /// Each page is copied out of the pool before `f` runs, so the
    /// callback may itself go through the same pool (e.g. appending to
    /// another heap file) without deadlocking on a page latch.
    pub fn scan(&self, mut f: impl FnMut(u64, &[u8])) -> Result<()> {
        let mut page = self.first;
        let mut idx = 0u64;
        let rec_size = self.record_size;
        let mut copy = vec![0u8; PAGE_SIZE];
        while page != INVALID_PAGE {
            self.pool
                .with_page(page, |bytes| copy.copy_from_slice(bytes))?;
            let count = read_u32(&copy, 4) as usize;
            for slot in 0..count {
                let at = HEADER + slot * rec_size;
                f(idx, &copy[at..at + rec_size]);
                idx += 1;
            }
            page = read_u32(&copy, 0);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemDisk;

    fn pool() -> Arc<BufferPool> {
        Arc::new(BufferPool::new(MemDisk::new(), 8))
    }

    #[test]
    fn append_and_get() {
        let mut hf = HeapFile::create(pool(), 8).unwrap();
        for i in 0u64..100 {
            hf.append(&i.to_le_bytes()).unwrap();
        }
        assert_eq!(hf.len(), 100);
        for i in (0u64..100).rev() {
            assert_eq!(hf.get(i).unwrap(), i.to_le_bytes());
        }
        assert!(hf.get(100).is_err());
    }

    #[test]
    fn scan_visits_in_order_across_pages() {
        // Large records force multiple pages.
        let mut hf = HeapFile::create(pool(), 1024).unwrap();
        assert_eq!(hf.records_per_page(), (PAGE_SIZE - HEADER) / 1024);
        let n = 50u64; // > 7 records/page → several pages
        for i in 0..n {
            let mut rec = vec![0u8; 1024];
            rec[..8].copy_from_slice(&i.to_le_bytes());
            hf.append(&rec).unwrap();
        }
        assert!(hf.num_pages() > 3);
        let mut seen = vec![];
        hf.scan(|idx, bytes| {
            assert_eq!(idx, u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            seen.push(idx);
        })
        .unwrap();
        assert_eq!(seen, (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn scan_of_empty_file() {
        let hf = HeapFile::create(pool(), 16).unwrap();
        assert!(hf.is_empty());
        assert_eq!(hf.num_pages(), 1);
        let mut called = false;
        hf.scan(|_, _| called = true).unwrap();
        assert!(!called);
    }

    #[test]
    fn survives_pool_eviction() {
        // Pool of 2 frames but a file of many pages: records must survive
        // round trips through the (Mem)disk.
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 2));
        let mut hf = HeapFile::create(pool.clone(), 2000).unwrap();
        for i in 0u64..40 {
            let mut rec = vec![0u8; 2000];
            rec[..8].copy_from_slice(&i.to_le_bytes());
            hf.append(&rec).unwrap();
        }
        pool.reset_stats();
        let mut count = 0;
        hf.scan(|idx, bytes| {
            assert_eq!(idx, u64::from_le_bytes(bytes[..8].try_into().unwrap()));
            count += 1;
        })
        .unwrap();
        assert_eq!(count, 40);
        assert!(
            pool.stats().physical_reads > 0,
            "a 2-frame pool cannot hold the whole file"
        );
    }

    #[test]
    #[should_panic(expected = "record size mismatch")]
    fn append_rejects_wrong_size() {
        let mut hf = HeapFile::create(pool(), 8).unwrap();
        hf.append(&[0u8; 4]).unwrap();
    }
}
