//! A redo journal giving multi-page updates all-or-nothing semantics.
//!
//! Structural index updates (an MBRQT bucket split, an R*-tree split with
//! forced reinsertion) rewrite many pages; a crash part-way through would
//! otherwise leave the tree unreadable. The journal implements classic
//! redo-only write-ahead logging with full-page after-images:
//!
//! 1. every page image in the batch is appended to a chain of journal
//!    data pages and flushed;
//! 2. the journal header is marked `COMMITTED` and flushed — **this
//!    single page write is the atomic commit point**;
//! 3. the images are copied to their home pages and flushed;
//! 4. the header is marked `EMPTY` again and flushed.
//!
//! A crash before step 2 leaves the header `EMPTY`: recovery discards the
//! partial chain and the tree keeps its old state. A crash after step 2
//! finds the header `COMMITTED`: recovery replays the images (idempotent
//! full-page writes, so replaying twice is harmless) and then clears the
//! header. Torn writes inside the chain or header are caught by the
//! pool's frame checksums.
//!
//! Each index owns one journal whose header page is allocated immediately
//! after the index's meta page, so `open` can find it without any
//! discoverable state of its own.
//!
//! The header page is `magic: [u8; 8] | state: u32 | num_records: u32 |
//! first_data: u32`. The data pages are a [`Chain`] of their own magic
//! whose payload is the records back to back, each `page: u32 | crc: u32
//! | image` and split wherever a page ends. The chain is reused across
//! commits and only grows.

use crate::checksum::{crc32_finish, crc32_update, CRC_INIT};
use crate::page::{Chain, Reader, Writer};
use crate::{BufferPool, PageId, Result, StoreError, INVALID_PAGE, PAGE_SIZE};

const JOURNAL_MAGIC: &[u8; 8] = b"ANNJRNL1";
/// The data stream's chain: records back to back, each split wherever a
/// page ends.
const DATA: Chain = Chain::new(0x1A2B_3C4D);
const STATE_EMPTY: u32 = 0;
const STATE_COMMITTED: u32 = 0xC033_117E;

/// Encoded size of one journal record: page id, CRC32, full page image.
pub const RECORD_SIZE: usize = 8 + PAGE_SIZE;

/// Encodes one `(page, after-image)` record for the journal stream:
/// `page: u32 | crc: u32 | image`. The CRC covers the page id and the
/// image, so replay can tell a record that was fully persisted from one
/// that was torn mid-write.
///
/// # Panics
///
/// Panics if `image` is not exactly [`PAGE_SIZE`] bytes.
pub fn encode_record(page: PageId, image: &[u8]) -> Vec<u8> {
    assert_eq!(image.len(), PAGE_SIZE, "journal records hold full pages");
    let mut w = Writer::with_capacity(RECORD_SIZE);
    w.u32(page);
    let crc = crc32_finish(crc32_update(crc32_update(CRC_INIT, w.as_bytes()), image));
    w.u32(crc);
    w.bytes(image);
    w.into_bytes()
}

/// Decodes (and CRC-checks) one record from the front of `bytes`,
/// returning the target page and its after-image.
pub fn decode_record(bytes: &[u8]) -> Result<(PageId, &[u8])> {
    let mut r = Reader::new(bytes);
    let (page, stored, image) = (r.u32()?, r.u32()?, r.take(PAGE_SIZE)?);
    let crc = crc32_finish(crc32_update(crc32_update(CRC_INIT, &bytes[0..4]), image));
    if crc != stored {
        return Err(StoreError::corrupt("journal record checksum mismatch"));
    }
    Ok((page, image))
}

/// What [`Journal::open`] found and did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Recovery {
    /// The journal was empty: the last commit (if any) fully completed.
    Clean,
    /// A committed batch had not fully reached its home pages; its
    /// `pages` after-images were replayed.
    Replayed {
        /// Number of page images replayed.
        pages: u64,
    },
    /// The header was torn or unreadable, meaning a crash hit before the
    /// commit point; the partial batch was discarded.
    Discarded,
}

/// Handle to an on-disk journal: just the id of its header page.
///
/// All journal state lives on disk (reached through the pool), so the
/// handle is freely copyable and a reopened index reconstructs it from
/// the meta page id alone.
#[derive(Clone, Copy, Debug)]
pub struct Journal {
    header: PageId,
}

impl Journal {
    /// Allocates and initializes an empty journal, returning its handle.
    pub fn create(pool: &BufferPool) -> Result<Journal> {
        let header = pool.allocate()?;
        let journal = Journal { header };
        journal.write_header(pool, STATE_EMPTY, 0, INVALID_PAGE)?;
        pool.flush_pages(&[header])?;
        Ok(journal)
    }

    /// Opens the journal at `header`, running recovery: replays a
    /// committed-but-unapplied batch, or discards a partial one.
    pub fn open(pool: &BufferPool, header: PageId) -> Result<(Journal, Recovery)> {
        let journal = Journal { header };
        let Some((state, num_records, first_data)) = journal.read_header(pool)? else {
            // Torn or foreign header: the crash hit before the commit
            // point, so the partial batch is abandoned.
            journal.write_header(pool, STATE_EMPTY, 0, INVALID_PAGE)?;
            pool.flush_pages(&[header])?;
            return Ok((journal, Recovery::Discarded));
        };
        if state != STATE_COMMITTED {
            // EMPTY (or an unknown state from a half-applied header
            // update, which the frame checksum makes vanishingly
            // unlikely): nothing to do.
            return Ok((journal, Recovery::Clean));
        }
        let len = num_records as usize * RECORD_SIZE;
        let mut stream = Vec::with_capacity(len);
        DATA.read(pool, first_data, Some(len), &mut stream)?;
        let mut homes = Vec::with_capacity(num_records as usize);
        for i in 0..num_records as usize {
            let (page, image) = decode_record(&stream[i * RECORD_SIZE..])?;
            pool.overwrite_page(page, image)?;
            homes.push(page);
        }
        pool.flush_pages(&homes)?;
        journal.write_header(pool, STATE_EMPTY, 0, first_data)?;
        pool.flush_pages(&[header])?;
        Ok((
            journal,
            Recovery::Replayed {
                pages: num_records as u64,
            },
        ))
    }

    /// Page id of the journal header.
    pub fn header_page(&self) -> PageId {
        self.header
    }

    /// Durably applies `writes` (sorted `(page, after-image)` pairs) with
    /// all-or-nothing semantics. On success every image is on its home
    /// page and flushed. On error nothing is guaranteed to have applied —
    /// but reopening via [`Journal::open`] always yields either the full
    /// batch or none of it.
    pub(crate) fn commit(&self, pool: &BufferPool, writes: &[(PageId, Box<[u8]>)]) -> Result<()> {
        if writes.is_empty() {
            return Ok(());
        }
        // 1. Lay the batch over the data chain: the pages linked from the
        // header first, new ones once they run out. Pages past the disk's
        // end when the commit began are this commit's own and link nowhere.
        let mut stream = Writer::with_capacity(writes.len() * RECORD_SIZE);
        for (page, image) in writes {
            stream.bytes(&encode_record(*page, image));
        }
        let first_data = match self.read_header(pool)? {
            Some((_, _, first)) => first,
            None => INVALID_PAGE,
        };
        let fresh = pool.num_pages();
        let mut images = Vec::new();
        let chain = DATA.write(
            first_data,
            stream.as_bytes(),
            |page| {
                if page >= fresh {
                    return Ok(INVALID_PAGE);
                }
                match pool.with_page(page, |b| DATA.link(b)) {
                    // A rotted old chain page is fine to recycle: its
                    // contents are about to be overwritten.
                    Err(StoreError::Corrupt { .. }) => Ok(INVALID_PAGE),
                    linked => linked,
                }
            },
            || pool.allocate(),
            |page, laid| {
                images.push((page, laid.image()));
                Ok(())
            },
        )?;
        for (page, image) in &images {
            pool.overwrite_page(*page, image)?;
        }
        pool.flush_pages(&chain)?;
        // 2. Commit point: one flushed header write.
        self.write_header(pool, STATE_COMMITTED, writes.len() as u32, chain[0])?;
        pool.flush_pages(&[self.header])?;
        // 3. Apply to home pages.
        for (page, image) in writes {
            pool.overwrite_page(*page, image)?;
        }
        let homes: Vec<PageId> = writes.iter().map(|(p, _)| *p).collect();
        pool.flush_pages(&homes)?;
        // 4. Clear the commit mark (keeping the chain for reuse).
        self.write_header(pool, STATE_EMPTY, 0, chain[0])?;
        pool.flush_pages(&[self.header])?;
        Ok(())
    }

    /// Writes the header page: `magic: [u8; 8] | state: u32 |
    /// num_records: u32 | first_data: u32`, then zeros.
    fn write_header(
        &self,
        pool: &BufferPool,
        state: u32,
        num_records: u32,
        first_data: PageId,
    ) -> Result<()> {
        let mut w = Writer::with_capacity(20);
        w.bytes(JOURNAL_MAGIC);
        w.u32(state);
        w.u32(num_records);
        w.u32(first_data);
        let mut page = vec![0u8; PAGE_SIZE];
        w.write_into(&mut page)?;
        pool.overwrite_page(self.header, &page)
    }

    /// Reads the header, returning `Ok(None)` when it is torn, foreign or
    /// checksum-invalid (recovery treats that as "before the commit
    /// point") and propagating genuine I/O failures.
    fn read_header(&self, pool: &BufferPool) -> Result<Option<(u32, u32, PageId)>> {
        let parsed = pool.with_page(self.header, |b| {
            let mut r = Reader::new(b);
            if r.take(JOURNAL_MAGIC.len())? != JOURNAL_MAGIC {
                return Ok(None);
            }
            Ok(Some((r.u32()?, r.u32()?, r.u32()?)))
        });
        match parsed.and_then(|header| header) {
            Ok(header) => Ok(header),
            Err(StoreError::Corrupt { .. }) | Err(StoreError::PageOutOfBounds(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferPool, MemDisk};

    #[test]
    fn record_roundtrip() {
        let image = vec![7u8; PAGE_SIZE];
        let rec = encode_record(42, &image);
        assert_eq!(rec.len(), RECORD_SIZE);
        let (page, back) = decode_record(&rec).unwrap();
        assert_eq!(page, 42);
        assert_eq!(back, &image[..]);
    }

    #[test]
    fn fresh_journal_opens_clean() {
        let pool = BufferPool::new(MemDisk::new(), 8);
        let journal = Journal::create(&pool).unwrap();
        let (_, recovery) = Journal::open(&pool, journal.header_page()).unwrap();
        assert_eq!(recovery, Recovery::Clean);
    }

    #[test]
    fn commit_applies_and_clears() {
        let pool = BufferPool::new(MemDisk::new(), 8);
        let journal = Journal::create(&pool).unwrap();
        let a = pool.allocate().unwrap();
        let b = pool.allocate().unwrap();
        let writes = vec![
            (a, vec![1u8; PAGE_SIZE].into_boxed_slice()),
            (b, vec![2u8; PAGE_SIZE].into_boxed_slice()),
        ];
        journal.commit(&pool, &writes).unwrap();
        assert_eq!(pool.with_page(a, |p| p[0]).unwrap(), 1);
        assert_eq!(pool.with_page(b, |p| p[0]).unwrap(), 2);
        let (_, recovery) = Journal::open(&pool, journal.header_page()).unwrap();
        assert_eq!(recovery, Recovery::Clean);
    }

    #[test]
    fn chain_pages_are_reused_across_commits() {
        let pool = BufferPool::new(MemDisk::new(), 8);
        let journal = Journal::create(&pool).unwrap();
        let a = pool.allocate().unwrap();
        journal
            .commit(&pool, &[(a, vec![1u8; PAGE_SIZE].into_boxed_slice())])
            .unwrap();
        let pages_after_first = pool.num_pages();
        for round in 2..6u8 {
            journal
                .commit(&pool, &[(a, vec![round; PAGE_SIZE].into_boxed_slice())])
                .unwrap();
        }
        assert_eq!(
            pool.num_pages(),
            pages_after_first,
            "same-size commits must not grow the disk"
        );
        assert_eq!(pool.with_page(a, |p| p[0]).unwrap(), 5);
    }
}
