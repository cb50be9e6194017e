//! Page constants, and the one page codec every on-disk layout is
//! written with: a bounds-checked little-endian [`Reader`] / [`Writer`]
//! and the continuation [`Chain`], which spreads a payload too large for
//! one page over linked pages. The byte table of every layout is in
//! DESIGN.md §7.

use crate::pool::PageStore;
use crate::{Result, StoreError};

/// Size of a disk page in bytes.
///
/// The paper compiles SHORE with 8 KB pages (§4.1); every node of every
/// index in this workspace occupies exactly one such page.
pub const PAGE_SIZE: usize = 8192;

/// Identifier of a page within a [`crate::DiskBackend`].
///
/// 32 bits address 32 TiB of 8 KiB pages — far beyond any workload here —
/// while keeping on-page child pointers compact.
pub type PageId = u32;

/// Sentinel for "no page" (e.g. absent child pointers in serialized nodes).
pub const INVALID_PAGE: PageId = u32::MAX;

/// Bytes of the per-frame integrity trailer: a CRC32 of the page payload
/// plus a seal magic (see [`crate::checksum`]).
pub const PAGE_TRAILER: usize = 8;

/// Size of a physical frame as stored by a [`crate::DiskBackend`]:
/// the [`PAGE_SIZE`] client payload followed by the [`PAGE_TRAILER`].
///
/// Clients of the buffer pool only ever see [`PAGE_SIZE`] bytes; the
/// trailer is sealed on physical write and verified on physical read at
/// the pool boundary.
pub const FRAME_SIZE: usize = PAGE_SIZE + PAGE_TRAILER;

/// A little-endian cursor over stored bytes. Running out of bytes is
/// [`StoreError::Corrupt`], never a panic.
#[derive(Clone, Debug)]
pub struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader(bytes)
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.0.len() {
            return Err(StoreError::corrupt("stored bytes end inside a field"));
        }
        let (field, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(field)
    }

    /// Everything not read yet.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        self.0
    }
}

/// A little-endian encoder. It appends to its own buffer, so encoding
/// cannot fail; [`write_into`](Self::write_into) lays the bytes on a page.
#[derive(Clone, Debug, Default)]
pub struct Writer(Vec<u8>);

impl Writer {
    /// An empty writer with room for `n` bytes.
    pub fn with_capacity(n: usize) -> Self {
        Writer(Vec::with_capacity(n))
    }

    /// Appends raw bytes.
    #[inline]
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The bytes written, by value.
    pub fn into_bytes(self) -> Vec<u8> {
        self.0
    }

    /// Forgets the bytes written, keeping the buffer.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// Copies the bytes over the front of `page`, leaving the rest as it
    /// was; [`StoreError::Corrupt`] when they do not fit.
    pub fn write_into(&self, page: &mut [u8]) -> Result<()> {
        page.get_mut(..self.0.len())
            .ok_or(StoreError::corrupt("page layout overflows its page"))?
            .copy_from_slice(&self.0);
        Ok(())
    }
}

/// One `Reader` getter and one `Writer` appender per fixed-width type.
macro_rules! little_endian {
    ($($t:ident),*) => {
        impl Reader<'_> {$(
            #[doc = concat!("The next `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self) -> Result<$t> {
                let field = self.take(std::mem::size_of::<$t>())?;
                Ok($t::from_le_bytes(field.try_into().expect("taken to size")))
            }
        )*}
        impl Writer {$(
            #[doc = concat!("Appends a `", stringify!($t), "`.")]
            #[inline]
            pub fn $t(&mut self, v: $t) {
                self.bytes(&v.to_le_bytes());
            }
        )*}
    };
}

little_endian!(u8, u32, u64, f64);

/// Payload bytes per chain page, after `next: u32 | magic: u32`.
const CAPACITY: usize = PAGE_SIZE - 8;

/// A continuation chain: a payload laid over linked pages, each
/// `next: u32 | magic: u32 | payload`. The structure owning the chain
/// picks the magic, so a link into a stale, zeroed or foreign page reads
/// as [`StoreError::Corrupt`] naming that page.
///
/// Chains are reused in place. A rewrite lays its payload over the pages
/// already linked, extends them when it needs more, and leaves the last
/// page it writes linked to whatever spare tail a longer payload left
/// behind, so readers need the payload length or walk the whole chain.
#[derive(Clone, Copy, Debug)]
pub struct Chain {
    magic: u32,
}

impl Chain {
    /// The chain whose pages carry `magic`.
    pub const fn new(magic: u32) -> Chain {
        Chain { magic }
    }

    /// The page linked after `page`, or [`INVALID_PAGE`] when `page` is
    /// not one of this chain's.
    pub fn link(&self, page: &[u8]) -> PageId {
        let mut r = Reader::new(page);
        match (r.u32(), r.u32()) {
            (Ok(next), Ok(magic)) if magic == self.magic => next,
            _ => INVALID_PAGE,
        }
    }

    /// Lays `payload` over the chain at `head` (allocated first when
    /// [`INVALID_PAGE`]) and returns the pages written; an empty payload
    /// still writes the head. Per page, in order: `linked` names the page
    /// linked after it now, `allocate` supplies one when the payload goes
    /// on and none is, and `put` writes the page. The callers own the
    /// page I/O, so each keeps its own page-op order.
    pub fn write<'p>(
        &self,
        head: PageId,
        payload: &'p [u8],
        mut linked: impl FnMut(PageId) -> Result<PageId>,
        mut allocate: impl FnMut() -> Result<PageId>,
        mut put: impl FnMut(PageId, ChainPage<'p>) -> Result<()>,
    ) -> Result<Vec<PageId>> {
        let mut chunks = payload.chunks(CAPACITY).peekable();
        let mut page = match head {
            INVALID_PAGE => allocate()?,
            head => head,
        };
        let mut laid = Vec::new();
        loop {
            let chunk = chunks.next().unwrap_or_default();
            let mut next = linked(page)?;
            if next == INVALID_PAGE && chunks.peek().is_some() {
                next = allocate()?;
            }
            let magic = self.magic;
            put(page, ChainPage { magic, next, chunk })?;
            laid.push(page);
            if chunks.peek().is_none() {
                return Ok(laid);
            }
            page = next;
        }
    }

    /// Appends the payload of the chain at `head` to `out`, checking every
    /// page's magic and that no page comes twice, and returns the pages
    /// read: enough for `len` bytes, or with `None` every linked page,
    /// spare tail included.
    pub fn read(
        &self,
        store: &impl PageStore,
        head: PageId,
        len: Option<usize>,
        out: &mut Vec<u8>,
    ) -> Result<Vec<PageId>> {
        let end = len.map(|len| out.len() + len);
        let (mut pages, mut page) = (Vec::new(), head);
        while end.map_or(page != INVALID_PAGE, |end| out.len() < end) {
            if page == INVALID_PAGE {
                let what = "chain ends before its payload does";
                return Err(StoreError::Corrupt {
                    page: pages.last().copied(),
                    what,
                });
            }
            if pages.contains(&page) {
                return Err(StoreError::corrupt_page(
                    page,
                    "chain links back into itself",
                ));
            }
            pages.push(page);
            page = store.with_page(page, |bytes| {
                let mut r = Reader::new(bytes);
                let next = r.u32()?;
                if r.u32()? != self.magic {
                    return Err(StoreError::corrupt_page(page, "not a page of this chain"));
                }
                let here = end.map_or(CAPACITY, |end| (end - out.len()).min(CAPACITY));
                out.extend_from_slice(&r.rest()[..here]);
                Ok(next)
            })??;
        }
        Ok(pages)
    }
}

/// One page as [`Chain::write`] lays it: the link and its payload slice.
#[derive(Clone, Copy, Debug)]
pub struct ChainPage<'a> {
    magic: u32,
    next: PageId,
    chunk: &'a [u8],
}

impl ChainPage<'_> {
    /// Writes the page over the front of `page`; later bytes are kept.
    pub fn write_over(&self, page: &mut [u8]) {
        page[0..4].copy_from_slice(&self.next.to_le_bytes());
        page[4..8].copy_from_slice(&self.magic.to_le_bytes());
        page[8..8 + self.chunk.len()].copy_from_slice(self.chunk);
    }

    /// The whole page: the link, the payload slice, then zeros.
    pub fn image(&self) -> Box<[u8]> {
        let mut page = vec![0; PAGE_SIZE].into_boxed_slice();
        self.write_over(&mut page);
        page
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferPool, MemDisk};

    #[test]
    fn constants() {
        assert_eq!(PAGE_SIZE, 8192);
        assert_eq!(FRAME_SIZE, PAGE_SIZE + PAGE_TRAILER);
        assert_ne!(INVALID_PAGE, 0);
    }

    #[test]
    fn cursor_round_trips_and_stops_at_the_end() {
        let mut w = Writer::default();
        w.u8(7);
        w.u32(0xDEAD_BEEF);
        w.u64(u64::MAX - 1);
        w.f64(-0.1);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 1 + 4 + 8 + 8);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.f64().unwrap().to_bits(), (-0.1f64).to_bits());
        assert!(r.rest().is_empty());
        assert!(matches!(r.u8(), Err(StoreError::Corrupt { .. })));
    }

    #[test]
    fn writer_refuses_to_overflow_a_page() {
        let mut w = Writer::default();
        w.bytes(&[1; 9]);
        let mut page = [0u8; 8];
        assert!(matches!(
            w.write_into(&mut page),
            Err(StoreError::Corrupt { .. })
        ));
        w.clear();
        w.u32(5);
        w.write_into(&mut page).unwrap();
        assert_eq!(page, [5, 0, 0, 0, 0, 0, 0, 0]);
    }

    /// Lays `payload` the way the journal does: reads the old links,
    /// overwrites whole pages.
    fn lay(pool: &BufferPool, chain: Chain, head: PageId, payload: &[u8]) -> Vec<PageId> {
        chain
            .write(
                head,
                payload,
                |p| pool.with_page(p, |b| chain.link(b)),
                || pool.allocate(),
                |p, page| pool.overwrite_page(p, &page.image()),
            )
            .unwrap()
    }

    #[test]
    fn chains_reuse_their_pages_and_keep_the_spare_tail() {
        let pool = BufferPool::new(MemDisk::new(), 8);
        let chain = Chain::new(0xC4A1_0001);
        let long: Vec<u8> = (0..3 * CAPACITY).map(|i| i as u8).collect();
        let pages = lay(&pool, chain, INVALID_PAGE, &long);
        assert_eq!(pages.len(), 3);
        let mut back = Vec::new();
        chain
            .read(&pool, pages[0], Some(long.len()), &mut back)
            .unwrap();
        assert_eq!(back, long);

        // A short rewrite uses the head alone, which still links the tail.
        assert_eq!(lay(&pool, chain, pages[0], b"short"), &pages[..1]);
        let mut payload = Vec::new();
        assert_eq!(
            chain.read(&pool, pages[0], None, &mut payload).unwrap(),
            pages
        );
        assert_eq!(&payload[..5], b"short");

        // A longer one reuses the tail before allocating.
        let longer = vec![9u8; 4 * CAPACITY - 1];
        let grown = lay(&pool, chain, pages[0], &longer);
        assert_eq!(&grown[..3], &pages[..]);
        assert_eq!(grown.len(), 4);
        assert_eq!(pool.num_pages(), 4);
    }

    #[test]
    fn foreign_pages_cycles_and_short_chains_are_corrupt() {
        let pool = BufferPool::new(MemDisk::new(), 8);
        let chain = Chain::new(0xC4A1_0002);
        let pages = lay(&pool, chain, INVALID_PAGE, &[1; CAPACITY + 1]);
        let other = Chain::new(0xC4A1_0003);
        let foreign = |e| matches!(e, StoreError::Corrupt { page: Some(p), .. } if p == pages[0]);
        assert!(foreign(
            other
                .read(&pool, pages[0], Some(1), &mut Vec::new())
                .unwrap_err()
        ));
        assert!(foreign(
            other
                .read(&pool, pages[0], None, &mut Vec::new())
                .unwrap_err()
        ));
        assert_eq!(other.link(&[0; 8]), INVALID_PAGE);

        let past_end = chain.read(&pool, pages[0], Some(3 * CAPACITY), &mut Vec::new());
        assert!(
            matches!(past_end, Err(StoreError::Corrupt { page: Some(p), .. }) if p == pages[1])
        );

        // Point the tail back at the head.
        pool.with_page_mut(pages[1], |b| {
            b[0..4].copy_from_slice(&pages[0].to_le_bytes())
        })
        .unwrap();
        assert!(matches!(
            chain.read(&pool, pages[0], None, &mut Vec::new()),
            Err(StoreError::Corrupt { page: Some(p), .. }) if p == pages[0]
        ));
    }
}
