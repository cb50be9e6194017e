//! Disk backends: where page frames physically live.
//!
//! The buffer pool is generic over a [`DiskBackend`]. Two implementations
//! are provided:
//!
//! * [`MemDisk`] — frames in a `Vec`; deterministic and fast, used by tests
//!   and by benchmarks that charge I/O analytically from the pool's
//!   physical-read counters (the paper's methodology: I/O cost is the
//!   number of page faults under a fixed-size LRU pool).
//! * [`FileDisk`] — frames in a real file accessed with positioned reads
//!   and writes, for end-to-end runs that want the operating system in the
//!   loop.
//!
//! Backends transfer whole [`FRAME_SIZE`] frames: the [`PAGE_SIZE`]
//! payload the pool's clients see plus the checksum trailer
//! ([`crate::checksum`]) the pool seals and verifies. Backends treat the
//! frame as opaque bytes — corruption detection lives entirely at the pool
//! boundary, which is what lets [`crate::FaultyDisk`] damage trailers too.

use crate::sync::Mutex;
use crate::{PageId, Result, StoreError, FRAME_SIZE};
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

/// A linear array of [`FRAME_SIZE`]-byte page frames.
///
/// Backends are internally synchronized: all methods take `&self` so a
/// backend can sit behind the buffer pool's own lock without double
/// locking gymnastics.
pub trait DiskBackend: Send + Sync + 'static {
    /// Reads frame `id` into `buf` (which is exactly [`FRAME_SIZE`] long).
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()>;

    /// Writes `buf` (exactly [`FRAME_SIZE`] long) to frame `id`.
    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()>;

    /// Appends a zeroed frame and returns its id.
    fn allocate(&self) -> Result<PageId>;

    /// Number of allocated pages.
    fn num_pages(&self) -> PageId;
}

/// Shared handles delegate, so tests can keep a handle to a backend (e.g.
/// the [`MemDisk`] under a [`crate::FaultyDisk`]) while a pool owns a
/// clone — the way crash-recovery tests "reopen" the surviving media.
impl<B: DiskBackend> DiskBackend for Arc<B> {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        (**self).read_page(id, buf)
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        (**self).write_page(id, buf)
    }

    fn allocate(&self) -> Result<PageId> {
        (**self).allocate()
    }

    fn num_pages(&self) -> PageId {
        (**self).num_pages()
    }
}

/// An in-memory disk: a growable vector of frames.
#[derive(Default)]
pub struct MemDisk {
    pages: Mutex<Vec<Box<[u8]>>>,
}

impl MemDisk {
    /// Creates an empty in-memory disk.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiskBackend for MemDisk {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        let pages = self.pages.lock();
        let page = pages
            .get(id as usize)
            .ok_or(StoreError::PageOutOfBounds(id))?;
        buf.copy_from_slice(page);
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        let mut pages = self.pages.lock();
        let page = pages
            .get_mut(id as usize)
            .ok_or(StoreError::PageOutOfBounds(id))?;
        page.copy_from_slice(buf);
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut pages = self.pages.lock();
        let id = pages.len() as PageId;
        pages.push(vec![0u8; FRAME_SIZE].into_boxed_slice());
        Ok(id)
    }

    fn num_pages(&self) -> PageId {
        self.pages.lock().len() as PageId
    }
}

/// A file-backed disk: frame `i` lives at byte offset `i * FRAME_SIZE`.
pub struct FileDisk {
    file: Mutex<File>,
    num_pages: Mutex<PageId>,
}

impl FileDisk {
    /// Creates (or truncates) the file at `path` as an empty disk.
    pub fn create<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(FileDisk {
            file: Mutex::new(file),
            num_pages: Mutex::new(0),
        })
    }

    /// Opens an existing disk file; its length must be a whole number of
    /// frames.
    pub fn open<P: AsRef<Path>>(path: P) -> Result<Self> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % FRAME_SIZE as u64 != 0 {
            return Err(StoreError::corrupt("file length not frame aligned"));
        }
        Ok(FileDisk {
            file: Mutex::new(file),
            num_pages: Mutex::new((len / FRAME_SIZE as u64) as PageId),
        })
    }
}

impl DiskBackend for FileDisk {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        if id >= self.num_pages() {
            return Err(StoreError::PageOutOfBounds(id));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * FRAME_SIZE as u64))?;
        file.read_exact(buf)?;
        Ok(())
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        if id >= self.num_pages() {
            return Err(StoreError::PageOutOfBounds(id));
        }
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * FRAME_SIZE as u64))?;
        file.write_all(buf)?;
        Ok(())
    }

    fn allocate(&self) -> Result<PageId> {
        let mut n = self.num_pages.lock();
        let id = *n;
        let mut file = self.file.lock();
        file.seek(SeekFrom::Start(id as u64 * FRAME_SIZE as u64))?;
        file.write_all(&[0u8; FRAME_SIZE])?;
        *n += 1;
        Ok(id)
    }

    fn num_pages(&self) -> PageId {
        *self.num_pages.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    fn roundtrip(disk: &dyn DiskBackend) {
        let a = disk.allocate().unwrap();
        let b = disk.allocate().unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(disk.num_pages(), 2);

        let mut page = vec![0u8; FRAME_SIZE];
        page[0] = 0xAB;
        page[PAGE_SIZE - 1] = 0xCD;
        page[FRAME_SIZE - 1] = 0xEF;
        disk.write_page(b, &page).unwrap();

        let mut readback = vec![0u8; FRAME_SIZE];
        disk.read_page(b, &mut readback).unwrap();
        assert_eq!(readback, page);

        // Page `a` is still zeroed.
        disk.read_page(a, &mut readback).unwrap();
        assert!(readback.iter().all(|&x| x == 0));
    }

    #[test]
    fn mem_disk_roundtrip() {
        roundtrip(&MemDisk::new());
    }

    #[test]
    fn arc_backend_delegates() {
        let disk = Arc::new(MemDisk::new());
        let other = Arc::clone(&disk);
        roundtrip(&other);
        assert_eq!(disk.num_pages(), 2);
    }

    #[test]
    fn file_disk_roundtrip() {
        let dir = std::env::temp_dir().join(format!("ann-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk-roundtrip.pages");
        roundtrip(&FileDisk::create(&path).unwrap());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_disk_reopen_preserves_pages() {
        let dir = std::env::temp_dir().join(format!("ann-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("disk-reopen.pages");
        {
            let disk = FileDisk::create(&path).unwrap();
            let id = disk.allocate().unwrap();
            let mut page = vec![0u8; FRAME_SIZE];
            page[42] = 7;
            disk.write_page(id, &page).unwrap();
        }
        let disk = FileDisk::open(&path).unwrap();
        assert_eq!(disk.num_pages(), 1);
        let mut page = vec![0u8; FRAME_SIZE];
        disk.read_page(0, &mut page).unwrap();
        assert_eq!(page[42], 7);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_bounds_access_is_an_error() {
        let disk = MemDisk::new();
        let mut buf = vec![0u8; FRAME_SIZE];
        assert!(matches!(
            disk.read_page(3, &mut buf),
            Err(StoreError::PageOutOfBounds(3))
        ));
        assert!(matches!(
            disk.write_page(0, &buf),
            Err(StoreError::PageOutOfBounds(0))
        ));
    }
}
