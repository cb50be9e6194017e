//! Page-based storage substrate for the ANN workspace.
//!
//! The paper runs all experiments on indices built over the SHORE storage
//! manager with **8 KB pages** and a **512 KB (64-page) LRU buffer pool**
//! (§4.1). This crate is the equivalent substrate, providing exactly the
//! pieces those experiments depend on:
//!
//! * [`PAGE_SIZE`]-byte pages addressed by [`PageId`], and the one page
//!   codec every on-disk layout uses: a little-endian [`Reader`] /
//!   [`Writer`] and the continuation [`Chain`] ([`page`]);
//! * a [`DiskBackend`] abstraction with an in-memory ([`MemDisk`]) and a
//!   real-file ([`FileDisk`]) implementation ([`disk`]);
//! * an exact-LRU [`BufferPool`] with pluggable capacity ([`pool`]) — the
//!   capacity knob is what the paper's Figure 3(b) sweeps from 512 KiB to
//!   8 MiB;
//! * I/O accounting ([`IoCounters`]): logical reads, physical reads and
//!   writes, pool hits and misses, evictions, retries, lock contention
//!   and corruption counters are counted at the pool boundary, live in
//!   [`IoStats`] and copied out as an [`IoSnapshot`], so every figure can
//!   report an "I/O" component that is measured rather than estimated.
//!   The 11 counters are declared once, with [`counters!`], the macro
//!   every counter set in the workspace is declared with, and the wire
//!   carries all of them;
//! * a [`HeapFile`] of fixed-size records ([`heap`]), used by the GORDER
//!   baseline's sorted block file and the MBRQT's streamed-build spills.
//!
//! SHORE also gave the paper's indices durability and corruption detection
//! for free; this crate reproduces that too:
//!
//! * every physical frame carries a CRC32 trailer ([`checksum`]), sealed on
//!   write and verified on read, so torn writes and bit rot surface as
//!   [`StoreError::Corrupt`] with the offending page id;
//! * a redo journal ([`journal`]) plus a transaction side-buffer ([`txn`])
//!   give multi-page structural updates all-or-nothing semantics with
//!   recovery on open;
//! * a bounded [`RetryPolicy`] at the pool boundary retries transient
//!   faults, with retry and corruption counters in [`IoStats`];
//! * [`FaultyDisk`] injects deterministic torn writes, bit flips, transient
//!   errors and crashes for the fault-sweep test suites.
//!
//! It also owns the workspace's one lock, [`sync::Mutex`] — `std`'s mutex
//! without poisoning — which every crate above this one uses too.
//!
//! # Example
//!
//! ```
//! use ann_store::{BufferPool, MemDisk};
//!
//! let pool = BufferPool::new(MemDisk::new(), 64); // 512 KiB, as in the paper
//! let pid = pool.allocate().unwrap();
//! pool.with_page_mut(pid, |bytes| bytes[0..4].copy_from_slice(b"ANN!")).unwrap();
//! let tag = pool.with_page(pid, |bytes| bytes[0..4].to_vec()).unwrap();
//! assert_eq!(&tag, b"ANN!");
//! // Both accesses were served from the pool: no physical reads.
//! assert_eq!(pool.stats().logical_reads, 2);
//! assert_eq!(pool.stats().physical_reads, 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod checksum;
pub mod disk;
pub mod faulty;
pub mod heap;
pub mod journal;
mod lru;
pub mod page;
pub mod pool;
mod stats;
pub mod sync;
pub mod txn;
pub mod versioned;

pub use disk::{DiskBackend, FileDisk, MemDisk};
pub use faulty::{FaultyDisk, InjectedFault};
pub use heap::HeapFile;
pub use journal::{Journal, Recovery};
pub use page::{
    Chain, ChainPage, PageId, Reader, Writer, FRAME_SIZE, INVALID_PAGE, PAGE_SIZE, PAGE_TRAILER,
};
pub use pool::{BufferPool, PageStore, RetryPolicy, RetryScope, QUARANTINED};
pub use stats::{write_json_members, IoCounters, IoSnapshot, IoStats};
pub use txn::Txn;
pub use versioned::{Snapshot, VersionInfo, VersionedStore, DEFAULT_KEEP};

/// Errors surfaced by the storage layer.
#[derive(Debug)]
pub enum StoreError {
    /// The requested page id has never been allocated.
    PageOutOfBounds(PageId),
    /// An operating-system I/O error from the file backend.
    Io(std::io::Error),
    /// Stored bytes failed validation while being decoded or checked.
    Corrupt {
        /// The offending page, when the failure is attributable to one
        /// (checksum mismatches always are; higher-level decode errors
        /// may not be).
        page: Option<PageId>,
        /// What failed.
        what: &'static str,
    },
    /// A fault injected by [`FaultyDisk`]; `transient` faults succeed when
    /// the operation is retried, permanent ones never do.
    Injected {
        /// Whether a retry can succeed.
        transient: bool,
    },
    /// A snapshot pin requested a version that has aged out of the
    /// bounded history window (or never existed).
    VersionNotRetained(u32),
    /// A versioned commit raced another writer: the transaction read
    /// through `base` but `latest` has moved on since.
    WriteConflict {
        /// Version the losing transaction was based on.
        base: u32,
        /// Latest committed version at commit time.
        latest: u32,
    },
}

impl StoreError {
    /// A [`StoreError::Corrupt`] not tied to a specific page.
    pub fn corrupt(what: &'static str) -> Self {
        StoreError::Corrupt { page: None, what }
    }

    /// A [`StoreError::Corrupt`] attributed to `page`.
    pub fn corrupt_page(page: PageId, what: &'static str) -> Self {
        StoreError::Corrupt {
            page: Some(page),
            what,
        }
    }

    /// Whether retrying the failed operation may succeed: injected
    /// transient faults and interrupted/timed-out OS errors.
    pub fn is_transient(&self) -> bool {
        match self {
            StoreError::Injected { transient } => *transient,
            StoreError::Io(e) => matches!(
                e.kind(),
                std::io::ErrorKind::Interrupted
                    | std::io::ErrorKind::TimedOut
                    | std::io::ErrorKind::WouldBlock
            ),
            _ => false,
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::PageOutOfBounds(id) => write!(f, "page {id} out of bounds"),
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::Corrupt {
                page: Some(id),
                what,
            } => write!(f, "corrupt page {id}: {what}"),
            StoreError::Corrupt { page: None, what } => write!(f, "corrupt page data: {what}"),
            StoreError::Injected { transient: true } => write!(f, "injected transient fault"),
            StoreError::Injected { transient: false } => write!(f, "injected permanent fault"),
            StoreError::VersionNotRetained(v) => {
                write!(f, "snapshot version {v} is no longer retained")
            }
            StoreError::WriteConflict { base, latest } => write!(
                f,
                "write conflict: transaction based on version {base} but latest is {latest}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// Convenience alias used throughout the storage layer.
pub type Result<T> = std::result::Result<T, StoreError>;
