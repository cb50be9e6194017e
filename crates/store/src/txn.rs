//! Transactions: a write side-buffer over the pool, committed atomically
//! through the [`Journal`].
//!
//! A [`Txn`] implements [`PageStore`], so any code generic over page
//! access (the node codecs, the index write paths) runs unchanged inside
//! a transaction. Reads see the transaction's own writes first and fall
//! through to the pool; writes are buffered copy-on-write and touch
//! neither the pool's frames nor the disk until [`Txn::commit`], which
//! hands the full batch to the journal's all-or-nothing protocol. This
//! sidesteps every steal/no-steal eviction hazard: an uncommitted page
//! image simply never exists outside the buffer.
//!
//! Dropping a transaction without committing discards its writes. Pages
//! allocated inside an abandoned transaction remain allocated (zeroed and
//! unreferenced) — page ids are append-only in this substrate, so leaked
//! pages waste space but never harm correctness.

use crate::journal::Journal;
use crate::pool::PageStore;
use crate::sync::Mutex;
use crate::versioned::{VersionInfo, VersionedStore};
use crate::{BufferPool, PageId, Result, StoreError, PAGE_SIZE};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// How the transaction's batch reaches disk at commit.
enum Mode {
    /// Direct journal commit: images overwrite their home pages.
    Plain(Journal),
    /// MVCC commit through a [`VersionedStore`]: mutated pages are
    /// copied-on-write to fresh physical pages and published as the next
    /// version; reads translate through `base`, the latest version at
    /// begin time.
    Versioned {
        store: Arc<VersionedStore>,
        base: Arc<VersionInfo>,
    },
}

/// An uncommitted batch of page writes against a pool.
pub struct Txn<'p> {
    pool: &'p BufferPool,
    mode: Mode,
    writes: Mutex<HashMap<PageId, Box<[u8]>>>,
    /// Pages allocated inside this transaction. Only consulted by the
    /// versioned commit path (fresh pages are written in place: no older
    /// version can reference them).
    fresh: Mutex<HashSet<PageId>>,
}

impl<'p> Txn<'p> {
    /// Starts an empty transaction writing through `journal`.
    pub fn begin(pool: &'p BufferPool, journal: Journal) -> Txn<'p> {
        Txn {
            pool,
            mode: Mode::Plain(journal),
            writes: Mutex::new(HashMap::new()),
            fresh: Mutex::new(HashSet::new()),
        }
    }

    /// Starts an empty transaction against a [`VersionedStore`]. Reads
    /// translate through the latest version at begin time; commit
    /// publishes the batch as the next version via copy-on-write.
    pub fn begin_versioned(store: &'p Arc<VersionedStore>) -> Result<Txn<'p>> {
        let base = store.latest_info();
        Ok(Txn {
            pool: store.pool(),
            mode: Mode::Versioned {
                store: Arc::clone(store),
                base,
            },
            writes: Mutex::new(HashMap::new()),
            fresh: Mutex::new(HashSet::new()),
        })
    }

    /// Number of distinct pages written so far.
    pub fn page_count(&self) -> usize {
        self.writes.lock().len()
    }

    /// Atomically applies every buffered write. Plain transactions go
    /// through the journal's all-or-nothing protocol onto their home
    /// pages; versioned transactions publish a new version (see
    /// [`Txn::commit_versioned`] to learn its number).
    pub fn commit(self) -> Result<()> {
        match self.mode {
            Mode::Plain(journal) => {
                let writes = self.writes.into_inner();
                if writes.is_empty() {
                    return Ok(());
                }
                let mut batch: Vec<(PageId, Box<[u8]>)> = writes.into_iter().collect();
                batch.sort_by_key(|(page, _)| *page);
                journal.commit(self.pool, &batch)
            }
            Mode::Versioned { store, base } => store
                .commit_txn(
                    self.writes.into_inner(),
                    &self.fresh.into_inner(),
                    base.version(),
                )
                .map(|_| ()),
        }
    }

    /// Like [`Txn::commit`], but returns the committed version number.
    /// Errors on a plain (unversioned) transaction.
    pub fn commit_versioned(self) -> Result<u32> {
        match self.mode {
            Mode::Plain(_) => Err(StoreError::corrupt("transaction is not versioned")),
            Mode::Versioned { store, base } => store.commit_txn(
                self.writes.into_inner(),
                &self.fresh.into_inner(),
                base.version(),
            ),
        }
    }

    /// Physical page backing `id` for this transaction's reads: the
    /// base-version translation when versioned, identity otherwise.
    fn read_page(&self, id: PageId) -> PageId {
        match &self.mode {
            Mode::Plain(_) => id,
            Mode::Versioned { base, .. } => base.translate(id),
        }
    }
}

impl PageStore for Txn<'_> {
    fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        let writes = self.writes.lock();
        if let Some(image) = writes.get(&id) {
            return Ok(f(image));
        }
        drop(writes);
        self.pool.with_page(self.read_page(id), f)
    }

    fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        let mut writes = self.writes.lock();
        if let Some(image) = writes.get_mut(&id) {
            return Ok(f(image));
        }
        // Copy-on-write: pull the current image from the pool, mutate the
        // private copy.
        let mut image = self
            .pool
            .with_page(self.read_page(id), |b| b.to_vec().into_boxed_slice())?;
        let out = f(&mut image);
        writes.insert(id, image);
        Ok(out)
    }

    fn allocate(&self) -> Result<PageId> {
        let id = self.pool.allocate()?;
        self.writes
            .lock()
            .insert(id, vec![0u8; PAGE_SIZE].into_boxed_slice());
        self.fresh.lock().insert(id);
        Ok(id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemDisk, StoreError};

    fn setup() -> (BufferPool, Journal) {
        let pool = BufferPool::new(MemDisk::new(), 8);
        let journal = Journal::create(&pool).unwrap();
        (pool, journal)
    }

    #[test]
    fn writes_are_invisible_until_commit() {
        let (pool, journal) = setup();
        let page = pool.allocate().unwrap();
        let txn = Txn::begin(&pool, journal);
        txn.with_page_mut(page, |b| b[0] = 9).unwrap();
        // The txn sees its own write; the pool does not.
        assert_eq!(txn.with_page(page, |b| b[0]).unwrap(), 9);
        assert_eq!(pool.with_page(page, |b| b[0]).unwrap(), 0);
        txn.commit().unwrap();
        assert_eq!(pool.with_page(page, |b| b[0]).unwrap(), 9);
    }

    #[test]
    fn dropped_txn_changes_nothing() {
        let (pool, journal) = setup();
        let page = pool.allocate().unwrap();
        {
            let txn = Txn::begin(&pool, journal);
            txn.with_page_mut(page, |b| b[0] = 9).unwrap();
        }
        assert_eq!(pool.with_page(page, |b| b[0]).unwrap(), 0);
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let (pool, journal) = setup();
        let before = pool.stats();
        let txn = Txn::begin(&pool, journal);
        assert_eq!(txn.page_count(), 0);
        txn.commit().unwrap();
        assert_eq!(pool.stats().physical_writes, before.physical_writes);
    }

    #[test]
    fn txn_allocate_is_visible_inside() {
        let (pool, journal) = setup();
        let txn = Txn::begin(&pool, journal);
        let page = txn.allocate().unwrap();
        txn.with_page_mut(page, |b| b[1] = 4).unwrap();
        assert_eq!(txn.with_page(page, |b| b[1]).unwrap(), 4);
        txn.commit().unwrap();
        assert_eq!(pool.with_page(page, |b| b[1]).unwrap(), 4);
    }

    #[test]
    fn read_through_misses_go_to_pool() {
        let (pool, journal) = setup();
        let page = pool.allocate().unwrap();
        pool.with_page_mut(page, |b| b[3] = 7).unwrap();
        let txn = Txn::begin(&pool, journal);
        assert_eq!(txn.with_page(page, |b| b[3]).unwrap(), 7);
        assert!(matches!(
            txn.with_page(999, |_| ()),
            Err(StoreError::PageOutOfBounds(999))
        ));
    }
}
