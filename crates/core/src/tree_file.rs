//! The writable-tree layer: how an index reaches disk, kept once.
//!
//! On disk a tree is a meta page, a redo journal whose header sits at
//! `meta_page + 1` (so the meta page id alone reopens it) and node pages;
//! after [`TreeFile::enable_versioning`] every commit is a copy-on-write
//! snapshot under a version manifest. [`TreeFile`] owns that lifecycle for
//! both index kinds: create, recovery on open, the plain-or-versioned
//! [`Txn`] and its node-cache upkeep, the mode-dependent [`SpatialIndex`]
//! answers. A tree crate keeps its meta-page layout and its algorithms.

use crate::index::SpatialIndex;
use crate::node::{read_node, Node};
use crate::node_cache::NodeCache;
use crate::snapshot::{MetaReader, VersionedHandle};
use ann_geom::Point;
use ann_store::{BufferPool, Journal, PageId, PageStore, Result, StoreError, Txn, VersionedStore};
use std::sync::Arc;

/// The durable, optionally versioned file under one tree. A clone is a
/// second handle on the same file (three `Arc` bumps): the write paths
/// take one to [`transact`](Self::transact) on while the tree is `&mut`.
#[derive(Clone)]
pub struct TreeFile<const D: usize> {
    pool: Arc<BufferPool>,
    meta_page: PageId,
    journal: Journal,
    /// Decoded-node cache for query traversals. Epoch-keyed (bumped on
    /// every commit) until versioning is enabled; keyed by snapshot
    /// version afterwards and shared with every [`VersionedHandle`].
    cache: Arc<NodeCache<D>>,
    /// MVCC mode: set once commits publish snapshots, not in-place updates.
    versions: Option<Arc<VersionedStore>>,
    meta_reader: MetaReader<D>,
}

impl<const D: usize> TreeFile<D> {
    /// Starts a new tree on `pool`: the meta page, then the journal right
    /// behind it. An allocation interleaved by another thread would break
    /// the `meta_page + 1` convention [`open`](Self::open) relies on, so
    /// it is reported rather than accepted.
    pub fn create(pool: Arc<BufferPool>, meta_reader: MetaReader<D>) -> Result<Self> {
        let meta_page = pool.allocate()?;
        let journal = Journal::create(&pool)?;
        if journal.header_page() != meta_page + 1 {
            return Err(StoreError::corrupt(
                "journal header page must immediately follow the meta page",
            ));
        }
        Ok(TreeFile {
            pool,
            meta_page,
            journal,
            cache: Arc::default(),
            versions: None,
            meta_reader,
        })
    }

    /// Opens a built tree's file. Crash recovery runs first: a committed
    /// but unapplied journal batch is replayed, a partial one discarded.
    /// `versions_head` (from [`enable_versioning`](Self::enable_versioning))
    /// loads the version manifest too. The caller parses its meta page
    /// next, through [`read_meta`](Self::read_meta).
    pub fn open(
        pool: Arc<BufferPool>,
        meta_page: PageId,
        versions_head: Option<PageId>,
        meta_reader: MetaReader<D>,
    ) -> Result<Self> {
        let (journal, _recovery) = Journal::open(&pool, meta_page + 1)?;
        let versions = match versions_head {
            Some(head) => Some(VersionedStore::open(Arc::clone(&pool), journal, head)?),
            None => None,
        };
        Ok(TreeFile {
            pool,
            meta_page,
            journal,
            cache: Arc::default(),
            versions,
            meta_reader,
        })
    }

    /// Parses the committed meta page: read through the latest snapshot
    /// when versioned (the physical page at `meta_page` goes stale after
    /// the first copy-on-write commit), straight from the pool otherwise.
    pub fn read_meta<R>(&self, parse: impl FnOnce(&[u8]) -> Result<R>) -> Result<R> {
        match &self.versions {
            Some(store) => store.pin(None)?.with_page(self.meta_page, parse)?,
            None => self.pool.with_page(self.meta_page, parse)?,
        }
    }

    /// The metadata page identifying this tree on disk.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// Runs one structural update as one atomic commit. Every page `body`
    /// writes, the meta page included, goes through the [`Txn`]: onto the
    /// home pages via the journal or, versioned, read through the latest
    /// snapshot and published as the next. On `Err` nothing reached disk;
    /// the caller rolls its in-memory mirrors back. A commit that wrote
    /// pages changed the tree: a plain tree drops its node cache (epoch
    /// bump), a versioned one only purges keys below the GC floor.
    pub fn transact<R>(&self, body: impl FnOnce(&Txn<'_>) -> Result<R>) -> Result<R> {
        let txn = match &self.versions {
            Some(store) => Txn::begin_versioned(store)?,
            None => Txn::begin(&self.pool, self.journal),
        };
        let out = body(&txn)?;
        let wrote = txn.page_count() > 0;
        txn.commit()?;
        match &self.versions {
            Some(store) if wrote => self.cache.retire_below(u64::from(store.version_floor())),
            None if wrote => self.cache.bump_epoch(),
            _ => {}
        }
        debug_assert_eq!(self.cache.stale_len(), 0, "stale node-cache entries");
        Ok(out)
    }

    /// Makes a bulk build durable. Its node pages went straight through
    /// the pool: until the meta page exists nothing references them, so a
    /// crash mid-build leaves an unopenable meta page, not a partial tree.
    /// They are flushed first; then `save_meta`'s page commits.
    pub fn commit_bulk(&self, save_meta: impl FnOnce(&Txn<'_>) -> Result<()>) -> Result<()> {
        self.pool.flush_all()?;
        self.transact(save_meta)
    }

    /// Switches the tree into MVCC snapshot mode: from here on every
    /// insert/delete commits an immutable new version (copy-on-write
    /// pages), and readers pin versions through
    /// [`versioned_handle`](Self::versioned_handle) without blocking on
    /// the writer. `keep` bounds the history ([`ann_store::DEFAULT_KEEP`]).
    /// Returns the manifest head, which the caller must persist to reopen
    /// the tree: once the meta page is copied on write, it is the root.
    pub fn enable_versioning(&mut self, keep: u32) -> Result<PageId> {
        if self.versions.is_some() {
            return Err(StoreError::corrupt("versioning is already enabled"));
        }
        let store = VersionedStore::create(Arc::clone(&self.pool), self.journal, keep)?;
        let head = store.manifest_head();
        // Fresh cache: version numbers live in their own key space, which
        // must not collide with the retired epoch counter's.
        self.cache = Arc::new(NodeCache::default());
        self.versions = Some(store);
        Ok(head)
    }

    /// The tree's versioned store, when versioning is enabled.
    pub fn versioned_store(&self) -> Option<&Arc<VersionedStore>> {
        self.versions.as_ref()
    }

    /// A cloneable, thread-safe factory of pinned read views (`None` until
    /// [`enable_versioning`](Self::enable_versioning)). It shares this
    /// tree's node cache: readers and the writer fill one cache keyed by
    /// `(version, page)`.
    pub fn versioned_handle(&self) -> Option<VersionedHandle<D>> {
        let (store, cache) = (Arc::clone(self.versions.as_ref()?), Arc::clone(&self.cache));
        let handle = VersionedHandle::new(store, cache, self.meta_page, self.meta_reader);
        Some(handle)
    }

    /// Writes all dirty pages through to the backing disk.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()
    }

    /// [`SpatialIndex::pool`] for the tree on this file.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// [`SpatialIndex::read_node`]: copy-on-write commits remap a versioned
    /// tree's logical pages, so its reads go through the latest snapshot.
    pub fn read_node(&self, page: PageId) -> Result<Node<D>> {
        match &self.versions {
            Some(store) => read_node(&store.pin(None)?, page),
            None => read_node(self.pool.as_ref(), page),
        }
    }

    /// [`SpatialIndex::node_cache`].
    pub fn node_cache(&self) -> Option<&NodeCache<D>> {
        Some(&self.cache)
    }

    /// [`SpatialIndex::cache_key`]: the latest version when versioned (so
    /// entries are shared with read views pinned there), else the epoch.
    pub fn cache_key(&self) -> u64 {
        match &self.versions {
            Some(store) => u64::from(store.latest()),
            None => self.cache.epoch(),
        }
    }
}

/// The write side of a [`SpatialIndex`], for callers that hold "some
/// tree": it derefs to its [`TreeFile`] (so the lifecycle methods are
/// callable on it) and takes inserts and deletes, each an atomic commit.
pub trait WritableIndex<const D: usize>:
    SpatialIndex<D> + std::ops::DerefMut<Target = TreeFile<D>>
{
    /// Opens a built tree from its meta page (and manifest `head`, if
    /// versioned; see [`TreeFile::open`]), then [`crate::index::validate`]s
    /// it: a mid-update crash yields a consistent tree or `Corrupt`.
    fn open_at(pool: Arc<BufferPool>, meta_page: PageId, head: Option<PageId>) -> Result<Self>
    where
        Self: Sized;

    /// Inserts one point.
    fn insert(&mut self, oid: u64, point: Point<D>) -> Result<()>;

    /// Deletes the object `(oid, point)`; returns whether it existed.
    fn delete(&mut self, oid: u64, point: &Point<D>) -> Result<bool>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::MetaFields;
    use ann_store::{DiskBackend, MemDisk};

    fn no_meta(_: &ann_store::Snapshot, _: PageId) -> Result<MetaFields<2>> {
        Err(StoreError::corrupt("no meta page in this test"))
    }

    /// The on-disk contract `open` relies on: meta page first, journal
    /// header right behind it, nodes after.
    #[test]
    fn fresh_file_is_meta_page_then_journal() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 8));
        let file = TreeFile::<2>::create(Arc::clone(&pool), no_meta).unwrap();
        assert_eq!(file.meta_page(), 0);
        assert_eq!(file.journal.header_page(), 1);
        let first_node = file.transact(|txn| {
            txn.with_page_mut(0, |b| b[0] = 7)?;
            txn.allocate()
        });
        assert_eq!(first_node.unwrap(), 2);
        let reopened = TreeFile::<2>::open(pool, 0, None, no_meta).unwrap();
        assert_eq!(reopened.read_meta(|b| Ok(b[0])).unwrap(), 7);
    }

    /// A disk on which someone else allocates between any two of our
    /// allocations.
    struct Contended(MemDisk);

    impl DiskBackend for Contended {
        fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
            self.0.read_page(id, buf)
        }
        fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
            self.0.write_page(id, buf)
        }
        fn allocate(&self) -> Result<PageId> {
            self.0.allocate()?;
            self.0.allocate()
        }
        fn num_pages(&self) -> PageId {
            self.0.num_pages()
        }
    }

    #[test]
    fn journal_not_adjacent_to_meta_page_is_corrupt() {
        let pool = Arc::new(BufferPool::new(Contended(MemDisk::new()), 8));
        let err = TreeFile::<2>::create(pool, no_meta).err().unwrap();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }
}
