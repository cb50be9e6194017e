//! The writable-tree layer: how an index reaches disk, kept once.
//!
//! On disk a tree is a meta page, a redo journal whose header sits at
//! `meta_page + 1` (so the meta page id alone reopens it) and node pages;
//! after [`TreeFile::enable_versioning`] every commit is a copy-on-write
//! snapshot under a version manifest. [`TreeFile`] owns that lifecycle for
//! both index kinds: create, recovery on open, the plain-or-versioned
//! [`Txn`] and its node-cache upkeep, and the [`SpatialIndex`] answers of
//! every [`WritableIndex`]. A tree crate keeps its algorithms and its
//! [`Params`]; [`WritableIndex::update`] runs each structural update,
//! commits the meta page with it and rolls the tree back on `Err`.
//!
//! The meta page is written and read here alone (v2; byte table in
//! DESIGN.md §7): a [`Header`] — magic naming the kind, `D`, root, point
//! count, bounds — then the kind's [`Params`]. A page of another version,
//! kind or `D` opens as [`StoreError::Corrupt`], never as a misparse.

use crate::index::SpatialIndex;
use crate::node::{read_node, write_node, Node};
use crate::node_cache::NodeCache;
use crate::snapshot::VersionedHandle;
use ann_geom::{Mbr, Point};
use ann_store::{BufferPool, Journal, PageId, PageStore, Result, StoreError, Txn, VersionedStore};
use std::io::{Read, Write};
use std::ops::DerefMut;
use std::sync::Arc;

const MBRQT_MAGIC: &[u8; 8] = b"MBRQTv2\0";
const RSTAR_MAGIC: &[u8; 8] = b"RSTARv2\0";

/// What a meta page records first, for every kind: the state each commit
/// moves. [`TreeFile::header`] mirrors the latest commit's in memory; a
/// [`ReadContext`](crate::snapshot::ReadContext) reads its version's.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Header<const D: usize> {
    /// First page of the root node.
    pub root: PageId,
    /// Number of indexed points.
    pub num_points: u64,
    /// Tight bounds of the indexed points ([`Mbr::empty`] when none).
    pub bounds: Mbr<D>,
}

/// The parameter block after the header: the variant names the kind (and
/// so the magic), the payload is what that kind records about itself.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Params<const D: usize> {
    /// An MBRQT (`ann-mbrqt`).
    Mbrqt(MbrqtParams<D>),
    /// An R\*-tree (`ann-rstar`).
    RStar(RStarParams),
}

/// An MBRQT's parameter block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MbrqtParams<const D: usize> {
    /// The fixed universe the quadtree decomposes.
    pub universe: Mbr<D>,
    /// Leaf bucket capacity.
    pub bucket_capacity: usize,
    /// Decomposition levels packed into one disk node.
    pub levels_per_node: usize,
    /// Depth at which a bucket overflows instead of splitting.
    pub max_depth: usize,
    /// Whether child entries carry tight subtree MBRs.
    pub use_subtree_mbrs: bool,
}

/// An R\*-tree's parameter block.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RStarParams {
    /// Number of levels: leaves are level 0, the root is `height - 1`.
    pub height: u32,
    /// Maximum entries per leaf.
    pub max_leaf: usize,
    /// Maximum entries per internal node.
    pub max_internal: usize,
    /// Minimum fill, as a percentage of the maximum.
    pub min_fill_percent: usize,
    /// Share of entries (percent) forced reinsertion evicts.
    pub reinsert_percent: usize,
}

/// A little-endian cursor over a meta page: `u32` words, `f64` MBRs. Past
/// the page's end it fails (`StoreError::Io`) instead of panicking.
struct Cursor<B>(B);

impl Cursor<&mut [u8]> {
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        Ok(self.0.write_all(bytes)?)
    }

    fn word(&mut self, word: usize) -> Result<()> {
        self.put(&(word as u32).to_le_bytes())
    }

    fn mbr<const D: usize>(&mut self, m: &Mbr<D>) -> Result<()> {
        m.lo.iter()
            .chain(&m.hi)
            .try_for_each(|v| self.put(&v.to_le_bytes()))
    }
}

impl Cursor<&[u8]> {
    fn take<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0; N];
        self.0.read_exact(&mut out)?;
        Ok(out)
    }

    fn word(&mut self) -> Result<usize> {
        Ok(u32::from_le_bytes(self.take()?) as usize)
    }

    fn mbr<const D: usize>(&mut self) -> Result<Mbr<D>> {
        let mut m = Mbr::empty();
        for v in m.lo.iter_mut().chain(m.hi.iter_mut()) {
            *v = f64::from_le_bytes(self.take()?);
        }
        Ok(m)
    }
}

/// Decodes the meta page as `store` sees it: the pool, or a snapshot,
/// whose translation table maps it to the pinned version's copy.
pub(crate) fn read_meta<const D: usize>(
    store: &impl PageStore,
    meta_page: PageId,
) -> Result<(Header<D>, Params<D>)> {
    store.with_page(meta_page, |page| {
        let mut r = Cursor(page);
        let magic: [u8; 8] = r.take()?;
        if &magic != MBRQT_MAGIC && &magic != RSTAR_MAGIC {
            return Err(StoreError::corrupt("not a v2 tree meta page"));
        }
        if r.word()? != D {
            return Err(StoreError::corrupt("dimensionality mismatch"));
        }
        let header = Header {
            root: u32::from_le_bytes(r.take()?),
            num_points: u64::from_le_bytes(r.take()?),
            bounds: r.mbr()?,
        };
        let params = if &magic == MBRQT_MAGIC {
            Params::Mbrqt(MbrqtParams {
                universe: r.mbr()?,
                bucket_capacity: r.word()?,
                levels_per_node: r.word()?,
                max_depth: r.word()?,
                use_subtree_mbrs: r.word()? != 0,
            })
        } else {
            Params::RStar(RStarParams {
                height: u32::from_le_bytes(r.take()?),
                max_leaf: r.word()?,
                max_internal: r.word()?,
                min_fill_percent: r.word()?,
                reinsert_percent: r.word()?,
            })
        };
        Ok((header, params))
    })?
}

/// The durable, optionally versioned file under one tree. A clone is a
/// second handle on the same file (three `Arc` bumps).
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
    /// The latest commit's header. A tree moves it only inside
    /// [`WritableIndex::update`], which commits it or puts it back.
    pub header: Header<D>,
}

impl<const D: usize> TreeFile<D> {
    /// Starts a new tree on `pool`: the meta page, then the journal right
    /// behind it. An allocation interleaved by another thread would break
    /// the `meta_page + 1` convention [`open`](Self::open) relies on, so
    /// it is reported rather than accepted. No root exists yet.
    pub fn create(pool: Arc<BufferPool>) -> Result<Self> {
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
            header: Header {
                root: ann_store::INVALID_PAGE,
                num_points: 0,
                bounds: Mbr::empty(),
            },
        })
    }

    /// Opens a built tree's file. Crash recovery runs first: a committed
    /// but unapplied journal batch is replayed, a partial one discarded.
    /// `versions_head` (from [`enable_versioning`](Self::enable_versioning))
    /// loads the version manifest too. Then the meta page is decoded —
    /// through the latest snapshot when versioned, since the physical page
    /// at `meta_page` goes stale after the first copy-on-write commit. The
    /// caller checks that the [`Params`] name its kind.
    pub fn open(
        pool: Arc<BufferPool>,
        meta_page: PageId,
        versions_head: Option<PageId>,
    ) -> Result<(Self, Params<D>)> {
        let (journal, _recovery) = Journal::open(&pool, meta_page + 1)?;
        let versions = match versions_head {
            Some(head) => Some(VersionedStore::open(Arc::clone(&pool), journal, head)?),
            None => None,
        };
        let (header, params) = match &versions {
            Some(store) => read_meta(&store.pin(None)?, meta_page)?,
            None => read_meta(pool.as_ref(), meta_page)?,
        };
        let file = TreeFile {
            pool,
            meta_page,
            journal,
            cache: Arc::default(),
            versions,
            header,
        };
        Ok((file, params))
    }

    /// The metadata page identifying this tree on disk.
    pub fn meta_page(&self) -> PageId {
        self.meta_page
    }

    /// Runs `body` as one atomic commit. Every page it writes goes through
    /// the [`Txn`]: onto the home pages via the journal or, versioned,
    /// read through the latest snapshot and published as the next. On
    /// `Err` nothing reached disk. A commit that wrote pages changed the
    /// tree: a plain tree drops its node cache (epoch bump), a versioned
    /// one only purges keys below the GC floor. Tree updates go through
    /// [`WritableIndex::update`], which also writes the meta page.
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

    /// Writes the meta page: this file's header, then `params`.
    fn write_meta(&self, txn: &Txn<'_>, params: &Params<D>) -> Result<()> {
        txn.with_page_mut(self.meta_page, |page| {
            let mut w = Cursor(page);
            w.put(match params {
                Params::Mbrqt(_) => MBRQT_MAGIC,
                Params::RStar(_) => RSTAR_MAGIC,
            })?;
            w.word(D)?;
            w.put(&self.header.root.to_le_bytes())?;
            w.put(&self.header.num_points.to_le_bytes())?;
            w.mbr(&self.header.bounds)?;
            match params {
                Params::Mbrqt(p) => {
                    w.mbr(&p.universe)?;
                    w.word(p.bucket_capacity)?;
                    w.word(p.levels_per_node)?;
                    w.word(p.max_depth)?;
                    w.word(usize::from(p.use_subtree_mbrs))
                }
                Params::RStar(p) => {
                    w.put(&p.height.to_le_bytes())?;
                    w.word(p.max_leaf)?;
                    w.word(p.max_internal)?;
                    w.word(p.min_fill_percent)?;
                    w.word(p.reinsert_percent)
                }
            }
        })?
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
        Some(VersionedHandle::new(store, cache, self.meta_page))
    }

    /// Writes all dirty pages through to the backing disk.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()
    }
}

/// One kind of tree over a [`TreeFile`] — GiST's extension point: a kind
/// supplies its [`Params`] and its insert and delete, and derefs to its
/// file for the rest (the lifecycle methods, and the [`SpatialIndex`]
/// answers every `WritableIndex` gets from the file's header).
pub trait WritableIndex<const D: usize>: DerefMut<Target = TreeFile<D>> {
    /// Opens a built tree from its meta page (and manifest `head`, if
    /// versioned; see [`TreeFile::open`]), then [`crate::index::validate`]s
    /// it: a mid-update crash yields a consistent tree or `Corrupt`, and
    /// so does a file of another kind or `D`.
    fn open_at(pool: Arc<BufferPool>, meta_page: PageId, head: Option<PageId>) -> Result<Self>
    where
        Self: Sized;

    /// Inserts one point.
    fn insert(&mut self, oid: u64, point: Point<D>) -> Result<()>;

    /// Deletes the object `(oid, point)`; returns whether it existed.
    fn delete(&mut self, oid: u64, point: &Point<D>) -> Result<bool>;

    /// The parameter block this tree's meta page records.
    fn params(&self) -> Params<D>;

    /// Runs one structural update as one atomic commit: `body` writes
    /// nodes through the [`Txn`] and moves the header (and the kind's own
    /// parameters); then the meta page is written from both, unless
    /// `body` changed nothing. On `Err` nothing reached disk and the tree
    /// is put back as it was, from a clone taken first (three `Arc`
    /// bumps and `Copy` fields).
    fn update<R>(&mut self, body: impl FnOnce(&mut Self, &Txn<'_>) -> Result<R>) -> Result<R>
    where
        Self: Clone + Sized,
    {
        let saved = self.clone();
        let result = saved.transact(|txn| {
            let out = body(self, txn)?;
            // The kind's parameters only move with the root.
            if txn.page_count() > 0 || self.header != saved.header {
                self.write_meta(txn, &self.params())?;
            }
            Ok(out)
        });
        if result.is_err() {
            *self = saved;
        }
        result
    }

    /// Commits a new tree's first state: one empty leaf as its root.
    fn with_empty_root(mut self) -> Result<Self>
    where
        Self: Clone + Sized,
    {
        self.update(|tree, txn| {
            tree.header.root = txn.allocate()?;
            write_node::<D>(txn, tree.header.root, &Node::empty_leaf())
        })?;
        Ok(self)
    }

    /// Makes a bulk build durable. Its node pages went straight through
    /// the pool: until the meta page names them nothing references them,
    /// so a crash mid-build leaves an unopenable meta page, not a partial
    /// tree. They are flushed first; then a header naming `root` commits.
    fn built(mut self, root: PageId, num_points: u64, bounds: Mbr<D>) -> Result<Self>
    where
        Self: Clone + Sized,
    {
        self.flush()?;
        self.update(|tree, _| {
            tree.header = Header {
                root,
                num_points,
                bounds,
            };
            Ok(())
        })?;
        Ok(self)
    }
}

impl<const D: usize, T: WritableIndex<D> + ?Sized> SpatialIndex<D> for T {
    fn pool(&self) -> &BufferPool {
        &self.pool
    }

    fn root_page(&self) -> PageId {
        self.header.root
    }

    fn num_points(&self) -> u64 {
        self.header.num_points
    }

    fn bounds(&self) -> Mbr<D> {
        self.header.bounds
    }

    /// Through the latest snapshot when versioned: copy-on-write commits
    /// remap logical pages.
    fn read_node(&self, page: PageId) -> Result<Node<D>> {
        match &self.versions {
            Some(store) => read_node(&store.pin(None)?, page),
            None => read_node(self.pool.as_ref(), page),
        }
    }

    fn node_cache(&self) -> Option<&NodeCache<D>> {
        Some(&self.cache)
    }

    /// The latest version when versioned (shared with views pinned there).
    fn cache_key(&self) -> u64 {
        match &self.versions {
            Some(store) => u64::from(store.latest()),
            None => self.cache.epoch(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ann_store::{DiskBackend, MemDisk};

    /// The on-disk contract `open` relies on: meta page first, journal
    /// header right behind it, nodes after; and what the meta page holds
    /// reads back as written.
    #[test]
    fn fresh_file_is_meta_page_then_journal() {
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 8));
        let mut file = TreeFile::<2>::create(Arc::clone(&pool)).unwrap();
        assert_eq!(file.meta_page(), 0);
        assert_eq!(file.journal.header_page(), 1);
        file.header = Header {
            root: 2,
            num_points: 5,
            bounds: Mbr::new([0.0, 1.0], [2.0, 3.0]),
        };
        let params = Params::Mbrqt(MbrqtParams {
            universe: Mbr::new([-1.0, -1.0], [4.0, 4.0]),
            bucket_capacity: 16,
            levels_per_node: 3,
            max_depth: 48,
            use_subtree_mbrs: true,
        });
        let first_node = file.transact(|txn| {
            file.write_meta(txn, &params)?;
            txn.allocate()
        });
        assert_eq!(first_node.unwrap(), 2);
        let (reopened, read) = TreeFile::<2>::open(pool, 0, None).unwrap();
        assert_eq!((reopened.header, read), (file.header, params));
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
        let err = TreeFile::<2>::create(pool).err().unwrap();
        assert!(matches!(err, StoreError::Corrupt { .. }), "{err:?}");
    }
}
