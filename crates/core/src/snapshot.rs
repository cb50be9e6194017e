//! Pinned, versioned read views over a spatial index.
//!
//! A tree backed by an [`ann_store::VersionedStore`] separates its write
//! handle (the tree struct itself, `&mut self` mutations; its
//! [`crate::tree_file::TreeFile`] enables versioning and hands out the
//! handles below) from read views: a [`VersionedHandle`] is a cheap,
//! cloneable, thread-safe factory of [`ReadContext`]s, and each
//! `ReadContext` pins one version for its whole lifetime. Queries run
//! against the `ReadContext` exactly as against the tree (it implements
//! [`SpatialIndex`]), but:
//!
//! * every page read translates through the pinned version's table, so
//!   a writer committing mid-query can never tear the traversal;
//! * the decoded-node cache is keyed by `(version, page)` — entries
//!   cached by readers of older versions stay valid and shareable, and
//!   commits don't clear the cache;
//! * the meta fields (root, point count, bounds) are read through the
//!   snapshot at pin time, so they are mutually consistent with every
//!   node the traversal will see.
//!
//! The pinned version is reclaim-exempt until the `ReadContext` drops;
//! see `ann_store::versioned` for the GC rules.

use crate::index::SpatialIndex;
use crate::node::{read_node, Node};
use crate::node_cache::NodeCache;
use ann_geom::Mbr;
use ann_store::{BufferPool, PageId, Result, Snapshot, VersionedStore};
use std::sync::Arc;

/// The per-version meta fields a snapshot read needs: parsed from the
/// tree's meta page *through* the snapshot's translation table.
#[derive(Clone, Copy, Debug)]
pub struct MetaFields<const D: usize> {
    /// First page of the root node in this version.
    pub root: PageId,
    /// Number of indexed points in this version.
    pub num_points: u64,
    /// Tight bounds of all points in this version.
    pub bounds: Mbr<D>,
}

/// Parses a tree's meta page through an arbitrary snapshot.
///
/// Each tree crate supplies one (a plain `fn`, so the handle stays
/// `Copy`-cheap, `Send` and `Sync` without trait objects): it must read
/// the meta page via the snapshot's `PageStore` impl and return the
/// version-consistent fields.
pub type MetaReader<const D: usize> = fn(&Snapshot, PageId) -> Result<MetaFields<D>>;

/// A cloneable, thread-safe factory of pinned read views over one
/// versioned tree. Obtained from the tree
/// ([`crate::tree_file::TreeFile::versioned_handle`]) after versioning is
/// enabled.
pub struct VersionedHandle<const D: usize> {
    store: Arc<VersionedStore>,
    cache: Arc<NodeCache<D>>,
    meta_page: PageId,
    meta_reader: MetaReader<D>,
}

impl<const D: usize> Clone for VersionedHandle<D> {
    fn clone(&self) -> Self {
        VersionedHandle {
            store: Arc::clone(&self.store),
            cache: Arc::clone(&self.cache),
            meta_page: self.meta_page,
            meta_reader: self.meta_reader,
        }
    }
}

impl<const D: usize> std::fmt::Debug for VersionedHandle<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VersionedHandle")
            .field("meta_page", &self.meta_page)
            .field("latest", &self.store.latest())
            .finish()
    }
}

impl<const D: usize> VersionedHandle<D> {
    /// Builds a handle from a tree's versioned store, shared node cache,
    /// meta page and meta parser.
    pub fn new(
        store: Arc<VersionedStore>,
        cache: Arc<NodeCache<D>>,
        meta_page: PageId,
        meta_reader: MetaReader<D>,
    ) -> Self {
        VersionedHandle {
            store,
            cache,
            meta_page,
            meta_reader,
        }
    }

    /// The underlying versioned store.
    pub fn store(&self) -> &Arc<VersionedStore> {
        &self.store
    }

    /// The shared decoded-node cache.
    pub fn cache(&self) -> &Arc<NodeCache<D>> {
        &self.cache
    }

    /// The most recently committed version.
    pub fn latest(&self) -> u32 {
        self.store.latest()
    }

    /// Pins `version` (latest when `None`) and reads its meta fields,
    /// returning a query-ready [`ReadContext`]. Fails with
    /// [`ann_store::StoreError::VersionNotRetained`] when the version has
    /// aged out of the history window.
    pub fn pin(&self, version: Option<u32>) -> Result<ReadContext<D>> {
        let snap = self.store.pin(version)?;
        let meta = (self.meta_reader)(&snap, self.meta_page)?;
        Ok(ReadContext {
            snap,
            cache: Arc::clone(&self.cache),
            meta,
        })
    }
}

/// A read view of one pinned version of a tree.
///
/// Implements [`SpatialIndex`], so every algorithm (MBA/RBA, BNN, MNN,
/// HNN, kNN, closest pairs, validation) runs against it unchanged. The
/// pinned version cannot be garbage-collected while this value lives.
pub struct ReadContext<const D: usize> {
    snap: Snapshot,
    cache: Arc<NodeCache<D>>,
    meta: MetaFields<D>,
}

impl<const D: usize> ReadContext<D> {
    /// The version this context reads.
    pub fn version(&self) -> u32 {
        self.snap.version()
    }

    /// The pinned storage snapshot.
    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// The meta fields read at pin time.
    pub fn meta(&self) -> &MetaFields<D> {
        &self.meta
    }
}

impl<const D: usize> std::fmt::Debug for ReadContext<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadContext")
            .field("version", &self.snap.version())
            .field("root", &self.meta.root)
            .field("num_points", &self.meta.num_points)
            .finish()
    }
}

impl<const D: usize> SpatialIndex<D> for ReadContext<D> {
    fn pool(&self) -> &BufferPool {
        self.snap.store().pool()
    }

    fn root_page(&self) -> PageId {
        self.meta.root
    }

    fn num_points(&self) -> u64 {
        self.meta.num_points
    }

    fn bounds(&self) -> Mbr<D> {
        self.meta.bounds
    }

    fn read_node(&self, page: PageId) -> Result<Node<D>> {
        // The snapshot translates every page of the node's continuation
        // chain, so even multi-page nodes decode version-consistently.
        read_node(&self.snap, page)
    }

    fn node_cache(&self) -> Option<&NodeCache<D>> {
        Some(&self.cache)
    }

    fn cache_key(&self) -> u64 {
        // Key by pinned version: entries for other versions neither
        // match nor get clobbered, so concurrent readers of different
        // versions share one cache without invalidating each other.
        self.snap.version() as u64
    }
}
