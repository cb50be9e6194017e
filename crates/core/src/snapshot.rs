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
//! * the tree's header (root, point count, bounds) is decoded from the
//!   meta page through the snapshot at pin time — the one decoder in
//!   [`crate::tree_file`], for either kind — so it is consistent with
//!   every node the traversal will see.
//!
//! The pinned version is reclaim-exempt until the `ReadContext` drops;
//! see `ann_store::versioned` for the GC rules.

use crate::index::SpatialIndex;
use crate::node::{read_node, Node};
use crate::node_cache::NodeCache;
use crate::tree_file::{read_meta, Header};
use ann_geom::Mbr;
use ann_store::{BufferPool, PageId, Result, Snapshot, VersionedStore};
use std::sync::Arc;

/// A cloneable, thread-safe factory of pinned read views over one
/// versioned tree. Obtained from the tree
/// ([`crate::tree_file::TreeFile::versioned_handle`]) after versioning is
/// enabled.
#[derive(Clone)]
pub struct VersionedHandle<const D: usize> {
    store: Arc<VersionedStore>,
    cache: Arc<NodeCache<D>>,
    meta_page: PageId,
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
    /// Builds a handle from a tree's versioned store, shared node cache
    /// and meta page.
    pub fn new(store: Arc<VersionedStore>, cache: Arc<NodeCache<D>>, meta_page: PageId) -> Self {
        VersionedHandle {
            store,
            cache,
            meta_page,
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

    /// Pins `version` (latest when `None`) and reads its header,
    /// returning a query-ready [`ReadContext`]. Fails with
    /// [`ann_store::StoreError::VersionNotRetained`] when the version has
    /// aged out of the history window.
    pub fn pin(&self, version: Option<u32>) -> Result<ReadContext<D>> {
        let snap = self.store.pin(version)?;
        let (header, _) = read_meta(&snap, self.meta_page)?;
        Ok(ReadContext {
            snap,
            cache: Arc::clone(&self.cache),
            header,
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
    header: Header<D>,
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
}

impl<const D: usize> std::fmt::Debug for ReadContext<D> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadContext")
            .field("version", &self.snap.version())
            .field("root", &self.header.root)
            .field("num_points", &self.header.num_points)
            .finish()
    }
}

impl<const D: usize> SpatialIndex<D> for ReadContext<D> {
    fn pool(&self) -> &BufferPool {
        self.snap.store().pool()
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
