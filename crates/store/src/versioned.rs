//! Multi-version concurrency control over the page substrate.
//!
//! The journal/txn layer gives one writer all-or-nothing batches, but a
//! committed batch overwrites home pages in place: a reader traversing
//! the tree while a commit lands can see a mix of old and new pages.
//! [`VersionedStore`] closes that gap with copy-on-write versioning:
//!
//! * every committed transaction produces a new immutable **version**,
//!   identified by a monotonic `u32`;
//! * a version is a logical→physical page table: pages untouched since
//!   the previous version map to themselves (identity), mutated pages
//!   map to freshly written physical copies, so older versions keep
//!   reading the untouched originals;
//! * readers [`VersionedStore::pin`] a version and get a [`Snapshot`] —
//!   a read-only [`PageStore`] that translates page ids through the
//!   pinned table. Pinning takes one short mutex acquisition; no lock is
//!   held while a commit writes pages, so readers are never blocked by
//!   the writer;
//! * a **manifest** (the full version table set, free list and pending
//!   retirements) is serialized into a page chain and journal-committed
//!   atomically *with* the copy-on-write pages, so a crash lands on a
//!   complete version or the previous one — never in between;
//! * bounded-history GC retains the `keep` most recent versions plus
//!   any older version still pinned by a reader. Physical pages retired
//!   at version `r` are reclaimed to a free list once every retained
//!   version is newer than `r`; a pinned version holds the floor down,
//!   so GC can never reclaim a page a live snapshot might read.
//!
//! Logical page ids are never recycled (the pool allocator is
//! append-only), and once a logical page has been copied-on-write its
//! table entry is carried forward in every later version. Both facts
//! together make free-list reuse safe: a reclaimed physical page can
//! only be reached through a version table that no live snapshot uses.
//!
//! In-memory GC is lazy: collection runs at the start of each commit
//! (and on [`VersionedStore::gc`]), and the durable manifest catches up
//! at the next commit. Recovery recomputes the same collection from the
//! manifest with zero pins, so the lag is invisible after a crash.

use crate::journal::Journal;
use crate::pool::PageStore;
use crate::sync::Mutex;
use crate::{BufferPool, PageId, Result, StoreError, INVALID_PAGE, PAGE_SIZE};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

/// Magic tag on every manifest chain page.
const VMAN_MAGIC: u32 = 0x5653_4E31; // "VSN1"
/// Magic prefix of the manifest payload itself.
const VMAN_HEADER: &[u8; 8] = b"VMANIF01";
/// Payload bytes per manifest chain page after the next-pointer + magic.
const CHAIN_CAPACITY: usize = PAGE_SIZE - 8;

/// Default number of recent versions retained for time-travel reads.
pub const DEFAULT_KEEP: u32 = 8;

/// One immutable version: its id and logical→physical translation.
///
/// Pages absent from `table` are identity-mapped (logical id == physical
/// id). Entries are only ever added, never removed: once a logical page
/// has been copied-on-write it stays explicitly mapped in every later
/// version, which is what makes retired physical pages safe to reuse.
#[derive(Debug)]
pub struct VersionInfo {
    version: u32,
    table: BTreeMap<PageId, PageId>,
}

impl VersionInfo {
    /// The version number.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// Physical page backing `logical` in this version.
    pub fn translate(&self, logical: PageId) -> PageId {
        self.table.get(&logical).copied().unwrap_or(logical)
    }

    /// Number of explicit (non-identity) table entries.
    pub fn table_len(&self) -> usize {
        self.table.len()
    }
}

struct VersionSlot {
    info: Arc<VersionInfo>,
    pins: u32,
}

struct VersionedState {
    latest: u32,
    versions: BTreeMap<u32, VersionSlot>,
    /// Reclaimed physical pages available as copy-on-write targets.
    free: Vec<PageId>,
    /// Physical pages retired at a version: a page retired at `r` served
    /// versions `<= r` and is reclaimable once every retained version is
    /// newer than `r`.
    pending: Vec<(u32, Vec<PageId>)>,
    /// Pages of the manifest chain (head first), reused across commits.
    manifest_pages: Vec<PageId>,
    keep: u32,
}

/// An append-only versioned page store layered on the journal.
///
/// See the module docs for the protocol. Constructed with
/// [`VersionedStore::create`] (new store, version 1 = identity) or
/// [`VersionedStore::open`] (recover from a durable manifest).
pub struct VersionedStore {
    pool: Arc<BufferPool>,
    journal: Journal,
    manifest_head: PageId,
    state: Mutex<VersionedState>,
    /// Serializes commits; never held while readers pin or read.
    writer: Mutex<()>,
}

impl VersionedStore {
    /// Creates a fresh versioned store over `pool`, writing an initial
    /// manifest for version 1 (identity table: the pool's current
    /// contents). `keep` bounds retained history (clamped to >= 1).
    ///
    /// The returned store's [`manifest_head`](Self::manifest_head) must
    /// be persisted by the caller to reopen later.
    pub fn create(
        pool: Arc<BufferPool>,
        journal: Journal,
        keep: u32,
    ) -> Result<Arc<VersionedStore>> {
        let manifest_head = pool.allocate()?;
        let mut versions = BTreeMap::new();
        versions.insert(
            1,
            VersionSlot {
                info: Arc::new(VersionInfo {
                    version: 1,
                    table: BTreeMap::new(),
                }),
                pins: 0,
            },
        );
        let store = VersionedStore {
            pool,
            journal,
            manifest_head,
            state: Mutex::new(VersionedState {
                latest: 1,
                versions,
                free: Vec::new(),
                pending: Vec::new(),
                manifest_pages: vec![manifest_head],
                keep: keep.max(1),
            }),
            writer: Mutex::new(()),
        };
        // The initial manifest is written directly (no journal): nothing
        // references the head page until the caller persists it.
        let st = store.state.lock();
        let images = store.manifest_images(&st, &st.manifest_pages)?;
        drop(st);
        for (page, image) in &images {
            store.pool.overwrite_page(*page, image)?;
        }
        let pages: Vec<PageId> = images.iter().map(|(p, _)| *p).collect();
        store.pool.flush_pages(&pages)?;
        Ok(Arc::new(store))
    }

    /// Reopens a versioned store from its durable manifest at
    /// `manifest_head`. The caller must have run journal recovery
    /// ([`Journal::open`]) on `journal` first, so the manifest chain is
    /// either the pre-crash or the fully committed post-crash state.
    pub fn open(
        pool: Arc<BufferPool>,
        journal: Journal,
        manifest_head: PageId,
    ) -> Result<Arc<VersionedStore>> {
        let (mut state, chain) = Self::load_manifest(&pool, manifest_head)?;
        state.manifest_pages = chain;
        // No pins exist at open: collect everything outside the window.
        Self::collect(&mut state);
        Ok(Arc::new(VersionedStore {
            pool,
            journal,
            manifest_head,
            state: Mutex::new(state),
            writer: Mutex::new(()),
        }))
    }

    /// Head page of the durable manifest chain.
    pub fn manifest_head(&self) -> PageId {
        self.manifest_head
    }

    /// The journal this store commits through.
    pub fn journal(&self) -> Journal {
        self.journal
    }

    /// The pool the store reads and writes through.
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The most recently committed version.
    pub fn latest(&self) -> u32 {
        self.state.lock().latest
    }

    /// Bounded-history window size.
    pub fn keep(&self) -> u32 {
        self.state.lock().keep
    }

    /// Versions currently pinnable (retained window plus pinned
    /// stragglers), ascending.
    pub fn retained(&self) -> Vec<u32> {
        self.state.lock().versions.keys().copied().collect()
    }

    /// Total outstanding reader pins across all versions.
    pub fn pinned_readers(&self) -> usize {
        self.state
            .lock()
            .versions
            .values()
            .map(|s| s.pins as usize)
            .sum()
    }

    /// Physical pages currently on the reclaimed free list.
    pub fn free_pages(&self) -> usize {
        self.state.lock().free.len()
    }

    /// Pins `version` (or the latest when `None`), returning a read-only
    /// [`Snapshot`]. The version stays reclaim-exempt until the snapshot
    /// (and every clone of it) is dropped.
    ///
    /// Fails with [`StoreError::VersionNotRetained`] when the requested
    /// version has aged out of the history window (or never existed).
    pub fn pin(self: &Arc<Self>, version: Option<u32>) -> Result<Snapshot> {
        let mut st = self.state.lock();
        let v = version.unwrap_or(st.latest);
        let slot = st
            .versions
            .get_mut(&v)
            .ok_or(StoreError::VersionNotRetained(v))?;
        slot.pins += 1;
        Ok(Snapshot {
            store: Arc::clone(self),
            info: Arc::clone(&slot.info),
        })
    }

    /// Runs in-memory garbage collection now, returning the number of
    /// physical pages moved to the free list. The durable manifest
    /// reflects the collection at the next commit.
    pub fn gc(&self) -> usize {
        let mut st = self.state.lock();
        let before = st.free.len();
        Self::collect(&mut st);
        st.free.len() - before
    }

    /// Drops retained versions outside the keep-window with zero pins,
    /// then reclaims pending retirements older than every remaining
    /// version. Call with the state lock held.
    fn collect(st: &mut VersionedState) {
        let window_floor = st.latest.saturating_sub(st.keep - 1).max(1);
        let dead: Vec<u32> = st
            .versions
            .iter()
            .filter(|(v, slot)| **v < window_floor && slot.pins == 0)
            .map(|(v, _)| *v)
            .collect();
        for v in dead {
            st.versions.remove(&v);
        }
        let live_floor = st.versions.keys().next().copied().unwrap_or(st.latest);
        let mut reclaimed: Vec<PageId> = Vec::new();
        st.pending.retain(|(retired_at, pages)| {
            if *retired_at < live_floor {
                reclaimed.extend_from_slice(pages);
                false
            } else {
                true
            }
        });
        st.free.extend(reclaimed);
    }

    /// Commits one transaction's write set as the next version.
    ///
    /// `writes` maps **logical** page ids to after-images; `fresh` marks
    /// pages allocated inside this transaction (written in place, since
    /// no earlier version can reference them). `base` is the version the
    /// transaction translated its reads through; commits race-fail with
    /// [`StoreError::WriteConflict`] if another commit landed since.
    ///
    /// Returns the new version number. An empty write set commits
    /// nothing and returns the current latest.
    pub(crate) fn commit_txn(
        &self,
        writes: HashMap<PageId, Box<[u8]>>,
        fresh: &HashSet<PageId>,
        base: u32,
    ) -> Result<u32> {
        let _w = self.writer.lock();
        if writes.is_empty() {
            return Ok(self.latest());
        }
        // Snapshot the mutable state under the lock; everything after
        // (page allocation, serialization, journal I/O) runs without it
        // so readers keep pinning and reading meanwhile.
        let (base_info, mut free, pending, retained, manifest_pages) = {
            let mut st = self.state.lock();
            if st.latest != base {
                return Err(StoreError::WriteConflict {
                    base,
                    latest: st.latest,
                });
            }
            Self::collect(&mut st);
            let retained: Vec<Arc<VersionInfo>> =
                st.versions.values().map(|s| Arc::clone(&s.info)).collect();
            let base_info = Arc::clone(&st.versions[&st.latest].info);
            (
                base_info,
                std::mem::take(&mut st.free),
                st.pending.clone(),
                retained,
                st.manifest_pages.clone(),
            )
        };
        let restore_free = |free: Vec<PageId>| {
            // On failure the popped copy-on-write targets are abandoned
            // (possibly half-written scratch, never referenced); the
            // untouched remainder goes back on the list.
            self.state.lock().free = free;
        };

        let new_version = base_info.version + 1;
        let mut table = base_info.table.clone();
        let mut retired: Vec<PageId> = Vec::new();
        let mut batch: Vec<(PageId, Box<[u8]>)> = Vec::with_capacity(writes.len());
        let mut ordered: Vec<(PageId, Box<[u8]>)> = writes.into_iter().collect();
        ordered.sort_by_key(|(page, _)| *page);
        for (logical, image) in ordered {
            if fresh.contains(&logical) {
                // Born in this transaction: no older version can hold a
                // reference, write through at its own id.
                batch.push((logical, image));
                continue;
            }
            let old_phys = base_info.translate(logical);
            let new_phys = match free.pop() {
                Some(p) => p,
                None => match self.pool.allocate() {
                    Ok(p) => p,
                    Err(e) => {
                        restore_free(free);
                        return Err(e);
                    }
                },
            };
            table.insert(logical, new_phys);
            retired.push(old_phys);
            batch.push((new_phys, image));
        }
        let new_info = Arc::new(VersionInfo {
            version: new_version,
            table,
        });
        let mut new_pending = pending;
        if !retired.is_empty() {
            new_pending.push((base_info.version, retired));
        }

        // Serialize the post-commit manifest and lay it over the reusable
        // chain, extending the chain with free/fresh pages as needed.
        let mut all_versions: Vec<Arc<VersionInfo>> = retained;
        all_versions.push(Arc::clone(&new_info));
        let payload = Self::encode_manifest(
            new_version,
            self.state.lock().keep,
            &all_versions,
            &free,
            &new_pending,
        );
        let pages_needed = payload.len().div_ceil(CHAIN_CAPACITY).max(1);
        let mut chain = manifest_pages;
        while chain.len() < pages_needed {
            let p = match free.pop() {
                Some(p) => p,
                None => match self.pool.allocate() {
                    Ok(p) => p,
                    Err(e) => {
                        restore_free(free);
                        return Err(e);
                    }
                },
            };
            chain.push(p);
        }
        for i in 0..pages_needed {
            let next = if i + 1 < chain.len() {
                chain[i + 1]
            } else {
                INVALID_PAGE
            };
            let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
            buf[0..4].copy_from_slice(&next.to_le_bytes());
            buf[4..8].copy_from_slice(&VMAN_MAGIC.to_le_bytes());
            let lo = i * CHAIN_CAPACITY;
            let hi = payload.len().min(lo + CHAIN_CAPACITY);
            if lo < hi {
                buf[8..8 + (hi - lo)].copy_from_slice(&payload[lo..hi]);
            }
            batch.push((chain[i], buf));
        }
        // Spare tail pages from an earlier, larger manifest keep their
        // on-disk link; `load_manifest` rediscovers them for reuse.

        batch.sort_by_key(|(page, _)| *page);
        if let Err(e) = self.journal.commit(&self.pool, &batch) {
            restore_free(free);
            return Err(e);
        }

        // Publish: one short critical section, after all I/O.
        let mut st = self.state.lock();
        st.latest = new_version;
        st.versions.insert(
            new_version,
            VersionSlot {
                info: new_info,
                pins: 0,
            },
        );
        st.free = free;
        st.pending = new_pending;
        st.manifest_pages = chain;
        // Collect promptly so memory tracks the window; the durable
        // manifest catches up next commit.
        Self::collect(&mut st);
        Ok(new_version)
    }

    /// The latest version's translation info, captured by
    /// [`crate::Txn::begin_versioned`] for read translation.
    pub(crate) fn latest_info(&self) -> Arc<VersionInfo> {
        let st = self.state.lock();
        Arc::clone(&st.versions[&st.latest].info)
    }

    /// Lowest version any retained snapshot can read. Cache layers keyed
    /// by version can discard entries below this floor.
    pub fn version_floor(&self) -> u32 {
        let st = self.state.lock();
        st.versions.keys().next().copied().unwrap_or(st.latest)
    }

    fn unpin(&self, version: u32) {
        let mut st = self.state.lock();
        if let Some(slot) = st.versions.get_mut(&version) {
            slot.pins = slot.pins.saturating_sub(1);
        }
    }

    /// Serializes the manifest payload. Versions are stored ascending:
    /// the first as a full table, later ones as diffs against their
    /// predecessor in the *retained* list (entries are add-only, so a
    /// diff is just the added/changed pairs).
    fn encode_manifest(
        latest: u32,
        keep: u32,
        versions: &[Arc<VersionInfo>],
        free: &[PageId],
        pending: &[(u32, Vec<PageId>)],
    ) -> Vec<u8> {
        let mut body = Vec::new();
        body.extend_from_slice(&latest.to_le_bytes());
        body.extend_from_slice(&keep.to_le_bytes());
        body.extend_from_slice(&(versions.len() as u32).to_le_bytes());
        let mut prev: Option<&BTreeMap<PageId, PageId>> = None;
        for info in versions {
            body.extend_from_slice(&info.version.to_le_bytes());
            let entries: Vec<(PageId, PageId)> = match prev {
                None => info.table.iter().map(|(l, p)| (*l, *p)).collect(),
                Some(prev_table) => info
                    .table
                    .iter()
                    .filter(|(l, p)| prev_table.get(l) != Some(p))
                    .map(|(l, p)| (*l, *p))
                    .collect(),
            };
            body.extend_from_slice(&(entries.len() as u32).to_le_bytes());
            for (l, p) in entries {
                body.extend_from_slice(&l.to_le_bytes());
                body.extend_from_slice(&p.to_le_bytes());
            }
            prev = Some(&info.table);
        }
        body.extend_from_slice(&(free.len() as u32).to_le_bytes());
        for p in free {
            body.extend_from_slice(&p.to_le_bytes());
        }
        body.extend_from_slice(&(pending.len() as u32).to_le_bytes());
        for (retired_at, pages) in pending {
            body.extend_from_slice(&retired_at.to_le_bytes());
            body.extend_from_slice(&(pages.len() as u32).to_le_bytes());
            for p in pages {
                body.extend_from_slice(&p.to_le_bytes());
            }
        }
        let mut payload = Vec::with_capacity(8 + 4 + body.len());
        payload.extend_from_slice(VMAN_HEADER);
        payload.extend_from_slice(&(body.len() as u32).to_le_bytes());
        payload.extend_from_slice(&body);
        payload
    }

    /// Chain images for the current state — used only by `create` for
    /// the initial (journal-free) manifest write.
    fn manifest_images(
        &self,
        st: &VersionedState,
        chain: &[PageId],
    ) -> Result<Vec<(PageId, Box<[u8]>)>> {
        let versions: Vec<Arc<VersionInfo>> =
            st.versions.values().map(|s| Arc::clone(&s.info)).collect();
        let payload = Self::encode_manifest(st.latest, st.keep, &versions, &st.free, &st.pending);
        if payload.len() > chain.len() * CHAIN_CAPACITY {
            return Err(StoreError::corrupt("manifest chain too short"));
        }
        let mut images = Vec::with_capacity(chain.len());
        for i in 0..chain.len() {
            let next = if i + 1 < chain.len() {
                chain[i + 1]
            } else {
                INVALID_PAGE
            };
            let mut buf = vec![0u8; PAGE_SIZE].into_boxed_slice();
            buf[0..4].copy_from_slice(&next.to_le_bytes());
            buf[4..8].copy_from_slice(&VMAN_MAGIC.to_le_bytes());
            let lo = i * CHAIN_CAPACITY;
            let hi = payload.len().min(lo + CHAIN_CAPACITY);
            if lo < hi {
                buf[8..8 + (hi - lo)].copy_from_slice(&payload[lo..hi]);
            }
            images.push((chain[i], buf));
        }
        Ok(images)
    }

    /// Walks the chain from `head`, returning the parsed state (pins
    /// zeroed) and the full list of chain pages (including spare tail
    /// pages kept linked for reuse).
    fn load_manifest(pool: &BufferPool, head: PageId) -> Result<(VersionedState, Vec<PageId>)> {
        // First pass: collect the chain and the raw payload bytes.
        let mut chain = Vec::new();
        let mut payload = Vec::new();
        let mut cursor = head;
        while cursor != INVALID_PAGE {
            let next = pool.with_page(cursor, |b| {
                if u32::from_le_bytes(b[4..8].try_into().unwrap()) != VMAN_MAGIC {
                    return Err(StoreError::corrupt_page(cursor, "manifest chain broken"));
                }
                payload.extend_from_slice(&b[8..]);
                Ok(PageId::from_le_bytes(b[0..4].try_into().unwrap()))
            })??;
            chain.push(cursor);
            cursor = next;
            if chain.len() > 1_000_000 {
                return Err(StoreError::corrupt("manifest chain cycle"));
            }
        }
        if payload.len() < 12 || &payload[0..8] != VMAN_HEADER {
            return Err(StoreError::corrupt_page(head, "manifest header missing"));
        }
        let body_len = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
        if payload.len() < 12 + body_len {
            return Err(StoreError::corrupt_page(head, "manifest truncated"));
        }
        let body = &payload[12..12 + body_len];
        let mut r = ManifestReader { body, at: 0 };
        let latest = r.u32()?;
        let keep = r.u32()?.max(1);
        let num_versions = r.u32()? as usize;
        let mut versions: BTreeMap<u32, VersionSlot> = BTreeMap::new();
        let mut prev_table: BTreeMap<PageId, PageId> = BTreeMap::new();
        for _ in 0..num_versions {
            let version = r.u32()?;
            let entries = r.u32()? as usize;
            let mut table = prev_table.clone();
            for _ in 0..entries {
                let l = r.u32()?;
                let p = r.u32()?;
                table.insert(l, p);
            }
            prev_table = table.clone();
            versions.insert(
                version,
                VersionSlot {
                    info: Arc::new(VersionInfo { version, table }),
                    pins: 0,
                },
            );
        }
        let free_len = r.u32()? as usize;
        let mut free = Vec::with_capacity(free_len);
        for _ in 0..free_len {
            free.push(r.u32()?);
        }
        let pending_len = r.u32()? as usize;
        let mut pending = Vec::with_capacity(pending_len);
        for _ in 0..pending_len {
            let retired_at = r.u32()?;
            let n = r.u32()? as usize;
            let mut pages = Vec::with_capacity(n);
            for _ in 0..n {
                pages.push(r.u32()?);
            }
            pending.push((retired_at, pages));
        }
        if versions.is_empty() || !versions.contains_key(&latest) {
            return Err(StoreError::corrupt_page(head, "manifest missing latest"));
        }
        Ok((
            VersionedState {
                latest,
                versions,
                free,
                pending,
                manifest_pages: Vec::new(),
                keep,
            },
            chain,
        ))
    }
}

struct ManifestReader<'a> {
    body: &'a [u8],
    at: usize,
}

impl ManifestReader<'_> {
    fn u32(&mut self) -> Result<u32> {
        if self.at + 4 > self.body.len() {
            return Err(StoreError::corrupt("manifest body truncated"));
        }
        let v = u32::from_le_bytes(self.body[self.at..self.at + 4].try_into().unwrap());
        self.at += 4;
        Ok(v)
    }
}

/// A pinned, read-only view of one version.
///
/// Implements [`PageStore`] by translating logical page ids through the
/// pinned version table, so any code generic over page access (node
/// codecs, traversals) reads a consistent point-in-time image. Mutation
/// through a snapshot is an error. Dropping the snapshot releases the
/// pin; cloning takes an additional pin on the same version.
pub struct Snapshot {
    store: Arc<VersionedStore>,
    info: Arc<VersionInfo>,
}

impl Snapshot {
    /// The pinned version number.
    pub fn version(&self) -> u32 {
        self.info.version
    }

    /// The pinned version's translation table.
    pub fn info(&self) -> &VersionInfo {
        &self.info
    }

    /// Physical page backing `logical` in this snapshot.
    pub fn translate(&self, logical: PageId) -> PageId {
        self.info.translate(logical)
    }

    /// The store this snapshot pins.
    pub fn store(&self) -> &Arc<VersionedStore> {
        &self.store
    }
}

impl Clone for Snapshot {
    fn clone(&self) -> Self {
        let mut st = self.store.state.lock();
        if let Some(slot) = st.versions.get_mut(&self.info.version) {
            slot.pins += 1;
        }
        drop(st);
        Snapshot {
            store: Arc::clone(&self.store),
            info: Arc::clone(&self.info),
        }
    }
}

impl Drop for Snapshot {
    fn drop(&mut self) {
        self.store.unpin(self.info.version);
    }
}

impl std::fmt::Debug for Snapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Snapshot")
            .field("version", &self.info.version)
            .field("table_len", &self.info.table.len())
            .finish()
    }
}

impl PageStore for Snapshot {
    fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.store.pool.with_page(self.translate(id), f)
    }

    fn with_page_mut<R>(&self, _id: PageId, _f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        Err(StoreError::corrupt("snapshot pages are read-only"))
    }

    fn allocate(&self) -> Result<PageId> {
        Err(StoreError::corrupt("snapshot pages are read-only"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemDisk, Txn};

    fn setup(keep: u32) -> (Arc<BufferPool>, Arc<VersionedStore>, Vec<PageId>) {
        let pool = Arc::new(BufferPool::new(MemDisk::new(), 64));
        // A few data pages with recognizable content.
        let mut pages = Vec::new();
        for i in 0..4u8 {
            let p = pool.allocate().unwrap();
            pool.with_page_mut(p, |b| b[0] = 10 + i).unwrap();
            pages.push(p);
        }
        let journal = Journal::create(&pool).unwrap();
        let store = VersionedStore::create(Arc::clone(&pool), journal, keep).unwrap();
        (pool, store, pages)
    }

    fn write(store: &Arc<VersionedStore>, page: PageId, byte: u8) -> u32 {
        let txn = Txn::begin_versioned(store).unwrap();
        txn.with_page_mut(page, |b| b[0] = byte).unwrap();
        txn.commit_versioned().unwrap()
    }

    fn read(snap: &Snapshot, page: PageId) -> u8 {
        snap.with_page(page, |b| b[0]).unwrap()
    }

    #[test]
    fn snapshots_are_immutable_across_commits() {
        let (_pool, store, pages) = setup(8);
        let v1 = store.pin(None).unwrap();
        assert_eq!(v1.version(), 1);
        assert_eq!(read(&v1, pages[0]), 10);
        let v2 = write(&store, pages[0], 99);
        assert_eq!(v2, 2);
        // The old snapshot still reads the old byte; a fresh pin sees
        // the new one.
        assert_eq!(read(&v1, pages[0]), 10);
        let s2 = store.pin(None).unwrap();
        assert_eq!(s2.version(), 2);
        assert_eq!(read(&s2, pages[0]), 99);
        // Untouched pages are identity in both.
        assert_eq!(read(&v1, pages[1]), 11);
        assert_eq!(read(&s2, pages[1]), 11);
    }

    #[test]
    fn pinning_specific_versions_time_travels() {
        let (_pool, store, pages) = setup(8);
        for round in 0..5u8 {
            write(&store, pages[0], 50 + round);
        }
        assert_eq!(store.latest(), 6);
        for v in 2..=6u32 {
            let s = store.pin(Some(v)).unwrap();
            assert_eq!(read(&s, pages[0]), 50 + (v - 2) as u8);
        }
        let s1 = store.pin(Some(1)).unwrap();
        assert_eq!(read(&s1, pages[0]), 10);
    }

    #[test]
    fn history_window_ages_out_unpinned_versions() {
        let (_pool, store, pages) = setup(2);
        for round in 0..4u8 {
            write(&store, pages[0], 70 + round);
        }
        assert_eq!(store.latest(), 5);
        // keep=2: only versions 4 and 5 remain pinnable.
        assert!(matches!(
            store.pin(Some(1)),
            Err(StoreError::VersionNotRetained(1))
        ));
        assert!(matches!(
            store.pin(Some(3)),
            Err(StoreError::VersionNotRetained(3))
        ));
        assert_eq!(store.retained(), vec![4, 5]);
        assert_eq!(read(&store.pin(Some(4)).unwrap(), pages[0]), 72);
    }

    #[test]
    fn pinned_version_survives_aging_and_gc() {
        let (_pool, store, pages) = setup(2);
        let old = store.pin(None).unwrap(); // version 1
        for round in 0..4u8 {
            write(&store, pages[0], 70 + round);
        }
        store.gc();
        // Version 1 is far outside keep=2 but pinned: still readable,
        // still retained, and its page was never reclaimed.
        assert_eq!(read(&old, pages[0]), 10);
        assert!(store.retained().contains(&1));
        // Release it: now it ages out.
        drop(old);
        store.gc();
        assert!(!store.retained().contains(&1));
        assert!(matches!(
            store.pin(Some(1)),
            Err(StoreError::VersionNotRetained(1))
        ));
    }

    #[test]
    fn gc_reclaims_and_reuses_retired_pages() {
        let (pool, store, pages) = setup(1);
        for round in 0..3u8 {
            write(&store, pages[0], 30 + round);
        }
        store.gc();
        assert!(store.free_pages() > 0, "retired copies should be freed");
        let grown = pool.num_pages();
        // Further commits should reuse the free list, not grow the pool.
        write(&store, pages[0], 40);
        write(&store, pages[0], 41);
        assert_eq!(pool.num_pages(), grown);
        assert_eq!(read(&store.pin(None).unwrap(), pages[0]), 41);
    }

    #[test]
    fn manifest_survives_reopen() {
        let (pool, store, pages) = setup(4);
        write(&store, pages[0], 91);
        write(&store, pages[1], 92);
        let head = store.manifest_head();
        let latest = store.latest();
        let retained = store.retained();
        let journal = store.journal();
        drop(store);
        let reopened = VersionedStore::open(Arc::clone(&pool), journal, head).unwrap();
        assert_eq!(reopened.latest(), latest);
        assert_eq!(reopened.retained(), retained);
        assert_eq!(read(&reopened.pin(None).unwrap(), pages[0]), 91);
        assert_eq!(read(&reopened.pin(None).unwrap(), pages[1]), 92);
        // Time travel still works across the reopen.
        assert_eq!(read(&reopened.pin(Some(1)).unwrap(), pages[0]), 10);
    }

    #[test]
    fn write_conflict_is_detected() {
        let (_pool, store, pages) = setup(4);
        let t1 = Txn::begin_versioned(&store).unwrap();
        t1.with_page_mut(pages[0], |b| b[0] = 1).unwrap();
        let t2 = Txn::begin_versioned(&store).unwrap();
        t2.with_page_mut(pages[1], |b| b[0] = 2).unwrap();
        t1.commit_versioned().unwrap();
        assert!(matches!(
            t2.commit_versioned(),
            Err(StoreError::WriteConflict { base: 1, latest: 2 })
        ));
    }

    #[test]
    fn snapshot_rejects_mutation() {
        let (_pool, store, pages) = setup(4);
        let s = store.pin(None).unwrap();
        assert!(s.with_page_mut(pages[0], |_| ()).is_err());
        assert!(s.allocate().is_err());
    }

    #[test]
    fn pins_are_counted_and_released() {
        let (_pool, store, _pages) = setup(4);
        assert_eq!(store.pinned_readers(), 0);
        let a = store.pin(None).unwrap();
        let b = a.clone();
        assert_eq!(store.pinned_readers(), 2);
        drop(a);
        assert_eq!(store.pinned_readers(), 1);
        drop(b);
        assert_eq!(store.pinned_readers(), 0);
    }

    #[test]
    fn dropped_versioned_txn_changes_nothing() {
        let (_pool, store, pages) = setup(4);
        {
            let txn = Txn::begin_versioned(&store).unwrap();
            txn.with_page_mut(pages[0], |b| b[0] = 222).unwrap();
        }
        assert_eq!(store.latest(), 1);
        assert_eq!(read(&store.pin(None).unwrap(), pages[0]), 10);
    }

    #[test]
    fn fresh_pages_write_in_place() {
        let (pool, store, _pages) = setup(4);
        let txn = Txn::begin_versioned(&store).unwrap();
        let p = txn.allocate().unwrap();
        txn.with_page_mut(p, |b| b[0] = 77).unwrap();
        txn.commit_versioned().unwrap();
        let snap = store.pin(None).unwrap();
        // Identity mapping: no table entry was spent on the fresh page.
        assert_eq!(snap.translate(p), p);
        assert_eq!(read(&snap, p), 77);
        assert_eq!(pool.with_page(p, |b| b[0]).unwrap(), 77);
    }
}
