//! Named on-disk collections behind a process-wide registry.
//!
//! A *collection* is one bulk-built MBRQT over a point set, persisted in
//! its own [`FileDisk`] file with a JSON sidecar recording how to reopen
//! it: index kind, metadata page and the MVCC manifest head. The pool a
//! collection opens with is the registry's (`ServerConfig::pool_frames`),
//! and the live point count is in the tree's own meta page. The registry maps [`CollectionId`]s to live
//! [`Collection`] handles, opening lazily on first use so a restarted
//! server picks up everything a previous run created.
//!
//! # Open serialization
//!
//! The registry is two locking levels: a global map of per-collection
//! *slots*, and a per-slot mutex guarding that collection's open state.
//! The global lock is held only to look up or insert a slot (never during
//! disk I/O), so opening one slow collection cannot stall requests for
//! others; the per-slot lock serializes concurrent first-touch opens of
//! the *same* name, so racing `get`s produce exactly one [`BufferPool`]
//! and every racer receives the same handle. (An earlier design held the
//! global lock across `load`, which was correct but made every lazy open
//! a registry-wide stall.)
//!
//! # Versioning
//!
//! Collections created by this registry are *versioned*: after the bulk
//! build the tree switches to MVCC snapshot mode
//! ([`ann_core::tree_file::TreeFile::enable_versioning`]), so queries pin
//! immutable snapshot versions through a [`VersionedHandle`] and never
//! block on (or observe a torn state from) concurrent
//! [`Collection::insert_points`] writers. A sidecar without
//! `versions_head` is rejected as an invalid collection, so every open
//! collection is versioned.
//!
//! Serving is fixed at `D = 2` ([`SERVE_DIMS`]) — the paper's primary
//! dimensionality. Higher-D serving would need either monomorphized
//! routes per D or a dynamic-D index, both out of scope here.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ann_core::index::SpatialIndex;
use ann_core::snapshot::{ReadContext, VersionedHandle};
use ann_core::tree_file::WritableIndex;
use ann_core::wire::{CollectionId, ErrorCode, JsonValue};
use ann_geom::Point;
use ann_mbrqt::{Mbrqt, MbrqtConfig};
use ann_store::sync::Mutex;
use ann_store::{BufferPool, FileDisk, PageId, StoreError, DEFAULT_KEEP};

/// The fixed dimensionality served over the wire.
pub const SERVE_DIMS: usize = 2;

/// Sidecar schema version (bumped independently of the query wire
/// schema; same rule — removals or meaning changes bump, additions of
/// optional fields do not). Every v1 sidecar this registry reads carries
/// `versions_head`. Earlier v1 sidecars also carry `points` and
/// `pool_frames`, which the reader never required and now ignores, so
/// dropping them kept the version at 1.
const SIDECAR_VERSION: u64 = 1;

/// A service-level error: the stable [`ErrorCode`] plus a human message.
/// The HTTP layer renders it with [`ErrorCode::http_status`] and
/// [`ErrorCode::error_json`].
#[derive(Debug, Clone)]
pub struct ApiError {
    /// Stable numeric code (see [`ErrorCode`]).
    pub code: ErrorCode,
    /// Human-readable detail, safe to echo to the client.
    pub message: String,
}

impl ApiError {
    /// Builds an error from its code and message.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        ApiError {
            code,
            message: message.into(),
        }
    }

    /// Maps a storage failure to its stable code.
    pub fn from_store(e: &StoreError) -> Self {
        ApiError::new(ErrorCode::from_store_error(e), e.to_string())
    }
}

/// Which index structure backs a collection: always the MBRQT. A served
/// collection grows by point inserts, and of the two trees only the
/// MBRQT takes them; the R\*-tree is built once, by STR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// MBR-quadtree ([`ann_mbrqt`]), the paper's primary structure.
    Mbrqt,
}

impl IndexKind {
    /// Wire name (`"mbrqt"`).
    pub fn as_str(self) -> &'static str {
        match self {
            IndexKind::Mbrqt => "mbrqt",
        }
    }

    /// Parses a wire name. `"rstar"` named a kind earlier builds served;
    /// it gets its own refusal, so a client or an old sidecar learns why.
    pub fn parse(s: &str) -> Result<Self, ApiError> {
        match s {
            "mbrqt" => Ok(IndexKind::Mbrqt),
            "rstar" => Err(ApiError::new(
                ErrorCode::BadRequest,
                "R*-tree collections are no longer served \
                 (the one accepted kind is \"mbrqt\")",
            )),
            other => Err(ApiError::new(
                ErrorCode::BadRequest,
                format!("unknown index kind {other:?} (the one accepted kind is \"mbrqt\")"),
            )),
        }
    }
}

/// One open collection: the index, its buffer pool, and its identity.
pub struct Collection {
    /// The registry name.
    pub id: CollectionId,
    /// The mutable tree, locked only by writers (mutations are
    /// serialized). Queries never touch it: they read pinned snapshots.
    writer: Mutex<Mbrqt<SERVE_DIMS>>,
    /// Lock-free snapshot factory: readers pin MVCC snapshots through it
    /// and never take the writer lock.
    pub(crate) handle: VersionedHandle<SERVE_DIMS>,
    /// The collection's private buffer pool (one pool per collection, so
    /// hot collections cannot evict each other's pages).
    pub pool: Arc<BufferPool>,
    /// The writer tree's point count, republished after every
    /// [`Collection::insert_points`] so reading it takes no lock.
    num_points: AtomicU64,
}

impl Collection {
    fn new(
        id: &CollectionId,
        index: Mbrqt<SERVE_DIMS>,
        pool: Arc<BufferPool>,
    ) -> Result<Arc<Collection>, ApiError> {
        let handle = index
            .versioned_handle()
            .ok_or_else(|| ApiError::new(ErrorCode::Internal, "versioning did not take"))?;
        // From the latest snapshot's meta page, which every insert commits
        // together with its point — not from a copy kept beside the tree.
        let num_points = handle
            .pin(None)
            .map_err(|e| ApiError::from_store(&e))?
            .num_points();
        Ok(Arc::new(Collection {
            id: id.clone(),
            writer: Mutex::new(index),
            handle,
            pool,
            num_points: AtomicU64::new(num_points),
        }))
    }

    /// Number of indexed points.
    pub fn num_points(&self) -> u64 {
        self.num_points.load(Ordering::Acquire)
    }

    /// The latest committed snapshot version. Always `Some`: every open
    /// collection is versioned (the `Option` is what the benchmark
    /// compiles against).
    pub fn latest_version(&self) -> Option<u32> {
        Some(self.handle.latest())
    }

    /// The MVCC snapshot factory. Always `Some`, for the same reason as
    /// [`latest_version`](Self::latest_version).
    pub fn versioned_handle(&self) -> Option<&VersionedHandle<SERVE_DIMS>> {
        Some(&self.handle)
    }

    /// Pins a query-ready snapshot of `version` (latest when `None`).
    /// Fails with `BadRequest` when the version has aged out of the
    /// history window.
    pub fn pin(&self, version: Option<u32>) -> Result<ReadContext<SERVE_DIMS>, ApiError> {
        self.handle
            .pin(version)
            .map_err(|e| ApiError::from_store(&e))
    }

    /// Appends `points` (oids continue from the current count) under the
    /// writer lock; concurrent queries keep reading their pinned
    /// snapshots throughout. Returns `(first_oid, latest_version)`.
    ///
    /// The MBRQT decomposes a fixed universe, the bulk build's bounding
    /// box. A batch with a point outside it is refused whole, as
    /// `BadRequest` naming the first such point, before anything commits.
    /// Each point of an accepted batch commits its own snapshot version,
    /// so a storage failure mid-batch leaves the inserted prefix committed
    /// and the count accurate.
    pub fn insert_points(&self, points: &[Point<SERVE_DIMS>]) -> Result<(u64, u32), ApiError> {
        let mut index = self.writer.lock();
        let universe = index.universe();
        if let Some(at) = points.iter().position(|p| !universe.contains_point(p)) {
            return Err(ApiError::new(
                ErrorCode::BadRequest,
                format!(
                    "point {at} {:?} lies outside the collection's universe {:?} to {:?}",
                    points[at].0, universe.lo, universe.hi
                ),
            ));
        }
        let first = index.num_points();
        let inserted = (first..)
            .zip(points)
            .try_for_each(|(oid, p)| index.insert(oid, *p));
        self.num_points.store(index.num_points(), Ordering::Release);
        inserted.map_err(|e| ApiError::from_store(&e))?;
        Ok((first, self.handle.latest()))
    }
}

/// One registry slot: the lazily opened state of a single collection
/// name. The slot-level mutex is what serializes racing first-touch
/// opens without blocking the whole registry.
struct Slot {
    state: Mutex<Option<Arc<Collection>>>,
}

/// The collection registry: a root directory plus the map of slots.
pub struct Registry {
    root: PathBuf,
    pool_frames: usize,
    open: Mutex<BTreeMap<String, Arc<Slot>>>,
}

impl Registry {
    /// Opens (creating if needed) a registry rooted at `root`. Existing
    /// collections are *not* opened eagerly; [`Registry::get`] loads them
    /// on first use.
    pub fn open(root: impl Into<PathBuf>, pool_frames: usize) -> std::io::Result<Self> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(Registry {
            root,
            pool_frames: pool_frames.max(16),
            open: Mutex::new(BTreeMap::new()),
        })
    }

    fn disk_path(&self, id: &CollectionId) -> PathBuf {
        self.root.join(format!("{id}.pages"))
    }

    fn meta_path(&self, id: &CollectionId) -> PathBuf {
        self.root.join(format!("{id}.meta.json"))
    }

    /// Writes `id`'s sidecar so that a crash leaves the previous sidecar
    /// (or none) or the complete new one, never a torn file: the bytes go
    /// to a temporary file beside it, are synced, and are renamed over
    /// the sidecar. A temporary left by an interrupted write does not end
    /// in `.meta.json`, so nothing reads it, and the next write truncates
    /// it.
    fn write_sidecar(
        &self,
        id: &CollectionId,
        index: &Mbrqt<SERVE_DIMS>,
        versions_head: PageId,
    ) -> Result<(), ApiError> {
        use std::io::Write;
        let kind = IndexKind::Mbrqt.as_str();
        let meta_page = index.meta_page();
        let sidecar = format!("{{\"v\":{SIDECAR_VERSION},\"kind\":\"{kind}\",\"meta_page\":{meta_page},\"versions_head\":{versions_head}}}\n");
        let tmp = self.root.join(format!("{id}.meta.json.tmp"));
        (|| {
            let mut file = std::fs::File::create(&tmp)?;
            file.write_all(sidecar.as_bytes())?;
            file.sync_all()?;
            std::fs::rename(&tmp, self.meta_path(id))
        })()
        .map_err(|e| ApiError::new(ErrorCode::StorageFailed, format!("writing sidecar: {e}")))
    }

    /// The slot for `id`, inserting an empty one if absent. The global
    /// map lock is held only for this lookup — never across disk I/O.
    fn slot(&self, id: &CollectionId) -> Arc<Slot> {
        let mut open = self.open.lock();
        Arc::clone(open.entry(id.as_str().to_string()).or_insert_with(|| {
            Arc::new(Slot {
                state: Mutex::new(None),
            })
        }))
    }

    /// Removes `id`'s slot if it is still empty (a failed open or create
    /// left it behind). `try_lock` keeps the map→slot lock order: a slot
    /// busy with another opener is simply left alone.
    fn gc_empty_slot(&self, id: &CollectionId) {
        let mut open = self.open.lock();
        let empty = open.get(id.as_str()).is_some_and(|slot| {
            slot.state
                .try_lock()
                .map(|state| state.is_none())
                .unwrap_or(false)
        });
        if empty {
            open.remove(id.as_str());
        }
    }

    /// Creates and bulk-builds a new collection over `points` (oids are
    /// the input positions), versioned from birth. Fails with
    /// `CollectionExists` if the name is taken, either live or on disk.
    /// Only this name's slot is locked during the build; other
    /// collections stay fully available. `kind` has one value; the
    /// parameter stays while the benchmark passes it.
    pub fn create(
        &self,
        id: &CollectionId,
        kind: IndexKind,
        points: &[Point<SERVE_DIMS>],
    ) -> Result<Arc<Collection>, ApiError> {
        let IndexKind::Mbrqt = kind;
        if points.is_empty() {
            return Err(ApiError::new(
                ErrorCode::BadRequest,
                "a collection needs at least one point",
            ));
        }
        let slot = self.slot(id);
        let mut state = slot.state.lock();
        if state.is_some() || self.meta_path(id).exists() {
            drop(state);
            self.gc_empty_slot(id);
            return Err(ApiError::new(
                ErrorCode::CollectionExists,
                format!("collection {id:?} already exists"),
            ));
        }
        let result = self.build(id, points);
        match result {
            Ok(coll) => {
                *state = Some(Arc::clone(&coll));
                Ok(coll)
            }
            Err(e) => {
                // Remove the partial file so the name is reusable.
                let _ = std::fs::remove_file(self.disk_path(id));
                drop(state);
                self.gc_empty_slot(id);
                Err(e)
            }
        }
    }

    /// The fallible middle of [`Registry::create`]: bulk build, switch the
    /// tree to snapshot mode, flush, and record the manifest head in the
    /// sidecar.
    fn build(
        &self,
        id: &CollectionId,
        points: &[Point<SERVE_DIMS>],
    ) -> Result<Arc<Collection>, ApiError> {
        let keyed: Vec<(u64, Point<SERVE_DIMS>)> = points
            .iter()
            .enumerate()
            .map(|(i, p)| (i as u64, *p))
            .collect();
        let disk = FileDisk::create(self.disk_path(id)).map_err(|e| ApiError::from_store(&e))?;
        let pool = Arc::new(BufferPool::new(disk, self.pool_frames));
        let mut index = Mbrqt::bulk_build(Arc::clone(&pool), &keyed, &MbrqtConfig::default())
            .map_err(|e| ApiError::from_store(&e))?;
        let head = index
            .enable_versioning(DEFAULT_KEEP)
            .and_then(|head| pool.flush_all().map(|()| head))
            .map_err(|e| ApiError::from_store(&e))?;
        self.write_sidecar(id, &index, head)?;
        Collection::new(id, index, pool)
    }

    /// Returns the live handle for `id`, opening it from disk on first
    /// use. `CollectionNotFound` if it exists neither live nor on disk.
    ///
    /// Concurrent first-touch `get`s of the same name serialize on the
    /// slot lock: exactly one performs the open, the rest receive clones
    /// of the same [`Collection`] (one pool per collection, ever).
    pub fn get(&self, id: &CollectionId) -> Result<Arc<Collection>, ApiError> {
        let slot = self.slot(id);
        let mut state = slot.state.lock();
        if let Some(coll) = state.as_ref() {
            return Ok(Arc::clone(coll));
        }
        match self.load(id) {
            Ok(coll) => {
                *state = Some(Arc::clone(&coll));
                Ok(coll)
            }
            Err(e) => {
                drop(state);
                self.gc_empty_slot(id);
                Err(e)
            }
        }
    }

    /// Opens a collection from its on-disk file + sidecar.
    fn load(&self, id: &CollectionId) -> Result<Arc<Collection>, ApiError> {
        let meta_path = self.meta_path(id);
        let raw = std::fs::read_to_string(&meta_path).map_err(|_| {
            ApiError::new(
                ErrorCode::CollectionNotFound,
                format!("no collection named {id:?}"),
            )
        })?;
        let invalid = |what: &str| {
            ApiError::new(
                ErrorCode::InvalidCollection,
                format!("sidecar {}: {what}", meta_path.display()),
            )
        };
        let doc = JsonValue::parse(&raw).map_err(|e| invalid(&e.to_string()))?;
        let v = doc
            .get("v")
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| invalid("missing version"))?;
        if v > SIDECAR_VERSION {
            return Err(invalid(&format!("unsupported sidecar version {v}")));
        }
        IndexKind::parse(
            doc.get("kind")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| invalid("missing kind"))?,
        )
        .map_err(|e| invalid(&e.message))?;
        let meta_page = doc
            .get("meta_page")
            .and_then(JsonValue::as_u64)
            .and_then(|p| u32::try_from(p).ok())
            .ok_or_else(|| invalid("missing or out-of-range meta_page"))?;
        let versions_head = doc
            .get("versions_head")
            .and_then(JsonValue::as_u64)
            .and_then(|p| u32::try_from(p).ok())
            .ok_or_else(|| invalid("missing or out-of-range versions_head"))?;
        let disk = FileDisk::open(self.disk_path(id)).map_err(|e| ApiError::from_store(&e))?;
        let pool = Arc::new(BufferPool::new(disk, self.pool_frames));
        let index = Mbrqt::open_at(Arc::clone(&pool), meta_page, Some(versions_head))
            .map_err(|e| ApiError::from_store(&e))?;
        Collection::new(id, index, pool)
    }

    /// Drops a collection: unregisters the live handle and deletes its
    /// files. In-flight queries holding the `Arc` finish normally — on
    /// Unix the unlinked file stays readable until the last handle drops.
    pub fn drop_collection(&self, id: &CollectionId) -> Result<(), ApiError> {
        let removed = self.open.lock().remove(id.as_str());
        let was_open = removed.is_some_and(|slot| slot.state.lock().take().is_some());
        let meta = self.meta_path(id);
        let on_disk = meta.exists();
        if !was_open && !on_disk {
            return Err(ApiError::new(
                ErrorCode::CollectionNotFound,
                format!("no collection named {id:?}"),
            ));
        }
        let _ = std::fs::remove_file(meta);
        let _ = std::fs::remove_file(self.disk_path(id));
        Ok(())
    }

    /// All collection names, live or on disk, sorted. A sidecar whose stem
    /// is not a valid [`CollectionId`] names nothing [`get`](Self::get)
    /// can reach, so it is left out.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = {
            let open = self.open.lock();
            open.iter()
                .filter(|(_, slot)| {
                    // A busy slot is mid-open of a collection that exists
                    // on disk anyway; count unlockable empties out.
                    slot.state
                        .try_lock()
                        .map(|state| state.is_some())
                        .unwrap_or(true)
                })
                .map(|(name, _)| name.clone())
                .collect()
        };
        if let Ok(entries) = std::fs::read_dir(&self.root) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let stem = name.strip_suffix(".meta.json");
                if let Some(stem) = stem.filter(|s| CollectionId::new(s).is_ok()) {
                    if !names.iter().any(|n| n == stem) {
                        names.push(stem.to_string());
                    }
                }
            }
        }
        names.sort();
        names
    }

    /// Number of currently open (live) collections.
    pub fn open_count(&self) -> usize {
        self.open
            .lock()
            .values()
            .filter(|slot| {
                slot.state
                    .try_lock()
                    .map(|state| state.is_some())
                    // A busy slot is being opened right now; count it.
                    .unwrap_or(true)
            })
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sidecar write interrupted before its rename leaves only the
    /// temporary file: the collection does not exist, and the next write
    /// of that sidecar replaces the leftover.
    #[test]
    fn leftover_sidecar_temp_is_ignored_and_overwritten() {
        let root = std::env::temp_dir().join(format!("ann-registry-tmp-{}", std::process::id()));
        let registry = Registry::open(&root, 16).unwrap();
        let id = CollectionId::new("c").unwrap();
        let tmp = root.join("c.meta.json.tmp");
        std::fs::write(&tmp, "{\"v\":1,\"kind\":\"mb").unwrap();

        assert!(registry.list().is_empty());
        let missing = registry.get(&id).err().map(|e| e.code);
        assert_eq!(missing, Some(ErrorCode::CollectionNotFound));

        let points = [Point([0.0, 0.0]), Point([1.0, 1.0])];
        registry.create(&id, IndexKind::Mbrqt, &points).unwrap();
        assert!(!tmp.exists());
        assert_eq!(registry.list(), ["c"]);
        std::fs::remove_dir_all(&root).ok();
    }
}
