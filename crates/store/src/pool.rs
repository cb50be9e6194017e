//! The buffer pool: a fixed budget of in-memory page frames managed with
//! exact LRU replacement, lock-striped into shards for concurrent readers.
//!
//! Every page access made by the indices and join algorithms goes through
//! [`BufferPool::with_page`] / [`BufferPool::with_page_mut`]; the pool
//! charges a logical read per access and a physical read per miss. The
//! default experimental configuration is the paper's: 64 frames × 8 KiB =
//! 512 KiB (§4.1). [`BufferPool::set_capacity`] changes the budget at run
//! time, which is how the Figure 3(b) buffer-size sweep is driven.
//!
//! # Sharding
//!
//! The paper runs single-threaded against SHORE's one buffer pool; our
//! parallel-join extension fans the traversal across cores, and a single
//! pool mutex serializes every page touch. The pool is therefore striped
//! into [`DEFAULT_SHARDS`] sub-pools (see [`BufferPool::with_shards`]),
//! each an exact-LRU pool over the pages with `page % shards == i`, each
//! behind its own lock with its own counters. Aggregate behavior remains
//! exact LRU *per stripe*; with striping by page id the hot set spreads
//! uniformly, so the global miss count matches a single LRU closely (and
//! exactly, in the common benchmark case of a pool sized to its working
//! set). Construct with one shard to recover the paper's single exact LRU.
//!
//! Physical reads happen *outside* the shard lock: a missing page reserves
//! a pinned frame, releases the lock, performs the disk read + CRC check
//! into a private buffer, and re-locks to publish the frame. Concurrent
//! requests for a page being loaded wait (yielding) for the loader;
//! concurrent requests for other pages of the same shard proceed, evicting
//! around the pinned frame. When every frame of a shard is pinned by
//! in-flight loads the shard temporarily over-provisions rather than
//! deadlock, and returns to budget as subsequent accesses evict.
//!
//! The pool is also the integrity boundary: frames are sealed with a CRC32
//! trailer ([`crate::checksum`]) on every physical write and verified on
//! every physical read, so a torn or bit-rotted frame surfaces as
//! [`StoreError::Corrupt`] naming the page instead of reaching a codec.
//! Transient backend failures are retried under a [`RetryPolicy`]; both
//! retries and checksum failures are counted in [`crate::IoStats`].

use crate::checksum::{seal_frame, verify_frame};
use crate::lru::LruList;
use crate::sync::{unpoisoned, Mutex, MutexGuard};
use crate::{DiskBackend, IoSnapshot, IoStats, PageId, Result, StoreError, FRAME_SIZE, PAGE_SIZE};
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar};
use std::time::Duration;

/// Default number of lock stripes.
///
/// A fixed constant (clamped to the frame budget) rather than a
/// core-count-derived value, so page→shard placement — and with it every
/// deterministic eviction/fault-injection schedule — is identical on every
/// machine.
pub const DEFAULT_SHARDS: usize = 8;

/// The `what` string of the [`StoreError::Corrupt`] returned when an
/// access is rejected because its page sits in the quarantine set, so
/// callers can tell a fast-failed quarantined touch apart from a fresh
/// checksum failure.
pub const QUARANTINED: &str = "page is quarantined";

/// How the pool reacts to transient physical-I/O failures (injected
/// transient faults, interrupted/timed-out OS calls).
///
/// Each failed attempt is retried up to `max_attempts` total attempts,
/// sleeping `backoff × attempt` between tries (linear backoff; the default
/// is no sleep, which keeps fault-sweep tests fast). Permanent errors —
/// out-of-bounds, corruption, injected permanent faults — are never
/// retried.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per operation (minimum 1).
    pub max_attempts: u32,
    /// Base sleep between attempts.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
        }
    }
}

/// Uniform page-access interface over the buffer pool and the structures
/// that wrap it (shared handles, [`crate::Txn`] side-buffers).
///
/// The node codecs and index write paths are generic over this trait, so
/// the same code serves direct pool access and buffered transactional
/// access.
pub trait PageStore {
    /// Reads page `id` and passes its [`PAGE_SIZE`] bytes to `f`.
    fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R>;

    /// Reads page `id`, passes its bytes mutably to `f`, and records the
    /// modification (dirty frame or transaction write-set entry).
    fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R>;

    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&self) -> Result<PageId>;
}

struct Frame {
    page: PageId,
    data: Box<[u8]>,
    dirty: bool,
    /// Pin count: a pinned frame is never an eviction candidate (it is
    /// kept out of the LRU list). Today the only pinner is the miss path,
    /// which holds one pin across its out-of-lock physical read.
    pins: u32,
    /// `false` while the owning thread is still reading the page from
    /// disk; other threads requesting the same page wait for this flag.
    loaded: bool,
    /// Set while the frame holds a page the prefetcher loaded that no
    /// demand access has claimed yet. The first demand touch clears it (a
    /// prefetch hit); eviction while still set is a wasted prefetch.
    prefetched: bool,
}

impl Frame {
    fn empty() -> Self {
        Frame {
            page: crate::INVALID_PAGE,
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            dirty: false,
            pins: 0,
            loaded: false,
            prefetched: false,
        }
    }
}

/// Tuning knobs for the pool's readahead (see [`BufferPool::prefetch`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrefetchConfig {
    /// Ceiling on prefetched-but-not-yet-demanded resident frames. While
    /// at the ceiling, new hints wait in the readahead queue. Keep this
    /// well below the pool capacity: every in-flight frame is one frame
    /// the demand working set cannot use.
    pub max_inflight: usize,
    /// Upper bound on pages per physical `read_batch` transfer.
    pub batch: usize,
}

impl Default for PrefetchConfig {
    fn default() -> Self {
        PrefetchConfig {
            max_inflight: 16,
            batch: 8,
        }
    }
}

/// A queued readahead hint. Ordered by descending priority, then FIFO —
/// the traversal assigns higher priorities to deeper pages, which the
/// best-first heaps consume soonest.
#[derive(PartialEq, Eq)]
struct Hint {
    priority: u32,
    seq: u64,
    page: PageId,
}

impl Ord for Hint {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: larger priority wins; among equals, smaller seq
        // (earlier submission) wins.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Hint {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Handshake between the pool and its pipelined readahead worker (see
/// [`BufferPool::enable_prefetch_pipelined`]).
struct PrefetchSignal {
    state: Mutex<PrefetchWorkerState>,
    cond: Condvar,
}

#[derive(Default)]
struct PrefetchWorkerState {
    /// Bumped on every wake-worthy event: new hints, a claimed / wasted /
    /// rewritten speculative frame freeing in-flight budget, shutdown.
    wakeups: u64,
    /// The `wakeups` value the worker has fully pumped against; quiescing
    /// waits for `idle && acked == wakeups`.
    acked: u64,
    /// Worker parked between passes.
    idle: bool,
    shutdown: bool,
}

impl PrefetchSignal {
    fn new() -> Self {
        PrefetchSignal {
            state: Mutex::new(PrefetchWorkerState::default()),
            cond: Condvar::new(),
        }
    }
}

struct ShardInner {
    frames: Vec<Frame>,
    map: HashMap<PageId, u32>,
    lru: LruList,
    free: Vec<u32>,
    capacity: usize,
    /// Staging buffer for physical writes: payload + checksum trailer.
    scratch: Box<[u8]>,
}

struct Shard {
    inner: Mutex<ShardInner>,
    stats: IoStats,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        Shard {
            inner: Mutex::new(ShardInner {
                frames: Vec::new(),
                map: HashMap::new(),
                lru: LruList::new(capacity),
                free: Vec::new(),
                capacity,
                scratch: vec![0u8; FRAME_SIZE].into_boxed_slice(),
            }),
            stats: IoStats::new(),
        }
    }

    /// Locks the shard, counting the acquisition as contended when the
    /// lock was already held.
    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        match self.inner.try_lock() {
            Some(guard) => guard,
            None => {
                self.stats.record_lock_contention();
                self.inner.lock()
            }
        }
    }
}

/// Splits `total` frames across `shards` stripes as evenly as possible,
/// giving every stripe at least one frame.
fn shard_capacities(total: usize, shards: usize) -> Vec<usize> {
    let base = total / shards;
    let rem = total % shards;
    (0..shards)
        .map(|i| (base + usize::from(i < rem)).max(1))
        .collect()
}

/// An LRU buffer pool over a [`DiskBackend`], lock-striped into shards.
///
/// The pool is internally synchronized and meant to be shared (e.g. in an
/// `Arc`) between the indices of both join inputs, so that — exactly as in
/// the paper's setup — the two trees compete for the same 512 KiB of
/// memory.
///
/// # Re-entrancy
///
/// The closures passed to [`with_page`](Self::with_page) and
/// [`with_page_mut`](Self::with_page_mut) run while a shard lock is held
/// and must not call back into the same pool; decode what you need and
/// return. In debug builds a re-entrant call panics with a diagnostic
/// instead of deadlocking on the shard lock.
pub struct BufferPool {
    disk: Box<dyn DiskBackend>,
    shards: Box<[Shard]>,
    /// Requested total frame budget (the per-shard budgets derive from it).
    capacity: AtomicUsize,
    /// Pool-level counters not attributable to one shard (allocation
    /// retries); folded into [`stats`](Self::stats) with the shard counters.
    stats: IoStats,
    retry: Mutex<RetryPolicy>,
    /// Pages whose frames failed CRC verification: further touches fail
    /// fast with [`StoreError::Corrupt`] (`what == `[`QUARANTINED`])
    /// instead of re-reading known-bad media. `overwrite_page` heals —
    /// a full-frame rewrite (the journal-recovery path) lifts the
    /// quarantine.
    quarantine: Mutex<HashSet<PageId>>,
    /// Fast-path flag: `false` means the set is empty and reads skip the
    /// quarantine lock entirely, keeping the fault-free path at one
    /// relaxed load.
    quarantine_nonempty: AtomicBool,
    /// Readahead enable flag; `false` (the default) makes
    /// [`prefetch`](Self::prefetch) a no-op costing one relaxed load.
    prefetch_on: AtomicBool,
    prefetch_cfg: Mutex<PrefetchConfig>,
    /// Pending readahead hints, highest priority first.
    prefetch_queue: Mutex<BinaryHeap<Hint>>,
    /// Submission counter: FIFO tie-break among equal-priority hints.
    prefetch_seq: AtomicU64,
    /// Resident prefetched frames not yet claimed by a demand access;
    /// bounded by [`PrefetchConfig::max_inflight`].
    prefetch_inflight: AtomicUsize,
    /// Wake/park handshake with the pipelined readahead worker.
    prefetch_signal: Arc<PrefetchSignal>,
    /// `true` once [`enable_prefetch_pipelined`] has spawned the worker;
    /// routes hints (and budget-freed notifications) to it instead of the
    /// inline pump.
    ///
    /// [`enable_prefetch_pipelined`]: BufferPool::enable_prefetch_pipelined
    prefetch_bg: AtomicBool,
}

impl BufferPool {
    /// Creates a pool with `capacity` frames over `disk`, striped into
    /// [`DEFAULT_SHARDS`] shards (fewer when `capacity` is smaller).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(disk: impl DiskBackend, capacity: usize) -> Self {
        let shards = DEFAULT_SHARDS.min(capacity.max(1));
        Self::with_shards(disk, capacity, shards)
    }

    /// Creates a pool with `capacity` frames striped into exactly `shards`
    /// lock stripes (clamped to `capacity`, so every stripe owns at least
    /// one frame). One shard reproduces the paper's single exact-LRU pool.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `shards` is zero.
    pub fn with_shards(disk: impl DiskBackend, capacity: usize, shards: usize) -> Self {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        assert!(shards > 0, "buffer pool needs at least one shard");
        let shards = shards.min(capacity);
        let caps = shard_capacities(capacity, shards);
        BufferPool {
            disk: Box::new(disk),
            shards: caps.into_iter().map(Shard::new).collect(),
            capacity: AtomicUsize::new(capacity),
            stats: IoStats::new(),
            retry: Mutex::new(RetryPolicy::default()),
            quarantine: Mutex::new(HashSet::new()),
            quarantine_nonempty: AtomicBool::new(false),
            prefetch_on: AtomicBool::new(false),
            prefetch_cfg: Mutex::new(PrefetchConfig::default()),
            prefetch_queue: Mutex::new(BinaryHeap::new()),
            prefetch_seq: AtomicU64::new(0),
            prefetch_inflight: AtomicUsize::new(0),
            prefetch_signal: Arc::new(PrefetchSignal::new()),
            prefetch_bg: AtomicBool::new(false),
        }
    }

    /// Current requested capacity in frames.
    ///
    /// With more shards than frames-per-shard rounding allows, the
    /// *enforced* budget is `max(capacity, num_shards)` — every shard keeps
    /// at least one frame.
    pub fn capacity(&self) -> usize {
        self.capacity.load(Ordering::Relaxed)
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, id: PageId) -> &Shard {
        &self.shards[id as usize % self.shards.len()]
    }

    /// Whether readahead is enabled (see [`prefetch`](Self::prefetch)).
    pub fn prefetch_enabled(&self) -> bool {
        self.prefetch_on.load(Ordering::Relaxed)
    }

    /// Enables readahead with the given tuning. The pump runs *inline*:
    /// each [`prefetch`](Self::prefetch) call drains the queue on the
    /// calling thread, which keeps the physical-read schedule a pure
    /// function of the logical op sequence (the checker's fault classes
    /// rely on this). For readahead that overlaps I/O with compute, see
    /// [`enable_prefetch_pipelined`](Self::enable_prefetch_pipelined).
    ///
    /// # Panics
    ///
    /// Panics if `max_inflight` or `batch` is zero.
    pub fn enable_prefetch(&self, cfg: PrefetchConfig) {
        assert!(cfg.max_inflight > 0, "prefetch needs an in-flight budget");
        assert!(cfg.batch > 0, "prefetch needs a batch size");
        *self.prefetch_cfg.lock() = cfg;
        self.prefetch_on.store(true, Ordering::Relaxed);
    }

    /// Enables *pipelined* readahead: a dedicated worker thread drains the
    /// hint queue through the same reserve / batch-read / publish pump as
    /// the inline mode, so speculative disk reads overlap with the query
    /// thread's compute instead of serializing in front of it. The worker
    /// parks when the queue is dry, the in-flight ceiling is reached, or
    /// every queued hint is stalled behind an unclaimed frame, and wakes
    /// when new hints arrive or a claim/eviction frees budget.
    ///
    /// Everything observable to a query is unchanged from the inline mode:
    /// results, logical reads, and hit/claim accounting are identical —
    /// only the *wall-clock placement* of physical reads moves (and with
    /// it, run-to-run physical read counts may vary, since the worker
    /// races demand misses for cold pages). A demand access that lands on
    /// a page mid-prefetch waits for the in-flight read instead of issuing
    /// its own — that wait is the pipeline's win: part of a batched seek
    /// instead of a dedicated one.
    ///
    /// The worker lives until the pool drops; [`disable_prefetch`]
    /// (Self::disable_prefetch) parks it after finishing the in-flight
    /// batch. Requires the pool behind `Arc` so the worker can hold a
    /// `Weak` handle.
    ///
    /// # Panics
    ///
    /// Panics if `max_inflight` or `batch` is zero.
    pub fn enable_prefetch_pipelined(self: &Arc<Self>, cfg: PrefetchConfig) {
        assert!(cfg.max_inflight > 0, "prefetch needs an in-flight budget");
        assert!(cfg.batch > 0, "prefetch needs a batch size");
        *self.prefetch_cfg.lock() = cfg;
        self.spawn_prefetch_worker();
        self.prefetch_on.store(true, Ordering::Relaxed);
    }

    /// Disables readahead, drops every queued hint, and — in pipelined
    /// mode — waits for the worker to finish its in-flight batch and park,
    /// so the caller can safely resize or clear the pool and read stable
    /// counters afterwards. Frames already prefetched stay resident and
    /// are claimed or evicted normally.
    pub fn disable_prefetch(&self) {
        self.prefetch_on.store(false, Ordering::Relaxed);
        self.prefetch_queue.lock().clear();
        self.prefetch_quiesce();
    }

    /// Blocks until the pipelined readahead worker (if any) has consumed
    /// every wakeup and parked: afterwards no speculative read is in
    /// flight and the prefetch counters are stable. Queued hints that are
    /// stalled behind unclaimed frames remain queued. A no-op in inline
    /// mode.
    pub fn prefetch_quiesce(&self) {
        if !self.prefetch_bg.load(Ordering::Relaxed) {
            return;
        }
        let sig = &self.prefetch_signal;
        let mut st = sig.state.lock();
        while !(st.idle && st.acked == st.wakeups) {
            st = unpoisoned(sig.cond.wait(st));
        }
    }

    /// Wakes the pipelined worker (new hints, or in-flight budget freed by
    /// a claim / waste / rewrite). One relaxed load when no worker exists.
    fn notify_prefetch_worker(&self) {
        if !self.prefetch_bg.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.prefetch_signal.state.lock();
        st.wakeups += 1;
        self.prefetch_signal.cond.notify_all();
    }

    /// Spawns the single readahead worker (idempotent). The worker holds
    /// only a `Weak` pool handle while parked, so dropping the last
    /// external `Arc` still drops the pool: [`Drop`] flags shutdown and
    /// the worker exits without touching the freed pool. Mid-pass the
    /// worker holds a strong handle, which simply defers the drop until
    /// the batch completes.
    fn spawn_prefetch_worker(self: &Arc<Self>) {
        if self.prefetch_bg.swap(true, Ordering::SeqCst) {
            return;
        }
        let weak = Arc::downgrade(self);
        let sig = Arc::clone(&self.prefetch_signal);
        std::thread::Builder::new()
            .name("ann-prefetch".into())
            .spawn(move || {
                let mut seen = 0u64;
                loop {
                    {
                        let mut st = sig.state.lock();
                        loop {
                            if st.shutdown {
                                st.idle = true;
                                sig.cond.notify_all();
                                return;
                            }
                            if st.wakeups != seen {
                                seen = st.wakeups;
                                break;
                            }
                            st.idle = true;
                            sig.cond.notify_all();
                            st = unpoisoned(sig.cond.wait(st));
                        }
                        st.idle = false;
                    }
                    let Some(pool) = weak.upgrade() else { return };
                    if pool.prefetch_enabled() {
                        let cfg = *pool.prefetch_cfg.lock();
                        pool.pump_prefetch(&cfg);
                    }
                    drop(pool);
                    let mut st = sig.state.lock();
                    st.acked = st.acked.max(seen);
                    sig.cond.notify_all();
                }
            })
            .expect("spawn readahead worker");
    }

    /// Submits readahead hints — `(page, priority)` pairs naming pages a
    /// traversal has decided to visit soon — and pumps the queue.
    ///
    /// Higher `priority` loads first; among equal priorities, submission
    /// order wins. Under [`enable_prefetch`](Self::enable_prefetch) the
    /// pump runs **inline on the calling thread**; under
    /// [`enable_prefetch_pipelined`](Self::enable_prefetch_pipelined) this
    /// call only enqueues and wakes the worker, which runs the same pump
    /// concurrently. Either way the pump reserves frames exactly like the
    /// demand miss path (so the single-fault guarantee and waiter protocol
    /// are unchanged), reads up to [`PrefetchConfig::batch`] pages per
    /// [`DiskBackend::read_batch`] call with the ids sorted ascending (so
    /// sequential leaf runs coalesce into large transfers), and publishes
    /// the frames *unpinned* at the cold end of their shard's LRU list.
    /// Readahead never changes logical-read counts: it only moves physical
    /// reads earlier. Hints for resident, quarantined, or out-of-bounds
    /// pages are dropped; read failures release the reserved frames
    /// silently, leaving the error for the demand access (which retries
    /// under the [`RetryPolicy`]).
    ///
    /// The pump is self-limiting: a hint whose frame reservation would
    /// evict a prefetched frame no demand access has claimed yet is
    /// *deferred* back to the queue rather than churning the readahead
    /// window, so speculative frames die only to demand pressure (the
    /// scan-resistance path) — never to more speculation.
    ///
    /// A no-op (one relaxed load) unless enabled with
    /// [`enable_prefetch`](Self::enable_prefetch). Calling with an empty
    /// slice just pumps previously queued hints.
    pub fn prefetch(&self, hints: &[(PageId, u32)]) {
        if !self.prefetch_enabled() {
            return;
        }
        self.assert_not_reentrant();
        let cfg = *self.prefetch_cfg.lock();
        if !hints.is_empty() {
            let mut queue = self.prefetch_queue.lock();
            // Bound the backlog: hints are advisory, so once the queue is
            // deep enough to keep the pump busy, later ones are dropped.
            let backlog = cfg.max_inflight.saturating_mul(8).max(cfg.batch);
            for &(page, priority) in hints {
                if queue.len() >= backlog {
                    break;
                }
                queue.push(Hint {
                    priority,
                    seq: self.prefetch_seq.fetch_add(1, Ordering::Relaxed),
                    page,
                });
            }
        }
        if self.prefetch_bg.load(Ordering::Relaxed) {
            self.notify_prefetch_worker();
        } else {
            self.pump_prefetch(&cfg);
        }
    }

    /// Prefetched frames currently resident and unclaimed.
    pub fn prefetch_inflight(&self) -> usize {
        self.prefetch_inflight.load(Ordering::Relaxed)
    }

    /// Drains the hint queue into frames: reserve, batch-read, publish.
    /// Stops when the queue is dry, the in-flight ceiling is reached, or
    /// a read fails.
    fn pump_prefetch(&self, cfg: &PrefetchConfig) {
        let num_pages = self.disk.num_pages();
        loop {
            let inflight = self.prefetch_inflight.load(Ordering::Relaxed);
            let budget = cfg.max_inflight.saturating_sub(inflight).min(cfg.batch);
            if budget == 0 {
                return;
            }
            // Reserve a pinned, not-yet-loaded frame per queued page, the
            // same protocol as the demand miss path (waiters yield on the
            // `loaded` flag).
            let mut reserved: Vec<(PageId, u32)> = Vec::with_capacity(budget);
            let mut deferred: Vec<Hint> = Vec::new();
            while reserved.len() < budget {
                let Some(hint) = self.prefetch_queue.lock().pop() else {
                    break;
                };
                let id = hint.page;
                if id >= num_pages || self.is_quarantined(id) {
                    continue;
                }
                let shard = self.shard_of(id);
                let mut inner = shard.lock();
                if inner.map.contains_key(&id) {
                    continue; // resident or already loading
                }
                // Never cannibalize the readahead window: when making room
                // would evict a prefetched frame no demand access has
                // claimed yet, defer the hint until a claim or a demand
                // miss frees the cold end. Without this, a deep hint
                // stream churns the window — each reservation evicts (and
                // wastes) the oldest speculative frame to load the next.
                if inner.map.len() >= inner.capacity
                    && inner
                        .lru
                        .peek_lru()
                        .is_some_and(|v| inner.frames[v as usize].prefetched)
                {
                    drop(inner);
                    deferred.push(hint);
                    continue;
                }
                let Ok(fi) = self.acquire_frame(shard, &mut inner) else {
                    continue; // eviction write failed; drop the hint
                };
                {
                    let fr = &mut inner.frames[fi as usize];
                    fr.page = id;
                    fr.dirty = false;
                    fr.loaded = false;
                    fr.prefetched = false;
                    fr.pins = 1;
                }
                inner.map.insert(id, fi);
                drop(inner);
                reserved.push((id, fi));
            }
            if !deferred.is_empty() {
                // Back into the queue with their original sequence numbers:
                // deferral is a stall, not a reorder.
                let mut queue = self.prefetch_queue.lock();
                for hint in deferred {
                    queue.push(hint);
                }
            }
            if reserved.is_empty() {
                return;
            }
            // Ascending page order maximizes run coalescing in read_batch.
            reserved.sort_unstable_by_key(|&(id, _)| id);
            let ids: Vec<PageId> = reserved.iter().map(|&(id, _)| id).collect();
            let mut buf = vec![0u8; reserved.len() * FRAME_SIZE];
            if self.disk.read_batch(&ids, &mut buf).is_err() {
                // Advisory read: hand every frame back and let the demand
                // access surface the failure (with retries).
                for &(id, fi) in &reserved {
                    self.release_reserved(id, fi);
                }
                return;
            }
            for (i, &(id, fi)) in reserved.iter().enumerate() {
                let frame = &buf[i * FRAME_SIZE..(i + 1) * FRAME_SIZE];
                let shard = self.shard_of(id);
                if verify_frame(frame).is_err() {
                    shard.stats.record_checksum_failure();
                    if self.quarantine.lock().insert(id) {
                        shard.stats.record_quarantined_page();
                        self.quarantine_nonempty.store(true, Ordering::Release);
                    }
                    self.release_reserved(id, fi);
                    continue;
                }
                let mut inner = shard.lock();
                let fr = &mut inner.frames[fi as usize];
                debug_assert_eq!(fr.page, id, "pinned frame was stolen");
                shard.stats.record_physical_read();
                shard.stats.record_prefetch_issued();
                fr.data.copy_from_slice(&frame[..PAGE_SIZE]);
                fr.loaded = true;
                fr.prefetched = true;
                fr.pins -= 1;
                if fr.pins == 0 {
                    inner.lru.push_cold(fi);
                }
                self.prefetch_inflight.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Hands back a frame the prefetcher reserved but could not fill.
    fn release_reserved(&self, id: PageId, fi: u32) {
        let shard = self.shard_of(id);
        let mut inner = shard.lock();
        let fr = &mut inner.frames[fi as usize];
        debug_assert_eq!(fr.page, id, "pinned frame was stolen");
        fr.page = crate::INVALID_PAGE;
        fr.pins = 0;
        fr.loaded = false;
        inner.map.remove(&id);
        inner.free.push(fi);
    }

    /// Current transient-fault retry policy.
    pub fn retry_policy(&self) -> RetryPolicy {
        *self.retry.lock()
    }

    /// Replaces the transient-fault retry policy.
    pub fn set_retry_policy(&self, policy: RetryPolicy) {
        *self.retry.lock() = policy;
    }

    /// Adds `id` to the quarantine set: until healed (see
    /// [`overwrite_page`](Self::overwrite_page)) or
    /// [`clear_quarantine`](Self::clear_quarantine)d, every read of the
    /// page fails fast with [`StoreError::Corrupt`] whose `what` is
    /// [`QUARANTINED`]. The pool quarantines automatically when a frame
    /// fails CRC verification; this entry point lets higher layers
    /// quarantine pages whose *decoded* contents proved corrupt.
    pub fn quarantine(&self, id: PageId) {
        if self.quarantine.lock().insert(id) {
            self.stats.record_quarantined_page();
            self.quarantine_nonempty.store(true, Ordering::Release);
        }
    }

    /// Whether `id` is currently quarantined.
    pub fn is_quarantined(&self, id: PageId) -> bool {
        self.quarantine_nonempty.load(Ordering::Acquire) && self.quarantine.lock().contains(&id)
    }

    /// The currently quarantined pages, in ascending order.
    pub fn quarantined_pages(&self) -> Vec<PageId> {
        let mut ids: Vec<PageId> = self.quarantine.lock().iter().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Empties the quarantine set (e.g. after the media was repaired out
    /// of band). The `quarantined_pages` counter keeps its history.
    pub fn clear_quarantine(&self) {
        let mut set = self.quarantine.lock();
        set.clear();
        self.quarantine_nonempty.store(false, Ordering::Release);
    }

    /// Rejects the access when `id` is quarantined, counting the fast
    /// failure against `stats`.
    #[inline]
    fn check_quarantine(&self, id: PageId, stats: &IoStats) -> Result<()> {
        if self.quarantine_nonempty.load(Ordering::Acquire) && self.quarantine.lock().contains(&id)
        {
            stats.record_quarantine_hit();
            return Err(StoreError::corrupt_page(id, QUARANTINED));
        }
        Ok(())
    }

    /// Total pins held across all shards — zero whenever no page access is
    /// in flight. Resilience tests use this to assert that a query aborted
    /// mid-traversal released every frame it was loading.
    pub fn pinned_frames(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| {
                shard
                    .lock()
                    .frames
                    .iter()
                    .map(|fr| fr.pins as usize)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Resizes the pool to `capacity` frames, evicting (and flushing) the
    /// least-recently-used pages of each shard if shrinking. The stripe
    /// count is fixed at construction, so each shard keeps at least one
    /// frame (see [`capacity`](Self::capacity)).
    pub fn set_capacity(&self, capacity: usize) -> Result<()> {
        assert!(capacity > 0, "buffer pool needs at least one frame");
        self.assert_not_reentrant();
        self.capacity.store(capacity, Ordering::Relaxed);
        let caps = shard_capacities(capacity, self.shards.len());
        for (shard, cap) in self.shards.iter().zip(caps) {
            let mut inner = shard.lock();
            inner.capacity = cap;
            while inner.map.len() > inner.capacity {
                if !self.evict_one(shard, &mut inner)? {
                    break; // every remaining frame is pinned by a loader
                }
            }
        }
        Ok(())
    }

    /// Reads page `id` and passes its bytes to `f`.
    pub fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        self.with_frame(id, |frame| f(&frame.data))
    }

    /// Reads page `id`, passes its bytes mutably to `f`, and marks the page
    /// dirty. The modification reaches disk on eviction or
    /// [`flush_all`](Self::flush_all).
    pub fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        self.with_frame(id, |frame| {
            frame.dirty = true;
            f(&mut frame.data)
        })
    }

    /// Locates (or faults in) page `id` and runs `f` on its frame under
    /// the shard lock.
    fn with_frame<R>(&self, id: PageId, f: impl FnOnce(&mut Frame) -> R) -> Result<R> {
        let _guard = ReentrancyGuard::enter(self);
        let shard = self.shard_of(id);
        shard.stats.record_logical_read();
        self.check_quarantine(id, &shard.stats)?;
        loop {
            let mut inner = shard.lock();
            if let Some(&fi) = inner.map.get(&id) {
                if inner.frames[fi as usize].loaded {
                    shard.stats.record_pool_hit();
                    if inner.frames[fi as usize].prefetched {
                        // First demand touch claims the prefetched frame;
                        // from here on it ages like any demanded page.
                        inner.frames[fi as usize].prefetched = false;
                        shard.stats.record_prefetch_hit();
                        self.prefetch_inflight.fetch_sub(1, Ordering::Relaxed);
                        self.notify_prefetch_worker();
                    }
                    if inner.frames[fi as usize].pins == 0 {
                        inner.lru.touch(fi);
                    }
                    return Ok(f(&mut inner.frames[fi as usize]));
                }
                // Another thread is mid-read on this page: let it finish.
                drop(inner);
                std::thread::yield_now();
                continue;
            }

            // Miss: reserve a pinned frame, then read outside the lock.
            shard.stats.record_pool_miss();
            let fi = self.acquire_frame(shard, &mut inner)?;
            {
                let fr = &mut inner.frames[fi as usize];
                fr.page = id;
                fr.dirty = false;
                fr.loaded = false;
                fr.prefetched = false;
                fr.pins = 1;
            }
            inner.map.insert(id, fi);
            drop(inner);

            let mut buf = vec![0u8; FRAME_SIZE].into_boxed_slice();
            let read = self
                .retrying(&shard.stats, || self.disk.read_page(id, &mut buf))
                .and_then(|()| match verify_frame(&buf) {
                    Ok(()) => Ok(()),
                    Err(what) => {
                        shard.stats.record_checksum_failure();
                        // Known-bad media: fail further touches fast
                        // instead of re-reading and re-failing the CRC.
                        if self.quarantine.lock().insert(id) {
                            shard.stats.record_quarantined_page();
                            self.quarantine_nonempty.store(true, Ordering::Release);
                        }
                        Err(StoreError::corrupt_page(id, what))
                    }
                });

            let mut inner = shard.lock();
            let fr = &mut inner.frames[fi as usize];
            debug_assert_eq!(fr.page, id, "pinned frame was stolen");
            if let Err(e) = read {
                // Hand the frame back so failed reads don't leak capacity.
                fr.page = crate::INVALID_PAGE;
                fr.pins = 0;
                inner.map.remove(&id);
                inner.free.push(fi);
                return Err(e);
            }
            shard.stats.record_physical_read();
            fr.data.copy_from_slice(&buf[..PAGE_SIZE]);
            fr.loaded = true;
            fr.pins -= 1;
            if fr.pins == 0 {
                inner.lru.touch(fi);
            }
            return Ok(f(&mut inner.frames[fi as usize]));
        }
    }

    /// Replaces the full contents of page `id` with `payload` without
    /// reading the page's current — possibly corrupt — bytes from the
    /// backend. Journal recovery uses this to rewrite torn pages; regular
    /// code should prefer [`with_page_mut`](Self::with_page_mut).
    ///
    /// # Panics
    ///
    /// Panics if `payload` is not exactly [`PAGE_SIZE`] bytes.
    pub fn overwrite_page(&self, id: PageId, payload: &[u8]) -> Result<()> {
        assert_eq!(payload.len(), PAGE_SIZE, "overwrite_page needs a full page");
        let _guard = ReentrancyGuard::enter(self);
        if id >= self.disk.num_pages() {
            return Err(StoreError::PageOutOfBounds(id));
        }
        let shard = self.shard_of(id);
        loop {
            let mut inner = shard.lock();
            let fi = match inner.map.get(&id) {
                Some(&fi) => {
                    if !inner.frames[fi as usize].loaded {
                        // A concurrent loader owns the frame; its read
                        // would clobber our payload. Wait it out.
                        drop(inner);
                        std::thread::yield_now();
                        continue;
                    }
                    fi
                }
                None => {
                    let fi = self.acquire_frame(shard, &mut inner)?;
                    inner.frames[fi as usize].page = id;
                    inner.map.insert(id, fi);
                    fi
                }
            };
            {
                let fr = &mut inner.frames[fi as usize];
                if fr.prefetched {
                    // A rewrite is neither a prefetch hit nor a waste; the
                    // frame simply stops being speculative.
                    fr.prefetched = false;
                    self.prefetch_inflight.fetch_sub(1, Ordering::Relaxed);
                    self.notify_prefetch_worker();
                }
                fr.data.copy_from_slice(payload);
                fr.dirty = true;
                fr.loaded = true;
            }
            if inner.frames[fi as usize].pins == 0 {
                inner.lru.touch(fi);
            }
            drop(inner);
            // A full-frame rewrite replaces whatever was corrupt: lift the
            // quarantine so recovery can put repaired pages back in service.
            if self.quarantine_nonempty.load(Ordering::Acquire) {
                let mut set = self.quarantine.lock();
                set.remove(&id);
                if set.is_empty() {
                    self.quarantine_nonempty.store(false, Ordering::Release);
                }
            }
            return Ok(());
        }
    }

    /// Allocates a fresh zeroed page, resident in the pool and marked dirty
    /// (it will be written to disk when evicted or flushed). Returns its id.
    pub fn allocate(&self) -> Result<PageId> {
        let _guard = ReentrancyGuard::enter(self);
        let id = self.retrying(&self.stats, || self.disk.allocate())?;
        let shard = self.shard_of(id);
        let mut inner = shard.lock();
        let fi = self.acquire_frame(shard, &mut inner)?;
        {
            let fr = &mut inner.frames[fi as usize];
            fr.page = id;
            fr.data.fill(0);
            fr.dirty = true;
            fr.loaded = true;
            fr.prefetched = false;
        }
        inner.map.insert(id, fi);
        inner.lru.touch(fi);
        Ok(id)
    }

    /// Writes every dirty resident page back to disk (pages stay resident).
    /// Shards are flushed in stripe order, frames in residency order.
    pub fn flush_all(&self) -> Result<()> {
        self.assert_not_reentrant();
        for shard in self.shards.iter() {
            let mut guard = shard.lock();
            let inner = &mut *guard;
            let dirty: Vec<usize> = inner
                .frames
                .iter()
                .enumerate()
                .filter(|(_, fr)| fr.dirty && fr.loaded && fr.page != crate::INVALID_PAGE)
                .map(|(i, _)| i)
                .collect();
            for i in dirty {
                let ShardInner {
                    frames, scratch, ..
                } = &mut *inner;
                self.write_frame(&shard.stats, frames[i].page, &frames[i].data, scratch)?;
                inner.frames[i].dirty = false;
            }
        }
        Ok(())
    }

    /// Writes the listed pages back to disk if they are resident and dirty
    /// (pages stay resident), in the order given. The commit protocol uses
    /// this for granular durability barriers: journal stream, then commit
    /// mark, then home pages.
    pub fn flush_pages(&self, ids: &[PageId]) -> Result<()> {
        self.assert_not_reentrant();
        for &id in ids {
            let shard = self.shard_of(id);
            let mut guard = shard.lock();
            let inner = &mut *guard;
            let Some(&fi) = inner.map.get(&id) else {
                continue;
            };
            let i = fi as usize;
            if inner.frames[i].dirty && inner.frames[i].loaded {
                let ShardInner {
                    frames, scratch, ..
                } = &mut *inner;
                self.write_frame(&shard.stats, id, &frames[i].data, scratch)?;
                inner.frames[i].dirty = false;
            }
        }
        Ok(())
    }

    /// Drops every resident page (flushing dirty ones), leaving the pool
    /// cold. Benchmarks call this between phases so each algorithm starts
    /// with an empty cache. Frames pinned by concurrent loads survive.
    pub fn clear(&self) -> Result<()> {
        self.assert_not_reentrant();
        self.prefetch_queue.lock().clear();
        // Let an in-flight pipelined batch land before sweeping, so the
        // sweep actually leaves the pool cold.
        self.prefetch_quiesce();
        for shard in self.shards.iter() {
            let mut inner = shard.lock();
            while self.evict_one(shard, &mut inner)? {}
        }
        Ok(())
    }

    /// Number of pages allocated on the underlying disk.
    pub fn num_pages(&self) -> PageId {
        self.disk.num_pages()
    }

    /// Point-in-time I/O counters, folded across all shards.
    pub fn stats(&self) -> IoSnapshot {
        self.shards
            .iter()
            .fold(self.stats.snapshot(), |acc, shard| {
                acc.merge(&shard.stats.snapshot())
            })
    }

    /// Physical reads so far, summed across shards. Cheaper than
    /// `stats()` — one relaxed load per shard instead of a full
    /// snapshot fold — so I/O-budget guards can poll it per expansion.
    pub fn physical_reads(&self) -> u64 {
        self.shards
            .iter()
            .fold(self.stats.physical_reads(), |acc, shard| {
                acc + shard.stats.physical_reads()
            })
    }

    /// Zeroes the I/O counters of every shard.
    pub fn reset_stats(&self) {
        self.stats.reset();
        for shard in self.shards.iter() {
            shard.stats.reset();
        }
    }

    /// Runs a physical operation under the retry policy: transient
    /// failures are re-attempted (counting each re-attempt in `stats`)
    /// with linear backoff; anything else returns immediately.
    fn retrying<T>(&self, stats: &IoStats, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let policy = *self.retry.lock();
        let max_attempts = policy.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match op() {
                Err(e) if attempt < max_attempts && e.is_transient() => {
                    stats.record_retry();
                    if policy.backoff > Duration::ZERO {
                        std::thread::sleep(policy.backoff.saturating_mul(attempt));
                    }
                    attempt += 1;
                }
                other => return other,
            }
        }
    }

    /// Seals `payload` into `scratch` and writes the frame out with
    /// retries, counting one physical write on success.
    fn write_frame(
        &self,
        stats: &IoStats,
        id: PageId,
        payload: &[u8],
        scratch: &mut [u8],
    ) -> Result<()> {
        scratch[..PAGE_SIZE].copy_from_slice(payload);
        seal_frame(scratch);
        self.retrying(stats, || self.disk.write_page(id, scratch))?;
        stats.record_physical_write();
        Ok(())
    }

    /// Finds a free frame for a page about to become resident, evicting
    /// the shard's LRU page first when the shard is at capacity.
    ///
    /// Residency is governed by `map.len()` (which includes frames pinned
    /// by in-flight loads), not by the size of the frame vector: after
    /// [`BufferPool::set_capacity`] shrinks the pool, the old frames sit
    /// on the free list, and reusing them must not let the resident count
    /// exceed the new capacity. When every resident frame is pinned the
    /// shard over-provisions temporarily instead of deadlocking.
    fn acquire_frame(&self, shard: &Shard, inner: &mut ShardInner) -> Result<u32> {
        if inner.map.len() >= inner.capacity {
            self.evict_one(shard, inner)?;
        }
        if let Some(fi) = inner.free.pop() {
            return Ok(fi);
        }
        let idx = inner.frames.len() as u32;
        inner.frames.push(Frame::empty());
        inner.lru.grow_to(inner.frames.len());
        Ok(idx)
    }

    /// Evicts the shard's least-recently-used unpinned page, flushing it
    /// if dirty. Returns whether a victim existed.
    fn evict_one(&self, shard: &Shard, inner: &mut ShardInner) -> Result<bool> {
        let Some(victim) = inner.lru.pop_lru() else {
            return Ok(false);
        };
        shard.stats.record_eviction();
        let ShardInner {
            frames,
            scratch,
            map,
            free,
            ..
        } = &mut *inner;
        let frame = &mut frames[victim as usize];
        debug_assert_eq!(frame.pins, 0, "pinned frame reached the LRU list");
        if frame.prefetched {
            frame.prefetched = false;
            shard.stats.record_prefetch_wasted();
            self.prefetch_inflight.fetch_sub(1, Ordering::Relaxed);
            self.notify_prefetch_worker();
        }
        if frame.dirty {
            self.write_frame(&shard.stats, frame.page, &frame.data, scratch)?;
            frame.dirty = false;
        }
        map.remove(&frame.page);
        frame.page = crate::INVALID_PAGE;
        frame.loaded = false;
        free.push(victim);
        Ok(true)
    }

    /// Debug-build check used by the lock-taking entry points that do not
    /// run user closures: panics when called from inside a `with_page`
    /// closure on this same pool, where it would deadlock.
    #[inline]
    fn assert_not_reentrant(&self) {
        #[cfg(debug_assertions)]
        reentrancy::assert_not_active(self as *const _ as usize);
    }
}

impl Drop for BufferPool {
    /// Flags the pipelined readahead worker (if any) to exit. No join:
    /// while parked the worker holds only a `Weak` pool handle (so this
    /// drop can run at all) plus the signal `Arc`, and the drop itself can
    /// run *on* the worker thread when its transient strong handle was the
    /// last one — joining here would deadlock either way.
    fn drop(&mut self) {
        if self.prefetch_bg.load(Ordering::Relaxed) {
            let mut st = self.prefetch_signal.state.lock();
            st.shutdown = true;
            self.prefetch_signal.cond.notify_all();
        }
    }
}

/// Debug-build re-entrancy detection: a thread-local stack of pools whose
/// shard locks the current thread may be holding inside a `with_page` /
/// `with_page_mut` closure. Re-entering the same pool panics with a
/// diagnostic instead of deadlocking on the (non-reentrant) shard mutex.
/// Nested access to *different* pools is legitimate and allowed.
#[cfg(debug_assertions)]
mod reentrancy {
    use std::cell::RefCell;

    thread_local! {
        static ACTIVE_POOLS: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) struct Guard(usize);

    impl Guard {
        pub(super) fn activate(pool: usize) -> Guard {
            ACTIVE_POOLS.with(|stack| {
                assert_not_active_in(&stack.borrow(), pool);
                stack.borrow_mut().push(pool);
            });
            Guard(pool)
        }
    }

    impl Drop for Guard {
        fn drop(&mut self) {
            ACTIVE_POOLS.with(|stack| {
                let mut stack = stack.borrow_mut();
                let top = stack.pop();
                debug_assert_eq!(top, Some(self.0), "re-entrancy guard stack corrupted");
            });
        }
    }

    pub(super) fn assert_not_active(pool: usize) {
        ACTIVE_POOLS.with(|stack| assert_not_active_in(&stack.borrow(), pool));
    }

    fn assert_not_active_in(stack: &[usize], pool: usize) {
        assert!(
            !stack.contains(&pool),
            "re-entrant BufferPool access: a closure passed to \
             with_page/with_page_mut called back into the same pool while \
             its shard lock is held; this deadlocks in release builds. \
             Copy what you need out of the page and return instead."
        );
    }
}

#[cfg(debug_assertions)]
use reentrancy::Guard as ReentrancyGuard;

/// Release builds compile the guard away.
#[cfg(not(debug_assertions))]
struct ReentrancyGuard;

#[cfg(not(debug_assertions))]
impl ReentrancyGuard {
    #[inline(always)]
    fn enter(_pool: &BufferPool) -> ReentrancyGuard {
        ReentrancyGuard
    }
}

#[cfg(debug_assertions)]
impl ReentrancyGuard {
    #[inline]
    fn enter(pool: &BufferPool) -> ReentrancyGuard {
        reentrancy::Guard::activate(pool as *const _ as usize)
    }
}

impl PageStore for BufferPool {
    fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        BufferPool::with_page(self, id, f)
    }

    fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        BufferPool::with_page_mut(self, id, f)
    }

    fn allocate(&self) -> Result<PageId> {
        BufferPool::allocate(self)
    }
}

/// Shared handles access pages like the store they wrap, so code generic
/// over [`PageStore`] accepts `&Arc<BufferPool>` directly.
impl<S: PageStore> PageStore for Arc<S> {
    fn with_page<R>(&self, id: PageId, f: impl FnOnce(&[u8]) -> R) -> Result<R> {
        (**self).with_page(id, f)
    }

    fn with_page_mut<R>(&self, id: PageId, f: impl FnOnce(&mut [u8]) -> R) -> Result<R> {
        (**self).with_page_mut(id, f)
    }

    fn allocate(&self) -> Result<PageId> {
        (**self).allocate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultyDisk, InjectedFault, MemDisk};

    fn pool(cap: usize) -> BufferPool {
        BufferPool::new(MemDisk::new(), cap)
    }

    #[test]
    fn allocate_then_read_hits_cache() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[0] = 42).unwrap();
        let v = p.with_page(id, |b| b[0]).unwrap();
        assert_eq!(v, 42);
        let s = p.stats();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 0, "page never left the pool");
        assert_eq!(s.pool_hits, 2);
        assert_eq!(s.pool_misses, 0);
    }

    #[test]
    fn eviction_writes_dirty_pages_and_rereads_them() {
        let p = pool(2);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.with_page_mut(a, |buf| buf[0] = 1).unwrap();
        p.with_page_mut(b, |buf| buf[0] = 2).unwrap();
        // Third page evicts `a` (LRU of its stripe).
        let c = p.allocate().unwrap();
        p.with_page_mut(c, |buf| buf[0] = 3).unwrap();
        assert!(p.stats().physical_writes >= 1);
        // Reading `a` again faults it back in with its data intact.
        let before = p.stats().physical_reads;
        let v = p.with_page(a, |buf| buf[0]).unwrap();
        assert_eq!(v, 1);
        assert_eq!(p.stats().physical_reads, before + 1);
    }

    #[test]
    fn lru_keeps_hot_page_resident() {
        // Single shard: the test asserts *global* exact-LRU order.
        let p = BufferPool::with_shards(MemDisk::new(), 2, 1);
        let hot = p.allocate().unwrap();
        let cold = p.allocate().unwrap();
        p.with_page(hot, |_| ()).unwrap(); // hot is MRU
        let extra = p.allocate().unwrap(); // must evict `cold`
        p.reset_stats();
        p.with_page(hot, |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads, 0, "hot page stayed resident");
        p.with_page(cold, |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads, 1, "cold page was evicted");
        let _ = extra;
    }

    #[test]
    fn flush_all_persists_without_eviction() {
        let disk = MemDisk::new();
        // Keep a raw handle by allocating through the pool, flushing, then
        // reading via a second pool over the same disk... MemDisk is moved
        // into the pool, so instead verify via eviction-free readback:
        let p = BufferPool::new(disk, 4);
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[7] = 9).unwrap();
        p.flush_all().unwrap();
        assert_eq!(p.stats().physical_writes, 1);
        // Clearing drops the frame; the next read faults from disk and must
        // see the flushed data.
        p.clear().unwrap();
        assert_eq!(p.with_page(id, |b| b[7]).unwrap(), 9);
    }

    #[test]
    fn clear_flushes_dirty_pages() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[0] = 5).unwrap();
        p.clear().unwrap();
        assert!(p.stats().physical_writes >= 1);
        assert_eq!(p.with_page(id, |b| b[0]).unwrap(), 5);
    }

    #[test]
    fn shrink_capacity_evicts_excess() {
        // Single shard: the test asserts a *global* LRU residency set.
        let p = BufferPool::with_shards(MemDisk::new(), 8, 1);
        let ids: Vec<_> = (0..8).map(|_| p.allocate().unwrap()).collect();
        p.set_capacity(2).unwrap();
        assert_eq!(p.capacity(), 2);
        p.reset_stats();
        // Only the two most recently used pages can still be resident.
        let mut faults = 0;
        for &id in &ids {
            let before = p.stats().physical_reads;
            p.with_page(id, |_| ()).unwrap();
            if p.stats().physical_reads > before {
                faults += 1;
            }
        }
        assert!(faults >= 6, "expected at least 6 faults, got {faults}");
    }

    #[test]
    fn grow_capacity_reduces_faults() {
        let run = |cap: usize| -> u64 {
            let p = pool(cap);
            let ids: Vec<_> = (0..16).map(|_| p.allocate().unwrap()).collect();
            p.reset_stats();
            // Three cyclic sweeps: classic LRU-thrash workload.
            for _ in 0..3 {
                for &id in &ids {
                    p.with_page(id, |_| ()).unwrap();
                }
            }
            p.stats().physical_reads
        };
        assert!(run(4) > run(16), "bigger pool must fault less");
        assert_eq!(run(16), 0, "pool holding everything never faults");
    }

    #[test]
    fn shrunk_pool_enforces_new_capacity() {
        // Regression: shrinking used to leave old frames on the free
        // list, silently keeping the old effective capacity.
        let p = pool(1024);
        let ids: Vec<_> = (0..16).map(|_| p.allocate().unwrap()).collect();
        p.set_capacity(4).unwrap();
        p.clear().unwrap();
        p.reset_stats();
        // Three cyclic sweeps over 16 pages with (effectively) one frame
        // per stripe: pure thrash, every access must miss.
        for _ in 0..3 {
            for &id in &ids {
                p.with_page(id, |_| ()).unwrap();
            }
        }
        assert_eq!(
            p.stats().physical_reads,
            48,
            "shrunken pool must behave exactly like a freshly small pool"
        );
    }

    #[test]
    fn logical_vs_physical_accounting() {
        let p = pool(1);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.reset_stats();
        // Alternating reads with a single frame: every access is a miss.
        for _ in 0..5 {
            p.with_page(a, |_| ()).unwrap();
            p.with_page(b, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.logical_reads, 10);
        assert_eq!(s.physical_reads, 10);
        assert_eq!(s.pool_misses, 10);
        assert_eq!(s.pool_hits, 0);
        assert_eq!(s.hit_rate(), 0.0);
    }

    #[test]
    fn hit_miss_counters_partition_logical_reads() {
        let p = pool(8);
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        p.reset_stats();
        for _ in 0..3 {
            for &id in &ids {
                p.with_page(id, |_| ()).unwrap();
            }
        }
        let s = p.stats();
        assert_eq!(s.logical_reads, 12);
        assert_eq!(s.pool_misses, 4, "first sweep faults each page once");
        assert_eq!(s.pool_hits, 8, "later sweeps hit resident frames");
        assert_eq!(s.pool_hits + s.pool_misses, s.logical_reads);
    }

    #[test]
    fn shards_clamped_to_capacity() {
        let p = pool(3);
        assert_eq!(p.num_shards(), 3);
        let p = BufferPool::with_shards(MemDisk::new(), 64, 4);
        assert_eq!(p.num_shards(), 4);
        let p = BufferPool::with_shards(MemDisk::new(), 2, 16);
        assert_eq!(p.num_shards(), 2);
    }

    #[test]
    fn shard_capacities_cover_budget() {
        assert_eq!(shard_capacities(64, 8), vec![8; 8]);
        assert_eq!(shard_capacities(10, 4), vec![3, 3, 2, 2]);
        // Below one frame per stripe, every stripe still gets one.
        assert_eq!(shard_capacities(2, 4), vec![1, 1, 1, 1]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-entrant BufferPool access")]
    fn reentrant_access_panics_instead_of_deadlocking() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        let _ = p.with_page(a, |_| {
            // Same pool, same page, same shard: would deadlock.
            let _ = p.with_page(a, |_| ());
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "re-entrant BufferPool access")]
    fn reentrant_flush_panics() {
        let p = pool(4);
        let a = p.allocate().unwrap();
        let _ = p.with_page(a, |_| {
            let _ = p.flush_all();
        });
    }

    #[test]
    fn nested_access_to_distinct_pools_is_allowed() {
        let p1 = pool(4);
        let p2 = pool(4);
        let a = p1.allocate().unwrap();
        let b = p2.allocate().unwrap();
        p2.with_page_mut(b, |buf| buf[0] = 7).unwrap();
        let v = p1
            .with_page(a, |_| p2.with_page(b, |buf| buf[0]).unwrap())
            .unwrap();
        assert_eq!(v, 7);
    }

    #[test]
    fn retry_policy_recovers_transient_faults() {
        let disk = FaultyDisk::unlimited(MemDisk::new());
        let op_after_setup = 3; // allocate, allocate, eviction write
        disk.inject_at(op_after_setup, InjectedFault::Transient);
        let p = BufferPool::new(disk, 1);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |b| b[0] = 9).unwrap();
        let _b = p.allocate().unwrap(); // evicts `a` (dirty write, op 2)
                                        // Fault fires on the physical read of `a`; the default policy
                                        // retries and succeeds.
        assert_eq!(p.with_page(a, |b| b[0]).unwrap(), 9);
        assert_eq!(p.stats().retries, 1);
    }

    #[test]
    fn single_attempt_policy_surfaces_transient_faults() {
        let disk = FaultyDisk::unlimited(MemDisk::new());
        disk.inject_at(3, InjectedFault::Transient);
        let p = BufferPool::new(disk, 1);
        p.set_retry_policy(RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        });
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |b| b[0] = 9).unwrap();
        let _b = p.allocate().unwrap();
        assert!(matches!(
            p.with_page(a, |_| ()),
            Err(StoreError::Injected { transient: true })
        ));
        assert_eq!(p.stats().retries, 0);
    }

    #[test]
    fn corrupted_frame_is_detected_on_read() {
        let mem = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&mem), 4);
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[0] = 1).unwrap();
        p.clear().unwrap();
        // Flip a payload byte behind the pool's back.
        let mut frame = vec![0u8; FRAME_SIZE];
        mem.read_page(id, &mut frame).unwrap();
        frame[100] ^= 0xFF;
        mem.write_page(id, &frame).unwrap();
        match p.with_page(id, |_| ()) {
            Err(StoreError::Corrupt { page, .. }) => assert_eq!(page, Some(id)),
            other => panic!("expected corruption error, got {other:?}"),
        }
        assert_eq!(p.stats().checksum_failures, 1);
    }

    #[test]
    fn failed_read_does_not_leak_frames() {
        // Regression: a failed fetch used to leak its frame slot.
        let mem = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&mem), 2);
        let id = p.allocate().unwrap();
        p.clear().unwrap();
        let mut frame = vec![0u8; FRAME_SIZE];
        mem.read_page(id, &mut frame).unwrap();
        frame[0] = 1; // unsealed damage
        mem.write_page(id, &frame).unwrap();
        for _ in 0..10 {
            assert!(p.with_page(id, |_| ()).is_err());
        }
        // The pool still has working frames for healthy pages.
        let fresh = p.allocate().unwrap();
        p.with_page_mut(fresh, |b| b[0] = 2).unwrap();
        assert_eq!(p.with_page(fresh, |b| b[0]).unwrap(), 2);
    }

    #[test]
    fn overwrite_and_flush_pages_roundtrip() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        let payload = vec![0xA5u8; PAGE_SIZE];
        p.overwrite_page(id, &payload).unwrap();
        p.flush_pages(&[id]).unwrap();
        assert_eq!(p.stats().physical_writes, 1);
        p.clear().unwrap();
        assert!(p.with_page(id, |b| b.to_vec()).unwrap() == payload);
        assert!(matches!(
            p.overwrite_page(99, &payload),
            Err(StoreError::PageOutOfBounds(99))
        ));
    }

    /// Damages page `id` behind the pool's back so its next read fails CRC.
    fn damage(mem: &MemDisk, id: PageId) {
        let mut frame = vec![0u8; FRAME_SIZE];
        mem.read_page(id, &mut frame).unwrap();
        frame[100] ^= 0xFF;
        mem.write_page(id, &frame).unwrap();
    }

    #[test]
    fn corrupt_page_is_quarantined_and_fails_fast() {
        let mem = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&mem), 4);
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[0] = 1).unwrap();
        p.clear().unwrap();
        damage(&mem, id);

        // First touch: CRC failure, page enters quarantine.
        assert!(p.with_page(id, |_| ()).is_err());
        assert!(p.is_quarantined(id));
        assert_eq!(p.quarantined_pages(), vec![id]);
        let after_first = p.stats();
        assert_eq!(after_first.checksum_failures, 1);
        assert_eq!(after_first.quarantined_pages, 1);
        assert_eq!(after_first.quarantine_hits, 0);

        // Second touch: fails fast without another physical read.
        match p.with_page(id, |_| ()) {
            Err(StoreError::Corrupt { page, what }) => {
                assert_eq!(page, Some(id));
                assert_eq!(what, QUARANTINED);
            }
            other => panic!("expected quarantine rejection, got {other:?}"),
        }
        let after_second = p.stats();
        assert_eq!(after_second.checksum_failures, 1, "no re-read of bad media");
        assert_eq!(after_second.quarantined_pages, 1, "quarantined only once");
        assert_eq!(after_second.quarantine_hits, 1);

        // Healthy pages are unaffected.
        let fresh = p.allocate().unwrap();
        p.with_page_mut(fresh, |b| b[0] = 2).unwrap();
        assert_eq!(p.with_page(fresh, |b| b[0]).unwrap(), 2);

        // clear_quarantine puts the page back in service (still corrupt on
        // media, so the read fails CRC again and re-quarantines).
        p.clear_quarantine();
        assert!(!p.is_quarantined(id));
        assert!(p.with_page(id, |_| ()).is_err());
        assert_eq!(p.stats().checksum_failures, 2);
        assert!(p.is_quarantined(id));
    }

    #[test]
    fn overwrite_heals_quarantined_page() {
        let mem = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&mem), 4);
        let id = p.allocate().unwrap();
        p.clear().unwrap();
        damage(&mem, id);
        assert!(p.with_page(id, |_| ()).is_err());
        assert!(p.is_quarantined(id));

        // A full-page rewrite (the journal-recovery path) lifts the
        // quarantine and the page serves the new contents.
        let payload = vec![0x5Au8; PAGE_SIZE];
        p.overwrite_page(id, &payload).unwrap();
        assert!(!p.is_quarantined(id));
        assert_eq!(p.with_page(id, |b| b.to_vec()).unwrap(), payload);
        p.flush_pages(&[id]).unwrap();
        p.clear().unwrap();
        assert_eq!(p.with_page(id, |b| b.to_vec()).unwrap(), payload);
    }

    #[test]
    fn manual_quarantine_blocks_reads() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        p.with_page_mut(id, |b| b[0] = 9).unwrap();
        p.quarantine(id);
        assert!(matches!(
            p.with_page(id, |_| ()),
            Err(StoreError::Corrupt {
                what: QUARANTINED,
                ..
            })
        ));
        assert_eq!(p.stats().quarantine_hits, 1);
        p.clear_quarantine();
        assert_eq!(p.with_page(id, |b| b[0]).unwrap(), 9);
    }

    #[test]
    fn prefetch_is_noop_until_enabled() {
        let p = pool(4);
        let id = p.allocate().unwrap();
        p.clear().unwrap();
        p.reset_stats();
        p.prefetch(&[(id, 0)]);
        let s = p.stats();
        assert_eq!(s.prefetch_issued, 0);
        assert_eq!(s.physical_reads, 0);
    }

    #[test]
    fn prefetch_loads_pages_without_logical_reads() {
        let p = pool(8);
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        p.reset_stats();
        p.enable_prefetch(PrefetchConfig::default());
        let hints: Vec<_> = ids.iter().map(|&id| (id, 1)).collect();
        p.prefetch(&hints);
        let s = p.stats();
        assert_eq!(s.prefetch_issued, 4);
        assert_eq!(s.physical_reads, 4);
        assert_eq!(s.logical_reads, 0, "readahead charges no logical reads");
        assert_eq!(s.pool_misses, 0);
        assert_eq!(p.prefetch_inflight(), 4);
        assert_eq!(p.pinned_frames(), 0, "published frames are unpinned");
        // Demand accesses are now pure pool hits, each claiming its frame.
        for &id in &ids {
            p.with_page(id, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.physical_reads, 4, "no further physical reads");
        assert_eq!(s.pool_hits, 4);
        assert_eq!(s.prefetch_hits, 4);
        assert_eq!(p.prefetch_inflight(), 0);
        // A second touch is an ordinary hit, not another prefetch hit.
        p.with_page(ids[0], |_| ()).unwrap();
        assert_eq!(p.stats().prefetch_hits, 4);
    }

    #[test]
    fn prefetch_skips_resident_and_out_of_bounds_pages() {
        let p = pool(8);
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap();
        p.clear().unwrap();
        p.with_page(a, |_| ()).unwrap(); // `a` resident
        p.reset_stats();
        p.enable_prefetch(PrefetchConfig::default());
        p.prefetch(&[(a, 0), (b, 0), (999, 0)]);
        let s = p.stats();
        assert_eq!(s.prefetch_issued, 1, "only the absent in-bounds page");
        assert_eq!(s.physical_reads, 1);
    }

    #[test]
    fn prefetch_respects_inflight_ceiling_and_drains_later() {
        // Single shard so LRU/eviction arithmetic is global.
        let p = BufferPool::with_shards(MemDisk::new(), 8, 1);
        let ids: Vec<_> = (0..6).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        p.reset_stats();
        p.enable_prefetch(PrefetchConfig {
            max_inflight: 2,
            batch: 2,
        });
        let hints: Vec<_> = ids.iter().map(|&id| (id, 1)).collect();
        p.prefetch(&hints);
        assert_eq!(p.stats().prefetch_issued, 2, "ceiling caps the pump");
        assert_eq!(p.prefetch_inflight(), 2);
        // Claiming the two frames frees budget; an empty submit re-pumps
        // the queued remainder.
        p.with_page(ids[0], |_| ()).unwrap();
        p.with_page(ids[1], |_| ()).unwrap();
        p.prefetch(&[]);
        assert_eq!(p.stats().prefetch_issued, 4);
        assert_eq!(p.prefetch_inflight(), 2);
    }

    #[test]
    fn prefetch_priority_orders_the_queue() {
        let p = BufferPool::with_shards(MemDisk::new(), 8, 1);
        let ids: Vec<_> = (0..3).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        p.reset_stats();
        p.enable_prefetch(PrefetchConfig {
            max_inflight: 1,
            batch: 1,
        });
        // Low priority first in submission order; the high-priority hint
        // must still be fetched first.
        p.prefetch(&[(ids[0], 1), (ids[1], 5), (ids[2], 1)]);
        assert_eq!(p.stats().prefetch_issued, 1);
        assert_eq!(
            p.stats().physical_reads,
            1,
            "exactly the high-priority page"
        );
        // Reading the others faults them in: only ids[1] was prefetched.
        p.reset_stats();
        p.with_page(ids[1], |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads, 0, "high-priority page resident");
        p.with_page(ids[0], |_| ()).unwrap();
        assert_eq!(p.stats().physical_reads, 1, "low-priority page was queued");
    }

    #[test]
    fn prefetched_frames_are_first_out_and_count_wasted() {
        // Scan resistance: capacity 4, two hot demand pages, then a
        // prefetch sweep bigger than the pool. The pump fills the two
        // spare frames and stalls (it never evicts its own still-unclaimed
        // frames to keep sweeping); demand pressure then reclaims the
        // speculative frames first, never the hot pages.
        let p = BufferPool::with_shards(MemDisk::new(), 4, 1);
        let ids: Vec<_> = (0..8).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        let hot = [ids[0], ids[1]];
        p.with_page(hot[0], |_| ()).unwrap();
        p.with_page(hot[1], |_| ()).unwrap();
        p.reset_stats();
        p.enable_prefetch(PrefetchConfig {
            max_inflight: 8,
            batch: 2,
        });
        let sweep: Vec<_> = ids[2..].iter().map(|&id| (id, 1)).collect();
        p.prefetch(&sweep);
        let s = p.stats();
        assert_eq!(
            s.prefetch_issued, 2,
            "pump fills the spare frames, then stalls"
        );
        assert_eq!(s.prefetch_wasted, 0, "the pump never evicts its own window");
        // A demand miss reclaims a cold speculative frame, not a hot page.
        p.with_page(ids[7], |_| ()).unwrap();
        let s = p.stats();
        assert_eq!(s.prefetch_wasted, 1, "cold speculative frame went first");
        // The hot pages never left the pool.
        p.with_page(hot[0], |_| ()).unwrap();
        p.with_page(hot[1], |_| ()).unwrap();
        assert_eq!(
            p.stats().physical_reads,
            3,
            "no demand faults: hot pages stayed resident"
        );
    }

    #[test]
    fn prefetch_pump_stalls_rather_than_churning_its_window() {
        // Capacity 4, two demand pages, four hints. Only two frames are
        // spare, so the pump loads two pages and defers the rest: issuing
        // them would evict the not-yet-claimed speculative frames, wasting
        // the reads. Once demand claims the window, the deferred hints
        // load by evicting demand pages like any other miss.
        let p = BufferPool::with_shards(MemDisk::new(), 4, 1);
        let hot: Vec<_> = (0..2).map(|_| p.allocate().unwrap()).collect();
        let sweep: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        for &h in &hot {
            p.with_page(h, |_| ()).unwrap();
        }
        p.reset_stats();
        p.enable_prefetch(PrefetchConfig {
            max_inflight: 4,
            batch: 2,
        });
        let hints: Vec<_> = sweep.iter().map(|&id| (id, 1)).collect();
        p.prefetch(&hints);
        let s = p.stats();
        assert_eq!(s.prefetch_issued, 2, "two spare frames, two loads");
        assert_eq!(s.prefetch_wasted, 0);
        // Pumping again changes nothing while the window is unclaimed.
        p.prefetch(&[]);
        assert_eq!(p.stats().prefetch_issued, 2, "deferred hints stay queued");
        // Claim both speculative frames, then pump: the deferred hints now
        // load (evicting the stale demand pages), and every prefetched
        // page is eventually claimed — nothing is wasted.
        p.with_page(sweep[0], |_| ()).unwrap();
        p.with_page(sweep[1], |_| ()).unwrap();
        p.prefetch(&[]);
        p.with_page(sweep[2], |_| ()).unwrap();
        p.with_page(sweep[3], |_| ()).unwrap();
        let s = p.stats();
        assert_eq!(s.prefetch_issued, 4, "deferred hints loaded after claims");
        assert_eq!(s.prefetch_hits, 4);
        assert_eq!(s.prefetch_wasted, 0);
    }

    #[test]
    fn pipelined_prefetch_loads_in_background_and_quiesces() {
        let p = Arc::new(BufferPool::with_shards(MemDisk::new(), 8, 1));
        let ids: Vec<_> = (0..6).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        p.reset_stats();
        p.enable_prefetch_pipelined(PrefetchConfig {
            max_inflight: 4,
            batch: 4,
        });
        let hints: Vec<_> = ids.iter().map(|&id| (id, 1)).collect();
        p.prefetch(&hints);
        // The submit returns immediately; the quiesce barrier is what
        // makes the worker's progress observable.
        p.prefetch_quiesce();
        let s = p.stats();
        assert_eq!(s.prefetch_issued, 4, "worker pumped to the ceiling");
        assert_eq!(s.physical_reads, 4);
        assert_eq!(s.logical_reads, 0, "readahead charges no logical reads");
        assert_eq!(p.prefetch_inflight(), 4);
        assert_eq!(p.pinned_frames(), 0, "published frames are unpinned");
        // Demand touches claim the loaded frames; each claim frees
        // in-flight budget and wakes the worker, which drains the queued
        // remainder on its own — no explicit re-pump call.
        for &id in &ids[..4] {
            p.with_page(id, |_| ()).unwrap();
        }
        p.prefetch_quiesce();
        let s = p.stats();
        assert_eq!(s.prefetch_hits, 4);
        assert_eq!(
            s.prefetch_issued, 6,
            "claims woke the worker to finish the queue"
        );
        assert_eq!(p.prefetch_inflight(), 2);
        for &id in &ids[4..] {
            p.with_page(id, |_| ()).unwrap();
        }
        let s = p.stats();
        assert_eq!(s.prefetch_hits, 6);
        assert_eq!(s.pool_hits, 6);
        assert_eq!(s.physical_reads, 6, "every read was speculative");
        // Disabling parks the worker and leaves counters stable.
        p.disable_prefetch();
        assert_eq!(p.stats().prefetch_issued, 6);
    }

    #[test]
    fn prefetch_corrupt_page_is_quarantined_not_published() {
        let mem = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&mem), 4);
        let id = p.allocate().unwrap();
        p.clear().unwrap();
        damage(&mem, id);
        p.reset_stats();
        p.enable_prefetch(PrefetchConfig::default());
        p.prefetch(&[(id, 0)]);
        let s = p.stats();
        assert_eq!(s.prefetch_issued, 0, "corrupt frame is never published");
        assert_eq!(s.checksum_failures, 1);
        assert_eq!(s.quarantined_pages, 1);
        assert_eq!(p.pinned_frames(), 0);
        assert!(p.is_quarantined(id));
        // The demand access fails fast on the quarantine.
        assert!(matches!(
            p.with_page(id, |_| ()),
            Err(StoreError::Corrupt {
                what: QUARANTINED,
                ..
            })
        ));
        // And further hints for the page are dropped silently.
        p.prefetch(&[(id, 0)]);
        assert_eq!(p.stats().checksum_failures, 1);
    }

    #[test]
    fn clear_discards_queued_hints() {
        let p = BufferPool::with_shards(MemDisk::new(), 8, 1);
        let ids: Vec<_> = (0..4).map(|_| p.allocate().unwrap()).collect();
        p.clear().unwrap();
        p.enable_prefetch(PrefetchConfig {
            max_inflight: 1,
            batch: 1,
        });
        p.reset_stats();
        let hints: Vec<_> = ids.iter().map(|&id| (id, 0)).collect();
        p.prefetch(&hints); // issues 1, queues 3
        assert_eq!(p.stats().prefetch_issued, 1);
        p.clear().unwrap();
        p.prefetch(&[]); // nothing left to pump
        assert_eq!(p.stats().prefetch_issued, 1);
    }

    #[test]
    fn pins_return_to_zero_after_failed_read() {
        let mem = Arc::new(MemDisk::new());
        let p = BufferPool::new(Arc::clone(&mem), 4);
        let id = p.allocate().unwrap();
        p.clear().unwrap();
        damage(&mem, id);
        assert_eq!(p.pinned_frames(), 0);
        assert!(p.with_page(id, |_| ()).is_err());
        assert_eq!(p.pinned_frames(), 0, "failed load must release its pin");
        p.clear_quarantine();
        assert!(p.with_page(id, |_| ()).is_err());
        assert_eq!(p.pinned_frames(), 0);
    }
}
