//! The buffer pool: a fixed budget of in-memory page frames managed with
//! exact LRU replacement, lock-striped into shards for concurrent readers.
//!
//! Every page access made by the indices and join algorithms goes through
//! [`BufferPool::with_page`] / [`BufferPool::with_page_mut`]; the pool
//! charges a logical read per access and a physical read per miss. The
//! default experimental configuration is the paper's: 64 frames × 8 KiB =
//! 512 KiB (§4.1). The budget is fixed when the pool is built: the
//! Figure 3(b) buffer-size sweep builds one pool per size.
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
//! Every access is one critical section of its shard. A miss evicts the
//! shard's LRU page if the shard is full, reads the frame into the
//! shard's staging buffer, checks its CRC, publishes it and runs the
//! closure, all before the lock is released; transient read failures are
//! retried under the same lock. No frame is ever resident but unloaded,
//! so nothing waits for a loader: a second request for the page queues
//! on the shard lock and then hits. A shard never holds more frames than
//! its budget.
//!
//! The pool is also the integrity boundary: frames are sealed with a CRC32
//! trailer ([`crate::checksum`]) on every physical write and verified on
//! every physical read, so a torn or bit-rotted frame surfaces as
//! [`StoreError::Corrupt`] naming the page instead of reaching a codec.
//! Transient backend failures are retried under a [`RetryPolicy`]; both
//! retries and checksum failures are counted in [`crate::IoStats`].

use crate::checksum::{seal_frame, verify_frame};
use crate::lru::LruList;
use crate::stats::bump;
use crate::sync::{Mutex, MutexGuard};
use crate::{DiskBackend, IoSnapshot, IoStats, PageId, Result, StoreError, FRAME_SIZE, PAGE_SIZE};
use std::cell::Cell;
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

thread_local! {
    /// The policy the innermost live [`RetryScope`] put in place on this
    /// thread.
    static SCOPED_RETRY: Cell<Option<RetryPolicy>> = const { Cell::new(None) };
}

/// While alive, `policy` (when given) replaces the default
/// [`RetryPolicy`] for the physical I/O every pool issues **on the thread
/// that entered it**; `None` leaves that I/O under the default. Dropping
/// it — on return or unwind — restores the scope it replaced. Scoping to
/// a thread, not to a pool, is what lets one query ask for its own policy
/// while another query runs on the same pool under the default. The
/// thread's scope is the only retry source: a pool holds no policy. Not
/// `Send`: it belongs to its thread.
#[must_use = "the policy applies only while the scope is alive"]
pub struct RetryScope {
    replaced: Option<RetryPolicy>,
    _thread: PhantomData<*const ()>,
}

impl RetryScope {
    /// Puts `policy` in place on the calling thread.
    pub fn enter(policy: Option<RetryPolicy>) -> Self {
        RetryScope {
            replaced: SCOPED_RETRY.replace(policy),
            _thread: PhantomData,
        }
    }
}

impl Drop for RetryScope {
    fn drop(&mut self) {
        SCOPED_RETRY.set(self.replaced);
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
}

impl Frame {
    fn empty() -> Self {
        Frame {
            page: crate::INVALID_PAGE,
            data: vec![0u8; PAGE_SIZE].into_boxed_slice(),
            dirty: false,
        }
    }
}

struct ShardInner {
    frames: Vec<Frame>,
    map: HashMap<PageId, u32>,
    lru: LruList,
    free: Vec<u32>,
    capacity: usize,
    /// Staging buffer for physical I/O: payload + checksum trailer.
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
            stats: IoStats::default(),
        }
    }

    /// Locks the shard, counting the acquisition as contended when the
    /// lock was already held.
    fn lock(&self) -> MutexGuard<'_, ShardInner> {
        match self.inner.try_lock() {
            Some(guard) => guard,
            None => {
                bump(&self.stats.lock_contention);
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
    capacity: usize,
    /// Pool-level counters not attributable to one shard (allocation
    /// retries); folded into [`stats`](Self::stats) with the shard counters.
    stats: IoStats,
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
            capacity,
            stats: IoStats::default(),
            quarantine: Mutex::new(HashSet::new()),
            quarantine_nonempty: AtomicBool::new(false),
        }
    }

    /// Requested capacity in frames.
    ///
    /// With more shards than frames-per-shard rounding allows, the
    /// *enforced* budget is `max(capacity, num_shards)` — every shard keeps
    /// at least one frame.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    #[inline]
    fn shard_of(&self, id: PageId) -> &Shard {
        &self.shards[id as usize % self.shards.len()]
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
            bump(&self.stats.quarantined_pages);
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
            bump(&stats.quarantine_hits);
            return Err(StoreError::corrupt_page(id, QUARANTINED));
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
    /// the shard lock, which the miss path holds across its physical read.
    fn with_frame<R>(&self, id: PageId, f: impl FnOnce(&mut Frame) -> R) -> Result<R> {
        let _guard = ReentrancyGuard::enter(self);
        let shard = self.shard_of(id);
        bump(&shard.stats.logical_reads);
        self.check_quarantine(id, &shard.stats)?;
        let mut guard = shard.lock();
        let inner = &mut *guard;
        if let Some(&fi) = inner.map.get(&id) {
            bump(&shard.stats.pool_hits);
            inner.lru.touch(fi);
            return Ok(f(&mut inner.frames[fi as usize]));
        }

        // Miss: make room first (a dirty victim's write precedes the read
        // in the disk's op order), then read and verify into the staging
        // buffer. A failed read hands the frame back so it does not leak.
        bump(&shard.stats.pool_misses);
        let fi = self.acquire_frame(shard, inner)?;
        let ShardInner { scratch, .. } = &mut *inner;
        let read = self
            .retrying(&shard.stats, || self.disk.read_page(id, scratch))
            .and_then(|()| {
                verify_frame(scratch).map_err(|what| {
                    bump(&shard.stats.checksum_failures);
                    // Known-bad media: fail further touches fast instead
                    // of re-reading and re-failing the CRC.
                    if self.quarantine.lock().insert(id) {
                        bump(&shard.stats.quarantined_pages);
                        self.quarantine_nonempty.store(true, Ordering::Release);
                    }
                    StoreError::corrupt_page(id, what)
                })
            });
        if let Err(e) = read {
            inner.free.push(fi);
            return Err(e);
        }
        bump(&shard.stats.physical_reads);
        let fr = &mut inner.frames[fi as usize];
        fr.page = id;
        fr.dirty = false;
        fr.data.copy_from_slice(&inner.scratch[..PAGE_SIZE]);
        inner.map.insert(id, fi);
        inner.lru.touch(fi);
        Ok(f(&mut inner.frames[fi as usize]))
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
        let mut guard = shard.lock();
        let inner = &mut *guard;
        let fi = match inner.map.get(&id) {
            Some(&fi) => fi,
            None => {
                let fi = self.acquire_frame(shard, inner)?;
                inner.frames[fi as usize].page = id;
                inner.map.insert(id, fi);
                fi
            }
        };
        let fr = &mut inner.frames[fi as usize];
        fr.data.copy_from_slice(payload);
        fr.dirty = true;
        inner.lru.touch(fi);
        drop(guard);
        // A full-frame rewrite replaces whatever was corrupt: lift the
        // quarantine so recovery can put repaired pages back in service.
        if self.quarantine_nonempty.load(Ordering::Acquire) {
            let mut set = self.quarantine.lock();
            set.remove(&id);
            if set.is_empty() {
                self.quarantine_nonempty.store(false, Ordering::Release);
            }
        }
        Ok(())
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
                .filter(|(_, fr)| fr.dirty && fr.page != crate::INVALID_PAGE)
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
            if inner.frames[i].dirty {
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
    /// with an empty cache.
    pub fn clear(&self) -> Result<()> {
        self.assert_not_reentrant();
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
        self.shards.iter().fold(
            self.stats.physical_reads.load(Ordering::Relaxed),
            |acc, shard| acc + shard.stats.physical_reads.load(Ordering::Relaxed),
        )
    }

    /// Zeroes the I/O counters of every shard.
    pub fn reset_stats(&self) {
        self.stats.reset();
        for shard in self.shards.iter() {
            shard.stats.reset();
        }
    }

    /// Runs a physical operation under the retry policy — the calling
    /// thread's scoped one ([`RetryScope`]), else the default:
    /// transient failures are re-attempted (counting each re-attempt in
    /// `stats`) with linear backoff; anything else returns immediately.
    fn retrying<T>(&self, stats: &IoStats, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let policy = SCOPED_RETRY.get().unwrap_or_default();
        let max_attempts = policy.max_attempts.max(1);
        let mut attempt = 1;
        loop {
            match op() {
                Err(e) if attempt < max_attempts && e.is_transient() => {
                    bump(&stats.retries);
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
        bump(&stats.physical_writes);
        Ok(())
    }

    /// Finds a free frame for a page about to become resident, evicting
    /// the shard's LRU page first when the shard is at capacity. Every
    /// resident frame is on the LRU list, so a full shard always has a
    /// victim and the frame vector never outgrows the budget.
    fn acquire_frame(&self, shard: &Shard, inner: &mut ShardInner) -> Result<u32> {
        if inner.map.len() >= inner.capacity {
            self.evict_one(shard, inner)?;
        }
        let fi = match inner.free.pop() {
            Some(fi) => fi,
            None => {
                inner.frames.push(Frame::empty());
                inner.frames.len() as u32 - 1
            }
        };
        debug_assert!(
            inner.map.len() < inner.capacity && inner.frames.len() <= inner.capacity,
            "shard over its frame budget"
        );
        Ok(fi)
    }

    /// Evicts the shard's least-recently-used page, flushing it
    /// if dirty. Returns whether a victim existed. When the flush fails the
    /// victim stays resident, dirty and back at the cold end of the LRU
    /// list, so a later eviction (or [`clear`](Self::clear)) retries it.
    fn evict_one(&self, shard: &Shard, inner: &mut ShardInner) -> Result<bool> {
        let Some(victim) = inner.lru.pop_lru() else {
            return Ok(false);
        };
        let ShardInner {
            frames,
            scratch,
            map,
            free,
            lru,
            ..
        } = &mut *inner;
        let frame = &mut frames[victim as usize];
        if frame.dirty {
            if let Err(e) = self.write_frame(&shard.stats, frame.page, &frame.data, scratch) {
                lru.push_cold(victim);
                return Err(e);
            }
            frame.dirty = false;
        }
        bump(&shard.stats.evictions);
        map.remove(&frame.page);
        frame.page = crate::INVALID_PAGE;
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
        let _scope = RetryScope::enter(Some(RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }));
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
    fn scoped_retry_policy_is_per_thread_and_restored() {
        let disk = FaultyDisk::unlimited(MemDisk::new());
        disk.inject_at(3, InjectedFault::Transient);
        let p = BufferPool::new(disk, 1);
        let a = p.allocate().unwrap();
        p.with_page_mut(a, |b| b[0] = 9).unwrap();
        let _b = p.allocate().unwrap();
        let once = RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        };
        // The scope surfaces a transient the default policy retries.
        let scope = RetryScope::enter(Some(once));
        assert!(matches!(
            p.with_page(a, |_| ()),
            Err(StoreError::Injected { transient: true })
        ));
        drop(scope);
        assert_eq!(SCOPED_RETRY.get(), None, "scope ends on drop");
        let unwound = std::panic::catch_unwind(|| {
            let _scope = RetryScope::enter(Some(once));
            panic!()
        });
        assert!(unwound.is_err());
        assert_eq!(SCOPED_RETRY.get(), None, "scope ends on unwind");
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
    fn failed_eviction_write_keeps_victim_evictable() {
        // Regression: a failed write-back used to count an eviction and
        // leave the victim mapped but in neither the LRU nor the free
        // list, so `clear` skipped it and it stayed a hit.
        let disk = Arc::new(FaultyDisk::unlimited(MemDisk::new()));
        let p = BufferPool::with_shards(Arc::clone(&disk), 1, 1);
        let _scope = RetryScope::enter(Some(RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }));
        let a = p.allocate().unwrap();
        let b = p.allocate().unwrap(); // evicts `a` (write-back succeeds)
        p.with_page_mut(b, |buf| buf[0] = 7).unwrap();
        p.reset_stats();
        disk.inject_at(disk.op_count(), InjectedFault::Transient);
        assert!(matches!(
            p.with_page(a, |_| ()),
            Err(StoreError::Injected { transient: true })
        ));
        assert_eq!(p.stats().evictions, 0, "the eviction did not happen");
        // `b` is still the (dirty) victim: clearing writes it back and
        // leaves the pool cold.
        p.clear().unwrap();
        let s = p.stats();
        assert_eq!((s.evictions, s.physical_writes), (1, 1));
        p.reset_stats();
        assert_eq!(p.with_page(b, |buf| buf[0]).unwrap(), 7);
        let s = p.stats();
        assert_eq!((s.pool_hits, s.pool_misses), (0, 1), "clear left b cold");
    }

    #[test]
    fn failed_reads_leave_nothing_resident() {
        let mem = Arc::new(MemDisk::new());
        let p = BufferPool::with_shards(Arc::clone(&mem), 1, 1);
        let id = p.allocate().unwrap();
        p.clear().unwrap();
        damage(&mem, id);
        let resident = |p: &BufferPool| p.shards[0].lock().map.len();
        assert!(p.with_page(id, |_| ()).is_err());
        assert_eq!(resident(&p), 0, "a failed load publishes no frame");
        p.clear_quarantine();
        assert!(p.with_page(id, |_| ()).is_err());
        assert_eq!(resident(&p), 0);
        // The one frame is free again: a healthy page faults into it.
        let fresh = p.allocate().unwrap();
        assert_eq!(p.with_page(fresh, |b| b[0]).unwrap(), 0);
        assert_eq!(p.shards[0].lock().frames.len(), 1, "within the budget");
    }
}
