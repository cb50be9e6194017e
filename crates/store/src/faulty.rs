//! Fault injection for testing: a [`DiskBackend`] decorator with a
//! configurable failure model.
//!
//! Index builds and traversals must propagate storage errors as
//! `Result`s — never panic, never corrupt previously-written state. The
//! test suites drive every public API over a `FaultyDisk` to verify
//! exactly that. Two mechanisms compose:
//!
//! * an **operation budget** (the original model): after `budget`
//!   successful operations every further operation fails permanently,
//!   simulating a device that dies and stays dead;
//! * a **fault schedule**: specific operation indices are mapped to an
//!   [`InjectedFault`] — a transient error that succeeds on retry, a torn
//!   write that persists only a prefix of the frame and then "crashes" the
//!   device, a silent bit flip, or an outright crash. Schedules are plain
//!   `(index, fault)` pairs, so sweeps are deterministic and reproducible
//!   from a seed.
//!
//! Injected failures surface as [`StoreError::Injected`] so tests can
//! assert *which* failure surfaced, distinguishable from real OS errors
//! and from checksum-detected corruption.

use crate::sync::Mutex;
use crate::{DiskBackend, PageId, Result, StoreError, FRAME_SIZE};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// A fault to inject at one scheduled operation index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InjectedFault {
    /// Fail this attempt with a transient error; the retried operation
    /// succeeds. Models interrupted syscalls and momentary device stalls.
    Transient,
    /// On a write: persist only the first `persist` bytes of the frame
    /// (the rest keeps its previous contents), then crash the device.
    /// Models power loss mid-write. On non-write operations this behaves
    /// like [`InjectedFault::Crash`].
    TornWrite {
        /// Bytes of the frame that reach the media before the crash.
        persist: usize,
    },
    /// On a write: flip one bit (index taken modulo the frame length in
    /// bits) and report success. On a read: flip the bit in the returned
    /// buffer. Silent — only the pool's checksum verification can catch
    /// it. Models media bit rot.
    BitFlip {
        /// Bit index within the frame.
        bit: usize,
    },
    /// Fail this and every subsequent operation permanently. Models a
    /// process or device crash; tests then "reopen" by building a fresh
    /// pool over the surviving inner backend.
    Crash,
}

/// Wraps a backend and injects faults according to a budget and a
/// deterministic per-operation schedule.
pub struct FaultyDisk<B: DiskBackend> {
    inner: B,
    budget: AtomicU64,
    ops: AtomicU64,
    crashed: AtomicBool,
    plan: Mutex<BTreeMap<u64, InjectedFault>>,
}

/// The outcome [`FaultyDisk`] decided for one operation.
enum Decision {
    Proceed,
    ProceedBitFlip(usize),
    Torn(usize),
    Fail(StoreError),
}

impl<B: DiskBackend> FaultyDisk<B> {
    /// Allows `budget` successful operations (reads + writes +
    /// allocations) before failing everything; `u64::MAX` is effectively
    /// unlimited.
    pub fn new(inner: B, budget: u64) -> Self {
        FaultyDisk {
            inner,
            budget: AtomicU64::new(budget),
            ops: AtomicU64::new(0),
            crashed: AtomicBool::new(false),
            plan: Mutex::new(BTreeMap::new()),
        }
    }

    /// A disk with no budget limit; faults come only from the schedule.
    pub fn unlimited(inner: B) -> Self {
        Self::new(inner, u64::MAX)
    }

    /// Schedules `fault` to fire on the `op`-th operation (0-based, in
    /// the order operations reach this disk). Scheduling over an existing
    /// entry replaces it.
    pub fn inject_at(&self, op: u64, fault: InjectedFault) {
        self.plan.lock().insert(op, fault);
    }

    /// Removes all scheduled faults (the budget and crashed state stay).
    pub fn clear_faults(&self) {
        self.plan.lock().clear();
    }

    /// Number of operations observed so far (including failed ones).
    pub fn op_count(&self) -> u64 {
        self.ops.load(Ordering::Relaxed)
    }

    /// Remaining successful operations under the budget.
    pub fn remaining(&self) -> u64 {
        self.budget.load(Ordering::Relaxed)
    }

    /// Decides the fate of the current operation; `is_write` selects the
    /// write-specific behavior of torn writes and bit flips.
    fn decide(&self, is_write: bool) -> Decision {
        let op = self.ops.fetch_add(1, Ordering::Relaxed);
        if self.crashed.load(Ordering::Relaxed) {
            return Decision::Fail(StoreError::Injected { transient: false });
        }
        if let Some(fault) = self.plan.lock().remove(&op) {
            match fault {
                InjectedFault::Transient => {
                    return Decision::Fail(StoreError::Injected { transient: true });
                }
                InjectedFault::TornWrite { persist } if is_write => {
                    self.crashed.store(true, Ordering::Relaxed);
                    return Decision::Torn(persist.min(FRAME_SIZE));
                }
                InjectedFault::TornWrite { .. } | InjectedFault::Crash => {
                    self.crashed.store(true, Ordering::Relaxed);
                    return Decision::Fail(StoreError::Injected { transient: false });
                }
                InjectedFault::BitFlip { bit } => {
                    return Decision::ProceedBitFlip(bit % (FRAME_SIZE * 8));
                }
            }
        }
        match self.charge() {
            Ok(()) => Decision::Proceed,
            Err(e) => Decision::Fail(e),
        }
    }

    fn charge(&self) -> Result<()> {
        // Decrement-if-positive; at zero, fail.
        let mut now = self.budget.load(Ordering::Relaxed);
        loop {
            if now == 0 {
                return Err(StoreError::Injected { transient: false });
            }
            match self.budget.compare_exchange_weak(
                now,
                now - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(()),
                Err(v) => now = v,
            }
        }
    }
}

impl<B: DiskBackend> DiskBackend for FaultyDisk<B> {
    fn read_page(&self, id: PageId, buf: &mut [u8]) -> Result<()> {
        match self.decide(false) {
            Decision::Proceed => self.inner.read_page(id, buf),
            Decision::ProceedBitFlip(bit) => {
                self.inner.read_page(id, buf)?;
                buf[bit / 8] ^= 1 << (bit % 8);
                Ok(())
            }
            Decision::Torn(_) => unreachable!("torn faults only fire on writes"),
            Decision::Fail(e) => Err(e),
        }
    }

    fn write_page(&self, id: PageId, buf: &[u8]) -> Result<()> {
        match self.decide(true) {
            Decision::Proceed => self.inner.write_page(id, buf),
            Decision::ProceedBitFlip(bit) => {
                let mut damaged = buf.to_vec();
                damaged[bit / 8] ^= 1 << (bit % 8);
                self.inner.write_page(id, &damaged)
            }
            Decision::Torn(persist) => {
                // Persist a prefix of the new frame over the old contents,
                // then report the crash.
                let mut frame = vec![0u8; FRAME_SIZE];
                self.inner.read_page(id, &mut frame)?;
                frame[..persist].copy_from_slice(&buf[..persist]);
                self.inner.write_page(id, &frame)?;
                Err(StoreError::Injected { transient: false })
            }
            Decision::Fail(e) => Err(e),
        }
    }

    fn allocate(&self) -> Result<PageId> {
        match self.decide(false) {
            Decision::Proceed | Decision::ProceedBitFlip(_) => self.inner.allocate(),
            Decision::Torn(_) => unreachable!("torn faults only fire on writes"),
            Decision::Fail(e) => Err(e),
        }
    }

    fn num_pages(&self) -> PageId {
        self.inner.num_pages()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BufferPool, MemDisk, PAGE_SIZE};
    use std::sync::Arc;

    #[test]
    fn fails_after_budget() {
        let disk = FaultyDisk::new(MemDisk::new(), 2);
        assert!(disk.allocate().is_ok());
        assert!(disk.allocate().is_ok());
        assert!(matches!(
            disk.allocate(),
            Err(StoreError::Injected { transient: false })
        ));
        assert_eq!(disk.remaining(), 0);
    }

    #[test]
    fn pool_surfaces_injected_faults() {
        // Budget for the allocation plus one eviction write, then dead.
        let pool = BufferPool::new(FaultyDisk::new(MemDisk::new(), 3), 1);
        let a = pool.allocate().unwrap(); // 1 op
        pool.with_page_mut(a, |b| b[0] = 1).unwrap(); // cached, no disk op
        let b = pool.allocate().unwrap(); // 2 ops + eviction write = 3
        let _ = b;
        // Everything after the budget errors instead of panicking.
        assert!(pool.allocate().is_err());
        assert!(pool.with_page(a, |_| ()).is_err(), "fault must surface");
    }

    #[test]
    fn transient_fault_succeeds_on_retry() {
        let disk = FaultyDisk::unlimited(MemDisk::new());
        let id = disk.allocate().unwrap();
        disk.inject_at(disk.op_count(), InjectedFault::Transient);
        let frame = vec![7u8; FRAME_SIZE];
        assert!(matches!(
            disk.write_page(id, &frame),
            Err(StoreError::Injected { transient: true })
        ));
        disk.write_page(id, &frame).unwrap();
        let mut back = vec![0u8; FRAME_SIZE];
        disk.read_page(id, &mut back).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn torn_write_persists_prefix_then_crashes() {
        let mem = Arc::new(MemDisk::new());
        let disk = FaultyDisk::unlimited(Arc::clone(&mem));
        let id = disk.allocate().unwrap();
        disk.write_page(id, &vec![1u8; FRAME_SIZE]).unwrap();
        disk.inject_at(disk.op_count(), InjectedFault::TornWrite { persist: 100 });
        let err = disk.write_page(id, &vec![2u8; FRAME_SIZE]);
        assert!(matches!(
            err,
            Err(StoreError::Injected { transient: false })
        ));
        assert!(disk.crashed.load(Ordering::Relaxed));
        // Every later operation fails too.
        assert!(disk.allocate().is_err());
        // The surviving media holds the torn mix.
        let mut frame = vec![0u8; FRAME_SIZE];
        mem.read_page(id, &mut frame).unwrap();
        assert!(frame[..100].iter().all(|&b| b == 2));
        assert!(frame[100..].iter().all(|&b| b == 1));
    }

    #[test]
    fn bit_flip_is_silent_and_persisted() {
        let mem = Arc::new(MemDisk::new());
        let disk = FaultyDisk::unlimited(Arc::clone(&mem));
        let id = disk.allocate().unwrap();
        let bit = 8 * (PAGE_SIZE / 2) + 3;
        disk.inject_at(disk.op_count(), InjectedFault::BitFlip { bit });
        disk.write_page(id, &vec![0u8; FRAME_SIZE]).unwrap();
        let mut frame = vec![0u8; FRAME_SIZE];
        mem.read_page(id, &mut frame).unwrap();
        assert_eq!(frame[PAGE_SIZE / 2], 1 << 3);
    }
}
