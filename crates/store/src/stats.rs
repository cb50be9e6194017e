//! I/O accounting, and the one way a counter set is declared.

use std::fmt::{Display, Write};
use std::sync::atomic::{AtomicU64, Ordering};

/// Declares a counter set once: a struct with one `pub` field of type
/// `$ty` per counter, and `counters()` / `counters_mut()`, which pair each
/// field with its name. A counter's name is its JSON key, so every writer
/// and reader of a set iterates these pairs instead of spelling the keys.
/// Fields after a `;` are carried along but are not counters.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident $(<$t:ident>)? : $ty:ty {
            $($(#[$doc:meta])* $field:ident,)+
            $(; $($(#[$xdoc:meta])* $xvis:vis $xfield:ident: $xty:ty,)+)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $name $(<$t>)? {
            $($(#[$doc])* pub $field: $ty,)+
            $($($(#[$xdoc])* $xvis $xfield: $xty,)+)?
        }

        impl $(<$t>)? $name $(<$t>)? {
            /// Every counter with its name, in declaration order.
            pub fn counters(&self) -> [(&'static str, &$ty); [$(stringify!($field)),+].len()] {
                [$((stringify!($field), &self.$field)),+]
            }

            /// Every counter with its name, in declaration order, mutably.
            pub fn counters_mut(
                &mut self,
            ) -> [(&'static str, &mut $ty); [$(stringify!($field)),+].len()] {
                [$((stringify!($field), &mut self.$field)),+]
            }
        }
    };
}

/// Writes `(name, value)` pairs as the members of a JSON object,
/// `"name":value`, comma-separated and without the braces.
pub fn write_json_members<V: Display>(out: &mut String, members: &[(&'static str, V)]) {
    for (i, (name, value)) in members.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        // A `String` sink cannot fail.
        let _ = write!(out, "{sep}\"{name}\":{value}");
    }
}

counters! {
    /// The buffer pool's I/O counters: live and shared as [`IoStats`]
    /// (atomics the pool increments), copied out as [`IoSnapshot`].
    ///
    /// "Logical" reads are page requests served from anywhere; "physical"
    /// reads and writes are the subset that actually reached the disk
    /// backend — physical reads are the buffer-pool misses that the
    /// paper's I/O bars measure. `retries` counts re-attempts of transient
    /// physical failures under the pool's [`crate::RetryPolicy`];
    /// `checksum_failures` counts frames that came back from the backend
    /// failing CRC verification.
    ///
    /// The sharded pool additionally keeps per-shard cache counters:
    /// `pool_hits` / `pool_misses` split the logical reads by whether the
    /// page was resident, and `lock_contention` counts accesses that found
    /// their shard lock already held by another thread (each such event is
    /// one blocked lock acquisition — the scalability signal the
    /// thread-scaling benchmark tracks). `evictions` counts resident pages
    /// pushed out to make room, which together with `pool_misses` shows
    /// whether a phase is thrashing the pool or merely cold.
    ///
    /// Declaration order is wire order: every counter, in this order, is a
    /// query outcome's and a trace phase's `io` object.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct IoCounters<T>: T {
        /// Page requests served (hit or miss).
        logical_reads,
        /// Buffer-pool misses that read from the backend.
        physical_reads,
        /// Dirty-page evictions and flushes that wrote to the backend.
        physical_writes,
        /// Page accesses served by a resident, decoded-and-verified frame.
        pool_hits,
        /// Page accesses that had to fault the page in from the backend
        /// (counted even when the physical read then fails).
        pool_misses,
        /// Resident pages evicted to make room (dirty victims additionally
        /// count one `physical_writes`).
        evictions,
        /// Transient-fault re-attempts made under the retry policy.
        retries,
        /// Frames read from the backend that failed CRC verification.
        checksum_failures,
        /// Shard-lock acquisitions that found the lock already held.
        lock_contention,
        /// Pages added to the corrupt-page quarantine set (each failed
        /// verification quarantines its page exactly once).
        quarantined_pages,
        /// Accesses rejected fast because the page was already quarantined.
        quarantine_hits,
    }
}

/// Shared atomic I/O counters, incremented by the buffer pool (see
/// [`IoCounters`]).
pub type IoStats = IoCounters<AtomicU64>;

/// A point-in-time copy of [`IoStats`].
pub type IoSnapshot = IoCounters<u64>;

/// Counts one event on a live counter.
pub(crate) fn bump(counter: &AtomicU64) {
    counter.fetch_add(1, Ordering::Relaxed);
}

impl IoStats {
    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        let mut snap = IoSnapshot::default();
        for ((_, copy), (_, live)) in snap.counters_mut().into_iter().zip(self.counters()) {
            *copy = live.load(Ordering::Relaxed);
        }
        snap
    }

    /// Zeroes all counters (used between benchmark phases).
    pub fn reset(&self) {
        for (_, live) in self.counters() {
            live.store(0, Ordering::Relaxed);
        }
    }
}

impl IoSnapshot {
    /// Total physical page transfers.
    pub fn physical_total(&self) -> u64 {
        self.physical_reads + self.physical_writes
    }

    /// Buffer-pool hit rate in `[0, 1]`: the share of demand accesses a
    /// resident frame served. 1.0 when nothing was demanded.
    pub fn hit_rate(&self) -> f64 {
        let accesses = self.pool_hits + self.pool_misses;
        if accesses == 0 {
            return 1.0;
        }
        1.0 - self.pool_misses as f64 / accesses as f64
    }

    /// Counter-wise difference (`self - earlier`), for measuring a phase.
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        self.zip(earlier, |a, b| a - b)
    }

    /// Counter-wise sum, for folding per-shard or per-pool snapshots into
    /// one aggregate.
    pub fn merge(&self, other: &IoSnapshot) -> IoSnapshot {
        self.zip(other, |a, b| a + b)
    }

    fn zip(&self, other: &IoSnapshot, op: impl Fn(u64, u64) -> u64) -> IoSnapshot {
        let mut out = *self;
        for ((_, a), (_, b)) in out.counters_mut().into_iter().zip(other.counters()) {
            *a = op(*a, *b);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_counts() {
        let s = IoStats::default();
        for (_, live) in s.counters() {
            bump(live);
        }
        bump(&s.logical_reads);
        let snap = s.snapshot();
        assert_eq!(snap.logical_reads, 2);
        for (name, &count) in &snap.counters()[1..] {
            assert_eq!(count, 1, "{name}");
        }
        assert_eq!(snap.physical_total(), 2);
        assert_eq!(snap.hit_rate(), 0.5);
    }

    #[test]
    fn reset_zeroes() {
        let s = IoStats::default();
        bump(&s.logical_reads);
        bump(&s.retries);
        bump(&s.pool_hits);
        s.reset();
        assert_eq!(s.snapshot(), IoSnapshot::default());
        assert_eq!(s.snapshot().hit_rate(), 1.0);
    }

    #[test]
    fn since_subtracts() {
        let s = IoStats::default();
        bump(&s.logical_reads);
        let a = s.snapshot();
        for live in [
            &s.logical_reads,
            &s.physical_reads,
            &s.retries,
            &s.pool_misses,
            &s.quarantined_pages,
            &s.quarantine_hits,
        ] {
            bump(live);
        }
        let b = s.snapshot();
        let d = b.since(&a);
        assert_eq!(d.logical_reads, 1);
        assert_eq!(d.physical_reads, 1);
        assert_eq!(d.retries, 1);
        assert_eq!(d.pool_misses, 1);
        assert_eq!(d.quarantined_pages, 1);
        assert_eq!(d.quarantine_hits, 1);
        assert_eq!(d.evictions, 0);
    }

    #[test]
    fn merge_adds_fieldwise() {
        let s = IoStats::default();
        for live in [
            &s.logical_reads,
            &s.pool_hits,
            &s.quarantined_pages,
            &s.quarantine_hits,
        ] {
            bump(live);
        }
        let a = s.snapshot();
        let m = a.merge(&a);
        assert_eq!(m.logical_reads, 2);
        assert_eq!(m.pool_hits, 2);
        assert_eq!(m.physical_reads, 0);
        assert_eq!(m.quarantined_pages, 2);
        assert_eq!(m.quarantine_hits, 2);
    }
}
