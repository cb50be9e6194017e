//! The workspace's one mutex: [`std::sync::Mutex`] without poisoning.
//!
//! Every structure guarded here is updated so that it is valid at each
//! step (counters, maps and queues whose invariants hold between any two
//! statements), so a panic in one holder — an injected fault in a test, a
//! worker's propagated panic — must not turn every later access into a
//! second panic. `lock` therefore hands out the guard whether or not an
//! earlier holder panicked. The guard *is* the std guard, so it works with
//! [`std::sync::Condvar`]; recover a poisoned wait with [`unpoisoned`].

use std::sync::{LockResult, TryLockError};

/// Guard returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

/// A mutual-exclusion lock that ignores poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// The value of a std lock or condvar-wait result, poisoned or not.
pub fn unpoisoned<G>(result: LockResult<G>) -> G {
    result.unwrap_or_else(|e| e.into_inner())
}

impl<T> Mutex<T> {
    /// Wraps `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Blocks until the lock is held.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        unpoisoned(self.0.lock())
    }

    /// The guard if the lock is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning its data.
    pub fn into_inner(self) -> T {
        unpoisoned(self.0.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_succeeds_and_sees_the_data_after_a_holder_panicked() {
        let m = Arc::new(Mutex::new(vec![1, 2]));
        let holder = Arc::clone(&m);
        let died = std::thread::spawn(move || {
            let mut g = holder.lock();
            g.push(3);
            panic!("holder dies with the lock held");
        })
        .join();
        assert!(died.is_err());
        assert_eq!(*m.try_lock().expect("free after the panic"), [1, 2, 3]);
        m.lock().push(4);
        let m = Arc::into_inner(m).expect("sole owner");
        assert_eq!(m.into_inner(), [1, 2, 3, 4]);
    }
}
