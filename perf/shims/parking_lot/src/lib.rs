//! Stand-in for `parking_lot`: the `Mutex` surface `ann-store` uses, over
//! `std::sync::Mutex`. Like parking_lot it has no poisoning: a guard taken
//! after a panic in another holder is returned as is.

use std::sync::{Mutex as StdMutex, TryLockError};

pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

#[derive(Debug, Default)]
pub struct Mutex<T>(StdMutex<T>);

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(StdMutex::new(value))
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }

    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(TryLockError::Poisoned(e)) => Some(e.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(|e| e.into_inner())
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(|e| e.into_inner())
    }
}
