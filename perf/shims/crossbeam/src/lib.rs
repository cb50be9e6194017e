//! Stand-in for `crossbeam`: `thread::scope` / `Scope::spawn` /
//! `ScopedJoinHandle::join`, the one call site in `ann-core`'s `par.rs`,
//! over `std::thread::scope`.

pub mod thread {
    use std::thread as st;

    pub struct Scope<'scope, 'env: 'scope>(&'scope st::Scope<'scope, 'env>);

    pub struct ScopedJoinHandle<'scope, T>(st::ScopedJoinHandle<'scope, T>);

    impl<'scope, 'env> Scope<'scope, 'env> {
        pub fn spawn<F, T>(&self, f: F) -> ScopedJoinHandle<'scope, T>
        where
            F: FnOnce(&Scope<'scope, 'env>) -> T + Send + 'scope,
            T: Send + 'scope,
        {
            let inner = self.0;
            ScopedJoinHandle(inner.spawn(move || f(&Scope(inner))))
        }
    }

    impl<T> ScopedJoinHandle<'_, T> {
        pub fn join(self) -> st::Result<T> {
            self.0.join()
        }
    }

    /// Runs `f` with a scope whose threads are all joined before this
    /// returns. crossbeam reports a panic of an unjoined thread as `Err`;
    /// std re-raises it, so this only ever returns `Ok`.
    pub fn scope<'env, F, R>(f: F) -> st::Result<R>
    where
        F: for<'scope> FnOnce(&Scope<'scope, 'env>) -> R,
    {
        Ok(st::scope(|s| f(&Scope(s))))
    }
}
