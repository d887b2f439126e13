//! Vendored stand-in for the `parking_lot` crate.
//!
//! The build environment has no network access to a crates registry, so
//! external dependencies are vendored as thin shims exposing exactly the
//! API surface this workspace uses: [`Mutex`], [`RwLock`] and [`Condvar`]
//! with parking_lot's signatures (no poisoning in the lock/read/write
//! return types), backed by `std::sync`. Poisoned locks are recovered
//! transparently, matching parking_lot's behavior of not poisoning.
//!
//! As upstream, a notify is free when no thread waits: [`Condvar`]
//! counts the threads inside [`Condvar::wait`] and a notify that finds
//! none returns without a system call.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{self, PoisonError};

/// Mutual exclusion primitive; `lock()` returns the guard directly.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Self(sync::Mutex::new(value))
    }

    /// Consume the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquire the mutex, blocking until available.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        MutexGuard(Some(
            self.0.lock().unwrap_or_else(PoisonError::into_inner),
        ))
    }

    /// Try to acquire the mutex without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(g) => Some(MutexGuard(Some(g))),
            Err(sync::TryLockError::Poisoned(p)) => Some(MutexGuard(Some(p.into_inner()))),
            Err(sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// RAII guard for [`Mutex`]. The `Option` lets [`Condvar::wait`] move the
/// underlying std guard out and back while keeping parking_lot's
/// `&mut guard` calling convention.
pub struct MutexGuard<'a, T: ?Sized>(Option<sync::MutexGuard<'a, T>>);

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.0.as_ref().expect("guard taken")
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.0.as_mut().expect("guard taken")
    }
}

/// Condition variable compatible with [`MutexGuard`].
///
/// It counts its waiters: a thread adds itself while it holds the mutex,
/// before it sleeps, and removes itself once it holds the mutex again.
/// So a notifier that changed the state it signals under the same mutex
/// sees every thread that checked that state before the change, and a
/// notify that finds no waiter returns at once, without the `futex` wake
/// std's condvar makes whether or not anyone sleeps.
#[derive(Default, Debug)]
pub struct Condvar {
    cv: sync::Condvar,
    waiters: AtomicUsize,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Self {
            cv: sync::Condvar::new(),
            waiters: AtomicUsize::new(0),
        }
    }

    /// Block until notified; the guard is released while waiting and
    /// re-acquired before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.0.take().expect("guard taken");
        // Both updates happen under the mutex, so a notifier that took it
        // after this waiter checked its condition reads at least 1.
        self.waiters.fetch_add(1, Ordering::Relaxed);
        let inner = self.cv.wait(inner).unwrap_or_else(PoisonError::into_inner);
        self.waiters.fetch_sub(1, Ordering::Relaxed);
        guard.0 = Some(inner);
    }

    /// Wake one waiter; returns whether there was one to wake.
    pub fn notify_one(&self) -> bool {
        if self.waiters.load(Ordering::Relaxed) == 0 {
            return false;
        }
        self.cv.notify_one();
        true
    }

    /// Wake every waiter; returns how many there were.
    pub fn notify_all(&self) -> usize {
        let n = self.waiters.load(Ordering::Relaxed);
        if n > 0 {
            self.cv.notify_all();
        }
        n
    }
}

/// Reader-writer lock; `read()`/`write()` return guards directly.
#[derive(Default, Debug)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Create a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        Self(sync::RwLock::new(value))
    }

    /// Consume the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquire a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        RwLockReadGuard(self.0.read().unwrap_or_else(PoisonError::into_inner))
    }

    /// Acquire the exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        RwLockWriteGuard(self.0.write().unwrap_or_else(PoisonError::into_inner))
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Shared guard for [`RwLock`].
pub struct RwLockReadGuard<'a, T: ?Sized>(sync::RwLockReadGuard<'a, T>);

impl<T: ?Sized> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// Exclusive guard for [`RwLock`].
pub struct RwLockWriteGuard<'a, T: ?Sized>(sync::RwLockWriteGuard<'a, T>);

impl<T: ?Sized> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

impl<T: ?Sized> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn mutex_roundtrip() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn rwlock_many_readers() {
        let l = RwLock::new(7);
        let (a, b) = (l.read(), l.read());
        assert_eq!(*a + *b, 14);
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let p2 = pair.clone();
        let t = std::thread::spawn(move || {
            let (m, cv) = &*p2;
            let mut g = m.lock();
            while !*g {
                cv.wait(&mut g);
            }
        });
        *pair.0.lock() = true;
        pair.1.notify_all();
        t.join().unwrap();
    }

    #[test]
    fn notify_without_a_waiter_wakes_nobody() {
        let cv = Condvar::new();
        assert!(!cv.notify_one());
        assert_eq!(cv.notify_all(), 0);
    }

    /// Two threads hand a turn back and forth, each waiting on the one
    /// condvar until the turn is its own and notifying after it lets the
    /// mutex go, as the buffer pool does: a notify that skipped a thread
    /// already counted as waiting would hang it.
    #[test]
    fn condvar_ping_pong_never_hangs() {
        const HANDOFFS: usize = 4_000;
        let pair = Arc::new((Mutex::new(0usize), Condvar::new()));
        let players: Vec<_> = (0..2)
            .map(|me| {
                let pair = pair.clone();
                std::thread::spawn(move || {
                    let (m, cv) = &*pair;
                    loop {
                        let mut turn = m.lock();
                        while *turn < HANDOFFS && *turn % 2 != me {
                            cv.wait(&mut turn);
                        }
                        if *turn == HANDOFFS {
                            return;
                        }
                        *turn += 1;
                        drop(turn);
                        cv.notify_one();
                    }
                })
            })
            .collect();
        for p in players {
            p.join().unwrap();
        }
        assert_eq!(*pair.0.lock(), HANDOFFS);
        assert_eq!(pair.1.notify_all(), 0);
    }
}
