//! Instrumented `Mutex` / `Condvar`, API-compatible with the
//! `parking_lot` surface the normal personality re-exports.
//!
//! On a model thread the lock state is *virtual*: acquisition, blocking and
//! hand-off are scheduler decisions, and lock/unlock carry acquire/release
//! vector-clock edges exactly like the real primitives would. Off a model
//! thread (or with no execution active) the types fall back to real
//! `std::sync` primitives so ordinary test suites keep working under the
//! `bohm_modelcheck` cfg.

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{Condvar as StdCondvar, Mutex as StdMutex, PoisonError};

use super::rt;
use super::rt::LockMeta;

// ---------------------------------------------------------------------------
// Mutex
// ---------------------------------------------------------------------------

/// Instrumented mutex (see module docs).
pub struct Mutex<T: ?Sized> {
    meta: StdMutex<LockMeta>,
    raw: StdMutex<()>,
    v: std::cell::UnsafeCell<T>,
}

// SAFETY: the payload is only reachable through a guard, and a guard exists
// only while either the real `raw` mutex or the virtual (scheduler-enforced,
// one-thread-runs-at-a-time) lock state grants exclusive access.
unsafe impl<T: ?Sized + Send> Send for Mutex<T> {}
// SAFETY: as above — `&Mutex<T>` only hands out the payload under exclusion.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// RAII guard for [`Mutex`].
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    raw: Option<std::sync::MutexGuard<'a, ()>>,
    model: bool,
}

impl<T> Mutex<T> {
    /// Create a new mutex.
    pub const fn new(value: T) -> Self {
        Self {
            meta: StdMutex::new(LockMeta::new()),
            raw: StdMutex::new(()),
            v: std::cell::UnsafeCell::new(value),
        }
    }

    /// Consume the mutex, returning the payload.
    pub fn into_inner(self) -> T {
        self.v.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    fn key(&self) -> usize {
        std::ptr::from_ref(&self.meta) as usize
    }

    /// Acquire the lock, blocking (virtually, on a model thread) until free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if rt::on_model_thread() {
            rt::lock_acquire(&self.meta, self.key());
            MutexGuard {
                lock: self,
                raw: None,
                model: true,
            }
        } else {
            MutexGuard {
                lock: self,
                raw: Some(self.raw.lock().unwrap_or_else(PoisonError::into_inner)),
                model: false,
            }
        }
    }

    /// Acquire the lock if it is free right now.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        if rt::on_model_thread() {
            rt::lock_try_acquire(&self.meta).then(|| MutexGuard {
                lock: self,
                raw: None,
                model: true,
            })
        } else {
            match self.raw.try_lock() {
                Ok(g) => Some(MutexGuard {
                    lock: self,
                    raw: Some(g),
                    model: false,
                }),
                Err(std::sync::TryLockError::Poisoned(p)) => Some(MutexGuard {
                    lock: self,
                    raw: Some(p.into_inner()),
                    model: false,
                }),
                Err(std::sync::TryLockError::WouldBlock) => None,
            }
        }
    }

    /// Exclusive access through an exclusive reference (no locking needed).
    pub fn get_mut(&mut self) -> &mut T {
        self.v.get_mut()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_tuple("Mutex").field(&&*g).finish(),
            None => f.write_str("Mutex(<locked>)"),
        }
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: holding the guard means holding either the raw mutex or
        // the virtual lock; both grant exclusive payload access.
        unsafe { &*self.lock.v.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref` — the guard proves exclusive access.
        unsafe { &mut *self.lock.v.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if self.model {
            rt::lock_release(&self.lock.meta, self.lock.key());
        }
        // A raw guard (fallback path) releases itself.
    }
}

// ---------------------------------------------------------------------------
// Condvar
// ---------------------------------------------------------------------------

/// Instrumented condition variable. There are no timed waits: a model
/// thread that waits is woken by a notify or not at all, so a lost wake-up
/// shows as a deadlock.
#[derive(Default)]
pub struct Condvar {
    raw: StdCondvar,
}

impl Condvar {
    /// Create a new condition variable.
    pub const fn new() -> Self {
        Self {
            raw: StdCondvar::new(),
        }
    }

    fn key(&self) -> usize {
        std::ptr::from_ref(&self.raw) as usize
    }

    /// Block until notified, releasing `guard`'s mutex while waiting.
    pub fn wait<T: ?Sized>(&self, guard: &mut MutexGuard<'_, T>) {
        if guard.model {
            rt::condvar_wait(&guard.lock.meta, guard.lock.key(), self.key());
        } else {
            let g = guard.raw.take().expect("guard present outside wait");
            guard.raw = Some(self.raw.wait(g).unwrap_or_else(PoisonError::into_inner));
        }
    }

    /// Wake one waiter (a seeded scheduling decision under the model).
    pub fn notify_one(&self) {
        rt::condvar_notify(self.key(), false);
        self.raw.notify_one();
    }

    /// Wake every waiter.
    pub fn notify_all(&self) {
        rt::condvar_notify(self.key(), true);
        self.raw.notify_all();
    }
}
