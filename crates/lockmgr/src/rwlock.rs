//! A word-sized reader/writer spin lock.
//!
//! One `AtomicU32` per record: bit 31 is the writer flag, bits 0..31 count
//! readers. Writers wait for readers to drain; acquisition spins with
//! `bohm_sync::Backoff` (spin → yield), which is the non-blocking
//! thread model the paper's baselines use ("instead of yielding control to
//! another thread, the thread temporarily stops working", §4 — at lock
//! granularity our waits are short because transactions are short and
//! deadlock-free ordering bounds hold times).

// HOT-PATH: taken per record access under 2PL; no clocks, no syscalls,
// no I/O (enforced by the lint).

use bohm_sync::atomic::{AtomicU32, Ordering};
use bohm_sync::Backoff;

const WRITER: u32 = 1 << 31;

/// Reader/writer spin lock in a single word.
#[derive(Default)]
pub struct RwSpin {
    state: AtomicU32,
}

impl RwSpin {
    pub const fn new() -> Self {
        Self {
            state: AtomicU32::new(0),
        }
    }

    /// Try to add a reader; fails if a writer holds the lock.
    #[inline]
    pub fn try_lock_shared(&self) -> bool {
        // RELAXED: optimistic probe only — the Acquire CAS below is the
        // edge that actually takes the reader slot.
        let s = self.state.load(Ordering::Relaxed);
        if s & WRITER != 0 {
            return false;
        }
        self.state
            // RELAXED: failure-order only; failure reads nothing protected.
            .compare_exchange_weak(s, s + 1, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Spin until a reader slot is acquired.
    #[inline]
    pub fn lock_shared(&self) {
        let backoff = Backoff::new();
        while !self.try_lock_shared() {
            backoff.snooze();
        }
    }

    /// Try to take the writer flag; fails if any reader or writer is present.
    #[inline]
    pub fn try_lock_exclusive(&self) -> bool {
        self.state
            // RELAXED: failure-order only; the caller just retries.
            .compare_exchange(0, WRITER, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// Spin until exclusive ownership is acquired.
    #[inline]
    pub fn lock_exclusive(&self) {
        let backoff = Backoff::new();
        while !self.try_lock_exclusive() {
            backoff.snooze();
        }
    }

    /// Release a reader slot.
    #[inline]
    pub fn unlock_shared(&self) {
        let prev = self.state.fetch_sub(1, Ordering::Release);
        debug_assert!(prev & !WRITER > 0, "unlock_shared without a reader");
    }

    /// Release the writer flag.
    #[inline]
    pub fn unlock_exclusive(&self) {
        let prev = self.state.swap(0, Ordering::Release);
        debug_assert_eq!(prev, WRITER, "unlock_exclusive without the writer");
    }

    /// Diagnostic: current raw state (racy).
    pub fn raw(&self) -> u32 {
        // RELAXED: diagnostic snapshot; declared racy.
        self.state.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn readers_share() {
        let l = RwSpin::new();
        assert!(l.try_lock_shared());
        assert!(l.try_lock_shared());
        assert!(!l.try_lock_exclusive());
        l.unlock_shared();
        assert!(!l.try_lock_exclusive());
        l.unlock_shared();
        assert!(l.try_lock_exclusive());
    }

    #[test]
    fn writer_excludes_everyone() {
        let l = RwSpin::new();
        assert!(l.try_lock_exclusive());
        assert!(!l.try_lock_shared());
        assert!(!l.try_lock_exclusive());
        l.unlock_exclusive();
        assert!(l.try_lock_shared());
    }

    #[test]
    fn exclusive_protects_a_counter() {
        use bohm_sync::atomic::{AtomicU64, Ordering as O};
        let l = Arc::new(RwSpin::new());
        // Relaxed load+store is a data race *unless* the lock serializes the
        // critical sections — losing increments would expose a broken lock.
        let counter = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = Arc::clone(&l);
            let c = Arc::clone(&counter);
            handles.push(std::thread::spawn(move || {
                for _ in 0..10_000 {
                    l.lock_exclusive();
                    let v = c.load(O::Relaxed);
                    c.store(v + 1, O::Relaxed);
                    l.unlock_exclusive();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(counter.load(O::SeqCst), 80_000);
    }

    #[test]
    fn readers_drain_before_writer_enters() {
        use bohm_sync::atomic::{AtomicBool, Ordering as O};
        let l = Arc::new(RwSpin::new());
        let writer_in = Arc::new(AtomicBool::new(false));
        l.lock_shared();
        let (l2, w2) = (Arc::clone(&l), Arc::clone(&writer_in));
        let h = std::thread::spawn(move || {
            l2.lock_exclusive();
            w2.store(true, O::SeqCst);
            l2.unlock_exclusive();
        });
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert!(
            !writer_in.load(O::SeqCst),
            "writer entered with reader held"
        );
        l.unlock_shared();
        h.join().unwrap();
        assert!(writer_in.load(O::SeqCst));
    }
}
