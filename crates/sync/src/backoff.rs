//! Spin-then-yield backoff and cache-line padding, in both personalities.
//!
//! Built on the facade's own [`hint`](crate::hint) and
//! [`thread`](crate::thread), so under `--cfg bohm_modelcheck` every spin
//! and yield is a scheduling point.

use std::ops::{Deref, DerefMut};

/// Pads and aligns a value to 128 bytes (two x86-64 cache lines, for the
/// adjacent-line prefetcher).
#[derive(Default, Debug)]
#[repr(align(128))]
pub struct CachePadded<T> {
    value: T,
}

impl<T> CachePadded<T> {
    pub const fn new(value: T) -> Self {
        Self { value }
    }

    pub fn into_inner(self) -> T {
        self.value
    }
}

impl<T> Deref for CachePadded<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T> DerefMut for CachePadded<T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.value
    }
}

impl<T> From<T> for CachePadded<T> {
    fn from(value: T) -> Self {
        Self::new(value)
    }
}

const SPIN_LIMIT: u32 = 6;
/// Under the model checker a waiter escalates to parking after two probes:
/// a spin-then-park loop that yields eleven times first (each yield
/// demoting it below every other model thread) practically never reaches
/// its park path before the peer has finished, and the park path's lost
/// wakeups are exactly what the bounded exploration is for.
const YIELD_LIMIT: u32 = if cfg!(bohm_modelcheck) { 1 } else { 10 };

/// Exponential spin/yield backoff for optimistic retry loops.
pub struct Backoff {
    step: std::cell::Cell<u32>,
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

impl Backoff {
    pub fn new() -> Self {
        Self {
            step: std::cell::Cell::new(0),
        }
    }

    /// Spin-only backoff (for lock-free retries that are about to succeed).
    pub fn spin(&self) {
        // Under the model checker one scheduling point replaces the whole
        // pause burst: burning 2^step virtual steps would only shrink the
        // schedules a bounded exploration can reach.
        #[cfg(bohm_modelcheck)]
        crate::hint::spin_loop();
        #[cfg(not(bohm_modelcheck))]
        for _ in 0..1u32 << self.step.get().min(SPIN_LIMIT) {
            crate::hint::spin_loop();
        }
        if self.step.get() <= SPIN_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Spin first, then yield the thread (for blocking-ish waits).
    pub fn snooze(&self) {
        #[cfg(bohm_modelcheck)]
        crate::thread::yield_now();
        #[cfg(not(bohm_modelcheck))]
        if self.step.get() <= SPIN_LIMIT {
            for _ in 0..1u32 << self.step.get() {
                crate::hint::spin_loop();
            }
        } else {
            crate::thread::yield_now();
        }
        if self.step.get() <= YIELD_LIMIT {
            self.step.set(self.step.get() + 1);
        }
    }

    /// Has the backoff escalated to the point where parking (or giving up)
    /// beats further spinning?
    pub fn is_completed(&self) -> bool {
        self.step.get() > YIELD_LIMIT
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_padded_is_aligned_and_transparent() {
        let p = CachePadded::new(7u64);
        assert_eq!(*p, 7);
        assert_eq!(std::mem::align_of::<CachePadded<u8>>(), 128);
        assert_eq!(CachePadded::new(3u32).into_inner(), 3);
    }

    #[test]
    fn backoff_completes_after_escalation() {
        let b = Backoff::new();
        assert!(!b.is_completed());
        for _ in 0..32 {
            b.snooze();
        }
        assert!(b.is_completed());
    }
}
