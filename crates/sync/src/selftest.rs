//! Detector self-test fixtures (`--cfg bohm_modelcheck` only).
//!
//! [`MiniRing`] is a miniature single-slot publication ring — the smallest
//! honest model of the window ring's publish/consume protocol — with a
//! deliberately breakable variant that demotes the consumer's flag load
//! from `Acquire` to `Relaxed`. Under the model checker the broken variant
//! MUST be reported as a data race (the payload read no longer
//! happens-after the payload write), and the correct variant must pass an
//! exhaustive sweep. `tests/modelcheck.rs` asserts both, plus that the
//! failing seed is stable and replayable.

use crate::atomic::{AtomicUsize, Ordering};
use crate::cell::UnsafeCell;

/// A one-slot seqlock-free publication ring: a writer stores the payload,
/// then raises a flag; readers poll the flag and read the payload.
pub struct MiniRing {
    flag: AtomicUsize,
    slot: UnsafeCell<u64>,
    /// `false` selects the broken variant: the reader's flag load is
    /// `Relaxed`, so observing the flag no longer orders the payload read
    /// after the payload write.
    acquire_loads: bool,
}

// SAFETY: the slot is written only before the Release flag store and read
// only after observing the flag — the publication protocol serializes
// access. The broken (`acquire_loads == false`) variant violates exactly
// this argument; it exists so the race detector can prove it notices.
unsafe impl Sync for MiniRing {}

impl MiniRing {
    /// Create a ring; `correct` selects Acquire (true) or Relaxed (false)
    /// consumer loads.
    pub fn new(correct: bool) -> Self {
        Self {
            flag: AtomicUsize::new(0),
            slot: UnsafeCell::new(0),
            acquire_loads: correct,
        }
    }

    /// Publish `v`: write the slot, then raise the flag (Release).
    pub fn publish(&self, v: u64) {
        // SAFETY: protocol above — the flag is still down, so no reader
        // touches the slot concurrently (in the correct variant).
        unsafe {
            self.slot.with_mut(|p| *p = v);
        }
        self.flag.store(1, Ordering::Release);
    }

    /// Consume: if the flag is up, read the slot.
    pub fn try_consume(&self) -> Option<u64> {
        let ord = if self.acquire_loads {
            Ordering::Acquire
        } else {
            // RELAXED: deliberately wrong — the seeded bug drops the
            // happens-before edge to the writer's slot store so the model
            // checker has a real race to find.
            Ordering::Relaxed
        };
        if self.flag.load(ord) == 1 {
            // SAFETY: flag == 1 means the writer finished the slot write
            // and released it — sound only with the Acquire load above.
            Some(unsafe { self.slot.with(|p| *p) })
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::MiniRing;
    use crate::atomic::{AtomicUsize, Ordering};
    use crate::model;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::Arc;

    fn publish_consume(correct: bool) {
        let ring = Arc::new(MiniRing::new(correct));
        let w = {
            let ring = Arc::clone(&ring);
            crate::thread::spawn(move || ring.publish(7))
        };
        let r = {
            let ring = Arc::clone(&ring);
            crate::thread::spawn(move || {
                if let Some(v) = ring.try_consume() {
                    assert_eq!(v, 7);
                }
            })
        };
        w.join().unwrap();
        r.join().unwrap();
    }

    /// Find the first seed whose schedule exposes the seeded bug.
    fn first_failing_seed() -> u64 {
        for seed in 1..=256 {
            let failed = catch_unwind(AssertUnwindSafe(|| {
                model::run(seed, || publish_consume(false))
            }))
            .is_err();
            if failed {
                return seed;
            }
        }
        panic!("no seed in 1..=256 exposed the dropped-Acquire race");
    }

    #[test]
    fn correct_ring_survives_exploration() {
        model::explore(
            model::Options {
                seeds: 64,
                ..Default::default()
            },
            || publish_consume(true),
        );
    }

    #[test]
    fn correct_ring_survives_exhaustive() {
        let execs = model::exhaustive(
            model::Options {
                seeds: 10_000,
                ..Default::default()
            },
            || publish_consume(true),
        );
        assert!(execs > 1, "DFS should enumerate more than one schedule");
    }

    #[test]
    fn broken_ring_is_detected_with_stable_seed() {
        let seed = first_failing_seed();
        for _ in 0..2 {
            let err = catch_unwind(AssertUnwindSafe(|| {
                model::run(seed, || publish_consume(false));
            }))
            .expect_err("the same seed must fail deterministically");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(
                msg.contains("data race detected"),
                "expected a race report, got: {msg}"
            );
            assert!(
                msg.contains(&format!("seed {seed}")),
                "report names the seed: {msg}"
            );
        }
    }

    #[test]
    fn broken_ring_is_detected_exhaustively() {
        let err = catch_unwind(AssertUnwindSafe(|| {
            model::exhaustive(
                model::Options {
                    seeds: 10_000,
                    ..Default::default()
                },
                || publish_consume(false),
            );
        }))
        .expect_err("DFS must find the dropped-Acquire race");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(msg.contains("data race detected"), "got: {msg}");
    }

    /// The store-buffering litmus (Dekker's core): each thread stores its
    /// own flag, then loads the other's. Returns whether both read 0.
    fn both_missed(ord_store: Ordering, ord_load: Ordering) -> bool {
        let flags = Arc::new((AtomicUsize::new(0), AtomicUsize::new(0)));
        let t = {
            let flags = Arc::clone(&flags);
            crate::thread::spawn(move || {
                flags.0.store(1, ord_store);
                flags.1.load(ord_load)
            })
        };
        flags.1.store(1, ord_store);
        let mine = flags.0.load(ord_load);
        t.join().unwrap() == 0 && mine == 0
    }

    #[test]
    fn store_buffering_is_modelled_below_seqcst_only() {
        let missed = |s, l| {
            (1..=256).any(|seed| {
                let mut hit = false;
                model::run(seed, || hit = both_missed(s, l));
                hit
            })
        };
        assert!(
            !missed(Ordering::SeqCst, Ordering::SeqCst),
            "SeqCst forbids both threads missing the other's store"
        );
        assert!(
            missed(Ordering::Release, Ordering::Acquire),
            "Release/Acquire allows it; no seed in 1..=256 showed it"
        );
        // One weakened side is enough to lose the guarantee.
        assert!(missed(Ordering::SeqCst, Ordering::Acquire));
    }

    #[test]
    fn same_seed_same_interleaving() {
        let seed = 42;
        let a = model::run(seed, || publish_consume(true));
        let b = model::run(seed, || publish_consume(true));
        assert_eq!(a, b, "identical seeds must replay identical schedules");
        let c = model::run(seed + 1, || publish_consume(true));
        // Not a hard guarantee for every pair of seeds, but if *this* pair
        // collides the fingerprint is almost certainly broken.
        assert!(
            a != c || a.steps == c.steps,
            "distinct seeds should normally schedule differently"
        );
    }
}
