//! The batch window: a bounded ring of in-flight batches, the pipeline's
//! only batch hand-off, and their owner.
//!
//! Execution and concurrency control operate on different batches
//! concurrently (paper §3.3.1), and a thread on batch `b+1` may hit a read
//! dependency on a still-pending version produced in batch `b`. The window
//! resolves a producer *timestamp* (a version's `begin` — the paper's "txn
//! pointer") back to its batch so the dependency can be executed
//! recursively. The same registry delivers the batches: the sealer
//! publishes a batch once, here, and every CC thread, execution thread and
//! the read lane *chases* the ring with a private `next` batch id instead of
//! being mailed a copy.
//!
//! # Design
//!
//! Sealing strides timestamps by `BohmConfig::batch_size` per batch id, so
//! the batch containing timestamp `ts` is `(ts - 1) / stride` — pure
//! arithmetic, no search. The window is then just a power-of-two ring of
//! slots indexed by `id & mask`, each a small mutex around the batch it
//! owns (`Option<Arc<Batch>>`):
//!
//! * **push** (the sealer, under the ingest mutex, so in id order): wait
//!   until slot `id & mask` is vacant, then fill it. Capacity is the
//!   in-flight-batch budget — a full ring *is* the pipeline's backpressure:
//!   the sealer waits here holding the ingest mutex, and every submitting
//!   session waits behind it.
//! * **next_for_cc / next_for_exec** (the chasers): wait until slot
//!   `next & mask` holds batch `next` — and, for execution, until that
//!   batch's `cc_pending` countdown reached zero (Acquire, pairing with the
//!   countdown's AcqRel in `Window::cc_done`). `None` once the ingest
//!   `close`d the ring at exactly `next` batches: every pushed batch is
//!   still handed to every consumer, then they exit.
//! * **next_for_lane** (the read lane): the same walk over every id, but
//!   only a batch with detached readers is waited for (until its CC phase
//!   is done) and handed over; a batch without readers is skipped, found in
//!   its slot or — since it may retire, and its slot be reused, before the
//!   lane looks — because `retired` is past it. A batch with readers cannot
//!   retire before the lane has counted out of it, so `retired > id` never
//!   skips one.
//! * **lookup** (execution threads, blocked-read path): lock the slot, check
//!   the id and the timestamp, clone. No scan, no wait.
//! * **finish** (whoever counted a batch's `exec_pending` to zero): the
//!   retirement *cursor*. Under the ring mutex, retire every consecutive
//!   counted-out batch starting at `retired`: take it out of its slot, hand
//!   it to the caller's callback (which stores the Condition-3 GC bound),
//!   advance `retired` — and drop the window's reference after unlocking,
//!   on the thread that retired it. Batches are counted out in any order —
//!   the read lane lags the execution threads — and retire in id order by
//!   construction; what everything else leans on is that *a retired batch
//!   has no unfinished transaction*.
//! * **wait_retired** (the engine's one barrier): snapshot how many batches
//!   have been pushed and wait until that many have retired. Counting is
//!   enough because batches retire in id order.
//! * **idle_for** (a client waiting on a transaction of the open batch
//!   `id`): wait until `id` is pushed, the ring closed, or no batch is in
//!   flight — the cue for the idle seal (see [`ingest`](crate::ingest)).
//!   The waiter holds no ingest mutex while it parks here.
//!
//! Every wait is spin-then-park on one mutex + condvar meaning "the ring
//! changed"; push, the last CC countdown, finish and close each notify it
//! with the mutex held, and a waiter re-probes under the mutex before every
//! wait, so a wakeup cannot slip between its check and its wait — no
//! timeouts anywhere. Lock order is ring mutex, then slot.
//!
//! A lookup that finds a vacant slot (or a different batch id) means the
//! asked-for batch already retired — every transaction in it is `Complete`
//! — so the caller can simply retry its read. Slot reuse cannot alias: ids
//! mapping to the same slot are `capacity` apart, and at most `capacity`
//! batches are in flight, with the sealer blocked until the previous
//! occupant retired. A chaser cannot miss its batch for the same reason: a
//! batch stays in its slot until every execution thread — hence, before
//! them, every CC thread — and the read lane, if it has readers, has counted
//! itself out of it.

// HOT-PATH: the blocked-read lookup runs per dependency resolution; no
// clocks, no syscalls, no I/O in non-test code (enforced by the lint).

use crate::batch::Batch;
use bohm_common::Timestamp;
use bohm_sync::atomic::{AtomicU64, Ordering};
use bohm_sync::{Backoff, CachePadded, Condvar, Mutex};
use std::sync::Arc;

/// A ring slot: the batch it owns from push to retirement, if any.
type Slot = Mutex<Option<Arc<Batch>>>;

pub(crate) struct Window {
    /// One padded slot per in-flight batch. Adjacent slots belong to
    /// *different* batches touched by different threads (the sealer fills
    /// slot `i` while execution retires slot `i-1`); without the padding a
    /// retirement would false-share with the neighbouring slot's lookups.
    slots: Box<[CachePadded<Slot>]>,
    mask: u64,
    /// Timestamp stride per batch id (`BohmConfig::batch_size`).
    stride: u64,
    /// How many batches were pushed before the ingest closed; `u64::MAX`
    /// while it is still running.
    closed_at: AtomicU64,
    /// Batches registered so far (ids are dense, so also the next id).
    pushed: AtomicU64,
    /// Batches retired so far — in id order, so also the id below which
    /// every batch is gone and the cursor of [`finish`](Self::finish), the
    /// only writer (under `lock`).
    retired: AtomicU64,
    /// Slow-path parking for every ring waiter: "the ring changed".
    lock: Mutex<()>,
    changed: Condvar,
}

impl Window {
    /// `capacity` is rounded up to a power of two; it bounds the number of
    /// batches between sealing and retirement.
    pub fn new(capacity: usize, stride: u64) -> Self {
        assert!(capacity >= 2 && stride >= 1);
        let n = capacity.next_power_of_two();
        let mut slots = Vec::with_capacity(n);
        slots.resize_with(n, || CachePadded::new(Mutex::new(None)));
        Self {
            slots: slots.into_boxed_slice(),
            mask: (n - 1) as u64,
            stride,
            closed_at: AtomicU64::new(u64::MAX),
            pushed: AtomicU64::new(0),
            retired: AtomicU64::new(0),
            lock: Mutex::new(()),
            changed: Condvar::new(),
        }
    }

    /// The slot batch `id` lives in while it is in flight.
    fn slot(&self, id: u64) -> &Slot {
        &self.slots[(id & self.mask) as usize]
    }

    /// Block until `probe` yields: spin briefly — the awaited change is
    /// usually imminent — then park. The parked re-probe happens *under*
    /// the lock and [`notify`](Self::notify) signals while holding it, so a
    /// wakeup cannot slip between the probe and the wait — no timeout
    /// crutch needed.
    fn wait_for<T>(&self, mut probe: impl FnMut() -> Option<T>) -> T {
        let backoff = Backoff::new();
        while !backoff.is_completed() {
            if let Some(v) = probe() {
                return v;
            }
            backoff.snooze();
        }
        let mut g = self.lock.lock();
        loop {
            if let Some(v) = probe() {
                return v;
            }
            self.changed.wait(&mut g);
        }
    }

    /// Wake every parked waiter to re-probe. Called *after* the state
    /// change it announces; holding the lock pairs with `wait_for`'s locked
    /// re-probe: either the waiter sees the change, or it is already
    /// waiting and receives this notification.
    fn notify(&self) {
        let _g = self.lock.lock();
        self.changed.notify_all();
    }

    /// Register a batch — which hands it to every CC thread; blocks while
    /// the batch's slot is still occupied by the batch `capacity` ids older
    /// (the in-flight budget). Batches are pushed one at a time, in id order:
    /// the sealer does it under the ingest mutex.
    pub fn push(&self, b: Arc<Batch>) {
        debug_assert_eq!(
            self.pushed.load(Ordering::Acquire),
            b.id,
            "batch {} registered out of order",
            b.id
        );
        let slot = self.slot(b.id);
        // Only `finish` vacates a slot and only this (one) sealer fills one,
        // so the slot stays vacant between the wait and the fill.
        self.wait_for(|| slot.lock().is_none().then_some(()));
        // Counted before it is visible: whoever learns of the batch through
        // its slot — or through an outcome of one of its transactions —
        // also finds it in `pushed`.
        self.pushed.store(b.id + 1, Ordering::Release);
        *slot.lock() = Some(b);
        self.notify();
    }

    /// The ingest closed after `pushed` batches (ids `0..pushed`):
    /// a chaser whose `next` reaches `pushed` exits instead of waiting.
    pub fn close(&self, pushed: u64) {
        self.closed_at.store(pushed, Ordering::Release);
        self.notify();
    }

    /// One CC thread finished `b` — the §3.2.4 barrier, amortized over the
    /// whole batch: the last one through hands it to the execution layer.
    pub fn cc_done(&self, b: &Batch) {
        if b.cc_pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.notify();
        }
    }

    /// Retire every batch that is ready to go — the retirement *cursor*.
    /// Called by whoever counted a batch's `exec_pending` to zero (after
    /// that AcqRel decrement), whichever batch it was.
    ///
    /// Per retired batch, under the ring mutex: while the oldest un-retired
    /// batch (`retired` is its id) has been counted out, take it out of its
    /// slot, hand it to `on_retire` — where the caller publishes what
    /// retirement publishes, the Condition-3 bound — advance `retired` and
    /// notify, for a sealer parked on the full ring or a quiescer. The
    /// window's reference is dropped after the mutex is released.
    ///
    /// Batches may be *counted out* in any order — the read lane lags the
    /// execution threads — but retire in id order by construction, and none
    /// is lost: the countdown that makes batch `b` retirable happens-before
    /// its thread's lock acquisition here, so either that thread finds `b`
    /// at the cursor, or the thread that later moves the cursor to `b` locks
    /// after it and sees the zero.
    pub fn finish(&self, mut on_retire: impl FnMut(&Batch)) {
        loop {
            let g = self.lock.lock();
            let id = self.retired.load(Ordering::Acquire);
            let taken = self.slot(id).lock().take_if(|b| {
                debug_assert_eq!(b.id, id, "the cursor's slot holds the cursor's batch");
                b.exec_pending.load(Ordering::Acquire) == 0
            });
            // Batch `id` is not pushed yet, or not counted out.
            let Some(b) = taken else { return };
            on_retire(&b);
            self.retired.store(id + 1, Ordering::Release);
            self.changed.notify_all();
            drop(g);
            drop(b);
        }
    }

    /// Batches retired so far — the id of the oldest batch still in flight.
    pub fn retired(&self) -> u64 {
        self.retired.load(Ordering::Acquire)
    }

    /// Block until every batch pushed before this call has retired — the
    /// engine's one barrier. The Acquire read of `retired` pairs with
    /// [`finish`](Self::finish)'s Release store, so what the retiring thread
    /// published first (the GC bound) is visible on return. Batches pushed
    /// meanwhile are not waited for, so a concurrent submitter cannot starve
    /// the caller.
    pub fn wait_retired(&self) {
        let target = self.pushed.load(Ordering::Acquire);
        self.wait_for(|| (self.retired() >= target).then_some(()));
    }

    /// Batch `id`, if its slot currently holds it and it passes `ok` — the
    /// one slot-lock-and-clone body behind `lookup` and the chasers.
    fn get(&self, id: u64, ok: impl FnOnce(&Batch) -> bool) -> Option<Arc<Batch>> {
        let slot = self.slot(id).lock();
        // Another id: vacated and reused by a newer batch, or not pushed yet.
        slot.as_ref().filter(|b| b.id == id && ok(b)).cloned()
    }

    /// Find the batch containing timestamp `ts` — O(1): one divide, one
    /// slot lock, two checks.
    ///
    /// `None` means the batch already completed (retired) — the producing
    /// transaction is `Complete` and its versions are resolved, so the
    /// caller can simply retry its read.
    pub fn lookup(&self, ts: Timestamp) -> Option<Arc<Batch>> {
        // Preloaded versions (`ts == 0`) have no producing batch; `contains`
        // fails for a timestamp in a partial batch's stride gap.
        self.get(ts.checked_sub(1)? / self.stride, |b| b.contains(ts))
    }

    /// Block until batch `id` is registered and `ready`, or the ring closed
    /// at `id` batches (`None`).
    fn chase(&self, id: u64, ready: impl Fn(&Batch) -> bool) -> Option<Arc<Batch>> {
        self.wait_for(|| match self.get(id, &ready) {
            Some(b) => Some(Some(b)),
            None => (self.closed_at.load(Ordering::Acquire) == id).then_some(None),
        })
    }

    /// A CC thread's next batch: `id` as soon as it is pushed.
    pub fn next_for_cc(&self, id: u64) -> Option<Arc<Batch>> {
        self.chase(id, |_| true)
    }

    /// An execution thread's next batch: `id` once every CC thread is done
    /// with it. The Acquire load pairs with [`cc_done`](Self::cc_done)'s
    /// AcqRel countdown, so all their installs and annotations are visible.
    pub fn next_for_exec(&self, id: u64) -> Option<Arc<Batch>> {
        self.chase(id, |b| b.cc_pending.load(Ordering::Acquire) == 0)
    }

    /// The read lane's step at batch `id`: `Some(Some(b))` once `b` — a
    /// batch with detached readers — is through its CC phase (Acquire, as
    /// in [`next_for_exec`](Self::next_for_exec)); `Some(None)` for a batch
    /// without readers, found in its slot or already retired; `None` once
    /// the ring closed at `id` batches. A batch with readers cannot retire
    /// before the lane has counted out of it, so `retired > id` proves the
    /// batch had none, whatever has happened to its slot since.
    pub fn next_for_lane(&self, id: u64) -> Option<Option<Arc<Batch>>> {
        let ready = |b: &Batch| b.readers.is_empty() || b.cc_pending.load(Ordering::Acquire) == 0;
        self.wait_for(|| match self.get(id, ready) {
            Some(b) => Some(Some((!b.readers.is_empty()).then_some(b))),
            None if self.retired() > id => Some(Some(None)),
            None => (self.closed_at.load(Ordering::Acquire) == id).then_some(None),
        })
    }

    /// True when no batch is between `push` and retirement. `retired` is read
    /// first — it can only equal an *older* `pushed` — so a `true` was true
    /// at one instant; see `Bohm::read_quiescent` for how a caller makes the
    /// answer stick.
    pub fn is_empty(&self) -> bool {
        let retired = self.retired();
        retired == self.pushed.load(Ordering::Acquire)
    }

    /// Batches pushed so far (ids `0..pushed` are in the ring or retired).
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Acquire)
    }

    /// Should a waiter on batch `id`, open when it looked, seal it now?
    /// `true` once no batch is in flight while `id` is still not pushed —
    /// the idle seal (see [`ingest`](crate::ingest)); `false` once `id` is
    /// pushed or the ring closed. While batches are in flight, with `block`
    /// wait like every ring waiter until one of those holds; without,
    /// `false`. The probe reads `pushed`, which [`push`](Self::push) stores
    /// before it notifies.
    pub fn idle_for(&self, id: u64, block: bool) -> bool {
        if block {
            self.wait_for(|| self.idle_probe(id))
        } else {
            self.idle_probe(id) == Some(true)
        }
    }

    fn idle_probe(&self, id: u64) -> Option<bool> {
        let closed = self.closed_at.load(Ordering::Acquire) != u64::MAX;
        if closed || self.pushed() > id {
            return Some(false);
        }
        self.is_empty().then_some(true)
    }

    /// [`idle_for`](Self::idle_for)`(id, true)` that probes outside the
    /// mutex and then parks without probing again: a retirement between
    /// the probe and the wait is never heard (the ingest model's broken
    /// twin).
    #[cfg(all(test, bohm_modelcheck))]
    pub fn idle_for_probing_unlocked(&self, id: u64) -> bool {
        loop {
            if let Some(seal) = self.idle_probe(id) {
                return seal;
            }
            let mut g = self.lock.lock();
            self.changed.wait(&mut g);
        }
    }

    /// [`next_for_lane`](Self::next_for_lane) that reads a vacant slot as a
    /// retired batch without asking `retired`: it skips a batch with readers
    /// that is not pushed yet (the lane model's broken twin).
    #[cfg(all(test, bohm_modelcheck))]
    pub fn next_for_lane_reading_vacancy_as_retirement(
        &self,
        id: u64,
    ) -> Option<Option<Arc<Batch>>> {
        let ready = |b: &Batch| b.readers.is_empty() || b.cc_pending.load(Ordering::Acquire) == 0;
        self.wait_for(|| match self.get(id, ready) {
            Some(b) => Some(Some((!b.readers.is_empty()).then_some(b))),
            None if self.closed_at.load(Ordering::Acquire) == id => Some(None),
            None => self.slot(id).lock().is_none().then_some(Some(None)),
        })
    }

    /// Count one execution thread out of batch `id`, the last one running
    /// the cursor — what `exec::count_out` does, minus its publications.
    #[cfg(test)]
    pub fn count_out(&self, id: u64) {
        let b = self.get(id, |_| true).expect("a batch in the ring");
        if b.exec_pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.finish(|_| {});
        }
    }

    /// Number of batches in flight (tests; racy by nature).
    #[cfg(test)]
    pub fn len(&self) -> usize {
        let retired = self.retired();
        (self.pushed.load(Ordering::Acquire) - retired) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::tests::entries;
    use std::time::Duration;

    const STRIDE: u64 = 10;

    /// Batch `id` with `n` transactions at the strided base timestamp.
    fn mk_batch(id: u64, n: usize) -> Arc<Batch> {
        let mut arena = crate::batch::tests::test_arena();
        Batch::new(
            entries(n),
            crate::batch::Outcomes::new(n),
            1 + id * STRIDE,
            id,
            0,
            1,
            1,
            64,
            crate::batch::tests::test_store(),
            &mut arena,
        )
    }

    fn window() -> Window {
        Window::new(4, STRIDE)
    }

    #[test]
    fn lookup_is_o1_on_strided_timestamps() {
        let w = window();
        w.push(mk_batch(0, 10)); // ts 1..=10
        w.push(mk_batch(1, 5)); // ts 11..=15 (16..=20 is a stride gap)
        assert_eq!(w.lookup(1).unwrap().id, 0);
        assert_eq!(w.lookup(10).unwrap().id, 0);
        assert_eq!(w.lookup(11).unwrap().id, 1);
        assert_eq!(w.lookup(15).unwrap().id, 1);
        assert!(w.lookup(16).is_none(), "stride gap of a partial batch");
        assert!(w.lookup(21).is_none(), "batch 2 never pushed");
        assert!(w.lookup(0).is_none(), "preload timestamp");
    }

    #[test]
    fn retire_makes_batch_unresolvable_and_frees_slot() {
        let w = window();
        w.push(mk_batch(0, 10));
        w.push(mk_batch(1, 10));
        w.count_out(0);
        assert!(w.lookup(5).is_none());
        assert_eq!(w.lookup(12).unwrap().id, 1);
        assert_eq!(w.len(), 1);
    }

    #[test]
    fn slot_reuse_cannot_alias_old_ids() {
        let w = window(); // capacity 4
        for id in 0..4 {
            w.push(mk_batch(id, 10));
        }
        w.count_out(0);
        w.push(mk_batch(4, 10)); // reuses slot 0
        assert!(w.lookup(5).is_none(), "ts of batch 0 must not hit batch 4");
        assert_eq!(w.lookup(1 + 4 * STRIDE).unwrap().id, 4);
    }

    #[test]
    fn push_blocks_until_slot_vacated() {
        use bohm_sync::atomic::{AtomicBool, Ordering as O};
        let w = Arc::new(window()); // capacity 4
        for id in 0..4 {
            w.push(mk_batch(id, 10));
        }
        let pushed = Arc::new(AtomicBool::new(false));
        let (w2, p2) = (Arc::clone(&w), Arc::clone(&pushed));
        let t = std::thread::spawn(move || {
            w2.push(mk_batch(4, 10)); // blocks: slot 0 occupied
            p2.store(true, O::SeqCst);
        });
        std::thread::sleep(Duration::from_millis(20));
        assert!(!pushed.load(O::SeqCst), "push must apply backpressure");
        w.count_out(0);
        t.join().unwrap();
        assert!(pushed.load(O::SeqCst));
        assert_eq!(w.lookup(41).unwrap().id, 4);
    }

    #[test]
    fn wait_retired_returns_once_everything_pushed_has_retired() {
        let w = Arc::new(window());
        w.wait_retired(); // nothing in flight: nothing to wait for
        w.push(mk_batch(0, 1));
        w.push(mk_batch(1, 1));
        let quiescer = {
            let w = Arc::clone(&w);
            std::thread::spawn(move || w.wait_retired())
        };
        w.count_out(0);
        // Whenever it took its snapshot, batch 1 is in it.
        assert!(!quiescer.is_finished(), "batch 1 is still in flight");
        w.count_out(1);
        quiescer.join().unwrap();
        assert!(w.is_empty());
    }

    #[test]
    fn push_park_wakeup_has_no_lost_wakeup_window() {
        // Regression for the park-path race: with a minimal ring and a
        // retirer that frees slots at arbitrary points relative to the
        // pusher's park decision, every push must eventually complete. A
        // lost wakeup would deadlock this test (the old code masked it
        // with a 10 ms poll; there is no timeout to hide behind now).
        use bohm_sync::atomic::{AtomicU64, Ordering as O};
        let batches: u64 = bohm_common::stress_iters(3_000);
        let w = Arc::new(Window::new(2, STRIDE));
        let highest_pushed = Arc::new(AtomicU64::new(0));
        let retirer = {
            let w = Arc::clone(&w);
            let hi = Arc::clone(&highest_pushed);
            std::thread::spawn(move || {
                let backoff = Backoff::new();
                for id in 0..batches {
                    while hi.load(O::Acquire) < id + 1 {
                        backoff.snooze();
                    }
                    // Vary the retire timing so it lands before, during and
                    // after the pusher's spin→park transition.
                    if id % 7 == 0 {
                        std::thread::yield_now();
                    }
                    for _ in 0..(id % 64) * 32 {
                        std::hint::spin_loop();
                    }
                    w.count_out(id);
                }
            })
        };
        for id in 0..batches {
            w.push(mk_batch(id, 1)); // capacity 2: parks constantly
            highest_pushed.store(id + 1, O::Release);
        }
        retirer.join().unwrap();
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn chasers_get_every_batch_in_order_and_exit_on_close() {
        // The hand-off under the OS scheduler (the modelcheck module
        // enumerates the same protocol): a capacity-2 ring keeps the
        // sequencer, two CC chasers and two retiring exec chasers parking
        // on one another constantly.
        let batches: u64 = bohm_common::stress_iters(2_000);
        let w = Arc::new(Window::new(2, STRIDE));
        let mut chasers = Vec::new();
        for _ in 0..2 {
            let w2 = Arc::clone(&w);
            chasers.push(std::thread::spawn(move || {
                let mut next = 0;
                while let Some(b) = w2.next_for_cc(next) {
                    assert_eq!(b.id, next);
                    next += 1;
                    w2.cc_done(&b);
                }
                next
            }));
            let w2 = Arc::clone(&w);
            chasers.push(std::thread::spawn(move || {
                let mut next = 0;
                while let Some(b) = w2.next_for_exec(next) {
                    assert_eq!(b.id, next);
                    assert_eq!(b.cc_pending.load(Ordering::Acquire), 0);
                    next += 1;
                    w2.count_out(b.id);
                }
                next
            }));
        }
        for id in 0..batches {
            let mut arena = crate::batch::tests::test_arena();
            w.push(Batch::new(
                entries(1),
                crate::batch::Outcomes::new(1),
                1 + id * STRIDE,
                id,
                0,
                2,
                2,
                64,
                crate::batch::tests::test_store(),
                &mut arena,
            ));
        }
        w.close(batches);
        for c in chasers {
            assert_eq!(
                c.join().unwrap(),
                batches,
                "every pushed batch is handed off"
            );
        }
        assert_eq!(w.len(), 0, "and retired");
    }

    #[test]
    fn concurrent_push_lookup_retire_stress() {
        // The satellite stress test: one producer pushing/one retirer
        // releasing slots in retirement order while readers hammer lookups
        // across the live window. Readers must only ever observe a batch
        // whose id matches the timestamp arithmetic. The nightly CI job
        // raises the batch count via BOHM_STRESS_ITERS.
        use bohm_sync::atomic::{AtomicBool, AtomicU64, Ordering as O};
        let batches: u64 = bohm_common::stress_iters(400);
        let w = Arc::new(Window::new(8, STRIDE));
        let highest_pushed = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));

        let mut readers = Vec::new();
        for r in 0..4u64 {
            let w = Arc::clone(&w);
            let hi = Arc::clone(&highest_pushed);
            let stop = Arc::clone(&stop);
            readers.push(std::thread::spawn(move || {
                let mut x = r.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                let mut hits = 0u64;
                while !stop.load(O::Relaxed) {
                    // Wandering timestamp across the plausible range.
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let ts = 1 + x % (hi.load(O::Relaxed).max(1) * STRIDE + STRIDE);
                    if let Some(b) = w.lookup(ts) {
                        // The O(1) contract: a hit is *the* containing batch.
                        assert_eq!(b.id, (ts - 1) / STRIDE);
                        assert!(b.contains(ts));
                        hits += 1;
                    }
                }
                hits
            }));
        }

        let retirer = {
            let w = Arc::clone(&w);
            let hi = Arc::clone(&highest_pushed);
            std::thread::spawn(move || {
                let backoff = Backoff::new();
                for id in 0..batches {
                    // Retire strictly behind the producer, as execution does.
                    while hi.load(O::Acquire) < id + 1 {
                        backoff.snooze();
                    }
                    w.count_out(id);
                }
            })
        };

        for id in 0..batches {
            w.push(mk_batch(id, 7)); // partial batches: stride gaps exercised
            highest_pushed.store(id + 1, O::Release);
        }
        retirer.join().unwrap();
        stop.store(true, O::Relaxed);
        let total_hits: u64 = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total_hits > 0, "stress readers never hit a live batch");
        assert_eq!(w.len(), 0, "all slots released");
    }
}

/// Controlled-scheduler models of the ring
/// (`RUSTFLAGS="--cfg bohm_modelcheck" cargo test -p bohm modelcheck`).
///
/// The stress tests above rely on the OS scheduler to stumble into bad
/// interleavings; these models *enumerate* them. The interesting window
/// bug class is the lost wakeup on the ring condvar: a notification (of a
/// retire to a parked pusher, of a push, a last CC countdown or a close to
/// a parked chaser) that slips between the waiter's re-probe and its wait
/// would strand the waiter forever. Under the model checker that is not a
/// hang — every thread is blocked with no timed waiter, so the run is
/// reported as a deadlock with a replayable seed.
#[cfg(all(test, bohm_modelcheck))]
mod modelcheck {
    use super::*;
    use bohm_sync::model;

    const STRIDE: u64 = 10;

    fn mk_batch(id: u64, n: usize) -> Arc<Batch> {
        let mut arena = crate::batch::tests::test_arena();
        let entries = crate::batch::tests::entries(n);
        Batch::new(
            entries,
            crate::batch::Outcomes::new(n),
            1 + id * STRIDE,
            id,
            0,
            1,
            1,
            64,
            crate::batch::tests::leaked_store(),
            &mut arena,
        )
    }

    /// Capacity-2 ring, three batches: the third push targets the slot
    /// batch 0 still occupies and must park until the retirer frees it,
    /// while a reader hammers lookups across all three ids. Covers
    /// push/retire slot hand-off, the park/notify path, and a lookup's
    /// lock-check-clone racing the retirement that takes its batch out of
    /// the slot, in every schedule the seeds reach.
    fn ring_model() {
        let w = Arc::new(Window::new(2, STRIDE));
        w.push(mk_batch(0, 1));
        w.push(mk_batch(1, 1));
        let pusher = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || w.push(mk_batch(2, 1)))
        };
        let retirer = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || {
                w.count_out(0);
                w.count_out(1);
            })
        };
        let reader = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || {
                for ts in [1u64, 11, 21] {
                    if let Some(b) = w.lookup(ts) {
                        // The O(1) contract under every interleaving: a hit
                        // is *the* containing batch, never a stale aliased
                        // occupant.
                        assert_eq!(b.id, (ts - 1) / STRIDE);
                        assert!(b.contains(ts));
                    }
                }
            })
        };
        pusher.join().unwrap();
        retirer.join().unwrap();
        reader.join().unwrap();
        assert_eq!(w.len(), 1, "only batch 2 should remain in flight");
        w.count_out(2);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn ring_push_retire_lookup_explored() {
        model::explore(model::Options::default(), ring_model);
    }

    /// Two retirers racing a parked pusher: both free slots the pusher may
    /// be waiting on, exercising notify-while-not-yet-parked and
    /// notify-while-parked orders. A dropped notification deadlocks the
    /// model and names its seed.
    fn vacancy_wakeup_model() {
        let w = Arc::new(Window::new(2, STRIDE));
        w.push(mk_batch(0, 1));
        w.push(mk_batch(1, 1));
        let pusher = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || {
                w.push(mk_batch(2, 1)); // waits on slot 0 (batch 0)
                w.push(mk_batch(3, 1)); // waits on slot 1 (batch 1)
            })
        };
        let r0 = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || w.count_out(0))
        };
        let r1 = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || w.count_out(1))
        };
        pusher.join().unwrap();
        r0.join().unwrap();
        r1.join().unwrap();
        assert_eq!(w.len(), 2);
        w.count_out(2);
        w.count_out(3);
    }

    #[test]
    fn vacancy_condvar_has_no_lost_wakeup() {
        model::explore(model::Options::default(), vacancy_wakeup_model);
    }

    /// Spawn a CC chaser and a retiring exec chaser over `w` (one thread
    /// per layer, matching `mk_batch`'s countdowns); each returns the ids
    /// it was handed, in order.
    fn spawn_chasers(w: &Arc<Window>) -> [bohm_sync::thread::JoinHandle<Vec<u64>>; 2] {
        let cc = {
            let w = Arc::clone(w);
            bohm_sync::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(b) = w.next_for_cc(seen.len() as u64) {
                    seen.push(b.id);
                    w.cc_done(&b);
                }
                seen
            })
        };
        let exec = {
            let w = Arc::clone(w);
            bohm_sync::thread::spawn(move || {
                let mut seen = Vec::new();
                while let Some(b) = w.next_for_exec(seen.len() as u64) {
                    // Never handed over before the CC countdown finished.
                    assert_eq!(b.cc_pending.load(Ordering::Acquire), 0);
                    seen.push(b.id);
                    w.count_out(b.id);
                }
                seen
            })
        };
        [cc, exec]
    }

    /// Sequencer-side prelude: yield (a PCT demotion below every other
    /// thread) often enough that in most schedules both chasers are through
    /// their short spin phase and *parked* on the empty ring before the
    /// first push or the close — the state a lost wakeup needs. Priority
    /// change points still produce the schedules where they are not.
    fn let_chasers_park() {
        for _ in 0..6 {
            bohm_sync::thread::yield_now();
        }
    }

    /// The whole hand-off on a capacity-2 ring: the sequencer pushes three
    /// batches (the third parks on the full ring) and closes; a CC chaser
    /// and a retiring exec chaser must each be handed ids 0,1,2 exactly
    /// once, in order, and everyone must terminate. A lost wakeup on the
    /// push, countdown, retire or close notification deadlocks the model.
    fn handoff_model() {
        let w = Arc::new(Window::new(2, STRIDE));
        let chasers = spawn_chasers(&w);
        let sequencer = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || {
                let_chasers_park();
                for id in 0..3 {
                    w.push(mk_batch(id, 1));
                }
                w.close(3);
            })
        };
        sequencer.join().unwrap();
        for c in chasers {
            assert_eq!(c.join().unwrap(), [0, 1, 2]);
        }
        assert_eq!(w.len(), 0, "every pushed batch was retired");
    }

    #[test]
    fn ring_chase_hands_off_every_batch_in_order() {
        model::explore(model::Options::default(), handoff_model);
    }

    /// Shutdown of an idle engine: both chasers are (in most schedules)
    /// parked on an empty ring when the sequencer closes it at zero.
    fn close_while_parked_model() {
        let w = Arc::new(Window::new(2, STRIDE));
        let chasers = spawn_chasers(&w);
        let sequencer = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || {
                let_chasers_park();
                w.close(0)
            })
        };
        sequencer.join().unwrap();
        for c in chasers {
            assert!(c.join().unwrap().is_empty());
        }
    }

    #[test]
    fn close_wakes_parked_chasers() {
        model::explore(model::Options::default(), close_while_parked_model);
    }

    /// `wait_retired` under the engine's own retirement rule. Two execution
    /// chasers count themselves out of every batch and the last one out
    /// retires it — which must come out in id order, the claim that lets
    /// `retired` be a plain count. An early quiescer (in most schedules
    /// parked by the second push) has `pushed` advance underneath it and
    /// must be released by the batches it saw; a late one, started after the
    /// last push, waits for all three with nothing but retirements left to
    /// wake it — the ring is closed only once it is through — so a retire
    /// notification lost between its probe and its sleep deadlocks the
    /// model.
    fn quiesce_model() {
        let w = Arc::new(Window::new(2, STRIDE));
        let execs: Vec<_> = (0..2)
            .map(|_| {
                let w = Arc::clone(&w);
                bohm_sync::thread::spawn(move || {
                    for id in 0.. {
                        let Some(b) = w.next_for_exec(id) else { break };
                        // What `execute_sync` leans on: whoever holds an
                        // outcome from batch `id` finds it in `pushed`.
                        assert!(w.pushed.load(Ordering::Acquire) > id);
                        if b.exec_pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                            w.finish(|b| {
                                let before = w.retired.load(Ordering::Acquire);
                                assert_eq!(before, b.id, "batches retire in id order");
                            });
                        }
                    }
                })
            })
            .collect();
        let quiescer = |w: &Arc<Window>| {
            let w = Arc::clone(w);
            bohm_sync::thread::spawn(move || {
                let seen = w.pushed.load(Ordering::Acquire);
                w.wait_retired();
                assert!(w.retired.load(Ordering::Acquire) >= seen);
            })
        };
        let early = quiescer(&w);
        for id in 0..3 {
            let mut arena = crate::batch::tests::test_arena();
            let entries = crate::batch::tests::entries(1);
            // No CC layer here: born ready for execution.
            w.push(Batch::new(
                entries,
                crate::batch::Outcomes::new(1),
                1 + id * STRIDE,
                id,
                0,
                0,
                2,
                64,
                crate::batch::tests::leaked_store(),
                &mut arena,
            ));
            if id == 0 {
                let_chasers_park();
            }
        }
        let late = quiescer(&w);
        late.join().unwrap();
        assert!(w.is_empty(), "the late quiescer saw all three pushed");
        w.close(3);
        early.join().unwrap();
        for e in execs {
            e.join().unwrap();
        }
    }

    #[test]
    fn wait_retired_is_released_by_the_batches_it_saw() {
        model::explore(model::Options::default(), quiesce_model);
    }

    /// Where a twin departs from the retirement cursor.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// The thread that counts a batch out asks "is my predecessor
        /// retired?" *outside* the mutex and leaves `finish` to whoever
        /// retires the predecessor otherwise. That thread's check of this
        /// batch's countdown and this check can both read the old value
        /// (store buffering): nobody retires the batch.
        AsksOutsideTheMutex,
        /// The bound is published where an execution thread counts out of a
        /// batch instead of where the batch retires: it passes a reader the
        /// lane is still running, whose versions may then be recycled.
        PublishesAtCountOut,
    }

    /// The cursor on a capacity-2 ring with three batches. Batch 0 has a
    /// reader, so it is counted out twice: by the executor, which goes on to
    /// count batches 1 and 2 out on its own, and by the lane — demoted, so
    /// that in most schedules the executor is out of batch 1 (and waiting
    /// for batch 2, whose push is blocked on batch 0's slot) first. Checked:
    /// batches retire in id order, the bound stays below a reader that is
    /// still running, and none is lost — the third push, an early quiescer
    /// and the final barrier would deadlock the model.
    fn cursor_model(fault: Fault) {
        let w = Arc::new(Window::new(2, STRIDE));
        let gc_bound = Arc::new(AtomicU64::new(0));
        // `exec::count_out`, with the twins' departures.
        fn count_out(w: &Window, gc_bound: &AtomicU64, b: &Batch, by_lane: bool, fault: Fault) {
            if fault == Fault::PublishesAtCountOut && !by_lane {
                gc_bound.store(b.last_ts(), Ordering::Release);
            }
            if b.exec_pending.fetch_sub(1, Ordering::AcqRel) != 1 {
                return;
            }
            if fault == Fault::AsksOutsideTheMutex && w.retired.load(Ordering::Acquire) != b.id {
                return;
            }
            w.finish(|b| {
                assert_eq!(w.retired.load(Ordering::Acquire), b.id, "id order");
                if fault != Fault::PublishesAtCountOut {
                    gc_bound.store(b.last_ts(), Ordering::Release);
                }
            });
        }
        let executor = {
            let (w, gc_bound) = (Arc::clone(&w), Arc::clone(&gc_bound));
            bohm_sync::thread::spawn(move || {
                for id in 0.. {
                    let Some(b) = w.next_for_exec(id) else { break };
                    count_out(&w, &gc_bound, &b, false, fault);
                }
            })
        };
        let lane = {
            let (w, gc_bound) = (Arc::clone(&w), Arc::clone(&gc_bound));
            bohm_sync::thread::spawn(move || {
                let b = w.next_for_exec(0).expect("pushed below");
                assert_eq!(&*b.readers, [0], "batch 0 is the one with a reader");
                for _ in 0..4 {
                    let bound = gc_bound.load(Ordering::Acquire);
                    assert!(bound < b.base_ts, "bound {bound} passed a running reader");
                    bohm_sync::thread::yield_now();
                }
                count_out(&w, &gc_bound, &b, true, fault);
            })
        };
        let mut arena = crate::batch::tests::test_arena();
        // One read, nothing annotated (`annotate_max_reads` 0): a detached
        // reader. No CC layer: born ready for execution.
        let rid = bohm_common::RecordId::new(0, 1);
        let reader = bohm_common::Txn::new(vec![rid], vec![], bohm_common::Procedure::ReadOnly);
        let outcomes = crate::batch::Outcomes::new(1);
        w.push(Batch::new(
            vec![reader],
            outcomes,
            1,
            0,
            0,
            0,
            1,
            0,
            crate::batch::tests::leaked_store(),
            &mut arena,
        ));
        let quiescer = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || w.wait_retired())
        };
        for id in 1..3 {
            let entries = crate::batch::tests::entries(1);
            w.push(Batch::new(
                entries,
                crate::batch::Outcomes::new(1),
                1 + id * STRIDE,
                id,
                0,
                0,
                1,
                64,
                crate::batch::tests::leaked_store(),
                &mut arena,
            ));
        }
        w.wait_retired();
        assert!(w.is_empty());
        assert_eq!(gc_bound.load(Ordering::Acquire), 1 + 2 * STRIDE);
        w.close(3);
        for t in [executor, lane, quiescer] {
            t.join().unwrap();
        }
    }

    #[test]
    fn cursor_retires_in_id_order_whatever_order_batches_are_counted_out_in() {
        model::explore(model::Options::default(), || cursor_model(Fault::None));
    }

    /// The read lane's chase on a capacity-2 ring with three batches, only
    /// batch 1 with a reader: the lane (started first, so that in most
    /// schedules it probes before the pushes), an executor, an early
    /// quiescer, and a sealer that then waits for everything to retire and
    /// closes. Checked: the lane counts out of exactly the reader batch —
    /// skipping batch 0, found in its slot or retired, and batch 2, which
    /// may have retired and had its slot vacated before the lane looks —
    /// and all three retire; a reader batch the lane skips never retires,
    /// which deadlocks the model. The lane probes at most ids 0..=3: the
    /// twin may walk on past the close over vacant slots.
    fn lane_model(reads_vacancy_as_retirement: bool) {
        let w = Arc::new(Window::new(2, STRIDE));
        let lane = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || {
                let (mut counted, mut exited) = (Vec::new(), false);
                for id in 0..4 {
                    let next = match reads_vacancy_as_retirement {
                        false => w.next_for_lane(id),
                        true => w.next_for_lane_reading_vacancy_as_retirement(id),
                    };
                    let Some(batch) = next else {
                        exited = true;
                        break;
                    };
                    if let Some(b) = batch {
                        assert!(!b.readers.is_empty(), "the lane runs only reader batches");
                        assert_eq!(b.cc_pending.load(Ordering::Acquire), 0);
                        counted.push(b.id);
                        w.count_out(b.id);
                    }
                }
                assert!(
                    exited || reads_vacancy_as_retirement,
                    "the close ends the walk"
                );
                counted
            })
        };
        let executor = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || {
                for id in 0.. {
                    let Some(b) = w.next_for_exec(id) else { break };
                    w.count_out(b.id);
                }
            })
        };
        let mut arena = crate::batch::tests::test_arena();
        // No CC layer: born ready for execution. Batch 1 is one detached
        // reader (`annotate_max_reads` 0), the others one RMW each.
        let rid = bohm_common::RecordId::new(0, 1);
        let reader = || bohm_common::Txn::new(vec![rid], vec![], bohm_common::Procedure::ReadOnly);
        let mut push = |id: u64| {
            let (txns, annotate_max_reads) = match id {
                1 => (vec![reader()], 0),
                _ => (crate::batch::tests::entries(1), 64),
            };
            let outcomes = crate::batch::Outcomes::new(1);
            let base_ts = 1 + id * STRIDE;
            w.push(Batch::new(
                txns,
                outcomes,
                base_ts,
                id,
                0,
                0,
                1,
                annotate_max_reads,
                crate::batch::tests::leaked_store(),
                &mut arena,
            ));
        };
        push(0);
        let quiescer = {
            let w = Arc::clone(&w);
            bohm_sync::thread::spawn(move || w.wait_retired())
        };
        push(1);
        push(2);
        w.wait_retired();
        assert!(w.is_empty(), "all three retired");
        w.close(3);
        assert_eq!(
            lane.join().unwrap(),
            [1],
            "the lane counted out of the reader batch only"
        );
        executor.join().unwrap();
        quiescer.join().unwrap();
    }

    #[test]
    fn the_lane_chase_counts_out_of_exactly_the_reader_batches() {
        model::explore(model::Options::default(), || lane_model(false));
    }

    #[test]
    fn a_lane_that_reads_a_vacant_slot_as_retired_replayably_strands_a_reader_batch() {
        crate::batch::modelcheck::twin_fails_replayably("deadlock", || lane_model(true));
    }

    /// See [`twin_fails_replayably`](crate::batch::modelcheck::twin_fails_replayably).
    fn twin_is_caught_replayably(fault: Fault, what: &str) {
        crate::batch::modelcheck::twin_fails_replayably(what, || cursor_model(fault));
    }

    #[test]
    fn asking_about_the_predecessor_outside_the_mutex_is_a_replayable_lost_retirement() {
        twin_is_caught_replayably(Fault::AsksOutsideTheMutex, "deadlock");
    }

    #[test]
    fn a_bound_published_at_count_out_replayably_passes_a_running_reader() {
        twin_is_caught_replayably(Fault::PublishesAtCountOut, "passed a running reader");
    }
}
