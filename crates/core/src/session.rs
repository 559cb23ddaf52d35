//! Client sessions: per-transaction submission, with each outcome read off
//! its slot in the batch's outcome block, plus the [`BatchEngine`] facade
//! impl that lets one driver code path run BOHM next to the interactive
//! baselines.

use crate::batch::TxnHandle;
use crate::engine::{Bohm, Inner};
use bohm_common::engine::{BatchEngine, ExecOutcome, Session};
use bohm_common::{LoggedBatch, RecordId, Txn};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;

/// A client's submission handle into a running [`Bohm`] engine.
///
/// Sessions submit **single transactions** and receive per-transaction
/// [`TxnHandle`]s. The session does the sequencing itself (see
/// [`ingest`](crate::ingest)): `submit` takes the open batch's mutex,
/// appends the transaction — its position is its timestamp — and, if that
/// filled the batch, seals it and hands it to the pipeline before
/// returning. Any number of sessions (across any number of threads) may
/// feed one engine; the order they take the mutex in is the serialization
/// order. A full in-flight ring blocks whoever is sealing, and every other
/// `submit` waits behind it — engine backpressure reaches the client
/// instead of unbounded queueing.
///
/// The session path costs the pipeline plain stores per transaction: an
/// outcome is one atomic word in the batch's outcome block that the
/// executing thread sets, and nobody is woken unless a thread is parked on
/// that very slot. It costs the client no allocation: the handle shares the
/// block its batch opened with. A pipelining client
/// should therefore poll ([`TxnHandle::is_done`]) or reap through the
/// [`Session`] facade, whose [`reap`](Session::reap) parks rarely (see
/// there); `submit(txn).wait()` stays a precise round trip, sealing the
/// transaction's batch after one linger if nothing else fills it.
pub struct BohmSession {
    inner: Arc<Inner>,
    /// FIFO of handles for the [`Session`] facade (`submit`+`reap`).
    pending: VecDeque<TxnHandle>,
}

/// [`Session::reap`]'s low-water mark: a blocked reap parks on
/// `pending[len / REAP_PARK_DIVISOR]`. A constant, not an option — the
/// offset sweep behind it is in DESIGN.md ("Session path").
const REAP_PARK_DIVISOR: usize = 4;

impl BohmSession {
    pub(crate) fn new(inner: Arc<Inner>) -> Self {
        Self {
            inner,
            pending: VecDeque::new(),
        }
    }

    /// Submit one transaction; returns a handle signalled the moment an
    /// execution thread completes it (no batch-drain wait).
    ///
    /// Blocks while a seal waits for room in the in-flight ring (its own,
    /// or another session's). Panics if the engine has shut down.
    pub fn submit(&self, txn: Txn) -> TxnHandle {
        self.inner.submit(txn)
    }
}

impl Session for BohmSession {
    fn submit(&mut self, txn: Txn) {
        let handle = BohmSession::submit(self, txn);
        self.pending.push_back(handle);
    }

    fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Outcome of the **oldest** outstanding transaction — never reorders.
    ///
    /// May block until a quarter of the pending queue has completed: when
    /// the front is not done yet, the session first parks on the handle a
    /// quarter of the way into its FIFO (on the front itself while fewer
    /// than four are outstanding), so one park — and one wake-up issued by
    /// an execution thread — pays for a quarter of the queue instead of for
    /// a handful of transactions.
    fn reap(&mut self) -> ExecOutcome {
        let front = self.pending.front().expect("reap with nothing in flight");
        if !front.is_done() {
            self.pending[self.pending.len() / REAP_PARK_DIVISOR].wait();
        }
        let handle = self.pending.pop_front().expect("front was just read");
        // Still a precise wait: with several execution threads the handle
        // parked on above may complete before the front does.
        handle.wait()
    }
}

impl BatchEngine for Bohm {
    type Session<'a> = BohmSession;

    fn name(&self) -> &'static str {
        "Bohm"
    }

    fn open_session(&self) -> BohmSession {
        self.session()
    }

    fn read_record(&self, rid: RecordId) -> Option<bohm_common::Value> {
        Bohm::read_record(self, rid)
    }

    fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        Bohm::snapshot_records(self, f)
    }

    /// Retirement barrier: [`execute_sync`](Bohm::execute_sync)
    /// returns once every batch pushed so far has **retired**, and the one
    /// no-op it sends through the log is ordered after every
    /// earlier-submitted transaction — so all of those have executed and
    /// their batches drained (GC bound advanced, `read_record` race-free).
    /// Transactions other threads submit meanwhile are not waited for.
    fn quiesce(&self) {
        self.execute_sync(vec![Txn::new(
            Vec::new(),
            Vec::new(),
            bohm_common::Procedure::ReadOnly,
        )]);
    }

    /// Replay at pipeline speed: log order is serial order, so each logged
    /// batch is sealed as one batch, with no session, handle or reap per
    /// transaction, and the outcomes are read off each batch's block once
    /// it retires (see [`ingest`](crate::ingest)).
    fn replay(
        &self,
        batches: impl IntoIterator<Item = LoggedBatch>,
    ) -> io::Result<Vec<ExecOutcome>> {
        self.inner.replay(self, batches)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{BohmConfig, CatalogSpec};
    use bohm_common::Procedure;

    fn rmw(k: u64) -> Txn {
        let rid = RecordId::new(0, k);
        Txn::new(
            vec![rid],
            vec![rid],
            Procedure::ReadModifyWrite { delta: 1 },
        )
    }

    #[test]
    fn facade_session_pipelines_and_reaps_fifo() {
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(8, 8, |_| 0));
        let mut s: BohmSession = e.open_session();
        for i in 0..100 {
            Session::submit(&mut s, rmw(i % 8));
            while s.in_flight() > 16 {
                assert!(s.reap().committed);
            }
        }
        while s.in_flight() > 0 {
            assert!(s.reap().committed);
        }
        // Quiesce with a barrier submission, then audit.
        e.execute_sync(vec![rmw(0)]);
        let total: u64 = (0..8)
            .map(|k| Bohm::read_u64(&e, RecordId::new(0, k)).unwrap())
            .sum();
        assert_eq!(total, 101);
        e.shutdown();
    }

    /// Closed loop at `depth` over `n` RMWs of one key on one execution
    /// thread; returns how often the session thread parked. A single-key
    /// RMW fingerprints the value it read, so in submission order the
    /// outcome at position `i` — and no other — carries `i`.
    fn parks_of_closed_loop(depth: usize, n: u64) -> usize {
        use crate::batch::PARKS;
        let mut cfg = BohmConfig::with_threads(1, 1);
        cfg.batch_size = 256;
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |_| 0));
        let mut s: BohmSession = e.open_session();
        let before = PARKS.with(|p| p.get());
        let mut reaped = 0;
        let mut check = |out: ExecOutcome| {
            assert!(out.committed);
            assert_eq!(out.fingerprint, reaped, "reap reordered outcomes");
            reaped += 1;
        };
        for _ in 0..n {
            Session::submit(&mut s, rmw(3));
            while s.in_flight() >= depth {
                check(s.reap());
            }
        }
        while s.in_flight() > 0 {
            check(s.reap());
        }
        assert_eq!(reaped, n);
        let parks = PARKS.with(|p| p.get()) - before;
        e.shutdown();
        parks
    }

    #[test]
    fn deep_pipeline_parks_once_per_quarter_queue_not_per_transaction() {
        // Two parks per blocking episode (the quarter handle, then perhaps
        // the front), one episode per quarter of the queue.
        let (depth, n) = (1024, 50_000);
        let parks = parks_of_closed_loop(depth, n);
        assert!(
            parks <= n as usize / (depth / 8),
            "{parks} parks for {n} transactions at depth {depth}"
        );
    }

    #[test]
    fn shallow_pipelines_wait_on_the_front_only() {
        // A closed loop at `depth` reaps with `depth` handles pending; below
        // the divisor `len / 4 == 0`, so the handle parked on is the front
        // itself and no other transaction's completion is waited for.
        for depth in 1..REAP_PARK_DIVISOR {
            assert_eq!(depth / REAP_PARK_DIVISOR, 0);
            parks_of_closed_loop(depth, 300);
        }
    }

    #[test]
    fn waiters_on_one_batch_share_its_block_and_all_wake_within_a_deadline() {
        // Several threads each submit one transaction into the one open
        // batch and wait on it: they share its outcome block and the one
        // condvar in it. Each transaction thinks for a while, so waiters
        // park on their slots before the executors decide them, and every
        // decision wakes the waiters of other slots too; each must still
        // come back with its own outcome.
        const WAITERS: u64 = 6;
        let mut cfg = BohmConfig::small();
        cfg.batch_size = 1024;
        cfg.batch_linger = std::time::Duration::from_millis(2);
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |_| 0));
        let joined = Arc::new(std::sync::Barrier::new(WAITERS as usize));
        let (tx, rx) = std::sync::mpsc::channel();
        let mut threads = Vec::new();
        for k in 0..WAITERS {
            let (session, joined, tx) = (e.session(), Arc::clone(&joined), tx.clone());
            threads.push(std::thread::spawn(move || {
                let mut t = rmw(k);
                t.think_us = 20_000;
                let h = session.submit(t);
                // Nobody seals before everybody has joined the batch.
                joined.wait();
                tx.send((h.batch, h.slot, h.wait())).unwrap();
            }));
        }
        drop(tx);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(20);
        let mut slots = Vec::new();
        for _ in 0..WAITERS {
            let left = deadline.saturating_duration_since(std::time::Instant::now());
            let (batch, slot, out) = rx
                .recv_timeout(left)
                .expect("a waiter on a shared outcome block was never woken");
            assert_eq!(batch, 0, "one open batch");
            // An RMW of a fresh key reads the seed, 0.
            assert_eq!((out.committed, out.fingerprint), (true, 0));
            slots.push(slot);
        }
        slots.sort_unstable();
        assert_eq!(slots, (0..WAITERS as usize).collect::<Vec<_>>());
        for t in threads {
            t.join().unwrap();
        }
        e.shutdown();
    }

    #[test]
    fn handle_can_be_waited_on_from_another_thread() {
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(8, 8, |_| 0));
        let s = e.session();
        let (tx, rx) = std::sync::mpsc::channel::<TxnHandle>();
        let waiter = std::thread::spawn(move || rx.iter().filter(|h| h.wait().committed).count());
        // The session thread keeps submitting while the other one waits.
        for i in 0..2_000u64 {
            tx.send(s.submit(rmw(i % 8))).unwrap();
        }
        drop(tx);
        assert_eq!(waiter.join().unwrap(), 2_000);
        e.shutdown();
    }
}
