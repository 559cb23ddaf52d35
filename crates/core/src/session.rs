//! Client sessions: per-transaction submission with per-transaction
//! completion, plus the [`BatchEngine`] facade impl that lets one driver
//! code path run BOHM next to the interactive baselines.

use crate::batch::{Completion, TxnHandle};
use crate::engine::{Bohm, Inner};
use bohm_common::engine::{BatchEngine, ExecOutcome, Session};
use bohm_common::{RecordId, Txn};
use std::collections::VecDeque;
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
/// The session path costs the pipeline plain stores per transaction: a
/// completion is one atomic word the executing thread sets, and nobody is
/// woken unless a thread is parked on that very handle. A pipelining client
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
        let completion = Completion::new();
        let batch = self.inner.submit(txn, Arc::clone(&completion));
        TxnHandle {
            completion,
            batch,
            inner: Arc::clone(&self.inner),
        }
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
        let out = handle.wait();
        ExecOutcome {
            committed: out.committed,
            fingerprint: out.fingerprint,
            // BOHM never aborts for concurrency control (§3.3.3).
            cc_retries: 0,
        }
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
