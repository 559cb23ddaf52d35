//! The ingest layer: the sequencer as a critical section, not a thread.
//!
//! The paper's sequencer (§3.2.1) is "a single thread … that assigns each
//! transaction a timestamp equal to its position in the input log". A log
//! position is a counter, and nothing about handing it out needs a thread of
//! its own: here the submitting client takes its position under the open
//! batch's mutex, and whoever fills a batch seals it.
//!
//! * **One append path.** The open batch comes with its outcome block
//!   (`crate::batch::Outcomes`, one slot per position): appending a
//!   transaction repacks its sets into the sequencer's arena, pushes it and
//!   takes the next slot. Lock order *is* log order, the serialization
//!   order. Each seal moves the block into its batch and opens a fresh one.
//! * **Submit** ([`BohmSession::submit`](crate::BohmSession::submit)): lock
//!   the open batch, append, and hand back a handle on the block's slot.
//! * **Replay** (`Inner::replay`, behind BOHM's
//!   [`BatchEngine::replay`](bohm_common::engine::BatchEngine::replay)): the
//!   other way in. Log order is serial order, so a logged batch is a sealed
//!   batch already: replay takes the mutex once per logged batch, appends its
//!   transactions and seals them through the same path as a size-triggered
//!   seal, splitting only a batch larger than `batch_size`. It reads their
//!   outcomes off the batch's block once the batch has retired — no handle,
//!   heap allocation or reap per transaction.
//! * **Seal by size.** The submission that brings the open batch to
//!   [`batch_size`](crate::BohmConfig::batch_size) seals it before letting go
//!   of the mutex — a group-commit leader, as in Aether's consolidated log
//!   insert (Johnson et al., PVLDB 2010): sample the checkpoint epoch,
//!   append the batch to the WAL (the durability point: nothing runs that is
//!   not logged), build the [`Batch`], queue it on the read lane if it has
//!   detached readers, and register it in the window ring (`crate::window`),
//!   which hands it to the CC threads. A full ring blocks that registration
//!   with the mutex held, so every other submitter waits behind the sealer:
//!   that is the backpressure, and what it bounds is one open batch. No
//!   pipeline thread ever takes this mutex, so nothing can deadlock on it.
//! * **Seal by time: whoever waits seals.** A [`TxnHandle`]
//!   knows its batch. [`wait`](crate::TxnHandle::wait) on a transaction
//!   whose batch is still open parks until the batch has been open for
//!   [`batch_linger`](crate::BohmConfig::batch_linger), then seals it;
//!   [`is_done`](crate::TxnHandle::is_done) seals a batch already past its
//!   linger. So depth-1 sessions still collect into one batch for up to a
//!   linger, a closed loop's drain seals after one, and a pure poller makes
//!   progress.
//! * **Close.** Dropping the engine seals what is open, then closes the
//!   ring and the lane at the number of batches sealed: the CC and execution
//!   threads finish those and exit.
//! * **A WAL fault** in any seal fails the engine: the open block's filled
//!   slots are poisoned (their waiters panic instead of hanging), the
//!   ring and the lane close behind the batches already sealed — those were
//!   logged, so they still run — and later submissions panic.
//!
//! Who sleeps where: a waiter lingering on an open batch raises
//! `Open::waiter_parked` under the mutex and parks on `Ingest::lingering`
//! until the linger deadline; a seal notifies only if it finds (and takes)
//! that flag. A streaming session therefore pays one uncontended lock per
//! transaction and no wake-up at all.
//!
//! Timestamps are strided: batch `b` owns `1 + b·batch_size ..=
//! (b+1)·batch_size`, and a partially-filled batch leaves the tail of its
//! stride unused. Gaps are invisible to the protocol (only order matters)
//! and buy the window's O(1) timestamp→batch arithmetic.

use crate::batch::{Batch, Outcomes, TxnHandle};
use crate::engine::Inner;
use bohm_common::engine::ExecOutcome;
use bohm_common::{Arena, LoggedBatch, Txn};
use bohm_sync::atomic::{AtomicU64, Ordering};
use bohm_sync::{Condvar, Mutex, MutexGuard};
use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// The sequencer's state: the open batch and the lock-free count of the
/// batches sealed before it.
pub(crate) struct Ingest {
    open: Mutex<Open>,
    /// Batches sealed so far (ids `0..sealed` are logged and in the ring, or
    /// already retired). Stored after each registration; a handle whose
    /// batch is below it skips the mutex.
    sealed: AtomicU64,
    /// Waiters lingering on the open batch (see the module docs).
    lingering: Condvar,
}

struct Open {
    /// The open batch's transactions in log order. Every seal drains it
    /// and keeps the capacity.
    entries: Vec<Txn>,
    /// Where the open batch's transactions will be decided: slot `i` for
    /// `entries[i]`. Every seal moves it into its batch.
    outcomes: Arc<Outcomes>,
    /// One arena across batches: consecutive batches pack their sets and CC
    /// plans into the same chunks, and a chunk recycles once every batch
    /// holding slices into it has retired — bounded by the window depth, so
    /// the steady state is malloc-free.
    arena: Arena,
    /// Id of the open batch, i.e. batches sealed so far.
    next_batch: u64,
    /// When the open batch received its first transaction.
    open_since: Instant,
    /// No more submissions: the engine was dropped, or its WAL failed.
    closed: bool,
    /// A waiter is (about to be) asleep on `lingering`.
    waiter_parked: bool,
}

impl Ingest {
    pub fn new(arena: Arena, batch_size: usize) -> Self {
        Self {
            open: Mutex::new(Open {
                entries: Vec::new(),
                outcomes: Outcomes::new(batch_size),
                arena,
                next_batch: 0,
                open_since: Instant::now(),
                closed: false,
                waiter_parked: false,
            }),
            sealed: AtomicU64::new(0),
            lingering: Condvar::new(),
        }
    }
}

impl Inner {
    /// Append `txn` to the open batch — its position there is its timestamp
    /// — and seal the batch if that filled it. Returns the handle on the
    /// transaction's slot in the batch's outcome block.
    ///
    /// Blocks while a seal waits for room in the ring. Panics if the engine
    /// has shut down.
    pub(crate) fn submit(self: &Arc<Self>, txn: Txn) -> TxnHandle {
        let mut open = self.open();
        let slot = self.append(&mut open, txn);
        let (outcomes, batch) = (Arc::clone(&open.outcomes), open.next_batch);
        if open.entries.len() >= self.config.batch_size {
            self.seal(&mut open);
        }
        drop(open);
        TxnHandle {
            outcomes,
            slot,
            batch,
            inner: Arc::clone(self),
        }
    }

    /// The open batch, locked. Panics if the engine has shut down.
    fn open(&self) -> MutexGuard<'_, Open> {
        let open = self.ingest.open.lock();
        if open.closed {
            drop(open);
            panic!("engine is shut down");
        }
        open
    }

    /// Append `txn` to the open batch, which has room for it, and return
    /// its slot. Moves the client-allocated sets into arena slices, so the
    /// batch's hot data is contiguous in log order and the client's `Vec`s
    /// are freed here, off the execution path.
    fn append(&self, open: &mut Open, mut txn: Txn) -> usize {
        if open.entries.is_empty() {
            open.open_since = Instant::now();
        }
        txn.repack(&mut open.arena);
        open.entries.push(txn);
        open.entries.len() - 1
    }

    /// Replay `batches` — a recovered log, in log order — into `engine`
    /// (this engine), one sealed batch per logged batch, and return every
    /// transaction's outcome in log order once the last batch has retired.
    /// See the module docs.
    ///
    /// # Errors
    ///
    /// Those of [`replay_into`](bohm_common::wal::replay_into), which
    /// replays a record that carries decisions; and an engine that fails
    /// (its log rejects an append) replays nothing more.
    pub(crate) fn replay(
        &self,
        engine: &crate::Bohm,
        batches: impl IntoIterator<Item = LoggedBatch>,
    ) -> io::Result<Vec<ExecOutcome>> {
        let mut out = Vec::new();
        // Sealed batches whose outcomes are not read yet, in id order.
        let mut sealed = VecDeque::new();
        let harvest = |out: &mut Vec<_>, sealed: &mut VecDeque<Arc<Batch>>| {
            let retired = self.window.retired();
            while sealed.front().is_some_and(|b: &Arc<Batch>| b.id < retired) {
                let b = sealed.pop_front().expect("checked above");
                out.extend((0..b.txns.len()).map(|i| b.outcomes.outcome(i)));
            }
        };
        for logged in batches {
            if logged.outcomes.is_some() {
                // Another engine's record: its decisions are checked one by
                // one, behind everything sealed so far.
                self.window.wait_retired();
                harvest(&mut out, &mut sealed);
                out.extend(bohm_common::wal::replay_into([logged], engine)?);
                continue;
            }
            let mut txns = logged.txns.into_iter().peekable();
            // A logged batch larger than this engine's batches (logged under
            // a larger `batch_size`) is split; no other boundary moves.
            while txns.peek().is_some() {
                let mut open = self.open();
                // Whatever a session left open seals on its own first.
                self.seal(&mut open);
                for txn in txns.by_ref().take(self.config.batch_size) {
                    self.append(&mut open, txn);
                }
                let batch = self.seal(&mut open).ok_or_else(|| {
                    io::Error::other("BOHM engine failed (write-ahead log append error)")
                })?;
                drop(open);
                sealed.push_back(batch);
                harvest(&mut out, &mut sealed);
            }
        }
        // The closing barrier: no transaction of its own, only a wait.
        self.window.wait_retired();
        harvest(&mut out, &mut sealed);
        Ok(out)
    }

    /// The time trigger, run by a handle of batch `id`: seal the batch if it
    /// is still open and has been for `batch_linger`. Before then, with
    /// `block`, park until the deadline (or until somebody else seals it);
    /// without, return at once.
    pub(crate) fn seal_lingered(&self, id: u64, block: bool) {
        if self.ingest.sealed.load(Ordering::Acquire) > id {
            return;
        }
        let mut open = self.ingest.open.lock();
        while open.next_batch == id && !open.closed {
            let deadline = open.open_since + self.config.batch_linger;
            if Instant::now() >= deadline {
                self.seal(&mut open);
                return;
            }
            if !block {
                return;
            }
            open.waiter_parked = true;
            self.ingest.lingering.wait_until(&mut open, deadline);
        }
    }

    /// Engine shutdown: seal what is open, then close the ring and the lane
    /// behind it. Idempotent.
    pub(crate) fn close_ingest(&self) {
        let mut open = self.ingest.open.lock();
        if !open.closed {
            self.seal(&mut open);
        }
        if !open.closed {
            self.close_locked(&mut open);
        }
    }

    /// Seal the open batch, if it holds anything; the caller holds the
    /// mutex. Returns the batch, unless the log failed it.
    fn seal(&self, open: &mut Open) -> Option<Arc<Batch>> {
        if open.entries.is_empty() {
            return None;
        }
        let id = open.next_batch;
        // Sample the epoch at seal time: every batch sealed after a
        // checkpoint's bump is stamped at or past its cut.
        let epoch = self.epoch.load(Ordering::Acquire);
        // Durability point: the batch's inputs reach the log (and the
        // configured fsync policy runs) *before* the batch is released to
        // CC. A log the engine can no longer append to is a stop-the-world
        // fault: continuing would silently break the recovery guarantee.
        if let Some(wal) = self.wal.get() {
            use bohm_common::wal::LogSink as _;
            if let Err(e) = wal.log_batch(epoch, &mut open.entries.iter()) {
                eprintln!("bohm: WAL append failed ({e}); failing the engine");
                open.outcomes.poison(open.entries.len());
                open.entries.clear();
                self.close_locked(open);
                return None;
            }
        }
        let outcomes = std::mem::replace(&mut open.outcomes, Outcomes::new(self.config.batch_size));
        let batch = Batch::new(
            open.entries.drain(..),
            outcomes,
            1 + id * self.config.batch_size as u64,
            id,
            epoch,
            self.config.cc_threads,
            self.config.exec_threads,
            self.config.annotate_max_reads,
            &mut open.arena,
        );
        open.next_batch = id + 1;
        // The read lane hears of a batch only if it has detached readers.
        if !batch.readers.is_empty() {
            self.lane.push(id);
        }
        // Registration publishes the batch to the CC threads; it blocks
        // while the ring is full — the backpressure.
        self.window.push(Arc::clone(&batch));
        self.ingest.sealed.store(id + 1, Ordering::Release);
        self.wake_lingering(open);
        Some(batch)
    }

    /// Stop taking submissions; the caller holds the mutex. The pipeline
    /// finishes every batch sealed so far, retires it and exits.
    fn close_locked(&self, open: &mut Open) {
        open.closed = true;
        self.window.close(open.next_batch);
        self.lane.close();
        self.wake_lingering(open);
    }

    fn wake_lingering(&self, open: &mut Open) {
        if std::mem::take(&mut open.waiter_parked) {
            self.ingest.lingering.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::config::{BohmConfig, CatalogSpec};
    use crate::Bohm;
    use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
    use bohm_common::{Procedure, RecordId, Txn};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::time::Duration;

    fn rmw(k: u64) -> Txn {
        let rid = RecordId::new(0, k);
        Txn::new(
            vec![rid],
            vec![rid],
            Procedure::ReadModifyWrite { delta: 1 },
        )
    }

    fn catalog() -> CatalogSpec {
        CatalogSpec::new().table(64, 8, |_| 0)
    }

    /// A durable config logging to a fresh directory named after `name`.
    fn durable(name: &str) -> (BohmConfig, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("bohm-ingest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = BohmConfig::small();
        let mut d = DurabilityConfig::new(&dir);
        d.fsync = FsyncPolicy::Off;
        cfg.durability = Some(d);
        (cfg, dir)
    }

    /// `f`'s result, or a failure — instead of a hang — after `limit`.
    fn within<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
        let limit = Duration::from_secs(20);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || tx.send(f()));
        rx.recv_timeout(limit)
            .unwrap_or_else(|_| panic!("{what} did not complete within {limit:?}"))
    }

    #[test]
    fn an_idle_engine_seals_a_lone_transaction_for_whoever_waits_or_polls() {
        // Nothing will ever fill a 1024-transaction batch: only the handle
        // can get it sealed.
        let mut cfg = BohmConfig::small();
        cfg.batch_size = 1024;
        let e = Bohm::start(cfg, catalog());
        let session = e.session();
        let out = within("a lone submit(t).wait()", move || {
            session.submit(rmw(1)).wait()
        });
        assert!(out.committed);
        let session = e.session();
        let out = within("a lone transaction watched through is_done", move || {
            let h = session.submit(rmw(2));
            while !h.is_done() {
                std::thread::yield_now();
            }
            h.wait()
        });
        assert!(out.committed);
        e.shutdown();
    }

    #[test]
    fn depth_one_sessions_still_share_batches() {
        // Eight sessions, each waiting for every transaction before the
        // next: what lets them share a batch is that a waiter lingers before
        // it seals. A waiter that sealed at once would log about one batch
        // per transaction.
        let (mut cfg, dir) = durable("depth1");
        cfg.batch_size = 1024;
        // Long enough that a busy host still schedules the other sessions
        // inside it.
        cfg.batch_linger = Duration::from_millis(5);
        let e = Bohm::start(cfg, catalog());
        const SESSIONS: u64 = 8;
        const EACH: u64 = 40;
        std::thread::scope(|s| {
            for c in 0..SESSIONS {
                let e = &e;
                s.spawn(move || {
                    let session = e.session();
                    for i in 0..EACH {
                        assert!(session.submit(rmw(c * 8 + i % 8)).wait().committed);
                    }
                });
            }
        });
        let batches = e.wal().expect("durable").batches_logged();
        let txns = SESSIONS * EACH;
        assert!(
            batches < txns / 2,
            "{batches} batches for {txns} transactions at depth 1"
        );
        e.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_wal_fault_in_a_waiters_linger_seal_poisons_the_whole_open_batch() {
        let (mut cfg, dir) = durable("lingerfault");
        cfg.batch_size = 1024;
        cfg.durability.as_mut().unwrap().segment_bytes = 1; // rotate per batch
        let e = Bohm::start(cfg, catalog());
        // Sabotage the rotation target: `create_new` on an existing path
        // fails, so the first sealed batch faults the WAL.
        std::fs::create_dir(dir.join("wal-00000001.seg")).unwrap();
        let session = e.session();
        let handles: Vec<_> = (0..5).map(|k| session.submit(rmw(k))).collect();
        // Nothing filled the batch: the first wait seals it by linger and
        // hits the fault.
        let first = catch_unwind(AssertUnwindSafe(|| handles[0].wait()));
        assert!(first.is_err(), "the waiter observes the fault");
        for h in &handles {
            assert!(h.is_done(), "every handle of the open batch is decided");
            let waited = catch_unwind(AssertUnwindSafe(|| h.wait()));
            assert!(waited.is_err(), "and poisoned");
        }
        let late = catch_unwind(AssertUnwindSafe(|| session.submit(rmw(0))));
        let msg = late
            .map(drop)
            .expect_err("a submit after the fault must panic");
        assert_eq!(msg.downcast_ref::<&str>(), Some(&"engine is shut down"));
        drop(e); // shutdown must not hang either
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

/// Model-checked sealing (`RUSTFLAGS="--cfg bohm_modelcheck" cargo test -p
/// bohm modelcheck`): the real submit, linger-seal and close paths against a
/// real WAL and window ring, with a pipeline stand-in that executes each
/// batch as it arrives.
#[cfg(all(test, bohm_modelcheck))]
mod modelcheck {
    use super::*;
    use crate::config::{BohmConfig, CatalogSpec};
    use bohm_common::wal::{DurabilityConfig, FsyncPolicy, LogSink, Wal};
    use bohm_common::{Procedure, RecordId};
    use bohm_sync::{model, thread};
    use std::path::Path;

    /// Where a twin departs from the protocol.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// The sealer builds and registers its batch under the mutex but
        /// appends it to the WAL after letting go: a sealer behind it can
        /// log first.
        AppendsAfterUnlock,
    }

    fn tagged(tag: u64) -> Txn {
        let rid = RecordId::new(0, tag % 4);
        Txn::new(
            vec![rid],
            vec![rid],
            Procedure::ReadModifyWrite { delta: tag },
        )
    }

    fn tag_of(t: &Txn) -> u64 {
        match t.proc {
            Procedure::ReadModifyWrite { delta } => delta,
            _ => unreachable!("`tagged` builds RMWs"),
        }
    }

    /// The twin's seal: everything `Inner::seal` does, with the log append
    /// moved past the unlock.
    fn twin_seal(inner: &Inner, mut guard: bohm_sync::MutexGuard<'_, Open>) {
        let open = &mut *guard;
        if open.entries.is_empty() {
            return;
        }
        let id = open.next_batch;
        open.next_batch = id + 1;
        let outcomes =
            std::mem::replace(&mut open.outcomes, Outcomes::new(inner.config.batch_size));
        let batch = Batch::new(
            open.entries.drain(..),
            outcomes,
            1 + id * inner.config.batch_size as u64,
            id,
            0,
            inner.config.cc_threads,
            inner.config.exec_threads,
            inner.config.annotate_max_reads,
            &mut open.arena,
        );
        inner.window.push(Arc::clone(&batch));
        inner.ingest.sealed.store(id + 1, Ordering::Release);
        drop(guard);
        let wal = inner.wal.get().expect("durable");
        wal.log_batch(0, &mut batch.txns.iter().map(|t| &t.txn))
            .unwrap();
    }

    /// Submit through the real session path, or the twin's.
    fn submit(inner: &Arc<Inner>, fault: Fault, tag: u64) -> TxnHandle {
        if fault == Fault::None {
            return inner.submit(tagged(tag));
        }
        let mut open = inner.ingest.open.lock();
        let slot = inner.append(&mut open, tagged(tag));
        let (outcomes, batch) = (Arc::clone(&open.outcomes), open.next_batch);
        if open.entries.len() >= inner.config.batch_size {
            twin_seal(inner, open);
        }
        TxnHandle {
            outcomes,
            slot,
            batch,
            inner: Arc::clone(inner),
        }
    }

    /// Wait for `h` as `TxnHandle::wait` does (linger 0: seal at once), or
    /// with the twin's seal.
    fn wait(h: &TxnHandle, fault: Fault) -> bool {
        if fault == Fault::AppendsAfterUnlock {
            let open = h.inner.ingest.open.lock();
            if open.next_batch == h.batch {
                twin_seal(&h.inner, open);
            }
        }
        h.wait().committed
    }

    /// Two submitters (stride 2, a capacity-2 ring): one submits tags 1 and
    /// 2; the other submits 3, waits for it — sealing its batch by linger —
    /// and submits 4. Then the engine-drop path seals the rest and closes.
    /// A stand-in pipeline thread executes each batch as it arrives. Checked:
    /// batches are registered in id order (`Window::push` asserts it) and
    /// each sealed batch reaches the pipeline; the WAL holds the batches'
    /// transactions in batch-id order; every handle is decided, committed,
    /// in the batch it was told.
    fn ingest_model(fault: Fault, dir: &Path) {
        let _ = std::fs::remove_dir_all(dir);
        let mut cfg = BohmConfig::with_threads(1, 1);
        cfg.batch_size = 2;
        cfg.batch_linger = std::time::Duration::ZERO;
        cfg.max_inflight_batches = 2;
        cfg.index_capacity = 16;
        let mut d = DurabilityConfig::new(dir);
        d.fsync = FsyncPolicy::Off;
        let inner = Arc::new(Inner::new(cfg, CatalogSpec::new().table(4, 8, |_| 0)));
        inner.wal.set(Wal::open(&d).unwrap()).unwrap();
        let pipeline = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || {
                let mut tags = Vec::new();
                let mut id = 0;
                while let Some(b) = inner.window.next_for_cc(id) {
                    assert_eq!(b.base_ts, 1 + id * 2, "strided timestamps");
                    inner.window.cc_done(&b);
                    for t in b.txns.iter() {
                        assert!(t.try_claim());
                        b.complete(t, true, b.id);
                        tags.push(tag_of(&t.txn));
                    }
                    inner.window.count_out(id);
                    id += 1;
                }
                (id, tags)
            })
        };
        let first = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || [1, 2].map(|t| submit(&inner, fault, t)))
        };
        let second = {
            let inner = Arc::clone(&inner);
            thread::spawn(move || {
                let h3 = submit(&inner, fault, 3);
                assert!(wait(&h3, fault));
                [h3, submit(&inner, fault, 4)]
            })
        };
        let mut handles = Vec::from(first.join().unwrap());
        handles.extend(second.join().unwrap());
        inner.close_ingest();
        let (batches, executed) = pipeline.join().unwrap();
        assert_eq!(batches, inner.ingest.sealed.load(Ordering::Acquire));
        for h in &handles {
            assert!(h.is_done(), "every handle is decided");
            let out = h.wait();
            assert!(out.committed);
            assert_eq!(out.fingerprint, h.batch, "decided in the batch it was told");
        }
        let logged: Vec<u64> = Wal::read_log(dir)
            .unwrap()
            .iter()
            .flat_map(|b| b.txns.iter().map(tag_of))
            .collect();
        assert_eq!(logged, executed, "WAL records out of order");
        drop(inner);
        std::fs::remove_dir_all(dir).unwrap();
    }

    fn model_dir(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("bohm-ingest-model-{name}-{}", std::process::id()))
    }

    #[test]
    fn sealing_logs_and_registers_batches_in_id_order_and_decides_every_handle() {
        let dir = model_dir("ok");
        model::explore(model::Options::default(), || {
            ingest_model(Fault::None, &dir)
        });
    }

    #[test]
    fn a_sealer_that_appends_after_unlocking_is_replayably_out_of_order() {
        let dir = model_dir("twin");
        crate::batch::modelcheck::twin_fails_replayably("WAL records out of order", || {
            ingest_model(Fault::AppendsAfterUnlock, &dir)
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
}
