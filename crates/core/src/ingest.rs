//! The ingest layer: bounded submission queue + the dedicated sequencer.
//!
//! The paper's sequencer (§3.2.1) is "a single thread … that assigns each
//! transaction a timestamp equal to its position in the input log". Earlier
//! revisions of this codebase emulated that with a `Mutex<Sequencer>` taken
//! on every `submit` call — contended by every client and unable to form
//! batches across clients. This module gives the sequencer its own thread,
//! fed by a bounded multi-producer queue:
//!
//! * **Clients** ([`BohmSession`](crate::BohmSession)) enqueue single
//!   transactions and receive completion handles immediately — one
//!   submission is one transaction is one completion word, and there is no
//!   other way in. The queue holds at most
//!   [`ingest_capacity`](crate::BohmConfig::ingest_capacity) of them; a
//!   saturated queue blocks the submitting client — backpressure instead
//!   of unbounded growth.
//! * **The sequencer** drains the queue in arrival order (arrival order
//!   *is* the serialization order) — one lock acquisition per *refill*,
//!   which moves up to the open batch's remaining room into the
//!   sequencer's own buffer, so the bound on accepted-but-unsealed work
//!   stays "queue + one open batch" — packs transactions into batches, and
//!   seals a batch when it reaches
//!   [`batch_size`](crate::BohmConfig::batch_size) **or** when
//!   [`batch_linger`](crate::BohmConfig::batch_linger) elapses with the
//!   queue idle — size and time triggers, so steady streams amortize the
//!   per-batch barriers and sparse traffic is not held hostage.
//! * Sealed batches are registered in the `Window` ring
//!   (`crate::window`) — which blocks while the in-flight-batch budget is
//!   exhausted, completing the backpressure chain. Registration *is* the
//!   hand-off: every CC thread chases the ring for its next batch id. When
//!   the sequencer leaves (queue closed and drained, or a WAL fault) it
//!   closes the window at the number of batches it pushed, which is what
//!   lets the CC and execution threads finish those batches and exit.
//!
//! Who sleeps where: a sender on `not_full`, the sequencer on `not_empty`,
//! each announcing itself in a flag under the queue mutex first; the other
//! side notifies only when it finds (and takes) that flag. A streaming
//! session and a busy sequencer therefore exchange no wake-ups at all — per
//! transaction the queue costs the sender one uncontended lock and the
//! sequencer one `VecDeque` pop of its own buffer.
//!
//! Timestamps are strided: batch `b` owns `1 + b·batch_size ..=
//! (b+1)·batch_size`, and a partially-filled batch leaves the tail of its
//! stride unused. Gaps are invisible to the protocol (only order matters)
//! and buy the window's O(1) timestamp→batch arithmetic.

use crate::batch::{Batch, Completion};
use crate::engine::Inner;
use bohm_common::Txn;
use bohm_sync::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// One client submission: a transaction bound to its completion word.
pub(crate) struct SubmitReq {
    pub txn: Txn,
    pub completion: Arc<Completion>,
}

/// [`IngestTx::send`] after [`IngestTx::close`]: nothing was enqueued.
#[derive(Debug)]
pub(crate) struct EngineClosed;

struct QueueState {
    reqs: VecDeque<SubmitReq>,
    closed: bool,
    /// A sender is (about to be) asleep on `not_full`. Set by the sender
    /// before it waits, taken by whoever notifies — like `receiver_parked`,
    /// a plain field under the queue mutex, so neither condvar is ever
    /// notified (a syscall, waiter or not) unless its peer is parked.
    sender_blocked: bool,
    /// The sequencer is (about to be) asleep on `not_empty`.
    receiver_parked: bool,
}

struct QueueShared {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    capacity: usize,
}

impl QueueShared {
    /// Stop accepting submissions: blocked senders wake up and error out,
    /// the receiver drains what is queued. Idempotent.
    fn close(&self) {
        self.state.lock().closed = true;
        self.not_full.notify_all();
        self.not_empty.notify_all();
    }
}

/// Submitting half of the ingest queue (cloned into every session).
#[derive(Clone)]
pub(crate) struct IngestTx {
    shared: Arc<QueueShared>,
}

/// Draining half (owned by the sequencer thread).
pub(crate) struct IngestRx {
    shared: Arc<QueueShared>,
    /// Submissions already moved out of the shared queue, oldest first;
    /// worked through without the lock.
    taken: VecDeque<SubmitReq>,
}

pub(crate) enum RecvOutcome {
    Req(SubmitReq),
    TimedOut,
    Closed,
}

pub(crate) fn ingest_queue(capacity: usize) -> (IngestTx, IngestRx) {
    let shared = Arc::new(QueueShared {
        state: Mutex::new(QueueState {
            reqs: VecDeque::new(),
            closed: false,
            sender_blocked: false,
            receiver_parked: false,
        }),
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
        capacity,
    });
    (
        IngestTx {
            shared: Arc::clone(&shared),
        },
        IngestRx {
            shared,
            taken: VecDeque::new(),
        },
    )
}

impl IngestTx {
    /// Enqueue a submission, blocking while the transaction budget is
    /// exhausted (backpressure). Fails only when the engine has shut down.
    pub fn send(&self, req: SubmitReq) -> Result<(), EngineClosed> {
        let mut st = self.shared.state.lock();
        loop {
            if st.closed {
                return Err(EngineClosed);
            }
            if st.reqs.len() < self.shared.capacity {
                st.reqs.push_back(req);
                let wake = std::mem::take(&mut st.receiver_parked);
                drop(st);
                if wake {
                    self.shared.not_empty.notify_one();
                }
                return Ok(());
            }
            st.sender_blocked = true;
            self.shared.not_full.wait(&mut st);
        }
    }

    /// Test hook: wake the receiver without enqueueing anything, emulating
    /// a spurious condvar wakeup deterministically.
    #[cfg(test)]
    pub fn spurious_wake(&self) {
        let _guard = self.shared.state.lock();
        self.shared.not_empty.notify_all();
    }

    /// Stop accepting submissions; the sequencer drains what is queued and
    /// exits.
    pub fn close(&self) {
        self.shared.close();
    }
}

impl IngestRx {
    /// Pop the oldest submission; with a deadline, give up at the deadline
    /// (the sequencer's linger timer). `Closed` only after the queue has
    /// fully drained, so no accepted submission is ever dropped.
    ///
    /// The shared queue is locked once per *refill*, not per submission: a
    /// refill moves up to `room` submissions (the open batch's remaining
    /// room, at least one) into the receiver's own buffer, so what has left
    /// the bounded queue never exceeds one open batch.
    pub fn recv_deadline(&mut self, deadline: Option<Instant>, room: usize) -> RecvOutcome {
        if let Some(req) = self.taken.pop_front() {
            return RecvOutcome::Req(req);
        }
        let mut st = self.shared.state.lock();
        loop {
            let n = room.min(st.reqs.len());
            self.taken.extend(st.reqs.drain(..n));
            if let Some(req) = self.taken.pop_front() {
                let wake = std::mem::take(&mut st.sender_blocked);
                drop(st);
                if wake {
                    self.shared.not_full.notify_all();
                }
                return RecvOutcome::Req(req);
            }
            if st.closed {
                return RecvOutcome::Closed;
            }
            st.receiver_parked = true;
            // Re-check the clock before re-arming: a spurious (or
            // data-less) wakeup near the deadline must not start
            // another full wait and overshoot the linger.
            let timed_out = match deadline {
                None => {
                    self.shared.not_empty.wait(&mut st);
                    false
                }
                Some(d) => {
                    Instant::now() >= d || self.shared.not_empty.wait_until(&mut st, d).timed_out()
                }
            };
            st.receiver_parked = false;
            if timed_out {
                return RecvOutcome::TimedOut;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The sequencer role
// ---------------------------------------------------------------------------

/// Main loop of the sequencer thread: drain → bind → seal → publish.
pub(crate) fn seq_loop(inner: &Inner, mut rx: IngestRx) {
    let stride = inner.config.batch_size;
    let linger = inner.config.batch_linger;
    let mut next_batch: u64 = 0;
    let mut open: Vec<(Txn, Arc<Completion>)> = Vec::with_capacity(stride);
    let mut open_since = Instant::now();
    // One persistent arena for the sequencer: consecutive batches pack their
    // read/write sets and CC plans into the same chunks, and each chunk
    // recycles through the pool once every batch referencing it retires —
    // bounded by the in-flight window depth, so steady state is malloc-free.
    let mut arena = inner.arena_pool.arena();

    // Seal the open batch; `false` means the WAL rejected the append and
    // the engine must stop (the entries stay in `open` for poisoning).
    let seal = |open: &mut Vec<(Txn, Arc<Completion>)>,
                next_batch: &mut u64,
                arena: &mut bohm_common::Arena| {
        if open.is_empty() {
            return true;
        }
        let base_ts = 1 + *next_batch * stride as u64;
        // Sample the epoch at seal time: every batch sealed after a
        // checkpoint's bump is stamped at or past its cut.
        let epoch = inner.epoch.load(bohm_sync::atomic::Ordering::Acquire);
        // Durability point: the batch's inputs hit the log (and the
        // configured fsync policy runs) *before* the batch is released
        // to CC — nothing executes that isn't recoverable. A log the
        // engine can no longer append to is a stop-the-world fault:
        // continuing would silently break the recovery guarantee, so
        // the sequencer fails the engine instead (see `fail_engine`).
        if let Some(wal) = &inner.wal {
            use bohm_common::wal::LogSink as _;
            if let Err(e) = wal.log_batch(epoch, &mut open.iter().map(|(t, _)| t)) {
                eprintln!("bohm-seq: WAL append failed ({e}); failing the engine");
                return false;
            }
        }
        let batch = Batch::new(
            std::mem::take(open),
            base_ts,
            *next_batch,
            epoch,
            inner.config.cc_threads,
            inner.config.exec_threads,
            inner.config.annotate_max_reads,
            arena,
        );
        *next_batch += 1;
        // The read lane hears of a batch only if it has detached readers.
        if !batch.readers.is_empty() {
            inner.lane.push(batch.id);
        }
        // Ring registration (it may block on the in-flight budget — that
        // stall is the backpressure) publishes the batch to the CC
        // threads, so no placeholder is ever installed whose producer is
        // not resolvable through the ring.
        inner.window.push(batch);
        true
    };

    // Runs until the queue is closed and drained (`true`) or a seal fails.
    let sealed_all = 'run: loop {
        let deadline = (!open.is_empty()).then(|| open_since + linger);
        match rx.recv_deadline(deadline, stride - open.len()) {
            RecvOutcome::Req(SubmitReq {
                mut txn,
                completion,
            }) => {
                if open.is_empty() {
                    open_since = Instant::now();
                }
                // Move the client-allocated sets into arena slices so the
                // batch's hot data is contiguous in submission order and
                // the client Vecs free here, off the execution path.
                txn.repack(&mut arena);
                open.push((txn, completion));
                // size trigger
                if open.len() >= stride && !seal(&mut open, &mut next_batch, &mut arena) {
                    break 'run false;
                }
            }
            // time trigger
            RecvOutcome::TimedOut => {
                if !seal(&mut open, &mut next_batch, &mut arena) {
                    break 'run false;
                }
            }
            RecvOutcome::Closed => break 'run seal(&mut open, &mut next_batch, &mut arena),
        }
    };
    if !sealed_all {
        fail_engine(open, rx);
    }
    // Every pushed batch is still fully processed and retired; a consumer
    // whose next batch id equals this count then exits.
    inner.window.close(next_batch);
    inner.lane.close();
}

/// Stop-the-world engine fault (the WAL refused an append): nothing
/// unlogged may execute, so every submission that has not reached a
/// sealed batch is poisoned — its waiters panic with the fault instead of
/// deadlocking on outcomes that will never arrive — and the ingest queue
/// is closed so new submissions fail fast. Batches already sealed (and
/// therefore logged) keep executing; they are recoverable.
fn fail_engine(open: Vec<(Txn, Arc<Completion>)>, mut rx: IngestRx) {
    for (_, completion) in open {
        completion.poison();
    }
    rx.shared.close();
    loop {
        match rx.recv_deadline(None, usize::MAX) {
            RecvOutcome::Req(req) => req.completion.poison(),
            RecvOutcome::Closed => break,
            RecvOutcome::TimedOut => unreachable!("no deadline given"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A submission recognisable by `tag` (its RMW delta).
    fn req(tag: u64) -> SubmitReq {
        let rid = bohm_common::RecordId::new(0, 1);
        let proc = bohm_common::Procedure::ReadModifyWrite { delta: tag };
        SubmitReq {
            txn: Txn::new(vec![rid], vec![rid], proc),
            completion: Completion::new(),
        }
    }

    fn tag_of(out: RecvOutcome) -> u64 {
        match out {
            RecvOutcome::Req(SubmitReq { txn, .. }) => match txn.proc {
                bohm_common::Procedure::ReadModifyWrite { delta } => delta,
                _ => unreachable!("`req` builds RMWs"),
            },
            _ => panic!("expected a submission"),
        }
    }

    fn send(tx: &IngestTx, tag: u64) {
        tx.send(req(tag)).map_err(|_| ()).unwrap();
    }

    #[test]
    fn queue_is_fifo() {
        let (tx, mut rx) = ingest_queue(100);
        send(&tx, 3);
        send(&tx, 5);
        assert_eq!(tag_of(rx.recv_deadline(None, usize::MAX)), 3);
        assert_eq!(tag_of(rx.recv_deadline(None, usize::MAX)), 5);
    }

    /// Spin until the queue state satisfies `p` — a forced interleaving
    /// instead of a sleep.
    fn await_state(shared: &QueueShared, p: impl Fn(&QueueState) -> bool) {
        while !p(&shared.state.lock()) {
            std::thread::yield_now();
        }
    }

    #[test]
    fn saturated_queue_blocks_sender_until_drained() {
        use bohm_sync::atomic::{AtomicBool, Ordering};
        let (tx, mut rx) = ingest_queue(4);
        (0..4).for_each(|i| send(&tx, i)); // budget exhausted
        let sent = Arc::new(AtomicBool::new(false));
        let (tx2, sent2) = (tx.clone(), Arc::clone(&sent));
        let t = std::thread::spawn(move || {
            send(&tx2, 4); // must block
            sent2.store(true, Ordering::SeqCst);
        });
        // The sender announces itself before it sleeps ...
        await_state(&tx.shared, |st| st.sender_blocked);
        assert!(
            !sent.load(Ordering::SeqCst),
            "send must block on a saturated queue (backpressure)"
        );
        // ... and the refill that makes room takes the flag and wakes it.
        let RecvOutcome::Req(_) = rx.recv_deadline(None, usize::MAX) else {
            panic!()
        };
        assert!(!tx.shared.state.lock().sender_blocked);
        t.join().unwrap();
        assert!(sent.load(Ordering::SeqCst));
    }

    #[test]
    fn parked_receiver_is_woken_by_the_send_that_finds_it() {
        let (tx, mut rx) = ingest_queue(4);
        let t = std::thread::spawn(move || tag_of(rx.recv_deadline(None, usize::MAX)));
        await_state(&tx.shared, |st| st.receiver_parked);
        send(&tx, 3);
        assert_eq!(t.join().unwrap(), 3);
        // Nobody is parked any more: this send must leave the flag alone
        // (and so notify nobody).
        send(&tx, 1);
        assert!(!tx.shared.state.lock().receiver_parked);
    }

    #[test]
    fn refill_takes_the_open_batch_room_under_one_lock() {
        let (tx, mut rx) = ingest_queue(100);
        (0..7).for_each(|i| send(&tx, i));
        // Room 5: five submissions leave the queue, one is handed out.
        assert_eq!(tag_of(rx.recv_deadline(None, 5)), 0);
        assert_eq!(rx.taken.len(), 4);
        assert_eq!(tx.shared.state.lock().reqs.len(), 2);
        // Served from the receiver's own buffer: the queue is untouched,
        // whatever the room.
        for want in 1..5 {
            assert_eq!(tag_of(rx.recv_deadline(None, 1)), want);
            assert_eq!(tx.shared.state.lock().reqs.len(), 2);
        }
        assert_eq!(tag_of(rx.recv_deadline(None, 1)), 5);
        assert_eq!((rx.taken.len(), tx.shared.state.lock().reqs.len()), (0, 1));
    }

    #[test]
    fn recv_deadline_times_out_when_idle() {
        let (_tx, mut rx) = ingest_queue(4);
        let t0 = Instant::now();
        let RecvOutcome::TimedOut =
            rx.recv_deadline(Some(t0 + Duration::from_millis(10)), usize::MAX)
        else {
            panic!("expected timeout")
        };
        assert!(t0.elapsed() >= Duration::from_millis(8));
    }

    #[test]
    fn linger_deadline_holds_under_spurious_wakeups() {
        // Regression: a wakeup that delivers no data must not re-arm a full
        // wait past the deadline. A hammering notifier emulates spurious
        // wakeups; the receiver must still time out close to the deadline.
        use bohm_sync::atomic::{AtomicBool, Ordering};
        let (tx, mut rx) = ingest_queue(4);
        let stop = Arc::new(AtomicBool::new(false));
        let hammer = {
            let (tx, stop) = (tx.clone(), Arc::clone(&stop));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    tx.spurious_wake();
                    std::thread::yield_now();
                }
            })
        };
        let linger = Duration::from_millis(40);
        let t0 = Instant::now();
        let RecvOutcome::TimedOut = rx.recv_deadline(Some(t0 + linger), usize::MAX) else {
            panic!("expected timeout")
        };
        let elapsed = t0.elapsed();
        stop.store(true, Ordering::Relaxed);
        hammer.join().unwrap();
        assert!(
            !tx.shared.state.lock().receiver_parked,
            "a timed-out receiver must not leave itself announced as parked"
        );
        assert!(
            elapsed >= Duration::from_millis(35),
            "woke early: {elapsed:?}"
        );
        assert!(
            elapsed < linger + Duration::from_millis(250),
            "linger overshot under spurious wakes: {elapsed:?}"
        );
    }

    #[test]
    fn close_drains_then_reports_closed() {
        let (tx, mut rx) = ingest_queue(10);
        send(&tx, 1);
        tx.close();
        assert!(tx.send(req(1)).is_err(), "send after close must fail");
        let RecvOutcome::Req(_) = rx.recv_deadline(None, usize::MAX) else {
            panic!("queued submission must survive close")
        };
        let RecvOutcome::Closed = rx.recv_deadline(None, usize::MAX) else {
            panic!("expected Closed after drain")
        };
    }
}
