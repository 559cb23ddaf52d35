//! Batches, per-transaction runtime state, and completion delivery.
//!
//! BOHM amortizes all cross-thread coordination over batches (paper §3.2.4):
//! CC threads process a batch independently and meet at one atomic
//! countdown; execution threads do the same on their side. A [`TxnState`]
//! carries the pre-allocated annotation slots the CC phase fills in — "the
//! write containing the correct version reference for a read is to
//! pre-allocated space within a transaction" (§3.2.3).
//!
//! Completion is *published* **per transaction**: every transaction carries
//! a hook into the `Completion` of the submission it arrived in, and its
//! outcome is there to be polled the moment its executor marks it
//! `Complete`. A *wake-up* is paid only when a thread is actually parked on
//! that completion. Batch boundaries are an engine-internal amortization
//! artifact; submitters never see them.

use bohm_common::{ASlice, Arena, RecordId, Timestamp, Txn};
use bohm_mvstore::Version;
use bohm_sync::atomic::{AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use bohm_sync::{Condvar, Mutex};
use std::ptr;
use std::sync::Arc;

/// Execution state machine of one transaction (paper §3.3.1).
pub(crate) mod txn_status {
    pub const UNPROCESSED: u8 = 0;
    pub const EXECUTING: u8 = 1;
    pub const COMPLETE: u8 = 2;
}

/// Commit decision of a completed transaction.
pub(crate) mod txn_outcome {
    pub const UNKNOWN: u8 = 0;
    pub const COMMITTED: u8 = 1;
    pub const USER_ABORT: u8 = 2;
}

/// Result of one transaction, readable once its handle reports done.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TxnOutcome {
    /// Whether the transaction committed (`false` ⇒ user/logic abort —
    /// BOHM has no concurrency-control aborts, §3.3.3).
    pub committed: bool,
    /// Procedure-defined digest of the values read (used by equivalence
    /// tests to compare engines); 0 for aborted transactions.
    pub fingerprint: u64,
}

// ---------------------------------------------------------------------------
// Completion: one per submission (single transaction or group)
// ---------------------------------------------------------------------------

/// Shared completion state of one submission.
///
/// Outcome slots and the `state` word are written lock-free by whichever
/// execution thread completes each transaction; the mutex/condvar pair only
/// carries the *edge* (wake-up), never the data — and only to a waiter that
/// registered itself as parked (see [`publish`](Self::publish)).
pub(crate) struct Completion {
    /// Transactions not yet `Complete`.
    remaining: AtomicUsize,
    /// Submission size (`remaining` counts down; this doesn't).
    count: usize,
    /// The `state` bits that together mean "done": `OUTCOMES`, plus
    /// `RETIRED` in barrier mode — `wait_done` then also waits for the batch
    /// holding the submission's last transaction to retire, so that batch
    /// must signal [`batch_retired`](Self::batch_retired).
    need: u8,
    /// Per-transaction decision (`txn_outcome` values) + fingerprint,
    /// each written once.
    slots: Slots,
    /// `OUTCOMES | RETIRED | FAILED`, each bit set once with `fetch_or`.
    state: AtomicU8,
    /// Threads inside [`wait_done`](Self::wait_done)'s slow path.
    waiters: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

/// Every transaction of the submission has recorded its outcome.
const OUTCOMES: u8 = 1;
/// The batch holding the submission's last transaction retired.
const RETIRED: u8 = 2;
/// Engine fault (e.g. a WAL append failure): the submission will never
/// execute. Waiters panic with a clear message instead of blocking forever.
const FAILED: u8 = 4;

#[cfg(test)]
thread_local! {
    /// Condvar waits this thread entered in [`Completion::wait_done`].
    pub(crate) static PARKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Outcome storage. The per-transaction session path submits
/// single-transaction groups at engine throughput, so the `n <= 1` case
/// stores its slot inline instead of paying two boxed slices per submission.
// Under --cfg bohm_modelcheck the instrumented atomics carry vector-clock
// metadata and the inline variant grows past clippy's variant-size bound;
// boxing it would defeat the allocation-free fast path the variant exists
// for in real builds, where both variants are small.
#[cfg_attr(bohm_modelcheck, allow(clippy::large_enum_variant))]
enum Slots {
    One(AtomicU8, AtomicU64),
    Many(Box<[AtomicU8]>, Box<[AtomicU64]>),
}

impl Slots {
    fn flag(&self, idx: usize) -> &AtomicU8 {
        match self {
            Slots::One(f, _) => {
                debug_assert_eq!(idx, 0);
                f
            }
            Slots::Many(f, _) => &f[idx],
        }
    }

    fn fingerprint(&self, idx: usize) -> &AtomicU64 {
        match self {
            Slots::One(_, fp) => {
                debug_assert_eq!(idx, 0);
                fp
            }
            Slots::Many(_, fp) => &fp[idx],
        }
    }
}

impl Completion {
    /// `needs_barrier`: batch handles additionally wait for the *batches*
    /// holding their transactions to retire (all execution threads past
    /// them), which is what makes `Bohm::read_u64` after `wait()` race-free
    /// and keeps the GC-watermark guarantees of the old batch-level API.
    /// Per-transaction session handles skip it for latency.
    pub(crate) fn new(n: usize, needs_barrier: bool) -> Arc<Self> {
        let slots = if n <= 1 {
            Slots::One(AtomicU8::new(txn_outcome::UNKNOWN), AtomicU64::new(0))
        } else {
            let mut f = Vec::with_capacity(n);
            f.resize_with(n, || AtomicU8::new(txn_outcome::UNKNOWN));
            let mut fps = Vec::with_capacity(n);
            fps.resize_with(n, || AtomicU64::new(0));
            Slots::Many(f.into_boxed_slice(), fps.into_boxed_slice())
        };
        Arc::new(Self {
            remaining: AtomicUsize::new(n),
            count: n,
            need: OUTCOMES | if needs_barrier { RETIRED } else { 0 },
            slots,
            // An empty submission reaches no batch; nothing to wait for.
            state: AtomicU8::new(if n == 0 { OUTCOMES | RETIRED } else { 0 }),
            waiters: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    /// Would [`wait_done`](Self::wait_done) return (or panic) at `state`?
    fn done_at(&self, state: u8) -> bool {
        state & FAILED != 0 || state & self.need == self.need
    }

    /// Set `bit`; wake parked waiters if that made the submission done.
    ///
    /// The completer's half of a Dekker handshake with `wait_done`: it
    /// publishes the bit and then reads `waiters`; the waiter registers and
    /// then re-reads `state`. Both sides are SeqCst, so at least one of the
    /// two reads sees the other side's write — either the waiter finds the
    /// submission done and never sleeps, or the completer finds a waiter and
    /// takes the mutex (which the waiter holds from its re-check until it is
    /// inside `Condvar::wait`) to notify it. With nobody registered — every
    /// transaction a pipelining session has not caught up with — completion
    /// is this one `fetch_or` and one load.
    fn publish(&self, bit: u8) {
        let state = self.state.fetch_or(bit, Ordering::SeqCst) | bit;
        // A fault notifies unconditionally: it is rare, and a hang is the
        // one outcome the failure path must not have.
        if bit == FAILED || (self.done_at(state) && self.waiters.load(Ordering::SeqCst) != 0) {
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.count
    }

    /// Record transaction `idx`'s decision; wakes waiters on the last one.
    pub(crate) fn record(&self, idx: usize, committed: bool, fingerprint: u64) {
        self.slots
            .fingerprint(idx)
            // RELAXED: the Release store of the outcome flag (below)
            // publishes the fingerprint; readers Acquire the flag first.
            .store(fingerprint, Ordering::Relaxed);
        self.slots.flag(idx).store(
            if committed {
                txn_outcome::COMMITTED
            } else {
                txn_outcome::USER_ABORT
            },
            Ordering::Release,
        );
        if self.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.publish(OUTCOMES);
        }
    }

    /// Called at retirement of the batch holding this submission's **last**
    /// transaction. Batches retire in id order (execution consumes them
    /// FIFO), so the last batch retiring implies every earlier one did.
    pub(crate) fn batch_retired(&self) {
        self.publish(RETIRED);
    }

    /// Mark the submission as never-executing because the engine failed
    /// (stop-the-world fault, e.g. the WAL rejected an append). Wakes
    /// every waiter; their `wait_done` panics with the fault instead of
    /// hanging on outcomes that will never arrive. Idempotent.
    pub(crate) fn poison(&self) {
        self.publish(FAILED);
    }

    /// Block until the submission is done — the one wait body for session
    /// and barrier completions (`need` is the only difference).
    pub(crate) fn wait_done(&self) {
        if !self.is_done() {
            // Register, *then* re-check (see `publish`); the mutex is held
            // from the re-check into the wait, so a completer that saw the
            // registration cannot notify in between.
            self.waiters.fetch_add(1, Ordering::SeqCst);
            let mut g = self.lock.lock();
            while !self.done_at(self.state.load(Ordering::SeqCst)) {
                #[cfg(test)]
                PARKS.with(|p| p.set(p.get() + 1));
                self.cv.wait(&mut g);
            }
            drop(g);
            // RELAXED: deregistration publishes nothing; a completer that
            // still sees the stale count only pays one spare notify.
            self.waiters.fetch_sub(1, Ordering::Relaxed);
        }
        assert!(
            self.state.load(Ordering::Acquire) & FAILED == 0,
            "BOHM engine failed (write-ahead log append error): \
             this submission was never executed"
        );
    }

    /// Non-blocking [`wait_done`](Self::wait_done) probe; one Acquire load.
    /// A `true` synchronizes with the completing thread, so outcomes (and,
    /// in barrier mode, the retired batch's effects) are visible.
    pub(crate) fn is_done(&self) -> bool {
        self.done_at(self.state.load(Ordering::Acquire))
    }

    /// Outcome of transaction `idx`; valid only after [`wait_done`](Self::wait_done).
    pub(crate) fn outcome(&self, idx: usize) -> TxnOutcome {
        let flag = self.slots.flag(idx).load(Ordering::Acquire);
        debug_assert_ne!(flag, txn_outcome::UNKNOWN, "outcome read before done");
        TxnOutcome {
            committed: flag == txn_outcome::COMMITTED,
            // RELAXED: ordered by the Acquire flag load above.
            fingerprint: self.slots.fingerprint(idx).load(Ordering::Relaxed),
        }
    }
}

/// A transaction's back-pointer into its submission's [`Completion`].
#[derive(Clone)]
pub(crate) struct TxnHook {
    pub completion: Arc<Completion>,
    /// Position within the submission. The batch sealed around the *last*
    /// transaction of a barrier-mode submission owes the completion a
    /// retirement signal (see [`Batch::barriers`]).
    pub index: u32,
}

impl TxnHook {
    fn fire(&self, committed: bool, fingerprint: u64) {
        self.completion
            .record(self.index as usize, committed, fingerprint);
    }
}

// ---------------------------------------------------------------------------
// Public handles
// ---------------------------------------------------------------------------

/// Handle to one submitted transaction
/// (returned by [`BohmSession::submit`](crate::BohmSession::submit)).
///
/// Completion is published per transaction, the moment an execution thread
/// finishes it — not when its (engine-internal) batch drains — so
/// [`is_done`](Self::is_done) turns true exactly then. The executing thread
/// pays for a wake-up only if somebody is parked in [`wait`](Self::wait).
pub struct TxnHandle {
    pub(crate) completion: Arc<Completion>,
}

impl TxnHandle {
    /// Block until the transaction has executed and return its outcome.
    ///
    /// Precise: the caller parks on *this* transaction and is woken by the
    /// thread that completes it (a `submit(txn).wait()` round trip waits for
    /// nothing else). The handle may be moved to, and waited on from, any
    /// thread.
    pub fn wait(&self) -> TxnOutcome {
        self.completion.wait_done();
        self.completion.outcome(0)
    }

    /// Has the transaction finished? (Non-blocking.)
    pub fn is_done(&self) -> bool {
        self.completion.is_done()
    }
}

/// Handle to a submitted group of transactions
/// (returned by [`Bohm::submit`](crate::Bohm::submit)).
///
/// Waiting additionally synchronizes with batch retirement, so after
/// [`wait`](Self::wait) the engine is quiescent with respect to these
/// transactions (safe to `read_u64`, GC watermark advanced).
pub struct BatchHandle {
    pub(crate) completion: Arc<Completion>,
}

impl BatchHandle {
    /// Block until every transaction in the submission has executed.
    pub fn wait(&self) {
        self.completion.wait_done();
    }

    /// Number of transactions in the submission.
    pub fn len(&self) -> usize {
        self.completion.len()
    }

    /// Whether the submission carried no transactions.
    pub fn is_empty(&self) -> bool {
        self.completion.len() == 0
    }

    /// Wait, then return each transaction's outcome in submission order.
    pub fn outcomes(&self) -> Vec<TxnOutcome> {
        self.wait();
        (0..self.completion.len())
            .map(|i| self.completion.outcome(i))
            .collect()
    }
}

// ---------------------------------------------------------------------------
// Plan entries
// ---------------------------------------------------------------------------

/// One access-plan entry — **one per record the CC phase must probe** —
/// scanned by every CC thread.
///
/// Every CC thread must examine every transaction's sets (paper §3.2.2 —
/// the acknowledged Amdahl component of the design), so that scan has to be
/// cheap: the sequencer pre-hashes each record once, and the CC threads
/// iterate a contiguous array doing one modulo per entry instead of
/// re-hashing `RecordId`s out of the sets `m` times over. The entry keeps
/// the **whole** [`stable_hash`](bohm_common::RecordId::stable_hash): the
/// top half picks the partition, the bottom half the index bucket, so
/// neither the probe nor the look-ahead in front of it hashes again.
///
/// A record the transaction both reads and writes gets a single *fused*
/// entry carrying both set positions: the CC thread probes once, annotates
/// the read with the chain's latest version and installs the placeholder
/// over it. A plan is the transaction's pure reads (`write` is none)
/// followed by one entry per write (`read` is none for a blind write).
/// Order between the two groups is what keeps the un-fusable leftovers
/// correct — a read the sequencer did not pair with its write (see
/// [`TxnState::new`]) is annotated before that write installs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PlanEntry {
    /// `stable_hash` of the record.
    pub hash: u64,
    read: u32,
    write: u32,
}

impl PlanEntry {
    /// "No such position" in `read` / `write`.
    const NONE: u32 = u32::MAX;

    fn new(hash: u64, read: Option<usize>, write: Option<usize>) -> Self {
        let pack = |i: Option<usize>| i.map_or(Self::NONE, |i| i as u32);
        let (read, write) = (pack(read), pack(write));
        PlanEntry { hash, read, write }
    }

    /// CC partition owning this record, for `m` CC threads.
    #[inline]
    pub fn partition(self, m: usize) -> usize {
        ((self.hash >> 32) % m as u64) as usize
    }

    /// Read-set position to annotate, if the transaction reads the record.
    #[inline]
    pub fn read(self) -> Option<usize> {
        (self.read != Self::NONE).then_some(self.read as usize)
    }

    /// Write-set position to install a placeholder for, if it writes it.
    #[inline]
    pub fn write(self) -> Option<usize> {
        (self.write != Self::NONE).then_some(self.write as usize)
    }
}

/// Comparisons the sequencer will spend pairing one transaction's reads
/// with its writes when they do not line up position by position. Within
/// it every RMW is fused; beyond it (nothing in the paper's workloads is)
/// only positional pairs are, and the rest stay correct as separate
/// read-then-write entries.
const FUSE_SEARCH_BUDGET: usize = 1024;

/// A transaction plus its engine-side runtime state.
///
/// All per-transaction buffers (the packed plan and the annotation slots)
/// live in the batch's arena: minting them is a bump-pointer move, they sit
/// contiguous in timestamp order for the CC threads' sequential scan, and
/// they recycle wholesale when the batch retires out of the window ring.
pub struct TxnState {
    /// The transaction as submitted (whole, with pre-declared sets).
    pub txn: Txn,
    /// Serialization timestamp = position in the input log (§3.2.1).
    pub ts: Timestamp,
    pub(crate) state: AtomicU8,
    /// Access plan: pure reads, then writes carrying their read (see
    /// [`PlanEntry`]).
    pub(crate) plan: ASlice<PlanEntry>,
    /// One slot per read-set entry: direct pointer to the version this read
    /// must observe, written by the owning CC thread (§3.2.3 optimization).
    pub(crate) read_refs: ASlice<AtomicPtr<Version>>,
    /// Per scan, one slot per row of the scanned range: the version a
    /// reader at this timestamp must observe for that key, written by the
    /// key's owning CC thread while it pre-annotates the range (the scan
    /// counterpart of `read_refs`). A null slot means the key had no chain
    /// at CC time — i.e. no transaction ordered before this one ever
    /// inserted it, so it is absent at this timestamp (later inserts are
    /// *ordered after* the scan by the CC pass, not phantoms).
    ///
    /// Annotation is subject to the same knobs as reads: with
    /// `annotate_reads` off, or for a range wider than
    /// `annotate_max_reads`, the inner slice is **empty** (nothing is
    /// allocated or annotated — a declared terabyte-wide range must not
    /// allocate a pointer per slot) and the executor's ts-filtered
    /// fallback probe serves every row with identical semantics.
    ///
    /// The inner slices are arena-backed; the outer box is heap-allocated
    /// only for transactions that declare scans (`ASlice` has a `Drop`
    /// keepalive, so it cannot itself live in drop-free arena memory).
    pub(crate) scan_refs: Box<[ASlice<AtomicPtr<Version>>]>,
    /// One slot per write-set entry: the placeholder version installed by
    /// the owning CC thread (§3.2.2).
    pub(crate) write_refs: ASlice<AtomicPtr<Version>>,
    /// Per-transaction completion delivery.
    pub(crate) hook: TxnHook,
}

impl TxnState {
    /// `annotate_max_reads`: see [`BohmConfig`](crate::BohmConfig); larger
    /// read sets get no annotation slots and no read plan entries — their
    /// plan is one blind entry per write, and nothing is paired.
    ///
    /// Pairing a write with the read of the same record tries the same
    /// position first (`reads[i] == writes[i]`, the shape every generator
    /// here produces for its RMWs) and otherwise searches, within
    /// [`FUSE_SEARCH_BUDGET`]. A read is *pure* — gets an entry of its own —
    /// iff no write names its record; a second read of a fused record is
    /// neither pure nor carried, so its slot stays null and the executor's
    /// `visible(ts)` fallback serves it, as it does any null slot.
    pub(crate) fn new(
        txn: Txn,
        ts: Timestamp,
        annotate_max_reads: usize,
        hook: TxnHook,
        arena: &mut Arena,
    ) -> Self {
        let annotate = txn.reads.len() <= annotate_max_reads;
        let (nr, nw) = (if annotate { txn.reads.len() } else { 0 }, txn.writes.len());
        debug_assert!(nr.max(nw) < PlanEntry::NONE as usize);
        // Only the reads that get slots take part in pairing.
        let (reads, writes) = (&txn.reads[..nr], &*txn.writes);
        let search = nr * nw <= FUSE_SEARCH_BUDGET;
        // Position in `of` of the record at `at[i]`: same position first.
        let paired = |at: &[RecordId], i: usize, of: &[RecordId]| match of.get(i) {
            Some(r) if *r == at[i] => Some(i),
            _ if search => of.iter().position(|r| *r == at[i]),
            _ => None,
        };
        let mut pure_reads = (0..nr).filter(|&r| paired(reads, r, writes).is_none());
        let n_pure = pure_reads.clone().count();
        let plan = arena.alloc_with(n_pure + nw, |i| match i.checked_sub(n_pure) {
            None => {
                let r = pure_reads.next().expect("counted above");
                PlanEntry::new(reads[r].stable_hash(), Some(r), None)
            }
            Some(w) => PlanEntry::new(writes[w].stable_hash(), paired(writes, w, reads), Some(w)),
        });
        let nulls = |arena: &mut Arena, n: usize| -> ASlice<AtomicPtr<Version>> {
            arena.alloc_with(n, |_| AtomicPtr::new(ptr::null_mut()))
        };
        let scan_refs = if txn.scans.is_empty() {
            // An empty boxed slice performs no allocation.
            Vec::new().into_boxed_slice()
        } else {
            txn.scans
                .iter()
                .map(|s| {
                    // `annotate_max_reads` arrives as 0 when annotate_reads
                    // is off, so both knobs gate here; an empty slice marks
                    // the scan as fallback-only.
                    if s.len() as usize <= annotate_max_reads {
                        nulls(arena, s.len() as usize)
                    } else {
                        ASlice::empty()
                    }
                })
                .collect::<Vec<_>>()
                .into_boxed_slice()
        };
        let read_refs = nulls(arena, nr);
        let write_refs = nulls(arena, nw);
        Self {
            txn,
            ts,
            state: AtomicU8::new(txn_status::UNPROCESSED),
            plan,
            read_refs,
            write_refs,
            scan_refs,
            hook,
        }
    }

    #[inline]
    pub(crate) fn status(&self) -> u8 {
        self.state.load(Ordering::Acquire)
    }

    /// Try to claim the transaction for execution
    /// (`Unprocessed → Executing`). Exactly one thread can win.
    #[inline]
    pub(crate) fn try_claim(&self) -> bool {
        self.state
            .compare_exchange(
                txn_status::UNPROCESSED,
                txn_status::EXECUTING,
                Ordering::Acquire,
                // RELAXED: failure-order only — a losing claimer walks away
                // without touching the transaction.
                Ordering::Relaxed,
            )
            .is_ok()
    }

    /// Park a claimed transaction back to `Unprocessed` (its dependency is
    /// being executed by another thread; someone will retry it later).
    #[inline]
    pub(crate) fn park(&self) {
        debug_assert_eq!(self.status(), txn_status::EXECUTING);
        self.state.store(txn_status::UNPROCESSED, Ordering::Release);
    }

    /// Mark a claimed transaction `Complete` with its decision; delivers
    /// the outcome straight to the submitter's [`Completion`].
    #[inline]
    pub(crate) fn complete(&self, committed: bool, fingerprint: u64) {
        debug_assert_eq!(self.status(), txn_status::EXECUTING);
        self.state.store(txn_status::COMPLETE, Ordering::Release);
        self.hook.fire(committed, fingerprint);
    }
}

// ---------------------------------------------------------------------------
// Batch
// ---------------------------------------------------------------------------

/// One ordered batch of transactions flowing through the pipeline.
pub struct Batch {
    /// Dense batch sequence number; the window slots batches by this.
    pub id: u64,
    /// Timestamp of the first transaction; transaction `i` has
    /// `ts = base_ts + i`. Bases are strided by `BohmConfig::batch_size`
    /// regardless of fill, so `id = (ts - 1) / batch_size`.
    pub base_ts: Timestamp,
    /// Global epoch the sequencer sampled when sealing this batch
    /// (`BohmConfig::epoch_source`; 0 for a standalone engine). Retirement
    /// publishes it as [`Bohm::retired_epoch`](crate::Bohm::retired_epoch) —
    /// the sharded facade's alignment rule is "a cross-shard transaction's
    /// epoch is committed once every participant retires it".
    pub epoch: u64,
    /// The batch's transactions in timestamp order, with runtime state.
    pub txns: Box<[TxnState]>,
    /// CC threads yet to finish this batch (the §3.2.4 amortized barrier).
    pub(crate) cc_pending: AtomicUsize,
    /// Execution threads yet to finish their responsibilities.
    pub(crate) exec_pending: AtomicUsize,
    /// Barrier-mode completions whose last transaction lives in this batch;
    /// signalled at retirement (see [`Completion::batch_retired`]).
    pub(crate) barriers: Box<[Arc<Completion>]>,
}

impl Batch {
    /// Assemble a batch from sequencer-bound entries. Per-transaction
    /// runtime buffers are carved from `arena`, contiguous in timestamp
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        entries: Vec<(Txn, TxnHook)>,
        base_ts: Timestamp,
        id: u64,
        epoch: u64,
        cc_threads: usize,
        exec_threads: usize,
        annotate_max_reads: usize,
        arena: &mut Arena,
    ) -> Arc<Self> {
        let mut barriers = Vec::new();
        let mut states: Vec<TxnState> = Vec::with_capacity(entries.len());
        for (i, (txn, hook)) in entries.into_iter().enumerate() {
            let c = &hook.completion;
            if c.need & RETIRED != 0 && hook.index as usize + 1 == c.count {
                barriers.push(Arc::clone(&hook.completion));
            }
            states.push(TxnState::new(
                txn,
                base_ts + i as u64,
                annotate_max_reads,
                hook,
                arena,
            ));
        }
        Arc::new(Self {
            id,
            base_ts,
            epoch,
            txns: states.into_boxed_slice(),
            cc_pending: AtomicUsize::new(cc_threads),
            exec_pending: AtomicUsize::new(exec_threads),
            barriers: barriers.into_boxed_slice(),
        })
    }

    /// Largest timestamp in the batch (the Condition-3 GC bound once every
    /// execution thread passes this batch).
    #[inline]
    pub fn last_ts(&self) -> Timestamp {
        self.base_ts + self.txns.len() as u64 - 1
    }

    /// Does `ts` fall inside this batch?
    #[inline]
    pub fn contains(&self, ts: Timestamp) -> bool {
        !self.txns.is_empty() && ts >= self.base_ts && ts <= self.last_ts()
    }

    /// The transaction with timestamp `ts` (must be contained).
    #[inline]
    pub(crate) fn txn_at(&self, ts: Timestamp) -> &TxnState {
        &self.txns[(ts - self.base_ts) as usize]
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bohm_common::Procedure;

    fn txn() -> Txn {
        let rid = RecordId::new(0, 1);
        Txn::new(
            vec![rid],
            vec![rid],
            Procedure::ReadModifyWrite { delta: 1 },
        )
    }

    pub(crate) fn test_arena() -> Arena {
        bohm_common::ArenaPool::default().arena()
    }

    pub(crate) fn hooked(n: usize) -> (Vec<(Txn, TxnHook)>, Arc<Completion>) {
        let completion = Completion::new(n, true);
        let entries = (0..n)
            .map(|i| {
                (
                    txn(),
                    TxnHook {
                        completion: Arc::clone(&completion),
                        index: i as u32,
                    },
                )
            })
            .collect();
        (entries, completion)
    }

    fn lone_state() -> (TxnState, Arc<Completion>) {
        let (mut entries, c) = hooked(1);
        let (t, hook) = entries.pop().unwrap();
        (TxnState::new(t, 5, 64, hook, &mut test_arena()), c)
    }

    #[test]
    fn state_machine_transitions() {
        let (t, completion) = lone_state();
        assert_eq!(t.status(), txn_status::UNPROCESSED);
        assert!(t.try_claim());
        assert!(!t.try_claim(), "double claim must fail");
        t.park();
        assert!(t.try_claim(), "parked txn is claimable again");
        t.complete(true, 42);
        assert_eq!(t.status(), txn_status::COMPLETE);
        assert!(!t.try_claim(), "complete txn is not claimable");
        assert_eq!(
            completion.outcome(0),
            TxnOutcome {
                committed: true,
                fingerprint: 42
            }
        );
    }

    #[test]
    fn annotation_slots_match_set_sizes() {
        let (t, _c) = lone_state();
        assert_eq!(t.read_refs.len(), 1);
        assert_eq!(t.write_refs.len(), 1);
        assert!(t.read_refs[0].load(Ordering::Relaxed).is_null());
    }

    /// `(read, write)` positions of each plan entry of a transaction with
    /// the given sets (rows of table 0), annotated up to 64 reads.
    fn plan_of(reads: &[u64], writes: &[u64]) -> Vec<(Option<usize>, Option<usize>)> {
        let rids = |rows: &[u64]| rows.iter().map(|&r| RecordId::new(0, r)).collect();
        let t = Txn::new(rids(reads), rids(writes), Procedure::ReadOnly);
        let (mut entries, _c) = hooked(1);
        let hook = entries.pop().unwrap().1;
        let t = TxnState::new(t, 9, 64, hook, &mut test_arena());
        for e in t.plan.iter() {
            let rid = match (e.read(), e.write()) {
                (_, Some(w)) => t.txn.writes[w],
                (Some(r), None) => t.txn.reads[r],
                (None, None) => panic!("empty plan entry"),
            };
            assert_eq!(e.hash, rid.stable_hash(), "entries carry the full hash");
            if let (Some(r), Some(w)) = (e.read(), e.write()) {
                assert_eq!(t.txn.reads[r], t.txn.writes[w], "fused across records");
            }
        }
        let annotated = if reads.len() <= 64 { reads.len() } else { 0 };
        assert_eq!(t.read_refs.len(), annotated);
        assert_eq!(t.write_refs.len(), writes.len());
        t.plan.iter().map(|e| (e.read(), e.write())).collect()
    }

    #[test]
    fn plan_is_one_entry_per_record_pure_reads_then_writes_carrying_their_read() {
        assert_eq!(std::mem::size_of::<PlanEntry>(), 16);
        // micro_rmw10 / YCSB 10RMW: ten fused entries, not twenty.
        let keys: Vec<u64> = (0..10).map(|k| k * 7 + 3).collect();
        let fused: Vec<_> = (0..10).map(|i| (Some(i), Some(i))).collect();
        assert_eq!(plan_of(&keys, &keys), fused);
        // YCSB 2RMW+8R: writes are the first two reads — eight pure reads,
        // then the two fused entries.
        let mut want: Vec<_> = (2..10).map(|r| (Some(r), None)).collect();
        want.extend([(Some(0), Some(0)), (Some(1), Some(1))]);
        assert_eq!(plan_of(&keys, &keys[..2]), want);
        // Read-only and write-only keys.
        assert_eq!(plan_of(&[1, 2], &[]), [(Some(0), None), (Some(1), None)]);
        assert_eq!(plan_of(&[], &[1, 2]), [(None, Some(0)), (None, Some(1))]);
        assert_eq!(
            plan_of(&[1], &[2]),
            [(Some(0), None), (None, Some(0))],
            "different records at the same position do not fuse"
        );
        // The same keys at different positions are found by search.
        assert_eq!(
            plan_of(&[1, 2, 3], &[3, 1]),
            [(Some(1), None), (Some(2), Some(0)), (Some(0), Some(1))]
        );
        // A second read of a fused record is neither pure nor carried: its
        // slot stays null for the executor's fallback. The write carries the
        // read at its own position when there is one, else the first.
        assert_eq!(plan_of(&[5, 5], &[5]), [(Some(0), Some(0))]);
        assert_eq!(
            plan_of(&[5, 5], &[6, 5]),
            [(None, Some(0)), (Some(1), Some(1))]
        );
        assert_eq!(
            plan_of(&[4, 5, 5], &[5]),
            [(Some(0), None), (Some(1), Some(0))]
        );
    }

    #[test]
    fn unannotated_read_sets_get_blind_write_entries_and_no_pairing() {
        // 65 reads > annotate_max_reads (64 in `plan_of`): no read entries,
        // no annotation slots, and the RMW'd key is a plain write entry.
        let reads: Vec<u64> = (0..65).collect();
        assert_eq!(
            plan_of(&reads, &[7, 64]),
            [(None, Some(0)), (None, Some(1))]
        );
    }

    #[test]
    fn pairing_beyond_the_search_budget_is_positional_only() {
        // 64 reads × 17 writes > FUSE_SEARCH_BUDGET: the write at its read's
        // position fuses, the displaced one does not — its read stays a pure
        // read *ahead of* the blind write, which is just as correct.
        let reads: Vec<u64> = (0..64).collect();
        let mut writes: Vec<u64> = (100..117).collect();
        writes[3] = 3; // positional pair
        writes[5] = 40; // same record as reads[40], different position
        assert!(reads.len() * writes.len() > FUSE_SEARCH_BUDGET);
        let plan = plan_of(&reads, &writes);
        assert_eq!(plan.len(), 63 + 17);
        assert!(plan[..63].iter().all(|e| e.1.is_none()) && !plan[..63].contains(&(Some(3), None)));
        assert!(plan[..63].contains(&(Some(40), None)));
        assert_eq!(plan[63 + 3], (Some(3), Some(3)));
        assert_eq!(plan[63 + 5], (None, Some(5)));
    }

    #[test]
    fn batch_timestamps_are_dense() {
        let (entries, _c) = hooked(3);
        let b = Batch::new(entries, 100, 0, 0, 2, 2, 64, &mut test_arena());
        assert_eq!(b.last_ts(), 102);
        assert!(b.contains(100) && b.contains(102));
        assert!(!b.contains(99) && !b.contains(103));
        assert_eq!(b.txn_at(101).ts, 101);
    }

    #[test]
    fn completion_fires_per_txn_and_batch_barrier_gates_wait() {
        let (entries, completion) = hooked(2);
        let b = Batch::new(entries, 1, 0, 0, 1, 1, 64, &mut test_arena());
        assert!(!completion.is_done());
        b.txns[0].try_claim();
        b.txns[0].complete(true, 7);
        assert!(!completion.is_done(), "one of two txns outstanding");
        b.txns[1].try_claim();
        b.txns[1].complete(false, 0);
        assert!(
            !completion.is_done(),
            "barrier-mode completion also waits for batch retirement"
        );
        assert_eq!(b.barriers.len(), 1);
        b.barriers[0].batch_retired();
        assert!(completion.is_done());
        assert_eq!(
            completion.outcome(0),
            TxnOutcome {
                committed: true,
                fingerprint: 7
            }
        );
        assert!(!completion.outcome(1).committed);
    }

    #[test]
    fn only_barrier_mode_completions_register_as_barriers() {
        // N session submissions: each is the last (only) transaction of its
        // own completion, but none was created in barrier mode — nobody
        // waits on retirement, so the retiring thread owes them nothing.
        let sessions: Vec<_> = (0..5)
            .map(|_| {
                let hook = TxnHook {
                    completion: Completion::new(1, false),
                    index: 0,
                };
                (txn(), hook)
            })
            .collect();
        let b = Batch::new(sessions, 1, 0, 0, 1, 1, 64, &mut test_arena());
        assert!(b.barriers.is_empty());
        // A group submission of N registers exactly once, and its handle's
        // wait still implies the batch retired.
        let (entries, completion) = hooked(5);
        let b = Batch::new(entries, 1, 0, 0, 1, 1, 64, &mut test_arena());
        assert_eq!(b.barriers.len(), 1);
        for t in b.txns.iter() {
            assert!(t.try_claim());
            t.complete(true, 0);
        }
        let handle = BatchHandle { completion };
        assert!(!handle.completion.is_done(), "not retired yet");
        b.barriers[0].batch_retired();
        handle.wait(); // must not block
    }

    #[test]
    fn sessionless_completion_skips_barrier() {
        let completion = Completion::new(1, false);
        completion.record(0, true, 3);
        assert!(completion.is_done(), "no barrier wait for session handles");
        completion.wait_done(); // must not block
    }

    #[test]
    fn done_signalling_wakes_waiters() {
        let (entries, completion) = hooked(1);
        let b = Batch::new(entries, 1, 0, 0, 1, 1, 64, &mut test_arena());
        let c2 = Arc::clone(&completion);
        let waiter = std::thread::spawn(move || c2.wait_done());
        std::thread::sleep(std::time::Duration::from_millis(5));
        b.txns[0].try_claim();
        b.txns[0].complete(true, 0);
        b.barriers[0].batch_retired();
        waiter.join().unwrap();
    }

    #[test]
    fn poisoned_completion_panics_waiters_instead_of_hanging() {
        let completion = Completion::new(1, true);
        let c2 = Arc::clone(&completion);
        let waiter = std::thread::spawn(move || {
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c2.wait_done()))
        });
        std::thread::sleep(std::time::Duration::from_millis(5));
        completion.poison();
        let woke = waiter.join().unwrap();
        assert!(woke.is_err(), "poisoned wait must panic, not return");
        assert!(completion.is_done(), "pollers must see a poisoned handle");
        let late =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| completion.wait_done()));
        assert!(late.is_err(), "late waiters observe the fault too");
    }

    #[test]
    fn done_flag_follows_both_halves_in_either_order() {
        // Retirement first, outcome last: the retired barrier alone must
        // not report done, the final outcome must.
        let c = Completion::new(2, true);
        c.record(0, true, 1);
        c.batch_retired();
        assert!(!c.is_done(), "one outcome still outstanding");
        c.record(1, true, 2);
        assert!(c.is_done());
        c.wait_done(); // agrees with the flag: must not block

        // Outcomes first, retirement last.
        let c = Completion::new(1, true);
        c.record(0, false, 0);
        assert!(!c.is_done(), "batch not retired yet");
        c.batch_retired();
        assert!(c.is_done());
        c.wait_done();
    }

    #[test]
    fn poison_sets_the_done_flag_without_outcomes() {
        let c = Completion::new(3, true);
        assert!(!c.is_done());
        c.poison();
        assert!(c.is_done(), "pollers must not spin on a failed engine");
        c.poison(); // idempotent
        assert!(c.is_done());
        // A straggling outcome after the fault changes nothing.
        c.record(0, true, 0);
        assert!(c.is_done());
    }

    #[test]
    fn empty_submission_is_born_done() {
        let completion = Completion::new(0, true);
        assert!(completion.is_done());
        completion.wait_done();
    }

    #[test]
    fn only_one_claimer_wins_under_contention() {
        let (t, _c) = lone_state();
        let t = Arc::new(t);
        let winners: Vec<bool> = (0..8)
            .map(|_| {
                let t = Arc::clone(&t);
                std::thread::spawn(move || t.try_claim())
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        assert_eq!(winners.iter().filter(|&&w| w).count(), 1);
    }
}

/// Model-checked completion handshake (`RUSTFLAGS="--cfg bohm_modelcheck"
/// cargo test -p bohm modelcheck`): `publish` and `wait_done` are a Dekker
/// pair, so a lost wake-up is a model *deadlock* with a replayable seed.
/// Mutation-checked: dropping the waiter's re-check after registering, or
/// weakening either side's SeqCst pair to AcqRel/Acquire (the model's
/// store-buffering window, `bohm_sync` `stale_load`), deadlocks a harness
/// here within the CI seed budget.
#[cfg(all(test, bohm_modelcheck))]
mod modelcheck {
    use super::*;
    use bohm_sync::{model, thread};

    /// Session mode: one completer, one waiter.
    fn session_model() {
        let c = Completion::new(1, false);
        let completer = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.record(0, true, 7))
        };
        c.wait_done();
        let out = c.outcome(0);
        assert!(out.committed && out.fingerprint == 7);
        completer.join().unwrap();
    }

    /// Barrier mode: the last outcome and the retirement signal arrive from
    /// two threads in either order; only the second may end the wait.
    fn barrier_model() {
        let c = Completion::new(2, true);
        c.record(0, false, 0);
        let recorder = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.record(1, true, 9))
        };
        let retirer = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.batch_retired())
        };
        c.wait_done();
        assert!(!c.outcome(0).committed && c.outcome(1).fingerprint == 9);
        recorder.join().unwrap();
        retirer.join().unwrap();
    }

    /// A fault racing a waiter on its way to sleep: the waiter must wake and
    /// report the fault, whichever side gets to the mutex first.
    fn poison_model() {
        let c = Completion::new(1, true);
        let sequencer = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.poison())
        };
        let woke = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.wait_done()));
        let msg = woke.expect_err("a poisoned wait must panic, not return");
        assert!(
            msg.downcast_ref::<&str>()
                .is_some_and(|m| m.contains("engine failed")),
            "woken by something other than the fault"
        );
        sequencer.join().unwrap();
    }

    #[test]
    fn session_completion_handshake_explored() {
        model::explore(model::Options::default(), session_model);
    }

    #[test]
    fn barrier_completion_either_order_explored() {
        model::explore(model::Options::default(), barrier_model);
    }

    #[test]
    fn poison_racing_a_parking_waiter_explored() {
        model::explore(model::Options::default(), poison_model);
    }
}
