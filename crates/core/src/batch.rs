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
//! the `Completion` word of the submission it arrived as, and its outcome is
//! there to be polled the moment its executor marks it `Complete`. A
//! *wake-up* is paid only when a thread is actually parked on that word.
//! Batch boundaries are an engine-internal amortization artifact;
//! submitters never see them. A *replayed* transaction has no submitter and
//! no word: its executor leaves the outcome in the [`TxnState`], where
//! replay reads it once the batch has retired.

use crate::engine::Inner;
use bohm_common::{ASlice, Arena, RecordId, Timestamp, Txn};
use bohm_mvstore::Version;
use bohm_sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use bohm_sync::{Condvar, Mutex};
use std::ptr;
use std::sync::Arc;

/// Execution state machine of one transaction (paper §3.3.1).
pub(crate) mod txn_status {
    pub const UNPROCESSED: u8 = 0;
    pub const EXECUTING: u8 = 1;
    pub const COMPLETE: u8 = 2;
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
// Completion: one word per submitted transaction
// ---------------------------------------------------------------------------

/// Completion state of one submitted transaction.
///
/// `state` holds at most one decision — `COMMITTED`, `USER_ABORT` or
/// `FAILED` — plus the waiter's `PARKED` announcement. The completer and a
/// waiter each do **one RMW on that word**, so its modification order
/// decides the race between them: whichever `fetch_or` comes second sees
/// the other's bit in the value it returns. Either the waiter finds the
/// decision and never sleeps, or the completer finds `PARKED` and takes the
/// mutex — which the waiter holds from its re-check until it is inside
/// `Condvar::wait` — to notify it. The mutex/condvar pair carries only that
/// edge, never the data; with nobody parked — every transaction a
/// pipelining session has not caught up with — completion is a store and
/// one `fetch_or`.
pub(crate) struct Completion {
    state: AtomicU8,
    /// Written once, before the decision is published.
    fingerprint: AtomicU64,
    lock: Mutex<()>,
    cv: Condvar,
}

const COMMITTED: u8 = 1;
const USER_ABORT: u8 = 2;
/// Engine fault (e.g. a WAL append failure): the transaction will never
/// execute. Waiters panic with a clear message instead of blocking forever.
const FAILED: u8 = 4;
/// A waiter is (about to be) asleep on `cv`.
const PARKED: u8 = 8;
const DECIDED: u8 = COMMITTED | USER_ABORT | FAILED;

#[cfg(test)]
thread_local! {
    /// Condvar waits this thread entered in [`Completion::wait`].
    pub(crate) static PARKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Completion {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self {
            state: AtomicU8::new(0),
            fingerprint: AtomicU64::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    /// Publish `decision`; wake the waiter if one announced itself first.
    fn decide(&self, decision: u8) {
        let before = self.state.fetch_or(decision, Ordering::AcqRel);
        // A fault notifies unconditionally: it is rare, and a hang is the
        // one outcome the failure path must not have.
        if decision == FAILED || before & PARKED != 0 {
            let _g = self.lock.lock();
            self.cv.notify_all();
        }
    }

    /// Record the transaction's decision.
    pub(crate) fn record(&self, committed: bool, fingerprint: u64) {
        // RELAXED: the Release half of `decide`'s `fetch_or` publishes the
        // fingerprint; readers Acquire the decision first.
        self.fingerprint.store(fingerprint, Ordering::Relaxed);
        self.decide(if committed { COMMITTED } else { USER_ABORT });
    }

    /// Mark the transaction as never-executing because the engine failed
    /// (stop-the-world fault, e.g. the WAL rejected an append): a waiter's
    /// [`wait`](Self::wait) panics with the fault instead of hanging on an
    /// outcome that will never arrive. Idempotent.
    pub(crate) fn poison(&self) {
        self.decide(FAILED);
    }

    /// Block until the transaction is decided and return its outcome.
    pub(crate) fn wait(&self) -> TxnOutcome {
        let mut state = self.state.load(Ordering::Acquire);
        if state & DECIDED == 0 {
            state = self.state.fetch_or(PARKED, Ordering::AcqRel);
        }
        if state & DECIDED == 0 {
            // Announced before the decision (see the type docs): re-check
            // under the mutex before every wait, so the completer's
            // notification cannot fall between the check and the sleep.
            let mut g = self.lock.lock();
            loop {
                state = self.state.load(Ordering::Acquire);
                if state & DECIDED != 0 {
                    break;
                }
                #[cfg(test)]
                PARKS.with(|p| p.set(p.get() + 1));
                self.cv.wait(&mut g);
            }
        }
        assert!(
            state & FAILED == 0,
            "BOHM engine failed (write-ahead log append error): \
             this transaction was never executed"
        );
        TxnOutcome {
            committed: state & COMMITTED != 0,
            // RELAXED: ordered by the Acquire read of the decision above.
            fingerprint: self.fingerprint.load(Ordering::Relaxed),
        }
    }

    /// Non-blocking [`wait`](Self::wait) probe; one Acquire load. A `true`
    /// synchronizes with the completing thread, so the outcome is visible.
    pub(crate) fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) & DECIDED != 0
    }
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// Handle to one submitted transaction
/// (returned by [`BohmSession::submit`](crate::BohmSession::submit)).
///
/// Completion is published per transaction, the moment an execution thread
/// finishes it — not when its (engine-internal) batch drains — so
/// [`is_done`](Self::is_done) turns true exactly then. The executing thread
/// pays for a wake-up only if somebody is parked in [`wait`](Self::wait).
///
/// A handle also knows which batch its transaction joined. While that batch
/// is still open, the handle is what seals it by time (see
/// [`ingest`](crate::ingest)): nothing else watches the clock.
pub struct TxnHandle {
    pub(crate) completion: Arc<Completion>,
    /// Id of the batch the transaction joined.
    pub(crate) batch: u64,
    pub(crate) inner: Arc<Inner>,
}

impl TxnHandle {
    /// Block until the transaction has executed and return its outcome.
    ///
    /// If its batch is still open, first wait until the batch has been open
    /// for [`batch_linger`](crate::BohmConfig::batch_linger) — other
    /// submissions may fill and seal it meanwhile — and then seal it here.
    /// After that the wait is precise: the caller parks on *this*
    /// transaction and is woken by the thread that completes it (a
    /// `submit(txn).wait()` round trip waits for nothing else). The handle
    /// may be moved to, and waited on from, any thread.
    ///
    /// # Panics
    ///
    /// Panics if the engine failed before the transaction reached a sealed
    /// batch (a write-ahead log append error).
    pub fn wait(&self) -> TxnOutcome {
        if !self.completion.is_done() {
            self.inner.seal_lingered(self.batch, true);
        }
        self.completion.wait()
    }

    /// Has the transaction finished? (Non-blocking.)
    ///
    /// A `false` about a transaction whose batch is still open but past its
    /// [`batch_linger`](crate::BohmConfig::batch_linger) seals that batch
    /// first, so a client that only polls still gets its work done.
    pub fn is_done(&self) -> bool {
        if self.completion.is_done() {
            return true;
        }
        self.inner.seal_lingered(self.batch, false);
        false
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
/// cheap: sealing pre-hashes each record once, and the CC threads
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
/// correct — a read sealing did not pair with its write (see
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

/// Comparisons sealing will spend pairing one transaction's reads
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
    /// One slot per write-set entry: the placeholder version installed by
    /// the owning CC thread (§3.2.2).
    pub(crate) write_refs: ASlice<AtomicPtr<Version>>,
    /// Where the submitter learns the outcome; `None` for a replayed
    /// transaction, whose outcome stays in `committed` and `fingerprint`.
    pub(crate) completion: Option<Arc<Completion>>,
    /// A replayed transaction's decision, stored before `state` turns
    /// `Complete` and read once its batch has retired
    /// ([`replayed_outcome`](Self::replayed_outcome)). Untouched when there
    /// is a completion word.
    committed: AtomicBool,
    fingerprint: AtomicU64,
}

impl TxnState {
    /// A *detached reader*: no writes, and a read set too large to annotate
    /// (so it has no read slots although it declared reads). It produces no
    /// version anyone can wait on and owes the CC phase nothing, which is
    /// what lets it leave the responsibility rotation for the read lane
    /// (`crate::exec`).
    #[inline]
    pub(crate) fn is_detached(&self) -> bool {
        self.txn.writes.is_empty() && self.read_refs.is_empty() && !self.txn.reads.is_empty()
    }

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
        completion: Option<Arc<Completion>>,
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
        let read_refs = nulls(arena, nr);
        let write_refs = nulls(arena, nw);
        Self {
            txn,
            ts,
            state: AtomicU8::new(txn_status::UNPROCESSED),
            plan,
            read_refs,
            write_refs,
            completion,
            committed: AtomicBool::new(false),
            fingerprint: AtomicU64::new(0),
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
    /// the outcome straight to the submitter's [`Completion`], or keeps it
    /// here for replay.
    #[inline]
    pub(crate) fn complete(&self, committed: bool, fingerprint: u64) {
        debug_assert_eq!(self.status(), txn_status::EXECUTING);
        if let Some(completion) = &self.completion {
            self.state.store(txn_status::COMPLETE, Ordering::Release);
            return completion.record(committed, fingerprint);
        }
        // RELAXED: published by the Release store of `Complete` below. The
        // thread responsible for this transaction Acquires that before it
        // counts out of the batch, and retirement follows the last count-out.
        self.committed.store(committed, Ordering::Relaxed);
        // RELAXED: as above.
        self.fingerprint.store(fingerprint, Ordering::Relaxed);
        self.state.store(txn_status::COMPLETE, Ordering::Release);
    }

    /// The decision of a replayed transaction (one without a completion
    /// word). Only for a batch that has retired: `Window::retired`'s
    /// Acquire makes its executors' stores visible.
    pub(crate) fn replayed_outcome(&self) -> TxnOutcome {
        debug_assert!(self.completion.is_none());
        debug_assert_eq!(self.status(), txn_status::COMPLETE);
        TxnOutcome {
            // RELAXED: ordered by the caller's Acquire of the retirement.
            committed: self.committed.load(Ordering::Relaxed),
            // RELAXED: as above.
            fingerprint: self.fingerprint.load(Ordering::Relaxed),
        }
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
    /// The engine's checkpoint epoch, sampled when this batch was
    /// sealed — the stamp its WAL record carries.
    pub epoch: u64,
    /// The batch's transactions in timestamp order, with runtime state.
    pub txns: Box<[TxnState]>,
    /// CC threads yet to finish this batch (the §3.2.4 amortized barrier).
    pub(crate) cc_pending: AtomicUsize,
    /// Positions in `txns` of the detached readers, ascending. The read
    /// lane takes them from the front, an execution thread that has finished
    /// its own transactions from the back.
    pub(crate) readers: Box<[u32]>,
    /// Threads yet to count themselves out: every execution thread, plus the
    /// read lane iff `readers` is non-empty.
    pub(crate) exec_pending: AtomicUsize,
}

impl Batch {
    /// Assemble a batch from its entries in log order. Per-transaction
    /// runtime buffers are carved from `arena`, contiguous in timestamp
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        entries: impl IntoIterator<Item = (Txn, Option<Arc<Completion>>)>,
        base_ts: Timestamp,
        id: u64,
        epoch: u64,
        cc_threads: usize,
        exec_threads: usize,
        annotate_max_reads: usize,
        arena: &mut Arena,
    ) -> Arc<Self> {
        let txns: Box<[TxnState]> = entries
            .into_iter()
            .zip(base_ts..)
            .map(|((txn, completion), ts)| {
                TxnState::new(txn, ts, annotate_max_reads, completion, arena)
            })
            .collect();
        let readers: Box<[u32]> = (0..txns.len() as u32)
            .filter(|&i| txns[i as usize].is_detached())
            .collect();
        Arc::new(Self {
            id,
            base_ts,
            epoch,
            cc_pending: AtomicUsize::new(cc_threads),
            exec_pending: AtomicUsize::new(exec_threads + usize::from(!readers.is_empty())),
            txns,
            readers,
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

    /// `n` single-key RMWs, each with its own fresh completion.
    pub(crate) fn entries(n: usize) -> Vec<(Txn, Option<Arc<Completion>>)> {
        (0..n).map(|_| (txn(), Some(Completion::new()))).collect()
    }

    fn lone_state() -> (TxnState, Arc<Completion>) {
        let c = Completion::new();
        let t = TxnState::new(txn(), 5, 64, Some(Arc::clone(&c)), &mut test_arena());
        (t, c)
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
        let want = TxnOutcome {
            committed: true,
            fingerprint: 42,
        };
        assert_eq!(completion.wait(), want);
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
        let t = TxnState::new(t, 9, 64, None, &mut test_arena());
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
        let b = Batch::new(entries(3), 100, 0, 0, 2, 2, 64, &mut test_arena());
        assert_eq!(b.last_ts(), 102);
        assert!(b.contains(100) && b.contains(102));
        assert!(!b.contains(99) && !b.contains(103));
        assert_eq!(b.txn_at(101).ts, 101);
    }

    #[test]
    fn a_batch_lists_its_detached_readers_and_counts_the_lane_in_for_them() {
        let rids = |n: u64| (0..n).map(|r| RecordId::new(0, r)).collect::<Vec<_>>();
        let shapes = || {
            let read_only = |n| Txn::new(rids(n), vec![], Procedure::ReadOnly);
            let wide_rmw = Txn::new(rids(70), rids(1), Procedure::ReadModifyWrite { delta: 1 });
            let txns = [
                txn(),
                read_only(65),
                read_only(64),
                read_only(0),
                read_only(70),
                wide_rmw,
            ];
            txns.into_iter().map(|t| (t, None))
        };
        let pending = |b: &Batch| b.exec_pending.load(Ordering::Acquire);
        // Above the limit *and* write-free: positions 1 and 4.
        let b = Batch::new(shapes(), 1, 0, 0, 1, 2, 64, &mut test_arena());
        assert_eq!(&*b.readers, [1, 4]);
        assert_eq!(pending(&b), 3, "two execution threads and the lane");
        // Annotation off (limit 0): every read-only transaction that reads.
        let b = Batch::new(shapes(), 1, 0, 0, 1, 2, 0, &mut test_arena());
        assert_eq!(&*b.readers, [1, 2, 4]);
        // No reader, no lane.
        let b = Batch::new(entries(3), 1, 0, 0, 1, 2, 64, &mut test_arena());
        assert!(b.readers.is_empty());
        assert_eq!(pending(&b), 2);
    }

    #[test]
    fn each_transaction_decides_its_own_word_as_it_completes() {
        let entries = entries(2);
        let words: Vec<_> = entries
            .iter()
            .map(|(_, c)| Arc::clone(c.as_ref().unwrap()))
            .collect();
        let b = Batch::new(entries, 1, 0, 0, 1, 1, 64, &mut test_arena());
        assert!(!words[0].is_done() && !words[1].is_done());
        b.txns[1].try_claim();
        b.txns[1].complete(false, 0);
        assert!(words[1].is_done(), "done the moment its executor says so");
        assert!(!words[0].is_done(), "and nobody else's word moves");
        b.txns[0].try_claim();
        b.txns[0].complete(true, 7);
        let want = TxnOutcome {
            committed: true,
            fingerprint: 7,
        };
        assert_eq!(words[0].wait(), want);
        assert!(!words[1].wait().committed);
    }

    /// Condvar waits `f` entered on this thread.
    fn parks_during(f: impl FnOnce()) -> usize {
        let before = PARKS.with(|p| p.get());
        f();
        PARKS.with(|p| p.get()) - before
    }

    #[test]
    fn waiter_on_a_decided_word_never_parks() {
        let c = Completion::new();
        c.record(true, 3);
        assert!(c.is_done());
        let parks = parks_during(|| {
            let want = TxnOutcome {
                committed: true,
                fingerprint: 3,
            };
            assert_eq!(c.wait(), want);
            assert_eq!(c.wait(), want, "and may be asked again");
        });
        assert_eq!(parks, 0);
        assert_eq!(c.state.load(Ordering::Acquire) & PARKED, 0, "fast path");
    }

    #[test]
    fn waiter_ahead_of_the_decision_parks_at_most_once_and_is_woken() {
        let c = Completion::new();
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                let mut out = None;
                (parks_during(|| out = Some(c.wait())), out.unwrap())
            })
        };
        // Forced interleaving: the decision follows the announcement, so
        // the waiter is on its slow path and the completer owes it a
        // notification. (Zero parks is the re-check under the mutex
        // catching the decision; the model harness enumerates both.)
        while c.state.load(Ordering::Acquire) & PARKED == 0 {
            std::thread::yield_now();
        }
        assert!(!c.is_done());
        c.record(false, 0);
        let (parks, out) = waiter.join().unwrap();
        assert!(parks <= 1, "one decision wakes one sleep, got {parks}");
        assert!(!out.committed);
    }

    #[test]
    fn poison_wakes_a_parked_waiter_into_the_fault_panic() {
        let c = Completion::new();
        let waiter = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.wait()))
            })
        };
        while c.state.load(Ordering::Acquire) & PARKED == 0 {
            std::thread::yield_now();
        }
        c.poison();
        let woke = waiter.join().unwrap();
        let msg = woke.expect_err("poisoned wait must panic, not return");
        assert!(msg
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("engine failed")));
        assert!(c.is_done(), "pollers must not spin on a failed engine");
        c.poison(); // idempotent
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| c.wait()));
        assert!(late.is_err(), "late waiters observe the fault too");
    }

    #[test]
    fn outcome_and_fingerprint_are_visible_once_is_done_says_so() {
        let c = Completion::new();
        let poller = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                while !c.is_done() {
                    std::thread::yield_now();
                }
                // RELAXED: exactly what a poller relies on — `is_done`'s
                // Acquire ordered this read after the fingerprint store.
                let seen = c.fingerprint.load(Ordering::Relaxed);
                let mut out = None;
                (seen, parks_during(|| out = Some(c.wait())), out.unwrap())
            })
        };
        c.record(true, 0xfeed);
        let want = TxnOutcome {
            committed: true,
            fingerprint: 0xfeed,
        };
        assert_eq!(poller.join().unwrap(), (0xfeed, 0, want));
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
/// cargo test -p bohm modelcheck`): a lost wake-up is a model *deadlock*
/// with a replayable seed. Mutation-checked by the two broken twins below,
/// each of which breaks "one RMW per side on one word" in one place.
#[cfg(all(test, bohm_modelcheck))]
pub(crate) mod modelcheck {
    use super::*;
    use bohm_sync::{model, thread};
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Where a twin departs from the protocol.
    #[derive(Clone, Copy, PartialEq)]
    enum Fault {
        None,
        /// The waiter sleeps on what its `fetch_or` returned, without
        /// re-checking under the mutex: a decision (and its notification)
        /// landing in between is lost.
        WaiterSkipsRecheck,
        /// The completer tests `PARKED` with a load of its own *before* its
        /// `fetch_or`: a waiter announcing itself in between is never
        /// notified.
        CompleterLoadsParkedFirst,
    }

    /// An outcome racing a waiter on its way to sleep.
    fn outcome_model(fault: Fault) {
        let c = Completion::new();
        let completer = {
            let c = Arc::clone(&c);
            thread::spawn(move || {
                if fault != Fault::CompleterLoadsParkedFirst {
                    return c.record(true, 7);
                }
                let parked = c.state.load(Ordering::SeqCst) & PARKED != 0;
                // RELAXED: as in `record`.
                c.fingerprint.store(7, Ordering::Relaxed);
                c.state.fetch_or(COMMITTED, Ordering::SeqCst);
                if parked {
                    let _g = c.lock.lock();
                    c.cv.notify_all();
                }
            })
        };
        if fault == Fault::WaiterSkipsRecheck
            && c.state.fetch_or(PARKED, Ordering::SeqCst) & DECIDED == 0
        {
            let mut g = c.lock.lock();
            c.cv.wait(&mut g);
        }
        let out = c.wait();
        assert!(out.committed && out.fingerprint == 7);
        completer.join().unwrap();
    }

    /// A fault racing a waiter on its way to sleep: the waiter must wake and
    /// report the fault, whichever side gets to the word first.
    fn poison_model() {
        let c = Completion::new();
        let sealer = {
            let c = Arc::clone(&c);
            thread::spawn(move || c.poison())
        };
        let woke = catch_unwind(AssertUnwindSafe(|| c.wait()));
        let msg = woke.expect_err("a poisoned wait must panic, not return");
        assert!(
            msg.downcast_ref::<&str>()
                .is_some_and(|m| m.contains("engine failed")),
            "woken by something other than the fault"
        );
        sealer.join().unwrap();
    }

    #[test]
    fn outcome_racing_a_parking_waiter_explored() {
        model::explore(model::Options::default(), || outcome_model(Fault::None));
    }

    #[test]
    fn poison_racing_a_parking_waiter_explored() {
        model::explore(model::Options::default(), poison_model);
    }

    /// A broken twin must fail — with `what` in the message — under some
    /// seed in a bounded scan, and that seed must fail the same way again.
    pub(crate) fn twin_fails_replayably(what: &str, twin: impl Fn()) {
        let failing = |seed| catch_unwind(AssertUnwindSafe(|| model::run(seed, &twin)));
        let seed = (1..=256)
            .find(|&s| failing(s).is_err())
            .expect("no seed in 1..=256 caught the twin");
        eprintln!("broken twin caught at seed {seed}");
        for _ in 0..2 {
            let err = failing(seed).expect_err("the failing seed must fail deterministically");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains(what), "got: {msg}");
            assert!(msg.contains(&format!("seed {seed}")), "got: {msg}");
        }
    }

    /// A lost wake-up strands the waiter: a model deadlock.
    fn twin_deadlocks_replayably(fault: Fault) {
        twin_fails_replayably("deadlock", || outcome_model(fault));
    }

    #[test]
    fn waiter_that_skips_the_recheck_is_a_replayable_lost_wakeup() {
        twin_deadlocks_replayably(Fault::WaiterSkipsRecheck);
    }

    #[test]
    fn completer_that_loads_parked_before_its_rmw_is_a_replayable_lost_wakeup() {
        twin_deadlocks_replayably(Fault::CompleterLoadsParkedFirst);
    }
}
