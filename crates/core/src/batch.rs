//! Batches, per-transaction runtime state, and outcome delivery.
//!
//! BOHM amortizes all cross-thread coordination over batches (paper §3.2.4):
//! CC threads process a batch independently and meet at one atomic
//! countdown; execution threads do the same on their side. A [`TxnState`]
//! carries the pre-allocated annotation slots the CC phase fills in — "the
//! write containing the correct version reference for a read is to
//! pre-allocated space within a transaction" (§3.2.3).
//!
//! Outcomes go the same way: every batch has one `Outcomes` block, opened
//! with the batch, with one slot per position. Whoever executes the
//! transaction at timestamp `ts` decides slot `ts − base_ts` the moment it
//! finishes, whether a submitter's [`TxnHandle`] will read it or replay
//! will, once the batch has retired. A *wake-up* is paid only when a thread
//! is actually parked on that slot. Batch boundaries are an engine-internal
//! amortization artifact; submitters never see them.

use crate::engine::Inner;
use bohm_common::engine::ExecOutcome;
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

// ---------------------------------------------------------------------------
// Outcome block: one per batch, one slot per transaction
// ---------------------------------------------------------------------------

/// Where the transactions of one batch are decided: one slot per position,
/// and one mutex/condvar pair shared by every waiter on the batch.
///
/// A slot's `state` holds at most one decision — `COMMITTED`, `USER_ABORT`
/// or `FAILED` — plus a waiter's `PARKED` announcement. The completer and a
/// waiter each do **one RMW on that word**, so its modification order
/// decides the race between them: whichever `fetch_or` comes second sees
/// the other's bit in the value it returns. Either the waiter finds the
/// decision and never sleeps, or the completer finds `PARKED` and takes the
/// mutex — which the waiter holds from its re-check until it is inside
/// `Condvar::wait` — to notify it. The mutex/condvar pair carries only that
/// edge, never the data; with nobody parked — every transaction a
/// pipelining session has not caught up with, and every replayed one —
/// deciding is a store and one `fetch_or`.
///
/// The condvar is the block's, not the slot's, so a completer that finds
/// `PARKED` wakes **every** waiter on the batch: one woken at random might
/// be waiting on another slot, go back to sleep, and leave this slot's
/// waiter asleep for good. The others re-check their own slot and sleep
/// again. No slot is reused: a block lives as long as its batch or the last
/// handle into it, whichever is later.
pub(crate) struct Outcomes {
    slots: Box<[Slot]>,
    lock: Mutex<()>,
    cv: Condvar,
}

struct Slot {
    state: AtomicU8,
    /// Written once, before the decision is published.
    fingerprint: AtomicU64,
}

const COMMITTED: u8 = 1;
const USER_ABORT: u8 = 2;
/// Engine fault (e.g. a WAL append failure): the transaction will never
/// execute. Waiters panic with a clear message instead of blocking forever.
const FAILED: u8 = 4;
/// A waiter is (about to be) asleep on the block's condvar.
const PARKED: u8 = 8;
const DECIDED: u8 = COMMITTED | USER_ABORT | FAILED;

#[cfg(test)]
thread_local! {
    /// Condvar waits this thread entered in [`Outcomes::wait`].
    pub(crate) static PARKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

impl Outcomes {
    /// A block of `len` undecided slots.
    pub(crate) fn new(len: usize) -> Arc<Self> {
        let slot = |_| Slot {
            state: AtomicU8::new(0),
            fingerprint: AtomicU64::new(0),
        };
        Arc::new(Self {
            slots: (0..len).map(slot).collect(),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        })
    }

    /// Record slot `i`'s decision. Returns whether a waiter announced
    /// itself first, i.e. whether the caller owes the block a
    /// [`wake`](Self::wake).
    pub(crate) fn decide(&self, i: usize, committed: bool, fingerprint: u64) -> bool {
        let slot = &self.slots[i];
        // RELAXED: the Release half of the `fetch_or` below publishes the
        // fingerprint; readers Acquire the decision first.
        slot.fingerprint.store(fingerprint, Ordering::Relaxed);
        let decision = if committed { COMMITTED } else { USER_ABORT };
        slot.state.fetch_or(decision, Ordering::AcqRel) & PARKED != 0
    }

    /// Wake every waiter on the block (see the type docs for why all).
    pub(crate) fn wake(&self) {
        let _g = self.lock.lock();
        self.cv.notify_all();
    }

    /// Mark the first `n` slots as never-executing because the engine
    /// failed (stop-the-world fault, e.g. the WAL rejected an append): their
    /// waiters panic with the fault instead of hanging on an outcome that
    /// will never arrive. Notifies unconditionally: a fault is rare, and a
    /// hang is the one outcome the failure path must not have. Idempotent.
    pub(crate) fn poison(&self, n: usize) {
        for slot in &self.slots[..n] {
            slot.state.fetch_or(FAILED, Ordering::AcqRel);
        }
        self.wake();
    }

    /// Block until slot `i` is decided and return its outcome.
    pub(crate) fn wait(&self, i: usize) -> ExecOutcome {
        let slot = &self.slots[i];
        let mut state = slot.state.load(Ordering::Acquire);
        if state & DECIDED == 0 {
            state = slot.state.fetch_or(PARKED, Ordering::AcqRel);
        }
        if state & DECIDED == 0 {
            // Announced before the decision (see the type docs): re-check
            // under the mutex before every wait, so the completer's
            // notification cannot fall between the check and the sleep.
            let mut g = self.lock.lock();
            loop {
                state = slot.state.load(Ordering::Acquire);
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
        self.outcome(i)
    }

    /// Non-blocking [`wait`](Self::wait) probe; one Acquire load. A `true`
    /// synchronizes with the deciding thread, so the outcome is visible.
    pub(crate) fn is_done(&self, i: usize) -> bool {
        self.slots[i].state.load(Ordering::Acquire) & DECIDED != 0
    }

    /// Slot `i`'s outcome, once the caller has synchronized with its
    /// decision: through [`is_done`](Self::is_done) or `wait`, or — for
    /// replay — through `Window::retired`'s Acquire, which follows every
    /// decision of a retired batch.
    pub(crate) fn outcome(&self, i: usize) -> ExecOutcome {
        let slot = &self.slots[i];
        // RELAXED: ordered by the caller's Acquire (see above).
        let state = slot.state.load(Ordering::Relaxed);
        debug_assert!(
            state & (COMMITTED | USER_ABORT) != 0,
            "slot {i} is undecided"
        );
        ExecOutcome {
            committed: state & COMMITTED != 0,
            // RELAXED: as above.
            fingerprint: slot.fingerprint.load(Ordering::Relaxed),
            // BOHM never aborts for concurrency control (§3.3.3).
            cc_retries: 0,
        }
    }
}

// ---------------------------------------------------------------------------
// Public handle
// ---------------------------------------------------------------------------

/// Handle to one submitted transaction
/// (returned by [`BohmSession::submit`](crate::BohmSession::submit)).
///
/// The outcome is published per transaction, the moment an execution thread
/// finishes it — not when its (engine-internal) batch drains — so
/// [`is_done`](Self::is_done) turns true exactly then. The executing thread
/// pays for a wake-up only if somebody is parked in [`wait`](Self::wait).
///
/// A handle also knows which batch its transaction joined. While that batch
/// is still open and nothing fills it, the handle is what seals it, once no
/// batch is in flight (see [`ingest`](crate::ingest)): there is no timer.
pub struct TxnHandle {
    /// The outcome block of the batch the transaction joined.
    pub(crate) outcomes: Arc<Outcomes>,
    /// The transaction's position in that batch.
    pub(crate) slot: usize,
    /// Id of the batch the transaction joined.
    pub(crate) batch: u64,
    pub(crate) inner: Arc<Inner>,
}

impl TxnHandle {
    /// Block until the transaction has executed and return its outcome
    /// (`cc_retries` is always 0: BOHM has no concurrency-control aborts,
    /// §3.3.3).
    ///
    /// If its batch is still open, first wait until no batch is in flight —
    /// other submissions may fill and seal it meanwhile — and then seal it
    /// here; on an idle engine that is at once. After that the wait is
    /// precise: the caller parks on *this* transaction and is woken by the
    /// thread that completes it (a `submit(txn).wait()` round trip waits
    /// for nothing else). The handle may be moved to, and waited on from,
    /// any thread.
    ///
    /// # Panics
    ///
    /// Panics if the engine failed before the transaction reached a sealed
    /// batch (a write-ahead log append error).
    pub fn wait(&self) -> ExecOutcome {
        if !self.outcomes.is_done(self.slot) {
            self.inner.seal_idle(self.batch, true);
        }
        self.outcomes.wait(self.slot)
    }

    /// Has the transaction finished? (Non-blocking.)
    ///
    /// A `false` about a transaction whose batch is still open while no
    /// batch is in flight seals that batch first, so a client that only
    /// polls still gets its work done.
    pub fn is_done(&self) -> bool {
        if self.outcomes.is_done(self.slot) {
            return true;
        }
        self.inner.seal_idle(self.batch, false);
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
    /// Where `txns[i]` is decided: slot `i`.
    pub(crate) outcomes: Arc<Outcomes>,
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
    /// Assemble a batch from its transactions in log order, decided into
    /// `outcomes` (a slot per transaction, at least). Per-transaction
    /// runtime buffers are carved from `arena`, contiguous in timestamp
    /// order.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        txns: impl IntoIterator<Item = Txn>,
        outcomes: Arc<Outcomes>,
        base_ts: Timestamp,
        id: u64,
        epoch: u64,
        cc_threads: usize,
        exec_threads: usize,
        annotate_max_reads: usize,
        arena: &mut Arena,
    ) -> Arc<Self> {
        let txns: Box<[TxnState]> = (txns.into_iter().zip(base_ts..))
            .map(|(txn, ts)| TxnState::new(txn, ts, annotate_max_reads, arena))
            .collect();
        debug_assert!(txns.len() <= outcomes.slots.len());
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
            outcomes,
            readers,
        })
    }

    /// Mark `t`, a transaction of this batch the caller has claimed,
    /// `Complete` with its decision. The decision lands in its slot
    /// *before* the state turns `Complete`: the thread responsible for `t`
    /// Acquires `Complete` before it counts out of the batch, so the
    /// decision is in place by the time the batch retires (what replay
    /// reads). A parked waiter is woken after, so a dependent spinning on
    /// `t`'s state never waits for the wake-up.
    #[inline]
    pub(crate) fn complete(&self, t: &TxnState, committed: bool, fingerprint: u64) {
        debug_assert_eq!(t.status(), txn_status::EXECUTING);
        let slot = (t.ts - self.base_ts) as usize;
        let parked = self.outcomes.decide(slot, committed, fingerprint);
        t.state.store(txn_status::COMPLETE, Ordering::Release);
        if parked {
            self.outcomes.wake();
        }
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

    /// `n` single-key RMWs.
    pub(crate) fn entries(n: usize) -> Vec<Txn> {
        (0..n).map(|_| txn()).collect()
    }

    /// A batch of `n` single-key RMWs from timestamp 1, with a block of
    /// `n` slots.
    fn batch(n: usize) -> Arc<Batch> {
        Batch::new(
            entries(n),
            Outcomes::new(n),
            1,
            0,
            0,
            1,
            1,
            64,
            &mut test_arena(),
        )
    }

    const COMMITTED_7: ExecOutcome = ExecOutcome {
        committed: true,
        fingerprint: 7,
        cc_retries: 0,
    };

    #[test]
    fn state_machine_transitions() {
        let b = batch(1);
        let t = &b.txns[0];
        assert_eq!(t.status(), txn_status::UNPROCESSED);
        assert!(t.try_claim());
        assert!(!t.try_claim(), "double claim must fail");
        t.park();
        assert!(t.try_claim(), "parked txn is claimable again");
        b.complete(t, true, 7);
        assert_eq!(t.status(), txn_status::COMPLETE);
        assert!(!t.try_claim(), "complete txn is not claimable");
        assert_eq!(b.outcomes.wait(0), COMMITTED_7);
    }

    #[test]
    fn annotation_slots_match_set_sizes() {
        let t = TxnState::new(txn(), 5, 64, &mut test_arena());
        assert_eq!(t.read_refs.len(), 1);
        assert_eq!(t.write_refs.len(), 1);
        assert!(t.read_refs[0].load(Ordering::Relaxed).is_null());
    }

    /// `(read, write)` positions of each plan entry of a transaction with
    /// the given sets (rows of table 0), annotated up to 64 reads.
    fn plan_of(reads: &[u64], writes: &[u64]) -> Vec<(Option<usize>, Option<usize>)> {
        let rids = |rows: &[u64]| rows.iter().map(|&r| RecordId::new(0, r)).collect();
        let t = Txn::new(rids(reads), rids(writes), Procedure::ReadOnly);
        let t = TxnState::new(t, 9, 64, &mut test_arena());
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
        let b = Batch::new(
            entries(3),
            Outcomes::new(3),
            100,
            0,
            0,
            2,
            2,
            64,
            &mut test_arena(),
        );
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
            [
                txn(),
                read_only(65),
                read_only(64),
                read_only(0),
                read_only(70),
                wide_rmw,
            ]
        };
        let pending = |b: &Batch| b.exec_pending.load(Ordering::Acquire);
        let new = |annotate_max_reads| {
            let outcomes = Outcomes::new(6);
            Batch::new(
                shapes(),
                outcomes,
                1,
                0,
                0,
                1,
                2,
                annotate_max_reads,
                &mut test_arena(),
            )
        };
        // Above the limit *and* write-free: positions 1 and 4.
        let b = new(64);
        assert_eq!(&*b.readers, [1, 4]);
        assert_eq!(pending(&b), 3, "two execution threads and the lane");
        // Annotation off (limit 0): every read-only transaction that reads.
        let b = new(0);
        assert_eq!(&*b.readers, [1, 2, 4]);
        // No reader, no lane.
        let b = Batch::new(
            entries(3),
            Outcomes::new(3),
            1,
            0,
            0,
            1,
            2,
            64,
            &mut test_arena(),
        );
        assert!(b.readers.is_empty());
        assert_eq!(pending(&b), 2);
    }

    #[test]
    fn each_transaction_decides_its_own_slot_as_it_completes() {
        let b = batch(2);
        assert!(!b.outcomes.is_done(0) && !b.outcomes.is_done(1));
        b.txns[1].try_claim();
        b.complete(&b.txns[1], false, 0);
        assert!(
            b.outcomes.is_done(1),
            "done the moment its executor says so"
        );
        assert!(!b.outcomes.is_done(0), "and nobody else's slot moves");
        b.txns[0].try_claim();
        b.complete(&b.txns[0], true, 7);
        assert_eq!(b.outcomes.wait(0), COMMITTED_7);
        assert!(!b.outcomes.wait(1).committed);
    }

    /// Condvar waits `f` entered on this thread.
    fn parks_during(f: impl FnOnce()) -> usize {
        let before = PARKS.with(|p| p.get());
        f();
        PARKS.with(|p| p.get()) - before
    }

    #[test]
    fn waiter_on_a_decided_slot_never_parks() {
        let o = Outcomes::new(2);
        assert!(!o.decide(1, true, 7), "nobody was parked");
        assert!(o.is_done(1));
        let parks = parks_during(|| {
            assert_eq!(o.wait(1), COMMITTED_7);
            assert_eq!(o.wait(1), COMMITTED_7, "and may be asked again");
        });
        assert_eq!(parks, 0);
        assert_eq!(
            o.slots[1].state.load(Ordering::Acquire) & PARKED,
            0,
            "fast path"
        );
    }

    /// Wait until a waiter has announced itself on slot `i` of `o`.
    fn until_parked(o: &Outcomes, i: usize) {
        while o.slots[i].state.load(Ordering::Acquire) & PARKED == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn waiter_ahead_of_the_decision_parks_at_most_once_and_is_woken() {
        let o = Outcomes::new(1);
        let waiter = {
            let o = Arc::clone(&o);
            std::thread::spawn(move || {
                let mut out = None;
                (parks_during(|| out = Some(o.wait(0))), out.unwrap())
            })
        };
        // Forced interleaving: the decision follows the announcement, so
        // the waiter is on its slow path and the completer owes it a
        // notification. (Zero parks is the re-check under the mutex
        // catching the decision; the model harness enumerates both.)
        until_parked(&o, 0);
        assert!(!o.is_done(0));
        assert!(o.decide(0, false, 0), "the completer sees the announcement");
        o.wake();
        let (parks, out) = waiter.join().unwrap();
        assert!(parks <= 1, "one decision wakes one sleep, got {parks}");
        assert!(!out.committed);
    }

    #[test]
    fn poison_wakes_a_parked_waiter_into_the_fault_panic() {
        let o = Outcomes::new(4);
        let waiter = {
            let o = Arc::clone(&o);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.wait(1)))
            })
        };
        until_parked(&o, 1);
        o.poison(2);
        let woke = waiter.join().unwrap();
        let msg = woke.expect_err("poisoned wait must panic, not return");
        assert!(msg
            .downcast_ref::<&str>()
            .is_some_and(|m| m.contains("engine failed")));
        assert!(
            o.is_done(0) && o.is_done(1),
            "pollers must not spin on a failed engine"
        );
        assert!(!o.is_done(2), "only the filled slots are poisoned");
        o.poison(2); // idempotent
        let late = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| o.wait(0)));
        assert!(late.is_err(), "late waiters observe the fault too");
    }

    #[test]
    fn outcome_and_fingerprint_are_visible_once_is_done_says_so() {
        let o = Outcomes::new(1);
        let poller = {
            let o = Arc::clone(&o);
            std::thread::spawn(move || {
                while !o.is_done(0) {
                    std::thread::yield_now();
                }
                // RELAXED: exactly what a poller relies on — `is_done`'s
                // Acquire ordered this read after the fingerprint store.
                let seen = o.slots[0].fingerprint.load(Ordering::Relaxed);
                let mut out = None;
                (seen, parks_during(|| out = Some(o.wait(0))), out.unwrap())
            })
        };
        o.decide(0, true, 0xfeed);
        let want = ExecOutcome {
            fingerprint: 0xfeed,
            ..COMMITTED_7
        };
        assert_eq!(poller.join().unwrap(), (0xfeed, 0, want));
    }

    #[test]
    fn only_one_claimer_wins_under_contention() {
        let t = Arc::new(TxnState::new(txn(), 5, 64, &mut test_arena()));
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

/// Model-checked outcome handshake (`RUSTFLAGS="--cfg bohm_modelcheck"
/// cargo test -p bohm modelcheck`): a lost wake-up is a model *deadlock*
/// with a replayable seed. Mutation-checked by the three broken twins below:
/// two break "one RMW per side on one word" in one place, the third wakes
/// one waiter of the block's shared condvar instead of all of them.
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
        /// The completer that finds `PARKED` wakes one waiter of the block:
        /// it may be another slot's, which goes back to sleep.
        CompleterNotifiesOne,
    }

    const COMMITTED_7: ExecOutcome = ExecOutcome {
        committed: true,
        fingerprint: 7,
        cc_retries: 0,
    };

    /// Decide slot `i` committed with fingerprint 7, as `Batch::complete`
    /// does (less the transaction's state word), or as the twin does.
    fn decide(o: &Outcomes, i: usize, fault: Fault) {
        match fault {
            Fault::CompleterLoadsParkedFirst => {
                let slot = &o.slots[i];
                let parked = slot.state.load(Ordering::SeqCst) & PARKED != 0;
                // RELAXED: as in `decide`.
                slot.fingerprint.store(7, Ordering::Relaxed);
                slot.state.fetch_or(COMMITTED, Ordering::SeqCst);
                if parked {
                    o.wake();
                }
            }
            Fault::CompleterNotifiesOne => {
                if o.decide(i, true, 7) {
                    let _g = o.lock.lock();
                    o.cv.notify_one();
                }
            }
            Fault::None | Fault::WaiterSkipsRecheck => {
                if o.decide(i, true, 7) {
                    o.wake();
                }
            }
        }
    }

    /// An outcome racing a waiter on its way to sleep, on slot 1 of a
    /// two-slot block.
    fn outcome_model(fault: Fault) {
        let o = Outcomes::new(2);
        let completer = {
            let o = Arc::clone(&o);
            thread::spawn(move || decide(&o, 1, fault))
        };
        if fault == Fault::WaiterSkipsRecheck
            && o.slots[1].state.fetch_or(PARKED, Ordering::SeqCst) & DECIDED == 0
        {
            let mut g = o.lock.lock();
            o.cv.wait(&mut g);
        }
        assert_eq!(o.wait(1), COMMITTED_7);
        completer.join().unwrap();
        assert!(!o.is_done(0), "nobody else's slot moves");
    }

    /// A fault racing a waiter on its way to sleep: the seal that failed
    /// poisons the two filled slots of a three-slot block, and the waiter on
    /// the second must wake and report the fault, whichever side gets to
    /// the word first.
    fn poison_model() {
        let o = Outcomes::new(3);
        let sealer = {
            let o = Arc::clone(&o);
            thread::spawn(move || o.poison(2))
        };
        let woke = catch_unwind(AssertUnwindSafe(|| o.wait(1)));
        let msg = woke.expect_err("a poisoned wait must panic, not return");
        assert!(
            msg.downcast_ref::<&str>()
                .is_some_and(|m| m.contains("engine failed")),
            "woken by something other than the fault"
        );
        sealer.join().unwrap();
        assert!(o.is_done(0) && !o.is_done(2), "exactly the filled slots");
    }

    /// Two waiters parked on two slots of one block, and a completer
    /// deciding both: each decision that finds `PARKED` must reach its own
    /// waiter through the one condvar they share.
    fn two_waiters_model(fault: Fault) {
        let o = Outcomes::new(2);
        let waiters: Vec<_> = (0..2)
            .map(|i| {
                let o = Arc::clone(&o);
                thread::spawn(move || o.wait(i))
            })
            .collect();
        for i in 0..2 {
            decide(&o, i, fault);
        }
        for w in waiters {
            assert_eq!(w.join().unwrap(), COMMITTED_7);
        }
    }

    #[test]
    fn outcome_racing_a_parking_waiter_explored() {
        model::explore(model::Options::default(), || outcome_model(Fault::None));
    }

    #[test]
    fn poison_racing_a_parking_waiter_explored() {
        model::explore(model::Options::default(), poison_model);
    }

    #[test]
    fn two_waiters_on_one_block_are_both_woken_explored() {
        model::explore(model::Options::default(), || two_waiters_model(Fault::None));
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

    /// A lost wake-up strands a waiter: a model deadlock.
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

    #[test]
    fn completer_that_notifies_one_waiter_of_the_block_is_a_replayable_lost_wakeup() {
        twin_fails_replayably("deadlock", || {
            two_waiters_model(Fault::CompleterNotifiesOne)
        });
    }
}
