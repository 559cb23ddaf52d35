//! The Hekaton / SI engine proper.

use crate::recycle::{Recycler, Retired, Spare};
use crate::store::HekatonStore;
use crate::txn::{state, HkTxn};
use crate::version::{txn_word, unpack, HkVersion, WordView, END_INF};
use bohm_common::engine::{Engine, ExecOutcome};
use bohm_common::{AbortReason, Access, RecordId, Txn};
use bohm_sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use bohm_sync::Mutex;
use crossbeam_utils::CachePadded;
use std::ptr::NonNull;
use std::sync::Arc;

/// Isolation level of a [`Hekaton`] instance.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IsolationLevel {
    /// Full serializability: read-set validation at commit (Larson et al.'s
    /// optimistic serializable protocol — the paper's "Hekaton").
    Serializable,
    /// Snapshot isolation: write-write conflicts only; subject to write
    /// skew (the paper's "SI").
    SnapshotIsolation,
}

/// Internal read/write tracking of one attempt.
struct ReadRec {
    rid: RecordId,
    /// Version observed, or null when the read observed **absence** (the
    /// record does not exist at the snapshot). Absent observations are
    /// validated at commit exactly like present ones: re-resolving at the
    /// end timestamp must still find nothing.
    version: *const HkVersion,
}

struct WriteRec {
    rid: RecordId,
    /// Version this write superseded, or null for a record **insert**
    /// (there was nothing to supersede).
    old: *const HkVersion,
    new: *const HkVersion,
}

/// Upper bound on concurrently-live workers (slots are recycled when a
/// worker drops, so this bounds concurrency, not total sessions).
const ACTIVE_SLOTS: usize = 512;

/// The active-transaction registry: one cache-padded timestamp slot per
/// live worker. A worker publishes its begin timestamp for the duration of
/// each transaction attempt and `u64::MAX` while idle; the minimum over all
/// slots is the GC **watermark** — no in-flight transaction can read below
/// it, and future transactions draw strictly larger timestamps, so versions
/// whose end timestamp is at or below it are unreachable garbage. The same
/// registry decides when what was unlinked may be reused
/// (`crate::recycle`): a slot also protects every pointer its holder
/// loaded while it held it.
pub(crate) struct Registry {
    active: Box<[CachePadded<AtomicU64>]>,
    next: AtomicUsize,
    free: Mutex<Vec<usize>>,
    /// What dropped workers left unrecycled. The next worker made adopts
    /// it; `sweep_now` frees it once the watermark allows.
    orphans: Mutex<Vec<Retired>>,
    /// Free versions the workers share (`crate::recycle`).
    spare: Arc<Spare>,
}

impl Registry {
    pub(crate) fn new() -> Self {
        let mut active = Vec::with_capacity(ACTIVE_SLOTS);
        active.resize_with(ACTIVE_SLOTS, || CachePadded::new(AtomicU64::new(u64::MAX)));
        Self {
            active: active.into_boxed_slice(),
            next: AtomicUsize::new(0),
            free: Mutex::new(Vec::new()),
            orphans: Mutex::new(Vec::new()),
            spare: Arc::default(),
        }
    }

    pub(crate) fn acquire(&self) -> usize {
        if let Some(slot) = self.free.lock().pop() {
            return slot;
        }
        // RELAXED: slot ids only need to be unique; the mutex-protected
        // free list above is the sole other coordination point.
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        assert!(
            slot < ACTIVE_SLOTS,
            "more than {ACTIVE_SLOTS} concurrent Hekaton workers"
        );
        slot
    }

    /// Register `slot` before looking at anything shared: publish a lower
    /// bound of the holder's begin timestamp, then draw one with `draw`.
    ///
    /// Ordering matters: a draw-then-publish window would let a pruner scan
    /// the registry between the two, miss this holder, compute a watermark
    /// above its timestamp, and unlink — or recycle — a version it still
    /// needs. With the bound published first (all SeqCst), any scan that
    /// misses it is ordered before the draw, and a draw after a retirement's
    /// stamp synchronizes with it (`crate::recycle`).
    pub(crate) fn enter(
        &self,
        slot: usize,
        counter: &AtomicU64,
        draw: impl FnOnce() -> u64,
    ) -> u64 {
        self.active[slot].store(counter.load(Ordering::SeqCst), Ordering::SeqCst);
        let ts = draw();
        self.active[slot].store(ts, Ordering::SeqCst);
        ts
    }

    /// Clear `slot`: the holder reads nothing shared any more. Release: a
    /// scan that loads the cleared slot synchronizes with every access the
    /// holder made under it, which is what lets a recycler reuse them.
    pub(crate) fn leave(&self, slot: usize) {
        self.active[slot].store(u64::MAX, Ordering::Release);
    }

    /// Minimum begin timestamp over all in-flight transactions, or
    /// `u64::MAX` when the engine is idle.
    ///
    /// SeqCst loads: the sweep-side safety argument
    /// (see [`sweep_watermark`]) places this scan in the single total
    /// order against workers' bound-publish stores and counter draws.
    pub(crate) fn watermark(&self) -> u64 {
        let n = self.next.load(Ordering::SeqCst).min(ACTIVE_SLOTS);
        self.active[..n]
            .iter()
            .map(|s| s.load(Ordering::SeqCst))
            .min()
            .unwrap_or(u64::MAX)
    }
}

impl Drop for Registry {
    fn drop(&mut self) {
        for r in self.orphans.get_mut().drain(..) {
            // SAFETY: the registry drops with the engine and the last
            // worker, so no reader is left.
            unsafe { r.free() };
        }
    }
}

/// The watermark a **sweep** may prune under: the registry minimum,
/// clamped to a global-counter snapshot taken *before* the registry scan.
///
/// The raw registry minimum is only safe for commit-riding pruning, where
/// the caller's own registered begin timestamp bounds it from above.
/// [`Hekaton::sweep_now`]'s caller holds no registry slot, so it has no
/// such bound: on an idle registry it would read
/// `u64::MAX`, and if it stalls there while a worker registers at `b` and
/// another commits a superseding version at `e > b`, pruning with MAX
/// would free the version the first worker must still observe at `b`.
/// Clamping to a prior counter snapshot `c` restores the invariant: any
/// transaction the registry scan missed draws `b ≥ c` (its SeqCst counter
/// draw is ordered after our SeqCst snapshot, by the same total-order
/// reasoning as the publish-before-draw rule in [`Registry::enter`]), so
/// every version the sweep unlinks has `end ≤ c ≤ b` — already invisible
/// to it. The same value is the recycling watermark of `crate::recycle`:
/// an entry stamped below it can no longer be reached.
pub(crate) fn sweep_watermark(counter: &AtomicU64, registry: &Registry) -> u64 {
    let snapshot = counter.load(Ordering::SeqCst);
    snapshot.min(registry.watermark())
}

/// Per-worker reusable state.
pub struct HkWorker {
    reads: Vec<ReadRec>,
    writes: Vec<WriteRec>,
    scratch: bohm_common::ExecScratch,
    /// This worker's slot in the active-transaction registry.
    slot: usize,
    registry: Arc<Registry>,
    /// Xorshift state drawing the post-commit chain-pruning sample.
    prune_rng: u64,
    /// Limbo and pools: what this worker pruned or finished with, on its
    /// way back to its next writes and attempts.
    recycler: Recycler,
}

impl Drop for HkWorker {
    fn drop(&mut self) {
        self.registry.leave(self.slot);
        // Readers may still stand on what is in limbo: the engine keeps it.
        self.recycler.hand_over(&mut self.registry.orphans.lock());
        self.registry.free.lock().push(self.slot);
    }
}

// SAFETY: the raw pointers in `reads`/`writes` are dereferenced only while
// the worker holds its registry slot in `execute`, which keeps what they
// name from being reused; pooled and limbo objects are exclusively the
// worker's (`crate::recycle`).
unsafe impl Send for HkWorker {}

/// Hekaton-style MVCC engine (optimistic, with a global timestamp counter
/// and commit dependencies). See the crate docs for the protocol.
pub struct Hekaton {
    store: HekatonStore,
    /// **The** global counter (paper §2.1/§4.2.2). Deliberately a single
    /// contended cache line — that contention is a measured phenomenon.
    pub(crate) counter: CachePadded<AtomicU64>,
    isolation: IsolationLevel,
    /// Active-transaction registry driving the chain pruner's watermark
    /// and the workers' recycling.
    pub(crate) registry: Arc<Registry>,
    /// Versions retired by the pruner (diagnostics). Padded: committers
    /// bump it, and it must not share a line with the read-mostly fields
    /// every access loads.
    pruned: CachePadded<AtomicU64>,
}

impl Hekaton {
    pub fn new(store: HekatonStore, isolation: IsolationLevel) -> Self {
        Self {
            store,
            counter: CachePadded::new(AtomicU64::new(1)), // ts 0 = preload
            isolation,
            registry: Arc::new(Registry::new()),
            pruned: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// Run one full synchronous sweep over every slot of every table with
    /// the current watermark: the only pass that reaches a key no later
    /// transaction touches (see the crate docs). Used by tests and
    /// maintenance windows; it may run beside workers. It holds no registry
    /// slot: its walks run under each record's prune lock, which no other
    /// pruner can unlink under, and it dereferences no transaction. What it
    /// unlinks — and what dropped workers left — is freed here once the
    /// watermark passes its stamp, else kept for a later sweep or worker.
    /// Returns the number of versions retired.
    pub fn sweep_now(&self) -> usize {
        let watermark = sweep_watermark(&self.counter, &self.registry);
        let mut retired = std::mem::take(&mut *self.registry.orphans.lock());
        let mut freed = 0;
        for table in 0..self.store.table_count() {
            for row in 0..self.store.rows(table as u32) {
                let rid = RecordId::new(table as u32, row as u64);
                freed += self.store.prune(rid, watermark, &mut retired);
            }
        }
        if freed > 0 {
            // RELAXED: monotonic statistics counter.
            self.pruned.fetch_add(freed as u64, Ordering::Relaxed);
        }
        // The stamp: a draw after every unlink above (`crate::recycle`).
        let stamp = self.counter.fetch_add(1, Ordering::SeqCst);
        if sweep_watermark(&self.counter, &self.registry) > stamp {
            for r in retired {
                // SAFETY: the watermark passed the stamp: unreachable.
                unsafe { r.free() };
            }
        } else {
            self.registry.orphans.lock().append(&mut retired);
        }
        freed
    }

    /// The paper's "Hekaton" configuration.
    pub fn serializable(store: HekatonStore) -> Self {
        Self::new(store, IsolationLevel::Serializable)
    }

    /// The paper's "SI" configuration.
    pub fn snapshot_isolation(store: HekatonStore) -> Self {
        Self::new(store, IsolationLevel::SnapshotIsolation)
    }

    /// Versions reclaimed by the chain pruner so far.
    pub fn pruned_versions(&self) -> u64 {
        // RELAXED: statistics read; callers tolerate approximate values.
        self.pruned.load(Ordering::Relaxed)
    }

    pub fn store(&self) -> &HekatonStore {
        &self.store
    }

    /// Current counter value (diagnostics: shows ≥ 2 bumps per txn).
    pub fn counter_value(&self) -> u64 {
        // RELAXED: diagnostic snapshot of the timestamp counter.
        self.counter.load(Ordering::Relaxed)
    }

    /// Resolve the version of `rid` visible at `ts` for transaction `me`.
    ///
    /// `Err(())` means the resolution consumed state of an aborted
    /// transaction and the caller
    /// must concurrency-abort. `Ok(None)` means no visible version.
    pub(crate) fn resolve(
        &self,
        rid: RecordId,
        ts: u64,
        me: Option<&HkTxn>,
    ) -> Result<Option<*const HkVersion>, ()> {
        // A walk can transiently find nothing: if the head was loaded just
        // before a concurrent writer pushed its new version, the old head's
        // end word already carries the writer's marker (speculatively
        // invisible once it prepares) while the new version is not on our
        // snapshot of the chain yet. Re-walk from a fresh head; the window
        // closes as soon as the writer's push lands (it immediately follows
        // the end-word CAS), so a handful of retries always suffices. A
        // genuinely absent record — a null head, or a chain holding only
        // versions that can never become visible at `ts` — is judged `None`.
        let backoff = crossbeam_utils::Backoff::new();
        for _ in 0..64 {
            let mut cur = self.store.head(rid).load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: every caller holds a registry slot, so nothing
                // it reaches is reused under it (`crate::recycle`).
                let v = unsafe { &*cur };
                if self.begin_visible(v, ts, me)? && self.end_visible(v, ts, me)? {
                    return Ok(Some(cur));
                }
                cur = v.prev.load(Ordering::Acquire);
            }
            if self.stably_absent(rid, ts) {
                return Ok(None); // record does not exist at ts
            }
            backoff.snooze();
        }
        // Still racing after many walks: treat as a concurrency conflict.
        Err(())
    }

    /// Is `rid` *stably* absent at `ts` — i.e. can no version in its chain
    /// ever become visible at `ts`? True for a null head (record never
    /// inserted) and for chains holding only aborted-insert garbage,
    /// versions committed after `ts`, and versions whose end is a final
    /// real timestamp ≤ `ts` (end words move ∞ → txn marker → timestamp;
    /// a real timestamp is terminal — this is how a sealed head tombstone
    /// mid-reclamation reads as absence instead of spinning the walker).
    /// Anything else — e.g. an end word still carrying a preparing
    /// writer's marker — may be the transient race described in
    /// [`resolve`](Self::resolve), so the caller re-walks.
    fn stably_absent(&self, rid: RecordId, ts: u64) -> bool {
        let mut cur = self.store.head(rid).load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: callers hold a registry slot (see `resolve`).
            let v = unsafe { &*cur };
            match unpack(v.begin.load(Ordering::Acquire)) {
                WordView::Ts(crate::version::ABORTED_SENTINEL) => {}
                WordView::Ts(b) if b > ts => {}
                WordView::Ts(_) => match unpack(v.end.load(Ordering::Acquire)) {
                    WordView::Ts(e) if e != END_INF && e <= ts => {}
                    _ => return false,
                },
                _ => return false,
            }
            cur = v.prev.load(Ordering::Acquire);
        }
        true
    }

    /// Load a transaction's state, waiting out the instants-long `ENDING`
    /// window in which its end timestamp is drawn but not yet published.
    #[inline]
    fn settled_state(&self, t: &HkTxn) -> u32 {
        let mut s = t.state();
        if s == state::ENDING {
            let backoff = crossbeam_utils::Backoff::new();
            while s == state::ENDING {
                backoff.snooze();
                s = t.state();
            }
        }
        s
    }

    fn begin_visible(&self, v: &HkVersion, ts: u64, me: Option<&HkTxn>) -> Result<bool, ()> {
        match unpack(v.begin.load(Ordering::Acquire)) {
            WordView::Ts(crate::version::ABORTED_SENTINEL) => Ok(false),
            WordView::Ts(b) => Ok(b <= ts),
            WordView::Txn(p) => {
                if let Some(m) = me {
                    if std::ptr::eq(p, m) {
                        return Ok(true); // own write
                    }
                }
                // SAFETY: a transaction object is reused only after every
                // holder of a registry slot that could have loaded a marker
                // naming it has left; callers hold one.
                let producer = unsafe { &*p };
                match self.settled_state(producer) {
                    state::ACTIVE => Ok(false),
                    state::PREPARING => {
                        if producer.end_ts() <= ts {
                            self.speculative_dep(producer, me)?;
                            Ok(true)
                        } else {
                            Ok(false)
                        }
                    }
                    state::COMMITTED => Ok(producer.end_ts() <= ts),
                    state::ABORTED => Ok(false),
                    _ => unreachable!(),
                }
            }
        }
    }

    fn end_visible(&self, v: &HkVersion, ts: u64, me: Option<&HkTxn>) -> Result<bool, ()> {
        match unpack(v.end.load(Ordering::Acquire)) {
            WordView::Ts(END_INF) => Ok(true),
            WordView::Ts(e) => Ok(e > ts),
            WordView::Txn(p) => {
                if let Some(m) = me {
                    if std::ptr::eq(p, m) {
                        return Ok(false); // superseded by our own write
                    }
                }
                // SAFETY: as in begin_visible.
                let ender = unsafe { &*p };
                match self.settled_state(ender) {
                    state::ACTIVE => Ok(true),
                    state::PREPARING => {
                        if ender.end_ts() <= ts {
                            // Speculatively invisible: our fate depends on
                            // the ender committing.
                            self.speculative_dep(ender, me)?;
                            Ok(false)
                        } else {
                            Ok(true)
                        }
                    }
                    state::COMMITTED => Ok(ender.end_ts() > ts),
                    state::ABORTED => Ok(true),
                    _ => unreachable!(),
                }
            }
        }
    }

    /// Register a commit dependency of `me` on `producer`.
    fn speculative_dep(&self, producer: &HkTxn, me: Option<&HkTxn>) -> Result<(), ()> {
        let Some(m) = me else {
            // Diagnostic reads never race with Preparing txns (quiescence).
            return Ok(());
        };
        match producer.register_dependent(m) {
            Ok(_) => Ok(()),
            Err(()) => Err(()), // producer aborted under us
        }
    }

    /// Write (`data` is `Some`) or delete (`None`) `rid` under
    /// first-writer-wins: supersede the version this transaction observed
    /// and publish a new uncommitted version — or, for a delete, an
    /// uncommitted **tombstone** — over it.
    ///
    /// The superseded version is this transaction's own earlier write of
    /// the record, else the version it read, else (a blind write) the
    /// version visible at its begin timestamp. An RMW must supersede exactly
    /// the version it read: re-resolving here could land on a *newer*
    /// speculatively-visible version and silently lose our read→write
    /// dependency (a lost update). The end-word CAS then fails if anything
    /// superseded that version in the meantime, which is precisely the
    /// write-write/anti-dependency conflict that must abort.
    ///
    /// A write of an absent record is an insert. Deleting an absent record
    /// — null resolution or a visible tombstone — installs nothing but
    /// records the observed absence like an absent read, so serializable
    /// validation still catches a concurrent insert of the key.
    fn install(
        &self,
        rid: RecordId,
        data: Option<&[u8]>,
        me: &HkTxn,
        reads: &mut Vec<ReadRec>,
        w: &mut Vec<WriteRec>,
        recycler: &mut Recycler,
    ) -> Result<(), ()> {
        let old = if let Some(prev) = w.iter().rev().find(|r| r.rid == rid) {
            prev.new
        } else if let Some(r) = reads.iter().rev().find(|r| r.rid == rid) {
            r.version // null ⇒ we read "absent"
        } else {
            self.resolve(rid, me.begin_ts, Some(me))?
                .unwrap_or(std::ptr::null())
        };
        // SAFETY: non-null resolve results and our own versions stay live
        // while the caller holds its registry slot.
        let old_ref = unsafe { old.as_ref() };
        if let (Some(data), None) = (data, old_ref) {
            return self.install_insert(rid, data, me, w, recycler);
        }
        let Some(old_ref) = old_ref.filter(|v| data.is_some() || !v.is_tombstone()) else {
            reads.push(ReadRec { rid, version: old }); // delete of an absent record
            return Ok(());
        };
        if old_ref
            .end
            .compare_exchange(END_INF, txn_word(me), Ordering::AcqRel, Ordering::Acquire)
            .is_err()
        {
            return Err(()); // write-write conflict: first writer wins
        }
        let nv = recycler
            .version(txn_word(me), data.unwrap_or_default())
            .as_ptr();
        self.store.push(rid, nv);
        w.push(WriteRec { rid, old, new: nv });
        Ok(())
    }

    /// Insert a brand-new record: publish an uncommitted first version of
    /// `rid`. First-writer-wins is enforced on the chain head itself — the
    /// insert only goes through while the chain holds nothing but aborted
    /// garbage, via CAS against the head observed during that check. Any
    /// concurrent insert/commit of the key moves the head and fails the
    /// CAS; any live (uncommitted or committed-later) version found during
    /// the walk is a conflict, and the retry re-resolves with a fresh
    /// begin timestamp (finding the record and taking the update path).
    fn install_insert(
        &self,
        rid: RecordId,
        data: &[u8],
        me: &HkTxn,
        w: &mut Vec<WriteRec>,
        recycler: &mut Recycler,
    ) -> Result<(), ()> {
        let head = self.store.head(rid).load(Ordering::Acquire);
        // The whole chain must be aborted-insert garbage (or empty): a live
        // version anywhere means the key is not insertable at this point.
        let mut cur = head;
        while !cur.is_null() {
            // SAFETY: caller holds a registry slot (see `resolve`).
            let v = unsafe { &*cur };
            if !v.is_aborted_garbage() {
                return Err(());
            }
            cur = v.prev.load(Ordering::Acquire);
        }
        let nv = recycler.version(txn_word(me), data);
        if self.store.try_push(rid, head, nv.as_ptr()) {
            w.push(WriteRec {
                rid,
                old: std::ptr::null(),
                new: nv.as_ptr(),
            });
            Ok(())
        } else {
            // Lost the insert race; nv was never published.
            recycler.unused(nv);
            Err(())
        }
    }

    /// Sampled post-commit chain pruning of this transaction's write set.
    /// The 1-in-4 sample is drawn from a per-worker xorshift stream, not a
    /// commit counter: a deterministic period can resonate with a periodic
    /// workload's record-to-commit pattern and starve some records of
    /// probes entirely (the same hazard BOHM's CC probe counter documents).
    ///
    /// The same registry scan first returns this worker's limbo entries to
    /// its pools. It is a sweep watermark in the sense of
    /// [`sweep_watermark`]: the worker's own begin timestamp, drawn before
    /// the scan, is in the registry and caps the minimum.
    fn maybe_prune(&self, w: &mut HkWorker) {
        w.prune_rng ^= w.prune_rng << 13;
        w.prune_rng ^= w.prune_rng >> 7;
        w.prune_rng ^= w.prune_rng << 17;
        if w.prune_rng & 0x3 != 0 {
            return;
        }
        let watermark = self.registry.watermark();
        w.recycler.drain(watermark);
        let retired = &mut w.recycler.pending;
        let mut freed = 0usize;
        for wr in &w.writes {
            freed += self.store.prune(wr.rid, watermark, retired);
        }
        // Reads too: a key that is never written again (e.g. deleted and
        // retired from the hot set) would otherwise keep its dead suffix
        // forever; this way any later probe of it reclaims the chain.
        for r in &w.reads {
            freed += self.store.prune(r.rid, watermark, retired);
        }
        if freed > 0 {
            // RELAXED: monotonic statistics counter.
            self.pruned.fetch_add(freed as u64, Ordering::Relaxed);
        }
    }

    /// Validation + dependency wait + post-processing. Returns commit/abort.
    fn finish(&self, me: &HkTxn, w: &mut HkWorker, user_abort: bool) -> bool {
        if user_abort {
            self.abort_txn(me, w);
            return false;
        }
        me.set_ending();
        // SeqCst: the RMW is a two-way fence ordering the ENDING store
        // before the draw (see `state::ENDING`).
        let end_ts = self.counter.fetch_add(1, Ordering::SeqCst);
        me.prepare(end_ts);
        let mut ok = true;
        if self.isolation == IsolationLevel::Serializable {
            // Re-resolve every read as of the end timestamp; the version
            // observed must still be the visible one (anti-dependency
            // check). Records we ourselves updated are governed by the
            // write-lock CAS instead.
            for r in &w.reads {
                if w.writes.iter().any(|wr| wr.rid == r.rid) {
                    continue;
                }
                match self.resolve(r.rid, end_ts, Some(me)) {
                    Ok(Some(vnow)) if std::ptr::eq(vnow, r.version) => {}
                    // An absent observation re-validates as still-absent
                    // (a concurrent insert of the key would resolve to a
                    // version and fail us here — the "phantom" case).
                    Ok(None) if r.version.is_null() => {}
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        if ok {
            ok = me.wait_for_dependencies();
        }
        if ok {
            me.resolve(true);
            // Post-processing: swap txn markers for real timestamps.
            // Inserts have no superseded version (`old` is null).
            for wr in &w.writes {
                // SAFETY: store-lifetime versions; we own these markers.
                unsafe {
                    (*wr.new).begin.store(end_ts, Ordering::Release);
                    if !wr.old.is_null() {
                        (*wr.old).end.store(end_ts, Ordering::Release);
                    }
                }
            }
            true
        } else {
            self.abort_txn(me, w);
            false
        }
    }

    fn abort_txn(&self, me: &HkTxn, w: &mut HkWorker) {
        me.resolve(false);
        for wr in &w.writes {
            // SAFETY: store-lifetime versions. An aborted insert leaves its
            // version as garbage for a prune, with no predecessor to restore.
            unsafe {
                (*wr.new).mark_aborted();
                if !wr.old.is_null() {
                    (*wr.old).end.store(END_INF, Ordering::Release);
                }
            }
        }
    }
}

struct HkAccess<'a> {
    eng: &'a Hekaton,
    txn: &'a Txn,
    me: &'a HkTxn,
    reads: &'a mut Vec<ReadRec>,
    writes: &'a mut Vec<WriteRec>,
    recycler: &'a mut Recycler,
}

impl<'a> HkAccess<'a> {
    /// Resolve `rid` at the begin timestamp and record the observation —
    /// the version by pointer, or null for absence — so serializable
    /// validation re-checks it at the end timestamp. Returns the payload if
    /// the record exists; a visible tombstone is committed absence, still
    /// validated by pointer identity like any read.
    fn observe(&mut self, rid: RecordId) -> Result<Option<&'a [u8]>, AbortReason> {
        let v = self
            .eng
            .resolve(rid, self.me.begin_ts, Some(self.me))
            .map_err(|()| AbortReason::Conflict)?;
        let version = v.unwrap_or(std::ptr::null());
        self.reads.push(ReadRec { rid, version });
        // SAFETY: not reused while the attempt holds its registry slot,
        // which outlives this access; payloads are immutable once published.
        let v = unsafe { version.as_ref() };
        Ok(v.filter(|v| !v.is_tombstone()).map(HkVersion::data))
    }
}

impl Access for HkAccess<'_> {
    fn read_maybe(&mut self, idx: usize, out: impl FnMut(&[u8])) -> Result<bool, AbortReason> {
        Ok(self.observe(self.txn.reads[idx])?.map(out).is_some())
    }

    fn write(&mut self, idx: usize, data: &[u8]) -> Result<(), AbortReason> {
        let rid = self.txn.writes[idx];
        self.eng
            .install(
                rid,
                Some(data),
                self.me,
                self.reads,
                self.writes,
                self.recycler,
            )
            .map_err(|()| AbortReason::Conflict)
    }

    fn delete(&mut self, idx: usize) -> Result<(), AbortReason> {
        let rid = self.txn.writes[idx];
        self.eng
            .install(rid, None, self.me, self.reads, self.writes, self.recycler)
            .map_err(|()| AbortReason::Conflict)
    }

    /// Every covered row is resolved at the begin timestamp and recorded —
    /// present versions by pointer, absences as null `ReadRec`s — which
    /// generalizes the absent-read commit validation to a range re-scan:
    /// under serializable isolation, `finish` re-resolves each recorded
    /// read at the end timestamp, so an insert into or delete from a
    /// scanned range committed between begin and end fails validation
    /// (the phantom case). An index scan's posting list is recorded the
    /// same way, by version pointer, so a maintenance commit
    /// (NewOrder/Delivery rewriting the list) between begin and end swaps
    /// the visible list version and fails validation — the index-key
    /// phantom case. Under SI a scan is a consistent snapshot (no
    /// validation, by SI semantics): the list version at begin_ts names
    /// exactly the members that exist at begin_ts, because list and rows
    /// are maintained in one transaction.
    ///
    /// # Safety
    ///
    /// None beyond the trait's contract: versions are read while the
    /// attempt holds its registry slot. A row beyond the table's capacity
    /// panics.
    unsafe fn read_covered(
        &mut self,
        rid: RecordId,
        out: impl FnMut(&[u8]),
    ) -> Result<bool, AbortReason> {
        let rows = self.eng.store.rows(rid.table.0);
        assert!(
            (rid.row as usize) < rows,
            "{rid:?} beyond table capacity {rows}"
        );
        Ok(self.observe(rid)?.map(out).is_some())
    }

    fn write_len(&mut self, idx: usize) -> usize {
        self.eng.store.record_size(self.txn.writes[idx])
    }
}

/// Exponential back-off between retries of cc-aborted transactions.
#[inline]
fn backoff(attempt: u64) {
    let spins = 1u64 << attempt.min(10);
    for _ in 0..spins {
        std::hint::spin_loop();
    }
    if attempt > 10 {
        std::thread::yield_now();
    }
}

impl Engine for Hekaton {
    type Worker = HkWorker;

    fn name(&self) -> &'static str {
        match self.isolation {
            IsolationLevel::Serializable => "Hekaton",
            IsolationLevel::SnapshotIsolation => "SI",
        }
    }

    fn make_worker(&self) -> HkWorker {
        let mut recycler = Recycler::new(Arc::clone(&self.registry.spare));
        // Adopt what dropped workers left: it is stamped again at this
        // worker's first draw, which only delays it.
        recycler.pending.append(&mut self.registry.orphans.lock());
        HkWorker {
            reads: Vec::with_capacity(32),
            writes: Vec::with_capacity(16),
            scratch: bohm_common::ExecScratch::new(),
            slot: self.registry.acquire(),
            registry: Arc::clone(&self.registry),
            // RELAXED: any racy snapshot works — it only seeds the
            // worker's prune-sampling RNG.
            prune_rng: 0x9E37_79B9_7F4A_7C15 ^ (self.registry.next.load(Ordering::Relaxed) as u64),
            recycler,
        }
    }

    fn execute(&self, txn: &Txn, w: &mut HkWorker) -> ExecOutcome {
        let mut attempts = 0u64;
        loop {
            let me_ptr = self.begin(w);
            // SAFETY: exclusively this attempt's until `end` retires it.
            let me = unsafe { me_ptr.as_ref() };

            txn.think();
            let result = bohm_common::execute_procedure(
                txn,
                &mut HkAccess {
                    eng: self,
                    txn,
                    me,
                    reads: &mut w.reads,
                    writes: &mut w.writes,
                    recycler: &mut w.recycler,
                },
                &mut w.scratch,
            );

            let decision = match result {
                Ok(fp) => {
                    if self.finish(me, w, false) {
                        // Reclaim dead versions behind this commit's writes
                        // (sampled; the registry still holds our begin_ts,
                        // bounding the watermark from above).
                        self.maybe_prune(w);
                        Some(ExecOutcome {
                            committed: true,
                            fingerprint: fp,
                            cc_retries: attempts,
                        })
                    } else {
                        None // cc abort → retry
                    }
                }
                Err(AbortReason::User) => {
                    self.finish(me, w, true);
                    Some(ExecOutcome {
                        committed: false,
                        fingerprint: 0,
                        cc_retries: attempts,
                    })
                }
                Err(AbortReason::Conflict) => {
                    self.abort_txn(me, w);
                    None
                }
                Err(e) => unreachable!("{e:?}"),
            };

            self.end(w, me_ptr);

            match decision {
                Some(out) => return out,
                None => {
                    attempts += 1;
                    backoff(attempts);
                }
            }
        }
    }

    fn read_record(&self, rid: RecordId) -> Option<bohm_common::Value> {
        if (rid.row as usize) >= self.store.rows(rid.table.0) {
            return None;
        }
        let _slot = self.reader_slot();
        match self.resolve(rid, END_INF, None) {
            Ok(Some(v)) => {
                // SAFETY: not reused while we hold the registry slot.
                let vr = unsafe { &*v };
                if vr.is_tombstone() {
                    return None; // committed absence
                }
                Some(vr.data().into())
            }
            _ => None,
        }
    }

    fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        // Quiescent by the trait contract, so resolving each row at the
        // infinite horizon yields exactly the committed state (the same
        // walk `read_record` does, over the whole dense keyspace).
        let _slot = self.reader_slot();
        for table in 0..self.store.table_count() as u32 {
            for row in 0..self.store.rows(table) as u64 {
                let rid = RecordId::new(table, row);
                if let Ok(Some(v)) = self.resolve(rid, END_INF, None) {
                    // SAFETY: not reused while we hold the registry slot.
                    let vr = unsafe { &*v };
                    if !vr.is_tombstone() {
                        f(rid, vr.data());
                    }
                }
            }
        }
    }
}

/// A registry slot held by a reader outside any transaction
/// ([`Hekaton::reader_slot`]); dropping it leaves the registry.
struct ReaderSlot<'a> {
    registry: &'a Registry,
    slot: usize,
}

impl Drop for ReaderSlot<'_> {
    fn drop(&mut self) {
        self.registry.leave(self.slot);
        self.registry.free.lock().push(self.slot);
    }
}

impl Hekaton {
    /// Start an attempt on `w`: register, draw the begin timestamp, stamp
    /// what was retired before the draw, and take a transaction object.
    fn begin(&self, w: &mut HkWorker) -> NonNull<HkTxn> {
        w.reads.clear();
        w.writes.clear();
        let begin_ts = self.registry.enter(w.slot, &self.counter, || {
            self.counter.fetch_add(1, Ordering::SeqCst)
        });
        w.recycler.stamp(begin_ts);
        w.recycler.txn(begin_ts)
    }

    /// End the attempt `me` of `w`, committed or aborted: post-processing
    /// or the abort replaced every marker naming `me`, and readers that
    /// loaded one before still hold registry slots, so it is retired, not
    /// reused; then leave the registry.
    fn end(&self, w: &mut HkWorker, me: NonNull<HkTxn>) {
        w.recycler.pending.push(Retired::Txn(me));
        self.registry.leave(w.slot);
    }

    /// Hold a registry slot for a diagnostic read, so nothing the walk
    /// reaches is reused under it. Its "draw" is a load: it only has to
    /// follow the published bound (`crate::recycle`).
    fn reader_slot(&self) -> ReaderSlot<'_> {
        let slot = self.registry.acquire();
        self.registry
            .enter(slot, &self.counter, || self.counter.load(Ordering::SeqCst));
        ReaderSlot {
            registry: &self.registry,
            slot,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::Procedure;
    use std::sync::Arc;

    fn store(rows: u64) -> HekatonStore {
        let s = HekatonStore::new(&[(rows, 8)]);
        s.seed_u64(0, |r| r);
        s
    }

    fn rmw(k: u64, delta: u64) -> Txn {
        let rid = RecordId::new(0, k);
        Txn::new(vec![rid], vec![rid], Procedure::ReadModifyWrite { delta })
    }

    /// The schedule `concurrent_hot_key_increments_are_exact` relies on,
    /// made by hand: A begins and reads the hot key, B commits an RMW of
    /// it, and only then does A write — first-writer-wins must refuse A,
    /// and A's retry must count B's increment.
    #[test]
    fn a_commit_between_read_and_write_forces_an_exact_retry() {
        for iso in [
            IsolationLevel::Serializable,
            IsolationLevel::SnapshotIsolation,
        ] {
            let e = Hekaton::new(store(2), iso);
            let hot = RecordId::new(0, 1);
            let t = rmw(1, 1);
            let (mut a, mut b) = (e.make_worker(), e.make_worker());
            let me_ptr = e.begin(&mut a);
            // SAFETY: A's attempt owns it until `end` below.
            let me = unsafe { me_ptr.as_ref() };
            let mut access = HkAccess {
                eng: &e,
                txn: &t,
                me,
                reads: &mut a.reads,
                writes: &mut a.writes,
                recycler: &mut a.recycler,
            };
            let mut seen = 0;
            assert!(access
                .read_maybe(0, |v| seen = bohm_common::value::get_u64(v, 0))
                .unwrap());
            assert_eq!(seen, 1, "seed of row 1");
            assert!(e.execute(&t, &mut b).committed);
            let write = access.write(0, &bohm_common::value::of_u64(seen + 1, 8));
            assert_eq!(write, Err(AbortReason::Conflict), "{iso:?}: A overwrote B");
            e.abort_txn(me, &mut a);
            e.end(&mut a, me_ptr);
            assert_eq!(e.read_u64(hot), Some(2), "{iso:?}: B's increment alone");
            let retry = e.execute(&t, &mut a);
            assert!(retry.committed);
            assert_eq!(retry.cc_retries, 0);
            assert_eq!(
                e.read_u64(hot),
                Some(3),
                "{iso:?}: seed 1, plus B's 1, plus A's 1"
            );
        }
    }

    #[test]
    fn rmw_commits_and_bumps_counter_twice() {
        let e = Hekaton::serializable(store(8));
        let c0 = e.counter_value();
        let mut w = e.make_worker();
        let out = e.execute(&rmw(3, 10), &mut w);
        assert!(out.committed);
        assert_eq!(e.read_u64(RecordId::new(0, 3)), Some(13));
        assert!(
            e.counter_value() >= c0 + 2,
            "begin + commit must both hit the global counter"
        );
    }

    #[test]
    fn update_churn_keeps_chains_bounded_with_pruner() {
        let e = Hekaton::serializable(store(2));
        let mut w = e.make_worker();
        let iters = bohm_common::stress_iters(2_000);
        for _ in 0..iters {
            assert!(e.execute(&rmw(0, 1), &mut w).committed);
        }
        assert_eq!(e.read_u64(RecordId::new(0, 0)), Some(iters));
        let depth = e.store().chain_depth(RecordId::new(0, 0));
        assert!(
            depth < 64,
            "pruner must bound the chain; depth {depth} after {iters} updates"
        );
        assert!(e.pruned_versions() > 0, "pruner must actually reclaim");
    }

    #[test]
    fn insert_delete_churn_keeps_chains_bounded() {
        use bohm_common::Procedure::{BlindWrite, GuardedDelete};
        // The acceptance-criterion test: sustained insert→delete→re-insert
        // cycles over a tiny keyset must not grow version chains without
        // bound — committed-dead versions (including consumed tombstones)
        // are reclaimed as the watermark passes them.
        let s = HekatonStore::new(&[(1, 8), (4, 8)]);
        s.seed_u64(0, |_| 1); // guard row for GuardedDelete
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let guard = RecordId::new(0, 0);
        let iters = bohm_common::stress_iters(2_000);
        for i in 0..iters {
            let k = RecordId::new(1, i % 4);
            let ins = Txn::new(vec![], vec![k], BlindWrite { value: i });
            assert!(e.execute(&ins, &mut w).committed);
            let del = Txn::new(vec![guard], vec![k], GuardedDelete { min: 0 });
            assert!(e.execute(&del, &mut w).committed);
        }
        for row in 0..4 {
            let rid = RecordId::new(1, row);
            assert_eq!(e.read_u64(rid), None, "deleted key reads absent");
            let depth = e.store().chain_depth(rid);
            assert!(
                depth < 64,
                "chain of row {row} unbounded: depth {depth} after {iters} cycles"
            );
        }
        assert!(
            e.pruned_versions() > iters / 4,
            "churn must reclaim aggressively, pruned only {}",
            e.pruned_versions()
        );
    }

    #[test]
    fn reads_reclaim_chains_of_keys_no_longer_written() {
        // A key that stops being written must still be reclaimable: pruning
        // rides on *reads* too, so probe-only traffic shrinks the chain.
        let e = Hekaton::serializable(store(2));
        let mut w = e.make_worker();
        for _ in 0..30 {
            assert!(e.execute(&rmw(0, 1), &mut w).committed);
        }
        let hot = RecordId::new(0, 0);
        let probe = Txn::new(vec![hot], vec![], Procedure::ProbeAll);
        for _ in 0..64 {
            assert!(e.execute(&probe, &mut w).committed);
        }
        let depth = e.store().chain_depth(hot);
        assert!(
            depth <= 2,
            "read-driven pruning must shrink the chain: {depth}"
        );
        assert_eq!(e.read_u64(hot), Some(30));
    }

    #[test]
    fn scan_observes_membership_and_revalidates_the_range() {
        use bohm_common::{range_audit_fingerprint, ScanRange, SCAN_POISON_GAP};
        let s = HekatonStore::new(&[(5, 8)]);
        s.seed_rows_u64(0, 2, |r| 10 + r); // rows 0,1 live; 2..5 absent
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let audit = || {
            Txn::with_scans(
                vec![],
                vec![],
                vec![ScanRange::new(0, 0, 5)],
                Procedure::RangeAudit { expect_base: 10 },
            )
        };
        assert_eq!(
            e.execute(&audit(), &mut w).fingerprint,
            range_audit_fingerprint(2, 0)
        );
        let ins = Txn::new(
            vec![],
            vec![RecordId::new(0, 2)],
            Procedure::InsertKeyed { base: 10 },
        );
        assert!(e.execute(&ins, &mut w).committed);
        assert_eq!(
            e.execute(&audit(), &mut w).fingerprint,
            range_audit_fingerprint(3, 0)
        );
        let del = Txn::new(
            vec![RecordId::new(0, 0)],
            vec![RecordId::new(0, 1)],
            Procedure::GuardedDelete { min: 0 },
        );
        assert!(e.execute(&del, &mut w).committed);
        assert_eq!(e.execute(&audit(), &mut w).fingerprint, SCAN_POISON_GAP);
    }

    #[test]
    fn full_table_delete_churn_returns_memory_to_baseline() {
        use bohm_common::Procedure::{BlindWrite, GuardedDelete};
        // The former head-tombstone leak: a fully-deleted, never-reinserted
        // key kept one committed tombstone at its chain head forever. With
        // head reclamation, a sweep returns every churned chain to the
        // empty (null-head) baseline.
        let s = HekatonStore::new(&[(1, 8), (8, 8)]);
        s.seed_u64(0, |_| 1); // guard row
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let guard = RecordId::new(0, 0);
        for row in 0..8 {
            let k = RecordId::new(1, row);
            let ins = Txn::new(vec![], vec![k], BlindWrite { value: row });
            assert!(e.execute(&ins, &mut w).committed);
            let del = Txn::new(vec![guard], vec![k], GuardedDelete { min: 0 });
            assert!(e.execute(&del, &mut w).committed);
        }
        // Worker idle ⇒ watermark is ∞ ⇒ everything dead is reclaimable.
        e.sweep_now();
        for row in 0..8 {
            let rid = RecordId::new(1, row);
            assert_eq!(e.read_u64(rid), None);
            assert_eq!(
                e.store().chain_depth(rid),
                0,
                "row {row}: tombstone head must be reclaimed, not leaked"
            );
        }
        // Reclaimed keys are fully reusable (insert goes through the
        // head-CAS path against the null head).
        let k = RecordId::new(1, 3);
        let ins = Txn::new(vec![], vec![k], BlindWrite { value: 42 });
        assert!(e.execute(&ins, &mut w).committed);
        assert_eq!(e.read_u64(k), Some(42));
        assert_eq!(e.store().chain_depth(k), 1);
    }

    #[test]
    fn idle_key_keeps_its_suffix_until_sweep_now() {
        // Commit-riding pruning only reaches keys a later transaction
        // touches, and no thread reclaims on its own: an idle key keeps
        // what its last sampled prune left until `sweep_now`.
        let e = Hekaton::serializable(store(2));
        let mut w = e.make_worker();
        for _ in 0..10 {
            assert!(e.execute(&rmw(0, 1), &mut w).committed);
        }
        let hot = RecordId::new(0, 0);
        // The last commit's own prune runs under its begin timestamp, below
        // the end timestamp of the version it superseded, which survives.
        let depth = e.store().chain_depth(hot);
        assert!(depth > 1, "depth {depth}");
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(e.store().chain_depth(hot), depth);
        // Worker idle ⇒ the sweep's watermark is the counter snapshot, which
        // lies above every end timestamp the key's dead versions carry.
        assert_eq!(e.sweep_now(), depth - 1);
        assert_eq!(e.store().chain_depth(hot), 1);
        assert_eq!(e.read_u64(hot), Some(10), "live head survives the sweep");
        assert!(e.pruned_versions() > 0);
    }

    #[test]
    fn delete_makes_record_absent_and_reinsertable() {
        let s = HekatonStore::new(&[(2, 8)]);
        s.seed_u64(0, |r| r + 5);
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let guard = RecordId::new(0, 0);
        let victim = RecordId::new(0, 1);
        let del = Txn::new(
            vec![guard],
            vec![victim],
            Procedure::GuardedDelete { min: 0 },
        );
        let out = e.execute(&del, &mut w);
        assert!(out.committed);
        assert_eq!(e.read_u64(victim), None, "tombstone reads as absence");
        // Re-insert over the tombstone (update path, not head-CAS).
        let ins = Txn::new(vec![], vec![victim], Procedure::BlindWrite { value: 42 });
        assert!(e.execute(&ins, &mut w).committed);
        assert_eq!(e.read_u64(victim), Some(42));
        // And it RMWs like any record afterwards.
        assert!(e.execute(&rmw(1, 1), &mut w).committed);
        assert_eq!(e.read_u64(victim), Some(43));
    }

    #[test]
    fn aborted_delete_restores_the_superseded_version() {
        // A user abort *after* the procedure level would be a contract
        // violation; the engine-level rollback is exercised through the
        // first-writer-wins conflict path instead: concurrent deleters and
        // re-inserters of one hot key must leave a consistent final state
        // (every conflict loser's tombstone is unwound via abort_txn).
        let s = HekatonStore::new(&[(2, 8)]);
        s.seed_u64(0, |_| 7);
        let e = Arc::new(Hekaton::serializable(s));
        let hot = RecordId::new(0, 1);
        let guard = RecordId::new(0, 0);
        let mut handles = Vec::new();
        for t in 0..6u64 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let mut w = e.make_worker();
                for i in 0..500u64 {
                    if (t + i) % 2 == 0 {
                        let del =
                            Txn::new(vec![guard], vec![hot], Procedure::GuardedDelete { min: 0 });
                        assert!(e.execute(&del, &mut w).committed);
                    } else {
                        let ins =
                            Txn::new(vec![], vec![hot], Procedure::BlindWrite { value: 100 + t });
                        assert!(e.execute(&ins, &mut w).committed);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        if let Some(v) = e.read_u64(hot) {
            assert!((100..106).contains(&v), "value from some insert: {v}");
        }
        // Guard row untouched throughout.
        assert_eq!(e.read_u64(guard), Some(7));
    }

    #[test]
    fn user_aborted_delete_leaves_row_readable() {
        let s = HekatonStore::new(&[(2, 8)]);
        s.seed_u64(0, |_| 0); // guard value 0 < min ⇒ user abort
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let victim = RecordId::new(0, 1);
        let del = Txn::new(
            vec![RecordId::new(0, 0)],
            vec![victim],
            Procedure::GuardedDelete { min: 1 },
        );
        let out = e.execute(&del, &mut w);
        assert!(!out.committed);
        assert_eq!(out.cc_retries, 0, "logic aborts are not retried");
        assert_eq!(e.read_u64(victim), Some(0), "row survives the abort");
    }

    #[test]
    fn blind_delete_of_absent_key_is_a_validated_noop() {
        let s = HekatonStore::new(&[(1, 8), (2, 8)]); // table 1 unseeded
        s.seed_u64(0, |_| 9);
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let absent = RecordId::new(1, 0);
        let del = Txn::new(
            vec![RecordId::new(0, 0)],
            vec![absent],
            Procedure::GuardedDelete { min: 0 },
        );
        let out = e.execute(&del, &mut w);
        assert!(out.committed, "deleting nothing commits");
        assert_eq!(e.read_u64(absent), None);
        assert_eq!(e.store().chain_depth(absent), 0, "no version installed");
    }

    #[test]
    fn concurrent_hot_key_increments_are_exact() {
        for iso in [
            IsolationLevel::Serializable,
            IsolationLevel::SnapshotIsolation,
        ] {
            let e = Arc::new(Hekaton::new(store(2), iso));
            let mut handles = Vec::new();
            for _ in 0..8 {
                let e = Arc::clone(&e);
                handles.push(std::thread::spawn(move || {
                    let mut w = e.make_worker();
                    let mut retries = 0;
                    // A think time between the begin draw and the read: a
                    // commit by any other thread meanwhile must cost this
                    // attempt a ww-conflict, however short the rest is.
                    let mut t = rmw(1, 1);
                    t.think_us = 10;
                    for _ in 0..2_000 {
                        let out = e.execute(&t, &mut w);
                        assert!(out.committed);
                        retries += out.cc_retries;
                    }
                    retries
                }));
            }
            let total: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
            assert_eq!(e.read_u64(RecordId::new(0, 1)), Some(1 + 16_000));
            // Observing a ww conflict needs two txns genuinely overlapping;
            // on a single-CPU host short release-mode txns may never be
            // preempted mid-flight, so only assert conflict liveness where
            // real parallelism exists (exactness above is always checked).
            if std::thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
                assert!(total > 0, "hot-key RMWs must suffer ww-conflict aborts");
            }
        }
    }

    #[test]
    fn user_abort_rolls_back_installed_versions() {
        use bohm_common::SmallBankProc;
        let s = HekatonStore::new(&[(2, 8)]);
        s.seed_u64(0, |_| 5);
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let sav = RecordId::new(0, 0);
        let t = Txn::new(
            vec![sav],
            vec![sav],
            Procedure::SmallBank(SmallBankProc::TransactSaving { v: -10 }),
        );
        let out = e.execute(&t, &mut w);
        assert!(!out.committed);
        assert_eq!(out.cc_retries, 0, "logic aborts are not retried");
        assert_eq!(e.read_u64(sav), Some(5));
        // The aborted version stays as garbage in the chain (no GC) but a
        // subsequent update must succeed over it.
        assert!(e.execute(&rmw(0, 1), &mut w).committed);
        assert_eq!(e.read_u64(sav), Some(6));
    }

    /// The write-skew anomaly (§2, Fig. 1): two transactions with
    /// overlapping read sets and disjoint write sets drawn from the shared
    /// reads. Serializable Hekaton must forbid the non-serializable
    /// outcome; SI must (eventually) exhibit it.
    fn zero_store(rows: u64) -> HekatonStore {
        let s = HekatonStore::new(&[(rows, 8)]);
        s.seed_u64(0, |_| 0);
        s
    }

    fn write_skew_trial(e: &Arc<Hekaton>) -> (u64, u64) {
        // x = r0, y = r1, both start 0 (zero-seeded store). Two concurrent
        // RMWs with overlapping read sets {x, y} and disjoint single-record
        // write sets — the §2 anomaly shape.
        let x = RecordId::new(0, 0);
        let y = RecordId::new(0, 1);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let mk = |writes: RecordId| {
            Txn::new(
                vec![x, y],
                vec![writes],
                // RMW with delta 1 on the written record; reads of both.
                Procedure::ReadModifyWrite { delta: 1 },
            )
        };
        let h1 = {
            let e = Arc::clone(e);
            let b = Arc::clone(&barrier);
            let t = mk(y);
            std::thread::spawn(move || {
                let mut w = e.make_worker();
                b.wait();
                e.execute(&t, &mut w)
            })
        };
        let h2 = {
            let e = Arc::clone(e);
            let b = Arc::clone(&barrier);
            let t = mk(x);
            std::thread::spawn(move || {
                let mut w = e.make_worker();
                b.wait();
                e.execute(&t, &mut w)
            })
        };
        h1.join().unwrap();
        h2.join().unwrap();
        (e.read_u64(x).unwrap(), e.read_u64(y).unwrap())
    }

    #[test]
    fn serializable_mode_forbids_write_skew() {
        // Under serializability the two RMWs must appear in *some* serial
        // order; since each reads both records, the later one reads the
        // earlier one's write. With our fingerprinting we can't observe the
        // reads directly, but both-written (1,1) from a state where each
        // read (0,0) is fine for this procedure (increments commute).
        // The discriminating check is done through raw read observation:
        // re-run many trials and assert the *reads* were never both-stale.
        // Simpler equivalent: use validation retry counters — under
        // serializable isolation, concurrent overlapping read sets with
        // disjoint writes must produce validation aborts once the two
        // streams actually overlap. On a single-CPU host a one-shot race
        // almost never overlaps (each txn runs within one scheduler
        // quantum), so each thread runs a sustained stream of conflicting
        // RMWs: timer preemption then lands mid-transaction and the other
        // stream's commit invalidates the interrupted read set.
        use bohm_sync::atomic::{AtomicBool, Ordering};
        let e = Arc::new(Hekaton::serializable(zero_store(2)));
        let x = RecordId::new(0, 0);
        let y = RecordId::new(0, 1);
        let stop = Arc::new(AtomicBool::new(false));
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        let mut streams = Vec::new();
        for wrid in [x, y] {
            let e = Arc::clone(&e);
            let stop = Arc::clone(&stop);
            let t = Txn::new(
                vec![x, y],
                vec![wrid],
                Procedure::ReadModifyWrite { delta: 1 },
            );
            streams.push(std::thread::spawn(move || {
                let mut w = e.make_worker();
                let mut retries = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    retries += e.execute(&t, &mut w).cc_retries;
                    if retries > 0 || std::time::Instant::now() >= deadline {
                        stop.store(true, Ordering::Relaxed);
                    }
                }
                retries
            }));
        }
        let saw_retry = streams.into_iter().map(|h| h.join().unwrap()).sum::<u64>() > 0;
        // On a single-CPU host the overlap depends entirely on timer
        // preemption landing mid-transaction; under full-suite load it can
        // miss for the whole deadline, so (like OCC's hot-key test) the
        // liveness assertion requires real parallelism.
        if std::thread::available_parallelism().is_ok_and(|n| n.get() > 1) {
            assert!(
                saw_retry,
                "serializable validation never fired on racing overlapped txns"
            );
        }
    }

    #[test]
    fn snapshot_isolation_skips_read_validation() {
        // Under SI the same race commits both transactions on first attempt
        // (no read validation, disjoint write sets → no ww conflict), so
        // the counter stays at the 4-bump minimum in every trial.
        for _ in 0..20 {
            let e = Arc::new(Hekaton::snapshot_isolation(zero_store(2)));
            let (x, y) = write_skew_trial(&e);
            assert_eq!((x, y), (1, 1), "SI admits the write-skew outcome");
            assert!(
                e.counter_value() <= 5,
                "SI must not validation-abort disjoint writers"
            );
        }
    }

    #[test]
    fn insert_into_empty_slot_becomes_visible() {
        let s = HekatonStore::new(&[(4, 8)]);
        s.seed_rows_u64(0, 2, |r| r); // rows 2..4 start absent
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let fresh = RecordId::new(0, 3);
        assert_eq!(e.read_u64(fresh), None, "unseeded slot starts absent");
        let t = Txn::new(vec![], vec![fresh], Procedure::BlindWrite { value: 9 });
        assert!(e.execute(&t, &mut w).committed);
        assert_eq!(e.read_u64(fresh), Some(9));
        // And it behaves like any record afterwards.
        assert!(e.execute(&rmw(3, 1), &mut w).committed);
        assert_eq!(e.read_u64(fresh), Some(10));
    }

    #[test]
    fn absent_read_fingerprint_then_insert_then_present() {
        use bohm_common::{TpcCProc, ABSENT_FINGERPRINT};
        let s = HekatonStore::new(&[(1, 8), (2, 8)]);
        s.seed_u64(0, |_| 5);
        // Table 1 left entirely unseeded (absent).
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        let order = RecordId::new(1, 0);
        let status = Txn::new(
            vec![RecordId::new(0, 0), order],
            vec![],
            Procedure::TpcC(TpcCProc::OrderStatus),
        );
        let absent_fp = 5u64.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT);
        let out = e.execute(&status, &mut w);
        assert!(out.committed);
        assert_eq!(out.fingerprint, absent_fp);
        let ins = Txn::new(vec![], vec![order], Procedure::BlindWrite { value: 1 });
        assert!(e.execute(&ins, &mut w).committed);
        assert_ne!(e.execute(&status, &mut w).fingerprint, absent_fp);
    }

    #[test]
    fn aborted_insert_garbage_reads_as_absent_and_stays_insertable() {
        // Plant aborted-insert garbage in an otherwise-empty chain (what a
        // cc-aborted insert attempt leaves behind, since these baselines
        // never collect garbage), then check the chain still reads as
        // stably absent — not a conflict livelock — and accepts an insert.
        let s = HekatonStore::new(&[(1, 8)]);
        let fresh = RecordId::new(0, 0);
        let zombie = crate::txn::HkTxn::new(1);
        let garbage = Box::into_raw(Box::new(HkVersion::uncommitted(
            &zombie,
            bohm_common::value::of_u64(99, 8),
        )));
        s.push(fresh, garbage);
        // SAFETY: single-threaded test; `garbage` is the live chain head.
        unsafe { &*garbage }.mark_aborted();
        let e = Hekaton::serializable(s);
        let mut w = e.make_worker();
        assert_eq!(e.read_u64(fresh), None, "garbage-only chain is absent");
        let ins = Txn::new(vec![], vec![fresh], Procedure::BlindWrite { value: 3 });
        let out = e.execute(&ins, &mut w);
        assert!(out.committed);
        assert_eq!(
            out.cc_retries, 0,
            "garbage must not masquerade as a conflict"
        );
        assert_eq!(e.read_u64(fresh), Some(3));
        // The insert stacks on the garbage; the sampled pruner may already
        // have unlinked the aborted version beneath the new head.
        let depth = e.store().chain_depth(fresh);
        assert!((1..=2).contains(&depth), "unexpected chain depth {depth}");
    }

    #[test]
    fn concurrent_same_key_inserts_first_writer_wins_then_update() {
        let s = HekatonStore::new(&[(1, 8)]); // wholly absent table
        let e = Arc::new(Hekaton::serializable(s));
        let fresh = RecordId::new(0, 0);
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let mut w = e.make_worker();
                let txn = Txn::new(
                    vec![],
                    vec![fresh],
                    Procedure::BlindWrite { value: 100 + t },
                );
                assert!(e.execute(&txn, &mut w).committed, "upserts must settle");
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let v = e.read_u64(fresh).unwrap();
        assert!((100..108).contains(&v), "final value from some writer: {v}");
    }

    #[test]
    fn disjoint_inserts_never_conflict() {
        let s = HekatonStore::new(&[(2, 8)]); // wholly absent table
        let e = Hekaton::snapshot_isolation(s);
        let mut w = e.make_worker();
        let i0 = Txn::new(
            vec![],
            vec![RecordId::new(0, 0)],
            Procedure::BlindWrite { value: 1 },
        );
        let i1 = Txn::new(
            vec![],
            vec![RecordId::new(0, 1)],
            Procedure::BlindWrite { value: 2 },
        );
        let o0 = e.execute(&i0, &mut w);
        let o1 = e.execute(&i1, &mut w);
        assert!(o0.committed && o1.committed);
        assert_eq!(o0.cc_retries + o1.cc_retries, 0, "disjoint inserts");
    }

    #[test]
    fn engine_names_reflect_isolation() {
        let e1 = Hekaton::serializable(store(1));
        let e2 = Hekaton::snapshot_isolation(store(1));
        assert_eq!(e1.name(), "Hekaton");
        assert_eq!(e2.name(), "SI");
    }
}
