//! BOHM's implementation of the [`Access`] trait.
//!
//! Reads resolve through the annotation slots the CC phase filled in
//! (paper §3.2.3's read-set optimization: a direct pointer to the correct
//! version, no chain traversal, no shared-memory writes). When annotations
//! are disabled (ablation) the read falls back to the paper's base
//! mechanism: find the record's chain at `table[row]` and walk its backward
//! references until the version with `begin < ts ≤ end` is found.
//!
//! Scans are not annotated: §3.2.3 annotates the declared *reads*, and a
//! range's rows (like an index scan's members) resolve through the same
//! timestamp-filtered walk as the fallback, which orders every insert and
//! delete into the range against the scan by timestamp.
//!
//! A read that lands on a still-`Pending` placeholder returns
//! [`AbortReason::NotReady`] carrying the producer's timestamp (the paper's
//! "txn pointer"); the executor resolves it (paper §3.3.1) and re-runs the
//! procedure. Writes fill the pre-installed placeholder via
//! [`Version::fill_once`], which makes such re-runs idempotent.
//!
//! ## Logic-abort contract
//!
//! Procedures must decide a user abort **before their first write** (every
//! SmallBank/YCSB/TPC-style procedure does: input validation precedes
//! updates). BOHM fills placeholders in place, so a write followed by a
//! user abort would require undo; the contract removes that case, and
//! [`crate::exec`]'s copy-through path debug-asserts it.

use crate::batch::TxnState;
use crate::exec::InPlace;
use crate::lookahead::LookAhead;
use crate::store::{look_ahead, Store};
use bohm_common::{AbortReason, Access, RecordId};
use bohm_mvstore::{Version, VersionState};
use bohm_sync::atomic::Ordering;
use crossbeam_epoch::Guard;

pub(crate) struct BohmAccess<'a> {
    pub t: &'a TxnState,
    pub store: &'a Store,
    pub guard: &'a Guard,
    /// Look-ahead over an un-annotated read set, started by its first read
    /// (see [`version_for_read`](Self::version_for_read)).
    pub ahead: Option<FallbackAhead<'a>>,
    /// Set for a detached reader: how it gets a pending version produced
    /// without giving up its own progress (see [`resolved`](Self::resolved)).
    pub in_place: Option<InPlace<'a>>,
}

/// The un-annotated fallback's look-ahead: the reads to come through three
/// stages — chain line, head, payload — four reads apart.
type FallbackAhead<'a> = LookAhead<std::slice::Iter<'a, RecordId>, 3, 4>;

impl<'a> BohmAccess<'a> {
    /// Resolve read-set entry `idx` to its version, or `None` if the record
    /// does not exist at this transaction's timestamp.
    ///
    /// The annotation slot is null when CC found the record's chain empty
    /// (or annotations are off / the read set was too large). The fallback
    /// walk filters by `ts`, so a record inserted by a *later* transaction
    /// — whose placeholder may well be on the chain by now, installed
    /// between CC time and execution — correctly reads as absent rather
    /// than as that later version.
    ///
    /// A read set with no annotation slots at all (larger than
    /// `annotate_max_reads` — the paper's 10,000-read transactions) would
    /// make every read a serial three-deep miss chain: chain line, head
    /// version, payload. But the set is declared, and procedures walk it in
    /// order, so the first such read starts a [`LookAhead`] over the reads
    /// after it and every later one advances it — the same staged hints the
    /// CC thread runs in front of its installs, ending at the payload instead
    /// of the predecessor. The hints dereference a head version, which is
    /// sound while this transaction is executing: every install at or below
    /// its timestamp happened before it started, so whatever supersedes
    /// that head begins above it, and the Condition-3 bound cannot pass a
    /// version that ends above a transaction still running.
    fn version_for_read(&mut self, idx: usize) -> Option<&'a Version> {
        // Large read sets carry no annotation slots (BohmConfig::
        // annotate_max_reads): go straight to traversal.
        let ptr = if self.t.read_refs.is_empty() {
            let (t, store, guard) = (self.t, self.store, self.guard);
            let hint = |stage, rid: &RecordId| {
                if let Some(chain) = store.chain(*rid) {
                    look_ahead(stage, chain, false, guard);
                }
            };
            match &mut self.ahead {
                Some(ahead) => ahead.step(hint),
                None => self.ahead = Some(LookAhead::start(t.txn.reads[idx + 1..].iter(), hint)),
            }
            std::ptr::null_mut()
        } else {
            self.t.read_refs[idx].load(Ordering::Acquire)
        };
        if !ptr.is_null() {
            // SAFETY: annotation pointers stay valid until Condition-3 GC,
            // which cannot pass this transaction's batch before it executes.
            return Some(unsafe { &*ptr });
        }
        // Fallback traversal (annotations disabled, or record not yet
        // present at CC time).
        self.visible(self.t.txn.reads[idx])
    }

    /// Every read of a version goes through here first. A writer that meets
    /// a still-pending placeholder blocks on the producer (paper: "the read
    /// must block until the write is performed") by aborting with the
    /// producer's timestamp — the executor evaluates it and re-runs the
    /// procedure, whose writes replay idempotently. A detached reader has
    /// the producer evaluated *in place* and carries on: re-running a
    /// 10,000-read procedure from the top once per dependency is what
    /// `NotReady` would cost it, and it has no write to replay. This covers
    /// tombstones-to-be as well: an aborted fresh insert only becomes a
    /// tombstone once its producer is copied through.
    fn resolved(&mut self, v: &Version) -> Result<(), AbortReason> {
        if !v.is_resolved() {
            match &mut self.in_place {
                Some(producer) => producer.resolve(v),
                None => return Err(AbortReason::NotReady(v.begin())),
            }
        }
        Ok(())
    }

    /// The payload of `v` once its producer has run (see
    /// [`resolved`](Self::resolved)), or `None` for a tombstone — committed
    /// absence: a deleted record, or the copy-through of an aborted fresh
    /// insert.
    fn payload(&mut self, v: &'a Version) -> Result<Option<&'a [u8]>, AbortReason> {
        self.resolved(v)?;
        Ok(match v.state() {
            VersionState::Ready => Some(v.data()),
            VersionState::Tombstone => None,
            VersionState::Pending => unreachable!("resolved above"),
        })
    }

    /// The ts-filtered walk every un-annotated access goes through. The
    /// filter answers "absent" for a record a later-timestamp transaction
    /// inserted between CC time and now, and every earlier-timestamp
    /// placeholder is installed before this batch executes, so the walk
    /// needs no help from the CC phase. A row whose segment was never
    /// allocated has never been written: absent too.
    fn visible(&self, rid: RecordId) -> Option<&'a Version> {
        self.store.chain(rid)?.visible(self.t.ts, self.guard)
    }
}

impl Access for BohmAccess<'_> {
    fn read_maybe(&mut self, idx: usize, out: impl FnMut(&[u8])) -> Result<bool, AbortReason> {
        let Some(v) = self.version_for_read(idx) else {
            return Ok(false);
        };
        Ok(self.payload(v)?.map(out).is_some())
    }

    fn write(&mut self, idx: usize, data: &[u8]) -> Result<(), AbortReason> {
        let ptr = self.t.write_refs[idx].load(Ordering::Acquire);
        assert!(
            !ptr.is_null(),
            "CC phase must have installed a placeholder for write-set entry {idx}"
        );
        // SAFETY: placeholder liveness per Condition 3, as for reads; this
        // thread is the unique producer (it holds the Executing state).
        let v = unsafe { &*ptr };
        v.fill_once(data);
        Ok(())
    }

    fn write_len(&mut self, idx: usize) -> usize {
        let ptr = self.t.write_refs[idx].load(Ordering::Acquire);
        assert!(!ptr.is_null());
        // SAFETY: placeholder liveness per Condition 3.
        unsafe { &*ptr }.len()
    }

    /// Phantom protection is the timestamp filter: the row resolves to the
    /// version whose validity interval holds this transaction's timestamp
    /// (see [`visible`](Self::visible)), so an insert into or delete from a
    /// scanned range by any other transaction is *ordered* against this
    /// scan — before it if its timestamp is lower, after it otherwise —
    /// rather than racing it. Still-pending versions block on their
    /// producer like any read (§3.3.1); re-runs replay the scan
    /// deterministically.
    ///
    /// An index scan's posting list is a declared read, so the CC phase
    /// already **pre-annotated the index key**: the owning CC thread
    /// resolved it, at its sequence point, to the version a reader at this
    /// timestamp must observe — which orders every batched maintenance
    /// write (a NewOrder adding a member, a Delivery removing one) against
    /// this scan by construction, not as a race. Member rows then resolve
    /// here like scan rows (their identities are only known now): each
    /// member was inserted by the same earlier-timestamp transaction that
    /// added it to the list, so its chain exists by CC time of this batch.
    ///
    /// # Safety
    ///
    /// None beyond the trait's contract: the walk is sound for any row, and
    /// a row past a table's preload, or past what a table can address,
    /// reads as absent.
    unsafe fn read_covered(
        &mut self,
        rid: RecordId,
        out: impl FnMut(&[u8]),
    ) -> Result<bool, AbortReason> {
        let Some(v) = self.visible(rid) else {
            return Ok(false);
        };
        Ok(self.payload(v)?.map(out).is_some())
    }

    fn delete(&mut self, idx: usize) -> Result<(), AbortReason> {
        // A delete is a write whose placeholder resolves to a tombstone:
        // the CC phase already installed the placeholder (delete targets
        // are declared write-set entries), readers above this timestamp
        // observe absence, and the superseded tail becomes reclaimable
        // once the Condition-3 bound passes it — a later re-insert of the
        // row supersedes the tombstone itself, which then truncates too.
        let ptr = self.t.write_refs[idx].load(Ordering::Acquire);
        assert!(
            !ptr.is_null(),
            "CC phase must have installed a placeholder for write-set entry {idx}"
        );
        // SAFETY: placeholder liveness per Condition 3; unique producer.
        let v = unsafe { &*ptr };
        if !v.fill_tombstone_once() {
            // Already resolved. A legal replay (re-run after a blocked
            // read) finds the tombstone from the first pass; finding
            // *data* means the procedure wrote this entry earlier in the
            // same transaction — a contract violation (the `Ready` state
            // may already have been consumed by a later-timestamp reader,
            // so it cannot be retracted). Fail loudly rather than silently
            // diverging from the other engines.
            assert!(
                v.state() == bohm_mvstore::VersionState::Tombstone,
                "delete of write-set entry {idx} after writing it: a delete \
                 must be the entry's only resolution in its transaction"
            );
        }
        Ok(())
    }
}
