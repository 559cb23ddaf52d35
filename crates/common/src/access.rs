//! The engine-agnostic data access interface.
//!
//! Stored procedures run against an [`Access`] implementation supplied by
//! whichever engine is executing the transaction. Reads and writes are
//! addressed **positionally** — "the i-th entry of my declared read set /
//! write set" — because every engine already holds the transaction's declared
//! sets and several (BOHM in particular) pre-resolve each position to a
//! version pointer during the concurrency-control phase (paper §3.2.3's
//! read-set optimization). Positional addressing makes that resolution free
//! at execution time. Scan rows, whose identities a range or a posting
//! list only yields at execution time, are the one exception:
//! [`Access::read_covered`] takes a record id.

use crate::types::RecordId;

/// Why a transaction attempt did not commit.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AbortReason {
    /// Engine-induced: concurrency-control conflict (validation failure,
    /// write-write conflict, cascaded abort of a commit dependency, …).
    /// Optimistic engines retry these (paper §4: "all our optimistic
    /// baselines are configured to retry transactions in the event of an
    /// abort induced by concurrency control").
    Conflict,
    /// Logic abort requested by the procedure itself (e.g. SmallBank
    /// overdraft). Never retried; counts as a completed decision.
    User,
    /// BOHM-internal: the version this read resolved to has not been
    /// produced yet; the executor must first evaluate the producing
    /// transaction (paper §3.3.1 "read dependencies"). Carries the
    /// log-timestamp of the producing transaction.
    NotReady(u64),
}

impl AbortReason {
    /// True for aborts that the harness should retry (engine conflicts).
    #[inline]
    pub fn is_retryable(self) -> bool {
        matches!(self, AbortReason::Conflict)
    }
}

/// Positional record access for one executing transaction.
///
/// `idx` is an index into the transaction's declared read set (for
/// [`read_maybe`](Access::read_maybe)) or write set (for
/// [`write`](Access::write)). Implementations panic on out-of-range
/// indices — a procedure accessing a record it did not declare is a
/// programming error that would silently break every engine's correctness
/// argument.
///
/// Every engine and the serial oracle implement every required method;
/// [`execute_procedure`](crate::execute_procedure) is generic over the
/// implementation, so procedure calls into it are statically dispatched.
/// Callbacks take `impl FnMut`, which lets engines expose borrowed storage
/// without copying.
pub trait Access {
    /// Read of read-set entry `idx`, the one read primitive.
    ///
    /// Returns `Ok(true)` and calls `out` with the payload if the record
    /// exists at the transaction's snapshot, `Ok(false)` (without calling
    /// `out`) if it does not — a key never inserted, not yet inserted at
    /// this transaction's position in the serial order, or deleted. Absent
    /// reads participate in concurrency control exactly like present ones
    /// (they must be validated/serialized so that "absent" is the answer
    /// *some* serial order gives).
    fn read_maybe(&mut self, idx: usize, out: impl FnMut(&[u8])) -> Result<bool, AbortReason>;

    /// Read the current (engine-visible) value of read-set entry `idx` and
    /// hand it to `out`.
    ///
    /// Panics if the record does not exist at the transaction's snapshot —
    /// procedures that tolerate absence use [`read_maybe`](Self::read_maybe).
    fn read(&mut self, idx: usize, out: impl FnMut(&[u8])) -> Result<(), AbortReason> {
        if !self.read_maybe(idx, out)? {
            panic!("read of an absent record: read-set entry {idx}");
        }
        Ok(())
    }

    /// Write `data` as the new value of write-set entry `idx`. `data` must
    /// be exactly the record's size (engines enforce this).
    fn write(&mut self, idx: usize, data: &[u8]) -> Result<(), AbortReason>;

    /// Delete write-set entry `idx`: after this transaction, the record no
    /// longer exists (subsequent reads observe absence, and the slot is
    /// reclaimable by the engine's substrate — presence flag cleared, or a
    /// tombstone version that garbage collection prunes).
    ///
    /// Deletes are *blind*, like writes: no prior read of the record is
    /// required, and deleting an already-absent record is a serialized
    /// no-op (the observed absence participates in concurrency control the
    /// same way an absent read does). A delete must be the entry's **only**
    /// operation in the transaction: engines that publish resolutions
    /// eagerly (BOHM fills the pre-installed placeholder in place, where a
    /// published result may already have been consumed by a later-timestamp
    /// reader) can neither un-delete nor retract a write, so mixing
    /// `write` and `delete` on one entry is unsupported in either order —
    /// re-insert or delete from a later transaction instead.
    ///
    /// The logic-abort contract extends to deletes: a procedure must decide
    /// a user abort before its first write *or delete* (in-place engines
    /// have no undo log).
    fn delete(&mut self, idx: usize) -> Result<(), AbortReason>;

    /// Read row `rid` of a declared scan range or of a posting list this
    /// transaction read, the one per-row step of the procedure layer's
    /// range and index scans (`scan` and `index_scan` in
    /// [`procedures`](crate::procedures)).
    ///
    /// Returns `Ok(true)` and calls `out` with the payload if the row
    /// exists at the transaction's snapshot, `Ok(false)` if it does not.
    /// Each engine reads the row under its own phantom-protection
    /// mechanism, so the scan's membership is the range's (or the index
    /// key's) at the transaction's position in the serial order: range
    /// locks covering absent slots, per-slot read validation, commit-time
    /// re-resolution, or BOHM's timestamp-filtered probe.
    ///
    /// Array-backed engines and the serial oracle panic, naming the
    /// table's capacity, on a row beyond it; BOHM, whose tables address
    /// rows far past their declared capacity, reads such a row as
    /// ordinarily absent.
    ///
    /// # Safety
    ///
    /// `rid` must be *covered* for the transaction this access executes:
    /// a row of one of its declared [`ScanRange`](crate::txn::ScanRange)s,
    /// or a member row, in the declared table, of the posting list one of
    /// its declared [`IndexScan`](crate::txn::IndexScan)s read through
    /// [`read_maybe`](Self::read_maybe). 2PL reads such rows without
    /// locking them: it holds the range's slot locks, or the posting
    /// list's lock under the **covering-writer contract** — any
    /// transaction that inserts, deletes or updates a row of an indexed
    /// table declares and writes the affected posting-list record in the
    /// same transaction, so the list lock excludes every writer of its
    /// members. An uncovered row would be read racing its writers.
    unsafe fn read_covered(
        &mut self,
        rid: RecordId,
        out: impl FnMut(&[u8]),
    ) -> Result<bool, AbortReason>;

    /// Size in bytes of the record behind write-set entry `idx` (fixed per
    /// table). Lets procedures construct full-size payloads for blind
    /// writes without reading the record first.
    fn write_len(&mut self, idx: usize) -> usize;

    /// Convenience: read the little-endian `u64` prefix of read-set entry
    /// `idx` (every paper workload stores its semantic value there).
    fn read_u64(&mut self, idx: usize) -> Result<u64, AbortReason> {
        let mut v = 0u64;
        self.read(idx, |b| v = crate::value::get_u64(b, 0))?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial in-memory Access used to test the provided methods.
    struct VecAccess {
        rows: Vec<Option<Vec<u8>>>,
    }

    impl Access for VecAccess {
        fn read_maybe(&mut self, idx: usize, out: impl FnMut(&[u8])) -> Result<bool, AbortReason> {
            Ok(self.rows[idx].as_deref().map(out).is_some())
        }
        fn write(&mut self, idx: usize, data: &[u8]) -> Result<(), AbortReason> {
            self.rows[idx] = Some(data.to_vec());
            Ok(())
        }
        fn delete(&mut self, idx: usize) -> Result<(), AbortReason> {
            self.rows[idx] = None;
            Ok(())
        }
        /// # Safety
        ///
        /// Never called: no scans are declared.
        unsafe fn read_covered(
            &mut self,
            _: RecordId,
            _: impl FnMut(&[u8]),
        ) -> Result<bool, AbortReason> {
            unreachable!("no scans declared")
        }
        fn write_len(&mut self, idx: usize) -> usize {
            self.rows[idx].as_ref().map_or(0, Vec::len)
        }
    }

    #[test]
    fn read_u64_default_reads_prefix() {
        let mut a = VecAccess {
            rows: vec![Some(crate::value::of_u64(99, 16).to_vec())],
        };
        assert_eq!(a.read_u64(0).unwrap(), 99);
    }

    #[test]
    #[should_panic(expected = "read of an absent record")]
    fn read_of_an_absent_record_panics() {
        let mut a = VecAccess { rows: vec![None] };
        let _ = a.read(0, |_| {});
    }

    #[test]
    fn retryability_classification() {
        assert!(AbortReason::Conflict.is_retryable());
        assert!(!AbortReason::User.is_retryable());
        assert!(!AbortReason::NotReady(3).is_retryable());
    }
}
