//! Version objects with timestamp-or-transaction `begin`/`end` words.
//!
//! Larson et al.'s central representation: a version's `begin` and `end`
//! fields each hold either a real timestamp or a reference to the
//! transaction that is creating / invalidating it. We encode the reference
//! as a tagged pointer (bit 63 set). Post-processing replaces markers with
//! timestamps after commit; aborted creations become garbage (begin =
//! `ABORTED_SENTINEL`) that readers skip until a prune unlinks it —
//! `HekatonStore::prune`, run on a sample of commits and by
//! `Hekaton::sweep_now`. An unlinked version is not freed: it waits in the
//! pruning worker's limbo and is then reused, payload buffer and all
//! (`crate::recycle`).

use crate::txn::HkTxn;
use bohm_sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use bohm_sync::cell::UnsafeCell;

/// Tag bit: the word is a pointer to an [`HkTxn`], not a timestamp.
pub const TXN_FLAG: u64 = 1 << 63;
/// `end` value of a live latest version.
pub const END_INF: u64 = !TXN_FLAG; // all bits but the tag: flag clear
/// `begin` value of a version whose creating transaction aborted.
pub const ABORTED_SENTINEL: u64 = END_INF - 1;

/// Pack a transaction reference into a version word.
#[inline]
pub fn txn_word(t: *const HkTxn) -> u64 {
    debug_assert_eq!((t as u64) & TXN_FLAG, 0, "kernel-half pointers unsupported");
    (t as u64) | TXN_FLAG
}

/// Interpret a version word.
#[inline]
pub fn unpack(word: u64) -> WordView {
    if word & TXN_FLAG != 0 {
        WordView::Txn((word & !TXN_FLAG) as *const HkTxn)
    } else {
        WordView::Ts(word)
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WordView {
    Ts(u64),
    Txn(*const HkTxn),
}

/// One version of one record.
pub struct HkVersion {
    pub begin: AtomicU64,
    pub end: AtomicU64,
    /// Older version. Immutable once the version is published, **except**
    /// for the chain pruner, which unlinks dead suffixes under the record's
    /// prune lock (see `HekatonStore::prune`).
    pub prev: AtomicPtr<HkVersion>,
    /// Payload, written while the version is unpublished (by its creator,
    /// or by the worker reusing it) and immutable while reachable. Empty
    /// payload ⇔ deletion **tombstone**: its visibility interval means "the
    /// record does not exist" (every table's records are at least 8 bytes).
    /// A tracked cell, so the model checker sees a reuse racing a reader.
    data: UnsafeCell<Box<[u8]>>,
}

// SAFETY: `data` is written only while the version is unreachable — before
// publication (the record slot's CAS is the release point) or after the
// recycling grace period (`crate::recycle`).
unsafe impl Send for HkVersion {}
// SAFETY: same unpublished-writes argument as `Send` above.
unsafe impl Sync for HkVersion {}

impl HkVersion {
    /// A committed version (preloading).
    pub fn committed(begin_ts: u64, data: Box<[u8]>) -> Self {
        Self::new(begin_ts, data)
    }

    /// A version under creation by `creator` (begin holds the txn marker);
    /// an empty `data` makes it a tombstone.
    pub fn uncommitted(creator: *const HkTxn, data: Box<[u8]>) -> Self {
        Self::new(txn_word(creator), data)
    }

    /// A version whose `begin` word is `begin` (a timestamp or a
    /// transaction marker).
    pub(crate) fn new(begin: u64, data: Box<[u8]>) -> Self {
        Self {
            begin: AtomicU64::new(begin),
            end: AtomicU64::new(END_INF),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            data: UnsafeCell::new(data),
        }
    }

    /// Make a recycled version a fresh one: `begin` word `begin`, end ∞ and
    /// payload `data` (the buffer is kept, so its length must match).
    ///
    /// # Safety
    ///
    /// The caller owns the version exclusively: it is unpublished, or it
    /// was unlinked and has waited out the recycling grace period, so no
    /// reader can still reach it.
    pub(crate) unsafe fn reuse(&self, begin: u64, data: &[u8]) {
        // RELAXED: the version is unreachable; the Release CAS that
        // publishes it again orders these stores before any reader's loads.
        self.begin.store(begin, Ordering::Relaxed);
        // RELAXED: as above.
        self.end.store(END_INF, Ordering::Relaxed);
        // SAFETY: exclusive ownership, per this function's contract.
        unsafe { self.data.with_mut(|d| (*d).copy_from_slice(data)) };
    }

    /// Is this version a deletion tombstone?
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.data().is_empty()
    }

    #[inline]
    pub fn data(&self) -> &[u8] {
        // SAFETY: immutable while reachable (see field docs).
        unsafe { self.data.with(|d| &**d) }
    }

    /// Mark the creation aborted: readers skip this version forever.
    pub fn mark_aborted(&self) {
        self.begin.store(ABORTED_SENTINEL, Ordering::Release);
    }

    #[inline]
    pub fn is_aborted_garbage(&self) -> bool {
        self.begin.load(Ordering::Acquire) == ABORTED_SENTINEL
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_packing_roundtrip() {
        let t = Box::into_raw(Box::new(HkTxn::new(1)));
        match unpack(txn_word(t)) {
            WordView::Txn(p) => assert_eq!(p, t as *const HkTxn),
            _ => panic!("expected txn view"),
        }
        match unpack(42) {
            WordView::Ts(ts) => assert_eq!(ts, 42),
            _ => panic!("expected ts view"),
        }
        // SAFETY: test-local allocation.
        drop(unsafe { Box::from_raw(t) });
    }

    #[test]
    fn sentinels_are_timestamps_not_pointers() {
        assert!(matches!(unpack(END_INF), WordView::Ts(_)));
        assert!(matches!(unpack(ABORTED_SENTINEL), WordView::Ts(_)));
        assert_ne!(END_INF, ABORTED_SENTINEL);
    }

    #[test]
    fn aborted_marking() {
        let t = HkTxn::new(1);
        let v = HkVersion::uncommitted(&t, bohm_common::value::of_u64(1, 8));
        assert!(!v.is_aborted_garbage());
        v.mark_aborted();
        assert!(v.is_aborted_garbage());
    }

    #[test]
    fn committed_version_exposes_data() {
        let v = HkVersion::committed(0, bohm_common::value::of_u64(7, 8));
        assert_eq!(bohm_common::value::get_u64(v.data(), 0), 7);
        assert_eq!(v.end.load(Ordering::Relaxed), END_INF);
    }
}
