//! Version objects with timestamp-or-transaction `begin`/`end` words.
//!
//! Larson et al.'s central representation: a version's `begin` and `end`
//! fields each hold either a real timestamp or a reference to the
//! transaction that is creating / invalidating it. We encode the reference
//! as a tagged pointer (bit 63 set). Post-processing replaces markers with
//! timestamps after commit; aborted creations become garbage (begin =
//! `ABORTED_SENTINEL`) that readers skip until a prune unlinks it —
//! `HekatonStore::prune`, run on a sample of commits and by
//! `Hekaton::sweep_now`.

use crate::txn::HkTxn;
use bohm_sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::cell::UnsafeCell;

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
    /// Deletion tombstone: this version's visibility interval means "the
    /// record does not exist". Set at construction, immutable.
    tombstone: bool,
    /// Payload, written by the creating transaction before publication and
    /// immutable afterwards (empty for tombstones).
    data: UnsafeCell<Box<[u8]>>,
}

// SAFETY: `data` is written only before the version becomes reachable
// (publication via the record slot's CAS is the release point).
unsafe impl Send for HkVersion {}
// SAFETY: same pre-publication argument as `Send` above.
unsafe impl Sync for HkVersion {}

impl HkVersion {
    /// A committed version (preloading).
    pub fn committed(begin_ts: u64, data: Box<[u8]>) -> Self {
        Self {
            begin: AtomicU64::new(begin_ts),
            end: AtomicU64::new(END_INF),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            tombstone: false,
            data: UnsafeCell::new(data),
        }
    }

    /// A version under creation by `creator` (begin holds the txn marker).
    pub fn uncommitted(creator: *const HkTxn, data: Box<[u8]>) -> Self {
        Self {
            begin: AtomicU64::new(txn_word(creator)),
            end: AtomicU64::new(END_INF),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            tombstone: false,
            data: UnsafeCell::new(data),
        }
    }

    /// A deletion tombstone under creation by `creator`: once committed,
    /// readers in its visibility window observe the record as absent.
    pub fn uncommitted_tombstone(creator: *const HkTxn) -> Self {
        Self {
            begin: AtomicU64::new(txn_word(creator)),
            end: AtomicU64::new(END_INF),
            prev: AtomicPtr::new(std::ptr::null_mut()),
            tombstone: true,
            data: UnsafeCell::new(Box::new([])),
        }
    }

    /// Is this version a deletion tombstone?
    #[inline]
    pub fn is_tombstone(&self) -> bool {
        self.tombstone
    }

    #[inline]
    pub fn data(&self) -> &[u8] {
        // SAFETY: immutable after publication (see field docs).
        unsafe { &*self.data.get() }
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
