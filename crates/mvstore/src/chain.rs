//! Per-record version chains.
//!
//! A [`Chain`] is the backward-linked list of paper Fig. 3: head is the
//! latest version, `prev` pointers lead to older versions. The chain has a
//! **single logical writer** — the concurrency-control thread owning the
//! record's partition (paper §3.2.2: "a record is always processed by the
//! same thread, even across transaction boundaries") — so installation and
//! truncation need no compare-and-swap, only release stores. Readers
//! traverse under a `crossbeam_epoch` guard and perform no shared-memory
//! writes whatsoever (paper §2.2, design goal 2).
//!
//! Truncation has one implementation, [`Chain::truncate_with`], which
//! unlinks the dead tail and hands each version to a sink. Two sinks exist:
//! [`Chain::truncate`] defers destruction through the epoch collector (safe
//! for *any* bound and any pinned reader), and
//! [`VersionPool::reclaim`](crate::pool::VersionPool::reclaim) takes the
//! versions back for immediate reuse, which is sound only for a true
//! Condition-3 bound — the BOHM engine's path, and the only one that skips
//! repeat walks under an unchanged bound (`gc_mark`).

// HOT-PATH: install/visible run per write and per read of every
// transaction; no clocks, no syscalls, no I/O (enforced by the lint).

use crate::version::Version;
use bohm_common::Timestamp;
use bohm_sync::atomic::{AtomicU64, Ordering};
use crossbeam_epoch::{Atomic, Guard, Owned, Shared};

/// The version chain of one record.
///
/// Three words, naturally aligned: the chain is not padded itself. The
/// hash index inlines one per entry and aligns the *entry* to a cache line,
/// so a probe that found the key has the chain's words in the line it
/// already holds, and installs on one record never false-share with a
/// neighbour's.
pub struct Chain {
    head: Atomic<Version>,
    /// Largest timestamp of any transaction whose read the owning CC
    /// thread annotated with a direct pointer into this chain. Written
    /// only by that thread (timestamps arrive monotonically), read by the
    /// same thread's key-reclamation sweep: an index entry may only be
    /// retired once every possible annotation holder has executed
    /// (`annotated_ts ≤ GC bound`) — the annotation-safe lifetime rule.
    annotated_ts: AtomicU64,
    /// The Condition-3 bound the engine last walked this chain under
    /// ([`mark_gc`](Self::mark_gc)). Same single writer and reader as
    /// `annotated_ts`. The engine installs above every bound already
    /// published, so a version installed after a walk ends its predecessor
    /// *above* that walk's bound: re-walking under an unchanged bound can
    /// find nothing new, and
    /// [`VersionPool::reclaim`](crate::pool::VersionPool::reclaim) skips it.
    /// That is what lets the engine probe on every install.
    gc_mark: AtomicU64,
}

impl Default for Chain {
    fn default() -> Self {
        Self::new()
    }
}

impl Chain {
    /// An empty chain (record does not exist yet).
    pub fn new() -> Self {
        Self {
            head: Atomic::null(),
            annotated_ts: AtomicU64::new(0),
            gc_mark: AtomicU64::new(0),
        }
    }

    /// Record that the owning CC thread handed a direct pointer into this
    /// chain to the (not-yet-executed) transaction at `ts`. Single-writer,
    /// monotonic — see the field docs.
    #[inline]
    pub fn note_annotation(&self, ts: Timestamp) {
        // RELAXED: single-writer monotonic watermark read only by the same
        // CC thread's reclamation sweep; no payload is published through it.
        self.annotated_ts.store(ts, Ordering::Relaxed);
    }

    /// Largest timestamp ever passed to [`note_annotation`](Self::note_annotation).
    #[inline]
    pub fn annotated_ts(&self) -> Timestamp {
        // RELAXED: same-thread read of the single-writer watermark above.
        self.annotated_ts.load(Ordering::Relaxed)
    }

    /// Note that the owning CC thread is about to walk this chain under the
    /// Condition-3 bound `bound`; `false` if it already has, in which case
    /// the walk can find nothing (see the `gc_mark` field) and is skipped.
    ///
    /// Only sound for a caller whose installs arrive above every bound it
    /// walks under — the engine's invariant, not a property of the chain —
    /// so it stays out of [`truncate`](Self::truncate), which promises to
    /// work for any bound in any order.
    #[inline]
    pub(crate) fn mark_gc(&self, bound: Timestamp) -> bool {
        // RELAXED: same-thread read of a single-writer word (this thread is
        // the writer); nothing is published through it. A fresh chain's
        // mark is 0, and no version ends at or below 0.
        if self.gc_mark.load(Ordering::Relaxed) == bound {
            return false;
        }
        // RELAXED: as above.
        self.gc_mark.store(bound, Ordering::Relaxed);
        true
    }

    /// If the whole chain is exactly one *resolved tombstone*, return its
    /// begin timestamp. This is the reclaimable shape of a fully-deleted
    /// key: combined with `begin ≤ GC bound` (every reader that could still
    /// need to observe the deletion has executed) and the annotation rule,
    /// the key's index entry can be retired outright.
    pub fn sole_tombstone(&self, guard: &Guard) -> Option<Timestamp> {
        let head = self.head.load(Ordering::Acquire, guard);
        // SAFETY: the head has end = ∞ and is never truncated; only key
        // retirement frees it, epoch-deferred past `guard`.
        let v = unsafe { head.as_ref() }?;
        if v.state() == crate::version::VersionState::Tombstone
            && v.prev.load(Ordering::Acquire, guard).is_null()
        {
            Some(v.begin())
        } else {
            None
        }
    }

    /// Install `version` as the new latest version.
    ///
    /// Sets `version.prev` to the current head, supersedes the current head
    /// (its end timestamp becomes `version.begin()`), and publishes the new
    /// head. Returns the installed version.
    ///
    /// Must only be called by the record's owning CC thread, with
    /// monotonically increasing `begin` timestamps — both are BOHM protocol
    /// invariants (§3.2.2/§3.2.3); the monotonicity is debug-asserted.
    pub fn install<'g>(&self, version: Owned<Version>, guard: &'g Guard) -> Shared<'g, Version> {
        let old = self.head.load(Ordering::Acquire, guard);
        // SAFETY: only the owning CC thread unlinks versions, and that is
        // this thread — `old` cannot be retired while we hold it.
        if let Some(old_ref) = unsafe { old.as_ref() } {
            debug_assert!(
                old_ref.begin() < version.begin(),
                "versions must be installed in timestamp order"
            );
            old_ref.supersede(version.begin());
        }
        // RELAXED: `version` is still thread-private (an `Owned`); the
        // Release head store below publishes `prev` together with the rest
        // of the version's fields.
        version.prev.store(old, Ordering::Relaxed);
        let shared = version.into_shared(guard);
        self.head.store(shared, Ordering::Release);
        shared
    }

    /// Latest version, if any.
    #[inline]
    pub fn latest<'g>(&self, guard: &'g Guard) -> Option<&'g Version> {
        // SAFETY: loaded under `guard`. While it is the head a version is
        // never truncated; once superseded it is retired either through
        // the epoch collector (past every live pin) or under Condition 3,
        // whose bound a live reader of this version holds back.
        unsafe { self.head.load(Ordering::Acquire, guard).as_ref() }
    }

    /// Look-ahead stage: start fetching the head version's header. The head
    /// pointer is a prefetch operand only — safe for any caller at any time.
    #[inline]
    pub fn prefetch_head(&self, guard: &Guard) {
        // RELAXED: hint-stage load; the pointer is never dereferenced.
        bohm_sync::hint::prefetch_read(self.head.load(Ordering::Relaxed, guard).as_raw());
    }

    /// The version visible to a reader with timestamp `ts`: the version with
    /// `begin < ts ≤ end`.
    ///
    /// BOHM gives each transaction a single timestamp (§3.2.1), so a reader
    /// observes exactly the state left by all transactions ordered before
    /// it; the version superseded *by the reader's own write* (end = ts) is
    /// precisely what its read-modify-write must observe. Returns `None` if
    /// the record did not exist at `ts` (including tombstoned versions —
    /// callers distinguish via [`Version::state`]).
    ///
    /// # What the walk touches (the reuse-safety argument)
    /// Every version the walk dereferences except the last has
    /// `begin ≥ ts`, hence `end > ts`. The last one (the first with
    /// `begin < ts`) was reached either from a successor with `begin ≥ ts`,
    /// so its `end ≥ ts`, or from the head, where its end was ∞ — and a
    /// successor installed later begins above `ts`, because BOHM's CC phase
    /// installs everything at or below a reader's timestamp before that
    /// reader runs. Its `prev` edge is never loaded. A walk at `ts`
    /// therefore never dereferences, or even loads a pointer to, a version
    /// whose end is (or will become) below `ts`. Truncation under a bound
    /// `B` removes exactly the versions with `end ≤ B`, so a walker with
    /// `ts > B` cannot meet it at all (Condition 3), and a walker with
    /// `ts ≤ B` must be covered by the epoch-deferred sink.
    pub fn visible<'g>(&self, ts: Timestamp, guard: &'g Guard) -> Option<&'g Version> {
        let mut cur = self.head.load(Ordering::Acquire, guard);
        loop {
            // SAFETY: `cur` came from the head or a `prev` edge under
            // `guard`. Epoch-deferred truncation unlinks before deferring,
            // so what we reach stays live for this pin; Condition-3
            // recycling only takes versions this walk cannot reach (above).
            let v = unsafe { cur.as_ref() }?;
            if v.begin() < ts {
                // Ends decrease monotonically as we walk older versions, so
                // the first version with begin < ts is the only candidate.
                return if v.end() >= ts { Some(v) } else { None };
            }
            cur = v.prev.load(Ordering::Acquire, guard);
        }
    }

    /// Number of versions currently linked (test/diagnostic helper; racy
    /// under concurrent installation).
    pub fn depth(&self, guard: &Guard) -> usize {
        let mut n = 0;
        let mut cur = self.head.load(Ordering::Acquire, guard);
        // SAFETY: as in `visible` — reachable-under-guard pointers are live.
        while let Some(v) = unsafe { cur.as_ref() } {
            n += 1;
            cur = v.prev.load(Ordering::Acquire, guard);
        }
        n
    }

    /// Garbage-collect versions unreachable under paper Condition 3,
    /// deferring their destruction to the epoch collector.
    ///
    /// `bound` is the largest timestamp of the current low-watermark batch:
    /// every transaction with `ts ≤ bound` has finished executing. A version
    /// whose `end ≤ bound` can no longer be read by any active or future
    /// transaction (its readers all have `ts ≤ end ≤ bound` and are done),
    /// so the tail starting at the first such version is unlinked. Returns
    /// the number of versions retired.
    ///
    /// Because destruction waits for every pin, this sink stays memory-safe
    /// even if `bound` is *not* a true low watermark (a pinned reader below
    /// it merely stops seeing the truncated history) — the right choice
    /// for tests, tools and any caller that cannot prove Condition 3. The
    /// engine's CC threads use
    /// [`VersionPool::reclaim`](crate::pool::VersionPool::reclaim) instead.
    ///
    /// Like `install`, this must only be called by the owning CC thread.
    pub fn truncate(&self, bound: Timestamp, guard: &Guard) -> usize {
        self.truncate_with(bound, guard, &mut |dead| {
            // SAFETY: `dead` was just unlinked by its only writer, so it is
            // unreachable from the head; any in-flight traversal holds an
            // epoch guard, and physical destruction is deferred past it.
            unsafe { guard.defer_destroy(dead) }
        })
    }

    /// The one truncation walk: unlink the tail starting at the first
    /// version with `end ≤ bound` and hand every version in it to `sink`,
    /// newest first. Returns how many were handed over. What the sink may
    /// do with an unlinked version depends on what `bound` guarantees —
    /// see [`truncate`](Self::truncate) and
    /// [`VersionPool::reclaim`](crate::pool::VersionPool::reclaim).
    ///
    /// Owning-CC-thread only, like `install`.
    pub fn truncate_with<'g>(
        &self,
        bound: Timestamp,
        guard: &'g Guard,
        sink: &mut impl FnMut(Shared<'g, Version>),
    ) -> usize {
        // The head always has end = ∞, so the truncation point is strictly
        // below the head and `pred` is always valid.
        let head = self.head.load(Ordering::Acquire, guard);
        // SAFETY: loaded under `guard`, and only this (owning) thread ever
        // unlinks — the head is live.
        let Some(mut pred) = (unsafe { head.as_ref() }) else {
            return 0;
        };
        loop {
            let next = pred.prev.load(Ordering::Acquire, guard);
            // SAFETY: still linked (we only unlink below, and no other
            // thread truncates this chain), loaded under `guard`.
            let Some(v) = (unsafe { next.as_ref() }) else {
                return 0;
            };
            if v.end() <= bound {
                // Unlink the tail, then retire every version in it.
                pred.prev.store(Shared::null(), Ordering::Release);
                let mut retired = 0;
                let mut cur = next;
                // SAFETY: the tail was just unlinked by its only writer and
                // nothing has been handed to the sink yet; each version is
                // read before it is handed over.
                while let Some(vv) = unsafe { cur.as_ref() } {
                    let older = vv.prev.load(Ordering::Acquire, guard);
                    sink(cur);
                    retired += 1;
                    cur = older;
                }
                return retired;
            }
            pred = v;
        }
    }
}

impl Drop for Chain {
    fn drop(&mut self) {
        // SAFETY: `&mut self` guarantees no concurrent readers; free the
        // whole list eagerly.
        unsafe {
            let guard = crossbeam_epoch::unprotected();
            // RELAXED: `&mut self` means this thread already synchronized
            // with every past writer; no concurrent access exists.
            let mut cur = self.head.load(Ordering::Relaxed, guard);
            while let Some(v) = cur.as_ref() {
                // RELAXED: same exclusive-access argument as the head load.
                let prev = v.prev.load(Ordering::Relaxed, guard);
                drop(cur.into_owned());
                cur = prev;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::value::{get_u64, of_u64};
    use bohm_common::INFINITY_TS;
    use crossbeam_epoch as epoch;

    fn ready(ts: Timestamp, val: u64) -> Owned<Version> {
        Owned::new(Version::ready(ts, of_u64(val, 8)))
    }

    #[test]
    fn empty_chain_has_no_visible_version() {
        let c = Chain::new();
        let g = epoch::pin();
        assert!(c.latest(&g).is_none());
        assert!(c.visible(100, &g).is_none());
        assert_eq!(c.depth(&g), 0);
    }

    #[test]
    fn install_links_and_supersedes() {
        let c = Chain::new();
        let g = epoch::pin();
        c.install(ready(100, 1), &g);
        c.install(ready(200, 2), &g);
        let head = c.latest(&g).unwrap();
        assert_eq!(head.begin(), 200);
        assert_eq!(head.end(), INFINITY_TS);
        let old = c.visible(150, &g).unwrap();
        assert_eq!(old.begin(), 100);
        assert_eq!(old.end(), 200);
        assert_eq!(c.depth(&g), 2);
    }

    #[test]
    fn visibility_window_semantics() {
        let c = Chain::new();
        let g = epoch::pin();
        c.install(ready(100, 1), &g);
        c.install(ready(200, 2), &g);
        c.install(ready(300, 3), &g);
        // Reader before the record existed.
        assert!(c.visible(100, &g).is_none(), "begin < ts is strict");
        // Reader mid-history.
        assert_eq!(get_u64(c.visible(101, &g).unwrap().data(), 0), 1);
        assert_eq!(get_u64(c.visible(200, &g).unwrap().data(), 0), 1);
        assert_eq!(get_u64(c.visible(201, &g).unwrap().data(), 0), 2);
        // Reader after everything.
        assert_eq!(get_u64(c.visible(999, &g).unwrap().data(), 0), 3);
    }

    #[test]
    fn rmw_reads_its_predecessor() {
        // A transaction at ts=200 that RMWs this record must read the
        // version it supersedes (end = 200).
        let c = Chain::new();
        let g = epoch::pin();
        c.install(ready(100, 7), &g);
        c.install(Owned::new(Version::placeholder(200, 8)), &g);
        let seen = c.visible(200, &g).unwrap();
        assert_eq!(seen.begin(), 100);
        assert_eq!(get_u64(seen.data(), 0), 7);
    }

    #[test]
    fn placeholder_visible_but_unresolved() {
        let c = Chain::new();
        let g = epoch::pin();
        c.install(Owned::new(Version::placeholder(100, 8)), &g);
        let v = c.visible(150, &g).unwrap();
        assert!(!v.is_resolved());
    }

    #[test]
    fn truncate_retires_only_dead_tail() {
        let c = Chain::new();
        let g = epoch::pin();
        c.install(ready(100, 1), &g); // end=200
        c.install(ready(200, 2), &g); // end=300
        c.install(ready(300, 3), &g); // end=∞
                                      // Watermark bound 250: version(100) has end 200 ≤ 250 → retire 1.
        assert_eq!(c.truncate(250, &g), 1);
        assert_eq!(c.depth(&g), 2);
        // Readers above the bound still resolve correctly.
        assert_eq!(get_u64(c.visible(250, &g).unwrap().data(), 0), 2);
        // Bound below every end: nothing to do.
        assert_eq!(c.truncate(250, &g), 0);
        // Bound covering version(200): retire it too.
        assert_eq!(c.truncate(300, &g), 1);
        assert_eq!(c.depth(&g), 1);
        assert_eq!(get_u64(c.latest(&g).unwrap().data(), 0), 3);
    }

    #[test]
    fn truncate_walks_again_under_a_repeated_bound() {
        // `truncate` works for any bound in any order: a caller that
        // installs *below* a bound it already truncated under gets the
        // newly dead version on the repeat call. (The engine never does
        // that, which is why its once-per-bound skip lives in
        // `VersionPool::reclaim` and not here.)
        let c = Chain::new();
        let g = epoch::pin();
        c.install(ready(100, 1), &g);
        c.install(ready(200, 2), &g);
        assert_eq!(c.truncate(250, &g), 1);
        c.install(ready(240, 3), &g); // version(200) now ends at 240 ≤ 250
        assert_eq!(c.truncate(250, &g), 1);
        assert_eq!(c.depth(&g), 1);
    }

    #[test]
    fn tombstones_truncate_once_superseded() {
        // Record lifecycle on one chain: value → delete (tombstone) →
        // re-insert. Once the GC bound passes the re-insert, both the
        // tombstone and the pre-delete value are reclaimed; the chain
        // converges to the single live version.
        let c = Chain::new();
        let g = epoch::pin();
        c.install(ready(100, 1), &g); // end=200 after delete
        let del = c.install(Owned::new(Version::placeholder(200, 8)), &g);
        // SAFETY: `del` was just installed under `g` and nothing truncates.
        unsafe { del.as_ref() }.unwrap().fill_tombstone();
        // Deleted: readers above the tombstone observe it (absence).
        assert_eq!(
            c.visible(250, &g).unwrap().state(),
            crate::version::VersionState::Tombstone
        );
        // Re-insert supersedes the tombstone (end = 300).
        c.install(ready(300, 3), &g);
        assert_eq!(c.depth(&g), 3);
        // Bound below the re-insert keeps the tombstone (a reader at 250
        // might still need to observe the deletion).
        assert_eq!(c.truncate(250, &g), 1, "only the pre-delete value dies");
        // Bound at the re-insert reclaims the tombstone too.
        assert_eq!(c.truncate(300, &g), 1);
        assert_eq!(c.depth(&g), 1);
        assert_eq!(get_u64(c.latest(&g).unwrap().data(), 0), 3);
    }

    #[test]
    fn sole_tombstone_shape_and_annotation_bookkeeping() {
        let c = Chain::new();
        let g = epoch::pin();
        assert!(c.sole_tombstone(&g).is_none(), "empty chain");
        c.install(ready(100, 1), &g);
        assert!(c.sole_tombstone(&g).is_none(), "live value");
        let del = c.install(Owned::new(Version::placeholder(200, 8)), &g);
        // SAFETY: `del` was just installed under `g` and nothing truncates.
        unsafe { del.as_ref() }.unwrap().fill_tombstone();
        assert!(
            c.sole_tombstone(&g).is_none(),
            "predecessor value still linked"
        );
        assert_eq!(c.truncate(200, &g), 1);
        assert_eq!(c.sole_tombstone(&g), Some(200), "fully-deleted shape");
        assert_eq!(c.annotated_ts(), 0);
        c.note_annotation(250);
        assert_eq!(c.annotated_ts(), 250);
    }

    #[test]
    fn truncate_never_touches_live_head() {
        let c = Chain::new();
        let g = epoch::pin();
        c.install(ready(100, 1), &g);
        assert_eq!(c.truncate(u64::MAX - 1, &g), 0);
        assert_eq!(c.depth(&g), 1);
    }

    #[test]
    fn long_history_truncates_in_one_pass() {
        let c = Chain::new();
        let g = epoch::pin();
        for i in 1..=100 {
            c.install(ready(i * 10, i), &g);
        }
        // All ends except the head's are ≤ 1000.
        assert_eq!(c.truncate(1000, &g), 99);
        assert_eq!(c.depth(&g), 1);
    }

    #[test]
    fn concurrent_readers_during_install_and_truncate() {
        use bohm_sync::atomic::{AtomicBool, Ordering as O};
        use std::sync::Arc;
        let c = Arc::new(Chain::new());
        {
            let g = epoch::pin();
            c.install(ready(1, 0), &g);
        }
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..3 {
            let c = Arc::clone(&c);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let mut reads = 0u64;
                while !stop.load(O::Relaxed) {
                    let g = epoch::pin();
                    // Read at a wandering timestamp; value must equal ts-1
                    // for the versions this writer produces (value i at
                    // begin i+1 ⇒ visible(ts) has value = begin-1 ≤ ts-1).
                    let ts = 2 + (reads % 50);
                    if let Some(v) = c.visible(ts, &g) {
                        // begin and data are immutable; end may have been
                        // superseded after the visibility decision, so it is
                        // deliberately not re-checked here.
                        assert!(v.begin() < ts);
                        let val = get_u64(v.data(), 0);
                        assert_eq!(val, v.begin() - 1);
                    }
                    reads += 1;
                    std::hint::spin_loop();
                    let _ = t;
                }
            }));
        }
        // Single writer thread (this one): install + truncate.
        for i in 1..2000u64 {
            let g = epoch::pin();
            c.install(ready(i + 1, i), &g);
            if i % 64 == 0 {
                // Nothing newer than ts 52 is read by the readers above.
                c.truncate(52.min(i), &g);
            }
        }
        stop.store(true, O::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
