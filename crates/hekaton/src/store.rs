//! Fixed-size array-indexed multi-version store.
//!
//! The paper runs its Hekaton/SI baselines with "a simple fixed-size array
//! index to access records" (§4); this store reproduces that choice. Each
//! record slot is the head of a backward-linked version chain; pushes are
//! CAS-loops because, unlike BOHM, *any* worker thread may install a
//! version on any record. `HekatonStore::prune` is the one reclamation
//! primitive: the engine calls it on a sampled commit's read and write
//! sets, and over every slot in `Hekaton::sweep_now`. Nothing else prunes,
//! so an untouched key keeps the versions written after its last sampled
//! prune.

// HOT-PATH: push/prune/scan run per write and per GC pass; no clocks,
// no syscalls, no I/O (enforced by the lint).

use crate::version::{unpack, HkVersion, WordView, ABORTED_SENTINEL, END_INF};
use bohm_common::RecordId;
use bohm_sync::atomic::{AtomicPtr, AtomicU8, Ordering};
use crossbeam_epoch as epoch;

/// One record's slot: chain head and pruner try-lock together, padded to a
/// cache line. Any worker may CAS any head, so without the padding adjacent
/// rows (8-byte heads, 8 per line) false-share under uniform access — every
/// push invalidates the line under seven unrelated records.
#[repr(align(64))]
struct Slot {
    head: AtomicPtr<HkVersion>,
    /// Per-record pruner mutual exclusion (try-lock; contenders skip). Only
    /// pruners write `prev` of published versions or free them, so holding
    /// this lock makes a record's chain structure single-writer again.
    prune_lock: AtomicU8,
}

struct TableSlots {
    slots: Box<[Slot]>,
    record_size: usize,
}

/// Multi-table array-indexed version store.
pub struct HekatonStore {
    tables: Vec<TableSlots>,
}

impl HekatonStore {
    /// Create empty tables; `specs[t] = (rows, record_size)`.
    pub fn new(specs: &[(u64, usize)]) -> Self {
        Self {
            tables: specs
                .iter()
                .map(|&(rows, record_size)| {
                    let mut slots = Vec::with_capacity(rows as usize);
                    slots.resize_with(rows as usize, || Slot {
                        head: AtomicPtr::new(std::ptr::null_mut()),
                        prune_lock: AtomicU8::new(0),
                    });
                    TableSlots {
                        slots: slots.into_boxed_slice(),
                        record_size,
                    }
                })
                .collect(),
        }
    }

    /// Preload every row of `table` with `seed(row)` as a committed version
    /// at timestamp 0. Call before sharing the store.
    pub fn seed_u64(&self, table: u32, seed: impl Fn(u64) -> u64) {
        self.seed_rows_u64(table, self.tables[table as usize].slots.len() as u64, seed);
    }

    /// Preload only the first `rows` rows of `table`; the remaining slots
    /// keep their null heads — records that do not exist until a
    /// transaction inserts them (tables declared with insert headroom).
    pub fn seed_rows_u64(&self, table: u32, rows: u64, seed: impl Fn(u64) -> u64) {
        let t = &self.tables[table as usize];
        assert!(rows as usize <= t.slots.len(), "seed beyond capacity");
        for row in 0..rows as usize {
            let data = bohm_common::value::of_u64(seed(row as u64), t.record_size);
            let v = Box::into_raw(Box::new(HkVersion::committed(0, data)));
            t.slots[row].head.store(v, Ordering::Release);
        }
    }

    #[inline]
    pub fn head(&self, rid: RecordId) -> &AtomicPtr<HkVersion> {
        &self.tables[rid.table.index()].slots[rid.row as usize].head
    }

    #[inline]
    pub fn record_size(&self, rid: RecordId) -> usize {
        self.tables[rid.table.index()].record_size
    }

    #[inline]
    pub fn rows(&self, table: u32) -> usize {
        self.tables[table as usize].slots.len()
    }

    /// Number of tables in the store (`Hekaton::sweep_now`'s outer loop).
    #[inline]
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Push `nv` (already initialized) as the new chain head of `rid`.
    /// Callers guarantee `nv` is a valid, exclusively-owned allocation
    /// until the CAS publishes it (enforced crate-internally).
    pub(crate) fn push(&self, rid: RecordId, nv: *mut HkVersion) {
        let head = self.head(rid);
        loop {
            let h = head.load(Ordering::Acquire);
            // SAFETY: nv is exclusively ours until the CAS succeeds.
            // RELAXED: `nv` is unpublished; the Release CAS below makes
            // `prev` visible together with the new head.
            unsafe { (*nv).prev.store(h, Ordering::Relaxed) };
            if head
                // RELAXED: failure-order only — a lost race retries; the
                // reloaded head is re-Acquired at the top.
                .compare_exchange_weak(h, nv, Ordering::Release, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Compare-and-swap `nv` in as the chain head of `rid`, expecting the
    /// head to still be `expected` (which becomes `nv`'s predecessor).
    /// The record-insert path uses this instead of [`push`](Self::push):
    /// an insert is only legal while the chain holds no live version, so
    /// the head observed during that check must still be in place when the
    /// new version is published. Returns whether the CAS won; on failure
    /// `nv` is untouched and still exclusively owned by the caller.
    pub(crate) fn try_push(
        &self,
        rid: RecordId,
        expected: *mut HkVersion,
        nv: *mut HkVersion,
    ) -> bool {
        let head = self.head(rid);
        // SAFETY: nv is exclusively ours until the CAS succeeds.
        // RELAXED: unpublished until the Release CAS; on CAS failure the
        // caller still owns `nv` and nobody else ever saw this store.
        unsafe { (*nv).prev.store(expected, Ordering::Relaxed) };
        // RELAXED: failure-order only — the caller treats failure as retry;
        // no data is read through the failed result.
        head.compare_exchange(expected, nv, Ordering::Release, Ordering::Relaxed)
            .is_ok()
    }

    /// Number of versions in a record's chain (diagnostics; racy).
    pub fn chain_depth(&self, rid: RecordId) -> usize {
        // The epoch pin keeps any version the walk can reach alive: the
        // pruner defers physical destruction past in-flight pins.
        let _g = epoch::pin();
        let mut n = 0;
        let mut cur = self.head(rid).load(Ordering::Acquire);
        while !cur.is_null() {
            n += 1;
            // SAFETY: non-null chain pointers loaded under the epoch pin
            // above stay live — pruners defer frees past in-flight pins.
            cur = unsafe { &*cur }.prev.load(Ordering::Acquire);
        }
        n
    }

    /// Prune the dead suffix of `rid`'s version chain.
    ///
    /// `watermark` is the minimum begin timestamp over all in-flight
    /// transactions (the engine's active-transaction registry): a version
    /// whose end is a real timestamp `e ≤ watermark` is invisible to every
    /// active transaction (their `ts ≥ watermark ≥ e` fails `e > ts`) and
    /// to every future one (the global counter has already passed `e`), so
    /// it — and everything older beneath it — is garbage. Aborted-insert
    /// versions are additionally unlinked one by one wherever they sit.
    ///
    /// A *live* chain head is never pruned (it is the CAS anchor for
    /// writers), so a record under churn converges to one live version.
    /// The one head that **is** reclaimed is the last tombstone: when the
    /// whole chain is a single committed tombstone with `begin ≤
    /// watermark`, the record is logically absent for every in-flight and
    /// future transaction, and a null head gives the same answer — so the
    /// tombstone's end word is sealed (CAS ∞ → begin, which excludes any
    /// concurrent superseder: updates must win that CAS first, and inserts
    /// refuse chains holding committed versions) and the head pointer is
    /// CAS'd to null. This closes the former head-tombstone leak where a
    /// fully-deleted, never-reinserted key retained one version forever.
    ///
    /// Runs under the record's prune try-lock; contenders return 0
    /// immediately. Physical destruction is deferred through `guard`'s
    /// epoch, so concurrent readers mid-walk stay safe. Returns the number
    /// of versions retired.
    pub(crate) fn prune(&self, rid: RecordId, watermark: u64, guard: &epoch::Guard) -> usize {
        let t = &self.tables[rid.table.index()];
        let slot = &t.slots[rid.row as usize];
        let lock = &slot.prune_lock;
        if lock
            // RELAXED: failure-order only — losing the try-lock reads nothing
            // protected by it; the contender just returns.
            .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            return 0;
        }
        let mut freed = 0;
        let head = slot.head.load(Ordering::Acquire);
        if !head.is_null() {
            // SAFETY: only pruners free versions, and we hold this record's
            // prune lock; the head itself is never freed.
            let mut pred = unsafe { &*head };
            loop {
                let cur = pred.prev.load(Ordering::Acquire);
                if cur.is_null() {
                    break;
                }
                // SAFETY: reachable from `pred` under the prune lock.
                let v = unsafe { &*cur };
                if v.is_aborted_garbage() {
                    // Unlink the single aborted version (readers skip it
                    // anyway; the epoch defers its destruction past them).
                    let next = v.prev.load(Ordering::Acquire);
                    pred.prev.store(next, Ordering::Release);
                    // SAFETY: unlinked under the prune lock; Box-allocated.
                    unsafe { guard.defer_unchecked(move || drop(Box::from_raw(cur))) };
                    freed += 1;
                    continue; // same pred, new successor
                }
                match unpack(v.end.load(Ordering::Acquire)) {
                    WordView::Ts(e) if e != END_INF && e <= watermark => {
                        // Dead: unlink and retire the whole suffix. Every
                        // older version is dead too (committed with an even
                        // smaller end, or aborted garbage).
                        pred.prev.store(std::ptr::null_mut(), Ordering::Release);
                        let mut dead = cur;
                        while !dead.is_null() {
                            // SAFETY: the suffix is unreachable from the
                            // head; destruction deferred past live pins.
                            let older = unsafe { &*dead }.prev.load(Ordering::Acquire);
                            let p = dead;
                            // SAFETY: as above — unreachable suffix node.
                            unsafe { guard.defer_unchecked(move || drop(Box::from_raw(p))) };
                            freed += 1;
                            dead = older;
                        }
                        break;
                    }
                    _ => pred = v,
                }
            }
        }
        // Head reclamation: if what remains is a single committed tombstone
        // old enough that every in-flight and future reader sees absence
        // either way, unlink it. The end-word seal must come first — a
        // successful CAS (∞ → begin) excludes every future supersede, and
        // inserts cannot target a chain holding a committed version, so
        // after the seal no push can move the head and the head CAS below
        // is uncontended. A failed seal means a writer superseded the
        // tombstone first (a re-insert): leave everything to them.
        let head = slot.head.load(Ordering::Acquire);
        if !head.is_null() {
            // SAFETY: reachable under the prune lock; epoch-deferred frees.
            let h = unsafe { &*head };
            if h.is_tombstone() && h.prev.load(Ordering::Acquire).is_null() {
                if let WordView::Ts(b) = unpack(h.begin.load(Ordering::Acquire)) {
                    if b != ABORTED_SENTINEL
                        && b <= watermark
                        && h.end
                            // RELAXED: failure-order only — failure means a
                            // writer superseded the tombstone; we abandon
                            // without reading through the result.
                            .compare_exchange(END_INF, b, Ordering::AcqRel, Ordering::Relaxed)
                            .is_ok()
                        && slot
                            .head
                            .compare_exchange(
                                head,
                                std::ptr::null_mut(),
                                Ordering::AcqRel,
                                // RELAXED: failure-order only, as above.
                                Ordering::Relaxed,
                            )
                            .is_ok()
                    {
                        // SAFETY: unlinked; destruction deferred past pins.
                        unsafe { guard.defer_unchecked(move || drop(Box::from_raw(head))) };
                        freed += 1;
                    }
                }
            }
        }
        lock.store(0, Ordering::Release);
        freed
    }
}

impl Drop for HekatonStore {
    fn drop(&mut self) {
        for t in &self.tables {
            for s in t.slots.iter() {
                // RELAXED: `&mut self` in Drop proves exclusive access; all
                // prior writers are already synchronized-with.
                let mut cur = s.head.load(Ordering::Relaxed);
                while !cur.is_null() {
                    // SAFETY: exclusive access via &mut self (Drop).
                    let v = unsafe { Box::from_raw(cur) };
                    // RELAXED: as above — no concurrency in Drop.
                    cur = v.prev.load(Ordering::Relaxed);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::END_INF;

    #[test]
    fn seeding_creates_one_committed_version_per_row() {
        let s = HekatonStore::new(&[(4, 8)]);
        s.seed_u64(0, |r| r * 2);
        for row in 0..4 {
            let rid = RecordId::new(0, row);
            assert_eq!(s.chain_depth(rid), 1);
            let head = s.head(rid).load(Ordering::Acquire);
            // SAFETY: single-threaded test; the seeded head is live.
            let v = unsafe { &*head };
            assert_eq!(bohm_common::value::get_u64(v.data(), 0), row * 2);
            assert_eq!(v.end.load(Ordering::Relaxed), END_INF);
        }
    }

    #[test]
    fn push_links_chain() {
        let s = HekatonStore::new(&[(1, 8)]);
        s.seed_u64(0, |_| 1);
        let rid = RecordId::new(0, 0);
        let t = crate::txn::HkTxn::new(5);
        let nv = Box::into_raw(Box::new(HkVersion::uncommitted(
            &t,
            bohm_common::value::of_u64(2, 8),
        )));
        s.push(rid, nv);
        assert_eq!(s.chain_depth(rid), 2);
        assert_eq!(s.head(rid).load(Ordering::Acquire), nv);
    }

    #[test]
    fn multiple_tables_are_independent() {
        let s = HekatonStore::new(&[(2, 8), (3, 16)]);
        s.seed_u64(0, |_| 1);
        s.seed_u64(1, |_| 2);
        assert_eq!(s.rows(0), 2);
        assert_eq!(s.rows(1), 3);
        assert_eq!(s.record_size(RecordId::new(1, 0)), 16);
    }
}

/// Controlled-scheduler models of the version-chain protocol
/// (`RUSTFLAGS="--cfg bohm_modelcheck" cargo test -p bohm-hekaton modelcheck`).
///
/// Push, prune and scan race on one record with every interleaving the
/// seeds reach. The invariants the models assert are the ones the stress
/// tests can only sample: a scanner never observes a depth outside the
/// set of chain shapes the protocol can produce, the seeded committed
/// version is never reclaimed, and the prune try-lock plus epoch deferral
/// never let a reader walk freed memory (the race detector and address
/// sanitizer of the model runtime would flag it).
#[cfg(all(test, bohm_modelcheck))]
mod modelcheck {
    use super::*;
    use bohm_sync::model;
    use std::sync::Arc;

    /// One record seeded with a committed version; a writer stacks an
    /// aborted uncommitted version and then a committed successor on top
    /// while a pruner (watermark 0: only aborted garbage is reclaimable)
    /// and a depth scanner race the pushes.
    fn push_prune_scan_model() {
        let s = Arc::new(HekatonStore::new(&[(1, 8)]));
        s.seed_u64(0, |_| 1);
        let rid = RecordId::new(0, 0);
        let writer = {
            let s = Arc::clone(&s);
            bohm_sync::thread::spawn(move || {
                let t = crate::txn::HkTxn::new(5);
                let aborted = Box::into_raw(Box::new(HkVersion::uncommitted(
                    &t,
                    bohm_common::value::of_u64(2, 8),
                )));
                s.push(rid, aborted);
                // SAFETY: published above; the store now owns the
                // allocation and frees it via prune's epoch deferral.
                unsafe { &*aborted }.mark_aborted();
                // A committed successor on top, leaving the aborted
                // version as a mid-chain node prune must unlink.
                let committed = Box::into_raw(Box::new(HkVersion::committed(
                    7,
                    bohm_common::value::of_u64(3, 8),
                )));
                s.push(rid, committed);
            })
        };
        let pruner = {
            let s = Arc::clone(&s);
            bohm_sync::thread::spawn(move || {
                let g = epoch::pin();
                s.prune(rid, 0, &g);
            })
        };
        let scanner = {
            let s = Arc::clone(&s);
            bohm_sync::thread::spawn(move || {
                let d = s.chain_depth(rid);
                // seed | {aborted,committed} ∪ seed | all three.
                assert!((1..=3).contains(&d), "impossible chain depth {d}");
            })
        };
        writer.join().unwrap();
        pruner.join().unwrap();
        scanner.join().unwrap();
        // Quiescent cleanup: whatever the racing pruner managed, one more
        // pass must leave exactly [committed(7), seed] — the aborted node
        // gone, the live seed untouched.
        let g = epoch::pin();
        s.prune(rid, 0, &g);
        drop(g);
        assert_eq!(s.chain_depth(rid), 2);
        let head = s.head(rid).load(Ordering::Acquire);
        // SAFETY: all model threads joined; no concurrent reclamation.
        let h = unsafe { &*head };
        assert_eq!(bohm_common::value::get_u64(h.data(), 0), 3);
        let seed = h.prev.load(Ordering::Acquire);
        // SAFETY: as above — quiescent chain walk.
        assert_eq!(bohm_common::value::get_u64(unsafe { &*seed }.data(), 0), 1);
    }

    #[test]
    fn push_prune_scan_explored() {
        model::explore(model::Options::default(), push_prune_scan_model);
    }
}
