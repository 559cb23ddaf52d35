//! Two-phase locking baseline (paper §4, "our 2PL implementation").
//!
//! The paper's locking baseline has three properties, all present here:
//!
//! * **Fine-grained latching** — per-record lock words (see `bohm-lockmgr`),
//!   no centralized latch.
//! * **Deadlock freedom** — advance knowledge of read/write sets lets every
//!   transaction acquire its locks in lexicographic (global slot) order, so
//!   no deadlock-detection logic exists.
//! * **No lock-table-entry allocation** — lock words are pre-sized from the
//!   catalog; the per-worker request buffer is reused across transactions,
//!   so the steady-state execute path performs zero allocations.
//!
//! Being pessimistic and deadlock-free, this engine never aborts for
//! concurrency control; the only aborts are logic (user) aborts, and those
//! must be decided before the first write (the same contract every engine
//! in this workspace shares, because 2PL updates records in place without
//! an undo log).

use bohm_common::engine::{Engine, ExecOutcome};
use bohm_common::{AbortReason, Access, RecordId, Txn};
use bohm_lockmgr::{LockMode, LockRequest, LockTable};
use bohm_svstore::{SingleVersionStore, StoreBuilder};

/// The 2PL engine: a single-version store plus a lock table.
pub struct TwoPhaseLocking {
    store: SingleVersionStore,
    locks: LockTable,
}

/// Per-worker reusable buffers (lock requests + procedure scratch).
pub struct TplWorker {
    reqs: Vec<LockRequest>,
    scratch: bohm_common::ExecScratch,
}

impl TwoPhaseLocking {
    /// Build from a pre-populated store.
    pub fn new(store: SingleVersionStore) -> Self {
        let locks = LockTable::new(store.total_slots());
        Self { store, locks }
    }

    /// Convenience constructor from a store builder.
    pub fn from_builder(builder: StoreBuilder) -> Self {
        Self::new(builder.build())
    }

    pub fn store(&self) -> &SingleVersionStore {
        &self.store
    }
}

/// In-place record access under held locks.
struct TplAccess<'a> {
    store: &'a SingleVersionStore,
    txn: &'a Txn,
}

impl Access for TplAccess<'_> {
    fn read_maybe(&mut self, idx: usize, mut out: impl FnMut(&[u8])) -> Result<bool, AbortReason> {
        let rid = self.txn.reads[idx];
        let table = self.store.table(rid);
        // The lock covers the slot whether or not a record exists in it, so
        // "absent" is as stable an answer as any payload for the duration
        // of the transaction.
        if !table.is_present(rid.row as usize) {
            return Ok(false);
        }
        // SAFETY: the worker holds a shared or exclusive lock on this
        // record for the duration of the transaction (strict 2PL).
        unsafe { table.read(rid.row as usize, &mut out) };
        Ok(true)
    }

    fn write(&mut self, idx: usize, data: &[u8]) -> Result<(), AbortReason> {
        let rid = self.txn.writes[idx];
        let table = self.store.table(rid);
        // SAFETY: exclusive lock held (write-set entries lock Exclusive).
        unsafe { table.write(rid.row as usize, data) };
        // First write to a reserved slot is the insert; the lock release
        // publishes flag and payload together.
        table.mark_present(rid.row as usize);
        Ok(())
    }

    fn delete(&mut self, idx: usize) -> Result<(), AbortReason> {
        let rid = self.txn.writes[idx];
        // Exclusive lock held on the slot (write-set entries lock Exclusive),
        // so clearing the flag is race-free and the lock release publishes
        // it; deleting an already-absent slot is a no-op under the same
        // lock. The slot returns to the table's free pool immediately.
        self.store.table(rid).clear_present(rid.row as usize);
        Ok(())
    }

    /// Phantom protection is the lock set. For a range, `execute`
    /// acquired a shared lock on *every* slot of it, present or absent —
    /// the lock on an absent slot is the gap/next-key lock that blocks a
    /// concurrent insert into the range until this transaction releases
    /// (and a delete needs the same exclusive lock). For an index scan,
    /// the scanned key's posting-list record is a declared read, so its
    /// shared lock is held for the whole transaction — and an *empty*
    /// posting list is still a locked record, i.e. the gap lock that
    /// blocks a concurrent NewOrder from adding the key's first member.
    /// Maintenance (NewOrder/Delivery) needs the same lock exclusively, so
    /// the membership observed is stable. Member rows are read WITHOUT
    /// their own slot locks, under the covering-writer contract: their
    /// payloads cannot change (or be deleted/torn) while we read them.
    ///
    /// # Safety
    ///
    /// `rid` must be covered (the trait's contract): that coverage is the
    /// lock this read relies on. A row beyond the table's capacity panics.
    unsafe fn read_covered(
        &mut self,
        rid: RecordId,
        mut out: impl FnMut(&[u8]),
    ) -> Result<bool, AbortReason> {
        let table = self.store.table(rid);
        assert!(
            (rid.row as usize) < table.rows(),
            "{rid:?} beyond table capacity {}",
            table.rows()
        );
        if !table.is_present(rid.row as usize) {
            return Ok(false);
        }
        // SAFETY: the caller's coverage: a shared lock on the slot, or on
        // the posting list that lists it (covering-writer contract).
        unsafe { table.read(rid.row as usize, &mut out) };
        Ok(true)
    }

    fn write_len(&mut self, idx: usize) -> usize {
        self.store.table(self.txn.writes[idx]).record_size()
    }
}

impl Engine for TwoPhaseLocking {
    type Worker = TplWorker;

    fn name(&self) -> &'static str {
        "2PL"
    }

    fn make_worker(&self) -> TplWorker {
        TplWorker {
            reqs: Vec::with_capacity(32),
            scratch: bohm_common::ExecScratch::new(),
        }
    }

    fn execute(&self, txn: &Txn, w: &mut TplWorker) -> ExecOutcome {
        // Growing phase: everything, in sorted order, before any access.
        w.reqs.clear();
        for rid in &txn.reads {
            w.reqs.push(LockRequest {
                slot: self.store.slot(*rid),
                mode: LockMode::Shared,
            });
        }
        for rid in &txn.writes {
            w.reqs.push(LockRequest {
                slot: self.store.slot(*rid),
                mode: LockMode::Exclusive,
            });
        }
        // Scans lock every slot of their range, absent slots included: the
        // shared lock on a slot holding no record is the gap/next-key lock
        // that keeps a concurrent insert (which needs it exclusively) out of
        // the range until this transaction releases — genuine phantom
        // protection, with no separate predicate-lock table needed because
        // the key space of a table is its dense slot array.
        for s in &txn.scans {
            let table = &self.store.tables()[s.table.index()];
            assert!(
                s.hi as usize <= table.rows(),
                "scan range {s:?} beyond table capacity {}",
                table.rows()
            );
            for row in s.rows() {
                w.reqs.push(LockRequest {
                    slot: self.store.slot(RecordId {
                        table: s.table,
                        row,
                    }),
                    mode: LockMode::Shared,
                });
            }
        }
        LockTable::normalize(&mut w.reqs);
        self.locks.acquire_raw(&w.reqs);

        txn.think();
        let result = bohm_common::execute_procedure(
            txn,
            &mut TplAccess {
                store: &self.store,
                txn,
            },
            &mut w.scratch,
        );

        // Shrinking phase.
        self.locks.release(&w.reqs);

        match result {
            Ok(fp) => ExecOutcome {
                committed: true,
                fingerprint: fp,
                cc_retries: 0,
            },
            Err(AbortReason::User) => ExecOutcome {
                committed: false,
                fingerprint: 0,
                cc_retries: 0,
            },
            Err(e) => unreachable!("2PL cannot raise {e:?}"),
        }
    }

    fn read_record(&self, rid: RecordId) -> Option<bohm_common::Value> {
        let table = self.store.table(rid);
        if (rid.row as usize) >= table.rows() || !table.is_present(rid.row as usize) {
            return None;
        }
        let mut v = None;
        // SAFETY: verification hook; caller guarantees quiescence.
        unsafe {
            table.read(rid.row as usize, &mut |b| v = Some(b.into()));
        }
        v
    }

    fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        // Quiescent by the trait contract: no locks are held, so the
        // present bits and payloads are the committed state.
        self.store.for_each_present(f);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::{Procedure, SmallBankProc};
    use std::sync::Arc;

    fn engine(rows: usize) -> TwoPhaseLocking {
        let mut b = StoreBuilder::new();
        b.add_table(rows, 8);
        b.seed_u64(0, |r| r);
        TwoPhaseLocking::from_builder(b)
    }

    fn rmw(k: u64, delta: u64) -> Txn {
        let rid = RecordId::new(0, k);
        Txn::new(vec![rid], vec![rid], Procedure::ReadModifyWrite { delta })
    }

    #[test]
    fn rmw_commits_and_updates_in_place() {
        let e = engine(8);
        let mut w = e.make_worker();
        let out = e.execute(&rmw(3, 10), &mut w);
        assert!(out.committed);
        assert_eq!(out.cc_retries, 0);
        assert_eq!(e.read_u64(RecordId::new(0, 3)), Some(13));
    }

    #[test]
    fn user_abort_leaves_state_untouched() {
        let mut b = StoreBuilder::new();
        b.add_table(2, 8);
        b.seed_u64(0, |_| 5);
        let e = TwoPhaseLocking::from_builder(b);
        let mut w = e.make_worker();
        let sav = RecordId::new(0, 0);
        let t = Txn::new(
            vec![sav],
            vec![sav],
            Procedure::SmallBank(SmallBankProc::TransactSaving { v: -10 }),
        );
        let out = e.execute(&t, &mut w);
        assert!(!out.committed);
        assert_eq!(e.read_u64(sav), Some(5));
    }

    #[test]
    fn concurrent_hot_key_increments_are_exact() {
        let e = Arc::new(engine(4));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let mut w = e.make_worker();
                for _ in 0..5_000 {
                    assert!(e.execute(&rmw(1, 1), &mut w).committed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(e.read_u64(RecordId::new(0, 1)), Some(1 + 40_000));
    }

    #[test]
    fn overlapping_multi_record_rmws_conserve_totals() {
        // Pairs of +1/-1 double-RMWs over random overlapping pairs: the
        // wrapping total is invariant iff 2PL provides isolation.
        let e = Arc::new(engine(16));
        let total_before = (0..16).fold(0u64, |acc, k| {
            acc.wrapping_add(e.read_u64(RecordId::new(0, k)).unwrap())
        });
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let mut w = e.make_worker();
                let mut x = t.wrapping_mul(0x9E3779B97F4A7C15) | 1;
                for _ in 0..5_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let a = x % 16;
                    let b = (x >> 8) % 16;
                    if a == b {
                        continue;
                    }
                    let (r1, r2) = (RecordId::new(0, a), RecordId::new(0, b));
                    let up = Txn::new(
                        vec![r1, r2],
                        vec![r1, r2],
                        Procedure::ReadModifyWrite { delta: 1 },
                    );
                    let down = Txn::new(
                        vec![r1, r2],
                        vec![r1, r2],
                        Procedure::ReadModifyWrite {
                            delta: 1u64.wrapping_neg(),
                        },
                    );
                    assert!(e.execute(&up, &mut w).committed);
                    assert!(e.execute(&down, &mut w).committed);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let total_after = (0..16).fold(0u64, |acc, k| {
            acc.wrapping_add(e.read_u64(RecordId::new(0, k)).unwrap())
        });
        assert_eq!(total_before, total_after);
    }

    #[test]
    fn read_u64_bounds() {
        let e = engine(4);
        assert_eq!(e.read_u64(RecordId::new(0, 3)), Some(3));
        assert_eq!(e.read_u64(RecordId::new(0, 4)), None);
    }

    #[test]
    fn insert_into_spare_slot_becomes_visible() {
        let mut b = StoreBuilder::new();
        b.add_table_with_spare(2, 2, 8);
        b.seed_u64(0, |r| r);
        let e = TwoPhaseLocking::from_builder(b);
        let mut w = e.make_worker();
        let fresh = RecordId::new(0, 3);
        assert_eq!(e.read_u64(fresh), None, "spare slot starts absent");
        let t = Txn::new(vec![], vec![fresh], Procedure::BlindWrite { value: 9 });
        assert!(e.execute(&t, &mut w).committed);
        assert_eq!(e.read_u64(fresh), Some(9));
        assert_eq!(e.store().row_count(0), 3);
    }

    #[test]
    fn delete_then_reinsert_recycles_the_slot() {
        let mut b = StoreBuilder::new();
        b.add_table(4, 8);
        b.seed_u64(0, |r| r + 10);
        let e = TwoPhaseLocking::from_builder(b);
        let mut w = e.make_worker();
        let guard = RecordId::new(0, 0);
        let victim = RecordId::new(0, 2);
        let del = Txn::new(
            vec![guard],
            vec![victim],
            Procedure::GuardedDelete { min: 0 },
        );
        assert!(e.execute(&del, &mut w).committed);
        assert_eq!(e.read_u64(victim), None, "deleted row reads absent");
        assert_eq!(e.store().row_count(0), 3);
        assert_eq!(e.store().free_slots(0), 1, "slot returned to free pool");
        // Reuse the slot.
        let ins = Txn::new(vec![], vec![victim], Procedure::BlindWrite { value: 77 });
        assert!(e.execute(&ins, &mut w).committed);
        assert_eq!(e.read_u64(victim), Some(77));
        assert_eq!(e.store().free_slots(0), 0);
    }

    #[test]
    fn aborted_delete_leaves_row_readable_and_slot_unreclaimed() {
        let mut b = StoreBuilder::new();
        b.add_table(2, 8);
        b.seed_u64(0, |_| 0); // guard value 0 < min ⇒ user abort
        let e = TwoPhaseLocking::from_builder(b);
        let mut w = e.make_worker();
        let victim = RecordId::new(0, 1);
        let del = Txn::new(
            vec![RecordId::new(0, 0)],
            vec![victim],
            Procedure::GuardedDelete { min: 1 },
        );
        assert!(!e.execute(&del, &mut w).committed);
        assert_eq!(e.read_u64(victim), Some(0), "aborted delete rolls back");
        assert_eq!(e.store().free_slots(0), 0);
    }

    #[test]
    fn concurrent_delete_insert_churn_stays_consistent() {
        // Threads alternate delete/insert of a shared row under 2PL; the
        // final state must be either a committed insert value or absent —
        // never a torn/half state — and the presence counter must agree
        // with the flag.
        let mut b = StoreBuilder::new();
        b.add_table(2, 8);
        b.seed_u64(0, |_| 1);
        let e = Arc::new(TwoPhaseLocking::from_builder(b));
        let hot = RecordId::new(0, 1);
        let guard = RecordId::new(0, 0);
        let mut handles = Vec::new();
        for t in 0..4u64 {
            let e = Arc::clone(&e);
            handles.push(std::thread::spawn(move || {
                let mut w = e.make_worker();
                for i in 0..2_000u64 {
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
            assert!((100..104).contains(&v), "value from some insert: {v}");
        }
        let expect = 1 + u64::from(e.read_u64(hot).is_some());
        assert_eq!(e.store().row_count(0), expect);
    }

    #[test]
    fn scan_observes_membership_under_range_locks() {
        use bohm_common::{range_audit_fingerprint, ScanRange, SCAN_POISON_GAP};
        let mut b = StoreBuilder::new();
        b.add_table_with_spare(2, 3, 8); // rows 0,1 seeded; 2..5 absent
        b.seed_u64(0, |r| 10 + r);
        let e = TwoPhaseLocking::from_builder(b);
        let mut w = e.make_worker();
        let audit = || {
            Txn::with_scans(
                vec![],
                vec![],
                vec![ScanRange::new(0, 0, 5)],
                Procedure::RangeAudit { expect_base: 10 },
            )
        };
        let out = e.execute(&audit(), &mut w);
        assert!(out.committed);
        assert_eq!(out.fingerprint, range_audit_fingerprint(2, 0));
        // Insert row 2 (value 12, per the keyed convention): run grows.
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
        // Delete row 1: the hole is visible as a gap.
        let del = Txn::new(
            vec![RecordId::new(0, 0)],
            vec![RecordId::new(0, 1)],
            Procedure::GuardedDelete { min: 0 },
        );
        assert!(e.execute(&del, &mut w).committed);
        assert_eq!(e.execute(&audit(), &mut w).fingerprint, SCAN_POISON_GAP);
    }

    #[test]
    fn absent_read_reports_absence_not_garbage() {
        use bohm_common::{TpcCProc, ABSENT_FINGERPRINT};
        let mut b = StoreBuilder::new();
        b.add_table(1, 8); // customer stand-in
        b.add_table_with_spare(0, 4, 8); // order stand-in, empty
        b.seed_u64(0, |_| 5);
        let e = TwoPhaseLocking::from_builder(b);
        let mut w = e.make_worker();
        let t = Txn::new(
            vec![RecordId::new(0, 0), RecordId::new(1, 2)],
            vec![],
            Procedure::TpcC(TpcCProc::OrderStatus),
        );
        let out = e.execute(&t, &mut w);
        assert!(out.committed);
        assert_eq!(
            out.fingerprint,
            5u64.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT)
        );
    }
}
