//! Test substrate: a serial oracle and equivalence checkers.
//!
//! The core correctness claim of every engine here is serializability:
//! the concurrent execution must be equivalent to *some* serial order —
//! and for BOHM specifically to **the log order** (paper §3.3.3: timestamp
//! order *is* the serialization order). The [`SerialOracle`] executes the
//! same transactions one at a time on a plain in-memory store; comparing
//! final states and per-transaction outcomes against it is how the
//! integration and property tests validate the engines.
//!
//! The oracle models the full record lifecycle: tables have a seeded
//! prefix plus absent headroom slots ([`TableDef::spare_rows`]); a write
//! to an absent slot is an insert, reads of absent slots succeed through
//! [`Access::read_maybe`], and [`row_count`](SerialOracle::row_count)
//! exposes how many records exist — so equivalence checks validate
//! inserted rows, not just updated ones.

use bohm_common::engine::ExecOutcome;
use bohm_common::{AbortReason, Access, RecordId, Txn};
use bohm_workloads::{DatabaseSpec, TableDef};

/// A trivially-correct single-threaded executor.
pub struct SerialOracle {
    /// `None` = slot reserved but absent (never inserted / headroom).
    tables: Vec<Vec<Option<Box<[u8]>>>>,
    record_sizes: Vec<usize>,
    scratch: bohm_common::ExecScratch,
}

struct OracleAccess<'a> {
    tables: &'a Vec<Vec<Option<Box<[u8]>>>>,
    record_sizes: &'a [usize],
    txn: &'a Txn,
    /// Buffered writes and deletes (`None` = delete), applied in order only
    /// on commit (keeps the oracle correct even for procedures that violate
    /// the abort-before-write contract).
    pending: Vec<(RecordId, Option<Box<[u8]>>)>,
}

impl Access for OracleAccess<'_> {
    fn read_maybe(&mut self, idx: usize, mut out: impl FnMut(&[u8])) -> Result<bool, AbortReason> {
        let rid = self.txn.reads[idx];
        if let Some((_, data)) = self.pending.iter().rev().find(|(r, _)| *r == rid) {
            return Ok(match data {
                Some(d) => {
                    out(d);
                    true
                }
                None => false, // deleted by this transaction
            });
        }
        match &self.tables[rid.table.index()][rid.row as usize] {
            Some(data) => {
                out(data);
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn write(&mut self, idx: usize, data: &[u8]) -> Result<(), AbortReason> {
        let rid = self.txn.writes[idx];
        assert_eq!(
            data.len(),
            self.record_sizes[rid.table.index()],
            "payload must be record-sized"
        );
        self.pending.push((rid, Some(data.into())));
        Ok(())
    }

    fn delete(&mut self, idx: usize) -> Result<(), AbortReason> {
        self.pending.push((self.txn.writes[idx], None));
        Ok(())
    }

    /// Serial semantics are the reference the engines' phantom protection
    /// must reproduce: the row as committed at this transaction's position
    /// in the log. (Scans must not overlap the transaction's own write
    /// set, so the pending buffer is deliberately not consulted.)
    ///
    /// # Safety
    ///
    /// None beyond the trait's contract: the oracle is single-threaded. A
    /// row beyond the table's capacity panics.
    unsafe fn read_covered(
        &mut self,
        rid: RecordId,
        mut out: impl FnMut(&[u8]),
    ) -> Result<bool, AbortReason> {
        let table = &self.tables[rid.table.index()];
        let Some(row) = table.get(rid.row as usize) else {
            panic!("{rid:?} beyond table capacity {}", table.len());
        };
        Ok(row.as_deref().map(&mut out).is_some())
    }

    fn write_len(&mut self, idx: usize) -> usize {
        self.record_sizes[self.txn.writes[idx].table.index()]
    }
}

impl SerialOracle {
    pub fn new(spec: &DatabaseSpec) -> Self {
        let tables = spec
            .tables
            .iter()
            .map(|t| {
                (0..t.capacity())
                    .map(|row| {
                        (row < t.rows)
                            .then(|| bohm_common::value::of_u64((t.seed)(row), t.record_size))
                    })
                    .collect()
            })
            .collect();
        Self {
            tables,
            record_sizes: spec.tables.iter().map(|t| t.record_size).collect(),
            scratch: bohm_common::ExecScratch::new(),
        }
    }

    /// Execute one transaction serially; returns the same outcome shape the
    /// engines report.
    pub fn apply(&mut self, txn: &Txn) -> ExecOutcome {
        let mut access = OracleAccess {
            tables: &self.tables,
            record_sizes: &self.record_sizes,
            txn,
            pending: Vec::new(),
        };
        match bohm_common::execute_procedure(txn, &mut access, &mut self.scratch) {
            Ok(fp) => {
                let pending = access.pending;
                for (rid, data) in pending {
                    // A write to an absent slot is the record's insert; a
                    // `None` entry is a delete, returning the slot to the
                    // absent pool (re-insertable by a later transaction).
                    self.tables[rid.table.index()][rid.row as usize] = data;
                }
                ExecOutcome {
                    committed: true,
                    fingerprint: fp,
                    cc_retries: 0,
                }
            }
            Err(AbortReason::User) => ExecOutcome {
                committed: false,
                fingerprint: 0,
                cc_retries: 0,
            },
            Err(e) => unreachable!("oracle cannot raise {e:?}"),
        }
    }

    /// Current `u64` prefix of a record; `None` while the record is absent.
    pub fn read_u64(&self, rid: RecordId) -> Option<u64> {
        self.tables[rid.table.index()][rid.row as usize]
            .as_deref()
            .map(|d| bohm_common::value::get_u64(d, 0))
    }

    /// Raw record bytes, if the record exists.
    pub fn read_record(&self, rid: RecordId) -> Option<&[u8]> {
        self.tables[rid.table.index()][rid.row as usize].as_deref()
    }

    /// Slot capacity of a table (seeded rows + insert headroom).
    pub fn table_rows(&self, table: usize) -> u64 {
        self.tables[table].len() as u64
    }

    /// Number of records that exist in `table` (seeded + inserted).
    pub fn row_count(&self, table: usize) -> u64 {
        self.tables[table].iter().filter(|r| r.is_some()).count() as u64
    }
}

/// Replay `txns` serially and compare against an engine's observed
/// per-transaction outcomes and final state.
///
/// `read_final` exposes the engine's committed value of each record after
/// the run — `None` for records the engine considers absent, which must
/// agree with the oracle slot-for-slot across the full capacity (so both
/// missing inserts and phantom inserts are caught). Returns a description
/// of the first divergence, if any.
pub fn check_serial_equivalence(
    spec: &DatabaseSpec,
    txns: &[Txn],
    outcomes: &[ExecOutcome],
    read_final: impl Fn(RecordId) -> Option<u64>,
) -> Result<(), String> {
    assert_eq!(txns.len(), outcomes.len());
    let mut oracle = SerialOracle::new(spec);
    for (i, (t, got)) in txns.iter().zip(outcomes).enumerate() {
        let want = oracle.apply(t);
        if want.committed != got.committed {
            return Err(format!(
                "txn {i}: engine {} but serial order says {}",
                if got.committed {
                    "committed"
                } else {
                    "aborted"
                },
                if want.committed { "commit" } else { "abort" },
            ));
        }
        if want.committed && want.fingerprint != got.fingerprint {
            return Err(format!(
                "txn {i}: read fingerprint {:#x} != serial {:#x} (reads observed a non-log-order state)",
                got.fingerprint, want.fingerprint
            ));
        }
    }
    for (tid, tdef) in spec.tables.iter().enumerate() {
        for row in 0..tdef.capacity() {
            let rid = RecordId::new(tid as u32, row);
            let want = oracle.read_u64(rid);
            let got = read_final(rid);
            if got != want {
                return Err(format!(
                    "final state diverges at {rid}: engine {got:?}, serial {want:?}"
                ));
            }
        }
    }
    Ok(())
}

/// Scan-vs-insert phantom hammer, runnable against any
/// [`BatchEngine`](bohm_common::engine::BatchEngine).
///
/// A writer thread alternately **materializes** the whole key window
/// `lo..lo+width` of `table` in one transaction
/// ([`Procedure::InsertKeyed`](bohm_common::Procedure::InsertKeyed), values `base + row`) and **dissolves** it
/// in one transaction ([`Procedure::GuardedDelete`](bohm_common::Procedure::GuardedDelete) over the window), for
/// `rounds` rounds. Concurrent scanner threads run
/// [`Procedure::RangeAudit`](bohm_common::Procedure::RangeAudit) over the window in a loop: because every
/// serial state of the window is "entirely present" or "entirely absent",
/// every scan must fingerprint as exactly one of those two — any other
/// outcome (a partial count, a gap, a torn value) is a phantom or
/// non-serializable scan, and the hammer panics with the offending
/// fingerprint.
///
/// `guard` must name an existing record whose `u64` prefix is ≥ 0 forever
/// (any seeded row) — it is the GuardedDelete guard read.
pub fn phantom_hammer<E: bohm_common::engine::BatchEngine>(
    engine: &E,
    guard: RecordId,
    table: u32,
    lo: u64,
    width: u64,
    rounds: u64,
) {
    phantom_hammer_ranges(engine, guard, table, lo, width, rounds, 1);
}

/// [`phantom_hammer`] with the scanners' window declared as `ranges`
/// adjacent [`ScanRange`](bohm_common::ScanRange)s instead of one — the
/// **multi-range-per-transaction** mode. Each scan transaction covers the
/// whole window split into `ranges` pieces; since every engine must give
/// the *transaction* one position in the serial order, the pieces must
/// observe the same serial point — a transaction whose first range sees
/// the materialized window while its second sees the dissolved one
/// fingerprints as a partial count or gap and panics.
pub fn phantom_hammer_ranges<E: bohm_common::engine::BatchEngine>(
    engine: &E,
    guard: RecordId,
    table: u32,
    lo: u64,
    width: u64,
    rounds: u64,
    ranges: u64,
) {
    use bohm_common::engine::Session;
    use bohm_common::{range_audit_fingerprint, Procedure, ScanRange};
    use bohm_sync::atomic::{AtomicBool, Ordering};
    assert!(
        ranges >= 1 && ranges <= width,
        "window must split into ranges"
    );
    let window: Vec<RecordId> = (lo..lo + width).map(|r| RecordId::new(table, r)).collect();
    let base = 10_000u64;
    let fp_full = range_audit_fingerprint(width, lo);
    // Split the window into `ranges` adjacent pieces (first pieces take the
    // remainder), so the audited union is exactly `lo..lo+width`.
    let scans: Vec<ScanRange> = {
        let mut out = Vec::with_capacity(ranges as usize);
        let (chunk, rem) = (width / ranges, width % ranges);
        let mut at = lo;
        for i in 0..ranges {
            let len = chunk + u64::from(i < rem);
            out.push(ScanRange::new(table, at, at + len));
            at += len;
        }
        out
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = {
            let window = window.clone();
            let stop = &stop;
            s.spawn(move || {
                let mut sess = engine.open_session();
                let ins = Txn::new(vec![], window.clone(), Procedure::InsertKeyed { base });
                let del = Txn::new(vec![guard], window, Procedure::GuardedDelete { min: 0 });
                for _ in 0..rounds {
                    sess.submit(ins.clone());
                    assert!(sess.reap().committed, "window insert must commit");
                    sess.submit(del.clone());
                    assert!(sess.reap().committed, "window delete must commit");
                }
                // RELAXED: `stop` only ends the scanners' loops; every
                // correctness check flows through the engine, and the scope
                // join synchronizes the final counts.
                stop.store(true, Ordering::Relaxed);
            })
        };
        let mut scanners = Vec::new();
        for _ in 0..2 {
            let stop = &stop;
            let scans = &scans;
            scanners.push(s.spawn(move || {
                let mut sess = engine.open_session();
                let scan = Txn::with_scans(
                    vec![],
                    vec![],
                    scans.clone(),
                    Procedure::RangeAudit { expect_base: base },
                );
                let mut seen = 0u64;
                // A floor of scans keeps the audit meaningful even when a
                // fast writer drains its rounds before this thread spins up.
                // RELAXED: see the writer's store — a stale read just runs
                // one more harmless scan iteration.
                while !stop.load(Ordering::Relaxed) || seen < 64 {
                    sess.submit(scan.clone());
                    let out = sess.reap();
                    assert!(out.committed, "scans never abort");
                    assert!(
                        out.fingerprint == 0 || out.fingerprint == fp_full,
                        "phantom scan: fingerprint {:#x} is neither the empty \
                         nor the full window (full = {fp_full:#x})",
                        out.fingerprint
                    );
                    seen += 1;
                }
                seen
            }));
        }
        writer.join().unwrap();
        for sc in scanners {
            assert!(sc.join().unwrap() > 0, "scanner made no progress");
        }
    });
}

/// Index-key phantom hammer: NewOrder/Delivery churn of one customer's
/// posting list vs. concurrent
/// [`TpcCProc::CustomerStatus`](bohm_common::TpcCProc::CustomerStatus)
/// index scanners, runnable against any engine.
///
/// The writer repeatedly inserts `delivery_batch` orders for **one fixed
/// customer** (one NewOrder per transaction, ring rows `0..B`, identical
/// payloads every round) and then delivers — deletes and unindexes — all
/// of them in a single transaction. The only serial states of the
/// customer's posting set are therefore the prefixes `{}, {0}, {0,1}, …,
/// {0..B-1}` — so every concurrent CustomerStatus scan must fingerprint
/// as exactly one of those `B + 1` precomputed values. Anything else is a
/// phantom on the index key (a half-observed insert or delivery) or a
/// torn member read, and the hammer panics.
///
/// `cfg` must have the customer index, one stripe ring of exactly
/// `delivery_batch` slots (`order_capacity / order_stripes ==
/// delivery_batch`), and `orders_per_customer ≥ delivery_batch`; Payment
/// is never issued, so the customer balance (and thus the fingerprint
/// base) stays at the 100 000-cent seed.
pub fn index_phantom_hammer<E: bohm_common::engine::BatchEngine>(
    engine: &E,
    cfg: &bohm_workloads::tpcc::TpccConfig,
    rounds: u64,
) {
    use bohm_common::engine::Session;
    use bohm_common::value::{checksum, of_u64, put_u64};
    use bohm_sync::atomic::{AtomicBool, Ordering};
    use bohm_workloads::tpcc;
    let batch = cfg.delivery_batch;
    assert_eq!(
        cfg.orders_per_stripe(),
        batch,
        "stripe ring must hold exactly one delivery batch so rows repeat each round"
    );
    assert!(
        cfg.orders_per_customer >= batch,
        "posting list must fit the batch"
    );
    // Stripe 0's partition always contains global customer 0 = (w0,d0,c0).
    let (w, d, c) = (0, 0, 0);
    let spec = cfg.spec();
    let order_size = spec.tables[tpcc::tables::ORDER as usize].record_size;
    // Legal fingerprints: every prefix of the round's insertion order. The
    // member payload prefix is balance·1000 + lines (balance stays at the
    // 100_000 seed; lines fixed at 1), with the customer row id at byte 8.
    let payload = {
        let mut p = of_u64(100_000 * 1_000 + 1, order_size);
        put_u64(&mut p, 8, 0);
        p
    };
    let member_ck = checksum(&payload);
    let legal: Vec<u64> = (0..=batch)
        .map(|j| {
            let mut fp = 100_000u64;
            for row in 0..j {
                fp = fp.wrapping_mul(31).wrapping_add(row ^ member_ck);
            }
            fp.wrapping_mul(31).wrapping_add(j)
        })
        .collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let writer = {
            let stop = &stop;
            s.spawn(move || {
                let mut sess = engine.open_session();
                for round in 0..rounds {
                    for i in 0..batch {
                        sess.submit(tpcc::new_order(cfg, w, d, c, i, 1));
                        assert!(sess.reap().committed, "NewOrder must commit");
                    }
                    let custs = vec![0u64; batch as usize];
                    sess.submit(tpcc::delivery(cfg, 0, round * batch, batch, &custs));
                    assert!(sess.reap().committed, "Delivery must commit");
                }
                // RELAXED: exit flag only; no data is published through it.
                stop.store(true, Ordering::Relaxed);
            })
        };
        let mut scanners = Vec::new();
        for _ in 0..2 {
            let stop = &stop;
            let legal = &legal;
            scanners.push(s.spawn(move || {
                let mut sess = engine.open_session();
                let scan = tpcc::customer_status(cfg, w, d, c);
                let mut seen = 0u64;
                // RELAXED: stale reads only add extra scan iterations.
                while !stop.load(Ordering::Relaxed) || seen < 64 {
                    sess.submit(scan.clone());
                    let out = sess.reap();
                    assert!(out.committed, "index scans never abort");
                    assert!(
                        legal.contains(&out.fingerprint),
                        "index-key phantom: fingerprint {:#x} matches no \
                         prefix of the customer's posting set (legal: {legal:x?})",
                        out.fingerprint
                    );
                    seen += 1;
                }
                seen
            }));
        }
        writer.join().unwrap();
        for sc in scanners {
            assert!(sc.join().unwrap() > 0, "index scanner made no progress");
        }
    });
}

/// Count the records an engine exposes in `table` by probing every slot of
/// the declared capacity through its quiescent read hook.
pub fn engine_row_count(
    tdef: &TableDef,
    table: u32,
    read: impl Fn(RecordId) -> Option<u64>,
) -> u64 {
    (0..tdef.capacity())
        .filter(|&row| read(RecordId::new(table, row)).is_some())
        .count() as u64
}

// ---------------------------------------------------------------------------
// Allocation accounting
// ---------------------------------------------------------------------------

/// A [`GlobalAlloc`](std::alloc::GlobalAlloc) wrapper over the system
/// allocator that counts every allocation (count and bytes). Install it in
/// a test binary to prove a code path is allocation-free:
///
/// ```ignore
/// #[global_allocator]
/// static ALLOC: bohm_testkit::CountingAlloc = bohm_testkit::CountingAlloc;
///
/// let before = bohm_testkit::CountingAlloc::allocations();
/// hot_path();
/// assert!(bohm_testkit::CountingAlloc::allocations() - before < budget);
/// ```
///
/// Only `alloc`/`alloc_zeroed`/`realloc` are counted — frees are not, so a
/// steady-state window that only *returns* memory reads as zero. Counters
/// are global (`Relaxed` atomics): snapshot deltas around the window under
/// test rather than comparing absolute values, and keep such tests in their
/// own binary so parallel tests don't pollute the window.
///
/// A thread can ask for its own calls to be tallied a second time
/// ([`mark_this_thread`](Self::mark_this_thread)), which splits a window's
/// total into "the marked thread" and "everyone else" — a client's
/// per-submission cost apart from the pipeline's.
pub struct CountingAlloc;

static ALLOCATIONS: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(0);
static ALLOCATED_BYTES: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(0);
static MARKED_ALLOCATIONS: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(0);

thread_local! {
    // Const-initialised and drop-free: reading it never allocates or runs a
    // lazy initialiser, which is what lets the allocator itself look at it.
    static MARKED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

impl CountingAlloc {
    /// Start (or stop) tallying the calling thread's allocations in
    /// [`marked_allocations`](Self::marked_allocations) as well.
    pub fn mark_this_thread(on: bool) {
        MARKED.with(|m| m.set(on));
    }

    /// Allocation calls made by threads while they were marked.
    pub fn marked_allocations() -> u64 {
        // RELAXED: statistics counter, as below.
        MARKED_ALLOCATIONS.load(core::sync::atomic::Ordering::Relaxed)
    }

    fn count(bytes: usize) {
        // RELAXED: monotonic statistics; readers tolerate approximate views.
        ALLOCATIONS.fetch_add(1, core::sync::atomic::Ordering::Relaxed);
        // RELAXED: as above.
        ALLOCATED_BYTES.fetch_add(bytes as u64, core::sync::atomic::Ordering::Relaxed);
        // `try_with`: a thread tearing down its locals still allocates.
        if MARKED.try_with(|m| m.get()).unwrap_or(false) {
            // RELAXED: as above.
            MARKED_ALLOCATIONS.fetch_add(1, core::sync::atomic::Ordering::Relaxed);
        }
    }

    /// Total allocation calls since process start.
    pub fn allocations() -> u64 {
        // RELAXED: statistics counter; callers only diff it around a
        // single-threaded region.
        ALLOCATIONS.load(core::sync::atomic::Ordering::Relaxed)
    }

    /// Total bytes requested since process start (reallocs count their new
    /// size in full).
    pub fn allocated_bytes() -> u64 {
        // RELAXED: statistics counter, as above.
        ALLOCATED_BYTES.load(core::sync::atomic::Ordering::Relaxed)
    }
}

// The counters deliberately use raw `core::sync::atomic` instead of the
// `bohm_sync` facade: a global allocator runs under every thread including
// the model scheduler itself, and instrumenting it would recurse (the
// scheduler allocates while recording the allocation's yield point).
//
// SAFETY: every method delegates to `std::alloc::System` with the caller's
// exact layout; the counter bumps have no effect on allocation semantics.
unsafe impl std::alloc::GlobalAlloc for CountingAlloc {
    // SAFETY: forwards to `System.alloc` under the caller's contract.
    unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
        Self::count(layout.size());
        std::alloc::System.alloc(layout)
    }

    // SAFETY: forwards to `System.alloc_zeroed` under the caller's contract.
    unsafe fn alloc_zeroed(&self, layout: std::alloc::Layout) -> *mut u8 {
        Self::count(layout.size());
        std::alloc::System.alloc_zeroed(layout)
    }

    // SAFETY: forwards to `System.realloc` under the caller's contract.
    unsafe fn realloc(&self, ptr: *mut u8, layout: std::alloc::Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        std::alloc::System.realloc(ptr, layout, new_size)
    }

    // SAFETY: forwards to `System.dealloc` under the caller's contract.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
        std::alloc::System.dealloc(ptr, layout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::{Procedure, SmallBankProc, TpcCProc, ABSENT_FINGERPRINT};
    use bohm_workloads::TableDef;

    fn spec() -> DatabaseSpec {
        DatabaseSpec::new(vec![TableDef {
            rows: 4,
            spare_rows: 0,
            record_size: 8,
            seed: |r| r * 100,
        }])
    }

    fn spec_with_headroom() -> DatabaseSpec {
        DatabaseSpec::new(vec![TableDef {
            rows: 2,
            spare_rows: 3,
            record_size: 8,
            seed: |r| r * 100,
        }])
    }

    fn rmw(k: u64, d: u64) -> Txn {
        let rid = RecordId::new(0, k);
        Txn::new(
            vec![rid],
            vec![rid],
            Procedure::ReadModifyWrite { delta: d },
        )
    }

    #[test]
    fn oracle_seeds_and_applies() {
        let mut o = SerialOracle::new(&spec());
        assert_eq!(o.read_u64(RecordId::new(0, 2)), Some(200));
        let out = o.apply(&rmw(2, 5));
        assert!(out.committed);
        assert_eq!(o.read_u64(RecordId::new(0, 2)), Some(205));
    }

    #[test]
    fn oracle_buffers_aborted_writes() {
        let mut o = SerialOracle::new(&spec());
        let sav = RecordId::new(0, 0); // value 0
        let t = Txn::new(
            vec![sav],
            vec![sav],
            Procedure::SmallBank(SmallBankProc::TransactSaving { v: -10 }),
        );
        assert!(!o.apply(&t).committed);
        assert_eq!(o.read_u64(sav), Some(0));
    }

    #[test]
    fn oracle_read_own_write_within_txn() {
        // Two blind writes of the same record: second wins.
        let rid = RecordId::new(0, 1);
        let t = Txn::new(vec![], vec![rid, rid], Procedure::BlindWrite { value: 9 });
        let mut o = SerialOracle::new(&spec());
        o.apply(&t);
        assert_eq!(o.read_u64(rid), Some(9));
    }

    #[test]
    fn oracle_inserts_and_counts_rows() {
        let mut o = SerialOracle::new(&spec_with_headroom());
        assert_eq!(o.row_count(0), 2);
        assert_eq!(o.table_rows(0), 5);
        let fresh = RecordId::new(0, 3);
        assert_eq!(o.read_u64(fresh), None);
        let t = Txn::new(vec![], vec![fresh], Procedure::BlindWrite { value: 7 });
        assert!(o.apply(&t).committed);
        assert_eq!(o.read_u64(fresh), Some(7));
        assert_eq!(o.row_count(0), 3);
    }

    #[test]
    fn oracle_absent_reads_fingerprint_like_engines() {
        let mut o = SerialOracle::new(&spec_with_headroom());
        let probe = Txn::new(
            vec![RecordId::new(0, 0), RecordId::new(0, 4)],
            vec![],
            Procedure::TpcC(TpcCProc::OrderStatus),
        );
        let out = o.apply(&probe);
        assert!(out.committed);
        assert_eq!(
            out.fingerprint,
            0u64.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT)
        );
    }

    #[test]
    fn oracle_deletes_and_recycles_slots() {
        let mut o = SerialOracle::new(&spec());
        let victim = RecordId::new(0, 1); // seeded 100
        let del = Txn::new(
            vec![RecordId::new(0, 0)],
            vec![victim],
            Procedure::GuardedDelete { min: 0 },
        );
        assert!(o.apply(&del).committed);
        assert_eq!(o.read_u64(victim), None, "deleted row is absent");
        assert_eq!(o.row_count(0), 3);
        // The slot is reusable: a write re-inserts it.
        let ins = Txn::new(vec![], vec![victim], Procedure::BlindWrite { value: 7 });
        assert!(o.apply(&ins).committed);
        assert_eq!(o.read_u64(victim), Some(7));
        assert_eq!(o.row_count(0), 4);
    }

    #[test]
    fn oracle_aborted_delete_leaves_row_intact() {
        let mut o = SerialOracle::new(&spec());
        let victim = RecordId::new(0, 1);
        // Guard (row 0, value 0) below min ⇒ user abort before the delete.
        let del = Txn::new(
            vec![RecordId::new(0, 0)],
            vec![victim],
            Procedure::GuardedDelete { min: 1 },
        );
        assert!(!o.apply(&del).committed);
        assert_eq!(o.read_u64(victim), Some(100));
        assert_eq!(o.row_count(0), 4);
    }

    #[test]
    fn oracle_read_after_delete_within_txn_sees_absence() {
        // Delivery shape: a txn that deletes then re-probes through pending
        // must observe its own delete.
        let mut o = SerialOracle::new(&spec_with_headroom());
        let order = RecordId::new(0, 1); // seeded 100
        let cursor = RecordId::new(0, 0); // seeded 0
        let rids = vec![cursor, order];
        let t = Txn::new(rids.clone(), rids, Procedure::TpcC(TpcCProc::Delivery));
        let out = o.apply(&t);
        assert!(out.committed);
        assert_eq!(o.read_u64(order), None, "delivered order is deleted");
        assert_eq!(o.read_u64(cursor), Some(1), "cursor advanced");
    }

    #[test]
    fn oracle_scan_tracks_membership_across_inserts_and_deletes() {
        use bohm_common::ScanRange;
        let mut o = SerialOracle::new(&spec_with_headroom()); // rows 0,1 seeded
        let history = || {
            Txn::with_scans(
                vec![RecordId::new(0, 0)],
                vec![],
                vec![ScanRange::new(0, 0, 5)],
                Procedure::TpcC(TpcCProc::OrderHistory),
            )
        };
        let fp0 = o.apply(&history()).fingerprint;
        // Insert into the scanned range: membership (and fingerprint) change.
        let fresh = RecordId::new(0, 3);
        assert!(
            o.apply(&Txn::new(
                vec![],
                vec![fresh],
                Procedure::BlindWrite { value: 9 }
            ))
            .committed
        );
        let fp1 = o.apply(&history()).fingerprint;
        assert_ne!(fp0, fp1, "insert into the range must be observed");
        // Delete from the scanned range: membership shrinks again.
        let del = Txn::new(
            vec![RecordId::new(0, 0)],
            vec![fresh],
            Procedure::GuardedDelete { min: 0 },
        );
        assert!(o.apply(&del).committed);
        assert_eq!(
            o.apply(&history()).fingerprint,
            fp0,
            "delete restores the original membership"
        );
    }

    #[test]
    fn equivalence_detects_divergence() {
        let txns = vec![rmw(0, 1), rmw(0, 1)];
        let mut oracle = SerialOracle::new(&spec());
        let outcomes: Vec<ExecOutcome> = txns.iter().map(|t| oracle.apply(t)).collect();
        // Matching replay passes.
        assert!(check_serial_equivalence(&spec(), &txns, &outcomes, |rid| {
            oracle.read_u64(rid)
        })
        .is_ok());
        // A final-state lie is caught.
        let err = check_serial_equivalence(&spec(), &txns, &outcomes, |rid| {
            Some(oracle.read_u64(rid).unwrap() + u64::from(rid.row == 0))
        })
        .unwrap_err();
        assert!(err.contains("final state"), "{err}");
        // A flipped commit decision is caught.
        let mut bad = outcomes.clone();
        bad[1].committed = false;
        let err =
            check_serial_equivalence(&spec(), &txns, &bad, |rid| oracle.read_u64(rid)).unwrap_err();
        assert!(err.contains("committed") || err.contains("abort"), "{err}");
        // A wrong fingerprint (phantom read) is caught.
        let mut bad = outcomes;
        bad[1].fingerprint ^= 1;
        let err =
            check_serial_equivalence(&spec(), &txns, &bad, |rid| oracle.read_u64(rid)).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
    }

    #[test]
    fn equivalence_catches_missing_and_phantom_inserts() {
        let spec = spec_with_headroom();
        let fresh = RecordId::new(0, 2);
        let txns = vec![Txn::new(
            vec![],
            vec![fresh],
            Procedure::BlindWrite { value: 9 },
        )];
        let mut oracle = SerialOracle::new(&spec);
        let outcomes: Vec<ExecOutcome> = txns.iter().map(|t| oracle.apply(t)).collect();
        // Engine agreeing slot-for-slot passes.
        assert!(
            check_serial_equivalence(&spec, &txns, &outcomes, |rid| oracle.read_u64(rid)).is_ok()
        );
        // Engine that lost the insert is caught.
        let err = check_serial_equivalence(&spec, &txns, &outcomes, |rid| {
            if rid == fresh {
                None
            } else {
                oracle.read_u64(rid)
            }
        })
        .unwrap_err();
        assert!(err.contains("diverges"), "{err}");
        // Engine that invented a row is caught.
        let err = check_serial_equivalence(&spec, &txns, &outcomes, |rid| {
            oracle.read_u64(rid).or(Some(1))
        })
        .unwrap_err();
        assert!(err.contains("diverges"), "{err}");
        // Row counting helper agrees with the oracle.
        assert_eq!(
            engine_row_count(&spec.tables[0], 0, |rid| oracle.read_u64(rid)),
            oracle.row_count(0)
        );
    }
}
