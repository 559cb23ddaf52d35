//! Stored procedures: engine-independent transaction logic.
//!
//! The paper's evaluation uses stored-procedure transactions exclusively
//! (§1: applications submit whole transactions to avoid round trips). Each
//! [`Procedure`] interprets the transaction's declared read/write sets
//! positionally through the [`Access`] trait, so the identical logic runs on
//! BOHM, Hekaton, SI, OCC and 2PL.
//!
//! Conventions (documented per variant) fix how read-set and write-set
//! positions map to semantic roles; the `bohm-workloads` crate constructs
//! transactions obeying these conventions and asserts them in tests.

use crate::access::{AbortReason, Access};
use crate::types::RecordId;
use crate::value;

/// SmallBank stored procedures (paper §4.3; Cahill, PhD thesis 2009).
///
/// Tables: `Customer` (id → name, never updated), `Savings` (id → balance),
/// `Checking` (id → balance). Balances are `u64` cents in the first 8 bytes
/// of each 8-byte record.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SmallBankProc {
    /// Read-only: return the sum of a customer's checking and savings
    /// balances. Layout: reads = `[savings(c), checking(c)]`, writes = `[]`.
    Balance,
    /// Deposit `v` into checking.
    /// Layout: reads = `[checking(c)]`, writes = `[checking(c)]`.
    DepositChecking {
        /// Amount deposited.
        v: u64,
    },
    /// Add `v` (possibly negative) to savings; **aborts** (user abort) if the
    /// resulting balance would be negative.
    /// Layout: reads = `[savings(c)]`, writes = `[savings(c)]`.
    TransactSaving {
        /// Signed delta applied to the savings balance.
        v: i64,
    },
    /// Move all funds of customer 0 into customer 1's checking account.
    /// Layout: reads = `[savings(c0), checking(c0), checking(c1)]`,
    /// writes = `[savings(c0), checking(c0), checking(c1)]`.
    Amalgamate,
    /// Write a check of `v` against the combined balance; if it overdraws,
    /// an extra 1-unit penalty is charged (classic SmallBank semantics —
    /// this is the transaction that makes SI non-serializable).
    /// Layout: reads = `[savings(c), checking(c)]`, writes = `[checking(c)]`.
    WriteCheck {
        /// Check amount.
        v: u64,
    },
}

/// TPC-C-lite stored procedures over warehouse, district, customer and
/// order tables (a trimmed NewOrder/Payment/OrderStatus mix; the paper's
/// workloads never insert records, so this family is what exercises the
/// engines' record-insert paths end to end).
///
/// Record layout: every table keeps its semantic value in the `u64` prefix
/// (warehouse/district YTD, district order counter, customer balance, order
/// descriptor).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TpcCProc {
    /// Place an order: bump the district's order counter and **insert** a
    /// fresh order record describing the customer and line count. When the
    /// customer→orders secondary index is declared (a third read/write
    /// entry: the customer's posting list), the insert is **transactionally
    /// indexed** — the order row is added to the customer's posting list in
    /// the same transaction, and the order payload carries the customer's
    /// row id at byte offset 8 so Delivery can find the list to unmaintain.
    /// Layout: reads = `[district(w,d), customer(c)]` (+ `order_list(c)`),
    /// writes = `[district(w,d), order(o)]` (+ `order_list(c)`) with `o` a
    /// generator-assigned fresh key (write sets are declared up front, per
    /// BOHM's model).
    NewOrder {
        /// Order-line count, folded into the inserted order record.
        lines: u32,
    },
    /// Cross-table read-modify-write: add `amount` to the warehouse and
    /// district year-to-date totals and subtract it from the customer's
    /// balance (wrapping; balances may go negative, as in TPC-C).
    /// Layout: reads = writes = `[warehouse(w), district(w,d), customer(c)]`.
    Payment {
        /// Payment amount moved between customer and warehouse/district.
        amount: u64,
    },
    /// Read-only status check: read the customer, then probe one order slot
    /// which may or may not exist yet (an absence-tolerant read — the
    /// fingerprint distinguishes the two outcomes).
    /// Layout: reads = `[customer(c), order(o)]`, writes = `[]`.
    OrderStatus,
    /// Secondary-index scan with phantom protection: read the customer,
    /// then index-scan the customer's **live orders** through
    /// the customer→orders posting list, folding every member order — row
    /// id and payload — plus the result cardinality into the fingerprint.
    /// A concurrent NewOrder adding to (or Delivery removing from) the
    /// customer's posting set must serialize entirely before or after the
    /// scan; a half-observed membership changes the fingerprint and is
    /// caught by the oracle audit. This is a genuine multi-range
    /// transaction: the posting-list read plus one point read per member
    /// order, scattered across the order table.
    /// Layout: reads = `[customer(c), order_list(c)]`,
    /// index_scans = `[{list: 1, table: order}]`, writes = `[]`.
    CustomerStatus,
    /// Range scan with phantom protection: read the customer, then scan a
    /// key range of the order table (the customer's order-history window),
    /// folding every present order — row id and payload — plus the result
    /// cardinality into the fingerprint. A concurrent NewOrder inserting
    /// into (or Delivery deleting from) the window must serialize entirely
    /// before or after the scan; a half-observed insert/delete changes the
    /// fingerprint and is caught by the oracle audit.
    /// Layout: reads = `[customer(c)]`, scans = `[order window]`,
    /// writes = `[]`.
    OrderHistory,
    /// Batch-consume the oldest undelivered orders of one generator stripe:
    /// each present order is read (folded into the fingerprint) and
    /// **deleted**, and the stripe's delivery cursor advances by the number
    /// of orders consumed. Absent probed slots fold [`ABSENT_FINGERPRINT`]
    /// and are left untouched, so Delivery is robust to racing streams.
    /// Layout: reads = writes = `[cursor(stripe), order(o_1..o_k)]` with
    /// the order rows chosen by the generator (write sets are declared up
    /// front, per BOHM's model, so the "oldest undelivered" window is the
    /// generator's per-stripe delivery cursor).
    ///
    /// With the customer→orders index declared, the layout gains the
    /// posting lists of the consumed orders' customers (deduplicated):
    /// reads = writes = `[cursor, order_1..order_k, list_1..list_j]` —
    /// positions after the cursor that share `reads[1].table` are orders;
    /// the remaining tail positions are lists. Each deleted order is
    /// removed from its customer's posting list (the customer row id is
    /// read from the order payload's byte offset 8) in the same
    /// transaction, keeping the index transactionally consistent.
    Delivery,
}

/// Fingerprint contribution of an absent record in an absence-tolerant
/// read (must differ from any checksum of real bytes with overwhelming
/// probability, and be identical across engines).
pub const ABSENT_FINGERPRINT: u64 = 0xAB5E_17F1_0A0B_5E17;

/// [`Procedure::RangeAudit`] fingerprint for a scan that observed a row
/// whose value violates the `expect_base + row` convention (a torn or
/// non-serializable read).
pub const SCAN_POISON_VALUE: u64 = 0xBAD5_CA40_BAD5_CA40;

/// [`Procedure::RangeAudit`] fingerprint for a scan whose present rows are
/// not one contiguous run (a phantom: a concurrent whole-window insert or
/// delete was observed halfway).
pub const SCAN_POISON_GAP: u64 = SCAN_POISON_VALUE | 1;

/// [`Procedure::RangeAudit`] fingerprint of a non-empty, consistent scan:
/// `(count << 32) ^ first_row`. Exposed so hammers can precompute the only
/// legal outcomes of an atomically-maintained window.
#[inline]
pub fn range_audit_fingerprint(count: u64, first_row: u64) -> u64 {
    (count << 32) ^ first_row
}

/// Transaction logic, parameterized by the declared read/write sets.
///
/// `Clone` but (since [`Procedure::Apply`]) no longer `Copy`: cloning is a
/// cheap `Arc` bump in the worst case, and every engine hot path takes the
/// procedure by reference.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Procedure {
    /// Read every read-set entry, fold a checksum, write nothing. Used by
    /// YCSB long read-only transactions (§4.2.3).
    ReadOnly,
    /// For each write-set entry `i`: if the same record appears in the read
    /// set, read it, add `delta` to its `u64` prefix and write the result
    /// back (a read-modify-write); otherwise blind-write `delta`.
    /// Read-set entries that are not written are read (into a checksum).
    /// Used by the §4.1 microbenchmark ("simple increment of this integer"),
    /// YCSB 10RMW and YCSB 2RMW-8R.
    ReadModifyWrite {
        /// Increment applied to each written record.
        delta: u64,
    },
    /// Write `value`'s little-endian bytes to every write-set entry without
    /// reading. Exercises BOHM's write-write ordering without read
    /// dependencies (paper §3.3.1 "write dependencies").
    BlindWrite {
        /// Value written to every write-set entry.
        value: u64,
    },
    /// SmallBank logic.
    SmallBank(SmallBankProc),
    /// TPC-C-lite logic (the record-inserting workload family).
    TpcC(TpcCProc),
    /// Absence-tolerant read-only probe: [`Access::read_maybe`] every
    /// read-set entry and fold each outcome — the record's checksum when
    /// present, [`ABSENT_FINGERPRINT`] when not — into the fingerprint.
    /// The lifecycle-audit twin of [`Procedure::ReadOnly`] (which panics on
    /// absence): equivalence tests use it to check that delete visibility
    /// is atomic across multiple records.
    ProbeAll,
    /// Audit **every declared scan** under a value convention: every
    /// present row must hold `expect_base + row` in its `u64` prefix, and
    /// the union of present rows must form one contiguous run (the declared
    /// ranges are expected to be adjacent, e.g. one window split in two for
    /// the multi-range hammer — a transaction whose scans observe
    /// different serial points shows up as a gap or partial count).
    /// Fingerprint: [`SCAN_POISON_VALUE`] on a value violation,
    /// [`SCAN_POISON_GAP`] on a non-contiguous union, `0` for an empty
    /// result, and [`range_audit_fingerprint`]`(count, first_row)`
    /// otherwise. The phantom hammer drives this against concurrent
    /// whole-window inserts/deletes: any non-atomic observation poisons or
    /// truncates the fingerprint. Layout: scans = `[window…]`,
    /// reads = writes = `[]`.
    RangeAudit {
        /// Expected value convention: present row `r` must hold
        /// `expect_base + r`.
        expect_base: u64,
    },
    /// Blind-write every write-set entry with `base + row` in its `u64`
    /// prefix (row-keyed values, unlike [`Procedure::BlindWrite`]'s single
    /// value) — the insert half of the phantom hammer: one transaction
    /// atomically materializes a whole key window. Fingerprint = `base`.
    InsertKeyed {
        /// Base of the row-keyed values (`base + row` per record).
        base: u64,
    },
    /// Delete every write-set entry, guarded by a user-abort check that
    /// runs **before** the first delete (honouring the logic-abort
    /// contract): if the `u64` prefix of read-set entry 0 is below `min`,
    /// the transaction aborts and no record is touched. Fingerprint = the
    /// guard value. Layout: reads = `[guard]`, writes = targets.
    /// Exercises the delete path (including blind deletes of absent slots
    /// and aborted-delete rollback) outside the TPC-C mix.
    GuardedDelete {
        /// Abort threshold checked against the guard record.
        min: u64,
    },
    /// Positionally apply a precomputed effect: write `values[i]` to
    /// write-set entry `i` (`Some` ⇒ full-record write, `None` ⇒ delete).
    /// No reads, no logic, no aborts — the checkpoint-restore write
    /// ([`checkpoint::restore_into`](crate::checkpoint::restore_into)
    /// replays a snapshot through the engine's normal write path as
    /// `Apply` transactions). Fingerprint = 0. Layout: reads = `[]`,
    /// `values.len() == writes.len()`.
    Apply {
        /// Per-write-position payloads; `Arc` keeps `Procedure: Clone`
        /// a pointer bump even when a restore chunk carries fat records.
        values: std::sync::Arc<[Option<crate::Value>]>,
    },
}

/// Reusable per-worker execution scratch: the byte workhorse plus every
/// buffer any procedure used to allocate per call (the Delivery removal
/// list, the index scan's posting list). One `ExecScratch` lives in each
/// engine worker / exec thread and is reused across transactions, so the
/// procedure layer performs **zero** heap allocation per call in steady
/// state — even when a set overflows the stack-inline fast paths.
#[derive(Default)]
pub struct ExecScratch {
    /// Record-image workhorse buffer (reads copied in, writes staged out).
    pub bytes: Vec<u8>,
    /// Delivery's (customer key, order row) removal list (heap fallback).
    removals: Vec<(u64, u64)>,
    /// Index scan's copy of its posting list, which the member reads
    /// outlive (the list read's borrow of engine storage does not).
    list: Vec<u8>,
}

impl ExecScratch {
    /// Fresh, empty scratch (equivalent to `Default`).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Execute `txn`'s procedure against `access`, interpreting the
/// transaction's declared read/write/scan sets positionally.
///
/// `scratch` is a caller-owned buffer bundle reused across transactions
/// (the "workhorse collection" pattern) so that 1,000-byte YCSB record
/// rewrites — and every overflow path — do not allocate per operation.
///
/// Returns `Ok(fingerprint)` on commit intent — a value derived from the
/// reads, which equivalence tests use to compare engines — or the abort
/// reason. Engine-induced errors from `access` propagate unchanged.
///
/// `access` must be the engine's access for `txn` itself: the scans read
/// rows through [`Access::read_covered`], whose coverage is `txn`'s
/// declared scans.
pub fn execute_procedure<A: Access>(
    txn: &crate::Txn,
    access: &mut A,
    scratch: &mut ExecScratch,
) -> Result<u64, AbortReason> {
    let (reads, writes) = (&*txn.reads, &*txn.writes);
    match &txn.proc {
        Procedure::ReadOnly => {
            let mut acc = 0u64;
            for i in 0..reads.len() {
                let mut c = 0u64;
                access.read(i, |b| c = value::checksum(b))?;
                acc = acc.wrapping_mul(31).wrapping_add(c);
            }
            Ok(acc)
        }
        Procedure::ReadModifyWrite { delta } => {
            read_modify_write(*delta, reads, writes, access, &mut scratch.bytes)
        }
        Procedure::BlindWrite { value: v } => {
            let bytes = &mut scratch.bytes;
            for w in 0..writes.len() {
                let len = access.write_len(w);
                bytes.clear();
                bytes.extend_from_slice(&v.to_le_bytes());
                bytes.resize(len, 0);
                access.write(w, bytes)?;
            }
            Ok(*v)
        }
        Procedure::SmallBank(sb) => small_bank(*sb, access, scratch),
        Procedure::TpcC(tp) => tpcc(*tp, txn, access, scratch),
        Procedure::ProbeAll => {
            let mut acc = 0u64;
            for i in 0..reads.len() {
                let mut c = ABSENT_FINGERPRINT;
                access.read_maybe(i, |b| c = value::checksum(b))?;
                acc = acc.wrapping_mul(31).wrapping_add(c);
            }
            Ok(acc)
        }
        Procedure::RangeAudit { expect_base } => {
            let base = *expect_base;
            let mut bad_value = false;
            let mut first = u64::MAX;
            let mut last = 0u64;
            let mut count = 0u64;
            for si in 0..txn.scans.len() {
                count += scan(txn, si, access, |row, b| {
                    if value::get_u64(b, 0) != base.wrapping_add(row) {
                        bad_value = true;
                    }
                    first = first.min(row);
                    last = last.max(row);
                })?;
            }
            Ok(if bad_value {
                SCAN_POISON_VALUE
            } else if count == 0 {
                0
            } else if count != last - first + 1 {
                SCAN_POISON_GAP
            } else {
                range_audit_fingerprint(count, first)
            })
        }
        Procedure::InsertKeyed { base } => {
            let bytes = &mut scratch.bytes;
            for (w, rid) in writes.iter().enumerate() {
                let len = access.write_len(w);
                bytes.clear();
                bytes.extend_from_slice(&base.wrapping_add(rid.row).to_le_bytes());
                bytes.resize(len, 0);
                access.write(w, bytes)?;
            }
            Ok(*base)
        }
        Procedure::GuardedDelete { min } => {
            let g = access.read_u64(0)?;
            if g < *min {
                return Err(AbortReason::User);
            }
            for w in 0..writes.len() {
                access.delete(w)?;
            }
            Ok(g)
        }
        Procedure::Apply { values, .. } => {
            debug_assert_eq!(values.len(), writes.len(), "Apply: one value per write");
            for (w, v) in values.iter().enumerate() {
                match v {
                    Some(data) => access.write(w, data)?,
                    None => access.delete(w)?,
                }
            }
            Ok(0)
        }
    }
}

/// `ReadModifyWrite` body: pure reads in read order, then each write in
/// write order — a read-modify-write of the *first* read of its record, or
/// a blind write of the delta if no read names it.
///
/// Pairing scans the other set, O(R·W) comparisons of 12-byte keys. That
/// is the cheap way for every RMW set in the tree — 10 × 10 at most in the
/// workloads — where sorting both sets first cost more than ten times the
/// scan. Identical sets skip the scan: write `w` pairs with read `w`, the
/// pairing BOHM's planner tries first, which is the first read of its
/// record unless the set names a record twice.
fn read_modify_write<A: Access>(
    delta: u64,
    reads: &[crate::RecordId],
    writes: &[crate::RecordId],
    access: &mut A,
    scratch: &mut Vec<u8>,
) -> Result<u64, AbortReason> {
    let mut acc = 0u64;
    // Identical declared sets (the 10-RMW / microbenchmark shape) have no
    // pure read.
    let same = reads == writes;
    if !same {
        for (i, rid) in reads.iter().enumerate() {
            if !writes.contains(rid) {
                let mut c = 0u64;
                access.read(i, |b| c = value::checksum(b))?;
                acc = acc.wrapping_mul(31).wrapping_add(c);
            }
        }
    }
    for (w, rid) in writes.iter().enumerate() {
        scratch.clear();
        let paired = if same {
            Some(w)
        } else {
            reads.iter().position(|x| x == rid)
        };
        if let Some(r) = paired {
            access.read(r, |b| scratch.extend_from_slice(b))?;
            let old = value::get_u64(scratch, 0);
            value::put_u64(scratch, 0, old.wrapping_add(delta));
            access.write(w, scratch)?;
            acc = acc.wrapping_mul(31).wrapping_add(old);
        } else {
            let len = access.write_len(w);
            scratch.extend_from_slice(&delta.to_le_bytes());
            scratch.resize(len, 0);
            access.write(w, scratch)?;
        }
    }
    Ok(acc)
}

fn write_u64(
    access: &mut impl Access,
    idx: usize,
    v: u64,
    scratch: &mut Vec<u8>,
) -> Result<(), AbortReason> {
    let len = access.write_len(idx);
    scratch.clear();
    scratch.extend_from_slice(&v.to_le_bytes());
    scratch.resize(len, 0);
    access.write(idx, scratch)
}

fn small_bank(
    proc: SmallBankProc,
    access: &mut impl Access,
    scratch: &mut ExecScratch,
) -> Result<u64, AbortReason> {
    let scratch = &mut scratch.bytes;
    match proc {
        SmallBankProc::Balance => {
            let s = access.read_u64(0)?;
            let c = access.read_u64(1)?;
            Ok(s.wrapping_add(c))
        }
        SmallBankProc::DepositChecking { v } => {
            let c = access.read_u64(0)?;
            write_u64(access, 0, c.wrapping_add(v), scratch)?;
            Ok(c)
        }
        SmallBankProc::TransactSaving { v } => {
            let s = access.read_u64(0)? as i64;
            let ns = s.wrapping_add(v);
            if ns < 0 {
                return Err(AbortReason::User);
            }
            write_u64(access, 0, ns as u64, scratch)?;
            Ok(s as u64)
        }
        SmallBankProc::Amalgamate => {
            let s0 = access.read_u64(0)?;
            let c0 = access.read_u64(1)?;
            let c1 = access.read_u64(2)?;
            write_u64(access, 0, 0, scratch)?;
            write_u64(access, 1, 0, scratch)?;
            write_u64(access, 2, c1.wrapping_add(s0).wrapping_add(c0), scratch)?;
            Ok(s0.wrapping_add(c0))
        }
        SmallBankProc::WriteCheck { v } => {
            // Balances are i64 semantics stored two's-complement in the u64
            // slot: checking may legitimately go negative here.
            let s = access.read_u64(0)? as i64;
            let c = access.read_u64(1)? as i64;
            let v = v as i64;
            let total = s.wrapping_add(c);
            let new_c = if v > total {
                // Overdraft: charge an extra penalty of 1.
                c.wrapping_sub(v).wrapping_sub(1)
            } else {
                c.wrapping_sub(v)
            };
            write_u64(access, 0, new_c as u64, scratch)?;
            Ok(total as u64)
        }
    }
}

fn tpcc(
    proc: TpcCProc,
    txn: &crate::Txn,
    access: &mut impl Access,
    scratch: &mut ExecScratch,
) -> Result<u64, AbortReason> {
    let (reads, writes) = (&*txn.reads, &*txn.writes);
    let ExecScratch {
        bytes: scratch,
        removals,
        list,
        ..
    } = scratch;
    match proc {
        TpcCProc::NewOrder { lines } => {
            // Bump the district's order counter (an RMW serialized across
            // every NewOrder of the district).
            let next = access.read_u64(0)?;
            write_u64(access, 0, next.wrapping_add(1), scratch)?;
            let cust = access.read_u64(1)?;
            // Insert the order record: the prefix encodes the customer
            // balance and line count so equivalence checks can audit
            // inserted rows; bytes 8..16 (when the record has room) carry
            // the customer's row id — the index key — so Delivery can find
            // the posting list this order must be removed from.
            let len = access.write_len(1);
            scratch.clear();
            scratch.extend_from_slice(
                &cust
                    .wrapping_mul(1_000)
                    .wrapping_add(lines as u64)
                    .to_le_bytes(),
            );
            if len >= 16 {
                scratch.extend_from_slice(&reads[1].row.to_le_bytes());
            }
            scratch.resize(len, 0);
            access.write(1, scratch)?;
            // Index maintenance: add the inserted order row under its
            // customer key (an RMW of the posting-list record, which is
            // what serializes this insert against index scanners on every
            // engine). Declared only when the workload runs with the
            // customer→orders index.
            if writes.len() > 2 {
                scratch.clear();
                access.read(2, |b| scratch.extend_from_slice(b))?;
                // Failure is only reachable on a doomed optimistic
                // attempt's torn snapshot (see `crate::index`).
                let _ = crate::index::posting_insert(scratch, writes[1].row);
                access.write(2, scratch)?;
            }
            Ok(next.wrapping_mul(31).wrapping_add(cust))
        }
        TpcCProc::Payment { amount } => {
            let w = access.read_u64(0)?;
            let d = access.read_u64(1)?;
            let c = access.read_u64(2)?;
            write_u64(access, 0, w.wrapping_add(amount), scratch)?;
            write_u64(access, 1, d.wrapping_add(amount), scratch)?;
            write_u64(access, 2, c.wrapping_sub(amount), scratch)?;
            Ok(w.wrapping_mul(31)
                .wrapping_add(d)
                .wrapping_mul(31)
                .wrapping_add(c))
        }
        TpcCProc::OrderStatus => {
            let cust = access.read_u64(0)?;
            // The probed order may not have been inserted yet; absence is a
            // legitimate, serializable answer with its own fingerprint.
            let mut order_fp = ABSENT_FINGERPRINT;
            access.read_maybe(1, |b| order_fp = value::checksum(b))?;
            Ok(cust.wrapping_mul(31).wrapping_add(order_fp))
        }
        TpcCProc::OrderHistory => {
            let cust = access.read_u64(0)?;
            let mut fp = cust;
            let count = scan(txn, 0, access, |row, b| {
                fp = fp.wrapping_mul(31).wrapping_add(row ^ value::checksum(b));
            })?;
            Ok(fp.wrapping_mul(31).wrapping_add(count))
        }
        TpcCProc::CustomerStatus => {
            let cust = access.read_u64(0)?;
            let mut fp = cust;
            let count = index_scan(txn, 0, access, list, |row, b| {
                fp = fp.wrapping_mul(31).wrapping_add(row ^ value::checksum(b));
            })?;
            Ok(fp.wrapping_mul(31).wrapping_add(count))
        }
        TpcCProc::Delivery => {
            // Position 0 is the delivery cursor; the following run of
            // positions sharing position 1's table are the order slots to
            // consume; any remaining tail positions are the posting lists
            // of the consumed orders' customers (index maintenance).
            let cursor = access.read_u64(0)?;
            let mut fp = cursor;
            let mut consumed = 0u64;
            let n = reads.len();
            let orders_end = if n > 1 {
                let order_table = reads[1].table;
                (2..n).find(|&i| reads[i].table != order_table).unwrap_or(n)
            } else {
                n
            };
            let maintain = orders_end < n;
            // (customer key, order row) of each consumed order, recorded so
            // the posting lists can be updated once each after the deletes.
            // Stack storage for the common delivery-batch sizes; the
            // reusable scratch fallback keeps even oversized batches
            // allocation-free in steady state (the same pattern as the RMW
            // position buffers above).
            const INLINE: usize = 32;
            let mut rbuf = [(0u64, 0u64); INLINE];
            let removals: &mut [(u64, u64)] = if maintain && orders_end - 1 > INLINE {
                removals.clear();
                removals.resize(orders_end - 1, (0, 0));
                removals
            } else {
                &mut rbuf
            };
            let mut nrem = 0usize;
            for (i, rid) in reads.iter().enumerate().take(orders_end).skip(1) {
                let mut c = ABSENT_FINGERPRINT;
                let mut cust_key = u64::MAX;
                let present = access.read_maybe(i, |b| {
                    c = value::checksum(b);
                    if b.len() >= 16 {
                        cust_key = value::get_u64(b, 8);
                    }
                })?;
                fp = fp.wrapping_mul(31).wrapping_add(c);
                if present {
                    access.delete(i)?;
                    consumed += 1;
                    if maintain {
                        removals[nrem] = (cust_key, rid.row);
                        nrem += 1;
                    }
                }
            }
            for (p, list_rid) in writes.iter().enumerate().take(n).skip(orders_end) {
                let key = list_rid.row;
                scratch.clear();
                access.read(p, |b| scratch.extend_from_slice(b))?;
                for &(cust, row) in removals[..nrem].iter().filter(|&&(cust, _)| cust == key) {
                    // Failure is only reachable on a doomed optimistic
                    // attempt's torn snapshot (see `crate::index`).
                    let _ = (cust, crate::index::posting_remove(scratch, row));
                }
                access.write(p, scratch)?;
            }
            write_u64(access, 0, cursor.wrapping_add(consumed), scratch)?;
            Ok(fp)
        }
    }
}

/// Key-range scan: call `out(row, payload)` for every record that exists
/// in `txn`'s scan-set entry `idx` (a declared
/// [`ScanRange`](crate::txn::ScanRange)), in ascending key order, and
/// return the number of present rows.
///
/// A scan is a predicate read, and every engine guarantees **phantom
/// protection** through [`Access::read_covered`]: the result is the
/// range's membership at the transaction's position in the serial order
/// — a concurrent insert into or delete from the range either orders
/// entirely before the scan (and is observed) or entirely after it (and is
/// not), never halfway.
///
/// The scanned range must not overlap the transaction's own write set:
/// engines disagree on whether a scan observes the transaction's own
/// uncommitted writes, so procedures must not rely on either behaviour.
/// Ranges must also lie within the table's declared capacity for
/// portability (the capacity rule of [`Access::read_covered`]).
fn scan(
    txn: &crate::Txn,
    idx: usize,
    access: &mut impl Access,
    mut out: impl FnMut(u64, &[u8]),
) -> Result<u64, AbortReason> {
    let s = txn.scans[idx];
    let mut n = 0;
    for row in s.rows() {
        // SAFETY: `row` lies in `txn`'s declared scan range `idx`, and
        // `access` executes `txn` (`execute_procedure`'s contract).
        if unsafe { access.read_covered(s.rid(row), |b| out(row, b))? } {
            n += 1;
        }
    }
    Ok(n)
}

/// Secondary-index scan: call `out(row, payload)` for every live member
/// row of `txn`'s index-scan-set entry `idx` (a declared
/// [`IndexScan`](crate::txn::IndexScan)), in ascending row order, and
/// return the number of rows emitted. `list` is the caller's reusable
/// copy of the posting list.
///
/// The scanned key's **posting-list record** (read-set entry
/// `IndexScan::list`, encoded per [`crate::index`]) is read through
/// [`Access::read_maybe`] — that read is the index key's concurrency
/// control — and each member row is then read at the same snapshot
/// through [`Access::read_covered`]. Phantom protection therefore holds
/// at the *key* granularity: a concurrent transaction that adds a row to
/// or removes a row from the key's posting set must write the posting-list
/// record (the covering-writer contract of [`Access::read_covered`]),
/// which every engine serializes against the scan (lock conflict, TID
/// validation failure, commit-time re-resolution, or BOHM's timestamp
/// order). An absent posting list is an empty result. A listed-but-absent
/// member row (possible only on a torn snapshot of a doomed optimistic
/// attempt, or if the contract is violated) is skipped, not an error.
fn index_scan(
    txn: &crate::Txn,
    idx: usize,
    access: &mut impl Access,
    list: &mut Vec<u8>,
    mut out: impl FnMut(u64, &[u8]),
) -> Result<u64, AbortReason> {
    let s = txn.index_scans[idx];
    list.clear();
    if !access.read_maybe(s.list, |b| list.extend_from_slice(b))? {
        return Ok(0);
    }
    let mut n = 0;
    for row in crate::index::posting_rows(list) {
        let rid = RecordId {
            table: s.table,
            row,
        };
        // SAFETY: `rid` is a member, in the declared table, of the posting
        // list `txn`'s index scan `idx` just read, and `access` executes
        // `txn` (`execute_procedure`'s contract).
        if unsafe { access.read_covered(rid, |b| out(row, b))? } {
            n += 1;
        }
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Simple map-backed Access for procedure unit tests. Read slots hold
    /// `None` to model a record absent at the transaction's snapshot.
    struct MemAccess {
        read_vals: Vec<Option<Vec<u8>>>,
        written: Vec<Option<Vec<u8>>>,
        deleted: Vec<bool>,
        /// Rows served by `read_covered`, by row number (a row not listed,
        /// or listed as `None`, is absent).
        covered: Vec<(u64, Option<Vec<u8>>)>,
        len: usize,
        /// Every positional read (`false`) and write (`true`), in order.
        calls: Vec<(bool, usize)>,
    }

    impl MemAccess {
        fn new(read_vals: Vec<u64>, n_writes: usize, len: usize) -> Self {
            Self {
                read_vals: read_vals
                    .into_iter()
                    .map(|v| Some(crate::value::of_u64(v, len).to_vec()))
                    .collect(),
                written: vec![None; n_writes],
                deleted: vec![false; n_writes],
                covered: Vec::new(),
                len,
                calls: Vec::new(),
            }
        }

        fn with_covered(mut self, rows: Vec<(u64, Option<u64>)>) -> Self {
            self.covered = rows
                .into_iter()
                .map(|(row, v)| (row, v.map(|v| crate::value::of_u64(v, self.len).to_vec())))
                .collect();
            self
        }
        /// Read-set entry `idx` holds a posting list of `rows`.
        fn with_posting_list(mut self, idx: usize, rows: &[u64]) -> Self {
            let mut list = vec![0; crate::index::posting_record_size(rows.len() as u64)];
            for &row in rows {
                assert!(crate::index::posting_insert(&mut list, row));
            }
            self.read_vals[idx] = Some(list);
            self
        }
        fn with_absent(mut self, idx: usize) -> Self {
            if self.read_vals.len() <= idx {
                self.read_vals.resize(idx + 1, None);
            }
            self.read_vals[idx] = None;
            self
        }
        fn written_u64(&self, i: usize) -> u64 {
            value::get_u64(self.written[i].as_ref().unwrap(), 0)
        }
    }

    impl Access for MemAccess {
        fn read_maybe(&mut self, idx: usize, out: impl FnMut(&[u8])) -> Result<bool, AbortReason> {
            self.calls.push((false, idx));
            Ok(self.read_vals[idx].as_deref().map(out).is_some())
        }
        fn write(&mut self, idx: usize, data: &[u8]) -> Result<(), AbortReason> {
            self.calls.push((true, idx));
            self.written[idx] = Some(data.to_vec());
            self.deleted[idx] = false;
            Ok(())
        }
        fn delete(&mut self, idx: usize) -> Result<(), AbortReason> {
            self.deleted[idx] = true;
            self.written[idx] = None;
            Ok(())
        }
        /// # Safety
        ///
        /// None needed: the rows are owned test data.
        unsafe fn read_covered(
            &mut self,
            rid: RecordId,
            out: impl FnMut(&[u8]),
        ) -> Result<bool, AbortReason> {
            let row = self.covered.iter().find(|(row, _)| *row == rid.row);
            Ok(row.and_then(|(_, v)| v.as_deref()).map(out).is_some())
        }
        fn write_len(&mut self, _idx: usize) -> usize {
            self.len
        }
    }

    fn rid(k: u64) -> RecordId {
        RecordId::new(0, k)
    }

    /// Shorthand for procedures that declare no key-range scans.
    fn exec_no_scans(
        proc: &Procedure,
        reads: &[RecordId],
        writes: &[RecordId],
        access: &mut impl Access,
        scratch: &mut ExecScratch,
    ) -> Result<u64, AbortReason> {
        let txn = crate::Txn::new(reads.to_vec(), writes.to_vec(), proc.clone());
        execute_procedure(&txn, access, scratch)
    }

    #[test]
    fn rmw_increments_prefix_and_preserves_tail() {
        let reads = vec![rid(1)];
        let writes = vec![rid(1)];
        let mut a = MemAccess::new(vec![41], 1, 16);
        let mut scratch = ExecScratch::new();
        exec_no_scans(
            &Procedure::ReadModifyWrite { delta: 1 },
            &reads,
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.written_u64(0), 42);
        assert_eq!(a.written[0].as_ref().unwrap().len(), 16);
    }

    #[test]
    fn rmw_blind_writes_undeclared_reads() {
        // Write-set entry not in the read set gets the delta blind-written.
        let reads = vec![];
        let writes = vec![rid(9)];
        let mut a = MemAccess::new(vec![], 1, 8);
        let mut scratch = ExecScratch::new();
        exec_no_scans(
            &Procedure::ReadModifyWrite { delta: 7 },
            &reads,
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.written_u64(0), 7);
    }

    #[test]
    fn read_only_folds_all_reads() {
        let reads = vec![rid(1), rid(2)];
        let mut a = MemAccess::new(vec![10, 20], 0, 8);
        let mut scratch = ExecScratch::new();
        let f1 = exec_no_scans(&Procedure::ReadOnly, &reads, &[], &mut a, &mut scratch).unwrap();
        let mut b = MemAccess::new(vec![10, 21], 0, 8);
        let f2 = exec_no_scans(&Procedure::ReadOnly, &reads, &[], &mut b, &mut scratch).unwrap();
        assert_ne!(f1, f2, "fingerprint must reflect read values");
    }

    #[test]
    fn blind_write_touches_every_write_slot() {
        let writes = vec![rid(1), rid(2), rid(3)];
        let mut a = MemAccess::new(vec![], 3, 8);
        let mut scratch = ExecScratch::new();
        exec_no_scans(
            &Procedure::BlindWrite { value: 5 },
            &[],
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        for i in 0..3 {
            assert_eq!(a.written_u64(i), 5);
        }
    }

    /// The first `ReadModifyWrite` body, kept verbatim as the reference:
    /// the kernel must make the same calls in the same order and return the
    /// same fingerprint on every input.
    fn rmw_reference(
        delta: u64,
        reads: &[RecordId],
        writes: &[RecordId],
        access: &mut impl Access,
        scratch: &mut Vec<u8>,
    ) -> Result<u64, AbortReason> {
        let mut acc = 0u64;
        for (i, rid) in reads.iter().enumerate() {
            if !writes.contains(rid) {
                let mut c = 0u64;
                access.read(i, |b| c = value::checksum(b))?;
                acc = acc.wrapping_mul(31).wrapping_add(c);
            }
        }
        for (w, rid) in writes.iter().enumerate() {
            if let Some(r) = reads.iter().position(|x| x == rid) {
                scratch.clear();
                access.read(r, |b| scratch.extend_from_slice(b))?;
                let old = value::get_u64(scratch, 0);
                value::put_u64(scratch, 0, old.wrapping_add(delta));
                access.write(w, scratch)?;
                acc = acc.wrapping_mul(31).wrapping_add(old);
            } else {
                let len = access.write_len(w);
                scratch.clear();
                scratch.extend_from_slice(&delta.to_le_bytes());
                scratch.resize(len, 0);
                access.write(w, scratch)?;
            }
        }
        Ok(acc)
    }

    /// Run the kernel and the reference on the same sets and read values;
    /// they must agree on the fingerprint, the calls and what they wrote.
    fn assert_rmw_matches_reference(rkeys: &[u64], wkeys: &[u64], vals: Vec<u64>) {
        let reads: Vec<RecordId> = rkeys.iter().map(|&k| rid(k)).collect();
        let writes: Vec<RecordId> = wkeys.iter().map(|&k| rid(k)).collect();
        let mut scratch = ExecScratch::new();
        let mut a = MemAccess::new(vals.clone(), writes.len(), 16);
        let got = exec_no_scans(
            &Procedure::ReadModifyWrite { delta: 3 },
            &reads,
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        let mut b = MemAccess::new(vals, writes.len(), 16);
        let want = rmw_reference(3, &reads, &writes, &mut b, &mut scratch.bytes).unwrap();
        assert_eq!(got, want, "fingerprint diverged on {rkeys:?}/{wkeys:?}");
        assert_eq!(a.calls, b.calls, "calls diverged on {rkeys:?}/{wkeys:?}");
        assert_eq!(
            a.written, b.written,
            "writes diverged on {rkeys:?}/{wkeys:?}"
        );
    }

    /// xorshift64: a seeded, dependency-free stream for the tests below.
    fn next(rng: &mut u64) -> u64 {
        *rng ^= *rng << 13;
        *rng ^= *rng >> 7;
        *rng ^= *rng << 17;
        *rng
    }

    #[test]
    fn rmw_mapping_is_fingerprint_identical_to_reference() {
        // Shapes covering identical sets, partial overlap, pure reads, blind
        // writes, duplicates in both sets, and a large reversed overlap.
        let shapes: Vec<(Vec<u64>, Vec<u64>)> = vec![
            (vec![1, 2, 3], vec![1, 2, 3]),                 // identity
            (vec![1, 2, 3, 4, 5], vec![2, 4]),              // 2RMW-3R
            (vec![], vec![7, 8]),                           // all blind
            (vec![5, 5, 9], vec![5, 11]),                   // duplicate reads
            (vec![6, 9], vec![9, 9, 6]),                    // duplicate writes
            (vec![3, 1, 2], vec![2, 3]),                    // unsorted overlap
            ((0..100).collect(), (0..100).rev().collect()), // large overlap
        ];
        let mut rng = 0x1234_5678_9abc_def0u64;
        for (rkeys, wkeys) in shapes {
            let vals = rkeys.iter().map(|_| next(&mut rng)).collect();
            assert_rmw_matches_reference(&rkeys, &wkeys, vals);
        }
    }

    #[test]
    fn identical_sets_pair_each_write_with_the_read_at_its_position() {
        // Also where a record repeats, and the reference would pair both
        // writes of record 4 with read 0.
        let keys = [rid(4), rid(4), rid(7)];
        let mut a = MemAccess::new(vec![1, 2, 3], 3, 16);
        let rmw = Procedure::ReadModifyWrite { delta: 3 };
        exec_no_scans(&rmw, &keys, &keys, &mut a, &mut ExecScratch::new()).unwrap();
        let positional: Vec<_> = (0..3).flat_map(|i| [(false, i), (true, i)]).collect();
        assert_eq!(a.calls, positional);
    }

    /// Seeded random sets, 0 to 300 entries each, drawn from a key space
    /// small enough for duplicates and overlaps; some write sets are the
    /// read set itself, some share nothing with it (blind writes only).
    /// Identical sets get distinct records, as every generator's have:
    /// with a repeated record they pair by position (the test above).
    #[test]
    fn rmw_matches_reference_on_random_sets() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for case in 0..2_000 {
            let len = |rng: &mut u64| match next(rng) % 4 {
                0 => (next(rng) % 301) as usize,
                _ => (next(rng) % 13) as usize,
            };
            let (nr, nw) = (len(&mut rng), len(&mut rng));
            let space = 1 + next(&mut rng) % (2 * (nr + nw) as u64 + 1);
            let mut rkeys: Vec<u64> = (0..nr).map(|_| next(&mut rng) % space).collect();
            let mut wkeys: Vec<u64> = match case % 4 {
                0 => rkeys.clone(),
                1 => (0..nw).map(|_| space + next(&mut rng) % space).collect(),
                _ => (0..nw).map(|_| next(&mut rng) % space).collect(),
            };
            if wkeys == rkeys {
                let mut seen = std::collections::HashSet::new();
                rkeys.retain(|&k| seen.insert(k));
                wkeys = rkeys.clone();
            }
            let vals = rkeys.iter().map(|_| next(&mut rng)).collect();
            assert_rmw_matches_reference(&rkeys, &wkeys, vals);
        }
    }

    #[test]
    fn tpcc_new_order_bumps_counter_and_inserts() {
        // reads = [district, customer], writes = [district, order].
        let reads = vec![rid(1), rid(2)];
        let writes = vec![rid(1), rid(9)];
        let mut a = MemAccess::new(vec![41, 7], 2, 16);
        let mut scratch = ExecScratch::new();
        let fp = exec_no_scans(
            &Procedure::TpcC(TpcCProc::NewOrder { lines: 5 }),
            &reads,
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.written_u64(0), 42, "district counter bumped");
        assert_eq!(
            a.written_u64(1),
            7 * 1_000 + 5,
            "order encodes (cust, lines)"
        );
        assert_eq!(a.written[1].as_ref().unwrap().len(), 16);
        assert_eq!(fp, 41u64.wrapping_mul(31).wrapping_add(7));
    }

    #[test]
    fn tpcc_payment_moves_money_across_tables() {
        let reads = vec![rid(1), rid(2), rid(3)];
        let writes = reads.clone();
        let mut a = MemAccess::new(vec![100, 200, 300], 3, 8);
        let mut scratch = ExecScratch::new();
        exec_no_scans(
            &Procedure::TpcC(TpcCProc::Payment { amount: 25 }),
            &reads,
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.written_u64(0), 125);
        assert_eq!(a.written_u64(1), 225);
        assert_eq!(a.written_u64(2), 275);
    }

    #[test]
    fn tpcc_order_status_distinguishes_absent_orders() {
        let reads = vec![rid(2), rid(9)];
        let mut scratch = ExecScratch::new();
        let mut present = MemAccess::new(vec![7, 1234], 0, 8);
        let fp_present = exec_no_scans(
            &Procedure::TpcC(TpcCProc::OrderStatus),
            &reads,
            &[],
            &mut present,
            &mut scratch,
        )
        .unwrap();
        let mut absent = MemAccess::new(vec![7], 0, 8).with_absent(1);
        let fp_absent = exec_no_scans(
            &Procedure::TpcC(TpcCProc::OrderStatus),
            &reads,
            &[],
            &mut absent,
            &mut scratch,
        )
        .unwrap();
        assert_ne!(fp_present, fp_absent);
        assert_eq!(
            fp_absent,
            7u64.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT)
        );
    }

    #[test]
    fn tpcc_delivery_consumes_present_orders_and_advances_cursor() {
        // reads = writes = [cursor, order_a (present), order_b (absent)].
        let rids = vec![rid(0), rid(10), rid(11)];
        let mut a = MemAccess::new(vec![3, 777], 3, 16).with_absent(2);
        let mut scratch = ExecScratch::new();
        let fp = exec_no_scans(
            &Procedure::TpcC(TpcCProc::Delivery),
            &rids,
            &rids,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.written_u64(0), 4, "cursor advances by consumed count");
        assert!(a.deleted[1], "present order consumed");
        assert!(!a.deleted[2], "absent slot untouched");
        let order_ck = value::checksum(&crate::value::of_u64(777, 16));
        let want = 3u64
            .wrapping_mul(31)
            .wrapping_add(order_ck)
            .wrapping_mul(31)
            .wrapping_add(ABSENT_FINGERPRINT);
        assert_eq!(fp, want, "fingerprint folds cursor + per-order outcomes");
    }

    #[test]
    fn order_history_folds_rows_payloads_and_count() {
        let txn = crate::Txn::with_scans(
            vec![rid(2)],
            vec![],
            vec![crate::ScanRange::new(0, 10, 13)],
            Procedure::TpcC(TpcCProc::OrderHistory),
        );
        let mut scratch = ExecScratch::new();
        let mut a =
            MemAccess::new(vec![7], 0, 8).with_covered(vec![(10, Some(100)), (12, Some(200))]);
        let fp = execute_procedure(&txn, &mut a, &mut scratch).unwrap();
        let c = |v: u64| value::checksum(&crate::value::of_u64(v, 8));
        let want = 7u64
            .wrapping_mul(31)
            .wrapping_add(10 ^ c(100))
            .wrapping_mul(31)
            .wrapping_add(12 ^ c(200))
            .wrapping_mul(31)
            .wrapping_add(2);
        assert_eq!(fp, want);
        // Membership changes (a phantom) change the fingerprint.
        let mut b = MemAccess::new(vec![7], 0, 8).with_covered(vec![(10, Some(100)), (12, None)]);
        let fp2 = execute_procedure(&txn, &mut b, &mut scratch).unwrap();
        assert_ne!(fp, fp2, "membership must be fingerprint-visible");
    }

    #[test]
    fn customer_status_folds_members_and_count() {
        let txn = crate::Txn::with_index_scans(
            vec![rid(2), rid(3)], // [customer, posting list]
            vec![],
            vec![crate::IndexScan::new(1, 0)],
            Procedure::TpcC(TpcCProc::CustomerStatus),
        );
        let mut scratch = ExecScratch::new();
        let mut a = MemAccess::new(vec![7, 0], 0, 8)
            .with_posting_list(1, &[10, 12])
            .with_covered(vec![(10, Some(100)), (12, Some(200))]);
        let fp = execute_procedure(&txn, &mut a, &mut scratch).unwrap();
        let c = |v: u64| value::checksum(&crate::value::of_u64(v, 8));
        let want = 7u64
            .wrapping_mul(31)
            .wrapping_add(10 ^ c(100))
            .wrapping_mul(31)
            .wrapping_add(12 ^ c(200))
            .wrapping_mul(31)
            .wrapping_add(2);
        assert_eq!(want, fp, "same fold as OrderHistory, over index members");
        // Membership changes (a phantom on the index key) change the
        // fingerprint.
        let mut b = MemAccess::new(vec![7, 0], 0, 8)
            .with_posting_list(1, &[10, 12])
            .with_covered(vec![(10, Some(100)), (12, None)]);
        let fp2 = execute_procedure(&txn, &mut b, &mut scratch).unwrap();
        assert_ne!(fp, fp2, "index membership must be fingerprint-visible");
    }

    #[test]
    fn tpcc_new_order_maintains_the_customer_index() {
        // reads = [district, customer, order_list], writes = [district,
        // order, order_list]: the third entry pair is the index maintenance.
        let reads = vec![
            RecordId::new(1, 0),
            RecordId::new(2, 5),
            RecordId::new(5, 5),
        ];
        let writes = vec![
            RecordId::new(1, 0),
            RecordId::new(3, 9),
            RecordId::new(5, 5),
        ];
        // 24-byte records: room for the customer row id at offset 8, and a
        // posting-list capacity of 2.
        let mut a = MemAccess::new(vec![41, 7, 0], 3, 24);
        let mut scratch = ExecScratch::new();
        let fp = exec_no_scans(
            &Procedure::TpcC(TpcCProc::NewOrder { lines: 5 }),
            &reads,
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fp, 41u64.wrapping_mul(31).wrapping_add(7));
        assert_eq!(a.written_u64(0), 42, "district counter bumped");
        let order = a.written[1].as_ref().unwrap();
        assert_eq!(value::get_u64(order, 0), 7 * 1_000 + 5);
        assert_eq!(
            value::get_u64(order, 8),
            5,
            "order carries its customer row id (the index key)"
        );
        let list = a.written[2].as_ref().unwrap();
        assert_eq!(
            crate::index::posting_rows(list).collect::<Vec<_>>(),
            vec![9],
            "order row added under the customer key"
        );
    }

    #[test]
    fn tpcc_delivery_unmaintains_the_customer_index() {
        // reads = writes = [cursor, order (present), order (absent), list]:
        // the consumed order's row must leave its customer's posting list;
        // a member of another customer stays.
        let rids = vec![
            RecordId::new(4, 0),
            RecordId::new(3, 10),
            RecordId::new(3, 11),
            RecordId::new(5, 5),
        ];
        let mut a = MemAccess::new(vec![3], 4, 24).with_absent(2);
        // Order 10 belongs to customer key 5 (payload offset 8) …
        let mut order = crate::value::of_u64(777, 24).to_vec();
        value::put_u64(&mut order, 8, 5);
        a.read_vals[1] = Some(order.clone());
        // … and customer 5's list holds rows 10 and 99.
        let mut list = vec![0u8; 24];
        assert!(crate::index::posting_insert(&mut list, 10));
        assert!(crate::index::posting_insert(&mut list, 99));
        a.read_vals.push(Some(list));
        let mut scratch = ExecScratch::new();
        let fp = exec_no_scans(
            &Procedure::TpcC(TpcCProc::Delivery),
            &rids,
            &rids,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.written_u64(0), 4, "cursor advances by consumed count");
        assert!(a.deleted[1], "present order consumed");
        assert!(!a.deleted[2], "absent slot untouched");
        let new_list = a.written[3].as_ref().unwrap();
        assert_eq!(
            crate::index::posting_rows(new_list).collect::<Vec<_>>(),
            vec![99],
            "consumed order removed from its customer's posting list"
        );
        // Fingerprint folds cursor + per-order outcomes, as before.
        let order_ck = value::checksum(&order);
        let want = 3u64
            .wrapping_mul(31)
            .wrapping_add(order_ck)
            .wrapping_mul(31)
            .wrapping_add(ABSENT_FINGERPRINT);
        assert_eq!(fp, want);
    }

    #[test]
    fn range_audit_classifies_scan_outcomes() {
        let mut scratch = ExecScratch::new();
        let audit = Procedure::RangeAudit { expect_base: 1_000 };
        let txn =
            crate::Txn::with_scans(vec![], vec![], vec![crate::ScanRange::new(0, 4, 7)], audit);
        let mut run = |a: &mut MemAccess| execute_procedure(&txn, a, &mut scratch).unwrap();
        // Consistent contiguous window.
        let mut a = MemAccess::new(vec![], 0, 8).with_covered(vec![
            (4, Some(1_004)),
            (5, Some(1_005)),
            (6, Some(1_006)),
        ]);
        assert_eq!(run(&mut a), range_audit_fingerprint(3, 4));
        // Empty scan.
        let mut e = MemAccess::new(vec![], 0, 8).with_covered(vec![(4, None)]);
        assert_eq!(run(&mut e), 0);
        // Gap (half-observed window) poisons.
        let mut g = MemAccess::new(vec![], 0, 8).with_covered(vec![
            (4, Some(1_004)),
            (5, None),
            (6, Some(1_006)),
        ]);
        assert_eq!(run(&mut g), SCAN_POISON_GAP);
        // Wrong value poisons.
        let mut v = MemAccess::new(vec![], 0, 8).with_covered(vec![(4, Some(999))]);
        assert_eq!(run(&mut v), SCAN_POISON_VALUE);
    }

    #[test]
    fn range_audit_folds_adjacent_scans_as_one_window() {
        // Two adjacent declared ranges behave exactly like their union: a
        // consistent split window fingerprints as the whole window, and
        // scans observing *different* serial points (one full, one empty)
        // poison as a gap or truncate the count.
        let mut scratch = ExecScratch::new();
        let audit = Procedure::RangeAudit { expect_base: 100 };
        let halves = crate::Txn::with_scans(
            vec![],
            vec![],
            vec![
                crate::ScanRange::new(0, 4, 6),
                crate::ScanRange::new(0, 6, 8),
            ],
            audit,
        );
        let full: Vec<(u64, Option<u64>)> = (4..8).map(|r| (r, Some(100 + r))).collect();
        let mut consistent = MemAccess::new(vec![], 0, 8).with_covered(full.clone());
        assert_eq!(
            execute_procedure(&halves, &mut consistent, &mut scratch).unwrap(),
            range_audit_fingerprint(4, 4)
        );
        let mut empty = MemAccess::new(vec![], 0, 8);
        assert_eq!(
            execute_procedure(&halves, &mut empty, &mut scratch).unwrap(),
            0
        );
        // First half full, second half empty: the union is not the whole
        // window — a cross-range phantom — and must not fingerprint as
        // either legal outcome.
        let mut torn = MemAccess::new(vec![], 0, 8).with_covered(full[..2].to_vec());
        let fp = execute_procedure(&halves, &mut torn, &mut scratch).unwrap();
        assert_ne!(fp, range_audit_fingerprint(4, 4));
        assert_ne!(fp, 0);
    }

    #[test]
    fn insert_keyed_writes_row_keyed_values() {
        let writes = vec![rid(7), rid(9)];
        let mut a = MemAccess::new(vec![], 2, 16);
        let mut scratch = ExecScratch::new();
        let fp = exec_no_scans(
            &Procedure::InsertKeyed { base: 50 },
            &[],
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fp, 50);
        assert_eq!(a.written_u64(0), 57);
        assert_eq!(a.written_u64(1), 59);
        assert_eq!(a.written[1].as_ref().unwrap().len(), 16);
    }

    #[test]
    fn probe_all_folds_presence_and_absence() {
        let reads = vec![rid(1), rid(2)];
        let mut a = MemAccess::new(vec![7], 0, 8).with_absent(1);
        let mut scratch = ExecScratch::new();
        let fp = exec_no_scans(&Procedure::ProbeAll, &reads, &[], &mut a, &mut scratch).unwrap();
        let c = value::checksum(&crate::value::of_u64(7, 8));
        assert_eq!(fp, c.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT));
    }

    #[test]
    fn guarded_delete_aborts_before_touching_anything() {
        let reads = vec![rid(0)];
        let writes = vec![rid(5), rid(6)];
        let mut a = MemAccess::new(vec![4], 2, 8);
        let mut scratch = ExecScratch::new();
        let r = exec_no_scans(
            &Procedure::GuardedDelete { min: 5 },
            &reads,
            &writes,
            &mut a,
            &mut scratch,
        );
        assert_eq!(r.unwrap_err(), AbortReason::User);
        assert!(a.deleted.iter().all(|d| !d), "abort precedes every delete");
    }

    #[test]
    fn guarded_delete_deletes_every_target_when_guard_passes() {
        let reads = vec![rid(0)];
        let writes = vec![rid(5), rid(6)];
        let mut a = MemAccess::new(vec![9], 2, 8);
        let mut scratch = ExecScratch::new();
        let fp = exec_no_scans(
            &Procedure::GuardedDelete { min: 5 },
            &reads,
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fp, 9, "fingerprint is the guard value");
        assert!(a.deleted.iter().all(|d| *d));
    }

    #[test]
    fn apply_writes_and_deletes_positionally() {
        let writes = vec![rid(5), rid(6), rid(7)];
        let values: std::sync::Arc<[Option<crate::Value>]> = vec![
            Some(crate::value::of_u64(11, 8)),
            None,
            Some(crate::value::of_u64(13, 8)),
        ]
        .into();
        let mut a = MemAccess::new(vec![], 3, 8);
        let mut scratch = ExecScratch::new();
        let fp = exec_no_scans(
            &Procedure::Apply { values },
            &[],
            &writes,
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(fp, 0, "Apply carries no fingerprint of its own");
        assert_eq!(a.written_u64(0), 11);
        assert!(a.deleted[1], "None applies as a delete");
        assert_eq!(a.written_u64(2), 13);
    }

    #[test]
    fn smallbank_balance_sums() {
        let mut a = MemAccess::new(vec![30, 12], 0, 8);
        let mut scratch = ExecScratch::new();
        let got = small_bank(SmallBankProc::Balance, &mut a, &mut scratch).unwrap();
        assert_eq!(got, 42);
    }

    #[test]
    fn smallbank_deposit_adds() {
        let mut a = MemAccess::new(vec![100], 1, 8);
        let mut scratch = ExecScratch::new();
        small_bank(
            SmallBankProc::DepositChecking { v: 25 },
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.written_u64(0), 125);
    }

    #[test]
    fn smallbank_transact_saving_aborts_on_overdraft() {
        let mut a = MemAccess::new(vec![10], 1, 8);
        let mut scratch = ExecScratch::new();
        let r = small_bank(
            SmallBankProc::TransactSaving { v: -11 },
            &mut a,
            &mut scratch,
        );
        assert_eq!(r.unwrap_err(), AbortReason::User);
        assert!(a.written[0].is_none(), "aborted txn must not write");
    }

    #[test]
    fn smallbank_transact_saving_allows_exact_zero() {
        let mut a = MemAccess::new(vec![10], 1, 8);
        let mut scratch = ExecScratch::new();
        small_bank(
            SmallBankProc::TransactSaving { v: -10 },
            &mut a,
            &mut scratch,
        )
        .unwrap();
        assert_eq!(a.written_u64(0), 0);
    }

    #[test]
    fn smallbank_amalgamate_moves_all_funds() {
        let mut a = MemAccess::new(vec![5, 7, 100], 3, 8);
        let mut scratch = ExecScratch::new();
        small_bank(SmallBankProc::Amalgamate, &mut a, &mut scratch).unwrap();
        assert_eq!(a.written_u64(0), 0);
        assert_eq!(a.written_u64(1), 0);
        assert_eq!(a.written_u64(2), 112);
    }

    #[test]
    fn smallbank_write_check_penalizes_overdraft() {
        // total 10, check of 15 → overdraft: checking = 4 - 15 - 1 = -12.
        let mut a = MemAccess::new(vec![6, 4], 1, 8);
        let mut scratch = ExecScratch::new();
        small_bank(SmallBankProc::WriteCheck { v: 15 }, &mut a, &mut scratch).unwrap();
        assert_eq!(a.written_u64(0) as i64, -12);
    }

    #[test]
    fn smallbank_write_check_normal_case_may_go_negative_without_penalty() {
        // total 20 covers the 15 check; checking alone goes to -1, no penalty.
        let mut a = MemAccess::new(vec![6, 14], 1, 8);
        let mut scratch = ExecScratch::new();
        small_bank(SmallBankProc::WriteCheck { v: 15 }, &mut a, &mut scratch).unwrap();
        assert_eq!(a.written_u64(0) as i64, -1);
    }
}
