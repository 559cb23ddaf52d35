//! Posting-list records: the storage format of secondary indexes.
//!
//! A secondary index maps a logical key (e.g. a customer) to the set of
//! rows of another table that currently belong to it (the customer's live
//! orders). Rather than inventing a sixth per-engine synchronization
//! mechanism, the index is represented as an ordinary **table of
//! posting-list records** — one fixed-size record per index key holding
//! the key's sorted member rows — so every engine's existing concurrency
//! control covers it:
//!
//! * index *maintenance* is a read-modify-write of the key's posting-list
//!   record, declared in the maintaining transaction's read and write sets
//!   like any other RMW (2PL takes the key-granular exclusive lock, OCC
//!   bumps the record's TID word — the per-index-key version counter —
//!   Hekaton/SI version the list, BOHM installs a placeholder), and
//! * an index *scan* (the procedure layer's `index_scan`) reads the
//!   posting-list record at the transaction's snapshot and then each member
//!   row ([`Access::read_covered`](crate::access::Access::read_covered)),
//!   so a concurrent insert into or delete from the key's posting set
//!   serializes entirely before or after the scan — the
//!   phantom-protection story of range scans, carried over to a sparse,
//!   key-addressed access path.
//!
//! Record layout: a `u64` member count at byte 0, followed by the member
//! row ids as little-endian `u64`s in **ascending order**. The record size
//! fixes the per-key capacity ([`posting_capacity`]); workload generators
//! are responsible for never exceeding it (see
//! `TpccConfig::orders_per_customer`).
//!
//! The mutation helpers return `bool` instead of panicking: an optimistic
//! engine may execute a doomed attempt against a torn snapshot (e.g. OCC
//! reading the order and its posting list under different TIDs) where a
//! membership invariant transiently fails; the attempt is thrown away at
//! validation, so the procedure must stay total. On a serializable commit
//! path the workload invariants make these operations infallible, and the
//! cross-engine equivalence tests catch any divergence.

use crate::value::{get_u64, put_u64};

/// Record size of a posting list holding up to `max_entries` member rows.
#[inline]
pub fn posting_record_size(max_entries: u64) -> usize {
    8 + 8 * max_entries as usize
}

/// Maximum member rows a posting-list record of `record_size` can hold.
#[inline]
pub fn posting_capacity(record_size: usize) -> u64 {
    (record_size.saturating_sub(8) / 8) as u64
}

/// Current member count of a posting-list record.
#[inline]
pub fn posting_count(buf: &[u8]) -> u64 {
    // Tolerate a corrupt (torn-snapshot) count on doomed optimistic
    // attempts: clamp to what the record can physically hold.
    get_u64(buf, 0).min(posting_capacity(buf.len()))
}

/// The member rows of a posting-list record, in ascending order.
#[inline]
pub fn posting_rows(buf: &[u8]) -> impl Iterator<Item = u64> + '_ {
    (0..posting_count(buf)).map(move |i| get_u64(buf, 8 + 8 * i as usize))
}

/// Insert `row` into the posting list, keeping members sorted. Returns
/// `false` (and leaves the record untouched) if the list is full or the
/// row is already a member — tolerable only on doomed optimistic attempts;
/// see the module docs.
pub fn posting_insert(buf: &mut [u8], row: u64) -> bool {
    let n = posting_count(buf);
    if n >= posting_capacity(buf.len()) {
        return false;
    }
    // Find the insertion point (lists are small; linear scan beats the
    // branch misses of binary search at these sizes).
    let mut at = n as usize;
    for i in 0..n as usize {
        let v = get_u64(buf, 8 + 8 * i);
        if v == row {
            return false;
        }
        if v > row {
            at = i;
            break;
        }
    }
    // Shift the tail up one slot and write the new member.
    for i in (at..n as usize).rev() {
        let v = get_u64(buf, 8 + 8 * i);
        put_u64(buf, 8 + 8 * (i + 1), v);
    }
    put_u64(buf, 8 + 8 * at, row);
    put_u64(buf, 0, n + 1);
    true
}

/// Remove `row` from the posting list. Returns `false` if it was not a
/// member (tolerable only on doomed optimistic attempts; see module docs).
pub fn posting_remove(buf: &mut [u8], row: u64) -> bool {
    let n = posting_count(buf);
    for i in 0..n as usize {
        if get_u64(buf, 8 + 8 * i) == row {
            for j in i + 1..n as usize {
                let v = get_u64(buf, 8 + 8 * j);
                put_u64(buf, 8 + 8 * (j - 1), v);
            }
            put_u64(buf, 8 + 8 * (n as usize - 1), 0);
            put_u64(buf, 0, n - 1);
            return true;
        }
    }
    false
}

/// Is `row` a member of the posting list?
#[inline]
pub fn posting_contains(buf: &[u8], row: u64) -> bool {
    posting_rows(buf).any(|r| r == row)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty(cap: u64) -> Vec<u8> {
        vec![0u8; posting_record_size(cap)]
    }

    #[test]
    fn sizes_round_trip() {
        assert_eq!(posting_record_size(0), 8);
        assert_eq!(posting_record_size(4), 40);
        assert_eq!(posting_capacity(40), 4);
        assert_eq!(posting_capacity(8), 0);
    }

    #[test]
    fn insert_keeps_members_sorted() {
        let mut b = empty(4);
        assert!(posting_insert(&mut b, 30));
        assert!(posting_insert(&mut b, 10));
        assert!(posting_insert(&mut b, 20));
        assert_eq!(posting_count(&b), 3);
        assert_eq!(posting_rows(&b).collect::<Vec<_>>(), vec![10, 20, 30]);
        assert!(posting_contains(&b, 20));
        assert!(!posting_contains(&b, 25));
    }

    #[test]
    fn duplicate_and_overflow_inserts_are_rejected() {
        let mut b = empty(2);
        assert!(posting_insert(&mut b, 1));
        assert!(!posting_insert(&mut b, 1), "duplicate");
        assert!(posting_insert(&mut b, 2));
        assert!(!posting_insert(&mut b, 3), "full");
        assert_eq!(posting_rows(&b).collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn remove_compacts_and_reports_absence() {
        let mut b = empty(4);
        for r in [5, 7, 9] {
            assert!(posting_insert(&mut b, r));
        }
        assert!(posting_remove(&mut b, 7));
        assert_eq!(posting_rows(&b).collect::<Vec<_>>(), vec![5, 9]);
        assert!(!posting_remove(&mut b, 7), "already gone");
        assert!(posting_remove(&mut b, 5));
        assert!(posting_remove(&mut b, 9));
        assert_eq!(posting_count(&b), 0);
        // Empty list is re-usable.
        assert!(posting_insert(&mut b, 1));
        assert_eq!(posting_rows(&b).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    fn corrupt_count_is_clamped_not_out_of_bounds() {
        // A torn snapshot on a doomed optimistic attempt may present an
        // arbitrary count word; iteration must stay in bounds.
        let mut b = empty(2);
        put_u64(&mut b, 0, u64::MAX);
        assert_eq!(posting_count(&b), 2);
        assert_eq!(posting_rows(&b).count(), 2);
        assert!(!posting_insert(&mut b, 3), "clamped-full list rejects");
    }
}
