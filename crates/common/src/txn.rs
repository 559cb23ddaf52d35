//! The transaction model: whole transactions with pre-declared sets.
//!
//! BOHM's model (paper §1, §3): a transaction is submitted in its entirety,
//! with a deducible write-set (and, for the §3.2.3 read-set optimization,
//! read-set). We represent that directly — a [`Txn`] is data: declared read
//! and write sets plus a [`Procedure`] describing its logic. All five
//! engines consume the same `Txn` values.

use crate::arena::{Arena, SetBuf};
use crate::procedures::Procedure;
use crate::types::{RecordId, TableId};

/// One declared key-range scan: the half-open row interval `lo..hi` of one
/// table.
///
/// A scan is a *predicate read* — "every record of `table` whose key lies
/// in `lo..hi`" — and therefore subject to the phantom problem: a
/// concurrent insert into (or delete from) the range must be serialized
/// against the scan, not merely against the records that happened to exist
/// when the scan ran. Each engine realizes that protection with its own
/// mechanism (range locks, per-slot validation, commit-time re-scan, or
/// BOHM's timestamp-filtered probe) behind the one per-row read every scan
/// goes through, [`Access::read_covered`](crate::access::Access::read_covered).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ScanRange {
    /// Table whose key range is scanned.
    pub table: TableId,
    /// First row of the range (inclusive).
    pub lo: u64,
    /// End of the range (exclusive).
    pub hi: u64,
}

/// One declared secondary-index scan: "the rows of `table` that currently
/// belong to index key *k*", where *k*'s **posting-list record** is
/// read-set entry [`list`](Self::list).
///
/// A secondary index is stored as a table of posting-list records (one per
/// index key; see [`crate::index`]), so declaring the posting-list record
/// in the read set is what puts the index *key* under concurrency control
/// on every engine — the key-granular 2PL lock, the OCC per-index-key TID
/// validation, the Hekaton/SI list version, BOHM's CC-phase annotation.
/// The member rows themselves are discovered at execution time from the
/// snapshot's list and read through
/// [`Access::read_covered`](crate::access::Access::read_covered).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct IndexScan {
    /// Position **in the read set** of the scanned key's posting-list
    /// record.
    pub list: usize,
    /// Table holding the member rows the posting list points into.
    pub table: TableId,
}

impl IndexScan {
    /// Declare a scan of the posting list at read-set position `list`,
    /// whose members live in `table`.
    #[inline]
    pub const fn new(list: usize, table: u32) -> Self {
        Self {
            list,
            table: TableId(table),
        }
    }
}

impl ScanRange {
    /// Declare the range `lo..hi` of `table`.
    #[inline]
    pub const fn new(table: u32, lo: u64, hi: u64) -> Self {
        Self {
            table: TableId(table),
            lo,
            hi,
        }
    }

    /// Number of row slots the range covers (present or absent).
    #[inline]
    pub fn len(&self) -> u64 {
        self.hi.saturating_sub(self.lo)
    }

    /// Whether the range covers no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.hi <= self.lo
    }

    /// The [`RecordId`] of one row in the range.
    #[inline]
    pub fn rid(&self, row: u64) -> RecordId {
        debug_assert!((self.lo..self.hi).contains(&row));
        RecordId {
            table: self.table,
            row,
        }
    }

    /// Iterate the rows of the range in key order.
    #[inline]
    pub fn rows(&self) -> std::ops::Range<u64> {
        self.lo..self.hi
    }
}

/// One whole transaction, as handed to an engine.
#[derive(Clone, Debug)]
pub struct Txn {
    /// Declared read set. Contains every record the procedure will read,
    /// including the read half of each read-modify-write.
    pub reads: SetBuf<RecordId>,
    /// Declared write set. Placeholders are created for exactly these
    /// records in BOHM's concurrency-control phase (paper §3.2.2).
    pub writes: SetBuf<RecordId>,
    /// Declared key-range scans (predicate reads). Like the read set, scans
    /// are known up front; unlike it, their *membership* is resolved by the
    /// engine at the transaction's position in the serial order, with
    /// phantom protection. A scanned range must not overlap the
    /// transaction's own write set (engines disagree on whether a scan
    /// observes the transaction's own writes).
    pub scans: SetBuf<ScanRange>,
    /// Declared secondary-index scans. Each names a posting-list record in
    /// the read set (the index *key* under concurrency control) plus the
    /// table its member rows live in; membership is resolved by the engine
    /// at the transaction's position in the serial order, with the same
    /// phantom protection as [`scans`](Self::scans). Index-scanned keys
    /// must not have their posting lists in the transaction's own write
    /// set (the own-write caveat of scans applies).
    pub index_scans: SetBuf<IndexScan>,
    /// Transaction logic (a stored procedure over positional accesses).
    pub proc: Procedure,
    /// Busy-work executed at the start of the transaction body, in
    /// microseconds. SmallBank spins for 50 µs per transaction so its tiny
    /// transactions are "slightly less trivial in size" (paper §4.3).
    pub think_us: u32,
}

impl Txn {
    /// Construct with no think time.
    pub fn new(reads: Vec<RecordId>, writes: Vec<RecordId>, proc: Procedure) -> Self {
        Self {
            reads: reads.into(),
            writes: writes.into(),
            scans: SetBuf::default(),
            index_scans: SetBuf::default(),
            proc,
            think_us: 0,
        }
    }

    /// Construct a transaction that also declares key-range scans.
    pub fn with_scans(
        reads: Vec<RecordId>,
        writes: Vec<RecordId>,
        scans: Vec<ScanRange>,
        proc: Procedure,
    ) -> Self {
        Self {
            reads: reads.into(),
            writes: writes.into(),
            scans: scans.into(),
            index_scans: SetBuf::default(),
            proc,
            think_us: 0,
        }
    }

    /// Construct a transaction that declares secondary-index scans.
    pub fn with_index_scans(
        reads: Vec<RecordId>,
        writes: Vec<RecordId>,
        index_scans: Vec<IndexScan>,
        proc: Procedure,
    ) -> Self {
        for s in &index_scans {
            debug_assert!(s.list < reads.len(), "posting list must be a declared read");
        }
        Self {
            reads: reads.into(),
            writes: writes.into(),
            scans: SetBuf::default(),
            index_scans: index_scans.into(),
            proc,
            think_us: 0,
        }
    }

    /// Repack the declared sets into `arena`, contiguous in submission
    /// order. Called by the sequencer as transactions join a batch, so the
    /// CC and execution phases walk densely packed memory and the client's
    /// `Vec`s are freed up front instead of living as long as the batch.
    pub fn repack(&mut self, arena: &mut Arena) {
        if !self.reads.is_packed() {
            self.reads = SetBuf::Packed(arena.alloc_copy(&self.reads));
        }
        if !self.writes.is_packed() {
            self.writes = SetBuf::Packed(arena.alloc_copy(&self.writes));
        }
        if !self.scans.is_packed() {
            self.scans = SetBuf::Packed(arena.alloc_copy(&self.scans));
        }
        if !self.index_scans.is_packed() {
            self.index_scans = SetBuf::Packed(arena.alloc_copy(&self.index_scans));
        }
    }

    /// True if the transaction declares no writes (long read-only YCSB
    /// transactions, SmallBank `Balance`).
    #[inline]
    pub fn is_read_only(&self) -> bool {
        self.writes.is_empty()
    }

    /// Total declared accesses (used by throughput accounting: the §4.1
    /// microbenchmark reports "record accesses per second"). A scan counts
    /// every slot of its range — each is examined with full concurrency
    /// control whether or not a record exists in it. An index scan's
    /// membership is only known at execution time, so it contributes just
    /// its declared posting-list read (already in the read set).
    #[inline]
    pub fn access_count(&self) -> usize {
        self.reads.len()
            + self.writes.len()
            + self.scans.iter().map(|s| s.len() as usize).sum::<usize>()
    }

    /// Position of `rid` in the read set, if declared.
    #[inline]
    pub fn read_index(&self, rid: RecordId) -> Option<usize> {
        self.reads.iter().position(|r| *r == rid)
    }

    /// Position of `rid` in the write set, if declared.
    #[inline]
    pub fn write_index(&self, rid: RecordId) -> Option<usize> {
        self.writes.iter().position(|r| *r == rid)
    }

    /// Spin for `think_us` microseconds (no yielding — emulates transaction
    /// logic cost exactly like the paper's SmallBank configuration).
    #[inline]
    pub fn think(&self) {
        if self.think_us > 0 {
            let deadline =
                std::time::Instant::now() + std::time::Duration::from_micros(self.think_us as u64);
            while std::time::Instant::now() < deadline {
                std::hint::spin_loop();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procedures::Procedure;

    fn rid(k: u64) -> RecordId {
        RecordId::new(0, k)
    }

    #[test]
    fn read_only_detection() {
        let ro = Txn::new(vec![rid(1)], vec![], Procedure::ReadOnly);
        let rw = Txn::new(
            vec![rid(1)],
            vec![rid(1)],
            Procedure::ReadModifyWrite { delta: 1 },
        );
        assert!(ro.is_read_only());
        assert!(!rw.is_read_only());
    }

    #[test]
    fn positional_lookup() {
        let t = Txn::new(
            vec![rid(5), rid(9)],
            vec![rid(9)],
            Procedure::ReadModifyWrite { delta: 1 },
        );
        assert_eq!(t.read_index(rid(9)), Some(1));
        assert_eq!(t.write_index(rid(9)), Some(0));
        assert_eq!(t.write_index(rid(5)), None);
        assert_eq!(t.access_count(), 3);
    }

    #[test]
    fn scan_range_geometry() {
        let s = crate::txn::ScanRange::new(2, 10, 14);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
        assert_eq!(s.rows().collect::<Vec<_>>(), vec![10, 11, 12, 13]);
        assert_eq!(s.rid(11), RecordId::new(2, 11));
        assert!(crate::txn::ScanRange::new(0, 5, 5).is_empty());
    }

    #[test]
    fn scans_count_their_slots_as_accesses() {
        let t = Txn::with_scans(
            vec![rid(1)],
            vec![],
            vec![crate::txn::ScanRange::new(0, 0, 8)],
            Procedure::ReadOnly,
        );
        assert_eq!(t.access_count(), 1 + 8);
        assert!(t.is_read_only());
    }

    #[test]
    fn index_scans_reference_declared_reads() {
        let cust = RecordId::new(2, 5);
        let list = RecordId::new(5, 5);
        let t = Txn::with_index_scans(
            vec![cust, list],
            vec![],
            vec![crate::txn::IndexScan::new(1, 3)],
            Procedure::ReadOnly,
        );
        assert_eq!(t.index_scans.len(), 1);
        assert_eq!(t.index_scans[0].list, 1);
        assert_eq!(t.index_scans[0].table, crate::types::TableId(3));
        assert_eq!(t.access_count(), 2, "only declared reads are counted");
        assert!(t.is_read_only());
    }

    #[test]
    fn repack_preserves_sets() {
        let pool = crate::arena::ArenaPool::default();
        let mut arena = pool.arena();
        let mut t = Txn::with_scans(
            vec![rid(5), rid(9)],
            vec![rid(9)],
            vec![crate::txn::ScanRange::new(0, 0, 8)],
            Procedure::ReadModifyWrite { delta: 1 },
        );
        let before = t.clone();
        t.repack(&mut arena);
        assert_eq!(t.reads, before.reads);
        assert_eq!(t.writes, before.writes);
        assert_eq!(t.scans, before.scans);
        assert_eq!(t.index_scans, before.index_scans);
        assert_eq!(t.read_index(rid(9)), Some(1));
        assert_eq!(t.access_count(), 3 + 8);
        // Repacking twice is a no-op either way.
        t.repack(&mut arena);
        assert_eq!(t.reads, before.reads);
    }

    #[test]
    fn think_time_elapses() {
        let mut t = Txn::new(vec![], vec![], Procedure::ReadOnly);
        t.think_us = 200;
        let start = std::time::Instant::now();
        t.think();
        assert!(start.elapsed() >= std::time::Duration::from_micros(200));
    }
}
