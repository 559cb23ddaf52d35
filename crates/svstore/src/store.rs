//! Multi-table store: catalog of [`Table`]s addressed by [`RecordId`].

use crate::slab::Table;
use bohm_common::RecordId;

/// An immutable catalog of single-version tables.
pub struct SingleVersionStore {
    tables: Vec<Table>,
    /// Prefix sums of row counts: flat slot index of `(table, row)` is
    /// `slot_base[table] + row`. Shared with the lock manager so lock slots
    /// and records correspond 1:1 without any runtime allocation.
    slot_base: Vec<u64>,
    total_rows: u64,
}

impl SingleVersionStore {
    /// Look up the table backing `rid`. Panics on unknown tables — the
    /// catalog is fixed at load time, so this is a workload bug.
    #[inline]
    pub fn table(&self, rid: RecordId) -> &Table {
        &self.tables[rid.table.index()]
    }

    #[inline]
    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    /// Flat slot index of `rid` across all tables (dense, `< total_slots`).
    ///
    /// Panics if `rid` is past its table: the flat index would be another
    /// table's slot, and a lock taken on it would outlive the panic the
    /// access itself then raises.
    #[inline]
    pub fn slot(&self, rid: RecordId) -> u64 {
        let rows = self.tables[rid.table.index()].rows();
        assert!(
            (rid.row as usize) < rows,
            "record {rid} is past its table's {rows} rows"
        );
        self.slot_base[rid.table.index()] + rid.row
    }

    /// Total number of records across all tables.
    #[inline]
    pub fn total_slots(&self) -> u64 {
        self.total_rows
    }

    /// Sum of the `u64` prefixes of every present record in `table` — used
    /// by invariant tests (e.g. SmallBank money conservation).
    ///
    /// Only call when no writers are active (it reads without the engines'
    /// synchronization protocols).
    pub fn table_sum(&self, table: u32) -> u64 {
        let t = &self.tables[table as usize];
        let mut sum = 0u64;
        for row in 0..t.rows() {
            if !t.is_present(row) {
                continue;
            }
            // SAFETY: caller contract — quiescent store.
            unsafe {
                t.read(row, &mut |b| {
                    sum = sum.wrapping_add(bohm_common::value::get_u64(b, 0));
                });
            }
        }
        sum
    }

    /// Number of present records in `table` (seeded + committed inserts −
    /// committed deletes). Racy under concurrent writers, exact on a
    /// quiescent store; O(1) via the table's presence counter.
    pub fn row_count(&self, table: u32) -> u64 {
        self.tables[table as usize].present_rows() as u64
    }

    /// Slots of `table` available for (re-)insertion — deleted rows return
    /// here, making the implicit free-list depth observable to tests.
    pub fn free_slots(&self, table: u32) -> u64 {
        self.tables[table as usize].free_slots() as u64
    }

    /// Visit every present record across all tables — the checkpoint
    /// snapshot iteration of the single-version engines (2PL, OCC).
    ///
    /// Only call when no writers are active (it reads without the engines'
    /// synchronization protocols); on a quiescent store the visited bytes
    /// are exactly the committed state.
    pub fn for_each_present(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        for (table, t) in self.tables.iter().enumerate() {
            for row in 0..t.rows() {
                if !t.is_present(row) {
                    continue;
                }
                // SAFETY: caller contract — quiescent store.
                unsafe {
                    t.read(row, &mut |b| f(RecordId::new(table as u32, row as u64), b));
                }
            }
        }
    }
}

/// Builder: declare tables, optionally seed initial values, then freeze.
pub struct StoreBuilder {
    tables: Vec<Table>,
}

impl Default for StoreBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl StoreBuilder {
    pub fn new() -> Self {
        Self { tables: Vec::new() }
    }

    /// Append a zeroed table of `rows` × `record_size` bytes; returns its
    /// dense table id (ids are assigned in declaration order).
    pub fn add_table(&mut self, rows: usize, record_size: usize) -> u32 {
        self.tables.push(Table::new(rows, record_size));
        (self.tables.len() - 1) as u32
    }

    /// Append a table with `rows` existing records plus `spare` absent
    /// slots reserved for record inserts.
    pub fn add_table_with_spare(&mut self, rows: usize, spare: usize, record_size: usize) -> u32 {
        self.tables
            .push(Table::with_headroom(rows, spare, record_size));
        (self.tables.len() - 1) as u32
    }

    /// Seed every *present* row of table `table` with the value produced by
    /// `f(row)` written at byte offset 0 as little-endian `u64` (absent
    /// headroom slots have no record to seed).
    pub fn seed_u64(&mut self, table: u32, f: impl Fn(u64) -> u64) -> &mut Self {
        let t = &self.tables[table as usize];
        for row in 0..t.rows() {
            if !t.is_present(row) {
                continue;
            }
            // SAFETY: builder is not shared yet (&mut self).
            unsafe {
                t.with_mut(row, &mut |b| {
                    bohm_common::value::put_u64(b, 0, f(row as u64))
                });
            }
        }
        self
    }

    pub fn build(self) -> SingleVersionStore {
        let mut slot_base = Vec::with_capacity(self.tables.len());
        let mut acc = 0u64;
        for t in &self.tables {
            slot_base.push(acc);
            acc += t.rows() as u64;
        }
        SingleVersionStore {
            tables: self.tables,
            slot_base,
            total_rows: acc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::value::get_u64;

    #[test]
    fn builder_assigns_dense_table_ids() {
        let mut b = StoreBuilder::new();
        assert_eq!(b.add_table(10, 8), 0);
        assert_eq!(b.add_table(5, 16), 1);
        let s = b.build();
        assert_eq!(s.tables().len(), 2);
        assert_eq!(s.total_slots(), 15);
    }

    #[test]
    fn slots_are_dense_and_disjoint() {
        let mut b = StoreBuilder::new();
        b.add_table(10, 8);
        b.add_table(5, 8);
        let s = b.build();
        let mut seen = std::collections::HashSet::new();
        for row in 0..10 {
            assert!(seen.insert(s.slot(RecordId::new(0, row))));
        }
        for row in 0..5 {
            assert!(seen.insert(s.slot(RecordId::new(1, row))));
        }
        assert_eq!(seen.len(), 15);
        assert!(seen.iter().all(|&x| x < 15));
    }

    #[test]
    fn spare_slots_count_and_seed_correctly() {
        let mut b = StoreBuilder::new();
        let t0 = b.add_table(3, 8);
        let t1 = b.add_table_with_spare(2, 4, 8);
        b.seed_u64(t0, |r| r + 1).seed_u64(t1, |r| r + 10);
        let s = b.build();
        assert_eq!(s.total_slots(), 3 + 6, "slots span the full capacity");
        assert_eq!(s.row_count(0), 3);
        assert_eq!(s.row_count(1), 2, "spare slots are not rows yet");
        assert_eq!(s.table_sum(1), 10 + 11, "absent slots don't contribute");
        // Insert into a spare slot (builder-side shortcut for the test).
        let table = s.table(RecordId::new(1, 4));
        // SAFETY: single-threaded test — exclusive access is trivial.
        unsafe { table.write(4, &7u64.to_le_bytes()) };
        table.mark_present(4);
        assert_eq!(s.row_count(1), 3);
        assert_eq!(s.table_sum(1), 10 + 11 + 7);
    }

    #[test]
    fn seeding_writes_prefixes() {
        let mut b = StoreBuilder::new();
        let t = b.add_table(4, 8);
        b.seed_u64(t, |row| row * 100);
        let s = b.build();
        // SAFETY: single-threaded test — no concurrent writer exists.
        unsafe {
            s.table(RecordId::new(0, 3))
                .read(3, &mut |bytes| assert_eq!(get_u64(bytes, 0), 300));
        }
        assert_eq!(s.table_sum(0), 100 + 200 + 300); // row 0 holds 0
    }
}
