//! Engine-agnostic database specifications.
//!
//! Every engine preloads the same logical database; this module is the
//! single source of truth a benchmark uses to instantiate BOHM, Hekaton,
//! SI, OCC and 2PL over identical contents.
//!
//! Secondary indexes ([`IndexDef`]) are declared here too and **lowered
//! into a table of posting-list records** (one row per index key, seeded
//! empty), so every engine builder materializes the index through its
//! ordinary table machinery and every engine's concurrency control covers
//! index maintenance and index scans without engine-specific builder code
//! (see `bohm_common::index` for the record format and the protocol
//! story).

/// One table: seeded row count, insert headroom, fixed record size, and the
/// seed value of each preloaded row's `u64` prefix.
pub struct TableDef {
    /// Rows preloaded before the run (each seeded via [`seed`](Self::seed)).
    pub rows: u64,
    /// Additional row ids reserved for record inserts: rows
    /// `rows .. rows + spare_rows` start **absent** and come into existence
    /// only when a transaction writes them (TPC-C-lite orders). Zero for
    /// the paper's static-key workloads.
    pub spare_rows: u64,
    pub record_size: usize,
    pub seed: fn(u64) -> u64,
}

impl TableDef {
    /// Total addressable rows: seeded prefix plus insert headroom. Every
    /// engine addresses at least these; the array-backed ones exactly
    /// these.
    #[inline]
    pub fn capacity(&self) -> u64 {
        self.rows + self.spare_rows
    }
}

/// One declared secondary index: a `key → member rows` mapping over
/// `on_table`, stored as a table of posting-list records (one fixed-size
/// record per key; see `bohm_common::index`).
///
/// Declaring the index via [`DatabaseSpec::with_index`] appends that
/// posting-list table to the spec — every key's list is **seeded present
/// and empty**, which matters for the engines' phantom protection: an
/// empty list is still a lockable/validatable record (2PL's gap lock on a
/// key with no members yet, OCC's per-key TID word, a Hekaton/SI version,
/// a BOHM chain the CC phase can annotate).
#[derive(Clone, Copy, Debug)]
pub struct IndexDef {
    /// Table whose rows the posting lists point into.
    pub on_table: u32,
    /// Number of distinct index keys (one posting-list row per key; the
    /// key *is* the row id of the posting-list table).
    pub keys: u64,
    /// Maximum member rows per key — fixes the posting-list record size.
    /// Workload generators must keep every key's live membership within
    /// this bound; `bohm_common::index::posting_insert` rejects overflow
    /// rather than corrupting neighbours.
    pub max_entries: u64,
}

/// A full database: tables with dense ids in declaration order, plus the
/// secondary indexes lowered into posting-list tables.
pub struct DatabaseSpec {
    pub tables: Vec<TableDef>,
    /// Declared secondary indexes, paired with the dense table id their
    /// posting-list table was lowered to.
    pub indexes: Vec<(IndexDef, u32)>,
}

impl DatabaseSpec {
    pub fn new(tables: Vec<TableDef>) -> Self {
        Self {
            tables,
            indexes: Vec::new(),
        }
    }

    /// Declare a secondary index: appends its posting-list table (all keys
    /// seeded with empty lists) and records the mapping. Returns the spec
    /// for chaining; the lowered table id is recoverable via
    /// [`indexes`](Self::indexes) or as `tables.len() - 1` right after the
    /// call.
    pub fn with_index(mut self, def: IndexDef) -> Self {
        assert!(
            (def.on_table as usize) < self.tables.len(),
            "index declared over unknown table {}",
            def.on_table
        );
        assert!(
            def.max_entries > 0,
            "index needs room for at least one member"
        );
        self.tables.push(TableDef {
            rows: def.keys,
            spare_rows: 0,
            record_size: bohm_common::index::posting_record_size(def.max_entries),
            seed: |_| 0, // count word 0: every key starts with an empty list
        });
        self.indexes.push((def, (self.tables.len() - 1) as u32));
        self
    }

    /// Table shapes as `(capacity, record_size)` pairs — sizing input for
    /// the fixed-size stores (Hekaton array index, single-version slabs),
    /// which must reserve slots for insertable rows up front.
    pub fn shapes(&self) -> Vec<(u64, usize)> {
        self.tables
            .iter()
            .map(|t| (t.capacity(), t.record_size))
            .collect()
    }

    /// Preloaded rows across all tables.
    pub fn total_rows(&self) -> u64 {
        self.tables.iter().map(|t| t.rows).sum()
    }

    /// Addressable rows across all tables (preloaded + insert headroom).
    pub fn total_capacity(&self) -> u64 {
        self.tables.iter().map(|t| t.capacity()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn with_index_lowers_a_posting_list_table() {
        let spec = DatabaseSpec::new(vec![TableDef {
            rows: 0,
            spare_rows: 16,
            record_size: 32,
            seed: |_| 0,
        }])
        .with_index(IndexDef {
            on_table: 0,
            keys: 4,
            max_entries: 3,
        });
        assert_eq!(spec.tables.len(), 2);
        let (def, tid) = spec.indexes[0];
        assert_eq!(tid, 1);
        assert_eq!(def.on_table, 0);
        let t = &spec.tables[tid as usize];
        assert_eq!(t.rows, 4, "one posting-list row per key, all seeded");
        assert_eq!(t.record_size, 8 + 8 * 3);
        assert_eq!((t.seed)(2), 0, "lists start empty (count word 0)");
    }

    #[test]
    #[should_panic(expected = "unknown table")]
    fn with_index_rejects_unknown_tables() {
        let _ = DatabaseSpec::new(vec![]).with_index(IndexDef {
            on_table: 0,
            keys: 1,
            max_entries: 1,
        });
    }

    #[test]
    fn shapes_and_totals() {
        let spec = DatabaseSpec::new(vec![
            TableDef {
                rows: 10,
                spare_rows: 0,
                record_size: 8,
                seed: |r| r,
            },
            TableDef {
                rows: 5,
                spare_rows: 3,
                record_size: 1000,
                seed: |_| 0,
            },
        ]);
        assert_eq!(spec.shapes(), vec![(10, 8), (8, 1000)]);
        assert_eq!(spec.total_rows(), 15);
        assert_eq!(spec.total_capacity(), 18);
        assert_eq!(spec.tables[1].capacity(), 8);
        assert_eq!((spec.tables[0].seed)(7), 7);
    }
}
