//! The record store: every row's version chain, found at `table[row]`.
//!
//! Every row space here is dense and declared — a table's seeded rows, its
//! insert headroom after them, and posting-list tables keyed by row — so
//! BOHM finds a record the way 2PL and OCC find theirs, by position, not by
//! hashing. Each table has a fixed directory of segments; a segment is a
//! line-aligned array of [`Chain`]s carved from zeroed memory, and an
//! all-zero chain is an empty one. So `rid` maps to
//! `dir[table][row / SEGMENT_ROWS][row % SEGMENT_ROWS]`, a row nobody has
//! written costs no memory until its page is touched, and a null directory
//! entry means every row behind it is absent.
//!
//! * **Who allocates.** Submission ([`Store::check`], on the caller's
//!   thread, and replay) only refuses a record no table can hold. A
//!   segment is allocated when a batch is sealed whose plan — the records
//!   the CC phase will look up: every write and every annotated read — names
//!   one of its rows ([`Store::reserve`], from `TxnState::new`). The plan
//!   entry keeps the chain's address, and the sealer publishes segment and
//!   plan to the CC threads with the batch (`Window::push`), so the CC
//!   threads neither allocate nor look anything up. Racing reservations of
//!   one segment serialize on the table's allocation mutex, which the fast
//!   path never takes.
//! * **Chains never move.** Segments are freed only when the store drops,
//!   and a segment's chains sit at fixed addresses inside it, so a chain's
//!   address is good for as long as the store lives.
//! * **Who reads the directory.** Everyone else Acquire-loads it: a row of
//!   a scan range, an index-scan member or an un-annotated read may sit in
//!   a segment a later batch is allocating right now. A null entry is then
//!   correctly absent at the reader's timestamp — every write at or below
//!   it had its segment reserved by the time the reader's batch was
//!   sealed.
//! * **CC ownership is by cache line.** Four chains share a 64-byte line, so
//!   a CC thread owns every chain of a line ([`owner`], from the chain's
//!   address), and no line is written by two CC threads: the
//!   single-writer-per-chain rule the version store relies on holds per
//!   line.
//! * **Rows past a table's directory** ([`MAX_ROWS`]) and unknown tables are
//!   refused at submission. A deleted row keeps its tombstone until its next
//!   install truncates it: at most one per row, so nothing needs a sweep.

use crate::config::CatalogSpec;
use bohm_common::{RecordId, Txn};
use bohm_mvstore::{Chain, Version};
use bohm_sync::atomic::{AtomicPtr, Ordering};
use bohm_sync::hint::prefetch_read;
use bohm_sync::Mutex;
use crossbeam_epoch::{Guard, Owned};
use std::alloc::Layout;
use std::ptr;

/// log2 of the rows per segment (1 MiB of chains).
#[cfg(not(bohm_modelcheck))]
const SEGMENT_BITS: u32 = 16;
/// log2 of the segments in a table's directory (512 KiB of pointers).
#[cfg(not(bohm_modelcheck))]
const DIRECTORY_BITS: u32 = 16;
// The model checker's atomics are many words each, and all-zero bytes are
// not one of them, so its build keeps both levels small.
#[cfg(bohm_modelcheck)]
const SEGMENT_BITS: u32 = 2;
#[cfg(bohm_modelcheck)]
const DIRECTORY_BITS: u32 = 4;

const SEGMENT_ROWS: usize = 1 << SEGMENT_BITS;
const DIRECTORY_LEN: usize = 1 << DIRECTORY_BITS;

/// Rows a table can address: `submit` refuses a row id at or above this,
/// and recovery refuses a log record that names one.
pub(crate) const MAX_ROWS: u64 = 1 << (SEGMENT_BITS + DIRECTORY_BITS);

const LINE: usize = 64;
// Four chains per cache line.
#[cfg(not(bohm_modelcheck))]
const _: () = assert!(std::mem::size_of::<Chain>() * 4 == LINE);

/// The CC thread, of `m`, that owns `chain`: a hash of its cache line's
/// address, so the same for every chain of the line and no line is written
/// by two CC threads.
#[inline]
pub(crate) fn owner(chain: *const Chain, m: usize) -> usize {
    let line = (chain as usize / LINE) as u64;
    ((line.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32) % m as u64) as usize
}

/// Look-ahead stages for a later access to `chain`: (0) its line, (1) its
/// head version, (2) what lies behind the head — its predecessor for an
/// installer (`install`), else its payload. Hints only: each stage derives
/// its addresses afresh from the chain and returns nothing.
///
/// Stage 2 dereferences the head, so it is for callers the head cannot
/// be recycled under: the chain's CC owner, or a transaction that is
/// executing (see `BohmAccess`).
#[inline]
pub(crate) fn look_ahead(stage: usize, chain: &Chain, install: bool, guard: &Guard) {
    match stage {
        0 => prefetch_read(chain),
        1 => chain.prefetch_head(guard),
        _ => match chain.latest(guard) {
            Some(head) if install => head.prefetch_prev(guard),
            Some(head) => head.prefetch_payload(),
            None => {}
        },
    }
}

#[cfg(test)]
thread_local! {
    /// [`Store::chain`] calls this thread made.
    pub(crate) static LOOKUPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// `len` values of `T` in one line-aligned allocation of zeroed memory,
/// dropped in place and freed with it.
struct Zeroed<T> {
    raw: *mut u8,
    at: *mut T,
    len: usize,
}

// SAFETY: a `Zeroed<T>` owns its `T`s like a `Box<[T]>` does.
unsafe impl<T: Send> Send for Zeroed<T> {}
// SAFETY: as above; shared access hands out `&T` only.
unsafe impl<T: Sync> Sync for Zeroed<T> {}

impl<T> Zeroed<T> {
    /// # Safety
    /// All-zero bytes must be a valid `T` in the real build (`Chain` and
    /// `AtomicPtr` are: an empty chain, a null pointer). In the
    /// model-checking build, where they are not, each value is `fresh()`.
    unsafe fn new(len: usize, fresh: impl Fn() -> T) -> Self {
        let layout = Self::layout(len);
        // SAFETY: the layout has a non-zero size.
        let raw = unsafe { std::alloc::alloc_zeroed(layout) };
        if raw.is_null() {
            std::alloc::handle_alloc_error(layout);
        }
        // The allocation is 16-aligned and a line longer than the values,
        // so the first line boundary leaves room for all of them.
        let at = raw.wrapping_add(raw.align_offset(LINE)).cast::<T>();
        if cfg!(bohm_modelcheck) {
            for i in 0..len {
                // SAFETY: in bounds, per the layout; nothing to drop yet.
                unsafe { at.add(i).write(fresh()) };
            }
        }
        Self { raw, at, len }
    }

    fn layout(len: usize) -> Layout {
        let bytes = len * std::mem::size_of::<T>() + LINE;
        Layout::from_size_align(bytes, 16).expect("a store array fits in memory")
    }

    #[inline]
    fn as_slice(&self) -> &[T] {
        // SAFETY: `len` initialized values, alive as long as `self`.
        unsafe { std::slice::from_raw_parts(self.at, self.len) }
    }
}

impl<T> Drop for Zeroed<T> {
    fn drop(&mut self) {
        // SAFETY: the values are initialized and dropped once, here; the
        // allocation came from `new` with this very layout.
        unsafe {
            ptr::drop_in_place(ptr::slice_from_raw_parts_mut(self.at, self.len));
            std::alloc::dealloc(self.raw, Self::layout(self.len));
        }
    }
}

/// One table: its directory, and the segments behind it.
struct Table {
    /// Entry `s` points at the chains of rows `s·SEGMENT_ROWS ..`, or is
    /// null while no sealed plan has named one of them.
    dir: Zeroed<AtomicPtr<Chain>>,
    /// The segments the directory points into, in allocation order; the
    /// mutex serializes allocation.
    segments: Mutex<Vec<Zeroed<Chain>>>,
}

impl Table {
    fn new() -> Self {
        Self {
            // SAFETY: a null pointer is all-zero bytes.
            dir: unsafe { Zeroed::new(DIRECTORY_LEN, || AtomicPtr::new(ptr::null_mut())) },
            segments: Mutex::new(Vec::new()),
        }
    }

    /// The chains of segment `entry`, if it is allocated.
    #[inline]
    fn segment(entry: &AtomicPtr<Chain>) -> Option<&[Chain]> {
        let at = entry.load(Ordering::Acquire);
        // SAFETY: a published segment holds `SEGMENT_ROWS` initialized
        // chains (the Release store below orders them before it) and is
        // freed only when the store drops.
        (!at.is_null()).then(|| unsafe { std::slice::from_raw_parts(at, SEGMENT_ROWS) })
    }

    /// The chains of segment `entry`, allocated first if need be.
    fn reserve<'a>(&'a self, entry: &'a AtomicPtr<Chain>) -> &'a [Chain] {
        if let Some(chains) = Self::segment(entry) {
            return chains;
        }
        let mut segments = self.segments.lock();
        if entry.load(Ordering::Acquire).is_null() {
            // SAFETY: an empty chain is all-zero bytes.
            let segment = unsafe { Zeroed::new(SEGMENT_ROWS, Chain::new) };
            entry.store(segment.at, Ordering::Release);
            segments.push(segment);
        }
        drop(segments);
        Self::segment(entry).expect("allocated above")
    }
}

/// Every table's chains. See the module docs.
pub(crate) struct Store {
    tables: Box<[Table]>,
}

impl Store {
    /// The store of `catalog`, preloaded: row `r` of each table holds a
    /// version at timestamp 0 with `seed(r)` in its `u64` prefix. Each
    /// seeded version is built in place — a placeholder filled with the
    /// seed — and installed straight into its row's chain.
    pub fn new(catalog: &CatalogSpec) -> Self {
        let store = Self {
            tables: catalog.tables.iter().map(|_| Table::new()).collect(),
        };
        // Nothing else can see the store yet: every chain's single writer
        // is this thread.
        let guard = crossbeam_epoch::pin();
        for (spec, table) in catalog.tables.iter().zip(store.tables.iter()) {
            assert!(spec.record_size >= 8, "record too small for a u64 payload");
            assert!(
                spec.rows <= MAX_ROWS,
                "a table holds at most {MAX_ROWS} rows, not {}",
                spec.rows
            );
            let entries = table.dir.as_slice().iter();
            for (s, entry) in entries
                .take(spec.rows.div_ceil(SEGMENT_ROWS as u64) as usize)
                .enumerate()
            {
                let first = (s * SEGMENT_ROWS) as u64;
                let rows = first..spec.rows.min(first + SEGMENT_ROWS as u64);
                for (row, chain) in rows.zip(table.reserve(entry)) {
                    let v = Version::placeholder(0, spec.record_size);
                    v.fill_with(|d| bohm_common::value::put_u64(d, 0, (spec.seed)(row)));
                    chain.install(Owned::new(v), &guard);
                }
            }
        }
        store
    }

    /// The directory entry of `rid`'s segment, if `rid` is addressable.
    #[inline]
    fn entry(&self, rid: RecordId) -> Option<(&Table, &AtomicPtr<Chain>)> {
        let table = self.tables.get(rid.table.index())?;
        let entry = table
            .dir
            .as_slice()
            .get(usize::try_from(rid.row >> SEGMENT_BITS).ok()?)?;
        Some((table, entry))
    }

    /// `rid`'s chain, or `None` if no sealed plan has named a row of its
    /// segment — every such row is absent — or `rid` is not addressable.
    #[inline]
    pub fn chain(&self, rid: RecordId) -> Option<&Chain> {
        #[cfg(test)]
        LOOKUPS.with(|n| n.set(n.get() + 1));
        let (_, entry) = self.entry(rid)?;
        Table::segment(entry).map(|chains| &chains[rid.row as usize & (SEGMENT_ROWS - 1)])
    }

    /// `rid`'s chain, its segment allocated first if need be.
    ///
    /// # Panics
    ///
    /// If `rid` is not addressable: [`check`](Self::check) refuses such a
    /// transaction before it is logged.
    #[inline]
    pub fn reserve(&self, rid: RecordId) -> &Chain {
        let (table, entry) = self.entry(rid).expect("submission checks every record");
        let chains = Table::segment(entry).unwrap_or_else(|| table.reserve(entry));
        &chains[rid.row as usize & (SEGMENT_ROWS - 1)]
    }

    /// Check that every record `txn` reads or writes is addressable. The
    /// error names the first record that is not. Allocates nothing: a
    /// segment is reserved when a sealed plan names it.
    pub fn check(&self, txn: &Txn) -> Result<(), String> {
        let bad = |rid: &&RecordId| self.entry(**rid).is_none();
        match txn.reads.iter().chain(txn.writes.iter()).find(bad) {
            None => Ok(()),
            Some(rid) if rid.table.index() < self.tables.len() => Err(format!(
                "record {rid} is past the {MAX_ROWS} rows a table holds"
            )),
            Some(rid) => Err(format!(
                "record {rid} names table {}, which does not exist",
                rid.table
            )),
        }
    }

    /// Visit every row whose segment is allocated, table by table in row
    /// order, with its chain.
    pub fn for_each(&self, f: &mut dyn FnMut(RecordId, &Chain)) {
        for (t, table) in self.tables.iter().enumerate() {
            for (s, entry) in table.dir.as_slice().iter().enumerate() {
                let Some(chains) = Table::segment(entry) else {
                    continue;
                };
                let first = (s * SEGMENT_ROWS) as u64;
                for (row, chain) in (first..).zip(chains) {
                    f(RecordId::new(t as u32, row), chain);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::Procedure;

    fn rid(table: u32, row: u64) -> RecordId {
        RecordId::new(table, row)
    }

    fn blind(rid: RecordId) -> Txn {
        Txn::new(vec![], vec![rid], Procedure::BlindWrite { value: 1 })
    }

    fn store() -> Store {
        Store::new(
            &CatalogSpec::new()
                .table(3, 8, |r| r + 10)
                .table(0, 16, |_| 0),
        )
    }

    #[test]
    fn seeded_rows_have_one_version_and_the_rest_of_their_segment_is_absent() {
        let s = store();
        let g = crossbeam_epoch::pin();
        for row in 0..3 {
            let v = s.chain(rid(0, row)).unwrap().latest(&g).unwrap();
            assert_eq!(
                (v.begin(), bohm_common::value::get_u64(v.data(), 0)),
                (0, row + 10)
            );
        }
        assert!(
            s.chain(rid(0, 3)).unwrap().is_empty(&g),
            "same segment, empty"
        );
        assert!(
            s.chain(rid(0, SEGMENT_ROWS as u64)).is_none(),
            "next segment"
        );
        assert!(
            s.chain(rid(1, 0)).is_none(),
            "a table declared with no rows"
        );
        assert!(s.chain(rid(2, 0)).is_none(), "no such table");
        assert!(s.chain(rid(0, MAX_ROWS)).is_none(), "past the directory");
        assert!(s.chain(rid(0, u64::MAX)).is_none());
    }

    #[test]
    fn reservation_allocates_a_segment_once() {
        let s = store();
        let far = rid(1, 5 * SEGMENT_ROWS as u64 + 3);
        assert!(s.chain(far).is_none());
        let chain = s.reserve(far) as *const Chain;
        assert_eq!(s.chain(far).unwrap() as *const Chain, chain);
        s.reserve(rid(1, 5 * SEGMENT_ROWS as u64));
        assert_eq!(s.reserve(far) as *const Chain, chain, "not again");
        assert_eq!(s.tables[1].segments.lock().len(), 1);
        let mut rows = Vec::new();
        s.for_each(&mut |r, _| rows.push(r));
        assert_eq!(rows.len(), 2 * SEGMENT_ROWS);
        assert!(rows.contains(&far) && rows.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn check_refuses_unknown_tables_and_rows_past_the_directory_and_allocates_nothing() {
        let s = store();
        let err = s.check(&blind(rid(0, MAX_ROWS))).unwrap_err();
        assert!(err.contains("past the"), "{err}");
        let err = s.check(&blind(rid(9, 0))).unwrap_err();
        assert!(err.contains("does not exist"), "{err}");
        let read = Txn::new(vec![rid(0, u64::MAX)], vec![], Procedure::ReadOnly);
        assert!(s.check(&read).is_err(), "reads are checked too");
        let far = rid(1, MAX_ROWS - 1);
        s.check(&blind(far)).unwrap();
        assert!(s.chain(far).is_none(), "a check reserves nothing");
    }

    #[test]
    #[cfg(not(bohm_modelcheck))]
    fn four_rows_share_a_line_and_its_owner() {
        let s = store();
        let at = |row| s.chain(rid(0, row)).unwrap() as *const Chain as usize;
        assert_eq!(at(0) % LINE, 0, "segments are line-aligned");
        assert_eq!(at(4) - at(0), LINE);
        let owners = |row, m| owner(s.reserve(rid(1, row)), m);
        for m in 1..=8 {
            assert!((4..8).all(|row| owners(row, m) == owners(4, m)));
            assert!(owners(4, m) < m);
        }
        // Neighbouring lines hash apart (seen with many owners).
        assert_ne!(owners(7, 1 << 16), owners(8, 1 << 16));
    }
}
