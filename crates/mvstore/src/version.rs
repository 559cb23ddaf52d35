//! The version object (paper Fig. 3).
//!
//! A version is created in the concurrency-control phase as a
//! **placeholder**: begin timestamp = producing transaction's timestamp,
//! end timestamp = ∞, data allocated but logically uninitialized
//! (`Pending`). The execution phase later fills the data in exactly once
//! and flips the state to `Ready` (or `Tombstone` for deletes). The paper's
//! "txn pointer" field is the `begin` timestamp itself: in BOHM a version's
//! producer *is* the transaction whose timestamp equals `begin`, so the
//! engine resolves blocked reads by looking the timestamp up in its batch
//! window.
//!
//! A version object may live several lives: once Condition 3 retires it
//! (see [`VersionPool`](crate::pool::VersionPool)) its owning CC thread
//! resets the header and installs it again as a fresh placeholder, payload
//! and all. `begin` and the payload are therefore plain data in
//! race-audited cells, written only while the object is thread-private.
//!
//! # Layout
//! A version is one 48-byte object: four header words (`begin`, `end`,
//! `prev`, then `state` and `len` sharing one) and a 16-byte payload slot.
//! A payload of up to [`INLINE_PAYLOAD`] bytes — `micro_rmw10`'s 8-byte
//! counters and four of the five TPC-C-lite tables' rows — lives in that
//! slot, so a read that found the version has its bytes in the same
//! allocation, usually the same line; a longer one lives in a heap buffer
//! the slot points to. Sixteen bytes is
//! what the buffer's own pointer and length take, so inlining costs the
//! object nothing. The object keeps natural 8-byte alignment: 64-byte
//! aligned heap allocations take glibc's slow aligned path and measurably
//! bottlenecked the CC threads (~5 µs per placeholder), and the recycle
//! path makes the allocator a cold fallback anyway. Its size is pinned:
//! a 56-byte variant cost the CC phase 45% more CPU per transaction.

use bohm_common::{Timestamp, INFINITY_TS};
use bohm_sync::atomic::{AtomicU32, AtomicU64, Ordering};
use bohm_sync::cell::UnsafeCell;
use bohm_sync::hint::prefetch_read;
use crossbeam_epoch::{Atomic, Guard, Shared};

/// Payloads of at most this many bytes live inside the version object.
pub const INLINE_PAYLOAD: usize = 16;

/// Lifecycle of a version's payload.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(u32)]
pub enum VersionState {
    /// Placeholder: the producing transaction has not executed yet.
    /// Readers must block / recursively execute the producer (paper §3.3.1).
    Pending = 0,
    /// Data is valid and immutable.
    Ready = 1,
    /// The record was deleted at `begin`; visible readers observe absence.
    Tombstone = 2,
}

/// The payload slot: the bytes themselves when the record is at most
/// [`INLINE_PAYLOAD`] bytes long, otherwise the heap buffer holding them
/// (the raw pointer of a `Box<[u8]>` of the version's `len`, freed by
/// `Version`'s `Drop`). Which one is decided by `len`, fixed for the
/// object's whole existence.
union Payload {
    inline: [u8; INLINE_PAYLOAD],
    heap: *mut u8,
}

impl Payload {
    fn new(data: Box<[u8]>) -> Self {
        if data.len() <= INLINE_PAYLOAD {
            let mut inline = [0u8; INLINE_PAYLOAD];
            inline[..data.len()].copy_from_slice(&data);
            Payload { inline }
        } else {
            Payload {
                heap: Box::into_raw(data).cast(),
            }
        }
    }

    /// The payload's first byte. Creates no reference: the producer writes
    /// through it while readers may compute it (prefetch).
    ///
    /// # Safety
    /// `this` is valid and `len` is the length the slot was built with.
    #[inline]
    unsafe fn ptr(this: *mut Payload, len: usize) -> *mut u8 {
        if len <= INLINE_PAYLOAD {
            // SAFETY: in bounds of a valid object; no reference is made.
            unsafe { std::ptr::addr_of_mut!((*this).inline).cast() }
        } else {
            // SAFETY: the heap variant is the live one; reading the pointer
            // word races with nothing (it is written only at construction).
            unsafe { (*this).heap }
        }
    }
}

/// One version of one record. See the module docs for the layout.
#[repr(C)]
pub struct Version {
    /// Timestamp of the creating transaction (immutable for one life of the
    /// object; rewritten only by [`recycle`](Self::recycle)). Doubles as
    /// the paper's *txn pointer*: the producer is the transaction at this
    /// position of the input log.
    begin: UnsafeCell<Timestamp>,
    /// Timestamp of the invalidating transaction; [`INFINITY_TS`] while this
    /// is the latest version. Written only by the owning CC thread; read by
    /// everyone.
    end: AtomicU64,
    /// Previous (older) version. Written by the owning CC thread at install
    /// and truncation; traversed by readers under an epoch guard.
    pub(crate) prev: Atomic<Version>,
    /// [`VersionState`] discriminant.
    state: AtomicU32,
    /// Payload length (fixed per table, and for the object's whole
    /// existence: a recycled version goes back to a record of its size).
    len: u32,
    /// Record payload. Single-writer discipline: only the execution thread
    /// that holds the producing transaction's `Executing` state writes here,
    /// before the `Ready` release-store; readers only look after an
    /// acquire-load observes `Ready`/`Tombstone`.
    payload: UnsafeCell<Payload>,
}

#[cfg(not(bohm_modelcheck))]
const _: () = assert!(std::mem::size_of::<Version>() == 48);

// SAFETY: the payload is raced only under the documented protocol — one
// writer, publication via the `state` release/acquire edge; its heap
// variant is a buffer this object owns alone. `begin` is written only
// while the object is thread-private (construction, `recycle`) and
// published with the chain-head / annotation Release store. `len` is
// immutable. All other fields are atomics.
unsafe impl Send for Version {}
// SAFETY: same argument as `Send` above.
unsafe impl Sync for Version {}

impl Version {
    /// Allocate a placeholder for a write by transaction `begin` on a record
    /// whose payload is `size` bytes (paper §3.2.3 steps 1-4; the prev link,
    /// step 5, is set by [`Chain::install`](crate::chain::Chain::install)).
    ///
    /// This is the allocator path — database loading, tests, and the
    /// fallback of [`VersionPool::take`](crate::pool::VersionPool::take)
    /// when its free list is empty. A fresh payload is zero-filled, a
    /// recycled one keeps its previous life's bytes; neither is observable,
    /// because [`data`](Self::data) refuses to expose a `Pending` payload
    /// and every producer overwrites the whole record.
    pub fn placeholder(begin: Timestamp, size: usize) -> Self {
        let payload = if size <= INLINE_PAYLOAD {
            Payload {
                inline: [0; INLINE_PAYLOAD],
            }
        } else {
            Payload::new(vec![0u8; size].into_boxed_slice())
        };
        Self::new(begin, VersionState::Pending, size, payload)
    }

    /// Create an already-`Ready` version (tests, tools). A payload of at
    /// most [`INLINE_PAYLOAD`] bytes is copied into the object and `data`
    /// freed; a loader that builds many versions fills placeholders
    /// instead.
    pub fn ready(begin: Timestamp, data: Box<[u8]>) -> Self {
        let len = data.len();
        Self::new(begin, VersionState::Ready, len, Payload::new(data))
    }

    fn new(begin: Timestamp, state: VersionState, len: usize, payload: Payload) -> Self {
        Self {
            begin: UnsafeCell::new(begin),
            end: AtomicU64::new(INFINITY_TS),
            prev: Atomic::null(),
            state: AtomicU32::new(state as u32),
            len: u32::try_from(len).expect("record larger than 4 GiB"),
            payload: UnsafeCell::new(payload),
        }
    }

    /// Start this object's next life as the placeholder of transaction
    /// `begin`: header reset, payload bytes left as they are (no zero-fill
    /// — see [`placeholder`](Self::placeholder)). `&mut self` is the
    /// caller's proof that Condition 3 has made the object thread-private
    /// again.
    pub(crate) fn recycle(&mut self, begin: Timestamp) {
        // SAFETY: exclusive access via `&mut self`. The write goes through
        // the audited accessor (not `get_mut`) on purpose: under the model
        // checker a reader that could still see the previous life is
        // reported as a race right here.
        unsafe { self.begin.with_mut(|p| *p = begin) };
        // RELAXED: the object is thread-private; the Release store that
        // publishes it again (chain head / annotation slot) carries this
        // with it, exactly as for a freshly built one.
        self.end.store(INFINITY_TS, Ordering::Relaxed);
        self.state
            // RELAXED: thread-private, as above.
            .store(VersionState::Pending as u32, Ordering::Relaxed);
        // RELAXED: thread-private, as above.
        self.prev.store(Shared::null(), Ordering::Relaxed);
    }

    #[inline]
    pub fn begin(&self) -> Timestamp {
        // SAFETY: `begin` is only written while the object is
        // thread-private; a shared reference exists only between
        // publication and Condition-3 retirement.
        unsafe { self.begin.with(|p| *p) }
    }

    #[inline]
    pub fn end(&self) -> Timestamp {
        self.end.load(Ordering::Acquire)
    }

    /// Invalidate this version: set its end timestamp to the superseding
    /// transaction's timestamp. Called by the owning CC thread while
    /// installing the successor (paper Fig. 3: "sets the old version's end
    /// timestamp to 200").
    #[inline]
    pub(crate) fn supersede(&self, end: Timestamp) {
        // RELAXED: debug-only sanity probe; release builds elide it and
        // correctness never hangs off this load.
        debug_assert_eq!(self.end.load(Ordering::Relaxed), INFINITY_TS);
        debug_assert!(end > self.begin());
        self.end.store(end, Ordering::Release);
    }

    #[inline]
    pub fn state(&self) -> VersionState {
        match self.state.load(Ordering::Acquire) {
            0 => VersionState::Pending,
            1 => VersionState::Ready,
            2 => VersionState::Tombstone,
            s => unreachable!("corrupt version state {s}"),
        }
    }

    /// True once the payload may be read.
    #[inline]
    pub fn is_resolved(&self) -> bool {
        self.state.load(Ordering::Acquire) != VersionState::Pending as u32
    }

    /// Payload length (fixed per table).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the payload lives in a heap buffer of its own (longer than
    /// [`INLINE_PAYLOAD`]) rather than inside the object.
    #[inline]
    pub(crate) fn is_heap(&self) -> bool {
        self.len() > INLINE_PAYLOAD
    }

    /// The payload's first byte, without touching the bytes — the slot's
    /// variant (and the heap buffer's pointer) never changes after
    /// construction, so this is sound whatever the payload's state.
    #[inline]
    fn payload_ptr(&self) -> *mut u8 {
        // SAFETY: `len` is the length the slot was built with.
        unsafe { Payload::ptr(self.payload.get(), self.len()) }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fill the placeholder's payload and publish it as `Ready`.
    ///
    /// # Safety contract (checked in debug builds)
    /// The caller must be the unique producer of this version — in BOHM,
    /// the execution thread that won the `Unprocessed → Executing` CAS on
    /// the transaction whose timestamp equals `self.begin()`.
    pub fn fill(&self, src: &[u8]) {
        debug_assert_eq!(self.len(), src.len(), "fixed-size records per table");
        self.fill_with(|d| d.copy_from_slice(src));
    }

    /// Mutate the placeholder payload in place, then publish. Used when the
    /// producer computes directly into the version (avoids a copy). Same
    /// unique-producer contract as [`fill`](Self::fill).
    pub fn fill_with(&self, f: impl FnOnce(&mut [u8])) {
        debug_assert_eq!(
            // RELAXED: debug-only probe by the sole producer; not a sync
            // edge and elided in release builds.
            self.state.load(Ordering::Relaxed),
            VersionState::Pending as u32
        );
        // SAFETY: unique producer per the contract above; readers are
        // excluded until the release-store below.
        unsafe {
            self.payload.with_mut(|p| {
                f(std::slice::from_raw_parts_mut(
                    Payload::ptr(p, self.len()),
                    self.len(),
                ))
            })
        };
        self.state
            .store(VersionState::Ready as u32, Ordering::Release);
    }

    /// Idempotent [`fill`](Self::fill): no-op if already resolved.
    ///
    /// BOHM's executor may re-run a transaction's logic after resolving a
    /// read dependency (paper §3.3.1); writes made before the blocked read
    /// are deterministic replays of the same bytes, so skipping them is
    /// sound. Same unique-producer contract as `fill`. Returns whether this
    /// call performed the fill.
    pub fn fill_once(&self, src: &[u8]) -> bool {
        if self.is_resolved() {
            return false;
        }
        self.fill(src);
        true
    }

    /// The previous (older) version, if still linked.
    #[inline]
    pub fn prev<'g>(&self, guard: &'g Guard) -> Option<&'g Version> {
        // SAFETY: `prev` edges are only unlinked by the owning CC thread's
        // truncation, which either defers destruction past `guard` or
        // recycles under Condition 3 — and a Condition-3 bound never
        // reaches the predecessor of a version whose reader is still live
        // (see `Chain::visible`).
        unsafe { self.prev.load(Ordering::Acquire, guard).as_ref() }
    }

    /// Look-ahead hint for a reader: start fetching the first payload line.
    /// The caller holds a reference, so it has already argued liveness; the
    /// payload *bytes* are not touched, whatever their state.
    #[inline]
    pub fn prefetch_payload(&self) {
        prefetch_read(self.payload_ptr());
    }

    /// Look-ahead hint for the installer: start fetching the predecessor's
    /// header, which `install` + `reclaim` will supersede, unlink and reset.
    #[inline]
    pub fn prefetch_prev(&self, guard: &Guard) {
        // RELAXED: the pointer is a prefetch operand only, never followed.
        prefetch_read(self.prev.load(Ordering::Relaxed, guard).as_raw());
    }

    /// Publish this placeholder as a deletion tombstone.
    pub fn fill_tombstone(&self) {
        debug_assert_eq!(
            // RELAXED: debug-only probe by the sole producer; not a sync
            // edge and elided in release builds.
            self.state.load(Ordering::Relaxed),
            VersionState::Pending as u32
        );
        self.state
            .store(VersionState::Tombstone as u32, Ordering::Release);
    }

    /// Idempotent [`fill_tombstone`](Self::fill_tombstone): no-op if already
    /// resolved. The executor's re-run path replays deletes exactly like
    /// writes (see [`fill_once`](Self::fill_once)); a replayed delete is a
    /// deterministic repeat, so skipping it is sound. Returns whether this
    /// call performed the fill.
    pub fn fill_tombstone_once(&self) -> bool {
        if self.is_resolved() {
            return false;
        }
        self.fill_tombstone();
        true
    }

    /// Read the payload. Panics if the version is still `Pending` — callers
    /// must check [`is_resolved`](Self::is_resolved) (and resolve the
    /// producer) first; BOHM's executor does exactly that.
    #[inline]
    pub fn data(&self) -> &[u8] {
        assert!(
            self.is_resolved(),
            "read of uninitialized version placeholder (begin ts {})",
            self.begin()
        );
        // SAFETY: `Ready`/`Tombstone` are terminal for this life of the
        // object and published with release ordering; after the
        // acquire-load above the payload is immutable until Condition 3
        // retires the version, which no live reader outlasts.
        unsafe {
            self.payload.with(|p| {
                std::slice::from_raw_parts(Payload::ptr(p.cast_mut(), self.len()), self.len())
            })
        }
    }
}

impl Drop for Version {
    fn drop(&mut self) {
        if self.is_heap() {
            let buf = std::ptr::slice_from_raw_parts_mut(self.payload_ptr(), self.len());
            // SAFETY: the heap variant is the live one — a `Box<[u8]>` of
            // `len` bytes turned raw in `Payload::new` — and `&mut self`
            // means nobody else can reach it.
            drop(unsafe { Box::from_raw(buf) });
        }
    }
}

impl std::fmt::Debug for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Version")
            .field("begin", &self.begin())
            // RELAXED: diagnostic snapshot; Debug output is allowed to race.
            .field("end", &self.end.load(Ordering::Relaxed))
            .field("state", &self.state())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placeholder_starts_pending_with_infinite_end() {
        let v = Version::placeholder(200, 8);
        assert_eq!(v.begin(), 200);
        assert_eq!(v.end(), INFINITY_TS);
        assert_eq!(v.state(), VersionState::Pending);
        assert!(!v.is_resolved());
        assert_eq!(v.len(), 8);
    }

    #[test]
    fn fill_publishes_data() {
        let v = Version::placeholder(1, 8);
        v.fill(&7u64.to_le_bytes());
        assert_eq!(v.state(), VersionState::Ready);
        assert_eq!(bohm_common::value::get_u64(v.data(), 0), 7);
    }

    #[test]
    fn fill_with_computes_in_place() {
        let v = Version::placeholder(1, 16);
        v.fill_with(|d| bohm_common::value::put_u64(d, 8, 99));
        assert_eq!(bohm_common::value::get_u64(v.data(), 8), 99);
    }

    #[test]
    fn tombstone_is_resolved_but_marked() {
        let v = Version::placeholder(3, 8);
        v.fill_tombstone();
        assert!(v.is_resolved());
        assert_eq!(v.state(), VersionState::Tombstone);
    }

    #[test]
    #[should_panic(expected = "uninitialized version")]
    fn reading_pending_data_panics() {
        let v = Version::placeholder(5, 8);
        let _ = v.data();
    }

    #[test]
    fn supersede_sets_end() {
        let v = Version::ready(100, bohm_common::value::of_u64(1, 8));
        v.supersede(200);
        assert_eq!(v.end(), 200);
    }

    #[test]
    fn recycle_resets_the_header_and_keeps_the_payload_buffer() {
        let mut v = Version::ready(100, bohm_common::value::of_u64(7, 8));
        v.supersede(200);
        let buf = v.data().as_ptr();
        v.recycle(300);
        assert_eq!(v.begin(), 300);
        assert_eq!(v.end(), INFINITY_TS);
        assert_eq!(v.state(), VersionState::Pending);
        assert!(v.prev(&crossbeam_epoch::pin()).is_none());
        assert_eq!(v.len(), 8);
        // Stale bytes are unobservable: the payload is Pending again, and
        // the producer overwrites all of it — in the same buffer.
        v.fill(&9u64.to_le_bytes());
        assert_eq!(bohm_common::value::get_u64(v.data(), 0), 9);
        assert_eq!(v.data().as_ptr(), buf, "no reallocation");
    }

    /// Bytes this thread holds from the allocator — a per-thread tally, so
    /// tests running beside each other do not disturb it.
    mod live {
        use std::alloc::{GlobalAlloc, Layout, System};
        use std::cell::Cell;

        thread_local! {
            // Const-initialised and drop-free, so the allocator may read it.
            static LIVE: Cell<isize> = const { Cell::new(0) };
        }

        pub(super) fn bytes() -> isize {
            LIVE.with(|l| l.get())
        }

        fn add(delta: isize) {
            let _ = LIVE.try_with(|l| l.set(l.get() + delta));
        }

        struct Tally;

        // SAFETY: every method forwards to `System` with the caller's exact
        // layout; the tally has no effect on allocation semantics.
        unsafe impl GlobalAlloc for Tally {
            // SAFETY: forwards to `System.alloc` under the caller's contract.
            unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
                add(layout.size() as isize);
                // SAFETY: forwarded caller contract.
                unsafe { System.alloc(layout) }
            }

            // SAFETY: forwards to `System.dealloc` under the caller's contract.
            unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
                add(-(layout.size() as isize));
                // SAFETY: forwarded caller contract.
                unsafe { System.dealloc(ptr, layout) }
            }

            // SAFETY: forwards to `System.realloc` under the caller's contract.
            unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new: usize) -> *mut u8 {
                add(new as isize - layout.size() as isize);
                // SAFETY: forwarded caller contract.
                unsafe { System.realloc(ptr, layout, new) }
            }
        }

        #[global_allocator]
        static TALLY: Tally = Tally;
    }

    /// Whether `v`'s payload bytes lie inside the object itself.
    fn inside(v: &Version) -> bool {
        let base = v as *const Version as usize;
        let data = v.data().as_ptr() as usize;
        base <= data && data + v.len() <= base + std::mem::size_of::<Version>()
    }

    #[test]
    fn a_payload_of_up_to_16_bytes_lies_inside_the_object() {
        for len in [1, 8, INLINE_PAYLOAD] {
            let before = live::bytes();
            let v = Version::placeholder(1, len);
            assert_eq!(live::bytes(), before, "a {len}-byte placeholder allocates");
            v.fill_with(|d| d.fill(0xA5));
            assert!(inside(&v) && !v.is_heap(), "{len} bytes");
            assert!(v.data().iter().all(|&b| b == 0xA5));
            let r = Version::ready(2, vec![7u8; len].into_boxed_slice());
            assert!(inside(&r));
            assert_eq!(r.data(), &vec![7u8; len][..]);
        }
    }

    #[test]
    fn a_17_byte_payload_lives_on_the_heap_and_is_freed_on_drop() {
        let before = live::bytes();
        let v = Version::placeholder(1, INLINE_PAYLOAD + 1);
        assert_eq!(live::bytes() - before, INLINE_PAYLOAD as isize + 1);
        v.fill(&[3u8; INLINE_PAYLOAD + 1]);
        assert!(v.is_heap() && !inside(&v));
        assert_eq!(v.data(), &[3u8; INLINE_PAYLOAD + 1]);
        drop(v);
        assert_eq!(live::bytes(), before, "the buffer went back");
        let r = Version::ready(1, vec![4u8; 1_000].into_boxed_slice());
        assert!(r.is_heap() && !inside(&r));
        drop(r);
        assert_eq!(live::bytes(), before);
    }

    #[test]
    fn version_stays_on_the_malloc_fast_path() {
        // Natural alignment only — see the layout note on `Version`.
        assert!(std::mem::align_of::<Version>() <= 16);
    }

    #[test]
    fn concurrent_readers_see_published_fill() {
        use bohm_sync::atomic::AtomicBool;
        use std::sync::Arc;
        let v = Arc::new(Version::placeholder(1, 8));
        let stop = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let v = Arc::clone(&v);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if v.is_resolved() {
                        // Once resolved, the payload must be fully visible.
                        assert_eq!(bohm_common::value::get_u64(v.data(), 0), 0xAB);
                        return;
                    }
                    std::hint::spin_loop();
                }
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        v.fill(&0xABu64.to_le_bytes());
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            h.join().unwrap();
        }
    }
}
