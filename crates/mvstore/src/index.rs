//! The record index mapping [`RecordId`]s to version [`Chain`]s.
//!
//! [`HashIndex`] is the "standard latch-free hash-table" of the paper
//! (§3.3.1): readers are lock-free and write nothing; inserts are
//! CAS-pushes onto bucket lists. BOHM's protocol additionally guarantees
//! that each *key* is only ever inserted by one CC thread, but the index is
//! safe for arbitrary concurrent inserters (different keys may share a
//! bucket).
//!
//! Index entries live until the key is *reclaimed*: a fully-deleted key
//! whose chain has collapsed to a sole committed tombstone older than the
//! GC bound can have its entry retired outright
//! ([`HashIndex::sweep_retire`]), which is what keeps full-table delete
//! churn from growing the index without bound. Retirement is
//! epoch-deferred, so every concurrent traversal of a bucket list must
//! hold a `crossbeam-epoch` pin — enforced **by signature**:
//! [`VersionIndex::get`]/[`VersionIndex::get_or_insert`] take the
//! caller's `Guard` and tie the returned chain borrow to it. The caller
//! contract on `sweep_retire` restricts *who* may approve a reclamation.
//!
//! Entries are one cache line each, carved back to back from
//! 64-byte-aligned blocks the index owns (`Slab`), so a million keys take
//! 64 MB of entries. A retired entry's slot goes back to the slab from its
//! epoch-deferred free, so it is reused only once no walk can still hold
//! it.
//!
//! A store nobody else can see yet is loaded with
//! [`HashIndex::bulk_insert`], which lands every key where a concurrent
//! insert would but skips what only concurrency needs: the slab mutex, the
//! bucket CAS and the `len` update per key.
//!
//! A probe is a chain of dependent loads — bucket slot → entry → head
//! version → what lies behind it — and BOHM's callers know their keys long
//! before they probe. [`HashIndex::look_ahead`] lets them walk that chain
//! one load at a time, some distance ahead of the probe itself, so the
//! probe finds every line already on its way.

// HOT-PATH: every record access resolves its chain here; no clocks, no
// syscalls, no I/O (enforced by the lint).

use crate::chain::Chain;
use bohm_common::RecordId;
use bohm_sync::atomic::{AtomicPtr, AtomicU8, AtomicUsize, Ordering};
use bohm_sync::cell::UnsafeCell;
use bohm_sync::hint::prefetch_read;
use bohm_sync::Mutex;
use crossbeam_epoch::Guard;
use std::alloc::Layout;
use std::mem::ManuallyDrop;
use std::ptr;
use std::sync::Arc;

/// The index interface.
///
/// # Reclamation safety — enforced by signature
/// [`HashIndex`] entries can be retired by [`HashIndex::sweep_retire`]
/// with epoch-deferred frees, so any traversal racing a sweeper must run
/// under a `crossbeam_epoch` pin. The signatures *make pin-less racing use
/// impossible*: `get`/`get_or_insert` take the caller's epoch [`Guard`],
/// and the returned [`Chain`] borrow is tied to it — the chain reference
/// cannot outlive the pin that keeps a concurrently-retired entry's memory
/// alive.
pub trait VersionIndex: Send + Sync {
    /// Chain for `rid`, if the key has ever been inserted.
    fn get<'g>(&'g self, rid: RecordId, guard: &'g Guard) -> Option<&'g Chain>;
    /// Chain for `rid`, inserting an empty chain if absent.
    fn get_or_insert<'g>(&'g self, rid: RecordId, guard: &'g Guard) -> &'g Chain;
    /// Number of keys present.
    fn len(&self) -> usize;
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One key of the index. Aligned to — and exactly — one cache line: the
/// bucket walk's key compare, the `next` hop and the chain's three words all
/// land in the line the bucket pointer led to, so a probe that hits on the
/// first entry costs two dependent misses (slot, entry) before it reaches
/// version memory, and neighbouring records never share a line. The line
/// has room to spare, so the key's hash rides along: bucket walks compare it
/// before the 16-byte key, look-ahead stages compare nothing else, and the
/// key sweep's ownership test does not hash again.
///
/// Entries live in the index's [`Slab`], which outlives them: the chain is
/// dropped in place when the entry is retired (or the index dropped), and
/// the key cell stays with the slot for its next life.
#[repr(align(64))]
struct Entry {
    /// Written when a slot starts a life, read by every bucket walk. A
    /// race-audited cell: a reused slot's key is rewritten through
    /// [`UnsafeCell::with_mut`], so under the model checker a walk still
    /// holding the slot's previous life is reported as a race right there.
    key: UnsafeCell<Key>,
    next: AtomicPtr<Entry>,
    chain: ManuallyDrop<Chain>,
}

/// What a bucket walk compares.
#[derive(Clone, Copy)]
struct Key {
    rid: RecordId,
    /// `rid.stable_hash()`.
    hash: u64,
}

impl Entry {
    #[inline]
    fn key(&self) -> Key {
        // SAFETY: a key is written only while its slot is private to one
        // thread (a fresh slot, or a reused one past its grace period) and
        // published with the bucket CAS; every reader reached the entry
        // through an Acquire load after that.
        unsafe { self.key.with(|k| *k) }
    }
}

/// Make the slot `take` handed out a fresh entry for `key` with an empty
/// chain, and return it.
///
/// # Safety
/// `slot` came from [`Slab::take`] with `reused` as it said, and is the
/// caller's alone until published. A given-back slot is an `Entry` husk
/// whose chain was dropped: its key is rewritten through the audited
/// accessor (see `Entry::key`) and a new chain written over the old one's
/// remains. A carved slot is raw memory, written whole.
unsafe fn fill_slot(slot: *mut Entry, reused: bool, key: Key) -> *mut Entry {
    // SAFETY: per the contract above.
    unsafe {
        if reused {
            (*slot).key.with_mut(|k| *k = key);
            ptr::addr_of_mut!((*slot).chain).write(ManuallyDrop::new(Chain::new()));
        } else {
            slot.write(Entry {
                key: UnsafeCell::new(key),
                next: AtomicPtr::new(ptr::null_mut()),
                chain: ManuallyDrop::new(Chain::new()),
            });
        }
    }
    slot
}

/// Where a [`HashIndex`]'s entries live: 64-byte-aligned blocks the index
/// owns, carved front to back by a bump pointer, plus a free list of the
/// slots retired entries gave back (linked through their `next` words).
/// Entries allocated one `Box` at a time took glibc's aligned path, which
/// spent three times the entries' own 64 bytes; a block spends nothing
/// beyond them.
///
/// Shared by `Arc` between the index and the epoch-deferred frees of its
/// retired entries, so a free still pending when the index drops finds its
/// slot alive.
struct Slab {
    slots: Mutex<Slots>,
    /// Entries per block.
    block_len: usize,
}

struct Slots {
    /// Every block carved so far; freed when the slab drops.
    blocks: Vec<*mut Entry>,
    /// The newest block's uncarved slots: `bump..end`.
    bump: *mut Entry,
    end: *mut Entry,
    /// Slots given back, most recent first.
    free: *mut Entry,
}

// SAFETY: the pointers address blocks the slab owns, and every use of them
// is ordered by the mutex around `Slots`.
unsafe impl Send for Slots {}

/// The largest block a slab carves: 16384 entries, 1 MiB.
const MAX_BLOCK_LEN: usize = 1 << 14;

impl Slab {
    /// A slab whose blocks hold `expected` entries, within `16..=`[`MAX_BLOCK_LEN`].
    fn new(expected: usize) -> Self {
        Self {
            slots: Mutex::new(Slots {
                blocks: Vec::new(),
                bump: ptr::null_mut(),
                end: ptr::null_mut(),
                free: ptr::null_mut(),
            }),
            block_len: expected.clamp(16, MAX_BLOCK_LEN),
        }
    }

    fn block_layout(&self) -> Layout {
        Layout::array::<Entry>(self.block_len).expect("block size overflows")
    }

    /// A slot for a new entry: the most recently given-back one, otherwise
    /// the next uncarved one. `true` with a given-back slot, whose key cell
    /// holds its previous life's key; a carved slot is uninitialised.
    fn take(&self) -> (*mut Entry, bool) {
        self.take_from(&mut self.slots.lock())
    }

    /// [`take`](Self::take) under a lock the caller already holds — the
    /// bulk path takes it once for all its slots.
    fn take_from(&self, s: &mut Slots) -> (*mut Entry, bool) {
        if !s.free.is_null() {
            let slot = s.free;
            // SAFETY: a given-back slot stays a valid `Entry` husk.
            // RELAXED: the list is ordered by the mutex, not by this word.
            s.free = unsafe { &*slot }.next.load(Ordering::Relaxed);
            return (slot, true);
        }
        if s.bump == s.end {
            let layout = self.block_layout();
            // SAFETY: the layout has a non-zero size.
            let block = unsafe { std::alloc::alloc(layout) }.cast::<Entry>();
            if block.is_null() {
                std::alloc::handle_alloc_error(layout);
            }
            s.blocks.push(block);
            s.bump = block;
            // SAFETY: one past the end of the block just allocated.
            s.end = unsafe { block.add(self.block_len) };
        }
        let slot = s.bump;
        // SAFETY: `slot < end`, so the result is at most one past the end.
        s.bump = unsafe { slot.add(1) };
        (slot, false)
    }

    /// Drop `e`'s chain in place and give its slot back for reuse.
    ///
    /// # Safety
    /// `e` came from this slab's [`take`](Self::take), holds a live entry,
    /// and nobody can reach it any more: never published, or unlinked and
    /// past the grace period of every walk that could have seen it.
    unsafe fn release(&self, e: *mut Entry) {
        // SAFETY: live and unreachable, per the caller.
        unsafe { ManuallyDrop::drop(&mut (*e).chain) };
        let mut s = self.slots.lock();
        // SAFETY: as above.
        // RELAXED: the list is ordered by the mutex, not by this word.
        unsafe { &*e }.next.store(s.free, Ordering::Relaxed);
        s.free = e;
    }

    /// Slots on the free list.
    #[cfg(test)]
    fn free_slots(&self) -> usize {
        let s = self.slots.lock();
        let (mut n, mut cur) = (0, s.free);
        while !cur.is_null() {
            n += 1;
            // SAFETY: given-back slots stay valid husks.
            // RELAXED: ordered by the mutex held here.
            cur = unsafe { &*cur }.next.load(Ordering::Relaxed);
        }
        n
    }
}

impl Drop for Slab {
    fn drop(&mut self) {
        let layout = self.block_layout();
        for &block in &self.slots.get_mut().blocks {
            // SAFETY: allocated in `take` with this very layout. Live
            // entries' chains were dropped by their index, retired ones' by
            // their deferred frees, which hold the slab until they ran.
            unsafe { std::alloc::dealloc(block.cast(), layout) };
        }
    }
}

/// What the probe a caller is looking ahead for will touch once it has the
/// chain — i.e. how far [`HashIndex::look_ahead`]'s later stages reach.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ProbeFor {
    /// Nothing past the entry: the CC thread annotating a pure read stores
    /// the head pointer without following it.
    Annotate,
    /// The head version and its predecessor: `reclaim` + `install`
    /// supersede the first and unlink, reset and re-install the second.
    Install,
    /// The head version and its payload: a reader's `visible` + `data`.
    Read,
}

/// Latch-free chained hash table: a power-of-two array of bucket heads over
/// singly linked, cache-line-sized entries (load factor ≤ 1 at the sized
/// capacity). Probes come in two spellings — by key
/// ([`VersionIndex::get`]/[`get_or_insert`](VersionIndex::get_or_insert))
/// and by key plus the hash the caller already holds
/// ([`get_hashed`](Self::get_hashed)/[`get_or_insert_hashed`](Self::get_or_insert_hashed),
/// what the BOHM CC phase uses: its plan entries carry the hash) — and a
/// probe's dependent loads can be requested ahead of time, one per call,
/// with [`look_ahead`](Self::look_ahead).
pub struct HashIndex {
    buckets: Box<[AtomicPtr<Entry>]>,
    mask: u64,
    len: AtomicUsize,
    /// Where the entries live.
    slab: Arc<Slab>,
    /// Striped removal locks for [`sweep_retire`](Self::sweep_retire):
    /// mid-list unlinks assume a stable predecessor, so removers of
    /// entries in the same bucket exclude each other (try-lock — a busy
    /// stripe is simply skipped this round). Inserters never take these:
    /// insertion is a head CAS, which removal of the head entry races
    /// through its own CAS.
    retire_locks: Box<[AtomicU8]>,
}

/// Number of removal-lock stripes (power of two; buckets map in modulo).
const RETIRE_STRIPES: usize = 1024;

impl HashIndex {
    /// Create with capacity for roughly `expected` keys (bucket count is the
    /// next power of two ≥ `expected`, i.e. load factor ≤ 1).
    pub fn with_capacity(expected: usize) -> Self {
        let n = expected.max(16).next_power_of_two();
        let mut buckets = Vec::with_capacity(n);
        buckets.resize_with(n, || AtomicPtr::new(ptr::null_mut()));
        let stripes = n.min(RETIRE_STRIPES);
        let mut retire_locks = Vec::with_capacity(stripes);
        retire_locks.resize_with(stripes, || AtomicU8::new(0));
        Self {
            buckets: buckets.into_boxed_slice(),
            mask: (n - 1) as u64,
            len: AtomicUsize::new(0),
            slab: Arc::new(Slab::new(expected)),
            retire_locks: retire_locks.into_boxed_slice(),
        }
    }

    /// Number of buckets (sweep-cursor arithmetic for callers).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Visit every `(key, chain)` present in the index, under the caller's
    /// epoch pin (the borrow rule of [`VersionIndex::get`] applies to each
    /// visited chain). Visit order is bucket order — unspecified to
    /// callers. This is the checkpoint snapshot walk: on a quiescent
    /// engine each chain's latest version is the committed state.
    pub fn for_each<'g>(&'g self, guard: &'g Guard, f: &mut dyn FnMut(RecordId, &'g Chain)) {
        for bucket in self.buckets.iter() {
            let mut cur = bucket.load(Ordering::Acquire);
            while !cur.is_null() {
                // SAFETY: entry retirement is epoch-deferred and we hold
                // `guard`'s pin, so `cur` stays alive across the visit.
                let entry = unsafe { &*cur };
                f(entry.key().rid, &entry.chain);
                cur = entry.next.load(Ordering::Acquire);
            }
        }
        let _ = guard;
    }

    /// Visit `count` buckets starting at `start` (wrapping) and retire
    /// every entry `reclaim(key, key's stable_hash, chain)` approves,
    /// returning how many were retired.
    /// Entry destruction (and the destruction of the chain and versions
    /// inside it) is deferred through `guard`'s epoch.
    ///
    /// # Caller contract
    /// For any given key, reclamation may only be approved by the key's
    /// single logical chain writer (BOHM: the CC thread owning the key's
    /// partition), and only when it can prove no raw pointer into the
    /// chain survives outside an epoch pin (the annotation-safe lifetime
    /// rule: every annotated transaction has executed). A violation would
    /// let a concurrent installer publish onto a retired chain — a lost
    /// write. Concurrent `get`/`get_or_insert` traversals from any thread
    /// remain safe provided they run under an epoch pin.
    pub fn sweep_retire(
        &self,
        start: usize,
        count: usize,
        guard: &Guard,
        reclaim: &mut dyn FnMut(RecordId, u64, &Chain) -> bool,
    ) -> usize {
        let nbuckets = self.buckets.len();
        let count = count.min(nbuckets);
        let mut retired = 0;
        for i in 0..count {
            let bi = (start + i) & (self.mask as usize);
            let stripe = &self.retire_locks[bi & (self.retire_locks.len() - 1)];
            if stripe
                // RELAXED: failure-order only — a losing remover skips the
                // stripe without reading anything it protects.
                .compare_exchange(0, 1, Ordering::Acquire, Ordering::Relaxed)
                .is_err()
            {
                continue; // another remover owns the stripe; next round
            }
            let bucket = &self.buckets[bi];
            'restart: loop {
                let mut pred: *const Entry = ptr::null();
                let mut cur = bucket.load(Ordering::Acquire);
                while !cur.is_null() {
                    // SAFETY: reachable under the stripe lock; only this
                    // remover unlinks here, and frees are epoch-deferred
                    // past `guard` and every concurrent pin.
                    let e = unsafe { &*cur };
                    let next = e.next.load(Ordering::Acquire);
                    let key = e.key();
                    if reclaim(key.rid, key.hash, &e.chain) {
                        if pred.is_null() {
                            if bucket
                                .compare_exchange(cur, next, Ordering::AcqRel, Ordering::Acquire)
                                .is_err()
                            {
                                // Lost to a concurrent head insert; the
                                // list above us changed — re-walk.
                                continue 'restart;
                            }
                        } else {
                            // SAFETY: mid-list `pred` is stable — removers
                            // hold the stripe lock and inserters only touch
                            // the head — and it is live under our pin.
                            unsafe { &*pred }.next.store(next, Ordering::Release);
                        }
                        // RELAXED: `len` is an approximate size gauge; no
                        // payload is published through it.
                        self.len.fetch_sub(1, Ordering::Relaxed);
                        retired += 1;
                        let slab = Arc::clone(&self.slab);
                        // SAFETY: unlinked; traversals that still hold a
                        // reference are pinned, and the free waits for
                        // them. The closure owns a share of the slab, so
                        // the slot outlives the index if need be.
                        unsafe { guard.defer_unchecked(move || slab.release(cur)) };
                        cur = next;
                    } else {
                        pred = cur;
                        cur = next;
                    }
                }
                break;
            }
            stripe.store(0, Ordering::Release);
        }
        retired
    }

    /// Stages [`look_ahead`](Self::look_ahead) distinguishes: enough to
    /// cover the whole path of a key with one collision in front of it. A
    /// caller keeps a key up to this many stage-distances ahead of its
    /// probe (fewer, if it does not care about the collision case).
    pub const LOOK_AHEAD_STAGES: usize = 5;

    /// Stage `stage` of the look-ahead for a later probe of the key whose
    /// [`stable_hash`](RecordId::stable_hash) is `hash`. The probe is a path
    /// of dependent loads — bucket slot, the bucket's entries up to the
    /// key's, its head version, then what `probe` needs behind the head —
    /// and stage `s` walks the first `s` of them, which earlier stages have
    /// already asked for, and asks for the next: (0) the slot, (1) the first
    /// entry, (2) the head version if the key is first in its bucket,
    /// otherwise the second entry, (3) and (4) one load further each. A key
    /// first in its bucket is done after stage 3 (stage 4 finds nothing
    /// left to ask for), one behind a single collision after stage 4; each
    /// further collision leaves one more load to the probe. **Hints only**:
    /// nothing is returned and nothing the probe does depends on a stage
    /// having run — which is why entries are told apart by hash alone (two
    /// keys of one bucket sharing all 64 bits would cost a useless
    /// prefetch, and share a CC partition anyway).
    ///
    /// Every stage starts again from the bucket slot, under the caller's
    /// current pin, and carries nothing forward — so it does not matter
    /// what happened to the key, its entry or its versions since the
    /// previous stage (same key written again inside the look-ahead
    /// window, head recycled, entry retired, the caller re-pinned): a
    /// stale hint fetches a line nobody needs, and that is all. Each stage
    /// is O(1).
    ///
    /// What is dereferenced, and why it is live: bucket entries (a bucket
    /// walk under `guard`, exactly as in `get`), and in the last stage the
    /// head version through [`Chain::latest`] — so that stage is for
    /// callers `latest` is for: the chain's owner, or a reader whose
    /// transaction has not finished executing (the Condition-3 bound cannot
    /// pass a head while a transaction that may have to read it is live).
    #[inline]
    pub fn look_ahead(&self, stage: usize, hash: u64, probe: ProbeFor, guard: &Guard) {
        let slot = self.bucket(hash);
        if stage == 0 {
            return prefetch_read(slot);
        }
        if stage > 1 && probe == ProbeFor::Annotate {
            return; // the entry is as far as an annotation goes
        }
        let mut cur = slot.load(Ordering::Acquire);
        for hops_left in (0..stage - 1).rev() {
            // SAFETY: reached from the bucket head under `guard`'s pin,
            // like any step of `find`.
            let Some(e) = (unsafe { cur.as_ref() }) else {
                return;
            };
            if e.key().hash == hash {
                return match (hops_left, e.chain.latest(guard)) {
                    (0, _) => e.chain.prefetch_head(guard),
                    (1, Some(head)) if probe == ProbeFor::Install => head.prefetch_prev(guard),
                    (1, Some(head)) => head.prefetch_payload(),
                    _ => {} // an earlier stage reached the end of the path
                };
            }
            cur = e.next.load(Ordering::Acquire);
        }
        prefetch_read(cur);
    }

    /// [`VersionIndex::get`] for a caller that already holds `rid`'s
    /// [`stable_hash`](RecordId::stable_hash).
    #[inline]
    pub fn get_hashed<'g>(
        &'g self,
        rid: RecordId,
        hash: u64,
        _guard: &'g Guard,
    ) -> Option<&'g Chain> {
        // `_guard` is what makes the traversal sound against a concurrent
        // `sweep_retire`: retired entries are freed through the epoch
        // collector, and the returned borrow cannot outlive the pin.
        self.find(rid, hash).map(|e| &*e.chain)
    }

    /// [`VersionIndex::get_or_insert`] for a caller that already holds
    /// `rid`'s [`stable_hash`](RecordId::stable_hash).
    pub fn get_or_insert_hashed<'g>(
        &'g self,
        rid: RecordId,
        hash: u64,
        _guard: &'g Guard,
    ) -> &'g Chain {
        if let Some(e) = self.find(rid, hash) {
            return &e.chain;
        }
        let bucket = self.bucket(hash);
        let new = self.new_entry(Key { rid, hash });
        loop {
            let head = bucket.load(Ordering::Acquire);
            // Re-scan the bucket: another thread may have inserted `rid`
            // between our find() and the CAS below. (BOHM's partitioning
            // makes that impossible for a single key, but the substrate
            // stays correct without that assumption.)
            let mut cur = head;
            while !cur.is_null() {
                // SAFETY: reachable from the bucket head loaded above;
                // removers defer frees past our epoch pin.
                let e = unsafe { &*cur };
                if e.key().rid == rid {
                    // SAFETY: `new` was never published.
                    unsafe { self.slab.release(new) };
                    return &e.chain;
                }
                cur = e.next.load(Ordering::Acquire);
            }
            // SAFETY: `new` is a live entry we exclusively own until the
            // CAS below publishes it.
            // RELAXED: unpublished store; the Release CAS publishes `next`
            // together with the entry.
            unsafe { &*new }.next.store(head, Ordering::Relaxed);
            if bucket
                .compare_exchange(head, new, Ordering::Release, Ordering::Acquire)
                .is_ok()
            {
                // RELAXED: approximate size gauge, as in `sweep_retire`.
                self.len.fetch_add(1, Ordering::Relaxed);
                // SAFETY: just published by this thread; it is freed only
                // through `sweep_retire`, past `_guard`'s pin.
                return &unsafe { &*new }.chain;
            }
            // Lost the race; retry (`new` stays unpublished).
        }
    }

    /// A slot from the slab, holding a fresh entry for `key` with an empty
    /// chain. Unpublished: the caller owns it.
    fn new_entry(&self, key: Key) -> *mut Entry {
        let (slot, reused) = self.slab.take();
        // SAFETY: fresh from the slab.
        unsafe { fill_slot(slot, reused, key) }
    }

    /// How many keys ahead of its insert [`bulk_insert`](Self::bulk_insert)
    /// asks for a key's bucket slot: enough misses in flight to cover the
    /// one per key a random slot costs, few enough that the slots are still
    /// cached when their turn comes.
    const BULK_AHEAD: usize = 16;

    /// Insert every key of `rids`, in order, and hand each new key's empty
    /// chain to `init` — the loader's path, for a store nobody else can
    /// see yet.
    ///
    /// Each key lands exactly as [`get_or_insert`](VersionIndex::get_or_insert)
    /// would put it: the same slab slot (given-back slots first, then
    /// carved in order) at the head of the same bucket list, so an index
    /// built this way is indistinguishable from one built key by key. What
    /// it saves is what only concurrency needs: it takes the slab's mutex
    /// once instead of once per key, links each entry with a plain store
    /// instead of a CAS, adds to `len` once, and asks for each key's bucket
    /// slot 16 keys before it gets there.
    ///
    /// # Contract
    /// - **Exclusive.** `&mut self`: no other thread holds the index, so
    ///   nothing can walk a bucket while it changes, and no pin is needed.
    ///   Sharing the index afterwards (an `Arc`, a thread spawn) publishes
    ///   what was written here.
    /// - **Absent and unique.** No key of `rids` is in the index, and none
    ///   occurs twice. Debug builds assert both with a lookup per key;
    ///   release builds look nothing up, so a duplicate key would be
    ///   indexed twice and every probe would find the copy inserted last.
    /// - `init` runs with the entry already linked; it may install versions
    ///   (as the chain's single writer) but cannot reach the index.
    pub fn bulk_insert(
        &mut self,
        rids: impl IntoIterator<Item = RecordId>,
        mut init: impl FnMut(RecordId, &Chain),
    ) {
        // A handle of its own, so the lock stays held across `&mut self`.
        let slab = Arc::clone(&self.slab);
        let mut slots = slab.slots.lock();
        let mut rids = rids.into_iter();
        let mut ahead = std::collections::VecDeque::with_capacity(Self::BULK_AHEAD);
        let mut inserted = 0;
        loop {
            while ahead.len() < Self::BULK_AHEAD {
                let Some(rid) = rids.next() else { break };
                let hash = rid.stable_hash();
                prefetch_read(self.bucket(hash));
                ahead.push_back(Key { rid, hash });
            }
            let Some(key) = ahead.pop_front() else { break };
            debug_assert!(
                self.find(key.rid, key.hash).is_none(),
                "bulk_insert: {} is already in the index",
                key.rid
            );
            let (slot, reused) = slab.take_from(&mut slots);
            // SAFETY: fresh from the slab; ours until linked below.
            let e = unsafe { fill_slot(slot, reused, key) };
            let head = self.buckets[(key.hash & self.mask) as usize].get_mut();
            // SAFETY: unpublished, and `&mut self` excludes every walk of
            // the bucket it joins.
            *unsafe { &mut *e }.next.get_mut() = *head;
            *head = e;
            inserted += 1;
            // SAFETY: linked above; entries are freed only by `sweep_retire`
            // or the index's drop, neither of which can run meanwhile.
            init(key.rid, &unsafe { &*e }.chain);
        }
        *self.len.get_mut() += inserted;
    }

    #[inline]
    fn bucket(&self, hash: u64) -> &AtomicPtr<Entry> {
        &self.buckets[(hash & self.mask) as usize]
    }

    #[inline]
    fn find(&self, rid: RecordId, hash: u64) -> Option<&Entry> {
        debug_assert_eq!(hash, rid.stable_hash());
        let mut cur = self.bucket(hash).load(Ordering::Acquire);
        while !cur.is_null() {
            // SAFETY: entries are published with release stores. Since
            // [`sweep_retire`](Self::sweep_retire) exists, entries CAN be
            // freed — epoch-deferred — which is why the
            // public entry points (`get`/`get_or_insert`) demand the
            // caller's epoch `Guard` by signature and tie the returned
            // borrow to it; this private walk is only reachable through
            // them (or under `&mut self`).
            let e = unsafe { &*cur };
            let key = e.key();
            if key.hash == hash && key.rid == rid {
                return Some(e);
            }
            cur = e.next.load(Ordering::Acquire);
        }
        None
    }
}

impl VersionIndex for HashIndex {
    fn get<'g>(&'g self, rid: RecordId, guard: &'g Guard) -> Option<&'g Chain> {
        self.get_hashed(rid, rid.stable_hash(), guard)
    }

    fn get_or_insert<'g>(&'g self, rid: RecordId, guard: &'g Guard) -> &'g Chain {
        self.get_or_insert_hashed(rid, rid.stable_hash(), guard)
    }

    fn len(&self) -> usize {
        // RELAXED: racy gauge by design; callers use it for sizing hints.
        self.len.load(Ordering::Relaxed)
    }
}

impl Drop for HashIndex {
    fn drop(&mut self) {
        for b in self.buckets.iter() {
            // RELAXED: `&mut self` in Drop proves exclusive access.
            let mut cur = b.load(Ordering::Relaxed);
            while !cur.is_null() {
                // SAFETY: exclusive access via &mut self. The slot itself
                // goes back with the slab, once pending frees are done.
                unsafe {
                    // RELAXED: as above — no concurrency in Drop.
                    let next = (*cur).next.load(Ordering::Relaxed);
                    ManuallyDrop::drop(&mut (*cur).chain);
                    cur = next;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::Version;
    use crossbeam_epoch as epoch;
    use crossbeam_epoch::Owned;

    fn rid(t: u32, k: u64) -> RecordId {
        RecordId::new(t, k)
    }

    #[test]
    fn hash_get_or_insert_is_idempotent() {
        let idx = HashIndex::with_capacity(64);
        let g = epoch::pin();
        let a = idx.get_or_insert(rid(0, 1), &g) as *const Chain;
        let b = idx.get_or_insert(rid(0, 1), &g) as *const Chain;
        assert_eq!(a, b);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn hash_get_misses_absent_keys() {
        let idx = HashIndex::with_capacity(16);
        let g = epoch::pin();
        idx.get_or_insert(rid(0, 1), &g);
        assert!(idx.get(rid(0, 2), &g).is_none());
        assert!(
            idx.get(rid(1, 1), &g).is_none(),
            "table id is part of the key"
        );
    }

    #[test]
    fn hash_handles_bucket_collisions() {
        // Tiny table forces collisions; all keys must remain reachable.
        let idx = HashIndex::with_capacity(1);
        let g = epoch::pin();
        for k in 0..200 {
            idx.get_or_insert(rid(0, k), &g);
        }
        assert_eq!(idx.len(), 200);
        for k in 0..200 {
            assert!(idx.get(rid(0, k), &g).is_some(), "lost key {k}");
        }
    }

    #[test]
    fn hash_chains_store_versions() {
        let idx = HashIndex::with_capacity(16);
        let g = epoch::pin();
        idx.get_or_insert(rid(0, 7), &g).install(
            Owned::new(Version::ready(1, bohm_common::value::of_u64(9, 8))),
            &g,
        );
        let v = idx.get(rid(0, 7), &g).unwrap().visible(2, &g).unwrap();
        assert_eq!(bohm_common::value::get_u64(v.data(), 0), 9);
    }

    #[test]
    fn hash_concurrent_inserts_unique_keys() {
        use std::sync::Arc;
        let idx = Arc::new(HashIndex::with_capacity(8)); // force collisions
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let idx = Arc::clone(&idx);
            handles.push(std::thread::spawn(move || {
                let g = epoch::pin();
                for k in 0..500 {
                    idx.get_or_insert(rid(0, t * 1000 + k), &g);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(idx.len(), 8 * 500);
        let g = epoch::pin();
        for t in 0..8u64 {
            for k in 0..500 {
                assert!(idx.get(rid(0, t * 1000 + k), &g).is_some());
            }
        }
    }

    #[test]
    fn hash_concurrent_inserts_same_key_converge() {
        use std::sync::Arc;
        let idx = Arc::new(HashIndex::with_capacity(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let idx = Arc::clone(&idx);
            handles.push(std::thread::spawn(move || {
                let g = epoch::pin();
                let mut ptrs = Vec::new();
                for k in 0..100u64 {
                    ptrs.push(idx.get_or_insert(rid(0, k), &g) as *const Chain as usize);
                }
                ptrs
            }));
        }
        let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for r in &results[1..] {
            assert_eq!(r, &results[0], "all threads must agree on chain identity");
        }
        assert_eq!(idx.len(), 100);
    }

    #[test]
    fn sweep_retire_removes_head_and_mid_entries() {
        let idx = HashIndex::with_capacity(1); // one bucket: forces a list
        let g = epoch::pin();
        for k in 0..6 {
            idx.get_or_insert(rid(0, k), &g);
        }
        assert_eq!(idx.len(), 6);
        // Retire the even keys wherever they sit in the bucket list.
        let retired = idx.sweep_retire(0, idx.bucket_count(), &g, &mut |r, _, _| r.row % 2 == 0);
        assert_eq!(retired, 3);
        assert_eq!(idx.len(), 3);
        for k in 0..6 {
            assert_eq!(
                idx.get(rid(0, k), &g).is_some(),
                k % 2 == 1,
                "key {k} retirement state wrong"
            );
        }
        // Retired keys are re-insertable with fresh chains.
        idx.get_or_insert(rid(0, 0), &g);
        assert_eq!(idx.len(), 4);
    }

    #[test]
    fn sweep_retire_wraps_and_respects_count() {
        let idx = HashIndex::with_capacity(64);
        let g = epoch::pin();
        for k in 0..100 {
            idx.get_or_insert(rid(0, k), &g);
        }
        // Sweeping every bucket from an offset start must still see all.
        let retired = idx.sweep_retire(37, usize::MAX, &g, &mut |r, h, _| h == r.stable_hash());
        assert_eq!(retired, 100);
        assert_eq!(idx.len(), 0);
    }

    #[test]
    fn sweep_retire_races_concurrent_inserts_safely() {
        use bohm_sync::atomic::AtomicBool;
        use std::sync::Arc;
        // One sweeper retires key 0's entries while other threads insert
        // distinct keys into the same (tiny) bucket space: no key other
        // than the reclaimed one may be lost, and the index must stay
        // traversable throughout.
        let idx = Arc::new(HashIndex::with_capacity(4));
        let stop = Arc::new(AtomicBool::new(false));
        let sweeper = {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let g = epoch::pin();
                    idx.sweep_retire(0, idx.bucket_count(), &g, &mut |r, _, _| r.table.0 == 9);
                }
            })
        };
        let mut inserters = Vec::new();
        for t in 0..4u64 {
            let idx = Arc::clone(&idx);
            let stop = Arc::clone(&stop);
            inserters.push(std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let g = epoch::pin();
                    // Table 9 keys are sweep bait; table `t` keys must stay.
                    idx.get_or_insert(rid(9, t * 1_000_000 + i), &g);
                    idx.get_or_insert(rid(t as u32, i % 256), &g);
                    drop(g);
                    i += 1;
                }
                i
            }));
        }
        std::thread::sleep(std::time::Duration::from_millis(100));
        stop.store(true, Ordering::Relaxed);
        sweeper.join().unwrap();
        for (t, h) in inserters.into_iter().enumerate() {
            let n = h.join().unwrap();
            assert!(n > 0);
            let g = epoch::pin();
            for i in 0..n.min(256) {
                assert!(
                    idx.get(rid(t as u32, i), &g).is_some(),
                    "inserted key lost: table {t} row {i}"
                );
            }
            drop(g);
        }
    }

    #[test]
    fn trait_object_usable() {
        let hash: Box<dyn VersionIndex> = Box::new(HashIndex::with_capacity(4));
        let g = epoch::pin();
        hash.get_or_insert(rid(0, 1), &g);
        assert_eq!(hash.len(), 1);
    }

    /// One line in the real build. Under `--cfg bohm_modelcheck` the
    /// instrumented atomics make an entry many lines long, so the size is
    /// pinned in the real build only, as `Version`'s is.
    #[cfg(not(bohm_modelcheck))]
    #[test]
    fn an_entry_is_exactly_one_cache_line() {
        assert_eq!(std::mem::size_of::<Entry>(), 64);
        assert_eq!(std::mem::align_of::<Entry>(), 64);
        assert!(
            std::mem::align_of::<Chain>() < 64,
            "the entry is padded, not the chain"
        );
    }

    /// The entry holding `chain`.
    fn entry_of(chain: &Chain) -> usize {
        chain as *const Chain as usize - std::mem::offset_of!(Entry, chain)
    }

    #[test]
    fn consecutive_inserts_are_64_bytes_apart_on_64_byte_lines() {
        let idx = HashIndex::with_capacity(64);
        let g = epoch::pin();
        let at: Vec<usize> = (0..32)
            .map(|k| entry_of(idx.get_or_insert(rid(0, k), &g)))
            .collect();
        for (i, w) in at.windows(2).enumerate() {
            assert_eq!(w[0] % 64, 0, "entry {i} is not line-aligned");
            assert_eq!(
                w[1] - w[0],
                std::mem::size_of::<Entry>(),
                "entries {i} and {} are not adjacent",
                i + 1
            );
        }
    }

    /// Run pin/defer/re-pin cycles — each re-pin tries to advance the
    /// epoch — until `done` holds, the way the collector's own tests drive
    /// it. Until a deadline, not for a fixed count: a sibling test may hold
    /// a pin for a while, and the epoch cannot advance past it meanwhile.
    fn drive_collector_until(done: impl Fn() -> bool) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
        while !done() {
            assert!(
                std::time::Instant::now() < deadline,
                "the grace period never passed"
            );
            let mut g = epoch::pin();
            // SAFETY: the closure touches nothing; it may run whenever.
            unsafe { g.defer_unchecked(|| ()) };
            g.repin();
        }
    }

    #[test]
    fn a_retired_slot_is_reused_only_after_the_grace_period() {
        let idx = HashIndex::with_capacity(16);
        let g = epoch::pin();
        let gone = entry_of(idx.get_or_insert(rid(0, 1), &g));
        assert_eq!(
            idx.sweep_retire(0, idx.bucket_count(), &g, &mut |_, _, _| true),
            1
        );
        // Still pinned: the slot may be in some walk's hands, so a new key
        // is carved fresh.
        let next = entry_of(idx.get_or_insert(rid(0, 2), &g));
        assert_ne!(next, gone);
        assert_eq!(idx.slab.free_slots(), 0);
        drop(g);
        drive_collector_until(|| idx.slab.free_slots() == 1);
        let g = epoch::pin();
        let reused = idx.get_or_insert(rid(0, 3), &g);
        assert_eq!(
            entry_of(reused),
            gone,
            "the next insert takes the freed slot"
        );
        assert!(reused.latest(&g).is_none(), "with a fresh chain");
        assert_eq!(idx.slab.free_slots(), 0);
        assert!(idx.get(rid(0, 1), &g).is_none());
        assert!(idx.get(rid(0, 3), &g).is_some());
    }

    #[test]
    fn an_insert_that_loses_its_race_returns_its_slot_at_once() {
        let idx = HashIndex::with_capacity(16);
        let g = epoch::pin();
        let first = entry_of(idx.get_or_insert(rid(0, 1), &g));
        // What a loser does: its entry is built, then found redundant.
        let spare = idx.new_entry(Key {
            rid: rid(0, 1),
            hash: rid(0, 1).stable_hash(),
        });
        // SAFETY: never published.
        unsafe { idx.slab.release(spare) };
        assert_eq!(idx.slab.free_slots(), 1);
        assert_eq!(entry_of(idx.get_or_insert(rid(0, 2), &g)), spare as usize);
        assert_ne!(spare as usize, first);
    }

    #[test]
    fn dropping_an_index_with_frees_pending_is_sound() {
        let idx = HashIndex::with_capacity(16);
        let g = epoch::pin();
        for k in 0..8 {
            let v = Version::ready(1, bohm_common::value::of_u64(k, 1_000));
            idx.get_or_insert(rid(0, k), &g).install(Owned::new(v), &g);
        }
        let retired = idx.sweep_retire(0, idx.bucket_count(), &g, &mut |r, _, _| r.row % 2 == 0);
        assert_eq!(retired, 4);
        let slab = Arc::downgrade(&idx.slab);
        drop(idx); // the live half goes now; the pending frees hold the slab
        assert!(slab.upgrade().is_some());
        drop(g);
        drive_collector_until(|| slab.upgrade().is_none());
    }

    #[test]
    fn hashed_entry_points_agree_with_the_trait() {
        let idx = HashIndex::with_capacity(16);
        let g = epoch::pin();
        let r = rid(3, 77);
        assert!(idx.get_hashed(r, r.stable_hash(), &g).is_none());
        let a = idx.get_or_insert_hashed(r, r.stable_hash(), &g) as *const Chain;
        assert_eq!(idx.get(r, &g).map(|c| c as *const Chain), Some(a));
        assert_eq!(idx.get_or_insert(r, &g) as *const Chain, a);
        assert_eq!(idx.len(), 1);
    }

    /// Keys over three tables, as a loader inserts them: table by table,
    /// row by row.
    fn load_order() -> Vec<RecordId> {
        (0..3)
            .flat_map(|t| (0..300).map(move |k| rid(t, k * 7 + t as u64)))
            .collect()
    }

    fn seeded(r: RecordId) -> Owned<Version> {
        let v = r.row * 1_000 + r.table.0 as u64;
        Owned::new(Version::ready(1, bohm_common::value::of_u64(v, 8)))
    }

    /// Every `(key, value)` in `for_each` order — bucket order, and list
    /// order inside a bucket, so two indexes agree on it only if every
    /// key sits at the same place in the same bucket list.
    fn walk(idx: &HashIndex) -> Vec<(RecordId, u64)> {
        let g = epoch::pin();
        let mut out = Vec::new();
        idx.for_each(&g, &mut |r, c| {
            let v = c
                .latest(&g)
                .map_or(u64::MAX, |v| bohm_common::value::get_u64(v.data(), 0));
            out.push((r, v));
        });
        out
    }

    #[test]
    fn a_bulk_loaded_index_is_indistinguishable_from_one_built_key_by_key() {
        // 900 keys over 256 buckets: most buckets hold a list.
        let keys = load_order();
        let by_key = HashIndex::with_capacity(256);
        let g = epoch::pin();
        for &r in &keys {
            by_key.get_or_insert(r, &g).install(seeded(r), &g);
        }
        let mut bulk = HashIndex::with_capacity(256);
        bulk.bulk_insert(keys.iter().copied(), |r, c| {
            c.install(seeded(r), &g);
        });
        assert_eq!(bulk.len(), by_key.len());
        assert_eq!(bulk.len(), keys.len());
        for &r in &keys {
            let read = |idx: &HashIndex| {
                let v = idx.get(r, &g).expect("loaded key").latest(&g).unwrap();
                bohm_common::value::get_u64(v.data(), 0)
            };
            assert_eq!(read(&bulk), read(&by_key), "{r}");
        }
        assert!(bulk.get(rid(0, 1), &g).is_none(), "row 1 was never loaded");
        assert_eq!(walk(&bulk), walk(&by_key));
        // Entries were carved in key order, back to back, from the slab.
        let at: Vec<usize> = keys[..32]
            .iter()
            .map(|&r| entry_of(bulk.get(r, &g).unwrap()))
            .collect();
        assert!(at
            .windows(2)
            .all(|w| w[1] - w[0] == std::mem::size_of::<Entry>()));

        // Afterwards both behave the same: one sweep, then more inserts.
        for idx in [&bulk, &by_key] {
            let retired =
                idx.sweep_retire(5, idx.bucket_count(), &g, &mut |r, _, _| r.row % 3 == 0);
            assert_eq!(retired, keys.iter().filter(|r| r.row % 3 == 0).count());
            for k in 0..50 {
                idx.get_or_insert(rid(4, k), &g)
                    .install(seeded(rid(4, k)), &g);
            }
        }
        assert_eq!(bulk.len(), by_key.len());
        assert_eq!(walk(&bulk), walk(&by_key));
    }

    #[test]
    fn a_bulk_insert_takes_given_back_slots_first() {
        let mut idx = HashIndex::with_capacity(16);
        let g = epoch::pin();
        let gone: Vec<usize> = (0..3)
            .map(|k| entry_of(idx.get_or_insert(rid(0, k), &g)))
            .collect();
        assert_eq!(
            idx.sweep_retire(0, idx.bucket_count(), &g, &mut |_, _, _| true),
            3
        );
        drop(g);
        drive_collector_until(|| idx.slab.free_slots() == 3);
        let mut got = Vec::new();
        idx.bulk_insert((10..15).map(|k| rid(0, k)), |_, c| got.push(entry_of(c)));
        assert_eq!(idx.len(), 5);
        assert_eq!(idx.slab.free_slots(), 0);
        // Given-back slots first, as `get_or_insert` takes them.
        let mut reused = got[..3].to_vec();
        reused.sort_unstable();
        let mut gone = gone;
        gone.sort_unstable();
        assert_eq!(reused, gone);
        assert!(got[3..].iter().all(|e| !gone.contains(e)));
        let g = epoch::pin();
        for k in 10..15 {
            let c = idx.get(rid(0, k), &g).expect("bulk-inserted key");
            assert!(c.latest(&g).is_none(), "with a fresh chain");
        }
        assert!(idx.get(rid(0, 0), &g).is_none());
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "already in the index")]
    fn a_bulk_insert_of_a_present_key_is_refused_in_debug_builds() {
        let mut idx = HashIndex::with_capacity(16);
        idx.bulk_insert([rid(0, 1), rid(0, 2), rid(0, 1)], |_, _| {});
    }

    #[test]
    fn look_ahead_is_harmless_for_present_absent_and_colliding_keys() {
        // Hints only: every stage, for every probe kind, over an empty
        // bucket, a first-entry hit, a collision behind another key, and an
        // empty chain — nothing to observe but the absence of a crash, and
        // the index afterwards answers exactly as before.
        let idx = HashIndex::with_capacity(1); // one bucket: all keys collide
        let g = epoch::pin();
        let stages = |r: RecordId| {
            for probe in [ProbeFor::Annotate, ProbeFor::Install, ProbeFor::Read] {
                for stage in 0..HashIndex::LOOK_AHEAD_STAGES {
                    idx.look_ahead(stage, r.stable_hash(), probe, &g);
                }
            }
        };
        stages(rid(0, 1)); // empty bucket
        idx.get_or_insert(rid(0, 1), &g);
        stages(rid(0, 1)); // first entry, empty chain
        for ts in [1, 2] {
            let v = Version::ready(ts, bohm_common::value::of_u64(ts, 8));
            idx.get_or_insert(rid(0, 1), &g).install(Owned::new(v), &g);
        }
        stages(rid(0, 1)); // first entry, head with a predecessor
        idx.get_or_insert(rid(0, 2), &g);
        stages(rid(0, 1)); // now second in its bucket: the hint misses
        stages(rid(0, 3)); // absent behind two others
        assert_eq!(idx.len(), 2);
        assert_eq!(idx.get(rid(0, 1), &g).unwrap().depth(&g), 2);
        assert!(idx.get(rid(0, 3), &g).is_none());
    }
}
