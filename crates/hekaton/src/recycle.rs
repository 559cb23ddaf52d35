//! Per-worker recycling of versions and transaction objects under the
//! active-transaction registry (quiescent-state-based reclamation, Hart et
//! al., JPDC 2007).
//!
//! Whatever a worker unlinks — the versions `HekatonStore::prune` cuts out
//! of a chain, and its own [`HkTxn`] once post-processing or the abort has
//! replaced every marker naming it — is [`Retired`] into the worker's
//! [`Recycler`]. It is not freed: it waits in limbo, then goes back to the
//! worker's pools, so that in steady state a write takes a version (and its
//! payload buffer) from a pool and a transaction takes its object from
//! another, and neither reaches the allocator.
//!
//! # The rule
//!
//! Each limbo entry is **stamped** with a counter snapshot taken after its
//! unlink: the worker's next `SeqCst` draw from the global counter (its next
//! begin timestamp), which it makes anyway. The entry goes back to a pool
//! only once a **sweep watermark** — a counter snapshot `c` taken before a
//! scan of the registry, capped at the scan's minimum — is *strictly above*
//! the stamp `s`. That excludes every reader that could still hold it:
//!
//! * A reader registers before it looks at anything: it publishes a lower
//!   bound of its begin timestamp, then makes a `SeqCst` draw (or load) of
//!   the counter. Every modification of the counter is an RMW, so the draw
//!   that made the stamp heads a release sequence.
//! * A reader whose draw comes after the stamp's in the counter's order
//!   synchronizes with it, so the unlink happens before the reader's walk,
//!   which therefore cannot reach the entry.
//! * A reader whose draw comes before the stamp's published its bound
//!   before that, in the single total order, so a scan that follows `c`
//!   (itself drawn after the stamp) sees the bound, which is at most the
//!   reader's begin timestamp `b < s`. The watermark stays at or below `s`
//!   until the reader clears its slot with a Release store, which the
//!   scan's load then synchronizes with.
//!
//! The rule is **not** "the version's end timestamp is at or below the
//! watermark". That says nobody can *see* the version any more, not that
//! nobody is *standing on* it: a reader that loaded a chain pointer before
//! the unlink still dereferences what it reached — `Hekaton::resolve`'s
//! re-walk over a sealed head tombstone (end = begin ≤ watermark) or over
//! aborted garbage (end ∞, unlinked regardless of the watermark) — and a
//! version reused under it sends the walk into another record's chain.
//! `store::modelcheck` races exactly that and keeps a twin that recycles on
//! the end-timestamp rule, which fails.
//!
//! # Pools
//!
//! A recycled version keeps its payload buffer, so versions are pooled per
//! payload length (one free list per record size; tombstones are the empty
//! payloads), each bounded by [`VERSIONS_PER_SIZE`]. A worker prunes what
//! other workers wrote, so the lists of two workers drift apart by a random
//! walk; a full list therefore spills half of itself into the engine's
//! [`Spare`] lists, an empty one refills from them, and only the surplus
//! beyond [`SPARE_PER_SIZE`] is freed. A recycled [`HkTxn`] keeps the
//! capacity of its `dependents` list; a worker retires only its own, so
//! its transaction pool needs no sharing.

use crate::txn::HkTxn;
use crate::version::HkVersion;
use bohm_sync::atomic::{AtomicUsize, Ordering};
use bohm_sync::Mutex;
use std::collections::VecDeque;
use std::ptr::NonNull;

/// Free versions a worker keeps per payload length; a full list spills
/// half of itself into the [`Spare`].
const VERSIONS_PER_SIZE: usize = 256;
/// Free versions the [`Spare`] keeps per payload length; more are freed.
const SPARE_PER_SIZE: usize = 256 * VERSIONS_PER_SIZE;
/// Free transaction objects kept per worker.
const TXNS: usize = 4096;

/// Free versions by payload length.
type FreeLists = Vec<(usize, Vec<NonNull<HkVersion>>)>;

/// The free list for payload length `len`, made on first use.
fn list_for(lists: &mut FreeLists, len: usize) -> &mut Vec<NonNull<HkVersion>> {
    let i = match lists.iter().position(|(l, _)| *l == len) {
        Some(i) => i,
        None => {
            lists.push((len, Vec::new()));
            lists.len() - 1
        }
    };
    &mut lists[i].1
}

/// Free versions shared by an engine's workers, moved in and out in
/// batches of half a worker's list.
#[derive(Default)]
pub(crate) struct Spare {
    lists: Mutex<FreeLists>,
    /// How many versions the lists hold, all lengths together: a worker
    /// whose list runs dry while the spare is empty (an engine still
    /// growing its chains) allocates without taking the mutex.
    stocked: AtomicUsize,
}

// SAFETY: the versions are free (past the grace period), owned by the
// lists, and only moved under the mutex.
unsafe impl Send for Spare {}
// SAFETY: as above.
unsafe impl Sync for Spare {}

impl Spare {
    /// Publish the lists' new total; called under their mutex.
    fn restock(&self, lists: &FreeLists) {
        let n = lists.iter().map(|(_, l)| l.len()).sum();
        // RELAXED: a hint (see `Recycler::version`).
        self.stocked.store(n, Ordering::Relaxed);
    }
}

impl Drop for Spare {
    fn drop(&mut self) {
        for v in self.lists.get_mut().drain(..).flat_map(|(_, l)| l) {
            // SAFETY: free versions; the last worker is gone.
            unsafe { Retired::Version(v).free() };
        }
    }
}

/// An object unlinked from every shared structure, owned by whoever holds
/// this handle, and possibly still reachable by readers that got to it
/// before the unlink (see the module docs).
pub(crate) enum Retired {
    Version(NonNull<HkVersion>),
    Txn(NonNull<HkTxn>),
}

// SAFETY: a retired object is exclusively owned by the holder of its
// handle; which thread eventually reuses or frees it is immaterial.
unsafe impl Send for Retired {}

impl Retired {
    /// Free the object.
    ///
    /// # Safety
    ///
    /// No reader can reach it any more: the grace period of the module docs
    /// has passed, or nothing else runs.
    pub(crate) unsafe fn free(self) {
        // SAFETY: every version and transaction object is `Box`-allocated,
        // and the caller guarantees exclusive ownership.
        unsafe {
            match self {
                Retired::Version(v) => drop(Box::from_raw(v.as_ptr())),
                Retired::Txn(t) => drop(Box::from_raw(t.as_ptr())),
            }
        }
    }
}

/// One worker's limbo list and pools.
pub(crate) struct Recycler {
    /// Retired since the last draw: waiting for their stamp.
    pub(crate) pending: Vec<Retired>,
    /// Stamped entries, oldest first; stamps never decrease.
    limbo: VecDeque<(u64, Retired)>,
    versions: FreeLists,
    txns: Vec<NonNull<HkTxn>>,
    spare: std::sync::Arc<Spare>,
}

impl Recycler {
    pub(crate) fn new(spare: std::sync::Arc<Spare>) -> Self {
        Self {
            pending: Vec::new(),
            limbo: VecDeque::new(),
            versions: Vec::new(),
            txns: Vec::new(),
            spare,
        }
    }

    /// Stamp everything pending with `draw`, a `SeqCst` counter draw made
    /// after its unlink.
    pub(crate) fn stamp(&mut self, draw: u64) {
        self.limbo.extend(self.pending.drain(..).map(|r| (draw, r)));
    }

    /// Return every limbo entry whose stamp lies strictly below the sweep
    /// watermark `watermark` to the pools. Returns how many went back.
    pub(crate) fn drain(&mut self, watermark: u64) -> usize {
        let mut n = 0;
        while self
            .limbo
            .front()
            .is_some_and(|&(stamp, _)| stamp < watermark)
        {
            let (_, r) = self.limbo.pop_front().expect("front checked above");
            // SAFETY: past the grace period (module docs): exclusively ours.
            unsafe { self.put_back(r) };
            n += 1;
        }
        n
    }

    /// Pool `r` (a full version list spills half of itself into the
    /// spare lists first), or free it if its pool is full.
    ///
    /// # Safety
    ///
    /// `r` is unreachable: never published, or past the grace period.
    unsafe fn put_back(&mut self, r: Retired) {
        match r {
            Retired::Version(v) => {
                // SAFETY: exclusively ours (caller's contract).
                let len = unsafe { v.as_ref() }.data().len();
                let list = list_for(&mut self.versions, len);
                if list.len() == VERSIONS_PER_SIZE {
                    let mut lists = self.spare.lists.lock();
                    let shared = list_for(&mut lists, len);
                    for v in list.drain(VERSIONS_PER_SIZE / 2..) {
                        if shared.len() < SPARE_PER_SIZE {
                            shared.push(v);
                        } else {
                            // SAFETY: a free version nobody will take.
                            unsafe { Retired::Version(v).free() };
                        }
                    }
                    self.spare.restock(&lists);
                }
                list.push(v);
            }
            Retired::Txn(t) if self.txns.len() < TXNS => self.txns.push(t),
            // SAFETY: as above.
            Retired::Txn(_) => unsafe { r.free() },
        }
    }

    /// An unpublished version with `begin` word `begin` and payload `data`
    /// (empty: a tombstone), from the pool if it has one of that length —
    /// an empty list first refills from the spare lists.
    pub(crate) fn version(&mut self, begin: u64, data: &[u8]) -> NonNull<HkVersion> {
        let list = list_for(&mut self.versions, data.len());
        // RELAXED: a hint; a stale zero only costs one allocation, and the
        // versions themselves move under the mutex.
        if list.is_empty() && self.spare.stocked.load(Ordering::Relaxed) > 0 {
            let mut lists = self.spare.lists.lock();
            let shared = list_for(&mut lists, data.len());
            list.extend(shared.drain(shared.len().saturating_sub(VERSIONS_PER_SIZE / 2)..));
            self.spare.restock(&lists);
        }
        match list.pop() {
            Some(v) => {
                // SAFETY: pooled versions are past the grace period.
                unsafe { v.as_ref().reuse(begin, data) };
                v
            }
            None => NonNull::from(Box::leak(Box::new(HkVersion::new(begin, data.into())))),
        }
    }

    /// Take back a version [`version`](Self::version) handed out that was
    /// never published.
    pub(crate) fn unused(&mut self, v: NonNull<HkVersion>) {
        // SAFETY: never published, so nobody else ever saw it.
        unsafe { self.put_back(Retired::Version(v)) };
    }

    /// A transaction object for an attempt that drew `begin_ts`.
    pub(crate) fn txn(&mut self, begin_ts: u64) -> NonNull<HkTxn> {
        match self.txns.pop() {
            Some(mut t) => {
                // SAFETY: pooled objects are past the grace period.
                unsafe { t.as_mut() }.reuse(begin_ts);
                t
            }
            None => NonNull::from(Box::leak(Box::new(HkTxn::new(begin_ts)))),
        }
    }

    /// Move every entry still in limbo or pending to `out`, unstamped (the
    /// receiver stamps them again with a later draw, which only delays
    /// them).
    pub(crate) fn hand_over(&mut self, out: &mut Vec<Retired>) {
        out.append(&mut self.pending);
        out.extend(self.limbo.drain(..).map(|(_, r)| r));
    }
}

impl Drop for Recycler {
    /// Free the pools. Limbo must have been handed over first: its entries
    /// may still be reachable.
    fn drop(&mut self) {
        debug_assert!(self.pending.is_empty() && self.limbo.is_empty());
        let versions = self
            .versions
            .drain(..)
            .flat_map(|(_, l)| l)
            .map(Retired::Version);
        // (Not into the spare: the engine may be gone with the last worker.)
        for r in versions.chain(self.txns.drain(..).map(Retired::Txn)) {
            // SAFETY: pooled objects are past the grace period.
            unsafe { r.free() };
        }
    }
}
