//! Per-CC-thread version pools: paper Condition 3 (§3.3.2) as the only
//! reclamation rule for versions.
//!
//! A chain's installer is also its truncator (the CC thread owning the
//! record's partition), so a version that dies on a thread is exactly what
//! that thread needs for its next placeholder. A [`VersionPool`] is that
//! thread's private free list: [`reclaim`](VersionPool::reclaim) truncates
//! a chain under the batch low watermark straight into it, and
//! [`take`](VersionPool::take) pops the next placeholder back out — header
//! reset, payload kept (inside the object up to
//! [`INLINE_PAYLOAD`](crate::version::INLINE_PAYLOAD) bytes, in its own
//! buffer beyond) — falling back to the allocator only when the list is
//! empty. Nothing here touches the epoch collector, a lock, or
//! another thread's memory.
//!
//! # Why immediate reuse is safe
//! Let `B` be a Condition-3 bound: every transaction with `ts ≤ B` has
//! finished executing, and the caller has synchronized with that fact (an
//! Acquire load of the published bound). A truncated version `V` has
//! `end ≤ B`.
//!
//! * **Annotation pointers.** A raw pointer to `V` is only ever handed to a
//!   transaction that must observe `V`, i.e. one with
//!   `begin < ts ≤ end ≤ B` — it has finished.
//! * **Chain walks.** A live transaction has `ts > B`, and a
//!   [`visible(ts)`](crate::Chain::visible) walk never loads a pointer to a
//!   version with `end < ts` (see the argument there): it stops at or above
//!   the truncation point's predecessor.
//! * **Finished readers.** Their accesses happen-before the bound's
//!   publication, hence before the reset in `take`.
//!
//! So `V` is thread-private again the moment it is unlinked, and the same
//! Release store that publishes any fresh placeholder republishes it.
//! Readers *outside* the transaction pipeline (diagnostics on a running
//! engine) are not covered — they need the epoch-deferred
//! [`Chain::truncate`](crate::Chain::truncate), or quiescence, which the
//! engine's own diagnostic readers (`Bohm::read_record` and friends)
//! enforce rather than assume.

// HOT-PATH: take/reclaim run once per write of every transaction; no
// clocks, no syscalls, no I/O (enforced by the lint).

use crate::chain::Chain;
use crate::version::Version;
use bohm_common::Timestamp;
use crossbeam_epoch::{Guard, Owned};

/// One CC thread's free lists of retired versions, one per payload size
/// (fixed per table, so this is per table or coarser: tables with equal
/// record sizes share a list, and a version can never be handed to a record
/// it does not fit).
///
/// LIFO on purpose: the engine reclaims a chain right before installing
/// into it, so the version just retired — its cache lines warm from the
/// truncation walk — is the one reused. The lists hold only what this
/// thread itself once allocated and has not re-installed, and never more
/// than [`MAX_POOLED_BYTES`]: what a reclaim would add beyond that goes
/// back to the allocator, so a burst that built a long chain (a hot key
/// while a long reader held the watermark back) does not pin its memory
/// for the engine's lifetime. The rest is freed when the pool drops (CC
/// thread exit).
pub struct VersionPool {
    /// `(payload size, free list)`; a handful of entries, scanned linearly.
    free: Vec<(usize, Vec<Owned<Version>>)>,
    /// Bytes currently pooled over all lists, as [`footprint`] counts them.
    bytes: usize,
    /// The most `bytes` may reach.
    cap: usize,
}

/// The most memory one pool keeps: 48 bytes per version, plus its payload
/// buffer where the payload is too long to live inside the object.
///
/// Steady state needs far less — a pool holds roughly the hot-key versions
/// the pipeline has in flight: its high-water mark over a 20-second
/// benchmark run is under 0.1 MiB on `tpcc_mix`, 0.25 MiB on `micro_rmw10`,
/// 3.4 MiB on `ycsb_hot_2rmw8r` and 7.8 MiB on `ycsb_longread_mix` — so the
/// cap only ever bites after a burst.
pub const MAX_POOLED_BYTES: usize = 64 << 20;

/// What pooling `v` holds back from the allocator: the object, plus its
/// payload buffer when the payload is too long to live inside it.
#[inline]
fn footprint(v: &Version) -> usize {
    std::mem::size_of::<Version>() + if v.is_heap() { v.len() } else { 0 }
}

impl Default for VersionPool {
    fn default() -> Self {
        Self::new()
    }
}

impl VersionPool {
    /// An empty pool that keeps at most [`MAX_POOLED_BYTES`].
    pub fn new() -> Self {
        Self::with_cap(MAX_POOLED_BYTES)
    }

    fn with_cap(cap: usize) -> Self {
        Self {
            free: Vec::new(),
            bytes: 0,
            cap,
        }
    }

    #[inline]
    fn list(&mut self, size: usize) -> &mut Vec<Owned<Version>> {
        let i = match self.free.iter().position(|(s, _)| *s == size) {
            Some(i) => i,
            None => {
                self.free.push((size, Vec::new()));
                self.free.len() - 1
            }
        };
        &mut self.free[i].1
    }

    /// Truncate `chain` under `bound` and keep the unlinked versions for
    /// reuse (all of them, short of the pool's byte cap). Returns the
    /// number retired.
    ///
    /// At most one walk happens per chain per `bound` value: a repeat call
    /// under an unchanged bound returns 0 without touching the chain. The
    /// skip can only ever *delay* reclamation, never unsafely hasten it —
    /// and it delays nothing for a caller that installs above every bound
    /// it has reclaimed under, as the engine's CC threads do: a later
    /// install then ends its predecessor above the bound already walked.
    ///
    /// # Safety
    /// * The caller is the chain's single writer (as for `install`).
    /// * `bound` is a Condition-3 low watermark the caller has
    ///   **acquired**: every reader with `ts ≤ bound` has finished and its
    ///   accesses happen-before this call, and no other kind of reader is
    ///   racing (module docs).
    pub unsafe fn reclaim(&mut self, chain: &Chain, bound: Timestamp, guard: &Guard) -> usize {
        if !chain.mark_gc(bound) {
            return 0;
        }
        chain.truncate_with(bound, guard, &mut |dead| {
            // SAFETY: unlinked by its only writer, and unreachable by every
            // reader per the caller's contract — exclusively ours.
            let dead = unsafe { dead.into_owned() };
            let cost = footprint(&dead);
            if self.bytes + cost <= self.cap {
                self.bytes += cost;
                self.list(dead.len()).push(dead);
            }
            // Otherwise `dead` drops here: surplus goes to the allocator.
        })
    }

    /// The next placeholder for a write by transaction `begin` on a
    /// `size`-byte record: a recycled version if one is pooled, otherwise a
    /// fresh allocation.
    #[inline]
    pub fn take(&mut self, begin: Timestamp, size: usize) -> Owned<Version> {
        match self.list(size).pop() {
            Some(mut v) => {
                self.bytes -= footprint(&v);
                v.recycle(begin);
                v
            }
            None => Owned::new(Version::placeholder(begin, size)),
        }
    }

    /// Versions currently pooled, over all sizes.
    #[cfg(test)]
    fn pooled(&self) -> usize {
        self.free.iter().map(|(_, list)| list.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::version::VersionState;
    use bohm_common::value::{get_u64, of_u64};
    use bohm_common::INFINITY_TS;
    use crossbeam_epoch as epoch;

    fn ready(ts: Timestamp, val: u64) -> Owned<Version> {
        Owned::new(Version::ready(ts, of_u64(val, 8)))
    }

    #[test]
    fn empty_pool_falls_back_to_the_allocator() {
        let mut pool = VersionPool::new();
        let v = pool.take(7, 16);
        assert_eq!(v.begin(), 7);
        assert_eq!(v.len(), 16);
        assert_eq!(v.state(), VersionState::Pending);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn reclaimed_version_is_the_next_placeholder() {
        let c = Chain::new();
        let g = epoch::pin();
        let first = c.install(ready(100, 1), &g).as_raw();
        c.install(ready(200, 2), &g);
        let mut pool = VersionPool::new();
        // SAFETY: single-threaded test — no reader exists at all.
        assert_eq!(unsafe { pool.reclaim(&c, 200, &g) }, 1);
        assert_eq!(pool.pooled(), 1);
        assert_eq!(c.depth(&g), 1);

        let v = pool.take(300, 8);
        assert_eq!(&*v as *const Version, first, "same object, next life");
        assert_eq!(v.begin(), 300);
        assert_eq!(v.end(), INFINITY_TS);
        assert!(!v.is_resolved(), "a recycled version is Pending again");
        assert_eq!(pool.pooled(), 0);

        let installed = c.install(v, &g);
        // SAFETY: just installed under `g`; nothing truncates.
        let installed = unsafe { installed.as_ref() }.unwrap();
        installed.fill(&3u64.to_le_bytes());
        assert_eq!(get_u64(c.visible(301, &g).unwrap().data(), 0), 3);
        assert_eq!(get_u64(c.visible(300, &g).unwrap().data(), 0), 2);
        assert_eq!(c.depth(&g), 2);
    }

    #[test]
    fn free_lists_are_per_payload_size() {
        let (small, big) = (Chain::new(), Chain::new());
        let g = epoch::pin();
        small.install(ready(1, 1), &g);
        small.install(ready(2, 2), &g);
        big.install(Owned::new(Version::ready(1, of_u64(1, 100))), &g);
        big.install(Owned::new(Version::ready(2, of_u64(2, 100))), &g);
        let mut pool = VersionPool::new();
        // SAFETY: single-threaded test.
        unsafe {
            pool.reclaim(&small, 2, &g);
            pool.reclaim(&big, 2, &g);
        }
        assert_eq!(pool.pooled(), 2);
        // A size nobody pooled: allocator fallback, pool untouched.
        assert_eq!(pool.take(9, 24).len(), 24);
        assert_eq!(pool.pooled(), 2);
        assert_eq!(pool.take(9, 100).len(), 100);
        assert_eq!(pool.take(9, 8).len(), 8);
        assert_eq!(pool.pooled(), 0);
    }

    #[test]
    fn one_walk_per_chain_per_bound() {
        let c = Chain::new();
        let g = epoch::pin();
        for i in 1..=4 {
            c.install(ready(i * 10, i), &g);
        }
        let mut pool = VersionPool::new();
        // SAFETY: single-threaded test, here and below.
        let reclaim = |pool: &mut VersionPool, bound| unsafe { pool.reclaim(&c, bound, &g) };
        assert_eq!(reclaim(&mut pool, 30), 2);
        // Same bound again: skipped, and nothing new could have died.
        assert_eq!(reclaim(&mut pool, 30), 0);
        c.install(pool.take(50, 8), &g);
        assert_eq!(reclaim(&mut pool, 50), 2);
        assert_eq!(c.depth(&g), 1);
        assert_eq!(pool.pooled(), 3);
    }

    #[test]
    fn a_burst_beyond_the_cap_goes_back_to_the_allocator() {
        // Burst: one hot key piles up 1,000 versions while the watermark
        // stands still, then the watermark passes them all at once. A pool
        // capped at 10 versions' worth keeps 10 and frees the rest — it
        // still reports all 999 as retired — and serves later takes from
        // what it kept before it allocates again.
        let c = Chain::new();
        let g = epoch::pin();
        for ts in 1..=1_000u64 {
            c.install(ready(ts, ts), &g);
        }
        let one = footprint(&Version::placeholder(0, 8));
        let mut pool = VersionPool::with_cap(10 * one);
        // SAFETY: single-threaded test.
        assert_eq!(unsafe { pool.reclaim(&c, 1_000, &g) }, 999);
        assert_eq!(c.depth(&g), 1);
        assert_eq!(pool.pooled(), 10);
        assert_eq!(pool.bytes, 10 * one);
        for ts in 1_001..=1_020u64 {
            c.install(pool.take(ts, 8), &g);
        }
        assert_eq!((pool.pooled(), pool.bytes), (0, 0));
        // Idle afterwards: nothing is pinned beyond the cap, ever.
        // SAFETY: single-threaded test.
        assert_eq!(unsafe { pool.reclaim(&c, 1_020, &g) }, 20);
        assert_eq!(pool.pooled(), 10);
    }

    #[test]
    fn the_cap_charges_a_payload_buffer_only_where_one_exists() {
        let object = std::mem::size_of::<Version>();
        assert_eq!(footprint(&Version::placeholder(0, 8)), object);
        assert_eq!(footprint(&Version::placeholder(0, 16)), object);
        assert_eq!(footprint(&Version::placeholder(0, 17)), object + 17);
        assert_eq!(footprint(&Version::placeholder(0, 1_000)), object + 1_000);
    }

    #[test]
    fn steady_state_rmw_needs_two_versions_per_key() {
        // The uniform-key steady state: by the time a key is written again
        // the bound has passed its previous write, so reclaim-then-take
        // hands the dying version straight back and the pool never grows.
        let c = Chain::new();
        let g = epoch::pin();
        c.install(ready(1, 0), &g);
        let mut pool = VersionPool::new();
        let mut seen = std::collections::HashSet::new();
        for ts in 2..200u64 {
            // SAFETY: single-threaded test.
            unsafe { pool.reclaim(&c, ts - 1, &g) };
            let v = pool.take(ts, 8);
            seen.insert(&*v as *const Version as usize);
            let v = c.install(v, &g);
            // SAFETY: just installed under `g`.
            unsafe { v.as_ref() }.unwrap().fill(&ts.to_le_bytes());
            assert!(c.depth(&g) <= 2);
            assert_eq!(pool.pooled(), 0);
        }
        assert_eq!(seen.len(), 2, "two objects ping-pong for ever");
        assert_eq!(get_u64(c.visible(1_000, &g).unwrap().data(), 0), 199);
    }
}
