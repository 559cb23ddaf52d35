//! The concurrency-control phase (paper §3.2).
//!
//! Each CC thread owns a static partition of the record space — whole cache
//! lines of chains (`crate::store::owner`) — and runs the same loop: for
//! every transaction of every batch, in timestamp order, for every record
//! of its partition the transaction declared — **no lookup at all**: the
//! plan entry carries the chain sealing found for it —
//!
//! * annotate the read-set entry, if the transaction reads the record, with
//!   the current latest version (§3.2.3 — this *is* the version a reader at
//!   this timestamp must observe, because CC threads process transactions
//!   sequentially),
//! * and, if it writes the record, truncate the dead version tail under
//!   the Condition-3 GC bound into the thread's own [`VersionPool`] (§3.3.2
//!   — GC triggers on update, at most one chain walk per chain per bound
//!   value) and install an uninitialized placeholder version — the one just
//!   retired, when there is one — over the version just annotated (§3.2.2).
//!
//! Declared key-range scans take no part in this loop: nothing is looked up
//! or annotated for them here, and their rows resolve at execution through
//! the timestamp-filtered walk (`crate::access`): by the time a batch
//! executes, every version its scans may observe is installed.
//!
//! The per-transaction scan iterates the plan built at seal time (see
//! `PlanEntry` in `crate::batch`): pure reads, then writes carrying their
//! read. Every CC thread examines every transaction — the design's
//! acknowledged serial component (§3.2.2) — so the examination itself is a
//! tight pass over one contiguous array.
//!
//! The loop's time is cache misses, not instructions: over a table far
//! larger than the caches, an install is a chain of dependent loads —
//! chain line → head version → predecessor. Because the plan is known in
//! full before the loop starts, a `LookAhead` walks the same entries a fixed
//! distance in front of it — across transaction boundaries, same partition
//! filter — issuing those loads one stage at a time, so the access itself
//! finds its lines in flight or already there (see `crate::lookahead` for
//! the rule that keeps this a pure hint).
//!
//! Threads never coordinate per transaction or per record; the only
//! synchronization is one atomic countdown per batch (§3.2.4). Each thread
//! chases the window ring for its next batch id; whichever thread counts a
//! batch down to zero wakes the execution threads chasing the same ring.
//! (A batch is in the ring before any CC thread sees it, so execution can
//! always resolve read dependencies into in-flight batches.)

use crate::batch::{Batch, PlanEntry};
use crate::engine::Inner;
use crate::lookahead::LookAhead;
use crate::store::look_ahead;
use bohm_mvstore::{Version, VersionPool};
use bohm_sync::atomic::Ordering;
use crossbeam_epoch as epoch;

/// Main loop of CC thread `me`. Exits once the ingest has closed the
/// window and every batch sealed before that has been through here.
pub(crate) fn cc_loop(inner: &Inner, me: usize) {
    // Versions this thread retired and has not re-installed yet. Strictly
    // thread-local: a chain's installer is also its truncator.
    let mut pool = VersionPool::new();
    for batch in (0..).map_while(|id| inner.window.next_for_cc(id)) {
        let t0 = std::time::Instant::now();
        process_batch(inner, me, &batch, &mut pool);
        inner
            .cc_busy_ns
            // RELAXED: monotonic statistics counter.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        inner.window.cc_done(&batch);
    }
}

/// Look-ahead stages: chain line, head version, predecessor
/// (`store::look_ahead`).
const STAGES: usize = 3;

/// Plan entries between two look-ahead stages: the access runs 12 entries
/// — a little over one transaction of `micro_rmw10` — behind the first hint
/// for its record (DESIGN.md, "Look-ahead").
const STAGE_DISTANCE: usize = 4;

#[cfg(test)]
thread_local! {
    /// Plan entries this thread's [`process_batch`] loop accessed.
    pub(crate) static PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Process every transaction of `batch` for partition `me`.
pub(crate) fn process_batch(inner: &Inner, me: usize, batch: &Batch, pool: &mut VersionPool) {
    let guard = epoch::pin();
    let m = inner.config.cc_threads;
    let mut retired = 0usize;
    // This thread's entries of the whole batch, in the order the loop below
    // meets them.
    let mine = batch
        .txns
        .iter()
        .flat_map(|t| t.plan.iter().copied())
        .filter(|e| e.partition(m) == me);
    // One look-ahead stage for an entry this thread will reach later. A
    // pure read stores the head pointer without following it, so its hints
    // stop at the chain line.
    let hint = |stage, e: PlanEntry| {
        let install = e.write().is_some();
        if stage == 0 || install {
            // SAFETY: `inner.store` planned the batch and outlives this call.
            look_ahead(stage, unsafe { e.chain() }, install, &guard);
        }
    };
    let mut ahead: LookAhead<_, STAGES, STAGE_DISTANCE> = LookAhead::start(mine, hint);
    for t in batch.txns.iter() {
        // The Condition-3 watermark for this transaction's installs. Acquire:
        // recycling a version rewrites memory that transactions at or below
        // the bound read, so their reads must happen-before this load (the
        // exec side publishes the bound with Release after they complete).
        let bound = inner.gc_bound.load(Ordering::Acquire);
        for e in t.plan.iter() {
            if e.partition(m) != me {
                continue;
            }
            ahead.step(hint);
            #[cfg(test)]
            PROBES.with(|p| p.set(p.get() + 1));
            let (ri, wi) = (e.read(), e.write());
            // Sealing gave the entry its record's chain. An empty one — a
            // record nobody has inserted yet, in timestamp order up to this
            // transaction — leaves the annotation slot null on purpose: the
            // executor falls back to the timestamp-filtered walk, which
            // reports "absent" even though a placeholder — this
            // transaction's own, for an RMW, or a later one's — has appeared
            // on the chain by then (see `BohmAccess`).
            // SAFETY: `inner.store` planned the batch and outlives this call.
            let chain = unsafe { e.chain() };
            // An RMW resolves its read to the predecessor version before
            // its own placeholder goes on top of it.
            if let (Some(ri), Some(v)) = (ri, chain.latest(&guard)) {
                t.read_refs[ri].store(v as *const Version as *mut Version, Ordering::Release);
            }
            let Some(wi) = wi else { continue };
            // GC triggers on update (§3.3.2): retire first, so the version
            // that just died is the placeholder installed next (bound 0 —
            // nothing executed yet — is a no-op; the head, which an RMW
            // has just annotated, is never part of the dead tail).
            // SAFETY: this thread owns the entry's partition (checked
            // above), and `bound` is the Acquire-loaded Condition-3
            // watermark — see `VersionPool`'s reuse-safety argument.
            retired += unsafe { pool.reclaim(chain, bound, &guard) };
            let size = inner.record_size(t.txn.writes[wi].table);
            let v = chain.install(pool.take(t.ts, size), &guard);
            t.write_refs[wi].store(v.as_raw() as *mut Version, Ordering::Release);
        }
    }
    if retired > 0 {
        inner
            .gc_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(retired as u64, Ordering::Relaxed);
    }
}
