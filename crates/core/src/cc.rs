//! The concurrency-control phase (paper §3.2).
//!
//! Each CC thread owns a static hash partition of the key space and runs
//! the same loop: for every transaction of every batch, in timestamp order,
//! for every record of its partition the transaction declared — **one index
//! probe per record** —
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
//! The per-transaction scan iterates the plan built at seal time (see
//! `PlanEntry` in `crate::batch`): pure reads, then writes carrying their
//! read. Every CC thread examines every transaction — the design's
//! acknowledged serial component (§3.2.2) — so the examination itself is a
//! tight pass over one contiguous array.
//!
//! The loop's time is cache misses, not instructions: a probe is a chain of
//! dependent loads (bucket slot → entry → head version → predecessor) over
//! a table far larger than the caches. Because the plan is known in full
//! before the loop starts, a `LookAhead` walks the same entries a fixed
//! distance in front of it — across transaction boundaries, same partition
//! filter — issuing those loads one stage at a time, so the probe itself
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
use bohm_common::RecordId;
use bohm_mvstore::{HashIndex, ProbeFor, Version, VersionIndex, VersionPool};
use bohm_sync::atomic::Ordering;
use crossbeam_epoch as epoch;

/// Main loop of CC thread `me`. Exits once the ingest has closed the
/// window and every batch sealed before that has been through here.
pub(crate) fn cc_loop(inner: &Inner, me: usize) {
    // Versions this thread retired and has not re-installed yet. Strictly
    // thread-local: a chain's installer is also its truncator.
    let mut pool = VersionPool::new();
    // Round-robin cursor of this thread's key-reclamation sweep (each CC
    // thread eventually visits every bucket, reclaiming only its own keys).
    let mut sweep_cursor = 0usize;
    for batch in (0..).map_while(|id| inner.window.next_for_cc(id)) {
        let t0 = std::time::Instant::now();
        process_batch(inner, me, &batch, &mut pool);
        sweep_keys(inner, me, &mut sweep_cursor, &mut pool);
        inner
            .cc_busy_ns
            // RELAXED: monotonic statistics counter.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        inner.window.cc_done(&batch);
    }
}

/// Key reclamation: retire fully-deleted keys this thread owns.
///
/// A key is reclaimable once (a) its chain is exactly one *committed
/// tombstone* with `begin ≤ gc_bound` — every transaction that could still
/// need to observe the deletion (or anything under it) has executed — and
/// (b) `annotated_ts ≤ gc_bound` — every transaction this thread ever
/// handed a raw annotation pointer into the chain has executed too (the
/// annotation-safe lifetime rule; annotations are not epoch-protected).
/// Only the key's partition owner may judge this, because only it installs
/// into the chain: owner-run reclamation cannot race an install. Dead
/// suffixes are truncated first (into `pool`, like any other version) so a
/// deleted-then-idle key can reach its sole-tombstone shape without waiting
/// for a write probe that will never come. The entry itself — and the sole
/// tombstone inside it — is still retired through the epoch collector:
/// bucket lists are walked by every thread, which Condition 3 says nothing
/// about.
pub(crate) fn sweep_keys(inner: &Inner, me: usize, cursor: &mut usize, pool: &mut VersionPool) {
    let budget = inner.config.key_gc_buckets;
    if budget == 0 {
        return;
    }
    // No tombstone has ever been produced ⇒ no key can be in the
    // reclaimable shape: delete-free workloads skip the sweep outright.
    // RELAXED: monotone flag-counter; a stale zero only postpones the
    // sweep until the writer's next batch is visible.
    if inner.deletes_seen.load(Ordering::Relaxed) == 0 {
        return;
    }
    let bound = inner.gc_bound.load(Ordering::Acquire);
    if bound == 0 {
        return;
    }
    let m = inner.config.cc_threads;
    let guard = epoch::pin();
    let mut versions = 0usize;
    let retired = inner
        .index
        .sweep_retire(*cursor, budget, &guard, &mut |_, hash, chain| {
            if (hash >> 32) % m as u64 != me as u64 {
                return false;
            }
            // SAFETY: this thread owns the key's partition (checked above),
            // and `bound` is the Acquire-loaded Condition-3 watermark.
            versions += unsafe { pool.reclaim(chain, bound, &guard) };
            chain.annotated_ts() <= bound
                && chain.sole_tombstone(&guard).is_some_and(|b| b <= bound)
        });
    *cursor = (*cursor + budget.min(inner.index.bucket_count())) % inner.index.bucket_count();
    if versions > 0 {
        inner
            .gc_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(versions as u64, Ordering::Relaxed);
    }
    if retired > 0 {
        // Each retired key frees its sole tombstone with the entry.
        inner
            .gc_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(retired as u64, Ordering::Relaxed);
        inner
            .keys_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(retired as u64, Ordering::Relaxed);
    }
}

/// Plan entries between two look-ahead stages. With five stages the probe
/// runs 20 entries — two transactions of `micro_rmw10` — behind the first
/// hint for its record; 2 and 4 measure the same, and the stage *count* is
/// what matters (DESIGN.md, "Look-ahead").
const STAGE_DISTANCE: usize = 4;

#[cfg(test)]
thread_local! {
    /// Index probes this thread made in [`process_batch`]'s plan loop.
    pub(crate) static PROBES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Process every transaction of `batch` for partition `me`.
pub(crate) fn process_batch(inner: &Inner, me: usize, batch: &Batch, pool: &mut VersionPool) {
    let mut guard = epoch::pin();
    let m = inner.config.cc_threads;
    let mut retired = 0usize;
    // This thread's entries of the whole batch, in the order the loop below
    // meets them.
    let mine = batch
        .txns
        .iter()
        .flat_map(|t| t.plan.iter().copied())
        .filter(|e| e.partition(m) == me);
    // One look-ahead stage for an entry this thread will probe later.
    let hint = |guard: &epoch::Guard, stage, e: PlanEntry| {
        let probe = match e.write() {
            Some(_) => ProbeFor::Install,
            None => ProbeFor::Annotate,
        };
        inner.index.look_ahead(stage, e.hash, probe, guard);
    };
    let mut ahead: LookAhead<_, { HashIndex::LOOK_AHEAD_STAGES }, STAGE_DISTANCE> =
        LookAhead::start(mine, |stage, e| hint(&guard, stage, e));
    for (i, t) in batch.txns.iter().enumerate() {
        // Scans are annotated before the plan (i.e. before this
        // transaction's own placeholders install): for every key of the
        // range in this partition, the current latest version *is* the
        // version a reader at this timestamp must observe — CC threads
        // process transactions in timestamp order, so every insert ordered
        // before this transaction is already on its chain and every insert
        // ordered after is not yet. Concurrently batched inserts into the
        // range are thereby ordered, not phantoms. A key absent from the
        // index leaves its slot null: no transaction ordered before this
        // one ever created it, which the executor reads as absence (its
        // ts-filtered fallback re-probe gives the same answer).
        //
        // Like read annotation, this is an *optimization* subject to the
        // annotate_max_reads knob (an empty `scan_refs` slice marks an
        // un-annotated scan): correctness does not depend
        // on it, because the executor's fallback probe is ts-filtered and
        // all placeholders of earlier-timestamp transactions are installed
        // before this batch executes.
        for (si, s) in t.txn.scans.iter().enumerate() {
            if t.scan_refs[si].len() as u64 != s.len() {
                continue; // annotation disabled for this scan
            }
            for row in s.rows() {
                let rid = RecordId {
                    table: s.table,
                    row,
                };
                if (rid.stable_hash() >> 32) % m as u64 != me as u64 {
                    continue;
                }
                if let Some(chain) = inner.index.get(rid, &guard) {
                    // The annotation hands an unexecuted transaction a raw
                    // version pointer; record its timestamp so the key
                    // sweep never retires this chain under it.
                    chain.note_annotation(t.ts);
                    if let Some(v) = chain.latest(&guard) {
                        t.scan_refs[si][(row - s.lo) as usize]
                            .store(v as *const Version as *mut Version, Ordering::Release);
                    }
                }
            }
        }
        // The Condition-3 watermark for this transaction's installs. Acquire:
        // recycling a version rewrites memory that transactions at or below
        // the bound read, so their reads must happen-before this load (the
        // exec side publishes the bound with Release after they complete).
        let bound = inner.gc_bound.load(Ordering::Acquire);
        for e in t.plan.iter() {
            if e.partition(m) != me {
                continue;
            }
            ahead.step(|stage, e| hint(&guard, stage, e));
            #[cfg(test)]
            PROBES.with(|p| p.set(p.get() + 1));
            let (ri, wi) = (e.read(), e.write());
            // One probe. A read of a key absent from the index (a record
            // nobody has inserted yet, in timestamp order up to this txn)
            // leaves the annotation slot null on purpose: the executor
            // falls back to a ts-filtered re-probe, which reports "absent"
            // even though a placeholder — this transaction's own, for an
            // RMW, or a later one's — has appeared on the chain by then
            // (see `BohmAccess`).
            let chain = match wi {
                Some(wi) => inner
                    .index
                    .get_or_insert_hashed(t.txn.writes[wi], e.hash, &guard),
                None => {
                    let ri = ri.expect("a plan entry names a read or a write");
                    match inner.index.get_hashed(t.txn.reads[ri], e.hash, &guard) {
                        Some(chain) => chain,
                        None => continue,
                    }
                }
            };
            // An RMW resolves its read to the predecessor version before
            // its own placeholder goes on top of it.
            if let (Some(ri), Some(v)) = (ri, chain.latest(&guard)) {
                chain.note_annotation(t.ts);
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
        // Bound how long one epoch pin lives on big batches.
        if i % 512 == 511 {
            guard.repin();
        }
    }
    if retired > 0 {
        inner
            .gc_retired
            // RELAXED: monotonic statistics counter.
            .fetch_add(retired as u64, Ordering::Relaxed);
    }
}
