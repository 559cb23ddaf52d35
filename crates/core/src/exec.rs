//! The transaction-execution phase (paper §3.3).
//!
//! Execution thread `i` is *responsible* for transactions `i, i+k, i+2k, …`
//! of each batch, but any thread may execute any transaction: claiming is
//! an `Unprocessed → Executing` CAS on the transaction's state word
//! (§3.3.1). When a read resolves to a still-pending placeholder, the
//! executor recursively evaluates the producing transaction; if the
//! producer is already `Executing` on another thread, the current
//! transaction is parked back to `Unprocessed` and picked up again later —
//! the exact protocol of §3.3.1.
//!
//! After finishing its responsibilities for a batch, a thread publishes the
//! batch's last timestamp in its slot of `finished_ts` (the designated
//! thread 0 refreshes the global Condition-3 GC bound,
//! `min_i finished_ts[i]`, §3.3.2). The last thread out *retires* the
//! batch: it refreshes the GC bound (once more, unless it is thread 0 and
//! just did), publishes the batch's epoch and releases its window ring slot
//! — which unblocks a sequencer waiting on the in-flight budget and counts
//! the batch as retired for `Window::wait_retired`, the engine's one
//! barrier. Nothing at retirement is per transaction: each completion was
//! published as its transaction finished (`TxnState::complete`) — a store
//! and one `fetch_or`, plus a wake-up only for a waiter parked on that very
//! transaction.

use crate::access::BohmAccess;
use crate::batch::{txn_status, Batch, TxnState};
use crate::engine::Inner;
use crate::lookahead::LookAhead;
use bohm_common::{execute_procedure, AbortReason, ExecScratch};
use bohm_sync::atomic::Ordering;
use bohm_sync::hint::prefetch_read;
use crossbeam_epoch as epoch;
use crossbeam_utils::Backoff;

/// Main loop of execution thread `me`. Exits once the sequencer has closed
/// the window and every batch it pushed has been through here.
pub(crate) fn exec_loop(inner: &Inner, me: usize) {
    let mut scratch = ExecScratch::new();
    let mut remaining: Vec<usize> = Vec::new();
    for batch in (0..).map_while(|id| inner.window.next_for_exec(id)) {
        let t0 = std::time::Instant::now();
        run_batch(inner, me, &batch, &mut scratch, &mut remaining);
        inner
            .exec_busy_ns
            // RELAXED: monotonic statistics counter.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        inner.finished_ts[me].store(batch.last_ts(), Ordering::Release);
        let last_out = batch.exec_pending.fetch_sub(1, Ordering::AcqRel) == 1;
        // Thread 0 refreshes per batch (§3.3.2); the last thread out does
        // because every thread's `finished_ts` store happened before its
        // countdown decrement, so its refresh observes them all — slot
        // release and GC-bound advance travel together. When they are the
        // same thread (always, with one execution thread), once is enough.
        if me == 0 || last_out {
            refresh_gc_bound(inner);
        }
        if last_out {
            // Publish the epoch high-water mark before releasing the ring
            // slot: a waiter unblocked by retirement must observe it.
            inner.retired_epoch.fetch_max(batch.epoch, Ordering::AcqRel);
            inner.window.retire(batch.id);
        }
    }
}

/// Recompute the global low watermark (paper §3.3.2: execution thread t0
/// periodically sets `lowwatermark = min(batch_i)`).
pub(crate) fn refresh_gc_bound(inner: &Inner) {
    let min = inner
        .finished_ts
        .iter()
        .map(|a| a.load(Ordering::Acquire))
        .min()
        .unwrap_or(0);
    inner.gc_bound.store(min, Ordering::Release);
}

/// Recursion budget for resolving read dependencies on this thread's stack
/// before the transaction is parked back to `Unprocessed` instead (another
/// round of `run_batch` retries it). Guards against a deep same-key RMW
/// chain in a huge batch overflowing the stack; 64 is far above anything
/// the paper's workloads produce per batch, and nothing ever set it to
/// anything else while it was a `BohmConfig` field.
const MAX_RESOLVE_DEPTH: usize = 64;

/// Transactions between the execution look-ahead's two stages (header,
/// then payload); 1, 2 and 4 measure the same (DESIGN.md, "Look-ahead").
const STAGE_DISTANCE: usize = 2;

/// One look-ahead stage for a transaction of the batch this thread is
/// executing: (0) the header of every version its annotated reads and its
/// writes resolved to, (1) their payloads. "Reads perform no book-keeping"
/// (§3.2.3) — the CC phase already wrote down where each one lives.
///
/// Stage 0 uses the annotation as an address only. Stage 1 follows it to
/// find the payload, which is sound for the same reason the transaction's
/// own reads and writes are: a version annotated for (or installed by) a
/// transaction of this batch ends at or above that transaction's
/// timestamp, and the Condition-3 bound stays below the whole batch until
/// this very thread has finished it — whether or not the transaction
/// itself has already run.
fn hint_txn(stage: usize, t: &TxnState) {
    for slot in t.read_refs.iter().chain(t.write_refs.iter()) {
        let v = slot.load(Ordering::Acquire);
        if stage == 0 {
            prefetch_read(v);
            continue;
        }
        // SAFETY: liveness per the Condition-3 argument above.
        if let Some(v) = unsafe { v.as_ref() } {
            v.prefetch_payload();
        }
    }
}

/// Drive every transaction this thread is responsible for to `Complete`.
/// `remaining` is caller-owned scratch (reused across batches, alloc-free
/// once warmed).
pub(crate) fn run_batch(
    inner: &Inner,
    me: usize,
    batch: &Batch,
    scratch: &mut ExecScratch,
    remaining: &mut Vec<usize>,
) {
    let k = inner.config.exec_threads;
    let mine = || (me..batch.txns.len()).step_by(k);
    remaining.clear();
    remaining.extend(mine());
    // The first round visits this thread's transactions in timestamp order,
    // behind a look-ahead over the annotations of the ones coming up (later
    // rounds find it drained: a step is then a few empty-slot checks).
    let hint = |stage, i: usize| hint_txn(stage, &batch.txns[i]);
    let mut ahead: LookAhead<_, 2, STAGE_DISTANCE> = LookAhead::start(mine(), hint);
    let backoff = Backoff::new();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&i| {
            ahead.step(hint);
            let t = &batch.txns[i];
            match t.status() {
                txn_status::COMPLETE => false,
                txn_status::EXECUTING => true, // someone else is on it
                _ => {
                    if t.try_claim() {
                        !run_claimed(inner, t, scratch, 0)
                    } else {
                        true
                    }
                }
            }
        });
        if remaining.len() == before && !remaining.is_empty() {
            // No progress this round: transactions are blocked on producers
            // executing elsewhere. Back off briefly.
            backoff.snooze();
        }
    }
}

/// Evaluate a transaction this thread has claimed (state = `Executing`).
///
/// Returns `true` if the transaction reached `Complete`; `false` if it was
/// parked back to `Unprocessed` because a dependency is executing on
/// another thread.
pub(crate) fn run_claimed(
    inner: &Inner,
    t: &TxnState,
    scratch: &mut ExecScratch,
    depth: usize,
) -> bool {
    t.txn.think();
    loop {
        let guard = epoch::pin();
        let mut access = BohmAccess {
            t,
            index: &inner.index,
            guard: &guard,
            deletes: &inner.deletes_seen,
            ahead: None,
        };
        let result = execute_procedure(
            &t.txn.proc,
            &t.txn.reads,
            &t.txn.writes,
            &t.txn.scans,
            &mut access,
            scratch,
        );
        match result {
            Ok(fp) => {
                debug_assert!(all_writes_resolved(t), "procedure must fill every write");
                t.complete(true, fp);
                return true;
            }
            Err(AbortReason::User) => {
                // Logic abort: the transaction's versions carry the data of
                // their predecessors (paper §3.3.1, "write dependencies").
                match copy_through(inner, t, &guard) {
                    Ok(()) => {
                        t.complete(false, 0);
                        return true;
                    }
                    Err(dep_ts) => {
                        if !resolve_dependency(inner, dep_ts, scratch, depth) {
                            t.park();
                            return false;
                        }
                    }
                }
            }
            Err(AbortReason::NotReady(dep_ts)) => {
                if !resolve_dependency(inner, dep_ts, scratch, depth) {
                    t.park();
                    return false;
                }
                // Dependency resolved: re-run the procedure. Writes already
                // made are replayed idempotently (`fill_once`).
            }
            Err(AbortReason::Conflict) => {
                unreachable!("BOHM never aborts transactions for concurrency control")
            }
        }
    }
}

/// Ensure the transaction at `dep_ts` has executed.
///
/// Returns `true` once the producer is `Complete` (possibly by executing it
/// on this thread, recursively); `false` if it is being executed elsewhere
/// or the recursion budget is exhausted — in both cases the caller parks.
fn resolve_dependency(inner: &Inner, dep_ts: u64, scratch: &mut ExecScratch, depth: usize) -> bool {
    if depth >= MAX_RESOLVE_DEPTH {
        return false;
    }
    loop {
        // Absent from the window ⇒ the batch fully completed ⇒ resolved.
        let Some(dep_batch) = inner.window.lookup(dep_ts) else {
            return true;
        };
        let dep = dep_batch.txn_at(dep_ts);
        match dep.status() {
            txn_status::COMPLETE => return true,
            txn_status::EXECUTING => {
                // The producer is actively running on another thread and
                // will finish in microseconds; briefly wait for it instead
                // of parking and re-running our whole procedure ("writes can
                // block reads", §3.1). If it parks itself (its own
                // dependency was busy), we observe Unprocessed and claim it;
                // if it is descheduled for long, give up and park.
                let backoff = Backoff::new();
                loop {
                    match dep.status() {
                        txn_status::COMPLETE => return true,
                        txn_status::EXECUTING => {
                            if backoff.is_completed() {
                                return false;
                            }
                            backoff.snooze();
                        }
                        _ => break, // parked: fall through to claim
                    }
                }
            }
            _ => {
                if dep.try_claim() {
                    return run_claimed(inner, dep, scratch, depth + 1);
                }
                // Lost the claim race; observe the new state and decide.
            }
        }
    }
}

/// On a logic abort, fill each still-pending placeholder with its
/// predecessor's data so later readers observe the pre-transaction state
/// (paper §3.3.1). Fails with the producer timestamp if a predecessor is
/// itself unresolved. Tombstone fills arm the key sweep's
/// `deletes_seen` gate like committed deletes do (an aborted fresh insert
/// leaves a reclaimable sole-tombstone chain behind).
fn copy_through(inner: &Inner, t: &TxnState, guard: &epoch::Guard) -> Result<(), u64> {
    for wi in 0..t.txn.writes.len() {
        let ptr = t.write_refs[wi].load(Ordering::Acquire);
        debug_assert!(!ptr.is_null());
        // SAFETY: placeholder liveness per Condition 3 (see crate docs).
        let v = unsafe { &*ptr };
        if v.is_resolved() {
            // The logic-abort contract says aborts precede writes, so a
            // resolved version here can only come from an earlier attempt's
            // copy-through replay.
            continue;
        }
        match v.prev(guard) {
            None => {
                // Aborted insert of a fresh record: publish a tombstone so
                // readers see continued absence.
                v.fill_tombstone();
                // RELAXED: monotone hint that unlocks the key sweep; a
                // stale zero there only delays GC.
                inner.deletes_seen.fetch_add(1, Ordering::Relaxed);
            }
            Some(prev) => {
                if !prev.is_resolved() {
                    return Err(prev.begin());
                }
                match prev.state() {
                    bohm_mvstore::VersionState::Tombstone => {
                        v.fill_tombstone();
                        // RELAXED: monotone sweep hint, as above.
                        inner.deletes_seen.fetch_add(1, Ordering::Relaxed);
                    }
                    _ => {
                        v.fill_once(prev.data());
                    }
                }
            }
        }
    }
    Ok(())
}

fn all_writes_resolved(t: &TxnState) -> bool {
    t.write_refs.iter().all(|p| {
        let ptr = p.load(Ordering::Acquire);
        // SAFETY: as in copy_through.
        !ptr.is_null() && unsafe { &*ptr }.is_resolved()
    })
}
