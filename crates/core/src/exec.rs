//! The transaction-execution phase (paper §3.3), and the read lane.
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
//! # The read lane
//!
//! "Reads never block writes" has to hold for *long* reads too. A
//! **detached reader** — a transaction with no writes whose read set is too
//! large to annotate (`BohmConfig::annotate_max_reads`; the paper's
//! 10,000-read transactions) — already bypasses the CC phase: its reads go
//! through `Chain::visible(ts)`. It is still sequenced, timestamped, logged
//! and replayed like any transaction, but nobody is *responsible* for it:
//!
//! * The lane thread, `bohm-exec-ro`, chases the window ring like the
//!   execution threads do (`Window::next_for_lane`), but stops only at the
//!   batches that have readers: it waits for that batch's CC phase, and
//!   claims and runs its readers from the front. A batch without readers is
//!   skipped, and never counts the lane in.
//! * An execution thread that has finished its own transactions of a batch
//!   claims what is left of the batch's readers from the far end, so the
//!   readers split over both kinds of thread by whoever is free.
//! * A reader that meets a pending version has the producer resolved *in
//!   place* (`InPlace`) instead of aborting with `NotReady`: re-running a
//!   10,000-read procedure from the top per dependency is the cost a writer
//!   never has (its procedure is short, and its writes must replay anyway).
//!
//! A reader's snapshot needs no registry: its own batch cannot retire while
//! it runs, and the Condition-3 bound never passes an un-retired batch. How
//! far the lane may lag the execution threads is the window's capacity
//! (`max_inflight_batches`).
//!
//! # Counting out and retirement
//!
//! Every thread with work in a batch — each execution thread, and the lane
//! iff the batch has readers — counts itself out of `Batch::exec_pending`
//! when it is through. Whoever counts a batch to zero runs the window's
//! retirement cursor (`Window::finish`), which retires every consecutive
//! counted-out batch in id order and, per retired batch, stores the
//! Condition-3 bound (`gc_bound` = its last timestamp, §3.3.2's low
//! watermark) and takes the batch out of its ring slot — which unblocks a
//! sealer waiting on the in-flight budget and counts the batch as retired
//! for `Window::wait_retired`, the engine's one barrier. The slot owned the
//! batch, so the retiring thread drops that reference itself, right there.
//! A retired batch has no unfinished transaction. Nothing at retirement is per
//! transaction: each outcome was decided into the batch's outcome block as
//! its transaction finished (`Batch::complete`) — a store and one
//! `fetch_or`, plus a wake-up only if a waiter is parked on that very slot.
//! Replay reads a retired batch's outcomes off the same block.

use crate::access::BohmAccess;
use crate::batch::{txn_status, Batch, TxnState};
use crate::engine::Inner;
use crate::lookahead::LookAhead;
use bohm_common::{execute_procedure, AbortReason, ExecScratch};
use bohm_mvstore::Version;
use bohm_sync::atomic::Ordering;
use bohm_sync::hint::prefetch_read;
use bohm_sync::Backoff;
use crossbeam_epoch as epoch;

/// Main loop of execution thread `me`. Exits once the ingest has closed
/// the window and every batch sealed before that has been through here.
pub(crate) fn exec_loop(inner: &Inner, me: usize) {
    let mut scratch = [ExecScratch::new(), ExecScratch::new()];
    let mut remaining: Vec<usize> = Vec::new();
    for batch in (0..).map_while(|id| inner.window.next_for_exec(id)) {
        let t0 = std::time::Instant::now();
        run_batch(inner, me, &batch, &mut scratch, &mut remaining);
        // Own transactions done: take what is left of the batch's readers,
        // from the end the lane is not working on (unless a test leaves
        // every reader to the lane).
        #[cfg(test)]
        let steal = !inner.lane_takes_every_reader.load(Ordering::Acquire);
        #[cfg(not(test))]
        let steal = true;
        if steal {
            run_readers(inner, &batch, batch.readers.iter().rev(), &mut scratch);
        }
        inner
            .exec_busy_ns
            // RELAXED: monotonic statistics counter.
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        count_out(inner, &batch);
    }
}

/// Main loop of the read lane (`bohm-exec-ro`): for every batch that has
/// detached readers, in id order, run the readers nobody has claimed yet.
/// Exits once the ingest has closed the window and the lane has passed
/// every batch sealed before that.
pub(crate) fn lane_loop(inner: &Inner) {
    let mut scratch = [ExecScratch::new(), ExecScratch::new()];
    let batches = (0..).map_while(|id| inner.window.next_for_lane(id));
    // A batch with readers cannot retire before this thread counts out of
    // it, so it is still in its slot when the chase reaches it.
    for batch in batches.flatten() {
        let _claimed = run_readers(inner, &batch, batch.readers.iter(), &mut scratch);
        #[cfg(test)]
        inner.lane_claims.fetch_add(_claimed, Ordering::SeqCst);
        count_out(inner, &batch);
    }
}

/// One thread is through with `batch`. The last one out runs the window's
/// retirement cursor, which publishes — per retired batch, in id order,
/// under the ring mutex — the Condition-3 bound (§3.3.2's low watermark:
/// the last timestamp of the newest batch every thread has left, monotone
/// by construction) before the slot release a waiter is woken by.
fn count_out(inner: &Inner, batch: &Batch) {
    if batch.exec_pending.fetch_sub(1, Ordering::AcqRel) == 1 {
        inner
            .window
            .finish(|b| inner.gc_bound.store(b.last_ts(), Ordering::Release));
    }
}

/// Claim and run the detached readers of `batch` at `positions` that nobody
/// has claimed yet; returns how many this thread claimed. A claimed reader
/// always runs to `Complete` (it resolves its dependencies in place), so
/// when the threads of a batch have all come through here and counted out,
/// none of its readers is unfinished.
fn run_readers<'a>(
    inner: &Inner,
    batch: &Batch,
    positions: impl Iterator<Item = &'a u32>,
    scratch: &mut [ExecScratch],
) -> usize {
    let mut claimed = 0;
    for &i in positions {
        let t = &batch.txns[i as usize];
        if t.try_claim() {
            claimed += 1;
            let done = run_claimed(inner, batch, t, scratch, 0);
            debug_assert!(done, "a detached reader never parks");
        }
    }
    claimed
}

/// How a detached reader gets a pending version produced: evaluate the
/// producer on this thread, with a scratch of its own, in the middle of the
/// reader's procedure.
pub(crate) struct InPlace<'a> {
    pub inner: &'a Inner,
    /// Scratch for the producer (the reader's own is in use).
    pub scratch: &'a mut [ExecScratch],
}

impl InPlace<'_> {
    /// Return once `v` is resolved: run its producer here, or — while it is
    /// `Executing` on another thread, or deeper down a dependency chain
    /// than one stack should go — wait for the threads responsible for it.
    /// Nothing ever waits for a reader, and a writer never holds `Executing`
    /// while it waits (it parks), so this wait cannot be part of a cycle.
    pub fn resolve(&mut self, v: &Version) {
        let backoff = Backoff::new();
        while !v.is_resolved() {
            if !resolve_dependency(self.inner, v.begin(), self.scratch, 0) {
                backoff.snooze();
            }
        }
    }
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
    scratch: &mut [ExecScratch],
    remaining: &mut Vec<usize>,
) {
    let k = inner.config.exec_threads;
    // Detached readers are nobody's responsibility (see `run_readers`).
    let has_readers = !batch.readers.is_empty();
    let mine = || {
        let all = (me..batch.txns.len()).step_by(k);
        all.filter(move |&i| !(has_readers && batch.txns[i].is_detached()))
    };
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
                        !run_claimed(inner, batch, t, scratch, 0)
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

/// Evaluate a transaction of `batch` this thread has claimed (state =
/// `Executing`), and decide it into the batch's outcome block.
///
/// Returns `true` if the transaction reached `Complete`; `false` if it was
/// parked back to `Unprocessed` because a dependency is executing on
/// another thread.
pub(crate) fn run_claimed(
    inner: &Inner,
    batch: &Batch,
    t: &TxnState,
    scratch: &mut [ExecScratch],
    depth: usize,
) -> bool {
    t.txn.think();
    loop {
        let guard = epoch::pin();
        // The procedure runs in the first scratch; a detached reader lends
        // the rest to the producers it resolves in place.
        let (own, rest) = scratch
            .split_first_mut()
            .expect("a scratch per nesting level");
        let mut access = BohmAccess {
            t,
            store: &inner.store,
            guard: &guard,
            ahead: None,
            in_place: (t.is_detached()).then_some(InPlace {
                inner,
                scratch: rest,
            }),
        };
        let result = execute_procedure(&t.txn, &mut access, own);
        match result {
            Ok(fp) => {
                debug_assert!(all_writes_resolved(t), "procedure must fill every write");
                batch.complete(t, true, fp);
                return true;
            }
            Err(AbortReason::User) => {
                // Logic abort: the transaction's versions carry the data of
                // their predecessors (paper §3.3.1, "write dependencies").
                match copy_through(t, &guard) {
                    Ok(()) => {
                        batch.complete(t, false, 0);
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
fn resolve_dependency(
    inner: &Inner,
    dep_ts: u64,
    scratch: &mut [ExecScratch],
    depth: usize,
) -> bool {
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
                    return run_claimed(inner, &dep_batch, dep, scratch, depth + 1);
                }
                // Lost the claim race; observe the new state and decide.
            }
        }
    }
}

/// On a logic abort, fill each still-pending placeholder with its
/// predecessor's data so later readers observe the pre-transaction state
/// (paper §3.3.1). Fails with the producer timestamp if a predecessor is
/// itself unresolved.
fn copy_through(t: &TxnState, guard: &epoch::Guard) -> Result<(), u64> {
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
            }
            Some(prev) => {
                if !prev.is_resolved() {
                    return Err(prev.begin());
                }
                match prev.state() {
                    bohm_mvstore::VersionState::Tombstone => v.fill_tombstone(),
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
