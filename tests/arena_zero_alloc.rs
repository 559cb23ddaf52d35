//! Steady-state allocation audit of the BOHM pipeline, on the path traffic
//! takes: one session, one `submit` per transaction.
//!
//! The arena refactor's core claim is that once the pipeline is warm —
//! chunk pool populated, the ingest queue at capacity, epoch bags
//! allocated — a read-only workload runs **allocation-free** per
//! transaction *inside the engine*: read/write sets, CC plans and
//! placeholder-pointer buffers all live in recycled batch arenas, and
//! execution reuses per-thread scratch. This test installs a counting
//! global allocator, warms the engine, then measures a window of `N`
//! read-only transactions and splits the count by thread:
//!
//! * **every thread but the submitting one** (sequencer, CC, execution)
//!   stays at the *per-batch epsilon* (a `TxnState` slice and an
//!   `Arc<Batch>` per sealed batch, an occasional recycled-chunk `Arc`)
//!   instead of scaling with per-transaction work — the budget is
//!   `N/8 + 128` calls, two orders of magnitude below the pre-arena cost
//!   of several allocations per transaction;
//! * **the submitting thread** makes exactly the one allocation the API
//!   implies — the transaction's `Arc<Completion>` — so it is held to
//!   `N` plus the same epsilon.
//!
//! The RMW twin makes the same claim for the write path: placeholders come
//! out of the CC thread's `VersionPool` (every install first retires the
//! version its predecessor superseded), so after warm-up `N` ten-RMW
//! transactions — `10·N` installs, formerly two allocator calls each —
//! stay within the *same* two budgets.
//!
//! The detached twin widens the read-only transactions past
//! `annotate_max_reads`, so every one of them goes through the read lane:
//! what the lane adds is per *batch* (the reader positions, one queue push),
//! never per transaction, and the budgets do not move.
//!
//! Kept in its own test binary so concurrent tests cannot pollute the
//! measurement window (the two audits in here take turns under a lock).
//! Scaled by `BOHM_STRESS_ITERS` like the other stress suites.

use bohm_common::engine::{BatchEngine, Session};
use bohm_common::{Procedure, RecordId, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROWS: u64 = 1024;
const READS_PER_TXN: usize = 10;
const BATCH: usize = 256;

/// Pre-build the transactions so their *construction* (client-side `Vec`s,
/// by design) stays outside the measured window. `rmw` turns every
/// transaction's ten reads into ten read-modify-writes (distinct keys, as a
/// write set requires).
fn build_txns(n_txns: usize, seed: u64, rmw: bool, reads: usize) -> Vec<Txn> {
    let mut x = seed | 1;
    let mut rid = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        RecordId::new(0, x % ROWS)
    };
    (0..n_txns)
        .map(|_| {
            let mut keys: Vec<RecordId> = Vec::with_capacity(reads);
            while keys.len() < reads {
                let k = rid();
                if !rmw || !keys.contains(&k) {
                    keys.push(k);
                }
            }
            if rmw {
                Txn::new(keys.clone(), keys, Procedure::ReadModifyWrite { delta: 1 })
            } else {
                Txn::new(keys, vec![], Procedure::ReadOnly)
            }
        })
        .collect()
}

/// The allocation counters are process-wide: one audit at a time.
static ONE_AT_A_TIME: bohm_sync::Mutex<()> = bohm_sync::Mutex::new(());

/// Allocator calls over one measured window, by who made them.
struct Window {
    submitter: u64,
    pipeline: u64,
}

/// Warm the engine, then count allocator calls over a window of `n`
/// transactions submitted one by one through a session, as a closed loop
/// one batch deep — a fixed depth, so the warm-up reaches the same version
/// pool and arena high-water marks the window will need.
fn steady_state_allocations(n: usize, rmw: bool, reads: usize) -> Window {
    let _turn = ONE_AT_A_TIME.lock();
    let cfg = BohmConfig {
        batch_size: BATCH,
        // Size-triggered seals only (but for the window's last batch), so
        // the per-batch epsilon does not depend on how this thread is
        // scheduled against the sequencer.
        batch_linger: std::time::Duration::from_millis(20),
        ..BohmConfig::with_threads(1, 1)
    };
    let engine = Bohm::start(cfg, CatalogSpec::new().table(ROWS, 8, |r| r));
    let mut session = engine.open_session();
    let mut run = |txns: Vec<Txn>| {
        for t in txns {
            // (The trait method: the inherent `submit` hands the handle
            // back instead of queueing it for `reap`.)
            Session::submit(&mut session, t);
            while session.in_flight() >= BATCH {
                assert!(session.reap().committed);
            }
        }
        while session.in_flight() > 0 {
            assert!(session.reap().committed);
        }
    };

    // Warmup: fills the arena chunk pool, the ingest queue's capacity, epoch
    // thread-locals, the exec threads' scratch buffers and (RMW) the CC
    // thread's version pool.
    run(build_txns(n.min(2048), 7, rmw, reads));

    let txns = build_txns(n, 99, rmw, reads);
    let before = (
        CountingAlloc::allocations(),
        CountingAlloc::marked_allocations(),
    );
    CountingAlloc::mark_this_thread(true);
    run(txns);
    CountingAlloc::mark_this_thread(false);
    let submitter = CountingAlloc::marked_allocations() - before.1;
    let pipeline = CountingAlloc::allocations() - before.0 - submitter;
    engine.shutdown();
    Window {
        submitter,
        pipeline,
    }
}

/// Hold a window of `n` transactions to the two budgets (module docs).
fn audit(n: usize, w: &Window, what: &str, regression: &str) {
    let epsilon = (n as u64) / 8 + 128;
    eprintln!(
        "steady-state window: {n} {what}, {} pipeline-side allocations (budget {epsilon}), \
         {} on the submitting thread (budget {})",
        w.pipeline,
        w.submitter,
        n as u64 + epsilon
    );
    assert!(
        w.pipeline <= epsilon,
        "steady-state window of {n} {what} made {} allocations off the \
         submitting thread (budget {epsilon}): {regression}",
        w.pipeline
    );
    assert!(
        w.submitter <= n as u64 + epsilon,
        "submitting {n} {what} made {} allocations on the session thread \
         (budget {}): more than the one completion per transaction",
        w.submitter,
        n as u64 + epsilon
    );
}

#[test]
fn bohm_read_only_steady_state_allocates_nothing_per_txn() {
    let n = bohm_common::stress_iters(4_096) as usize;
    audit(
        n,
        &steady_state_allocations(n, false, READS_PER_TXN),
        "read-only txns",
        "a per-transaction allocation crept back into the hot path",
    );
}

#[test]
fn bohm_detached_readers_steady_state_allocates_nothing_per_txn() {
    let n = bohm_common::stress_iters(4_096) as usize;
    audit(
        n,
        &steady_state_allocations(n, false, 65),
        "detached 65-read txns",
        "the read lane allocates per transaction, not per batch",
    );
}

#[test]
fn bohm_rmw_steady_state_recycles_versions_instead_of_allocating() {
    let n = bohm_common::stress_iters(4_096) as usize;
    audit(
        n,
        &steady_state_allocations(n, true, READS_PER_TXN),
        "10-RMW txns",
        "placeholders are reaching the allocator again instead of the CC \
         thread's version pool",
    );
}
