//! Steady-state allocation audit of the BOHM pipeline, on the path traffic
//! takes: one session, one `submit` per transaction.
//!
//! The arena refactor's core claim is that once the pipeline is warm —
//! chunk pool populated, the open batch's buffer grown, epoch bags
//! allocated — a read-only workload runs **allocation-free** per
//! transaction *inside the engine*: read/write sets, CC plans and
//! placeholder-pointer buffers all live in recycled batch arenas, and
//! execution reuses per-thread scratch. This test installs a counting
//! global allocator, warms the engine, then measures a window of `N`
//! read-only transactions and splits the count by thread:
//!
//! * **the submitting thread** makes no allocation per transaction — its
//!   handle shares the outcome block of the batch it joined — only, since
//!   it also seals the batches it fills, the *per-batch epsilon* of
//!   sealing (a `TxnState` slice and an `Arc<Batch>` per batch, the next
//!   batch's outcome block, the readers' positions when there are any, an
//!   `Arc` per arena chunk): it is held to `N/8 + 128` calls;
//! * **every other thread** (CC, execution, the read lane) stays near zero
//!   instead of scaling with per-transaction work — the budget is
//!   `N/64 + 128` calls.
//!
//! Measured on one 4096-transaction window (read-only / detached / RMW):
//! the submitting thread makes 114 / 306 / 148 calls for sealing 16
//! batches, and the other threads 17 / 18 / 61. With a completion word
//! of its own (one heap `Arc`) per submitted transaction, the submitting
//! thread made 4178 / 4370 / 4208–4210, which the submitter budget fails. With a
//! sequencer thread the split was 4096 and 220 / 405 / 376: the same
//! sealing work on another thread, plus the open batch's buffer regrown
//! from empty for every batch.
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
//! The scan twin runs TPC-C-lite `OrderHistory` transactions (one point
//! read, then an 8-row range scan): a scan owns no per-transaction state
//! beyond its declared range, which the arena holds like any other set.
//! It measures 78 calls on the submitting thread per 4096 transactions
//! (4140 with a completion per transaction); when the CC phase still
//! pre-annotated scan ranges, each scanning transaction also boxed its
//! per-scan slot list at seal time, and the same window made 8240.
//!
//! The Hekaton audit makes the same claim for the baseline's write path:
//! two workers run ten-RMW transactions, and their versions (payload
//! buffers included) and transaction objects come back from the workers'
//! pools once the active-transaction registry's watermark passes their
//! stamps. The window is held to `N/8 + 128` calls. Before that recycling,
//! each transaction made about 30: a version and a payload per write, a
//! transaction object and a boxed closure for its deferred free, and a
//! boxed closure per pruned version. The two workers take turns on one
//! thread, one transaction each: each still prunes what the other wrote
//! and spills into the shared spare lists, but neither can be descheduled
//! in mid-transaction. On two threads, such a stall (preemption, or a
//! hypervisor stealing the CPU) held back the other worker's reclamation
//! for as long, and one 50 000-transaction run that met one made 38 121
//! calls against 1–341 in the others.
//!
//! Kept in its own test binary so concurrent tests cannot pollute the
//! measurement window (the audits in here take turns under a lock).
//! Scaled by `BOHM_STRESS_ITERS` like the other stress suites.

use bohm_common::engine::{BatchEngine, Engine, Session};
use bohm_common::{LoggedBatch, Procedure, RecordId, ScanRange, TpcCProc, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::hekaton::{Hekaton, HekatonStore};
use bohm_suite::testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROWS: u64 = 1024;
const READS_PER_TXN: usize = 10;
const BATCH: usize = 256;

/// What every transaction of an audited stream does.
#[derive(Clone, Copy)]
enum Shape {
    /// That many point reads.
    Reads(usize),
    /// Ten read-modify-writes (distinct keys, as a write set requires).
    Rmw,
    /// `OrderHistory`: one point read, then a scan of 8 rows.
    Scan,
}

/// Pre-build the transactions so their *construction* (client-side `Vec`s,
/// by design) stays outside the measured window.
fn build_txns(n_txns: usize, seed: u64, shape: Shape) -> Vec<Txn> {
    let mut x = seed | 1;
    let mut rid = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        RecordId::new(0, x % ROWS)
    };
    let (reads, rmw) = match shape {
        Shape::Reads(n) => (n, false),
        Shape::Rmw => (READS_PER_TXN, true),
        Shape::Scan => (1, false),
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
            match shape {
                Shape::Reads(_) => Txn::new(keys, vec![], Procedure::ReadOnly),
                Shape::Rmw => Txn::new(keys.clone(), keys, Procedure::ReadModifyWrite { delta: 1 }),
                Shape::Scan => {
                    let lo = rid().row.min(ROWS - 8);
                    let window = ScanRange::new(0, lo, lo + 8);
                    let proc = Procedure::TpcC(TpcCProc::OrderHistory);
                    Txn::with_scans(keys, vec![], vec![window], proc)
                }
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
fn steady_state_allocations(n: usize, shape: Shape) -> Window {
    let _turn = ONE_AT_A_TIME.lock();
    // Seals are size-triggered but for a few: a reap that waits on a
    // transaction of the open batch seals it once nothing is in flight. A
    // reap waits there only while the front is unfinished and the handle
    // `len / 4` into the full queue is in the open batch, which then holds
    // three quarters of a batch; so such a seal follows at least
    // `3 * BATCH / 4` submissions, and the window's last batch is one more:
    // at most 4/3 as many seals as by size alone, each within the per-batch
    // epsilon the submitter's budget allows.
    let cfg = BohmConfig {
        batch_size: BATCH,
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

    // Warmup: fills the arena chunk pool, the open batch's buffer, epoch
    // thread-locals, the exec threads' scratch buffers and (RMW) the CC
    // thread's version pool.
    run(build_txns(n.min(2048), 7, shape));

    let txns = build_txns(n, 99, shape);
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
    let n = n as u64;
    let (pipeline, submitter) = (n / 64 + 128, n / 8 + 128);
    eprintln!(
        "steady-state window: {n} {what}, {} pipeline-side allocations (budget {pipeline}), \
         {} on the submitting thread (budget {submitter})",
        w.pipeline, w.submitter,
    );
    assert!(
        w.pipeline <= pipeline,
        "steady-state window of {n} {what} made {} allocations off the \
         submitting thread (budget {pipeline}): {regression}",
        w.pipeline
    );
    assert!(
        w.submitter <= submitter,
        "submitting {n} {what} made {} allocations on the session thread \
         (budget {submitter}): a per-transaction allocation on the submit path, \
         beyond sealing's per-batch epsilon",
        w.submitter
    );
}

#[test]
fn bohm_read_only_steady_state_allocates_nothing_per_txn() {
    let n = bohm_common::stress_iters(4_096) as usize;
    audit(
        n,
        &steady_state_allocations(n, Shape::Reads(READS_PER_TXN)),
        "read-only txns",
        "a per-transaction allocation crept back into the hot path",
    );
}

#[test]
fn bohm_detached_readers_steady_state_allocates_nothing_per_txn() {
    let n = bohm_common::stress_iters(4_096) as usize;
    audit(
        n,
        &steady_state_allocations(n, Shape::Reads(65)),
        "detached 65-read txns",
        "the read lane allocates per transaction, not per batch",
    );
}

#[test]
fn bohm_rmw_steady_state_recycles_versions_instead_of_allocating() {
    let n = bohm_common::stress_iters(4_096) as usize;
    audit(
        n,
        &steady_state_allocations(n, Shape::Rmw),
        "10-RMW txns",
        "placeholders are reaching the allocator again instead of the CC \
         thread's version pool",
    );
}

#[test]
fn bohm_scans_steady_state_allocate_nothing_per_txn() {
    let n = bohm_common::stress_iters(4_096) as usize;
    audit(
        n,
        &steady_state_allocations(n, Shape::Scan),
        "8-row OrderHistory scans",
        "a scanning transaction allocates per transaction",
    );
}

/// Logged batches in a replay audit.
const REPLAYED_BATCHES: usize = 64;

/// A log as recovery hands it to replay, already read: `REPLAYED_BATCHES`
/// records of `BATCH` transactions each.
fn logged(seed: u64, shape: Shape) -> Vec<LoggedBatch> {
    (0..REPLAYED_BATCHES as u64)
        .map(|i| LoggedBatch {
            epoch: 0,
            txns: build_txns(BATCH, seed + i, shape),
            outcomes: None,
        })
        .collect()
}

/// Replay, BOHM's way: a logged batch is sealed as one batch, its
/// transactions need no handle or reap, and their outcomes are read off the
/// retired batch's outcome block. Replaying an already-read log of
/// `REPLAYED_BATCHES` batches, on every thread, stays within 16 allocator
/// calls per batch (a batch, its transaction states and outcome block,
/// arena chunks, the outcome vector's growth). The per-transaction default,
/// `replay_into`, submits the same shape of log through a session on the
/// same engine: a submission allocates nothing of its own either (its
/// handle shares its batch's block), so that path is held to the same
/// per-batch budget.
#[test]
fn bohm_replay_allocates_per_batch_not_per_txn() {
    let _turn = ONE_AT_A_TIME.lock();
    let cfg = BohmConfig {
        batch_size: BATCH,
        ..BohmConfig::with_threads(1, 1)
    };
    let engine = Bohm::start(cfg, CatalogSpec::new().table(ROWS, 8, |r| r));
    let shape = Shape::Reads(READS_PER_TXN);
    // Warm-up: arena chunks, epoch bags, the execution thread's scratch.
    assert!(engine
        .replay(logged(7, shape))
        .unwrap()
        .iter()
        .all(|o| o.committed));
    let log = logged(99, shape);
    let before = CountingAlloc::allocations();
    let outcomes = engine.replay(log).unwrap();
    let batched = CountingAlloc::allocations() - before;
    assert_eq!(outcomes.len(), REPLAYED_BATCHES * BATCH);
    assert!(outcomes.iter().all(|o| o.committed));
    let log = logged(123, shape);
    let before = CountingAlloc::allocations();
    let outcomes = bohm_common::wal::replay_into(log, &engine).unwrap();
    let sessions = CountingAlloc::allocations() - before;
    assert_eq!(outcomes.len(), REPLAYED_BATCHES * BATCH);
    engine.shutdown();
    let budget = REPLAYED_BATCHES as u64 * 16;
    eprintln!(
        "replaying {REPLAYED_BATCHES} batches of {BATCH}: {batched} allocations in batches \
         (budget {budget}), {sessions} through a session"
    );
    assert!(
        batched <= budget,
        "replaying {REPLAYED_BATCHES} batches of {BATCH} read-only transactions made {batched} \
         allocator calls (budget {budget}): replay allocates per transaction again"
    );
    assert!(
        sessions <= budget,
        "replaying {REPLAYED_BATCHES} batches of {BATCH} read-only transactions through a \
         session made {sessions} allocator calls (budget {budget}): a submission allocates \
         per transaction again"
    );
}

/// A replay longer than the window ring waits in `Window::push` for room,
/// holding the open batch's mutex, as a sealing session does; with two
/// slots, every batch after the second goes through that wait.
#[test]
fn bohm_replay_through_a_two_batch_ring_completes() {
    let _turn = ONE_AT_A_TIME.lock();
    let cfg = BohmConfig {
        batch_size: BATCH,
        max_inflight_batches: 2,
        ..BohmConfig::with_threads(1, 1)
    };
    let engine = Bohm::start(cfg, CatalogSpec::new().table(ROWS, 8, |_| 0));
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|s| {
        s.spawn(|| tx.send(engine.replay(logged(5, Shape::Rmw)).unwrap()));
        let limit = std::time::Duration::from_secs(60);
        let outcomes = rx
            .recv_timeout(limit)
            .unwrap_or_else(|_| panic!("a replay through a two-slot ring hung for {limit:?}"));
        assert_eq!(outcomes.len(), REPLAYED_BATCHES * BATCH);
        assert!(outcomes.iter().all(|o| o.committed));
    });
    let increments: u64 = (0..ROWS)
        .map(|r| engine.read_u64(RecordId::new(0, r)).unwrap())
        .sum();
    assert_eq!(
        increments,
        (REPLAYED_BATCHES * BATCH * READS_PER_TXN) as u64
    );
    engine.shutdown();
}

/// Ten-RMW transactions the two Hekaton workers run before the window, at
/// least: long enough for the chains, limbo lists and pools over `ROWS` to
/// reach their high-water marks (at 2048, the window still allocated
/// 350–700 versions). Longer windows warm up four times their length.
const HEKATON_WARM_UP: usize = 32_768;

/// Allocator calls over a window of `n` ten-RMW transactions that two
/// Hekaton workers run in turns on this thread (half each, alternately),
/// after each has run half of a warm-up stream the same way.
fn hekaton_steady_state_allocations(n: usize) -> u64 {
    let _turn = ONE_AT_A_TIME.lock();
    let store = HekatonStore::new(&[(ROWS, 8)]);
    store.seed_u64(0, |r| r);
    let engine = Hekaton::serializable(store);
    let warm = build_txns(HEKATON_WARM_UP.max(4 * n), 7, Shape::Rmw);
    let measured = build_txns(n, 99, Shape::Rmw);
    let mut workers = [engine.make_worker(), engine.make_worker()];
    let mut run = |txns: &[Txn]| {
        for (i, t) in txns.iter().enumerate() {
            assert!(engine.execute(t, &mut workers[i % 2]).committed);
        }
    };
    run(&warm);
    let before = CountingAlloc::allocations();
    run(&measured);
    CountingAlloc::allocations() - before
}

/// Hekaton's write path: versions (with their payload buffers) and
/// transaction objects come back from the workers' pools under the
/// registry watermark, so a window of `N` ten-RMW transactions — `10·N`
/// versions and `N` transaction objects, each formerly two allocator calls
/// plus a boxed closure for its deferred free — stays within `N/8 + 128`
/// allocator calls.
#[test]
fn hekaton_rmw_steady_state_recycles_versions_and_txns() {
    let n = bohm_common::stress_iters(4_096);
    let calls = hekaton_steady_state_allocations(n as usize);
    let budget = n / 8 + 128;
    eprintln!("steady-state window: {n} Hekaton 10-RMW txns on two workers, {calls} allocations (budget {budget})");
    assert!(
        calls <= budget,
        "{n} Hekaton 10-RMW txns made {calls} allocator calls (budget {budget}): versions or \
         transaction objects are reaching the allocator instead of the workers' pools"
    );
}
