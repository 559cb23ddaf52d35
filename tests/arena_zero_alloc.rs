//! Steady-state allocation audit of the BOHM pipeline.
//!
//! The arena refactor's core claim is that once the pipeline is warm —
//! chunk pool populated, the ingest queue at capacity, epoch bags
//! allocated — a read-only workload runs **allocation-free** per
//! transaction: read/write sets, CC plans and placeholder-pointer buffers
//! all live in recycled batch arenas, and execution reuses per-thread
//! scratch. This test installs a counting global allocator, warms the
//! engine, then measures a window of `N` read-only transactions and
//! asserts the allocation count stays at the *per-batch epsilon* (a
//! completion handle, a `TxnState` vector and an `Arc<Batch>` per sealed
//! batch, an occasional recycled-chunk `Arc`) instead of scaling with
//! per-transaction work — the budget is `N/8 + 128` calls, two orders of
//! magnitude below the pre-arena cost of several allocations per
//! transaction.
//!
//! The RMW twin makes the same claim for the write path: placeholders come
//! out of the CC thread's `VersionPool` (every install first retires the
//! version its predecessor superseded), so after warm-up `N` ten-RMW
//! transactions — `10·N` installs, formerly two allocator calls each —
//! stay within the *same* `N/8 + 128` budget.
//!
//! Kept in its own test binary so concurrent tests cannot pollute the
//! measurement window (the two audits in here take turns under a lock).
//! Scaled by `BOHM_STRESS_ITERS` like the other stress suites.

use bohm_common::{Procedure, RecordId, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::testkit::CountingAlloc;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

const ROWS: u64 = 1024;
const READS_PER_TXN: usize = 10;
const GROUP: usize = 256;

/// Pre-build submission groups so transaction *construction* (client-side
/// `Vec`s, by design) stays outside the measured window. `rmw` turns every
/// transaction's ten reads into ten read-modify-writes (distinct keys, as a
/// write set requires).
fn build_groups(n_txns: usize, seed: u64, rmw: bool) -> Vec<Vec<Txn>> {
    let mut x = seed | 1;
    let mut rid = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        RecordId::new(0, x % ROWS)
    };
    (0..n_txns.div_ceil(GROUP))
        .map(|g| {
            let in_group = GROUP.min(n_txns - g * GROUP);
            (0..in_group)
                .map(|_| {
                    let mut keys: Vec<RecordId> = Vec::with_capacity(READS_PER_TXN);
                    while keys.len() < READS_PER_TXN {
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
        })
        .collect()
}

/// The allocation counter is process-wide: one audit at a time.
static ONE_AT_A_TIME: bohm_sync::Mutex<()> = bohm_sync::Mutex::new(());

/// Warm the engine, then count allocator calls over a window of `n`
/// transactions.
fn steady_state_allocations(n: usize, rmw: bool) -> u64 {
    let _turn = ONE_AT_A_TIME.lock();
    let cfg = BohmConfig {
        batch_size: GROUP,
        ..BohmConfig::with_threads(1, 1)
    };
    let engine = Bohm::start(cfg, CatalogSpec::new().table(ROWS, 8, |r| r));

    // Warmup: fills the arena chunk pool, the ingest queue's capacity, epoch
    // thread-locals, the exec threads' scratch buffers and (RMW) the CC
    // thread's version pool.
    for group in build_groups(n.min(2048), 7, rmw) {
        for out in engine.submit(group).outcomes() {
            assert!(out.committed);
        }
    }

    let groups = build_groups(n, 99, rmw);
    let before = CountingAlloc::allocations();
    for group in groups {
        for out in engine.submit(group).outcomes() {
            assert!(out.committed);
        }
    }
    let delta = CountingAlloc::allocations() - before;
    engine.shutdown();
    delta
}

#[test]
fn bohm_read_only_steady_state_allocates_nothing_per_txn() {
    let n = bohm_common::stress_iters(4_096) as usize;
    let delta = steady_state_allocations(n, false);
    let budget = (n as u64) / 8 + 128;
    eprintln!("steady-state window: {n} txns, {delta} allocations (budget {budget})");
    assert!(
        delta <= budget,
        "steady-state window of {n} read-only txns made {delta} allocations \
         (budget {budget}): a per-transaction allocation crept back into \
         the hot path"
    );
}

#[test]
fn bohm_rmw_steady_state_recycles_versions_instead_of_allocating() {
    let n = bohm_common::stress_iters(4_096) as usize;
    let delta = steady_state_allocations(n, true);
    let budget = (n as u64) / 8 + 128;
    eprintln!(
        "steady-state window: {n} 10-RMW txns ({} installs), {delta} allocations (budget {budget})",
        n * READS_PER_TXN
    );
    assert!(
        delta <= budget,
        "steady-state window of {n} 10-RMW txns made {delta} allocations \
         (budget {budget}): placeholders are reaching the allocator again \
         instead of the CC thread's version pool"
    );
}
