//! Condition-3 garbage collection under pipeline load (paper §3.3.2).
//!
//! These tests check the *observable guarantees* of BOHM's batch-watermark
//! GC: the low watermark advances as batches complete, hot-key version
//! chains stay bounded while the engine runs (instead of growing with the
//! update count), disabling GC really retains everything, and GC never
//! perturbs results (checked here by exact counter accounting; the
//! serializability suite re-checks full-state equivalence with GC on).

use bohm_suite::common::{Procedure, RecordId, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};

fn rmw(k: u64) -> Txn {
    let rid = RecordId::new(0, k);
    Txn::new(
        vec![rid],
        vec![rid],
        Procedure::ReadModifyWrite { delta: 1 },
    )
}

fn hot_engine(gc: bool) -> Bohm {
    let mut cfg = BohmConfig::with_threads(2, 2);
    cfg.enable_gc = gc;
    Bohm::start(cfg, CatalogSpec::new().table(4, 8, |_| 0))
}

#[test]
fn watermark_advances_with_completed_batches() {
    let e = hot_engine(true);
    assert_eq!(e.gc_bound(), 0, "no batch executed yet");
    let mut last = 0;
    for _ in 0..5 {
        e.execute_sync((0..100).map(|i| rmw(i % 4)).collect());
        // Another empty-ish batch makes exec thread 0 refresh the bound.
        e.execute_sync(vec![rmw(0)]);
        let now = e.gc_bound();
        assert!(now >= last, "watermark must be monotone: {last} -> {now}");
        last = now;
    }
    assert!(last > 0, "watermark never advanced");
    e.shutdown();
}

#[test]
fn hot_chain_stays_bounded_with_gc() {
    // 20,000 updates of 4 records: without GC that is ~5,000 versions per
    // chain; with Condition 3 the live tail is bounded by the pipeline
    // depth (batches in flight × batch size), far below that.
    let e = hot_engine(true);
    for _ in 0..100 {
        e.execute_sync((0..200).map(|i| rmw(i % 4)).collect());
    }
    // Each chain is walked once per watermark value and loses its whole
    // dead tail then, so all that can be left is one round's worth.
    let retired = e.gc_retired();
    assert!(
        retired >= 19_000,
        "all but the last rounds' versions should be reclaimed, got {retired} of 20000"
    );
    assert_eq!(e.read_u64(RecordId::new(0, 0)), Some(5_000));
    e.shutdown();
}

#[test]
fn uniform_keys_retire_one_version_per_write() {
    // The `micro_rmw10` shape: many keys, each written rarely. A write
    // finds exactly one dead version under it (the one its predecessor
    // superseded, long since below the watermark), so deterministic
    // GC-on-install must retire one version per write once every key has
    // been written once — a sampled trigger only ever got ~1 in 8 of them.
    const KEYS: u64 = 512;
    const ROUNDS: u64 = 20;
    let e = Bohm::start(
        BohmConfig::with_threads(2, 2),
        CatalogSpec::new().table(KEYS, 8, |_| 0),
    );
    for _ in 0..ROUNDS {
        // `execute_sync` returns after the round's batches retire, i.e.
        // with the watermark past every write of the round.
        e.execute_sync((0..KEYS).map(rmw).collect());
    }
    let writes = KEYS * ROUNDS;
    let retired = e.gc_retired();
    assert!(
        retired * 10 >= (writes - KEYS) * 9,
        "retired {retired} of {} reclaimable versions ({writes} writes)",
        writes - KEYS
    );
    assert!(
        retired <= writes,
        "retired {retired} > {writes} versions written"
    );
    for k in [0, KEYS / 2, KEYS - 1] {
        assert_eq!(e.read_u64(RecordId::new(0, k)), Some(ROUNDS));
    }
    e.shutdown();
}

#[test]
fn gc_off_retains_every_version() {
    let e = hot_engine(false);
    for _ in 0..20 {
        e.execute_sync((0..100).map(|i| rmw(i % 4)).collect());
    }
    assert_eq!(e.gc_retired(), 0);
    // Results unaffected.
    let total: u64 = (0..4)
        .map(|k| e.read_u64(RecordId::new(0, k)).unwrap())
        .sum();
    assert_eq!(total, 2_000);
    e.shutdown();
}

#[test]
fn gc_never_reclaims_versions_needed_by_inflight_readers() {
    // Long pipelines of read-only txns at old timestamps interleaved with
    // hot updates: every read-only fingerprint must equal the value the
    // log order dictates (if GC freed a needed version, the read would
    // either crash or observe a wrong/newer value).
    let e = hot_engine(true);
    let rid = RecordId::new(0, 1);
    // The whole pipeline in flight at once: 1000 update/read pairs.
    let session = e.session();
    let handles: Vec<_> = (0..2_000)
        .map(|i| match i % 2 {
            0 => session.submit(rmw(1)),
            _ => session.submit(Txn::new(vec![rid], vec![], Procedure::ReadOnly)),
        })
        .collect();
    let mut expected = 0u64;
    for (i, h) in handles.iter().enumerate() {
        let o = h.wait();
        assert!(o.committed);
        if i % 2 == 1 {
            // Read-only txn right after the update: sees `expected`.
            let want = bohm_suite::common::value::checksum(&bohm_suite::common::value::of_u64(
                expected, 8,
            ));
            assert_eq!(o.fingerprint, want, "stale or over-collected read");
        } else {
            expected += 1;
        }
    }
    assert_eq!(e.read_u64(rid), Some(1_000));
    e.shutdown();
}

#[test]
fn single_exec_thread_still_collects() {
    // The designated watermark refresher is exec thread 0; with exactly one
    // exec thread the watermark path must still work.
    let mut cfg = BohmConfig::with_threads(2, 1);
    cfg.enable_gc = true;
    let e = Bohm::start(cfg, CatalogSpec::new().table(2, 8, |_| 0));
    for _ in 0..50 {
        e.execute_sync((0..100).map(|_| rmw(0)).collect());
    }
    assert!(e.gc_retired() > 1_000, "retired = {}", e.gc_retired());
    assert_eq!(e.read_u64(RecordId::new(0, 0)), Some(5_000));
    e.shutdown();
}
