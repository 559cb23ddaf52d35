//! End-to-end serializability of the BOHM engine.
//!
//! BOHM's correctness claim (paper §3.3.3) is that the concurrent execution
//! is equivalent to the serial execution in **log order**. These tests
//! drive the full pipeline (sequencer → CC threads → execution threads,
//! many batches in flight) and compare against the serial oracle:
//! per-transaction commit decisions, per-transaction read fingerprints, and
//! the complete final database state must all match exactly.

use bohm_suite::common::rng::FastRng;
use bohm_suite::common::{Procedure, RecordId, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::testkit::check_serial_equivalence;
use bohm_suite::workloads::{DatabaseSpec, TableDef};

fn catalog_of(spec: &DatabaseSpec) -> CatalogSpec {
    let mut c = CatalogSpec::new();
    for t in &spec.tables {
        c = c.table(t.rows, t.record_size, t.seed);
    }
    c
}

/// Run txns through BOHM — one session, the whole stream in flight, the
/// sequencer sealing `batch`-sized batches — then check equivalence with
/// serial log-order replay.
fn run_and_check(spec: DatabaseSpec, txns: Vec<Txn>, mut cfg: BohmConfig, batch: usize) {
    cfg.batch_size = batch;
    let engine = Bohm::start(cfg, catalog_of(&spec));
    let outcomes = engine.execute_sync(txns.clone());
    let res = check_serial_equivalence(&spec, &txns, &outcomes, |rid| engine.read_u64(rid));
    engine.shutdown();
    res.unwrap();
}

fn one_table(rows: u64) -> DatabaseSpec {
    DatabaseSpec::new(vec![TableDef {
        rows,
        spare_rows: 0,
        record_size: 8,
        seed: |r| r * 3,
        growable: false,
    }])
}

fn rmw_mix(rows: u64, n: usize, hot: bool, seed: u64) -> Vec<Txn> {
    let mut rng = FastRng::seed_from(seed);
    let dom = if hot { 4.min(rows) } else { rows };
    (0..n)
        .map(|_| {
            let mut keys = Vec::new();
            while keys.len() < 3.min(dom as usize) {
                let k = rng.below(dom);
                if !keys.contains(&k) {
                    keys.push(k);
                }
            }
            let rids: Vec<RecordId> = keys.iter().map(|&k| RecordId::new(0, k)).collect();
            match rng.below(4) {
                0 => Txn::new(rids.clone(), vec![], Procedure::ReadOnly),
                1 => Txn::new(
                    vec![],
                    rids,
                    Procedure::BlindWrite {
                        value: rng.next_u64() % 1000,
                    },
                ),
                _ => Txn::new(
                    rids.clone(),
                    rids,
                    Procedure::ReadModifyWrite {
                        delta: 1 + rng.below(9),
                    },
                ),
            }
        })
        .collect()
}

#[test]
fn low_contention_mix_matches_serial_order() {
    run_and_check(
        one_table(512),
        rmw_mix(512, 5_000, false, 1),
        BohmConfig::with_threads(3, 3),
        250,
    );
}

#[test]
fn hot_key_mix_matches_serial_order() {
    // Almost every transaction conflicts: deep intra-batch dependency
    // chains, heavy recursive resolution.
    run_and_check(
        one_table(64),
        rmw_mix(64, 5_000, true, 2),
        BohmConfig::with_threads(2, 4),
        500,
    );
}

#[test]
fn single_txn_batches_match_serial_order() {
    // Degenerate batching: barrier per transaction.
    run_and_check(
        one_table(32),
        rmw_mix(32, 300, true, 3),
        BohmConfig::with_threads(2, 2),
        1,
    );
}

#[test]
fn many_threads_few_txns() {
    // More threads than work: partitions and responsibilities mostly empty.
    run_and_check(
        one_table(16),
        rmw_mix(16, 64, true, 4),
        BohmConfig::with_threads(8, 8),
        16,
    );
}

#[test]
fn annotations_off_matches_serial_order() {
    let mut cfg = BohmConfig::with_threads(3, 3);
    cfg.annotate_max_reads = 0;
    run_and_check(one_table(128), rmw_mix(128, 3_000, true, 5), cfg, 300);
}

#[test]
fn long_chains_in_one_batch_match_serial_order() {
    // The whole stream is one batch, so no version of it is below the GC
    // bound while it runs: the four hot keys grow chains ~2,000 deep.
    run_and_check(
        one_table(128),
        rmw_mix(128, 3_000, true, 6),
        BohmConfig::with_threads(3, 3),
        3_000,
    );
}

/// Every access-plan shape the sequencer distinguishes, over keys with a
/// lifecycle: rows `0..16` always exist, rows `16..32` start absent and are
/// inserted and deleted as the stream goes (the generator tracks which
/// exist, since `ReadModifyWrite` and `GuardedDelete` may only read
/// existing rows). One key in three is drawn from a hot pair, so fused
/// RMWs of one record land in adjacent transactions — inside one CC
/// look-ahead window, where the hints for the second are computed before
/// the first has installed.
fn fusion_shapes(n: usize, seed: u64) -> Vec<Txn> {
    use Procedure::{BlindWrite, GuardedDelete, ProbeAll, ReadModifyWrite};
    let mut rng = FastRng::seed_from(seed);
    let mut exists = [false; 32];
    exists[..16].fill(true);
    let rid = |k: u64| RecordId::new(0, k);
    let mut txns = Vec::with_capacity(n);
    while txns.len() < n {
        // Distinct existing keys, hot-biased.
        let live = |rng: &mut FastRng, exists: &[bool; 32], want: usize| {
            let mut keys: Vec<u64> = Vec::new();
            while keys.len() < want {
                let k = if rng.below(3) == 0 {
                    rng.below(2)
                } else {
                    rng.below(32)
                };
                if exists[k as usize] && !keys.contains(&k) {
                    keys.push(k);
                }
            }
            keys.into_iter().map(rid).collect::<Vec<_>>()
        };
        let delta = 1 + rng.below(9);
        let lifecycle = 16 + rng.below(16);
        txns.push(match rng.below(9) {
            // Positional RMWs: every entry fused.
            0 | 1 => {
                let k = live(&mut rng, &exists, 3);
                Txn::new(k.clone(), k, ReadModifyWrite { delta })
            }
            // 2RMW + pure reads.
            2 => {
                let k = live(&mut rng, &exists, 4);
                Txn::new(k.clone(), k[..2].to_vec(), ReadModifyWrite { delta })
            }
            // The same records at different positions: paired by search.
            3 => {
                let k = live(&mut rng, &exists, 3);
                Txn::new(k.clone(), vec![k[2], k[0]], ReadModifyWrite { delta })
            }
            // A duplicated read of a written record. The write fuses with
            // the read at its own position (1); the procedure reads the
            // *first* occurrence (0), whose slot nobody annotates.
            4 => {
                let k = live(&mut rng, &exists, 2);
                Txn::new(
                    vec![k[1], k[1]],
                    vec![k[0], k[1]],
                    ReadModifyWrite { delta },
                )
            }
            // Insert-with-read: a fused entry for a record that may not
            // exist at CC time (the chain is created, the slot stays null).
            5 => {
                exists[lifecycle as usize] = true;
                let k = rid(lifecycle);
                Txn::new(vec![k], vec![k], BlindWrite { value: delta })
            }
            // Delete as an RMW: the guard read and the delete are one entry.
            6 if exists[lifecycle as usize] => {
                exists[lifecycle as usize] = false;
                let k = rid(lifecycle);
                Txn::new(vec![k], vec![k], GuardedDelete { min: 0 })
            }
            // Absence-tolerant probes across the lifecycle rows.
            6 | 7 => {
                let k = (0..3).map(|_| rid(16 + rng.below(16))).collect();
                Txn::new(k, vec![], ProbeAll)
            }
            // A read set too large to annotate, two of its records written:
            // write entries only, every read through the fallback.
            _ => {
                let k: Vec<RecordId> = (0..70).map(|i| rid(i % 16)).collect();
                Txn::new(k.clone(), k[..2].to_vec(), ReadModifyWrite { delta })
            }
        });
    }
    txns
}

#[test]
fn fused_plan_shapes_match_serial_order() {
    let spec = || {
        DatabaseSpec::new(vec![TableDef {
            rows: 16,
            spare_rows: 16,
            record_size: 8,
            seed: |r| r * 3,
            growable: false,
        }])
    };
    for (case, (cc, annotate)) in [(1, true), (3, true), (1, false), (3, false)]
        .into_iter()
        .enumerate()
    {
        let mut cfg = BohmConfig::with_threads(cc, 3);
        if !annotate {
            cfg.annotate_max_reads = 0;
        }
        // Small keyspace, so the key sweep reclaims deleted rows' entries
        // under the look-ahead as well.
        cfg.index_capacity = 8;
        let txns = fusion_shapes(4_000, 0xF05E + case as u64);
        run_and_check(spec(), txns, cfg, 128);
    }
}

#[test]
fn smallbank_with_aborts_matches_serial_order() {
    // TransactSaving overdrafts force user aborts whose copy-through
    // placeholders must expose exactly the pre-transaction state.
    let spec = DatabaseSpec::new(vec![
        TableDef {
            rows: 16,
            spare_rows: 0,
            record_size: 8,
            seed: |r| r,
            growable: false,
        },
        TableDef {
            rows: 16,
            spare_rows: 0,
            record_size: 8,
            seed: |_| 50,
            growable: false,
        },
        TableDef {
            rows: 16,
            spare_rows: 0,
            record_size: 8,
            seed: |_| 50,
            growable: false,
        },
    ]);
    let mut rng = FastRng::seed_from(7);
    let txns: Vec<Txn> = (0..4_000)
        .map(|_| {
            let c = rng.below(16);
            match rng.below(5) {
                0 => bohm_suite::workloads::smallbank::balance(c, 0),
                1 => bohm_suite::workloads::smallbank::deposit_checking(c, rng.below(40), 0),
                2 => bohm_suite::workloads::smallbank::transact_saving(
                    c,
                    rng.below(160) as i64 - 80, // frequent overdraft aborts
                    0,
                ),
                3 => {
                    let mut c1 = rng.below(16);
                    while c1 == c {
                        c1 = rng.below(16);
                    }
                    bohm_suite::workloads::smallbank::amalgamate(c, c1, 0)
                }
                _ => bohm_suite::workloads::smallbank::write_check(c, rng.below(60), 0),
            }
        })
        .collect();
    // Sanity: the workload must actually produce user aborts.
    let mut oracle = bohm_suite::testkit::SerialOracle::new(&spec);
    let aborts = txns.iter().filter(|t| !oracle.apply(t).committed).count();
    assert!(aborts > 10, "workload produced too few aborts: {aborts}");
    run_and_check(spec, txns, BohmConfig::with_threads(3, 4), 200);
}

#[test]
fn write_skew_shape_is_serialized_by_log_order() {
    // The §2 anomaly shape: overlapping read sets {x,y}, disjoint writes.
    // In BOHM the log order decides; fingerprints must match that order.
    let spec = one_table(2);
    let x = RecordId::new(0, 0);
    let y = RecordId::new(0, 1);
    let mut txns = Vec::new();
    for i in 0..500 {
        let w = if i % 2 == 0 { x } else { y };
        txns.push(Txn::new(
            vec![x, y],
            vec![w],
            Procedure::ReadModifyWrite { delta: 1 },
        ));
    }
    run_and_check(spec, txns, BohmConfig::with_threads(2, 4), 100);
}

#[test]
fn blind_write_races_resolve_in_log_order() {
    // Pure write-write conflicts: the concurrency-control layer pre-orders
    // versions; the last blind write in log order must win every record.
    let spec = one_table(4);
    let mut txns = Vec::new();
    for i in 0..1_000u64 {
        let rid = RecordId::new(0, i % 4);
        txns.push(Txn::new(
            vec![],
            vec![rid],
            Procedure::BlindWrite { value: i },
        ));
    }
    run_and_check(spec, txns, BohmConfig::with_threads(2, 4), 125);
}

#[test]
fn session_single_txn_submission_matches_serial_order() {
    // Property test over the session front-end: one client submitting
    // *single transactions* (pipelined, many in flight) must observe
    // exactly the serial execution in submission order — submission order
    // is arrival order at the sequencer, which is the timestamp order.
    // Randomized over mixes and pipeline configurations, seeded per case.
    #[cfg(debug_assertions)]
    const CASES: u64 = 6;
    #[cfg(not(debug_assertions))]
    const CASES: u64 = 24;
    for case in 0..CASES {
        let mut rng = FastRng::seed_from(0x5E55 + case);
        let rows = 8 + rng.below(120);
        let n = 200 + rng.below(1_800) as usize;
        let txns = rmw_mix(rows, n, rng.below(2) == 0, 0x5E55 + case);
        let mut cfg =
            BohmConfig::with_threads(1 + rng.below(3) as usize, 1 + rng.below(3) as usize);
        // Random pipeline shape: tiny batches up to generous ones, with
        // occasional tight in-flight budgets to exercise backpressure.
        cfg.batch_size = 1 + rng.below(256) as usize;
        cfg.max_inflight_batches = 2 + rng.below(7) as usize;
        let spec = one_table(rows);
        let engine = Bohm::start(cfg, catalog_of(&spec));
        let session = engine.session();
        let handles: Vec<_> = txns.iter().map(|t| session.submit(t.clone())).collect();
        let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
        // Quiesce with a barrier submission before direct state reads.
        engine.execute_sync(vec![Txn::new(
            vec![RecordId::new(0, 0)],
            vec![RecordId::new(0, 0)],
            Procedure::ReadModifyWrite { delta: 0 },
        )]);
        let res = check_serial_equivalence(&spec, &txns, &outcomes, |rid| engine.read_u64(rid));
        engine.shutdown();
        res.unwrap_or_else(|e| panic!("case {case} (rows={rows} n={n}): {e}"));
    }
}

#[test]
fn facade_reap_returns_the_fronts_outcome_under_out_of_order_completion() {
    // Three execution threads finish a session's transactions out of
    // order, and a blocked `reap` parks a quarter of the way into its FIFO
    // rather than on the front; what it returns must still be the front's
    // outcome, position for position, as the serial order has it.
    use bohm_bench::engines::AnyEngine;
    use bohm_suite::common::engine::BatchEngine;
    let spec = one_table(64);
    let txns = rmw_mix(64, 20_000, true, 0xF1F0);
    let mut cfg = BohmConfig::with_threads(1, 3);
    cfg.batch_size = 64;
    let engine = AnyEngine::Bohm(Bohm::start(cfg, catalog_of(&spec)));
    let outcomes = engine.run_stream(&txns);
    engine.quiesce();
    let res = check_serial_equivalence(&spec, &txns, &outcomes, |rid| engine.read_u64(rid));
    engine.shutdown();
    res.unwrap();
}

#[test]
fn concurrent_sessions_preserve_counter_conservation() {
    // Many sessions race for the open batch's mutex. Their global
    // interleaving is decided by who takes it first, so we check an
    // order-independent invariant: every committed increment lands exactly
    // once, and per-session outcomes arrive for every submission.
    let spec = one_table(32);
    let engine = std::sync::Arc::new(Bohm::start(
        BohmConfig::with_threads(2, 3),
        catalog_of(&spec),
    ));
    let mut clients = Vec::new();
    for c in 0..6u64 {
        let engine = std::sync::Arc::clone(&engine);
        clients.push(std::thread::spawn(move || {
            let session = engine.session();
            let mut rng = FastRng::seed_from(0xC0 + c);
            let handles: Vec<_> = (0..500)
                .map(|_| {
                    let rid = RecordId::new(0, rng.below(32));
                    session.submit(Txn::new(
                        vec![rid],
                        vec![rid],
                        Procedure::ReadModifyWrite { delta: 1 },
                    ))
                })
                .collect();
            handles.iter().filter(|h| h.wait().committed).count()
        }));
    }
    let committed: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
    assert_eq!(committed, 6 * 500, "RMW increments never abort in BOHM");
    engine.execute_sync(vec![Txn::new(
        vec![RecordId::new(0, 0)],
        vec![RecordId::new(0, 0)],
        Procedure::ReadModifyWrite { delta: 0 },
    )]);
    let total: u64 = (0..32)
        .map(|k| engine.read_u64(RecordId::new(0, k)).unwrap() - k * 3)
        .sum();
    assert_eq!(total, 6 * 500, "every committed increment applied once");
    std::sync::Arc::try_unwrap(engine).ok().unwrap().shutdown();
}

#[test]
fn sequential_submissions_interleave_correctly() {
    // Multiple submitters taking turns on the sequencer: timestamps are
    // assigned in arrival order, so equivalence must still hold
    // against the concatenated order.
    let spec = one_table(8);
    let engine = Bohm::start(BohmConfig::with_threads(2, 2), catalog_of(&spec));
    let mut all = Vec::new();
    let mut outcomes = Vec::new();
    for round in 0..20 {
        let txns = rmw_mix(8, 50, true, 100 + round);
        let got = engine.execute_sync(txns.clone());
        all.extend(txns);
        outcomes.extend(got);
    }
    let res = check_serial_equivalence(&spec, &all, &outcomes, |rid| engine.read_u64(rid));
    engine.shutdown();
    res.unwrap();
}

// ---------------------------------------------------------------------------
// The read lane: detached readers (no writes, a read set too large to
// annotate) beside their producers
// ---------------------------------------------------------------------------

/// Rows per stripe of the lane streams' table; stripe `s` is rows
/// `s·STRIPE ..`.
const STRIPE: u64 = 128;

fn striped_table(stripes: u64) -> DatabaseSpec {
    one_table(STRIPE * stripes)
}

/// A detached reader over stripe `s`: 65–300 reads cycling over the stripe's
/// eight hot rows — the rows every RMW of the stream writes.
fn long_reads(rng: &mut FastRng, s: u64) -> Vec<RecordId> {
    let n = 65 + rng.below(236);
    (0..n)
        .map(|_| RecordId::new(0, s * STRIPE + rng.below(8)))
        .collect()
}

/// One session's stream: RMWs over each stripe's eight hot rows interleaved
/// with every kind of detached reader over the same rows, each transaction
/// inside one stripe. Small batches put a reader in one batch with its
/// producers (it resolves them in place) and with other readers (the
/// execution threads take them from the far end).
fn lane_stream(n: usize, seed: u64, stripes: u64) -> Vec<Txn> {
    use bohm_suite::common::{ScanRange, TpcCProc};
    let mut rng = FastRng::seed_from(seed);
    (0..n)
        .map(|_| {
            let s = rng.below(stripes);
            match rng.below(10) {
                // Plain long read.
                0 | 1 => Txn::new(long_reads(&mut rng, s), vec![], Procedure::ReadOnly),
                // One that user-aborts: the guard (its first read) is below
                // any `min`, and there is nothing to delete.
                2 => Txn::new(
                    long_reads(&mut rng, s),
                    vec![],
                    Procedure::GuardedDelete { min: u64::MAX },
                ),
                // One with a scan wider than `annotate_max_reads`, across
                // the hot rows: un-annotated, pending versions and all.
                3 => Txn::with_scans(
                    long_reads(&mut rng, s),
                    vec![],
                    vec![ScanRange::new(0, s * STRIPE, s * STRIPE + 80)],
                    Procedure::TpcC(TpcCProc::OrderHistory),
                ),
                // A short read-only transaction: annotated, unless
                // `annotate_max_reads` is 0 — then it is detached too.
                4 => {
                    let reads = (0..2).map(|_| RecordId::new(0, s * STRIPE + rng.below(8)));
                    Txn::new(reads.collect(), vec![], Procedure::ReadOnly)
                }
                _ => {
                    let (a, b) = (rng.below(8), rng.below(7));
                    let rids: Vec<_> = [a, (a + 1 + b) % 8]
                        .iter()
                        .map(|k| RecordId::new(0, s * STRIPE + k))
                        .collect();
                    let delta = 1 + rng.below(9);
                    Txn::new(rids.clone(), rids, Procedure::ReadModifyWrite { delta })
                }
            }
        })
        .collect()
}

#[test]
fn detached_readers_beside_their_producers_match_serial_order() {
    for (case, batch) in [4, 64, 4096].into_iter().enumerate() {
        for exec in [1, 2, 4] {
            let txns = lane_stream(1_500, 0x1A9E + case as u64, 1);
            run_and_check(
                striped_table(1),
                txns,
                BohmConfig::with_threads(2, exec),
                batch,
            );
        }
    }
    // With annotation off every read-only transaction is detached, and the
    // writers' reads go through the same ts-filtered probe.
    let mut cfg = BohmConfig::with_threads(2, 2);
    cfg.annotate_max_reads = 0;
    run_and_check(striped_table(1), lane_stream(1_500, 0x1A9F, 1), cfg, 16);
}

#[test]
fn quiesce_implies_detached_readers_are_complete() {
    use bohm_suite::common::engine::BatchEngine;
    let spec = striped_table(1);
    let mut cfg = BohmConfig::with_threads(1, 2);
    cfg.batch_size = 8;
    let engine = Bohm::start(cfg, catalog_of(&spec));
    let session = engine.session();
    let txns = lane_stream(600, 0x901E, 1);
    let handles: Vec<_> = txns
        .iter()
        .map(|t| {
            let mut t = t.clone();
            // Slow readers: the execution threads run ahead of the lane.
            t.think_us = if t.writes.is_empty() { 50 } else { 0 };
            session.submit(t)
        })
        .collect();
    engine.quiesce();
    assert!(
        handles.iter().all(|h| h.is_done()),
        "a retired batch has no unfinished transaction"
    );
    let outcomes: Vec<_> = handles.iter().map(|h| h.wait()).collect();
    let res = check_serial_equivalence(&spec, &txns, &outcomes, |rid| engine.read_u64(rid));
    engine.shutdown();
    res.unwrap();
}

#[test]
fn detached_readers_replay_from_the_log_as_they_ran() {
    use bohm_suite::common::wal::{DurabilityConfig, FsyncPolicy};
    // Whole batches only (the stream is a multiple of the batch size, and
    // every wait is on a batch its submission filled), so the log's
    // framing is the same every run.
    let txns = lane_stream(24 * 64, 0xD09, 1);
    let spec = striped_table(1);
    let run = |name: &str, annotate_max_reads: usize| {
        let dir = std::env::temp_dir().join(format!("bohm-lane-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = BohmConfig::with_threads(2, 2);
        cfg.batch_size = 64;
        cfg.annotate_max_reads = annotate_max_reads;
        let mut d = DurabilityConfig::new(&dir);
        d.fsync = FsyncPolicy::Off;
        cfg.durability = Some(d);
        let engine = Bohm::start(cfg.clone(), catalog_of(&spec));
        let outcomes = engine.execute_sync(txns.clone());
        let bytes = engine.log_bytes();
        engine.shutdown();
        (dir, cfg, outcomes, bytes)
    };
    let (dir, cfg, outcomes, bytes) = run("on", 64);
    // Read-only transactions stay in the log, lane or no lane: the same
    // stream with nothing detached (everything annotated) logs the same.
    let (plain_dir, _, plain_outcomes, plain_bytes) = run("off", usize::MAX);
    assert_eq!(outcomes, plain_outcomes);
    assert_eq!(bytes, plain_bytes, "the lane changed what is logged");
    let (engine, replayed) = Bohm::recover(cfg, catalog_of(&spec)).unwrap();
    assert_eq!(
        replayed, outcomes,
        "replay re-runs the readers where they ran"
    );
    let res = check_serial_equivalence(&spec, &txns, &outcomes, |rid| engine.read_u64(rid));
    engine.shutdown();
    res.unwrap();
    for d in [dir, plain_dir] {
        std::fs::remove_dir_all(d).unwrap();
    }
}
