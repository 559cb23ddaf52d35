//! The micro section of the traced run: one standalone cost per layer,
//! single-threaded, through each module's public functions.
//!
//! Every number is the **median of five timed batches** (not the best-of
//! that `micro_criterion` prints: a budget is what you usually pay, not
//! what you can get away with). Inputs go through `black_box` so the
//! optimizer cannot precompute or delete the measured work, and whatever a
//! batch needs prepared (chains to truncate, placeholders to fill,
//! unpacked transactions) is built outside the timed region.

use crate::child::ChildArgs;
use crate::json::Json;
use crate::stats;
use bohm_common::engine::Engine;
use bohm_common::rng::FastRng;
use bohm_common::wal::{FsyncPolicy, LogSink, Wal};
use bohm_common::zipf::Zipf;
use bohm_common::{ArenaPool, Checkpoint, DurabilityConfig, RecordId, Txn};
use bohm_lockmgr::{LockMode, LockRequest, LockTable};
use bohm_mvstore::{Chain, HashIndex, Version, VersionIndex};
use bohm_workloads::micro::{MicroConfig, MicroGen};
use bohm_workloads::tpcc::{TpccConfig, TpccGen};
use bohm_workloads::ycsb::{YcsbConfig, YcsbGen, YcsbKind};
use bohm_workloads::TxnGen;
use crossbeam_epoch::{self as epoch, Owned};
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

const BATCHES: usize = 5;

/// Median over `BATCHES` of `batch(i)`, which returns the time it
/// measured and the operations that time covers.
fn median_ns_per_op(mut batch: impl FnMut(usize) -> (Duration, u64)) -> f64 {
    let per_op: Vec<f64> = (0..BATCHES)
        .map(|i| {
            let (t, ops) = batch(i);
            t.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    stats::median(&per_op)
}

/// Time `op` repeated `iters` times per batch.
fn timed_loop(iters: u64, mut op: impl FnMut()) -> f64 {
    median_ns_per_op(|_| {
        let t0 = Instant::now();
        for _ in 0..iters {
            op();
        }
        (t0.elapsed(), iters)
    })
}

fn rmw10(gen: &mut MicroGen, n: usize) -> Vec<Txn> {
    (0..n).map(|_| gen.next_txn()).collect()
}

fn generators(out: &mut Json) {
    let zipf = Zipf::new(200_000, 0.9);
    let mut rng = FastRng::seed_from(1);
    out.set(
        "common.zipf.sample_ns",
        timed_loop(200_000, || {
            black_box(zipf.sample(&mut rng));
        }),
    );
    let cfg = YcsbConfig {
        records: 200_000,
        record_size: 1_000,
        theta: 0.9,
        read_only_len: 10_000,
        read_only_fraction: 0.0,
    };
    let mut ycsb = YcsbGen::new(&cfg, YcsbKind::Rmw2Read8, 2);
    out.set(
        "workloads.ycsb.gen_ns",
        timed_loop(50_000, || {
            black_box(ycsb.next_txn());
        }),
    );
    let mut tpcc = TpccGen::new(TpccConfig::default(), 3, 0);
    out.set(
        "workloads.tpcc.gen_ns",
        timed_loop(50_000, || {
            black_box(tpcc.next_txn());
        }),
    );
}

fn repack(out: &mut Json) {
    let pool = ArenaPool::default();
    let mut gen = MicroGen::new(MicroConfig::default(), 4);
    out.set(
        "common.txn.repack_ns",
        median_ns_per_op(|_| {
            let mut txns = rmw10(&mut gen, 4096);
            let mut arena = pool.arena();
            let t0 = Instant::now();
            for t in &mut txns {
                t.repack(&mut arena);
            }
            let dt = t0.elapsed();
            black_box(&txns);
            (dt, txns.len() as u64)
        }),
    );
}

fn mvstore(out: &mut Json) {
    const KEYS: u64 = 1 << 20;
    let index = HashIndex::with_capacity(KEYS as usize);
    let guard = epoch::pin();
    for row in 0..KEYS {
        index.get_or_insert(RecordId::new(0, row), &guard).install(
            Owned::new(Version::ready(0, bohm_common::value::of_u64(row, 8))),
            &guard,
        );
    }
    let mut rng = FastRng::seed_from(5);
    let probes: Vec<RecordId> = (0..1 << 16)
        .map(|_| RecordId::new(0, rng.below(KEYS)))
        .collect();
    out.set(
        "mvstore.index.get_ns",
        median_ns_per_op(|_| {
            let t0 = Instant::now();
            for &rid in &probes {
                black_box(index.get(black_box(rid), &guard));
            }
            (t0.elapsed(), probes.len() as u64)
        }),
    );
    // One placeholder per probed key per batch, as the CC phase installs
    // them (allocation of the version included: it is part of the cost).
    out.set(
        "mvstore.chain.install_ns",
        median_ns_per_op(|batch| {
            let ts = 1 + batch as u64;
            let chains: Vec<&Chain> = {
                let mut seen = std::collections::BTreeSet::new();
                probes
                    .iter()
                    .filter(|r| seen.insert(r.row))
                    .map(|&r| index.get(r, &guard).expect("preloaded"))
                    .collect()
            };
            let t0 = Instant::now();
            for c in &chains {
                black_box(c.install(Owned::new(Version::placeholder(ts, 8)), &guard));
            }
            (t0.elapsed(), chains.len() as u64)
        }),
    );
    // Fresh keys into an index with room for them (table id = batch).
    let grow = HashIndex::with_capacity((BATCHES as u64 * (1 << 16)) as usize);
    out.set(
        "mvstore.index.insert_ns",
        median_ns_per_op(|batch| {
            let t0 = Instant::now();
            for row in 0..1u64 << 16 {
                black_box(grow.get_or_insert(RecordId::new(batch as u32, row), &guard));
            }
            (t0.elapsed(), 1 << 16)
        }),
    );

    const DEPTH: u64 = 128;
    let deep = |chain: &Chain| {
        for ts in 1..=DEPTH {
            chain.install(
                Owned::new(Version::ready(ts, bohm_common::value::of_u64(ts, 8))),
                &guard,
            );
        }
    };
    out.set(
        "mvstore.chain.truncate_ns_per_version",
        median_ns_per_op(|_| {
            let chains: Vec<Chain> = (0..256)
                .map(|_| {
                    let c = Chain::new();
                    deep(&c);
                    c
                })
                .collect();
            let t0 = Instant::now();
            let retired: usize = chains.iter().map(|c| c.truncate(DEPTH, &guard)).sum();
            (t0.elapsed(), retired as u64)
        }),
    );
    let chain = Chain::new();
    deep(&chain);
    out.set(
        "mvstore.chain.visible_latest_ns",
        timed_loop(1_000_000, || {
            black_box(chain.visible(black_box(DEPTH + 1_000), &guard));
        }),
    );
    out.set(
        "mvstore.chain.visible_deep_ns",
        timed_loop(100_000, || {
            black_box(chain.visible(black_box(2), &guard));
        }),
    );
    let payload = vec![7u8; 1_000];
    out.set(
        "mvstore.version.fill_1000b_ns",
        median_ns_per_op(|batch| {
            let versions: Vec<Version> = (0..4096)
                .map(|i| Version::placeholder(1 + batch as u64 + i, 1_000))
                .collect();
            let t0 = Instant::now();
            for v in &versions {
                v.fill(black_box(&payload));
            }
            let dt = t0.elapsed();
            black_box(&versions);
            (dt, versions.len() as u64)
        }),
    );
}

fn baselines(out: &mut Json) {
    let table = LockTable::new(1 << 20);
    let mut reqs: Vec<LockRequest> = (0..10)
        .map(|i| LockRequest {
            slot: i * 1000,
            mode: if i < 2 {
                LockMode::Exclusive
            } else {
                LockMode::Shared
            },
        })
        .collect();
    LockTable::normalize(&mut reqs);
    out.set(
        "lockmgr.acquire_release_10_ns",
        timed_loop(500_000, || {
            table.acquire_raw(black_box(&reqs));
            table.release(&reqs);
        }),
    );

    // One uncontended worker straight on `Engine::execute`: the baseline's
    // per-transaction floor with no second thread in the way.
    let cfg = MicroConfig {
        records: 100_000,
        rmws_per_txn: 10,
    };
    let spec = cfg.spec();
    let txns = rmw10(&mut MicroGen::new(cfg, 6), 1 << 14);
    fn solo<E: Engine>(engine: &E, txns: &[Txn]) -> f64 {
        let mut worker = engine.make_worker();
        median_ns_per_op(|_| {
            let t0 = Instant::now();
            for t in txns {
                assert!(engine.execute(black_box(t), &mut worker).committed);
            }
            (t0.elapsed(), txns.len() as u64)
        })
    }
    out.set(
        "tpl.solo_rmw10_ns",
        solo(&bohm_bench::engines::build_tpl(&spec), &txns),
    );
    out.set(
        "occ.solo_rmw10_ns",
        solo(&bohm_bench::engines::build_occ(&spec), &txns),
    );
    out.set(
        "hekaton.solo_rmw10_ns",
        solo(&bohm_bench::engines::build_hekaton(&spec), &txns),
    );
}

fn durability(dir: &Path, out: &mut Json) {
    const BATCH: usize = 1024;
    let txns = rmw10(&mut MicroGen::new(MicroConfig::default(), 7), BATCH);
    let log_into = |name: &str, fsync: FsyncPolicy| {
        let dir = dir.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig {
            fsync,
            ..DurabilityConfig::new(&dir)
        };
        let wal = Wal::open(&cfg).expect("open micro WAL");
        let ns_per_batch = median_ns_per_op(|_| {
            let t0 = Instant::now();
            for epoch in 0..8 {
                wal.log_batch(epoch, &mut txns.iter())
                    .expect("append micro batch");
            }
            (t0.elapsed(), 8)
        });
        (dir, ns_per_batch)
    };
    let (off_dir, off_ns) = log_into("micro-wal-off", FsyncPolicy::Off);
    let (sync_dir, sync_ns) = log_into("micro-wal-sync", FsyncPolicy::PerBatch);
    out.set("common.wal.append_ns_per_txn", off_ns / BATCH as f64);
    out.set("common.wal.fsync_us", (sync_ns - off_ns).max(0.0) / 1e3);
    out.set(
        "common.wal.read_log_ns_per_txn",
        median_ns_per_op(|_| {
            let t0 = Instant::now();
            let log = Wal::read_log(&off_dir).expect("read micro WAL");
            let dt = t0.elapsed();
            (dt, log.iter().map(|b| b.txns.len() as u64).sum())
        }),
    );
    let _ = std::fs::remove_dir_all(&off_dir);
    let _ = std::fs::remove_dir_all(&sync_dir);

    // 8 MB of 1000-byte records: large enough that the per-file costs
    // (create, rename, directory fsync) do not dominate the per-MB figure.
    let records: Vec<(RecordId, Box<[u8]>)> = (0..8_000)
        .map(|row| {
            (
                RecordId::new(0, row),
                bohm_common::value::of_u64(row, 1_000),
            )
        })
        .collect();
    let mb = records.len() as f64 * 1_000.0 / 1e6;
    let ckp_dir = dir.join("micro-ckp");
    let _ = std::fs::remove_dir_all(&ckp_dir);
    std::fs::create_dir_all(&ckp_dir).expect("create checkpoint dir");
    let mut ckp = Checkpoint { epoch: 0, records };
    let write_ns = median_ns_per_op(|batch| {
        ckp.epoch = 1 + batch as u64;
        let t0 = Instant::now();
        ckp.write(&ckp_dir).expect("write micro checkpoint");
        (t0.elapsed(), 1)
    });
    let load_ns = median_ns_per_op(|_| {
        let t0 = Instant::now();
        let loaded = bohm_common::checkpoint::load_latest(&ckp_dir).expect("load checkpoint");
        let dt = t0.elapsed();
        assert_eq!(loaded.map(|c| c.records.len()), Some(ckp.records.len()));
        (dt, 1)
    });
    let _ = std::fs::remove_dir_all(&ckp_dir);
    out.set("common.checkpoint.write_ms_per_mb", write_ns / 1e6 / mb);
    out.set("common.checkpoint.load_ms_per_mb", load_ns / 1e6 / mb);
}

/// Run the whole section; returns `{"per_layer": {...}}`.
pub fn run(args: &ChildArgs) -> Json {
    let mut layer = Json::obj();
    generators(&mut layer);
    repack(&mut layer);
    mvstore(&mut layer);
    baselines(&mut layer);
    durability(&args.dir, &mut layer);
    let mut out = Json::obj();
    out.set("per_layer", layer)
        .set("attempted", 0u64)
        .set("failed", 0u64)
        .set("problems", Vec::<Json>::new());
    out
}
