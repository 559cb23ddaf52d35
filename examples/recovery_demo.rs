//! Kill-and-recover walkthrough: open a write-ahead log, run a mixed
//! workload, kill the process mid-run, then replay the log into a fresh
//! engine and check the rebuilt state against the serial oracle.
//!
//! ```sh
//! # 1. run with durability on (leave it running, or give it a count)
//! cargo run --release --example recovery_demo -- run /tmp/bohm-wal &
//! sleep 2
//!
//! # 2. kill it mid-batch — SIGKILL, no cleanup
//! kill -9 %1
//!
//! # 3. replay the log into a fresh engine; exits non-zero on mismatch
//! cargo run --release --example recovery_demo -- replay /tmp/bohm-wal
//!
//! # …or recover in place and keep going on the same log directory
//! # (the log is attached only after the replay, so nothing logs twice)
//! cargo run --release --example recovery_demo -- recover /tmp/bohm-wal 10000
//!
//! # checkpointed variant: periodic checkpoints truncate the log while
//! # the run stays killable; `recover` then replays only the suffix
//! cargo run --release --example recovery_demo -- checkpoint /tmp/bohm-ckp &
//! kill -9 %1
//! cargo run --release --example recovery_demo -- recover /tmp/bohm-ckp 10000
//! ```
//!
//! The replay re-submits the logged transactions, in log order, through
//! the normal pipeline, and checks every per-transaction commit decision
//! and read fingerprint — plus the complete final state — against the
//! serial oracle over the same inputs. Determinism (arrival order is the
//! serialization order) is what makes this exact: whatever prefix of the
//! workload survived in the log, its replay is bit-identical to what the
//! killed process had executed.

use bohm_suite::common::engine::BatchEngine as _;
use bohm_suite::common::rng::FastRng;
use bohm_suite::common::wal::{DurabilityConfig, Wal};
use bohm_suite::common::{checkpoint, Procedure, RecordId, SmallBankProc, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::testkit::check_serial_equivalence;
use bohm_suite::workloads::{DatabaseSpec, TableDef};
use std::path::Path;

/// Rows per table; the workload also inserts into `spare_rows` beyond
/// this, exercising the insert/delete paths through the log.
const ROWS: u64 = 256;

/// The database both modes agree on: savings + checking (SmallBank
/// style) and an order-like table with spare slots for inserts.
fn spec() -> DatabaseSpec {
    DatabaseSpec::new(vec![
        TableDef {
            rows: ROWS,
            spare_rows: 0,
            record_size: 8,
            seed: |r| 1000 + r,
        },
        TableDef {
            rows: ROWS,
            spare_rows: 0,
            record_size: 8,
            seed: |r| 500 + r,
        },
        TableDef {
            rows: ROWS,
            spare_rows: ROWS,
            record_size: 16,
            seed: |r| r,
        },
    ])
}

fn catalog_of(spec: &DatabaseSpec) -> CatalogSpec {
    let mut c = CatalogSpec::new();
    for t in &spec.tables {
        c = c.table(t.rows, t.record_size, t.seed);
    }
    c
}

/// One deterministic workload transaction (mixed RMW / SmallBank /
/// insert / delete — the shapes the log must carry faithfully).
fn gen_txn(rng: &mut FastRng) -> Txn {
    let c = rng.below(ROWS);
    let sav = RecordId::new(0, c);
    let chk = RecordId::new(1, c);
    match rng.below(6) {
        0 => Txn::new(
            vec![sav, chk],
            vec![],
            Procedure::SmallBank(SmallBankProc::Balance),
        ),
        1 => Txn::new(
            vec![chk],
            vec![chk],
            Procedure::SmallBank(SmallBankProc::DepositChecking { v: rng.below(50) }),
        ),
        2 => Txn::new(
            vec![sav],
            vec![sav],
            Procedure::SmallBank(SmallBankProc::TransactSaving {
                v: rng.below(100) as i64 - 50,
            }),
        ),
        3 => {
            let rid = RecordId::new(2, rng.below(ROWS));
            Txn::new(
                vec![rid],
                vec![rid],
                Procedure::ReadModifyWrite { delta: 1 },
            )
        }
        4 => Txn::new(
            vec![],
            vec![RecordId::new(2, ROWS + rng.below(ROWS))], // spare slot
            Procedure::BlindWrite {
                value: rng.below(1000),
            },
        ),
        _ => Txn::new(
            vec![sav],
            vec![RecordId::new(2, ROWS + rng.below(ROWS))],
            Procedure::GuardedDelete { min: 0 },
        ),
    }
}

/// `run DIR [N]`: open the log, run the workload (default count scales
/// with `BOHM_STRESS_ITERS`), expecting to be killed at any point.
fn run(dir: &Path, count: u64) {
    let mut cfg = BohmConfig::with_threads(2, 2);
    cfg.durability = Some(DurabilityConfig::new(dir));
    let engine = Bohm::start(cfg, catalog_of(&spec()));
    let session = engine.session();
    let mut rng = FastRng::seed_from(7);
    println!(
        "running {count} transactions against WAL at {}",
        dir.display()
    );
    let mut pending = std::collections::VecDeque::new();
    for i in 0..count {
        pending.push_back(session.submit(gen_txn(&mut rng)));
        if pending.len() > 1024 {
            pending.pop_front().unwrap().wait();
        }
        if i % 100_000 == 0 && i > 0 {
            println!("  submitted {i} ({} bytes logged)", engine.log_bytes());
        }
    }
    for h in pending {
        h.wait();
    }
    println!("finished all {count} transactions without being killed");
    engine.shutdown();
}

/// `checkpoint DIR [N]`: like `run`, but take a checkpoint every
/// 50 000 transactions — snapshotting the full state, rotating the log
/// and truncating the covered prefix — while still expecting to be
/// killed at any point (including mid-checkpoint: `Checkpoint::write`
/// is atomic, so a torn attempt is simply ignored on recovery).
fn checkpoint_run(dir: &Path, count: u64) {
    const EVERY: u64 = 50_000;
    let mut cfg = BohmConfig::with_threads(2, 2);
    cfg.durability = Some(DurabilityConfig::new(dir));
    let engine = Bohm::start(cfg, catalog_of(&spec()));
    let session = engine.session();
    let mut rng = FastRng::seed_from(7);
    println!(
        "running {count} transactions with a checkpoint every {EVERY} against {}",
        dir.display()
    );
    let mut pending = std::collections::VecDeque::new();
    for i in 0..count {
        pending.push_back(session.submit(gen_txn(&mut rng)));
        if pending.len() > 1024 {
            pending.pop_front().unwrap().wait();
        }
        if i > 0 && i % EVERY == 0 {
            // Checkpointing wants submission quiescence: drain our own
            // pipeline, then cut.
            for h in pending.drain(..) {
                h.wait();
            }
            let before = engine.log_bytes();
            let stats = engine.checkpoint().expect("checkpoint");
            println!(
                "  checkpoint at txn {i}: epoch {}, {} records, freed {} of {} log bytes",
                stats.epoch, stats.records, stats.freed_bytes, before
            );
        }
    }
    for h in pending {
        h.wait();
    }
    println!("finished all {count} transactions without being killed");
    engine.shutdown();
}

/// `recover DIR [N]`: recover **in place** — rebuild state from the
/// log on the same directory (the log is attached only after the replay,
/// so nothing is logged twice), then keep running `N` more transactions
/// against the same log. This is the crash → recover → continue path a
/// real deployment takes; `replay` is the read-only forensic one.
fn recover(dir: &Path, count: u64) {
    let mut cfg = BohmConfig::with_threads(2, 2);
    cfg.durability = Some(DurabilityConfig::new(dir));
    match checkpoint::load_latest(dir) {
        Ok(Some(c)) => println!(
            "checkpoint at epoch {} covers {} records; replay starts there",
            c.epoch,
            c.records.len()
        ),
        Ok(None) => println!("no checkpoint; replaying the whole log"),
        Err(e) => println!("newest checkpoint is unreadable ({e}); recovery will refuse"),
    }
    let (engine, outcomes) = Bohm::recover(cfg, catalog_of(&spec())).unwrap_or_else(|e| {
        eprintln!("cannot recover from {}: {e}", dir.display());
        std::process::exit(2);
    });
    println!(
        "recovered {} transactions ({} committed); continuing with {count} more",
        outcomes.len(),
        outcomes.iter().filter(|o| o.committed).count()
    );
    // Continue the workload from a seed the original run never used, so
    // the continuation is fresh work rather than a re-run.
    let mut rng = FastRng::seed_from(9000 + outcomes.len() as u64);
    for chunk in 0..count.div_ceil(1024) {
        let n = (count - chunk * 1024).min(1024);
        let txns: Vec<Txn> = (0..n).map(|_| gen_txn(&mut rng)).collect();
        engine.execute_sync(txns);
    }
    println!(
        "continued past recovery; log now {} bytes at {}",
        engine.log_bytes(),
        dir.display()
    );
    engine.shutdown();
}

/// `replay DIR`: rebuild from the log and verify against the oracle.
fn replay(dir: &Path) {
    let log = Wal::read_log(dir).unwrap_or_else(|e| {
        eprintln!("cannot read log at {}: {e}", dir.display());
        std::process::exit(2);
    });
    let txns: Vec<Txn> = log.iter().flat_map(|b| b.txns.iter().cloned()).collect();
    println!(
        "log holds {} batches / {} transactions; replaying…",
        log.len(),
        txns.len()
    );
    let db = spec();
    let engine = Bohm::start(BohmConfig::with_threads(2, 2), catalog_of(&db));
    let outcomes = engine.replay(log).expect("an input-only log replays whole");
    // Fold a run fingerprint for eyeballing across runs.
    let fp = outcomes.iter().fold(0u64, |acc, o| {
        acc.wrapping_mul(31)
            .wrapping_add(o.fingerprint ^ o.committed as u64)
    });
    println!(
        "replayed: {} committed / {} total, run fingerprint {fp:#018x}",
        outcomes.iter().filter(|o| o.committed).count(),
        outcomes.len()
    );
    let res = check_serial_equivalence(&db, &txns, &outcomes, |rid| engine.read_u64(rid));
    engine.shutdown();
    match res {
        Ok(()) => println!("recovery OK: replayed state matches the serial oracle exactly"),
        Err(e) => {
            eprintln!("recovery MISMATCH: {e}");
            std::process::exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let count_or = |default: u64| {
        args.get(3)
            .map(|s| s.parse().expect("count must be a number"))
            .unwrap_or(default)
    };
    match args.get(1).map(String::as_str) {
        Some("run") if args.len() >= 3 => {
            run(
                Path::new(&args[2]),
                count_or(bohm_suite::common::stress_iters(500_000)),
            );
        }
        Some("checkpoint") if args.len() >= 3 => {
            checkpoint_run(
                Path::new(&args[2]),
                count_or(bohm_suite::common::stress_iters(500_000)),
            );
        }
        Some("recover") if args.len() >= 3 => {
            recover(Path::new(&args[2]), count_or(10_000));
        }
        Some("replay") if args.len() >= 3 => replay(Path::new(&args[2])),
        _ => {
            eprintln!(
                "usage: recovery_demo run <log-dir> [count] \
                 | recovery_demo checkpoint <log-dir> [count] \
                 | recovery_demo recover <log-dir> [count] \
                 | recovery_demo replay <log-dir>"
            );
            std::process::exit(2);
        }
    }
}
