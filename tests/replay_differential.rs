//! BOHM's batch replay against the per-transaction replay it replaced.
//!
//! BOHM overrides `BatchEngine::replay`: log order is its serial order, so
//! each logged batch is sealed as one batch, and outcomes are read off the
//! retired batches instead of out of one completion word per transaction.
//! The default it overrides, `wal::replay_into`, submits and reaps one
//! transaction at a time; the interactive engines keep it. That loop is the
//! oracle here. Every log below is recovered three times through
//! `durable::recover`, from identical copies of the directory:
//!
//! * into a fresh BOHM engine — the batch path;
//! * into a fresh BOHM engine behind a wrapper that keeps the trait's
//!   default — `replay_into`, one transaction at a time;
//! * into a fresh 2PL engine, which has only the default.
//!
//! The three must agree on every replayed transaction's outcome (commit and
//! fingerprint) and on the final state, record for record; where the log
//! holds a whole live run, they must also agree with that run's outcomes.
//! The batch path must also keep the logged batch boundaries, splitting
//! only a batch larger than the recovering engine's `batch_size`. A log of
//! decisions — another engine's — goes through the default on BOHM too.

use bohm_bench::engines::{build_bohm_with, build_tpl};
use bohm_suite::common::durable::{self, DurableEngine, Recovered};
use bohm_suite::common::engine::{BatchEngine, Engine, ExecOutcome, Session};
use bohm_suite::common::wal::{DurabilityConfig, FsyncPolicy, Wal};
use bohm_suite::common::{RecordId, Txn, Value};
use bohm_suite::core::{Bohm, BohmConfig, BohmSession};
use bohm_suite::workloads::micro::{MicroConfig, MicroGen};
use bohm_suite::workloads::smallbank::{SmallBankConfig, SmallBankGen};
use bohm_suite::workloads::tpcc::{TpccConfig, TpccGen};
use bohm_suite::workloads::ycsb::{YcsbConfig, YcsbGen};
use bohm_suite::workloads::{DatabaseSpec, TxnGen};
use std::path::{Path, PathBuf};

/// BOHM behind the trait's default `replay`: `wal::replay_into`.
struct PerTxn(Bohm);

impl BatchEngine for PerTxn {
    type Session<'a> = BohmSession;

    fn name(&self) -> &'static str {
        "Bohm, replayed one transaction at a time"
    }

    fn open_session(&self) -> BohmSession {
        self.0.session()
    }

    fn read_record(&self, rid: RecordId) -> Option<Value> {
        self.0.read_record(rid)
    }

    fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        self.0.snapshot_records(f)
    }

    fn quiesce(&self) {
        BatchEngine::quiesce(&self.0)
    }
}

/// One workload: its database, and a stream of its transactions.
struct Case {
    name: &'static str,
    spec: DatabaseSpec,
    txns: Vec<Txn>,
}

fn stream(n: usize, mut gen: impl TxnGen) -> Vec<Txn> {
    (0..n).map(|_| gen.next_txn()).collect()
}

fn micro() -> Case {
    let cfg = MicroConfig {
        records: 4096,
        rmws_per_txn: 10,
    };
    Case {
        name: "micro",
        spec: cfg.spec(),
        txns: stream(3000, MicroGen::new(cfg, 11)),
    }
}

fn tpcc() -> Case {
    let cfg = TpccConfig {
        warehouses: 1,
        customers_per_district: 16,
        order_capacity: 1 << 12,
        order_stripes: 1,
        orders_per_customer: 16,
        ..TpccConfig::default()
    };
    Case {
        name: "tpcc",
        spec: cfg.spec(),
        txns: stream(3000, TpccGen::new(cfg, 12, 0)),
    }
}

/// Few customers and small balances: many withdrawals abort.
fn smallbank() -> Case {
    let cfg = SmallBankConfig {
        customers: 32,
        think_us: 0,
        initial_balance: 40,
    };
    Case {
        name: "smallbank",
        spec: cfg.spec(),
        txns: stream(3000, SmallBankGen::new(cfg, 13)),
    }
}

/// `ycsb_longread_mix` in miniature: one transaction in ten reads 100
/// records, more than `annotate_max_reads`, so it is a detached reader and
/// runs on the read lane.
fn longread() -> Case {
    let cfg = YcsbConfig {
        records: 2048,
        record_size: 16,
        read_only_len: 100,
        read_only_fraction: 0.1,
        ..YcsbConfig::default()
    };
    Case {
        name: "longread",
        spec: cfg.spec(),
        txns: stream(1500, YcsbGen::mixed(&cfg, 14)),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bohm-replaydiff-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durability(dir: &Path) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir);
    d.fsync = FsyncPolicy::Off;
    d
}

fn config(batch_size: usize) -> BohmConfig {
    BohmConfig {
        batch_size,
        ..BohmConfig::with_threads(2, 2)
    }
}

/// Run `txns` through one session of a durable BOHM engine sealing batches
/// of at most `batch_size`, taking a checkpoint after the first
/// `checkpoint_after`, if given. Returns the live outcomes.
fn write_log(
    case: &Case,
    dir: &Path,
    batch_size: usize,
    checkpoint_after: Option<usize>,
) -> Vec<ExecOutcome> {
    let mut cfg = config(batch_size);
    cfg.durability = Some(durability(dir));
    let engine = build_bohm_with(&case.spec, cfg);
    let mut session = engine.open_session();
    let mut out = Vec::new();
    for (i, t) in case.txns.iter().enumerate() {
        if checkpoint_after == Some(i) {
            while session.in_flight() > 0 {
                out.push(session.reap());
            }
            engine.checkpoint().expect("checkpoint");
        }
        Session::submit(&mut session, t.clone());
        while session.in_flight() > 300 {
            out.push(session.reap());
        }
    }
    while session.in_flight() > 0 {
        out.push(session.reap());
    }
    engine.shutdown();
    out
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

/// Every present record, in key order.
fn state(engine: &impl BatchEngine) -> Vec<(RecordId, Vec<u8>)> {
    let mut records = Vec::new();
    engine.snapshot_records(&mut |rid, data| records.push((rid, data.to_vec())));
    records.sort_by_key(|(rid, _)| *rid);
    records
}

fn decisions(outcomes: &[ExecOutcome]) -> Vec<(bool, u64)> {
    outcomes
        .iter()
        .map(|o| (o.committed, o.fingerprint))
        .collect()
}

/// Recover `engine` from a private copy of `dir`.
fn recover(engine: &impl BatchEngine, dir: &Path, tag: &str) -> Recovered {
    let copy = dir.with_extension(tag);
    copy_dir(dir, &copy);
    let recovered = durable::recover(engine, &durability(&copy)).expect("recover");
    std::fs::remove_dir_all(&copy).unwrap();
    recovered
}

/// Recover the log in `dir` into BOHM's batch path (batches of at most
/// `batch_size`), its per-transaction default and 2PL; assert that the three
/// agree, and return the outcomes and the batch path's engine.
fn differential(case: &Case, dir: &Path, batch_size: usize) -> (Vec<ExecOutcome>, Bohm) {
    let batched = build_bohm_with(&case.spec, config(batch_size));
    let per_txn = PerTxn(build_bohm_with(&case.spec, config(batch_size)));
    let tpl = build_tpl(&case.spec);
    let got = recover(&batched, dir, "batched");
    let want = recover(&per_txn, dir, "per-txn");
    let tpl_got = recover(&tpl, dir, "tpl");
    let name = case.name;
    assert_eq!(
        got.report.txns_replayed, want.report.txns_replayed,
        "{name}"
    );
    assert_eq!(
        decisions(&got.outcomes),
        decisions(&want.outcomes),
        "{name}: batch replay and per-transaction replay decide differently"
    );
    assert_eq!(
        decisions(&tpl_got.outcomes),
        decisions(&want.outcomes),
        "{name}: 2PL replays the log differently"
    );
    assert!(got.outcomes.iter().all(|o| o.cc_retries == 0));
    let state_of = state(&batched);
    assert_eq!(state_of, state(&per_txn), "{name}: final state differs");
    assert_eq!(
        state_of,
        state(&tpl),
        "{name}: final state differs from 2PL's"
    );
    per_txn.0.shutdown();
    (got.outcomes, batched)
}

/// Transactions per record of the log in `dir`.
fn logged_batches(dir: &Path) -> Vec<usize> {
    let log = Wal::read_log(dir).expect("read log");
    log.iter().map(|b| b.txns.len()).collect()
}

/// The batch path sealed exactly `sizes`, in order: with strided
/// timestamps, the last timestamp it retired says how many batches came
/// first and how full the last one was.
fn assert_sealed(engine: &Bohm, batch_size: usize, sizes: &[usize]) {
    let last = sizes.last().copied().unwrap_or(0) as u64;
    let want = (sizes.len() as u64).saturating_sub(1) * batch_size as u64 + last;
    assert_eq!(engine.gc_bound(), want, "batch boundaries moved");
}

fn run(case: &Case, log_batch: usize, replay_batch: usize) {
    let dir = fresh_dir(&format!("{}-{log_batch}-{replay_batch}", case.name));
    let live = write_log(case, &dir, log_batch, None);
    let sizes = logged_batches(&dir);
    assert!(sizes.iter().all(|&n| n <= log_batch));
    let (outcomes, batched) = differential(case, &dir, replay_batch);
    assert_eq!(
        decisions(&outcomes),
        decisions(&live),
        "{}: replay decides differently from the live run",
        case.name
    );
    let sealed: Vec<usize> = sizes
        .iter()
        .flat_map(|&n| {
            let (full, rest) = (n / replay_batch, n % replay_batch);
            std::iter::repeat_n(replay_batch, full).chain((rest > 0).then_some(rest))
        })
        .collect();
    assert_sealed(&batched, replay_batch, &sealed);
    batched.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn micro_log_replays_identically() {
    run(&micro(), 64, 64);
}

#[test]
fn tpcc_log_replays_identically() {
    run(&tpcc(), 64, 64);
}

#[test]
fn smallbank_log_with_user_aborts_replays_identically() {
    let case = smallbank();
    let dir = fresh_dir("smallbank-aborts");
    let live = write_log(&case, &dir, 64, None);
    let aborted = live.iter().filter(|o| !o.committed).count();
    assert!(aborted > 100, "only {aborted} user aborts in the stream");
    std::fs::remove_dir_all(&dir).unwrap();
    run(&case, 64, 64);
}

#[test]
fn detached_readers_replay_through_the_lane_identically() {
    let case = longread();
    let config = BohmConfig::default();
    let long = case.txns.iter().filter(|t| t.writes.is_empty()).count();
    assert!(long > 50 && 100 > config.annotate_max_reads);
    run(&case, 64, 64);
}

#[test]
fn logged_batches_larger_than_the_recovering_engines_are_split() {
    run(&micro(), 256, 48);
    run(&tpcc(), 256, 48);
}

#[test]
fn logged_batches_smaller_than_the_recovering_engines_stay_whole() {
    run(&micro(), 32, 4096);
    run(&smallbank(), 32, 4096);
}

#[test]
fn a_torn_tail_replays_the_same_prefix() {
    let case = tpcc();
    let dir = fresh_dir("torn");
    write_log(&case, &dir, 64, None);
    let whole = logged_batches(&dir).len();
    let segment = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .max()
        .expect("a segment");
    let len = std::fs::metadata(&segment).unwrap().len();
    let f = std::fs::OpenOptions::new()
        .write(true)
        .open(&segment)
        .unwrap();
    f.set_len(len - 5).unwrap();
    drop(f);
    assert_eq!(
        logged_batches(&dir).len(),
        whole - 1,
        "the tear drops one record"
    );
    let (outcomes, batched) = differential(&case, &dir, 64);
    assert!(outcomes.len() < case.txns.len());
    batched.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_and_its_suffix_replay_identically() {
    for case in [tpcc(), smallbank()] {
        let dir = fresh_dir(&format!("ckp-{}", case.name));
        write_log(&case, &dir, 64, Some(case.txns.len() / 2));
        let batched = build_bohm_with(&case.spec, config(64));
        let report = recover(&batched, &dir, "probe").report;
        batched.shutdown();
        assert!(report.checkpoint_epoch.is_some(), "{}", case.name);
        assert!(
            report.txns_replayed < case.txns.len(),
            "only the suffix replays"
        );
        let (_, batched) = differential(&case, &dir, 64);
        batched.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_log_of_decisions_replays_into_bohm_with_every_decision_checked() {
    // 2PL's log, through `DurableEngine`: each record carries the decisions
    // the batch path does not check, so BOHM hands it to the default.
    let case = smallbank();
    let dir = fresh_dir("decided");
    let (logging, _) = DurableEngine::open(build_tpl(&case.spec), &durability(&dir)).unwrap();
    let mut worker = logging.make_worker();
    let live: Vec<ExecOutcome> = (case.txns.iter())
        .map(|t| logging.execute(t, &mut worker))
        .collect();
    let want_state = state(logging.inner());
    drop(logging);
    let log = Wal::read_log(&dir).unwrap();
    assert!(log.iter().all(|b| b.outcomes.is_some()));
    let committed: Vec<ExecOutcome> = live.into_iter().filter(|o| o.committed).collect();
    assert!(
        committed.len() < case.txns.len(),
        "the stream has user aborts"
    );
    let bohm = build_bohm_with(&case.spec, config(64));
    let got = bohm.replay(log).expect("replay");
    assert_eq!(decisions(&got), decisions(&committed));
    assert_eq!(state(&bohm), want_state);
    bohm.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
