//! Durability on **all five engines** — the engine-generic layer.
//!
//! BOHM's deterministic pipeline logs inputs only (`tests/wal_recovery.rs`
//! covers its SIGKILL path). The four interactive baselines — 2PL, OCC,
//! Hekaton, SI — are nondeterministic, so `common::durable::DurableEngine`
//! logs each transaction's inputs *plus its commit decision* and replays
//! exactly the committed prefix on recovery. These tests hold that wrapper
//! to the same standard the BOHM suite set:
//!
//! * **recover-equivalence**: run a mixed workload (point ops, SmallBank,
//!   inserts, deletes, range scans) through each durable engine, reopen the
//!   directory into a fresh instance, and check every commit decision and
//!   the complete final state against the serial oracle — all five engines
//!   (BOHM rides through its own `Bohm::recover` for the fifth leg);
//! * **checkpoint bounds replay**: a mid-run checkpoint must shrink the
//!   log and cut the replayed suffix down to the post-checkpoint work;
//! * **recover → continue → recover** on one directory, through a torn
//!   tail: each logged transaction replays exactly once;
//! * **a replay that contradicts its logged decision is refused** with
//!   `InvalidData`, and the directory is left as it was;
//! * **a failed log stops the engine**: after a WAL I/O error, every
//!   later `execute` panics before it touches the store;
//! * **SIGKILL kill-and-recover**: each interactive engine is killed
//!   mid-workload in a re-exec'd child; recovery of the surviving log must
//!   match the serial oracle decision-for-decision.

use bohm_suite::common::durable::DurableEngine;
use bohm_suite::common::engine::{Engine, ExecOutcome};
use bohm_suite::common::rng::FastRng;
use bohm_suite::common::wal::{DurabilityConfig, FsyncPolicy, LogSink as _, TxnDecision, Wal};
use bohm_suite::common::{stress_iters, Procedure, RecordId, ScanRange, SmallBankProc, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::testkit::check_serial_equivalence;
use bohm_suite::workloads::{DatabaseSpec, TableDef};
use std::path::{Path, PathBuf};

const ROWS: u64 = 96;

/// Savings + checking + a fixed-capacity insert/delete scratch table.
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

/// Deterministic mixed workload covering every logged set shape: RMW,
/// SmallBank, spare-slot inserts, guarded deletes and range scans.
fn gen_txn(rng: &mut FastRng) -> Txn {
    let c = rng.below(ROWS);
    let sav = RecordId::new(0, c);
    let chk = RecordId::new(1, c);
    match rng.below(7) {
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
            vec![RecordId::new(2, ROWS + rng.below(ROWS))],
            Procedure::BlindWrite {
                value: rng.below(1000),
            },
        ),
        5 => Txn::new(
            vec![sav],
            vec![RecordId::new(2, ROWS + rng.below(ROWS))],
            Procedure::GuardedDelete { min: 0 },
        ),
        _ => {
            let lo = rng.below(ROWS - 8);
            Txn::with_scans(
                vec![sav],
                vec![],
                vec![ScanRange::new(1, lo, lo + 8)],
                Procedure::TpcC(bohm_suite::common::TpcCProc::OrderHistory),
            )
        }
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bohm-durable-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Execute `txns` serially through one worker, collecting outcomes. Serial
/// execution means the engine's own decisions coincide with the serial
/// oracle's — which is exactly what recovery must reproduce.
fn run_serial<E: Engine>(engine: &E, txns: &[Txn]) -> Vec<ExecOutcome> {
    let mut w = engine.make_worker();
    txns.iter().map(|t| engine.execute(t, &mut w)).collect()
}

/// The interactive engines of the evaluation, as durable-engine factories.
/// (BOHM is the fifth; it has its own sequencer-integrated log.)
type EngineCase = (&'static str, fn(&DatabaseSpec) -> DynEngine);

/// Object-safe handle: `DurableEngine` only needs `Engine`, so a boxed
/// trait object with boxed workers drives all four baselines uniformly.
struct DynEngine(Box<dyn DynExec + Send + Sync>);

trait DynExec {
    fn exec(&self, txn: &Txn, w: &mut Box<dyn std::any::Any + Send>) -> ExecOutcome;
    fn worker(&self) -> Box<dyn std::any::Any + Send>;
    fn engine_name(&self) -> &'static str;
    fn get_u64(&self, rid: RecordId) -> Option<u64>;
    fn get_record(&self, rid: RecordId) -> Option<bohm_suite::common::Value>;
    fn snapshot(&self, f: &mut dyn FnMut(RecordId, &[u8]));
}

impl<E: Engine> DynExec for E
where
    E::Worker: 'static,
{
    fn exec(&self, txn: &Txn, w: &mut Box<dyn std::any::Any + Send>) -> ExecOutcome {
        self.execute(txn, w.downcast_mut::<E::Worker>().expect("worker type"))
    }
    fn worker(&self) -> Box<dyn std::any::Any + Send> {
        Box::new(self.make_worker())
    }
    fn engine_name(&self) -> &'static str {
        self.name()
    }
    fn get_u64(&self, rid: RecordId) -> Option<u64> {
        self.read_u64(rid)
    }
    fn get_record(&self, rid: RecordId) -> Option<bohm_suite::common::Value> {
        self.read_record(rid)
    }
    fn snapshot(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        self.snapshot_records(f)
    }
}

impl Engine for DynEngine {
    type Worker = Box<dyn std::any::Any + Send>;

    fn name(&self) -> &'static str {
        self.0.engine_name()
    }
    fn make_worker(&self) -> Self::Worker {
        self.0.worker()
    }
    fn execute(&self, txn: &Txn, w: &mut Self::Worker) -> ExecOutcome {
        self.0.exec(txn, w)
    }
    fn read_u64(&self, rid: RecordId) -> Option<u64> {
        self.0.get_u64(rid)
    }
    fn read_record(&self, rid: RecordId) -> Option<bohm_suite::common::Value> {
        self.0.get_record(rid)
    }
    fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        self.0.snapshot(f)
    }
}

const CASES: [EngineCase; 4] = [
    ("tpl", |s| {
        DynEngine(Box::new(bohm_bench::engines::build_tpl(s)))
    }),
    ("occ", |s| {
        DynEngine(Box::new(bohm_bench::engines::build_occ(s)))
    }),
    ("hekaton", |s| {
        DynEngine(Box::new(bohm_bench::engines::build_hekaton(s)))
    }),
    ("si", |s| {
        DynEngine(Box::new(bohm_bench::engines::build_si(s)))
    }),
];

fn durability(dir: &Path) -> DurabilityConfig {
    let mut d = DurabilityConfig::new(dir);
    d.fsync = FsyncPolicy::Off;
    d
}

#[test]
fn durable_recover_equivalence_all_engines() {
    let db = spec();
    let mut rng = FastRng::seed_from(99);
    let txns: Vec<Txn> = (0..600).map(|_| gen_txn(&mut rng)).collect();

    // Legs 1-4: the interactive baselines through DurableEngine.
    for (name, build) in CASES {
        let dir = fresh_dir(&format!("equiv-{name}"));
        let cfg = durability(&dir);
        let (engine, report) = DurableEngine::open(build(&db), &cfg).expect("fresh open");
        assert_eq!(report.txns_replayed, 0, "{name}: fresh dir replayed work");
        assert_eq!(report.checkpoint_epoch, None, "{name}");
        let outcomes = run_serial(&engine, &txns);
        let committed = outcomes.iter().filter(|o| o.committed).count();
        drop(engine);

        let (recovered, report) =
            DurableEngine::open(build(&db), &cfg).expect("reopen after clean drop");
        assert_eq!(report.txns_replayed, committed, "{name}: committed replay");
        assert_eq!(
            report.txns_replayed + report.txns_aborted,
            txns.len(),
            "{name}: every logged decision accounted for"
        );
        let res = check_serial_equivalence(&db, &txns, &outcomes, |rid| recovered.read_u64(rid));
        res.unwrap_or_else(|e| panic!("{name}: recovered state diverged from oracle: {e:?}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Leg 5: BOHM, through its sequencer-integrated input log.
    let dir = fresh_dir("equiv-bohm");
    let cfg = || {
        let mut c = BohmConfig::with_threads(2, 2);
        c.durability = Some(durability(&dir));
        c
    };
    let engine = Bohm::start(cfg(), catalog_of(&db));
    let outcomes: Vec<ExecOutcome> = engine
        .execute_sync(txns.clone())
        .iter()
        .map(|o| ExecOutcome {
            committed: o.committed,
            fingerprint: o.fingerprint,
            cc_retries: 0,
        })
        .collect();
    engine.shutdown();
    let (recovered, replayed) = Bohm::recover(cfg(), catalog_of(&db)).expect("bohm recover");
    assert_eq!(replayed.len(), txns.len());
    let res = check_serial_equivalence(&db, &txns, &outcomes, |rid| recovered.read_u64(rid));
    recovered.shutdown();
    res.expect("bohm: recovered state diverged from oracle");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn durable_checkpoint_bounds_replay_on_every_interactive_engine() {
    let db = spec();
    for (name, build) in CASES {
        let dir = fresh_dir(&format!("ckp-{name}"));
        let cfg = durability(&dir);
        let mut rng = FastRng::seed_from(7 + name.len() as u64);
        let prefix: Vec<Txn> = (0..300).map(|_| gen_txn(&mut rng)).collect();
        let suffix: Vec<Txn> = (0..200).map(|_| gen_txn(&mut rng)).collect();

        let (engine, _) = DurableEngine::open(build(&db), &cfg).expect("fresh open");
        let mut outcomes = run_serial(&engine, &prefix);
        let before = engine.log_bytes();
        let stats = engine.checkpoint().expect("checkpoint");
        assert!(stats.records > 0, "{name}: empty snapshot");
        assert!(stats.freed_bytes > 0, "{name}: checkpoint freed no log");
        assert!(
            engine.log_bytes() < before,
            "{name}: log must shrink after checkpoint ({} -> {})",
            before,
            engine.log_bytes()
        );
        outcomes.extend(run_serial(&engine, &suffix));
        drop(engine);

        let (recovered, report) = DurableEngine::open(build(&db), &cfg).expect("reopen");
        assert_eq!(
            report.checkpoint_epoch,
            Some(stats.epoch),
            "{name}: newest checkpoint must be restored"
        );
        assert_eq!(report.checkpoint_records, stats.records, "{name}");
        assert_eq!(
            report.txns_replayed + report.txns_aborted,
            suffix.len(),
            "{name}: replay must cover exactly the post-checkpoint suffix"
        );
        let all: Vec<Txn> = prefix.iter().chain(&suffix).cloned().collect();
        let res = check_serial_equivalence(&db, &all, &outcomes, |rid| recovered.read_u64(rid));
        res.unwrap_or_else(|e| panic!("{name}: checkpointed recovery diverged: {e:?}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn recover_then_continue_on_same_dir_replays_each_transaction_once() {
    // Run, crash with a torn tail, recover on the same directory, run
    // more, recover again: the second recovery must see the surviving
    // prefix and the continuation once each. The log is attached only
    // after replay, so nothing the first recovery replayed is logged again.
    let db = spec();
    for (name, build) in CASES {
        let dir = fresh_dir(&format!("continue-{name}"));
        let cfg = durability(&dir);
        let mut rng = FastRng::seed_from(17 + name.len() as u64);
        let first: Vec<Txn> = (0..200).map(|_| gen_txn(&mut rng)).collect();
        let (engine, _) = DurableEngine::open(build(&db), &cfg).expect("fresh open");
        let mut outcomes = run_serial(&engine, &first);
        drop(engine);
        // Each `execute` logs one record: the tear drops the last one.
        let seg = dir.join("wal-00000000.seg");
        let full = std::fs::read(&seg).unwrap();
        std::fs::write(&seg, &full[..full.len() - 3]).unwrap();
        let mut all = first[..first.len() - 1].to_vec();
        outcomes.pop();

        let (engine, report) = DurableEngine::open(build(&db), &cfg).expect("first recovery");
        assert_eq!(
            report.txns_replayed + report.txns_aborted,
            all.len(),
            "{name}"
        );
        let continuation: Vec<Txn> = (0..150).map(|_| gen_txn(&mut rng)).collect();
        outcomes.extend(run_serial(&engine, &continuation));
        all.extend(continuation);
        drop(engine);

        let (recovered, report) = DurableEngine::open(build(&db), &cfg).expect("second recovery");
        assert_eq!(
            report.txns_replayed + report.txns_aborted,
            all.len(),
            "{name}: every logged transaction replays exactly once"
        );
        let committed = outcomes.iter().filter(|o| o.committed).count();
        assert_eq!(report.txns_replayed, committed, "{name}");
        let res = check_serial_equivalence(&db, &all, &outcomes, |rid| recovered.read_u64(rid));
        res.unwrap_or_else(|e| panic!("{name}: twice-recovered state diverged: {e:?}"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_replay_that_contradicts_its_logged_decision_is_refused() {
    let db = spec();
    let rid = RecordId::new(2, 0);
    let rmw = Txn::new(
        vec![rid],
        vec![rid],
        Procedure::ReadModifyWrite { delta: 1 },
    );
    for (name, build) in CASES {
        let dir = fresh_dir(&format!("diverge-{name}"));
        let cfg = durability(&dir);
        // A decided record claiming a fingerprint the replay cannot produce.
        let real = run_serial(&build(&db), std::slice::from_ref(&rmw))[0];
        let wal = Wal::open(&cfg).unwrap();
        let wrong = TxnDecision {
            committed: true,
            fingerprint: real.fingerprint ^ 1,
        };
        wal.log_batch_decided(0, &mut std::iter::once(&rmw), &[wrong])
            .unwrap();
        drop(wal);
        let files = || {
            let mut names: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name())
                .collect();
            names.sort();
            names
        };
        let before = files();
        match DurableEngine::open(build(&db), &cfg) {
            Ok(_) => panic!("{name}: recovery accepted a contradicted decision"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{name}: {e}"),
        }
        assert_eq!(
            files(),
            before,
            "{name}: a refused recovery opens no segment"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn a_failed_wal_append_stops_the_engine_for_good() {
    let dir = fresh_dir("sticky");
    let mut cfg = durability(&dir);
    cfg.segment_bytes = 1; // rotate after every record
    let tpl = bohm_bench::engines::build_tpl(&spec());
    let (engine, _) = DurableEngine::open(tpl, &cfg).expect("fresh open");
    // Sabotage the next rotation target: `create_new` on an existing path
    // fails, so the first record's rotation faults the log.
    let trap = dir.join("wal-00000001.seg");
    std::fs::create_dir(&trap).unwrap();
    let rid = RecordId::new(2, 0);
    let rmw = Txn::new(
        vec![rid],
        vec![rid],
        Procedure::ReadModifyWrite { delta: 1 },
    );
    let mut w = engine.make_worker();
    let mut execute = || {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            engine.execute(&rmw, &mut w)
        }))
    };
    assert!(execute().is_err(), "the faulting append fails its caller");
    let after_fault = engine.read_u64(rid);
    // Rotating to segment 2 would succeed; the engine must not try.
    assert!(execute().is_err(), "a failed log fails every later call");
    assert_eq!(
        engine.read_u64(rid),
        after_fault,
        "without touching the store"
    );
    drop(engine);
    std::fs::remove_dir(&trap).unwrap();
    let log = Wal::read_log(&dir).unwrap();
    let logged: Vec<usize> = log.iter().map(|b| b.txns.len()).collect();
    assert_eq!(logged, [1], "exactly the record written before the fault");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Env var carrying `<engine>:<dir>` into the re-exec'd child; when unset
/// (the normal test run) the child body is a no-op.
const CHILD_ENV: &str = "BOHM_DURABLE_KILL_CHILD";

/// Child body of the kill-and-recover tests: run the workload against a
/// durable wrapper of the named engine until killed. Runs only under
/// re-exec.
#[test]
fn durable_kill_child_runs_until_killed() {
    let Ok(arg) = std::env::var(CHILD_ENV) else {
        return;
    };
    let (name, dir) = arg.split_once(':').expect("ENGINE:DIR");
    let build = CASES
        .iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("unknown engine {name}"))
        .1;
    let mut cfg = DurabilityConfig::new(dir);
    // A SIGKILL leaves the page cache intact: an unsynced log loses nothing.
    cfg.fsync = FsyncPolicy::Off;
    let (engine, _) = DurableEngine::open(build(&spec()), &cfg).expect("child open");
    let mut rng = FastRng::seed_from(4242);
    let mut w = engine.make_worker();
    // Far more work than the parent lets us finish; SIGKILL ends this.
    for _ in 0..200_000_000u64 {
        let t = gen_txn(&mut rng);
        engine.execute(&t, &mut w);
    }
}

/// How much log the killed child must write first: 64 KiB, or 4 MiB — the
/// nightly `recovery_demo` leg's threshold — under `BOHM_STRESS_ITERS`.
fn kill_threshold() -> u64 {
    if stress_iters(0) > 0 {
        4 << 20
    } else {
        64 << 10
    }
}

/// Whether `dir` reaches `min_bytes` within 30 s.
fn wait_for_log_growth(dir: &Path, min_bytes: u64) -> bool {
    for _ in 0..600 {
        let bytes: u64 = std::fs::read_dir(dir)
            .ok()
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        if bytes >= min_bytes {
            return true;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    false
}

/// SIGKILL a durable engine mid-workload (re-exec of this binary), then
/// recover through `DurableEngine::open` — which replays the committed
/// prefix, repairs the torn tail, and must match the serial oracle: every
/// logged decision, every fingerprint, the complete final state.
fn kill_and_recover(name: &'static str) {
    let dir = fresh_dir(&format!("kill-{name}"));
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["durable_kill_child_runs_until_killed", "--exact"])
        .env(CHILD_ENV, format!("{name}:{}", dir.display()))
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("re-exec test binary");
    let min_bytes = kill_threshold();
    let grew = wait_for_log_growth(&dir, min_bytes);
    child.kill().expect("SIGKILL the child");
    let _ = child.wait();
    assert!(
        grew,
        "{name}: child never produced {min_bytes} bytes of log within 30 s"
    );

    // The surviving log is the authority: its inputs plus decisions ARE
    // the committed history (serial execution in the child means those
    // decisions coincide with the serial oracle's).
    let build = CASES.iter().find(|(n, _)| *n == name).unwrap().1;
    let db = spec();
    let (recovered, report) =
        DurableEngine::open(build(&db), &durability(&dir)).expect("post-kill recovery");
    let log = Wal::read_log(&dir).expect("post-crash log must read back");
    let mut txns = Vec::new();
    let mut outcomes = Vec::new();
    for b in &log {
        let outs = b
            .outcomes
            .as_ref()
            .expect("durable engine logs include decisions");
        for (t, d) in b.txns.iter().zip(outs) {
            txns.push(t.clone());
            outcomes.push(ExecOutcome {
                committed: d.committed,
                fingerprint: d.fingerprint,
                cc_retries: 0,
            });
        }
    }
    assert!(
        txns.len() > 400,
        "{name}: expected a substantial logged prefix, got {} txns",
        txns.len()
    );
    assert_eq!(
        report.txns_replayed + report.txns_aborted,
        txns.len(),
        "{name}: recovery must account for every surviving decision"
    );
    let res = check_serial_equivalence(&db, &txns, &outcomes, |rid| recovered.read_u64(rid));
    res.unwrap_or_else(|e| panic!("{name}: post-kill recovery diverged from oracle: {e:?}"));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn kill_and_recover_tpl() {
    kill_and_recover("tpl");
}

#[test]
fn kill_and_recover_occ() {
    kill_and_recover("occ");
}

#[test]
fn kill_and_recover_hekaton() {
    kill_and_recover("hekaton");
}

#[test]
fn kill_and_recover_si() {
    kill_and_recover("si");
}
