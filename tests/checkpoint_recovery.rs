//! Checkpoints bound replay, and recovery trusts only the newest one.
//!
//! Two claims from the durability layer, end to end on BOHM:
//!
//! * **bounded replay**: a checkpoint snapshots the committed state,
//!   truncates the covered log prefix (bytes actually shrink), and a
//!   subsequent recovery replays *only* the post-checkpoint suffix;
//! * **newest only**: a checkpoint deletes the older ones, whose log suffix
//!   it has just reclaimed, so a newest file that fails validation makes
//!   recovery refuse instead of silently restoring an older state. A
//!   dangling temp file — a crash before the rename — is ignored;
//! * **across restarts**: a checkpoint taken after `Bohm::recover`
//!   reclaims the log segments the previous process wrote.

use bohm_suite::common::durable;
use bohm_suite::common::engine::{BatchEngine, ExecOutcome};
use bohm_suite::common::rng::FastRng;
use bohm_suite::common::wal::{DurabilityConfig, FsyncPolicy};
use bohm_suite::common::{LoggedBatch, Procedure, RecordId, SmallBankProc, Txn, Value};
use bohm_suite::core::{Bohm, BohmConfig, BohmSession, CatalogSpec};
use bohm_suite::testkit::check_serial_equivalence;
use bohm_suite::workloads::{DatabaseSpec, TableDef};
use std::path::{Path, PathBuf};

const ROWS: u64 = 64;

fn spec() -> DatabaseSpec {
    DatabaseSpec::new(vec![
        TableDef {
            rows: ROWS,
            spare_rows: 0,
            record_size: 8,
            seed: |r| 1000 + r,
            growable: false,
        },
        TableDef {
            rows: ROWS,
            spare_rows: 0,
            record_size: 8,
            seed: |r| 500 + r,
            growable: false,
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

/// SmallBank mix over savings + checking (point reads, RMWs).
fn gen_txn(rng: &mut FastRng) -> Txn {
    let c = rng.below(ROWS);
    let sav = RecordId::new(0, c);
    let chk = RecordId::new(1, c);
    match rng.below(3) {
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
        _ => Txn::new(
            vec![sav],
            vec![sav],
            Procedure::SmallBank(SmallBankProc::TransactSaving {
                v: rng.below(100) as i64 - 50,
            }),
        ),
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("bohm-ckprec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn durable_cfg(dir: &Path) -> BohmConfig {
    let mut c = BohmConfig::with_threads(2, 2);
    let mut d = DurabilityConfig::new(dir);
    d.fsync = FsyncPolicy::Off;
    c.durability = Some(d);
    c
}

#[test]
fn checkpoint_bounds_replay_and_shrinks_log() {
    let dir = fresh_dir("bounds");
    let db = spec();
    let mut rng = FastRng::seed_from(31);

    let engine = Bohm::start(durable_cfg(&dir), catalog_of(&db));
    let mut all = Vec::new();
    let mut outcomes = Vec::new();
    for _ in 0..20 {
        let txns: Vec<Txn> = (0..10).map(|_| gen_txn(&mut rng)).collect();
        outcomes.extend(engine.execute_sync(txns.clone()));
        all.extend(txns);
    }
    let before = engine.log_bytes();
    assert!(before > 0);
    let stats = engine.checkpoint().expect("checkpoint");
    assert_eq!(stats.records as u64, 2 * ROWS, "full-state snapshot");
    assert!(stats.freed_bytes > 0, "checkpoint must reclaim log bytes");
    assert!(
        engine.log_bytes() < before,
        "log must shrink after checkpoint ({before} -> {})",
        engine.log_bytes()
    );
    // Post-checkpoint suffix: this and only this is replayed on recovery.
    let mut suffix_len = 0;
    for _ in 0..15 {
        let txns: Vec<Txn> = (0..10).map(|_| gen_txn(&mut rng)).collect();
        outcomes.extend(engine.execute_sync(txns.clone()));
        suffix_len += txns.len();
        all.extend(txns);
    }
    engine.shutdown();

    let (recovered, replayed) = Bohm::recover(durable_cfg(&dir), catalog_of(&db)).expect("recover");
    assert_eq!(
        replayed.len(),
        suffix_len,
        "recovery must replay exactly the post-checkpoint suffix"
    );
    assert_eq!(
        replayed,
        &outcomes[all.len() - suffix_len..],
        "replayed decisions must match the live run"
    );
    let res = check_serial_equivalence(&db, &all, &outcomes, |rid| recovered.read_u64(rid));
    recovered.shutdown();
    res.expect("checkpointed recovery diverged from the serial oracle");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_checkpoint_after_a_restart_reclaims_the_pre_restart_log() {
    let dir = fresh_dir("restart");
    let db = spec();
    let mut rng = FastRng::seed_from(97);
    let engine = Bohm::start(durable_cfg(&dir), catalog_of(&db));
    let mut all: Vec<Txn> = (0..200).map(|_| gen_txn(&mut rng)).collect();
    let mut outcomes = engine.execute_sync(all.clone());
    engine.shutdown();
    let pre_restart = dir.join("wal-00000000.seg");
    let pre_restart_bytes = std::fs::metadata(&pre_restart).unwrap().len();

    let (engine, replayed) = Bohm::recover(durable_cfg(&dir), catalog_of(&db)).expect("recover");
    assert_eq!(replayed.len(), all.len());
    let more: Vec<Txn> = (0..100).map(|_| gen_txn(&mut rng)).collect();
    outcomes.extend(engine.execute_sync(more.clone()));
    all.extend(more);
    let before = engine.log_bytes();
    let stats = engine.checkpoint().expect("checkpoint");
    assert!(
        !pre_restart.exists(),
        "the checkpoint covers the pre-restart segment, which must be reclaimed"
    );
    assert!(stats.freed_bytes >= pre_restart_bytes, "{stats:?}");
    assert!(
        engine.log_bytes() < before,
        "log must shrink after checkpoint ({before} -> {})",
        engine.log_bytes()
    );
    engine.shutdown();

    let (recovered, replayed) =
        Bohm::recover(durable_cfg(&dir), catalog_of(&db)).expect("recover again");
    assert_eq!(replayed.len(), 0, "the checkpoint covers all work");
    let res = check_serial_equivalence(&db, &all, &outcomes, |rid| recovered.read_u64(rid));
    recovered.shutdown();
    res.expect("recovery after the restart's checkpoint diverged from the serial oracle");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// The checkpoint files in `dir`.
fn checkpoint_files(dir: &Path) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "ckp"))
        .collect()
}

/// Recovery must fail with `InvalidData`, not restore anything.
fn assert_refused(dir: &Path, db: &DatabaseSpec, tag: &str) {
    match Bohm::recover(durable_cfg(dir), catalog_of(db)) {
        Ok((engine, _)) => {
            engine.shutdown();
            panic!("{tag}: recovery accepted a damaged newest checkpoint");
        }
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::InvalidData, "{tag}: {e}"),
    }
}

/// Simulate the artifacts a crash or the disk can leave beside a valid
/// checkpoint: a dangling temp file is ignored (restore the checkpoint,
/// replay the suffix), a damaged newer checkpoint file is refused.
#[test]
fn damaged_checkpoint_is_refused_and_dangling_tmp_ignored() {
    let db = spec();
    let run = |tag: &str, damage: &dyn Fn(&Path)| {
        let dir = fresh_dir(&format!("fault-{tag}"));
        let mut rng = FastRng::seed_from(53);
        let engine = Bohm::start(durable_cfg(&dir), catalog_of(&db));
        let prefix: Vec<Txn> = (0..120).map(|_| gen_txn(&mut rng)).collect();
        let mut outcomes = engine.execute_sync(prefix.clone());
        engine.checkpoint().expect("first checkpoint");
        let mid: Vec<Txn> = (0..80).map(|_| gen_txn(&mut rng)).collect();
        outcomes.extend(engine.execute_sync(mid.clone()));
        engine.shutdown();
        damage(&dir);
        (dir, rng, prefix, mid, outcomes)
    };

    // Crash before rename: a dangling temp file. Recovery never even
    // considers it.
    let (dir, mut rng, prefix, mid, mut outcomes) = run("dangling-tmp", &|dir| {
        std::fs::write(dir.join("chk-00000099.tmp"), b"half a checkpoint").unwrap();
    });
    let (recovered, replayed) =
        Bohm::recover(durable_cfg(&dir), catalog_of(&db)).expect("recover past the temp file");
    assert_eq!(
        replayed.len(),
        mid.len(),
        "the checkpoint covers the prefix"
    );
    let all: Vec<Txn> = prefix.iter().chain(&mid).cloned().collect();
    let res = check_serial_equivalence(&db, &all, &outcomes, |rid| recovered.read_u64(rid));
    res.unwrap_or_else(|e| panic!("recovery diverged: {e:?}"));
    // Continue: more work, a checkpoint, and one more recovery — which now
    // replays nothing.
    let tail: Vec<Txn> = (0..60).map(|_| gen_txn(&mut rng)).collect();
    outcomes.extend(recovered.execute_sync(tail.clone()));
    recovered.checkpoint().expect("second checkpoint");
    recovered.shutdown();
    let (again, replayed) =
        Bohm::recover(durable_cfg(&dir), catalog_of(&db)).expect("final recover");
    assert_eq!(replayed.len(), 0, "fresh checkpoint covers all work");
    let all: Vec<Txn> = all.iter().chain(&tail).cloned().collect();
    let res = check_serial_equivalence(&db, &all, &outcomes, |rid| again.read_u64(rid));
    again.shutdown();
    res.unwrap_or_else(|e| panic!("post-checkpoint recovery diverged: {e:?}"));
    std::fs::remove_dir_all(&dir).unwrap();

    // A "newer" checkpoint that is a truncated copy of the valid one. The
    // writer never renames a torn file into place, so this is damage, and
    // the valid older file must not be used instead.
    let (dir, ..) = run("torn-file", &|dir| {
        let valid = checkpoint_files(dir)
            .pop()
            .expect("a valid checkpoint exists");
        let bytes = std::fs::read(valid).unwrap();
        std::fs::write(dir.join("chk-00000099.ckp"), &bytes[..bytes.len() - 5]).unwrap();
    });
    assert_refused(&dir, &db, "torn-file");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Bit rot in the only checkpoint: the log before it is gone, so
/// restoring any older state — or none — would silently lose the work it
/// covered. Recovery must refuse.
#[test]
fn bitrot_in_the_newest_checkpoint_is_refused_not_skipped() {
    let db = spec();
    let dir = fresh_dir("bitrot");
    let mut rng = FastRng::seed_from(71);
    let engine = Bohm::start(durable_cfg(&dir), catalog_of(&db));
    engine.execute_sync((0..120).map(|_| gen_txn(&mut rng)).collect());
    engine.checkpoint().expect("first checkpoint");
    engine.execute_sync((0..80).map(|_| gen_txn(&mut rng)).collect());
    let stats = engine.checkpoint().expect("second checkpoint");
    engine.shutdown();

    let files = checkpoint_files(&dir);
    assert_eq!(
        files.len(),
        1,
        "only the newest checkpoint is kept: {files:?}"
    );
    let newest = dir.join(format!("chk-{:08}.ckp", stats.epoch));
    assert_eq!(files[0], newest);
    let mut bytes = std::fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(&newest, &bytes).unwrap();
    assert_refused(&dir, &db, "bitrot");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A BOHM engine whose replay notes, each time it asks for the next logged
/// batch, how many of the batches it sealed before have not retired yet.
struct Watched {
    engine: Bohm,
    /// Batches in flight at each pull, after the first.
    in_flight: bohm_sync::Mutex<Vec<u64>>,
}

impl BatchEngine for Watched {
    type Session<'a> = BohmSession;

    fn name(&self) -> &'static str {
        "watched Bohm"
    }

    fn open_session(&self) -> BohmSession {
        self.engine.session()
    }

    fn read_record(&self, rid: RecordId) -> Option<Value> {
        BatchEngine::read_record(&self.engine, rid)
    }

    fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        self.engine.snapshot_records(f)
    }

    fn replay(
        &self,
        batches: impl IntoIterator<Item = LoggedBatch>,
    ) -> std::io::Result<Vec<ExecOutcome>> {
        // One-transaction batches on a fresh engine: batch `k` holds the
        // `k`-th chunk at timestamp `1 + k * stride`, and the GC bound is
        // the timestamp of the newest retired one.
        let stride = BohmConfig::default().batch_size as u64;
        let mut batches = batches.into_iter();
        let mut sealed = 0u64;
        let pulls = std::iter::from_fn(|| {
            if sealed > 0 {
                let bound = self.engine.gc_bound();
                let retired = if bound == 0 {
                    0
                } else {
                    (bound - 1) / stride + 1
                };
                self.in_flight.lock().push(sealed - retired);
            }
            sealed += 1;
            batches.next()
        });
        self.engine.replay(pulls)
    }
}

/// A restore keeps many chunks in flight: replay asks for the next chunk
/// as soon as it has sealed one, not once it has retired. Sixty-four
/// 512-record chunks, one per batch, fill the eight-batch ring on a 1 + 1
/// thread engine; a replay that waited for each chunk before sealing the
/// next would find none in flight at any pull.
#[test]
fn a_restore_pipelines_its_chunks_instead_of_waiting_for_each_to_retire() {
    use bohm_suite::common::checkpoint::{restore_into, Checkpoint};
    const CHUNKS: u64 = 64;
    const ROWS: u64 = CHUNKS * 512;
    let catalog = CatalogSpec::new().table(ROWS, 8, |r| r);
    let watched = Watched {
        engine: Bohm::start(BohmConfig::with_threads(1, 1), catalog),
        in_flight: Default::default(),
    };
    let ckp = Checkpoint {
        epoch: 1,
        records: (0..ROWS)
            .map(|r| {
                let data: Box<[u8]> = (3 * r + 1).to_le_bytes().into();
                (RecordId::new(0, r), data)
            })
            .collect(),
    };
    restore_into(&ckp, &watched).unwrap();
    let in_flight = watched.in_flight.into_inner();
    assert_eq!(
        in_flight.len() as u64,
        CHUNKS,
        "one pull per chunk, and the end"
    );
    assert!(
        in_flight.iter().any(|&n| n > 1),
        "replay never had two chunks in flight; in flight at each pull: {in_flight:?}"
    );
    let engine = watched.engine;
    for r in (0..ROWS).step_by(97).chain([ROWS - 1]) {
        assert_eq!(engine.read_u64(RecordId::new(0, r)), Some(3 * r + 1));
    }
    engine.shutdown();
}

#[test]
fn recovery_reports_how_long_each_phase_took() {
    let dir = fresh_dir("phases");
    let db = spec();
    let mut rng = FastRng::seed_from(37);
    let engine = Bohm::start(durable_cfg(&dir), catalog_of(&db));
    for round in 0..20 {
        if round == 10 {
            engine.checkpoint().expect("checkpoint");
        }
        engine.execute_sync((0..10).map(|_| gen_txn(&mut rng)).collect());
    }
    engine.shutdown();
    // `Bohm::recover` keeps the report to itself: recover a memory-only
    // engine through the routine it runs.
    let fresh = Bohm::start(BohmConfig::with_threads(2, 2), catalog_of(&db));
    let durability = durable_cfg(&dir).durability.expect("durable");
    let t0 = std::time::Instant::now();
    let recovered = durable::recover(&fresh, &durability).expect("recover");
    let wall = t0.elapsed();
    let r = recovered.report;
    assert!(r.checkpoint_epoch.is_some() && r.txns_replayed > 0);
    let phases = [r.read_log, r.restore, r.replay, r.open_log];
    assert!(
        phases.iter().all(|p| !p.is_zero()),
        "a phase went unrecorded: {r:?}"
    );
    let sum: std::time::Duration = phases.iter().sum();
    assert!(
        sum <= wall,
        "phases sum to {sum:?}, more than the {wall:?} the call took"
    );
    drop(recovered);
    fresh.shutdown();
    std::fs::remove_dir_all(&dir).unwrap();
}
