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
//!   dangling temp file — a crash before the rename — is ignored.

use bohm_suite::common::engine::ExecOutcome;
use bohm_suite::common::rng::FastRng;
use bohm_suite::common::wal::{DurabilityConfig, FsyncPolicy};
use bohm_suite::common::{Procedure, RecordId, SmallBankProc, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
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

fn to_exec(outs: &[bohm_suite::core::TxnOutcome]) -> Vec<ExecOutcome> {
    outs.iter()
        .map(|o| ExecOutcome {
            committed: o.committed,
            fingerprint: o.fingerprint,
            cc_retries: 0,
        })
        .collect()
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
        outcomes.extend(to_exec(&engine.execute_sync(txns.clone())));
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
        outcomes.extend(to_exec(&engine.execute_sync(txns.clone())));
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
        to_exec(&replayed),
        &outcomes[all.len() - suffix_len..],
        "replayed decisions must match the live run"
    );
    let res = check_serial_equivalence(&db, &all, &outcomes, |rid| recovered.read_u64(rid));
    recovered.shutdown();
    res.expect("checkpointed recovery diverged from the serial oracle");
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
        let mut outcomes = to_exec(&engine.execute_sync(prefix.clone()));
        engine.checkpoint().expect("first checkpoint");
        let mid: Vec<Txn> = (0..80).map(|_| gen_txn(&mut rng)).collect();
        outcomes.extend(to_exec(&engine.execute_sync(mid.clone())));
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
    outcomes.extend(to_exec(&recovered.execute_sync(tail.clone())));
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
