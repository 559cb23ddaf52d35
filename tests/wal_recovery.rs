//! Durability end-to-end: torn-write tolerance and kill-and-recover
//! equivalence.
//!
//! The write-ahead log's contract (see `common::wal`) is that whatever
//! prefix of the workload reached the log survives a crash *exactly*:
//! replaying the log through a fresh engine rebuilds the identical
//! state, per-transaction outcomes included. These tests attack both
//! halves of that claim:
//!
//! * the **torn-write property test** truncates a valid log at every
//!   byte offset of its final record and asserts replay recovers
//!   exactly the batches before it — never panicking, never inventing
//!   or losing an earlier batch;
//! * the **kill-and-recover test** SIGKILLs a live engine mid-workload
//!   (a re-exec of this test binary), replays its log into a fresh
//!   engine, and checks every commit decision, every read fingerprint,
//!   and the complete final state against the serial oracle.

use bohm_suite::common::engine::{BatchEngine as _, ExecOutcome};
use bohm_suite::common::rng::FastRng;
use bohm_suite::common::wal::{self, DurabilityConfig, FsyncPolicy, LogSink as _, Wal};
use bohm_suite::common::{stress_iters, Procedure, RecordId, ScanRange, SmallBankProc, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::testkit::check_serial_equivalence;
use bohm_suite::workloads::{DatabaseSpec, TableDef};
use std::path::{Path, PathBuf};

const ROWS: u64 = 128;

/// Savings + checking + an insert/delete scratch table with spare slots.
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
        TableDef {
            rows: ROWS,
            spare_rows: ROWS,
            record_size: 16,
            seed: |r| r,
            growable: true,
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

/// Deterministic mixed workload: RMW, SmallBank, spare-slot inserts,
/// guarded deletes and range scans — every set shape the log encodes.
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
    let d = std::env::temp_dir().join(format!("bohm-walrec-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

/// Batches must decode identically, field for field.
fn assert_batches_eq(got: &[wal::LoggedBatch], want: &[wal::LoggedBatch]) {
    assert_eq!(got.len(), want.len());
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.epoch, w.epoch);
        assert_eq!(g.txns.len(), w.txns.len());
        for (a, b) in g.txns.iter().zip(&w.txns) {
            assert_eq!(a.proc, b.proc);
            assert_eq!(&a.reads[..], &b.reads[..]);
            assert_eq!(&a.writes[..], &b.writes[..]);
            assert_eq!(&a.scans[..], &b.scans[..]);
            assert_eq!(&a.index_scans[..], &b.index_scans[..]);
        }
    }
}

#[test]
fn torn_write_at_every_offset_recovers_exact_prefix() {
    let dir = fresh_dir("torn");
    let mut cfg = DurabilityConfig::new(&dir);
    cfg.fsync = FsyncPolicy::Off;
    let wal = Wal::open(&cfg).unwrap();
    // A handful of batches of varying size; record each record's end
    // offset so every truncation point of the *final* record is known.
    let mut rng = FastRng::seed_from(42);
    let mut batches = Vec::new();
    let mut ends = Vec::new();
    for epoch in 0..4u64 {
        let txns: Vec<Txn> = (0..(3 + epoch * 2)).map(|_| gen_txn(&mut rng)).collect();
        wal.log_batch(epoch, &mut txns.iter()).unwrap();
        ends.push(wal.log_bytes());
        batches.push(wal::LoggedBatch {
            epoch,
            txns,
            outcomes: None,
        });
    }
    wal.sync().unwrap();
    drop(wal);
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "seg"))
        .unwrap();
    let full = std::fs::read(&seg).unwrap();
    assert_eq!(full.len() as u64, *ends.last().unwrap());
    assert_batches_eq(&Wal::read_log(&dir).unwrap(), &batches);
    // Truncate the last record at EVERY byte offset: mid-header,
    // mid-checksum, every payload byte. Replay must hand back exactly
    // the three preceding batches each time.
    let last_start = ends[ends.len() - 2] as usize;
    let scratch = fresh_dir("torn-scratch");
    std::fs::create_dir_all(&scratch).unwrap();
    let scratch_seg = scratch.join(seg.file_name().unwrap());
    for cut in last_start..full.len() {
        std::fs::write(&scratch_seg, &full[..cut]).unwrap();
        let log = Wal::read_log(&scratch)
            .unwrap_or_else(|e| panic!("cut at byte {cut}: read_log errored: {e}"));
        assert_eq!(log.len(), batches.len() - 1, "cut at byte {cut}");
        assert_batches_eq(&log, &batches[..batches.len() - 1]);
    }
    // Sanity: a cut even inside the magic is a legal (empty) torn log.
    for cut in 0..8 {
        std::fs::write(&scratch_seg, &full[..cut]).unwrap();
        assert!(Wal::read_log(&scratch).unwrap().is_empty(), "cut {cut}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

#[test]
fn a_damaged_segment_header_is_refused_and_left_alone() {
    // A torn write can only leave a file shorter than its header. One
    // flipped byte in a full-length header is damage (or another format
    // version), so every reader refuses, and nothing deletes the records
    // behind it.
    let dir = fresh_dir("bad-header");
    let wal = Wal::open(&DurabilityConfig::new(&dir)).unwrap();
    let mut rng = FastRng::seed_from(3);
    for epoch in 0..3u64 {
        let txns: Vec<Txn> = (0..4).map(|_| gen_txn(&mut rng)).collect();
        wal.log_batch(epoch, &mut txns.iter()).unwrap();
    }
    drop(wal);
    let seg = dir.join("wal-00000000.seg");
    let mut bytes = std::fs::read(&seg).unwrap();
    bytes[0] ^= 0x01;
    std::fs::write(&seg, &bytes).unwrap();
    let refused = |what: &str, err: std::io::Error| {
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}: {err}");
        assert!(err.to_string().contains("\"COHMWAL"), "{what}: {err}");
    };
    refused("read_log", Wal::read_log(&dir).unwrap_err());
    refused(
        "Wal::open",
        Wal::open(&DurabilityConfig::new(&dir)).unwrap_err(),
    );
    let mut cfg = BohmConfig::with_threads(1, 1);
    cfg.durability = Some(DurabilityConfig::new(&dir));
    refused(
        "Bohm::recover",
        Bohm::recover(cfg, catalog_of(&spec()))
            .map(|_| ())
            .unwrap_err(),
    );
    assert_eq!(
        std::fs::read(&seg).unwrap(),
        bytes,
        "segment left as it was"
    );
    let files = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(files, 1, "no segment created or removed");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recover_then_continue_on_same_dir_matches_oracle_across_two_crashes() {
    // The full crash → recover → continue lifecycle, on ONE directory:
    // run, crash with a torn tail, `Bohm::recover` (same dir), run more
    // work, crash again, recover again. The final log must hold the
    // surviving prefix plus the continuation exactly once each — a
    // recovery that re-logged its replayed prefix would double-apply it
    // here — and the rebuilt state must match the serial oracle.
    let dir = fresh_dir("continue");
    let cfg = || {
        let mut c = BohmConfig::with_threads(2, 2);
        let mut d = DurabilityConfig::new(&dir);
        d.fsync = FsyncPolicy::Off;
        c.durability = Some(d);
        c
    };
    let db = spec();
    let mut rng = FastRng::seed_from(77);
    // Phase 1: 30 submissions of 10 → 30 log records, then tear the tail.
    let engine = Bohm::start(cfg(), catalog_of(&db));
    for _ in 0..30 {
        let txns: Vec<Txn> = (0..10).map(|_| gen_txn(&mut rng)).collect();
        engine.execute_sync(txns);
    }
    engine.shutdown();
    let seg = dir.join("wal-00000000.seg");
    let full = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &full[..full.len() - 7]).unwrap();
    let prefix: Vec<Txn> = Wal::read_log(&dir)
        .unwrap()
        .iter()
        .flat_map(|b| b.txns.iter().cloned())
        .collect();
    // The tear drops exactly the final record; that record holds at
    // most one 10-txn submission (an idle seal may have split one, never
    // merged two — each submission waits for completion).
    assert!(
        (290..300).contains(&prefix.len()),
        "tear should drop only the final record, got {} txns",
        prefix.len()
    );
    // Phase 2: recover on the same dir, continue with fresh work, crash
    // again (this time without a tear — shutdown syncs the tail).
    let (engine, outcomes) = Bohm::recover(cfg(), catalog_of(&db)).expect("recover");
    assert_eq!(outcomes.len(), prefix.len());
    let continuation: Vec<Txn> = (0..150).map(|_| gen_txn(&mut rng)).collect();
    engine.execute_sync(continuation.clone());
    engine.shutdown();
    // Phase 3: recover once more; the log is prefix + continuation, each
    // applied exactly once, and the state matches the serial oracle.
    let all: Vec<Txn> = prefix.iter().chain(&continuation).cloned().collect();
    let (engine, outcomes) = Bohm::recover(cfg(), catalog_of(&db)).expect("second recover");
    assert_eq!(
        outcomes.len(),
        all.len(),
        "replayed prefix must not have been re-logged by recovery"
    );
    let outcomes: Vec<ExecOutcome> = outcomes
        .iter()
        .map(|o| ExecOutcome {
            committed: o.committed,
            fingerprint: o.fingerprint,
            cc_retries: 0,
        })
        .collect();
    let res = check_serial_equivalence(&db, &all, &outcomes, |rid| engine.read_u64(rid));
    engine.shutdown();
    res.expect("twice-recovered state diverged from the serial oracle");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Env var carrying the log dir into the re-exec'd child; when unset
/// (the normal test run) the child body is a no-op.
const CHILD_ENV: &str = "BOHM_WAL_KILL_CHILD_DIR";

/// Child body of the kill-and-recover test: run the workload against a
/// WAL-enabled engine until killed. Runs only under re-exec.
#[test]
fn kill_and_recover_child_runs_until_killed() {
    let Ok(dir) = std::env::var(CHILD_ENV) else {
        return;
    };
    let mut cfg = BohmConfig::with_threads(2, 2);
    let mut d = DurabilityConfig::new(&dir);
    // A SIGKILL leaves the page cache intact: an unsynced log loses nothing.
    d.fsync = FsyncPolicy::Off;
    cfg.durability = Some(d);
    let engine = Bohm::start(cfg, catalog_of(&spec()));
    let session = engine.session();
    let mut rng = FastRng::seed_from(1234);
    let mut pending = std::collections::VecDeque::new();
    // Far more work than the parent lets us finish; SIGKILL ends this.
    for _ in 0..200_000_000u64 {
        pending.push_back(session.submit(gen_txn(&mut rng)));
        if pending.len() > 512 {
            pending.pop_front().unwrap().wait();
        }
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

#[test]
fn kill_and_recover_matches_serial_oracle() {
    let dir = fresh_dir("kill");
    let exe = std::env::current_exe().unwrap();
    let mut child = std::process::Command::new(exe)
        .args(["kill_and_recover_child_runs_until_killed", "--exact"])
        .env(CHILD_ENV, &dir)
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .spawn()
        .expect("re-exec test binary");
    // Let it log a meaningful amount of work, then SIGKILL mid-flight —
    // no shutdown, no final sync, very likely a torn tail record.
    let min_bytes = kill_threshold();
    let grew = wait_for_log_growth(&dir, min_bytes);
    child.kill().expect("SIGKILL the child");
    let _ = child.wait();
    assert!(
        grew,
        "child never produced {min_bytes} bytes of log within 30 s"
    );

    let log = Wal::read_log(&dir).expect("post-crash log must read back");
    let txns: Vec<Txn> = log.iter().flat_map(|b| b.txns.iter().cloned()).collect();
    assert!(
        txns.len() > 1000,
        "expected a substantial logged prefix, got {} txns",
        txns.len()
    );
    // Replay through a fresh, memory-only engine and hold the rebuilt
    // world to the serial oracle: commit decisions, fingerprints, and
    // the complete final state.
    let db = spec();
    let engine = Bohm::start(BohmConfig::with_threads(2, 2), catalog_of(&db));
    let outcomes = engine.replay(log).expect("input-only log");
    assert_eq!(outcomes.len(), txns.len());
    let res = check_serial_equivalence(&db, &txns, &outcomes, |rid| engine.read_u64(rid));
    engine.shutdown();
    res.expect("replayed state diverged from the serial oracle");
    std::fs::remove_dir_all(&dir).unwrap();
}
