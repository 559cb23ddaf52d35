//! Property-style tests: randomized transaction mixes must be serializable
//! on every engine.
//!
//! (Formerly written against `proptest`; the hermetic build has no access
//! to that crate, so the same properties are driven by the workspace's own
//! deterministic [`FastRng`] — every case derives from a printed seed, so a
//! failure message pinpoints the reproducing input.)
//!
//! * BOHM executes the mix concurrently in randomized batch sizes and must
//!   match the serial oracle **in log order** (decisions, fingerprints and
//!   full final state).
//! * Each interactive engine executes the mix from a single worker (its
//!   serial order is then the submission order) and must match the oracle
//!   exactly — this fuzzes every engine's read/write/abort paths.
//! * The lock manager's normalize() is checked against a model.

use bohm_suite::common::engine::{Engine, ExecOutcome};
use bohm_suite::common::rng::FastRng;
use bohm_suite::common::{Procedure, RecordId, SmallBankProc, Txn};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::lockmgr::{LockMode, LockRequest, LockTable};
use bohm_suite::testkit::{check_serial_equivalence, SerialOracle};
use bohm_suite::workloads::{DatabaseSpec, TableDef};

const ROWS: u64 = 12;

// Fewer cases under dev profiles: the BOHM cases spin up real engine
// thread pools and debug builds are ~20× slower per case.
#[cfg(debug_assertions)]
const CASES: u64 = 12;
#[cfg(not(debug_assertions))]
const CASES: u64 = 64;

fn spec() -> DatabaseSpec {
    // Two tables so cross-table addressing is exercised; i64-friendly seeds.
    DatabaseSpec::new(vec![
        TableDef {
            rows: ROWS,
            spare_rows: 0,
            record_size: 8,
            seed: |r| 100 + r,
            growable: false,
        },
        TableDef {
            rows: ROWS,
            spare_rows: 0,
            record_size: 16,
            seed: |r| 50 * r,
            growable: false,
        },
    ])
}

/// One random transaction over the two tables (the old proptest strategy).
fn random_txn(rng: &mut FastRng) -> Txn {
    let mut rids: Vec<RecordId> = (0..1 + rng.below(3))
        .map(|_| RecordId::new(rng.below(2) as u32, rng.below(ROWS)))
        .collect();
    rids.sort_unstable();
    rids.dedup();
    let val = rng.below(64);
    match rng.below(6) {
        0 => Txn::new(rids, vec![], Procedure::ReadOnly),
        1 => Txn::new(vec![], rids, Procedure::BlindWrite { value: val }),
        2 | 3 => Txn::new(
            rids.clone(),
            rids,
            Procedure::ReadModifyWrite { delta: val + 1 },
        ),
        4 => {
            // RMW with extra pure reads: writes = first rid only.
            let w = vec![rids[0]];
            Txn::new(rids, w, Procedure::ReadModifyWrite { delta: val + 1 })
        }
        _ => {
            // TransactSaving-style conditional abort on table 0.
            let c = rids[0].row;
            let sav = RecordId::new(0, c);
            Txn::new(
                vec![sav],
                vec![sav],
                Procedure::SmallBank(SmallBankProc::TransactSaving {
                    v: val as i64 - 120, // often overdrafts (seeds ~100)
                }),
            )
        }
    }
}

fn random_mix(rng: &mut FastRng, max: u64) -> Vec<Txn> {
    (0..1 + rng.below(max)).map(|_| random_txn(rng)).collect()
}

fn catalog_of(spec: &DatabaseSpec) -> CatalogSpec {
    let mut c = CatalogSpec::new();
    for t in &spec.tables {
        c = c.table(t.rows, t.record_size, t.seed);
    }
    c
}

#[test]
fn bohm_random_mix_is_log_order_serializable() {
    for case in 0..CASES {
        let mut rng = FastRng::seed_from(0xB0B0 + case);
        let txns = random_mix(&mut rng, 199);
        let batch = 1 + rng.below(63) as usize;
        let cc = 1 + rng.below(3) as usize;
        let exec = 1 + rng.below(3) as usize;
        let spec = spec();
        let mut cfg = BohmConfig::with_threads(cc, exec);
        cfg.batch_size = batch;
        let engine = Bohm::start(cfg, catalog_of(&spec));
        let outcomes: Vec<_> = engine
            .execute_sync(txns.clone())
            .into_iter()
            .map(|o| ExecOutcome {
                committed: o.committed,
                fingerprint: o.fingerprint,
                cc_retries: 0,
            })
            .collect();
        let res = check_serial_equivalence(&spec, &txns, &outcomes, |rid| engine.read_u64(rid));
        engine.shutdown();
        res.unwrap_or_else(|e| panic!("case {case} (batch={batch} cc={cc} exec={exec}): {e}"));
    }
}

#[test]
fn interactive_engines_match_oracle_single_worker() {
    fn check<E: Engine>(engine: &E, spec: &DatabaseSpec, txns: &[Txn], case: u64) {
        let mut w = engine.make_worker();
        let outcomes: Vec<ExecOutcome> = txns.iter().map(|t| engine.execute(t, &mut w)).collect();
        check_serial_equivalence(spec, txns, &outcomes, |rid| engine.read_u64(rid))
            .unwrap_or_else(|e| panic!("{} case {case}: {e}", Engine::name(engine)));
    }

    for case in 0..CASES {
        let mut rng = FastRng::seed_from(0x1A7E + case);
        let txns = random_mix(&mut rng, 119);
        let spec = spec();

        let mk_sv = || {
            let mut b = bohm_suite::svstore::StoreBuilder::new();
            b.add_table(ROWS as usize, 8);
            b.add_table(ROWS as usize, 16);
            b.seed_u64(0, |r| 100 + r);
            b.seed_u64(1, |r| 50 * r);
            b
        };
        check(
            &bohm_suite::tpl::TwoPhaseLocking::from_builder(mk_sv()),
            &spec,
            &txns,
            case,
        );
        check(
            &bohm_suite::occ::SiloOcc::from_builder(mk_sv()),
            &spec,
            &txns,
            case,
        );

        let mk_hk = || {
            let s = bohm_suite::hekaton::HekatonStore::new(&[(ROWS, 8), (ROWS, 16)]);
            s.seed_u64(0, |r| 100 + r);
            s.seed_u64(1, |r| 50 * r);
            s
        };
        check(
            &bohm_suite::hekaton::Hekaton::serializable(mk_hk()),
            &spec,
            &txns,
            case,
        );
        check(
            &bohm_suite::hekaton::Hekaton::snapshot_isolation(mk_hk()),
            &spec,
            &txns,
            case,
        );
    }
}

#[test]
fn lock_normalize_matches_model() {
    for case in 0..4 * CASES {
        let mut rng = FastRng::seed_from(0x10C0 + case);
        let reqs: Vec<(u64, bool)> = (0..rng.below(24))
            .map(|_| (rng.below(32), rng.below(2) == 1))
            .collect();
        let mut v: Vec<LockRequest> = reqs
            .iter()
            .map(|&(slot, ex)| LockRequest {
                slot,
                mode: if ex {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                },
            })
            .collect();
        LockTable::normalize(&mut v);
        // Model: per-slot strongest mode, sorted by slot.
        let mut model: std::collections::BTreeMap<u64, LockMode> = Default::default();
        for &(slot, ex) in &reqs {
            let m = model.entry(slot).or_insert(LockMode::Shared);
            if ex {
                *m = LockMode::Exclusive;
            }
        }
        let want: Vec<LockRequest> = model
            .into_iter()
            .map(|(slot, mode)| LockRequest { slot, mode })
            .collect();
        assert_eq!(v, want, "case {case}");
    }
}

#[test]
fn oracle_is_deterministic() {
    for case in 0..CASES {
        let mut rng = FastRng::seed_from(0x0AC1E + case);
        let txns = random_mix(&mut rng, 59);
        let spec1 = spec();
        let spec2 = spec();
        let mut o1 = SerialOracle::new(&spec1);
        let mut o2 = SerialOracle::new(&spec2);
        for t in &txns {
            let a = o1.apply(t);
            let b = o2.apply(t);
            assert_eq!(a.committed, b.committed, "case {case}");
            assert_eq!(a.fingerprint, b.fingerprint, "case {case}");
        }
        for table in 0..2u32 {
            for row in 0..ROWS {
                let rid = RecordId::new(table, row);
                assert_eq!(o1.read_u64(rid), o2.read_u64(rid), "case {case}");
            }
        }
    }
}
