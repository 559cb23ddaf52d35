//! The capacity rule of range scans: a scan past a table's declared
//! capacity is a programming error on the array-backed engines (2PL, OCC,
//! Hekaton, SI) and the serial oracle, which panic naming the capacity,
//! while BOHM's hash index reads the rows past the preload as ordinarily
//! absent.

use bohm_bench::engines::EngineKind;
use bohm_common::engine::{BatchEngine, Session};
use bohm_common::{range_audit_fingerprint, Procedure, ScanRange, Txn};
use bohm_suite::testkit::SerialOracle;
use bohm_suite::workloads::{DatabaseSpec, TableDef};

const ROWS: u64 = 32;

fn spec() -> DatabaseSpec {
    DatabaseSpec::new(vec![TableDef {
        rows: ROWS,
        spare_rows: 0,
        record_size: 8,
        seed: |r| r,
    }])
}

/// Audits rows 24..40 of a 32-row table whose row `r` holds `r`.
fn scan_past_capacity() -> Txn {
    Txn::with_scans(
        vec![],
        vec![],
        vec![ScanRange::new(0, 24, ROWS + 8)],
        Procedure::RangeAudit { expect_base: 0 },
    )
}

/// The message `f` panics with; fails the test if it returns.
fn panic_message(what: &str, f: impl FnOnce()) -> String {
    let err = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
        Err(e) => e,
        Ok(()) => panic!("{what}: scanned past the table's capacity without panicking"),
    };
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn scans_past_capacity_panic_on_array_engines_and_read_absent_on_bohm() {
    let spec = spec();
    let want = format!("beyond table capacity {ROWS}");
    for kind in [
        EngineKind::Tpl,
        EngineKind::Occ,
        EngineKind::Hekaton,
        EngineKind::Si,
    ] {
        let engine = kind.build(&spec, 2);
        let mut session = engine.open_session();
        let msg = panic_message(kind.name(), || session.submit(scan_past_capacity()));
        assert!(msg.contains(&want), "{}: got {msg:?}", kind.name());
    }
    let mut oracle = SerialOracle::new(&spec);
    let msg = panic_message("oracle", || {
        oracle.apply(&scan_past_capacity());
    });
    assert!(msg.contains(&want), "oracle: got {msg:?}");

    // BOHM: rows 24..32 are present and rows 32..40 absent, so the audit
    // sees one consistent window of 8 rows.
    let engine = EngineKind::Bohm.build(&spec, 2);
    let mut session = engine.open_session();
    session.submit(scan_past_capacity());
    let out = session.reap();
    assert!(out.committed);
    assert_eq!(out.fingerprint, range_audit_fingerprint(8, 24));
    drop(session);
    engine.shutdown();
}
