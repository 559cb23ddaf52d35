//! Arena equivalence: the batch-arena packing must be semantically
//! invisible.
//!
//! The same deterministic TPC-C-lite stream runs through all five engines
//! and the serial oracle, and every per-transaction fingerprint — folded
//! into one order-sensitive digest per engine — must match the oracle's
//! exactly. The oracle never repacks a transaction's sets into an arena,
//! so oracle-equality proves the sequencer's repacking changes memory
//! layout, not semantics.

use bohm_bench::engines::EngineKind;
use bohm_common::engine::{BatchEngine, ExecOutcome};
use bohm_common::Txn;
use bohm_suite::testkit::{check_serial_equivalence, SerialOracle};
use bohm_suite::workloads::tpcc::{TpccConfig, TpccGen};
use bohm_suite::workloads::TxnGen;

fn cfg() -> TpccConfig {
    TpccConfig {
        warehouses: 2,
        districts_per_warehouse: 2,
        customers_per_district: 16,
        order_capacity: 4096,
        order_stripes: 1,
        delivery_batch: 4,
        orders_per_customer: 64,
        think_us: 0,
    }
}

/// Order-sensitive FNV-1a fold over (committed, fingerprint) pairs: any
/// diverging outcome anywhere in the stream changes the digest.
fn digest(outcomes: &[ExecOutcome]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    let mut mix = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
    };
    for o in outcomes {
        mix(o.committed as u64);
        mix(o.fingerprint);
    }
    h
}

#[test]
fn all_engines_fingerprint_identical_to_oracle() {
    let cfg = cfg();
    let spec = cfg.spec();
    let mut gen = TpccGen::new(cfg, 0xA12E7A, 0);
    let n = bohm_common::stress_iters(1_200) as usize;
    let txns: Vec<Txn> = (0..n).map(|_| gen.next_txn()).collect();
    // The stream must cover every set representation the arena packs:
    // point reads/writes, range scans and secondary-index scans.
    assert!(txns.iter().any(|t| !t.scans.is_empty()));
    assert!(txns.iter().any(|t| !t.index_scans.is_empty()));

    let mut oracle = SerialOracle::new(&spec);
    let want: Vec<ExecOutcome> = txns.iter().map(|t| oracle.apply(t)).collect();
    let want_digest = digest(&want);

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        let got = engine.run_stream(&txns);
        engine.quiesce();
        assert_eq!(
            digest(&got),
            want_digest,
            "{}: outcome stream diverged from the serial oracle",
            kind.name(),
        );
        check_serial_equivalence(&spec, &txns, &got, |rid| engine.read_u64(rid))
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        engine.shutdown();
    }
}
