//! TPC-C-lite on all five engines: a growing database, audited.
//!
//! Runs the same seeded NewOrder/Payment/OrderStatus stream through BOHM
//! and the four baselines, then audits each engine against the serial
//! oracle: per-transaction read fingerprints (including "order not found"
//! probes), the number of order records inserted, and customer→warehouse
//! money conservation.
//!
//! ```sh
//! cargo run --release --example tpcc_demo
//! ```

use bohm_bench::engines::EngineKind;
use bohm_common::engine::BatchEngine;
use bohm_common::{RecordId, Txn};
use bohm_suite::testkit::{engine_row_count, SerialOracle};
use bohm_suite::workloads::tpcc::{tables, TpccConfig, TpccGen};
use bohm_suite::workloads::TxnGen;

const TXNS: usize = 5_000;

fn main() {
    let cfg = TpccConfig {
        warehouses: 2,
        districts_per_warehouse: 4,
        customers_per_district: 32,
        order_capacity: 1 << 13,
        order_stripes: 1,
        delivery_batch: 4,
        orders_per_customer: 64,
        think_us: 0,
    };
    let spec = cfg.spec();

    let mut gen = TpccGen::new(cfg.clone(), 42, 0);
    let txns: Vec<Txn> = (0..TXNS).map(|_| gen.next_txn()).collect();

    // Serial ground truth.
    let mut oracle = SerialOracle::new(&spec);
    let want: Vec<_> = txns.iter().map(|t| oracle.apply(t)).collect();
    let want_orders = oracle.row_count(tables::ORDER as usize);
    println!(
        "stream: {TXNS} txns, {} orders created, {} delivered (deleted), {} live",
        gen.orders_created(),
        gen.orders_delivered(),
        want_orders
    );

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        let outcomes = engine.run_stream(&txns);
        engine.quiesce();

        let mismatches = outcomes
            .iter()
            .zip(&want)
            .filter(|(got, want)| {
                (got.committed, got.fingerprint) != (want.committed, want.fingerprint)
            })
            .count();
        let orders = engine_row_count(&spec.tables[tables::ORDER as usize], tables::ORDER, |rid| {
            engine.read_u64(rid)
        });
        let cust_total: u64 = (0..cfg.customers())
            .map(|c| engine.read_u64(RecordId::new(tables::CUSTOMER, c)).unwrap())
            .fold(0u64, |a, v| a.wrapping_add(v));
        let wh_total: u64 = (0..cfg.warehouses)
            .map(|w| {
                engine
                    .read_u64(RecordId::new(tables::WAREHOUSE, w))
                    .unwrap()
            })
            .fold(0u64, |a, v| a.wrapping_add(v));
        let conserved = (100_000u64 * cfg.customers()).wrapping_sub(cust_total) == wh_total;

        println!(
            "{:>8}: fingerprint mismatches {}, orders live {} (want {}), money {}",
            kind.name(),
            mismatches,
            orders,
            want_orders,
            if conserved { "conserved" } else { "LEAKED" },
        );
        assert_eq!(mismatches, 0, "{} diverged from the oracle", kind.name());
        assert_eq!(orders, want_orders, "{} lost inserts", kind.name());
        assert!(conserved, "{} leaked money", kind.name());
        engine.shutdown();
    }
    println!("all five engines agree with the serial oracle on a growing database");
}
