//! Cross-engine equivalence on the TPC-C-lite workload: all five engines
//! vs. the serial oracle on a seeded NewOrder/Payment/Delivery/OrderStatus
//! mix.
//!
//! This is the end-to-end audit of the record *lifecycle*: every engine
//! must produce oracle-identical per-transaction fingerprints (including
//! the absence fingerprints of OrderStatus probes that race inserts and
//! deletes in the log), an oracle-identical final state across the order
//! table's *capacity* (missing inserts, phantom inserts, missing deletes
//! and phantom deletes all diverge), identical live-row counts, genuine
//! slot reuse after delivery, and correct rollback of aborted deletes.

use bohm_bench::engines::EngineKind;
use bohm_common::engine::{BatchEngine, ExecOutcome, Session};
use bohm_common::{RecordId, Txn, ABSENT_FINGERPRINT};
use bohm_suite::testkit::{check_serial_equivalence, engine_row_count, SerialOracle};
use bohm_suite::workloads::tpcc::{self, tables, TpccConfig, TpccGen};
use bohm_suite::workloads::TxnGen;

fn small_cfg() -> TpccConfig {
    TpccConfig {
        warehouses: 2,
        districts_per_warehouse: 2,
        customers_per_district: 16,
        order_capacity: 4096,
        order_stripes: 1, // single generator: no wrap within the test sizes
        delivery_batch: 4,
        orders_per_customer: 64,
        unbounded_orders: false,
        think_us: 0,
    }
}

#[test]
fn all_engines_match_serial_oracle_on_tpcc_mix() {
    let cfg = small_cfg();
    let spec = cfg.spec();
    let mut gen = TpccGen::new(cfg.clone(), 0xC0FFEE, 0);
    let n = bohm_common::stress_iters(1_500) as usize;
    let txns: Vec<Txn> = (0..n).map(|_| gen.next_txn()).collect();
    assert!(
        gen.orders_created() > n as u64 / 4,
        "mix must be insert-heavy"
    );
    assert!(gen.orders_delivered() > 0, "mix must exercise deletes");
    assert!(
        txns.iter().any(|t| !t.scans.is_empty()),
        "mix must exercise range scans (OrderHistory)"
    );

    // Oracle row count for the order table, computed once.
    let mut oracle = SerialOracle::new(&spec);
    for t in &txns {
        oracle.apply(t);
    }
    let oracle_orders = oracle.row_count(tables::ORDER as usize);
    assert_eq!(
        oracle_orders,
        gen.orders_live(),
        "oracle inserts every order once and deletes every delivered one"
    );

    // The stream itself interleaves CustomerStatus index scans whose
    // fingerprints are compared transaction-for-transaction above; this
    // final sweep additionally audits the **complete** customer→orders
    // mapping: one index scan per customer, against the oracle's.
    let index_audit: Vec<Txn> = (0..cfg.customers())
        .map(|g| {
            let (w, d, c) = cfg.customer_coords(g);
            tpcc::customer_status(&cfg, w, d, c)
        })
        .collect();
    let want_audit: Vec<ExecOutcome> = index_audit.iter().map(|t| oracle.apply(t)).collect();
    assert!(
        txns.iter().any(|t| !t.index_scans.is_empty()),
        "mix must exercise secondary-index scans (CustomerStatus)"
    );

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        let outcomes = engine.run_stream(&txns);
        engine.quiesce();
        check_serial_equivalence(&spec, &txns, &outcomes, |rid| engine.read_u64(rid))
            .unwrap_or_else(|e| panic!("{} diverged from serial oracle: {e}", kind.name()));
        let got_orders =
            engine_row_count(&spec.tables[tables::ORDER as usize], tables::ORDER, |rid| {
                engine.read_u64(rid)
            });
        assert_eq!(
            got_orders,
            oracle_orders,
            "{}: live-order count diverged",
            kind.name()
        );
        // The delivery cursor audits the delete stream end to end.
        assert_eq!(
            engine.read_u64(RecordId::new(tables::DELIVERY, 0)),
            Some(gen.orders_delivered()),
            "{}: delivery cursor diverged",
            kind.name()
        );
        // Index audit: every customer's index scan reproduces the oracle's
        // customer→orders mapping (members, payloads and cardinality are
        // all fingerprint-visible).
        let got_audit = engine.run_stream(&index_audit);
        for (g, (got, want)) in got_audit.iter().zip(&want_audit).enumerate() {
            assert!(got.committed);
            assert_eq!(
                got.fingerprint,
                want.fingerprint,
                "{}: customer {g}'s index scan diverged from the oracle mapping",
                kind.name()
            );
        }
        engine.shutdown();
    }
}

#[test]
fn read_of_never_inserted_key_is_absent_on_every_engine() {
    // The satellite regression: a probe of an order slot nothing ever
    // inserted must report absence — the same fingerprint as the oracle —
    // on all five engines, not a stale or invented value (and must not
    // panic or livelock on engines whose index lacks the key entirely).
    let cfg = small_cfg();
    let spec = cfg.spec();
    let never = cfg.order_capacity - 1;
    let probe = tpcc::order_status(&cfg, 0, 0, 0, never);

    let mut oracle = SerialOracle::new(&spec);
    let want = oracle.apply(&probe);
    assert!(want.committed);
    // Customer seed is 100_000 cents.
    assert_eq!(
        want.fingerprint,
        100_000u64.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT)
    );

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 2);
        let mut session = engine.open_session();
        session.submit(probe.clone());
        let out = session.reap();
        assert!(out.committed, "{}", kind.name());
        assert_eq!(
            out.fingerprint,
            want.fingerprint,
            "{}: absent read fingerprint diverged",
            kind.name()
        );
        engine.quiesce();
        assert_eq!(
            engine.read_u64(RecordId::new(tables::ORDER, never)),
            None,
            "{}: probed slot must stay absent",
            kind.name()
        );
        engine.shutdown();
    }
}

#[test]
fn order_insert_then_status_probe_round_trips_on_every_engine() {
    let cfg = small_cfg();
    let spec = cfg.spec();
    // NewOrder inserting order row 7, then OrderStatus probing it, as one
    // submitted stream — plus a probe of the *next* (absent) slot.
    let txns = vec![
        tpcc::new_order(&cfg, 1, 1, 3, 7, 5),
        tpcc::order_status(&cfg, 1, 1, 3, 7),
        tpcc::order_status(&cfg, 1, 1, 3, 8),
    ];
    let mut oracle = SerialOracle::new(&spec);
    let want: Vec<ExecOutcome> = txns.iter().map(|t| oracle.apply(t)).collect();
    assert_ne!(want[1].fingerprint, want[2].fingerprint);

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 2);
        let outcomes = engine.run_stream(&txns);
        for (i, (got, want)) in outcomes.iter().zip(&want).enumerate() {
            assert_eq!(
                (got.committed, got.fingerprint),
                (want.committed, want.fingerprint),
                "{} txn {i}",
                kind.name()
            );
        }
        engine.quiesce();
        // The inserted order encodes (customer balance read, line count):
        // every customer is seeded with 100_000, and the NewOrder carried
        // 5 lines.
        let row = engine.read_u64(RecordId::new(tables::ORDER, 7));
        assert_eq!(
            row,
            Some(100_000u64.wrapping_mul(1_000).wrapping_add(5)),
            "{}: order payload",
            kind.name()
        );
        engine.shutdown();
    }
}

#[test]
fn delivery_deletes_then_slot_reuse_round_trips_on_every_engine() {
    // The lifecycle script: insert order row 7 → deliver (delete) it →
    // probe it (absent, the read-after-delete check) → insert row 7 again
    // (slot reuse: the delivered slot is genuinely recyclable) → probe it
    // (present). Scripted, so all five engines replay the identical log.
    let cfg = small_cfg();
    let spec = cfg.spec();
    // Customer (w=1,d=1,c=3) is global row 51: the first order's index key.
    let txns = vec![
        tpcc::new_order(&cfg, 1, 1, 3, 7, 5),
        tpcc::delivery(&cfg, 0, 7, 1, &[51]),
        tpcc::order_status(&cfg, 1, 1, 3, 7),
        tpcc::new_order(&cfg, 0, 0, 1, 7, 2),
        tpcc::order_status(&cfg, 1, 1, 3, 7),
    ];
    let mut oracle = SerialOracle::new(&spec);
    let want: Vec<ExecOutcome> = txns.iter().map(|t| oracle.apply(t)).collect();
    assert!(want.iter().all(|o| o.committed));
    // The post-delete probe observes absence; the post-reuse probe does not.
    let absent_fp = 100_000u64.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT);
    assert_eq!(want[2].fingerprint, absent_fp);
    assert_ne!(want[4].fingerprint, absent_fp);
    assert_eq!(
        oracle.row_count(tables::ORDER as usize),
        1,
        "one live order"
    );

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        let outcomes = engine.run_stream(&txns);
        for (i, (got, want)) in outcomes.iter().zip(&want).enumerate() {
            assert_eq!(
                (got.committed, got.fingerprint),
                (want.committed, want.fingerprint),
                "{} txn {i}",
                kind.name()
            );
        }
        engine.quiesce();
        // Reused slot holds the *second* order's payload (customer seeded
        // 100_000, 2 lines).
        assert_eq!(
            engine.read_u64(RecordId::new(tables::ORDER, 7)),
            Some(100_000u64.wrapping_mul(1_000).wrapping_add(2)),
            "{}: recycled slot payload",
            kind.name()
        );
        assert_eq!(
            engine.read_u64(RecordId::new(tables::DELIVERY, 0)),
            Some(1),
            "{}: delivery cursor",
            kind.name()
        );
        engine.shutdown();
    }
}

#[test]
fn order_history_scan_round_trips_on_every_engine() {
    // The scripted scan lifecycle: scan an empty window, grow it with two
    // NewOrders, deliver (delete) the older one, and re-scan after each
    // step. Every engine must reproduce the serial oracle's membership
    // (and fingerprint) at each position of the log — inserts and deletes
    // inside the scanned window are ordered against the scans, never
    // phantoms.
    let cfg = small_cfg();
    let spec = cfg.spec();
    let history = || tpcc::order_history(&cfg, 1, 1, 3, 5, 12);
    let txns = vec![
        history(),
        tpcc::new_order(&cfg, 1, 1, 3, 7, 5),
        history(),
        tpcc::new_order(&cfg, 0, 0, 1, 9, 2),
        history(),
        tpcc::delivery(&cfg, 0, 7, 1, &[51]), // row 7 belongs to customer 51
        history(),
    ];
    let mut oracle = SerialOracle::new(&spec);
    let want: Vec<ExecOutcome> = txns.iter().map(|t| oracle.apply(t)).collect();
    assert!(want.iter().all(|o| o.committed));
    // Sanity on the oracle itself: all four scans differ (0, {7}, {7,9},
    // {9} are four distinct memberships).
    let fps: Vec<u64> = [0, 2, 4, 6].iter().map(|&i| want[i].fingerprint).collect();
    for i in 0..4 {
        for j in i + 1..4 {
            assert_ne!(fps[i], fps[j], "scan memberships must be distinct");
        }
    }

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        let outcomes = engine.run_stream(&txns);
        for (i, (got, want)) in outcomes.iter().zip(&want).enumerate() {
            assert_eq!(
                (got.committed, got.fingerprint),
                (want.committed, want.fingerprint),
                "{} txn {i}",
                kind.name()
            );
        }
        engine.shutdown();
    }
}

#[test]
fn customer_index_scan_round_trips_on_every_engine() {
    // The scripted secondary-index lifecycle: scan an empty customer, grow
    // their posting set with NewOrders, insert an order for a *different*
    // customer (index selectivity: the scan must not see it), deliver one
    // order (delete + unindex), re-scanning after each step. Every engine
    // must reproduce the serial oracle's customer→orders mapping — and
    // fingerprint — at each position of the log.
    let cfg = small_cfg();
    let spec = cfg.spec();
    let status = || tpcc::customer_status(&cfg, 1, 1, 3); // customer 51
    let txns = vec![
        status(),                             // 0: {}
        tpcc::new_order(&cfg, 1, 1, 3, 7, 5), // cust 51 gains row 7
        status(),                             // 2: {7}
        tpcc::new_order(&cfg, 1, 1, 3, 9, 2), // cust 51 gains row 9
        status(),                             // 4: {7, 9}
        tpcc::new_order(&cfg, 0, 0, 1, 8, 1), // cust 1 gains row 8
        status(),                             // 6: still {7, 9} — selective
        tpcc::customer_status(&cfg, 0, 0, 1), // 7: cust 1 sees {8}
        tpcc::delivery(&cfg, 0, 7, 1, &[51]), // row 7 delivered
        status(),                             // 9: {9}
    ];
    let mut oracle = SerialOracle::new(&spec);
    let want: Vec<ExecOutcome> = txns.iter().map(|t| oracle.apply(t)).collect();
    assert!(want.iter().all(|o| o.committed));
    // Oracle sanity: the four distinct memberships of customer 51 plus
    // customer 1's scan are five distinct fingerprints; the off-customer
    // insert changes nothing for customer 51.
    let fps = [0, 2, 4, 9].map(|i| want[i].fingerprint);
    for i in 0..4 {
        for j in i + 1..4 {
            assert_ne!(fps[i], fps[j], "index memberships must be distinct");
        }
    }
    assert_eq!(
        want[4].fingerprint, want[6].fingerprint,
        "another customer's insert must be invisible to this index key"
    );

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        let outcomes = engine.run_stream(&txns);
        for (i, (got, want)) in outcomes.iter().zip(&want).enumerate() {
            assert_eq!(
                (got.committed, got.fingerprint),
                (want.committed, want.fingerprint),
                "{} txn {i}",
                kind.name()
            );
        }
        engine.quiesce();
        // Posting-list counts are part of the final state: customer 51
        // holds one live order, customer 1 holds one.
        assert_eq!(
            engine.read_u64(RecordId::new(tables::CUSTOMER_ORDERS, 51)),
            Some(1),
            "{}: customer 51 posting count",
            kind.name()
        );
        assert_eq!(
            engine.read_u64(RecordId::new(tables::CUSTOMER_ORDERS, 1)),
            Some(1),
            "{}: customer 1 posting count",
            kind.name()
        );
        engine.shutdown();
    }
}

#[test]
fn index_key_phantom_hammer_on_every_engine() {
    // The index-key concurrency audit: a writer churns one customer's
    // posting set (B NewOrders, then one Delivery consuming all B) while
    // CustomerStatus scanners sweep the same key from other sessions. The
    // only serial states are prefixes of the batch, so any other observed
    // fingerprint is a phantom on the index key; the hammer panics on it.
    use bohm_suite::testkit::index_phantom_hammer;
    let cfg = TpccConfig {
        warehouses: 1,
        districts_per_warehouse: 1,
        customers_per_district: 4,
        order_capacity: 4, // one stripe ring == one delivery batch
        order_stripes: 1,
        delivery_batch: 4,
        orders_per_customer: 8,
        unbounded_orders: false,
        think_us: 0,
    };
    let spec = cfg.spec();
    let rounds = bohm_common::stress_iters(150);
    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        index_phantom_hammer(&engine, &cfg, rounds);
        engine.quiesce();
        // The final Delivery leaves the customer with no live orders and
        // an empty posting list.
        assert_eq!(
            engine.read_u64(RecordId::new(tables::CUSTOMER_ORDERS, 0)),
            Some(0),
            "{}: posting list must end empty",
            kind.name()
        );
        for row in 0..4 {
            assert_eq!(
                engine.read_u64(RecordId::new(tables::ORDER, row)),
                None,
                "{}: order row {row} must end absent",
                kind.name()
            );
        }
        engine.shutdown();
    }
}

#[test]
fn two_range_scan_phantom_hammer_on_every_engine() {
    // The multi-range mode of the phantom hammer: each scan transaction
    // declares the churned window as TWO adjacent ranges, so both ranges
    // must observe the same serial point — a transaction seeing the window
    // materialized through one range and dissolved through the other
    // fingerprints as a partial count or gap and panics.
    use bohm_suite::testkit::phantom_hammer_ranges;
    let cfg = small_cfg();
    let spec = cfg.spec();
    let guard = RecordId::new(tables::CUSTOMER, 0); // seeded 100_000 ≥ 0
    let rounds = bohm_common::stress_iters(150);
    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        phantom_hammer_ranges(&engine, guard, tables::ORDER, 8, 6, rounds, 2);
        engine.quiesce();
        for row in 8..14 {
            assert_eq!(
                engine.read_u64(RecordId::new(tables::ORDER, row)),
                None,
                "{}: window row {row} must end absent",
                kind.name()
            );
        }
        engine.shutdown();
    }
}

#[test]
fn scan_vs_insert_phantom_hammer_on_every_engine() {
    // The concurrency audit: a writer atomically materializes/dissolves a
    // whole order-table window while scanners sweep it from other
    // sessions. Serializability demands every scan observe all of the
    // window or none of it; the hammer panics on any partial observation.
    use bohm_suite::testkit::phantom_hammer;
    let cfg = small_cfg();
    let spec = cfg.spec();
    let guard = RecordId::new(tables::CUSTOMER, 0); // seeded 100_000 ≥ 0
    let rounds = bohm_common::stress_iters(150);
    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 4);
        phantom_hammer(&engine, guard, tables::ORDER, 8, 6, rounds);
        engine.quiesce();
        // The hammer's final delete leaves the window absent.
        for row in 8..14 {
            assert_eq!(
                engine.read_u64(RecordId::new(tables::ORDER, row)),
                None,
                "{}: window row {row} must end absent",
                kind.name()
            );
        }
        engine.shutdown();
    }
}

#[test]
fn aborted_delete_leaves_row_readable_on_every_engine() {
    // The satellite regression: a transaction that sets out to delete and
    // aborts must leave the row readable and the slot unreclaimed — on
    // in-place engines because the abort is decided before the delete, on
    // versioned/buffered engines because rollback discards the tombstone
    // or buffered delete.
    use bohm_common::Procedure::GuardedDelete;
    let cfg = small_cfg();
    let spec = cfg.spec();
    // Customer balances seed at 100_000; guard against 200_000 ⇒ abort.
    let guard = RecordId::new(tables::CUSTOMER, 0);
    let victim = RecordId::new(tables::CUSTOMER, 5);
    let aborting = Txn::new(vec![guard], vec![victim], GuardedDelete { min: 200_000 });
    let deleting = Txn::new(vec![guard], vec![victim], GuardedDelete { min: 0 });
    let txns = vec![aborting, deleting];
    let mut oracle = SerialOracle::new(&spec);
    let want: Vec<ExecOutcome> = txns.iter().map(|t| oracle.apply(t)).collect();
    assert!(!want[0].committed);
    assert!(want[1].committed);

    for kind in EngineKind::ALL {
        let engine = kind.build(&spec, 2);
        let mut session = engine.open_session();
        session.submit(txns[0].clone());
        let out = session.reap();
        assert!(!out.committed, "{}: guard must abort", kind.name());
        engine.quiesce();
        assert_eq!(
            engine.read_u64(victim),
            Some(100_000),
            "{}: aborted delete must leave the row readable",
            kind.name()
        );
        let live = engine_row_count(
            &spec.tables[tables::CUSTOMER as usize],
            tables::CUSTOMER,
            |rid| engine.read_u64(rid),
        );
        assert_eq!(
            live,
            cfg.customers(),
            "{}: slot must stay unreclaimed after the abort",
            kind.name()
        );
        // The committing delete then works — full state equivalence check.
        session.submit(txns[1].clone());
        assert!(session.reap().committed, "{}", kind.name());
        drop(session);
        engine.quiesce();
        check_serial_equivalence(&spec, &txns, &want, |rid| engine.read_u64(rid))
            .unwrap_or_else(|e| panic!("{} diverged from serial oracle: {e}", kind.name()));
        engine.shutdown();
    }
}

#[test]
fn tpcc_mix_conserves_money_across_engines() {
    // Payment moves `amount` out of a customer and into warehouse+district
    // YTDs; NewOrder/OrderStatus move no money. Invariant per engine:
    // sum(warehouse) + sum(district ytd-part) ... district prefix doubles
    // as the order counter, so only warehouse+customer conservation is
    // checked: initial customer total - final customer total == warehouse
    // total (every cent left a customer iff it landed in a warehouse YTD).
    //
    // Two inputs: one session over the whole mix, and a two-stripe copy of
    // the schema whose stripes are driven by two sessions submitting at the
    // same time, so their Payments race on shared warehouse, district and
    // customer rows.
    for stripes in [1, 2] {
        let cfg = TpccConfig {
            order_stripes: stripes,
            ..small_cfg()
        };
        let spec = cfg.spec();
        let streams: Vec<Vec<Txn>> = (0..stripes)
            .map(|stripe| {
                let mut gen = TpccGen::new(cfg.clone(), 77 + stripe, stripe);
                (0..800).map(|_| gen.next_txn()).collect()
            })
            .collect();
        let initial_cust_total = 100_000u64 * cfg.customers();
        for kind in EngineKind::ALL {
            let engine = kind.build(&spec, 4);
            let start = std::sync::Barrier::new(streams.len());
            std::thread::scope(|s| {
                for stream in &streams {
                    let (engine, start) = (&engine, &start);
                    s.spawn(move || {
                        start.wait();
                        engine.run_stream(stream)
                    });
                }
            });
            engine.quiesce();
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
            assert_eq!(
                initial_cust_total.wrapping_sub(cust_total),
                wh_total,
                "{} with {stripes} session(s): money leaked between customers and warehouses",
                kind.name()
            );
            engine.shutdown();
        }
    }
}
