//! SmallBank on BOHM: the paper's §4.3 banking workload, with an on-line
//! money-conservation audit.
//!
//! Every committed SmallBank transaction changes total money by a known
//! delta (deposits add, checks subtract, transfers/balance conserve), so
//! after draining the pipeline the sum of all balances must equal the
//! initial total plus the sum of committed deltas — a strong end-to-end
//! serializability check.
//!
//! ```sh
//! cargo run --release --example smallbank_demo
//! ```

use bohm_suite::common::{Procedure, RecordId, SmallBankProc};
use bohm_suite::core::{Bohm, BohmConfig, CatalogSpec};
use bohm_suite::workloads::smallbank::{tables, SmallBankConfig, SmallBankGen};
use bohm_suite::workloads::TxnGen;

fn main() {
    let cfg = SmallBankConfig {
        customers: 100, // small bank, high contention
        think_us: 0,    // no spin: this demo measures correctness, not tput
        initial_balance: 10_000,
    };
    let catalog = CatalogSpec::new()
        .table(cfg.customers, 8, |r| r) // Customer (never updated)
        .table(cfg.customers, 8, |_| 10_000) // Savings
        .table(cfg.customers, 8, |_| 10_000); // Checking
    let engine = Bohm::start(BohmConfig::with_threads(2, 4), catalog);

    let initial_total = 2 * cfg.customers as i64 * cfg.initial_balance as i64;
    let mut gen = SmallBankGen::new(cfg.clone(), 2024);

    let mut expected_delta = 0i64;
    let mut committed = 0u64;
    let mut user_aborts = 0u64;
    let mut per_proc = [0u64; 5];

    for _ in 0..50 {
        let txns: Vec<_> = (0..200).map(|_| gen.next_txn()).collect();
        let outcomes = engine.execute_sync(txns.clone());
        for (t, o) in txns.iter().zip(&outcomes) {
            if !o.committed {
                user_aborts += 1;
                continue;
            }
            committed += 1;
            // Track the money delta of each committed procedure.
            match t.proc {
                Procedure::SmallBank(SmallBankProc::Balance) => per_proc[0] += 1,
                Procedure::SmallBank(SmallBankProc::DepositChecking { v }) => {
                    per_proc[1] += 1;
                    expected_delta += v as i64;
                }
                Procedure::SmallBank(SmallBankProc::TransactSaving { v }) => {
                    per_proc[2] += 1;
                    expected_delta += v;
                }
                Procedure::SmallBank(SmallBankProc::Amalgamate) => per_proc[3] += 1,
                Procedure::SmallBank(SmallBankProc::WriteCheck { v }) => {
                    per_proc[4] += 1;
                    // WriteCheck subtracts v, plus a 1-unit overdraft
                    // penalty we cannot see from outside; recompute it from
                    // the fingerprint (= total balance read): penalty iff
                    // v > total.
                    let total_read = o.fingerprint as i64;
                    expected_delta -= v as i64 + i64::from((v as i64) > total_read);
                }
                _ => unreachable!(),
            }
        }
    }

    // Audit: sum savings + checking across all customers.
    let mut actual_total = 0i64;
    for c in 0..cfg.customers {
        actual_total += engine.read_u64(RecordId::new(tables::SAVINGS, c)).unwrap() as i64;
        actual_total += engine.read_u64(RecordId::new(tables::CHECKING, c)).unwrap() as i64;
    }

    println!("SmallBank on BOHM — {} customers", cfg.customers);
    println!("committed:    {committed}");
    println!("user aborts:  {user_aborts} (overdrafts)");
    println!(
        "mix: balance={} deposit={} transact={} amalgamate={} writecheck={}",
        per_proc[0], per_proc[1], per_proc[2], per_proc[3], per_proc[4]
    );
    println!("initial money: {initial_total}");
    println!("expected now:  {}", initial_total + expected_delta);
    println!("actual now:    {actual_total}");
    assert_eq!(
        actual_total,
        initial_total + expected_delta,
        "money conservation violated — serializability bug!"
    );
    println!("audit passed: money is conserved under concurrency");
    engine.shutdown();
}
