//! SmallBank workload (paper §4.3; Cahill, PhD thesis 2009).
//!
//! Tables: `Customer` (id → customer id; never updated — the name→id
//! lookup is represented by the id itself, which is why the table carries
//! no transactional traffic, exactly as in the paper where "none of the
//! transactions update the customer table"), `Savings` and `Checking`
//! (id → balance). Each of the five procedures runs on 1-3 rows; every
//! transaction spins for 50 µs (§4.3: "each transaction spins for 50
//! microseconds in addition to performing the logic of the transaction").
//! Contention is controlled by the number of customers (50 = high
//! contention, 100,000 = low).

use crate::spec::{DatabaseSpec, TableDef};
use crate::TxnGen;
use bohm_common::rng::FastRng;
use bohm_common::{Procedure, RecordId, SmallBankProc, Txn};

/// Dense table ids of the SmallBank schema.
pub mod tables {
    pub const CUSTOMER: u32 = 0;
    pub const SAVINGS: u32 = 1;
    pub const CHECKING: u32 = 2;
}

/// Workload parameters.
#[derive(Clone, Debug)]
pub struct SmallBankConfig {
    /// Number of customers — the paper's contention knob (50 vs 100,000).
    pub customers: u64,
    /// Per-transaction busy-spin, µs (paper: 50).
    pub think_us: u32,
    /// Initial balance of every savings and checking account.
    pub initial_balance: u64,
}

impl Default for SmallBankConfig {
    fn default() -> Self {
        Self {
            customers: 100_000,
            think_us: 50,
            initial_balance: 10_000,
        }
    }
}

impl SmallBankConfig {
    pub fn spec(&self) -> DatabaseSpec {
        // 8-byte records (paper: "each record in the Savings and Checking
        // tables is 8 bytes long").
        DatabaseSpec::new(vec![
            TableDef {
                rows: self.customers,
                spare_rows: 0,
                record_size: 8,
                seed: |row| row,
            },
            TableDef {
                rows: self.customers,
                spare_rows: 0,
                record_size: 8,
                seed: |_| 10_000,
            },
            TableDef {
                rows: self.customers,
                spare_rows: 0,
                record_size: 8,
                seed: |_| 10_000,
            },
        ])
    }
}

fn savings(c: u64) -> RecordId {
    RecordId::new(tables::SAVINGS, c)
}

fn checking(c: u64) -> RecordId {
    RecordId::new(tables::CHECKING, c)
}

/// Build each SmallBank transaction with the positional layout the
/// [`SmallBankProc`] procedures expect.
pub fn balance(c: u64, think_us: u32) -> Txn {
    let mut t = Txn::new(
        vec![savings(c), checking(c)],
        vec![],
        Procedure::SmallBank(SmallBankProc::Balance),
    );
    t.think_us = think_us;
    t
}

pub fn deposit_checking(c: u64, v: u64, think_us: u32) -> Txn {
    let mut t = Txn::new(
        vec![checking(c)],
        vec![checking(c)],
        Procedure::SmallBank(SmallBankProc::DepositChecking { v }),
    );
    t.think_us = think_us;
    t
}

pub fn transact_saving(c: u64, v: i64, think_us: u32) -> Txn {
    let mut t = Txn::new(
        vec![savings(c)],
        vec![savings(c)],
        Procedure::SmallBank(SmallBankProc::TransactSaving { v }),
    );
    t.think_us = think_us;
    t
}

pub fn amalgamate(c0: u64, c1: u64, think_us: u32) -> Txn {
    let mut t = Txn::new(
        vec![savings(c0), checking(c0), checking(c1)],
        vec![savings(c0), checking(c0), checking(c1)],
        Procedure::SmallBank(SmallBankProc::Amalgamate),
    );
    t.think_us = think_us;
    t
}

pub fn write_check(c: u64, v: u64, think_us: u32) -> Txn {
    let mut t = Txn::new(
        vec![savings(c), checking(c)],
        vec![checking(c)],
        Procedure::SmallBank(SmallBankProc::WriteCheck { v }),
    );
    t.think_us = think_us;
    t
}

/// Per-thread SmallBank transaction generator (even 20% mix).
pub struct SmallBankGen {
    cfg: SmallBankConfig,
    rng: FastRng,
}

impl SmallBankGen {
    pub fn new(cfg: SmallBankConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: FastRng::seed_from(seed),
        }
    }

    fn customer(&mut self) -> u64 {
        self.rng.below(self.cfg.customers)
    }
}

impl TxnGen for SmallBankGen {
    fn next_txn(&mut self) -> Txn {
        let c = self.customer();
        let think = self.cfg.think_us;
        match self.rng.below(5) {
            0 => balance(c, think),
            1 => deposit_checking(c, 1 + self.rng.below(100), think),
            2 => {
                // Mostly deposits, some withdrawals (which may abort).
                let v = self.rng.below(200) as i64 - 80;
                transact_saving(c, v, think)
            }
            3 => {
                let mut c1 = self.customer();
                while c1 == c && self.cfg.customers > 1 {
                    c1 = self.customer();
                }
                amalgamate(c, c1, think)
            }
            _ => write_check(c, 1 + self.rng.below(100), think),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_has_three_tables_of_eight_bytes() {
        let s = SmallBankConfig::default().spec();
        assert_eq!(s.tables.len(), 3);
        assert!(s.tables.iter().all(|t| t.record_size == 8));
        assert_eq!(s.tables[0].rows, 100_000);
    }

    #[test]
    fn layouts_match_procedure_conventions() {
        let t = balance(3, 0);
        assert_eq!(t.reads, vec![savings(3), checking(3)]);
        assert!(t.writes.is_empty());

        let t = deposit_checking(3, 5, 0);
        assert_eq!(t.reads, vec![checking(3)]);
        assert_eq!(t.writes, vec![checking(3)]);

        let t = transact_saving(3, -5, 0);
        assert_eq!(t.reads, vec![savings(3)]);
        assert_eq!(t.writes, vec![savings(3)]);

        let t = amalgamate(1, 2, 0);
        assert_eq!(t.reads, vec![savings(1), checking(1), checking(2)]);
        assert_eq!(t.writes, t.reads);

        let t = write_check(4, 9, 0);
        assert_eq!(t.reads, vec![savings(4), checking(4)]);
        assert_eq!(t.writes, vec![checking(4)]);
    }

    #[test]
    fn mix_is_roughly_even() {
        let mut g = SmallBankGen::new(
            SmallBankConfig {
                customers: 1000,
                think_us: 0,
                initial_balance: 100,
            },
            42,
        );
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            let t = g.next_txn();
            let idx = match t.proc {
                Procedure::SmallBank(SmallBankProc::Balance) => 0,
                Procedure::SmallBank(SmallBankProc::DepositChecking { .. }) => 1,
                Procedure::SmallBank(SmallBankProc::TransactSaving { .. }) => 2,
                Procedure::SmallBank(SmallBankProc::Amalgamate) => 3,
                Procedure::SmallBank(SmallBankProc::WriteCheck { .. }) => 4,
                _ => panic!("non-SmallBank txn generated"),
            };
            counts[idx] += 1;
        }
        for &c in &counts {
            assert!((1_700..2_300).contains(&c), "skewed mix: {counts:?}");
        }
    }

    #[test]
    fn amalgamate_customers_differ() {
        let mut g = SmallBankGen::new(
            SmallBankConfig {
                customers: 2,
                think_us: 0,
                initial_balance: 100,
            },
            7,
        );
        for _ in 0..200 {
            let t = g.next_txn();
            if let Procedure::SmallBank(SmallBankProc::Amalgamate) = t.proc {
                assert_ne!(t.reads[0].row, t.reads[2].row);
            }
        }
    }

    #[test]
    fn think_time_is_propagated() {
        let mut g = SmallBankGen::new(SmallBankConfig::default(), 1);
        assert_eq!(g.next_txn().think_us, 50);
    }
}
