//! The §4.1 concurrency-control stress microbenchmark.
//!
//! "Short, simple transactions, involving only 10 RMWs of different
//! records … each record contains a single 64-bit integer attribute, and
//! the modification is a simple increment … 1,000,000 records, chosen from
//! a uniform distribution."

use crate::spec::{DatabaseSpec, TableDef};
use crate::TxnGen;
use bohm_common::rng::FastRng;
use bohm_common::{Procedure, RecordId, Txn};

#[derive(Clone, Debug)]
pub struct MicroConfig {
    pub records: u64,
    pub rmws_per_txn: usize,
}

impl Default for MicroConfig {
    fn default() -> Self {
        Self {
            records: 1_000_000,
            rmws_per_txn: 10,
        }
    }
}

impl MicroConfig {
    pub fn spec(&self) -> DatabaseSpec {
        DatabaseSpec::new(vec![TableDef {
            rows: self.records,
            spare_rows: 0,
            record_size: 8,
            seed: |_| 0,
        }])
    }
}

/// Per-thread generator of uniform distinct-key RMW transactions.
pub struct MicroGen {
    cfg: MicroConfig,
    rng: FastRng,
    keybuf: Vec<u64>,
}

impl MicroGen {
    pub fn new(cfg: MicroConfig, seed: u64) -> Self {
        Self {
            cfg,
            rng: FastRng::seed_from(seed),
            keybuf: Vec::with_capacity(16),
        }
    }
}

impl TxnGen for MicroGen {
    fn next_txn(&mut self) -> Txn {
        self.keybuf.clear();
        while self.keybuf.len() < self.cfg.rmws_per_txn {
            let k = self.rng.below(self.cfg.records);
            if !self.keybuf.contains(&k) {
                self.keybuf.push(k);
            }
        }
        let rids: Vec<RecordId> = self.keybuf.iter().map(|&k| RecordId::new(0, k)).collect();
        Txn::new(rids.clone(), rids, Procedure::ReadModifyWrite { delta: 1 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn txn_shape() {
        let mut g = MicroGen::new(
            MicroConfig {
                records: 1000,
                rmws_per_txn: 10,
            },
            1,
        );
        for _ in 0..50 {
            let t = g.next_txn();
            assert_eq!(t.reads.len(), 10);
            assert_eq!(t.reads, t.writes);
            assert_eq!(t.access_count(), 20);
            let mut keys: Vec<u64> = t.reads.iter().map(|r| r.row).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 10);
        }
    }

    #[test]
    fn spec_is_8_byte_records() {
        let s = MicroConfig::default().spec();
        assert_eq!(s.tables[0].record_size, 8);
        assert_eq!(s.total_rows(), 1_000_000);
    }

    #[test]
    fn distribution_is_uniform() {
        let mut g = MicroGen::new(
            MicroConfig {
                records: 100,
                rmws_per_txn: 2,
            },
            9,
        );
        let mut counts = [0u32; 10];
        for _ in 0..10_000 {
            for r in &g.next_txn().reads {
                counts[(r.row / 10) as usize] += 1;
            }
        }
        let (min, max) = (
            *counts.iter().min().unwrap() as f64,
            *counts.iter().max().unwrap() as f64,
        );
        assert!(max / min < 1.2, "not uniform: {counts:?}");
    }
}
