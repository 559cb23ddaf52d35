//! YCSB workload (paper §4.2).
//!
//! One table of `records` rows, each `record_size` bytes (the paper uses
//! 1,000,000 × 1,000 B). Keys are drawn from the Gray et al. zipfian with
//! parameter θ (θ = 0 → uniform / low contention, θ = 0.9 → high
//! contention), and each transaction's keys are **distinct** (§4.2.1).

use crate::spec::{DatabaseSpec, TableDef};
use crate::TxnGen;
use bohm_common::rng::FastRng;
use bohm_common::zipf::Zipf;
use bohm_common::{Procedure, RecordId, Txn};

/// Which YCSB transaction a generator produces.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum YcsbKind {
    /// 10 read-modify-writes (§4.2.1).
    Rmw10,
    /// 2 RMWs + 8 reads (§4.2.2).
    Rmw2Read8,
    /// Long read-only transaction over `read_only_len` records, drawn
    /// uniformly (§4.2.3).
    ReadOnly,
}

/// Static workload parameters.
#[derive(Clone, Debug)]
pub struct YcsbConfig {
    pub records: u64,
    pub record_size: usize,
    pub theta: f64,
    /// Records touched by one long read-only transaction (paper: 10,000).
    pub read_only_len: usize,
    /// Fraction of [`YcsbKind::ReadOnly`] transactions in a mixed stream
    /// (Figs. 8/9); the rest are low-contention 10RMW updates.
    pub read_only_fraction: f64,
}

impl Default for YcsbConfig {
    fn default() -> Self {
        Self {
            records: 1_000_000,
            record_size: 1_000,
            theta: 0.0,
            read_only_len: 10_000,
            read_only_fraction: 0.0,
        }
    }
}

impl YcsbConfig {
    pub fn spec(&self) -> DatabaseSpec {
        DatabaseSpec::new(vec![TableDef {
            rows: self.records,
            spare_rows: 0,
            record_size: self.record_size,
            seed: |row| row,
        }])
    }
}

/// Per-thread YCSB transaction generator.
pub struct YcsbGen {
    kind: YcsbKind,
    zipf: Zipf,
    rng: FastRng,
    read_only_len: usize,
    read_only_fraction: f64,
    keybuf: Vec<u64>,
}

impl YcsbGen {
    pub fn new(cfg: &YcsbConfig, kind: YcsbKind, seed: u64) -> Self {
        Self {
            kind,
            zipf: Zipf::new(cfg.records, cfg.theta),
            rng: FastRng::seed_from(seed),
            read_only_len: cfg.read_only_len,
            read_only_fraction: cfg.read_only_fraction,
            keybuf: Vec::with_capacity(16),
        }
    }

    /// A mixed-stream generator for the long-read-only experiment
    /// (Fig. 8): `read_only_fraction` read-only transactions, the rest
    /// low-contention 10RMW updates.
    pub fn mixed(cfg: &YcsbConfig, seed: u64) -> Self {
        Self::new(cfg, YcsbKind::Rmw10, seed) // kind used for the update side
    }

    fn gen_rmw10(&mut self) -> Txn {
        self.zipf
            .sample_distinct(&mut self.rng, 10, &mut self.keybuf);
        let rids: Vec<RecordId> = self.keybuf.iter().map(|&k| RecordId::new(0, k)).collect();
        Txn::new(rids.clone(), rids, Procedure::ReadModifyWrite { delta: 1 })
    }

    fn gen_2rmw8r(&mut self) -> Txn {
        self.zipf
            .sample_distinct(&mut self.rng, 10, &mut self.keybuf);
        let rids: Vec<RecordId> = self.keybuf.iter().map(|&k| RecordId::new(0, k)).collect();
        let writes = rids[..2].to_vec();
        Txn::new(rids, writes, Procedure::ReadModifyWrite { delta: 1 })
    }

    fn gen_read_only(&mut self) -> Txn {
        // Uniform draws; distinctness over 10,000-of-1,000,000 is not
        // enforced (duplicates are ~0.5% and harmless to every engine).
        let n = self.zipf.n();
        let reads: Vec<RecordId> = (0..self.read_only_len)
            .map(|_| RecordId::new(0, self.rng.below(n)))
            .collect();
        Txn::new(reads, vec![], Procedure::ReadOnly)
    }
}

impl TxnGen for YcsbGen {
    fn next_txn(&mut self) -> Txn {
        if self.read_only_fraction > 0.0 && self.rng.chance(self.read_only_fraction) {
            return self.gen_read_only();
        }
        match self.kind {
            YcsbKind::Rmw10 => self.gen_rmw10(),
            YcsbKind::Rmw2Read8 => self.gen_2rmw8r(),
            YcsbKind::ReadOnly => self.gen_read_only(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(theta: f64) -> YcsbConfig {
        YcsbConfig {
            records: 10_000,
            record_size: 100,
            theta,
            read_only_len: 50,
            read_only_fraction: 0.0,
        }
    }

    #[test]
    fn rmw10_shape() {
        let mut g = YcsbGen::new(&cfg(0.0), YcsbKind::Rmw10, 1);
        for _ in 0..100 {
            let t = g.next_txn();
            assert_eq!(t.reads.len(), 10);
            assert_eq!(t.writes.len(), 10);
            assert_eq!(t.reads, t.writes);
            let mut keys: Vec<u64> = t.reads.iter().map(|r| r.row).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(keys.len(), 10, "keys must be distinct");
        }
    }

    #[test]
    fn rmw2r8_shape() {
        let mut g = YcsbGen::new(&cfg(0.9), YcsbKind::Rmw2Read8, 2);
        for _ in 0..100 {
            let t = g.next_txn();
            assert_eq!(t.reads.len(), 10);
            assert_eq!(t.writes.len(), 2);
            assert!(t.writes.iter().all(|w| t.reads.contains(w)));
        }
    }

    #[test]
    fn read_only_shape() {
        let mut g = YcsbGen::new(&cfg(0.0), YcsbKind::ReadOnly, 3);
        let t = g.next_txn();
        assert_eq!(t.reads.len(), 50);
        assert!(t.writes.is_empty());
        assert!(t.is_read_only());
    }

    #[test]
    fn mixed_stream_respects_fraction() {
        let mut c = cfg(0.0);
        c.read_only_fraction = 0.25;
        let mut g = YcsbGen::mixed(&c, 4);
        let ro = (0..4000).filter(|_| g.next_txn().is_read_only()).count();
        let frac = ro as f64 / 4000.0;
        assert!((frac - 0.25).abs() < 0.05, "frac = {frac}");
    }

    #[test]
    fn determinism_per_seed() {
        let mut a = YcsbGen::new(&cfg(0.9), YcsbKind::Rmw10, 7);
        let mut b = YcsbGen::new(&cfg(0.9), YcsbKind::Rmw10, 7);
        for _ in 0..50 {
            assert_eq!(a.next_txn().reads, b.next_txn().reads);
        }
    }

    #[test]
    fn high_theta_concentrates_keys() {
        let mut g = YcsbGen::new(&cfg(0.9), YcsbKind::Rmw10, 8);
        let mut hot = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            for r in &g.next_txn().reads {
                total += 1;
                if r.row < 100 {
                    hot += 1;
                }
            }
        }
        assert!(hot as f64 / total as f64 > 0.2);
    }

    #[test]
    fn spec_matches_config() {
        let s = cfg(0.0).spec();
        assert_eq!(s.total_rows(), 10_000);
        assert_eq!(s.tables[0].record_size, 100);
    }
}
