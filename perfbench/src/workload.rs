//! The four benchmark workloads. Names are fixed: later issues cite them.
//!
//! A workload is a database spec plus a seeded transaction generator per
//! session. Generators receive only a seed (derived from `--seed`, the
//! engine-independent stream id, the round and the session index), so
//! every engine sees the same inputs and the same seed reproduces them.

use bohm_common::rng::FastRng;
use bohm_common::Txn;
use bohm_workloads::micro::{MicroConfig, MicroGen};
use bohm_workloads::tpcc::{TpccConfig, TpccGen};
use bohm_workloads::ycsb::{YcsbConfig, YcsbGen, YcsbKind};
use bohm_workloads::{DatabaseSpec, TxnGen};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    MicroRmw10,
    YcsbHot2Rmw8R,
    YcsbLongReadMix,
    TpccMix,
}

pub struct Workload {
    pub kind: Kind,
    pub name: &'static str,
    /// One line for `BENCHMARK.json` (≤ 200 characters).
    pub why: &'static str,
    /// Open-loop offered rate, txn/s: half of BOHM's closed-loop median on
    /// the reference host when the benchmark was defined, two digits,
    /// **frozen** so both sides of a later comparison see one schedule.
    pub offered_rate: f64,
    /// Length of the fixed-count durable stream (`wal_bytes_per_txn`,
    /// `recover_s`): about half a second of BOHM's durable throughput.
    pub stream_txns: usize,
    /// Every transaction only adds 1 to the u64 prefix of each record it
    /// writes, so Σ(record − seed) must equal the committed write count.
    pub sum_audit: bool,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        kind: Kind::MicroRmw10,
        name: "micro_rmw10",
        why: "Paper 4.1/Fig.4: 1M x 8 B records, 10 uniform RMWs. No payload, so per-transaction \
              fixed costs (ingest, repack, handoff, install, GC, completion; locks and TIDs) do \
              all the work.",
        offered_rate: 52_000.0,
        stream_txns: 50_000,
        sum_audit: true,
    },
    Workload {
        kind: Kind::YcsbHot2Rmw8R,
        name: "ycsb_hot_2rmw8r",
        why: "Paper 4.2.2/Fig.7 right edge: 200k x 1000 B, theta 0.9, 2 RMW + 8 reads. Read \
              annotation, dependency waits and payload copies dominate; OCC/Hekaton aborts and \
              2PL lock waits appear.",
        offered_rate: 66_000.0,
        stream_txns: 50_000,
        sum_audit: true,
    },
    Workload {
        kind: Kind::YcsbLongReadMix,
        name: "ycsb_longread_mix",
        why: "Paper 4.2.3/Fig.8: same table, uniform, 99% 10RMW + 1% read-only txns of 10,000 \
              reads. Reads bypass annotation and walk chains beside writers; handoff cost is \
              negligible here.",
        offered_rate: 8_200.0,
        stream_txns: 6_000,
        sum_audit: true,
    },
    Workload {
        kind: Kind::TpccMix,
        name: "tpcc_mix",
        why: "TPC-C-lite, 4 warehouses: inserts, deletes, range and secondary-index scans, \
              tombstones and key GC, which the YCSB family never enters; small and \
              cache-resident.",
        offered_rate: 140_000.0,
        stream_txns: 200_000,
        sum_audit: false,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The issue's table: 200,000 × 1000 B (a fifth of the paper's million
/// rows, so four engines preload inside the time cap; 200 MB is still far
/// beyond the CPU caches).
fn ycsb(theta: f64) -> YcsbConfig {
    YcsbConfig {
        records: 200_000,
        record_size: 1_000,
        theta,
        read_only_len: 10_000,
        // The long-read mix is stratified by `LongReadMix`, not drawn here.
        read_only_fraction: 0.0,
    }
}

/// The `ycsb_longread_mix` stream: 99% 10RMW, 1% long read-only — exactly
/// one long read at a seeded position in every block of 100 transactions.
/// `YcsbGen::mixed` draws the kind independently per transaction, which
/// makes the *number* of long reads in a window (they are four fifths of
/// the work) vary by ±10% from seed to seed; stratifying keeps the mix and
/// removes that input noise from every throughput and log-size number.
struct LongReadMix {
    rmw: YcsbGen,
    long_read: YcsbGen,
    rng: FastRng,
    at: u64,
    long_at: u64,
}

const MIX_BLOCK: u64 = 100;

impl LongReadMix {
    fn new(seed: u64) -> Self {
        let cfg = ycsb(0.0);
        Self {
            rmw: YcsbGen::new(&cfg, YcsbKind::Rmw10, seed),
            long_read: YcsbGen::new(&cfg, YcsbKind::ReadOnly, seed ^ 0x5DEE_CE66),
            rng: FastRng::seed_from(seed ^ 0x1234_5678_9ABC_DEF0),
            at: 0,
            long_at: 0,
        }
    }
}

impl TxnGen for LongReadMix {
    fn next_txn(&mut self) -> Txn {
        if self.at == 0 {
            self.long_at = self.rng.below(MIX_BLOCK);
        }
        let long = self.at == self.long_at;
        self.at = (self.at + 1) % MIX_BLOCK;
        if long {
            self.long_read.next_txn()
        } else {
            self.rmw.next_txn()
        }
    }
}

/// SplitMix64 finalizer: spreads `(seed, stream, session)` over the seed
/// space so neighbouring seeds give unrelated streams.
fn mix(seed: u64, stream: u64, session: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(session.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Which phase a generator feeds; phases on separate engine instances
/// get separate streams.
#[derive(Clone, Copy, Debug)]
pub enum Stream {
    /// Warm-up, closed-loop and open-loop windows of one engine instance.
    Main = 1,
    /// The fixed 20,000-transaction cross-engine equivalence stream.
    Equivalence = 2,
    /// Closed-loop windows with the WAL on.
    Durable = 3,
    /// The fixed-count stream whose log is recovered.
    Recovery = 4,
}

impl Workload {
    pub fn spec(&self) -> DatabaseSpec {
        match self.kind {
            Kind::MicroRmw10 => MicroConfig::default().spec(),
            Kind::YcsbHot2Rmw8R => ycsb(0.9).spec(),
            Kind::YcsbLongReadMix => ycsb(0.0).spec(),
            Kind::TpccMix => TpccConfig::default().spec(),
        }
    }

    /// Session `session`'s generator for `stream` in round `round` (each
    /// round measures a fresh engine instance with fresh inputs). On
    /// `tpcc_mix` the session index is also the generator's order-table
    /// stripe, so the generators of one engine instance insert into
    /// disjoint ranges.
    pub fn generator(
        &self,
        seed: u64,
        stream: Stream,
        round: usize,
        session: usize,
    ) -> Box<dyn TxnGen> {
        let s = mix(seed, stream as u64, (round * 64 + session) as u64);
        match self.kind {
            Kind::MicroRmw10 => Box::new(MicroGen::new(MicroConfig::default(), s)),
            Kind::YcsbHot2Rmw8R => Box::new(YcsbGen::new(&ycsb(0.9), YcsbKind::Rmw2Read8, s)),
            Kind::YcsbLongReadMix => Box::new(LongReadMix::new(s)),
            Kind::TpccMix => Box::new(TpccGen::new(TpccConfig::default(), s, session as u64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One transaction as (rows read then written, declared writes).
    type Shape = (Vec<u64>, usize);

    fn shape(w: &Workload, seed: u64, stream: Stream, session: usize) -> Vec<Shape> {
        shape_in(w, seed, stream, 0, session)
    }

    fn shape_in(
        w: &Workload,
        seed: u64,
        stream: Stream,
        round: usize,
        session: usize,
    ) -> Vec<Shape> {
        let mut g = w.generator(seed, stream, round, session);
        (0..300)
            .map(|_| {
                let t = g.next_txn();
                (
                    t.reads
                        .iter()
                        .chain(t.writes.iter())
                        .map(|r| r.row)
                        .collect(),
                    t.writes.len(),
                )
            })
            .collect()
    }

    #[test]
    fn same_seed_same_stream() {
        for w in &WORKLOADS {
            assert_eq!(
                shape(w, 7, Stream::Main, 0),
                shape(w, 7, Stream::Main, 0),
                "{}",
                w.name
            );
        }
    }

    #[test]
    fn seed_stream_and_session_all_change_the_stream() {
        for w in &WORKLOADS {
            let base = shape(w, 7, Stream::Main, 0);
            assert_ne!(base, shape(w, 8, Stream::Main, 0), "{} seed", w.name);
            assert_ne!(base, shape(w, 7, Stream::Durable, 0), "{} stream", w.name);
            assert_ne!(base, shape(w, 7, Stream::Main, 1), "{} session", w.name);
            assert_ne!(base, shape_in(w, 7, Stream::Main, 1, 0), "{} round", w.name);
        }
    }

    #[test]
    fn transaction_shapes_match_the_workload_descriptions() {
        let count = |name: &str, pred: &dyn Fn(&Shape) -> bool| {
            let w = find(name).unwrap();
            shape(w, 1, Stream::Main, 0)
                .iter()
                .filter(|t| pred(t))
                .count()
        };
        assert_eq!(count("micro_rmw10", &|t| t.0.len() == 20 && t.1 == 10), 300);
        assert_eq!(
            count("ycsb_hot_2rmw8r", &|t| t.0.len() == 12 && t.1 == 2),
            300
        );
        let long = count("ycsb_longread_mix", &|t| t.0.len() == 10_000 && t.1 == 0);
        let rmw = count("ycsb_longread_mix", &|t| t.0.len() == 20 && t.1 == 10);
        assert_eq!((long, rmw), (3, 297), "exactly one long read per 100");
    }

    #[test]
    fn names_are_unique_and_whys_fit_the_contract() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(!w.why.contains('\n'));
            assert!(WORKLOADS[i + 1..].iter().all(|o| o.name != w.name));
            assert!(find(w.name).is_some());
            assert!(w.offered_rate > 0.0 && w.stream_txns > 0);
        }
        assert!(find("nope").is_none());
    }

    #[test]
    fn sum_audit_workloads_seed_what_the_audit_assumes() {
        for w in WORKLOADS.iter().filter(|w| w.sum_audit) {
            assert_eq!(w.spec().tables.len(), 1, "{}: one table", w.name);
        }
    }
}
