//! The fixed-duration throughput driver — **one code path for all five
//! engines**.
//!
//! Every engine is driven through the [`BatchEngine`]/[`Session`] facade:
//! `threads` driver threads each open a session, submit transactions from
//! their private generator, and keep at most `PIPELINE_DEPTH` outcomes
//! unreaped. On the interactive baselines submission is synchronous and the
//! depth is irrelevant; on BOHM submission is pipelined — a session appends
//! to the open batch and seals the batches it fills — and the depth is what
//! keeps the CC/execution pipeline full. Engine backpressure (a full
//! in-flight ring blocks the sealer, and every `submit` behind it) means
//! drivers can never outrun the engine unboundedly.

use bohm_common::engine::{BatchEngine, Session};
use bohm_common::stats::RunStats;
use bohm_sync::atomic::{AtomicBool, Ordering};
use bohm_workloads::TxnGen;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Maximum unreaped transactions per session. Interactive engines
/// complete synchronously and never reach it; BOHM needs it ≫ 1 so that
/// several batches are in flight and its CC and execution layers overlap.
const PIPELINE_DEPTH: usize = 8192;

/// Drive `engine` with `threads` sessions for `duration`.
///
/// `mk_gen(i)` builds session `i`'s private transaction stream (seeded
/// deterministically by the caller so runs are reproducible).
pub fn run_engine<E: BatchEngine>(
    engine: &E,
    threads: usize,
    duration: Duration,
    mk_gen: impl Fn(usize) -> Box<dyn TxnGen>,
) -> RunStats {
    let stop = Arc::new(AtomicBool::new(false));
    let stats = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for i in 0..threads {
            let stop = Arc::clone(&stop);
            let mut gen = mk_gen(i);
            let engine = &*engine;
            handles.push(s.spawn(move || {
                let mut session = engine.open_session();
                // Access counts of submitted-but-unreaped txns, FIFO like
                // the session contract.
                let mut in_flight_accesses: VecDeque<u64> = VecDeque::new();
                let mut st = RunStats::default();
                let reap = |session: &mut E::Session<'_>,
                            accesses: &mut VecDeque<u64>,
                            st: &mut RunStats| {
                    let out = session.reap();
                    let a = accesses.pop_front().unwrap_or(0);
                    if out.committed {
                        st.committed += 1;
                        st.accesses += a;
                    } else {
                        st.user_aborts += 1;
                    }
                    st.cc_aborts += out.cc_retries;
                };
                let start = Instant::now();
                // RELAXED: stop flag only bounds the measurement window; a
                // stale read runs one extra transaction.
                while !stop.load(Ordering::Relaxed) {
                    let txn = gen.next_txn();
                    in_flight_accesses.push_back(txn.access_count() as u64);
                    session.submit(txn);
                    while session.in_flight() > PIPELINE_DEPTH {
                        reap(&mut session, &mut in_flight_accesses, &mut st);
                    }
                }
                while session.in_flight() > 0 {
                    reap(&mut session, &mut in_flight_accesses, &mut st);
                }
                st.duration = start.elapsed();
                st
            }));
        }
        std::thread::sleep(duration);
        // RELAXED: see the workers' loads; joins synchronize the stats.
        stop.store(true, Ordering::Relaxed);
        let mut total = RunStats::default();
        for h in handles {
            total.merge(&h.join().unwrap());
        }
        total
    });
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engines;
    use bohm_workloads::micro::{MicroConfig, MicroGen};

    fn micro_cfg() -> MicroConfig {
        MicroConfig {
            records: 1_000,
            rmws_per_txn: 4,
        }
    }

    #[test]
    fn interactive_engine_through_unified_driver() {
        let spec = micro_cfg().spec();
        let e = engines::build_tpl(&spec);
        let st = run_engine(&e, 2, Duration::from_millis(100), |i| {
            Box::new(MicroGen::new(micro_cfg(), i as u64 + 1))
        });
        assert!(st.committed > 0);
        assert_eq!(st.accesses, st.committed * 8);
        // Worker-local windows start after spawn, so allow a little slack.
        assert!(st.duration >= Duration::from_millis(80));
    }

    #[test]
    fn bohm_through_unified_driver_drains_pipeline() {
        let spec = micro_cfg().spec();
        let e = engines::build_bohm(&spec, 2, 2);
        let st = run_engine(&e, 2, Duration::from_millis(100), |i| {
            Box::new(MicroGen::new(micro_cfg(), 9 + i as u64))
        });
        assert!(st.committed > 0);
        assert_eq!(st.accesses, st.committed * 8);
        // Quiesce (group submissions barrier on batch retirement), then
        // verify: every committed micro txn incremented 4 records by 1.
        let rid0 = bohm_common::RecordId::new(0, 0);
        let noop = bohm_common::Txn::new(
            vec![rid0],
            vec![rid0],
            bohm_common::Procedure::ReadModifyWrite { delta: 0 },
        );
        e.execute_sync(vec![noop]);
        let total: u64 = (0..1_000)
            .map(|k| e.read_u64(bohm_common::RecordId::new(0, k)).unwrap())
            .sum();
        assert_eq!(total, st.committed * 4);
        e.shutdown();
    }
}
