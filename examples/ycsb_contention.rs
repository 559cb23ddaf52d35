//! The paper's core claim in miniature: on a contended mixed
//! read/write workload (YCSB 2RMW-8R, θ = 0.9), BOHM's no-abort
//! pessimistic multi-versioning beats both an optimistic single-version
//! engine (Silo OCC) and optimistic MVCC (Hekaton), while staying fully
//! serializable.
//!
//! ```sh
//! cargo run --release --example ycsb_contention
//! ```

use bohm_suite::common::engine::{BatchEngine, Engine, Session};
use bohm_suite::common::stats::RunStats;
use bohm_suite::workloads::ycsb::{YcsbConfig, YcsbGen, YcsbKind};
use bohm_suite::workloads::TxnGen;
use bohm_sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

const THREADS: usize = 8;
const WINDOW: Duration = Duration::from_millis(1500);

fn drive_interactive<E: Engine>(engine: &E, cfg: &YcsbConfig) -> RunStats {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for i in 0..THREADS {
            let stop = &stop;
            let mut gen = YcsbGen::new(cfg, YcsbKind::Rmw2Read8, 99 + i as u64);
            let engine = &*engine;
            handles.push(s.spawn(move || {
                let mut w = engine.make_worker();
                let mut st = RunStats::default();
                let start = Instant::now();
                // RELAXED: stop flag only bounds the window; joins
                // synchronize the stats.
                while !stop.load(Ordering::Relaxed) {
                    let t = gen.next_txn();
                    let out = engine.execute(&t, &mut w);
                    if out.committed {
                        st.committed += 1;
                    }
                    st.cc_aborts += out.cc_retries;
                }
                st.duration = start.elapsed();
                st
            }));
        }
        std::thread::sleep(WINDOW);
        // RELAXED: see the workers' loads.
        stop.store(true, Ordering::Relaxed);
        let mut total = RunStats::default();
        for h in handles {
            total.merge(&h.join().unwrap());
        }
        total
    })
}

fn main() {
    let cfg = YcsbConfig {
        records: 100_000,
        record_size: 1_000,
        theta: 0.9,
        ..Default::default()
    };

    println!("YCSB 2RMW-8R, theta=0.9, {THREADS} threads, {WINDOW:?} window\n");

    // --- BOHM (one session, thousands of transactions in flight) ---
    {
        let catalog =
            bohm_suite::core::CatalogSpec::new().table(cfg.records, cfg.record_size, |r| r);
        let engine = bohm_suite::core::Bohm::start(
            bohm_suite::core::BohmConfig::with_threads(3, 5),
            catalog,
        );
        let mut gen = YcsbGen::new(&cfg, YcsbKind::Rmw2Read8, 7);
        let start = Instant::now();
        let mut session = engine.open_session();
        let mut committed = 0u64;
        while start.elapsed() < WINDOW {
            for _ in 0..1000 {
                Session::submit(&mut session, gen.next_txn());
            }
            while session.in_flight() > 8_000 {
                committed += u64::from(session.reap().committed);
            }
        }
        while session.in_flight() > 0 {
            committed += u64::from(session.reap().committed);
        }
        let secs = start.elapsed().as_secs_f64();
        println!(
            "{:>8}: {:>10.0} txns/s   (aborts: none by construction)",
            "Bohm",
            committed as f64 / secs
        );
        engine.shutdown();
    }

    // --- OCC and Hekaton (classic worker threads) ---
    {
        let mut b = bohm_suite::svstore::StoreBuilder::new();
        let t = b.add_table(cfg.records as usize, cfg.record_size);
        b.seed_u64(t, |r| r);
        let occ = bohm_suite::occ::SiloOcc::from_builder(b);
        let st = drive_interactive(&occ, &cfg);
        println!(
            "{:>8}: {:>10.0} txns/s   (cc abort rate {:.1}%)",
            "OCC",
            st.throughput(),
            st.abort_rate() * 100.0
        );
    }
    {
        let store = bohm_suite::hekaton::HekatonStore::new(&[(cfg.records, cfg.record_size)]);
        store.seed_u64(0, |r| r);
        let hk = bohm_suite::hekaton::Hekaton::serializable(store);
        let st = drive_interactive(&hk, &cfg);
        println!(
            "{:>8}: {:>10.0} txns/s   (cc abort rate {:.1}%)",
            "Hekaton",
            st.throughput(),
            st.abort_rate() * 100.0
        );
    }

    println!("\nExpected shape (paper Fig. 6 top): Bohm > OCC ≳ Hekaton under");
    println!("high contention — optimistic engines burn work on aborts, BOHM");
    println!("never aborts for concurrency control.");
}
