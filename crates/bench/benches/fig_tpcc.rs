//! TPC-C-lite: throughput vs. thread count on the insert-and-delete-heavy
//! NewOrder/Payment/Delivery/OrderStatus/OrderHistory mix (beyond the
//! paper's evaluation — the only figure whose database *churns* while it
//! runs: orders are inserted, scanned, delivered and their slots
//! recycled).
//!
//! Expected shape: BOHM's insert path is the same placeholder machinery as
//! its update path, so it should track its SmallBank profile; the
//! single-version baselines pay a presence check per access; Hekaton/SI
//! additionally validate absent reads, so the OrderStatus probes show up
//! as (rare) validation aborts under contention.
//!
//! Five figures: few warehouses (hot district counters — every NewOrder
//! RMWs one of `warehouses × 10` counters), many warehouses, the
//! scan-heavy OrderHistory mix (50% range scans racing inserts/deletes at
//! the window edges — where scan-path regressions land), the index-heavy
//! CustomerStatus mix (50% secondary-index scans racing NewOrder/Delivery
//! maintenance of the scanned posting lists — where index-path regressions
//! land), and the **Zipfian hot-customer** sweep (skewed Payment targets
//! with per-engine abort rates — where contention-handling regressions
//! land).

use bohm_bench::driver::{run_engine, DriverConfig};
use bohm_bench::engines::EngineKind;
use bohm_bench::figure::measure;
use bohm_bench::params::Params;
use bohm_bench::report::{print_figure, sweep_series, Series};
use bohm_workloads::tpcc::{TpccConfig, TpccGen};

/// The shared workload shape; figures vary only warehouses + generator.
fn config(p: &Params, warehouses: u64) -> TpccConfig {
    TpccConfig {
        warehouses,
        districts_per_warehouse: 10,
        customers_per_district: 96,
        order_capacity: if p.smoke { 1 << 14 } else { 1 << 18 },
        order_stripes: 64,
        delivery_batch: 4,
        orders_per_customer: 64,
        unbounded_orders: false,
        think_us: 0,
    }
}

/// Sweep every engine over the thread counts for one figure.
///
/// This figure feeds the CI perf gate, so each point is the median-of-N
/// with a discarded warmup and per-point dispersion (see
/// [`sweep_series`]), letting the gate scale its regression threshold to
/// the host's actual noise.
fn engine_sweep(
    p: &Params,
    cfg: &TpccConfig,
    tag: &str,
    mk_gen: impl Fn(TpccConfig, usize) -> TpccGen + Copy + 'static,
) -> Vec<Series> {
    let spec = cfg.spec();
    let xs: Vec<f64> = p.thread_sweep.iter().map(|&t| t as f64).collect();
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            sweep_series(kind.name(), &xs, p.runs, |x, run| {
                let t = x as usize;
                let cfg2 = cfg.clone();
                let st = measure(kind, &spec, t, p.secs, &move |i| {
                    Box::new(mk_gen(cfg2.clone(), i))
                });
                if run > 0 {
                    eprintln!(
                        "{} {tag} t={t} run={run}/{}: {:.0} txns/s (abort rate {:.1}%)",
                        kind.name(),
                        p.runs,
                        st.throughput(),
                        st.abort_rate() * 100.0
                    );
                }
                st.throughput()
            })
        })
        .collect()
}

fn main() {
    let p = Params::from_env();
    let warehouse_counts: [(&str, u64); 2] = [
        ("High Contention", 2),
        ("Low Contention", if p.smoke { 4 } else { 16 }),
    ];
    for (name, warehouses) in warehouse_counts {
        let cfg = config(&p, warehouses);
        let series = engine_sweep(&p, &cfg, &format!("warehouses={warehouses}"), |cfg, i| {
            TpccGen::new(cfg, 7_000 + i as u64, i as u64)
        });
        let title = format!("TPC-C-lite ({name} ({warehouses} warehouses))");
        print_figure(&title, "threads", &series);
    }
    // OrderHistory scan throughput: the scan-heavy mix (50% range scans
    // with phantom protection, racing NewOrder inserts and Delivery
    // deletes at the window edges). Regressions in any engine's scan path
    // show up in this figure.
    {
        let cfg = config(&p, 4);
        let series = engine_sweep(&p, &cfg, "scan-mix", |cfg, i| {
            TpccGen::new(cfg, 9_000 + i as u64, i as u64).scan_heavy()
        });
        let title = "TPC-C-lite OrderHistory scan mix".to_string();
        print_figure(&title, "threads", &series);
    }
    // Secondary-index scan throughput: the index-heavy mix (50%
    // CustomerStatus index scans through the customer→orders posting
    // lists, with every NewOrder/Delivery churning the scanned keys).
    // Regressions in any engine's index_scan path — or in the
    // transactional maintenance it races — land in this `index_scan`
    // figure.
    {
        let cfg = config(&p, 4);
        let series = engine_sweep(&p, &cfg, "index-mix", |cfg, i| {
            TpccGen::new(cfg, 11_000 + i as u64, i as u64).index_heavy()
        });
        let title = "TPC-C-lite CustomerStatus index_scan mix".to_string();
        print_figure(&title, "threads", &series);
    }
    // Zipfian hot-customer Payments (ROADMAP 5c): sweep the skew θ and
    // report every engine's throughput *and* abort rate — BOHM never
    // aborts (pre-ordered writes), the validating engines (OCC, Hekaton,
    // SI) pay increasingly for the hot district/customer counters, and
    // 2PL serializes on them without aborting.
    {
        let cfg = config(&p, 2);
        let spec = cfg.spec();
        let threads = *p.thread_sweep.last().unwrap();
        let thetas: Vec<f64> = if p.smoke {
            vec![0.0, 0.99]
        } else {
            vec![0.0, 0.6, 0.9, 0.99]
        };
        let mut tput = Vec::new();
        let mut aborts = Vec::new();
        for kind in EngineKind::ALL {
            let mut abort_points = Vec::new();
            let s = sweep_series(kind.name(), &thetas, 1, |theta, _| {
                let cfg2 = cfg.clone();
                let st = measure(kind, &spec, threads, p.secs, &move |i| {
                    Box::new(
                        TpccGen::new(cfg2.clone(), 15_000 + i as u64, i as u64).hot_payments(theta),
                    )
                });
                abort_points.push((theta, st.abort_rate() * 100.0));
                eprintln!(
                    "{} hot θ={theta}: {:.0} txns/s (abort rate {:.1}%)",
                    kind.name(),
                    st.throughput(),
                    st.abort_rate() * 100.0
                );
                st.throughput()
            });
            tput.push(s);
            aborts.push(Series::new(kind.name(), abort_points));
        }
        let title = "TPC-C-lite hot-customer zipf mix".to_string();
        print_figure(&title, "theta", &tput);
        let title = "TPC-C-lite hot-customer zipf abort rate (%)".to_string();
        print_figure(&title, "theta", &aborts);
    }
    // WAL fsync-policy cost (fig_wal): BOHM with durability off vs. the
    // three fsync policies, same workload and threads. The x axis is the
    // policy (0 = no WAL, 1 = fsync off, 2 = every 64 batches, 3 =
    // per-batch); the spread between x=0 and x=1 is the pure logging
    // cost (serialize + write), and between x=1 and x=3 the group-commit
    // sync cost the batch ring amortizes.
    {
        use bohm_bench::engines::build_bohm_with;
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
        let cfg = config(&p, 4);
        let spec = cfg.spec();
        let threads = *p.thread_sweep.last().unwrap();
        let policies: [(f64, Option<FsyncPolicy>); 4] = [
            (0.0, None),
            (1.0, Some(FsyncPolicy::Off)),
            (2.0, Some(FsyncPolicy::EveryN(64))),
            (3.0, Some(FsyncPolicy::PerBatch)),
        ];
        let xs: Vec<f64> = policies.iter().map(|(x, _)| *x).collect();
        let series = vec![sweep_series("Bohm", &xs, p.runs, |x, run| {
            let policy = policies.iter().find(|(px, _)| *px == x).unwrap().1;
            let log_dir =
                std::env::temp_dir().join(format!("bohm-fig-wal-{}-{x}-{run}", std::process::id()));
            let _ = std::fs::remove_dir_all(&log_dir);
            let mut ecfg = bohm::BohmConfig::with_threads(threads, threads);
            ecfg.durability = policy.map(|fsync| {
                let mut d = DurabilityConfig::new(&log_dir);
                d.fsync = fsync;
                d
            });
            let engine = build_bohm_with(&spec, ecfg);
            let cfg2 = cfg.clone();
            let st = run_engine(
                &engine,
                bohm_bench::figure::PIPELINED_DRIVER_SESSIONS,
                DriverConfig::default(),
                p.secs,
                move |i| Box::new(TpccGen::new(cfg2.clone(), 17_000 + i as u64, i as u64)),
            );
            let logged = engine.wal().map_or(0, |w| w.batches_logged());
            engine.shutdown();
            let _ = std::fs::remove_dir_all(&log_dir);
            if run > 0 {
                eprintln!(
                    "Bohm wal policy={x} run={run}/{}: {:.0} txns/s ({logged} batches logged)",
                    p.runs,
                    st.throughput()
                );
            }
            st.throughput()
        })];
        let title = "TPC-C-lite WAL fsync policy (Bohm)".to_string();
        print_figure(&title, "policy (0=off,1=nosync,2=every64,3=batch)", &series);
    }
    // Recovery time vs. log length (fig_recovery): durable BOHM runs of
    // increasing logged-transaction counts; after shutdown, wall-clock
    // `Bohm::recover`. Two series — replay-everything (no checkpoint)
    // and a mid-run checkpoint that bounds replay to the post-cut
    // suffix. The checkpointed line should stay roughly flat while the
    // uncheckpointed one grows linearly with the log. Both series are
    // lower-is-better: the JSON carries `"better":"lower"` and the
    // trend gate flips its regression direction accordingly.
    {
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
        use bohm_common::{Procedure, RecordId, Txn};
        use std::time::Instant;

        const ROWS: u64 = 1024;
        let counts: Vec<f64> = if p.smoke {
            vec![2_000.0, 8_000.0]
        } else {
            vec![10_000.0, 40_000.0, 80_000.0]
        };
        let catalog = || bohm::CatalogSpec::new().table(ROWS, 8, |row| row);
        let run_case = |n: usize, mid_checkpoint: bool, tag: &str| -> f64 {
            let log_dir = std::env::temp_dir().join(format!(
                "bohm-fig-recovery-{}-{n}-{mid_checkpoint}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&log_dir);
            let mk_cfg = || {
                let mut cfg = bohm::BohmConfig::with_threads(2, 2);
                cfg.durability = Some({
                    let mut d = DurabilityConfig::new(&log_dir);
                    d.fsync = FsyncPolicy::Off;
                    d
                });
                cfg
            };
            let engine = bohm::Bohm::start(mk_cfg(), catalog());
            let chunk = 512usize;
            let mut done = 0usize;
            let mut seed = 0x9e37_79b9_7f4a_7c15u64 ^ n as u64;
            while done < n {
                let take = chunk.min(n - done);
                let txns: Vec<Txn> = (0..take)
                    .map(|_| {
                        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let rid = RecordId::new(0, seed % ROWS);
                        Txn::new(
                            vec![rid],
                            vec![rid],
                            Procedure::ReadModifyWrite { delta: 1 },
                        )
                    })
                    .collect();
                engine.execute_sync(txns);
                done += take;
                if mid_checkpoint && done >= n / 2 && done - take < n / 2 {
                    engine.checkpoint().expect("mid-run checkpoint");
                }
            }
            let log_bytes = engine.log_bytes();
            engine.shutdown();
            let start = Instant::now();
            let (rec, replayed) = bohm::Bohm::recover(mk_cfg(), catalog()).expect("recover");
            let ms = start.elapsed().as_secs_f64() * 1e3;
            rec.shutdown();
            eprintln!(
                "recovery {tag} n={n}: {ms:.1} ms ({} txns replayed, {log_bytes} log bytes)",
                replayed.len()
            );
            let _ = std::fs::remove_dir_all(&log_dir);
            ms
        };
        let series = vec![
            Series::new(
                "no checkpoint",
                counts
                    .iter()
                    .map(|&n| (n, run_case(n as usize, false, "no-ckp")))
                    .collect(),
            ),
            Series::new(
                "mid-run checkpoint",
                counts
                    .iter()
                    .map(|&n| (n, run_case(n as usize, true, "mid-ckp")))
                    .collect(),
            ),
        ];
        let title = "Recovery time vs. log length (Bohm, ms)".to_string();
        print_figure(&title, "logged txns", &series);
    }
}
