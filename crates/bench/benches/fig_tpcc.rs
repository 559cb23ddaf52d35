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
//! land); then two BOHM-only figures, the WAL fsync-policy cost and
//! recovery time vs. log length.
//!
//! `cargo bench -p bohm-bench --bench fig_tpcc` measures each point once
//! and gates nothing (`perfbench/` is the benchmark); `BOHM_BENCH_SMOKE=1`
//! shrinks it to a smoke run that only proves the path still works.

use bohm_bench::driver::run_engine;
use bohm_bench::engines::EngineKind;
use bohm_common::stats::RunStats;
use bohm_workloads::tpcc::{TpccConfig, TpccGen};
use bohm_workloads::{DatabaseSpec, TxnGen};
use std::time::Duration;

/// Submitter sessions feeding BOHM. It runs its own thread pool, so the
/// thread count is its CC/execution budget, and two sessions are enough to
/// keep that pipeline fed.
const BOHM_SESSIONS: usize = 2;

/// How large a run is: `BOHM_BENCH_SMOKE=1` shrinks every figure to one
/// tiny point per series, which only proves the path still runs.
struct Scale {
    smoke: bool,
    /// Thread counts on the x axis, capped at this host's cores.
    threads: Vec<usize>,
    /// Measurement window per point; every point is measured once.
    secs: Duration,
}

impl Scale {
    fn from_env() -> Self {
        let smoke = std::env::var("BOHM_BENCH_SMOKE").is_ok_and(|v| v != "0");
        let cores = std::thread::available_parallelism().map_or(2, |n| n.get());
        let threads = if smoke {
            vec![2]
        } else {
            [2, 4, 8, 16]
                .into_iter()
                .filter(|&t| t <= cores.max(2))
                .collect()
        };
        Self {
            smoke,
            threads,
            secs: Duration::from_millis(if smoke { 150 } else { 600 }),
        }
    }
}

/// One figure line: an engine (or case) label and its y value per x.
type Series = (&'static str, Vec<f64>);

/// Print a figure as an aligned table: one row per x, one column per series.
fn print_figure(title: &str, x_label: &str, xs: &[f64], series: &[Series]) {
    println!();
    println!("=== {title} ===");
    print!("{x_label:>12}");
    for (label, _) in series {
        print!(" {label:>14}");
    }
    println!();
    for (i, x) in xs.iter().enumerate() {
        print!("{x:>12.2}");
        for (_, ys) in series {
            let y = ys[i];
            let y = if y >= 1e6 {
                format!("{:.2}M", y / 1e6)
            } else if y >= 1e3 {
                format!("{:.1}k", y / 1e3)
            } else {
                format!("{y:.0}")
            };
            print!(" {y:>14}");
        }
        println!();
    }
}

/// Build engine `kind` over `spec` with a budget of `threads`, drive it for
/// `secs`, and tear it down. The interactive baselines execute on their
/// driver sessions, so they get `threads` of them; BOHM gets `threads`
/// pipeline threads and [`BOHM_SESSIONS`] submitters.
fn measure(
    kind: EngineKind,
    spec: &DatabaseSpec,
    threads: usize,
    secs: Duration,
    mk_gen: &dyn Fn(usize) -> Box<dyn TxnGen>,
) -> RunStats {
    let engine = kind.build(spec, threads);
    let sessions = match kind {
        EngineKind::Bohm => BOHM_SESSIONS,
        _ => threads,
    };
    let st = run_engine(&engine, sessions, secs, mk_gen);
    engine.shutdown();
    st
}

/// The shared workload shape; figures vary only warehouses + generator.
fn config(scale: &Scale, warehouses: u64) -> TpccConfig {
    TpccConfig {
        warehouses,
        districts_per_warehouse: 10,
        customers_per_district: 96,
        order_capacity: if scale.smoke { 1 << 14 } else { 1 << 18 },
        order_stripes: 64,
        delivery_batch: 4,
        orders_per_customer: 64,
        unbounded_orders: false,
        think_us: 0,
    }
}

/// Sweep every engine over the thread counts for one figure.
fn engine_sweep(
    scale: &Scale,
    cfg: &TpccConfig,
    tag: &str,
    mk_gen: impl Fn(TpccConfig, usize) -> TpccGen + Copy + 'static,
) -> Vec<Series> {
    let spec = cfg.spec();
    EngineKind::ALL
        .iter()
        .map(|&kind| {
            let ys = scale
                .threads
                .iter()
                .map(|&t| {
                    let cfg2 = cfg.clone();
                    let st = measure(kind, &spec, t, scale.secs, &move |i| {
                        Box::new(mk_gen(cfg2.clone(), i))
                    });
                    eprintln!(
                        "{} {tag} t={t}: {:.0} txns/s (abort rate {:.1}%)",
                        kind.name(),
                        st.throughput(),
                        st.abort_rate() * 100.0
                    );
                    st.throughput()
                })
                .collect();
            (kind.name(), ys)
        })
        .collect()
}

fn main() {
    let scale = Scale::from_env();
    let xs: Vec<f64> = scale.threads.iter().map(|&t| t as f64).collect();
    let threads = *scale.threads.last().unwrap();
    let warehouse_counts: [(&str, u64); 2] = [
        ("High Contention", 2),
        ("Low Contention", if scale.smoke { 4 } else { 16 }),
    ];
    for (name, warehouses) in warehouse_counts {
        let cfg = config(&scale, warehouses);
        let series = engine_sweep(
            &scale,
            &cfg,
            &format!("warehouses={warehouses}"),
            |cfg, i| TpccGen::new(cfg, 7_000 + i as u64, i as u64),
        );
        let title = format!("TPC-C-lite ({name} ({warehouses} warehouses))");
        print_figure(&title, "threads", &xs, &series);
    }
    // OrderHistory scan throughput: the scan-heavy mix (50% range scans
    // with phantom protection, racing NewOrder inserts and Delivery
    // deletes at the window edges). Regressions in any engine's scan path
    // show up in this figure.
    {
        let cfg = config(&scale, 4);
        let series = engine_sweep(&scale, &cfg, "scan-mix", |cfg, i| {
            TpccGen::new(cfg, 9_000 + i as u64, i as u64).scan_heavy()
        });
        print_figure("TPC-C-lite OrderHistory scan mix", "threads", &xs, &series);
    }
    // Secondary-index scan throughput: the index-heavy mix (50%
    // CustomerStatus index scans through the customer→orders posting
    // lists, with every NewOrder/Delivery churning the scanned keys).
    // Regressions in any engine's index_scan path — or in the
    // transactional maintenance it races — land in this `index_scan`
    // figure.
    {
        let cfg = config(&scale, 4);
        let series = engine_sweep(&scale, &cfg, "index-mix", |cfg, i| {
            TpccGen::new(cfg, 11_000 + i as u64, i as u64).index_heavy()
        });
        let title = "TPC-C-lite CustomerStatus index_scan mix";
        print_figure(title, "threads", &xs, &series);
    }
    // Zipfian hot-customer Payments: sweep the skew θ and report every
    // engine's throughput *and* abort rate — BOHM never aborts (pre-ordered
    // writes), the validating engines (OCC, Hekaton, SI) pay increasingly
    // for the hot district/customer counters, and 2PL serializes on them
    // without aborting.
    {
        let cfg = config(&scale, 2);
        let spec = cfg.spec();
        let thetas: Vec<f64> = if scale.smoke {
            vec![0.0, 0.99]
        } else {
            vec![0.0, 0.6, 0.9, 0.99]
        };
        let mut tput = Vec::new();
        let mut aborts = Vec::new();
        for kind in EngineKind::ALL {
            let (ys, abort_ys): (Vec<f64>, Vec<f64>) = thetas
                .iter()
                .map(|&theta| {
                    let cfg2 = cfg.clone();
                    let st = measure(kind, &spec, threads, scale.secs, &move |i| {
                        Box::new(
                            TpccGen::new(cfg2.clone(), 15_000 + i as u64, i as u64)
                                .hot_payments(theta),
                        )
                    });
                    eprintln!(
                        "{} hot θ={theta}: {:.0} txns/s (abort rate {:.1}%)",
                        kind.name(),
                        st.throughput(),
                        st.abort_rate() * 100.0
                    );
                    (st.throughput(), st.abort_rate() * 100.0)
                })
                .unzip();
            tput.push((kind.name(), ys));
            aborts.push((kind.name(), abort_ys));
        }
        print_figure("TPC-C-lite hot-customer zipf mix", "theta", &thetas, &tput);
        let title = "TPC-C-lite hot-customer zipf abort rate (%)";
        print_figure(title, "theta", &thetas, &aborts);
    }
    // WAL fsync-policy cost: BOHM with durability off vs. the three fsync
    // policies, same workload and threads. The x axis is the policy (0 = no
    // WAL, 1 = fsync off, 2 = every 64 batches, 3 = per-batch); the spread
    // between x=0 and x=1 is the pure logging cost (serialize + write), and
    // between x=1 and x=3 the group-commit sync cost the batch ring
    // amortizes.
    {
        use bohm_bench::engines::build_bohm_with;
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
        let cfg = config(&scale, 4);
        let spec = cfg.spec();
        let policies: [Option<FsyncPolicy>; 4] = [
            None,
            Some(FsyncPolicy::Off),
            Some(FsyncPolicy::EveryN(64)),
            Some(FsyncPolicy::PerBatch),
        ];
        let ys = policies
            .iter()
            .enumerate()
            .map(|(x, policy)| {
                let log_dir =
                    std::env::temp_dir().join(format!("bohm-fig-wal-{}-{x}", std::process::id()));
                let _ = std::fs::remove_dir_all(&log_dir);
                let mut ecfg = bohm::BohmConfig::with_threads(threads, threads);
                ecfg.durability = policy.map(|fsync| {
                    let mut d = DurabilityConfig::new(&log_dir);
                    d.fsync = fsync;
                    d
                });
                let engine = build_bohm_with(&spec, ecfg);
                let cfg2 = cfg.clone();
                let st = run_engine(&engine, BOHM_SESSIONS, scale.secs, move |i| {
                    Box::new(TpccGen::new(cfg2.clone(), 17_000 + i as u64, i as u64))
                });
                let logged = engine.wal().map_or(0, |w| w.batches_logged());
                engine.shutdown();
                let _ = std::fs::remove_dir_all(&log_dir);
                eprintln!(
                    "Bohm wal policy={x}: {:.0} txns/s ({logged} batches logged)",
                    st.throughput()
                );
                st.throughput()
            })
            .collect();
        print_figure(
            "TPC-C-lite WAL fsync policy (Bohm)",
            "policy (0=off,1=nosync,2=every64,3=batch)",
            &[0.0, 1.0, 2.0, 3.0],
            &[("Bohm", ys)],
        );
    }
    // Recovery time vs. log length: durable BOHM runs of increasing
    // logged-transaction counts; after shutdown, wall-clock
    // `Bohm::recover`. Two series — replay-everything (no checkpoint)
    // and a mid-run checkpoint that bounds replay to the post-cut
    // suffix. The checkpointed line should stay roughly flat while the
    // uncheckpointed one grows linearly with the log.
    {
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
        use bohm_common::{Procedure, RecordId, Txn};
        use std::time::Instant;

        const ROWS: u64 = 1024;
        let counts: Vec<f64> = if scale.smoke {
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
        let series = [
            (
                "no checkpoint",
                counts
                    .iter()
                    .map(|&n| run_case(n as usize, false, "no-ckp"))
                    .collect(),
            ),
            (
                "mid-run checkpoint",
                counts
                    .iter()
                    .map(|&n| run_case(n as usize, true, "mid-ckp"))
                    .collect(),
            ),
        ];
        let title = "Recovery time vs. log length (Bohm, ms)";
        print_figure(title, "logged txns", &counts, &series);
    }
}
