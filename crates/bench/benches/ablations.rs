//! Ablations of BOHM's design decisions (beyond the paper's figures).
//!
//! 1. **Read-set annotation on/off** (§3.2.3): direct version references
//!    vs. chain traversal at execution time.
//! 2. **Batch size sweep** (§3.2.4): how much barrier amortization buys.
//!    Since the ingest refactor this is the *engine's* sequencer knob
//!    (`BohmConfig::batch_size`), not a driver-side grouping trick.
//! 3. **Garbage collection on/off** (§3.3.2): Condition-3 GC cost/benefit
//!    under hot-key version churn.
//! 4. **CC/exec thread split** at a fixed total budget.

use bohm::BohmConfig;
use bohm_bench::driver::{run_engine, DriverConfig};
use bohm_bench::engines::build_bohm_with;
use bohm_bench::figure::PIPELINED_DRIVER_SESSIONS;
use bohm_bench::params::Params;
use bohm_bench::report::{print_figure, sweep_series, Series};
use bohm_common::stats::RunStats;
use bohm_workloads::ycsb::{YcsbConfig, YcsbGen, YcsbKind};

fn drive(
    ycsb: &YcsbConfig,
    bohm_cfg: BohmConfig,
    kind: YcsbKind,
    seed: u64,
    secs: std::time::Duration,
) -> (RunStats, u64) {
    let engine = build_bohm_with(&ycsb.spec(), bohm_cfg);
    let ycsb2 = ycsb.clone();
    let st = run_engine(
        &engine,
        PIPELINED_DRIVER_SESSIONS,
        DriverConfig::default(),
        secs,
        move |i| Box::new(YcsbGen::new(&ycsb2, kind, seed + i as u64)),
    );
    let retired = engine.gc_retired();
    engine.shutdown();
    (st, retired)
}

fn main() {
    let p = Params::from_env();
    let (cc, exec) = bohm_bench::engines::bohm_split(p.max_threads.max(4));
    let ycsb = YcsbConfig {
        records: p.ycsb_records,
        record_size: p.ycsb_record_size,
        theta: 0.9, // hot keys: long chains, much GC-able garbage
        ..Default::default()
    };

    // 1. Read-set annotation ablation (2RMW-8R, where reads dominate).
    {
        let mut series = Vec::new();
        for (label, annotate) in [("annotated", true), ("traversal", false)] {
            let mut cfg = BohmConfig::with_threads(cc, exec);
            if !annotate {
                cfg.annotate_max_reads = 0;
            }
            let (st, _) = drive(&ycsb, cfg, YcsbKind::Rmw2Read8, 7000, p.secs);
            eprintln!("annotation={label}: {:.0} txns/s", st.throughput());
            series.push(Series::new(label, vec![(0.0, st.throughput())]));
        }
        print_figure(
            "Ablation 1: read-set annotation (YCSB 2RMW-8R, theta=0.9)",
            "-",
            &series,
        );
    }

    // 2. Sequencer batch size sweep (10RMW).
    {
        let sizes: Vec<usize> = if p.full {
            vec![10, 100, 500, 1_000, 4_000, 10_000]
        } else {
            vec![10, 100, 1_000, 4_000]
        };
        let xs: Vec<f64> = sizes.iter().map(|&bs| bs as f64).collect();
        let series = sweep_series("Bohm", &xs, 1, |x, _| {
            let bs = x as usize;
            let mut cfg = BohmConfig::with_threads(cc, exec);
            cfg.batch_size = bs;
            let (st, _) = drive(&ycsb, cfg, YcsbKind::Rmw10, 7100, p.secs);
            eprintln!("batch={bs}: {:.0} txns/s", st.throughput());
            st.throughput()
        });
        print_figure(
            "Ablation 2: sequencer batch size (YCSB 10RMW, theta=0.9)",
            "batch_size",
            &[series],
        );
    }

    // 3. GC on/off under hot-key churn.
    {
        let mut series = Vec::new();
        for (label, gc) in [("gc_on", true), ("gc_off", false)] {
            let mut cfg = BohmConfig::with_threads(cc, exec);
            cfg.enable_gc = gc;
            let (st, retired) = drive(&ycsb, cfg, YcsbKind::Rmw10, 7200, p.secs);
            eprintln!(
                "{label}: {:.0} txns/s ({} versions retired)",
                st.throughput(),
                retired
            );
            series.push(Series::new(label, vec![(0.0, st.throughput())]));
        }
        print_figure(
            "Ablation 3: Condition-3 GC (YCSB 10RMW, theta=0.9)",
            "-",
            &series,
        );
    }

    // 4. CC/exec split at a fixed total budget.
    {
        let total = p.max_threads.max(4);
        let xs: Vec<f64> = (1..total)
            .filter(|&cc_n| p.full || cc_n % 2 == 1 || cc_n == total - 1)
            .map(|cc_n| cc_n as f64)
            .collect();
        let series = sweep_series("Bohm", &xs, 1, |x, _| {
            let cc_n = x as usize;
            let cfg = BohmConfig::with_threads(cc_n, total - cc_n);
            let (st, _) = drive(&ycsb, cfg, YcsbKind::Rmw10, 7300, p.secs);
            eprintln!(
                "split cc={cc_n}/exec={}: {:.0} txns/s",
                total - cc_n,
                st.throughput()
            );
            st.throughput()
        });
        print_figure(
            &format!("Ablation 4: CC/exec split at {total} total threads (YCSB 10RMW)"),
            "cc_threads",
            &[series],
        );
    }
}
