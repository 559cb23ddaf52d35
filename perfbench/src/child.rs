//! Child-process phases. Every engine is measured in a fresh process of
//! this binary (clean allocator state, a `VmHWM` that means something);
//! the parent ([`crate::parent`]) spawns these, reads the one JSON line
//! each prints last, and combines them.
//!
//! A child never tears its engine down unless the phase is *about* the
//! shutdown: dropping a million version chains takes seconds that measure
//! nothing, and the process is about to exit anyway.

use crate::driver::{closed_window, open_window, Window};
use crate::json::Json;
use crate::procfs::{self, Layer, TaskCounters};
use crate::stats;
use crate::trace;
use crate::workload::{Stream, Workload};
use bohm::{Bohm, BohmConfig, CatalogSpec};
use bohm_bench::engines::{bohm_split, build_bohm_with, AnyEngine, EngineKind};
use bohm_common::engine::BatchEngine;
use bohm_common::{DurabilityConfig, Txn};
use bohm_workloads::{DatabaseSpec, TxnGen};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Outstanding transactions of BOHM's single driver session.
const BOHM_DEPTH: usize = 8192;
/// Transactions in the cross-engine equivalence stream (`tpcc_mix`).
const EQUIVALENCE_TXNS: usize = 20_000;
/// Idle-pipeline round trips timed for `core.roundtrip_us`.
const ROUNDTRIPS: usize = 1000;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Set-up, warm-up and closed-loop windows of one engine (and, for
    /// BOHM in a traced run, the open loop).
    Engine(EngineKind),
    /// BOHM closed loop with the WAL on.
    Durable,
    /// Fixed-count stream into a fresh log, then a clean shutdown.
    Stream,
    /// Timed `Bohm::recover` over the stream's log.
    Recover,
    /// Single-thread micro section.
    Micro,
}

pub struct ChildArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Which of the run's [`ROUNDS`] this child belongs to.
    pub round: usize,
    /// Scratch directory inside the checkout (WAL directories, traces).
    pub dir: PathBuf,
    /// Taken first thing in `main`, so `setup_s` covers everything a
    /// process does before its first submit.
    pub started: Instant,
}

/// Engine-side thread budget: `min(nproc, 4)`.
pub fn thread_budget() -> usize {
    crate::meta::nproc().min(4)
}

pub fn engine_label(kind: EngineKind) -> &'static str {
    match kind {
        EngineKind::Bohm => "bohm",
        EngineKind::Tpl => "tpl",
        EngineKind::Occ => "occ",
        EngineKind::Hekaton => "hekaton",
        EngineKind::Si => "si",
    }
}

/// A run measures every engine in this many rounds, each round in fresh
/// processes: tpl, occ, hekaton, bohm, durable bohm, then again. The
/// reference host's speed drifts by tens of percent over tens of seconds
/// (it is a small VM with neighbours), so an engine measured in one block
/// gets whatever the host was doing then; spread over three rounds, the
/// median of its windows survives one bad stretch. It also means every
/// engine is measured young — a fixed few seconds after start — which
/// matters because BOHM's and Hekaton's throughput falls as their version
/// chains and RSS grow (`core.rss_growth_mb_per_s` tracks that).
pub const ROUNDS: usize = 3;

/// BOHM's closed-loop windows of one round of a traced run: untraced,
/// traced, traced, untraced — the same mean position in the engine's
/// life, because throughput drifts over it. `trace.overhead_share`
/// compares the means.
const BOHM_TRACE_PATTERN: [bool; 4] = [false, true, true, false];
/// Baselines only need one traced window for their span file.
const BASELINE_TRACE_PATTERN: [bool; 2] = [false, true];

/// How one round spends its share of `--seconds`: fractions, so short
/// runs (tests, smoke) keep the same shape. Untraced, the warm-ups and
/// windows of all rounds add up to 0.885 of `--seconds`; the count-based
/// recovery stream and its replays take the rest. At the benchmark's 20 s
/// a BOHM closed-loop window is 0.7 s and a baseline's 0.15 s.
pub struct Plan {
    pub warm: Duration,
    pub window: Duration,
    /// One entry per closed-loop window: is it traced?
    pub windows: &'static [bool],
    /// BOHM in a traced run: the open-loop window (zero otherwise).
    pub open_window: Duration,
}

impl Plan {
    pub fn for_engine(kind: EngineKind, seconds: f64, trace: bool) -> Plan {
        let s = |f: f64| Duration::from_secs_f64(seconds * f);
        match (kind == EngineKind::Bohm, trace) {
            (true, false) => Plan {
                warm: s(0.02),
                window: s(0.035),
                windows: &[false; 3],
                open_window: Duration::ZERO,
            },
            (true, true) => Plan {
                warm: s(0.02),
                window: s(0.0225),
                windows: &BOHM_TRACE_PATTERN,
                open_window: s(0.04),
            },
            // Many short windows: a baseline has no pipeline to fill, and
            // its windows scatter by ±15% within one process on a busy
            // host, which a median over more of them absorbs.
            (false, false) => Plan {
                warm: s(0.01),
                window: s(0.0075),
                windows: &[false; 4],
                open_window: Duration::ZERO,
            },
            (false, true) => Plan {
                warm: s(0.01),
                window: s(0.015),
                windows: &BASELINE_TRACE_PATTERN,
                open_window: Duration::ZERO,
            },
        }
    }

    pub fn durable(seconds: f64) -> Plan {
        Plan {
            warm: Duration::from_secs_f64(seconds * 0.01),
            window: Duration::from_secs_f64(seconds * 0.02),
            windows: &[false; 2],
            open_window: Duration::ZERO,
        }
    }
}

// ---------------------------------------------------------------------------
// Output checks
// ---------------------------------------------------------------------------

/// Σ of the u64 prefixes the spec seeds table 0 with.
fn seed_sum(spec: &DatabaseSpec) -> u128 {
    let t = &spec.tables[0];
    (0..t.rows).map(|r| (t.seed)(r) as u128).sum()
}

/// Quiesce, then return `(rows, Σ u64 prefix)` over every record.
fn table_sum<E: BatchEngine>(engine: &E) -> (u64, u128) {
    engine.quiesce();
    let (mut rows, mut sum) = (0u64, 0u128);
    engine.snapshot_records(&mut |_, data| {
        sum += bohm_common::value::get_u64(data, 0) as u128;
        rows += 1;
    });
    (rows, sum)
}

/// Order-independent digest of the full committed state (visit order of
/// `snapshot_records` is unspecified): a wrapping sum of per-record
/// hashes, with the record count folded in.
pub fn state_digest<E: BatchEngine>(engine: &E) -> u64 {
    engine.quiesce();
    let (mut acc, mut count) = (0u64, 0u64);
    engine.snapshot_records(&mut |rid, data| {
        let mut h = (rid.table.0 as u64) << 48 ^ rid.row ^ 0x9E37_79B9_7F4A_7C15;
        let mut words = data.chunks_exact(8);
        for w in &mut words {
            let w = u64::from_le_bytes(w.try_into().expect("8-byte chunk"));
            h = (h.rotate_left(5) ^ w).wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        for &b in words.remainder() {
            h = (h.rotate_left(5) ^ b as u64).wrapping_mul(0x2545_F491_4F6C_DD1D);
        }
        acc = acc.wrapping_add(h ^ (h >> 29));
        count += 1;
    });
    acc ^ count.wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

/// The running sum audit of one engine instance: Σ(record − seed) must
/// equal the record writes committed so far (each adds exactly 1), with no
/// record lost or invented — checked after every window.
struct Auditor {
    enabled: bool,
    rows: u64,
    /// Σ seed + writes committed so far: what the table must sum to.
    expected_sum: u128,
}

impl Auditor {
    fn new(w: &Workload, spec: &DatabaseSpec) -> Self {
        Self {
            enabled: w.sum_audit,
            rows: spec.tables[0].rows,
            expected_sum: if w.sum_audit { seed_sum(spec) } else { 0 },
        }
    }

    /// Add `writes` committed record writes and check the table.
    fn check<E: BatchEngine>(&mut self, engine: &E, writes: u64) -> bool {
        self.expected_sum += writes as u128;
        !self.enabled || table_sum(engine) == (self.rows, self.expected_sum)
    }

    fn window<E: BatchEngine>(&mut self, engine: &E, what: &str, win: &Window, tally: &mut Tally) {
        let ok = self.check(engine, win.committed_writes);
        tally.window(what, win, ok);
    }
}

/// Tally of submitted transactions and failed ones across a child's phases.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    /// Human-readable reasons, empty when every check passed.
    problems: Vec<String>,
}

impl Tally {
    /// Account one closed-loop window; `audit_ok == false` fails all of it.
    fn window(&mut self, what: &str, w: &Window, audit_ok: bool) {
        self.attempted += w.submitted;
        let lost = w.submitted - w.committed - w.aborted;
        if !audit_ok {
            self.failed += w.submitted;
            self.problems.push(format!("{what}: state audit failed"));
        } else if w.aborted + lost > 0 {
            self.failed += w.aborted + lost;
            self.problems
                .push(format!("{what}: {} aborted, {lost} lost", w.aborted));
        }
    }

    fn write(&self, out: &mut Json) {
        out.set("attempted", self.attempted)
            .set("failed", self.failed)
            .set(
                "problems",
                self.problems
                    .iter()
                    .map(|p| Json::from(p.as_str()))
                    .collect::<Vec<_>>(),
            );
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn nums(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

// ---------------------------------------------------------------------------
// Engine construction
// ---------------------------------------------------------------------------

fn catalog_of(spec: &DatabaseSpec) -> CatalogSpec {
    spec.tables.iter().fold(CatalogSpec::new(), |c, t| {
        c.table(t.rows, t.record_size, t.seed)
    })
}

/// BOHM with the WAL on: `FsyncPolicy::PerBatch`, default segment size,
/// and the same thread split and index sizing `EngineKind::build` uses.
fn durable_config(spec: &DatabaseSpec, dir: &Path) -> BohmConfig {
    let (cc, exec) = bohm_split(thread_budget());
    let mut cfg = BohmConfig::with_threads(cc, exec);
    cfg.index_capacity = (spec.total_capacity() as usize).next_power_of_two();
    cfg.durability = Some(DurabilityConfig::new(dir));
    cfg
}

fn fresh_dir(base: &Path, name: &str) -> PathBuf {
    let dir = base.join(name);
    // A stale directory would make the new log inherit old segments.
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch directory");
    dir
}

/// Print the child's result as the last stdout line and leave without
/// running destructors (see the module docs).
fn finish(out: Json) -> ! {
    println!("{}", out.render());
    std::process::exit(0)
}

pub fn run(phase: Phase, args: &ChildArgs) -> ! {
    match phase {
        Phase::Engine(kind) => engine_phase(kind, args),
        Phase::Durable => durable_phase(args),
        Phase::Stream => stream_phase(args),
        Phase::Recover => recover_phase(args),
        Phase::Micro => finish(crate::micro::run(args)),
    }
}

// ---------------------------------------------------------------------------
// Engine phase
// ---------------------------------------------------------------------------

/// `/proc` accounting accumulated over BOHM's closed-loop windows.
#[derive(Default)]
struct ProcBudget {
    wall_s: f64,
    layers: BTreeMap<Layer, TaskCounters>,
    driver: TaskCounters,
    process_cpu_s: f64,
}

fn engine_phase(kind: EngineKind, args: &ChildArgs) -> ! {
    let w = args.workload;
    let spec = w.spec();
    let threads = thread_budget();
    let engine = kind.build(&spec, threads);
    let is_bohm = kind == EngineKind::Bohm;
    let (sessions, depth) = if is_bohm {
        (1, BOHM_DEPTH)
    } else {
        (threads, 1)
    };
    let mut gens: Vec<Box<dyn TxnGen>> = (0..sessions)
        .map(|i| w.generator(args.seed, Stream::Main, args.round, i))
        .collect();
    let mut out = Json::obj();
    out.set("setup_s", args.started.elapsed().as_secs_f64());

    let plan = Plan::for_engine(kind, args.seconds, args.trace);
    let mut tally = Tally::default();
    let mut auditor = Auditor::new(w, &spec);

    let warm = closed_window(&engine, &mut gens, depth, plan.warm, Duration::ZERO, false);
    auditor.window(&engine, "warm-up", &warm, &mut tally);
    let mut drain = warm.drain;

    let (rss_start, _) = procfs::memory_mb();
    let busy0 = engine.as_bohm().map(|b| (b.busy_times(), b.gc_retired()));
    let (mut untraced, mut traced, mut elapsed) = (Vec::new(), Vec::new(), Vec::new());
    let mut budget = ProcBudget::default();
    let (mut committed, mut committed_writes, mut cc_retries) = (0u64, 0u64, 0u64);
    let mut trace_acc: Option<crate::driver::TracedWindow> = None;
    let mut traced_wall_s = 0.0;
    for (i, &trace_this) in plan.windows.iter().enumerate() {
        let tasks0 = procfs::snapshot_tasks();
        let cpu0 = procfs::process_cpu_s();
        let mut win = closed_window(&engine, &mut gens, depth, plan.window, drain, trace_this);
        drain = win.drain;
        budget.process_cpu_s += procfs::process_cpu_s() - cpu0;
        for (layer, d) in procfs::layer_deltas(&tasks0, &procfs::snapshot_tasks()) {
            budget.layers.entry(layer).or_default().add(&d);
        }
        budget.driver.add(&win.driver);
        budget.wall_s += win.elapsed.as_secs_f64();
        elapsed.push(win.elapsed.as_secs_f64());
        committed += win.committed;
        committed_writes += win.committed_writes;
        cc_retries += win.cc_retries;
        if let Some(t) = win.traced.take() {
            traced.push(win.txn_per_s());
            traced_wall_s += win.elapsed.as_secs_f64();
            match &mut trace_acc {
                None => trace_acc = Some(t),
                Some(acc) => acc.absorb(t),
            }
        } else {
            untraced.push(win.txn_per_s());
        }
        auditor.window(&engine, &format!("window {i}"), &win, &mut tally);
    }
    let (rss_end, hwm) = procfs::memory_mb();

    out.set("windows", nums(&untraced))
        .set("window_s", plan.window.as_secs_f64())
        .set("window_elapsed_s", nums(&elapsed))
        .set("peak_rss_mb", hwm);
    let mut layer = Json::obj();
    let label = engine_label(kind);
    layer.set(
        &format!("{label}.cpu_us_per_txn"),
        budget.process_cpu_s * 1e6 / committed.max(1) as f64,
    );
    if !is_bohm {
        layer.set(
            &format!("{label}.abort_ratio"),
            cc_retries as f64 / (committed + cc_retries).max(1) as f64,
        );
    }

    if let Some(acc) = &trace_acc {
        let path = crate::parent::scratch_root().join(format!("trace-{}-{label}.jsonl", w.name));
        let lines = trace::write_jsonl(&path, &acc.tracers).expect("write trace file");
        let means = trace::span_means(acc.tracers.iter().flat_map(|t| t.samples()));
        let mut spans = Json::obj();
        spans
            .set("file", path.display().to_string())
            .set("lines", lines)
            .set("samples", means.samples)
            .set(
                "dropped",
                acc.tracers.iter().map(|t| t.dropped).sum::<u64>(),
            )
            .set("txn_ns", means.txn)
            .set("txn_self_ns", means.txn_self)
            .set("gen_ns", means.gen)
            .set("submit_ns", means.submit)
            .set("inflight_ns", means.inflight)
            .set("reap_ns", means.reap);
        out.set("spans", spans);
        if is_bohm {
            let driver_wall_ns = traced_wall_s * 1e9 * sessions as f64;
            layer
                .set("driver.gen_ns_per_txn", means.gen)
                .set("core.session.submit_ns_p50", acc.submit_ns.quantile(0.5))
                .set("core.session.submit_ns_p99", acc.submit_ns.quantile(0.99))
                .set(
                    "core.session.submit_blocked_share",
                    acc.submit_blocked_ns as f64 / driver_wall_ns,
                )
                .set(
                    "core.session.reap_wait_share",
                    acc.reap_ns as f64 / driver_wall_ns,
                )
                .set(
                    "trace.overhead_share",
                    1.0 - mean(&traced) / mean(&untraced),
                );
        }
    }

    if let (Some(bohm), Some(((cc0, exec0), gc0))) = (engine.as_bohm(), busy0) {
        let (cc_busy, exec_busy) = bohm.busy_times();
        let deltas = BohmDeltas {
            committed,
            committed_writes,
            cc_busy_s: (cc_busy - cc0).as_secs_f64(),
            exec_busy_s: (exec_busy - exec0).as_secs_f64(),
            gc_retired: bohm.gc_retired() - gc0,
            rss_growth_mb: rss_end - rss_start,
        };
        cost_budget(bohm, &budget, &deltas, &mut layer);
        if args.trace {
            let before_open = tally.attempted;
            let open_writes = open_loops(
                bohm,
                args,
                &plan,
                gens[0].as_mut(),
                stats::median(&untraced),
                &mut out,
                &mut layer,
                &mut tally,
            );
            // The open loop wrote too: one more audit covers it.
            if !auditor.check(&engine, open_writes) {
                tally.failed += tally.attempted - before_open;
                tally.problems.push("open loop: state audit failed".into());
            }
        }
    }

    if !w.sum_audit && args.round == 0 {
        equivalence_stream(kind, args, &mut out, &mut tally);
    }
    out.set("per_layer", layer);
    tally.write(&mut out);
    finish(out)
}

struct BohmDeltas {
    committed: u64,
    committed_writes: u64,
    cc_busy_s: f64,
    exec_busy_s: f64,
    gc_retired: u64,
    rss_growth_mb: f64,
}

/// BOHM's outside-in cost budget over the closed-loop windows: who used
/// the CPU (thread names), how much of it in the kernel, and what the
/// engine's own counters say about busy time and GC.
fn cost_budget(bohm: &Bohm, budget: &ProcBudget, d: &BohmDeltas, layer: &mut Json) {
    let (cc_threads, exec_threads) = bohm.thread_counts();
    let wall = budget.wall_s;
    let group = |l: Layer| budget.layers.get(&l).copied().unwrap_or_default();
    let (seq, cc, exec, other) = (
        group(Layer::Seq),
        group(Layer::Cc),
        group(Layer::Exec),
        group(Layer::Other),
    );
    let mut all = budget.driver;
    for g in [&seq, &cc, &exec, &other] {
        all.add(g);
    }
    let sys_share = |c: &TaskCounters| c.stime_s / c.cpu_s().max(1e-9);
    let engine_switches = seq.invol_switches + cc.invol_switches + exec.invol_switches;
    let txns = d.committed.max(1) as f64;
    layer
        .set("core.seq.cpu_share", seq.cpu_s() / wall)
        .set("core.cc.cpu_share", cc.cpu_s() / wall)
        .set("core.exec.cpu_share", exec.cpu_s() / wall)
        .set("driver.cpu_share", budget.driver.cpu_s() / wall)
        .set(
            "core.cpu_accounted_share",
            all.cpu_s() / budget.process_cpu_s.max(1e-9),
        )
        .set("core.cc.sys_share", sys_share(&cc))
        .set("core.exec.sys_share", sys_share(&exec))
        .set("core.minor_faults_per_txn", all.minor_faults as f64 / txns)
        .set(
            "core.invol_switches_per_ktxn",
            engine_switches as f64 * 1000.0 / txns,
        )
        .set("core.rss_growth_mb_per_s", d.rss_growth_mb / wall)
        .set(
            "core.gc.retired_per_write",
            d.gc_retired as f64 / d.committed_writes.max(1) as f64,
        )
        .set(
            "core.cc.busy_share",
            d.cc_busy_s / (cc_threads as f64 * wall),
        )
        .set(
            "core.exec.busy_share",
            d.exec_busy_s / (exec_threads as f64 * wall),
        );
}

/// One open-loop window at `rate`, with its failures tallied.
fn open_run(
    session: &bohm::BohmSession,
    gen: &mut dyn TxnGen,
    rate: f64,
    window: Duration,
    tally: &mut Tally,
) -> crate::driver::OpenWindow {
    let ow = open_window(session, gen, rate, window);
    tally.attempted += ow.sent;
    if ow.aborted > 0 {
        tally.failed += ow.aborted;
        tally
            .problems
            .push(format!("open loop: {} aborted", ow.aborted));
    }
    ow
}

/// BOHM in a traced run: one open-loop window at the workload's frozen
/// rate, and in round 0 the idle round trip and an open-loop window at
/// 0.8 x this child's closed-loop median. None of this is traced: spans
/// cover closed-loop windows only. Returns the record writes committed
/// here, for the audit.
#[allow(clippy::too_many_arguments)]
fn open_loops(
    bohm: &Bohm,
    args: &ChildArgs,
    plan: &Plan,
    gen: &mut dyn TxnGen,
    closed_median: f64,
    out: &mut Json,
    layer: &mut Json,
    tally: &mut Tally,
) -> u64 {
    let rate = args.workload.offered_rate;
    let session = bohm.session();
    let at_rate = open_run(&session, gen, rate, plan.open_window, tally);
    let mut open = Json::obj();
    open.set("offered_rate", rate)
        .set("window_s", plan.open_window.as_secs_f64())
        .set("samples", at_rate.latency_ns.count())
        .set(
            "samples_beyond_p99",
            at_rate.latency_ns.samples_beyond(0.99),
        );
    out.set("open", open);
    layer
        .set("bohm_p50_us", at_rate.latency_ns.quantile(0.5) / 1e3)
        .set("bohm_p99_us", at_rate.latency_ns.quantile(0.99) / 1e3)
        .set(
            "driver.late_share",
            at_rate.late_sends as f64 / at_rate.sent.max(1) as f64,
        );
    let mut writes = at_rate.committed_writes;
    if args.round > 0 {
        return writes;
    }

    let mut rt = Vec::with_capacity(ROUNDTRIPS);
    for _ in 0..ROUNDTRIPS {
        let txn = gen.next_txn();
        let txn_writes = txn.writes.len() as u64;
        let t0 = Instant::now();
        let ok = session.submit(txn).wait().committed;
        rt.push(t0.elapsed().as_secs_f64() * 1e6);
        tally.attempted += 1;
        if ok {
            writes += txn_writes;
        } else {
            tally.failed += 1;
            tally.problems.push("round trip aborted".into());
        }
    }
    layer.set("core.roundtrip_us", stats::median(&rt));

    let hi = open_run(&session, gen, 0.8 * closed_median, plan.open_window, tally);
    writes += hi.committed_writes;
    layer
        .set("core.open_hi.p99_us", hi.latency_ns.quantile(0.99) / 1e3)
        .set(
            "core.open_hi.achieved_share",
            hi.sent as f64 / hi.elapsed.as_secs_f64() / (0.8 * closed_median),
        );
    writes
}

/// `tpcc_mix`: one fixed single-session stream into a **fresh** engine;
/// the parent requires identical outcome fingerprints and state digests
/// from all four engines.
fn equivalence_stream(kind: EngineKind, args: &ChildArgs, out: &mut Json, tally: &mut Tally) {
    let w = args.workload;
    let engine: AnyEngine = kind.build(&w.spec(), thread_budget());
    let mut gen = w.generator(args.seed, Stream::Equivalence, 0, 0);
    let txns: Vec<Txn> = (0..EQUIVALENCE_TXNS).map(|_| gen.next_txn()).collect();
    let outcomes = engine.run_stream(&txns);
    let aborted = outcomes.iter().filter(|o| !o.committed).count() as u64;
    let lost = (txns.len() - outcomes.len()) as u64;
    tally.attempted += txns.len() as u64;
    if aborted + lost > 0 {
        tally.failed += aborted + lost;
        tally.problems.push(format!(
            "equivalence stream: {aborted} aborted, {lost} lost"
        ));
    }
    let fingerprint = outcomes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, o| {
        (h ^ o.fingerprint ^ u64::from(o.committed)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    let mut eq = Json::obj();
    eq.set("txns", txns.len())
        .set("fingerprint", format!("{fingerprint:016x}"))
        .set("digest", format!("{:016x}", state_digest(&engine)));
    out.set("equivalence", eq);
}

// ---------------------------------------------------------------------------
// Durable phases (BOHM only)
// ---------------------------------------------------------------------------

fn durable_phase(args: &ChildArgs) -> ! {
    let w = args.workload;
    let spec = w.spec();
    let dir = fresh_dir(&args.dir, "wal-closed");
    let engine = build_bohm_with(&spec, durable_config(&spec, &dir));
    let mut gens = vec![w.generator(args.seed, Stream::Durable, args.round, 0)];
    let plan = Plan::durable(args.seconds);
    let mut tally = Tally::default();
    let mut auditor = Auditor::new(w, &spec);
    let warm = closed_window(
        &engine,
        &mut gens,
        BOHM_DEPTH,
        plan.warm,
        Duration::ZERO,
        false,
    );
    auditor.window(&engine, "durable warm-up", &warm, &mut tally);
    let mut drain = warm.drain;
    let wal = engine.wal().expect("durability configured");
    let batches0 = wal.batches_logged();
    let (mut windows, mut committed) = (Vec::new(), 0u64);
    for i in 0..plan.windows.len() {
        let win = closed_window(&engine, &mut gens, BOHM_DEPTH, plan.window, drain, false);
        drain = win.drain;
        windows.push(win.txn_per_s());
        committed += win.committed;
        auditor.window(&engine, &format!("durable window {i}"), &win, &mut tally);
    }
    let batches = wal.batches_logged() - batches0;
    let mut out = Json::obj();
    let mut layer = Json::obj();
    layer.set(
        "core.seq.txns_per_batch",
        committed as f64 / batches.max(1) as f64,
    );
    out.set("windows", nums(&windows))
        .set("window_s", plan.window.as_secs_f64())
        .set("per_layer", layer);
    tally.write(&mut out);
    finish(out)
}

fn stream_phase(args: &ChildArgs) -> ! {
    let w = args.workload;
    let spec = w.spec();
    let dir = fresh_dir(&args.dir, "wal-stream");
    let engine = AnyEngine::Bohm(build_bohm_with(&spec, durable_config(&spec, &dir)));
    let mut gen = w.generator(args.seed, Stream::Recovery, 0, 0);
    let txns: Vec<Txn> = (0..w.stream_txns).map(|_| gen.next_txn()).collect();
    let outcomes = engine.run_stream(&txns);
    let (committed, reaped) = (
        outcomes.iter().filter(|o| o.committed).count() as u64,
        outcomes.len(),
    );
    let n = w.stream_txns as u64;
    let mut tally = Tally {
        attempted: n,
        ..Tally::default()
    };
    if committed != n {
        tally.failed += n - committed;
        tally.problems.push(format!(
            "recovery stream: {} of {n} not committed ({reaped} reaped)",
            n - committed
        ));
    }
    let digest = state_digest(&engine);
    let log_bytes = engine.as_bohm().expect("built as BOHM").log_bytes();
    // The phase under test: a clean shutdown syncs and closes the log.
    engine.shutdown();
    let mut out = Json::obj();
    out.set("txns", n)
        .set("log_bytes", log_bytes)
        .set("wal_bytes_per_txn", log_bytes as f64 / n as f64)
        .set("digest", format!("{digest:016x}"));
    tally.write(&mut out);
    finish(out)
}

fn recover_phase(args: &ChildArgs) -> ! {
    let w = args.workload;
    let spec = w.spec();
    let dir = args.dir.join("wal-stream");
    let cfg = durable_config(&spec, &dir);
    let t0 = Instant::now();
    let (engine, outcomes) = Bohm::recover(cfg, catalog_of(&spec)).expect("recover the stream log");
    let recover_s = t0.elapsed().as_secs_f64();
    // The log holds the stream plus one barrier transaction for every
    // `state_digest` taken on it so far: the stream phase's, and one per
    // earlier recovery round (each recovered engine resumes appending).
    let n = w.stream_txns as u64 + 1 + args.round as u64;
    let committed = outcomes.iter().filter(|o| o.committed).count() as u64;
    let mut tally = Tally {
        attempted: n,
        ..Tally::default()
    };
    if outcomes.len() as u64 != n || committed != n {
        tally.failed += n - committed.min(n);
        tally.problems.push(format!(
            "recovery: replayed {} of {n} logged transactions, {committed} committed",
            outcomes.len()
        ));
    }
    let mut out = Json::obj();
    out.set("recover_s", recover_s)
        .set("replayed", outcomes.len())
        .set("digest", format!("{:016x}", state_digest(&engine)));
    tally.write(&mut out);
    finish(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::find;

    #[test]
    fn plans_spend_about_the_requested_seconds() {
        let s = 20.0;
        let total = |p: &Plan| {
            p.warm.as_secs_f64()
                + p.window.as_secs_f64() * p.windows.len() as f64
                + p.open_window.as_secs_f64()
        };
        // Untraced: every round measures three baselines, BOHM and durable
        // BOHM; the count-based recovery stream and replays take the rest.
        let round = 3.0 * total(&Plan::for_engine(EngineKind::Tpl, s, false))
            + total(&Plan::for_engine(EngineKind::Bohm, s, false))
            + total(&Plan::durable(s));
        let untraced = ROUNDS as f64 * round;
        assert!(
            (0.85 * s..=0.9 * s).contains(&untraced),
            "untraced plan: {untraced} s"
        );
        // Traced: baselines once, BOHM (with its open loop) and durable
        // BOHM every round, plus the open loop near saturation once.
        let bohm = Plan::for_engine(EngineKind::Bohm, s, true);
        let traced = 3.0 * total(&Plan::for_engine(EngineKind::Occ, s, true))
            + ROUNDS as f64 * (total(&bohm) + total(&Plan::durable(s)))
            + bohm.open_window.as_secs_f64();
        assert!(traced <= 0.9 * s, "traced plan: {traced} s");
    }

    #[test]
    fn traced_and_untraced_windows_share_a_mean_position() {
        let position = |traced: bool| -> usize {
            (0..BOHM_TRACE_PATTERN.len())
                .filter(|&i| BOHM_TRACE_PATTERN[i] == traced)
                .sum()
        };
        assert_eq!(position(true), position(false));
        let traced = Plan::for_engine(EngineKind::Bohm, 20.0, true);
        assert_eq!(traced.windows, &BOHM_TRACE_PATTERN);
        assert!(Plan::for_engine(EngineKind::Bohm, 20.0, false)
            .windows
            .iter()
            .all(|&t| !t));
    }

    #[test]
    fn sum_audit_accepts_exact_state_and_rejects_drift() {
        let w = find("micro_rmw10").unwrap();
        // A small stand-in spec with the same shape as the workload's.
        let spec = bohm_workloads::micro::MicroConfig {
            records: 500,
            rmws_per_txn: 10,
        }
        .spec();
        assert!(w.sum_audit);
        let engine = EngineKind::Tpl.build(&spec, 2);
        let mut auditor = Auditor::new(w, &spec);
        assert!(auditor.check(&engine, 0));
        let mut gens: Vec<Box<dyn TxnGen>> = vec![Box::new(bohm_workloads::micro::MicroGen::new(
            bohm_workloads::micro::MicroConfig {
                records: 500,
                rmws_per_txn: 10,
            },
            3,
        ))];
        let win = closed_window(
            &engine,
            &mut gens,
            1,
            Duration::from_millis(20),
            Duration::ZERO,
            false,
        );
        assert!(auditor.check(&engine, win.committed_writes));
        assert!(!auditor.check(&engine, 1), "one write too many expected");
        auditor.expected_sum -= 2;
        assert!(!auditor.check(&engine, 0), "one write too few expected");
    }

    #[test]
    fn state_digest_is_order_independent_and_content_sensitive() {
        let spec = bohm_workloads::micro::MicroConfig {
            records: 300,
            rmws_per_txn: 2,
        }
        .spec();
        // Hash-ordered (BOHM) and array-ordered (2PL) walks must agree.
        let a = EngineKind::Bohm.build(&spec, 2);
        let b = EngineKind::Tpl.build(&spec, 2);
        assert_eq!(state_digest(&a), state_digest(&b));
        let rid = bohm_common::RecordId::new(0, 7);
        let txn = Txn::new(
            vec![rid],
            vec![rid],
            bohm_common::Procedure::ReadModifyWrite { delta: 1 },
        );
        let before = state_digest(&b);
        assert!(b.run_stream(std::slice::from_ref(&txn))[0].committed);
        assert_ne!(state_digest(&b), before);
        assert!(a.run_stream(std::slice::from_ref(&txn))[0].committed);
        assert_eq!(state_digest(&a), state_digest(&b));
        a.shutdown();
    }

    #[test]
    fn tally_fails_a_whole_window_on_a_failed_audit() {
        let mut t = Tally::default();
        let win = Window {
            submitted: 100,
            committed: 98,
            aborted: 1,
            ..Window::default()
        };
        t.window("w0", &win, true);
        assert_eq!((t.attempted, t.failed), (100, 2), "1 aborted + 1 lost");
        t.window("w1", &win, false);
        assert_eq!((t.attempted, t.failed), (200, 102));
        assert_eq!(t.problems.len(), 2);
    }
}
