//! The parent process: spawn one child per engine and phase, check the
//! cross-process output conditions, combine the numbers, print.

use crate::child::{engine_label, Phase, ROUNDS};
use crate::json::Json;
use crate::metrics::{MetricDef, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workload::Workload;
use bohm_bench::engines::EngineKind;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

/// Measured in this order in every round.
const ENGINES: [EngineKind; 4] = [
    EngineKind::Tpl,
    EngineKind::Occ,
    EngineKind::Hekaton,
    EngineKind::Bohm,
];

pub struct RunArgs {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// One metric as reported: the value, and where it is a median of
/// windows, the sample behind it.
pub struct Reported {
    pub def: &'static MetricDef,
    pub value: f64,
    pub sample: Vec<f64>,
}

pub struct RunResult {
    pub metrics: Vec<Reported>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// Everything, for `--json` and the summary line.
    pub summary: Json,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    /// The one-line result contract: exactly `correct`, `attempted`,
    /// `failed` and `metrics`.
    pub fn contract_line(&self) -> String {
        let mut metrics = Json::obj();
        for m in &self.metrics {
            let mut v = Json::obj();
            v.set("value", m.value).set("unit", m.def.unit);
            metrics.set(m.def.name, v);
        }
        let mut line = Json::obj();
        line.set("correct", self.correct())
            .set("attempted", self.attempted)
            .set("failed", self.failed)
            .set("metrics", metrics);
        line.render()
    }
}

pub fn phase_flag(phase: Phase) -> String {
    match phase {
        Phase::Engine(k) => format!("engine:{}", engine_label(k)),
        Phase::Durable => "durable".into(),
        Phase::Stream => "stream".into(),
        Phase::Recover => "recover".into(),
        Phase::Micro => "micro".into(),
    }
}

pub fn parse_phase(flag: &str) -> Option<Phase> {
    let kind = |label: &str| ENGINES.into_iter().find(|&k| engine_label(k) == label);
    match flag.split_once(':') {
        Some(("engine", label)) => kind(label).map(Phase::Engine),
        Some(_) => None,
        None => match flag {
            "durable" => Some(Phase::Durable),
            "stream" => Some(Phase::Stream),
            "recover" => Some(Phase::Recover),
            "micro" => Some(Phase::Micro),
            _ => None,
        },
    }
}

/// Run one child to completion and parse the JSON object on its last
/// stdout line. The child is always waited for, so no process outlives
/// the run.
fn child(args: &RunArgs, dir: &Path, phase: Phase, round: usize) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let what = phase_flag(phase);
    let output = Command::new(exe)
        .arg("--child")
        .arg(&what)
        .arg("--workload")
        .arg(args.workload.name)
        .arg("--seed")
        .arg(args.seed.to_string())
        .arg("--seconds")
        .arg(args.seconds.to_string())
        .arg("--trace")
        .arg(if args.trace { "1" } else { "0" })
        .arg("--round")
        .arg(round.to_string())
        .arg("--dir")
        .arg(dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {what}: {e}"))?;
    if !output.status.success() {
        return Err(format!("child {what} exited with {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    Json::parse(last).map_err(|e| format!("child {what}: unparsable result ({e}): {last:?}"))
}

fn num(j: &Json, key: &str) -> f64 {
    j.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN)
}

fn num_list(j: &Json, key: &str) -> Vec<f64> {
    j.get(key)
        .map(|l| l.items().iter().filter_map(Json::as_f64).collect())
        .unwrap_or_default()
}

fn text<'a>(j: &'a Json, path: &[&str]) -> &'a str {
    path.iter()
        .try_fold(j, |j, k| j.get(k))
        .and_then(Json::as_str)
        .unwrap_or("")
}

/// Scratch space inside the checkout (the benchmark may write nowhere
/// else); `.gitignore` names it.
pub fn scratch_root() -> PathBuf {
    PathBuf::from(".perfbench")
}

pub fn run(args: &RunArgs) -> Result<RunResult, String> {
    let out_dir = scratch_root();
    let dir = out_dir.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    // Traces are written beside this directory and outlive the run (they
    // are its product); the WAL directories inside it do not.
    let result = run_in(args, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// Samples per metric name, gathered over children and rounds. Every
/// reported value is the median of its samples (`setup_s` alone is a sum
/// of per-engine medians).
#[derive(Default)]
struct Samples(BTreeMap<String, Vec<f64>>);

impl Samples {
    fn extend(&mut self, name: &str, values: &[f64]) {
        self.0.entry(name.to_string()).or_default().extend(values);
    }

    /// Every `per_layer` number a child reported is one sample.
    fn absorb_layer(&mut self, child: &Json) {
        for (name, v) in child.get("per_layer").map_or(&[][..], Json::fields) {
            if let Some(v) = v.as_f64() {
                self.extend(name, &[v]);
            }
        }
    }
}

/// What the children attempted and failed, and their raw results.
struct Ledger {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    children: Json,
}

impl Ledger {
    fn absorb(&mut self, name: String, j: &Json) {
        self.attempted += num(j, "attempted") as u64;
        self.failed += num(j, "failed") as u64;
        for p in j.get("problems").map_or(&[][..], Json::items) {
            self.problems
                .push(format!("{name}: {}", p.as_str().unwrap_or("?")));
        }
        self.children.set(&name, j.clone());
    }

    /// A cross-process check failed: every transaction it covers failed.
    fn fail(&mut self, txns: u64, problem: String) {
        self.failed += txns;
        self.problems.push(problem);
    }
}

fn run_in(args: &RunArgs, dir: &Path) -> Result<RunResult, String> {
    let mut ledger = Ledger {
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        children: Json::obj(),
    };
    let mut samples = Samples::default();
    let mut setups: Vec<Vec<f64>> = vec![Vec::new(); ENGINES.len()];
    let mut equivalence: Vec<(EngineKind, Json)> = Vec::new();
    // The recovery phases run untraced only: they feed end-to-end metrics
    // and an output check, and no per-layer metric. The log is written
    // once, up front; every round then recovers it.
    let stream = if args.trace {
        None
    } else {
        let stream = child(args, dir, Phase::Stream, 0)?;
        samples.extend("wal_bytes_per_txn", &[num(&stream, "wal_bytes_per_txn")]);
        ledger.absorb("stream".into(), &stream);
        Some(stream)
    };
    for round in 0..ROUNDS {
        for (e, kind) in ENGINES.into_iter().enumerate() {
            // A traced run needs the baselines once, for their span files,
            // CPU cost and abort ratios; the per-layer budget is BOHM's.
            if args.trace && round > 0 && kind != EngineKind::Bohm {
                continue;
            }
            let label = engine_label(kind);
            let j = child(args, dir, Phase::Engine(kind), round)?;
            setups[e].push(num(&j, "setup_s"));
            samples.extend(&format!("{label}_txn_per_s"), &num_list(&j, "windows"));
            if kind == EngineKind::Bohm {
                samples.extend("bohm_peak_rss_mb", &[num(&j, "peak_rss_mb")]);
            }
            samples.absorb_layer(&j);
            if let Some(eq) = j.get("equivalence") {
                equivalence.push((kind, eq.clone()));
            }
            ledger.absorb(format!("{label}.{round}"), &j);
        }
        let durable = child(args, dir, Phase::Durable, round)?;
        samples.extend("bohm_durable_txn_per_s", &num_list(&durable, "windows"));
        samples.absorb_layer(&durable);
        ledger.absorb(format!("durable.{round}"), &durable);

        // One recovery per round, so a stall of the host cannot hit all
        // three of them the way it would hit three in a row.
        if let Some(stream) = &stream {
            let recover = child(args, dir, Phase::Recover, round)?;
            samples.extend("recover_s", &[num(&recover, "recover_s")]);
            let (before, after) = (text(stream, &["digest"]), text(&recover, &["digest"]));
            ledger.absorb(format!("recover.{round}"), &recover);
            if before.is_empty() || before != after {
                ledger.fail(
                    args.workload.stream_txns as u64,
                    format!(
                        "recovery {round}: recovered state digest {after} != pre-shutdown \
                         digest {before}"
                    ),
                );
            }
        }
    }
    if args.trace {
        let micro = child(args, dir, Phase::Micro, 0)?;
        samples.absorb_layer(&micro);
        ledger.absorb("micro".into(), &micro);
    }

    // The fixed tpcc_mix stream must leave all four engines with the same
    // per-transaction outcomes and the same state.
    if let Some(((first, reference), rest)) = equivalence.split_first() {
        for (kind, eq) in rest {
            for field in ["fingerprint", "digest"] {
                let (a, b) = (text(reference, &[field]), text(eq, &[field]));
                if a.is_empty() || a != b {
                    ledger.fail(
                        num(eq, "txns") as u64,
                        format!(
                            "equivalence stream: {} {field} {b} != {} {field} {a}",
                            engine_label(*kind),
                            engine_label(*first)
                        ),
                    );
                }
            }
        }
    }
    if !args.workload.sum_audit && equivalence.len() != ENGINES.len() {
        ledger.fail(0, "equivalence stream: not every engine reported".into());
    }

    // -- combine
    let setup_s: f64 = setups.iter().map(|s| stats::median(s)).sum();
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::new();
    for def in wanted {
        let sample = samples.0.get(def.name).cloned().unwrap_or_default();
        let value = match def.name {
            "setup_s" => setup_s,
            _ if sample.is_empty() => f64::NAN,
            _ => stats::median(&sample),
        };
        if value.is_finite() {
            metrics.push(Reported { def, value, sample });
        } else {
            ledger.fail(0, format!("metric {} was not produced", def.name));
        }
    }

    let Ledger {
        attempted,
        failed,
        problems,
        children,
    } = ledger;
    let mut summary = Json::obj();
    summary
        .set("workload", args.workload.name)
        .set("why", args.workload.why)
        .set("offered_rate", args.workload.offered_rate)
        .set("stream_txns", args.workload.stream_txns)
        .set(
            "meta",
            crate::meta::collect(args.seed, args.seconds, args.trace),
        );
    let mut ms = Json::obj();
    for m in &metrics {
        let mut v = Json::obj();
        v.set("value", m.value)
            .set("unit", m.def.unit)
            .set("better", m.def.better.as_str());
        if m.sample.len() > 1 {
            let (q1, _, q3) = stats::quartiles(&m.sample);
            v.set("q1", q1).set("q3", q3).set("R", m.sample.len());
        }
        ms.set(m.def.name, v);
    }
    summary
        .set("metrics", ms)
        .set("attempted", attempted)
        .set("failed", failed)
        .set("failed_share", failed as f64 / attempted.max(1) as f64)
        .set(
            "problems",
            problems
                .iter()
                .map(|p| Json::from(p.as_str()))
                .collect::<Vec<_>>(),
        )
        .set("children", children)
        .set("claim", Json::Null);
    Ok(RunResult {
        metrics,
        attempted,
        failed,
        problems,
        summary,
    })
}

/// Human-readable report of one run, printed before the JSON lines.
pub fn print_report(args: &RunArgs, r: &RunResult) {
    let meta = r.summary.get("meta").expect("summary has meta");
    println!(
        "== {} (seed {}, {} s, {}) ==",
        args.workload.name,
        args.seed,
        args.seconds,
        if args.trace {
            "traced: per-layer metrics"
        } else {
            "untraced: end-to-end metrics"
        }
    );
    println!("   {}", args.workload.why);
    println!("   load: {}", text(meta, &["load_shape"]));
    println!(
        "   host: {} cores, kernel {}, {}, git {}, allocator {}, fsync {}",
        num(meta, "nproc"),
        text(meta, &["kernel"]),
        text(meta, &["rustc"]),
        text(meta, &["git_sha"]),
        text(meta, &["allocator"]),
        text(meta, &["fsync_policy"]),
    );
    println!(
        "   open loop offered_rate {} txn/s (frozen); recovery stream {} txns",
        args.workload.offered_rate, args.workload.stream_txns
    );
    println!(
        "   {:<40} {:>14} {:<6} {:>14} {:>14} {:>3}  better",
        "metric", "value", "unit", "q1", "q3", "R"
    );
    for m in &r.metrics {
        let (q1, q3, n) = if m.sample.len() > 1 {
            let (q1, _, q3) = stats::quartiles(&m.sample);
            (
                format!("{q1:.4}"),
                format!("{q3:.4}"),
                m.sample.len().to_string(),
            )
        } else {
            ("-".into(), "-".into(), "-".into())
        };
        println!(
            "   {:<40} {:>14.4} {:<6} {:>14} {:>14} {:>3}  {}",
            m.def.name,
            m.value,
            m.def.unit,
            q1,
            q3,
            n,
            m.def.better.as_str()
        );
    }
    if args.trace {
        let children = r.summary.get("children").expect("summary has children");
        if let Some(open) = children.get("bohm.0").and_then(|b| b.get("open")) {
            println!(
                "   open loop: {} latency samples per window of {} s, {} beyond the p99",
                num(open, "samples"),
                num(open, "window_s"),
                num(open, "samples_beyond_p99")
            );
        }
        for kind in ENGINES {
            let label = engine_label(kind);
            // Every traced round rewrites the engine's span file; report
            // the last one, which is the file left on disk.
            let spans = (0..ROUNDS)
                .rev()
                .find_map(|round| children.get(&format!("{label}.{round}"))?.get("spans"));
            if let Some(s) = spans {
                println!(
                    "   spans {label:<8} {} samples -> {}: txn {:.0} ns = gen {:.0} + submit {:.0} \
                     + inflight {:.0} + reap {:.0} + self {:.0}",
                    num(s, "samples"),
                    text(s, &["file"]),
                    num(s, "txn_ns"),
                    num(s, "gen_ns"),
                    num(s, "submit_ns"),
                    num(s, "inflight_ns"),
                    num(s, "reap_ns"),
                    num(s, "txn_self_ns"),
                );
            }
        }
    }
    println!(
        "   failed_share {} ({} failed of {} attempted){}",
        r.failed as f64 / r.attempted.max(1) as f64,
        r.failed,
        r.attempted,
        if r.correct() {
            "; every output check passed"
        } else {
            ""
        }
    );
    for p in &r.problems {
        println!("   CHECK FAILED: {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_flags_round_trip() {
        let mut phases = vec![Phase::Durable, Phase::Stream, Phase::Recover, Phase::Micro];
        for k in ENGINES {
            phases.push(Phase::Engine(k));
        }
        for p in phases {
            assert_eq!(parse_phase(&phase_flag(p)), Some(p));
        }
        for bad in ["", "engine", "engine:si", "setup:tpl", "x:y", "Durable"] {
            assert_eq!(parse_phase(bad), None, "{bad}");
        }
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let r = RunResult {
            metrics: vec![Reported {
                def: &END_TO_END[0],
                value: 0.8127,
                sample: vec![],
            }],
            attempted: 1000,
            failed: 0,
            problems: vec![],
            summary: Json::obj(),
        };
        let line = Json::parse(&r.contract_line()).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct").unwrap().as_bool(), Some(true));
        let m = line.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
        let bad = RunResult { failed: 3, ..r };
        assert!(!bad.correct());
    }
}
