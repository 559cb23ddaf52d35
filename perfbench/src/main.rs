//! The repo benchmark. One command, four workloads, BOHM against 2PL, OCC
//! and Hekaton through the public `BatchEngine`/`Session` facade.
//!
//! ```text
//! perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]
//! perfbench --list
//! perfbench --selfcheck [--seed N] [--seconds S]
//! ```
//!
//! The last stdout line of a single-workload run is the result contract
//! (`correct`, `attempted`, `failed`, `metrics`); the line before it is
//! the full summary, which ends with `"claim": null` — this benchmark is
//! the ruler, it claims no gain. See README.md in this directory.

mod child;
mod driver;
mod hist;
mod json;
mod meta;
mod metrics;
mod micro;
mod parent;
mod procfs;
mod stats;
mod trace;
mod workload;

use json::Json;
use metrics::{Better, END_TO_END, PER_LAYER};
use parent::{RunArgs, RunResult};
use std::process::ExitCode;
use std::time::Instant;
use workload::{Workload, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json` (a unit test keeps the two equal):
/// what a run without `--seconds` measures for.
pub const DEFAULT_SECONDS: f64 = 20.0;

struct Cli {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    json: Option<String>,
    list: bool,
    selfcheck: bool,
    child: Option<child::Phase>,
    round: usize,
    dir: Option<String>,
}

fn usage() -> String {
    format!(
        "usage: perfbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--json PATH]\n\
         \x20      perfbench --list | --selfcheck\n\
         workloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    )
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        json: None,
        list: false,
        selfcheck: false,
        child: None,
        round: 0,
        dir: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--list" => cli.list = true,
            "--selfcheck" => cli.selfcheck = true,
            "--workload" => {
                let name = value()?;
                cli.workload =
                    Some(workload::find(name).ok_or_else(|| format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                cli.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                let s: f64 = value()?
                    .parse()
                    .map_err(|_| "--seconds takes a number".to_string())?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                };
            }
            "--json" => cli.json = Some(value()?.to_string()),
            "--child" => {
                let v = value()?;
                cli.child =
                    Some(parent::parse_phase(v).ok_or_else(|| format!("unknown phase {v:?}"))?);
            }
            "--round" => {
                cli.round = value()?
                    .parse()
                    .ok()
                    .filter(|&r| r < child::ROUNDS)
                    .ok_or_else(|| "--round out of range".to_string())?;
            }
            "--dir" => cli.dir = Some(value()?.to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
        println!(
            "  {:<18} open-loop offered_rate {} txn/s, recovery stream {} txns",
            "", w.offered_rate, w.stream_txns
        );
    }
    for (title, defs) in [
        ("end-to-end metrics (--trace 0)", END_TO_END),
        ("per-layer metrics (--trace 1)", PER_LAYER),
    ] {
        println!("{title}:");
        for m in defs {
            println!(
                "  {:<40} {:<6} better: {}",
                m.name,
                m.unit,
                m.better.as_str()
            );
        }
    }
}

fn run_one(args: &RunArgs, json_path: Option<&str>) -> Result<RunResult, String> {
    let r = parent::run(args)?;
    parent::print_report(args, &r);
    let summary = r.summary.render();
    if let Some(path) = json_path {
        std::fs::write(path, format!("{summary}\n")).map_err(|e| format!("write {path}: {e}"))?;
    }
    println!("{summary}");
    println!("{}", r.contract_line());
    Ok(r)
}

/// Two full untraced sets back to back; every end-to-end metric of every
/// workload must agree within its bound. This is the repeatability
/// criterion, and the tool for re-deriving bounds on another host.
fn selfcheck(seed: u64, seconds: f64) -> Result<bool, String> {
    let doc = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("--selfcheck reads the bounds from ./BENCHMARK.json: {e}"))
        .and_then(|text| Json::parse(&text))?;
    let bound_of = |name: &str| {
        doc.get("end_to_end")?
            .items()
            .iter()
            .find(|m| m.get("name").and_then(Json::as_str) == Some(name))?
            .get("bound")?
            .as_f64()
    };
    let mut sets: Vec<Vec<RunResult>> = Vec::new();
    for set in 0..2 {
        println!("-- selfcheck set {} of 2", set + 1);
        let mut results = Vec::new();
        for w in &WORKLOADS {
            let args = RunArgs {
                workload: w,
                seed,
                seconds,
                trace: false,
            };
            let r = parent::run(&args)?;
            parent::print_report(&args, &r);
            results.push(r);
        }
        sets.push(results);
    }
    println!(
        "\n{:<18} {:<24} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "set 1", "set 2", "worse by", "bound"
    );
    let mut ok = true;
    for (w, (a, b)) in WORKLOADS.iter().zip(sets[0].iter().zip(&sets[1])) {
        ok &= a.correct() && b.correct();
        for (ma, mb) in a.metrics.iter().zip(&b.metrics) {
            let bound =
                bound_of(ma.def.name).ok_or_else(|| format!("no bound for {}", ma.def.name))?;
            // Signed: positive when the second set is worse than the first.
            let worse = match ma.def.better {
                Better::Higher => (ma.value - mb.value) / ma.value,
                Better::Lower => (mb.value - ma.value) / ma.value,
            };
            let within = worse.abs() <= bound;
            ok &= within;
            println!(
                "{:<18} {:<24} {:>14.4} {:>14.4} {:>8.1}% {:>6.0}%{}",
                w.name,
                ma.def.name,
                ma.value,
                mb.value,
                worse * 100.0,
                bound * 100.0,
                if within { "" } else { "  <-- EXCEEDS BOUND" }
            );
        }
    }
    println!(
        "\nselfcheck: {}",
        if ok {
            "both sets agree within every bound"
        } else {
            "FAILED (a set disagreed beyond a bound, or an output check failed)"
        }
    );
    Ok(ok)
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let seconds = cli.seconds.unwrap_or(DEFAULT_SECONDS);

    if let Some(phase) = cli.child {
        let (Some(workload), Some(dir)) = (cli.workload, cli.dir) else {
            eprintln!("perfbench: --child needs --workload and --dir");
            return ExitCode::from(2);
        };
        child::run(
            phase,
            &child::ChildArgs {
                workload,
                seed: cli.seed,
                seconds,
                trace: cli.trace,
                round: cli.round,
                dir: dir.into(),
                started,
            },
        );
    }
    if cli.list {
        list();
        return ExitCode::SUCCESS;
    }
    if let Some(w) = meta::host_warning() {
        println!("{w}");
    }
    let outcome = if cli.selfcheck {
        selfcheck(cli.seed, seconds)
    } else {
        let chosen: Vec<&'static Workload> = match cli.workload {
            Some(w) => vec![w],
            None => WORKLOADS.iter().collect(),
        };
        chosen.iter().try_fold(true, |ok, &workload| {
            let args = RunArgs {
                workload,
                seed: cli.seed,
                seconds,
                trace: cli.trace,
            };
            // With several workloads, `--json PATH` gets the name inserted.
            let path = cli.json.as_ref().map(|p| {
                if chosen.len() == 1 {
                    p.clone()
                } else {
                    format!("{p}.{}", workload.name)
                }
            });
            run_one(&args, path.as_deref()).map(|r| ok && r.correct())
        })
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(3)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cli(args: &[&str]) -> Result<Cli, String> {
        parse_cli(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_drivers_invocation() {
        let c = cli(&[
            "--workload",
            "tpcc_mix",
            "--seed",
            "42",
            "--seconds",
            "24",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(c.workload.unwrap().name, "tpcc_mix");
        assert_eq!(c.seed, 42);
        assert_eq!(c.seconds, Some(24.0));
        assert!(c.trace && !c.list && !c.selfcheck && c.child.is_none());
    }

    #[test]
    fn defaults_and_rejections() {
        let c = cli(&[]).unwrap();
        assert_eq!((c.seed, c.trace, c.seconds), (1, false, None));
        assert!(c.workload.is_none());
        for bad in [
            vec!["--workload", "nope"],
            vec!["--seed", "-1"],
            vec!["--seconds", "0"],
            vec!["--seconds", "nan"],
            vec!["--trace", "2"],
            vec!["--seed"],
            vec!["--frobnicate"],
            vec!["--child", "engine:si"],
        ] {
            assert!(cli(&bad).is_err(), "{bad:?}");
        }
    }
}
