//! `/proc` readers: per-thread CPU, faults and context switches, grouped
//! into layers by thread name, plus process memory high-water marks.
//!
//! The pipeline stages (`ingest`, `cc`, `exec`) are `pub(crate)` in
//! `bohm`, so the benchmark reaches them from the outside: the engine
//! names its threads `bohm-seq`, `bohm-cc-N` and `bohm-exec-N`, and the
//! kernel accounts CPU per thread.

use std::collections::BTreeMap;

/// Kernel clock ticks per second for `utime`/`stime` (`USER_HZ`; 100 on
/// every Linux ABI the toolchain targets).
const TICKS_PER_S: f64 = 100.0;

/// The layer a thread's CPU time is charged to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    Seq,
    Cc,
    Exec,
    Driver,
    /// The benchmark's main thread and anything unrecognised.
    Other,
}

/// Name given to the benchmark's own load-generating threads.
pub const DRIVER_THREAD_PREFIX: &str = "pb-driver";

pub fn layer_of(comm: &str) -> Layer {
    if comm == "bohm-seq" {
        Layer::Seq
    } else if comm.starts_with("bohm-cc-") {
        Layer::Cc
    } else if comm.starts_with("bohm-exec-") {
        Layer::Exec
    } else if comm.starts_with(DRIVER_THREAD_PREFIX) {
        Layer::Driver
    } else {
        Layer::Other
    }
}

/// Cumulative counters of one thread (or a sum of threads).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskCounters {
    pub utime_s: f64,
    pub stime_s: f64,
    pub minor_faults: u64,
    pub invol_switches: u64,
}

impl TaskCounters {
    pub fn cpu_s(&self) -> f64 {
        self.utime_s + self.stime_s
    }

    pub fn add(&mut self, o: &TaskCounters) {
        self.utime_s += o.utime_s;
        self.stime_s += o.stime_s;
        self.minor_faults += o.minor_faults;
        self.invol_switches += o.invol_switches;
    }

    /// `self − earlier`, saturating (counters never run backwards).
    pub fn since(&self, earlier: &TaskCounters) -> TaskCounters {
        TaskCounters {
            utime_s: (self.utime_s - earlier.utime_s).max(0.0),
            stime_s: (self.stime_s - earlier.stime_s).max(0.0),
            minor_faults: self.minor_faults.saturating_sub(earlier.minor_faults),
            invol_switches: self.invol_switches.saturating_sub(earlier.invol_switches),
        }
    }
}

/// Parse one `/proc/<pid>/task/<tid>/stat` line into `(comm, counters)`.
/// The comm field is parenthesised and may itself contain spaces or
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(line: &str) -> Option<(String, TaskCounters)> {
    let open = line.find('(')?;
    let close = line.rfind(')')?;
    let comm = line.get(open + 1..close)?.to_string();
    // After ") ": state(3) ppid pgrp session tty tpgid flags minflt(10)
    // cminflt majflt cmajflt utime(14) stime(15) ...
    let rest: Vec<&str> = line.get(close + 1..)?.split_ascii_whitespace().collect();
    let field = |n: usize| rest.get(n - 3)?.parse::<u64>().ok();
    Some((
        comm,
        TaskCounters {
            utime_s: field(14)? as f64 / TICKS_PER_S,
            stime_s: field(15)? as f64 / TICKS_PER_S,
            minor_faults: field(10)?,
            invol_switches: 0,
        },
    ))
}

/// Pull `key:  <number> [kB]` out of a `/proc/.../status` document.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|l| {
        let rest = l.strip_prefix(key)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

fn read_task(dir: &std::path::Path) -> Option<(String, TaskCounters)> {
    let stat = std::fs::read_to_string(dir.join("stat")).ok()?;
    let (comm, mut c) = parse_stat(&stat)?;
    if let Ok(status) = std::fs::read_to_string(dir.join("status")) {
        c.invol_switches = status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Some((comm, c))
}

/// Counters of every live thread of this process, keyed by thread id.
pub fn snapshot_tasks() -> BTreeMap<u64, (String, TaskCounters)> {
    let mut out = BTreeMap::new();
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return out;
    };
    for e in entries.flatten() {
        let Some(tid) = e.file_name().to_str().and_then(|s| s.parse::<u64>().ok()) else {
            continue;
        };
        // A thread can exit between the directory read and the file read.
        if let Some(t) = read_task(&e.path()) {
            out.insert(tid, t);
        }
    }
    out
}

/// The calling thread's own counters (driver threads measure themselves:
/// they are gone by the time the main thread could snapshot them).
pub fn snapshot_self_thread() -> TaskCounters {
    read_task(std::path::Path::new("/proc/thread-self"))
        .map(|(_, c)| c)
        .unwrap_or_default()
}

/// Whole-process CPU seconds (includes threads that have already exited).
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map(|(_, c)| c.cpu_s())
        .unwrap_or(0.0)
}

/// `(VmRSS, VmHWM)` of this process in MB.
pub fn memory_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let mb = |key| status_field(&status, key).unwrap_or(0) as f64 / 1024.0;
    (mb("VmRSS"), mb("VmHWM"))
}

/// Per-layer deltas between two task snapshots. Threads present only in
/// `after` count from zero; threads that exited in between are dropped
/// (the benchmark's driver threads report themselves instead, so they are
/// skipped here to avoid counting them twice).
pub fn layer_deltas(
    before: &BTreeMap<u64, (String, TaskCounters)>,
    after: &BTreeMap<u64, (String, TaskCounters)>,
) -> BTreeMap<Layer, TaskCounters> {
    let mut out: BTreeMap<Layer, TaskCounters> = BTreeMap::new();
    for (tid, (comm, now)) in after {
        let layer = layer_of(comm);
        if layer == Layer::Driver {
            continue;
        }
        let zero = TaskCounters::default();
        let then = before.get(tid).map_or(&zero, |(_, c)| c);
        out.entry(layer).or_default().add(&now.since(then));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const STAT: &str = "4242 (bohm-cc-0) S 1 4242 4242 0 -1 4194560 1500 0 3 0 \
                        250 750 0 0 20 0 5 0 123456 1000000 2000 18446744073709551615";

    #[test]
    fn parses_a_task_stat_line() {
        let (comm, c) = parse_stat(STAT).unwrap();
        assert_eq!(comm, "bohm-cc-0");
        assert_eq!(c.minor_faults, 1500);
        assert_eq!(c.utime_s, 2.5);
        assert_eq!(c.stime_s, 7.5);
        assert_eq!(c.cpu_s(), 10.0);
    }

    #[test]
    fn comm_may_contain_spaces_and_parentheses() {
        let line = STAT.replace("(bohm-cc-0)", "(odd) name (x)");
        let (comm, c) = parse_stat(&line).unwrap();
        assert_eq!(comm, "odd) name (x");
        assert_eq!(c.minor_faults, 1500);
    }

    #[test]
    fn malformed_stat_lines_are_rejected() {
        assert!(parse_stat("").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
        assert!(parse_stat("no parens at all").is_none());
    }

    #[test]
    fn status_fields() {
        let status = "Name:\tperfbench\nVmHWM:\t  874012 kB\nVmRSS:\t  512 kB\n\
                      voluntary_ctxt_switches:\t7\nnonvoluntary_ctxt_switches:\t99\n";
        assert_eq!(status_field(status, "VmHWM"), Some(874012));
        assert_eq!(status_field(status, "VmRSS"), Some(512));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(99));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(status, "VmSwap"), None);
    }

    #[test]
    fn thread_names_map_to_layers_with_an_unknown_bucket() {
        assert_eq!(layer_of("bohm-seq"), Layer::Seq);
        assert_eq!(layer_of("bohm-cc-0"), Layer::Cc);
        assert_eq!(layer_of("bohm-cc-11"), Layer::Cc);
        assert_eq!(layer_of("bohm-exec-3"), Layer::Exec);
        assert_eq!(layer_of("pb-driver-1"), Layer::Driver);
        assert_eq!(layer_of("perfbench"), Layer::Other);
        assert_eq!(layer_of("bohm-sequel"), Layer::Other);
        assert_eq!(layer_of(""), Layer::Other);
    }

    #[test]
    fn deltas_group_by_layer_and_tolerate_thread_churn() {
        let c = |u: f64, s: f64, f: u64, v: u64| TaskCounters {
            utime_s: u,
            stime_s: s,
            minor_faults: f,
            invol_switches: v,
        };
        let before = BTreeMap::from([
            (1, ("perfbench".to_string(), c(1.0, 0.0, 10, 1))),
            (2, ("bohm-cc-0".to_string(), c(2.0, 1.0, 100, 5))),
            (3, ("bohm-cc-1".to_string(), c(2.0, 1.0, 100, 5))),
            (9, ("gone".to_string(), c(9.0, 9.0, 9, 9))),
        ]);
        let after = BTreeMap::from([
            (1, ("perfbench".to_string(), c(1.5, 0.0, 10, 1))),
            (2, ("bohm-cc-0".to_string(), c(3.0, 3.0, 150, 6))),
            (3, ("bohm-cc-1".to_string(), c(3.0, 1.0, 100, 9))),
            (4, ("bohm-exec-0".to_string(), c(0.5, 0.25, 7, 2))),
            (5, ("mystery".to_string(), c(0.25, 0.0, 1, 0))),
            (6, ("pb-driver-0".to_string(), c(4.0, 4.0, 4, 4))),
        ]);
        let d = layer_deltas(&before, &after);
        assert_eq!(d[&Layer::Cc], c(2.0, 2.0, 50, 5));
        assert_eq!(d[&Layer::Exec], c(0.5, 0.25, 7, 2), "new thread from zero");
        assert_eq!(d[&Layer::Other], c(0.75, 0.0, 1, 0), "main + unknown");
        assert!(!d.contains_key(&Layer::Driver), "drivers report themselves");
        assert!(!d.contains_key(&Layer::Seq));
    }

    #[test]
    fn live_proc_is_readable_on_linux() {
        let tasks = snapshot_tasks();
        assert!(!tasks.is_empty(), "/proc/self/task should list this thread");
        let (rss, hwm) = memory_mb();
        assert!(rss > 0.0 && hwm >= rss * 0.5);
        let _ = snapshot_self_thread();
        assert!(process_cpu_s() >= 0.0);
    }
}
