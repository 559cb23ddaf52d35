//! Run metadata: what a reader needs before comparing two result files.

use crate::child::thread_budget;
use crate::json::Json;
use bohm_bench::engines::bohm_split;

/// The host the frozen `offered_rate`s and the bounds in `BENCHMARK.json`
/// were derived on. Numbers from a host with another core count are not
/// comparable with the recorded baseline.
pub const REFERENCE_NPROC: usize = 2;

pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn first_line_of(cmd: &str, arg: &str) -> Option<String> {
    let out = std::process::Command::new(cmd).arg(arg).output().ok()?;
    out.status.success().then(|| {
        String::from_utf8_lossy(&out.stdout)
            .lines()
            .next()
            .map(str::to_string)
    })?
}

/// The commit of the checkout, when it is a git repository (the
/// acceptance driver's checkout is not; then this is "unknown").
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.len() >= 7 && sha.bytes().all(|b| b.is_ascii_hexdigit()) {
        sha.to_string()
    } else {
        "unknown".to_string()
    }
}

pub fn collect(seed: u64, seconds: f64, trace: bool) -> Json {
    let threads = thread_budget();
    let (cc, exec) = bohm_split(threads);
    let mut m = Json::obj();
    m.set("nproc", nproc())
        .set("reference_nproc", REFERENCE_NPROC)
        .set("thread_budget", threads)
        .set(
            "load_shape",
            format!(
                "baselines: {threads} closed-loop sessions, 1 outstanding each; bohm: {cc} cc + \
                 {exec} exec + 1 sequencer thread fed by 1 driver session, <= 8192 outstanding \
                 ({} runnable threads on {} cores); no thread is pinned",
                cc + exec + 2,
                nproc()
            ),
        )
        .set("bohm_cc_threads", cc)
        .set("bohm_exec_threads", exec)
        .set("seed", seed)
        .set("seconds", seconds)
        .set("trace", trace)
        .set("fsync_policy", "PerBatch")
        .set("allocator", "glibc malloc (system)")
        .set(
            "rustc",
            first_line_of("rustc", "--version").unwrap_or_else(|| "unknown".into()),
        )
        .set(
            "kernel",
            std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".into()),
        )
        .set("git_sha", git_sha());
    m
}

/// Printed before any number when the host differs from the reference.
pub fn host_warning() -> Option<String> {
    (nproc() != REFERENCE_NPROC).then(|| {
        format!(
            "\n*** WARNING: this host has {} cores; the recorded baseline, the frozen offered \
             rates and the bounds in BENCHMARK.json come from a {REFERENCE_NPROC}-core host. ***\n\
             *** Do NOT compare these numbers with numbers from another host; re-derive with \
             --selfcheck. ***\n",
            nproc()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metadata_names_everything_the_issue_lists() {
        let m = collect(9, 24.0, false);
        for key in [
            "nproc",
            "thread_budget",
            "bohm_cc_threads",
            "bohm_exec_threads",
            "rustc",
            "git_sha",
            "seed",
            "seconds",
            "fsync_policy",
            "allocator",
            "kernel",
            "load_shape",
        ] {
            assert!(m.get(key).is_some(), "missing {key}");
        }
        assert_eq!(m.get("seed").unwrap().as_f64(), Some(9.0));
        assert_eq!(host_warning().is_some(), nproc() != REFERENCE_NPROC);
    }
}
