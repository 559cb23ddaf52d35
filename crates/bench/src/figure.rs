//! One-call measurement of any engine on any workload — a single code path
//! for all five systems, via [`EngineKind::build`] + [`run_engine`].

use crate::driver::{run_engine, DriverConfig};
use crate::engines::EngineKind;
use bohm_common::stats::RunStats;
use bohm_workloads::{DatabaseSpec, TxnGen};
use std::time::Duration;

/// Driver threads used when the engine runs its own thread pool (BOHM:
/// `threads` becomes the CC/execution budget and these sessions only
/// sequence and seal, which two submitters saturate comfortably).
pub const PIPELINED_DRIVER_SESSIONS: usize = 2;

/// Build engine `kind` over `spec`, drive it for `secs`, and tear it down.
/// `mk_gen(i)` seeds session `i`'s stream.
///
/// `threads` is the *engine-side* thread budget: the interactive baselines
/// execute on their driver threads (so they get `threads` sessions); BOHM
/// splits the budget between CC and execution threads with
/// [`crate::engines::bohm_split`] and is fed by
/// [`PIPELINED_DRIVER_SESSIONS`] submitter sessions.
pub fn measure(
    kind: EngineKind,
    spec: &DatabaseSpec,
    threads: usize,
    secs: Duration,
    mk_gen: &dyn Fn(usize) -> Box<dyn TxnGen>,
) -> RunStats {
    let engine = kind.build(spec, threads);
    let sessions = match kind {
        EngineKind::Bohm => PIPELINED_DRIVER_SESSIONS,
        _ => threads,
    };
    let st = run_engine(&engine, sessions, DriverConfig::default(), secs, mk_gen);
    engine.shutdown();
    st
}
