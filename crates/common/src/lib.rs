//! Shared substrate for the BOHM reproduction workspace.
//!
//! This crate defines everything the concurrency-control engines agree on:
//!
//! * the record addressing model ([`RecordId`], [`TableId`], [`types::Timestamp`]),
//! * the transaction model ([`Txn`], [`Procedure`]) — whole transactions with
//!   read- and write-sets known in advance, exactly as BOHM requires
//!   (paper §1, §3),
//! * the engine-agnostic data-access interface ([`Access`]) through which
//!   stored procedures run identically on every engine,
//! * deterministic fast RNG ([`rng`]) and the YCSB zipfian key generator
//!   ([`zipf`], Gray et al. SIGMOD'94 as cited by the paper §4.2.1),
//! * the batch-riding write-ahead log ([`wal`]): the sealer logs each
//!   formed batch's inputs before releasing it, and every durable engine
//!   recovers through one routine ([`durable::recover`]), whose replay is
//!   [`engine::BatchEngine::replay`] — see the workspace's
//!   `recovery_demo` example for the end-to-end open-log → run → kill →
//!   replay → fingerprint-check walkthrough.
//!
//! Engines (BOHM itself plus the Hekaton, SI, OCC and 2PL baselines) depend
//! only on this crate, which keeps the comparison apples-to-apples: the same
//! `Txn` values flow into every engine.

#![warn(missing_docs)]

pub mod access;
pub mod arena;
pub mod checkpoint;
mod codec;
pub mod durable;
pub mod engine;
pub mod index;
pub mod procedures;
pub mod rng;
pub mod txn;
pub mod types;
pub mod value;
pub mod wal;
pub mod zipf;

pub use access::{AbortReason, Access};
pub use arena::{ASlice, Arena, ArenaPool, SetBuf};
pub use checkpoint::Checkpoint;
pub use durable::DurableEngine;
pub use procedures::{
    execute_procedure, range_audit_fingerprint, ExecScratch, Procedure, SmallBankProc, TpcCProc,
    ABSENT_FINGERPRINT, SCAN_POISON_GAP, SCAN_POISON_VALUE,
};
pub use txn::{IndexScan, ScanRange, Txn};
pub use types::{RecordId, TableId, Timestamp, TxnId, INFINITY_TS};
pub use value::Value;
pub use wal::{DurabilityConfig, FsyncPolicy, LogSink, LoggedBatch, TxnDecision, Wal};

/// Iteration budget for stress/hammer tests: `default` unless the
/// `BOHM_STRESS_ITERS` environment variable overrides it (the scheduled
/// nightly CI job cranks it up; PR CI and local runs stay cheap).
pub fn stress_iters(default: u64) -> u64 {
    std::env::var("BOHM_STRESS_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}
