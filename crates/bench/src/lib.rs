//! Engine construction and the session driver, shared by the benchmark
//! (`perfbench/`), the integration tests and the examples.
//!
//! * [`engines`] — build every engine over one
//!   [`DatabaseSpec`](bohm_workloads::DatabaseSpec) so all five systems run
//!   identical preloaded databases, and erase them behind
//!   [`engines::AnyEngine`],
//! * [`driver`] — the fixed-duration throughput driver: one session-based
//!   code path for the interactive baselines and BOHM's pipelined ingest
//!   alike.
//!
//! Two bench targets live under `benches/` (`harness = false`):
//! `micro_criterion`, the substrate microbenchmarks (`cc_body/*` is the CC
//! layer's standalone number), and `fig_tpcc`, the TPC-C-lite figure smoke
//! that keeps this driver path from rotting. Performance is measured by
//! `perfbench/` alone (see `BENCHMARK.json`).

pub mod driver;
pub mod engines;

pub use driver::run_engine;
pub use engines::{AnyEngine, EngineKind};
