//! Engine construction shared by the benchmark (`perfbench/`), the
//! integration tests and the examples.
//!
//! [`engines`] builds every engine over one
//! [`DatabaseSpec`](bohm_workloads::DatabaseSpec), so all five systems run
//! identical preloaded databases, and erases them behind
//! [`engines::AnyEngine`]. Performance is measured by `perfbench/` alone
//! (see `BENCHMARK.json`).

pub mod engines;

pub use engines::{AnyEngine, EngineKind};
