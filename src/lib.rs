//! Facade crate re-exporting the whole BOHM reproduction workspace.
//!
//! Downstream code can depend on `bohm-suite` alone and reach every
//! subsystem through one namespace. See `DESIGN.md` for the system map.
//!
//! Allocator note: the original experiments ran the examples and
//! integration tests with mimalloc, because BOHM's CC phase once allocated
//! a version object per write and freed it across threads via epoch
//! reclamation — a pattern on which glibc malloc was measured to be the
//! bottleneck. Versions now recycle under Condition 3 through each CC
//! thread's `VersionPool` and reach neither the allocator nor the epoch
//! collector in steady state (see DESIGN.md), so the system allocator is
//! used; the hermetic build has no mimalloc crate anyway.
//!
//! Concurrency-correctness quickstart (details in DESIGN.md §"Concurrency
//! correctness"):
//!
//! ```sh
//! cargo run -p analysis -- --check                      # repo-invariant lint
//! RUSTFLAGS="--cfg bohm_modelcheck" \
//!     cargo test --test modelcheck                      # model-check harnesses
//! BOHM_MODEL_SEED=17 RUSTFLAGS="--cfg bohm_modelcheck" \
//!     cargo test --test modelcheck my_model             # replay a reported seed
//! ```

pub use bohm as core;
pub use bohm_common as common;
pub use bohm_hekaton as hekaton;
pub use bohm_lockmgr as lockmgr;
pub use bohm_mvstore as mvstore;
pub use bohm_occ as occ;
pub use bohm_svstore as svstore;
pub use bohm_testkit as testkit;
pub use bohm_tpl as tpl;
pub use bohm_workloads as workloads;
