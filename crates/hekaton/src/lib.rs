//! Hekaton-style optimistic multi-version concurrency control and Snapshot
//! Isolation baselines (Larson et al., VLDB 2011 — the paper's "Hekaton"
//! and "SI" comparison points, §4).
//!
//! Protocol properties deliberately reproduced from the paper's setup:
//!
//! * **Global timestamp counter**: one shared `AtomicU64`, atomically
//!   incremented at transaction begin *and* commit ("incremented at least
//!   twice for every transaction, regardless of the presence of actual
//!   conflicts", §4.2.2) — the scalability bottleneck Figs. 6/7 expose.
//! * **Versions carry `begin`/`end` words holding either a timestamp or a
//!   transaction marker** (here: a tagged pointer to the transaction
//!   object), exactly Larson et al.'s design.
//! * **Commit dependencies**: readers may speculatively consume uncommitted
//!   data of a `Preparing` transaction and then cannot commit until the
//!   producer does; producer aborts cascade (§4: "our Hekaton and SI
//!   implementations include support for commit dependencies").
//! * **First-writer-wins write-write conflicts**: updating a version whose
//!   `end` is already claimed aborts immediately.
//! * **Serializable mode** validates the read set at commit (re-resolving
//!   each read as of the end timestamp); **SI mode** skips read validation
//!   entirely and is therefore subject to write skew (demonstrated in the
//!   tests).
//! * **A fixed-size array index**, as the paper's baselines use (§4).
//! * **One reclamation path.** A sampled 1-in-4 of commits prunes the
//!   chains of the committer's write and read sets below the
//!   active-transaction watermark; [`Hekaton::sweep_now`] is the
//!   synchronous full pass over every slot. No thread reclaims on its own,
//!   so a key nobody touches again keeps the versions written after its
//!   last sampled prune until a later transaction probes it or
//!   `sweep_now` runs.
//!
//! Transaction objects referenced from version words are reclaimed through
//! `crossbeam-epoch` once post-processing has replaced the markers with
//! real timestamps.

pub mod engine;
pub mod store;
pub mod txn;
pub mod version;

pub use engine::{Hekaton, HkWorker, IsolationLevel};
pub use store::HekatonStore;
