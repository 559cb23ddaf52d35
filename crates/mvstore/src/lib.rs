//! Multi-version storage substrate for the BOHM engine.
//!
//! Implements the version layout of paper Fig. 3 — `{begin ts, end ts,
//! txn pointer, data, prev pointer}` — plus the structures BOHM builds on
//! top of it:
//!
//! * [`Chain`]: the per-record linked list of versions, maintained by a
//!   **single writer** (the concurrency-control thread that owns the
//!   record's partition, paper §3.2.2) and traversed by many readers with
//!   no shared-memory writes (paper §2.2 goal 2). Two words, all-zero when
//!   empty: BOHM keeps one per row, at `table[row]`,
//! * [`VersionPool`]: a CC thread's private free list of retired versions,
//! * [`HashIndex`]: a latch-free hash index from record id to chain, which
//!   no engine uses; it stays for the benchmark's `micro` phase, which
//!   measures it (see [`index`]).
//!
//! Version reclamation follows the paper's Condition 3 (§3.3.2, batch
//! low-watermark): by the time a version's end timestamp is at or below the
//! watermark, no active or future transaction can resolve to it *or walk
//! over it*, so the owning CC thread takes it back and reuses it at once
//! ([`VersionPool::reclaim`] — the argument is in [`pool`] and
//! [`Chain::visible`]). Chains themselves are never freed while an engine
//! runs. `crossbeam-epoch` remains only as the deferred-destruction sink of
//! [`Chain::truncate`], for callers that cannot prove a watermark, and as
//! the `Guard` the chain signatures take.

pub mod chain;
pub mod index;
pub mod pool;
pub mod version;

pub use chain::Chain;
pub use index::{HashIndex, VersionIndex};
pub use pool::VersionPool;
pub use version::{Version, VersionState};
