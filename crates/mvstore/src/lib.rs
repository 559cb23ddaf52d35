//! Multi-version storage substrate for the BOHM engine.
//!
//! Implements the version layout of paper Fig. 3 — `{begin ts, end ts,
//! txn pointer, data, prev pointer}` — plus the two structures BOHM builds
//! on top of it:
//!
//! * [`Chain`]: the per-record linked list of versions, maintained by a
//!   **single writer** (the concurrency-control thread that owns the
//!   record's partition, paper §3.2.2) and traversed by many readers with
//!   no shared-memory writes (paper §2.2 goal 2),
//! * [`HashIndex`]: the "standard latch-free hash-table" the paper uses to
//!   index data (§3.3.1) — one inserter per key, lock-free readers, one
//!   cache line per key, and a staged look-ahead for callers that know
//!   their keys before they probe.
//! * [`VersionPool`]: a CC thread's private free list of retired versions.
//!
//! Version reclamation follows the paper's Condition 3 (§3.3.2, batch
//! low-watermark): by the time a version's end timestamp is at or below the
//! watermark, no active or future transaction can resolve to it *or walk
//! over it*, so the owning CC thread takes it back and reuses it at once
//! ([`VersionPool::reclaim`] — the argument is in [`pool`] and
//! [`Chain::visible`]). `crossbeam-epoch` covers what Condition 3 does not:
//! hash-index entries (and the sole tombstone retired with one), whose
//! bucket lists are traversed by every thread, and [`Chain::truncate`], the
//! deferred-destruction sink for callers that cannot prove a watermark.

pub mod chain;
pub mod index;
pub mod pool;
pub mod version;

pub use chain::Chain;
pub use index::{HashIndex, ProbeFor, VersionIndex};
pub use pool::VersionPool;
pub use version::{Version, VersionState};
