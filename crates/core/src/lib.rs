//! # BOHM — serializable multi-version concurrency control
//!
//! Implementation of the protocol from *Faleiro & Abadi, "Rethinking
//! serializable multiversion concurrency control", VLDB 2015*.
//!
//! BOHM separates **concurrency control** from **transaction execution**
//! (paper §3). A transaction flows through the pipeline's roles:
//!
//! 1. **Sequencer** (§3.2.1): assigns each transaction a timestamp equal to
//!    its position in the input log. That is a counter, not a thread: the
//!    submitting session takes its position under the open batch's mutex,
//!    so lock order is log order. This one timestamp plays the role of both
//!    `t_begin` and `t_end` of conventional MVCC — the transaction appears
//!    to execute atomically at `ts`. Batches are sealed by **size** — the
//!    submission that fills one seals it — or when **idle**, by a client
//!    waiting on (or polling) a transaction of the open batch once no batch
//!    is in flight; sealing logs the batch and registers it in the window
//!    ring. A full ring (the in-flight-batch budget) blocks the sealer, and
//!    every other submitter behind it — backpressure, not unbounded
//!    queueing. See [`ingest`].
//! 2. **Concurrency-control threads** (§3.2.2-§3.2.4): each owns a static
//!    hash partition of the key space. For every transaction, in timestamp
//!    order, the owner of each written record installs an *uninitialized
//!    placeholder version* and the owner of each read record annotates the
//!    transaction with a direct pointer to the version it must read. No CC
//!    thread ever synchronizes with another except through one atomic
//!    countdown per **batch**.
//! 3. **Execution threads** (§3.3): claim transactions via an
//!    `Unprocessed → Executing` CAS, evaluate the stored procedure, and fill
//!    placeholders in. A read that lands on a still-pending placeholder
//!    recursively executes the producing transaction — resolved back to its
//!    batch in O(1) through the [`window`] ring — or parks the current
//!    transaction back to `Unprocessed` if the producer is already being
//!    executed elsewhere. Each finished transaction decides its outcome
//!    into its slot of the batch's outcome block immediately — one block
//!    per batch, one word per transaction, and a wake-up only if a
//!    submitter is parked on that slot. Replay reads the same slots once
//!    the batch has retired (see [`batch`]).
//! 4. **The read lane** ([`exec`]): a transaction that writes nothing and
//!    reads too much to annotate — the paper's 10,000-read transactions —
//!    is ordered and logged like any other but executed off the execution
//!    threads' rotation, by a lane thread that chases the window ring like
//!    every other pipeline thread (stopping only at batches with such
//!    readers) and by whichever execution thread
//!    has finished its own share of the batch, resolving any pending version
//!    it meets in place. Its batch cannot retire before it is done, which is
//!    all the snapshot protection it needs.
//!
//! There is one way in — [`BohmSession::submit`] — and one barrier:
//! `Window::wait_retired`, "every batch pushed so far has retired", which is
//! what [`Bohm::execute_sync`], `quiesce` and the diagnostic readers wait
//! on.
//!
//! Reads never block writes; reads perform no shared-memory writes; there is
//! no global timestamp counter, no lock manager, and no validation — hence
//! no concurrency-control aborts (§3.3.3 sketches why the resulting
//! executions are serializable in timestamp order; the invariant is tested
//! end-to-end in this workspace's `tests/`).
//!
//! Old versions are reclaimed with the paper's **Condition 3** (§3.3.2):
//! once batch `b` has retired — every thread with work in it, the read lane
//! included, has counted out of it, and so has every batch before it —
//! versions superseded by transactions of batches `≤ b` are unreachable — through annotation
//! pointers and through any live transaction's chain walk alike — so the
//! owning CC thread truncates them on its next write to the record and
//! reuses them, header and payload, as its next placeholders (a per-thread
//! `VersionPool`; no allocator, no epoch collector on that path). Batch
//! retirement takes the batch out of its window ring slot — the slot owns
//! it, so the retiring thread drops it — and advances that bound.
//! `crossbeam-epoch` (RCU) still protects what every thread traverses and
//! Condition 3 does not cover: hash-index entries.
//!
//! See `DESIGN.md` at the repository root for the system map.
//!
//! ## Example
//!
//! ```
//! use bohm::{Bohm, BohmConfig, CatalogSpec};
//! use bohm_common::{Procedure, RecordId, Txn};
//!
//! // One table of 100 eight-byte records, preloaded with row id as value.
//! let catalog = CatalogSpec::new().table(100, 8, |row| row);
//! let engine = Bohm::start(BohmConfig::small(), catalog);
//!
//! // Clients submit single transactions through sessions, which form the
//! // batches as they go. Increment record 7 a hundred times, pipelined,
//! // then wait for each transaction's own outcome.
//! let session = engine.session();
//! let handles: Vec<_> = (0..100)
//!     .map(|_| {
//!         let rid = RecordId::new(0, 7);
//!         session.submit(Txn::new(
//!             vec![rid],
//!             vec![rid],
//!             Procedure::ReadModifyWrite { delta: 1 },
//!         ))
//!     })
//!     .collect();
//! assert!(handles.iter().all(|h| h.wait().committed));
//!
//! // `execute_sync` is the convenience over a session: submit all, wait
//! // for all, then wait until the batches holding them have retired, so
//! // engine state may be read directly afterwards.
//! let rid = RecordId::new(0, 7);
//! let outcomes = engine.execute_sync(vec![Txn::new(
//!     vec![rid],
//!     vec![rid],
//!     Procedure::ReadModifyWrite { delta: 0 },
//! )]);
//! assert!(outcomes[0].committed);
//! assert_eq!(engine.read_u64(rid), Some(107));
//! engine.shutdown();
//! ```

#![warn(missing_docs)]

pub mod access;
pub mod batch;
pub mod cc;
pub mod config;
pub mod engine;
pub mod exec;
pub mod ingest;
mod lookahead;
pub mod session;
pub mod window;

pub use batch::TxnHandle;
pub use config::{BohmConfig, CatalogSpec, MAX_INDEX_CAPACITY_HINT};
pub use engine::Bohm;
pub use session::BohmSession;
