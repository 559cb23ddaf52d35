//! Engine interfaces shared by BOHM and the baselines.
//!
//! Two layers:
//!
//! * [`Engine`] — the classic interactive model the paper's baselines
//!   (Hekaton, SI, OCC, 2PL) follow: a pool of worker threads, each running
//!   whole transactions one at a time against the shared database, retrying
//!   on concurrency-control aborts (§4: "all our optimistic baselines are
//!   configured to retry transactions in the event of an abort induced by
//!   concurrency control").
//! * [`BatchEngine`] / [`Session`] — the submission-oriented facade every
//!   engine (including BOHM's pipelined, batched front-end) exposes, so the
//!   benchmark driver and integration harnesses drive all five systems
//!   through one code path. Interactive engines get it for free via a
//!   blanket impl ([`WorkerSession`]); BOHM implements it natively over its
//!   ingest (a session appends to the open batch and seals the batch it
//!   fills).

use crate::txn::Txn;
use std::collections::VecDeque;

/// Outcome of running one transaction to a final decision.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecOutcome {
    /// Whether the transaction committed (false ⇒ logic/user abort).
    pub committed: bool,
    /// Procedure fingerprint (digest of values read); 0 on user abort.
    pub fingerprint: u64,
    /// Number of concurrency-control aborts suffered before the decision
    /// (each one was retried internally).
    pub cc_retries: u64,
}

/// An engine driven by per-thread workers.
pub trait Engine: Send + Sync + 'static {
    /// Per-worker scratch state (write buffers, read sets, RNG-free).
    type Worker: Send;

    /// Engine display name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Create state for one worker thread.
    fn make_worker(&self) -> Self::Worker;

    /// Run `txn` to a final decision, retrying concurrency-control aborts
    /// internally.
    fn execute(&self, txn: &Txn, w: &mut Self::Worker) -> ExecOutcome;

    /// Read the committed `u64` prefix of a record while the engine is
    /// quiescent (verification hooks for tests).
    fn read_u64(&self, rid: crate::RecordId) -> Option<u64> {
        self.read_record(rid).map(|d| crate::value::get_u64(&d, 0))
    }

    /// Snapshot the full committed payload of a record while the engine is
    /// quiescent; `None` for a record that does not (currently) exist.
    fn read_record(&self, rid: crate::RecordId) -> Option<crate::Value>;

    /// Visit every currently present record — `(id, committed payload)` —
    /// while the engine is quiescent. This is the checkpoint surface: the
    /// durable layer snapshots the full table state (secondary-index
    /// posting lists are ordinary records and ride along) through it.
    /// Visit order is unspecified.
    fn snapshot_records(&self, f: &mut dyn FnMut(crate::RecordId, &[u8]));
}

/// One client's submission stream into a [`BatchEngine`].
///
/// The contract is a pipelined FIFO: [`submit`](Self::submit) feeds a
/// transaction in (it may block under engine backpressure, and its outcome
/// may be deferred); [`reap`](Self::reap) blocks for the outcome of the
/// *oldest* unreaped transaction. Drivers keep a bounded number of
/// transactions in flight and reap as they go, which drives a pipelined
/// engine at full depth and degenerates gracefully to call/return on
/// synchronous engines.
pub trait Session: Send {
    /// Feed one transaction into the engine. May block (backpressure);
    /// completion may be deferred until a later [`reap`](Self::reap).
    ///
    /// Takes ownership: pipelined engines move the transaction into their
    /// open batch without a copy (drivers generate owned transactions
    /// anyway), and synchronous engines just execute and drop it.
    fn submit(&mut self, txn: Txn);

    /// Submitted-but-unreaped transactions.
    fn in_flight(&self) -> usize;

    /// Block until the oldest unreaped transaction has a decision and
    /// return it. Panics if nothing is in flight.
    fn reap(&mut self) -> ExecOutcome;
}

/// An engine drivable through per-client [`Session`]s — the single entry
/// point the benchmark driver uses for all five systems.
pub trait BatchEngine: Send + Sync + 'static {
    /// The session type; borrows the engine at most for `'a`.
    type Session<'a>: Session + 'a
    where
        Self: 'a;

    /// Engine display name (used in benchmark tables).
    fn name(&self) -> &'static str;

    /// Open a submission session for one client/driver thread.
    fn open_session(&self) -> Self::Session<'_>;

    /// Read the committed `u64` prefix of a record while the engine is
    /// quiescent (verification hooks for tests).
    fn read_u64(&self, rid: crate::RecordId) -> Option<u64> {
        self.read_record(rid).map(|d| crate::value::get_u64(&d, 0))
    }

    /// Snapshot the full committed payload of a record while the engine is
    /// quiescent; `None` for a record that does not (currently) exist.
    fn read_record(&self, rid: crate::RecordId) -> Option<crate::Value>;

    /// Visit every currently present record — `(id, committed payload)` —
    /// while the engine is quiescent; see [`Engine::snapshot_records`].
    /// Checkpoints are built from exactly this iteration.
    fn snapshot_records(&self, f: &mut dyn FnMut(crate::RecordId, &[u8]));

    /// Block until every transaction submitted (by any session) before this
    /// call has a decision applied to the store — a **retirement
    /// barrier**. Synchronous engines execute inside `submit` and are
    /// always quiescent (the default no-op); pipelined engines must drain
    /// their in-flight batches.
    fn quiesce(&self) {}
}

/// [`Session`] adapter over an interactive [`Engine`] worker: `submit`
/// executes synchronously and queues the outcome for `reap`.
pub struct WorkerSession<'a, E: Engine> {
    engine: &'a E,
    worker: E::Worker,
    done: VecDeque<ExecOutcome>,
}

impl<E: Engine> Session for WorkerSession<'_, E> {
    fn submit(&mut self, txn: Txn) {
        let out = self.engine.execute(&txn, &mut self.worker);
        self.done.push_back(out);
    }

    fn in_flight(&self) -> usize {
        self.done.len()
    }

    fn reap(&mut self) -> ExecOutcome {
        self.done.pop_front().expect("reap with nothing in flight")
    }
}

/// Every interactive engine is a [`BatchEngine`] whose sessions are
/// plain workers.
impl<E: Engine> BatchEngine for E {
    type Session<'a>
        = WorkerSession<'a, E>
    where
        E: 'a;

    fn name(&self) -> &'static str {
        Engine::name(self)
    }

    fn open_session(&self) -> WorkerSession<'_, E> {
        WorkerSession {
            engine: self,
            worker: self.make_worker(),
            done: VecDeque::new(),
        }
    }

    fn read_record(&self, rid: crate::RecordId) -> Option<crate::Value> {
        Engine::read_record(self, rid)
    }

    fn snapshot_records(&self, f: &mut dyn FnMut(crate::RecordId, &[u8])) {
        Engine::snapshot_records(self, f)
    }

    // `quiesce`: interactive engines execute synchronously inside `submit`,
    // so the default no-op is exact.
}
