//! [`DurableEngine`]: WAL + checkpoint durability for *any* interactive
//! engine — the generalization of what used to be a BOHM-only feature.
//!
//! BOHM logs **inputs only**: its serialization order is the arrival
//! order the sequencer already fixed, so replaying the logged inputs
//! deterministically reproduces every decision (paper §2 — determinism
//! is what makes logging cheap). The nondeterministic baselines (2PL,
//! OCC, Hekaton, SI) have no such luxury: their commit order is whatever
//! the scheduler produced, and a transaction that committed in the
//! original execution may abort in a naive replay. [`DurableEngine`]
//! closes the gap the only honest way available to a nondeterministic
//! engine — it **serializes** execution:
//!
//! * `execute` takes a global commit lock, runs the transaction on the
//!   inner engine, then appends the transaction's inputs *plus its
//!   commit decision* ([`TxnDecision`]) to the WAL before releasing the
//!   outcome. Holding the lock across execute-and-log makes log order
//!   equal commit order by construction.
//! * Recovery restores the newest valid
//!   [`Checkpoint`](checkpoint::Checkpoint), then replays the
//!   log suffix stamped at or after the checkpoint epoch — executing
//!   exactly the transactions whose logged decision says *committed*, in
//!   log (= commit) order, and cross-checking each replayed fingerprint
//!   against the logged one.
//!
//! The serialization is the point, not a shortcut: it is the cost of
//! durability without determinism, and it is why the paper's
//! deterministic design logs at full parallel throughput while these
//! baselines must either pay this serialization or build ARIES-style
//! physical logging. (BOHM itself does not use this wrapper — its
//! sequencer logs whole batches before release; see `Bohm::recover`.)
//!
//! # Losing the unacknowledged tail
//!
//! The inner engine's commit point is inside `execute`, so a crash
//! between the store commit and the WAL append loses that transaction —
//! but its outcome was never returned to the caller, so recovery
//! reconstructing a state without it is indistinguishable from the crash
//! having landed a moment earlier. This is the standard
//! acknowledge-after-log contract. A failed append panics that one call,
//! and the log stays failed (see `common::wal`), so every later `execute`
//! panics *before* it runs: the engine stops, as BOHM's does.
//!
//! # Checkpoints bound replay
//!
//! [`DurableEngine::checkpoint`] snapshots the inner engine's full
//! record state (through [`Engine::snapshot_records`]) under the commit
//! lock and hands it to [`checkpoint::cut`], which writes it atomically,
//! rotates the WAL so every pre-checkpoint record sits in a sealed
//! segment, and then reclaims those segments via
//! [`Wal::truncate_before`](crate::wal::Wal::truncate_before). Recovery
//! after that replays only the post-checkpoint suffix.

use crate::checkpoint;
use crate::engine::{Engine, ExecOutcome};
use crate::txn::Txn;
use crate::wal::{DurabilityConfig, LogSink, TxnDecision, Wal};
use bohm_sync::atomic::{AtomicU64, Ordering};
use bohm_sync::Mutex;
use std::io;

/// What [`DurableEngine::open`] did to bring the engine back: how much
/// state came from a checkpoint and how much from log replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Epoch of the checkpoint restored, if one was found.
    pub checkpoint_epoch: Option<u64>,
    /// Records installed from the checkpoint snapshot.
    pub checkpoint_records: usize,
    /// Logged batches skipped because the checkpoint already covers them
    /// (epoch below the checkpoint's).
    pub batches_skipped: usize,
    /// Transactions re-executed from the log suffix.
    pub txns_replayed: usize,
    /// Logged transactions whose recorded decision was *abort* — their
    /// inputs are in the log but replay does not execute them.
    pub txns_aborted: usize,
}

/// What one [`DurableEngine::checkpoint`] call accomplished.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CheckpointStats {
    /// The cut: every batch stamped `>= epoch` is post-checkpoint.
    pub epoch: u64,
    /// Records in the snapshot.
    pub records: usize,
    /// Log bytes reclaimed by truncating pre-checkpoint segments.
    pub freed_bytes: u64,
}

/// Durability wrapper for interactive engines; see the [module docs](self).
///
/// `DurableEngine<E>` is itself an [`Engine`], so the blanket
/// `BatchEngine` impl gives it sessions, `quiesce` and
/// `snapshot_records` for free — harnesses drive it exactly like the
/// bare engine.
pub struct DurableEngine<E: Engine> {
    inner: E,
    wal: Wal,
    /// Current epoch stamp for appended records. Bumped only by
    /// [`checkpoint`](Self::checkpoint) (under the commit lock), so the
    /// log's epoch sequence is non-decreasing and the checkpoint epoch
    /// cleanly splits covered prefix from replay suffix.
    epoch: AtomicU64,
    /// Serializes execute-and-log so log order is commit order; also held
    /// by [`checkpoint`](Self::checkpoint), which makes the snapshot a
    /// true commit-boundary cut.
    commit_lock: Mutex<()>,
    /// Per-table seeded row counts captured from the freshly built inner
    /// engine — the rows `restore_into` must delete when a checkpoint
    /// lacks them.
    seeded_rows: Vec<u64>,
}

impl<E: Engine> DurableEngine<E> {
    /// Open the log directory and bring `inner` — freshly built and
    /// catalog-seeded, never yet executed against — up to the durable
    /// state: restore the newest valid checkpoint (if any), replay the
    /// committed suffix of the log, and resume logging after it.
    ///
    /// On a fresh directory this degenerates to "start logging": no
    /// checkpoint, nothing to replay. Returns the engine and a
    /// [`RecoveryReport`] describing what recovery did.
    ///
    /// # Errors
    ///
    /// I/O errors from the log/checkpoint machinery, plus
    /// [`io::ErrorKind::InvalidData`] when a replayed transaction's
    /// outcome diverges from its logged decision — that means the log
    /// and the engine disagree about history and the store cannot be
    /// trusted.
    pub fn open(inner: E, config: &DurabilityConfig) -> io::Result<(Self, RecoveryReport)> {
        // Opening the WAL first repairs any torn tail, so read_log below
        // sees a clean history.
        let wal = Wal::open(config)?;
        let batches = Wal::read_log(&config.dir)?;
        let ckp = checkpoint::load_latest(&config.dir)?;

        // The freshly seeded engine's present set *is* the seeded set;
        // capture per-table row counts before restore disturbs it.
        let mut seeded_rows: Vec<u64> = Vec::new();
        inner.snapshot_records(&mut |rid, _| {
            let t = rid.table.index();
            if seeded_rows.len() <= t {
                seeded_rows.resize(t + 1, 0);
            }
            seeded_rows[t] = seeded_rows[t].max(rid.row + 1);
        });

        let mut report = RecoveryReport::default();
        let mut resume_epoch = 0u64;
        let base = match &ckp {
            Some(c) => {
                report.checkpoint_epoch = Some(c.epoch);
                report.checkpoint_records = c.records.len();
                resume_epoch = c.epoch;
                checkpoint::restore_into(c, &seeded_rows, &inner);
                c.epoch
            }
            None => 0,
        };

        // Replay the suffix serially through one worker. Replay executes
        // against the inner engine directly — the wrapper is not built
        // yet, so nothing is re-logged (the surviving segments already
        // hold these records).
        let mut w = inner.make_worker();
        for b in &batches {
            if b.epoch < base {
                report.batches_skipped += 1;
                continue;
            }
            resume_epoch = resume_epoch.max(b.epoch);
            match &b.outcomes {
                Some(outs) => {
                    for (txn, d) in b.txns.iter().zip(outs) {
                        if !d.committed {
                            report.txns_aborted += 1;
                            continue;
                        }
                        let out = inner.execute(txn, &mut w);
                        if !out.committed || out.fingerprint != d.fingerprint {
                            return Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                format!(
                                    "replay diverged from logged decision at epoch {}: \
                                     logged (committed, fp 0x{:016x}), replayed \
                                     (committed={}, fp 0x{:016x})",
                                    b.epoch, d.fingerprint, out.committed, out.fingerprint
                                ),
                            ));
                        }
                        report.txns_replayed += 1;
                    }
                }
                // An input-only record (no outcomes section) in an
                // interactive engine's log can only come from a
                // deterministic producer; replay everything it holds.
                None => {
                    for txn in &b.txns {
                        inner.execute(txn, &mut w);
                        report.txns_replayed += 1;
                    }
                }
            }
        }

        Ok((
            Self {
                inner,
                wal,
                epoch: AtomicU64::new(resume_epoch),
                commit_lock: Mutex::new(()),
                seeded_rows,
            },
            report,
        ))
    }

    /// Snapshot the current committed state, make it durable, and
    /// reclaim the log prefix it covers. The caller does not need to
    /// quiesce anything: the commit lock blocks every in-flight
    /// `execute`, so the snapshot lands exactly on a commit boundary.
    pub fn checkpoint(&self) -> io::Result<CheckpointStats> {
        let _commit = self.commit_lock.lock();
        // Everything logged so far carries an epoch < cut; everything
        // after this store carries >= cut. The checkpoint covers exactly
        // the former.
        // RELAXED: `epoch` is only read and written under `commit_lock`,
        // whose release edge publishes it; the atomic exists for the
        // lock-free Debug/diagnostic readers.
        let cut = self.epoch.load(Ordering::Relaxed) + 1;
        // RELAXED: as above — still under `commit_lock`.
        self.epoch.store(cut, Ordering::Relaxed);
        checkpoint::cut(&self.wal, cut, |f| self.inner.snapshot_records(f))
    }

    /// The wrapped engine (verification hooks).
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The underlying log handle (diagnostics: `log_bytes`,
    /// `batches_logged`).
    pub fn wal(&self) -> &Wal {
        &self.wal
    }

    /// Total bytes across the log's segments — shrinks when
    /// [`checkpoint`](Self::checkpoint) truncates covered segments.
    pub fn log_bytes(&self) -> u64 {
        self.wal.log_bytes()
    }

    /// Current epoch stamp (= number of checkpoints taken, across all
    /// incarnations of this directory).
    pub fn epoch(&self) -> u64 {
        // RELAXED: diagnostic snapshot; writers serialize on `commit_lock`.
        self.epoch.load(Ordering::Relaxed)
    }
}

impl<E: Engine> Engine for DurableEngine<E> {
    type Worker = E::Worker;

    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn make_worker(&self) -> E::Worker {
        self.inner.make_worker()
    }

    fn execute(&self, txn: &Txn, w: &mut E::Worker) -> ExecOutcome {
        let _commit = self.commit_lock.lock();
        // A failed log stays failed: nothing may commit that it cannot hold.
        if let Some(first) = self.wal.failure() {
            panic!("durable engine failed: its WAL stopped at {first}");
        }
        let out = self.inner.execute(txn, w);
        let decision = TxnDecision {
            committed: out.committed,
            fingerprint: out.fingerprint,
        };
        let mut one = std::iter::once(txn);
        self.wal
            // RELAXED: read under `commit_lock`, same as the writers.
            .log_batch_decided(self.epoch.load(Ordering::Relaxed), &mut one, &[decision])
            .expect("durable engine: WAL append failed");
        out
    }

    fn read_u64(&self, rid: crate::RecordId) -> Option<u64> {
        self.inner.read_u64(rid)
    }

    fn read_record(&self, rid: crate::RecordId) -> Option<crate::Value> {
        self.inner.read_record(rid)
    }

    fn snapshot_records(&self, f: &mut dyn FnMut(crate::RecordId, &[u8])) {
        self.inner.snapshot_records(f)
    }
}

impl<E: Engine> std::fmt::Debug for DurableEngine<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableEngine")
            .field("engine", &self.inner.name())
            .field("wal", &self.wal)
            // RELAXED: Debug output is allowed to race.
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("seeded_rows", &self.seeded_rows)
            .finish()
    }
}
