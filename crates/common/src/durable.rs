//! [`DurableEngine`]: WAL + checkpoint durability for *any* interactive
//! engine — the generalization of what used to be a BOHM-only feature.
//!
//! BOHM logs **inputs only**: its serialization order is the arrival
//! order its sealer already fixed, so replaying the logged inputs
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
//! * Recovery is [`recover`], the routine BOHM's `Bohm::recover` runs too.
//!
//! The serialization is the point, not a shortcut: it is the cost of
//! durability without determinism, and it is why the paper's
//! deterministic design logs at full parallel throughput while these
//! baselines must either pay this serialization or build ARIES-style
//! physical logging. (BOHM itself does not use this wrapper — its sealer
//! logs whole batches before release.)
//!
//! # One recovery routine
//!
//! Both durable engines come back the same way — build the engine,
//! [`recover`] into it, attach the log it hands back:
//!
//! 1. restore the newest [`Checkpoint`](checkpoint::Checkpoint), if any;
//! 2. replay the log suffix stamped at or after its epoch through
//!    [`BatchEngine::replay`]. Its default is
//!    [`replay_into`](crate::wal::replay_into), the per-transaction loop
//!    this wrapper keeps: an input-only record replays whole, a decided
//!    record (this wrapper's) replays exactly the transactions it marks
//!    *committed*, in log (= commit) order, each cross-checked against its
//!    logged fingerprint. BOHM overrides it: log order is its serial order,
//!    so a logged batch replays as one sealed batch;
//! 3. only then open the log for appending ([`Wal::open`]'s tail repair and
//!    fresh segment, fed the tail the log read found, so no record is
//!    decoded twice).
//!
//! [`RecoveryReport`] times each phase: log read, checkpoint restore,
//! replay and log open.
//!
//! The engine has no log while it replays, so recovery never logs: neither
//! the replayed transactions nor the barriers that end restore and replay
//! reach the inherited segments a second time.
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
//! segment, reclaims those segments via
//! [`Wal::truncate_before`](crate::wal::Wal::truncate_before) — the ones
//! written before a restart included — and deletes the older checkpoint.
//! Recovery after that replays only the post-checkpoint suffix.

use crate::checkpoint;
use crate::engine::{BatchEngine, Engine, ExecOutcome};
use crate::txn::Txn;
use crate::wal::{DurabilityConfig, LogSink, TxnDecision, Wal};
use bohm_sync::atomic::{AtomicU64, Ordering};
use bohm_sync::Mutex;
use std::io;
use std::time::{Duration, Instant};

/// What [`recover`] did to bring an engine back: how much state came from
/// a checkpoint and how much from log replay, and how long each phase took.
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
    /// Wall time spent reading the log's segments and checking their
    /// records (decoding them is part of replay).
    pub read_log: Duration,
    /// Wall time spent loading the newest checkpoint and restoring it.
    pub restore: Duration,
    /// Wall time spent decoding and replaying the log, closing barrier
    /// included.
    pub replay: Duration,
    /// Wall time spent opening the log for appending (tail repair and the
    /// fresh segment).
    pub open_log: Duration,
}

/// What [`recover`] hands back: the log, opened for appending behind
/// everything recovered, and what recovery did.
#[derive(Debug)]
pub struct Recovered {
    /// The log, open for appending; the caller attaches it to the engine.
    pub wal: Wal,
    /// The epoch to stamp new records with: the newest one recovered (the
    /// checkpoint's, if nothing was logged after it).
    pub epoch: u64,
    /// What recovery did.
    pub report: RecoveryReport,
    /// The replayed transactions' outcomes, in log order.
    pub outcomes: Vec<ExecOutcome>,
}

/// Bring `engine` — freshly built and seeded, never yet executed against,
/// and **not logging** — up to the durable state in `config.dir`, then open
/// the log for appending. This is the one recovery routine of both durable
/// engines (see the [module docs](self)). On a fresh directory it restores
/// and replays nothing.
///
/// # Errors
///
/// I/O errors from the log/checkpoint machinery, plus
/// [`io::ErrorKind::InvalidData`] when the newest checkpoint fails
/// validation, or when a replayed transaction's outcome contradicts its
/// logged decision — either way the durable history cannot be trusted.
/// Nothing in the directory changes before replay has succeeded.
pub fn recover<E: BatchEngine + ?Sized>(
    engine: &E,
    config: &DurabilityConfig,
) -> io::Result<Recovered> {
    let mut report = RecoveryReport::default();
    let (records, tail) = timed(&mut report.read_log, || Wal::read_records(&config.dir))?;
    let base = timed(&mut report.restore, || {
        let Some(c) = checkpoint::load_latest(&config.dir)? else {
            return Ok::<_, io::Error>(0);
        };
        report.checkpoint_epoch = Some(c.epoch);
        report.checkpoint_records = c.records.len();
        checkpoint::restore_into(&c, engine)?;
        Ok(c.epoch)
    })?;
    // Each record is decoded once, as replay reaches it. The log is
    // recovery's own: its transactions move into the engine.
    let (mut epoch, mut logged, mut fault) = (base, 0, None);
    let suffix = records
        .decode()
        .map_while(|b| b.map_err(|e| fault = Some(e)).ok())
        .inspect(|b| epoch = epoch.max(b.epoch))
        .filter(|b| {
            let covered = b.epoch < base;
            report.batches_skipped += usize::from(covered);
            !covered
        })
        .inspect(|b| logged += b.txns.len());
    let replayed = timed(&mut report.replay, || engine.replay(suffix));
    // A record that does not decode ends replay early: that is the error.
    if let Some(e) = fault {
        return Err(e);
    }
    let outcomes = replayed?;
    report.txns_replayed = outcomes.len();
    report.txns_aborted = logged - outcomes.len();
    // Replay has read the log's tail already, and nothing has written to
    // the directory since: opening it need not decode the last segment again.
    let wal = timed(&mut report.open_log, || Wal::open_after(config, tail))?;
    Ok(Recovered {
        wal,
        epoch,
        report,
        outcomes,
    })
}

/// Run `f`, adding its wall time to `phase`.
fn timed<T>(phase: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    *phase += t0.elapsed();
    out
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
}

impl<E: Engine> DurableEngine<E> {
    /// Bring `inner` — freshly built and catalog-seeded, never yet
    /// executed against — up to the durable state in `config.dir` through
    /// [`recover`], and resume logging after it.
    ///
    /// On a fresh directory this degenerates to "start logging": no
    /// checkpoint, nothing to replay. Returns the engine and a
    /// [`RecoveryReport`] describing what recovery did.
    ///
    /// # Errors
    ///
    /// Those of [`recover`].
    pub fn open(inner: E, config: &DurabilityConfig) -> io::Result<(Self, RecoveryReport)> {
        // Recovery replays into the bare inner engine: the wrapper, which
        // is what logs, exists only once the log is handed back.
        let recovered = recover(&inner, config)?;
        Ok((
            Self {
                inner,
                wal: recovered.wal,
                epoch: AtomicU64::new(recovered.epoch),
                commit_lock: Mutex::new(()),
            },
            recovered.report,
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
            .finish()
    }
}
