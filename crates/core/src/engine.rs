//! Engine assembly: threads, ingest, public API.

use crate::batch::TxnHandle;
use crate::config::{BohmConfig, CatalogSpec};
use crate::ingest::Ingest;
use crate::session::BohmSession;
use crate::store::Store;
use crate::window::Window;
use crate::{cc, exec};
use bohm_common::durable::RecoveryReport;
use bohm_common::engine::ExecOutcome;
use bohm_common::wal::Wal;
use bohm_common::{RecordId, TableId, Txn};
use bohm_mvstore::VersionState;
use bohm_sync::atomic::{fence, AtomicU64, Ordering};
use crossbeam_epoch as epoch;
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;

/// State shared by the engine's threads, its sessions and their handles.
pub(crate) struct Inner {
    pub config: BohmConfig,
    record_sizes: Vec<usize>,
    /// Every row's version chain, at `table[row]`.
    pub store: Store,
    pub window: Window,
    /// The open batch and its mutex (see `crate::ingest`). Only submitters
    /// and their handles touch it.
    pub ingest: Ingest,
    /// Global Condition-3 low watermark, expressed as a timestamp bound:
    /// every transaction with `ts ≤ gc_bound` has finished executing. It is
    /// the last timestamp of the newest retired batch, stored by the
    /// window's retirement cursor — in id order, so it never moves back.
    pub gc_bound: AtomicU64,
    /// The checkpoint epoch: bumped only by [`Bohm::checkpoint`], sampled
    /// into every batch as it is sealed (`Batch::epoch`, the WAL stamp).
    /// Batches sealed before a bump to `e` are stamped below `e`, those
    /// sealed after at or above it — what splits the log into the prefix a
    /// checkpoint covers and the suffix recovery replays.
    pub epoch: AtomicU64,
    /// Total versions retired by GC (diagnostics and the benchmark).
    pub gc_retired: AtomicU64,
    /// Diagnostics: nanoseconds each layer spent busy (indexing by role).
    pub cc_busy_ns: AtomicU64,
    pub exec_busy_ns: AtomicU64,
    /// The write-ahead log, when durability is configured: every sealed
    /// batch is appended here *before* it is released to CC. Set once, by
    /// [`Bohm::recover`] (which a durable [`Bohm::start`] runs) after
    /// replay, so recovery never logs.
    pub wal: OnceLock<Wal>,
    /// Test hooks on the read lane: execution threads leave every detached
    /// reader to it, and how many transactions it has claimed.
    #[cfg(test)]
    pub lane_takes_every_reader: bohm_sync::atomic::AtomicBool,
    #[cfg(test)]
    pub lane_claims: bohm_sync::atomic::AtomicUsize,
}

impl Inner {
    // CC ownership of a record is static partitioning by cache line of
    // chains (§3.2.2): `store::owner` of the chain's address — reached
    // through [`PlanEntry::partition`](crate::batch::PlanEntry), which
    // carries the chain sealing found, so the per-batch scan never resolves
    // a `RecordId`.

    #[inline]
    pub fn record_size(&self, table: TableId) -> usize {
        self.record_sizes[table.index()]
    }

    /// Build the store from `catalog` and preload it (every seeded version
    /// has timestamp 0). Opens no log and spawns nothing.
    pub(crate) fn new(config: BohmConfig, catalog: CatalogSpec) -> Self {
        config.validate();
        let store = Store::new(&catalog);
        let record_sizes = catalog.tables.iter().map(|t| t.record_size).collect();
        Inner {
            ingest: Ingest::new(bohm_common::ArenaPool::default().arena(), config.batch_size),
            gc_bound: AtomicU64::new(0),
            epoch: AtomicU64::new(0),
            gc_retired: AtomicU64::new(0),
            cc_busy_ns: AtomicU64::new(0),
            exec_busy_ns: AtomicU64::new(0),
            window: Window::new(config.max_inflight_batches, config.batch_size as u64),
            record_sizes,
            store,
            wal: OnceLock::new(),
            #[cfg(test)]
            lane_takes_every_reader: Default::default(),
            #[cfg(test)]
            lane_claims: Default::default(),
            config,
        }
    }
}

/// A running BOHM engine. See the [crate docs](crate) for the protocol.
pub struct Bohm {
    pub(crate) inner: Arc<Inner>,
    threads: Vec<JoinHandle<()>>,
    /// What [`recover`](Self::recover) did, on a recovered engine.
    recovery: Option<RecoveryReport>,
}

impl Bohm {
    /// Build the store from `catalog`, preload it (every seeded version has
    /// timestamp 0) and spawn `cc_threads + exec_threads` worker threads and
    /// the read lane. Sequencing needs no thread: submitters do it (see
    /// [`ingest`](crate::ingest)).
    ///
    /// With [`durability`](BohmConfig::durability) set, a start is a
    /// [`recover`](Self::recover) whose replayed outcomes are dropped: what
    /// the directory already holds is restored and replayed before the log
    /// is attached, so new work is never appended to a log the engine has
    /// not replayed (on an empty directory there is nothing to replay).
    ///
    /// # Panics
    ///
    /// Panics if the log cannot be recovered or opened: failing to open
    /// durable storage fails engine startup, not a later batch seal.
    pub fn start(config: BohmConfig, catalog: CatalogSpec) -> Self {
        let Some(d) = &config.durability else {
            return Self::spawn(config, catalog);
        };
        let dir = d.dir.clone();
        match Self::recover(config, catalog) {
            Ok((engine, _replayed)) => engine,
            Err(e) => panic!("failed to recover the WAL at {}: {e}", dir.display()),
        }
    }

    /// [`start`](Self::start) without the log.
    fn spawn(config: BohmConfig, catalog: CatalogSpec) -> Self {
        let inner = Arc::new(Inner::new(config, catalog));
        // Nothing connects the threads but `inner`: sealers publish batches
        // in the window ring, and the CC and execution threads chase it (see
        // `crate::window`).
        let mut threads = Vec::new();
        let mut spawn = |name: String, role: Box<dyn FnOnce(&Inner) + Send>| {
            let inner = Arc::clone(&inner);
            let builder = std::thread::Builder::new().name(name);
            let spawned = builder.spawn(move || role(&inner));
            threads.push(spawned.expect("spawn engine thread"));
        };
        for i in 0..inner.config.exec_threads {
            let role = move |inner: &Inner| exec::exec_loop(inner, i);
            spawn(format!("bohm-exec-{i}"), Box::new(role));
        }
        // The read lane; the name keeps it in the execution layer's CPU
        // accounting (`bohm-exec-*`).
        spawn("bohm-exec-ro".into(), Box::new(exec::lane_loop));
        for i in 0..inner.config.cc_threads {
            let role = move |inner: &Inner| cc::cc_loop(inner, i);
            spawn(format!("bohm-cc-{i}"), Box::new(role));
        }
        Self {
            inner,
            threads,
            recovery: None,
        }
    }

    /// Recover a durable engine from its own log directory, then keep
    /// running against the same log — the crash → recover → continue
    /// path.
    ///
    /// Build → recover → attach: the engine starts without its log,
    /// [`durable::recover`](bohm_common::durable::recover) — the routine
    /// `DurableEngine::open` runs too — restores the newest
    /// [`Checkpoint`](bohm_common::checkpoint::Checkpoint), if any, and
    /// replays the log suffix stamped at or after its epoch — each logged
    /// batch sealed as one batch, see
    /// [`ingest`](crate::ingest) — and only then is the log opened, its
    /// torn tail repaired, and attached. So
    /// recovery logs nothing — neither the replayed suffix, which the
    /// inherited segments already hold, nor the barriers that end restore
    /// and replay — and work submitted afterwards is logged exactly once
    /// after the inherited prefix. Recovery time is bounded by the work
    /// since the last [`checkpoint`](Self::checkpoint), not the log's
    /// lifetime.
    ///
    /// Returns the running engine plus the *replayed* transactions'
    /// outcomes in log order — determinism makes them (and the rebuilt
    /// state) identical to the pre-crash execution of the same suffix.
    /// Checkpoint-restored transactions are not re-executed and
    /// contribute no outcomes.
    ///
    /// # Errors
    ///
    /// I/O errors from reading the log or the checkpoint, including
    /// [`InvalidData`](std::io::ErrorKind::InvalidData) when the newest
    /// checkpoint fails validation: the log it covered is gone, so there is
    /// no older state to fall back to (see
    /// [`load_latest`](bohm_common::checkpoint::load_latest)).
    ///
    /// # Panics
    ///
    /// Panics if `config.durability` is `None`: recovery without a log
    /// directory is meaningless. (Replay into a memory-only engine is
    /// [`BatchEngine::replay`](bohm_common::engine::BatchEngine::replay).)
    pub fn recover(
        config: BohmConfig,
        catalog: CatalogSpec,
    ) -> std::io::Result<(Self, Vec<ExecOutcome>)> {
        let durability = config
            .durability
            .clone()
            .expect("Bohm::recover requires BohmConfig::durability");
        let mut engine = Self::spawn(config, catalog);
        let recovered = bohm_common::durable::recover(&engine, &durability)?;
        engine.recovery = Some(recovered.report);
        // The epoch must resume past everything recovered, or the next
        // checkpoint's cut could collide with replayed stamps.
        engine.inner.epoch.store(recovered.epoch, Ordering::Release);
        engine
            .inner
            .wal
            .set(recovered.wal)
            .expect("the log is attached once");
        Ok((engine, recovered.outcomes))
    }

    /// Snapshot the current committed state to a durable
    /// [`Checkpoint`](bohm_common::checkpoint::Checkpoint) in the log directory
    /// and reclaim the log prefix it covers.
    ///
    /// The caller must be **submission-quiescent**: no session may be
    /// submitting concurrently (the paper's epoch/GC machinery has no
    /// fuzzy-checkpoint path, and the demo/test harnesses naturally
    /// checkpoint between submission waves). The method quiesces the
    /// pipeline — one logged no-op through
    /// [`execute_sync`](Self::execute_sync), exactly as
    /// [`quiesce`](bohm_common::engine::BatchEngine::quiesce) does — bumps
    /// the engine's epoch so every later batch is stamped past the cut, and
    /// hands [`snapshot_records`](Self::snapshot_records) to
    /// [`checkpoint::cut`](bohm_common::checkpoint::cut), which writes the
    /// checkpoint atomically, rotates the log, truncates the sealed
    /// pre-cut segments and deletes the older checkpoint.
    ///
    /// # Errors
    ///
    /// [`io::ErrorKind::Unsupported`](std::io::ErrorKind::Unsupported)
    /// on a memory-only engine (no `durability` configured); otherwise
    /// any I/O error from the checkpoint write or log maintenance.
    pub fn checkpoint(&self) -> std::io::Result<bohm_common::durable::CheckpointStats> {
        let wal = self.wal().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "checkpoint requires BohmConfig::durability",
            )
        })?;
        // Retirement barrier: every batch submitted before this is
        // executed and logged once this no-op completes.
        bohm_common::engine::BatchEngine::quiesce(self);
        // Everything sealed so far is stamped <= the pre-bump value, i.e.
        // strictly below the cut; everything sealed after carries >= cut.
        let cut = self.inner.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        bohm_common::checkpoint::cut(wal, cut, |f| self.snapshot_records(f))
    }

    /// Visit every currently present record — `(id, latest committed
    /// payload)` — while the engine is quiescent: the checkpoint surface
    /// (secondary-index posting lists are ordinary records and ride
    /// along).
    ///
    /// Waits for in-flight batches to retire first, like
    /// [`read_record`](Self::read_record).
    ///
    /// # Panics
    ///
    /// Panics if a batch entered the pipeline while the snapshot ran:
    /// snapshotting an engine that is still being submitted to is a
    /// harness bug.
    pub fn snapshot_records(&self, f: &mut dyn FnMut(RecordId, &[u8])) {
        self.read_quiescent("snapshot_records", |guard| {
            self.inner.store.for_each(&mut |rid, chain| {
                if let Some(v) = chain.latest(guard) {
                    match v.state() {
                        VersionState::Ready => f(rid, v.data()),
                        VersionState::Tombstone => {}
                        VersionState::Pending => {
                            panic!("snapshot_records on a non-quiescent engine")
                        }
                    }
                }
            });
        })
    }

    /// Run `read` — a reader *outside* the transaction pipeline — over a
    /// span in which no CC thread touches version memory.
    ///
    /// Condition 3 accounts for transactions only, so nothing holds the
    /// watermark back for such a reader: were a batch in flight, the
    /// version it is copying could be superseded, retired and recycled
    /// under it. Everything a CC thread does to a chain (install, reclaim)
    /// happens between its batch's `Window::push` and that batch's
    /// retirement. So: wait until everything pushed has retired
    /// (batches in flight retire on their own — this is what lets a caller
    /// come here straight from per-transaction session handles, which
    /// complete before their batch retires), stamp the retirement count,
    /// read, and check that the window is empty and the stamp unchanged. A
    /// batch whose CC work did not happen-before the stamp is then either
    /// still in the window or has moved the stamp.
    ///
    /// # Panics
    ///
    /// Panics, rather than return what `read` saw, if that check fails:
    /// somebody submitted while a diagnostic read was running.
    fn read_quiescent<R>(&self, what: &str, read: impl FnOnce(&epoch::Guard) -> R) -> R {
        let window = &self.inner.window;
        window.wait_retired();
        let stamp = window.retired();
        let out = read(&epoch::pin());
        // Order the plain payload reads above before the re-check below.
        fence(Ordering::Acquire);
        assert!(
            window.is_empty() && window.retired() == stamp,
            "{what} raced a submission: no other thread may submit while \
             engine state is read directly"
        );
        out
    }

    /// Open a submission session: the per-client handle for submitting
    /// single transactions, each with its own outcome.
    ///
    /// Sessions are independent of the engine's lifetime (they hold a
    /// reference to its shared state, not to the `Bohm`); submitting
    /// through one after [`shutdown`](Self::shutdown) panics.
    pub fn session(&self) -> BohmSession {
        BohmSession::new(Arc::clone(&self.inner))
    }

    /// The one convenience over [`session`](Self::session): submit `txns`
    /// in order through a fresh session, wait for every outcome, then wait
    /// until every batch pushed so far has **retired**. Returns the
    /// outcomes in submission order.
    ///
    /// After it returns the engine is quiescent with respect to these
    /// transactions and everything submitted before them:
    /// [`read_u64`](Self::read_u64) is race-free (and does not wait), and
    /// [`gc_bound`](Self::gc_bound) has advanced past their timestamps.
    /// Other sessions may interleave with `txns` in the serial order (the
    /// order submissions take the open batch's mutex, §3.2.1); what they
    /// submit meanwhile is not waited for.
    pub fn execute_sync(&self, txns: Vec<Txn>) -> Vec<ExecOutcome> {
        let session = self.session();
        let handles: Vec<TxnHandle> = txns.into_iter().map(|t| session.submit(t)).collect();
        let outcomes = handles.iter().map(TxnHandle::wait).collect();
        self.inner.window.wait_retired();
        outcomes
    }

    /// Read the latest committed value of `rid` (diagnostics / verification;
    /// for quiescent moments, e.g. after draining all batches).
    ///
    /// This reader is not a transaction, so it must not overlap one: it
    /// first waits for every in-flight batch to retire (a no-op after
    /// [`execute_sync`](Self::execute_sync) or
    /// [`quiesce`](bohm_common::engine::BatchEngine::quiesce), a short wait
    /// after per-transaction session handles).
    ///
    /// # Panics
    ///
    /// Panics if a batch entered the pipeline while the read ran (see
    /// `read_quiescent`): reading an engine that another thread is
    /// submitting to is a harness bug, and the bytes copied could be torn.
    pub fn read_record(&self, rid: RecordId) -> Option<Box<[u8]>> {
        self.read_quiescent("read_record", |guard| {
            let v = self.inner.store.chain(rid)?.latest(guard)?;
            match v.state() {
                VersionState::Ready => Some(v.data().into()),
                VersionState::Tombstone => None,
                VersionState::Pending => panic!("read_record on a non-quiescent engine"),
            }
        })
    }

    /// `u64` prefix of the latest committed value of `rid`.
    pub fn read_u64(&self, rid: RecordId) -> Option<u64> {
        self.read_record(rid)
            .map(|d| bohm_common::value::get_u64(&d, 0))
    }

    /// Versions retired by Condition-3 GC so far.
    pub fn gc_retired(&self) -> u64 {
        // RELAXED: statistics read; approximate under concurrency.
        self.inner.gc_retired.load(Ordering::Relaxed)
    }

    /// Diagnostics: total busy time of (CC, execution) layers so far.
    pub fn busy_times(&self) -> (std::time::Duration, std::time::Duration) {
        (
            // RELAXED: diagnostic counters; tearing between the two reads
            // is acceptable.
            std::time::Duration::from_nanos(self.inner.cc_busy_ns.load(Ordering::Relaxed)),
            // RELAXED: as above.
            std::time::Duration::from_nanos(self.inner.exec_busy_ns.load(Ordering::Relaxed)),
        )
    }

    /// Current GC low watermark: the last timestamp of the newest *retired*
    /// batch, i.e. every transaction at or below it has finished executing —
    /// long readers on the read lane included, since a batch retires only
    /// once each of its transactions is complete. Batches retire in id order
    /// and the bound is stored as they do, so it never decreases; it stands
    /// still for as long as the oldest in-flight batch has a transaction
    /// running.
    pub fn gc_bound(&self) -> u64 {
        // RELAXED: monotone watermark snapshot for diagnostics; the CC
        // threads, which recycle memory under it, load it with Acquire.
        self.inner.gc_bound.load(Ordering::Relaxed)
    }

    /// Number of CC / execution threads (for harness reporting).
    pub fn thread_counts(&self) -> (usize, usize) {
        (self.inner.config.cc_threads, self.inner.config.exec_threads)
    }

    /// What [`recover`](Self::recover) did — checkpoint restored, batches
    /// skipped, transactions replayed, the time of each phase — on an engine
    /// it built (a durable [`start`](Self::start) included); `None` on a
    /// memory-only engine.
    pub fn recovery_report(&self) -> Option<RecoveryReport> {
        self.recovery
    }

    /// The write-ahead log, when [`BohmConfig::durability`] was set.
    pub fn wal(&self) -> Option<&Wal> {
        self.inner.wal.get()
    }

    /// Total bytes currently held by the write-ahead log (0 for a
    /// memory-only engine) — the checkpointing trigger surface; a
    /// [`checkpoint`](Self::checkpoint) reclaims what it covers.
    pub fn log_bytes(&self) -> u64 {
        self.wal().map_or(0, Wal::log_bytes)
    }

    /// Stop accepting work, drain the pipeline, and join all threads —
    /// which is what dropping the engine does.
    pub fn shutdown(self) {}
}

impl Drop for Bohm {
    fn drop(&mut self) {
        // Seal what is open and close the window behind it: the CC and
        // execution threads exit once they are through every sealed batch.
        self.inner.close_ingest();
        for h in self.threads.drain(..) {
            let _ = h.join();
        }
        // Every accepted batch is now logged; make the tail durable even
        // under relaxed fsync policies, so a clean shutdown never loses work.
        if let Some(wal) = self.wal() {
            use bohm_common::wal::LogSink as _;
            let _ = wal.sync();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bohm_common::{Procedure, SmallBankProc};

    fn rid(k: u64) -> RecordId {
        RecordId::new(0, k)
    }

    fn rmw(keys: &[u64], delta: u64) -> Txn {
        let rids: Vec<RecordId> = keys.iter().map(|&k| rid(k)).collect();
        Txn::new(rids.clone(), rids, Procedure::ReadModifyWrite { delta })
    }

    fn small_engine() -> Bohm {
        Bohm::start(
            BohmConfig::small(),
            CatalogSpec::new().table(64, 8, |row| row * 10),
        )
    }

    #[test]
    fn preload_is_visible() {
        let e = small_engine();
        assert_eq!(e.read_u64(rid(0)), Some(0));
        assert_eq!(e.read_u64(rid(7)), Some(70));
        assert!(e.read_u64(RecordId::new(0, 64)).is_none());
        e.shutdown();
    }

    #[test]
    fn single_rmw_commits() {
        let e = small_engine();
        let out = e.execute_sync(vec![rmw(&[3], 5)]);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(rid(3)), Some(35));
        e.shutdown();
    }

    #[test]
    fn empty_batch_completes() {
        let e = small_engine();
        let out = e.execute_sync(vec![]);
        assert!(out.is_empty());
        e.shutdown();
    }

    #[test]
    fn same_key_rmws_serialize_in_log_order() {
        let e = small_engine();
        // 100 increments of one hot record inside a single submission: the
        // execution layer must chain the read dependencies correctly.
        let out = e.execute_sync((0..100).map(|_| rmw(&[1], 1)).collect());
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(e.read_u64(rid(1)), Some(110));
        e.shutdown();
    }

    #[test]
    fn many_batches_pipeline() {
        let e = small_engine();
        let session = e.session();
        let handles: Vec<_> = (0..1000)
            .map(|i| session.submit(rmw(&[i % 8], 1)))
            .collect();
        assert!(handles.iter().all(|h| h.wait().committed));
        // 1000 txns in flight at once, spread over keys 0..8; the reads
        // below wait out whatever has not retired yet.
        let total: u64 = (0..8).map(|k| e.read_u64(rid(k)).unwrap() - k * 10).sum();
        assert_eq!(total, 1000);
        e.shutdown();
    }

    #[test]
    fn session_submission_roundtrip() {
        let e = small_engine();
        let session = e.session();
        // Pipeline many single-transaction submissions, then reap them.
        let handles: Vec<_> = (0..200).map(|i| session.submit(rmw(&[i % 4], 1))).collect();
        for h in &handles {
            assert!(h.wait().committed);
        }
        // Quiesce (barrier semantics) before reading engine state directly:
        // a trailing no-op submission retires after every earlier batch.
        e.execute_sync(vec![rmw(&[63], 0)]);
        let total: u64 = (0..4).map(|k| e.read_u64(rid(k)).unwrap() - k * 10).sum();
        assert_eq!(total, 200);
        e.shutdown();
    }

    #[test]
    fn diagnostic_reads_wait_for_in_flight_batches() {
        // Per-transaction handles complete before their batch retires, so
        // the reads below can arrive with a batch still in the window: they
        // wait it out instead of reading beside it.
        let e = small_engine();
        let session = e.session();
        for round in 1..=20u64 {
            let handles: Vec<_> = (0..50).map(|i| session.submit(rmw(&[i % 4], 1))).collect();
            for h in &handles {
                assert!(h.wait().committed);
            }
            let total: u64 = (0..4).map(|k| e.read_u64(rid(k)).unwrap() - k * 10).sum();
            assert_eq!(total, round * 50);
        }
        e.shutdown();
    }

    #[test]
    #[should_panic(expected = "read_record raced a submission")]
    fn diagnostic_read_overlapping_a_batch_panics() {
        // A whole batch goes through the pipeline while the "read" runs:
        // the window is empty again afterwards, but the stamp has moved.
        let e = small_engine();
        e.read_quiescent("read_record", |_| {
            e.execute_sync(vec![rmw(&[1], 1)]);
        });
    }

    #[test]
    fn sessions_from_multiple_threads_apply_all_effects() {
        let e = Arc::new(Bohm::start(
            BohmConfig::with_threads(2, 2),
            CatalogSpec::new().table(16, 8, |_| 0),
        ));
        let mut clients = Vec::new();
        for c in 0..4u64 {
            let e = Arc::clone(&e);
            clients.push(std::thread::spawn(move || {
                let session = e.session();
                let handles: Vec<_> = (0..250)
                    .map(|i| session.submit(rmw(&[(c * 4 + i) % 16], 1)))
                    .collect();
                handles.iter().filter(|h| h.wait().committed).count()
            }));
        }
        let committed: usize = clients.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(committed, 1000);
        // Quiesce, then audit: every committed increment landed exactly once.
        e.execute_sync(vec![rmw(&[0], 0)]);
        let total: u64 = (0..16).map(|k| e.read_u64(rid(k)).unwrap()).sum();
        assert_eq!(total, 1000);
        Arc::try_unwrap(e).ok().unwrap().shutdown();
    }

    #[test]
    fn blind_writes_take_last_value_in_log_order() {
        let e = small_engine();
        let txns = (0..10)
            .map(|i| {
                Txn::new(
                    vec![],
                    vec![rid(5)],
                    Procedure::BlindWrite { value: 1000 + i },
                )
            })
            .collect();
        let out = e.execute_sync(txns);
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(e.read_u64(rid(5)), Some(1009));
        e.shutdown();
    }

    #[test]
    fn user_abort_copies_previous_version_through() {
        let e = Bohm::start(
            BohmConfig::small(),
            CatalogSpec::new()
                .table(4, 8, |_| 100) // savings
                .table(4, 8, |_| 50), // checking
        );
        let sav = RecordId::new(0, 1);
        // Withdraw 70 twice: first succeeds (100→30), second aborts (30-70<0).
        let w = |amount: i64| {
            Txn::new(
                vec![sav],
                vec![sav],
                Procedure::SmallBank(SmallBankProc::TransactSaving { v: amount }),
            )
        };
        let out = e.execute_sync(vec![w(-70), w(-70), w(10)]);
        assert!(out[0].committed);
        assert!(!out[1].committed, "overdraft must abort");
        assert!(out[2].committed);
        assert_eq!(e.read_u64(sav), Some(40), "30 after abort, then +10");
        e.shutdown();
    }

    #[test]
    fn read_only_fingerprints_reflect_serial_order() {
        let e = small_engine();
        let ro = || Txn::new(vec![rid(2)], vec![], Procedure::ReadOnly);
        // r0 sees 20; write makes it 21; r1 sees 21.
        let out = e.execute_sync(vec![ro(), rmw(&[2], 1), ro()]);
        assert!(out.iter().all(|o| o.committed));
        assert_ne!(out[0].fingerprint, out[2].fingerprint);
        e.shutdown();
    }

    #[test]
    fn gc_reclaims_superseded_versions() {
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(2, 8, |_| 0));
        for _ in 0..50 {
            e.execute_sync((0..20).map(|_| rmw(&[0], 1)).collect());
        }
        assert_eq!(e.read_u64(rid(0)), Some(1000));
        assert!(
            e.gc_retired() > 500,
            "hot-key updates should be reclaimed, got {}",
            e.gc_retired()
        );
        assert!(e.gc_bound() > 0);
        e.shutdown();
    }

    #[test]
    fn annotations_can_be_disabled() {
        let mut cfg = BohmConfig::small();
        cfg.annotate_max_reads = 0;
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |r| r));
        let out = e.execute_sync((0..40).map(|i| rmw(&[i % 8], 1)).collect());
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(e.read_u64(rid(3)), Some(3 + 5));
        e.shutdown();
    }

    #[test]
    fn read_write_mix_across_records() {
        let e = small_engine();
        // 2RMW-8R style: writes to 2 records, reads of 8 others.
        let txns: Vec<Txn> = (0..30)
            .map(|i| {
                let w: Vec<RecordId> = vec![rid(i % 4), rid(4 + (i % 4))];
                let mut r = w.clone();
                r.extend((8..16).map(rid));
                Txn::new(r, w, Procedure::ReadModifyWrite { delta: 1 })
            })
            .collect();
        let out = e.execute_sync(txns);
        assert!(out.iter().all(|o| o.committed));
        // 30 txns × 2 writes spread uniformly over 8 records.
        let total: u64 = (0..8).map(|k| e.read_u64(rid(k)).unwrap() - k * 10).sum();
        assert_eq!(total, 60);
        e.shutdown();
    }

    #[test]
    fn single_thread_each_layer_works() {
        let e = Bohm::start(
            BohmConfig::with_threads(1, 1),
            CatalogSpec::new().table(16, 8, |_| 0),
        );
        let out = e.execute_sync((0..64).map(|i| rmw(&[i % 16], 1)).collect());
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(e.read_u64(rid(0)), Some(4));
        e.shutdown();
    }

    #[test]
    fn wide_write_sets_use_intra_txn_parallelism() {
        // One transaction writing many records is processed cooperatively
        // by all CC threads (paper Fig. 2).
        let e = Bohm::start(
            BohmConfig::with_threads(4, 2),
            CatalogSpec::new().table(64, 8, |_| 0),
        );
        let keys: Vec<u64> = (0..64).collect();
        let out = e.execute_sync(vec![rmw(&keys, 7)]);
        assert!(out[0].committed);
        for k in 0..64 {
            assert_eq!(e.read_u64(rid(k)), Some(7));
        }
        e.shutdown();
    }

    #[test]
    fn tiny_batches_with_idle_trigger() {
        // Force the *idle* trigger: batch_size far above what we submit, so
        // every seal comes from a waiter that found no batch in flight.
        let mut cfg = BohmConfig::small();
        cfg.batch_size = 1 << 16;
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |_| 0));
        for _ in 0..5 {
            let out = e.execute_sync((0..16).map(|i| rmw(&[i % 8], 1)).collect());
            assert!(out.iter().all(|o| o.committed));
        }
        assert_eq!(e.read_u64(rid(0)), Some(10));
        e.shutdown();
    }

    #[test]
    fn insert_of_fresh_key_becomes_visible() {
        use bohm_common::Procedure::BlindWrite;
        // Catalog declares the table's record size; only 4 rows preloaded,
        // but every row the table can address is an insert target.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(4, 8, |r| r));
        let fresh = rid(1000);
        assert_eq!(e.read_u64(fresh), None, "fresh key starts absent");
        let out = e.execute_sync(vec![Txn::new(
            vec![],
            vec![fresh],
            BlindWrite { value: 77 },
        )]);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(fresh), Some(77));
        // Inserted records behave like preloaded ones afterwards.
        let out = e.execute_sync(vec![rmw(&[1000], 1)]);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(fresh), Some(78));
        e.shutdown();
    }

    #[test]
    fn read_of_never_inserted_key_is_absent_not_stale_or_later() {
        use bohm_common::{Procedure::BlindWrite, TpcCProc, ABSENT_FINGERPRINT};
        // One batch carrying [probe K, insert K, probe K]: the first probe
        // must observe absence even though, by the time it executes, the
        // insert's placeholder (a *later* timestamp) is already on K's
        // chain — the cc annotate path left the slot null and the fallback
        // re-probe filters by ts. The second probe sees the insert.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(4, 8, |_| 5));
        let k = rid(900);
        let probe = Txn::new(
            vec![rid(0), k],
            vec![],
            bohm_common::Procedure::TpcC(TpcCProc::OrderStatus),
        );
        let insert = Txn::new(vec![], vec![k], BlindWrite { value: 42 });
        let out = e.execute_sync(vec![probe.clone(), insert, probe]);
        assert!(out.iter().all(|o| o.committed));
        let absent_fp = 5u64.wrapping_mul(31).wrapping_add(ABSENT_FINGERPRINT);
        assert_eq!(
            out[0].fingerprint, absent_fp,
            "pre-insert probe sees absence"
        );
        assert_ne!(
            out[2].fingerprint, absent_fp,
            "post-insert probe sees the row"
        );
        e.shutdown();
    }

    /// Run the CC phase of a hand-built batch (timestamps from 1) on the
    /// calling thread, as the engine's only CC thread would.
    fn cc_phase_of(e: &Bohm, txns: Vec<Txn>) -> Arc<crate::batch::Batch> {
        let outcomes = crate::batch::Outcomes::new(txns.len());
        let mut arena = crate::batch::tests::test_arena();
        let batch = crate::batch::Batch::new(
            txns,
            outcomes,
            1,
            0,
            0,
            1,
            1,
            64,
            &e.inner.store,
            &mut arena,
        );
        cc::process_batch(&e.inner, 0, &batch, &mut bohm_mvstore::VersionPool::new());
        batch
    }

    #[test]
    fn cc_finds_each_record_once_not_once_per_access() {
        let e = Bohm::start(
            BohmConfig::with_threads(1, 1),
            CatalogSpec::new().table(64, 8, |r| r),
        );
        let keys: Vec<u64> = (0..10).map(|k| k * 5 + 1).collect();
        cc::PROBES.with(|p| p.set(0));
        let batch = cc_phase_of(&e, vec![rmw(&keys, 1), rmw(&keys[..3], 1)]);
        assert_eq!(cc::PROBES.with(|p| p.get()), 10 + 3, "one entry per RMW");
        // Every read is annotated with the version its own placeholder
        // went on top of.
        let guard = epoch::pin();
        for t in batch.txns.iter() {
            for (r, w) in t.read_refs.iter().zip(t.write_refs.iter()) {
                let (r, w) = (r.load(Ordering::Acquire), w.load(Ordering::Acquire));
                // SAFETY: nothing has executed; every installed version is live.
                let placeholder = unsafe { w.as_ref() }.expect("installed");
                assert_eq!(placeholder.begin(), t.ts);
                let under = placeholder.prev(&guard).expect("a predecessor");
                assert!(std::ptr::eq(under, r), "annotated = superseded");
            }
        }
        // The second transaction read the first one's placeholders.
        let first = batch.txns[0].write_refs[0].load(Ordering::Acquire);
        assert_eq!(batch.txns[1].read_refs[0].load(Ordering::Acquire), first);
        drop(guard);
        e.shutdown();
    }

    #[test]
    fn cc_takes_every_chain_from_the_plan_and_looks_nothing_up() {
        let e = Bohm::start(
            BohmConfig::with_threads(1, 1),
            CatalogSpec::new().table(64, 8, |r| r),
        );
        let rids = |rows: &[u64]| rows.iter().map(|&r| rid(r)).collect::<Vec<_>>();
        let keys: Vec<u64> = (0..10).map(|k| k * 5 + 1).collect();
        // A row of a segment no batch has named before this one.
        let far = 3 << 16;
        let rmw = |r: &[u64], w: &[u64]| {
            Txn::new(rids(r), rids(w), Procedure::ReadModifyWrite { delta: 1 })
        };
        let txns = vec![
            rmw(&keys, &keys),
            rmw(&keys, &keys[..2]),
            rmw(&[2, 3], &[far, 3]),
            Txn::new(rids(&[far, 4]), vec![], Procedure::ReadOnly),
        ];
        crate::store::LOOKUPS.with(|n| n.set(0));
        cc::PROBES.with(|p| p.set(0));
        let batch = cc_phase_of(&e, txns);
        assert_eq!(
            crate::store::LOOKUPS.with(|n| n.get()),
            0,
            "no Store::chain call"
        );
        let store = &e.inner.store;
        let mut entries = 0;
        for t in batch.txns.iter() {
            for p in t.plan.iter() {
                let rid = match (p.read(), p.write()) {
                    (_, Some(w)) => t.txn.writes[w],
                    (Some(r), _) => t.txn.reads[r],
                    (None, None) => unreachable!("a plan entry names a record"),
                };
                // SAFETY: `e` owns the store the batch was planned against.
                let chain = unsafe { p.chain() };
                assert!(std::ptr::eq(chain, store.chain(rid).expect("reserved")));
                entries += 1;
            }
        }
        assert_eq!(entries, 10 + (8 + 2) + (1 + 2) + 2);
        assert_eq!(cc::PROBES.with(|p| p.get()), entries);
        // Every write went onto its record's chain.
        let guard = epoch::pin();
        for t in batch.txns.iter() {
            for (w, slot) in t.write_refs.iter().enumerate() {
                let v = slot.load(Ordering::Acquire);
                let mut on = store.chain(t.txn.writes[w]).unwrap().latest(&guard);
                while on.is_some_and(|on| !std::ptr::eq(on, v)) {
                    on = on.and_then(|on| on.prev(&guard));
                }
                assert!(on.is_some(), "ts {} write {w}", t.ts);
            }
        }
        drop(guard);
        e.shutdown();
    }

    #[test]
    fn rmw_of_a_key_absent_at_cc_time_reads_absence_not_its_own_placeholder() {
        use bohm_common::Access;
        let e = Bohm::start(
            BohmConfig::with_threads(1, 1),
            CatalogSpec::new().table(4, 8, |r| r),
        );
        let fresh = rid(500);
        let insert_with_read = Txn::new(vec![fresh], vec![fresh], Procedure::ReadOnly);
        let batch = cc_phase_of(&e, vec![insert_with_read.clone(), insert_with_read]);
        let guard = epoch::pin();
        let read_of = |i: usize| {
            let t = &batch.txns[i];
            assert!(!t.write_refs[0].load(Ordering::Acquire).is_null());
            let mut access = crate::access::BohmAccess {
                t,
                store: &e.inner.store,
                guard: &guard,
                ahead: None,
                in_place: None,
            };
            (
                t.read_refs[0].load(Ordering::Acquire),
                access.read_maybe(0, |_: &[u8]| panic!("nothing to read")),
            )
        };
        // First transaction: the chain did not exist; the fused entry
        // created it, found no latest version and left the slot null. By
        // now its own placeholder (and a later one) sit on the chain; the
        // ts-filtered fallback must see past both.
        let (slot, got) = read_of(0);
        assert!(slot.is_null());
        assert_eq!(got, Ok(false), "absent at its timestamp");
        // Second transaction: annotated with the first one's placeholder,
        // which has not been produced — a dependency, not absence.
        let (slot, got) = read_of(1);
        assert_eq!(slot, batch.txns[0].write_refs[0].load(Ordering::Acquire));
        assert_eq!(got, Err(bohm_common::AbortReason::NotReady(1)));
        drop(guard);
        e.shutdown();
    }

    #[test]
    fn aborted_fresh_insert_reads_as_absent_via_tombstone() {
        use bohm_common::SmallBankProc;
        // WriteCheck aborts in no engine; use TransactSaving against a
        // zero-balance account *combined* with a fresh-key write set so the
        // abort's copy-through tombstones the fresh placeholder.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(2, 8, |_| 0));
        let sav = rid(0);
        let fresh = rid(700);
        // reads = [savings], writes = [savings, fresh]: the procedure
        // aborts before writing, so both placeholders are copied through —
        // savings from its predecessor, fresh to a tombstone.
        let aborting = Txn::new(
            vec![sav],
            vec![sav, fresh],
            bohm_common::Procedure::SmallBank(SmallBankProc::TransactSaving { v: -10 }),
        );
        let probe = Txn::new(
            vec![sav, fresh],
            vec![],
            bohm_common::Procedure::TpcC(bohm_common::TpcCProc::OrderStatus),
        );
        let out = e.execute_sync(vec![aborting, probe]);
        assert!(!out[0].committed);
        assert!(out[1].committed);
        assert_eq!(
            out[1].fingerprint,
            0u64.wrapping_mul(31)
                .wrapping_add(bohm_common::ABSENT_FINGERPRINT),
            "tombstoned fresh insert reads as absence"
        );
        assert_eq!(e.read_u64(fresh), None);
        e.shutdown();
    }

    #[test]
    fn delete_lifecycle_absent_then_reinsert() {
        use bohm_common::Procedure::{BlindWrite, GuardedDelete};
        let e = Bohm::start(
            BohmConfig::small(),
            CatalogSpec::new().table(4, 8, |r| r + 5),
        );
        let guard = rid(0);
        let victim = rid(2); // seeded 7
        let probe = || {
            Txn::new(
                vec![guard, victim],
                vec![],
                bohm_common::Procedure::TpcC(bohm_common::TpcCProc::OrderStatus),
            )
        };
        let del = Txn::new(vec![guard], vec![victim], GuardedDelete { min: 0 });
        let ins = Txn::new(vec![], vec![victim], BlindWrite { value: 99 });
        // One submission: probe (present), delete, probe (absent),
        // re-insert, probe (present again) — log order is serial order.
        let out = e.execute_sync(vec![probe(), del, probe(), ins, probe()]);
        assert!(out.iter().all(|o| o.committed));
        let absent_fp = 5u64
            .wrapping_mul(31)
            .wrapping_add(bohm_common::ABSENT_FINGERPRINT);
        assert_ne!(out[0].fingerprint, absent_fp, "pre-delete probe sees row");
        assert_eq!(out[2].fingerprint, absent_fp, "post-delete probe absent");
        assert_ne!(
            out[4].fingerprint, absent_fp,
            "post-reinsert probe sees row"
        );
        assert_eq!(e.read_u64(victim), Some(99));
        e.shutdown();
    }

    #[test]
    fn scans_are_ordered_against_batched_inserts_not_phantoms() {
        use bohm_common::Procedure::BlindWrite;
        use bohm_common::{ScanRange, TpcCProc};
        let e = small_engine(); // 64 seeded rows; rows ≥ 64 insert-fresh
        let history = || {
            Txn::with_scans(
                vec![rid(0)],
                vec![],
                vec![ScanRange::new(0, 100, 110)],
                Procedure::TpcC(TpcCProc::OrderHistory),
            )
        };
        let ins = |k: u64, v: u64| Txn::new(vec![], vec![rid(k)], BlindWrite { value: v });
        // One submission ⇒ one batch: every scan executes while the
        // *later* inserts' placeholders are already on the scanned range's
        // chains. The ts-filtered probe of every scanned row must order
        // each scan between its log neighbours: 0, then 1, then 2 present
        // rows — never a phantom from a later insert.
        let out = e.execute_sync(vec![
            history(),
            ins(105, 7),
            history(),
            ins(103, 8),
            history(),
        ]);
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(out[0].fingerprint, 0, "pre-insert scan is empty");
        assert_ne!(out[2].fingerprint, out[0].fingerprint);
        assert_ne!(out[4].fingerprint, out[2].fingerprint);
        // Deleting from the range shrinks the membership back.
        let del = Txn::new(
            vec![rid(0)],
            vec![rid(103)],
            Procedure::GuardedDelete { min: 0 },
        );
        let out2 = e.execute_sync(vec![del, history()]);
        assert!(out2.iter().all(|o| o.committed));
        assert_eq!(
            out2[1].fingerprint, out[2].fingerprint,
            "post-delete scan matches the single-row membership"
        );
        e.shutdown();
    }

    #[test]
    fn scans_stay_correct_with_annotations_disabled() {
        use bohm_common::Procedure::BlindWrite;
        use bohm_common::{ScanRange, TpcCProc};
        // The ablation path: with read annotation off, the scan's customer
        // read takes the ts-filtered fallback probe too, beside the rows
        // the scan resolves that way anyway — same ordering guarantees.
        let mut cfg = BohmConfig::small();
        cfg.annotate_max_reads = 0;
        let e = Bohm::start(cfg, CatalogSpec::new().table(64, 8, |r| r * 10));
        let history = || {
            Txn::with_scans(
                vec![rid(0)],
                vec![],
                vec![ScanRange::new(0, 100, 110)],
                Procedure::TpcC(TpcCProc::OrderHistory),
            )
        };
        let ins = |k: u64, v: u64| Txn::new(vec![], vec![rid(k)], BlindWrite { value: v });
        let out = e.execute_sync(vec![history(), ins(105, 7), history()]);
        assert!(out.iter().all(|o| o.committed));
        assert_eq!(out[0].fingerprint, 0, "pre-insert scan is empty");
        assert_ne!(out[2].fingerprint, 0, "post-insert scan sees the row");
        e.shutdown();
    }

    #[test]
    fn wide_scan_ranges_ignore_annotate_max_reads() {
        use bohm_common::{ScanRange, TpcCProc};
        // The annotation knob bounds read sets, not scans: a range wider
        // than annotate_max_reads is served row by row like any other.
        let mut cfg = BohmConfig::small();
        cfg.annotate_max_reads = 4;
        let e = Bohm::start(cfg, CatalogSpec::new().table(16, 8, |r| r + 1));
        let wide = Txn::with_scans(
            vec![rid(0)],
            vec![],
            vec![ScanRange::new(0, 0, 16)], // 16 > annotate_max_reads
            Procedure::TpcC(TpcCProc::OrderHistory),
        );
        let out = e.execute_sync(vec![wide]);
        assert!(out[0].committed);
        assert_ne!(out[0].fingerprint, 0, "all 16 seeded rows observed");
        e.shutdown();
    }

    #[test]
    fn scan_blocks_on_pending_producer_within_a_batch() {
        use bohm_common::Procedure::BlindWrite;
        use bohm_common::{ScanRange, TpcCProc};
        // [insert K, scan covering K] in one batch: if the executor reaches
        // the scan first it lands on the insert's pending placeholder and
        // must resolve the producer (NotReady → recursive execution), then
        // observe the row — the §3.3.1 protocol extended to ranges.
        let e = small_engine();
        let ins = Txn::new(vec![], vec![rid(200)], BlindWrite { value: 9 });
        let history = Txn::with_scans(
            vec![rid(0)],
            vec![],
            vec![ScanRange::new(0, 198, 203)],
            Procedure::TpcC(TpcCProc::OrderHistory),
        );
        for _ in 0..20 {
            let out = e.execute_sync(vec![ins.clone(), history.clone()]);
            assert!(out.iter().all(|o| o.committed));
            assert_ne!(out[1].fingerprint, 0, "scan must observe the insert");
        }
        e.shutdown();
    }

    #[test]
    fn user_aborted_delete_leaves_row_readable() {
        use bohm_common::Procedure::GuardedDelete;
        // Guard seeded 0 < min ⇒ user abort; the delete placeholder is
        // copied through from its predecessor, so the row survives.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(4, 8, |r| r));
        let del = Txn::new(vec![rid(0)], vec![rid(2)], GuardedDelete { min: 1 });
        let out = e.execute_sync(vec![del]);
        assert!(!out[0].committed);
        assert_eq!(e.read_u64(rid(2)), Some(2), "aborted delete rolls back");
        e.shutdown();
    }

    #[test]
    fn delete_churn_is_reclaimed_by_condition3_gc() {
        use bohm_common::Procedure::{BlindWrite, GuardedDelete};
        // Sustained insert→delete→re-insert cycles on a hot key: superseded
        // values *and* consumed tombstones must flow out through the
        // Condition-3 truncation, not accumulate.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(2, 8, |_| 1));
        let guard = rid(0);
        let hot = rid(1);
        let iters = bohm_common::stress_iters(400);
        for _ in 0..iters {
            let out = e.execute_sync(vec![
                Txn::new(vec![guard], vec![hot], GuardedDelete { min: 0 }),
                Txn::new(vec![], vec![hot], BlindWrite { value: 9 }),
            ]);
            assert!(out.iter().all(|o| o.committed));
        }
        assert_eq!(e.read_u64(hot), Some(9));
        assert!(
            e.gc_retired() > iters,
            "delete churn should be reclaimed, got {} after {iters} cycles",
            e.gc_retired()
        );
        e.shutdown();
    }

    /// Versions linked on every chain, on a quiescent engine.
    fn versions(e: &Bohm) -> usize {
        e.read_quiescent("versions", |guard| {
            let mut n = 0;
            e.inner
                .store
                .for_each(&mut |_, chain| n += chain.depth(guard));
            n
        })
    }

    #[test]
    fn delete_reinsert_rounds_keep_a_bounded_number_of_versions() {
        use bohm_common::Procedure::{BlindWrite, GuardedDelete};
        // A deleted row keeps its tombstone until its next install, and each
        // install truncates what the bound has passed: rounds of deleting
        // and re-inserting the same rows leave every chain a few versions
        // deep, however many rounds run.
        let e = Bohm::start(BohmConfig::small(), CatalogSpec::new().table(2, 8, |_| 1));
        let rows = 100..164;
        let insert = |v: u64| -> Vec<Txn> {
            let blind = |k| Txn::new(vec![], vec![rid(k)], BlindWrite { value: k + v });
            rows.clone().map(blind).collect()
        };
        let delete = || -> Vec<Txn> {
            let del = |k| Txn::new(vec![rid(0)], vec![rid(k)], GuardedDelete { min: 0 });
            rows.clone().map(del).collect()
        };
        assert!(e.execute_sync(insert(0)).iter().all(|o| o.committed));
        let mut most = 0;
        for round in 1..=20 {
            assert!(e.execute_sync(delete()).iter().all(|o| o.committed));
            assert!(e.execute_sync(insert(round)).iter().all(|o| o.committed));
            let now = versions(&e);
            if round == 2 {
                most = now;
            }
            assert!(
                now <= most.max(2 + 3 * 64),
                "round {round}: {now} versions, after round 2 there were {most}"
            );
        }
        assert_eq!(e.read_u64(rid(120)), Some(120 + 20));
        assert!(e.execute_sync(delete()).iter().all(|o| o.committed));
        for k in rows.clone() {
            assert_eq!(e.read_u64(rid(k)), None, "deleted rows read absent");
        }
        let out = e.execute_sync(vec![Txn::new(
            vec![],
            vec![rid(120)],
            BlindWrite { value: 7 },
        )]);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(rid(120)), Some(7), "and stay insertable");
        e.shutdown();
    }

    #[test]
    fn a_record_no_table_can_hold_is_refused_on_the_callers_thread() {
        let e = Arc::new(small_engine());
        let refused = |txn: Txn| {
            let session = e.session();
            let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                session.submit(txn);
            }))
            .expect_err("submit must refuse it");
            err.downcast_ref::<String>().cloned().unwrap_or_default()
        };
        let past = RecordId::new(0, crate::store::MAX_ROWS);
        let msg = refused(Txn::new(
            vec![past],
            vec![past],
            Procedure::ReadModifyWrite { delta: 1 },
        ));
        assert!(msg.contains("past the"), "{msg}");
        let unknown = RecordId::new(3, 0);
        let msg = refused(Txn::new(
            vec![],
            vec![unknown],
            Procedure::BlindWrite { value: 1 },
        ));
        assert!(msg.contains("does not exist"), "{msg}");
        // Nothing of either reached the log order: the engine carries on.
        let engine = Arc::clone(&e);
        let next = move || engine.execute_sync(vec![rmw(&[3], 1)]);
        let out = crate::ingest::tests::within("the next RMW", next);
        assert!(out[0].committed);
        assert_eq!(e.read_u64(rid(3)), Some(31));
        Arc::try_unwrap(e).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn wal_engine_logs_every_batch_and_replay_rebuilds_state() {
        use bohm_common::engine::BatchEngine as _;
        use bohm_common::wal::{DurabilityConfig, Wal};
        let dir = std::env::temp_dir().join(format!("bohm-core-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = || CatalogSpec::new().table(16, 8, |r| r);
        let mut cfg = BohmConfig::small();
        cfg.durability = Some(DurabilityConfig::new(&dir));
        let e = Bohm::start(cfg, catalog());
        for round in 0..5u64 {
            let out = e.execute_sync((0..32).map(|i| rmw(&[(i + round) % 16], 1)).collect());
            assert!(out.iter().all(|o| o.committed));
        }
        assert!(e.wal().is_some());
        assert!(e.log_bytes() > 0);
        let expect: Vec<u64> = (0..16).map(|k| e.read_u64(rid(k)).unwrap()).collect();
        e.shutdown();
        // Recover into a fresh, memory-only engine: same final state.
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.iter().map(|b| b.txns.len()).sum::<usize>(), 160);
        let fresh = Bohm::start(BohmConfig::small(), catalog());
        let outcomes = fresh.replay(log).expect("input-only log");
        assert!(outcomes.iter().all(|o| o.committed));
        let got: Vec<u64> = (0..16).map(|k| fresh.read_u64(rid(k)).unwrap()).collect();
        assert_eq!(got, expect, "replayed state must match the logged run");
        fresh.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recover_then_continue_on_same_dir_never_double_applies() {
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy, Wal};
        let dir = std::env::temp_dir().join(format!("bohm-core-recover-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = || CatalogSpec::new().table(8, 8, |_| 0);
        let cfg = || {
            let mut c = BohmConfig::small();
            let mut d = DurabilityConfig::new(&dir);
            d.fsync = FsyncPolicy::Off;
            c.durability = Some(d);
            c
        };
        let sum = |e: &Bohm| -> u64 { (0..8).map(|k| e.read_u64(rid(k)).unwrap()).sum() };
        // Run 1: 40 increments in 5 separate submissions (5 log records),
        // then "crash" with a torn tail — truncate the live segment
        // mid-record after shutdown.
        let e = Bohm::start(cfg(), catalog());
        for round in 0..5u64 {
            assert!(e
                .execute_sync((0..8).map(|i| rmw(&[(i + round) % 8], 1)).collect())
                .iter()
                .all(|o| o.committed));
        }
        e.shutdown();
        let seg0 = dir.join("wal-00000000.seg");
        let full = std::fs::read(&seg0).unwrap();
        std::fs::write(&seg0, &full[..full.len() - 3]).unwrap();
        let logged = Wal::read_log(&dir)
            .unwrap()
            .iter()
            .map(|b| b.txns.len())
            .sum::<usize>();
        assert!(
            (8..40).contains(&logged),
            "the tear must drop exactly the final record, got {logged}"
        );
        // Recovery 1: replay the surviving prefix on the SAME dir, then
        // continue with fresh work — both must be logged exactly once.
        let (e, outcomes) = Bohm::recover(cfg(), catalog()).unwrap();
        assert_eq!(outcomes.len(), logged);
        assert!(outcomes.iter().all(|o| o.committed));
        assert_eq!(sum(&e), logged as u64, "replayed prefix applied once");
        assert!(e
            .execute_sync((0..40).map(|i| rmw(&[i % 8], 1)).collect())
            .iter()
            .all(|o| o.committed));
        assert_eq!(sum(&e), logged as u64 + 40);
        e.shutdown();
        // Recovery 2: the log must now hold prefix + continuation, each
        // once — a re-logged replay would double them here.
        let (e, outcomes) = Bohm::recover(cfg(), catalog()).unwrap();
        assert_eq!(
            outcomes.len(),
            logged + 40,
            "recovery must not re-log the replayed prefix"
        );
        assert_eq!(sum(&e), logged as u64 + 40);
        e.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_recovered_engine_keeps_its_recovery_report() {
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
        let dir = std::env::temp_dir().join(format!("bohm-core-report-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = || CatalogSpec::new().table(8, 8, |_| 0);
        let cfg = || {
            let mut c = BohmConfig::small();
            let mut d = DurabilityConfig::new(&dir);
            d.fsync = FsyncPolicy::Off;
            c.durability = Some(d);
            c
        };
        let memory_only = Bohm::start(BohmConfig::small(), catalog());
        assert!(memory_only.recovery_report().is_none());
        memory_only.shutdown();
        // A durable start on an empty directory recovers nothing.
        let e = Bohm::start(cfg(), catalog());
        assert_eq!(e.recovery_report().map(|r| r.txns_replayed), Some(0));
        const N: u64 = 3 * 24;
        for round in 0..3 {
            let out = e.execute_sync((0..N / 3).map(|i| rmw(&[(i + round) % 8], 1)).collect());
            assert!(out.iter().all(|o| o.committed));
        }
        e.shutdown();
        let (e, outcomes) = Bohm::recover(cfg(), catalog()).unwrap();
        assert_eq!(outcomes.len(), N as usize);
        let report = e
            .recovery_report()
            .expect("a recovered engine has a report");
        assert_eq!(report.txns_replayed, outcomes.len());
        assert_eq!((report.checkpoint_epoch, report.txns_aborted), (None, 0));
        e.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_durable_start_on_a_logged_dir_replays_before_it_appends() {
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
        let dir = std::env::temp_dir().join(format!("bohm-core-restart-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = || CatalogSpec::new().table(8, 8, |_| 0);
        let cfg = || {
            let mut c = BohmConfig::small();
            let mut d = DurabilityConfig::new(&dir);
            d.fsync = FsyncPolicy::Off;
            c.durability = Some(d);
            c
        };
        let state =
            |e: &Bohm| -> Vec<u64> { (0..8).map(|k| e.read_u64(rid(k)).unwrap()).collect() };
        // Run A, then a plain start on the same directory and run B: B must
        // run on A's state, or the state it leaves is not the one a replay
        // of the log — A, then B — rebuilds.
        let e = Bohm::start(cfg(), catalog());
        e.execute_sync((0..24).map(|i| rmw(&[i % 8], i + 1)).collect());
        e.shutdown();
        let e = Bohm::start(cfg(), catalog());
        e.execute_sync((0..24).map(|i| rmw(&[(i * 3) % 8], 100)).collect());
        let ran = state(&e);
        e.shutdown();
        let (e, replayed) = Bohm::recover(cfg(), catalog()).unwrap();
        assert_eq!(replayed.len(), 48, "both runs logged once");
        assert_eq!(state(&e), ran, "recovery rebuilds the state run B left");
        e.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn execute_sync_returns_with_its_batches_retired_and_the_gc_bound_past_them() {
        // One transaction per batch on a fresh engine: the k-th transaction
        // ever submitted has timestamp k, so the bound is checkable exactly.
        let mut cfg = BohmConfig::small();
        cfg.batch_size = 1;
        let e = Bohm::start(cfg, CatalogSpec::new().table(4, 8, |_| 0));
        for round in 1..=20u64 {
            let out = e.execute_sync((0..8).map(|i| rmw(&[i % 4], 1)).collect());
            assert!(out.iter().all(|o| o.committed));
            assert_eq!(e.gc_bound(), round * 8, "bound at its own last batch");
            assert!(
                e.inner.window.is_empty(),
                "read_u64 has nothing to wait for"
            );
            assert_eq!(e.read_u64(rid(0)), Some(round * 2));
        }
        assert!(e.execute_sync(vec![]).is_empty());
        e.shutdown();
    }

    /// A detached reader: read-only, 66 reads (> `annotate_max_reads`)
    /// cycling over `keys`.
    fn long_read(keys: &[u64]) -> Txn {
        let reads = (0..66).map(|i| rid(keys[i % keys.len()])).collect();
        Txn::new(reads, vec![], Procedure::ReadOnly)
    }

    #[test]
    fn gc_bound_never_decreases_with_four_execution_threads_and_the_lane() {
        use bohm_sync::atomic::AtomicBool;
        // Tiny batches over two hot keys: the four execution threads and the
        // lane count out of neighbouring batches in every order, and every
        // retirement moves the bound.
        let mut cfg = BohmConfig::with_threads(2, 4);
        cfg.batch_size = 8;
        let e = Bohm::start(cfg, CatalogSpec::new().table(4, 8, |_| 0));
        let stop = AtomicBool::new(false);
        let n = bohm_common::stress_iters(20_000);
        std::thread::scope(|s| {
            let sampler = s.spawn(|| {
                let (mut last, mut advances) = (0, 0u64);
                while !stop.load(Ordering::Acquire) {
                    let now = e.gc_bound();
                    assert!(now >= last, "gc_bound went back from {last} to {now}");
                    advances += u64::from(now > last);
                    last = now;
                }
                advances
            });
            let session = e.session();
            let handles: Vec<_> = (0..n)
                .map(|i| match i % 16 {
                    0 => session.submit(long_read(&[0, 1])),
                    _ => session.submit(rmw(&[i % 2], 1)),
                })
                .collect();
            assert!(handles.iter().all(|h| h.wait().committed));
            e.execute_sync(vec![]);
            stop.store(true, Ordering::Release);
            assert!(sampler.join().unwrap() > 0, "the sampler saw it move");
        });
        assert!(e.gc_bound() >= n, "and it ended past the whole stream");
        e.shutdown();
    }

    #[test]
    fn a_batch_without_detached_readers_leaves_the_lane_out() {
        // The lane walks every batch id, but a batch without detached
        // readers neither counts it in nor loses a transaction to it.
        let mut cfg = BohmConfig::with_threads(1, 1);
        cfg.batch_size = 16;
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |_| 0));
        e.inner
            .lane_takes_every_reader
            .store(true, Ordering::SeqCst);
        // Neither a short read-only transaction nor a writer with a read
        // set too large to annotate is detached.
        let short_read = || Txn::new(vec![rid(1), rid(2)], vec![], Procedure::ReadOnly);
        let wide_rmw = || {
            let reads = (0..70).map(|i| rid(i % 8)).collect();
            Txn::new(reads, vec![rid(0)], Procedure::ReadModifyWrite { delta: 1 })
        };
        let mixed = |i: u64| match i % 10 {
            0 => short_read(),
            1 => wide_rmw(),
            _ => rmw(&[i % 8], 1),
        };
        // Batch 0 opens with a gate that keeps the one execution thread
        // inside it, so batch 1 waits in the ring as it was sealed.
        let session = e.session();
        let mut gate = rmw(&[0], 1);
        gate.think_us = 200_000;
        let gate = session.submit(gate);
        let rest: Vec<_> = (1..32).map(|i| session.submit(mixed(i))).collect();
        let batch1 = e
            .inner
            .window
            .lookup(17)
            .expect("batch 1 is sealed and in flight");
        let pending = batch1.exec_pending.load(Ordering::SeqCst);
        assert!(!gate.is_done(), "the gate ended before batch 1 was read");
        assert_eq!(
            pending, 1,
            "the execution thread only: the lane is not counted in"
        );
        assert!(gate.wait().committed && rest.iter().all(|h| h.wait().committed));
        drop(batch1);
        for _ in 0..50 {
            let out = e.execute_sync((0..40).map(mixed).collect());
            assert!(out.iter().all(|o| o.committed));
        }
        let claims = || e.inner.lane_claims.load(Ordering::SeqCst);
        assert_eq!(
            claims(),
            0,
            "no batch had a reader: the lane claimed nothing"
        );
        // One reader is enough to need it.
        assert!(e.execute_sync(vec![long_read(&[0, 1, 2])])[0].committed);
        assert_eq!(claims(), 1);
        e.shutdown();
    }

    /// Rows whose chain holds a version: seeded or installed. Safe beside
    /// a running engine — it loads head pointers and follows none.
    fn rows_with_versions(e: &Bohm) -> usize {
        let (mut n, guard) = (0, epoch::pin());
        e.inner
            .store
            .for_each(&mut |_, chain| n += usize::from(!chain.is_empty(&guard)));
        n
    }

    #[test]
    fn a_long_reader_holds_back_only_the_window_behind_it() {
        use bohm_common::Procedure::BlindWrite;
        // Batch 0 is [gate, reader]. The execution threads leave every
        // reader to the lane, whose think time then outlasts everything
        // below.
        let mut cfg = BohmConfig::with_threads(1, 1);
        cfg.batch_size = 2;
        cfg.max_inflight_batches = 4;
        let e = Bohm::start(cfg, CatalogSpec::new().table(4, 8, |_| 0));
        e.inner
            .lane_takes_every_reader
            .store(true, Ordering::SeqCst);
        let session = e.session();
        let (gate, mut reader) = (rmw(&[0], 1), long_read(&[0, 1]));
        reader.think_us = 600_000;
        let (gate, reader) = (session.submit(gate), session.submit(reader));
        const FRESH: u64 = 64;
        let (tx, rx) = std::sync::mpsc::channel::<TxnHandle>();
        std::thread::scope(|s| {
            // Fresh-key inserts, far more than the pipeline will hold: the
            // feeder ends up blocked sealing a batch into the full ring.
            s.spawn(|| {
                let session = e.session();
                for k in 0..FRESH {
                    let insert = Txn::new(vec![], vec![rid(1000 + k)], BlindWrite { value: k });
                    tx.send(session.submit(insert)).unwrap();
                }
                drop(tx);
            });
            // Outcomes are per transaction: the three batches that fit in
            // the ring behind batch 0 execute while the reader runs.
            let ahead: Vec<_> = rx.iter().take(6).collect();
            assert!(gate.wait().committed && ahead.iter().all(|h| h.wait().committed));
            assert!(!reader.is_done(), "the reader is still running");
            // Then the ring is full and everything upstream stands still:
            // nothing retires, the bound stays below the reader's batch, CC
            // has no further batch to install rows for.
            let window = &e.inner.window;
            while window.len() < 4 {
                std::thread::yield_now();
            }
            // The three reads are not one snapshot: they count only if the
            // reader is still running after all of them.
            let mut checked = 0;
            loop {
                let seen = (window.len(), e.gc_bound(), rows_with_versions(&e));
                if reader.is_done() {
                    break;
                }
                assert_eq!(seen, (4, 0, 4 + 6));
                checked += 1;
                std::thread::yield_now();
            }
            assert!(checked > 0, "the reader ended before the ring was checked");
            // The reader ends: everything drains.
            assert!(reader.wait().committed);
            assert!(rx.iter().all(|h| h.wait().committed));
        });
        e.execute_sync(vec![]);
        assert!(e.inner.window.is_empty());
        assert!(e.gc_bound() > FRESH && rows_with_versions(&e) == 4 + FRESH as usize);
        e.shutdown();
    }

    #[test]
    fn drop_with_readers_still_queued_runs_them() {
        let mut cfg = BohmConfig::with_threads(2, 2);
        (cfg.batch_size, cfg.max_inflight_batches) = (8, 2);
        let e = Bohm::start(cfg, CatalogSpec::new().table(4, 8, |_| 0));
        let session = e.session();
        let handles: Vec<_> = (0..400)
            .map(|i| match i % 4 {
                0 => session.submit(long_read(&[0, 1, 2, 3])),
                _ => session.submit(rmw(&[i % 4], 1)),
            })
            .collect();
        drop(e);
        for h in &handles {
            assert!(h.wait().committed, "accepted work must still execute");
        }
    }

    #[test]
    fn quiesce_returns_while_another_thread_keeps_submitting() {
        use bohm_common::engine::BatchEngine;
        use bohm_sync::atomic::AtomicBool;
        let e = small_engine();
        let (stop, submitted) = (AtomicBool::new(false), AtomicU64::new(0));
        std::thread::scope(|s| {
            s.spawn(|| {
                let session = e.session();
                let mut last = None;
                while !stop.load(Ordering::Acquire) {
                    last = Some(session.submit(rmw(&[1], 1)));
                    submitted.fetch_add(1, Ordering::Release);
                }
                assert!(last.expect("ran").wait().committed);
            });
            // Each barrier starts with the stream demonstrably flowing, and
            // waits only for what was pushed when it looked.
            for round in 1..=10 {
                while submitted.load(Ordering::Acquire) < round * 100 {
                    std::thread::yield_now();
                }
                e.quiesce();
            }
            stop.store(true, Ordering::Release);
        });
        e.quiesce();
        let n = submitted.load(Ordering::Acquire);
        assert_eq!(e.read_u64(rid(1)), Some(10 + n));
        e.shutdown();
    }

    #[test]
    fn log_gains_one_transaction_per_quiesce_and_none_during_recover() {
        use bohm_common::engine::BatchEngine;
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy, Wal};
        let dir = std::env::temp_dir().join(format!("bohm-core-quiesce-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let catalog = || CatalogSpec::new().table(8, 8, |_| 0);
        let cfg = || {
            let mut c = BohmConfig::small();
            let mut d = DurabilityConfig::new(&dir);
            d.fsync = FsyncPolicy::Off;
            c.durability = Some(d);
            c
        };
        let logged = || -> usize {
            let log = Wal::read_log(&dir).unwrap();
            log.iter().map(|b| b.txns.len()).sum()
        };
        let e = Bohm::start(cfg(), catalog());
        e.execute_sync((0..10).map(|i| rmw(&[i % 8], 1)).collect());
        for _ in 0..3 {
            e.quiesce();
        }
        e.shutdown();
        assert_eq!(logged(), 10 + 3, "one no-op per quiesce");
        // Recovery waits for replay to retire, and `restore_into` quiesces
        // after the checkpoint below — before the log is attached, so none
        // of that reaches it.
        let (e, outcomes) = Bohm::recover(cfg(), catalog()).unwrap();
        assert_eq!(outcomes.len(), 13);
        // One more logged no-op, which the cut reclaims with every segment
        // before it, the pre-restart one included.
        e.checkpoint().unwrap();
        e.execute_sync(vec![rmw(&[0], 1)]);
        e.shutdown();
        assert_eq!(logged(), 1);
        let (e, outcomes) = Bohm::recover(cfg(), catalog()).unwrap();
        assert_eq!(outcomes.len(), 1, "only the suffix past the cut replays");
        assert_eq!(e.read_u64(rid(0)), Some(3));
        e.shutdown();
        assert_eq!(logged(), 1, "and restore + replay logged nothing");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_append_failure_fails_waiters_and_submitters_instead_of_hanging() {
        use bohm_common::wal::{DurabilityConfig, FsyncPolicy};
        let dir = std::env::temp_dir().join(format!("bohm-core-walfail-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut cfg = BohmConfig::small();
        // Every submission seals its own batch: the fault hits a size-seal,
        // inside `submit`. (A waiter's idle seal is `ingest`'s test.)
        cfg.batch_size = 1;
        let mut d = DurabilityConfig::new(&dir);
        d.fsync = FsyncPolicy::Off;
        d.segment_bytes = 1; // rotate after every batch
        cfg.durability = Some(d);
        let e = Bohm::start(cfg, CatalogSpec::new().table(8, 8, |_| 0));
        // Sabotage the next rotation target: `create_new` on an existing
        // path fails, so the first sealed batch faults the WAL.
        std::fs::create_dir(dir.join("wal-00000001.seg")).unwrap();
        let session = e.session();
        let observed_fault = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            // Keep submitting until either a wait panics (poisoned
            // outcome) or a submit panics (engine closed) — both are
            // the observable engine fault; hanging here is the bug.
            for i in 0..10_000u64 {
                session.submit(rmw(&[i % 8], 1)).wait();
            }
        }));
        assert!(
            observed_fault.is_err(),
            "clients must observe the WAL fault, not hang or succeed"
        );
        drop(e); // shutdown must not hang either
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tight_inflight_budget_still_completes() {
        // Budget of 2 with single-txn batches: the submitter, sealing every
        // transaction, must block on the ring and resume as execution
        // retires slots, while three chasers per layer park on (and are
        // woken through) the same ring.
        let mut cfg = BohmConfig::with_threads(3, 3);
        cfg.batch_size = 1; // every transaction is its own batch
        cfg.max_inflight_batches = 2;
        let e = Bohm::start(cfg, CatalogSpec::new().table(4, 8, |_| 0));
        let out = e.execute_sync((0..64).map(|i| rmw(&[i % 4], 1)).collect());
        assert!(out.iter().all(|o| o.committed));
        let total: u64 = (0..4).map(|k| e.read_u64(rid(k)).unwrap()).sum();
        assert_eq!(total, 64);
        e.shutdown();
    }

    #[test]
    fn drop_with_batches_in_flight_drains_everything() {
        // Dropping the engine closes the ingest, not the pipeline: the drop
        // seals what is open, closes the window at the count sealed, and
        // every consumer finishes those batches first.
        let mut cfg = BohmConfig::with_threads(2, 2);
        cfg.batch_size = 8;
        cfg.max_inflight_batches = 2;
        let e = Bohm::start(cfg, CatalogSpec::new().table(4, 8, |_| 0));
        let session = e.session();
        let handles: Vec<_> = (0..500).map(|i| session.submit(rmw(&[i % 4], 1))).collect();
        drop(e);
        for h in &handles {
            assert!(h.wait().committed, "accepted work must still execute");
        }
    }

    #[test]
    fn idle_engine_shutdown_joins_parked_consumers() {
        // No batch ever pushed: every consumer is waiting on the empty ring
        // for batch 0 and must be released by the close alone.
        small_engine().shutdown();
        // Same after some traffic: consumers wait for a batch id > 0.
        let e = small_engine();
        e.execute_sync(vec![rmw(&[1], 1)]);
        e.shutdown();
    }
}
