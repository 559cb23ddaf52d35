//! A logical write-ahead log that rides batch formation.
//!
//! BOHM's sequencer already totally orders every transaction (arrival
//! order *is* the serialization order, paper §3.2.1), so durability needs
//! no commit-time coordination of its own: the sequencer serializes each
//! formed batch's **inputs** — procedure, declared read/write/scan/index
//! sets, epoch stamp — into one length-prefixed, checksummed record,
//! fsyncs according to the configured [`FsyncPolicy`], and only then
//! releases the batch to the CC threads. Group commit falls out of the
//! existing size/linger batching for free, and recovery is deterministic
//! replay: re-submit the logged transactions in log order through the
//! normal pipeline and the rebuilt state is fingerprint-identical to a
//! serial oracle over the same inputs (batch boundaries do not affect
//! outcomes — only order matters).
//!
//! # On-disk format
//!
//! The log is a directory of segment files `wal-NNNNNNNN.seg`. Each
//! segment opens with the 8-byte magic [`SEGMENT_MAGIC`] and then carries
//! a sequence of batch records:
//!
//! ```text
//! [u32 payload_len][u64 fnv64(payload)][payload]
//! payload := epoch u64, txn_count u32, txn*,
//!            [OUTCOMES_TAG u8, (committed u8, fingerprint u64)*txn_count]?
//! txn     := proc (tagged union), think_us u32,
//!            reads*, writes*, scans*, index_scans*   (length-prefixed)
//! ```
//!
//! The trailing outcomes section is optional per record: BOHM logs pure
//! inputs (determinism makes the commit decisions replayable), while the
//! nondeterministic engines log their *commit outcomes* alongside the
//! inputs via [`LogSink::log_batch_decided`], so recovery can filter
//! replay to exactly the transactions that committed (see
//! `common::durable`).
//!
//! All integers are little-endian. The checksum is FNV-1a over the whole
//! payload, so a torn write (partial record at the tail of the **last**
//! segment) is detected and dropped during replay — the torn-tail rule.
//! The same damage in a non-final segment is *corruption* (append-only
//! logs cannot have holes) and surfaces as an error instead of silent
//! data loss. [`Wal::open`] keeps that asymmetry sound across process
//! lifetimes: before it appends a new segment after inherited ones, it
//! truncates any torn tail off the last inherited segment, so a segment
//! only ever stops being "last" once it is fully intact.
//!
//! # Adoption surface
//!
//! [`Wal`] implements the object-safe [`LogSink`] trait, which is the
//! integration point sized for the rest of the roadmap: the other four
//! engines log their own commit orders through the same trait.
//! [`Wal::log_bytes`] and [`Wal::truncate_before`] are the hooks
//! checkpointing drives: once a checkpoint covers every effect up to
//! epoch `e`, all segments whose batches are entirely older than `e` can
//! be dropped.
//!
//! # A failed log stays failed
//!
//! The first I/O error of an append, a rotation or a sync latches: every
//! later one of those calls fails with an error naming the first. After a
//! partial write the next record would land behind torn bytes (and the
//! torn-tail rule would silently drop it and everything after it on
//! recovery); after a failed rotation it would land in a segment already
//! counted as sealed; after a failed `fdatasync` the page may be gone, so
//! retrying proves nothing. An engine whose log has failed must stop.
//!
//! See the `recovery_demo` example for the end-to-end open-log → run →
//! kill → replay → fingerprint-check walkthrough, and `DESIGN.md`
//! ("Durability & recovery") for the design rationale.

use crate::engine::{BatchEngine, ExecOutcome, Session};
use crate::txn::{IndexScan, ScanRange, Txn};
use crate::types::RecordId;
use crate::{Procedure, SmallBankProc, TpcCProc};
use bohm_sync::atomic::{AtomicBool, Ordering};
use bohm_sync::Mutex;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Write as _};
use std::path::{Path, PathBuf};

// Checkpoints co-locate with the log and bound its replay; re-exported
// here so the durability surface reads as one module.
pub use crate::checkpoint::{load_latest as load_latest_checkpoint, restore_into, Checkpoint};

/// First 8 bytes of every segment file (format version rides in the last
/// byte: bump it when the record encoding changes incompatibly). Version
/// 2 added a reserved `u64` word to `Apply` records — written as zero,
/// skipped on read — and the optional trailing commit-outcomes section.
pub const SEGMENT_MAGIC: [u8; 8] = *b"BOHMWAL2";

/// Upper bound accepted for one record's payload when reading a log back.
/// A length prefix beyond this is treated as damage (torn tail in the
/// last segment, corruption elsewhere) instead of an attempted
/// multi-gigabyte allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 28;

/// When the sequencer fsyncs the log relative to batch release.
///
/// Whatever the policy, a batch's record is fully **written** before the
/// batch is released to the CC threads; the policy only controls when
/// `fdatasync` forces it to stable storage. The gap is the usual
/// group-commit trade: `PerBatch` survives power loss at the cost of one
/// sync per batch, `EveryN` bounds the loss window to `n` batches, `Off`
/// leaves flushing to the OS (crash-of-the-process safe — the page cache
/// survives — but not power-loss safe).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every batch record (classic group commit: the
    /// whole batch is one sync).
    PerBatch,
    /// `fdatasync` after every `n` batch records (and on segment
    /// rotation). `EveryN(1)` is equivalent to [`FsyncPolicy::PerBatch`].
    EveryN(u64),
    /// Never sync explicitly; the OS writes the page cache back on its
    /// own schedule. Process crashes lose nothing, power loss may lose
    /// the tail.
    Off,
}

/// Opt-in durability configuration for an engine
/// (`BohmConfig::durability`).
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Directory holding the log segments (created if absent). One
    /// engine per directory: concurrent writers would interleave
    /// records incoherently.
    pub dir: PathBuf,
    /// When to force records to stable storage; see [`FsyncPolicy`].
    pub fsync: FsyncPolicy,
    /// Rotate to a fresh segment once the current one exceeds this many
    /// bytes. Rotation bounds the unit [`Wal::truncate_before`] can
    /// reclaim; a finished segment is always synced before the next one
    /// opens.
    pub segment_bytes: u64,
}

impl DurabilityConfig {
    /// Configuration with the default policy (per-batch fsync, 64 MiB
    /// segments) — the safest setting; relax `fsync` for throughput.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            fsync: FsyncPolicy::PerBatch,
            segment_bytes: 64 << 20,
        }
    }

    /// Panic on nonsensical settings (mirrors `BohmConfig::validate`).
    pub fn validate(&self) {
        assert!(
            self.segment_bytes >= 1,
            "durability.segment_bytes must be at least 1"
        );
        if let FsyncPolicy::EveryN(n) = self.fsync {
            assert!(
                n >= 1,
                "FsyncPolicy::EveryN needs n >= 1 (use Off to disable)"
            );
        }
    }
}

/// Object-safe sink for sequencer-ordered batch logging.
///
/// This is the adoption surface for the rest of the workspace: BOHM's
/// sequencer calls it before releasing each batch, and the other engines
/// call it at their commit points. `Debug` is a supertrait so
/// configurations holding a sink stay `derive(Debug)`-compatible.
pub trait LogSink: Send + Sync + fmt::Debug {
    /// Append one batch — `epoch` stamp plus its transactions in
    /// serialization order — and apply the sink's sync policy. Must not
    /// return until the record is at least handed to the OS; callers
    /// release the batch to execution only after this returns `Ok`.
    fn log_batch(
        &self,
        epoch: u64,
        txns: &mut dyn ExactSizeIterator<Item = &Txn>,
    ) -> io::Result<()>;

    /// Append one batch *with its commit outcomes* — the adoption path
    /// for nondeterministic engines, whose replay must filter to the
    /// transactions that actually committed. `outcomes` is positionally
    /// aligned with `txns` (same length). BOHM never calls this: its
    /// replay re-derives every decision deterministically.
    fn log_batch_decided(
        &self,
        epoch: u64,
        txns: &mut dyn ExactSizeIterator<Item = &Txn>,
        outcomes: &[TxnDecision],
    ) -> io::Result<()>;

    /// Force everything appended so far to stable storage, regardless of
    /// the configured policy (shutdown paths, checkpoints).
    fn sync(&self) -> io::Result<()>;
}

/// One logged commit decision: what a nondeterministic engine records
/// alongside a transaction's inputs so recovery can replay exactly the
/// committed prefix (and cross-check fingerprints).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TxnDecision {
    /// Whether the transaction committed in the original execution.
    pub committed: bool,
    /// The original execution's read fingerprint (0 for aborts).
    pub fingerprint: u64,
}

/// One recovered batch: the epoch stamp and the transactions it carried,
/// in serialization order.
#[derive(Clone, Debug)]
pub struct LoggedBatch {
    /// The engine's checkpoint epoch when the batch was logged (0 until
    /// the first checkpoint).
    pub epoch: u64,
    /// The batch's transactions, in log (= serialization) order.
    pub txns: Vec<Txn>,
    /// Per-transaction commit decisions, aligned with `txns` — present
    /// only for records written through [`LogSink::log_batch_decided`]
    /// (nondeterministic engines). `None` for pure input logs (BOHM).
    pub outcomes: Option<Vec<TxnDecision>>,
}

struct SealedSegment {
    index: u64,
    bytes: u64,
    /// Highest epoch stamped into the segment; `u64::MAX` for segments
    /// inherited from a previous process (their epochs were not
    /// re-scanned, so they are never auto-truncated).
    max_epoch: u64,
}

struct WalState {
    file: File,
    seg_index: u64,
    seg_len: u64,
    seg_max_epoch: u64,
    sealed: Vec<SealedSegment>,
    sealed_bytes: u64,
    unsynced_batches: u64,
    batches: u64,
    /// Reused encode buffer: steady-state logging allocates nothing.
    buf: Vec<u8>,
    /// The first I/O error of an append, rotation or sync; once set, every
    /// later one fails (see the module docs).
    failed: Option<String>,
}

/// The batch-riding write-ahead log. See the [module docs](self).
pub struct Wal {
    dir: PathBuf,
    fsync: FsyncPolicy,
    segment_bytes: u64,
    /// While set, [`LogSink::log_batch`] is a no-op — the recovery-replay
    /// hook (see [`Wal::pause_appends`]).
    paused: AtomicBool,
    state: Mutex<WalState>,
}

impl fmt::Debug for Wal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Wal")
            .field("dir", &self.dir)
            .field("fsync", &self.fsync)
            .field("segment_bytes", &self.segment_bytes)
            .finish_non_exhaustive()
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("wal-{index:08}.seg"))
}

/// Parse `wal-NNNNNNNN.seg` back to its index.
fn segment_index(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".seg")?
        .parse()
        .ok()
}

/// Sorted `(index, path, bytes)` of the segments present in `dir`.
fn list_segments(dir: &Path) -> io::Result<Vec<(u64, PathBuf, u64)>> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        if let Some(idx) = name.to_str().and_then(segment_index) {
            segs.push((idx, entry.path(), entry.metadata()?.len()));
        }
    }
    segs.sort_by_key(|(idx, _, _)| *idx);
    Ok(segs)
}

/// Durably record a directory-entry change — a freshly created segment, a
/// renamed checkpoint (no-op on platforms where directories cannot be
/// fsynced).
pub(crate) fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

fn create_segment(dir: &Path, index: u64) -> io::Result<File> {
    let mut f = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(segment_path(dir, index))?;
    f.write_all(&SEGMENT_MAGIC)?;
    sync_dir(dir)?;
    Ok(f)
}

impl Wal {
    /// Open (or create) the log directory and start a fresh segment.
    ///
    /// Segments left by a previous process are preserved — a reopened
    /// log keeps appending after them, so crash → recover → continue
    /// works without a copy step. Before the new segment is created, any
    /// torn tail left in the last inherited segment by a crash
    /// mid-append is **truncated away** (a header-less file is removed
    /// outright): once a newer segment exists, the inherited one is no
    /// longer last, where the torn-tail rule would treat the same bytes
    /// as corruption and fail [`read_log`](Self::read_log). A
    /// checksummed record that fails to decode is real corruption and
    /// refuses to open. (Inherited segments are never dropped by
    /// [`truncate_before`](Self::truncate_before); their epoch range
    /// was not re-scanned.)
    pub fn open(config: &DurabilityConfig) -> io::Result<Self> {
        config.validate();
        fs::create_dir_all(&config.dir)?;
        let mut existing = list_segments(&config.dir)?;
        // Torn-tail repair. A loop, because a file torn inside its header
        // holds nothing and is removed, promoting the previous (sealed,
        // so normally intact) segment to "last".
        while let Some((idx, path, _)) = existing.last() {
            let mut data = Vec::new();
            File::open(path)?.read_to_end(&mut data)?;
            let mut scratch = Vec::new();
            let scan = read_segment(&data, true, *idx, &mut scratch)?;
            if scan.intact {
                break;
            }
            if scan.valid_len >= SEGMENT_MAGIC.len() {
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(scan.valid_len as u64)?;
                f.sync_all()?;
                existing.last_mut().unwrap().2 = scan.valid_len as u64;
                break;
            }
            fs::remove_file(path)?;
            sync_dir(&config.dir)?;
            existing.pop();
        }
        let next = existing.last().map_or(0, |(idx, _, _)| idx + 1);
        let sealed: Vec<SealedSegment> = existing
            .into_iter()
            .map(|(index, _, bytes)| SealedSegment {
                index,
                bytes,
                max_epoch: u64::MAX,
            })
            .collect();
        let sealed_bytes = sealed.iter().map(|s| s.bytes).sum();
        let file = create_segment(&config.dir, next)?;
        Ok(Self {
            dir: config.dir.clone(),
            fsync: config.fsync,
            segment_bytes: config.segment_bytes,
            paused: AtomicBool::new(false),
            state: Mutex::new(WalState {
                file,
                seg_index: next,
                seg_len: SEGMENT_MAGIC.len() as u64,
                seg_max_epoch: 0,
                sealed,
                sealed_bytes,
                unsynced_batches: 0,
                batches: 0,
                buf: Vec::new(),
                failed: None,
            }),
        })
    }

    /// The first I/O error this log latched, if any. A log that reports
    /// one accepts no more records.
    pub fn failure(&self) -> Option<String> {
        self.state.lock().failed.clone()
    }

    /// Run `op` under the state lock unless the log has already failed,
    /// and latch its error if it fails now.
    fn latched(&self, op: impl FnOnce(&mut WalState) -> io::Result<()>) -> io::Result<()> {
        let mut st = self.state.lock();
        if let Some(first) = &st.failed {
            return Err(io::Error::other(format!(
                "WAL accepts no more records after an earlier failure: {first}"
            )));
        }
        let res = op(&mut st);
        if let Err(e) = &res {
            st.failed = Some(e.to_string());
        }
        res
    }

    /// Total bytes across all segments (the checkpointing trigger: when
    /// this grows past a budget, checkpoint and
    /// [`truncate_before`](Self::truncate_before)).
    pub fn log_bytes(&self) -> u64 {
        let st = self.state.lock();
        st.sealed_bytes + st.seg_len
    }

    /// Batches appended through this handle so far.
    pub fn batches_logged(&self) -> u64 {
        self.state.lock().batches
    }

    /// Suspend appends: until [`resume_appends`](Self::resume_appends),
    /// [`LogSink::log_batch`] returns `Ok` without writing anything.
    ///
    /// This is the recovery-replay hook. Replaying a recovered log
    /// through an engine that reopened the **same** directory must not
    /// re-log the replayed prefix — the inherited segments already hold
    /// it, and logging it again would double-apply it on the next
    /// recovery. The engine's recovery entry point pauses appends,
    /// replays, waits for every replayed batch to drain, then resumes.
    pub fn pause_appends(&self) {
        self.paused.store(true, Ordering::Release);
    }

    /// Resume appends after [`pause_appends`](Self::pause_appends).
    /// Callers must ensure every batch that should *not* be logged has
    /// passed its log point (for the engine: has retired) before
    /// resuming.
    pub fn resume_appends(&self) {
        self.paused.store(false, Ordering::Release);
    }

    /// Delete every **sealed** segment whose batches are all stamped with
    /// an epoch `< epoch` — the hook a checkpoint covering everything
    /// before `epoch` will drive. The active segment and segments
    /// inherited from a previous process are never dropped. Returns the
    /// bytes reclaimed. On an IO error, segments already removed are
    /// accounted for and the rest stay tracked, so a failed call leaves
    /// [`log_bytes`](Self::log_bytes) consistent and can be retried.
    pub fn truncate_before(&self, epoch: u64) -> io::Result<u64> {
        let mut st = self.state.lock();
        let mut freed = 0u64;
        let mut i = 0;
        while i < st.sealed.len() {
            if st.sealed[i].max_epoch >= epoch {
                i += 1;
                continue;
            }
            fs::remove_file(segment_path(&self.dir, st.sealed[i].index))?;
            let seg = st.sealed.remove(i);
            st.sealed_bytes -= seg.bytes;
            freed += seg.bytes;
        }
        Ok(freed)
    }

    /// Read an entire log directory back into batches, applying the
    /// torn-tail rule: a short, oversized or checksum-failing record at
    /// the tail of the **last** segment (a crash mid-append) is dropped
    /// along with everything after it; the same damage in any earlier
    /// segment is corruption and errors out. A checksummed record that
    /// fails to *decode* is always an error (that is a format bug or
    /// version mismatch, not a torn write).
    pub fn read_log(dir: &Path) -> io::Result<Vec<LoggedBatch>> {
        let segs = list_segments(dir)?;
        let mut out = Vec::new();
        let last = segs.len().saturating_sub(1);
        for (i, (idx, path, _)) in segs.iter().enumerate() {
            let is_last = i == last;
            let mut bytes = Vec::new();
            File::open(path)?.read_to_end(&mut bytes)?;
            if !read_segment(&bytes, is_last, *idx, &mut out)?.intact {
                break; // torn tail: ignore anything after it
            }
        }
        Ok(out)
    }
}

impl Wal {
    /// Shared append path behind both [`LogSink`] entry points.
    fn append(
        &self,
        epoch: u64,
        txns: &mut dyn ExactSizeIterator<Item = &Txn>,
        outcomes: Option<&[TxnDecision]>,
    ) -> io::Result<()> {
        if self.paused.load(Ordering::Acquire) {
            return Ok(()); // recovery replay: already in inherited segments
        }
        self.latched(|st| {
            // Encode the payload into the reusable buffer, leaving room for
            // the [len][checksum] header at the front.
            st.buf.clear();
            st.buf.resize(12, 0);
            st.buf.extend_from_slice(&epoch.to_le_bytes());
            let count = u32::try_from(txns.len()).expect("batch size fits u32");
            st.buf.extend_from_slice(&count.to_le_bytes());
            for txn in txns {
                encode_txn(&mut st.buf, txn);
            }
            if let Some(outcomes) = outcomes {
                assert_eq!(
                    outcomes.len(),
                    count as usize,
                    "outcomes must align with txns"
                );
                st.buf.push(OUTCOMES_TAG);
                for o in outcomes {
                    st.buf.push(o.committed as u8);
                    st.buf.extend_from_slice(&o.fingerprint.to_le_bytes());
                }
            }
            let payload_len = (st.buf.len() - 12) as u32;
            let sum = fnv64(&st.buf[12..]);
            st.buf[0..4].copy_from_slice(&payload_len.to_le_bytes());
            st.buf[4..12].copy_from_slice(&sum.to_le_bytes());
            st.file.write_all(&st.buf)?;
            st.seg_len += st.buf.len() as u64;
            st.seg_max_epoch = st.seg_max_epoch.max(epoch);
            st.batches += 1;
            st.unsynced_batches += 1;
            let sync_now = match self.fsync {
                FsyncPolicy::PerBatch => true,
                FsyncPolicy::EveryN(n) => st.unsynced_batches >= n,
                FsyncPolicy::Off => false,
            };
            if sync_now {
                st.file.sync_data()?;
                st.unsynced_batches = 0;
            }
            if st.seg_len >= self.segment_bytes {
                self.rotate_locked(st)?;
            }
            Ok(())
        })
    }

    /// Seal the active segment and open the next (with the state lock
    /// held): a finished segment is always made durable before the next
    /// opens, so only the active segment can be torn.
    fn rotate_locked(&self, st: &mut WalState) -> io::Result<()> {
        st.file.sync_data()?;
        st.unsynced_batches = 0;
        let finished = SealedSegment {
            index: st.seg_index,
            bytes: st.seg_len,
            max_epoch: st.seg_max_epoch,
        };
        st.sealed_bytes += finished.bytes;
        st.sealed.push(finished);
        st.seg_index += 1;
        st.file = create_segment(&self.dir, st.seg_index)?;
        st.seg_len = SEGMENT_MAGIC.len() as u64;
        st.seg_max_epoch = 0;
        Ok(())
    }

    /// Force a segment rotation now, regardless of size. Checkpoints call
    /// this after bumping the epoch so every record written *before* the
    /// checkpoint sits in a sealed segment that
    /// [`truncate_before`](Self::truncate_before) can actually reclaim —
    /// without it, the pre-checkpoint tail of the active segment would
    /// pin those bytes until the next size-triggered rotation.
    pub fn rotate(&self) -> io::Result<()> {
        self.latched(|st| self.rotate_locked(st))
    }

    /// The log directory this handle appends to (checkpoint files live
    /// here too).
    pub fn dir(&self) -> &Path {
        &self.dir
    }
}

impl LogSink for Wal {
    fn log_batch(
        &self,
        epoch: u64,
        txns: &mut dyn ExactSizeIterator<Item = &Txn>,
    ) -> io::Result<()> {
        self.append(epoch, txns, None)
    }

    fn log_batch_decided(
        &self,
        epoch: u64,
        txns: &mut dyn ExactSizeIterator<Item = &Txn>,
        outcomes: &[TxnDecision],
    ) -> io::Result<()> {
        self.append(epoch, txns, Some(outcomes))
    }

    fn sync(&self) -> io::Result<()> {
        self.latched(|st| {
            st.file.sync_data()?;
            st.unsynced_batches = 0;
            Ok(())
        })
    }
}

/// Re-submit recovered batches through an engine's normal pipeline, in
/// log order, and quiesce. Returns the per-transaction outcomes in that
/// order — determinism makes them (and the final state) identical to the
/// pre-crash execution of the same prefix, which the kill-and-recover
/// test checks against the serial oracle.
///
/// Batch boundaries are *not* reproduced: the engine re-forms its own
/// batches, which is safe because outcomes depend only on transaction
/// order, never on where batch seals fell (the same argument that lets
/// the size/linger triggers vary freely between runs).
///
/// If `engine` itself logs to the **same directory** the batches came
/// from, suspend its appends around the replay
/// ([`Wal::pause_appends`]/[`Wal::resume_appends`]) — otherwise the
/// replayed prefix is logged a second time and the *next* recovery
/// double-applies it. The BOHM engine packages that protocol as
/// `Bohm::recover`; replaying into a memory-only or fresh-directory
/// engine needs no such care.
pub fn replay_into<'a, E: BatchEngine + ?Sized>(
    batches: impl IntoIterator<Item = &'a LoggedBatch>,
    engine: &E,
) -> Vec<ExecOutcome> {
    let mut session = engine.open_session();
    let mut out = Vec::new();
    for batch in batches {
        for txn in &batch.txns {
            session.submit(txn.clone());
            while session.in_flight() > 8192 {
                out.push(session.reap());
            }
        }
    }
    while session.in_flight() > 0 {
        out.push(session.reap());
    }
    engine.quiesce();
    out
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

/// FNV-1a over the whole slice — unlike `value::checksum` (which hashes
/// only a record's `u64` prefix and length), this must cover every byte:
/// it is what detects a torn write anywhere in the payload (of a log
/// record or a whole checkpoint file).
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Procedure tags. The encoding is versioned by `SEGMENT_MAGIC`; adding a
// variant appends a tag, changing one bumps the magic.
const P_READ_ONLY: u8 = 0;
const P_RMW: u8 = 1;
const P_BLIND_WRITE: u8 = 2;
const P_SMALL_BANK: u8 = 3;
const P_TPCC: u8 = 4;
const P_PROBE_ALL: u8 = 5;
const P_RANGE_AUDIT: u8 = 6;
const P_INSERT_KEYED: u8 = 7;
const P_GUARDED_DELETE: u8 = 8;
const P_APPLY: u8 = 9;

/// Marker byte opening the optional trailing commit-outcomes section of a
/// batch payload (any value would do — the section's presence is decided
/// by payload length, the tag just catches writer/reader drift).
const OUTCOMES_TAG: u8 = 0xD1;

const SB_BALANCE: u8 = 0;
const SB_DEPOSIT: u8 = 1;
const SB_TRANSACT: u8 = 2;
const SB_AMALGAMATE: u8 = 3;
const SB_WRITE_CHECK: u8 = 4;

const TP_NEW_ORDER: u8 = 0;
const TP_PAYMENT: u8 = 1;
const TP_ORDER_STATUS: u8 = 2;
const TP_CUSTOMER_STATUS: u8 = 3;
const TP_ORDER_HISTORY: u8 = 4;
const TP_DELIVERY: u8 = 5;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn encode_proc(buf: &mut Vec<u8>, proc: &Procedure) {
    match proc {
        Procedure::ReadOnly => buf.push(P_READ_ONLY),
        Procedure::ReadModifyWrite { delta } => {
            buf.push(P_RMW);
            put_u64(buf, *delta);
        }
        Procedure::BlindWrite { value } => {
            buf.push(P_BLIND_WRITE);
            put_u64(buf, *value);
        }
        Procedure::SmallBank(sb) => {
            buf.push(P_SMALL_BANK);
            match sb {
                SmallBankProc::Balance => buf.push(SB_BALANCE),
                SmallBankProc::DepositChecking { v } => {
                    buf.push(SB_DEPOSIT);
                    put_u64(buf, *v);
                }
                SmallBankProc::TransactSaving { v } => {
                    buf.push(SB_TRANSACT);
                    put_u64(buf, *v as u64);
                }
                SmallBankProc::Amalgamate => buf.push(SB_AMALGAMATE),
                SmallBankProc::WriteCheck { v } => {
                    buf.push(SB_WRITE_CHECK);
                    put_u64(buf, *v);
                }
            }
        }
        Procedure::TpcC(tp) => {
            buf.push(P_TPCC);
            match tp {
                TpcCProc::NewOrder { lines } => {
                    buf.push(TP_NEW_ORDER);
                    put_u32(buf, *lines);
                }
                TpcCProc::Payment { amount } => {
                    buf.push(TP_PAYMENT);
                    put_u64(buf, *amount);
                }
                TpcCProc::OrderStatus => buf.push(TP_ORDER_STATUS),
                TpcCProc::CustomerStatus => buf.push(TP_CUSTOMER_STATUS),
                TpcCProc::OrderHistory => buf.push(TP_ORDER_HISTORY),
                TpcCProc::Delivery => buf.push(TP_DELIVERY),
            }
        }
        Procedure::ProbeAll => buf.push(P_PROBE_ALL),
        Procedure::RangeAudit { expect_base } => {
            buf.push(P_RANGE_AUDIT);
            put_u64(buf, *expect_base);
        }
        Procedure::InsertKeyed { base } => {
            buf.push(P_INSERT_KEYED);
            put_u64(buf, *base);
        }
        Procedure::GuardedDelete { min } => {
            buf.push(P_GUARDED_DELETE);
            put_u64(buf, *min);
        }
        Procedure::Apply { values } => {
            buf.push(P_APPLY);
            put_u64(buf, 0); // reserved word (see `SEGMENT_MAGIC`)
            put_u32(buf, values.len() as u32);
            for v in values.iter() {
                match v {
                    Some(data) => {
                        buf.push(1);
                        put_u32(buf, data.len() as u32);
                        buf.extend_from_slice(data);
                    }
                    None => buf.push(0),
                }
            }
        }
    }
}

fn encode_txn(buf: &mut Vec<u8>, txn: &Txn) {
    encode_proc(buf, &txn.proc);
    put_u32(buf, txn.think_us);
    put_u32(buf, txn.reads.len() as u32);
    for r in txn.reads.iter() {
        put_u32(buf, r.table.0);
        put_u64(buf, r.row);
    }
    put_u32(buf, txn.writes.len() as u32);
    for w in txn.writes.iter() {
        put_u32(buf, w.table.0);
        put_u64(buf, w.row);
    }
    put_u32(buf, txn.scans.len() as u32);
    for s in txn.scans.iter() {
        put_u32(buf, s.table.0);
        put_u64(buf, s.lo);
        put_u64(buf, s.hi);
    }
    put_u32(buf, txn.index_scans.len() as u32);
    for s in txn.index_scans.iter() {
        put_u64(buf, s.list as u64);
        put_u32(buf, s.table.0);
    }
}

// ---------------------------------------------------------------------------
// Record decoding
// ---------------------------------------------------------------------------

/// Bounds-checked little-endian reader over a record payload. Any
/// out-of-bounds read means the (checksummed!) payload does not decode —
/// a format error, reported as corruption by the caller.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// A length prefix about to drive per-element reads of ≥ `min_elem`
    /// bytes each: reject counts the remaining payload cannot hold, so
    /// corrupt-but-checksummed data cannot drive absurd allocations.
    fn count(&mut self, min_elem: usize) -> Option<usize> {
        let n = self.u32()? as usize;
        (n.saturating_mul(min_elem) <= self.bytes.len() - self.pos).then_some(n)
    }
}

fn decode_proc(r: &mut Reader) -> Option<Procedure> {
    Some(match r.u8()? {
        P_READ_ONLY => Procedure::ReadOnly,
        P_RMW => Procedure::ReadModifyWrite { delta: r.u64()? },
        P_BLIND_WRITE => Procedure::BlindWrite { value: r.u64()? },
        P_SMALL_BANK => Procedure::SmallBank(match r.u8()? {
            SB_BALANCE => SmallBankProc::Balance,
            SB_DEPOSIT => SmallBankProc::DepositChecking { v: r.u64()? },
            SB_TRANSACT => SmallBankProc::TransactSaving { v: r.u64()? as i64 },
            SB_AMALGAMATE => SmallBankProc::Amalgamate,
            SB_WRITE_CHECK => SmallBankProc::WriteCheck { v: r.u64()? },
            _ => return None,
        }),
        P_TPCC => Procedure::TpcC(match r.u8()? {
            TP_NEW_ORDER => TpcCProc::NewOrder { lines: r.u32()? },
            TP_PAYMENT => TpcCProc::Payment { amount: r.u64()? },
            TP_ORDER_STATUS => TpcCProc::OrderStatus,
            TP_CUSTOMER_STATUS => TpcCProc::CustomerStatus,
            TP_ORDER_HISTORY => TpcCProc::OrderHistory,
            TP_DELIVERY => TpcCProc::Delivery,
            _ => return None,
        }),
        P_PROBE_ALL => Procedure::ProbeAll,
        P_RANGE_AUDIT => Procedure::RangeAudit {
            expect_base: r.u64()?,
        },
        P_INSERT_KEYED => Procedure::InsertKeyed { base: r.u64()? },
        P_GUARDED_DELETE => Procedure::GuardedDelete { min: r.u64()? },
        P_APPLY => {
            r.u64()?; // reserved word: any value, ignored
            let n = r.count(1)?;
            let mut values = Vec::with_capacity(n);
            for _ in 0..n {
                values.push(match r.u8()? {
                    0 => None,
                    1 => {
                        let len = r.count(1)?;
                        Some(crate::Value::from(r.take(len)?))
                    }
                    _ => return None,
                });
            }
            Procedure::Apply {
                values: values.into(),
            }
        }
        _ => return None,
    })
}

fn decode_txn(r: &mut Reader) -> Option<Txn> {
    // Loop bounds come from the decoded counts, never `Vec::capacity()`:
    // `with_capacity(n)` only promises capacity >= n, and an allocator
    // that rounds up must not make us decode extra elements.
    let proc = decode_proc(r)?;
    let think_us = r.u32()?;
    let n_reads = r.count(12)?;
    let mut reads = Vec::with_capacity(n_reads);
    for _ in 0..n_reads {
        let table = r.u32()?;
        reads.push(RecordId::new(table, r.u64()?));
    }
    let n_writes = r.count(12)?;
    let mut writes = Vec::with_capacity(n_writes);
    for _ in 0..n_writes {
        let table = r.u32()?;
        writes.push(RecordId::new(table, r.u64()?));
    }
    let n_scans = r.count(20)?;
    let mut scans = Vec::with_capacity(n_scans);
    for _ in 0..n_scans {
        let table = r.u32()?;
        let lo = r.u64()?;
        scans.push(ScanRange::new(table, lo, r.u64()?));
    }
    let n_index_scans = r.count(12)?;
    let mut index_scans = Vec::with_capacity(n_index_scans);
    for _ in 0..n_index_scans {
        let list = r.u64()? as usize;
        index_scans.push(IndexScan::new(list, r.u32()?));
    }
    let mut txn = Txn::new(reads, writes, proc);
    txn.scans = scans.into();
    txn.index_scans = index_scans.into();
    txn.think_us = think_us;
    Some(txn)
}

fn decode_batch(payload: &[u8]) -> Option<LoggedBatch> {
    let mut r = Reader {
        bytes: payload,
        pos: 0,
    };
    let epoch = r.u64()?;
    let n = r.count(1)?;
    let mut txns = Vec::with_capacity(n);
    for _ in 0..n {
        txns.push(decode_txn(&mut r)?);
    }
    // Optional trailing commit-outcomes section (nondeterministic-engine
    // records); its presence is decided by payload length.
    let outcomes = if r.pos == payload.len() {
        None
    } else {
        if r.u8()? != OUTCOMES_TAG {
            return None;
        }
        let mut decisions = Vec::with_capacity(n);
        for _ in 0..n {
            let committed = match r.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            decisions.push(TxnDecision {
                committed,
                fingerprint: r.u64()?,
            });
        }
        Some(decisions)
    };
    // Trailing bytes after the declared sections would mean the writer
    // and reader disagree about the format.
    (r.pos == payload.len()).then_some(LoggedBatch {
        epoch,
        txns,
        outcomes,
    })
}

fn corrupt(segment: u64, offset: usize, what: &str) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("wal segment {segment} corrupt at byte {offset}: {what}"),
    )
}

/// Result of scanning one segment: whether it was fully intact, and the
/// byte length of its valid prefix (header plus every whole, checksummed
/// record) — what [`Wal::open`] truncates a torn last segment back to.
/// `valid_len` of 0 means even the header is damaged.
struct SegScan {
    intact: bool,
    valid_len: usize,
}

/// Decode one segment's records into `out`. A torn tail is dropped and
/// reported via [`SegScan`] (legal only when `is_last`; otherwise it is
/// corruption and errors).
fn read_segment(
    bytes: &[u8],
    is_last: bool,
    segment: u64,
    out: &mut Vec<LoggedBatch>,
) -> io::Result<SegScan> {
    let torn = |offset: usize, valid_len: usize, what: &str| {
        if is_last {
            // crash mid-append: drop the tail
            Ok(SegScan {
                intact: false,
                valid_len,
            })
        } else {
            Err(corrupt(segment, offset, what))
        }
    };
    if bytes.len() < SEGMENT_MAGIC.len() || bytes[..SEGMENT_MAGIC.len()] != SEGMENT_MAGIC {
        return torn(0, 0, "bad or short segment header");
    }
    let mut pos = SEGMENT_MAGIC.len();
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + 12) else {
            return torn(pos, pos, "short record header");
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let sum = u64::from_le_bytes(header[4..12].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            return torn(pos, pos, "record length out of range");
        }
        let Some(payload) = bytes.get(pos + 12..pos + 12 + len as usize) else {
            return torn(pos, pos, "short record payload");
        };
        if fnv64(payload) != sum {
            return torn(pos, pos, "record checksum mismatch");
        }
        // Past the checksum, failure to decode is always corruption: the
        // bytes made it to disk intact but do not parse.
        let batch = decode_batch(payload)
            .ok_or_else(|| corrupt(segment, pos, "checksummed record fails to decode"))?;
        out.push(batch);
        pos += 12 + len as usize;
    }
    Ok(SegScan {
        intact: true,
        valid_len: pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bohm-wal-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn rid(t: u32, r: u64) -> RecordId {
        RecordId::new(t, r)
    }

    fn apply_proc() -> Procedure {
        Procedure::Apply {
            values: Arc::from(vec![Some(crate::Value::from(&b"abcdefgh"[..])), None]),
        }
    }

    /// One transaction of every procedure shape (including nested
    /// variants and `Apply` payloads) — the encode/decode gauntlet.
    fn gauntlet() -> Vec<Txn> {
        let mut apply = Txn::new(vec![], vec![rid(1, 7), rid(1, 8)], apply_proc());
        apply.think_us = 3;
        let mut scan = Txn::with_scans(
            vec![rid(0, 1)],
            vec![],
            vec![ScanRange::new(2, 10, 20)],
            Procedure::RangeAudit { expect_base: 42 },
        );
        scan.think_us = 50;
        vec![
            Txn::new(vec![rid(0, 1)], vec![], Procedure::ReadOnly),
            Txn::new(
                vec![rid(0, 2)],
                vec![rid(0, 2)],
                Procedure::ReadModifyWrite { delta: 9 },
            ),
            Txn::new(vec![], vec![rid(0, 3)], Procedure::BlindWrite { value: 77 }),
            Txn::new(
                vec![rid(0, 4)],
                vec![rid(0, 4)],
                Procedure::SmallBank(SmallBankProc::TransactSaving { v: -5 }),
            ),
            Txn::new(
                vec![rid(0, 5), rid(0, 6)],
                vec![rid(0, 6)],
                Procedure::SmallBank(SmallBankProc::WriteCheck { v: 3 }),
            ),
            Txn::new(
                vec![rid(0, 1), rid(2, 0)],
                vec![rid(0, 1), rid(3, 9)],
                Procedure::TpcC(TpcCProc::NewOrder { lines: 4 }),
            ),
            Txn::new(
                vec![rid(0, 1)],
                vec![],
                Procedure::TpcC(TpcCProc::OrderStatus),
            ),
            Txn::with_index_scans(
                vec![rid(2, 0), rid(5, 0)],
                vec![],
                vec![IndexScan::new(1, 3)],
                Procedure::TpcC(TpcCProc::CustomerStatus),
            ),
            Txn::new(vec![rid(0, 1)], vec![], Procedure::ProbeAll),
            scan,
            Txn::new(
                vec![],
                vec![rid(0, 8)],
                Procedure::InsertKeyed { base: 100 },
            ),
            Txn::new(
                vec![rid(0, 1)],
                vec![rid(0, 8)],
                Procedure::GuardedDelete { min: 1 },
            ),
            apply,
        ]
    }

    fn assert_txn_eq(a: &Txn, b: &Txn) {
        assert_eq!(a.proc, b.proc);
        assert_eq!(a.think_us, b.think_us);
        assert_eq!(&a.reads[..], &b.reads[..]);
        assert_eq!(&a.writes[..], &b.writes[..]);
        assert_eq!(&a.scans[..], &b.scans[..]);
        assert_eq!(&a.index_scans[..], &b.index_scans[..]);
    }

    #[test]
    fn roundtrip_every_procedure_shape() {
        let dir = tmpdir("roundtrip");
        let cfg = DurabilityConfig::new(&dir);
        let wal = Wal::open(&cfg).unwrap();
        let txns = gauntlet();
        wal.log_batch(3, &mut txns.iter()).unwrap();
        wal.log_batch(4, &mut txns[..2].iter()).unwrap();
        assert_eq!(wal.batches_logged(), 2);
        drop(wal);
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].epoch, 3);
        assert_eq!(log[1].epoch, 4);
        assert_eq!(log[0].txns.len(), txns.len());
        for (got, want) in log[0].txns.iter().zip(&txns) {
            assert_txn_eq(got, want);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn apply_decodes_whatever_its_reserved_word_holds() {
        // Older logs carry a shard bitmask in the word `Apply` now writes
        // as zero; such a record must still decode to the same `Apply`.
        let mut buf = Vec::new();
        encode_proc(&mut buf, &apply_proc());
        assert_eq!(buf[1..9], [0; 8], "written as zero");
        buf[1..9].copy_from_slice(&0b101u64.to_le_bytes());
        let mut r = Reader {
            bytes: &buf,
            pos: 0,
        };
        assert_eq!(decode_proc(&mut r), Some(apply_proc()));
        assert_eq!(r.pos, buf.len());
    }

    #[test]
    fn a_failed_rotation_fails_every_later_call() {
        let dir = tmpdir("sticky");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.segment_bytes = 1; // rotate after every record
        let wal = Wal::open(&cfg).unwrap();
        // `create_new` on an existing path fails: the first rotation faults.
        fs::create_dir(segment_path(&dir, 1)).unwrap();
        let txns = gauntlet();
        let first = wal.log_batch(1, &mut txns[..1].iter()).unwrap_err();
        assert_eq!(wal.failure(), Some(first.to_string()));
        // Rotation target 2 would open fine; the log must refuse anyway.
        for err in [
            wal.log_batch(2, &mut txns[..1].iter()).unwrap_err(),
            wal.rotate().unwrap_err(),
            wal.sync().unwrap_err(),
        ] {
            assert!(err.to_string().contains(&first.to_string()), "{err}");
        }
        drop(wal);
        fs::remove_dir(segment_path(&dir, 1)).unwrap();
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.iter().map(|b| b.epoch).collect::<Vec<_>>(), [1]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn arena_packed_sets_encode_identically() {
        // The sequencer logs *repacked* transactions; packed and owned
        // sets must serialize to the same bytes.
        let pool = crate::arena::ArenaPool::default();
        let mut arena = pool.arena();
        let mut owned = Vec::new();
        let mut packed = Vec::new();
        for txn in gauntlet() {
            let mut p = txn.clone();
            p.repack(&mut arena);
            encode_txn(&mut owned, &txn);
            encode_txn(&mut packed, &p);
        }
        assert_eq!(owned, packed);
    }

    #[test]
    fn segment_rotation_and_truncate_before() {
        let dir = tmpdir("rotate");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.segment_bytes = 256; // rotate almost every batch
        cfg.fsync = FsyncPolicy::Off;
        let wal = Wal::open(&cfg).unwrap();
        let txns = gauntlet();
        for epoch in 0..10u64 {
            wal.log_batch(epoch, &mut txns.iter()).unwrap();
        }
        let segs = list_segments(&dir).unwrap();
        assert!(
            segs.len() > 3,
            "expected rotation, got {} segments",
            segs.len()
        );
        let before = wal.log_bytes();
        // Epoch 5: every sealed segment whose batches are all < 5 goes.
        let freed = wal.truncate_before(5).unwrap();
        assert!(freed > 0, "sealed pre-epoch-5 segments must be reclaimed");
        assert_eq!(wal.log_bytes(), before - freed);
        // The surviving log still replays cleanly and in order.
        drop(wal);
        let log = Wal::read_log(&dir).unwrap();
        assert!(!log.is_empty());
        let epochs: Vec<u64> = log.iter().map(|b| b.epoch).collect();
        let mut sorted = epochs.clone();
        sorted.sort_unstable();
        assert_eq!(epochs, sorted, "remaining batches stay in epoch order");
        assert!(*epochs.last().unwrap() == 9, "recent batches survive");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopened_log_appends_new_segment_and_preserves_old() {
        let dir = tmpdir("reopen");
        let cfg = DurabilityConfig::new(&dir);
        let txns = gauntlet();
        {
            let wal = Wal::open(&cfg).unwrap();
            wal.log_batch(1, &mut txns.iter()).unwrap();
        }
        {
            let wal = Wal::open(&cfg).unwrap();
            wal.log_batch(2, &mut txns[..3].iter()).unwrap();
            // Inherited segments are conservatively exempt from truncation.
            assert_eq!(wal.truncate_before(u64::MAX).unwrap(), 0);
        }
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].epoch, log[1].epoch), (1, 2));
        assert_eq!(log[1].txns.len(), 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_repairs_torn_tail_so_reopened_log_stays_readable() {
        // Regression: a torn record left in the last segment used to
        // survive reopen; the reopened log then appended a newer segment,
        // the torn record sat in a *non-final* segment, and read_log
        // hard-errored the whole directory. open() must truncate it away.
        let dir = tmpdir("repair");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let txns = gauntlet();
        {
            let wal = Wal::open(&cfg).unwrap();
            wal.log_batch(1, &mut txns.iter()).unwrap();
            wal.log_batch(2, &mut txns.iter()).unwrap();
        }
        let seg = segment_path(&dir, 0);
        let full = fs::read(&seg).unwrap();
        fs::write(&seg, &full[..full.len() - 5]).unwrap(); // tear epoch-2 record
        {
            let wal = Wal::open(&cfg).unwrap();
            wal.log_batch(3, &mut txns[..2].iter()).unwrap();
        }
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 2, "torn batch dropped, prefix + new batch kept");
        assert_eq!((log[0].epoch, log[1].epoch), (1, 3));
        // The repaired segment is byte-exact: magic + the intact record.
        assert!(fs::metadata(&seg).unwrap().len() < full.len() as u64 - 5);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_removes_header_torn_segment_and_repairs_the_previous() {
        let dir = tmpdir("repair-header");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let txns = gauntlet();
        {
            let wal = Wal::open(&cfg).unwrap();
            wal.log_batch(1, &mut txns.iter()).unwrap();
        }
        // Crash while creating segment 1 (header half-written) *and* a
        // torn tail on segment 0: open must drop the junk file, truncate
        // segment 0, and carry on.
        let seg0 = segment_path(&dir, 0);
        let full = fs::read(&seg0).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&[7, 7, 7]); // partial next record
        fs::write(&seg0, &torn).unwrap();
        fs::write(segment_path(&dir, 1), &SEGMENT_MAGIC[..4]).unwrap();
        {
            let wal = Wal::open(&cfg).unwrap();
            wal.log_batch(2, &mut txns[..1].iter()).unwrap();
        }
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].epoch, log[1].epoch), (1, 2));
        assert_eq!(fs::metadata(&seg0).unwrap().len(), full.len() as u64);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn paused_appends_write_nothing_until_resumed() {
        let dir = tmpdir("pause");
        let cfg = DurabilityConfig::new(&dir);
        let wal = Wal::open(&cfg).unwrap();
        let txns = gauntlet();
        let empty = wal.log_bytes();
        wal.pause_appends();
        wal.log_batch(1, &mut txns.iter()).unwrap();
        assert_eq!(wal.log_bytes(), empty, "paused appends must be no-ops");
        assert_eq!(wal.batches_logged(), 0);
        wal.resume_appends();
        wal.log_batch(2, &mut txns.iter()).unwrap();
        drop(wal);
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].epoch, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_dropped_but_interior_corruption_errors() {
        let dir = tmpdir("torn");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let txns = gauntlet();
        {
            let wal = Wal::open(&cfg).unwrap();
            wal.log_batch(1, &mut txns.iter()).unwrap();
            wal.log_batch(2, &mut txns.iter()).unwrap();
        }
        let seg = segment_path(&dir, 0);
        let full = fs::read(&seg).unwrap();
        // Tear the last record: everything before it must replay.
        fs::write(&seg, &full[..full.len() - 5]).unwrap();
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 1, "torn tail dropped, prefix kept");
        // Flip a byte in the *first* record (not the tail): corruption.
        let mut flipped = full.clone();
        flipped[SEGMENT_MAGIC.len() + 20] ^= 0xFF;
        fs::write(&seg, &flipped).unwrap();
        // Same damage, but with a later segment after it: hard error.
        fs::write(segment_path(&dir, 1), {
            let mut v = Vec::from(SEGMENT_MAGIC);
            v.extend_from_slice(&full[SEGMENT_MAGIC.len()..]);
            v
        })
        .unwrap();
        let err = Wal::read_log(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("segment 0"), "{err}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_absent_logs_replay_to_nothing() {
        let dir = tmpdir("empty");
        let cfg = DurabilityConfig::new(&dir);
        let wal = Wal::open(&cfg).unwrap();
        drop(wal);
        assert!(Wal::read_log(&dir).unwrap().is_empty());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn log_sink_is_object_safe_and_swappable() {
        /// In-memory sink standing in for a future engine adoption: the
        /// trait surface must be usable through `dyn`.
        #[derive(Debug, Default)]
        struct MemSink {
            batches: Mutex<Vec<(u64, usize)>>,
        }
        impl LogSink for MemSink {
            fn log_batch(
                &self,
                epoch: u64,
                txns: &mut dyn ExactSizeIterator<Item = &Txn>,
            ) -> io::Result<()> {
                self.batches.lock().push((epoch, txns.len()));
                Ok(())
            }
            fn log_batch_decided(
                &self,
                epoch: u64,
                txns: &mut dyn ExactSizeIterator<Item = &Txn>,
                outcomes: &[TxnDecision],
            ) -> io::Result<()> {
                assert_eq!(txns.len(), outcomes.len());
                self.batches.lock().push((epoch, txns.len()));
                Ok(())
            }
            fn sync(&self) -> io::Result<()> {
                Ok(())
            }
        }
        let sink = MemSink::default();
        let dyn_sink: &dyn LogSink = &sink;
        let txns = gauntlet();
        dyn_sink.log_batch(7, &mut txns.iter()).unwrap();
        dyn_sink
            .log_batch_decided(
                8,
                &mut txns[..1].iter(),
                &[TxnDecision {
                    committed: true,
                    fingerprint: 5,
                }],
            )
            .unwrap();
        dyn_sink.sync().unwrap();
        assert_eq!(*sink.batches.lock(), vec![(7, txns.len()), (8, 1)]);
    }

    #[test]
    fn outcome_records_roundtrip_and_input_records_stay_bare() {
        let dir = tmpdir("outcomes");
        let cfg = DurabilityConfig::new(&dir);
        let wal = Wal::open(&cfg).unwrap();
        let txns = gauntlet();
        wal.log_batch(1, &mut txns.iter()).unwrap();
        let decisions: Vec<TxnDecision> = (0..txns.len())
            .map(|i| TxnDecision {
                committed: i % 2 == 0,
                fingerprint: 0x1000 + i as u64,
            })
            .collect();
        wal.log_batch_decided(2, &mut txns.iter(), &decisions)
            .unwrap();
        drop(wal);
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!(log[0].outcomes, None, "input-only records carry nothing");
        assert_eq!(log[1].outcomes.as_deref(), Some(&decisions[..]));
        for (got, want) in log[1].txns.iter().zip(&txns) {
            assert_txn_eq(got, want);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explicit_rotation_seals_the_active_segment() {
        let dir = tmpdir("explicit-rotate");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.fsync = FsyncPolicy::Off;
        let wal = Wal::open(&cfg).unwrap();
        let txns = gauntlet();
        for epoch in 0..3u64 {
            wal.log_batch(epoch, &mut txns.iter()).unwrap();
        }
        // Without rotation nothing is sealed, so nothing can be freed.
        assert_eq!(wal.truncate_before(u64::MAX).unwrap(), 0);
        wal.rotate().unwrap();
        let before = wal.log_bytes();
        let freed = wal.truncate_before(3).unwrap();
        assert!(freed > 0, "rotated segment must be reclaimable");
        assert_eq!(wal.log_bytes(), before - freed);
        wal.log_batch(3, &mut txns[..1].iter()).unwrap();
        drop(wal);
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 1, "only the post-truncate batch survives");
        assert_eq!(log[0].epoch, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    #[should_panic(expected = "segment_bytes")]
    fn zero_segment_bytes_rejected() {
        let mut cfg = DurabilityConfig::new("/tmp/never-created");
        cfg.segment_bytes = 0;
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "EveryN")]
    fn zero_fsync_interval_rejected() {
        let mut cfg = DurabilityConfig::new("/tmp/never-created");
        cfg.fsync = FsyncPolicy::EveryN(0);
        cfg.validate();
    }
}
