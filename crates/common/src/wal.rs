//! A logical write-ahead log that rides batch formation.
//!
//! BOHM's sealer already totally orders every transaction (arrival order
//! *is* the serialization order, paper §3.2.1), so durability needs no
//! commit-time coordination of its own: the sealer serializes each formed
//! batch's **inputs** — procedure, declared read/write/scan/index sets,
//! epoch stamp — into one length-prefixed, checksummed record, fsyncs
//! according to the configured [`FsyncPolicy`], and only then releases the
//! batch to the CC threads. Group commit falls out of the existing
//! size/linger batching for free, and recovery is deterministic replay
//! ([`replay_into`]): re-submit the logged transactions in log order
//! through the normal pipeline and the rebuilt state is
//! fingerprint-identical to a serial oracle over the same inputs (batch
//! boundaries do not affect outcomes — only order matters).
//!
//! # On-disk format
//!
//! The log is a directory of segment files `wal-NNNNNNNN.seg`. Each
//! segment opens with the 8-byte magic [`SEGMENT_MAGIC`] and then carries
//! a sequence of batch records:
//!
//! ```text
//! record  := payload_len u32, xxh64(payload) u64, payload
//! payload := epoch u64, txn_count var, txn*,
//!            [OUTCOMES_TAG u8, (committed u8, fingerprint u64)*txn_count]?
//! txn     := proc, think_us var,
//!            n_reads var, rid*n_reads,
//!            shared var, n_rest var, rid*n_rest,   writes = reads[..shared] ++ rest
//!            n_scans var, (table var, lo var, hi var)*n_scans,
//!            n_index_scans var, (list var, table var)*n_index_scans
//! rid     := table var, row var
//! proc    := tag u8, the variant's fields as var (a signed one zigzagged),
//!            Apply's values as (0 u8 | 1 u8, len var, bytes)
//! ```
//!
//! `u32`/`u64` fields are fixed-width little-endian; `var` is an unsigned
//! LEB128 varint. The record header and the leading epoch stay fixed-width,
//! so a segment's epochs read back without decoding a transaction. The
//! write set is stored as the length of its common prefix with the read
//! set plus what follows it, so a read-modify-write names each key once.
//!
//! The trailing outcomes section is optional per record: BOHM logs pure
//! inputs (determinism makes the commit decisions replayable), while the
//! nondeterministic engines log their *commit outcomes* alongside the
//! inputs via [`LogSink::log_batch_decided`], so recovery can filter
//! replay to exactly the transactions that committed (see
//! `common::durable`).
//!
//! The checksum is xxHash64 over the whole payload, so a torn write
//! (partial record at the tail of the **last** segment) is detected and
//! dropped during replay — the torn-tail rule.
//! The same damage in a non-final segment is *corruption* (append-only
//! logs cannot have holes) and surfaces as an error instead of silent
//! data loss. [`Wal::open`] keeps that asymmetry sound across process
//! lifetimes: before it appends a new segment after inherited ones, it
//! truncates any torn tail off the last inherited segment, so a segment
//! only ever stops being "last" once it is fully intact. A segment whose
//! full-length header is not the magic is neither: it is another format
//! version or damage, and reading or opening the log refuses it, leaving
//! the file as it is.
//!
//! # Adoption surface
//!
//! [`Wal`] implements the object-safe [`LogSink`] trait: BOHM's sealer
//! logs batch inputs through it, and `common::durable::DurableEngine` logs
//! the other four engines' commit orders with their decisions. Both read
//! the log back through one recovery routine, `common::durable::recover`,
//! which replays with [`replay_into`] into an engine that is not logging
//! yet and only then opens the log for appending — so recovery never logs.
//! [`Wal::log_bytes`] and [`Wal::truncate_before`] are the hooks
//! checkpointing (`common::checkpoint::cut`) drives: once a checkpoint
//! covers every effect up to epoch `e`, all segments whose batches are
//! entirely older than `e` are dropped, whichever process wrote them.
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

use crate::codec::{checksum, foreign_magic, put_u64, put_var, sync_dir, Numbered, Reader};
use crate::engine::{BatchEngine, ExecOutcome, Session};
use crate::txn::{IndexScan, ScanRange, Txn};
use crate::types::RecordId;
use crate::{Procedure, SmallBankProc, TpcCProc};
use bohm_sync::Mutex;
use std::collections::VecDeque;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read as _, Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

/// First 8 bytes of every segment file (format version rides in the last
/// byte: bump it when the record encoding changes incompatibly). Version
/// 3 made every count, id and procedure field a varint, stored the write
/// set as a shared prefix of the read set, and replaced FNV-1a with
/// xxHash64; a log of an older version is refused, never misread.
pub const SEGMENT_MAGIC: [u8; 8] = *b"BOHMWAL3";

/// Upper bound accepted for one record's payload when reading a log back.
/// A length prefix beyond this is treated as damage (torn tail in the
/// last segment, corruption elsewhere) instead of an attempted
/// multi-gigabyte allocation.
pub const MAX_RECORD_BYTES: u32 = 1 << 28;

/// `wal-NNNNNNNN.seg`, numbered in log order.
const SEGMENTS: Numbered = Numbered {
    prefix: "wal-",
    ext: ".seg",
};

/// When the sequencer fsyncs the log relative to batch release.
///
/// Whatever the policy, a batch's record is fully **written** before the
/// batch is released to the CC threads; the policy only controls when
/// `fdatasync` forces it to stable storage. The gap is the usual
/// group-commit trade: `PerBatch` survives power loss at the cost of one
/// sync per batch, `Off` leaves flushing to the OS (crash-of-the-process
/// safe — the page cache survives — but not power-loss safe).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every batch record (classic group commit: the
    /// whole batch is one sync).
    PerBatch,
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
    /// Highest epoch stamped into the segment; `None` for a segment
    /// inherited from a previous process until
    /// [`Wal::truncate_before`] first needs it.
    max_epoch: Option<u64>,
}

struct WalState {
    file: File,
    seg_index: u64,
    seg_len: u64,
    seg_max_epoch: u64,
    sealed: Vec<SealedSegment>,
    sealed_bytes: u64,
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

fn create_segment(dir: &Path, index: u64) -> io::Result<File> {
    let mut f = OpenOptions::new()
        .write(true)
        .create_new(true)
        .open(SEGMENTS.path(dir, index))?;
    f.write_all(&SEGMENT_MAGIC)?;
    // The header is durable before the entry that names it, so a full-length
    // header that is not the magic is never a crash's doing.
    f.sync_data()?;
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
    /// mid-append is **truncated away** (a file shorter than the magic is
    /// removed outright): once a newer segment exists, the inherited one is
    /// no longer last, where the torn-tail rule would treat the same bytes
    /// as corruption and fail [`read_log`](Self::read_log). A
    /// checksummed record that fails to decode, or a full-length header
    /// that is not [`SEGMENT_MAGIC`], is not a tear: open refuses with
    /// [`InvalidData`](io::ErrorKind::InvalidData) and changes nothing.
    pub fn open(config: &DurabilityConfig) -> io::Result<Self> {
        config.validate();
        fs::create_dir_all(&config.dir)?;
        let mut existing = SEGMENTS.list(&config.dir)?;
        // Torn-tail repair. A loop, because a file shorter than its header
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
                max_epoch: None,
            })
            .collect();
        let sealed_bytes = sealed.iter().map(|s| s.bytes).sum();
        let file = create_segment(&config.dir, next)?;
        Ok(Self {
            dir: config.dir.clone(),
            fsync: config.fsync,
            segment_bytes: config.segment_bytes,
            state: Mutex::new(WalState {
                file,
                seg_index: next,
                seg_len: SEGMENT_MAGIC.len() as u64,
                seg_max_epoch: 0,
                sealed,
                sealed_bytes,
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

    /// Delete every **sealed** segment whose batches are all stamped with
    /// an epoch `< epoch` — the hook a checkpoint covering everything
    /// before `epoch` drives. The active segment is never dropped. A
    /// segment inherited from a previous process has its epochs read back
    /// the first time this asks (`max_epoch_of`), so a checkpoint
    /// after a restart reclaims the log written before it. Returns the
    /// bytes reclaimed. On an IO error, segments already removed are
    /// accounted for and the rest stay tracked, so a failed call leaves
    /// [`log_bytes`](Self::log_bytes) consistent and can be retried.
    pub fn truncate_before(&self, epoch: u64) -> io::Result<u64> {
        let mut st = self.state.lock();
        let mut freed = 0u64;
        let mut i = 0;
        while i < st.sealed.len() {
            let seg = &mut st.sealed[i];
            let path = SEGMENTS.path(&self.dir, seg.index);
            let max_epoch = match seg.max_epoch {
                Some(e) => e,
                None => *seg.max_epoch.insert(max_epoch_of(&path)?),
            };
            if max_epoch >= epoch {
                i += 1;
                continue;
            }
            fs::remove_file(path)?;
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
    /// fails to *decode* is always an error (that is a format bug, not a
    /// torn write), and so is a full-length segment header that is not
    /// [`SEGMENT_MAGIC`] (another version, or damage). A trailing file
    /// shorter than the header holds nothing and is skipped, so the segment
    /// before it is read as the last — what [`open`](Self::open)'s repair
    /// leaves.
    pub fn read_log(dir: &Path) -> io::Result<Vec<LoggedBatch>> {
        let mut segs = SEGMENTS.list(dir)?;
        while segs
            .last()
            .is_some_and(|(_, _, bytes)| *bytes < SEGMENT_MAGIC.len() as u64)
        {
            segs.pop();
        }
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
        self.latched(|st| {
            encode_record(&mut st.buf, epoch, txns, outcomes);
            st.file.write_all(&st.buf)?;
            st.seg_len += st.buf.len() as u64;
            st.seg_max_epoch = st.seg_max_epoch.max(epoch);
            st.batches += 1;
            if self.fsync == FsyncPolicy::PerBatch {
                st.file.sync_data()?;
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
        let finished = SealedSegment {
            index: st.seg_index,
            bytes: st.seg_len,
            max_epoch: Some(st.seg_max_epoch),
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
        self.latched(|st| st.file.sync_data())
    }
}

/// Re-submit recovered batches through an engine's normal pipeline, in
/// log order, and quiesce — the one loop over logged transactions, which
/// every durable engine's recovery (`common::durable::recover`) runs.
/// Returns the replayed transactions' outcomes in that order.
///
/// An input-only record (BOHM's) replays every transaction it holds:
/// determinism makes the outcomes, and the final state, identical to the
/// pre-crash execution of the same prefix, which the kill-and-recover
/// tests check against the serial oracle. A decided record (a
/// nondeterministic engine's, [`LogSink::log_batch_decided`]) replays only
/// the transactions its decisions mark committed, and each must commit
/// again with the logged fingerprint.
///
/// Batch boundaries are *not* reproduced: the engine re-forms its own
/// batches, which is safe because outcomes depend only on transaction
/// order, never on where batch seals fell (the same argument that lets
/// the size/linger triggers vary freely between runs).
///
/// `engine` must not log: replaying into an engine that appends to the
/// directory the batches came from would log them a second time, and the
/// next recovery would apply them twice. Recovery replays before it opens
/// the log for appending.
///
/// # Errors
///
/// [`InvalidData`](io::ErrorKind::InvalidData) when a replayed outcome
/// contradicts its logged decision: the durable history cannot be trusted.
pub fn replay_into<'a, E: BatchEngine + ?Sized>(
    batches: impl IntoIterator<Item = &'a LoggedBatch>,
    engine: &E,
) -> io::Result<Vec<ExecOutcome>> {
    let mut session = engine.open_session();
    let mut out = Vec::new();
    // The logged decision of each submitted, unreaped transaction (`None`
    // from an input-only record), in submission order — which is reap order.
    let mut logged = VecDeque::new();
    for batch in batches {
        for (i, txn) in batch.txns.iter().enumerate() {
            let decision = batch.outcomes.as_ref().map(|o| o[i]);
            if decision.is_some_and(|d| !d.committed) {
                continue;
            }
            session.submit(txn.clone());
            logged.push_back(decision);
            while session.in_flight() > 8192 {
                reap_checked(&mut session, logged.pop_front().flatten(), &mut out)?;
            }
        }
    }
    while session.in_flight() > 0 {
        reap_checked(&mut session, logged.pop_front().flatten(), &mut out)?;
    }
    engine.quiesce();
    Ok(out)
}

/// Reap the oldest replayed transaction into `out`, holding it to its
/// logged decision, if it has one.
fn reap_checked(
    session: &mut impl Session,
    logged: Option<TxnDecision>,
    out: &mut Vec<ExecOutcome>,
) -> io::Result<()> {
    let got = session.reap();
    if let Some(d) = logged.filter(|d| !got.committed || got.fingerprint != d.fingerprint) {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "replay diverged from the logged decision of replayed transaction {}: \
                 logged (committed, fp 0x{:016x}), replayed (committed={}, fp 0x{:016x})",
                out.len(),
                d.fingerprint,
                got.committed,
                got.fingerprint
            ),
        ));
    }
    out.push(got);
    Ok(())
}

// ---------------------------------------------------------------------------
// Record encoding
// ---------------------------------------------------------------------------

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

/// Size of a record's `[u32 payload_len][u64 checksum]` header.
const RECORD_HEADER: usize = 12;

/// Fewest payload bytes a transaction encodes to: the procedure tag and six
/// one-byte varints (think time and the five set counts).
const MIN_TXN_BYTES: usize = 7;

/// Encode one whole record — header, then payload — into `buf`, replacing
/// what it held.
fn encode_record(
    buf: &mut Vec<u8>,
    epoch: u64,
    txns: &mut dyn ExactSizeIterator<Item = &Txn>,
    outcomes: Option<&[TxnDecision]>,
) {
    buf.clear();
    buf.resize(RECORD_HEADER, 0);
    put_u64(buf, epoch);
    let count = txns.len();
    put_var(buf, count as u64);
    for txn in txns {
        encode_txn(buf, txn);
    }
    if let Some(outcomes) = outcomes {
        assert_eq!(outcomes.len(), count, "outcomes must align with txns");
        buf.push(OUTCOMES_TAG);
        for o in outcomes {
            buf.push(o.committed as u8);
            put_u64(buf, o.fingerprint);
        }
    }
    let payload_len = u32::try_from(buf.len() - RECORD_HEADER).expect("record fits u32");
    let sum = checksum(&buf[RECORD_HEADER..]);
    buf[0..4].copy_from_slice(&payload_len.to_le_bytes());
    buf[4..RECORD_HEADER].copy_from_slice(&sum.to_le_bytes());
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

fn encode_proc(buf: &mut Vec<u8>, proc: &Procedure) {
    match proc {
        Procedure::ReadOnly => buf.push(P_READ_ONLY),
        Procedure::ReadModifyWrite { delta } => {
            buf.push(P_RMW);
            put_var(buf, *delta);
        }
        Procedure::BlindWrite { value } => {
            buf.push(P_BLIND_WRITE);
            put_var(buf, *value);
        }
        Procedure::SmallBank(sb) => {
            buf.push(P_SMALL_BANK);
            match sb {
                SmallBankProc::Balance => buf.push(SB_BALANCE),
                SmallBankProc::DepositChecking { v } => {
                    buf.push(SB_DEPOSIT);
                    put_var(buf, *v);
                }
                SmallBankProc::TransactSaving { v } => {
                    buf.push(SB_TRANSACT);
                    put_var(buf, zigzag(*v));
                }
                SmallBankProc::Amalgamate => buf.push(SB_AMALGAMATE),
                SmallBankProc::WriteCheck { v } => {
                    buf.push(SB_WRITE_CHECK);
                    put_var(buf, *v);
                }
            }
        }
        Procedure::TpcC(tp) => {
            buf.push(P_TPCC);
            match tp {
                TpcCProc::NewOrder { lines } => {
                    buf.push(TP_NEW_ORDER);
                    put_var(buf, (*lines).into());
                }
                TpcCProc::Payment { amount } => {
                    buf.push(TP_PAYMENT);
                    put_var(buf, *amount);
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
            put_var(buf, *expect_base);
        }
        Procedure::InsertKeyed { base } => {
            buf.push(P_INSERT_KEYED);
            put_var(buf, *base);
        }
        Procedure::GuardedDelete { min } => {
            buf.push(P_GUARDED_DELETE);
            put_var(buf, *min);
        }
        Procedure::Apply { values } => {
            buf.push(P_APPLY);
            put_var(buf, values.len() as u64);
            for v in values.iter() {
                match v {
                    Some(data) => {
                        buf.push(1);
                        put_var(buf, data.len() as u64);
                        buf.extend_from_slice(data);
                    }
                    None => buf.push(0),
                }
            }
        }
    }
}

fn put_rid(buf: &mut Vec<u8>, rid: &RecordId) {
    put_var(buf, rid.table.0.into());
    put_var(buf, rid.row);
}

fn encode_txn(buf: &mut Vec<u8>, txn: &Txn) {
    encode_proc(buf, &txn.proc);
    put_var(buf, txn.think_us.into());
    put_var(buf, txn.reads.len() as u64);
    for r in txn.reads.iter() {
        put_rid(buf, r);
    }
    let shared = txn
        .reads
        .iter()
        .zip(txn.writes.iter())
        .take_while(|(r, w)| r == w)
        .count();
    put_var(buf, shared as u64);
    put_var(buf, (txn.writes.len() - shared) as u64);
    for w in &txn.writes[shared..] {
        put_rid(buf, w);
    }
    put_var(buf, txn.scans.len() as u64);
    for s in txn.scans.iter() {
        put_var(buf, s.table.0.into());
        put_var(buf, s.lo);
        put_var(buf, s.hi);
    }
    put_var(buf, txn.index_scans.len() as u64);
    for s in txn.index_scans.iter() {
        put_var(buf, s.list as u64);
        put_var(buf, s.table.0.into());
    }
}

// ---------------------------------------------------------------------------
// Record decoding
// ---------------------------------------------------------------------------

fn decode_proc(r: &mut Reader) -> Option<Procedure> {
    Some(match r.u8()? {
        P_READ_ONLY => Procedure::ReadOnly,
        P_RMW => Procedure::ReadModifyWrite { delta: r.var()? },
        P_BLIND_WRITE => Procedure::BlindWrite { value: r.var()? },
        P_SMALL_BANK => Procedure::SmallBank(match r.u8()? {
            SB_BALANCE => SmallBankProc::Balance,
            SB_DEPOSIT => SmallBankProc::DepositChecking { v: r.var()? },
            SB_TRANSACT => SmallBankProc::TransactSaving {
                v: unzigzag(r.var()?),
            },
            SB_AMALGAMATE => SmallBankProc::Amalgamate,
            SB_WRITE_CHECK => SmallBankProc::WriteCheck { v: r.var()? },
            _ => return None,
        }),
        P_TPCC => Procedure::TpcC(match r.u8()? {
            TP_NEW_ORDER => TpcCProc::NewOrder {
                lines: r.var_u32()?,
            },
            TP_PAYMENT => TpcCProc::Payment { amount: r.var()? },
            TP_ORDER_STATUS => TpcCProc::OrderStatus,
            TP_CUSTOMER_STATUS => TpcCProc::CustomerStatus,
            TP_ORDER_HISTORY => TpcCProc::OrderHistory,
            TP_DELIVERY => TpcCProc::Delivery,
            _ => return None,
        }),
        P_PROBE_ALL => Procedure::ProbeAll,
        P_RANGE_AUDIT => Procedure::RangeAudit {
            expect_base: r.var()?,
        },
        P_INSERT_KEYED => Procedure::InsertKeyed { base: r.var()? },
        P_GUARDED_DELETE => Procedure::GuardedDelete { min: r.var()? },
        P_APPLY => {
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

fn decode_rid(r: &mut Reader) -> Option<RecordId> {
    let table = r.var_u32()?;
    Some(RecordId::new(table, r.var()?))
}

fn decode_txn(r: &mut Reader) -> Option<Txn> {
    // Loop bounds come from the decoded counts, never `Vec::capacity()`:
    // `with_capacity(n)` only promises capacity >= n, and an allocator
    // that rounds up must not make us decode extra elements. Every count
    // is checked against the bytes left (`Reader::count`), and the shared
    // prefix against the read set, so no allocation outgrows the payload.
    let proc = decode_proc(r)?;
    let think_us = r.var_u32()?;
    let n_reads = r.count(2)?;
    let mut reads = Vec::with_capacity(n_reads);
    for _ in 0..n_reads {
        reads.push(decode_rid(r)?);
    }
    let shared = usize::try_from(r.var()?).ok().filter(|&s| s <= n_reads)?;
    let n_rest = r.count(2)?;
    let mut writes = Vec::with_capacity(shared + n_rest);
    writes.extend_from_slice(&reads[..shared]);
    for _ in 0..n_rest {
        writes.push(decode_rid(r)?);
    }
    let n_scans = r.count(3)?;
    let mut scans = Vec::with_capacity(n_scans);
    for _ in 0..n_scans {
        let table = r.var_u32()?;
        let lo = r.var()?;
        scans.push(ScanRange::new(table, lo, r.var()?));
    }
    let n_index_scans = r.count(2)?;
    let mut index_scans = Vec::with_capacity(n_index_scans);
    for _ in 0..n_index_scans {
        // The posting list must be one of the transaction's reads.
        let list = usize::try_from(r.var()?).ok().filter(|&l| l < n_reads)?;
        index_scans.push(IndexScan::new(list, r.var_u32()?));
    }
    let mut txn = Txn::new(reads, writes, proc);
    txn.scans = scans.into();
    txn.index_scans = index_scans.into();
    txn.think_us = think_us;
    Some(txn)
}

/// Decode one record's payload; `None` when it does not parse. Never
/// panics, whatever the bytes: the checksum is not what keeps it safe.
pub(crate) fn decode_batch(payload: &[u8]) -> Option<LoggedBatch> {
    let mut r = Reader::new(payload);
    let epoch = r.u64()?;
    let n = r.count(MIN_TXN_BYTES)?;
    let mut txns = Vec::with_capacity(n);
    for _ in 0..n {
        txns.push(decode_txn(&mut r)?);
    }
    // Optional trailing commit-outcomes section (nondeterministic-engine
    // records); its presence is decided by payload length.
    let outcomes = if r.at_end() {
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
    r.at_end().then_some(LoggedBatch {
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

/// The highest epoch stamped in the (intact) segment at `path`. Every
/// record's payload opens with its epoch word, so this reads 20 bytes per
/// record — its header and that word — and decodes no transaction.
fn max_epoch_of(path: &Path) -> io::Result<u64> {
    let mut file = File::open(path)?;
    let len = file.metadata()?.len();
    let (mut pos, mut max) = (SEGMENT_MAGIC.len() as u64, 0);
    let mut head = [0u8; RECORD_HEADER + 8];
    while pos + head.len() as u64 <= len {
        file.seek(SeekFrom::Start(pos))?;
        file.read_exact(&mut head)?;
        let payload_len = u32::from_le_bytes(head[..4].try_into().expect("4 bytes"));
        let epoch = &head[RECORD_HEADER..];
        max = max.max(u64::from_le_bytes(epoch.try_into().expect("8 bytes")));
        pos += (RECORD_HEADER as u64) + u64::from(payload_len);
    }
    Ok(max)
}

/// Result of scanning one segment: whether it was fully intact, and the
/// byte length of its valid prefix (header plus every whole, checksummed
/// record) — what [`Wal::open`] truncates a torn last segment back to.
/// `valid_len` of 0 means the file is shorter than its header.
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
    // Only a file shorter than the magic can be a tear (`create_segment`
    // syncs the header before naming the file); a full-length header that
    // is not the magic is another version or damage, refused wherever the
    // segment sits.
    let Some(magic) = bytes.get(..SEGMENT_MAGIC.len()) else {
        return torn(0, 0, "short segment header");
    };
    if magic != SEGMENT_MAGIC {
        return Err(foreign_magic(
            &format!("wal segment {segment}"),
            magic,
            &SEGMENT_MAGIC,
        ));
    }
    let mut pos = SEGMENT_MAGIC.len();
    while pos < bytes.len() {
        let Some(header) = bytes.get(pos..pos + RECORD_HEADER) else {
            return torn(pos, pos, "short record header");
        };
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let sum = u64::from_le_bytes(header[4..RECORD_HEADER].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            return torn(pos, pos, "record length out of range");
        }
        let start = pos + RECORD_HEADER;
        let Some(payload) = bytes.get(start..start + len as usize) else {
            return torn(pos, pos, "short record payload");
        };
        if checksum(payload) != sum {
            return torn(pos, pos, "record checksum mismatch");
        }
        // Past the checksum, failure to decode is always corruption: the
        // bytes made it to disk intact but do not parse.
        let batch = decode_batch(payload)
            .ok_or_else(|| corrupt(segment, pos, "checksummed record fails to decode"))?;
        out.push(batch);
        pos = start + len as usize;
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

    /// One transaction of every procedure shape (every nested variant and
    /// `Apply` payloads included) — the encode/decode gauntlet.
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
            Txn::new(
                vec![rid(0, 9), rid(1, 9)],
                vec![],
                Procedure::SmallBank(SmallBankProc::Balance),
            ),
            Txn::new(
                vec![rid(1, 9)],
                vec![rid(1, 9)],
                Procedure::SmallBank(SmallBankProc::DepositChecking { v: 200 }),
            ),
            Txn::new(
                vec![rid(0, 9), rid(1, 9), rid(1, 10)],
                vec![rid(0, 9), rid(1, 9), rid(1, 10)],
                Procedure::SmallBank(SmallBankProc::Amalgamate),
            ),
            Txn::new(
                vec![rid(0, 1), rid(1, 1), rid(2, 300_000)],
                vec![rid(0, 1), rid(1, 1), rid(2, 300_000)],
                Procedure::TpcC(TpcCProc::Payment { amount: 1 << 40 }),
            ),
            Txn::with_scans(
                vec![rid(2, 5)],
                vec![],
                vec![ScanRange::new(3, 100, 116)],
                Procedure::TpcC(TpcCProc::OrderHistory),
            ),
            Txn::new(
                vec![rid(4, 0), rid(3, 7), rid(3, 8)],
                vec![rid(4, 0), rid(3, 7), rid(3, 8)],
                Procedure::TpcC(TpcCProc::Delivery),
            ),
        ]
    }

    /// Every transaction's decision: alternately committed and aborted.
    fn decisions(n: usize) -> Vec<TxnDecision> {
        (0..n)
            .map(|i| TxnDecision {
                committed: i % 2 == 0,
                fingerprint: 0x1000 + i as u64,
            })
            .collect()
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

    /// The gauntlet's input-only record at epoch 3, byte for byte: the
    /// header (payload length 257, then the checksum), then the payload.
    /// Any change here is a format change and bumps [`SEGMENT_MAGIC`].
    const GOLDEN_RECORD: &str = concat!(
        "010100002670d8a0f4d7545a",
        "03000000000000001300000100010000000001090001000201000000024d0000",
        "0001000300000302090001000401000000030403000200050006000100060000",
        "0400040002000102000101030900000402000100010000000004030002020005",
        "00000000010103050001000100000000062a32010001000001020a1400076400",
        "0000010008000008010001000100010008000009020108616263646566676800",
        "030000020107010800000300000200090109000000000301c801000101090100",
        "00000303000300090109010a03000000040180808080802000030001010102e0",
        "a712030000000404000102050000010364740004050003040003070308030000",
        "00",
    );

    #[test]
    fn golden_record_pins_the_format() {
        let mut buf = Vec::new();
        encode_record(&mut buf, 3, &mut gauntlet().iter(), None);
        let hex: String = buf.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_RECORD);
    }

    #[test]
    fn an_index_scan_outside_the_read_set_is_refused() {
        // A checksummed record whose index scan names a posting list past
        // the read set: replaying it would index out of bounds inside an
        // engine's execution thread, so the decoder refuses it and
        // recovery reads the log as corrupt.
        let mut txn = Txn::new(
            vec![rid(2, 5), rid(5, 5)],
            vec![],
            Procedure::TpcC(TpcCProc::CustomerStatus),
        );
        txn.index_scans = vec![IndexScan::new(2, 3)].into();
        let mut record = Vec::new();
        encode_record(&mut record, 1, &mut std::iter::once(&txn), None);
        assert!(decode_batch(&record[RECORD_HEADER..]).is_none());
        let dir = tmpdir("index-scan-list");
        fs::create_dir_all(&dir).unwrap();
        let mut segment = Vec::from(SEGMENT_MAGIC);
        segment.extend_from_slice(&record);
        fs::write(SEGMENTS.path(&dir, 0), &segment).unwrap();
        let err = Wal::read_log(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_read_modify_write_names_each_key_once() {
        let keys: Vec<RecordId> = (0..10).map(|i| rid(0, 999_000 + i)).collect();
        let txn = Txn::new(keys.clone(), keys, Procedure::ReadModifyWrite { delta: 1 });
        let mut buf = Vec::new();
        encode_txn(&mut buf, &txn);
        // Tag, delta, think time, read count, ten 4-byte keys, the shared
        // prefix, no further writes, no scans of either kind.
        assert_eq!(buf.len(), 3 + 1 + 10 * 4 + 4);
        let mut r = Reader::new(&buf);
        assert_txn_eq(&decode_txn(&mut r).unwrap(), &txn);
        assert!(r.at_end());
    }

    thread_local! {
        // Const-initialised and drop-free, so the allocator can read it.
        static REQUESTED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    /// Tallies the bytes each thread asks for, so the fuzz can hold a
    /// decode to what its input allows.
    struct Tally;

    // SAFETY: every method delegates to `std::alloc::System` with the
    // caller's exact layout; the tally has no effect on allocation.
    unsafe impl std::alloc::GlobalAlloc for Tally {
        // SAFETY: forwards to `System.alloc` under the caller's contract.
        unsafe fn alloc(&self, layout: std::alloc::Layout) -> *mut u8 {
            let _ = REQUESTED.try_with(|r| r.set(r.get() + layout.size()));
            std::alloc::System.alloc(layout)
        }

        // SAFETY: forwards to `System.realloc` under the caller's contract.
        unsafe fn realloc(
            &self,
            ptr: *mut u8,
            layout: std::alloc::Layout,
            new_size: usize,
        ) -> *mut u8 {
            let _ = REQUESTED.try_with(|r| r.set(r.get() + new_size));
            std::alloc::System.realloc(ptr, layout, new_size)
        }

        // SAFETY: forwards to `System.dealloc` under the caller's contract.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: std::alloc::Layout) {
            std::alloc::System.dealloc(ptr, layout)
        }
    }

    #[global_allocator]
    static TALLY: Tally = Tally;

    /// Bytes allocated while running `f`, on this thread.
    fn allocated_by<T>(f: impl FnOnce() -> T) -> usize {
        REQUESTED.with(|r| r.set(0));
        let out = f();
        let bytes = REQUESTED.with(|r| r.get());
        drop(out);
        bytes
    }

    /// Mutate `bytes` once: flip a bit, truncate, or overwrite a few bytes
    /// with a varint of random magnitude (a count or length gone wild).
    fn mutate(rng: &mut crate::rng::FastRng, bytes: &mut Vec<u8>) {
        let at = rng.below(bytes.len() as u64 + 1) as usize;
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            _ => {
                let mut var = Vec::new();
                put_var(&mut var, rng.next_u64() >> rng.below(64));
                let end = (at + rng.below(4) as usize).min(bytes.len());
                bytes.splice(at..end, var);
            }
        }
    }

    /// Bytes a decode may allocate per byte of input. The dearest input is
    /// a shared write prefix: one byte that copies a whole read set.
    const ALLOC_PER_INPUT_BYTE: usize = 64;

    #[test]
    fn codec_fuzz_never_panics_and_allocates_within_the_input() {
        let txns = gauntlet();
        let mut buf = Vec::new();
        encode_record(&mut buf, 3, &mut txns.iter(), None);
        let input = buf[RECORD_HEADER..].to_vec();
        encode_record(&mut buf, 4, &mut txns.iter(), Some(&decisions(txns.len())));
        let decided = buf[RECORD_HEADER..].to_vec();
        let ckp = crate::Checkpoint {
            epoch: 9,
            records: (0..20u64)
                .map(|r| (rid((r % 3) as u32, r), vec![r as u8; r as usize].into()))
                .collect(),
        }
        .encode();
        let ckp_body = ckp[8..ckp.len() - 8].to_vec();
        let corpus = [input, decided, ckp_body];
        let mut rng = crate::rng::FastRng::seed_from(0xF022);
        let rounds = crate::stress_iters(3_000);
        for round in 0..rounds {
            let mut bytes = corpus[round as usize % corpus.len()].clone();
            for _ in 0..=rng.below(3) {
                mutate(&mut rng, &mut bytes);
            }
            let budget = ALLOC_PER_INPUT_BYTE * bytes.len() + 1024;
            let wal = allocated_by(|| decode_batch(&bytes));
            let ckp = allocated_by(|| crate::Checkpoint::decode_body(&bytes));
            assert!(
                wal <= budget && ckp <= budget,
                "round {round}: {} input bytes drove {wal} B (log) / {ckp} B (checkpoint)",
                bytes.len()
            );
        }
    }

    #[test]
    fn a_failed_rotation_fails_every_later_call() {
        let dir = tmpdir("sticky");
        let mut cfg = DurabilityConfig::new(&dir);
        cfg.segment_bytes = 1; // rotate after every record
        let wal = Wal::open(&cfg).unwrap();
        // `create_new` on an existing path fails: the first rotation faults.
        fs::create_dir(SEGMENTS.path(&dir, 1)).unwrap();
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
        fs::remove_dir(SEGMENTS.path(&dir, 1)).unwrap();
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
        let segs = SEGMENTS.list(&dir).unwrap();
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
            // The inherited segment's epochs are read back: 1 is not below 1.
            assert_eq!(wal.truncate_before(1).unwrap(), 0);
        }
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.len(), 2);
        assert_eq!((log[0].epoch, log[1].epoch), (1, 2));
        assert_eq!(log[1].txns.len(), 3);
        // A third incarnation inherits both segments and reclaims the one
        // stamped below 2.
        let wal = Wal::open(&cfg).unwrap();
        let first = fs::metadata(SEGMENTS.path(&dir, 0)).unwrap().len();
        assert_eq!(wal.truncate_before(2).unwrap(), first);
        drop(wal);
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.iter().map(|b| b.epoch).collect::<Vec<_>>(), [2]);
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
        let seg = SEGMENTS.path(&dir, 0);
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
        let seg0 = SEGMENTS.path(&dir, 0);
        let full = fs::read(&seg0).unwrap();
        let mut torn = full.clone();
        torn.extend_from_slice(&[7, 7, 7]); // partial next record
        fs::write(&seg0, &torn).unwrap();
        fs::write(SEGMENTS.path(&dir, 1), &SEGMENT_MAGIC[..4]).unwrap();
        // Recovery reads before it opens: the same rule, nothing repaired.
        let log = Wal::read_log(&dir).unwrap();
        assert_eq!(log.iter().map(|b| b.epoch).collect::<Vec<_>>(), [1]);
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
        let seg = SEGMENTS.path(&dir, 0);
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
        fs::write(SEGMENTS.path(&dir, 1), {
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
        assert!(Wal::read_log(&dir).unwrap().is_empty(), "absent");
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
        let decisions = decisions(txns.len());
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
}
