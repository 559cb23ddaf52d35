//! Epoch-stamped, checksummed snapshots of table state — what bounds
//! WAL replay.
//!
//! A checkpoint is the durable layer's answer to "replay is unbounded":
//! once a snapshot of the full committed state as of epoch `e` is on
//! disk, recovery becomes restore-the-checkpoint then replay only the
//! log suffix stamped `>= e`, and every sealed segment older than `e`
//! can be reclaimed via [`Wal::truncate_before`](crate::wal::Wal::truncate_before).
//!
//! # On-disk format
//!
//! Checkpoints live in the WAL directory, one file per checkpoint:
//!
//! ```text
//! chk-NNNNNNNN.ckp := magic "BOHMCKP2",
//!                     epoch u64, record_count u64,
//!                     (table u32, row u64, len u32, bytes)*,
//!                     xxh64(everything after the magic) u64
//! ```
//!
//! The checksum is the log's (`codec::checksum`); a checkpoint is mostly
//! row payload, so its fields stay fixed-width. A file that opens with any
//! other magic — `BOHMCKP1` was the FNV-1a version — is refused by name.
//!
//! The file is written **temp-file → fsync → rename → dir-fsync**, so a
//! crash at any point leaves either the previous checkpoint intact or the
//! new one complete — never a half state:
//!
//! * crash before the rename: the `.tmp` file is ignored by recovery;
//! * crash after it, before [`cut`] has truncated the log and deleted the
//!   older checkpoint: recovery reads the newest file, and the log still
//!   holds the suffix its epoch needs.
//!
//! Only the newest checkpoint is ever read, and [`cut`] deletes the older
//! ones once the log prefix they would need is gone. So there is nothing to
//! fall back to: when the newest file fails validation (bit rot — this
//! writer never renames a torn file into place), [`load_latest`] returns
//! [`InvalidData`](io::ErrorKind::InvalidData) and recovery refuses, rather
//! than restoring an older snapshot whose log suffix no longer exists.
//!
//! Secondary-index posting lists are ordinary table records, so they are
//! snapshotted and restored like any other row — recovery restores
//! *through* the indexes without special cases.
//!
//! # Restore is engine-generic
//!
//! [`restore_into`] replays the snapshot through the engine's normal
//! write path as [`Procedure::Apply`] transactions: snapshotted rows are
//! full-record writes, and rows the freshly seeded engine holds but the
//! snapshot lacks are deletes (the snapshot is the *complete* present set
//! as of its epoch). Any [`BatchEngine`] can therefore be
//! checkpoint-restored with zero store-specific code.

use crate::codec::{checksum, foreign_magic, put_u32, put_u64, sync_dir, Numbered, Reader};
use crate::engine::BatchEngine;
use crate::txn::Txn;
use crate::types::RecordId;
use crate::wal::LoggedBatch;
use crate::{Procedure, Value};
use std::collections::HashSet;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// First 8 bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"BOHMCKP2";

/// `chk-NNNNNNNN.ckp`, numbered by epoch.
const CHECKPOINTS: Numbered = Numbered {
    prefix: "chk-",
    ext: ".ckp",
};

/// A loaded (or about-to-be-written) snapshot: the complete present
/// record set as of `epoch`, i.e. the cumulative effect of every batch
/// stamped with an epoch `< epoch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checkpoint {
    /// Replay boundary: batches stamped `>= epoch` are the suffix to
    /// replay on top of this snapshot.
    pub epoch: u64,
    /// Every present record and its full committed payload.
    pub records: Vec<(RecordId, Box<[u8]>)>,
}

/// Write `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory.
fn write_atomic(dir: &Path, path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("tmp");
    {
        let mut f = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    sync_dir(dir)
}

impl Checkpoint {
    /// Serialize and atomically write this snapshot as
    /// `chk-{epoch}.ckp`. Returns the checkpoint file's path.
    pub fn write(&self, dir: &Path) -> io::Result<PathBuf> {
        let path = CHECKPOINTS.path(dir, self.epoch);
        write_atomic(dir, &path, &self.encode())?;
        Ok(path)
    }

    /// The whole file: magic, body, checksum.
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(64 + self.records.len() * 32);
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        put_u64(&mut buf, self.epoch);
        put_u64(&mut buf, self.records.len() as u64);
        for (rid, data) in &self.records {
            put_u32(&mut buf, rid.table.0);
            put_u64(&mut buf, rid.row);
            put_u32(&mut buf, data.len() as u32);
            buf.extend_from_slice(data);
        }
        let sum = checksum(&buf[CHECKPOINT_MAGIC.len()..]);
        put_u64(&mut buf, sum);
        buf
    }

    /// Decode one checkpoint file; `None` when it is torn, truncated or
    /// fails its checksum.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let body = bytes.strip_prefix(&CHECKPOINT_MAGIC)?;
        let (body, sum) = body.split_at(body.len().checked_sub(8)?);
        if checksum(body) != u64::from_le_bytes(sum.try_into().ok()?) {
            return None;
        }
        Self::decode_body(body)
    }

    /// Decode the bytes between the magic and the checksum; `None` when
    /// they do not parse. Never panics, whatever the bytes.
    pub(crate) fn decode_body(body: &[u8]) -> Option<Self> {
        let mut r = Reader::new(body);
        let epoch = r.u64()?;
        // Each record needs ≥ 16 header bytes.
        let count = r.u64()?;
        let count = r.fits(count, 16)?;
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let table = r.u32()?;
            let row = r.u64()?;
            let len = r.u32()? as usize;
            records.push((RecordId::new(table, row), r.take(len)?.into()));
        }
        r.at_end().then_some(Self { epoch, records })
    }
}

/// Load the newest checkpoint in `dir`, or `None` when there is none
/// (a fresh log: replay then starts from the seeded state).
///
/// Only the newest `chk-*.ckp` file is read. If it fails validation the
/// result is an [`InvalidData`](io::ErrorKind::InvalidData) error, never
/// an older file: [`cut`] has already reclaimed the log an older
/// checkpoint would need, so restoring one would silently lose work.
pub fn load_latest(dir: &Path) -> io::Result<Option<Checkpoint>> {
    let Some((epoch, path, _)) = CHECKPOINTS.list(dir)?.pop() else {
        return Ok(None);
    };
    let bytes = fs::read(&path)?;
    if let Some(magic) = bytes.get(..CHECKPOINT_MAGIC.len()) {
        if magic != CHECKPOINT_MAGIC {
            let file = format!("checkpoint {}", path.display());
            return Err(foreign_magic(&file, magic, &CHECKPOINT_MAGIC));
        }
    }
    match Checkpoint::decode(&bytes) {
        Some(ckp) if ckp.epoch == epoch => Ok(Some(ckp)),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("checkpoint {} fails validation", path.display()),
        )),
    }
}

/// The tail every checkpoint ends in, once the caller has quiesced its
/// engine by its own rule and chosen the cut `epoch` (every batch logged so
/// far is stamped below it, every later one at or above): collect the
/// records `snapshot` visits, make them durable, rotate the log so all
/// pre-cut records sit in sealed segments, reclaim those, and delete the
/// older checkpoints, which needed them.
pub fn cut(
    wal: &crate::wal::Wal,
    epoch: u64,
    snapshot: impl FnOnce(&mut dyn FnMut(RecordId, &[u8])),
) -> io::Result<crate::durable::CheckpointStats> {
    let mut records: Vec<(RecordId, Box<[u8]>)> = Vec::new();
    snapshot(&mut |rid, data| records.push((rid, data.into())));
    let count = records.len();
    // Order matters: the snapshot must be durable (atomic write, ending in
    // a dir-fsync) before any log bytes it supersedes are reclaimed.
    Checkpoint { epoch, records }.write(wal.dir())?;
    wal.rotate()?;
    let freed_bytes = wal.truncate_before(epoch)?;
    for (old, path, _) in CHECKPOINTS.list(wal.dir())? {
        if old < epoch {
            fs::remove_file(path)?;
        }
    }
    Ok(crate::durable::CheckpointStats {
        epoch,
        records: count,
        freed_bytes,
    })
}

/// Replay a snapshot into a freshly started engine through its normal
/// write path: every snapshotted record becomes a full-record `Apply`
/// write, and every record the engine holds — what it was seeded with —
/// that the snapshot does **not** contain becomes an `Apply` delete. After
/// this, the engine's state equals the checkpointed state exactly,
/// secondary-index posting lists included (they are ordinary records).
///
/// The writes go to [`BatchEngine::replay`] in chunks, one input-only
/// logged batch per chunk, built as replay takes them: a batching engine
/// seals each as it arrives instead of waiting for the one before, and the
/// values held at once are bounded by what the engine keeps in flight.
///
/// # Errors
///
/// Those of [`BatchEngine::replay`].
pub fn restore_into<E: BatchEngine + ?Sized>(ckp: &Checkpoint, engine: &E) -> io::Result<()> {
    /// Writes per restore transaction — a batch-friendly size that keeps
    /// `Apply` transactions well under any record-size cap.
    const CHUNK: usize = 512;
    let present: HashSet<RecordId> = ckp.records.iter().map(|(rid, _)| *rid).collect();
    // Seeded but absent from the snapshot: deleted by the time it was taken.
    let mut gone = Vec::new();
    engine.snapshot_records(&mut |rid, _| {
        if !present.contains(&rid) {
            gone.push((rid, None));
        }
    });
    let writes = ckp
        .records
        .iter()
        .map(|(rid, data)| (*rid, Some(Value::from(&data[..]))));
    let mut todo = writes.chain(gone).peekable();
    let chunks = std::iter::from_fn(|| {
        todo.peek()?;
        let (rids, values): (Vec<RecordId>, Vec<_>) = todo.by_ref().take(CHUNK).unzip();
        let values = values.into();
        Some(LoggedBatch {
            epoch: ckp.epoch,
            txns: vec![Txn::new(vec![], rids, Procedure::Apply { values })],
            outcomes: None,
        })
    });
    engine.replay(chunks).map(drop)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("bohm-ckp-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample(epoch: u64, salt: u8) -> Checkpoint {
        Checkpoint {
            epoch,
            records: (0..40u64)
                .map(|r| {
                    let data: Box<[u8]> = vec![salt ^ r as u8; 8].into();
                    (RecordId::new((r % 3) as u32, r), data)
                })
                .collect(),
        }
    }

    #[test]
    fn roundtrips_through_disk() {
        let dir = tmpdir("roundtrip");
        let ckp = sample(7, 0x5A);
        ckp.write(&dir).unwrap();
        let got = load_latest(&dir).unwrap().expect("checkpoint present");
        assert_eq!(got, ckp);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damaged_newest_is_refused_not_skipped() {
        let dir = tmpdir("refuse");
        sample(3, 1).write(&dir).unwrap();
        let newer = sample(9, 2);
        let path = newer.write(&dir).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap(), newer, "newest wins");
        // Tear the newest checkpoint file mid-payload: the older file is
        // still there, but it must not be used.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = load_latest(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_temp_file_is_ignored() {
        let dir = tmpdir("tmpfile");
        let ckp = sample(5, 3);
        ckp.write(&dir).unwrap();
        // Crash mid-write of the next checkpoint: a dangling .tmp file.
        fs::write(dir.join("chk-00000009.tmp"), b"half a checkpoi").unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap(), ckp);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = tmpdir("empty");
        assert!(load_latest(&dir).unwrap().is_none());
        let missing = dir.join("never-created");
        assert!(load_latest(&missing).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn an_older_version_is_refused_by_name() {
        let dir = tmpdir("version");
        let path = sample(6, 4).write(&dir).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        bytes[..8].copy_from_slice(b"BOHMCKP1");
        fs::write(&path, &bytes).unwrap();
        let err = load_latest(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("\"BOHMCKP1\""), "{err}");
        assert_eq!(fs::read(&path).unwrap(), bytes, "left as it was");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitflip_fails_checksum() {
        let dir = tmpdir("bitflip");
        let path = sample(4, 9).write(&dir).unwrap();
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        let err = load_latest(&dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        fs::remove_dir_all(&dir).unwrap();
    }
}
