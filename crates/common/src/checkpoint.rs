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
//! chk-NNNNNNNN.ckp := magic "BOHMCKP1",
//!                     epoch u64, record_count u64,
//!                     (table u32, row u64, len u32, bytes)*,
//!                     fnv64(everything after the magic) u64
//! ```
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
//! full-record writes, and rows the catalog seeds but the snapshot lacks
//! are deletes (the snapshot is the *complete* present set as of its
//! epoch). Any [`BatchEngine`] can therefore be checkpoint-restored with
//! zero store-specific code.

use crate::engine::{BatchEngine, Session};
use crate::txn::Txn;
use crate::types::RecordId;
use crate::wal::{fnv64, sync_dir};
use crate::Procedure;
use std::collections::HashSet;
use std::fs::{self, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// First 8 bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"BOHMCKP1";

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

fn checkpoint_path(dir: &Path, epoch: u64) -> PathBuf {
    dir.join(format!("chk-{epoch:08}.ckp"))
}

/// Parse `chk-NNNNNNNN.ckp` back to its epoch.
fn checkpoint_epoch(name: &str) -> Option<u64> {
    name.strip_prefix("chk-")?
        .strip_suffix(".ckp")?
        .parse()
        .ok()
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
        let mut buf = Vec::with_capacity(64 + self.records.len() * 32);
        buf.extend_from_slice(&CHECKPOINT_MAGIC);
        buf.extend_from_slice(&self.epoch.to_le_bytes());
        buf.extend_from_slice(&(self.records.len() as u64).to_le_bytes());
        for (rid, data) in &self.records {
            buf.extend_from_slice(&rid.table.0.to_le_bytes());
            buf.extend_from_slice(&rid.row.to_le_bytes());
            buf.extend_from_slice(&(data.len() as u32).to_le_bytes());
            buf.extend_from_slice(data);
        }
        let sum = fnv64(&buf[CHECKPOINT_MAGIC.len()..]);
        buf.extend_from_slice(&sum.to_le_bytes());
        let path = checkpoint_path(dir, self.epoch);
        write_atomic(dir, &path, &buf)?;
        Ok(path)
    }

    /// Decode one checkpoint file; `None` when it is torn, truncated or
    /// fails its checksum.
    fn decode(bytes: &[u8]) -> Option<Self> {
        let m = CHECKPOINT_MAGIC.len();
        if bytes.len() < m + 24 || bytes[..m] != CHECKPOINT_MAGIC {
            return None;
        }
        let body = &bytes[m..bytes.len() - 8];
        let sum = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().ok()?);
        if fnv64(body) != sum {
            return None;
        }
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Option<&[u8]> {
            let s = body.get(*pos..*pos + n)?;
            *pos += n;
            Some(s)
        };
        let epoch = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
        let count = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?) as usize;
        // Each record needs ≥ 16 header bytes; reject counts the body
        // cannot hold before allocating.
        if count.saturating_mul(16) > body.len() - pos {
            return None;
        }
        let mut records = Vec::with_capacity(count);
        for _ in 0..count {
            let table = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?);
            let row = u64::from_le_bytes(take(&mut pos, 8)?.try_into().ok()?);
            let len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().ok()?) as usize;
            records.push((RecordId::new(table, row), take(&mut pos, len)?.into()));
        }
        (pos == body.len()).then_some(Self { epoch, records })
    }
}

/// The epochs of every `chk-*.ckp` file in `dir`, in directory order
/// (`.tmp` files and everything else are skipped); empty when `dir` does
/// not exist.
fn checkpoint_epochs(dir: &Path) -> io::Result<Vec<u64>> {
    let entries = match fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e),
    };
    let mut epochs = Vec::new();
    for entry in entries {
        if let Some(e) = entry?.file_name().to_str().and_then(checkpoint_epoch) {
            epochs.push(e);
        }
    }
    Ok(epochs)
}

/// Load the newest checkpoint in `dir`, or `None` when there is none
/// (a fresh log: replay then starts from the seeded state).
///
/// Only the newest `chk-*.ckp` file is read. If it fails validation the
/// result is an [`InvalidData`](io::ErrorKind::InvalidData) error, never
/// an older file: [`cut`] has already reclaimed the log an older
/// checkpoint would need, so restoring one would silently lose work.
pub fn load_latest(dir: &Path) -> io::Result<Option<Checkpoint>> {
    let Some(epoch) = checkpoint_epochs(dir)?.into_iter().max() else {
        return Ok(None);
    };
    let path = checkpoint_path(dir, epoch);
    match Checkpoint::decode(&fs::read(&path)?) {
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
    for old in checkpoint_epochs(wal.dir())? {
        if old < epoch {
            fs::remove_file(checkpoint_path(wal.dir(), old))?;
        }
    }
    Ok(crate::durable::CheckpointStats {
        epoch,
        records: count,
        freed_bytes,
    })
}

/// Replay a snapshot into a (freshly started, seeded) engine through its
/// normal write path: every snapshotted record becomes a full-record
/// `Apply` write, and every row of `seeded_rows` (per-table seeded row
/// counts — the rows the engine preloads at start) that the snapshot
/// does **not** contain becomes an `Apply` delete. After this, the
/// engine's state equals the checkpointed state exactly, secondary-index
/// posting lists included (they are ordinary records).
pub fn restore_into<E: BatchEngine + ?Sized>(ckp: &Checkpoint, seeded_rows: &[u64], engine: &E) {
    /// Writes per restore transaction — a batch-friendly size that keeps
    /// `Apply` transactions well under any record-size cap.
    const CHUNK: usize = 512;
    let mut session = engine.open_session();
    let mut rids = Vec::with_capacity(CHUNK);
    let mut values: Vec<Option<crate::Value>> = Vec::with_capacity(CHUNK);
    let mut flush = |rids: &mut Vec<RecordId>, values: &mut Vec<Option<crate::Value>>| {
        if rids.is_empty() {
            return;
        }
        session.submit(Txn::new(
            vec![],
            std::mem::take(rids),
            Procedure::Apply {
                values: std::mem::take(values).into(),
            },
        ));
        while session.in_flight() > 0 {
            session.reap();
        }
    };
    let mut present: HashSet<RecordId> = HashSet::with_capacity(ckp.records.len());
    for (rid, data) in &ckp.records {
        present.insert(*rid);
        rids.push(*rid);
        values.push(Some(crate::Value::from(&data[..])));
        if rids.len() >= CHUNK {
            flush(&mut rids, &mut values);
        }
    }
    // Seeded-but-absent rows: present at engine start, deleted by the
    // time of the snapshot — restore must delete them too.
    for (table, &rows) in seeded_rows.iter().enumerate() {
        for row in 0..rows {
            let rid = RecordId::new(table as u32, row);
            if !present.contains(&rid) {
                rids.push(rid);
                values.push(None);
                if rids.len() >= CHUNK {
                    flush(&mut rids, &mut values);
                }
            }
        }
    }
    flush(&mut rids, &mut values);
    engine.quiesce();
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
