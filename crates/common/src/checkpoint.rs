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
//! MANIFEST         := magic "BOHMMAN1", epoch u64, fnv64(epoch) u64
//! ```
//!
//! Both files are written **temp-file → fsync → rename → dir-fsync**, so
//! a crash at any point leaves either the previous checkpoint intact or
//! the new one complete — never a half state:
//!
//! * crash before rename: the `.tmp` file is ignored by recovery;
//! * crash after the checkpoint's rename but before the manifest's: the
//!   manifest still names the previous checkpoint, and
//!   [`load_latest`] *also* scans for newer valid checkpoint files, so
//!   the completed snapshot is found anyway;
//! * a torn or corrupt manifest (or checkpoint) fails its checksum and
//!   recovery falls back to the newest checkpoint file that validates —
//!   worst case the previous checkpoint plus a longer replay.
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
use crate::Procedure;
use std::collections::HashSet;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};

/// First 8 bytes of every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"BOHMCKP1";
/// First 8 bytes of the manifest file.
pub const MANIFEST_MAGIC: [u8; 8] = *b"BOHMMAN1";
/// Name of the manifest file tying the current checkpoint epoch to the
/// log (co-located with the segments in the WAL directory).
pub const MANIFEST_NAME: &str = "MANIFEST";

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

fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Durably record a directory-entry change (no-op where directories
/// cannot be fsynced).
fn sync_dir(dir: &Path) -> io::Result<()> {
    #[cfg(unix)]
    {
        File::open(dir)?.sync_all()?;
    }
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
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
    /// `chk-{epoch}.ckp`, then point the manifest at it. Returns the
    /// checkpoint file's path.
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
        write_manifest(dir, self.epoch)?;
        Ok(path)
    }

    /// Decode one checkpoint file; `None` when it is torn, truncated or
    /// fails its checksum (recovery then falls back to an older file).
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

/// Atomically (re)write the manifest naming `epoch` as the covered
/// checkpoint.
fn write_manifest(dir: &Path, epoch: u64) -> io::Result<()> {
    let mut buf = Vec::with_capacity(24);
    buf.extend_from_slice(&MANIFEST_MAGIC);
    buf.extend_from_slice(&epoch.to_le_bytes());
    buf.extend_from_slice(&fnv64(&epoch.to_le_bytes()).to_le_bytes());
    write_atomic(dir, &dir.join(MANIFEST_NAME), &buf)
}

/// Read the manifest's checkpoint epoch; `None` when absent, torn or
/// checksum-failing. The manifest ties the covered epoch to the log
/// (first live segment holds only batches `>= epoch`) for diagnostics
/// and tooling — recovery itself trusts the newest *validating*
/// checkpoint file, so a manifest that lags one rename behind (crash
/// between the checkpoint's rename and the manifest's) or is torn never
/// costs recovery the newer snapshot.
pub fn manifest_epoch(dir: &Path) -> Option<u64> {
    let bytes = fs::read(dir.join(MANIFEST_NAME)).ok()?;
    let m = MANIFEST_MAGIC.len();
    if bytes.len() != m + 16 || bytes[..m] != MANIFEST_MAGIC {
        return None;
    }
    let epoch = u64::from_le_bytes(bytes[m..m + 8].try_into().ok()?);
    let sum = u64::from_le_bytes(bytes[m + 8..].try_into().ok()?);
    (fnv64(&epoch.to_le_bytes()) == sum).then_some(epoch)
}

/// Load the newest usable checkpoint in `dir`, or `None` when no valid
/// checkpoint exists (fresh log, or every candidate is damaged — replay
/// then starts from the seeded state).
///
/// The scan is the authority, not the manifest: every `chk-*.ckp` file
/// is tried newest-first and the first that validates end-to-end wins.
/// A crash between the checkpoint rename and the manifest rename is
/// therefore still recovered to the *new* checkpoint, and a torn or
/// corrupt checkpoint file only costs the fall-back to the previous one
/// (plus the longer replay its older epoch implies).
pub fn load_latest(dir: &Path) -> io::Result<Option<Checkpoint>> {
    let mut epochs: Vec<u64> = Vec::new();
    match fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let name = entry?.file_name();
                if let Some(e) = name.to_str().and_then(checkpoint_epoch) {
                    epochs.push(e);
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e),
    }
    epochs.sort_unstable();
    for e in epochs.into_iter().rev() {
        if let Ok(bytes) = fs::read(checkpoint_path(dir, e)) {
            if let Some(ckp) = Checkpoint::decode(&bytes) {
                return Ok(Some(ckp));
            }
        }
    }
    Ok(None)
}

/// The tail every checkpoint ends in, once the caller has quiesced its
/// engine by its own rule and chosen the cut `epoch` (every batch logged so
/// far is stamped below it, every later one at or above): collect the
/// records `snapshot` visits, make them durable, rotate the log so all
/// pre-cut records sit in sealed segments, and reclaim those.
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
    Ok(crate::durable::CheckpointStats {
        epoch,
        records: count,
        freed_bytes: wal.truncate_before(epoch)?,
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
    fn manifest_prefers_newest_but_survives_being_stale() {
        let dir = tmpdir("stale-manifest");
        sample(3, 1).write(&dir).unwrap();
        let newer = sample(9, 2);
        newer.write(&dir).unwrap();
        // Crash between checkpoint rename and manifest rename: point the
        // manifest back at the old epoch. The scan must still find 9.
        write_manifest(&dir, 3).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().epoch, 9);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn damage_falls_back_to_previous_checkpoint() {
        let dir = tmpdir("fallback");
        let old = sample(3, 1);
        old.write(&dir).unwrap();
        let newer = sample(9, 2);
        let path = newer.write(&dir).unwrap();
        // Tear the newest checkpoint file mid-payload.
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let got = load_latest(&dir).unwrap().unwrap();
        assert_eq!(got, old, "torn newest file falls back to the previous");
        // Torn manifest on top: still recoverable by scan.
        fs::write(dir.join(MANIFEST_NAME), b"BOHMMAN1ga").unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap(), old);
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
        assert!(load_latest(&dir).unwrap().is_none());
        fs::remove_dir_all(&dir).unwrap();
    }
}
