//! The byte-level codec both durable files share: little-endian writes, a
//! bounds-checked reader, the FNV-1a checksum, and the
//! `prefix-NNNNNNNN.ext` file names log segments and checkpoints are
//! stored under.

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

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

/// Bounds-checked little-endian reader over a checksummed payload. Any
/// out-of-bounds read means the payload does not decode — a format error,
/// reported as corruption by the caller.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.bytes.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }

    pub fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }

    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }

    /// `n`, a decoded element count about to drive per-element reads of
    /// ≥ `min_elem` bytes each — or `None` when the remaining payload
    /// cannot hold that many, so corrupt-but-checksummed data cannot drive
    /// absurd allocations.
    pub fn fits(&self, n: u64, min_elem: usize) -> Option<usize> {
        let n = usize::try_from(n).ok()?;
        (n.saturating_mul(min_elem) <= self.bytes.len() - self.pos).then_some(n)
    }

    /// A `u32` count prefix, checked by [`fits`](Self::fits).
    pub fn count(&mut self, min_elem: usize) -> Option<usize> {
        let n = self.u32()?;
        self.fits(n.into(), min_elem)
    }

    pub fn at_end(&self) -> bool {
        self.pos == self.bytes.len()
    }
}

/// A family of files named `{prefix}NNNNNNNN{ext}` in one directory: the
/// log's segments and the checkpoints.
pub(crate) struct Numbered {
    pub prefix: &'static str,
    pub ext: &'static str,
}

impl Numbered {
    pub fn path(&self, dir: &Path, n: u64) -> PathBuf {
        dir.join(format!("{}{n:08}{}", self.prefix, self.ext))
    }

    fn parse(&self, name: &str) -> Option<u64> {
        name.strip_prefix(self.prefix)?
            .strip_suffix(self.ext)?
            .parse()
            .ok()
    }

    /// Sorted `(n, path, bytes)` of the family's files in `dir` (anything
    /// else, `.tmp` files included, is skipped); empty when `dir` does not
    /// exist.
    pub fn list(&self, dir: &Path) -> io::Result<Vec<(u64, PathBuf, u64)>> {
        let entries = match fs::read_dir(dir) {
            Ok(entries) => entries,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(e),
        };
        let mut files = Vec::new();
        for entry in entries {
            let entry = entry?;
            if let Some(n) = entry.file_name().to_str().and_then(|s| self.parse(s)) {
                files.push((n, entry.path(), entry.metadata()?.len()));
            }
        }
        files.sort_by_key(|(n, _, _)| *n);
        Ok(files)
    }
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
