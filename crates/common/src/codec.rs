//! The byte-level codec both durable files share: little-endian and
//! LEB128-varint writes, a bounds-checked reader, the xxHash64 checksum,
//! and the `prefix-NNNNNNNN.ext` file names log segments and checkpoints
//! are stored under.

use std::fs::{self, File};
use std::io;
use std::path::{Path, PathBuf};

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Append `v` as an unsigned LEB128 varint: seven bits per byte, lowest
/// group first, the high bit set on every byte but the last. Values below
/// 128 take one byte, a full `u64` ten.
pub(crate) fn put_var(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

const P1: u64 = 0x9E37_79B1_85EB_CA87;
const P2: u64 = 0xC2B2_AE3D_27D4_EB4F;
const P3: u64 = 0x1656_67B1_9E37_79F9;
const P4: u64 = 0x85EB_CA77_C2B2_AE63;
const P5: u64 = 0x27D4_EB2F_1656_67C5;

fn round(acc: u64, word: u64) -> u64 {
    acc.wrapping_add(word.wrapping_mul(P2))
        .rotate_left(31)
        .wrapping_mul(P1)
}

fn word(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

/// xxHash64 (seed 0) of the whole slice: the checksum of both durable
/// files. Unlike `value::checksum` (which hashes only a record's `u64`
/// prefix and length), it covers every byte and the length, because it is
/// what detects a torn write anywhere in a log record or a checkpoint. Four
/// independent lanes take 8 bytes per step each, so it runs at memory
/// speed where byte-serial FNV-1a spent a multiply per byte.
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    let mut stripes = bytes.chunks_exact(32);
    let mut h = if bytes.len() >= 32 {
        let mut lanes = [P1.wrapping_add(P2), P2, 0, P1.wrapping_neg()];
        for stripe in &mut stripes {
            for (lane, w) in lanes.iter_mut().zip(stripe.chunks_exact(8)) {
                *lane = round(*lane, word(w));
            }
        }
        let [a, b, c, d] = lanes;
        let h = a
            .rotate_left(1)
            .wrapping_add(b.rotate_left(7))
            .wrapping_add(c.rotate_left(12))
            .wrapping_add(d.rotate_left(18));
        lanes.iter().fold(h, |h, &lane| {
            (h ^ round(0, lane)).wrapping_mul(P1).wrapping_add(P4)
        })
    } else {
        P5
    };
    h = h.wrapping_add(bytes.len() as u64);
    let mut words = stripes.remainder().chunks_exact(8);
    for w in &mut words {
        h = (h ^ round(0, word(w)))
            .rotate_left(27)
            .wrapping_mul(P1)
            .wrapping_add(P4);
    }
    let mut tail = words.remainder();
    if let Some((half, rest)) = tail.split_first_chunk::<4>() {
        h = (h ^ u64::from(u32::from_le_bytes(*half)).wrapping_mul(P1))
            .rotate_left(23)
            .wrapping_mul(P2)
            .wrapping_add(P3);
        tail = rest;
    }
    for &b in tail {
        h = (h ^ u64::from(b).wrapping_mul(P5))
            .rotate_left(11)
            .wrapping_mul(P1);
    }
    h = (h ^ (h >> 33)).wrapping_mul(P2);
    h = (h ^ (h >> 29)).wrapping_mul(P3);
    h ^ (h >> 32)
}

/// The error for a log segment or checkpoint whose leading magic is not
/// the one this build writes: another format version, or a damaged header.
/// Either way the caller refuses and leaves the file as it is.
pub(crate) fn foreign_magic(file: &str, found: &[u8], want: &[u8]) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!(
            "{file} opens with \"{}\", not \"{}\": another format version or a damaged header",
            found.escape_ascii(),
            want.escape_ascii()
        ),
    )
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
        let end = self.pos.checked_add(n)?;
        let s = self.bytes.get(self.pos..end)?;
        self.pos = end;
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

    /// An unsigned LEB128 varint ([`put_var`]); `None` when it runs past the
    /// payload or does not fit a `u64`.
    pub fn var(&mut self) -> Option<u64> {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                // The tenth byte carries bit 63 alone.
                return (shift < 63 || b < 2).then_some(v);
            }
        }
        None
    }

    /// A varint that must fit a `u32` (table ids, think time, line counts).
    pub fn var_u32(&mut self) -> Option<u32> {
        u32::try_from(self.var()?).ok()
    }

    /// `n`, a decoded element count about to drive per-element reads of
    /// ≥ `min_elem` bytes each — or `None` when the remaining payload
    /// cannot hold that many, so corrupt-but-checksummed data cannot drive
    /// absurd allocations.
    pub fn fits(&self, n: u64, min_elem: usize) -> Option<usize> {
        let n = usize::try_from(n).ok()?;
        (n.saturating_mul(min_elem) <= self.bytes.len() - self.pos).then_some(n)
    }

    /// A varint count prefix, checked by [`fits`](Self::fits).
    pub fn count(&mut self, min_elem: usize) -> Option<usize> {
        let n = self.var()?;
        self.fits(n, min_elem)
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checksum_is_xxhash64() {
        // Published xxHash64 (seed 0) vectors: the empty input, the byte
        // tail, and a 39-byte input through the lanes and the word tail.
        assert_eq!(checksum(b""), 0xEF46_DB37_51D8_E999);
        assert_eq!(checksum(b"a"), 0xD24E_C4F1_A98C_6E5B);
        assert_eq!(checksum(b"abc"), 0x44BC_2CF5_AD77_0999);
        assert_eq!(
            checksum(b"Nobody inspects the spammish repetition"),
            0xFBCE_A83C_8A37_8BF1
        );
    }

    #[test]
    fn every_bit_flip_and_truncation_of_4k_changes_the_checksum() {
        let mut rng = crate::rng::FastRng::seed_from(4096);
        let mut buf: Vec<u8> = (0..4096).map(|_| rng.below(256) as u8).collect();
        let sum = checksum(&buf);
        for bit in 0..buf.len() * 8 {
            buf[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(checksum(&buf), sum, "flip of bit {bit}");
            buf[bit / 8] ^= 1 << (bit % 8);
        }
        for len in 0..buf.len() {
            assert_ne!(checksum(&buf[..len]), sum, "truncation to {len}");
        }
    }

    #[test]
    fn varints_roundtrip_and_reject_what_no_u64_encodes() {
        let mut buf = Vec::new();
        let values = [0, 1, 127, 128, 16_383, 16_384, u32::MAX.into(), u64::MAX];
        for v in values {
            put_var(&mut buf, v);
        }
        assert_eq!(buf.len(), 1 + 1 + 1 + 2 + 2 + 3 + 5 + 10);
        let mut r = Reader::new(&buf);
        for v in values {
            assert_eq!(r.var(), Some(v));
        }
        assert!(r.at_end());
        // Bit 64 set, eleven bytes, and a varint cut short.
        let bit_64 = [&[0xFF; 9][..], &[0x02]].concat();
        for bad in [bit_64, vec![0x80; 11], vec![0x80]] {
            assert_eq!(Reader::new(&bad).var(), None, "{bad:x?}");
        }
        assert_eq!(Reader::new(&[0x80, 0x80, 0x80, 0x80, 0x10]).var_u32(), None);
    }

    #[test]
    fn take_past_the_end_is_refused_without_overflow() {
        let mut r = Reader::new(b"abcd");
        assert_eq!(r.take(2), Some(&b"ab"[..]));
        assert_eq!(r.take(usize::MAX), None);
        assert_eq!(r.take(3), None);
        assert_eq!(r.take(2), Some(&b"cd"[..]));
    }
}
