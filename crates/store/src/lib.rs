//! # sapla-store
//!
//! On-disk, zero-copy snapshot **container** for fully-built indexes:
//! a versioned, checksummed header, a table of contents, and 64-byte
//! aligned, offset-addressed byte arenas. The container is schema-free
//! — what each arena *means* (SoA leaf coefficients, tree node records,
//! raw samples, …) is defined by the consumer (`sapla-index`); this
//! crate owns layout, integrity, and the safe reinterpretation views.
//!
//! ```text
//! file    := header (64 B) | arena* (each 64-B aligned, zero padded) | toc
//! header  := magic "SAPLSNAP" | version u16 | endian u16 | flags u32
//!            | file_len u64 | checksum u64 | toc_off u64 | toc_count u64
//!            | reserved [u8; 16]
//! toc     := (kind u32, shard u32, off u64, len u64)*   (24 B / entry)
//! ```
//!
//! Everything is little-endian. `checksum` is FNV-1a over every byte
//! of the file except the checksum field itself (header fields, arenas,
//! padding, and TOC), so any single bit flip anywhere is caught before
//! a single arena is interpreted. Loading
//! never decodes records: [`SnapshotView::parse`] validates the
//! container (magic, version, endianness mark, length, checksum, TOC
//! bounds, arena alignment) and then hands out borrowed byte slices
//! that [`view`] reinterprets as typed slices after alignment/length
//! checks. Every failure is an [`Error`] — corrupt input never panics.

#![warn(missing_docs)]
#![warn(clippy::all)]

use std::path::Path;

use sapla_core::{Error, Result};

pub mod view;

/// Arena payloads start on multiples of this (cache-line / mmap
/// friendly, and ≥ the alignment of every element type served by
/// [`view`]).
pub const ALIGN: usize = 64;

/// Container header size in bytes.
pub const HEADER_LEN: usize = 64;

/// Bytes per TOC entry.
pub const TOC_ENTRY_LEN: usize = 24;

const MAGIC: &[u8; 8] = b"SAPLSNAP";
const VERSION: u16 = 1;
/// Byte-order mark, always written little-endian: a byte-swapped
/// writer's output reads back as `0xFFFE` and is rejected.
const ENDIAN_MARK: u16 = 0xFEFF;

fn corrupt(reason: &'static str) -> Error {
    Error::CorruptIndex { reason }
}

fn io_err(path: &Path, e: &std::io::Error) -> Error {
    Error::Io { path: path.display().to_string(), message: e.to_string() }
}

/// FNV-1a over `bytes` — the container checksum primitive. Not
/// cryptographic; it exists to catch torn writes and bit rot, not
/// adversaries.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(0xcbf2_9ce4_8422_2325, bytes)
}

fn fnv1a_update(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The container checksum: FNV-1a over the whole image except the
/// checksum field itself (header bytes 24..32), so header corruption —
/// flags included — is caught too. Public so corruption tests and
/// external tooling can re-seal deliberately mutated images; `image`
/// must be at least [`HEADER_LEN`] bytes.
///
/// # Panics
///
/// On images shorter than [`HEADER_LEN`] (slicing) — callers hold a
/// full header by construction.
#[must_use]
pub fn image_checksum(image: &[u8]) -> u64 {
    let h = fnv1a_update(0xcbf2_9ce4_8422_2325, &image[..24]);
    fnv1a_update(h, &image[32..])
}

/// One table-of-contents record: which arena, which shard, where.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TocEntry {
    /// Consumer-defined arena kind tag.
    pub kind: u32,
    /// Shard index the arena belongs to (0 for global arenas).
    pub shard: u32,
    /// Byte offset of the arena payload from the start of the file.
    pub off: u64,
    /// Payload length in bytes (excludes alignment padding).
    pub len: u64,
}

/// Builds a snapshot file in memory: append arenas, then
/// [`ArenaWriter::finish`] seals the header + TOC.
#[derive(Debug)]
pub struct ArenaWriter {
    buf: Vec<u8>,
    toc: Vec<TocEntry>,
    flags: u32,
}

impl ArenaWriter {
    /// Start a snapshot with the given header `flags` (consumer-defined
    /// bits; `sapla-index` uses bit 0 for quantized leaves).
    #[must_use]
    pub fn new(flags: u32) -> Self {
        Self { buf: vec![0u8; HEADER_LEN], toc: Vec::new(), flags }
    }

    /// Append one arena, padding the file position to [`ALIGN`] first.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] if `(kind, shard)` was already pushed —
    /// the TOC is a map, and a duplicate key would make lookups
    /// ambiguous.
    pub fn push_arena(&mut self, kind: u32, shard: u32, bytes: &[u8]) -> Result<()> {
        if self.toc.iter().any(|e| e.kind == kind && e.shard == shard) {
            return Err(corrupt("duplicate arena (kind, shard) in snapshot"));
        }
        let pad = self.buf.len().next_multiple_of(ALIGN) - self.buf.len();
        self.buf.extend(std::iter::repeat_n(0u8, pad));
        self.toc.push(TocEntry {
            kind,
            shard,
            off: self.buf.len() as u64,
            len: bytes.len() as u64,
        });
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Seal the snapshot: append the TOC, then fill in the header
    /// (lengths, checksum) and return the complete file image.
    #[must_use]
    pub fn finish(mut self) -> Vec<u8> {
        // The TOC sits at the end, 8-aligned so future readers could
        // view it in place as well.
        let pad = self.buf.len().next_multiple_of(8) - self.buf.len();
        self.buf.extend(std::iter::repeat_n(0u8, pad));
        let toc_off = self.buf.len() as u64;
        for e in &self.toc {
            self.buf.extend_from_slice(&e.kind.to_le_bytes());
            self.buf.extend_from_slice(&e.shard.to_le_bytes());
            self.buf.extend_from_slice(&e.off.to_le_bytes());
            self.buf.extend_from_slice(&e.len.to_le_bytes());
        }
        let file_len = self.buf.len() as u64;
        {
            let h = &mut self.buf[..HEADER_LEN];
            h[0..8].copy_from_slice(MAGIC);
            h[8..10].copy_from_slice(&VERSION.to_le_bytes());
            h[10..12].copy_from_slice(&ENDIAN_MARK.to_le_bytes());
            h[12..16].copy_from_slice(&self.flags.to_le_bytes());
            h[16..24].copy_from_slice(&file_len.to_le_bytes());
            h[32..40].copy_from_slice(&toc_off.to_le_bytes());
            h[40..48].copy_from_slice(&(self.toc.len() as u64).to_le_bytes());
            // h[48..64] stays reserved zeros.
        }
        // Last: the checksum covers every other header field too.
        let checksum = image_checksum(&self.buf);
        self.buf[24..32].copy_from_slice(&checksum.to_le_bytes());
        self.buf
    }

    /// [`ArenaWriter::finish`] + write the image to `path`.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on any filesystem failure.
    pub fn write_file(self, path: &Path) -> Result<u64> {
        let image = self.finish();
        std::fs::write(path, &image).map_err(|e| io_err(path, &e))?;
        Ok(image.len() as u64)
    }
}

/// An owned snapshot image whose base address is 8-byte aligned (the
/// strictest alignment [`view`] serves), backed by a `u64` allocation.
/// `Vec<u8>` from `std::fs::read` guarantees nothing about alignment;
/// copying once into word storage makes every arena view alignment
/// check pass deterministically rather than by allocator luck.
#[derive(Debug)]
pub struct SnapshotBytes {
    words: Vec<u64>,
    len: usize,
}

impl SnapshotBytes {
    /// Copy `bytes` into aligned storage.
    #[must_use]
    pub fn from_slice(bytes: &[u8]) -> Self {
        let mut words = vec![0u64; bytes.len().div_ceil(8)];
        for (w, chunk) in words.iter_mut().zip(bytes.chunks(8)) {
            let mut tmp = [0u8; 8];
            tmp[..chunk.len()].copy_from_slice(chunk);
            // from_ne_bytes: the word's in-memory representation equals
            // the original byte sequence on every host endianness.
            *w = u64::from_ne_bytes(tmp);
        }
        Self { words, len: bytes.len() }
    }

    /// Read a snapshot file into aligned storage.
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on any filesystem failure.
    pub fn read_file(path: &Path) -> Result<Self> {
        use std::io::Read;
        // Streamed through a small buffer straight into the word
        // storage: the image is held once, not once as the bytes
        // `fs::read` returns and once more as their aligned copy.
        let mut file = std::fs::File::open(path).map_err(|e| io_err(path, &e))?;
        let size = file.metadata().map_err(|e| io_err(path, &e))?.len();
        let mut words = Vec::with_capacity(usize::try_from(size).unwrap_or(0).div_ceil(8));
        let mut buf = vec![0u8; 1 << 16];
        let mut len = 0usize;
        loop {
            // Fill the buffer — short reads are legal — or reach the end
            // of the file, the only place a partial word can occur.
            let mut held = 0usize;
            while held < buf.len() {
                match file.read(&mut buf[held..]) {
                    Ok(0) => break,
                    Ok(got) => held += got,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(io_err(path, &e)),
                }
            }
            len += held;
            buf[held..].fill(0);
            words.extend(buf[..held.div_ceil(8) * 8].chunks_exact(8).map(|c| {
                let mut word = [0u8; 8];
                word.copy_from_slice(c);
                // from_ne_bytes: as in `from_slice`.
                u64::from_ne_bytes(word)
            }));
            if held < buf.len() {
                return Ok(Self { words, len });
            }
        }
    }

    /// The snapshot image as bytes (8-byte-aligned base address).
    #[must_use]
    pub fn bytes(&self) -> &[u8] {
        debug_assert!(self.len <= self.words.len() * 8);
        // SAFETY: the backing `words` allocation holds `words.len() * 8`
        // bytes and `self.len <= words.len() * 8` by construction, so
        // all `len` bytes are in bounds of the same allocation; `u8` has
        // alignment 1, and the borrow ties the view's lifetime to the
        // allocation.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// A parsed, integrity-checked view over a snapshot image. Borrows the
/// underlying bytes — arena lookups return sub-slices, no copies.
#[derive(Debug)]
pub struct SnapshotView<'a> {
    data: &'a [u8],
    flags: u32,
    toc: Vec<TocEntry>,
}

fn read_u16(data: &[u8], at: usize) -> u16 {
    let mut b = [0u8; 2];
    b.copy_from_slice(&data[at..at + 2]);
    u16::from_le_bytes(b)
}

fn read_u32(data: &[u8], at: usize) -> u32 {
    let mut b = [0u8; 4];
    b.copy_from_slice(&data[at..at + 4]);
    u32::from_le_bytes(b)
}

fn read_u64(data: &[u8], at: usize) -> u64 {
    let mut b = [0u8; 8];
    b.copy_from_slice(&data[at..at + 8]);
    u64::from_le_bytes(b)
}

impl<'a> SnapshotView<'a> {
    /// Validate the container and index its TOC.
    ///
    /// Checks, in order: header presence, magic, version, endianness
    /// mark, recorded vs. actual file length, payload checksum, TOC
    /// bounds, and — per entry — arena alignment and bounds plus
    /// `(kind, shard)` uniqueness.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] describing the first violated rule.
    pub fn parse(data: &'a [u8]) -> Result<Self> {
        if data.len() < HEADER_LEN {
            return Err(corrupt("snapshot shorter than its header"));
        }
        if &data[0..8] != MAGIC {
            return Err(corrupt("bad snapshot magic"));
        }
        if read_u16(data, 8) != VERSION {
            return Err(corrupt("unsupported snapshot version"));
        }
        if read_u16(data, 10) != ENDIAN_MARK {
            return Err(corrupt("snapshot endianness mark mismatch"));
        }
        let flags = read_u32(data, 12);
        if read_u64(data, 16) != data.len() as u64 {
            return Err(corrupt("snapshot length does not match header"));
        }
        if read_u64(data, 24) != image_checksum(data) {
            return Err(corrupt("snapshot checksum mismatch"));
        }
        let toc_off = usize::try_from(read_u64(data, 32))
            .map_err(|_| corrupt("snapshot TOC offset overflows"))?;
        let toc_count = usize::try_from(read_u64(data, 40))
            .map_err(|_| corrupt("snapshot TOC count overflows"))?;
        let toc_bytes = toc_count
            .checked_mul(TOC_ENTRY_LEN)
            .ok_or_else(|| corrupt("snapshot TOC count overflows"))?;
        // The TOC is written last and must end exactly at end-of-file.
        if toc_off < HEADER_LEN || toc_off.checked_add(toc_bytes) != Some(data.len()) {
            return Err(corrupt("snapshot TOC out of bounds"));
        }
        let mut toc = Vec::with_capacity(toc_count);
        for i in 0..toc_count {
            let at = toc_off + i * TOC_ENTRY_LEN;
            let e = TocEntry {
                kind: read_u32(data, at),
                shard: read_u32(data, at + 4),
                off: read_u64(data, at + 8),
                len: read_u64(data, at + 16),
            };
            let off = usize::try_from(e.off).map_err(|_| corrupt("arena offset overflows"))?;
            let len = usize::try_from(e.len).map_err(|_| corrupt("arena length overflows"))?;
            if off % ALIGN != 0 {
                return Err(corrupt("arena offset not 64-byte aligned"));
            }
            if off < HEADER_LEN || off.checked_add(len).is_none_or(|end| end > toc_off) {
                return Err(corrupt("arena extends outside the snapshot payload"));
            }
            if toc[..i].iter().any(|p: &TocEntry| p.kind == e.kind && p.shard == e.shard) {
                return Err(corrupt("duplicate arena (kind, shard) in snapshot"));
            }
            toc.push(e);
        }
        Ok(Self { data, flags, toc })
    }

    /// Consumer-defined header flags.
    #[must_use]
    pub fn flags(&self) -> u32 {
        self.flags
    }

    /// All TOC entries, file order.
    #[must_use]
    pub fn toc(&self) -> &[TocEntry] {
        &self.toc
    }

    /// The arena `(kind, shard)` if present.
    #[must_use]
    pub fn arena_opt(&self, kind: u32, shard: u32) -> Option<&'a [u8]> {
        let e = self.toc.iter().find(|e| e.kind == kind && e.shard == shard)?;
        // `parse` checked off/len fit in usize and lie inside the file.
        let off = e.off as usize;
        let len = e.len as usize;
        Some(&self.data[off..off + len])
    }

    /// The arena `(kind, shard)`, required.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] when the arena is absent.
    pub fn arena(&self, kind: u32, shard: u32) -> Result<&'a [u8]> {
        self.arena_opt(kind, shard).ok_or_else(|| corrupt("required arena missing from snapshot"))
    }
}

/// Append `vals` to `out` as little-endian `f64` bytes (writer-side
/// companion of [`view::f64s`]).
pub fn put_f64s(out: &mut Vec<u8>, vals: impl IntoIterator<Item = f64>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append `vals` to `out` as little-endian `u64` bytes.
pub fn put_u64s(out: &mut Vec<u8>, vals: impl IntoIterator<Item = u64>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append `vals` to `out` as little-endian `u32` bytes.
pub fn put_u32s(out: &mut Vec<u8>, vals: impl IntoIterator<Item = u32>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

/// Append `vals` to `out` as little-endian `i32` bytes.
pub fn put_i32s(out: &mut Vec<u8>, vals: impl IntoIterator<Item = i32>) {
    for v in vals {
        out.extend_from_slice(&v.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut w = ArenaWriter::new(0b1);
        w.push_arena(1, 0, b"meta-bytes").unwrap();
        w.push_arena(2, 0, &[0u8; 40]).unwrap();
        w.push_arena(2, 1, b"").unwrap();
        w.finish()
    }

    #[test]
    fn roundtrip_arenas_and_flags() {
        let image = sample();
        let v = SnapshotView::parse(&image).unwrap();
        assert_eq!(v.flags(), 0b1);
        assert_eq!(v.arena(1, 0).unwrap(), b"meta-bytes");
        assert_eq!(v.arena(2, 0).unwrap(), &[0u8; 40]);
        assert_eq!(v.arena(2, 1).unwrap(), b"");
        assert!(v.arena_opt(9, 0).is_none());
        assert!(v.arena(9, 0).is_err());
    }

    #[test]
    fn arenas_are_aligned() {
        let image = sample();
        let v = SnapshotView::parse(&image).unwrap();
        for e in v.toc() {
            assert_eq!(e.off % ALIGN as u64, 0, "{e:?}");
        }
    }

    #[test]
    fn duplicate_arena_is_rejected_at_write_time() {
        let mut w = ArenaWriter::new(0);
        w.push_arena(1, 0, b"a").unwrap();
        assert!(w.push_arena(1, 0, b"b").is_err());
    }

    #[test]
    fn empty_snapshot_parses() {
        let image = ArenaWriter::new(0).finish();
        let v = SnapshotView::parse(&image).unwrap();
        assert!(v.toc().is_empty());
    }

    #[test]
    fn snapshot_bytes_roundtrip_and_alignment() {
        let image = sample();
        let owned = SnapshotBytes::from_slice(&image);
        assert_eq!(owned.bytes(), &image[..]);
        assert_eq!(owned.bytes().as_ptr().align_offset(8), 0);
        let v = SnapshotView::parse(owned.bytes()).unwrap();
        assert_eq!(v.arena(1, 0).unwrap(), b"meta-bytes");
    }

    #[test]
    fn file_roundtrip() {
        let path = sapla_core::temp::TempPath::new("sapla-store-roundtrip", ".snap");
        let mut w = ArenaWriter::new(7);
        w.push_arena(3, 2, b"payload").unwrap();
        let written = w.write_file(path.path()).unwrap();
        let owned = SnapshotBytes::read_file(path.path()).unwrap();
        assert_eq!(owned.bytes().len() as u64, written);
        let v = SnapshotView::parse(owned.bytes()).unwrap();
        assert_eq!(v.flags(), 7);
        assert_eq!(v.arena(3, 2).unwrap(), b"payload");
    }

    #[test]
    fn read_file_streams_any_length_byte_for_byte() {
        // Around the read buffer's size and off the word size: the
        // streamed copy must equal the bytes on disk.
        for len in [0usize, 1, 7, 8, 9, (1 << 16) - 1, 1 << 16, (1 << 16) + 5, 200_003] {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            let path = sapla_core::temp::TempPath::new("sapla-store-stream", ".bin");
            std::fs::write(&path, &bytes).unwrap();
            let owned = SnapshotBytes::read_file(path.path()).unwrap();
            assert_eq!(owned.bytes(), &bytes[..], "len {len}");
            assert_eq!(owned.bytes().as_ptr().align_offset(8), 0);
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = SnapshotBytes::read_file(Path::new("/nonexistent/sapla.snap")).unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
    }
}
