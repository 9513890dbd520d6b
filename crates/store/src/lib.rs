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
//! Everything is little-endian. `checksum` ([`image_checksum`]) is a
//! four-lane word-wise FNV-1a over every byte of the file except the
//! checksum field itself (header fields, arenas, padding, and TOC), so
//! any single bit flip anywhere is caught before a single arena is
//! interpreted — at memory speed, not one multiply per byte. Loading
//! never decodes records: [`SnapshotView::parse`] validates the
//! container (magic, version, endianness mark, length, checksum, TOC
//! bounds, arena alignment) and then hands out borrowed byte slices
//! that [`view`] reinterprets as typed slices after alignment/length
//! checks. Every failure is an [`Error`] — corrupt input never panics.
//!
//! Version 2 (this one) differs from version 1 in the checksum and in
//! the order `sapla-index` writes its raw-sample arena; a version 1
//! file is refused (`unsupported snapshot version`), not converted.

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
const VERSION: u16 = 2;
/// Byte-order mark, always written little-endian: a byte-swapped
/// writer's output reads back as `0xFFFE` and is rejected.
const ENDIAN_MARK: u16 = 0xFEFF;

fn corrupt(reason: &'static str) -> Error {
    Error::CorruptIndex { reason }
}

fn io_err(path: &Path, e: &std::io::Error) -> Error {
    Error::Io { path: path.display().to_string(), message: e.to_string() }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Checksum lanes: word `j` of the covered bytes feeds lane `j % LANES`,
/// so four multiplies are in flight instead of one.
const LANES: usize = 4;

/// One FNV-1a step over a whole word. For a fixed `word` this is a
/// bijection of `h` (xor, then a multiply by an odd constant), and for
/// a fixed `h` a bijection of `word` — which is why no single changed
/// word can leave the sum unchanged.
#[inline]
fn fnv_step(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// The container checksum, over the whole image except the checksum
/// field itself (header bytes 24..32), so header corruption — flags
/// included — is caught too.
///
/// Defined to the bit (DESIGN.md §"On-disk layout" repeats this for
/// external tooling): let `B` be `image[..24]` followed by `image[32..]`,
/// zero-padded to a multiple of eight bytes, and `w_j` its `j`-th
/// little-endian 64-bit word. Four lanes start at the FNV-1a offset
/// basis `0xcbf29ce484222325`; word `w_j` updates lane `j mod 4` by
/// `lane ← (lane xor w_j) · 0x100000001b3 (mod 2^64)`. The sum is the
/// same step applied, from the offset basis again, to lane 0, 1, 2, 3
/// and finally to `image.len()`. Words are decoded from bytes, so the
/// sum depends neither on the slice's base alignment nor on the host's
/// byte order. Not cryptographic; it exists to catch torn writes and
/// bit rot, not adversaries.
///
/// Public so corruption tests and external tooling can re-seal
/// deliberately mutated images; `image` must be at least [`HEADER_LEN`]
/// bytes.
///
/// # Panics
///
/// On images shorter than [`HEADER_LEN`] (slicing) — callers hold a
/// full header by construction.
#[must_use]
pub fn image_checksum(image: &[u8]) -> u64 {
    // A full header is there, so the first four covered words are the
    // three before the checksum field and the one after it: one per
    // lane, and `image[40..]` starts at lane 0 again.
    let [mut a, mut b, mut c, mut d] =
        [0, 8, 16, 32].map(|at| fnv_step(FNV_OFFSET, read_u64(image, at)));
    let (words, tail) = image[40..].as_chunks::<8>();
    let (blocks, rest) = words.as_chunks::<LANES>();
    // The bulk: four independent multiply chains per 32-byte block. The
    // lanes are four scalar locals on purpose: kept in an array across
    // this loop, LLVM packs them into SSE2 registers, where a 64-bit
    // multiply is emulated (measured 2.7 GB/s against 5.5).
    for [w0, w1, w2, w3] in blocks {
        a = fnv_step(a, u64::from_le_bytes(*w0));
        b = fnv_step(b, u64::from_le_bytes(*w1));
        c = fnv_step(c, u64::from_le_bytes(*w2));
        d = fnv_step(d, u64::from_le_bytes(*w3));
    }
    // What is left is shorter than a block — up to three whole words
    // and a partial one, zero-padded: one per lane, in order.
    let mut padded = [0u8; 8];
    padded[..tail.len()].copy_from_slice(tail);
    let last = rest.iter().chain((!tail.is_empty()).then_some(&padded));
    for (lane, word) in [&mut a, &mut b, &mut c, &mut d].into_iter().zip(last) {
        *lane = fnv_step(*lane, u64::from_le_bytes(*word));
    }
    [a, b, c, d, image.len() as u64].into_iter().fold(FNV_OFFSET, fnv_step)
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
    /// bits; `sapla-index` writes none and refuses bit 0, which its
    /// retired lossy image format set).
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
        self.push_with(kind, shard, |buf| buf.extend_from_slice(bytes))
    }

    /// [`ArenaWriter::push_arena`] for an arena of `f64`s, encoded
    /// straight into the image — no staging buffer (reader side:
    /// [`view::f64s`]).
    ///
    /// # Errors
    ///
    /// As [`ArenaWriter::push_arena`].
    pub fn push_f64s(
        &mut self,
        kind: u32,
        shard: u32,
        vals: impl IntoIterator<Item = f64>,
    ) -> Result<()> {
        self.push_with(kind, shard, |buf| put_f64s(buf, vals))
    }

    /// [`ArenaWriter::push_f64s`] for `u64`s (reader side:
    /// [`view::u64s`]).
    ///
    /// # Errors
    ///
    /// As [`ArenaWriter::push_arena`].
    pub fn push_u64s(
        &mut self,
        kind: u32,
        shard: u32,
        vals: impl IntoIterator<Item = u64>,
    ) -> Result<()> {
        self.push_with(kind, shard, |buf| put_u64s(buf, vals))
    }

    /// Pad to [`ALIGN`], let `fill` append the payload to the image,
    /// and record what it appended in the TOC.
    fn push_with(&mut self, kind: u32, shard: u32, fill: impl FnOnce(&mut Vec<u8>)) -> Result<()> {
        if self.toc.iter().any(|e| e.kind == kind && e.shard == shard) {
            return Err(corrupt("duplicate arena (kind, shard) in snapshot"));
        }
        self.buf.resize(self.buf.len().next_multiple_of(ALIGN), 0);
        let off = self.buf.len();
        fill(&mut self.buf);
        self.toc.push(TocEntry {
            kind,
            shard,
            off: off as u64,
            len: (self.buf.len() - off) as u64,
        });
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

    /// [`ArenaWriter::finish`] + [`write_image_file`].
    ///
    /// # Errors
    ///
    /// [`Error::Io`] on any filesystem failure.
    pub fn write_file(self, path: &Path) -> Result<u64> {
        write_image_file(path, &self.finish())
    }
}

/// Distinguishes the temporary files of concurrent
/// [`write_image_file`] calls within one process.
static TEMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);

/// Write a finished snapshot `image` to `path` **atomically**: the
/// bytes go to a sibling temporary file that is then renamed over
/// `path`, so a concurrent reader — a daemon re-reading its index file
/// on `reload` — sees the old file or the new one, never a torn mix.
/// Returns the image length. The rename makes the write atomic for
/// readers, not durable across a power loss (nothing is `fsync`ed; a
/// snapshot is rebuildable, and its checksum refuses a torn survivor).
///
/// # Errors
///
/// [`Error::Io`] on any filesystem failure; the temporary file is
/// removed again and `path` is left as it was.
pub fn write_image_file(path: &Path, image: &[u8]) -> Result<u64> {
    let seq = TEMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".tmp-{}-{seq}", std::process::id()));
    let temp = path.with_file_name(name);
    std::fs::write(&temp, image).and_then(|()| std::fs::rename(&temp, path)).map_err(|e| {
        let _ = std::fs::remove_file(&temp);
        io_err(path, &e)
    })?;
    Ok(image.len() as u64)
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
    #[inline]
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

    /// Where the arena `(kind, shard)` lies in the image — for a
    /// consumer that keeps the image alive and borrows the arena from it
    /// beyond this view's lifetime.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] when the arena is absent.
    pub fn arena_range(&self, kind: u32, shard: u32) -> Result<std::ops::Range<usize>> {
        let e = self
            .toc
            .iter()
            .find(|e| e.kind == kind && e.shard == shard)
            .ok_or_else(|| corrupt("required arena missing from snapshot"))?;
        // `parse` checked off/len fit in usize and lie inside the file.
        let off = e.off as usize;
        Ok(off..off + e.len as usize)
    }

    /// The arena `(kind, shard)` if present.
    #[must_use]
    pub fn arena_opt(&self, kind: u32, shard: u32) -> Option<&'a [u8]> {
        self.arena(kind, shard).ok()
    }

    /// The arena `(kind, shard)`, required.
    ///
    /// # Errors
    ///
    /// [`Error::CorruptIndex`] when the arena is absent.
    pub fn arena(&self, kind: u32, shard: u32) -> Result<&'a [u8]> {
        self.arena_range(kind, shard).map(|range| &self.data[range])
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

    /// The checksum exactly as its documentation words it.
    fn checksum_by_the_book(image: &[u8]) -> u64 {
        let mut covered = [&image[..24], &image[32..]].concat();
        covered.resize(covered.len().next_multiple_of(8), 0);
        let mut lanes = [FNV_OFFSET; 4];
        for (j, word) in covered.chunks_exact(8).enumerate() {
            let word = u64::from_le_bytes(word.try_into().unwrap());
            lanes[j % 4] = (lanes[j % 4] ^ word).wrapping_mul(FNV_PRIME);
        }
        let mut sum = FNV_OFFSET;
        for v in lanes.into_iter().chain([image.len() as u64]) {
            sum = (sum ^ v).wrapping_mul(FNV_PRIME);
        }
        sum
    }

    /// A sealed image followed by up to a block and a half of extra
    /// bytes: every remainder the lane loop can be left with.
    fn ragged_images() -> impl Iterator<Item = Vec<u8>> {
        (0..48usize).map(|extra| {
            let mut image = sample();
            image.extend((0..extra).map(|i| (i * 37 + 11) as u8));
            image
        })
    }

    #[test]
    fn checksum_matches_its_specification_at_every_remainder() {
        for image in ragged_images() {
            assert_eq!(image_checksum(&image), checksum_by_the_book(&image), "{}", image.len());
        }
        let bare = ArenaWriter::new(0).finish();
        assert_eq!(bare.len(), HEADER_LEN);
        assert_eq!(image_checksum(&bare), checksum_by_the_book(&bare));
    }

    #[test]
    fn checksum_is_independent_of_base_alignment() {
        for image in ragged_images() {
            let mut shifted = vec![0u8; image.len() + 1];
            shifted[1..].copy_from_slice(&image);
            let aligned = SnapshotBytes::from_slice(&image);
            let off_by_one = SnapshotBytes::from_slice(&shifted);
            assert_eq!(
                image_checksum(aligned.bytes()),
                image_checksum(&off_by_one.bytes()[1..]),
                "{}",
                image.len()
            );
        }
    }

    #[test]
    fn checksum_sees_words_swapped_within_a_lane_and_across_lanes() {
        let mut w = ArenaWriter::new(0);
        w.push_u64s(1, 0, (1..=16u64).map(|i| i * 0x0101_0101_0101_0101)).unwrap();
        let image = w.finish();
        let base = image_checksum(&image);
        // Words 8 bytes apart feed neighbouring lanes, words 32 bytes
        // apart the same lane.
        for (i, j) in [(64, 72), (64, 96), (72, 168)] {
            let mut swapped = image.clone();
            for k in 0..8 {
                swapped.swap(i + k, j + k);
            }
            assert_ne!(image_checksum(&swapped), base, "words at {i} and {j}");
        }
    }

    #[test]
    fn a_version_1_header_is_refused_even_when_resealed() {
        let mut image = sample();
        image[8..10].copy_from_slice(&1u16.to_le_bytes());
        let sum = image_checksum(&image).to_le_bytes();
        image[24..32].copy_from_slice(&sum);
        let err = SnapshotView::parse(&image).unwrap_err();
        assert_eq!(err, corrupt("unsupported snapshot version"));
    }

    #[test]
    fn typed_pushes_write_what_the_staged_encoders_write() {
        let (floats, words) = ([1.5, -0.0, f64::MIN_POSITIVE], [7u64, 0, u64::MAX]);
        let mut typed = ArenaWriter::new(3);
        typed.push_f64s(1, 0, floats).unwrap();
        typed.push_u64s(2, 0, words).unwrap();
        assert!(typed.push_f64s(1, 0, floats).is_err(), "duplicate (kind, shard)");
        let mut staged = ArenaWriter::new(3);
        let mut bytes = Vec::new();
        put_f64s(&mut bytes, floats);
        staged.push_arena(1, 0, &bytes).unwrap();
        bytes.clear();
        put_u64s(&mut bytes, words);
        staged.push_arena(2, 0, &bytes).unwrap();
        let image = typed.finish();
        assert_eq!(image, staged.finish());
        let v = SnapshotView::parse(&image).unwrap();
        assert_eq!(&image[v.arena_range(2, 0).unwrap()], v.arena(2, 0).unwrap());
        assert!(v.arena_range(9, 0).is_err());
    }

    #[test]
    fn write_image_file_replaces_the_target_and_leaves_no_temporary() {
        let dir = sapla_core::temp::TempPath::new("sapla-store-atomic", "");
        std::fs::create_dir(&dir).unwrap();
        let path = dir.path().join("index.snap");
        let first = sample();
        let second = ArenaWriter::new(0).finish();
        assert_eq!(write_image_file(&path, &first).unwrap(), first.len() as u64);
        assert_eq!(write_image_file(&path, &second).unwrap(), second.len() as u64);
        assert_eq!(std::fs::read(&path).unwrap(), second);
        let names: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().file_name()).collect();
        assert_eq!(names, ["index.snap"], "only the target is left behind");
        // A failed write reports the target and leaves no temporary.
        let err = write_image_file(&dir.path().join("missing/index.snap"), &first).unwrap_err();
        assert!(matches!(err, Error::Io { .. }));
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
