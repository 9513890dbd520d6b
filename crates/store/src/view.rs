//! Checked zero-copy reinterpretation of arena bytes as typed slices.
//!
//! Each view validates length divisibility and pointer alignment, then
//! reborrows the bytes in place — no per-element decode, no copy. The
//! element types are all fixed-size plain-old-data numerics with no
//! invalid bit patterns, so any validated byte pattern is a valid
//! slice. Byte order: snapshots are always written little-endian and
//! the container header carries a byte-order mark, so on the (only
//! supported) little-endian hosts the in-place view reads the stored
//! values directly.

use sapla_core::{Error, Result};

/// Shared implementation: `T` must be a plain-old-data numeric type
/// (every bit pattern valid) — enforced by keeping this private and
/// only instantiating it for `f64`/`u64` below.
#[inline]
fn typed<T: Copy>(bytes: &[u8]) -> Result<&[T]> {
    if bytes.is_empty() {
        // An empty arena views as an empty slice regardless of its base
        // address (a `&[]` literal's dangling pointer is only 1-aligned).
        return Ok(&[]);
    }
    let size = std::mem::size_of::<T>();
    if !bytes.len().is_multiple_of(size) {
        return Err(Error::CorruptIndex { reason: "arena length not a multiple of element size" });
    }
    let ptr = bytes.as_ptr();
    if ptr.align_offset(std::mem::align_of::<T>()) != 0 {
        return Err(Error::CorruptIndex { reason: "misaligned arena view" });
    }
    let n = bytes.len() / size;
    debug_assert!(n * size <= bytes.len());
    // SAFETY: `ptr` points at `bytes`, whose length is exactly `n * size`,
    // so `n` elements of `T` are in bounds of that allocation; alignment
    // was checked above; `T` is restricted to plain-old-data numerics with
    // no invalid bit patterns; the returned slice borrows `bytes`, keeping
    // the allocation alive for the view's lifetime.
    unsafe { Ok(std::slice::from_raw_parts(ptr.cast::<T>(), n)) }
}

/// View an arena as `f64`s.
///
/// # Errors
///
/// [`Error::CorruptIndex`] on length or alignment violations.
#[inline]
pub fn f64s(bytes: &[u8]) -> Result<&[f64]> {
    typed::<f64>(bytes)
}

/// View an arena as `u64`s.
///
/// # Errors
///
/// [`Error::CorruptIndex`] on length or alignment violations.
pub fn u64s(bytes: &[u8]) -> Result<&[u64]> {
    typed::<u64>(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_read_back_written_values() {
        let mut buf = Vec::new();
        crate::put_f64s(&mut buf, [1.5, -2.25, f64::MAX]);
        assert_eq!(f64s(&buf).unwrap(), &[1.5, -2.25, f64::MAX]);
        let mut buf = Vec::new();
        crate::put_u64s(&mut buf, [0, 1, u64::MAX]);
        assert_eq!(u64s(&buf).unwrap(), &[0, 1, u64::MAX]);
    }

    #[test]
    fn ragged_length_is_an_error() {
        let buf = [0u8; 12];
        assert!(f64s(&buf).is_err());
        assert!(u64s(&buf[..7]).is_err());
    }

    #[test]
    fn misaligned_base_is_an_error_not_a_panic() {
        // An 8-byte aligned backing buffer shifted by one byte can never
        // satisfy an 8-byte alignment check.
        let backing = [0u64; 4];
        let base = backing.as_ptr().cast::<u8>();
        // SAFETY: `backing` holds 32 bytes; the [1..25) window (24 bytes)
        // is strictly in bounds of that allocation, and `u8` has
        // alignment 1. The view borrows `backing` for this scope only.
        unsafe {
            let shifted: &[u8] = std::slice::from_raw_parts(base.add(1), 24);
            assert!(f64s(shifted).is_err());
            assert!(u64s(shifted).is_err());
        }
    }

    #[test]
    fn empty_views_are_fine() {
        assert!(f64s(&[]).unwrap().is_empty());
        assert!(u64s(&[]).unwrap().is_empty());
    }
}
