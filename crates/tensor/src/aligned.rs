//! Cache-line-aligned flat buffers for embedding-table storage.
//!
//! Random-access gathers touch one table row per lookup index, so the
//! number of cache lines a row spans is the unit of memory traffic. A
//! plain `Vec`'s large allocations typically start a few bytes past a
//! page boundary (the allocator header), which makes every 64-byte i8
//! row straddle **two** lines and every 256-byte f32 row span five —
//! paying 25–100% more line traffic than the row's byte size. [`Aligned`]
//! over-allocates an ordinary `Vec` by one cache line and starts the
//! payload at the first line boundary inside it, without any `unsafe`:
//! rows whose byte size divides the line size then occupy exactly
//! `row_bytes / 64` lines.
//!
//! Storage is built in place: [`Aligned::zeroed`] hands out a zero-filled
//! buffer (fresh pages from the allocator, so large buffers cost no
//! up-front write) and [`DerefMut`] lets the builder write each element
//! once, into its final position. The padding is recomputed on every
//! construction (and on `clone`, since the new allocation lands somewhere
//! else), so the alignment guarantee survives copies.

use std::ops::{Deref, DerefMut};

/// Cache line size the front padding targets, in bytes.
pub const CACHE_LINE: usize = 64;

/// A flat `[T]` whose first element is 64-byte aligned. Dereferences to
/// the payload slice; the padding is invisible to readers and writers.
///
/// # Examples
///
/// ```
/// use er_tensor::Aligned;
///
/// let mut a = Aligned::<f32>::zeroed(1000);
/// assert_eq!(a.len(), 1000);
/// assert_eq!(a.as_ptr() as usize % 64, 0);
/// a[..3].copy_from_slice(&[1.0, 2.0, 3.0]);
/// assert_eq!(&a[..4], &[1.0, 2.0, 3.0, 0.0]);
/// ```
#[derive(Debug)]
pub struct Aligned<T> {
    buf: Vec<T>,
    off: usize,
    len: usize,
}

impl<T: Copy + Default> Aligned<T> {
    /// A 64-byte-aligned buffer of `len` default (for the storage element
    /// types: zero) elements, to be filled in place through [`DerefMut`].
    ///
    /// # Panics
    ///
    /// Panics if `T`'s size is zero or does not divide the cache line
    /// size (every storage element type — i8, u16, f32 — does).
    pub fn zeroed(len: usize) -> Self {
        let elem = std::mem::size_of::<T>();
        assert!(
            elem > 0 && CACHE_LINE.is_multiple_of(elem),
            "element size must divide the cache line"
        );
        // One spare line covers any misalignment. A zero fill takes the
        // allocator's zeroed-memory path, so a large buffer's pages are
        // first written by whoever fills the payload.
        let buf = vec![T::default(); len + CACHE_LINE / elem];
        // Allocations are elem-aligned, so the byte gap divides evenly.
        let off = (CACHE_LINE - buf.as_ptr() as usize % CACHE_LINE) % CACHE_LINE / elem;
        Self { buf, off, len }
    }

    /// Copies `s` into a fresh 64-byte-aligned buffer.
    ///
    /// # Panics
    ///
    /// Panics if `T`'s size is zero or does not divide the cache line
    /// size.
    pub fn from_slice(s: &[T]) -> Self {
        let mut a = Self::zeroed(s.len());
        a.copy_from_slice(s);
        a
    }
}

impl<T> Deref for Aligned<T> {
    type Target = [T];

    fn deref(&self) -> &[T] {
        &self.buf[self.off..self.off + self.len]
    }
}

impl<T> DerefMut for Aligned<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.buf[self.off..self.off + self.len]
    }
}

impl<T: Copy + Default> Clone for Aligned<T> {
    fn clone(&self) -> Self {
        // The new allocation lands at a different address; re-pad.
        Self::from_slice(self)
    }
}

impl<T: PartialEq> PartialEq for Aligned<T> {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_is_cache_line_aligned() {
        for len in [0usize, 1, 63, 64, 1000, 100_000] {
            let a = Aligned::from_slice(&vec![7i8; len]);
            assert_eq!(a.as_ptr() as usize % CACHE_LINE, 0, "i8 len {len}");
            assert_eq!(&*a, vec![7i8; len].as_slice());
            let b = Aligned::<f32>::zeroed(len);
            assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0, "f32 len {len}");
            assert!(b.iter().all(|&v| v.to_bits() == 0), "f32 len {len}");
            let c = Aligned::from_slice(&vec![9u16; len]);
            assert_eq!(c.as_ptr() as usize % CACHE_LINE, 0, "u16 len {len}");
        }
    }

    #[test]
    fn writes_land_in_the_payload() {
        let mut a = Aligned::<u16>::zeroed(37);
        for (i, v) in a.iter_mut().enumerate() {
            *v = i as u16 * 3;
        }
        let want: Vec<u16> = (0..37).map(|i| i * 3).collect();
        assert_eq!(&*a, want.as_slice());
        assert_eq!(a, Aligned::from_slice(&want));
    }

    #[test]
    fn clone_realigns_and_compares_equal() {
        let a = Aligned::from_slice(&(0..997i32).collect::<Vec<_>>());
        let b = a.clone();
        assert_eq!(b.as_ptr() as usize % CACHE_LINE, 0);
        assert_eq!(a, b);
        assert_eq!(&*a, &*b);
    }

    #[test]
    fn equality_ignores_padding_length() {
        // Two buffers with identical payloads compare equal even though
        // their internal front padding may differ.
        let a = Aligned::from_slice(&[1u16, 2, 3]);
        let b = Aligned::from_slice(&[1u16, 2, 3]);
        let c = Aligned::from_slice(&[1u16, 2, 4]);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
