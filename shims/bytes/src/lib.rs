//! Offline stand-in for the `bytes` crate.
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors a minimal API-compatible shim. [`BytesMut`] is a
//! growable byte buffer backed by `Vec<u8>` with a logical read offset,
//! so `advance` is O(1) amortized (the front is reclaimed lazily) rather
//! than the real crate's refcounted slices. Big-endian
//! `put_*` writers match the real `BufMut` defaults.

use std::ops::{Deref, DerefMut};

/// Read cursor over a contiguous byte region.
pub trait Buf {
    /// Bytes remaining to read.
    fn remaining(&self) -> usize;
    /// Discard the next `n` readable bytes.
    fn advance(&mut self, n: usize);
    /// The readable region.
    fn chunk(&self) -> &[u8];
}

/// Append-only writer of big-endian scalars and byte slices.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a big-endian u16.
    fn put_u16(&mut self, v: u16) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u32.
    fn put_u32(&mut self, v: u32) {
        self.put_slice(&v.to_be_bytes());
    }

    /// Append a big-endian u64.
    fn put_u64(&mut self, v: u64) {
        self.put_slice(&v.to_be_bytes());
    }
}

/// A growable byte buffer with an O(1)-amortized consumable front.
#[derive(Clone, Default, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Start of the readable region within `data`.
    head: usize,
}

impl BytesMut {
    /// A new empty buffer.
    pub fn new() -> Self {
        BytesMut::default()
    }

    /// A new empty buffer with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
            head: 0,
        }
    }

    /// Readable bytes currently in the buffer.
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }

    /// Is the readable region empty?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append raw bytes to the back of the buffer.
    pub fn extend_from_slice(&mut self, src: &[u8]) {
        self.reclaim_if_large();
        self.data.extend_from_slice(src);
    }

    /// Clear the buffer without releasing its allocation.
    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }

    /// Copy the readable region into a standalone `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.chunk().to_vec()
    }

    /// Drop the consumed front when it dominates the allocation, keeping
    /// `advance` O(1) amortized.
    fn reclaim_if_large(&mut self) {
        if self.head > 4096 && self.head * 2 >= self.data.len() {
            self.data.drain(..self.head);
            self.head = 0;
        }
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance out of bounds");
        self.head += n;
        self.reclaim_if_large();
    }

    fn chunk(&self) -> &[u8] {
        &self.data[self.head..]
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

impl Deref for BytesMut {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.data[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl PartialEq for BytesMut {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl PartialEq<[u8]> for BytesMut {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl From<&[u8]> for BytesMut {
    fn from(src: &[u8]) -> Self {
        BytesMut {
            data: src.to_vec(),
            head: 0,
        }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(data: Vec<u8>) -> Self {
        BytesMut { data, head: 0 }
    }
}

impl Extend<u8> for BytesMut {
    fn extend<I: IntoIterator<Item = u8>>(&mut self, iter: I) {
        self.data.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_writes_big_endian() {
        let mut b = BytesMut::new();
        b.put_u8(0xAB);
        b.put_u16(0x0102);
        b.put_u32(0x03040506);
        b.put_u64(0x0708090A0B0C0D0E);
        assert_eq!(
            &b[..],
            &[0xAB, 1, 2, 3, 4, 5, 6, 7, 8, 9, 0xA, 0xB, 0xC, 0xD, 0xE][..]
        );
    }

    #[test]
    fn advance_consumes_the_front() {
        let mut b = BytesMut::from(&b"hello world"[..]);
        b.advance(6);
        assert_eq!(&b[..], b"world");
        b.advance(3);
        assert_eq!(&b[..], b"ld");
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn indexing_follows_the_read_offset() {
        let mut b = BytesMut::from(&[1u8, 2, 3, 4][..]);
        b.advance(2);
        assert_eq!(b[0], 3);
        b[0] = 9;
        assert_eq!(b.to_vec(), vec![9, 4]);
    }

    #[test]
    fn front_reclaim_keeps_contents() {
        let mut b = BytesMut::new();
        let payload: Vec<u8> = (0..200u32).flat_map(|i| i.to_be_bytes()).collect();
        for _ in 0..100 {
            b.extend_from_slice(&payload);
            b.advance(payload.len() / 2);
        }
        // Only the unconsumed tail remains readable.
        assert_eq!(b.len(), 100 * payload.len() / 2);
    }
}
