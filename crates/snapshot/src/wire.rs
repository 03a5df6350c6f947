//! Little-endian payload primitives for the snapshot format.
//!
//! Everything in a snapshot payload is built from fixed `u8`/`u32`/`u64`
//! integers, fixed-size byte arrays (an IPv6 key's 16 bytes) and
//! length-prefixed UTF-8 strings (`u32` byte count + bytes). Writers
//! append to a plain `Vec<u8>`; [`Reader`] walks a byte slice with strict
//! bounds checks, so a truncated payload turns into a
//! [`FlowDnsError::Snapshot`] instead of a panic (the checksum catches
//! corruption first in practice, but the decoder must stand on its own).

use std::sync::Arc;

use flowdns_types::FlowDnsError;

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// A bounds-checked cursor over a snapshot payload.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole payload.
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], FlowDnsError> {
        if self.remaining() < n {
            return Err(FlowDnsError::Snapshot(format!(
                "truncated payload: needed {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn u8(&mut self) -> Result<u8, FlowDnsError> {
        Ok(self.take(1)?[0])
    }

    /// Read `N` raw bytes.
    pub fn array<const N: usize>(&mut self) -> Result<[u8; N], FlowDnsError> {
        Ok(self.take(N)?.try_into().expect("N bytes"))
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FlowDnsError> {
        self.array().map(u32::from_le_bytes)
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FlowDnsError> {
        self.array().map(u64::from_le_bytes)
    }

    /// Read a length-prefixed UTF-8 string into one shared allocation,
    /// which a name pool can adopt as it is.
    pub fn str(&mut self) -> Result<Arc<str>, FlowDnsError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes)
            .map(Arc::from)
            .map_err(|_| FlowDnsError::Snapshot("string section is not UTF-8".into()))
    }

    /// Read an element count and sanity-check it against the bytes left:
    /// a payload cannot hold more than `remaining / min_element_bytes`
    /// elements, so a corrupt count fails here instead of triggering a
    /// huge allocation.
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize, FlowDnsError> {
        let count = self.u32()? as usize;
        let cap = self.remaining() / min_element_bytes.max(1);
        if count > cap {
            return Err(FlowDnsError::Snapshot(format!(
                "implausible element count {count} (at most {cap} fit in the remaining payload)"
            )));
        }
        Ok(count)
    }

    /// Assert the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), FlowDnsError> {
        if self.remaining() != 0 {
            return Err(FlowDnsError::Snapshot(format!(
                "{} unexpected trailing bytes after the last section",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u32(&mut buf, 0xdead_beef);
        put_u64(&mut buf, u64::MAX - 1);
        buf.extend_from_slice(&[9; 16]);
        put_str(&mut buf, "edge7.cdn.example.net");
        put_str(&mut buf, "");
        let mut r = Reader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xdead_beef);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.array::<16>().unwrap(), [9; 16]);
        assert_eq!(&*r.str().unwrap(), "edge7.cdn.example.net");
        assert_eq!(&*r.str().unwrap(), "");
        r.finish().unwrap();
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 42);
        let mut r = Reader::new(&buf[..5]);
        assert!(r.u64().is_err());
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut r = Reader::new(&buf[..6]);
        assert!(r.str().is_err());
    }

    #[test]
    fn finish_rejects_leftovers() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 1);
        put_u8(&mut buf, 9);
        let mut r = Reader::new(&buf);
        let _ = r.u32().unwrap();
        assert!(r.finish().is_err());
        let _ = r.u8().unwrap();
        r.finish().unwrap();
    }

    #[test]
    fn implausible_counts_are_rejected_before_allocating() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX); // claims 4 billion elements
        let mut r = Reader::new(&buf);
        assert!(r.count(8).is_err());
        // A plausible count passes.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_u64(&mut buf, 0);
        put_u64(&mut buf, 0);
        let mut r = Reader::new(&buf);
        assert_eq!(r.count(8).unwrap(), 2);
    }

    #[test]
    fn bad_utf8_is_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        buf.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Reader::new(&buf);
        assert!(r.str().is_err());
    }
}
