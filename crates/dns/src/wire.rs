//! Bounds-checked big-endian reads for frame payloads.
//!
//! A resolver-feed payload is a run of big-endian integers and
//! length-prefixed byte strings. A tiny cursor with explicit error
//! reporting keeps every read honest about truncation instead of
//! panicking on slicing.

use flowdns_types::FlowDnsError;

/// A read cursor over a byte slice: `rest` is what is left to read.
#[derive(Debug)]
pub(crate) struct Reader<'a> {
    rest: &'a [u8],
}

impl<'a> Reader<'a> {
    /// Wrap a byte slice.
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { rest: buf }
    }

    /// Has the cursor consumed the whole buffer?
    pub(crate) fn is_empty(&self) -> bool {
        self.rest.is_empty()
    }

    /// Read one byte.
    pub(crate) fn read_u8(&mut self) -> Result<u8, FlowDnsError> {
        self.read_array().map(u8::from_be_bytes)
    }

    /// Read a big-endian u16.
    pub(crate) fn read_u16(&mut self) -> Result<u16, FlowDnsError> {
        self.read_array().map(u16::from_be_bytes)
    }

    /// Read a big-endian u32.
    pub(crate) fn read_u32(&mut self) -> Result<u32, FlowDnsError> {
        self.read_array().map(u32::from_be_bytes)
    }

    /// Read a big-endian u64.
    pub(crate) fn read_u64(&mut self) -> Result<u64, FlowDnsError> {
        self.read_array().map(u64::from_be_bytes)
    }

    /// Read `N` raw bytes into an array (an address's octets).
    pub(crate) fn read_array<const N: usize>(&mut self) -> Result<[u8; N], FlowDnsError> {
        let bytes = self.read_bytes(N)?;
        <[u8; N]>::try_from(bytes).map_err(|_| truncated())
    }

    /// Read `n` raw bytes.
    pub(crate) fn read_bytes(&mut self, n: usize) -> Result<&'a [u8], FlowDnsError> {
        if self.rest.len() < n {
            return Err(truncated());
        }
        let (head, tail) = self.rest.split_at(n);
        self.rest = tail;
        Ok(head)
    }
}

fn truncated() -> FlowDnsError {
    FlowDnsError::DnsParse("truncated frame payload".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_big_endian_integers_and_byte_runs() {
        let mut bytes = vec![0xAB];
        bytes.extend_from_slice(&0x1234u16.to_be_bytes());
        bytes.extend_from_slice(&0xDEAD_BEEFu32.to_be_bytes());
        bytes.extend_from_slice(&0x0102_0304_0506_0708u64.to_be_bytes());
        bytes.extend_from_slice(&[9, 9, 9, 7]);
        let mut r = Reader::new(&bytes);
        assert_eq!(r.read_u8().unwrap(), 0xAB);
        assert_eq!(r.read_u16().unwrap(), 0x1234);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), 0x0102_0304_0506_0708);
        assert_eq!(r.read_bytes(3).unwrap(), &[9, 9, 9]);
        assert_eq!(r.read_array::<1>().unwrap(), [7]);
        assert!(r.is_empty());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut r = Reader::new(&[0x01]);
        assert!(r.read_u16().is_err());
        let mut r = Reader::new(&[]);
        assert!(r.read_u8().is_err());
        let mut r = Reader::new(&[1, 2, 3]);
        assert!(r.read_bytes(4).is_err());
        assert!(r.read_array::<4>().is_err());
        assert!(!r.is_empty(), "a failed read consumes nothing");
    }
}
