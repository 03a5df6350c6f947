//! Identifiers for input streams.

use std::fmt;

/// Identifier of one input stream (the large ISP has 2 DNS and 26 NetFlow
/// streams; the small ISP has 1 and 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct StreamId(u16);

impl StreamId {
    /// Build a stream id.
    pub const fn new(id: u16) -> Self {
        StreamId(id)
    }

    /// The numeric index.
    pub const fn index(&self) -> u16 {
        self.0
    }
}

impl fmt::Display for StreamId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "stream#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_id_roundtrip_and_display() {
        let s = StreamId::new(25);
        assert_eq!(s.index(), 25);
        assert_eq!(s.to_string(), "stream#25");
    }
}
