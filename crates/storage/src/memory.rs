//! Memory accounting.
//!
//! The paper's Figures 2b and 3b plot resident memory of the correlator.
//! We cannot (portably and cheaply) read RSS from inside the process for
//! every variant, and the absolute number would be dominated by the Rust
//! allocator anyway — what matters for reproducing the figures' *shape* is
//! how the number of retained DNS records evolves under each clear-up
//! policy. [`MemoryEstimate`] converts entry counts and string sizes into
//! estimated bytes using fixed per-entry overheads, so the week-long and
//! ablation runs produce comparable memory curves.

/// Estimated bytes of hashmap overhead per entry (bucket slot, hashes,
/// `Arc` allocations for the interned strings).
pub const ENTRY_OVERHEAD_BYTES: usize = 96;

/// A running memory estimate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoryEstimate {
    /// Number of stored entries.
    pub entries: usize,
    /// Total payload bytes (key + value string lengths).
    pub payload_bytes: usize,
}

impl MemoryEstimate {
    /// An empty estimate.
    pub fn new() -> Self {
        MemoryEstimate::default()
    }

    /// Account for one entry whose key and value have the given lengths.
    pub fn add_entry(&mut self, key_len: usize, value_len: usize) {
        self.entries += 1;
        self.payload_bytes += key_len + value_len;
    }

    /// Merge another estimate into this one.
    pub fn merge(&mut self, other: MemoryEstimate) {
        self.entries += other.entries;
        self.payload_bytes += other.payload_bytes;
    }

    /// Estimated total bytes.
    pub fn total_bytes(&self) -> usize {
        self.entries * ENTRY_OVERHEAD_BYTES + self.payload_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_entries_and_payload() {
        let mut m = MemoryEstimate::new();
        m.add_entry(15, 30);
        m.add_entry(7, 20);
        assert_eq!(m.entries, 2);
        assert_eq!(m.payload_bytes, 72);
        assert_eq!(m.total_bytes(), 2 * ENTRY_OVERHEAD_BYTES + 72);
    }

    #[test]
    fn merge_combines() {
        let mut a = MemoryEstimate::new();
        a.add_entry(10, 10);
        let mut b = MemoryEstimate::new();
        b.add_entry(5, 5);
        a.merge(b);
        assert_eq!(a.entries, 2);
        assert_eq!(a.payload_bytes, 30);
    }
}
