//! Per-key traffic accounting.
//!
//! Figure 5 plots, per domain category, the cumulative distribution of
//! traffic volume against the number of domain names: sort the category's
//! domains by traffic, then report how many bytes the top-k carry.
//! [`TrafficByKey`] is the accumulator behind that plot.

use std::collections::HashMap;

/// Accumulates bytes per string key.
#[derive(Debug, Clone, Default)]
pub struct TrafficByKey {
    bytes: HashMap<String, u64>,
    total: u64,
}

impl TrafficByKey {
    /// An empty accumulator.
    pub fn new() -> Self {
        TrafficByKey::default()
    }

    /// Add `bytes` to `key`.
    pub fn add(&mut self, key: &str, bytes: u64) {
        *self.bytes.entry(key.to_string()).or_insert(0) += bytes;
        self.total += bytes;
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.bytes.len()
    }

    /// Total bytes across all keys.
    pub fn total_bytes(&self) -> u64 {
        self.total
    }

    /// The keys sorted by descending traffic, with their byte counts.
    fn ranked(&self) -> Vec<(String, u64)> {
        let mut out: Vec<(String, u64)> = self.bytes.iter().map(|(k, v)| (k.clone(), *v)).collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        out
    }

    /// The cumulative series of Figure 5: entry `k` (1-based) is the total
    /// bytes carried by the `k` highest-traffic keys.
    pub fn cumulative_series(&self) -> Vec<u64> {
        let mut acc = 0u64;
        self.ranked()
            .into_iter()
            .map(|(_, bytes)| {
                acc += bytes;
                acc
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TrafficByKey {
        let mut t = TrafficByKey::new();
        t.add("heavy.example", 800);
        t.add("mid.example", 150);
        t.add("light.example", 40);
        t.add("tiny.example", 10);
        t.add("heavy.example", 200); // accumulate
        t
    }

    #[test]
    fn accumulation_and_ranking() {
        let t = sample();
        assert_eq!(t.key_count(), 4);
        assert_eq!(t.total_bytes(), 1200);
        let ranked = t.ranked();
        assert_eq!(ranked[0], ("heavy.example".to_string(), 1000));
        assert_eq!(ranked[3].0, "tiny.example");
    }

    #[test]
    fn cumulative_series_is_monotone_and_ends_at_total() {
        let t = sample();
        let series = t.cumulative_series();
        assert_eq!(series.len(), 4);
        assert_eq!(*series.last().unwrap(), 1200);
        for pair in series.windows(2) {
            assert!(pair[0] <= pair[1]);
        }
        assert_eq!(series[0], 1000); // the single heaviest key
    }
}
