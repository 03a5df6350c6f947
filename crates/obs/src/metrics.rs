//! Metric primitives: sharded log-bucketed histograms and the bucket
//! scheme they share.
//!
//! The bucketing scheme is shared with `flowdns_stream::latency`: four
//! sub-buckets per power of two across forty octaves, so any quantile
//! estimate errs high by at most one sub-bucket (≤ 12.5%). Values are
//! unitless `u64`s — microseconds for latency histograms, bytes for
//! size histograms; the unit lives in the metric name (`_us`, `_bytes`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Sub-buckets per power of two (quantile error ≤ 1/8).
const SUB_BUCKETS: usize = 4;
/// Octaves covered: 2^40 spans 13 days of microseconds or a terabyte of
/// bytes — beyond any value the pipeline records.
const OCTAVES: usize = 40;
/// Total bucket count of every [`Histogram`].
pub const HISTOGRAM_BUCKETS: usize = OCTAVES * SUB_BUCKETS;

/// Map a value to its bucket index.
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        // The first octave holds 0..SUB_BUCKETS directly.
        return value as usize;
    }
    let octave = 63 - value.leading_zeros() as usize;
    // Top two mantissa bits after the leading one select the sub-bucket.
    let sub = ((value >> (octave - 2)) & 0b11) as usize;
    (SUB_BUCKETS + (octave - 2) * SUB_BUCKETS + sub).min(HISTOGRAM_BUCKETS - 1)
}

/// Upper bound of a bucket — what quantile estimation and the
/// Prometheus `le` labels report, so estimates are conservative.
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let log_index = index - SUB_BUCKETS;
    let octave = log_index / SUB_BUCKETS + 2;
    let sub = (log_index % SUB_BUCKETS) as u64;
    // Buckets in this octave span [2^octave, 2^(octave+1)) in 4 steps.
    (1u64 << octave) + (sub + 1) * (1u64 << (octave - 2)) - 1
}

/// One shard of a histogram: a private cache-line neighborhood for one
/// recording thread.
#[derive(Debug)]
struct HistogramShard {
    buckets: Vec<AtomicU64>,
    sum: AtomicU64,
}

impl HistogramShard {
    fn new() -> Self {
        HistogramShard {
            buckets: (0..HISTOGRAM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum: AtomicU64::new(0),
        }
    }

    fn record(&self, value: u64) {
        // ordering: a snapshot derives its count from the bucket totals
        // themselves (there is no separate count field that could race
        // ahead of the buckets), so relaxed increments cannot produce an
        // incoherent snapshot — at worst a scrape misses in-flight
        // records, which Prometheus-style sampling tolerates.
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // ordering: same stats-only argument as the bucket add above.
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

/// A log-bucketed histogram with sharded recording and merge-on-read.
///
/// Create one shard per recording thread and hand each thread its own
/// pre-allocated [`HistogramRecorder`]: recording is then two relaxed
/// `fetch_add`s to memory no other thread writes. [`Histogram::snapshot`]
/// merges all shards into one [`HistogramSnapshot`].
#[derive(Debug, Clone)]
pub struct Histogram {
    shards: Arc<Vec<HistogramShard>>,
}

impl Histogram {
    /// A histogram with `shards` recording shards (at least one).
    pub fn new(shards: usize) -> Self {
        Histogram {
            shards: Arc::new((0..shards.max(1)).map(|_| HistogramShard::new()).collect()),
        }
    }

    /// The recorder for shard `worker % shards` — pre-allocate one per
    /// worker thread before spawning it.
    pub fn recorder(&self, worker: usize) -> HistogramRecorder {
        HistogramRecorder {
            shards: Arc::clone(&self.shards),
            index: worker % self.shards.len(),
        }
    }

    /// Merge all shards into an owned snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for shard in self.shards.iter() {
            for (merged, bucket) in buckets.iter_mut().zip(&shard.buckets) {
                *merged += bucket.load(Ordering::Relaxed);
            }
            sum += shard.sum.load(Ordering::Relaxed);
        }
        HistogramSnapshot { buckets, sum }
    }
}

/// A per-worker handle recording into one histogram shard.
#[derive(Debug, Clone)]
pub struct HistogramRecorder {
    shards: Arc<Vec<HistogramShard>>,
    index: usize,
}

impl HistogramRecorder {
    /// Record one value.
    pub fn record(&self, value: u64) {
        self.shards[self.index].record(value);
    }
}

/// An owned, merged copy of a histogram's counters with quantile
/// estimation. `Default` is the empty distribution.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts (empty for the `Default` snapshot).
    pub buckets: Vec<u64>,
    /// Sum of all recorded values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Total values recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value (0 when empty).
    pub fn mean(&self) -> f64 {
        let count = self.count();
        if count == 0 {
            0.0
        } else {
            self.sum as f64 / count as f64
        }
    }

    /// Estimate the `q`-quantile (0.0–1.0): the upper bound of the
    /// bucket holding the q·count-th value, erring high by at most one
    /// sub-bucket (≤ 12.5%). Returns 0 for an empty distribution.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                return bucket_upper_bound(index);
            }
        }
        bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile estimate.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn buckets_are_monotone_and_cover_the_range() {
        let mut last = 0;
        for v in [0u64, 1, 3, 4, 7, 8, 100, 1_000, 65_536, 10_000_000] {
            let idx = bucket_index(v);
            assert!(idx >= last, "bucket index regressed at {v}");
            assert!(bucket_upper_bound(idx) >= v, "upper bound below value");
            last = idx;
        }
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
        // Upper bounds are strictly increasing — the le="..." ladder of
        // the Prometheus exposition depends on it.
        for i in 1..HISTOGRAM_BUCKETS {
            assert!(bucket_upper_bound(i) > bucket_upper_bound(i - 1));
        }
    }

    #[test]
    fn quantiles_estimate_within_a_sub_bucket() {
        let hist = Histogram::new(2);
        let rec = hist.recorder(1);
        for v in 1..=1000u64 {
            rec.record(v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count(), 1000);
        assert!((450..=650).contains(&snap.p50()), "p50 {}", snap.p50());
        assert!((900..=1150).contains(&snap.p99()), "p99 {}", snap.p99());
        assert!(snap.p999() >= snap.p99());
        assert!((snap.mean() - 500.5).abs() < 1.0);
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(Histogram::new(1).snapshot().p50(), 0);
    }

    proptest! {
        /// Concurrent sharded recording never loses counts: the merged
        /// snapshot's total equals the number of records issued and the
        /// merged sum equals the sum of all recorded values.
        #[test]
        fn concurrent_recording_is_lossless(
            values in proptest::collection::vec(0u64..1_000_000, 1..400),
            threads in 1usize..5,
        ) {
            let hist = Histogram::new(threads);
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let rec = hist.recorder(t);
                    let values = values.clone();
                    std::thread::spawn(move || {
                        for v in values {
                            rec.record(v);
                        }
                    })
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
            let snap = hist.snapshot();
            prop_assert_eq!(snap.count(), (values.len() * threads) as u64);
            let expected_sum: u64 = values.iter().sum::<u64>() * threads as u64;
            prop_assert_eq!(snap.sum, expected_sum);
        }
    }
}
