//! Traffic volume accounting.
//!
//! The paper never reports absolute byte counts ("all the traffic volume
//! data throughout the paper is normalized"). Analyses accumulate raw
//! [`ByteVolume`]s and only convert to a fraction of a reference total
//! ([`ByteVolume::fraction_of`], [`VolumeAccumulator`]) when reporting, so
//! the harness output has the same shape as the paper's figures.

use std::fmt;
use std::ops::{Add, AddAssign};

/// A raw byte count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ByteVolume(u64);

impl ByteVolume {
    /// Zero bytes.
    pub const ZERO: ByteVolume = ByteVolume(0);

    /// Construct from a byte count.
    pub const fn from_bytes(bytes: u64) -> Self {
        ByteVolume(bytes)
    }

    /// The raw byte count.
    pub const fn bytes(&self) -> u64 {
        self.0
    }

    /// The count in gigabytes (decimal GB).
    pub fn gigabytes(&self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fraction of `total` that this volume represents (0.0 when total is
    /// zero).
    pub fn fraction_of(&self, total: ByteVolume) -> f64 {
        if total.0 == 0 {
            0.0
        } else {
            self.0 as f64 / total.0 as f64
        }
    }

    /// Saturating addition.
    pub fn saturating_add(&self, other: ByteVolume) -> ByteVolume {
        ByteVolume(self.0.saturating_add(other.0))
    }
}

impl Add for ByteVolume {
    type Output = ByteVolume;
    fn add(self, rhs: ByteVolume) -> ByteVolume {
        self.saturating_add(rhs)
    }
}

impl AddAssign for ByteVolume {
    fn add_assign(&mut self, rhs: ByteVolume) {
        *self = self.saturating_add(rhs);
    }
}

impl fmt::Display for ByteVolume {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const UNITS: [(&str, u64); 4] = [
            ("TB", 1_000_000_000_000),
            ("GB", 1_000_000_000),
            ("MB", 1_000_000),
            ("KB", 1_000),
        ];
        for (unit, factor) in UNITS {
            if self.0 >= factor {
                return write!(f, "{:.2} {unit}", self.0 as f64 / factor as f64);
            }
        }
        write!(f, "{} B", self.0)
    }
}

/// Accumulates correlated vs. total traffic, producing the correlation
/// rate the paper reports (81.7% on average).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VolumeAccumulator {
    /// Bytes that were attributed to a domain name.
    pub correlated: ByteVolume,
    /// All bytes seen.
    pub total: ByteVolume,
}

impl VolumeAccumulator {
    /// A fresh accumulator.
    pub fn new() -> Self {
        VolumeAccumulator::default()
    }

    /// Record a flow of `bytes`; `correlated` says whether it was
    /// attributed to a name.
    pub fn record(&mut self, bytes: u64, correlated: bool) {
        let v = ByteVolume::from_bytes(bytes);
        self.total += v;
        if correlated {
            self.correlated += v;
        }
    }

    /// Merge another accumulator into this one.
    pub fn merge(&mut self, other: &VolumeAccumulator) {
        self.correlated += other.correlated;
        self.total += other.total;
    }

    /// The correlation rate in percent (0 when no traffic was seen).
    pub fn correlation_rate_pct(&self) -> f64 {
        self.correlated.fraction_of(self.total) * 100.0
    }
}

impl fmt::Display for VolumeAccumulator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} / {} ({:.1}%)",
            self.correlated,
            self.total,
            self.correlation_rate_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_volume_arithmetic() {
        let a = ByteVolume::from_bytes(1_500);
        let b = ByteVolume::from_bytes(500);
        assert_eq!((a + b).bytes(), 2_000);
        let mut c = a;
        c += b;
        assert_eq!(c.bytes(), 2_000);
        assert_eq!(
            ByteVolume::from_bytes(u64::MAX) + b,
            ByteVolume::from_bytes(u64::MAX)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(ByteVolume::from_bytes(999).to_string(), "999 B");
        assert_eq!(ByteVolume::from_bytes(1_500).to_string(), "1.50 KB");
        assert_eq!(ByteVolume::from_bytes(2_000_000_000).to_string(), "2.00 GB");
        assert_eq!(
            ByteVolume::from_bytes(3_500_000_000_000).to_string(),
            "3.50 TB"
        );
    }

    #[test]
    fn fraction_of_a_reference() {
        let v = ByteVolume::from_bytes(25);
        let reference = ByteVolume::from_bytes(100);
        assert!((v.fraction_of(reference) - 0.25).abs() < 1e-12);
        assert_eq!(v.fraction_of(ByteVolume::ZERO), 0.0);
    }

    #[test]
    fn accumulator_computes_correlation_rate() {
        let mut acc = VolumeAccumulator::new();
        acc.record(800, true);
        acc.record(200, false);
        assert!((acc.correlation_rate_pct() - 80.0).abs() < 1e-9);
        assert_eq!(acc.total.bytes(), 1000);
        assert_eq!(acc.correlated.bytes(), 800);
    }

    #[test]
    fn accumulator_merge() {
        let mut a = VolumeAccumulator::new();
        a.record(100, true);
        let mut b = VolumeAccumulator::new();
        b.record(100, false);
        a.merge(&b);
        assert!((a.correlation_rate_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn empty_accumulator_rate_is_zero() {
        assert_eq!(VolumeAccumulator::new().correlation_rate_pct(), 0.0);
    }
}
