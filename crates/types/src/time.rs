//! Simulation time.
//!
//! FlowDNS's clear-up logic is driven by the timestamps *inside* the data
//! records (`d.ts - lastAClearUpTs >= AClearUpInterval` in Algorithm 1),
//! not by wall-clock time. Representing record time as an explicit type
//! keeps the whole pipeline deterministic and unit-testable: a "day of ISP
//! traffic" is simply a stream of records whose [`SimTime`] values span 24
//! simulated hours, regardless of how fast the host machine replays them.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, with microsecond resolution.
///
/// Internally stored as microseconds since an arbitrary epoch (the start of
/// the simulated trace). Negative times are not representable; subtracting
/// a larger time from a smaller one saturates to zero, which matches how
/// the correlator treats out-of-order timestamps (they simply do not
/// advance the clear-up clock).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime {
    micros: u64,
}

impl SimTime {
    /// The zero timestamp (start of the trace).
    pub const ZERO: SimTime = SimTime { micros: 0 };

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimTime {
            micros: secs * 1_000_000,
        }
    }

    /// Construct from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime {
            micros: millis * 1_000,
        }
    }

    /// Construct from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimTime { micros }
    }

    /// Construct from hours (convenience for diurnal profiles).
    pub const fn from_hours(hours: u64) -> Self {
        SimTime::from_secs(hours * 3600)
    }

    /// Whole seconds since the epoch.
    pub const fn as_secs(&self) -> u64 {
        self.micros / 1_000_000
    }

    /// Seconds since the epoch as a float (for plotting / ECDFs).
    pub fn as_secs_f64(&self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(&self) -> u64 {
        self.micros
    }

    /// The simulated hour-of-day (0..24) this timestamp falls in, assuming
    /// the epoch is midnight.
    pub const fn hour_of_day(&self) -> u64 {
        (self.as_secs() / 3600) % 24
    }

    /// The simulated day index this timestamp falls in.
    pub const fn day_index(&self) -> u64 {
        self.as_secs() / 86_400
    }

    /// Saturating difference between two times.
    pub fn saturating_since(&self, earlier: SimTime) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(earlier.micros),
        }
    }

    /// Checked addition of a duration.
    pub fn checked_add(&self, d: SimDuration) -> Option<SimTime> {
        self.micros
            .checked_add(d.micros)
            .map(|micros| SimTime { micros })
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let total = self.as_secs();
        let (d, rem) = (total / 86_400, total % 86_400);
        let (h, rem) = (rem / 3600, rem % 3600);
        let (m, s) = (rem / 60, rem % 60);
        if d > 0 {
            write!(f, "{d}d {h:02}:{m:02}:{s:02}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}")
        }
    }
}

/// A span of simulated time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration {
    micros: u64,
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// Construct from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration {
            micros: secs * 1_000_000,
        }
    }

    /// Construct from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration {
            micros: millis * 1_000,
        }
    }

    /// Construct from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration { micros }
    }

    /// Construct from hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration::from_secs(hours * 3600)
    }

    /// Whole seconds in this duration.
    pub const fn as_secs(&self) -> u64 {
        self.micros / 1_000_000
    }

    /// Seconds as a float.
    pub fn as_secs_f64(&self) -> f64 {
        self.micros as f64 / 1e6
    }

    /// Microseconds in this duration.
    pub const fn as_micros(&self) -> u64 {
        self.micros
    }

    /// Scale the duration by a float factor (used when compressing
    /// simulated time into wall-clock replay time). Saturates at u64::MAX.
    pub fn mul_f64(&self, factor: f64) -> SimDuration {
        let scaled = (self.micros as f64 * factor).max(0.0);
        SimDuration {
            micros: if scaled >= u64::MAX as f64 {
                u64::MAX
            } else {
                scaled as u64
            },
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.micros % 1_000_000 == 0 {
            write!(f, "{}s", self.as_secs())
        } else {
            write!(f, "{:.3}s", self.as_secs_f64())
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime {
            micros: self.micros.saturating_add(rhs.micros),
        }
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros = self.micros.saturating_add(rhs.micros);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.saturating_since(rhs)
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_add(rhs.micros),
        }
    }
}

impl AddAssign<SimDuration> for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.micros = self.micros.saturating_add(rhs.micros);
    }
}

/// A half-open interval of simulated time `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimeRange {
    /// Inclusive start of the range.
    pub start: SimTime,
    /// Exclusive end of the range.
    pub end: SimTime,
}

impl TimeRange {
    /// Build a range; panics if `end < start`.
    pub fn new(start: SimTime, end: SimTime) -> Self {
        assert!(end >= start, "TimeRange end must not precede start");
        TimeRange { start, end }
    }

    /// A range covering `duration` starting at `start`.
    pub fn starting_at(start: SimTime, duration: SimDuration) -> Self {
        TimeRange {
            start,
            end: start + duration,
        }
    }

    /// Does the range contain `t`?
    pub fn contains(&self, t: SimTime) -> bool {
        t >= self.start && t < self.end
    }

    /// Length of the range.
    pub fn duration(&self) -> SimDuration {
        self.end - self.start
    }

    /// Split the range into `n` equal consecutive sub-ranges (the last one
    /// absorbs rounding remainder). Returns an empty vec for `n == 0`.
    pub fn split(&self, n: usize) -> Vec<TimeRange> {
        if n == 0 {
            return Vec::new();
        }
        let total = self.duration().as_micros();
        let step = total / n as u64;
        let mut out = Vec::with_capacity(n);
        let mut cursor = self.start;
        for i in 0..n {
            let end = if i == n - 1 {
                self.end
            } else {
                cursor + SimDuration::from_micros(step)
            };
            out.push(TimeRange { start: cursor, end });
            cursor = end;
        }
        out
    }

    /// Iterate over consecutive windows of `width` covering the range. The
    /// final window is truncated to the range end.
    pub fn windows(&self, width: SimDuration) -> Vec<TimeRange> {
        let mut out = Vec::new();
        if width == SimDuration::ZERO {
            return out;
        }
        let mut cursor = self.start;
        while cursor < self.end {
            let end = (cursor + width).min(self.end);
            out.push(TimeRange { start: cursor, end });
            cursor = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simtime_conversions_are_consistent() {
        let t = SimTime::from_secs(3661);
        assert_eq!(t.as_secs(), 3661);
        assert_eq!(t.as_micros(), 3_661_000_000);
        assert_eq!(t.hour_of_day(), 1);
        assert_eq!(SimTime::from_hours(25).hour_of_day(), 1);
        assert_eq!(SimTime::from_hours(25).day_index(), 1);
    }

    #[test]
    fn simtime_display_formats_days_and_hours() {
        assert_eq!(SimTime::from_secs(59).to_string(), "00:00:59");
        assert_eq!(SimTime::from_secs(86_400 + 3723).to_string(), "1d 01:02:03");
    }

    #[test]
    fn duration_arithmetic_saturates() {
        let a = SimTime::from_secs(10);
        let b = SimTime::from_secs(20);
        assert_eq!((a - b), SimDuration::ZERO);
        assert_eq!((b - a).as_secs(), 10);
        let mut t = a;
        t += SimDuration::from_secs(5);
        assert_eq!(t.as_secs(), 15);
    }

    #[test]
    fn duration_mul_f64_scales_and_saturates() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5).as_secs(), 5);
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_micros(u64::MAX / 2)
                .mul_f64(4.0)
                .as_micros(),
            u64::MAX
        );
    }

    #[test]
    fn range_contains_and_duration() {
        let r = TimeRange::starting_at(SimTime::from_secs(100), SimDuration::from_secs(50));
        assert!(r.contains(SimTime::from_secs(100)));
        assert!(r.contains(SimTime::from_secs(149)));
        assert!(!r.contains(SimTime::from_secs(150)));
        assert_eq!(r.duration().as_secs(), 50);
    }

    #[test]
    fn range_split_covers_whole_range() {
        let r = TimeRange::starting_at(SimTime::ZERO, SimDuration::from_secs(100));
        let parts = r.split(7);
        assert_eq!(parts.len(), 7);
        assert_eq!(parts[0].start, r.start);
        assert_eq!(parts[6].end, r.end);
        for w in parts.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
        assert!(r.split(0).is_empty());
    }

    #[test]
    fn range_windows_truncate_last() {
        let r = TimeRange::starting_at(SimTime::ZERO, SimDuration::from_secs(250));
        let ws = r.windows(SimDuration::from_secs(100));
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[2].duration().as_secs(), 50);
        assert!(r.windows(SimDuration::ZERO).is_empty());
    }

    #[test]
    #[should_panic]
    fn range_rejects_backwards_bounds() {
        TimeRange::new(SimTime::from_secs(10), SimTime::from_secs(5));
    }
}
