//! The subscriber-population model behind the workload generator.
//!
//! The paper's deployment numbers (2 DNS streams, 26 NetFlow streams,
//! bounded memory over a week) describe traffic produced by *millions of
//! subscribers* behind a handful of access networks — not a flat event
//! rate. This module models that population explicitly so the streaming
//! generator, the soak tier and the saturation driver all draw from the
//! same statistical shape:
//!
//! * **per-AS subscriber skew** — subscribers are partitioned across a
//!   small set of access groups (eyeball ASes) with heavy-tailed shares,
//!   and within a group per-subscriber activity is itself skewed (a few
//!   heavy users dominate);
//! * **service concentration** — an exponent applied over the
//!   [`crate::domains::DomainUniverse`] popularity weights concentrates
//!   traffic further onto the CDN/VoD head of the catalogue (evening
//!   video dominates ISP bytes);
//! * **heavy-tailed flow sizes** — a log-normal body for ordinary web
//!   transfers with a Pareto tail for large objects, and a heavier
//!   Pareto for streaming-video sessions, replacing the old uniform
//!   buckets;
//! * **a real diurnal curve** — 24 hourly anchor points interpolated
//!   smoothly at second resolution, with a weekend factor, replacing the
//!   two-anchor smoothstep stub;
//! * **a modeled DNS→flow lag** — the time between a resolver answering
//!   a client and the first packet of the resulting flow, which the
//!   generator enforces on every announced flow.
//!
//! Everything is `Copy` and deterministic: the model holds *parameters*
//! only, all sampling happens in the caller's seeded RNG.

use std::net::Ipv4Addr;

/// Maximum number of access groups a population can declare.
pub const MAX_ACCESS_GROUPS: usize = 6;

/// Subscribers must fit the 10.0.0.0/8 customer plan (24 host bits).
pub const MAX_SUBSCRIBERS: u32 = 1 << 24;

/// One access network (eyeball AS) and its slice of the subscriber base.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccessGroup {
    /// AS number of the access network.
    pub asn: u32,
    /// Fraction of the subscriber base homed in this group. Shares
    /// across the active groups must sum to ~1.
    pub subscriber_share: f64,
    /// Per-subscriber activity multiplier relative to the population
    /// average (cable/fibre groups push more traffic per line than
    /// DSL/mobile groups).
    pub activity: f64,
}

impl AccessGroup {
    const UNUSED: AccessGroup = AccessGroup {
        asn: 0,
        subscriber_share: 0.0,
        activity: 0.0,
    };
}

/// The diurnal traffic curve: 24 hourly anchors (normalized so the
/// weekday peak is 1.0) interpolated smoothly at second resolution,
/// plus a weekend factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiurnalCurve {
    /// Hourly anchor multipliers, index = hour of day.
    pub hourly: [f64; 24],
    /// Multiplier applied on Saturdays and Sundays (day 0 of a trace is
    /// a Monday).
    pub weekend_factor: f64,
}

impl DiurnalCurve {
    /// The residential curve of the paper's Figure 2: a 04:00 trough
    /// around 30% of peak, a long daytime shoulder, and a 21:00 peak.
    pub fn residential() -> Self {
        DiurnalCurve {
            hourly: [
                0.62, 0.50, 0.40, 0.33, 0.30, 0.32, 0.38, 0.46, // 00-07
                0.54, 0.60, 0.64, 0.67, 0.70, 0.70, 0.69, 0.70, // 08-15
                0.74, 0.80, 0.87, 0.93, 0.98, 1.00, 0.92, 0.76, // 16-23
            ],
            weekend_factor: 1.10,
        }
    }

    /// A business-access curve: office-hours plateau peaking early
    /// afternoon, quiet evenings, and much quieter weekends.
    pub fn business() -> Self {
        DiurnalCurve {
            hourly: [
                0.18, 0.15, 0.14, 0.13, 0.13, 0.15, 0.25, 0.45, // 00-07
                0.72, 0.90, 0.97, 0.99, 0.95, 1.00, 0.98, 0.93, // 08-15
                0.85, 0.70, 0.50, 0.38, 0.30, 0.26, 0.23, 0.20, // 16-23
            ],
            weekend_factor: 0.35,
        }
    }

    /// The hour-of-day anchor value (no interpolation, no weekend
    /// factor). This is what the legacy
    /// [`crate::distributions::DiurnalProfile`] facade exposes.
    pub fn hour_multiplier(&self, hour_of_day: u64) -> f64 {
        self.hourly[(hour_of_day % 24) as usize]
    }

    /// The multiplier at an absolute trace second: cosine-smoothed
    /// interpolation between the two surrounding hourly anchors, times
    /// the weekend factor when the second falls on day 5 or 6 of a week
    /// (traces start on a Monday).
    pub fn multiplier_at(&self, sec: u64) -> f64 {
        let sec_of_day = sec % 86_400;
        let hour = (sec_of_day / 3_600) as usize;
        let a = self.hourly[hour];
        let b = self.hourly[(hour + 1) % 24];
        let frac = (sec_of_day % 3_600) as f64 / 3_600.0;
        let smooth = (1.0 - (std::f64::consts::PI * frac).cos()) / 2.0;
        let base = a + (b - a) * smooth;
        let day_of_week = (sec / 86_400) % 7;
        if day_of_week >= 5 {
            base * self.weekend_factor
        } else {
            base
        }
    }
}

/// Heavy-tailed flow-size sampler: log-normal body, Pareto tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowSizeDist {
    /// `ln(bytes)` location of the log-normal web-transfer body.
    pub body_log_mean: f64,
    /// `ln(bytes)` scale of the body.
    pub body_log_sigma: f64,
    /// Probability that an ordinary transfer draws from the Pareto tail
    /// instead of the body (large downloads, software updates).
    pub tail_probability: f64,
    /// Minimum size of a tail draw, bytes.
    pub tail_scale: f64,
    /// Pareto tail index; `1 < alpha < 2` gives the heavy tail where a
    /// few flows dominate total bytes.
    pub tail_alpha: f64,
    /// Minimum size of a streaming-video session draw, bytes.
    pub streaming_scale: f64,
    /// Pareto index of streaming sessions (heavier than the generic
    /// tail: binge sessions run long).
    pub streaming_alpha: f64,
    /// Probability that a flow from a *non-DNS-related* service draws a
    /// streaming-sized session (P2P, VPN tunnels, IP-literal video —
    /// the paper's uncorrelatable share is by no means all mice, which
    /// is what keeps the bytes-weighted correlation near 82% rather
    /// than the count-weighted ~95%-of-DNS-related).
    pub non_dns_heavy_probability: f64,
    /// Hard cap on any single flow, bytes.
    pub max_bytes: u64,
}

impl FlowSizeDist {
    /// The default ISP mix: ~12 kB median web transfer, 6% large-object
    /// tail from 300 kB, streaming sessions from 1.5 MB.
    pub fn isp_default() -> Self {
        FlowSizeDist {
            body_log_mean: 9.4, // ≈ 12 kB median
            body_log_sigma: 1.2,
            tail_probability: 0.06,
            tail_scale: 300_000.0,
            tail_alpha: 1.35,
            streaming_scale: 1_500_000.0,
            streaming_alpha: 1.15,
            non_dns_heavy_probability: 0.12,
            max_bytes: 2_000_000_000,
        }
    }

    /// Sample an ordinary (non-streaming) transfer size in bytes.
    /// `u1..u3` are independent uniforms in `[0, 1)`.
    pub fn sample_web(&self, u1: f64, u2: f64, u3: f64) -> u64 {
        if u1 < self.tail_probability {
            self.pareto(self.tail_scale, self.tail_alpha, u2)
        } else {
            // Box–Muller from two uniforms; clamp the draws away from 0.
            let a = u2.max(1e-12);
            let z = (-2.0 * a.ln()).sqrt() * (2.0 * std::f64::consts::PI * u3).cos();
            let bytes = (self.body_log_mean + self.body_log_sigma * z).exp();
            (bytes.max(64.0) as u64).min(self.max_bytes)
        }
    }

    /// Sample a streaming-video session size in bytes.
    pub fn sample_streaming(&self, u: f64) -> u64 {
        self.pareto(self.streaming_scale, self.streaming_alpha, u)
    }

    fn pareto(&self, scale: f64, alpha: f64, u: f64) -> u64 {
        let u = u.clamp(1e-12, 1.0 - 1e-12);
        let bytes = scale * (1.0 - u).powf(-1.0 / alpha);
        (bytes as u64).min(self.max_bytes)
    }
}

/// The full subscriber-population model. `Copy` on purpose: it rides
/// inside [`crate::workload::WorkloadConfig`] and holds only parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SubscriberPopulation {
    /// Number of simulated subscriber lines (must be < 2^24 to fit the
    /// 10.0.0.0/8 address plan).
    pub subscribers: u32,
    /// Access groups; only the first [`SubscriberPopulation::group_count`]
    /// entries are active.
    pub groups: [AccessGroup; MAX_ACCESS_GROUPS],
    /// Number of active entries in `groups`.
    pub group_count: usize,
    /// Within-group subscriber skew exponent: a flow's subscriber rank
    /// is `floor(group_size × u^skew)`, so `skew > 1` concentrates
    /// traffic on the low ranks (heavy users). `1.0` is uniform.
    pub subscriber_skew: f64,
    /// Exponent applied to the universe's popularity weights before
    /// sampling: `> 1` concentrates traffic onto the CDN/VoD head.
    pub service_concentration: f64,
    /// The diurnal curve.
    pub diurnal: DiurnalCurve,
    /// The flow-size sampler.
    pub flow_sizes: FlowSizeDist,
    /// Modeled lag between a DNS answer reaching the client and the
    /// first flow packet, microseconds. The generator guarantees every
    /// announced flow trails its announcement by at least this much.
    pub dns_flow_lag_micros: u64,
}

impl SubscriberPopulation {
    fn base(subscribers: u32, diurnal: DiurnalCurve) -> Self {
        SubscriberPopulation {
            subscribers,
            groups: [AccessGroup::UNUSED; MAX_ACCESS_GROUPS],
            group_count: 0,
            subscriber_skew: 2.0,
            service_concentration: 1.0,
            diurnal,
            flow_sizes: FlowSizeDist::isp_default(),
            dns_flow_lag_micros: 1_500,
        }
    }

    fn with_groups(mut self, groups: &[AccessGroup]) -> Self {
        assert!(
            groups.len() <= MAX_ACCESS_GROUPS,
            "at most {MAX_ACCESS_GROUPS} access groups"
        );
        for (slot, group) in self.groups.iter_mut().zip(groups) {
            *slot = *group;
        }
        self.group_count = groups.len();
        self
    }

    /// ~1.8M residential lines across four eyeball ASes with a strong
    /// cable/fibre skew, evening-peaked, streaming-heavy.
    pub fn residential() -> Self {
        Self::base(1_800_000, DiurnalCurve::residential())
            .with_groups(&[
                AccessGroup {
                    asn: 64_512,
                    subscriber_share: 0.46,
                    activity: 1.25,
                },
                AccessGroup {
                    asn: 64_513,
                    subscriber_share: 0.28,
                    activity: 1.00,
                },
                AccessGroup {
                    asn: 64_514,
                    subscriber_share: 0.16,
                    activity: 0.70,
                },
                AccessGroup {
                    asn: 64_515,
                    subscriber_share: 0.10,
                    activity: 0.45,
                },
            ])
            .concentrated(1.15)
    }

    /// ~600k business lines across three ASes, office-hours curve, web
    /// transfers dominate (little evening video).
    pub fn business() -> Self {
        let mut p = Self::base(600_000, DiurnalCurve::business())
            .with_groups(&[
                AccessGroup {
                    asn: 64_520,
                    subscriber_share: 0.55,
                    activity: 1.10,
                },
                AccessGroup {
                    asn: 64_521,
                    subscriber_share: 0.30,
                    activity: 1.00,
                },
                AccessGroup {
                    asn: 64_522,
                    subscriber_share: 0.15,
                    activity: 0.60,
                },
            ])
            .concentrated(0.92);
        p.subscriber_skew = 1.5;
        p
    }

    /// ~2.4M mixed lines: residential shape with a flatter daytime
    /// shoulder and moderate concentration.
    pub fn mixed() -> Self {
        let mut curve = DiurnalCurve::residential();
        for h in 8..17 {
            curve.hourly[h] = (curve.hourly[h] + 0.12).min(1.0);
        }
        curve.weekend_factor = 1.05;
        Self::base(2_400_000, curve)
            .with_groups(&[
                AccessGroup {
                    asn: 64_512,
                    subscriber_share: 0.38,
                    activity: 1.15,
                },
                AccessGroup {
                    asn: 64_513,
                    subscriber_share: 0.24,
                    activity: 1.00,
                },
                AccessGroup {
                    asn: 64_520,
                    subscriber_share: 0.20,
                    activity: 0.95,
                },
                AccessGroup {
                    asn: 64_514,
                    subscriber_share: 0.12,
                    activity: 0.70,
                },
                AccessGroup {
                    asn: 64_515,
                    subscriber_share: 0.06,
                    activity: 0.40,
                },
            ])
            .concentrated(1.05)
    }

    /// A 50k-line population for tests and smoke runs (same shape as
    /// [`SubscriberPopulation::residential`], two groups).
    pub fn small() -> Self {
        let mut p = Self::base(50_000, DiurnalCurve::residential()).with_groups(&[
            AccessGroup {
                asn: 64_512,
                subscriber_share: 0.65,
                activity: 1.10,
            },
            AccessGroup {
                asn: 64_513,
                subscriber_share: 0.35,
                activity: 0.80,
            },
        ]);
        p.service_concentration = 1.1;
        p
    }

    /// Look up a preset by name (the soak config's `population` key).
    pub fn preset(name: &str) -> Option<Self> {
        match name {
            "residential" => Some(Self::residential()),
            "business" => Some(Self::business()),
            "mixed" => Some(Self::mixed()),
            "small" => Some(Self::small()),
            _ => None,
        }
    }

    /// Names accepted by [`SubscriberPopulation::preset`].
    pub const PRESET_NAMES: [&'static str; 4] = ["residential", "business", "mixed", "small"];

    fn set_concentration(&mut self, c: f64) {
        self.service_concentration = c;
    }

    fn concentrated(mut self, c: f64) -> Self {
        self.set_concentration(c);
        self
    }

    /// The active access groups.
    pub fn active_groups(&self) -> &[AccessGroup] {
        &self.groups[..self.group_count]
    }

    /// Fraction of *traffic* (not subscribers) produced by group `g`:
    /// subscriber share × activity, normalized over the active groups.
    pub fn traffic_share(&self, g: usize) -> f64 {
        let total: f64 = self
            .active_groups()
            .iter()
            .map(|grp| grp.subscriber_share * grp.activity)
            .sum();
        let grp = &self.active_groups()[g];
        grp.subscriber_share * grp.activity / total
    }

    /// Number of subscriber lines homed in group `g` (the address plan
    /// assigns each group a contiguous index range, in declaration
    /// order, with the remainder going to the last group).
    pub fn group_size(&self, g: usize) -> u32 {
        let (start, end) = self.group_range(g);
        end - start
    }

    fn group_range(&self, g: usize) -> (u32, u32) {
        assert!(g < self.group_count, "group {g} out of range");
        let mut start = 0u32;
        for (i, grp) in self.active_groups().iter().enumerate() {
            let size = if i + 1 == self.group_count {
                self.subscribers - start
            } else {
                (self.subscribers as f64 * grp.subscriber_share) as u32
            };
            if i == g {
                return (start, start + size.max(1));
            }
            start += size.max(1);
        }
        unreachable!("group_count checked above")
    }

    /// Pick a traffic-weighted access group from a uniform draw.
    pub fn pick_group(&self, u: f64) -> usize {
        let mut acc = 0.0;
        for g in 0..self.group_count {
            acc += self.traffic_share(g);
            if u < acc {
                return g;
            }
        }
        self.group_count - 1
    }

    /// The customer address of one flow: `pick` chooses the access
    /// group (traffic-weighted), `rank` the subscriber within it
    /// (skewed towards heavy users). Both are uniforms in `[0, 1)`.
    /// Addresses live in 10.0.0.0/8; each subscriber line maps to one
    /// stable address for the lifetime of the population.
    pub fn client_addr(&self, pick: f64, rank: f64) -> Ipv4Addr {
        let g = self.pick_group(pick);
        let (start, end) = self.group_range(g);
        let size = (end - start) as f64;
        let idx = ((size * rank.powf(self.subscriber_skew)) as u32).min(end - start - 1);
        let offset = start + idx;
        Ipv4Addr::new(10, (offset >> 16) as u8, (offset >> 8) as u8, offset as u8)
    }

    /// Reverse of the address plan: which access group homes `addr`?
    /// `None` for addresses outside 10.0.0.0/8 or beyond the subscriber
    /// count.
    pub fn group_of(&self, addr: Ipv4Addr) -> Option<usize> {
        let octets = addr.octets();
        if octets[0] != 10 {
            return None;
        }
        let offset = ((octets[1] as u32) << 16) | ((octets[2] as u32) << 8) | octets[3] as u32;
        (0..self.group_count).find(|&g| {
            let (start, end) = self.group_range(g);
            (start..end).contains(&offset)
        })
    }

    /// The deterministic address of subscriber line `i` (used by the
    /// saturation driver's pre-encoded datagram pool, so wire-level load
    /// tests draw from the same address plan as the workload).
    pub fn subscriber_addr(&self, i: u32) -> Ipv4Addr {
        let offset = i % self.subscribers.max(1);
        Ipv4Addr::new(10, (offset >> 16) as u8, (offset >> 8) as u8, offset as u8)
    }

    /// Sanity-check the model; called by the workload constructor.
    pub fn validate(&self) -> Result<(), String> {
        if self.subscribers == 0 || self.subscribers >= MAX_SUBSCRIBERS {
            return Err(format!(
                "subscribers must be in 1..{MAX_SUBSCRIBERS}, got {}",
                self.subscribers
            ));
        }
        if self.group_count == 0 || self.group_count > MAX_ACCESS_GROUPS {
            return Err(format!(
                "group_count must be in 1..={MAX_ACCESS_GROUPS}, got {}",
                self.group_count
            ));
        }
        let share: f64 = self
            .active_groups()
            .iter()
            .map(|g| g.subscriber_share)
            .sum();
        if (share - 1.0).abs() > 0.01 {
            return Err(format!("subscriber shares sum to {share}, expected 1.0"));
        }
        if (self.subscribers as usize) < self.group_count {
            return Err("fewer subscribers than groups".to_string());
        }
        if !(0.5..=4.0).contains(&self.subscriber_skew) {
            return Err(format!(
                "subscriber_skew {} out of [0.5, 4]",
                self.subscriber_skew
            ));
        }
        if !(0.5..=2.0).contains(&self.service_concentration) {
            return Err(format!(
                "service_concentration {} out of [0.5, 2]",
                self.service_concentration
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_and_cover_names() {
        for name in SubscriberPopulation::PRESET_NAMES {
            let p = SubscriberPopulation::preset(name).expect("known preset");
            p.validate().expect("preset validates");
        }
        assert!(SubscriberPopulation::preset("nope").is_none());
    }

    #[test]
    fn group_ranges_partition_the_subscriber_base() {
        let p = SubscriberPopulation::mixed();
        let mut covered = 0u32;
        for g in 0..p.group_count {
            let (start, end) = p.group_range(g);
            assert_eq!(start, covered, "group {g} starts where {} ended", g);
            covered = end;
        }
        assert_eq!(covered, p.subscribers);
    }

    #[test]
    fn client_addr_round_trips_through_group_of() {
        let p = SubscriberPopulation::residential();
        for (pick, rank) in [(0.05, 0.1), (0.5, 0.5), (0.93, 0.99), (0.99, 0.0)] {
            let addr = p.client_addr(pick, rank);
            let g = p.group_of(addr).expect("customer address maps back");
            assert_eq!(g, p.pick_group(pick));
        }
        assert!(p.group_of(Ipv4Addr::new(192, 0, 2, 1)).is_none());
    }

    #[test]
    fn diurnal_curve_peaks_evening_troughs_early_morning() {
        let c = DiurnalCurve::residential();
        assert!((c.multiplier_at(4 * 3_600) - 0.30).abs() < 0.03);
        assert!((c.multiplier_at(21 * 3_600) - 1.00).abs() < 0.03);
        // Smooth: adjacent seconds move by a hair, not a step.
        let a = c.multiplier_at(7 * 3_600 + 1_799);
        let b = c.multiplier_at(7 * 3_600 + 1_800);
        assert!((a - b).abs() < 1e-3);
        // Weekend uplift applies on days 5 and 6 only.
        let weekday = c.multiplier_at(2 * 86_400 + 21 * 3_600);
        let weekend = c.multiplier_at(5 * 86_400 + 21 * 3_600);
        assert!(weekend > weekday);
        // Business traffic peaks inside office hours instead.
        let b = DiurnalCurve::business();
        assert!(b.multiplier_at(13 * 3_600) > 0.9);
        assert!(b.multiplier_at(21 * 3_600) < 0.4);
        assert!(b.multiplier_at(5 * 86_400 + 13 * 3_600) < 0.5);
    }

    #[test]
    fn flow_sizes_are_heavy_tailed() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let d = FlowSizeDist::isp_default();
        let mut rng = StdRng::seed_from_u64(11);
        let mut sizes: Vec<u64> = (0..40_000)
            .map(|_| d.sample_web(rng.gen(), rng.gen(), rng.gen()))
            .collect();
        sizes.sort_unstable();
        let median = sizes[sizes.len() / 2];
        assert!((4_000..40_000).contains(&median), "median {median}");
        let total: u128 = sizes.iter().map(|&s| s as u128).sum();
        let top1: u128 = sizes[sizes.len() - sizes.len() / 100..]
            .iter()
            .map(|&s| s as u128)
            .sum();
        assert!(
            top1 * 100 / total >= 25,
            "top 1% of flows should carry ≥25% of bytes, got {}%",
            top1 * 100 / total
        );
        // Streaming sessions are strictly larger-bodied.
        let s = d.sample_streaming(0.5);
        assert!(s >= d.streaming_scale as u64);
        assert!(d.sample_streaming(0.999_999) <= d.max_bytes);
    }

    #[test]
    fn traffic_shares_are_normalized_and_skewed() {
        let p = SubscriberPopulation::residential();
        let total: f64 = (0..p.group_count).map(|g| p.traffic_share(g)).sum();
        assert!((total - 1.0).abs() < 1e-9);
        // The cable/fibre group out-punches its subscriber share.
        assert!(p.traffic_share(0) > p.active_groups()[0].subscriber_share);
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut p = SubscriberPopulation::small();
        p.subscribers = 0;
        assert!(p.validate().is_err());
        let mut p = SubscriberPopulation::small();
        p.groups[0].subscriber_share = 0.9;
        assert!(p.validate().is_err());
        let mut p = SubscriberPopulation::small();
        p.service_concentration = 9.0;
        assert!(p.validate().is_err());
    }
}
