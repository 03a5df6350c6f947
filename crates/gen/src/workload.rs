//! The ISP workload generator.
//!
//! Produces a time-ordered stream of DNS records (what the resolver feed
//! would deliver) and flow records (what the NetFlow feed would deliver)
//! whose joint structure drives the correlator the same way the real ISP
//! streams do:
//!
//! * flows are produced by a [`SubscriberPopulation`] — per-AS subscriber
//!   skew, heavy-tailed flow sizes, a real diurnal curve — over the
//!   popularity-weighted service universe, with a `service_concentration`
//!   exponent focusing traffic on the CDN/VoD head;
//! * before a flow from an edge IP can appear, the generator emits the DNS
//!   records a real client population would have produced — the full CNAME
//!   chain plus the A/AAAA record — unless the IP belongs to the "hidden"
//!   5% whose clients use public resolvers (the coverage gap of Section 4);
//! * every announced flow trails its announcement by at least the
//!   population's modeled DNS→flow lag;
//! * an edge IP is re-announced only after its TTL-derived re-query
//!   interval has elapsed, so correlation genuinely depends on how long
//!   the store retains records across clear-ups — which is what separates
//!   the Main / NoRotation / NoClearUp / NoLong variants;
//! * a configurable share of traffic is not DNS-related at all and can
//!   never be correlated;
//! * a small share of flows are DNS/DoT queries to resolvers (ports
//!   53/853), feeding the coverage analysis;
//! * flows from malformed domains occasionally trigger return traffic,
//!   feeding the bidirectional-traffic analysis of Section 5.
//!
//! The generator is **streaming-only**: [`Workload::events`] yields the
//! trace lazily in constant memory (state is bounded by the universe size
//! and the per-second event burst, never by trace length), so week-long
//! multi-million-subscriber soaks iterate without materializing anything.
//! [`Workload::generate`] survives as a size-capped test convenience.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use flowdns_types::{
    DnsRecord, DomainName, FlowDirection, FlowKey, FlowRecord, Protocol, SimDuration, SimTime,
    StreamId,
};

use crate::distributions::TtlDist;
use crate::domains::{DomainCategory, DomainUniverse, UniverseConfig};
use crate::population::SubscriberPopulation;
use crate::resolvers::PublicResolverList;

/// Hard cap on [`Workload::generate`]: it exists for small tests and
/// examples only, the streaming iterator is the real interface.
pub const GENERATE_EVENT_CAP: usize = 200_000;

/// One event of the generated workload, in time order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A DNS record delivered on the resolver feed.
    Dns(DnsRecord),
    /// A flow record delivered on a NetFlow stream.
    Flow(FlowRecord),
}

impl StreamEvent {
    /// The event timestamp.
    pub fn ts(&self) -> SimTime {
        match self {
            StreamEvent::Dns(r) => r.ts,
            StreamEvent::Flow(f) => f.ts,
        }
    }
}

/// Configuration of the workload generator.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadConfig {
    /// Universe composition.
    pub universe: UniverseConfig,
    /// The subscriber population producing the traffic.
    pub population: SubscriberPopulation,
    /// Length of the generated trace.
    pub duration: SimDuration,
    /// Flow rate at the diurnal peak (records per simulated second).
    pub peak_flows_per_sec: f64,
    /// Background DNS rate at the diurnal peak (records per second) in
    /// addition to the flow-driven announcements.
    pub background_dns_per_sec: f64,
    /// Fraction of clients using a public resolver instead of the ISP
    /// resolver (Section 4 coverage: 1 in 20).
    pub public_resolver_fraction: f64,
    /// Fraction of flows that are DNS/DoT queries to resolvers (ports
    /// 53/853), used by the coverage analysis.
    pub dns_query_flow_fraction: f64,
    /// Probability that a flow from a malformed domain triggers a return
    /// (outbound) flow.
    pub malformed_reply_probability: f64,
    /// Number of parallel DNS streams (2 at the large ISP).
    pub dns_streams: u16,
    /// Number of parallel NetFlow streams (26 at the large ISP).
    pub netflow_streams: u16,
    /// Random seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            universe: UniverseConfig::default(),
            population: SubscriberPopulation::residential(),
            duration: SimDuration::from_hours(24),
            peak_flows_per_sec: 45.0,
            background_dns_per_sec: 6.0,
            public_resolver_fraction: 0.05,
            dns_query_flow_fraction: 0.02,
            malformed_reply_probability: 0.25,
            dns_streams: 2,
            netflow_streams: 26,
            seed: 20_221_206,
        }
    }
}

impl WorkloadConfig {
    /// A small configuration (few minutes, low rate, 50k-line
    /// population) for tests and quick examples.
    pub fn small() -> Self {
        WorkloadConfig {
            population: SubscriberPopulation::small(),
            duration: SimDuration::from_secs(1_800),
            peak_flows_per_sec: 20.0,
            background_dns_per_sec: 4.0,
            ..WorkloadConfig::default()
        }
    }
}

/// A constructed workload: the universe plus a lazily generated event
/// stream.
#[derive(Debug)]
pub struct Workload {
    config: WorkloadConfig,
    universe: DomainUniverse,
    resolvers: PublicResolverList,
    /// Edge IPs whose clients exclusively use public resolvers: their DNS
    /// records never reach FlowDNS.
    hidden_ips: Vec<IpAddr>,
    /// Cumulative service weights with the population's
    /// `service_concentration` exponent applied (aligned with
    /// `universe.services`).
    biased_cumulative: Vec<f64>,
}

impl Workload {
    /// Build a workload (constructs the universe and picks the hidden IP
    /// set deterministically from the seed).
    ///
    /// # Panics
    ///
    /// If the population fails [`SubscriberPopulation::validate`].
    pub fn new(config: WorkloadConfig) -> Self {
        if let Err(reason) = config.population.validate() {
            panic!("invalid subscriber population: {reason}");
        }
        let universe = DomainUniverse::generate(&config.universe);
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0x9e37_79b9);
        let mut hidden = Vec::new();
        for s in &universe.services {
            if !s.dns_related {
                continue;
            }
            for ip in &s.edge_ips {
                if rng.gen_bool(config.public_resolver_fraction) {
                    hidden.push(*ip);
                }
            }
        }
        let exponent = config.population.service_concentration;
        let mut biased_cumulative = Vec::with_capacity(universe.services.len());
        let mut acc = 0.0;
        for s in &universe.services {
            acc += s.popularity.powf(exponent);
            biased_cumulative.push(acc);
        }
        Workload {
            config,
            universe,
            resolvers: PublicResolverList::default(),
            hidden_ips: hidden,
            biased_cumulative,
        }
    }

    /// The generator configuration.
    pub fn config(&self) -> &WorkloadConfig {
        &self.config
    }

    /// The subscriber population producing the traffic.
    pub fn population(&self) -> &SubscriberPopulation {
        &self.config.population
    }

    /// The underlying service universe.
    pub fn universe(&self) -> &DomainUniverse {
        &self.universe
    }

    /// The public-resolver list used for DNS-query flows.
    pub fn resolvers(&self) -> &PublicResolverList {
        &self.resolvers
    }

    /// Edge IPs invisible to the ISP resolver feed.
    pub fn hidden_ips(&self) -> &[IpAddr] {
        &self.hidden_ips
    }

    /// Pick a service index weighted by concentration-biased popularity.
    pub fn pick_service_biased(&self, rng: &mut StdRng) -> usize {
        let total = *self.biased_cumulative.last().expect("non-empty universe");
        let x: f64 = rng.gen_range(0.0..total);
        self.biased_cumulative
            .partition_point(|&c| c <= x)
            .min(self.universe.services.len() - 1)
    }

    /// The correlation fraction an ideal store *should* achieve on the
    /// inbound content flows of this workload: the concentration-biased
    /// weight share of DNS-related services, discounted per service by
    /// the realized fraction of its edge IPs that are hidden behind
    /// public resolvers. This is exact for the streamed trace up to
    /// sampling noise — the golden accuracy tier holds measured runs to
    /// within one percentage point of it.
    pub fn expected_correlation_fraction(&self) -> f64 {
        let total = *self.biased_cumulative.last().expect("non-empty universe");
        let mut visible = 0.0;
        let mut prev = 0.0;
        for (s, cum) in self.universe.services.iter().zip(&self.biased_cumulative) {
            let weight = cum - prev;
            prev = *cum;
            if !s.dns_related || s.edge_ips.is_empty() {
                continue;
            }
            let hidden = s
                .edge_ips
                .iter()
                .filter(|ip| self.hidden_ips.contains(ip))
                .count();
            let visible_share = (s.edge_ips.len() - hidden) as f64 / s.edge_ips.len() as f64;
            visible += weight * visible_share;
        }
        visible / total
    }

    /// Iterate over the workload's events in time order. This is the
    /// generator's real interface: constant memory regardless of trace
    /// length, byte-identical output for identical seed + config.
    pub fn events(&self) -> WorkloadIter<'_> {
        WorkloadIter::new(self)
    }

    /// Materialize the whole workload into DNS and flow vectors — a
    /// test-only convenience for *small* configurations.
    ///
    /// # Panics
    ///
    /// If the trace exceeds [`GENERATE_EVENT_CAP`] events. Long traces
    /// must stream through [`Workload::events`] instead.
    pub fn generate(&self) -> (Vec<DnsRecord>, Vec<FlowRecord>) {
        let mut dns = Vec::new();
        let mut flows = Vec::new();
        for (n, event) in self.events().enumerate() {
            assert!(
                n < GENERATE_EVENT_CAP,
                "Workload::generate() is a test-only convenience capped at \
                 {GENERATE_EVENT_CAP} events; stream long traces via Workload::events()"
            );
            match event {
                StreamEvent::Dns(r) => dns.push(r),
                StreamEvent::Flow(f) => flows.push(f),
            }
        }
        (dns, flows)
    }
}

/// Per-edge-IP announcement state.
#[derive(Debug, Clone, Copy)]
struct AnnounceState {
    last_announced: u64,
    reannounce_after: u64,
    /// Timestamp of the most recent announcement, microseconds — flows
    /// for this IP are floored at `last_ts_micros + dns_flow_lag`.
    last_ts_micros: u64,
}

/// Lazily generates the workload second by second. Memory is bounded by
/// the announcement map (one entry per visible edge IP, a property of
/// the universe) and the one-second event buffer — never by trace
/// length.
pub struct WorkloadIter<'a> {
    workload: &'a Workload,
    rng: StdRng,
    ttl_address: TtlDist,
    ttl_cname: TtlDist,
    current_sec: u64,
    end_sec: u64,
    announced: HashMap<IpAddr, AnnounceState>,
    buffer: std::collections::VecDeque<StreamEvent>,
    flow_seq: u64,
    dns_seq: u64,
    events_this_sec: u64,
    /// High-water mark of emitted timestamps; keeps the stream
    /// non-decreasing even when a lag floor pushes an event forward.
    cursor_micros: u64,
}

impl<'a> WorkloadIter<'a> {
    fn new(workload: &'a Workload) -> Self {
        WorkloadIter {
            workload,
            rng: StdRng::seed_from_u64(workload.config.seed),
            ttl_address: TtlDist::address(),
            ttl_cname: TtlDist::cname(),
            current_sec: 0,
            end_sec: workload.config.duration.as_secs(),
            announced: HashMap::new(),
            buffer: std::collections::VecDeque::new(),
            flow_seq: 0,
            dns_seq: 0,
            events_this_sec: 0,
            cursor_micros: 0,
        }
    }

    fn client_ip(&mut self) -> IpAddr {
        let pick: f64 = self.rng.gen();
        let rank: f64 = self.rng.gen();
        IpAddr::V4(self.workload.config.population.client_addr(pick, rank))
    }

    fn sample_count(&mut self, rate: f64) -> usize {
        let base = rate.floor() as usize;
        let frac = rate - base as f64;
        base + usize::from(self.rng.gen_bool(frac.clamp(0.0, 1.0)))
    }

    fn flow_bytes(&mut self, streaming: bool) -> u64 {
        let sizes = &self.workload.config.population.flow_sizes;
        if streaming {
            sizes.sample_streaming(self.rng.gen())
        } else {
            sizes.sample_web(self.rng.gen(), self.rng.gen(), self.rng.gen())
        }
    }

    /// Next timestamp within `sec`, at least `floor_micros`, never
    /// behind an already emitted event.
    fn ts_at_least(&mut self, sec: u64, floor_micros: u64) -> SimTime {
        // Spread events within the second deterministically while keeping
        // them monotonically ordered (the simulator and the stream replay
        // both expect a time-ordered feed).
        let micros = (self.events_this_sec * 997).min(999_999);
        self.events_this_sec += 1;
        let candidate = (sec * 1_000_000 + micros)
            .max(floor_micros)
            .max(self.cursor_micros);
        self.cursor_micros = candidate;
        SimTime::from_micros(candidate)
    }

    fn ts(&mut self, sec: u64) -> SimTime {
        self.ts_at_least(sec, 0)
    }

    /// Emit the DNS records announcing `ip` for the given service, if the
    /// IP is visible and due for re-announcement.
    fn maybe_announce(&mut self, service_idx: usize, ip: IpAddr, sec: u64) {
        let service = &self.workload.universe.services[service_idx];
        if !service.dns_related {
            return;
        }
        if self.workload.hidden_ips.contains(&ip) {
            return;
        }
        let due = match self.announced.get(&ip) {
            None => true,
            Some(state) => sec.saturating_sub(state.last_announced) >= state.reannounce_after,
        };
        if !due {
            return;
        }
        let a_ttl = self.ttl_address.sample(&mut self.rng);
        // Clamp the re-query interval to one rotation window so a
        // retained record always backs the announcement (the store keeps
        // at least the previous full window across clear-ups).
        let reannounce_after = u64::from(a_ttl).clamp(300, 3_600);
        let ts = self.ts(sec);
        self.announced.insert(
            ip,
            AnnounceState {
                last_announced: sec,
                reannounce_after,
                last_ts_micros: ts.as_micros(),
            },
        );
        // CNAME chain: customer -> hop1 -> ... -> a_record_owner.
        let mut names: Vec<&DomainName> = Vec::with_capacity(service.cname_chain.len() + 1);
        names.push(&service.customer_domain);
        names.extend(service.cname_chain.iter());
        for pair in names.windows(2) {
            let c_ttl = self.ttl_cname.sample(&mut self.rng);
            self.dns_seq += 1;
            self.buffer.push_back(StreamEvent::Dns(DnsRecord::cname(
                ts,
                pair[0].clone(),
                pair[1].clone(),
                c_ttl,
            )));
        }
        self.dns_seq += 1;
        self.buffer.push_back(StreamEvent::Dns(DnsRecord::address(
            ts,
            service.a_record_owner().clone(),
            ip,
            a_ttl,
        )));
    }

    #[allow(clippy::too_many_arguments)]
    fn push_flow_after(
        &mut self,
        sec: u64,
        floor_micros: u64,
        src_ip: IpAddr,
        dst_ip: IpAddr,
        dst_port: u16,
        bytes: u64,
        direction: FlowDirection,
    ) {
        let ts = self.ts_at_least(sec, floor_micros);
        self.flow_seq += 1;
        let stream =
            StreamId::new((self.flow_seq % self.workload.config.netflow_streams as u64) as u16);
        self.buffer.push_back(StreamEvent::Flow(FlowRecord {
            ts,
            key: FlowKey {
                src_ip,
                dst_ip,
                src_port: 443,
                dst_port,
                proto: Protocol::Tcp,
            },
            packets: (bytes / 1400).max(1),
            bytes,
            stream,
            direction,
            trace: None,
        }));
    }

    fn push_flow(
        &mut self,
        sec: u64,
        src_ip: IpAddr,
        dst_ip: IpAddr,
        dst_port: u16,
        bytes: u64,
        direction: FlowDirection,
    ) {
        self.push_flow_after(sec, 0, src_ip, dst_ip, dst_port, bytes, direction);
    }

    fn generate_second(&mut self, sec: u64) {
        let population = self.workload.config.population;
        let mult = population.diurnal.multiplier_at(sec);
        let flow_rate = self.workload.config.peak_flows_per_sec * mult;
        let dns_rate = self.workload.config.background_dns_per_sec * mult;

        // Background DNS traffic (cache misses without an associated flow
        // in this trace): re-announces random service IPs.
        let n_dns = self.sample_count(dns_rate);
        for _ in 0..n_dns {
            let idx = self.workload.pick_service_biased(&mut self.rng);
            let service = &self.workload.universe.services[idx];
            let ip = service.edge_ips[self.rng.gen_range(0..service.edge_ips.len())];
            // Background queries ignore the re-announce timer ~25% of the
            // time (several clients may miss their caches independently).
            if self.rng.gen_bool(0.25) {
                self.announced.remove(&ip);
            }
            self.maybe_announce(idx, ip, sec);
        }

        // Content flows.
        let n_flows = self.sample_count(flow_rate);
        for _ in 0..n_flows {
            let idx = self.workload.pick_service_biased(&mut self.rng);
            let service = &self.workload.universe.services[idx];
            let ip = service.edge_ips[self.rng.gen_range(0..service.edge_ips.len())];
            // Streaming-sized sessions come from the flagship VoD
            // services — and from a slice of the non-DNS-related
            // traffic (P2P, VPN, IP-literal video), so the
            // uncorrelatable share carries realistic byte weight.
            let streaming = idx == self.workload.universe.streaming_s1
                || idx == self.workload.universe.streaming_s2
                || (!service.dns_related
                    && self.rng.gen_bool(
                        self.workload
                            .config
                            .population
                            .flow_sizes
                            .non_dns_heavy_probability,
                    ));
            let bytes = self.flow_bytes(streaming);
            let category = service.category;
            self.maybe_announce(idx, ip, sec);
            // The flow trails its announcement by at least the modeled
            // client-side lag between answer and first packet.
            let floor = self
                .announced
                .get(&ip)
                .map(|s| s.last_ts_micros + population.dns_flow_lag_micros)
                .unwrap_or(0);
            let client = self.client_ip();
            self.push_flow_after(sec, floor, ip, client, 443, bytes, FlowDirection::Inbound);

            // Occasional return traffic towards malformed domains
            // (Section 5: 2.7% of clients answer back).
            if category == DomainCategory::Malformed
                && self
                    .rng
                    .gen_bool(self.workload.config.malformed_reply_probability)
            {
                self.push_flow(
                    sec,
                    client,
                    ip,
                    1194,
                    bytes / 50 + 40,
                    FlowDirection::Outbound,
                );
            }
        }

        // DNS/DoT query flows towards resolvers (coverage analysis).
        let n_queries = self.sample_count(flow_rate * self.workload.config.dns_query_flow_fraction);
        for _ in 0..n_queries {
            let client = self.client_ip();
            let public = self
                .rng
                .gen_bool(self.workload.config.public_resolver_fraction);
            let resolver = if public {
                self.workload.resolvers.pick(&mut self.rng)
            } else {
                self.workload.resolvers.isp_resolver(&mut self.rng)
            };
            let port = if public && self.rng.gen_bool(0.3) {
                853
            } else {
                53
            };
            self.push_flow(sec, client, resolver, port, 120, FlowDirection::Outbound);
        }
    }
}

/// A deterministic `(name, address)` population for wire-level load
/// drivers (the saturation harness): `n` distinct names, each resolving
/// to one distinct address from the population's subscriber plan. Unlike
/// [`Workload`], this makes no attempt at statistical realism — it
/// exists so a sender can pre-encode NetFlow datagrams whose source
/// addresses are guaranteed to hit the DNS store, making the measured
/// path the full decode → lookup → write pipeline rather than the
/// uncorrelated fast path.
pub fn saturation_pool_for(
    population: &SubscriberPopulation,
    n: usize,
) -> Vec<(DomainName, Ipv4Addr)> {
    (0..n)
        .map(|i| {
            let name = DomainName::literal(&format!("s{i}.bench.example"));
            (name, population.subscriber_addr(i as u32))
        })
        .collect()
}

/// [`saturation_pool_for`] over the residential preset (large enough
/// that every realistic pool size gets distinct addresses).
pub fn saturation_pool(n: usize) -> Vec<(DomainName, Ipv4Addr)> {
    saturation_pool_for(&SubscriberPopulation::residential(), n)
}

impl Iterator for WorkloadIter<'_> {
    type Item = StreamEvent;

    fn next(&mut self) -> Option<StreamEvent> {
        loop {
            if let Some(event) = self.buffer.pop_front() {
                return Some(event);
            }
            if self.current_sec >= self.end_sec {
                return None;
            }
            let sec = self.current_sec;
            self.current_sec += 1;
            self.events_this_sec = 0;
            self.generate_second(sec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdns_types::IpKey;
    use std::collections::HashSet;

    fn small_workload() -> Workload {
        Workload::new(WorkloadConfig::small())
    }

    #[test]
    fn events_are_time_ordered_and_cover_the_duration() {
        let w = small_workload();
        let events: Vec<StreamEvent> = w.events().collect();
        assert!(!events.is_empty());
        for pair in events.windows(2) {
            assert!(pair[0].ts() <= pair[1].ts());
        }
        let last = events.last().unwrap().ts().as_secs();
        assert!(last >= w.config().duration.as_secs() - 60);
    }

    #[test]
    fn generation_is_deterministic_for_a_seed() {
        let a: Vec<StreamEvent> = small_workload().events().take(5_000).collect();
        let b: Vec<StreamEvent> = small_workload().events().take(5_000).collect();
        assert_eq!(a, b);
        let mut other_cfg = WorkloadConfig::small();
        other_cfg.seed += 1;
        let c: Vec<StreamEvent> = Workload::new(other_cfg).events().take(5_000).collect();
        assert_ne!(a, c);
    }

    #[test]
    fn most_flow_sources_are_announced_before_their_flows() {
        let w = small_workload();
        let mut announced: HashSet<IpKey> = HashSet::new();
        let mut inbound = 0u64;
        let mut announced_first = 0u64;
        for event in w.events() {
            match event {
                StreamEvent::Dns(r) => {
                    if let Some(ip) = r.answer.as_ip() {
                        announced.insert(IpKey::from_ip(ip));
                    }
                }
                StreamEvent::Flow(f) => {
                    if f.direction == FlowDirection::Inbound && f.key.dst_port == 443 {
                        inbound += 1;
                        if announced.contains(&IpKey::from_ip(f.key.src_ip)) {
                            announced_first += 1;
                        }
                    }
                }
            }
        }
        let share = announced_first as f64 / inbound as f64;
        // DNS-related share × coverage (95%) lands near the paper's 82%;
        // allow generator noise on a short trace.
        assert!(
            share > 0.65 && share < 0.97,
            "announced-before-flow share {share}"
        );
    }

    #[test]
    fn expected_correlation_matches_paper_ballpark() {
        let w = small_workload();
        let expected = w.expected_correlation_fraction();
        assert!(expected > 0.65 && expected < 0.92, "expected {expected}");
    }

    #[test]
    fn announced_flows_trail_their_announcement_by_the_lag() {
        let w = small_workload();
        let lag = w.population().dns_flow_lag_micros;
        let mut last_announce: HashMap<IpKey, u64> = HashMap::new();
        let mut checked = 0u64;
        for event in w.events() {
            match event {
                StreamEvent::Dns(r) => {
                    if let Some(ip) = r.answer.as_ip() {
                        last_announce.insert(IpKey::from_ip(ip), r.ts.as_micros());
                    }
                }
                StreamEvent::Flow(f) => {
                    if f.direction == FlowDirection::Inbound && f.key.dst_port == 443 {
                        if let Some(&at) = last_announce.get(&IpKey::from_ip(f.key.src_ip)) {
                            assert!(
                                f.ts.as_micros() >= at + lag,
                                "flow at {} trails announcement at {at} by less than {lag}us",
                                f.ts.as_micros()
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
        assert!(checked > 100, "lag check exercised only {checked} flows");
    }

    #[test]
    fn clients_come_from_the_population_address_plan() {
        let w = small_workload();
        let population = *w.population();
        let mut seen = 0u64;
        for event in w.events().take(20_000) {
            if let StreamEvent::Flow(f) = event {
                if f.direction == FlowDirection::Inbound && f.key.dst_port == 443 {
                    if let IpAddr::V4(client) = f.key.dst_ip {
                        assert!(
                            population.group_of(client).is_some(),
                            "client {client} outside the subscriber address plan"
                        );
                        seen += 1;
                    } else {
                        panic!("v6 client in a v4 address plan");
                    }
                }
            }
        }
        assert!(seen > 1_000);
    }

    #[test]
    fn dns_query_flows_target_resolver_ports() {
        let w = small_workload();
        let mut to_resolvers = 0u64;
        let mut to_public = 0u64;
        for event in w.events() {
            if let StreamEvent::Flow(f) = event {
                if f.is_dns_or_dot() {
                    to_resolvers += 1;
                    if w.resolvers().is_public(&f.key.dst_ip) {
                        to_public += 1;
                    }
                }
            }
        }
        assert!(to_resolvers > 0);
        let share = to_public as f64 / to_resolvers as f64;
        assert!(share > 0.005 && share < 0.20, "public share {share}");
    }

    #[test]
    fn outbound_replies_to_malformed_domains_exist() {
        let mut cfg = WorkloadConfig::small();
        // Boost malformed traffic so the small trace contains replies.
        cfg.universe.malformed_domains = 400;
        cfg.duration = SimDuration::from_secs(3_600);
        let w = Workload::new(cfg);
        let outbound = w
            .events()
            .filter(|e| {
                matches!(e, StreamEvent::Flow(f)
                    if f.direction == FlowDirection::Outbound && f.key.dst_port == 1194)
            })
            .count();
        assert!(outbound > 0, "expected some outbound replies");
    }

    #[test]
    fn hidden_ips_never_appear_in_dns() {
        let w = small_workload();
        let hidden: HashSet<IpKey> = w
            .hidden_ips()
            .iter()
            .map(|ip| IpKey::from_ip(*ip))
            .collect();
        assert!(!hidden.is_empty());
        for event in w.events() {
            if let StreamEvent::Dns(r) = event {
                if let Some(ip) = r.answer.as_ip() {
                    assert!(
                        !hidden.contains(&IpKey::from_ip(ip)),
                        "hidden IP {ip} leaked into the DNS feed"
                    );
                }
            }
        }
    }

    #[test]
    fn materialize_splits_streams() {
        let mut cfg = WorkloadConfig::small();
        cfg.duration = SimDuration::from_secs(120);
        let w = Workload::new(cfg);
        let (dns, flows) = w.generate();
        assert!(!dns.is_empty());
        assert!(!flows.is_empty());
        // Flow stream ids stay within the configured stream count.
        assert!(flows.iter().all(|f| f.stream.index() < cfg.netflow_streams));
    }

    #[test]
    #[should_panic(expected = "test-only convenience")]
    fn generate_refuses_to_materialize_long_traces() {
        let cfg = WorkloadConfig {
            duration: SimDuration::from_hours(168),
            peak_flows_per_sec: 500.0,
            ..WorkloadConfig::default()
        };
        Workload::new(cfg).generate();
    }

    #[test]
    fn saturation_pool_addresses_follow_the_subscriber_plan() {
        let pool = saturation_pool(1_000);
        assert_eq!(pool.len(), 1_000);
        let distinct: HashSet<Ipv4Addr> = pool.iter().map(|(_, ip)| *ip).collect();
        assert_eq!(distinct.len(), 1_000);
        assert!(pool.iter().all(|(_, ip)| ip.octets()[0] == 10));
    }
}
