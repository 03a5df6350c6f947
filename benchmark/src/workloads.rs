//! The four seeded workloads: what the store holds before the run
//! (`preload`), and one *lap* of trace records that the generator sends
//! round and round.
//!
//! A lap is built so that a flow's outcome does not depend on how DNS and
//! flow records interleave on their way through the daemon: every mapping
//! a lap flow can hit is already in the preloaded store, and no DNS record
//! of the lap changes the name an address resolves to. That makes the lap
//! repeatable (lap 2 gives the same lines as lap 1) and lets the reference
//! be computed once per lap.

use std::collections::HashMap;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use flowdns_core::simulate::Event;
use flowdns_gen::{StreamEvent, SubscriberPopulation, Workload, WorkloadConfig};
use flowdns_types::{DnsAnswer, DnsRecord, DomainName, FlowRecord, SimDuration, SimTime};

/// Data time every trace starts at; ten digits, so TSV lines keep one
/// length for the whole run.
pub const T_BASE: u64 = 1_700_000_000;

/// TTL of preloaded entries: far above every clear-up interval, so they
/// sit in the Long maps and survive rotation.
const LONG_TTL: u32 = 86_400;

/// Trace records (flows + DNS) in one lap.
const LAP_RECORDS: usize = 720_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    V5,
    V9,
    Ipfix,
}

/// The knobs a workload pins besides its records.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    pub format: Format,
    pub per_datagram: usize,
    /// `a_clear_up_interval` of the daemon, data seconds.
    pub a_clear_up_interval: u64,
    /// Data seconds that pass per wall second.
    pub time_speed: u64,
    /// Offered load of the open-loop phase, trace records per second:
    /// about half the capacity measured when the benchmark was defined.
    pub paced_rate: f64,
}

pub struct Trace {
    pub spec: Spec,
    pub preload: Vec<DnsRecord>,
    pub lap: Vec<Event>,
    /// `prefix origin_as` lines for the daemon's `routing_table`.
    pub rib: Option<String>,
}

pub const NAMES: [&str; 4] = ["isp_mix", "dns_storm", "small_dgrams", "wide_store"];

pub fn build(name: &str, seed: u64) -> Option<Trace> {
    match name {
        "isp_mix" => Some(isp_mix(seed)),
        "dns_storm" => Some(dns_storm(seed)),
        "small_dgrams" => Some(small_dgrams(seed)),
        "wide_store" => Some(wide_store(seed)),
        _ => None,
    }
}

/// SplitMix64: a seedable generator small enough to own here, so the
/// traces depend on nothing but the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x1234_5678_9abc_def0)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn base_ts() -> SimTime {
    SimTime::from_secs(T_BASE)
}

fn v4(base: u32, i: u32) -> IpAddr {
    IpAddr::V4(Ipv4Addr::from(base + i))
}

fn v6(group: u16, i: u32) -> IpAddr {
    IpAddr::V6(Ipv6Addr::new(
        0x2001,
        0xdb8,
        group,
        0,
        0,
        0,
        (i >> 16) as u16,
        i as u16,
    ))
}

/// A subscriber address; IPv6 when the flow's source is, because one
/// export template carries one address family.
fn client(rng: &mut Rng, family_of: IpAddr) -> IpAddr {
    let host = rng.below(1 << 22) as u32;
    match family_of {
        IpAddr::V4(_) => v4(0x0a00_0000, host),
        IpAddr::V6(_) => v6(0xc1, host),
    }
}

fn flow(src: IpAddr, dst: IpAddr, bytes: u64) -> FlowRecord {
    FlowRecord::inbound(base_ts(), src, dst, bytes)
}

fn flow_bytes(rng: &mut Rng) -> u64 {
    // A few packets to a few hundred kilobytes, skewed small.
    let r = rng.next();
    400 + (r % 1_400) * (1 + (r >> 32) % 97)
}

/// `n` long-TTL address records `{stem}{i}{suffix}` over consecutive IPv4
/// addresses from `base`.
fn filler(n: usize, base: u32, stem: &str, suffix: &str) -> Vec<DnsRecord> {
    (0..n as u32)
        .map(|i| {
            DnsRecord::address(
                base_ts(),
                DomainName::literal(&format!("{stem}{i}{suffix}")),
                v4(base, i),
                LONG_TTL,
            )
        })
        .collect()
}

/// The paper's deployment shape: the subscriber-population model over the
/// CDN universe, NetFlow v9 with both address families, about one DNS
/// record per six flows.
///
/// The model's own seed stays fixed, and with it the universe and the set
/// of edge addresses hidden behind public resolvers: they are the
/// deployment. `seed` picks the stretch of the model's day the lap is cut
/// from, so laps of different seeds differ in every record and agree in
/// composition.
fn isp_mix(seed: u64) -> Trace {
    let mut population = SubscriberPopulation::mixed();
    // The model's 2 GB sessions would let the three largest flows of a
    // lap decide its byte-weighted correlation rate.
    population.flow_sizes.max_bytes = 50_000_000;
    let config = WorkloadConfig {
        population,
        duration: SimDuration::from_hours(6),
        peak_flows_per_sec: 4_000.0,
        // Every second draw re-announces an address (CNAME chain plus
        // A record), which lands the stream near one DNS record per six
        // flows.
        background_dns_per_sec: 1_900.0,
        ..WorkloadConfig::default()
    };
    let workload = Workload::new(config);
    // Past the first minutes, in which every address is announced for the
    // first time.
    let skip = 200_000 + (seed % 256) as usize * 8_191;
    let mut rng = Rng::new(seed);
    let mut lap = Vec::with_capacity(LAP_RECORDS);
    let mut announced = Vec::new();
    // The first name an address is announced under stays its name: a later
    // announcement under another name (the universe shares some edge
    // addresses between services) is left out, so no record of the lap
    // changes an outcome.
    let mut name_of: HashMap<IpAddr, DomainName> = HashMap::new();
    for (position, event) in workload.events().enumerate() {
        if lap.len() >= LAP_RECORDS {
            break;
        }
        match event {
            StreamEvent::Dns(mut record) => {
                if let DnsAnswer::Ip(ip) = &record.answer {
                    let first = name_of.entry(*ip).or_insert_with(|| record.query.clone());
                    if *first != record.query {
                        continue;
                    }
                }
                record.ts = base_ts();
                // Everything announced up to the end of the lap is in the
                // store before the lap starts.
                announced.push(record.clone());
                if position >= skip {
                    lap.push(Event::Dns(record));
                }
            }
            StreamEvent::Flow(f) if position >= skip => {
                let dst = match (f.key.src_ip, f.key.dst_ip) {
                    (IpAddr::V4(_), IpAddr::V4(_)) | (IpAddr::V6(_), IpAddr::V6(_)) => f.key.dst_ip,
                    (src, _) => client(&mut rng, src),
                };
                lap.push(Event::Flow(flow(f.key.src_ip, dst, f.bytes.max(1))));
            }
            StreamEvent::Flow(_) => {}
        }
    }
    let mut preload = filler(600_000, 0x0b00_0000, "h", ".fill.example");
    preload.extend(announced);
    let mut rib = workload.universe().announcements_text();
    rib.push_str("10.0.0.0/8 64512\n2001:db8:c1::/48 64512\n");
    Trace {
        spec: Spec {
            name: "isp_mix",
            format: Format::V9,
            per_datagram: 24,
            a_clear_up_interval: 3_600,
            time_speed: 1,
            paced_rate: 200_000.0,
        },
        preload,
        lap,
        rib: Some(rib),
    }
}

/// The write side of the store: four DNS records per flow, every response
/// of a lap under a name of its own with three answers behind a two-hop
/// CNAME chain and a TTL below the clear-up interval; data time runs 60x,
/// so the store rotates once per wall second, which is also the width of
/// a throughput window: every window holds one whole rotation cycle.
/// Flows hit only the preloaded long-TTL entries.
fn dns_storm(seed: u64) -> Trace {
    const STORE: usize = 500_000;
    const RESPONSE_TTL: u32 = 30;
    let mut rng = Rng::new(seed);
    let preload = filler(STORE, 0x0b00_0000, "h", ".fill.example");
    let mut lap = Vec::with_capacity(LAP_RECORDS);
    let mut response = 0u32;
    while lap.len() < LAP_RECORDS {
        // Five blocks of four DNS records and one flow hold four
        // responses of five records each.
        let mut dns = Vec::with_capacity(20);
        for _ in 0..4 {
            let tag = format!("{response:06x}-{:04x}", seed & 0xffff);
            let query = DomainName::literal(&format!("www.r{tag}.storm.example"));
            let hop = DomainName::literal(&format!("r{tag}.edge.storm-cdn.example"));
            let owner = DomainName::literal(&format!("a{tag}.pop.storm-cdn.example"));
            dns.push(DnsRecord::cname(
                base_ts(),
                query,
                hop.clone(),
                RESPONSE_TTL,
            ));
            dns.push(DnsRecord::cname(
                base_ts(),
                hop,
                owner.clone(),
                RESPONSE_TTL,
            ));
            for answer in 0..3 {
                let ip = v4(0x0c00_0000, response * 3 + answer);
                dns.push(DnsRecord::address(
                    base_ts(),
                    owner.clone(),
                    ip,
                    RESPONSE_TTL,
                ));
            }
            response += 1;
        }
        for block in dns.chunks(4) {
            lap.extend(block.iter().cloned().map(Event::Dns));
            let src = v4(0x0b00_0000, rng.below(STORE as u64) as u32);
            let dst = client(&mut rng, src);
            let bytes = flow_bytes(&mut rng);
            lap.push(Event::Flow(flow(src, dst, bytes)));
        }
    }
    Trace {
        spec: Spec {
            name: "dns_storm",
            format: Format::V5,
            per_datagram: 24,
            a_clear_up_interval: 60,
            time_speed: 60,
            paced_rate: 250_000.0,
        },
        preload,
        lap,
        rib: None,
    }
}

/// The smallest-packet case: two v5 records per datagram, 8k hot sources,
/// no CNAMEs, no routing table, no DNS traffic.
fn small_dgrams(seed: u64) -> Trace {
    const STORE: usize = 500_000;
    const HOT: u64 = 8_192;
    let mut rng = Rng::new(seed);
    let preload = filler(STORE, 0x0b00_0000, "s", ".ex");
    // The hot sources are spread over the whole store.
    let hot: Vec<u32> = (0..HOT).map(|_| rng.below(STORE as u64) as u32).collect();
    let lap = (0..LAP_RECORDS)
        .map(|_| {
            let src = v4(0x0b00_0000, hot[rng.below(HOT) as usize]);
            let dst = client(&mut rng, src);
            let bytes = flow_bytes(&mut rng);
            Event::Flow(flow(src, dst, bytes))
        })
        .collect();
    Trace {
        spec: Spec {
            name: "small_dgrams",
            format: Format::V5,
            per_datagram: 2,
            a_clear_up_interval: 3_600,
            time_speed: 1,
            paced_rate: 190_000.0,
        },
        preload,
        lap,
        rib: None,
    }
}

/// The read side of the store on a working set far beyond cache: sources
/// uniform over a wide store (30 % IPv6), 30 % never announced, every hit
/// behind a 3-4-hop CNAME chain of 60-90-character names, a 120k-prefix
/// routing table stamping both endpoints, a 2 % DNS refresh trickle.
fn wide_store(seed: u64) -> Trace {
    const ADDRESSES: u32 = 700_000;
    const PER_OWNER: u32 = 8;
    const PREFIXES: usize = 120_000;
    let mut rng = Rng::new(seed);
    let address = |i: u32| {
        if i % 10 < 3 {
            v6(0xcd, i)
        } else {
            v4(0x6440_0000, i)
        }
    };
    // 60-90 characters per name.
    let name = |kind: &str, owner: u32, hop: u32| {
        let pad = "x".repeat(2 + (owner as usize * 7 + hop as usize * 3) % 23);
        DomainName::literal(&format!(
            "{kind}{hop}-{owner:07x}.{pad}.wide-store-benchmark.cdn-provider.example.net"
        ))
    };
    let owners = ADDRESSES / PER_OWNER;
    let mut preload = Vec::with_capacity(ADDRESSES as usize + owners as usize * 4);
    let mut chains: Vec<Vec<DnsRecord>> = Vec::with_capacity(owners as usize);
    for owner in 0..owners {
        // customer -> hop1 -> .. -> the name the A records are under.
        let hops = 3 + owner % 2;
        let mut chain = Vec::with_capacity(hops as usize);
        let mut alias = name("www", owner, 0);
        for hop in 1..=hops {
            let kind = if hop == hops { "pop" } else { "edge" };
            let target = name(kind, owner, hop);
            chain.push(DnsRecord::cname(base_ts(), alias, target.clone(), LONG_TTL));
            alias = target;
        }
        preload.extend(chain.iter().cloned());
        for k in 0..PER_OWNER {
            let ip = address(owner * PER_OWNER + k);
            preload.push(DnsRecord::address(base_ts(), alias.clone(), ip, LONG_TTL));
        }
        chains.push(chain);
    }
    let a_record_of = |i: u32, ttl: u32| {
        let owner = i / PER_OWNER;
        let hops = 3 + owner % 2;
        DnsRecord::address(base_ts(), name("pop", owner, hops), address(i), ttl)
    };
    let mut lap = Vec::with_capacity(LAP_RECORDS);
    while lap.len() < LAP_RECORDS {
        if rng.below(50) == 0 {
            // Refresh trickle: an entry the store already has, again.
            let i = rng.below(ADDRESSES as u64) as u32;
            if rng.below(3) == 0 {
                let chain = &chains[(i / PER_OWNER) as usize];
                let mut record = chain[rng.below(chain.len() as u64) as usize].clone();
                record.ttl = 300;
                lap.push(Event::Dns(record));
            } else {
                lap.push(Event::Dns(a_record_of(i, 300)));
            }
            continue;
        }
        let i = rng.below(ADDRESSES as u64) as u32;
        let src = if rng.below(10) < 3 {
            // Same address plan, never announced.
            match address(i) {
                IpAddr::V4(_) => v4(0x6480_0000, i),
                IpAddr::V6(_) => v6(0xce, i),
            }
        } else {
            address(i)
        };
        let dst = client(&mut rng, src);
        let bytes = flow_bytes(&mut rng);
        lap.push(Event::Flow(flow(src, dst, bytes)));
    }
    // /24s over the announced IPv4 range, /112s over the IPv6 range, and
    // the subscriber /10 as /24s with their /25, /26 and some /27
    // more-specifics: both endpoints of a flow get an origin AS, from a
    // longest-prefix match with something to choose between.
    let mut rib = Vec::with_capacity(PREFIXES);
    for block in 0..=(ADDRESSES >> 8) {
        let net = Ipv4Addr::from(0x6440_0000 + (block << 8));
        rib.push(format!("{net}/24 {}", 65_000 + block % 500));
    }
    for block in 0..=(ADDRESSES >> 16) {
        rib.push(format!("2001:db8:cd::{block:x}:0/112 {}", 64_700 + block));
    }
    rib.push("2001:db8:c1::/48 64512".to_string());
    for len in [24u32, 25, 26, 27] {
        let step = 1u32 << (32 - len);
        let mut net = 0x0a00_0000u32;
        while net < 0x0a40_0000 && rib.len() < PREFIXES {
            rib.push(format!(
                "{}/{len} {}",
                Ipv4Addr::from(net),
                64_512 + (net >> 8) % 8
            ));
            net += step;
        }
    }
    Trace {
        spec: Spec {
            name: "wide_store",
            format: Format::Ipfix,
            per_datagram: 24,
            a_clear_up_interval: 3_600,
            time_speed: 1,
            paced_rate: 110_000.0,
        },
        preload,
        lap,
        rib: Some(rib.join("\n") + "\n"),
    }
}
