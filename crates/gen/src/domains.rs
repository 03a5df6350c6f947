//! The synthetic domain / service / CDN universe.
//!
//! The traffic of the large European ISP is dominated (>85%) by CDN-hosted
//! services; the rest is direct-hosted or not DNS-related at all. The
//! universe built here captures the structure the correlator cares about:
//!
//! * every *service* has a customer-facing domain, an optional CNAME chain
//!   into a CDN namespace, a pool of edge IPs (35% of names map to more
//!   than one IP), an origin AS set (for the Figure 4 use case) and a
//!   popularity weight (heavy-tailed, so a few services dominate bytes);
//! * a configurable share of edge IPs is *shared* between two services,
//!   reproducing the 12% of IPs with multiple names that bounds FlowDNS's
//!   accuracy (Figure 9);
//! * malicious and malformed domains are injected with the category mix of
//!   Section 5 (spam, botnet C&C, abused redirectors, malware, phishing,
//!   and RFC 1035 violations dominated by the underscore character).

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use flowdns_types::{DomainName, ServiceLabel};

use crate::distributions::ChainLengthDist;

/// The category of a domain, following Section 5's taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DomainCategory {
    /// Ordinary benign service.
    Benign,
    /// Spam / generic bad-reputation domain.
    Spam,
    /// Botnet command-and-control domain.
    BotnetCc,
    /// Malware-distribution domain.
    Malware,
    /// Phishing domain.
    Phishing,
    /// Abused spammed redirector domain.
    AbusedRedirector,
    /// Domain violating the RFC 1035 syntax rules.
    Malformed,
}

impl DomainCategory {
    /// All non-benign categories, in the order the paper lists them.
    pub fn suspicious() -> [DomainCategory; 5] {
        [
            DomainCategory::Spam,
            DomainCategory::BotnetCc,
            DomainCategory::AbusedRedirector,
            DomainCategory::Malware,
            DomainCategory::Phishing,
        ]
    }

    /// Label used in reports.
    pub fn label(&self) -> &'static str {
        match self {
            DomainCategory::Benign => "benign",
            DomainCategory::Spam => "spam",
            DomainCategory::BotnetCc => "botnet",
            DomainCategory::Malware => "malware",
            DomainCategory::Phishing => "phish",
            DomainCategory::AbusedRedirector => "abused-redirector",
            DomainCategory::Malformed => "mal-formatted",
        }
    }
}

/// One service of the universe.
#[derive(Debug, Clone)]
pub struct ServiceSpec {
    /// Human-readable service label ("S1", "cdn-svc-17", ...).
    pub label: ServiceLabel,
    /// The customer-facing domain clients query.
    pub customer_domain: DomainName,
    /// CNAME chain from the customer-facing name down to the name the
    /// A/AAAA records are published for. Empty for direct-hosted services.
    /// Ordered customer-side first; the last element owns the A records.
    pub cname_chain: Vec<DomainName>,
    /// Pool of edge IPs that serve this service.
    pub edge_ips: Vec<IpAddr>,
    /// Origin AS numbers of the edge IPs (Figure 4). Traffic is spread
    /// across them proportionally to their position weight.
    pub origin_asns: Vec<u32>,
    /// Relative traffic weight (heavy-tailed).
    pub popularity: f64,
    /// Category of the customer-facing domain.
    pub category: DomainCategory,
    /// Are this service's DNS answers DNS-related at all? Services with
    /// `false` model traffic whose destination IP was never obtained via
    /// DNS (peer-to-peer, hard-coded IPs, ...).
    pub dns_related: bool,
}

impl ServiceSpec {
    /// The name the A/AAAA records are published under (the end of the
    /// CNAME chain, or the customer domain itself).
    pub fn a_record_owner(&self) -> &DomainName {
        self.cname_chain.last().unwrap_or(&self.customer_domain)
    }

    /// Is this service's domain suspicious (any non-benign category except
    /// `Malformed`)?
    pub fn is_suspicious(&self) -> bool {
        !matches!(
            self.category,
            DomainCategory::Benign | DomainCategory::Malformed
        )
    }
}

/// Configuration of the universe.
#[derive(Debug, Clone, Copy)]
pub struct UniverseConfig {
    /// Number of benign CDN-hosted services.
    pub cdn_services: usize,
    /// Number of benign direct-hosted services (no CNAME chain).
    pub direct_services: usize,
    /// Number of services that are *not* DNS-related (their flows can
    /// never be correlated). Their share of traffic models the paper's
    /// "not all the traffic is DNS-related".
    pub non_dns_services: usize,
    /// Counts of suspicious domains: (spam, botnet, redirector, malware,
    /// phishing). The paper's 1M-name hourly sample contained
    /// (512, 41, 34, 11, 3).
    pub suspicious_counts: (usize, usize, usize, usize, usize),
    /// Number of malformed (RFC-violating) domains; 87% of them contain an
    /// underscore, the rest violate other rules.
    pub malformed_domains: usize,
    /// Fraction of edge IPs shared between two different services
    /// (Figure 9: 12% of IPs carry more than one name).
    pub shared_ip_fraction: f64,
    /// Number of IPv4 /24 blocks available per CDN AS.
    pub prefixes_per_as: usize,
    /// Random seed for universe construction.
    pub seed: u64,
}

impl Default for UniverseConfig {
    fn default() -> Self {
        UniverseConfig {
            cdn_services: 180,
            direct_services: 120,
            non_dns_services: 40,
            suspicious_counts: (52, 9, 7, 4, 3),
            malformed_domains: 120,
            shared_ip_fraction: 0.12,
            prefixes_per_as: 4,
            seed: 42,
        }
    }
}

/// The generated universe.
#[derive(Debug, Clone)]
pub struct DomainUniverse {
    /// All services, benign and otherwise.
    pub services: Vec<ServiceSpec>,
    /// Cumulative popularity weights for fast weighted sampling (aligned
    /// with `services`).
    cumulative: Vec<f64>,
    /// The two flagship streaming services used by the Figure 4 use case.
    pub streaming_s1: usize,
    /// Index of streaming service S2.
    pub streaming_s2: usize,
}

/// AS number used for the single-origin streaming service S1.
pub const S1_ASN: u32 = 64_501;
/// First AS number of the dual-origin streaming service S2.
pub const S2_ASN_A: u32 = 64_601;
/// Second AS number of the dual-origin streaming service S2.
pub const S2_ASN_B: u32 = 64_602;
/// AS numbers used for generic CDN services (cycled).
pub const CDN_ASNS: [u32; 6] = [65_010, 65_011, 65_012, 65_013, 65_014, 65_015];

impl DomainUniverse {
    /// Build a universe from `config`.
    pub fn generate(config: &UniverseConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let chain_dist = ChainLengthDist;
        let mut services = Vec::new();
        let mut ip_alloc = IpAllocator::new();

        // --- The two flagship streaming services (Figure 4). -------------
        let streaming_s1 = services.len();
        services.push(make_service(
            "S1",
            "video.stream-one.example",
            "cdn-one.net",
            3,
            24,
            &[S1_ASN],
            55.0,
            DomainCategory::Benign,
            &mut ip_alloc,
            &mut rng,
        ));
        let streaming_s2 = services.len();
        services.push(make_service(
            "S2",
            "play.stream-two.example",
            "cdn-two.net",
            2,
            24,
            &[S2_ASN_A, S2_ASN_B],
            40.0,
            DomainCategory::Benign,
            &mut ip_alloc,
            &mut rng,
        ));

        // --- Ordinary CDN-hosted services. --------------------------------
        for i in 0..config.cdn_services {
            let asn = CDN_ASNS[i % CDN_ASNS.len()];
            let hops = chain_dist.sample(&mut rng).max(1);
            let popularity = zipf_weight(&mut rng, 8.0);
            services.push(make_service(
                &format!("cdn-svc-{i}"),
                &format!("www.service{i}.example"),
                &format!("cdn{}.example-cdn.net", i % CDN_ASNS.len()),
                hops,
                rng.gen_range(2..10),
                &[asn],
                popularity,
                DomainCategory::Benign,
                &mut ip_alloc,
                &mut rng,
            ));
        }

        // --- Direct-hosted services (no CNAME chain). ---------------------
        for i in 0..config.direct_services {
            let popularity = zipf_weight(&mut rng, 1.5);
            services.push(make_service(
                &format!("direct-{i}"),
                &format!("site{i}.direct.example"),
                "",
                0,
                rng.gen_range(1..3),
                &[CDN_ASNS[i % CDN_ASNS.len()]],
                popularity,
                DomainCategory::Benign,
                &mut ip_alloc,
                &mut rng,
            ));
        }

        // --- Traffic that is not DNS-related at all. -----------------------
        for i in 0..config.non_dns_services {
            let mut spec = make_service(
                &format!("non-dns-{i}"),
                &format!("peer{i}.invalid"),
                "",
                0,
                1,
                &[64_900 + (i % 4) as u32],
                // Not-DNS-related traffic (peer-to-peer, hard-coded IPs, ...)
                // carries a noticeable share of ISP bytes; its weight is set
                // so that, together with the 95% resolver coverage, the
                // generator lands near the paper's 81.7% correlation rate.
                zipf_weight(&mut rng, 14.0),
                DomainCategory::Benign,
                &mut ip_alloc,
                &mut rng,
            );
            spec.dns_related = false;
            services.push(spec);
        }

        // --- Suspicious domains (Section 5). -------------------------------
        let (spam, botnet, redirector, malware, phishing) = config.suspicious_counts;
        let suspicious = [
            (DomainCategory::Spam, spam, "spamhub"),
            (DomainCategory::BotnetCc, botnet, "cc-node"),
            (DomainCategory::AbusedRedirector, redirector, "redir"),
            (DomainCategory::Malware, malware, "dropper"),
            (DomainCategory::Phishing, phishing, "login-verify"),
        ];
        for (category, count, stem) in suspicious {
            for i in 0..count {
                services.push(make_service(
                    &format!("{}-{i}", category.label()),
                    &format!("{stem}{i}.bad{}.example", i % 7),
                    "",
                    0,
                    1,
                    &[64_700 + (i % 3) as u32],
                    zipf_weight(&mut rng, 0.08),
                    category,
                    &mut ip_alloc,
                    &mut rng,
                ));
            }
        }

        // --- Malformed domains (Section 5, invalid domain names). ----------
        for i in 0..config.malformed_domains {
            // 87% of malformed names contain an underscore; the rest have a
            // leading-digit label or an over-long label.
            let name = if (i as f64) < config.malformed_domains as f64 * 0.87 {
                format!("_svc{i}._tcp.host{i}.example")
            } else if i % 2 == 0 {
                format!("{i}numeric.host.example")
            } else {
                format!("{}.long.example", "x".repeat(70))
            };
            services.push(make_service(
                &format!("malformed-{i}"),
                &name,
                "",
                0,
                1,
                &[64_800],
                zipf_weight(&mut rng, 0.05),
                DomainCategory::Malformed,
                &mut ip_alloc,
                &mut rng,
            ));
        }

        // --- Shared edge IPs (Figure 9 / accuracy caveat). -----------------
        // Pick pairs of benign CDN services and make them share one IP.
        let benign_indices: Vec<usize> = services
            .iter()
            .enumerate()
            .filter(|(_, s)| s.category == DomainCategory::Benign && s.dns_related)
            .map(|(i, _)| i)
            .collect();
        let total_ips: usize = services.iter().map(|s| s.edge_ips.len()).sum();
        let shares = (total_ips as f64 * config.shared_ip_fraction / 2.0) as usize;
        for _ in 0..shares {
            let a = *benign_indices
                .choose(&mut rng)
                .expect("benign services exist");
            let b = *benign_indices
                .choose(&mut rng)
                .expect("benign services exist");
            if a == b {
                continue;
            }
            let ip = *services[a]
                .edge_ips
                .choose(&mut rng)
                .expect("service has IPs");
            services[b].edge_ips.push(ip);
        }

        let mut cumulative = Vec::with_capacity(services.len());
        let mut acc = 0.0;
        for s in &services {
            acc += s.popularity;
            cumulative.push(acc);
        }

        DomainUniverse {
            services,
            cumulative,
            streaming_s1,
            streaming_s2,
        }
    }

    /// Total popularity weight.
    pub fn total_weight(&self) -> f64 {
        *self.cumulative.last().unwrap_or(&0.0)
    }

    /// Pick a service index, weighted by popularity.
    pub fn pick_service(&self, rng: &mut StdRng) -> usize {
        let x: f64 = rng.gen_range(0.0..self.total_weight());
        match self
            .cumulative
            .binary_search_by(|w| w.partial_cmp(&x).expect("weights are finite"))
        {
            Ok(i) | Err(i) => i.min(self.services.len() - 1),
        }
    }

    /// The services of a given category.
    pub fn by_category(&self, category: DomainCategory) -> impl Iterator<Item = &ServiceSpec> {
        self.services.iter().filter(move |s| s.category == category)
    }

    /// Render the universe's BGP announcements in the `prefix origin_as`
    /// text format `flowdns_bgp::RoutingTable::from_announcements_text`
    /// parses and the `routing_table` config key loads: every service's
    /// edge IPs announced as host routes (/32 IPv4, /128 IPv6) spread
    /// round-robin across the service's origin ASes. Host routes keep
    /// neighbouring services (whose synthetic edge IPs share /24 blocks)
    /// from hijacking each other's attribution.
    pub fn announcements_text(&self) -> String {
        let mut out = String::new();
        out.push_str("# BGP announcements derived from the generated CDN universe\n");
        for service in &self.services {
            if service.origin_asns.is_empty() {
                continue;
            }
            for (i, ip) in service.edge_ips.iter().enumerate() {
                // Spread the service's address space across its origin
                // ASes (uneven when there are two, matching Figure 4b).
                let asn = service.origin_asns[i % service.origin_asns.len()];
                let len = match ip {
                    IpAddr::V4(_) => 32,
                    IpAddr::V6(_) => 128,
                };
                out.push_str(&format!("{ip}/{len} {asn}\n"));
            }
        }
        out
    }

    /// Write [`DomainUniverse::announcements_text`] to a file, so a
    /// `flowdnsd` deployment (or test) can point its `routing_table`
    /// config key at the generated universe.
    pub fn write_announcements<P: AsRef<std::path::Path>>(&self, path: P) -> std::io::Result<()> {
        std::fs::write(path, self.announcements_text())
    }

    /// The share of total popularity weight carried by DNS-related
    /// services visible in the universe (an upper bound on the
    /// correlation rate before coverage effects).
    pub fn dns_related_weight_share(&self) -> f64 {
        let dns: f64 = self
            .services
            .iter()
            .filter(|s| s.dns_related)
            .map(|s| s.popularity)
            .sum();
        dns / self.total_weight()
    }
}

/// Allocates non-overlapping synthetic edge IPs.
#[derive(Debug)]
struct IpAllocator {
    next_v4: u32,
    next_v6: u64,
}

impl IpAllocator {
    fn new() -> Self {
        IpAllocator {
            // Start inside 100.64.0.0/10 (CGN space) — plenty of room and
            // clearly synthetic.
            next_v4: u32::from(Ipv4Addr::new(100, 64, 0, 1)),
            next_v6: 1,
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> IpAddr {
        // ~15% of edge IPs are IPv6, the rest IPv4.
        if rng.gen_bool(0.15) {
            let ip = Ipv6Addr::new(
                0x2001,
                0xdb8,
                0xcd,
                0,
                0,
                0,
                (self.next_v6 >> 16) as u16,
                self.next_v6 as u16,
            );
            self.next_v6 += 1;
            IpAddr::V6(ip)
        } else {
            let ip = Ipv4Addr::from(self.next_v4);
            self.next_v4 += 1;
            IpAddr::V4(ip)
        }
    }
}

fn zipf_weight(rng: &mut StdRng, scale: f64) -> f64 {
    // Pareto-like heavy tail: a few services get very large weights.
    let u: f64 = rng.gen_range(0.01..1.0);
    scale * u.powf(-0.8) / 10.0
}

#[allow(clippy::too_many_arguments)]
fn make_service(
    label: &str,
    customer_domain: &str,
    cdn_suffix: &str,
    chain_hops: usize,
    ip_count: usize,
    asns: &[u32],
    popularity: f64,
    category: DomainCategory,
    ips: &mut IpAllocator,
    rng: &mut StdRng,
) -> ServiceSpec {
    let customer = DomainName::literal(customer_domain);
    let mut chain = Vec::with_capacity(chain_hops);
    for hop in 0..chain_hops {
        let name = format!(
            "edge{hop}-{}.{}",
            label.replace('.', "-"),
            if cdn_suffix.is_empty() {
                "cdn.example-cdn.net"
            } else {
                cdn_suffix
            }
        );
        chain.push(DomainName::literal(&name));
    }
    let edge_ips = (0..ip_count.max(1)).map(|_| ips.next(rng)).collect();
    ServiceSpec {
        label: ServiceLabel::new(label),
        customer_domain: customer,
        cname_chain: chain,
        edge_ips,
        origin_asns: asns.to_vec(),
        popularity,
        category,
        dns_related: true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn universe() -> DomainUniverse {
        DomainUniverse::generate(&UniverseConfig::default())
    }

    #[test]
    fn universe_has_expected_composition() {
        let u = universe();
        let cfg = UniverseConfig::default();
        let benign = u.by_category(DomainCategory::Benign).count();
        assert_eq!(
            benign,
            2 + cfg.cdn_services + cfg.direct_services + cfg.non_dns_services
        );
        assert_eq!(
            u.by_category(DomainCategory::Spam).count(),
            cfg.suspicious_counts.0
        );
        assert_eq!(
            u.by_category(DomainCategory::BotnetCc).count(),
            cfg.suspicious_counts.1
        );
        assert_eq!(
            u.by_category(DomainCategory::Malformed).count(),
            cfg.malformed_domains
        );
    }

    #[test]
    fn streaming_services_have_expected_as_structure() {
        let u = universe();
        let s1 = &u.services[u.streaming_s1];
        let s2 = &u.services[u.streaming_s2];
        assert_eq!(s1.origin_asns, vec![S1_ASN]);
        assert_eq!(s2.origin_asns, vec![S2_ASN_A, S2_ASN_B]);
        assert_eq!(s1.label.as_str(), "S1");
        assert!(!s1.cname_chain.is_empty());
    }

    #[test]
    fn announcements_cover_every_edge_ip_as_host_routes() {
        let u = universe();
        let text = u.announcements_text();
        // One line per edge IP of every AS-bearing service (plus header).
        let expected: usize = u
            .services
            .iter()
            .filter(|s| !s.origin_asns.is_empty())
            .map(|s| s.edge_ips.len())
            .sum();
        let lines: Vec<&str> = text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .collect();
        assert_eq!(lines.len(), expected);
        for line in &lines {
            let (prefix, asn) = line.split_once(' ').expect("prefix asn");
            assert!(
                prefix.ends_with("/32") || prefix.ends_with("/128"),
                "{prefix}"
            );
            assert!(asn.parse::<u32>().unwrap() > 0);
        }
        // S1's edge IPs are all announced by S1's single AS.
        let s1 = &u.services[u.streaming_s1];
        for ip in &s1.edge_ips {
            assert!(
                text.contains(&format!("{ip}/32 {S1_ASN}"))
                    || text.contains(&format!("{ip}/128 {S1_ASN}")),
                "missing host route for {ip}"
            );
        }
        // write_announcements round-trips through the filesystem.
        let dir = std::env::temp_dir().join("flowdns-gen-announcements-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("rib.txt");
        u.write_announcements(&path).unwrap();
        assert_eq!(std::fs::read_to_string(&path).unwrap(), text);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_domains_mostly_contain_underscores() {
        let u = universe();
        let malformed: Vec<&ServiceSpec> = u.by_category(DomainCategory::Malformed).collect();
        let with_underscore = malformed
            .iter()
            .filter(|s| s.customer_domain.as_str().contains('_'))
            .count();
        let share = with_underscore as f64 / malformed.len() as f64;
        assert!((share - 0.87).abs() < 0.03, "underscore share {share}");
    }

    #[test]
    fn weighted_sampling_is_heavy_tailed_and_in_range() {
        let u = universe();
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = vec![0u32; u.services.len()];
        for _ in 0..20_000 {
            counts[u.pick_service(&mut rng)] += 1;
        }
        // The flagship streaming services must receive a large share.
        assert!(counts[u.streaming_s1] > 1_000);
        // Everything sampled is a valid index (implicit) and suspicious
        // domains receive only a small share of picks.
        let suspicious_picks: u32 = u
            .services
            .iter()
            .zip(&counts)
            .filter(|(s, _)| s.is_suspicious())
            .map(|(_, c)| *c)
            .sum();
        assert!((suspicious_picks as f64) < 20_000.0 * 0.05);
    }

    #[test]
    fn some_ips_are_shared_between_services() {
        let u = universe();
        use std::collections::HashMap;
        let mut owners: HashMap<IpAddr, usize> = HashMap::new();
        for s in &u.services {
            for ip in &s.edge_ips {
                *owners.entry(*ip).or_default() += 1;
            }
        }
        let shared = owners.values().filter(|c| **c > 1).count();
        assert!(shared > 0, "expected some shared IPs");
        let share = shared as f64 / owners.len() as f64;
        assert!(share < 0.25, "shared share should stay a minority: {share}");
    }

    #[test]
    fn dns_related_share_is_large_but_not_total() {
        let u = universe();
        let share = u.dns_related_weight_share();
        assert!(share > 0.7 && share < 0.97, "share {share}");
    }

    #[test]
    fn a_record_owner_is_chain_end_or_customer_domain() {
        let u = universe();
        for s in &u.services {
            if s.cname_chain.is_empty() {
                assert_eq!(s.a_record_owner(), &s.customer_domain);
            } else {
                assert_eq!(s.a_record_owner(), s.cname_chain.last().unwrap());
            }
        }
    }
}
