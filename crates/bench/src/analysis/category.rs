//! Blocklist / validity classification of correlated traffic (Section 5).
//!
//! For every correlated record the analysis classifies the customer-facing
//! domain name as benign, one of the Spamhaus-style blocklist categories,
//! or malformed (RFC 1035 violation), and accumulates per-domain traffic.
//! It also tracks bidirectional traffic towards malformed domains: the
//! paper reports that 2.7% of clients receiving traffic from malformed
//! domains send traffic back, reaching 23.6% of those domains, and that
//! this bidirectional exchange accounts for 1.9% of packets.

use std::collections::{HashMap, HashSet};
use std::net::IpAddr;

use flowdns_types::{CorrelatedRecord, DomainName, FlowDirection};

use super::blocklist::{Blocklist, BlocklistCategory};
use super::traffic::TrafficByKey;
use super::validity::ValidityStats;

/// The traffic categories of the Section 5 analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrafficCategory {
    /// Not flagged by any check.
    Benign,
    /// Flagged by the blocklist.
    Listed(BlocklistCategory),
    /// Violates the RFC 1035 syntax rules.
    Malformed,
    /// Could not be correlated with any name at all.
    Uncorrelated,
}

impl TrafficCategory {
    /// Label used in reports (matches the facet labels of Figure 5).
    pub fn label(&self) -> &'static str {
        match self {
            TrafficCategory::Benign => "benign",
            TrafficCategory::Listed(cat) => cat.label(),
            TrafficCategory::Malformed => "mal-formatted",
            TrafficCategory::Uncorrelated => "uncorrelated",
        }
    }
}

/// The Section 5 traffic analysis.
#[derive(Debug)]
pub struct CategoryAnalysis {
    blocklist: Blocklist,
    validity: ValidityStats,
    /// Per-category, per-domain traffic.
    per_category: HashMap<TrafficCategory, TrafficByKey>,
    /// Total bytes seen (including uncorrelated traffic).
    pub total_bytes: u64,
    /// Total packets seen.
    pub total_packets: u64,
    // Bidirectional-traffic bookkeeping for malformed domains.
    malformed_ips: HashSet<IpAddr>,
    malformed_ip_to_domain: HashMap<IpAddr, DomainName>,
    clients_receiving: HashSet<IpAddr>,
    clients_replying: HashSet<IpAddr>,
    malformed_domains_seen: HashSet<DomainName>,
    malformed_domains_replied_to: HashSet<DomainName>,
    bidirectional_packets: u64,
}

impl CategoryAnalysis {
    /// Build an analysis using the given blocklist.
    pub fn new(blocklist: Blocklist) -> Self {
        CategoryAnalysis {
            blocklist,
            validity: ValidityStats::new(),
            per_category: HashMap::new(),
            total_bytes: 0,
            total_packets: 0,
            malformed_ips: HashSet::new(),
            malformed_ip_to_domain: HashMap::new(),
            clients_receiving: HashSet::new(),
            clients_replying: HashSet::new(),
            malformed_domains_seen: HashSet::new(),
            malformed_domains_replied_to: HashSet::new(),
            bidirectional_packets: 0,
        }
    }

    /// Classify a domain name.
    fn classify(&mut self, domain: &DomainName) -> TrafficCategory {
        if let Some(listed) = self.blocklist.lookup(domain) {
            return TrafficCategory::Listed(listed);
        }
        let report = self.validity.observe(domain);
        if report.is_valid() {
            TrafficCategory::Benign
        } else {
            TrafficCategory::Malformed
        }
    }

    /// Observe one correlated record (inbound content traffic or outbound
    /// client traffic).
    pub fn observe(&mut self, record: &CorrelatedRecord) {
        self.total_bytes += record.flow.bytes;
        self.total_packets += record.flow.packets;

        // Outbound flows: check whether a client is answering a malformed
        // domain it previously received traffic from.
        if record.flow.direction == FlowDirection::Outbound {
            if self.malformed_ips.contains(&record.flow.key.dst_ip)
                && self.clients_receiving.contains(&record.flow.key.src_ip)
            {
                self.clients_replying.insert(record.flow.key.src_ip);
                if let Some(domain) = self.malformed_ip_to_domain.get(&record.flow.key.dst_ip) {
                    self.malformed_domains_replied_to.insert(domain.clone());
                }
                self.bidirectional_packets += record.flow.packets;
            }
            return;
        }

        let category = match record.outcome.final_name() {
            None => TrafficCategory::Uncorrelated,
            Some(name) => {
                let name = name.clone();
                self.classify(&name)
            }
        };
        let key = record
            .outcome
            .final_name()
            .map(|n| n.as_str().to_string())
            .unwrap_or_else(|| "-".to_string());
        self.per_category
            .entry(category)
            .or_default()
            .add(&key, record.flow.bytes);

        if category == TrafficCategory::Malformed {
            if let Some(name) = record.outcome.final_name() {
                self.malformed_domains_seen.insert(name.clone());
                self.malformed_ips.insert(record.flow.key.src_ip);
                self.malformed_ip_to_domain
                    .insert(record.flow.key.src_ip, name.clone());
            }
            self.clients_receiving.insert(record.flow.key.dst_ip);
        }
    }

    /// Traffic accumulator for one category, if any traffic was seen.
    pub fn traffic(&self, category: TrafficCategory) -> Option<&TrafficByKey> {
        self.per_category.get(&category)
    }

    /// Validity statistics over the correlated names.
    pub fn validity(&self) -> &ValidityStats {
        &self.validity
    }

    /// Share of total traffic that is suspicious (blocklisted) or
    /// malformed (the paper: about 0.5% of daily traffic).
    pub fn suspicious_and_malformed_share(&self) -> f64 {
        if self.total_bytes == 0 {
            return 0.0;
        }
        let bytes: u64 = self
            .per_category
            .iter()
            .filter(|(cat, _)| {
                matches!(cat, TrafficCategory::Listed(_) | TrafficCategory::Malformed)
            })
            .map(|(_, t)| t.total_bytes())
            .sum();
        bytes as f64 / self.total_bytes as f64
    }

    /// Number of distinct suspicious domains observed per category.
    pub fn suspicious_domain_counts(&self) -> Vec<(BlocklistCategory, usize)> {
        BlocklistCategory::all()
            .into_iter()
            .map(|cat| {
                let count = self
                    .per_category
                    .get(&TrafficCategory::Listed(cat))
                    .map(|t| t.key_count())
                    .unwrap_or(0);
                (cat, count)
            })
            .collect()
    }

    /// Bidirectional-traffic statistics for malformed domains:
    /// `(client_reply_share, replied_domain_share, bidirectional_packet_share)`.
    pub fn malformed_bidirectional_stats(&self) -> (f64, f64, f64) {
        let client_share = if self.clients_receiving.is_empty() {
            0.0
        } else {
            self.clients_replying.len() as f64 / self.clients_receiving.len() as f64
        };
        let domain_share = if self.malformed_domains_seen.is_empty() {
            0.0
        } else {
            self.malformed_domains_replied_to.len() as f64
                / self.malformed_domains_seen.len() as f64
        };
        let packet_share = if self.total_packets == 0 {
            0.0
        } else {
            self.bidirectional_packets as f64 / self.total_packets as f64
        };
        (client_share, domain_share, packet_share)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdns_types::{CorrelationOutcome, FlowKey, FlowRecord, Protocol, SimTime, StreamId};
    use std::net::Ipv4Addr;

    fn blocklist() -> Blocklist {
        let mut bl = Blocklist::new();
        bl.add(
            DomainName::literal("spamhub0.bad0.example"),
            BlocklistCategory::Spam,
        );
        bl.add(
            DomainName::literal("cc-node0.bad1.example"),
            BlocklistCategory::BotnetCc,
        );
        bl
    }

    fn inbound(src: [u8; 4], dst: [u8; 4], bytes: u64, name: Option<&str>) -> CorrelatedRecord {
        CorrelatedRecord::new(
            FlowRecord::inbound(
                SimTime::from_secs(100),
                Ipv4Addr::from(src).into(),
                Ipv4Addr::from(dst).into(),
                bytes,
            ),
            match name {
                Some(n) => CorrelationOutcome::Name(DomainName::literal(n)),
                None => CorrelationOutcome::NotFound,
            },
        )
    }

    fn outbound(src: [u8; 4], dst: [u8; 4], bytes: u64) -> CorrelatedRecord {
        CorrelatedRecord::new(
            FlowRecord {
                ts: SimTime::from_secs(200),
                key: FlowKey {
                    src_ip: Ipv4Addr::from(src).into(),
                    dst_ip: Ipv4Addr::from(dst).into(),
                    src_port: 50000,
                    dst_port: 1194,
                    proto: Protocol::Tcp,
                },
                packets: (bytes / 1400).max(1),
                bytes,
                stream: StreamId::new(0),
                direction: FlowDirection::Outbound,
                trace: None,
            },
            CorrelationOutcome::NotFound,
        )
    }

    #[test]
    fn classification_covers_all_categories() {
        let mut analysis = CategoryAnalysis::new(blocklist());
        analysis.observe(&inbound(
            [1, 1, 1, 1],
            [10, 0, 0, 1],
            10_000,
            Some("www.shop.example"),
        ));
        analysis.observe(&inbound(
            [2, 2, 2, 2],
            [10, 0, 0, 2],
            500,
            Some("spamhub0.bad0.example"),
        ));
        analysis.observe(&inbound(
            [3, 3, 3, 3],
            [10, 0, 0, 3],
            300,
            Some("cc-node0.bad1.example"),
        ));
        analysis.observe(&inbound(
            [4, 4, 4, 4],
            [10, 0, 0, 4],
            200,
            Some("_svc1._tcp.host.example"),
        ));
        analysis.observe(&inbound([5, 5, 5, 5], [10, 0, 0, 5], 700, None));

        assert_eq!(analysis.total_bytes, 11_700);
        assert_eq!(
            analysis
                .traffic(TrafficCategory::Benign)
                .unwrap()
                .total_bytes(),
            10_000
        );
        assert_eq!(
            analysis
                .traffic(TrafficCategory::Listed(BlocklistCategory::Spam))
                .unwrap()
                .total_bytes(),
            500
        );
        assert_eq!(
            analysis
                .traffic(TrafficCategory::Malformed)
                .unwrap()
                .total_bytes(),
            200
        );
        assert_eq!(
            analysis
                .traffic(TrafficCategory::Uncorrelated)
                .unwrap()
                .total_bytes(),
            700
        );
        let share = analysis.suspicious_and_malformed_share();
        assert!((share - 1000.0 / 11_700.0).abs() < 1e-9);
        let counts = analysis.suspicious_domain_counts();
        assert_eq!(counts[0], (BlocklistCategory::Spam, 1));
        assert_eq!(counts[1], (BlocklistCategory::BotnetCc, 1));
        assert!(analysis.validity().invalid >= 1);
    }

    #[test]
    fn bidirectional_malformed_traffic_is_tracked() {
        let mut analysis = CategoryAnalysis::new(blocklist());
        // Two clients receive malformed traffic from the same bad IP.
        analysis.observe(&inbound(
            [9, 9, 9, 9],
            [10, 0, 0, 1],
            400,
            Some("_bad.host.example"),
        ));
        analysis.observe(&inbound(
            [9, 9, 9, 9],
            [10, 0, 0, 2],
            400,
            Some("_bad.host.example"),
        ));
        // One of them replies.
        analysis.observe(&outbound([10, 0, 0, 1], [9, 9, 9, 9], 100));
        // An unrelated outbound flow does not count.
        analysis.observe(&outbound([10, 0, 0, 3], [8, 8, 8, 8], 100));
        let (clients, domains, packets) = analysis.malformed_bidirectional_stats();
        assert!((clients - 0.5).abs() < 1e-9);
        assert!((domains - 1.0).abs() < 1e-9);
        assert!(packets > 0.0 && packets < 1.0);
    }

    #[test]
    fn empty_analysis_has_zero_shares() {
        let analysis = CategoryAnalysis::new(Blocklist::new());
        assert_eq!(analysis.suspicious_and_malformed_share(), 0.0);
        let (a, b, c) = analysis.malformed_bidirectional_stats();
        assert_eq!((a, b, c), (0.0, 0.0, 0.0));
    }
}
