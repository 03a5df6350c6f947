//! Names-per-IP and IPs-per-name cardinality analysis (Figure 9 / A.7).
//!
//! The paper analyzes a 300-second DNS sample and finds that 88% of IP
//! addresses map to a single domain name (which bounds the accuracy of
//! the IP-keyed hashmap), while 35% of domain names map to more than one
//! IP address (which is harmless by design).

use std::collections::{HashMap, HashSet};

use flowdns_types::{DnsRecord, DomainName, IpKey, SimTime, TimeRange};

use crate::ecdf::Ecdf;

/// Cardinality counters over a DNS sample window.
///
/// IPs are keyed as compact [`IpKey`]s and names as [`DomainName`]s,
/// which share the parsed record's allocation and compare by content, so
/// analyzing a long sample does not re-allocate the textual form of
/// every address and name per record.
#[derive(Debug, Default, Clone)]
pub struct CardinalityAnalysis {
    names_per_ip: HashMap<IpKey, HashSet<DomainName>>,
    ips_per_name: HashMap<DomainName, HashSet<IpKey>>,
    window: Option<TimeRange>,
    /// Records skipped because they fell outside the window.
    pub out_of_window: u64,
}

impl CardinalityAnalysis {
    /// Analyze every record (no window restriction).
    pub fn new() -> Self {
        CardinalityAnalysis::default()
    }

    /// Analyze only records whose timestamp falls inside `window` — the
    /// paper uses a 300-second window because that is the TTL of 70% of
    /// records.
    pub fn with_window(window: TimeRange) -> Self {
        CardinalityAnalysis {
            window: Some(window),
            ..CardinalityAnalysis::default()
        }
    }

    /// The conventional 300-second window starting at `start`.
    pub fn short_window(start: SimTime) -> Self {
        CardinalityAnalysis::with_window(TimeRange::starting_at(
            start,
            flowdns_types::SimDuration::from_secs(300),
        ))
    }

    /// Observe one DNS record (only A/AAAA records contribute).
    pub fn observe(&mut self, record: &DnsRecord) {
        if let Some(window) = &self.window {
            if !window.contains(record.ts) {
                self.out_of_window += 1;
                return;
            }
        }
        if let Some(ip) = record.answer.as_ip() {
            let ip_key = IpKey::from_ip(ip);
            let name_key = record.query.clone();
            self.names_per_ip
                .entry(ip_key)
                .or_default()
                .insert(name_key.clone());
            self.ips_per_name
                .entry(name_key)
                .or_default()
                .insert(ip_key);
        }
    }

    /// Number of distinct IPs observed.
    pub fn ip_count(&self) -> usize {
        self.names_per_ip.len()
    }

    /// Number of distinct names observed.
    pub fn name_count(&self) -> usize {
        self.ips_per_name.len()
    }

    /// Fraction of IPs that map to exactly one name (the paper: 88%).
    pub fn single_name_ip_share(&self) -> f64 {
        if self.names_per_ip.is_empty() {
            return 0.0;
        }
        let single = self
            .names_per_ip
            .values()
            .filter(|names| names.len() == 1)
            .count();
        single as f64 / self.names_per_ip.len() as f64
    }

    /// Fraction of names that map to more than one IP (the paper: 35%).
    pub fn multi_ip_name_share(&self) -> f64 {
        if self.ips_per_name.is_empty() {
            return 0.0;
        }
        let multi = self
            .ips_per_name
            .values()
            .filter(|ips| ips.len() > 1)
            .count();
        multi as f64 / self.ips_per_name.len() as f64
    }

    /// ECDF of the number of names per IP (Figure 9).
    pub fn names_per_ip_ecdf(&self) -> Ecdf {
        Ecdf::from_counts(self.names_per_ip.values().map(|s| s.len() as u64))
    }

    /// ECDF of the number of IPs per name (Appendix A.7).
    pub fn ips_per_name_ecdf(&self) -> Ecdf {
        Ecdf::from_counts(self.ips_per_name.values().map(|s| s.len() as u64))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn record(ts: u64, name: &str, ip: [u8; 4]) -> DnsRecord {
        DnsRecord::address(
            SimTime::from_secs(ts),
            DomainName::literal(name),
            Ipv4Addr::from(ip).into(),
            60,
        )
    }

    #[test]
    fn counts_names_per_ip_and_ips_per_name() {
        let mut a = CardinalityAnalysis::new();
        a.observe(&record(1, "one.example", [1, 1, 1, 1]));
        a.observe(&record(2, "two.example", [1, 1, 1, 1])); // shared IP
        a.observe(&record(3, "one.example", [2, 2, 2, 2])); // multi-IP name
        a.observe(&record(4, "three.example", [3, 3, 3, 3]));
        assert_eq!(a.ip_count(), 3);
        assert_eq!(a.name_count(), 3);
        // IPs: 1.1.1.1 has 2 names, others 1 → 2/3 single.
        assert!((a.single_name_ip_share() - 2.0 / 3.0).abs() < 1e-9);
        // Names: one.example has 2 IPs, others 1 → 1/3 multi.
        assert!((a.multi_ip_name_share() - 1.0 / 3.0).abs() < 1e-9);
        let ecdf = a.names_per_ip_ecdf();
        assert!((ecdf.fraction_at_or_below(1.0) - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(a.ips_per_name_ecdf().max(), Some(2.0));
    }

    #[test]
    fn window_restricts_the_sample() {
        let mut a = CardinalityAnalysis::short_window(SimTime::from_secs(100));
        a.observe(&record(150, "in.example", [5, 5, 5, 5]));
        a.observe(&record(500, "out.example", [6, 6, 6, 6]));
        assert_eq!(a.ip_count(), 1);
        assert_eq!(a.out_of_window, 1);
    }

    #[test]
    fn cname_records_are_ignored() {
        let mut a = CardinalityAnalysis::new();
        a.observe(&DnsRecord::cname(
            SimTime::from_secs(1),
            DomainName::literal("a.example"),
            DomainName::literal("b.example"),
            60,
        ));
        assert_eq!(a.ip_count(), 0);
        assert_eq!(a.single_name_ip_share(), 0.0);
        assert_eq!(a.multi_ip_name_share(), 0.0);
    }
}
