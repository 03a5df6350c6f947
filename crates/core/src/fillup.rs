//! FillUp processing (Algorithm 1) over the reference store: DNS
//! records → shared storage. (The live pipeline's shard workers run the
//! same algorithm over their partitions in
//! [`ShardPartition::process_dns`](crate::ShardPartition::process_dns).)
//!
//! Each record is validated, A/AAAA records are labelled by IP, and the
//! mapping is inserted into the shared [`DnsStore`]. The clear-up check happens inside the store, driven by
//! the record's own timestamp. Inserts are allocation-free on the hot
//! path: IPs become compact [`flowdns_types::IpKey`]s and names interned
//! [`flowdns_types::NameRef`] handles inside the store.

use flowdns_types::{DnsAnswer, DnsRecord, RecordType};

use crate::store::DnsStore;

/// Statistics of FillUp processing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillUpStats {
    /// A/AAAA records stored.
    pub addresses_stored: u64,
    /// CNAME records stored.
    pub cnames_stored: u64,
    /// Records dropped by the validity filter (wrong type, inconsistent
    /// answer, etc.).
    pub filtered: u64,
}

impl FillUpStats {
    /// Total records examined.
    pub fn total(&self) -> u64 {
        self.addresses_stored + self.cnames_stored + self.filtered
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &FillUpStats) {
        self.addresses_stored += other.addresses_stored;
        self.cnames_stored += other.cnames_stored;
        self.filtered += other.filtered;
    }
}

/// Process one DNS record against the reference store. Returns `true`
/// if the record was stored.
pub fn process_dns_record(store: &DnsStore, record: &DnsRecord, stats: &mut FillUpStats) -> bool {
    if !record.is_correlatable() {
        stats.filtered += 1;
        return false;
    }
    match (&record.rtype, &record.answer) {
        (RecordType::A | RecordType::Aaaa, DnsAnswer::Ip(ip)) => {
            store.insert_address(*ip, &record.query, record.ttl, record.ts);
            stats.addresses_stored += 1;
            true
        }
        (RecordType::Cname, DnsAnswer::Name(target)) => {
            store.insert_cname(target, &record.query, record.ttl, record.ts);
            stats.cnames_stored += 1;
            true
        }
        _ => {
            stats.filtered += 1;
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CorrelatorConfig;
    use flowdns_types::{DomainName, SimTime};
    use std::net::Ipv4Addr;

    fn store() -> DnsStore {
        DnsStore::new(&CorrelatorConfig::default())
    }

    #[test]
    fn addresses_and_cnames_are_stored() {
        let s = store();
        let mut stats = FillUpStats::default();
        let a = DnsRecord::address(
            SimTime::from_secs(1),
            DomainName::literal("edge.cdn.example"),
            Ipv4Addr::new(203, 0, 113, 3).into(),
            120,
        );
        let c = DnsRecord::cname(
            SimTime::from_secs(1),
            DomainName::literal("www.service.example"),
            DomainName::literal("edge.cdn.example"),
            600,
        );
        assert!(process_dns_record(&s, &a, &mut stats));
        assert!(process_dns_record(&s, &c, &mut stats));
        assert_eq!(stats.addresses_stored, 1);
        assert_eq!(stats.cnames_stored, 1);
        assert_eq!(stats.filtered, 0);
        assert!(s
            .lookup_ip("203.0.113.3".parse().unwrap(), SimTime::from_secs(2))
            .is_some());
        // CNAME is keyed by the canonical target.
        let edge = s.intern(&DomainName::literal("edge.cdn.example"));
        assert_eq!(
            s.lookup_cname(&edge, SimTime::from_secs(2))
                .unwrap()
                .0
                .as_str(),
            "www.service.example"
        );
    }

    #[test]
    fn uncorrelatable_records_are_filtered() {
        let s = store();
        let mut stats = FillUpStats::default();
        let txt = DnsRecord {
            ts: SimTime::ZERO,
            query: DomainName::literal("example.com"),
            rtype: RecordType::Txt,
            ttl: 60,
            answer: DnsAnswer::Raw(vec![1, 2, 3]),
        };
        assert!(!process_dns_record(&s, &txt, &mut stats));
        // A record with a name answer (inconsistent) is also filtered.
        let broken = DnsRecord {
            ts: SimTime::ZERO,
            query: DomainName::literal("example.com"),
            rtype: RecordType::A,
            ttl: 60,
            answer: DnsAnswer::Name(DomainName::literal("oops.example")),
        };
        assert!(!process_dns_record(&s, &broken, &mut stats));
        assert_eq!(stats.filtered, 2);
        assert_eq!(s.total_entries(), 0);
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = FillUpStats {
            addresses_stored: 3,
            cnames_stored: 1,
            filtered: 2,
        };
        let b = FillUpStats {
            addresses_stored: 1,
            cnames_stored: 1,
            filtered: 0,
        };
        a.merge(&b);
        assert_eq!(a.total(), 8);
        assert_eq!(a.addresses_stored, 4);
    }
}
