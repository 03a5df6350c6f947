//! DNS records as consumed by the correlator.
//!
//! The paper's DNS stream carries, per record:
//! `timestamp, ..., [name; rtype; ttl; answer]`. The FillUp workers only
//! care about A/AAAA and CNAME responses, keyed by the *answer* section
//! with the *query name* as value. [`DnsRecord`] is that tuple, and it is
//! also what the resolvers send: `flowdns-dns`'s framing carries exactly
//! these fields, one frame per record.

use std::fmt;
use std::net::IpAddr;

use crate::domain::DomainName;
use crate::time::SimTime;

/// DNS resource record types that FlowDNS cares about, plus a catch-all.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RecordType {
    /// IPv4 address record.
    A,
    /// IPv6 address record.
    Aaaa,
    /// Canonical-name alias record.
    Cname,
    /// Name-server record (parsed but not correlated).
    Ns,
    /// Text record (parsed but not correlated).
    Txt,
    /// Start-of-authority record (parsed but not correlated).
    Soa,
    /// Pointer record (parsed but not correlated).
    Ptr,
    /// Mail-exchanger record (parsed but not correlated).
    Mx,
    /// Any other record type, carrying the raw RR TYPE value.
    Other(u16),
}

impl RecordType {
    /// The RFC 1035 TYPE value on the wire.
    pub fn to_u16(self) -> u16 {
        match self {
            RecordType::A => 1,
            RecordType::Ns => 2,
            RecordType::Cname => 5,
            RecordType::Soa => 6,
            RecordType::Ptr => 12,
            RecordType::Mx => 15,
            RecordType::Txt => 16,
            RecordType::Aaaa => 28,
            RecordType::Other(v) => v,
        }
    }

    /// Map a wire TYPE value to a [`RecordType`].
    pub fn from_u16(v: u16) -> Self {
        match v {
            1 => RecordType::A,
            2 => RecordType::Ns,
            5 => RecordType::Cname,
            6 => RecordType::Soa,
            12 => RecordType::Ptr,
            15 => RecordType::Mx,
            16 => RecordType::Txt,
            28 => RecordType::Aaaa,
            other => RecordType::Other(other),
        }
    }

    /// Is this an address record (A or AAAA)?
    pub fn is_address(&self) -> bool {
        matches!(self, RecordType::A | RecordType::Aaaa)
    }

    /// Is this a CNAME record?
    pub fn is_cname(&self) -> bool {
        matches!(self, RecordType::Cname)
    }

    /// Is this record relevant to the correlator at all?
    pub fn is_correlatable(&self) -> bool {
        self.is_address() || self.is_cname()
    }
}

impl fmt::Display for RecordType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordType::A => write!(f, "A"),
            RecordType::Aaaa => write!(f, "AAAA"),
            RecordType::Cname => write!(f, "CNAME"),
            RecordType::Ns => write!(f, "NS"),
            RecordType::Txt => write!(f, "TXT"),
            RecordType::Soa => write!(f, "SOA"),
            RecordType::Ptr => write!(f, "PTR"),
            RecordType::Mx => write!(f, "MX"),
            RecordType::Other(v) => write!(f, "TYPE{v}"),
        }
    }
}

/// The answer section content of a DNS record, as used by FlowDNS.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum DnsAnswer {
    /// An IP address (from an A or AAAA record).
    Ip(IpAddr),
    /// A domain name (from a CNAME/NS/PTR/MX record).
    Name(DomainName),
}

impl DnsAnswer {
    /// The IP address, if this answer is one.
    pub fn as_ip(&self) -> Option<IpAddr> {
        match self {
            DnsAnswer::Ip(ip) => Some(*ip),
            _ => None,
        }
    }

    /// The domain name, if this answer is one.
    pub fn as_name(&self) -> Option<&DomainName> {
        match self {
            DnsAnswer::Name(n) => Some(n),
            _ => None,
        }
    }
}

impl fmt::Display for DnsAnswer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DnsAnswer::Ip(ip) => write!(f, "{ip}"),
            DnsAnswer::Name(n) => write!(f, "{n}"),
        }
    }
}

/// A single DNS record as delivered to the correlator.
///
/// `query` is the name that was looked up, `answer` is one entry of the
/// answer section. A DNS response with multiple answers becomes multiple
/// `DnsRecord`s sharing the same `query` and `ts`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsRecord {
    /// Timestamp at which the resolver observed the response.
    pub ts: SimTime,
    /// The queried domain name.
    pub query: DomainName,
    /// Record type of this answer entry.
    pub rtype: RecordType,
    /// Time-to-live in seconds.
    pub ttl: u32,
    /// The answer payload.
    pub answer: DnsAnswer,
}

impl DnsRecord {
    /// Convenience constructor for an A/AAAA record.
    pub fn address(ts: SimTime, query: DomainName, ip: IpAddr, ttl: u32) -> Self {
        let rtype = match ip {
            IpAddr::V4(_) => RecordType::A,
            IpAddr::V6(_) => RecordType::Aaaa,
        };
        DnsRecord {
            ts,
            query,
            rtype,
            ttl,
            answer: DnsAnswer::Ip(ip),
        }
    }

    /// Convenience constructor for a CNAME record: `query` is an alias for
    /// `target`.
    pub fn cname(ts: SimTime, query: DomainName, target: DomainName, ttl: u32) -> Self {
        DnsRecord {
            ts,
            query,
            rtype: RecordType::Cname,
            ttl,
            answer: DnsAnswer::Name(target),
        }
    }

    /// Is the record one the FillUp workers will store?
    pub fn is_correlatable(&self) -> bool {
        match self.rtype {
            RecordType::A | RecordType::Aaaa => matches!(self.answer, DnsAnswer::Ip(_)),
            RecordType::Cname => matches!(self.answer, DnsAnswer::Name(_)),
            _ => false,
        }
    }

    /// The absolute expiry time implied by the record's TTL.
    pub fn expires_at(&self) -> SimTime {
        self.ts + crate::time::SimDuration::from_secs(self.ttl as u64)
    }
}

impl fmt::Display for DnsRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {} ttl={} -> {}",
            self.ts, self.query, self.rtype, self.ttl, self.answer
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    #[test]
    fn record_type_wire_round_trip() {
        for v in [1u16, 2, 5, 6, 12, 15, 16, 28, 99, 255, 65280] {
            assert_eq!(RecordType::from_u16(v).to_u16(), v);
        }
    }

    #[test]
    fn record_type_classification() {
        assert!(RecordType::A.is_address());
        assert!(RecordType::Aaaa.is_address());
        assert!(!RecordType::Cname.is_address());
        assert!(RecordType::Cname.is_cname());
        assert!(RecordType::A.is_correlatable());
        assert!(!RecordType::Txt.is_correlatable());
        assert!(!RecordType::Other(4242).is_correlatable());
    }

    #[test]
    fn address_constructor_picks_type_from_ip() {
        let q = DomainName::literal("example.com");
        let v4 = DnsRecord::address(
            SimTime::ZERO,
            q.clone(),
            Ipv4Addr::new(1, 2, 3, 4).into(),
            60,
        );
        assert_eq!(v4.rtype, RecordType::A);
        let v6 = DnsRecord::address(SimTime::ZERO, q, Ipv6Addr::LOCALHOST.into(), 60);
        assert_eq!(v6.rtype, RecordType::Aaaa);
        assert!(v4.is_correlatable());
        assert!(v6.is_correlatable());
    }

    #[test]
    fn cname_constructor_and_expiry() {
        let r = DnsRecord::cname(
            SimTime::from_secs(100),
            DomainName::literal("www.example.com"),
            DomainName::literal("cdn.example.net"),
            300,
        );
        assert!(r.is_correlatable());
        assert_eq!(r.expires_at(), SimTime::from_secs(400));
    }

    #[test]
    fn mismatched_answer_is_not_correlatable() {
        // An A record whose answer is (incorrectly) a name must be ignored
        // by the FillUp workers instead of polluting the IP-NAME map.
        let r = DnsRecord {
            ts: SimTime::ZERO,
            query: DomainName::literal("example.com"),
            rtype: RecordType::A,
            ttl: 60,
            answer: DnsAnswer::Name(DomainName::literal("oops.example.com")),
        };
        assert!(!r.is_correlatable());
    }

    #[test]
    fn answer_accessors() {
        let ip: IpAddr = Ipv4Addr::new(10, 0, 0, 1).into();
        assert_eq!(DnsAnswer::Ip(ip).as_ip(), Some(ip));
        assert!(DnsAnswer::Ip(ip).as_name().is_none());
        let n = DomainName::literal("x.com");
        assert_eq!(DnsAnswer::Name(n.clone()).as_name(), Some(&n));
        assert!(DnsAnswer::Name(n).as_ip().is_none());
    }

    #[test]
    fn display_is_human_readable() {
        let r = DnsRecord::address(
            SimTime::from_secs(5),
            DomainName::literal("example.com"),
            Ipv4Addr::new(192, 0, 2, 1).into(),
            300,
        );
        let s = r.to_string();
        assert!(s.contains("example.com"));
        assert!(s.contains("192.0.2.1"));
        assert!(s.contains("ttl=300"));
    }
}
