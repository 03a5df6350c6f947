//! Correlation output types.
//!
//! The result of looking a flow up in the DNS store is a chain of names
//! (`results` in Algorithm 2): the A/AAAA query name first, then each
//! CNAME discovered by chain-following. FlowDNS writes the original flow
//! plus this chain; downstream analyses then map the final name to a
//! *service* (Netflix, a CDN customer, ...) using suffix rules.

use std::fmt;
use std::io::Write as _;
use std::net::IpAddr;
use std::sync::Arc;

use crate::domain::DomainName;
use crate::flow::FlowRecord;

/// A human-meaningful service label (e.g. `"S1"`, `"Netflix"`, `"CDN-A"`).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceLabel(Arc<str>);

impl ServiceLabel {
    /// Build a label from text.
    pub fn new(name: &str) -> Self {
        ServiceLabel(name.into())
    }

    /// The label text.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// The label used for traffic that could not be attributed.
    pub fn unknown() -> Self {
        ServiceLabel::new("unknown")
    }
}

impl fmt::Display for ServiceLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for ServiceLabel {
    fn from(s: &str) -> Self {
        ServiceLabel::new(s)
    }
}

/// The outcome of the hashmap lookup for one flow (Algorithm 2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CorrelationOutcome {
    /// The source IP was not present in any IP-NAME hashmap
    /// (`result = NULL` in the paper).
    NotFound,
    /// The IP resolved to a name but no CNAME entry existed
    /// (`result = Name`).
    Name(DomainName),
    /// The IP resolved to a name and the CNAME chain was followed;
    /// the chain is stored innermost-last (`result = CName`).
    Chain(Vec<DomainName>),
}

impl CorrelationOutcome {
    /// Was anything found at all?
    pub fn is_correlated(&self) -> bool {
        !matches!(self, CorrelationOutcome::NotFound)
    }

    /// The name FlowDNS reports for this flow: the last element of the
    /// chain (the most canonical name), or the direct name, or `None`.
    pub fn final_name(&self) -> Option<&DomainName> {
        match self {
            CorrelationOutcome::NotFound => None,
            CorrelationOutcome::Name(n) => Some(n),
            CorrelationOutcome::Chain(chain) => chain.last(),
        }
    }

    /// The first (customer-facing) name of the chain, i.e. the domain the
    /// client actually queried. Service attribution uses this name.
    pub fn first_name(&self) -> Option<&DomainName> {
        match self {
            CorrelationOutcome::NotFound => None,
            CorrelationOutcome::Name(n) => Some(n),
            CorrelationOutcome::Chain(chain) => chain.first(),
        }
    }

    /// All names in resolution order.
    pub fn names(&self) -> &[DomainName] {
        match self {
            CorrelationOutcome::NotFound => &[],
            CorrelationOutcome::Name(n) => std::slice::from_ref(n),
            CorrelationOutcome::Chain(chain) => chain,
        }
    }

    /// Number of CNAME look-ups that were needed (0 for a direct name).
    pub fn chain_length(&self) -> usize {
        match self {
            CorrelationOutcome::NotFound | CorrelationOutcome::Name(_) => 0,
            CorrelationOutcome::Chain(chain) => chain.len().saturating_sub(1),
        }
    }
}

/// One line of FlowDNS output: the original flow plus the resolution
/// result and the BGP origin-AS attribution of both endpoints. This is
/// what the Write workers serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelatedRecord {
    /// The original flow record.
    pub flow: FlowRecord,
    /// The resolution outcome.
    pub outcome: CorrelationOutcome,
    /// Origin AS of the flow's source address, stamped by the LookUp
    /// stage when a routing table is loaded (the paper's Figure 4 join
    /// performed in-pipeline). `None` when no announcement covers the
    /// address or no table is loaded.
    pub src_asn: Option<u32>,
    /// Origin AS of the flow's destination address.
    pub dst_asn: Option<u32>,
}

impl CorrelatedRecord {
    /// A record without AS attribution (offline analyses, tests, and
    /// pipelines running with no routing table).
    pub fn new(flow: FlowRecord, outcome: CorrelationOutcome) -> Self {
        CorrelatedRecord {
            flow,
            outcome,
            src_asn: None,
            dst_asn: None,
        }
    }

    /// The same record with origin-AS attribution attached.
    pub fn with_asns(mut self, src_asn: Option<u32>, dst_asn: Option<u32>) -> Self {
        self.src_asn = src_asn;
        self.dst_asn = dst_asn;
        self
    }

    /// Is this record attributed to a domain name?
    pub fn is_correlated(&self) -> bool {
        self.outcome.is_correlated()
    }

    /// Was the source address attributed to an origin AS?
    pub fn has_src_asn(&self) -> bool {
        self.src_asn.is_some()
    }

    /// Bytes carried by the underlying flow.
    pub fn bytes(&self) -> u64 {
        self.flow.bytes
    }

    /// Append the record as one TSV output line (no trailing newline):
    /// `ts  srcIP  dstIP  bytes  src_asn  dst_asn  query_name  final_name`.
    /// Unattributed columns carry `-`.
    ///
    /// This is the Write workers' formatter: integers, IPv4 octets and
    /// name bytes are appended directly, so a sink that reuses `out`
    /// formats a line without allocating.
    pub fn write_tsv(&self, out: &mut Vec<u8>) {
        push_decimal(out, self.flow.ts.as_secs());
        out.push(b'\t');
        push_ip(out, self.flow.key.src_ip);
        out.push(b'\t');
        push_ip(out, self.flow.key.dst_ip);
        out.push(b'\t');
        push_decimal(out, self.flow.bytes);
        for asn in [self.src_asn, self.dst_asn] {
            out.push(b'\t');
            match asn {
                Some(asn) => push_decimal(out, u64::from(asn)),
                None => out.push(b'-'),
            }
        }
        for name in [self.outcome.first_name(), self.outcome.final_name()] {
            out.push(b'\t');
            match name {
                Some(name) => out.extend_from_slice(name.as_str().as_bytes()),
                None => out.push(b'-'),
            }
        }
    }

    /// [`CorrelatedRecord::write_tsv`] into a fresh `String`.
    pub fn to_tsv(&self) -> String {
        let mut line = Vec::with_capacity(128);
        self.write_tsv(&mut line);
        String::from_utf8(line).expect("write_tsv appends only ASCII and the bytes of a str")
    }
}

/// Append `value` in decimal.
fn push_decimal(out: &mut Vec<u8>, mut value: u64) {
    // u64::MAX has 20 digits; filled from the back.
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (value % 10) as u8;
        value /= 10;
        if value == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Append `ip` as `Display` renders it. IPv6 keeps the standard
/// library's compression rules by going through `write!`, which formats
/// straight into the `Vec`.
fn push_ip(out: &mut Vec<u8>, ip: IpAddr) {
    match ip {
        IpAddr::V4(v4) => {
            for (i, octet) in v4.octets().into_iter().enumerate() {
                if i > 0 {
                    out.push(b'.');
                }
                push_decimal(out, u64::from(octet));
            }
        }
        IpAddr::V6(v6) => {
            // Writing into a Vec cannot fail.
            let _ = write!(out, "{v6}");
        }
    }
}

impl fmt::Display for CorrelatedRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_tsv())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimTime;
    use std::net::Ipv4Addr;

    fn flow() -> FlowRecord {
        FlowRecord::inbound(
            SimTime::from_secs(42),
            Ipv4Addr::new(203, 0, 113, 9).into(),
            Ipv4Addr::new(10, 1, 2, 3).into(),
            5000,
        )
    }

    #[test]
    fn outcome_not_found() {
        let o = CorrelationOutcome::NotFound;
        assert!(!o.is_correlated());
        assert!(o.final_name().is_none());
        assert!(o.first_name().is_none());
        assert!(o.names().is_empty());
        assert_eq!(o.chain_length(), 0);
    }

    #[test]
    fn outcome_direct_name() {
        let n = DomainName::literal("video.example.com");
        let o = CorrelationOutcome::Name(n.clone());
        assert!(o.is_correlated());
        assert_eq!(o.final_name(), Some(&n));
        assert_eq!(o.first_name(), Some(&n));
        assert_eq!(o.chain_length(), 0);
    }

    #[test]
    fn outcome_chain_orders_names() {
        let a = DomainName::literal("www.shop.example");
        let b = DomainName::literal("shop.cdn.example.net");
        let c = DomainName::literal("edge7.cdn.example.net");
        let o = CorrelationOutcome::Chain(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(o.first_name(), Some(&a));
        assert_eq!(o.final_name(), Some(&c));
        assert_eq!(o.chain_length(), 2);
        assert_eq!(o.names().len(), 3);
    }

    #[test]
    fn tsv_output_contains_all_fields() {
        let rec = CorrelatedRecord::new(
            flow(),
            CorrelationOutcome::Name(DomainName::literal("video.example.com")),
        )
        .with_asns(Some(64500), None);
        let line = rec.to_tsv();
        let cols: Vec<&str> = line.split('\t').collect();
        assert_eq!(cols.len(), 8);
        assert_eq!(cols[0], "42");
        assert_eq!(cols[1], "203.0.113.9");
        assert_eq!(cols[3], "5000");
        assert_eq!(cols[4], "64500");
        assert_eq!(cols[5], "-");
        assert_eq!(cols[6], "video.example.com");
        assert!(rec.has_src_asn());
    }

    #[test]
    fn tsv_output_uses_dash_for_uncorrelated() {
        let rec = CorrelatedRecord::new(flow(), CorrelationOutcome::NotFound);
        assert!(rec.to_tsv().ends_with("-\t-\t-\t-"));
        assert!(!rec.is_correlated());
        assert!(!rec.has_src_asn());
        assert_eq!(rec.bytes(), 5000);
    }

    #[test]
    fn service_label_basics() {
        let s = ServiceLabel::from("S1");
        assert_eq!(s.as_str(), "S1");
        assert_eq!(ServiceLabel::unknown().as_str(), "unknown");
        assert_eq!(s.to_string(), "S1");
    }
}
