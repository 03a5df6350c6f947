//! LookUp processing (Algorithm 2): flow records → correlation outcomes.
//! [`Resolver`] runs it over the reference [`DnsStore`]; the live
//! pipeline's shard workers run it over their partitions
//! ([`ShardPartition::process_flow`](crate::ShardPartition::process_flow))
//! and share the chain-following code with it.
//!
//! For each flow record, the source IP is looked up in the
//! IP-NAME store (Active → Inactive → Long), and if a name is found,
//! the CNAME chain is followed in the NAME-CNAME store up to the loop
//! limit (6 by default). Multi-hop resolutions are memoized back into the
//! active NAME-CNAME map.
//!
//! The whole resolution runs on typed keys: the source IP is looked up
//! as a compact [`flowdns_types::IpKey`] (no textual formatting per
//! flow) and the chain is chased on interned name handles, so a
//! hit allocates only the chain `Vec` — every name in it is a shared
//! reference-count bump.
//!
//! When a routing table is loaded, the resolver additionally stamps both
//! flow endpoints with their BGP origin AS via an [`AsnReader`] — a
//! lock-free longest-prefix-match over the frozen table — so the paper's
//! Network Provisioning join (Figure 4) happens in the hot path instead
//! of in a separate offline pass.

use std::net::IpAddr;

use flowdns_bgp::AsnReader;
use flowdns_types::{CorrelatedRecord, CorrelationOutcome, DomainName, FlowRecord};

use crate::config::CorrelatorConfig;
use crate::store::DnsStore;

/// Statistics of LookUp processing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookUpStats {
    /// Flows whose source IP was found in the IP-NAME store.
    pub ip_hits: u64,
    /// Flows whose source IP was not found.
    pub ip_misses: u64,
    /// Total CNAME chain hops followed.
    pub cname_hops: u64,
    /// Chains cut short by the loop limit.
    pub loop_limit_hits: u64,
    /// Multi-hop resolutions memoized back into the active map.
    pub memoized: u64,
    /// Flows dropped by the validity filter.
    pub filtered: u64,
    /// Flows whose source address was attributed to an origin AS.
    pub asn_stamped: u64,
}

impl LookUpStats {
    /// Total flows examined.
    pub fn total(&self) -> u64 {
        self.ip_hits + self.ip_misses + self.filtered
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &LookUpStats) {
        self.ip_hits += other.ip_hits;
        self.ip_misses += other.ip_misses;
        self.cname_hops += other.cname_hops;
        self.loop_limit_hits += other.loop_limit_hits;
        self.memoized += other.memoized;
        self.filtered += other.filtered;
        self.asn_stamped += other.asn_stamped;
    }
}

/// The lookup side of the correlator: wraps the store with the chain
/// following logic, the loop limit, and (optionally) the BGP origin-AS
/// attribution reader.
#[derive(Debug)]
pub struct Resolver<'a> {
    store: &'a DnsStore,
    loop_limit: usize,
    asn: Option<AsnReader>,
}

impl<'a> Resolver<'a> {
    /// A resolver over `store` using the loop limit from `config`, with
    /// no AS attribution.
    pub fn new(store: &'a DnsStore, config: &CorrelatorConfig) -> Self {
        Resolver {
            store,
            loop_limit: config.cname_loop_limit,
            asn: None,
        }
    }

    /// Attach an [`AsnReader`]: every processed flow gets `src_asn` and
    /// `dst_asn` stamped from the reader's current snapshot.
    pub fn with_asn_reader(mut self, reader: AsnReader) -> Self {
        self.asn = Some(reader);
        self
    }

    /// Does this resolver stamp origin-AS attribution?
    pub fn stamps_asns(&self) -> bool {
        self.asn.is_some()
    }

    /// The configured CNAME loop limit.
    pub fn loop_limit(&self) -> usize {
        self.loop_limit
    }

    /// Origin-AS attribution for both flow endpoints (`(None, None)`
    /// when no routing table is attached).
    fn stamp_asns(
        &mut self,
        flow: &FlowRecord,
        stats: &mut LookUpStats,
    ) -> (Option<u32>, Option<u32>) {
        match &mut self.asn {
            Some(reader) => {
                let src = reader.origin_as(flow.key.src_ip);
                let dst = reader.origin_as(flow.key.dst_ip);
                if src.is_some() {
                    stats.asn_stamped += 1;
                }
                (src, dst)
            }
            None => (None, None),
        }
    }

    /// Process one flow record against the reference store.
    ///
    /// Invalid flow records are counted and returned with a `NotFound`
    /// outcome so the Write stage still accounts their bytes as
    /// uncorrelated traffic. `&mut self` because the attribution reader
    /// caches the routing-table snapshot it serves from.
    pub fn process_flow(&mut self, flow: FlowRecord, stats: &mut LookUpStats) -> CorrelatedRecord {
        let (src_asn, dst_asn) = self.stamp_asns(&flow, stats);
        if !flow.is_valid() {
            stats.filtered += 1;
            return CorrelatedRecord::new(flow, CorrelationOutcome::NotFound)
                .with_asns(src_asn, dst_asn);
        }
        // Flow timestamps also advance the clear-up clock, so long DNS-quiet
        // periods cannot stall rotation.
        self.store.observe_time(flow.ts);
        let outcome = self.resolve(flow.key.src_ip, flow.ts, stats);
        CorrelatedRecord::new(flow, outcome).with_asns(src_asn, dst_asn)
    }

    /// Resolve a source IP to a name chain (Algorithm 2 without the flow
    /// wrapper). Public so analyses can resolve arbitrary IPs.
    pub fn resolve(
        &self,
        src_ip: IpAddr,
        now: flowdns_types::SimTime,
        stats: &mut LookUpStats,
    ) -> CorrelationOutcome {
        let Some((first_name, _)) = self.store.lookup_ip(src_ip, now) else {
            stats.ip_misses += 1;
            return CorrelationOutcome::NotFound;
        };
        follow_chain(
            first_name,
            self.loop_limit,
            |name| self.store.lookup_cname(name, now).map(|(next, _)| next),
            |first, last| self.store.memoize_cname(first, last),
            stats,
        )
    }
}

/// The CNAME-chain half of Algorithm 2, shared between the reference
/// [`Resolver`] and the shard partitions' resolve: walk
/// from the name an IP mapped to back towards the customer-facing name,
/// bounded by the loop limit, memoizing multi-hop shortcuts. The caller
/// has already looked the IP up (and counted the hit/miss); `lookup` and
/// `memoize` close over whichever NAME-CNAME store the caller uses, and
/// `H` is that store's name handle ([`flowdns_types::NameRef`] in the reference store,
/// [`flowdns_types::NameId`] in the partitions).
pub(crate) fn follow_chain<H>(
    first_name: H,
    loop_limit: usize,
    lookup: impl Fn(&H) -> Option<H>,
    memoize: impl FnOnce(&H, &H),
    stats: &mut LookUpStats,
) -> CorrelationOutcome
where
    H: Clone + PartialEq + Into<DomainName>,
{
    stats.ip_hits += 1;

    let mut chain: Vec<H> = Vec::with_capacity(2);
    chain.push(first_name.clone());
    let mut current = first_name;

    let mut hops = 0usize;
    loop {
        if hops >= loop_limit {
            stats.loop_limit_hits += 1;
            break;
        }
        match lookup(&current) {
            Some(next) => {
                hops += 1;
                stats.cname_hops += 1;
                // A self-referencing CNAME would loop forever; treat it
                // as the end of the chain. Handles from one interner
                // compare by pointer first, so this scan is cheap.
                if next == current || chain.contains(&next) {
                    break;
                }
                chain.push(next.clone());
                current = next;
            }
            None => break,
        }
    }

    if chain.len() > 2 {
        // Multi-hop resolution: memoize the shortcut from the first
        // name straight to the final alias for later flows.
        if let (Some(first), Some(last)) = (chain.first(), chain.last()) {
            memoize(first, last);
            stats.memoized += 1;
        }
    }

    if chain.len() == 1 {
        // len == 1 makes pop() infallible, but stay panic-free.
        let Some(only) = chain.pop() else {
            return CorrelationOutcome::NotFound;
        };
        CorrelationOutcome::Name(only.into())
    } else {
        // Each conversion rewraps the shared allocation; the store
        // only ever hands out handles to normalized names.
        CorrelationOutcome::Chain(chain.into_iter().map(Into::into).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CorrelatorConfig, Variant};
    use crate::fillup::{process_dns_record, FillUpStats};
    use crate::store::DnsStore;
    use flowdns_types::{DnsRecord, SimTime};
    use std::net::Ipv4Addr;

    fn populated_store() -> (DnsStore, CorrelatorConfig) {
        let config = CorrelatorConfig::default();
        let store = DnsStore::new(&config);
        let mut stats = FillUpStats::default();
        let ts = SimTime::from_secs(10);
        // A chain: www.shop.example -> shop.cdn.example.net -> edge7.cdn.example.net -> 198.51.100.7
        let records = vec![
            DnsRecord::cname(
                ts,
                DomainName::literal("www.shop.example"),
                DomainName::literal("shop.cdn.example.net"),
                600,
            ),
            DnsRecord::cname(
                ts,
                DomainName::literal("shop.cdn.example.net"),
                DomainName::literal("edge7.cdn.example.net"),
                600,
            ),
            DnsRecord::address(
                ts,
                DomainName::literal("edge7.cdn.example.net"),
                Ipv4Addr::new(198, 51, 100, 7).into(),
                60,
            ),
            // A direct A record with no CNAME involvement.
            DnsRecord::address(
                ts,
                DomainName::literal("direct.example.org"),
                Ipv4Addr::new(203, 0, 113, 50).into(),
                300,
            ),
        ];
        for r in &records {
            process_dns_record(&store, r, &mut stats);
        }
        (store, config)
    }

    fn flow(src: [u8; 4]) -> FlowRecord {
        FlowRecord::inbound(
            SimTime::from_secs(20),
            Ipv4Addr::from(src).into(),
            Ipv4Addr::new(10, 0, 0, 1).into(),
            10_000,
        )
    }

    #[test]
    fn direct_a_record_resolves_to_single_name() {
        let (store, config) = populated_store();
        let mut resolver = Resolver::new(&store, &config);
        let mut stats = LookUpStats::default();
        let rec = resolver.process_flow(flow([203, 0, 113, 50]), &mut stats);
        assert_eq!(
            rec.outcome,
            CorrelationOutcome::Name(DomainName::literal("direct.example.org"))
        );
        assert_eq!(stats.ip_hits, 1);
        assert_eq!(stats.cname_hops, 0);
    }

    #[test]
    fn cname_chain_is_followed_to_customer_facing_name() {
        let (store, config) = populated_store();
        let mut resolver = Resolver::new(&store, &config);
        let mut stats = LookUpStats::default();
        let rec = resolver.process_flow(flow([198, 51, 100, 7]), &mut stats);
        let names: Vec<&str> = rec.outcome.names().iter().map(|n| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "edge7.cdn.example.net",
                "shop.cdn.example.net",
                "www.shop.example"
            ]
        );
        assert_eq!(
            rec.outcome.final_name().unwrap().as_str(),
            "www.shop.example"
        );
        assert_eq!(stats.cname_hops, 2);
        assert_eq!(stats.memoized, 1);
        // The memoized shortcut now answers in a single hop.
        let mut stats2 = LookUpStats::default();
        let rec2 = resolver.process_flow(flow([198, 51, 100, 7]), &mut stats2);
        assert_eq!(
            rec2.outcome.final_name().unwrap().as_str(),
            "www.shop.example"
        );
        assert_eq!(stats2.cname_hops, 1);
    }

    #[test]
    fn unknown_ip_is_not_found() {
        let (store, config) = populated_store();
        let mut resolver = Resolver::new(&store, &config);
        let mut stats = LookUpStats::default();
        let rec = resolver.process_flow(flow([192, 0, 2, 99]), &mut stats);
        assert_eq!(rec.outcome, CorrelationOutcome::NotFound);
        assert!(!rec.is_correlated());
        assert_eq!(stats.ip_misses, 1);
    }

    #[test]
    fn invalid_flow_is_filtered_but_reported() {
        let (store, config) = populated_store();
        let mut resolver = Resolver::new(&store, &config);
        let mut stats = LookUpStats::default();
        let mut f = flow([198, 51, 100, 7]);
        f.bytes = 0;
        let rec = resolver.process_flow(f, &mut stats);
        assert_eq!(rec.outcome, CorrelationOutcome::NotFound);
        assert_eq!(stats.filtered, 1);
        assert_eq!(stats.ip_hits, 0);
    }

    #[test]
    fn loop_limit_cuts_long_chains() {
        let config = CorrelatorConfig::default();
        let store = DnsStore::new(&config);
        let mut fstats = FillUpStats::default();
        let ts = SimTime::from_secs(1);
        // Build a 10-hop chain: n0 <- n1 <- ... <- n10 and an A record for n0.
        for i in 0..10 {
            process_dns_record(
                &store,
                &DnsRecord::cname(
                    ts,
                    DomainName::literal(&format!("n{}.example", i + 1)),
                    DomainName::literal(&format!("n{i}.example")),
                    600,
                ),
                &mut fstats,
            );
        }
        process_dns_record(
            &store,
            &DnsRecord::address(
                ts,
                DomainName::literal("n0.example"),
                Ipv4Addr::new(198, 51, 100, 77).into(),
                60,
            ),
            &mut fstats,
        );
        let mut resolver = Resolver::new(&store, &config);
        let mut stats = LookUpStats::default();
        let rec = resolver.process_flow(flow([198, 51, 100, 77]), &mut stats);
        // 1 name from the A record + at most loop_limit CNAME hops.
        assert_eq!(rec.outcome.names().len(), 1 + config.cname_loop_limit);
        assert_eq!(stats.loop_limit_hits, 1);
        assert_eq!(resolver.loop_limit(), 6);
    }

    #[test]
    fn self_referential_cname_terminates() {
        let config = CorrelatorConfig::default();
        let store = DnsStore::new(&config);
        let mut fstats = FillUpStats::default();
        let ts = SimTime::from_secs(1);
        process_dns_record(
            &store,
            &DnsRecord::cname(
                ts,
                DomainName::literal("loop.example"),
                DomainName::literal("loop.example"),
                600,
            ),
            &mut fstats,
        );
        process_dns_record(
            &store,
            &DnsRecord::address(
                ts,
                DomainName::literal("loop.example"),
                Ipv4Addr::new(198, 51, 100, 80).into(),
                60,
            ),
            &mut fstats,
        );
        let mut resolver = Resolver::new(&store, &config);
        let mut stats = LookUpStats::default();
        let rec = resolver.process_flow(flow([198, 51, 100, 80]), &mut stats);
        assert!(rec.is_correlated());
        assert!(rec.outcome.names().len() <= 2);
    }

    #[test]
    fn resolver_stamps_both_endpoints_from_the_frozen_table() {
        use flowdns_bgp::{Announcement, AsnView, RoutingTable};
        let (store, config) = populated_store();
        let mut table = RoutingTable::new();
        for (p, asn) in [("203.0.113.0/24", 64500u32), ("10.0.0.0/8", 64501)] {
            table.announce(Announcement {
                prefix: p.parse().unwrap(),
                origin_as: asn,
            });
        }
        let view = AsnView::new(table.freeze());
        let mut resolver = Resolver::new(&store, &config).with_asn_reader(view.reader());
        assert!(resolver.stamps_asns());
        let mut stats = LookUpStats::default();
        // src 203.0.113.50 → AS64500; dst 10.0.0.1 → AS64501.
        let rec = resolver.process_flow(flow([203, 0, 113, 50]), &mut stats);
        assert_eq!(rec.src_asn, Some(64500));
        assert_eq!(rec.dst_asn, Some(64501));
        assert!(rec.is_correlated());
        // Unannounced source: no src stamp, dst still covered.
        let rec = resolver.process_flow(flow([198, 51, 100, 7]), &mut stats);
        assert_eq!(rec.src_asn, None);
        assert_eq!(rec.dst_asn, Some(64501));
        assert_eq!(stats.asn_stamped, 1);
        // Invalid flows are stamped too (they are still written).
        let mut bad = flow([203, 0, 113, 50]);
        bad.bytes = 0;
        let rec = resolver.process_flow(bad, &mut stats);
        assert_eq!(rec.src_asn, Some(64500));
        assert_eq!(stats.asn_stamped, 2);
        // Without a reader nothing is stamped.
        let mut plain = Resolver::new(&store, &config);
        assert!(!plain.stamps_asns());
        let rec = plain.process_flow(flow([203, 0, 113, 50]), &mut stats);
        assert_eq!(rec.src_asn, None);
        assert_eq!(rec.dst_asn, None);
    }

    #[test]
    fn overwrite_accuracy_caveat_is_observable() {
        // Two services sharing one IP: the second DNS record overwrites the
        // first, so all traffic from that IP is attributed to the second
        // domain (the 50%-accuracy scenario of Section 4).
        let config = CorrelatorConfig::for_variant(Variant::Main);
        let store = DnsStore::new(&config);
        let mut fstats = FillUpStats::default();
        for (name, ts) in [("site-a.example", 1), ("site-b.example", 2)] {
            process_dns_record(
                &store,
                &DnsRecord::address(
                    SimTime::from_secs(ts),
                    DomainName::literal(name),
                    Ipv4Addr::new(203, 0, 113, 200).into(),
                    300,
                ),
                &mut fstats,
            );
        }
        let mut resolver = Resolver::new(&store, &config);
        let mut stats = LookUpStats::default();
        let rec = resolver.process_flow(flow([203, 0, 113, 200]), &mut stats);
        assert_eq!(rec.outcome.final_name().unwrap().as_str(), "site-b.example");
    }
}
