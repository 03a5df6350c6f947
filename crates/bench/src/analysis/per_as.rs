//! Per-service, per-origin-AS traffic over time (Figure 4).
//!
//! The paper shows, for two streaming services S1 and S2, the cumulative
//! traffic volume per source AS over a week: S1 is originated almost
//! entirely by one AS, S2 mainly by two. This module reduces the
//! correlated record stream to exactly that series.
//!
//! Since the in-pipeline BGP enrichment, every [`CorrelatedRecord`]
//! arrives with its origin AS already stamped by the LookUp stage
//! (`src_asn`), so the analysis no longer re-runs a longest-prefix-match
//! per record — it only buckets what the pipeline resolved. Feed it the
//! output of a pipeline with a loaded `routing_table` (or an
//! `OfflineSimulator` with an `AsnView`).

use std::collections::BTreeMap;

use flowdns_types::CorrelatedRecord;

/// Accumulates traffic per (hour, origin AS) for one service.
#[derive(Debug, Default, Clone)]
pub struct PerAsTraffic {
    /// bytes[(hour, asn)] = bytes
    bytes: BTreeMap<(u64, u32), u64>,
}

impl PerAsTraffic {
    /// A fresh accumulator.
    pub fn new() -> Self {
        PerAsTraffic::default()
    }

    /// Observe one correlated record belonging to the service being
    /// analyzed. The caller filters records by service (e.g. by final
    /// domain name suffix); this method buckets the record's pre-stamped
    /// `src_asn` by hour. A record without one (address not covered by
    /// any announcement, or a run without a table) is not counted.
    pub fn observe(&mut self, record: &CorrelatedRecord) {
        if let Some(asn) = record.src_asn {
            let hour = record.flow.ts.as_secs() / 3600;
            *self.bytes.entry((hour, asn)).or_insert(0) += record.flow.bytes;
        }
    }

    /// The distinct ASes observed, ordered by total traffic (descending).
    pub fn ases_by_traffic(&self) -> Vec<(u32, u64)> {
        let mut totals: BTreeMap<u32, u64> = BTreeMap::new();
        for ((_, asn), bytes) in &self.bytes {
            *totals.entry(*asn).or_insert(0) += bytes;
        }
        let mut out: Vec<(u32, u64)> = totals.into_iter().collect();
        out.sort_by_key(|&(_, bytes)| std::cmp::Reverse(bytes));
        out
    }

    /// Total attributed bytes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.values().sum()
    }

    /// The share of attributed traffic carried by the top `n` ASes.
    pub fn top_as_share(&self, n: usize) -> f64 {
        let total = self.total_bytes();
        if total == 0 {
            return 0.0;
        }
        let top: u64 = self.ases_by_traffic().iter().take(n).map(|(_, b)| b).sum();
        top as f64 / total as f64
    }

    /// The per-hour series for one AS: `(hour, bytes)` pairs in hour order
    /// (hours with no traffic are omitted).
    fn hourly_series(&self, asn: u32) -> Vec<(u64, u64)> {
        self.bytes
            .iter()
            .filter(|((_, a), _)| *a == asn)
            .map(|((hour, _), bytes)| (*hour, *bytes))
            .collect()
    }

    /// The cumulative per-hour series for one AS (the cumulative volume
    /// style of Figure 4).
    pub fn cumulative_series(&self, asn: u32) -> Vec<(u64, u64)> {
        let mut acc = 0u64;
        self.hourly_series(asn)
            .into_iter()
            .map(|(hour, bytes)| {
                acc += bytes;
                (hour, acc)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdns_bgp::{Announcement, AsnView, RoutingTable};
    use flowdns_types::{CorrelationOutcome, DomainName, FlowRecord, SimTime};
    use std::net::Ipv4Addr;

    fn view() -> AsnView {
        let mut t = RoutingTable::new();
        t.announce(Announcement {
            prefix: "100.64.0.0/16".parse().unwrap(),
            origin_as: 64501,
        });
        t.announce(Announcement {
            prefix: "100.65.0.0/16".parse().unwrap(),
            origin_as: 64601,
        });
        AsnView::new(t.freeze())
    }

    /// A record as the enriched pipeline would emit it: `src_asn` stamped
    /// from the frozen table at LookUp time.
    fn record(view: &AsnView, hour: u64, src: [u8; 4], bytes: u64) -> CorrelatedRecord {
        let src_ip = Ipv4Addr::from(src).into();
        CorrelatedRecord::new(
            FlowRecord::inbound(
                SimTime::from_secs(hour * 3600 + 10),
                src_ip,
                Ipv4Addr::new(10, 0, 0, 1).into(),
                bytes,
            ),
            CorrelationOutcome::Name(DomainName::literal("video.stream-one.example")),
        )
        .with_asns(view.reader().origin_as(src_ip), None)
    }

    #[test]
    fn attribution_and_ranking() {
        let view = view();
        let mut per_as = PerAsTraffic::new();
        per_as.observe(&record(&view, 0, [100, 64, 1, 1], 1000));
        per_as.observe(&record(&view, 1, [100, 64, 2, 2], 3000));
        per_as.observe(&record(&view, 1, [100, 65, 1, 1], 500));
        per_as.observe(&record(&view, 2, [198, 51, 100, 1], 999));
        assert_eq!(per_as.total_bytes(), 4500);
        let ranked = per_as.ases_by_traffic();
        assert_eq!(ranked[0], (64501, 4000));
        assert_eq!(ranked[1], (64601, 500));
        assert!((per_as.top_as_share(1) - 4000.0 / 4500.0).abs() < 1e-9);
    }

    #[test]
    fn hourly_and_cumulative_series() {
        let view = view();
        let mut per_as = PerAsTraffic::new();
        per_as.observe(&record(&view, 0, [100, 64, 1, 1], 100));
        per_as.observe(&record(&view, 2, [100, 64, 1, 2], 300));
        let hourly = per_as.hourly_series(64501);
        assert_eq!(hourly, vec![(0, 100), (2, 300)]);
        let cumulative = per_as.cumulative_series(64501);
        assert_eq!(cumulative, vec![(0, 100), (2, 400)]);
        assert!(per_as.hourly_series(99999).is_empty());
    }

    #[test]
    fn unstamped_records_are_not_attributed() {
        let mut per_as = PerAsTraffic::new();
        per_as.observe(&CorrelatedRecord::new(
            FlowRecord::inbound(
                SimTime::from_secs(10),
                Ipv4Addr::new(100, 64, 1, 1).into(),
                Ipv4Addr::new(10, 0, 0, 1).into(),
                777,
            ),
            CorrelationOutcome::NotFound,
        ));
        assert_eq!(per_as.total_bytes(), 0);
        assert!(per_as.ases_by_traffic().is_empty());
    }

    #[test]
    fn empty_accumulator() {
        let per_as = PerAsTraffic::new();
        assert_eq!(per_as.total_bytes(), 0);
        assert_eq!(per_as.top_as_share(3), 0.0);
        assert!(per_as.ases_by_traffic().is_empty());
    }
}
