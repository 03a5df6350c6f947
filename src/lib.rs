//! # flowdns
//!
//! Facade crate for the FlowDNS reproduction workspace.
//!
//! FlowDNS (Maghsoudlou et al., CoNEXT '22) correlates live NetFlow and
//! DNS streams at ISP scale so that CDN-hosted traffic can be attributed
//! to the service (domain name) that caused it. This crate re-exports the
//! public API of the program's library crates under one roof:
//!
//! * [`types`] — shared record and time types, plus the typed store keys
//!   ([`types::IpKey`], pooled [`types::NameId`]s),
//! * [`dns`] — resolver-feed framing,
//! * [`netflow`] — NetFlow v5/v9 and IPFIX-subset codecs,
//! * [`stream`] — bounded lossy stream buffers and pacing,
//! * [`storage`] — sharded, rotating DNS stores,
//! * [`snapshot`] — the durable store snapshot format behind
//!   `flowdnsd`'s warm restarts,
//! * [`core`] — the FillUp/LookUp/Write correlation pipeline,
//! * [`ingest`] — live socket ingestion (UDP NetFlow, TCP DNS feed) and
//!   the `flowdnsd` daemon,
//! * [`obs`] — the telemetry plane: metrics registry, `/metrics` scrape
//!   endpoint, and the sampled flow-trace flight recorder,
//! * [`gen`] — synthetic ISP workload generation,
//! * [`bgp`] — longest-prefix-match AS attribution.
//!
//! The paper's offline analyses (ECDFs, cardinalities, per-AS and
//! Section 5 blocklist/validity accounting) are `flowdns_bench::analysis`,
//! next to the experiment binaries that print them.
//!
//! ## Quick start
//!
//! The store API is typed end to end: the correlator keys its IP-NAME
//! maps by [`types::IpKey`] (raw address bits, never a formatted string)
//! and stores names as 4-byte [`types::NameId`]s into one name pool, so feeding
//! it records is allocation-free on the hot path. Each producing thread
//! feeds a stream through its own router (`dns_router` / `flow_router`),
//! one record (`route`) or a whole batch (`route_batch`) at a time:
//!
//! ```
//! use flowdns::core::{Correlator, CorrelatorConfig};
//! use flowdns::types::{DnsRecord, DomainName, FlowRecord, SimTime};
//! use std::net::Ipv4Addr;
//!
//! // Build a correlator with default (paper) parameters.
//! let correlator = Correlator::start(CorrelatorConfig::default()).unwrap();
//!
//! // Feed a batch of DNS records: video.example.com -> 203.0.113.7, ...
//! let dns: Vec<DnsRecord> = (0..4u8)
//!     .map(|i| DnsRecord::address(
//!         SimTime::from_secs(1),
//!         DomainName::literal("video.example.com"),
//!         Ipv4Addr::new(203, 0, 113, i).into(),
//!         300,
//!     ))
//!     .collect();
//! assert_eq!(correlator.dns_router().route_batch(dns), 4);
//!
//! // Wait until the shard workers have stored the records, as a live
//! // deployment's DNS head start does, so the lookups cannot race them.
//! while correlator.stored_entries() < 4 {
//!     std::thread::sleep(std::time::Duration::from_millis(1));
//! }
//!
//! // Feed a batch of flows whose sources are those IPs.
//! let flows: Vec<FlowRecord> = (0..4u8)
//!     .map(|i| FlowRecord::inbound(
//!         SimTime::from_secs(2),
//!         Ipv4Addr::new(203, 0, 113, i).into(),
//!         Ipv4Addr::new(10, 0, 0, 1).into(),
//!         1_000_000,
//!     ))
//!     .collect();
//! assert_eq!(correlator.flow_router().route_batch(flows), 4);
//!
//! // `snapshot()` reads live metrics without stopping the pipeline;
//! // `finish()` drains everything and returns the exact final report.
//! let report = correlator.finish().unwrap();
//! assert!(report.volumes.correlation_rate_pct() > 99.0);
//! ```

#![forbid(unsafe_code)]

pub use flowdns_bgp as bgp;
pub use flowdns_core as core;
pub use flowdns_dns as dns;
pub use flowdns_gen as gen;
pub use flowdns_ingest as ingest;
pub use flowdns_netflow as netflow;
pub use flowdns_obs as obs;
pub use flowdns_snapshot as snapshot;
pub use flowdns_storage as storage;
pub use flowdns_stream as stream;
pub use flowdns_types as types;
