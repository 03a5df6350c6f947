//! # flowdns-types
//!
//! Shared data model for the FlowDNS reproduction.
//!
//! This crate defines the vocabulary types that every other crate in the
//! workspace speaks: timestamps ([`SimTime`]), domain names
//! ([`DomainName`]), compact IP map keys ([`IpKey`]), the name pool and
//! its 4-byte ids ([`NameInterner`] / [`NameId`]), DNS records as seen by the
//! correlator ([`DnsRecord`]), network flow records ([`FlowRecord`]),
//! correlation output ([`CorrelatedRecord`]), and the common error type
//! ([`FlowDnsError`]).
//!
//! The types are deliberately independent of any wire format: the
//! `flowdns-dns` and `flowdns-netflow` crates parse RFC 1035 messages and
//! NetFlow v5/v9 packets respectively and *produce* these records, while
//! `flowdns-core` consumes them. This mirrors the paper's remark that the
//! system "is not bound to NetFlow data and can be adapted to use other
//! data formats containing IP addresses and timestamps".

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod domain;
pub mod error;
pub mod flow;
pub mod ids;
pub mod intern;
pub mod key;
pub mod record;
pub mod service;
pub mod time;
pub mod volume;

pub use domain::{DomainName, DomainParseError};
pub use error::FlowDnsError;
pub use flow::{FlowDirection, FlowKey, FlowRecord, Protocol};
pub use ids::{StreamId, StreamKind, WorkerId};
pub use intern::{NameId, NameImport, NameInterner};
pub use key::IpKey;
pub use record::{DnsAnswer, DnsRecord, RecordType};
pub use service::{CorrelatedRecord, CorrelationOutcome, ResolvedName, ServiceLabel};
pub use time::{SimDuration, SimTime, TimeRange};
pub use volume::{ByteVolume, NormalizedVolume, VolumeAccumulator};

/// Result alias used across the workspace.
pub type Result<T, E = FlowDnsError> = std::result::Result<T, E>;
