//! # flowdns-netflow
//!
//! NetFlow substrate for the FlowDNS reproduction.
//!
//! The paper ingests NetFlow records captured at the ISP's ingress
//! interfaces (26 streams, ~1M records/s). This crate implements the
//! protocol machinery needed to produce and consume such records from
//! scratch:
//!
//! * [`v5`] — the fixed-format NetFlow v5 packet codec,
//! * [`template`] — field type definitions shared by the template-based
//!   formats,
//! * [`v9`] — NetFlow v9 (RFC 3954): template and data flowsets with a
//!   per-exporter template cache,
//! * [`ipfix`] — an IPFIX (RFC 7011) subset reader that reuses the v9
//!   template machinery,
//! * [`extract`] — the generic extraction layer that turns any parsed
//!   packet into the [`flowdns_types::FlowRecord`]s the correlator
//!   consumes (the paper: "the system is not bound to NetFlow data"),
//! * [`decode`] — per-exporter datagram decoding with v5/v9/IPFIX
//!   auto-detection by version word, used by the live ingest layer. It
//!   shares each format's framing walk with the parsers above but keeps
//!   no parsed packet: a template's extraction plan (private `plan`
//!   module, compiled when the template is cached) reads each flow
//!   straight from the datagram bytes.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod decode;
pub mod extract;
pub mod ipfix;
mod plan;
pub mod template;
pub mod v5;
pub mod v9;

pub use decode::{DecodeStats, ExporterDecoder, FlowProtocol};
pub use extract::{ExtractorConfig, FlowExtractor};
pub use ipfix::{IpfixMessage, IpfixMessageBuilder, IpfixParser};
pub use template::{FieldSpec, FieldType, Template, TemplateCache, TemplateRegistry};
pub use v5::{V5Header, V5Packet, V5Record, V5_MAX_RECORDS};
pub use v9::{DataRecord, FlowSet, V9Packet, V9PacketBuilder, V9Parser};
