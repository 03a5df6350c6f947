//! # flowdns-ingest
//!
//! Live network ingestion for the FlowDNS reproduction.
//!
//! The paper's FlowDNS runs *inside* an ISP: NetFlow/IPFIX arrives over
//! UDP from many exporters and the resolvers' cache-miss feed arrives
//! over framed TCP. This crate is that socket layer:
//!
//! * [`config`] — [`DaemonConfig`], the `key = value` file `flowdnsd`
//!   reads (listener addresses here, everything else forwarded to
//!   [`flowdns_core::CorrelatorConfig`]),
//! * [`netflow_listener`] — the UDP listener group: batched socket
//!   drains (real `recvmmsg(2)` on Linux via [`mmsg`], a portable
//!   per-datagram fallback elsewhere) feeding one pipeline batch per
//!   drain, with **per-listener** decoder shards holding per-exporter
//!   v5/v9/IPFIX decode state,
//! * [`dns_listener`] — the TCP DNS-feed listener group running the
//!   length-prefix framing incrementally over drained socket reads,
//! * [`runtime`] — [`IngestRuntime`], which binds the `SO_REUSEPORT`
//!   listener groups (`netflow_listeners`/`dns_listeners` config keys)
//!   and wires them into the correlator's per-shard rings with
//!   per-listener meters and an ordered shutdown that drains every
//!   queue before reporting.
//!
//! The `flowdnsd` binary (this crate's `src/bin/flowdnsd.rs`) reads a
//! config file, runs ingest + pipeline, prints periodic stats to stderr,
//! and exits with a final [`flowdns_core::Report`] on shutdown (stdin
//! EOF, a `quit` line, or `--duration` elapsing).
//!
//! Everything is testable over loopback sockets with no external
//! dependencies; see `tests/live_ingest.rs` at the workspace root.

// `deny`, not `forbid`: the contained exceptions are the `reuseport`
// module (raw socket(2)/setsockopt(2)/bind(2) FFI to set SO_REUSEPORT
// *before* bind, which std cannot) and the `mmsg` module (recvmmsg(2)
// batched receive); this build links no libc crate, so both declare the
// syscalls themselves. Everything else in the crate is unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod dns_listener;
pub mod kernel_drops;
pub mod mmsg;
pub mod netflow_listener;
pub mod reuseport;
pub mod runtime;

pub use config::{DaemonConfig, IngestConfig};
pub use dns_listener::DnsFeedStats;
// Re-exported for compatibility: the discard sink moved into the core
// write module with the sharded-egress refactor.
pub use flowdns_core::write::DiscardSink;
pub use netflow_listener::{ExporterTable, ListenerCounters};
pub use runtime::{IngestRuntime, IngestSnapshot};
