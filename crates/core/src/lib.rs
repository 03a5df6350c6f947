//! # flowdns-core
//!
//! The FlowDNS correlator: the paper's primary contribution.
//!
//! FlowDNS joins two live streams — DNS responses collected at the ISP's
//! resolvers and NetFlow records collected at its ingress routers — so
//! that each flow can be attributed to the domain name (and hence the
//! service) that caused it. The architecture (Figure 1 of the paper, as
//! shipped — one topology, shared-nothing shards):
//!
//! ```text
//!  DNS streams ─────┐ route by    ┌► DNS ring  ─┐
//!                   ├ hash(IP key)┤             ├► shard worker i ──► Write queues ──► Write workers ──► output
//!  NetFlow streams ─┘ at decode   └► flow ring ─┘   FillUp first,     (flow-key hash    (one owned sink
//!                                  (per-shard SPSC   then LookUp, over   sharding)         per worker)
//!                                   rings)           its own IP-NAME
//!                                                    partition; shared
//!                                                    NAME-CNAME store;
//!                                                    BGP origin-AS stamping
//! ```
//!
//! | Threads | Count | Communicates via |
//! |---|---|---|
//! | producers (listeners, feeders) | caller's | per-thread [`pipeline::ShardRouter`] → per-shard SPSC rings |
//! | shard workers | `correlator_shards` | exclusive [`ShardPartition`] → per-shard Write queue |
//! | Write workers | `write_workers` | owned [`OutputSink`] |
//! | snapshot | 0 or 1 | partition locks, briefly, in turn → snapshot file |
//!
//! Clock semantics: a live partition advances its one clear-up clock from
//! the records it processes; the offline simulator broadcasts every
//! event's time to every partition, which makes its output independent of
//! the shard count. The lock-striped reference [`DnsStore`] advances only
//! the inserting split's clock on a DNS insert, so it can differ from the
//! sharded store by a few records around clear-ups — 2 and 31 lines of
//! 146,895 under `NoRotation` and `NoLongHashmaps` on a 5 h trace, none
//! under the other rotating variants (docs/ARCHITECTURE.md, "Clock
//! semantics").
//!
//! Modules:
//!
//! * [`config`] — [`CorrelatorConfig`] with the Table 1 parameters and the
//!   ablation [`Variant`]s, plus a small key=value config-file parser,
//! * [`shard`] — [`ShardedStore`] and [`ShardPartition`], the partitioned
//!   store the pipeline runs and its per-record FillUp/LookUp ops
//!   (Algorithms 1 and 2), plus the key → shard routing functions,
//! * [`pipeline`] — [`Correlator`], the threaded live pipeline,
//! * [`write`](mod@write) — the output sinks each Write worker owns
//!   (single file, paper-style rotating window files, fan-out, memory),
//! * [`metrics`] — correlation-rate, loss, work-unit (CPU) and memory
//!   accounting,
//! * [`simulate`] — the deterministic offline simulator used by the
//!   experiment harness to regenerate the paper's figures,
//! * [`store`], [`fillup`], [`lookup`] — the reference implementation:
//!   [`DnsStore`] (the paper's shared lock-striped storage),
//!   Algorithm 1 and Algorithm 2 over it. Tests compare the partitions
//!   against it, and the simulator runs the exact-TTL strawman on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fillup;
pub mod lookup;
pub mod metrics;
pub mod pipeline;
pub mod shard;
pub mod simulate;
pub mod store;
pub mod write;

pub use config::{CorrelatorConfig, Variant};
pub use fillup::FillUpStats;
pub use lookup::{LookUpStats, Resolver};
pub use metrics::{
    CostModel, ExporterStats, IngestSummary, PipelineMetrics, Report, SnapshotStats,
};
pub use pipeline::{Correlator, StoreHealth, EGRESS_BATCH};
pub use shard::{
    shard_of_dns, shard_of_flow, shard_of_ip, shard_of_key, ShardPartition, ShardedStore,
};
pub use simulate::{HourlySample, OfflineSimulator, SimulationOutcome};
pub use store::DnsStore;
pub use write::{
    DiscardSink, MemorySink, MultiSink, OutputSink, RotatingFileSink, TsvFileSink, WriteStats,
};
