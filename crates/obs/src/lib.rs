//! FlowDNS observability: the telemetry plane of the daemon.
//!
//! The paper pitches FlowDNS as an always-on ISP-scale service; an
//! operator of such a service needs to answer "what is p99 correlation
//! latency right now" and "which stage is dropping" without restarting
//! the daemon under a bench harness. This crate is that layer, built
//! from the standard library only (the build environment is offline):
//!
//! * [`MetricsRegistry`] — named counters, gauges and log-bucketed
//!   histograms, registered once and scraped many times. Every series
//!   is a closure over state the pipeline already maintains, which
//!   makes the registry the *single read path*: the stderr stats lines
//!   and `/metrics` are formatted from the same samples and can never
//!   disagree.
//! * [`Histogram`] — HDR-style power-of-two sub-bucketed values with
//!   sharded per-thread recording ([`HistogramRecorder`]) and
//!   merge-on-read snapshots; recording is two relaxed atomic adds on
//!   an uncontended cache line.
//! * [`MetricsServer`] — a tiny hand-rolled blocking HTTP/1.1 listener
//!   serving `/metrics` (Prometheus text exposition), `/healthz`
//!   (queue-saturation and egress-error aware) and `/stats.json`.
//! * [`FlightRecorder`] — a sampled flow tracer: 1-in-N flows carry a
//!   trace token through decode → queue → lookup → ASN-stamp → egress
//!   and emit one JSONL span record to a size-bounded ring file.
//!
//! See `docs/OBSERVABILITY.md` for every exported metric and the span
//! schema.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod registry;
pub mod server;
pub mod trace;

pub use metrics::{
    bucket_index, bucket_upper_bound, Histogram, HistogramRecorder, HistogramSnapshot,
    HISTOGRAM_BUCKETS,
};
pub use registry::{MetricsRegistry, RegistrySnapshot, SampleValue, SampledSeries};
pub use server::{HealthCheck, HealthStatus, MetricsServer};
pub use trace::FlightRecorder;
