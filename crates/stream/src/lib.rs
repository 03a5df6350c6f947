//! # flowdns-stream
//!
//! Stream substrate for the FlowDNS reproduction.
//!
//! The paper's input streams "have an internal buffer to be used in case
//! the reading speed is less than their actual rate. If that buffer
//! overflows, the streams start to drop data" — and *loss* throughout the
//! paper means exactly those drops. This crate models that mechanism:
//!
//! * [`buffer`] — [`StreamBuffer`], a bounded producer/consumer queue that
//!   counts drops instead of blocking the producer (live feeds never wait),
//! * [`latency`] — [`LatencyHistogram`], the lock-free log-bucketed
//!   histogram behind the per-lane sampled enqueue→dequeue residency
//!   measurement of [`spsc`],
//! * [`spsc`] — [`ShardedChannel`], per-shard single-producer /
//!   single-consumer rings routed by IP key at decode time — the
//!   shared-nothing ingress of the correlator.

// `deny`, not `forbid`: the contained exception is the SPSC ring in
// `spsc`, whose ring segments need `UnsafeCell` + `MaybeUninit` slots
// behind raw pointers to move records between exactly one producer and
// one consumer without a lock.
// Everything else in the crate is unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod buffer;
pub mod latency;
pub mod spsc;

pub use buffer::{BufferStats, StreamBuffer};
pub use latency::{
    bucket_index_us, bucket_upper_bound_us, LatencyHistogram, LatencySnapshot, LATENCY_BUCKETS,
};
pub use spsc::{LaneConsumer, ShardProducer, ShardedChannel};
