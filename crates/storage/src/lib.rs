//! # flowdns-storage
//!
//! In-memory DNS storage substrate for the FlowDNS reproduction.
//!
//! The Go implementation keeps DNS records in hashmaps built on the
//! `concurrent-map` library (lock-striped shards) and layers FlowDNS's own
//! structure on top: Active/Inactive/Long generations and periodic
//! clear-up driven by data time. This crate rebuilds the structure; the
//! striping is gone, because every table has exactly one owner (a
//! correlator shard worker or the simulator):
//!
//! * [`generation`] — [`GenerationTable`], the rotating store (Algorithm
//!   1's storage side) the live correlator runs: Active and Inactive in
//!   one epoch-tagged map, Long beside it, driven by a [`RotationClock`]
//!   under a [`RotationPolicy`]; [`GenerationStore`] pairs one clock with
//!   one table, and [`GenerationsImage`] carries a store's generations to
//!   and from a snapshot,
//! * [`keys`] — the [`StoreKey`]/[`StoreValue`] traits every store is
//!   generic over, implemented for compact [`flowdns_types::IpKey`]s,
//!   pooled [`flowdns_types::NameId`]s, raw address bits, domain names
//!   and plain strings,
//! * [`exact_ttl`] — [`ExactTtlStore`], the per-record-TTL strawman from
//!   Appendix A.8, kept for the simulator's ablation arm,
//! * [`memory`] — byte-level memory accounting used by the resource
//!   figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact_ttl;
pub mod generation;
pub mod keys;
pub mod memory;

pub use exact_ttl::ExactTtlStore;
pub use generation::{
    Generation, GenerationStore, GenerationTable, GenerationsImage, RotationClock, RotationPolicy,
    SectionAge, TableStats,
};
pub use keys::{StoreKey, StoreValue};
pub use memory::MemoryEstimate;
