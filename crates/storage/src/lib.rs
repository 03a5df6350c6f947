//! # flowdns-storage
//!
//! In-memory DNS storage substrate for the FlowDNS reproduction.
//!
//! The Go implementation keeps DNS records in hashmaps built on the
//! `concurrent-map` library (lock-striped shards) and layers FlowDNS's own
//! structure on top: Active/Inactive/Long generations and periodic
//! clear-up driven by data time. This crate rebuilds that:
//!
//! * [`generation`] — [`GenerationTable`], the single-owner store the live
//!   correlator runs: Active and Inactive in one epoch-tagged map, Long
//!   beside it, driven by a [`RotationClock`]; [`GenerationStore`] pairs
//!   one clock with one table,
//! * [`sharded`] — [`ShardedMap`], a lock-striped concurrent hashmap (the
//!   `concurrent-map` equivalent),
//! * [`keys`] — the [`StoreKey`]/[`StoreValue`] traits every store is
//!   generic over, implemented for compact [`flowdns_types::IpKey`]s,
//!   interned [`flowdns_types::NameRef`]/[`flowdns_types::NameId`]
//!   handles, raw address bits and plain strings,
//! * [`rotating`] — [`RotatingStore`], one Active/Inactive/Long triple with
//!   clear-up and buffer rotation (Algorithm 1's storage side) behind
//!   interior locks: the generation table's test oracle,
//! * [`exact_ttl`] — [`ExactTtlStore`], the per-record-TTL strawman from
//!   Appendix A.8, kept for the ablation experiment,
//! * [`memory`] — byte-level memory accounting used by the resource
//!   figures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod exact_ttl;
pub mod generation;
pub mod keys;
pub mod memory;
pub mod rotating;
pub mod sharded;

pub use exact_ttl::ExactTtlStore;
pub use generation::{GenerationStore, GenerationTable, RotationClock, SectionAge, TableStats};
pub use keys::{StoreKey, StoreValue};
pub use memory::MemoryEstimate;
pub use rotating::{Generation, GenerationsImage, RotatingStore, RotationPolicy};
pub use sharded::{ShardedMap, DEFAULT_SHARD_COUNT};
