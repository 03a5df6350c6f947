//! # flowdns-dns
//!
//! The resolver feed of the FlowDNS reproduction.
//!
//! The paper's ISP resolvers deliver DNS to FlowDNS as flat records —
//! timestamp, query, type, TTL and answer — over TCP (Section 4,
//! Coverage). [`framing`] is that feed's length-prefixed record codec:
//! `flowdnsd`'s DNS listener decodes it with [`FrameDecoder`], and the
//! generators, harnesses and tests that play a resolver encode it with
//! [`FrameEncoder`]. Bounds-checked payload reads live in a private
//! `wire` module.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod framing;
mod wire;

pub use framing::{FrameDecoder, FrameEncoder, MAX_FRAME_LEN};
