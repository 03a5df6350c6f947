//! The paper's offline analyses of FlowDNS output.
//!
//! The experiment binaries and the Section 5 use cases all consume the
//! correlated record stream and reduce it to the statistics the paper
//! plots:
//!
//! * [`ecdf`] — empirical CDFs (Figures 6, 8, 9),
//! * [`traffic`] — per-key byte accounting with cumulative series
//!   (Figure 5's "traffic volume per number of domain names"),
//! * [`cardinality`] — names-per-IP and IPs-per-name counting over a DNS
//!   sample (Figure 9 / Appendix A.7),
//! * [`per_as`] — per-service, per-origin-AS traffic over time from the
//!   pipeline's AS stamps (Figure 4),
//! * [`blocklist`] — the Spamhaus-DBL stand-in: category labels, exact
//!   and parent-domain matching,
//! * [`validity`] — the three RFC 1035 rules with a per-rule breakdown
//!   and the underscore statistic,
//! * [`category`] — blocklist / validity classification of correlated
//!   traffic and the bidirectional-traffic statistics (Section 5),
//! * [`report`] — plain-text table rendering used by the experiment
//!   binaries.

pub mod blocklist;
pub mod cardinality;
pub mod category;
pub mod ecdf;
pub mod per_as;
pub mod report;
pub mod traffic;
pub mod validity;

pub use blocklist::{Blocklist, BlocklistCategory};
pub use cardinality::CardinalityAnalysis;
pub use category::{CategoryAnalysis, TrafficCategory};
pub use ecdf::Ecdf;
pub use per_as::PerAsTraffic;
pub use report::{render_series, render_table};
pub use traffic::TrafficByKey;
pub use validity::{validate_domain, RuleViolation, ValidityReport, ValidityStats};
