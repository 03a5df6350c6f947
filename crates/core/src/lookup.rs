//! LookUp processing (Algorithm 2): the statistics it keeps and the
//! CNAME-chain half every resolve shares. The live pipeline's shard
//! workers run Algorithm 2 over their partitions
//! ([`ShardPartition::process_flow`](crate::ShardPartition::process_flow));
//! the offline simulator's exact-TTL arm runs the same chain following
//! over its own stores.
//!
//! For each flow record, the source IP is looked up in the
//! IP-NAME store (Active → Inactive → Long), and if a name is found,
//! the CNAME chain is followed in the NAME-CNAME store up to the loop
//! limit (6 by default). Multi-hop resolutions are memoized back into the
//! active NAME-CNAME map.
//!
//! The chase runs on interned name handles, so a hit allocates only the
//! chain `Vec` — every name in it is a shared reference-count bump.

use flowdns_types::{CorrelationOutcome, DomainName};

/// Statistics of LookUp processing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LookUpStats {
    /// Flows whose source IP was found in the IP-NAME store.
    pub ip_hits: u64,
    /// Flows whose source IP was not found.
    pub ip_misses: u64,
    /// Total CNAME chain hops followed.
    pub cname_hops: u64,
    /// Chains cut short by the loop limit.
    pub loop_limit_hits: u64,
    /// Multi-hop resolutions memoized back into the active map.
    pub memoized: u64,
    /// Flows dropped by the validity filter.
    pub filtered: u64,
    /// Flows whose source address was attributed to an origin AS.
    pub asn_stamped: u64,
}

impl LookUpStats {
    /// Total flows examined.
    pub fn total(&self) -> u64 {
        self.ip_hits + self.ip_misses + self.filtered
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &LookUpStats) {
        self.ip_hits += other.ip_hits;
        self.ip_misses += other.ip_misses;
        self.cname_hops += other.cname_hops;
        self.loop_limit_hits += other.loop_limit_hits;
        self.memoized += other.memoized;
        self.filtered += other.filtered;
        self.asn_stamped += other.asn_stamped;
    }
}

/// The CNAME-chain half of Algorithm 2, shared between the shard
/// partitions' resolve and the simulator's exact-TTL arm: walk
/// from the name an IP mapped to back towards the customer-facing name,
/// bounded by the loop limit, memoizing multi-hop shortcuts. The caller
/// has already looked the IP up (and counted the hit/miss); `lookup` and
/// `memoize` close over whichever NAME-CNAME store the caller uses, and
/// `H` is that store's name handle ([`flowdns_types::NameId`] in the
/// partitions, [`flowdns_types::NameRef`] in the exact-TTL arm).
pub(crate) fn follow_chain<H>(
    first_name: H,
    loop_limit: usize,
    lookup: impl Fn(&H) -> Option<H>,
    memoize: impl FnOnce(&H, &H),
    stats: &mut LookUpStats,
) -> CorrelationOutcome
where
    H: Clone + PartialEq + Into<DomainName>,
{
    stats.ip_hits += 1;

    let mut chain: Vec<H> = Vec::with_capacity(2);
    chain.push(first_name.clone());
    let mut current = first_name;

    let mut hops = 0usize;
    loop {
        if hops >= loop_limit {
            stats.loop_limit_hits += 1;
            break;
        }
        match lookup(&current) {
            Some(next) => {
                hops += 1;
                stats.cname_hops += 1;
                // A self-referencing CNAME would loop forever; treat it
                // as the end of the chain. Handles from one interner
                // compare by pointer first, so this scan is cheap.
                if next == current || chain.contains(&next) {
                    break;
                }
                chain.push(next.clone());
                current = next;
            }
            None => break,
        }
    }

    if chain.len() > 2 {
        // Multi-hop resolution: memoize the shortcut from the first
        // name straight to the final alias for later flows.
        if let (Some(first), Some(last)) = (chain.first(), chain.last()) {
            memoize(first, last);
            stats.memoized += 1;
        }
    }

    if chain.len() == 1 {
        // len == 1 makes pop() infallible, but stay panic-free.
        let Some(only) = chain.pop() else {
            return CorrelationOutcome::NotFound;
        };
        CorrelationOutcome::Name(only.into())
    } else {
        // Each conversion rewraps the shared allocation; the store
        // only ever hands out handles to normalized names.
        CorrelationOutcome::Chain(chain.into_iter().map(Into::into).collect())
    }
}
