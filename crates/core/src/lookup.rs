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
//! The chase runs on pooled name ids, so a direct hit allocates nothing
//! and a chain only its `Vec` — every name in it is a shared
//! reference-count bump on the pool's allocation.

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
/// has already looked the IP up (and counted the hit/miss) and passes
/// its name both as the store's handle `H` and as text; `next` closes
/// over whichever NAME-CNAME store the caller uses and returns the next
/// hop as both, and `memoize` stores a shortcut between two handles.
/// `H` is [`flowdns_types::NameId`] in the partitions and
/// [`DomainName`] itself in the exact-TTL arm.
///
/// A direct name allocates nothing; a chain allocates its one `Vec`.
pub(crate) fn follow_chain<H>(
    first: H,
    first_name: DomainName,
    loop_limit: usize,
    next: impl Fn(&H) -> Option<(H, DomainName)>,
    memoize: impl FnOnce(&H, &H),
    stats: &mut LookUpStats,
) -> CorrelationOutcome
where
    H: Clone,
{
    stats.ip_hits += 1;

    // The names after the first, once the first hop is found.
    let mut chain: Option<Vec<DomainName>> = None;
    let mut current = first.clone();

    let mut hops = 0usize;
    loop {
        if hops >= loop_limit {
            stats.loop_limit_hits += 1;
            break;
        }
        let Some((hop, name)) = next(&current) else {
            break;
        };
        hops += 1;
        stats.cname_hops += 1;
        // A CNAME back to a name already on the chain would loop
        // forever; treat it as the end of the chain. Names from one pool
        // share an allocation, which the comparisons check first.
        if name == first_name || chain.as_ref().is_some_and(|c| c.contains(&name)) {
            break;
        }
        chain
            .get_or_insert_with(|| {
                let mut chain = Vec::with_capacity(2);
                chain.push(first_name.clone());
                chain
            })
            .push(name);
        current = hop;
    }

    match chain {
        None => CorrelationOutcome::Name(first_name),
        Some(chain) => {
            if chain.len() > 2 {
                // Multi-hop resolution: memoize the shortcut from the
                // first name straight to the final alias for later flows.
                memoize(&first, &current);
                stats.memoized += 1;
            }
            CorrelationOutcome::Chain(chain)
        }
    }
}
