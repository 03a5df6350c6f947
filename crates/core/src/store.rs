//! The reference DNS store: split IP-NAME maps plus the NAME-CNAME map
//! behind interior locks, as the paper's Figure 1 draws it ("shared
//! internal storage" written by FillUp workers and read by LookUp
//! workers).
//!
//! The live [`Correlator`](crate::Correlator) does not run this store —
//! it runs the partitioned [`ShardedStore`](crate::ShardedStore). This
//! one stays as the implementation tests compare the partitioned store
//! against, as the only home of the [`Variant::ExactTtl`] oracle, and as
//! what [`OfflineSimulator::with_reference_store`](crate::OfflineSimulator::with_reference_store)
//! selects. It combines:
//!
//! * `NUM_SPLIT` rotating **IP-NAME** stores (key: compact [`IpKey`],
//!   value: interned query domain name), rotated every `AClearUpInterval`,
//! * one rotating **NAME-CNAME** store (key: interned canonical target
//!   name, value: interned query/alias name — see below), rotated every
//!   `CClearUpInterval`,
//! * for the [`Variant::ExactTtl`] strawman, exact-TTL stores replace the
//!   rotating ones.
//!
//! ### Typed keys
//!
//! Both hot loops — an insert per A/AAAA answer, a lookup per flow — go
//! through this API, so keys are *typed*, not textual: IPs are stored as
//! their raw bits ([`IpKey`]) and names as interned [`NameRef`] handles
//! drawn from a per-store [`NameInterner`]. Inserting or looking up a
//! record allocates nothing; cloning a stored value is a reference-count
//! bump.
//!
//! ### Key orientation
//!
//! The paper is explicit: "In all our hashmaps, the key is the answer
//! section, and the value is the query." For A/AAAA records the answer is
//! the IP and the query is the domain name, so IP → name. For CNAME
//! records the answer is the canonical (target) name and the query is the
//! alias. Chain following in Algorithm 2 then looks the *name found so
//! far* up as a key, obtaining the alias it answers for. Followed
//! repeatedly this walks the CNAME chain from the CDN-internal name back
//! towards the customer-facing name, which is exactly what the paper's
//! service attribution needs (the A record is keyed by the CDN edge name;
//! following the chain recovers e.g. `www.netflix.com`).

use std::collections::HashMap;
use std::hash::Hash;
use std::net::IpAddr;
use std::sync::Arc;

use flowdns_snapshot::{DnsStoreImage, SnapshotKey, StoreImage};
use flowdns_storage::{
    ExactTtlStore, Generation, GenerationsImage, MemoryEstimate, RotatingStore, RotationPolicy,
    SplitStore, DEFAULT_SHARD_COUNT,
};
use flowdns_types::{DomainName, FlowDnsError, IpKey, NameInterner, NameRef, SimTime};

use crate::config::{CorrelatorConfig, Variant};

/// Builds the deduplicated name table of a snapshot: each distinct name
/// handle `H` ([`NameRef`] here, [`flowdns_types::NameId`] in the
/// partitions) gets one index, assigned on first sight, so the on-disk
/// image stores every name exactly once — mirroring the interner's
/// one-allocation-per-name invariant.
///
/// The table holds the pool's own allocations, not copies: exporting a
/// store allocates nothing per name.
pub(crate) struct NameTable<H> {
    pub(crate) names: Vec<Arc<str>>,
    index: HashMap<H, u32>,
}

impl<H: Hash + Eq + Clone + Into<Arc<str>>> NameTable<H> {
    /// A table with room for `names` distinct names (the pool size bounds
    /// what a store can reference), so building it never regrows.
    pub(crate) fn with_capacity(names: usize) -> Self {
        NameTable {
            names: Vec::with_capacity(names),
            index: HashMap::with_capacity(names),
        }
    }

    pub(crate) fn index_of(&mut self, name: &H) -> u32 {
        if let Some(&idx) = self.index.get(name) {
            return idx;
        }
        let idx = self.names.len() as u32;
        self.names.push(name.clone().into());
        self.index.insert(name.clone(), idx);
        idx
    }
}

/// The lock-striped reference DNS storage (see the module docs).
#[derive(Debug)]
pub struct DnsStore {
    config: CorrelatorConfig,
    names: NameInterner,
    ip_name: SplitStore<IpKey, NameRef>,
    name_cname: RotatingStore<NameRef, NameRef>,
    exact_ip_name: Option<ExactTtlStore<IpKey, NameRef>>,
    exact_name_cname: Option<ExactTtlStore<NameRef, NameRef>>,
}

impl DnsStore {
    /// Build the storage for `config`.
    pub fn new(config: &CorrelatorConfig) -> Self {
        let ip_policy = RotationPolicy {
            clear_up_interval: config.a_clear_up_interval,
            clear_up: config.clears_up(),
            rotation: config.rotates(),
            long_maps: config.uses_long_maps(),
        };
        let cname_policy = RotationPolicy {
            clear_up_interval: config.c_clear_up_interval,
            clear_up: config.clears_up(),
            rotation: config.rotates(),
            long_maps: config.uses_long_maps(),
        };
        let exact = matches!(config.variant, Variant::ExactTtl);
        DnsStore {
            config: config.clone(),
            names: NameInterner::new(),
            ip_name: SplitStore::new(ip_policy, config.effective_num_split(), DEFAULT_SHARD_COUNT),
            name_cname: RotatingStore::new(cname_policy, DEFAULT_SHARD_COUNT),
            exact_ip_name: exact
                .then(|| ExactTtlStore::new(config.exact_ttl_purge_interval, DEFAULT_SHARD_COUNT)),
            exact_name_cname: exact
                .then(|| ExactTtlStore::new(config.exact_ttl_purge_interval, DEFAULT_SHARD_COUNT)),
        }
    }

    /// The configuration this store was built for.
    pub fn config(&self) -> &CorrelatorConfig {
        &self.config
    }

    /// Is this the exact-TTL strawman store?
    pub fn is_exact_ttl(&self) -> bool {
        self.exact_ip_name.is_some()
    }

    /// Intern a domain name in this store's pool, returning the shared
    /// handle (allocates only the first time a name is seen).
    pub fn intern(&self, name: &DomainName) -> NameRef {
        self.names.intern_domain(name)
    }

    /// Number of distinct names currently pooled in the interner.
    pub fn interned_names(&self) -> usize {
        self.names.len()
    }

    /// Store an A/AAAA mapping: IP (answer) → query name.
    pub fn insert_address(&self, ip: IpAddr, name: &DomainName, ttl: u32, ts: SimTime) {
        let key = IpKey::from_ip(ip);
        let value = self.names.intern_domain(name);
        match &self.exact_ip_name {
            Some(exact) => exact.insert(key, value, ttl, ts),
            None => self.ip_name.insert(key, value, ttl, ts),
        }
    }

    /// Store a CNAME mapping: canonical target (answer) → alias (query).
    pub fn insert_cname(&self, target: &DomainName, alias: &DomainName, ttl: u32, ts: SimTime) {
        let key = self.names.intern_domain(target);
        let value = self.names.intern_domain(alias);
        match &self.exact_name_cname {
            Some(exact) => exact.insert(key, value, ttl, ts),
            None => self.name_cname.insert(key, value, ttl, ts),
        }
    }

    /// Advance the clear-up clocks using a record timestamp (used by flow
    /// processing so quiet DNS periods still rotate).
    pub fn observe_time(&self, ts: SimTime) {
        if self.is_exact_ttl() {
            if let Some(s) = &self.exact_ip_name {
                s.maybe_purge(ts);
            }
            if let Some(s) = &self.exact_name_cname {
                s.maybe_purge(ts);
            }
        } else {
            self.ip_name.observe_time(ts);
            self.name_cname.observe_time(ts);
        }
    }

    /// `deepLookUp` on the IP-NAME store: the name a source IP maps to.
    /// `now` is the flow timestamp (only used by the exact-TTL variant).
    pub fn lookup_ip(&self, ip: IpAddr, now: SimTime) -> Option<(NameRef, Generation)> {
        let key = IpKey::from_ip(ip);
        match &self.exact_ip_name {
            Some(exact) => exact.lookup(&key, now).map(|v| (v, Generation::Active)),
            None => self.ip_name.lookup(&key),
        }
    }

    /// `deepLookUp` on the NAME-CNAME store: the alias that `name` is the
    /// canonical answer for.
    pub fn lookup_cname(&self, name: &NameRef, now: SimTime) -> Option<(NameRef, Generation)> {
        match &self.exact_name_cname {
            Some(exact) => exact.lookup(name, now).map(|v| (v, Generation::Active)),
            None => self.name_cname.lookup(name),
        }
    }

    /// Memoize a multi-hop CNAME resolution into the active NAME-CNAME map
    /// ("If the result is found with more than one look-up ... we add it
    /// to NAME-CNAMEactive for later use"). Handles are shared, so this
    /// clones two reference counts, not two strings.
    pub fn memoize_cname(&self, target: &NameRef, alias: &NameRef) {
        if self.exact_name_cname.is_none() {
            self.name_cname.memoize(target.clone(), alias.clone());
        }
    }

    /// Total stored entries across all maps.
    pub fn total_entries(&self) -> usize {
        match (&self.exact_ip_name, &self.exact_name_cname) {
            (Some(a), Some(b)) => a.len() + b.len(),
            _ => self.ip_name.total_entries() + self.name_cname.total_entries(),
        }
    }

    /// Memory estimate across all maps.
    pub fn memory_estimate(&self) -> MemoryEstimate {
        let mut est = MemoryEstimate::new();
        match (&self.exact_ip_name, &self.exact_name_cname) {
            (Some(a), Some(b)) => {
                est.merge(a.memory_estimate());
                est.merge(b.memory_estimate());
            }
            _ => {
                est.merge(self.ip_name.memory_estimate());
                est.merge(self.name_cname.memory_estimate());
            }
        }
        est
    }

    /// Export the store as a snapshot image for persistence: the
    /// deduplicated name table, one generation triple per IP-NAME split,
    /// the NAME-CNAME triple, and the rotation clocks.
    ///
    /// Returns `None` for the exact-TTL strawman — its validity depends
    /// on per-entry expiry deadlines the store does not retain, so there
    /// is nothing durable to write.
    ///
    /// The export reads each map shard under its read lock (never a
    /// global lock); see [`RotatingStore::export_image`] for the exact
    /// consistency guarantee. The image carries `shards = 0`, which a
    /// [`ShardedStore`](crate::ShardedStore) refuses to import.
    pub fn export_image(&self) -> Option<DnsStoreImage> {
        if self.is_exact_ttl() {
            return None;
        }
        let mut table = NameTable::with_capacity(self.names.len());
        let ip_splits = self.ip_name.export_images();
        let mut as_of = SimTime::ZERO;
        let mut observe = |seen: Option<SimTime>| {
            if let Some(seen) = seen {
                as_of = as_of.max(seen);
            }
        };
        let mut ip_name = Vec::with_capacity(ip_splits.len());
        for split in ip_splits {
            observe(split.last_seen_ts);
            ip_name.push(StoreImage {
                last_clear_ts: split.last_clear_ts,
                last_seen_ts: split.last_seen_ts,
                active: encode_ip_entries(split.active, &mut table),
                inactive: encode_ip_entries(split.inactive, &mut table),
                long: encode_ip_entries(split.long, &mut table),
            });
        }
        let cname = self.name_cname.export_image();
        observe(cname.last_seen_ts);
        let name_cname = StoreImage {
            last_clear_ts: cname.last_clear_ts,
            last_seen_ts: cname.last_seen_ts,
            active: encode_name_entries(cname.active, &mut table),
            inactive: encode_name_entries(cname.inactive, &mut table),
            long: encode_name_entries(cname.long, &mut table),
        };
        Some(DnsStoreImage {
            as_of,
            num_split: ip_name.len() as u32,
            shards: 0,
            a_interval_secs: self.config.a_clear_up_interval.as_secs(),
            c_interval_secs: self.config.c_clear_up_interval.as_secs(),
            names: table.names,
            ip_name,
            name_cname,
        })
    }

    /// Warm-start the store from a snapshot image, returning how many
    /// entries survived the aging rules.
    ///
    /// The image's name table is interned once through this store's pool
    /// (so the dedup invariant — one allocation per distinct name across
    /// every generation — is reconstructed exactly), then each store's
    /// generations are loaded and aged to `now`: generations older than
    /// the rotation window are discarded, a one-window-old Active
    /// demotes to Inactive, and the Long maps always survive (see
    /// [`RotatingStore::import_image`]). `now` defaults to the image's
    /// own [`DnsStoreImage::as_of`] — right for a quick restart, where
    /// data time effectively stood still while the process was down.
    ///
    /// Errors if this store is the exact-TTL variant, if the split count
    /// or clear-up intervals changed between runs (the aging math above
    /// is only meaningful against the intervals the image was built
    /// with), or if the image references names out of its table's
    /// bounds.
    pub fn import_image(
        &self,
        image: &DnsStoreImage,
        now: Option<SimTime>,
    ) -> Result<usize, FlowDnsError> {
        if self.is_exact_ttl() {
            return Err(FlowDnsError::Snapshot(
                "the exact-TTL store variant cannot warm-start from a snapshot".into(),
            ));
        }
        if image.shards != 0 {
            return Err(FlowDnsError::Snapshot(format!(
                "snapshot was written by a sharded correlator ({} shards), \
                 this store is the unpartitioned reference layout",
                image.shards
            )));
        }
        for (key, image_secs, config_secs) in [
            (
                "a_clear_up_interval",
                image.a_interval_secs,
                self.config.a_clear_up_interval.as_secs(),
            ),
            (
                "c_clear_up_interval",
                image.c_interval_secs,
                self.config.c_clear_up_interval.as_secs(),
            ),
        ] {
            if image_secs != config_secs {
                return Err(FlowDnsError::Snapshot(format!(
                    "snapshot was written with {key} = {image_secs} s, \
                     this store is configured for {config_secs} s \
                     (delete the snapshot to change intervals)"
                )));
            }
        }
        let now = now.unwrap_or(image.as_of);
        let handles = self.names.import_names(&image.names);
        let before = self.total_entries();
        let mut splits = Vec::with_capacity(image.ip_name.len());
        for split in &image.ip_name {
            splits.push(GenerationsImage {
                last_clear_ts: split.last_clear_ts,
                last_seen_ts: split.last_seen_ts,
                active: decode_ip_entries(&split.active, &handles)?,
                inactive: decode_ip_entries(&split.inactive, &handles)?,
                long: decode_ip_entries(&split.long, &handles)?,
            });
        }
        self.ip_name.import_images(splits, now)?;
        let cname = &image.name_cname;
        self.name_cname.import_image(
            GenerationsImage {
                last_clear_ts: cname.last_clear_ts,
                last_seen_ts: cname.last_seen_ts,
                active: decode_name_entries(&cname.active, &handles)?,
                inactive: decode_name_entries(&cname.inactive, &handles)?,
                long: decode_name_entries(&cname.long, &handles)?,
            },
            now,
        );
        Ok(self.total_entries().saturating_sub(before))
    }

    /// Number of clear-up rounds performed so far (0 for exact-TTL).
    pub fn clear_ups(&self) -> u64 {
        if self.is_exact_ttl() {
            0
        } else {
            self.ip_name.stats().clear_ups + self.name_cname.stats().clear_ups
        }
    }

    /// Entries scanned by exact-TTL purges so far (0 for rotating stores).
    pub fn purge_scanned(&self) -> u64 {
        match (&self.exact_ip_name, &self.exact_name_cname) {
            (Some(a), Some(b)) => a.stats().purge_scanned + b.stats().purge_scanned,
            _ => 0,
        }
    }

    /// Entries rotated into Inactive maps so far.
    pub fn rotated_entries(&self) -> u64 {
        if self.is_exact_ttl() {
            0
        } else {
            self.ip_name.stats().rotated_entries + self.name_cname.stats().rotated_entries
        }
    }
}

fn encode_ip_entries(
    entries: Vec<(IpKey, NameRef)>,
    table: &mut NameTable<NameRef>,
) -> Vec<(SnapshotKey, u32)> {
    entries
        .into_iter()
        .map(|(key, value)| (SnapshotKey::Ip(key), table.index_of(&value)))
        .collect()
}

pub(crate) fn encode_name_entries<H: Hash + Eq + Clone + Into<Arc<str>>>(
    entries: Vec<(H, H)>,
    table: &mut NameTable<H>,
) -> Vec<(SnapshotKey, u32)> {
    entries
        .into_iter()
        .map(|(key, value)| {
            (
                SnapshotKey::Name(table.index_of(&key)),
                table.index_of(&value),
            )
        })
        .collect()
}

pub(crate) fn resolve_name<H: Clone>(handles: &[H], idx: u32) -> Result<H, FlowDnsError> {
    handles.get(idx as usize).cloned().ok_or_else(|| {
        FlowDnsError::Snapshot(format!(
            "name index {idx} out of bounds (table has {} names)",
            handles.len()
        ))
    })
}

fn decode_ip_entries(
    entries: &[(SnapshotKey, u32)],
    handles: &[NameRef],
) -> Result<Vec<(IpKey, NameRef)>, FlowDnsError> {
    entries
        .iter()
        .map(|(key, value)| match key {
            SnapshotKey::Ip(ip) => Ok((*ip, resolve_name(handles, *value)?)),
            SnapshotKey::Name(_) => Err(FlowDnsError::Snapshot(
                "IP-NAME split contains a non-IP key".into(),
            )),
        })
        .collect()
}

pub(crate) fn decode_name_entries<H: Clone>(
    entries: &[(SnapshotKey, u32)],
    handles: &[H],
) -> Result<Vec<(H, H)>, FlowDnsError> {
    entries
        .iter()
        .map(|(key, value)| match key {
            SnapshotKey::Name(idx) => {
                Ok((resolve_name(handles, *idx)?, resolve_name(handles, *value)?))
            }
            SnapshotKey::Ip(_) => Err(FlowDnsError::Snapshot(
                "NAME-CNAME store contains an IP key".into(),
            )),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdns_types::NameRef;

    fn store(variant: Variant) -> DnsStore {
        DnsStore::new(&CorrelatorConfig::for_variant(variant))
    }

    fn ip(s: &str) -> IpAddr {
        s.parse().unwrap()
    }

    fn name(s: &str) -> DomainName {
        DomainName::literal(s)
    }

    #[test]
    fn address_and_cname_lookups() {
        let s = store(Variant::Main);
        s.insert_address(
            ip("203.0.113.9"),
            &name("edge7.cdn.example.net"),
            60,
            SimTime::ZERO,
        );
        s.insert_cname(
            &name("edge7.cdn.example.net"),
            &name("www.shop.example"),
            600,
            SimTime::ZERO,
        );
        let (found, generation) = s.lookup_ip(ip("203.0.113.9"), SimTime::ZERO).unwrap();
        assert_eq!(found.as_str(), "edge7.cdn.example.net");
        assert_eq!(generation, Generation::Active);
        let (alias, _) = s.lookup_cname(&found, SimTime::ZERO).unwrap();
        assert_eq!(alias.as_str(), "www.shop.example");
        assert!(s.lookup_ip(ip("198.51.100.1"), SimTime::ZERO).is_none());
        assert_eq!(s.total_entries(), 2);
    }

    #[test]
    fn values_share_the_interned_allocation() {
        let s = store(Variant::Main);
        let edge = name("edge.cdn.example");
        // The same name stored under two IPs is one pooled allocation.
        s.insert_address(ip("203.0.113.1"), &edge, 60, SimTime::ZERO);
        s.insert_address(ip("203.0.113.2"), &edge, 60, SimTime::ZERO);
        let (a, _) = s.lookup_ip(ip("203.0.113.1"), SimTime::ZERO).unwrap();
        let (b, _) = s.lookup_ip(ip("203.0.113.2"), SimTime::ZERO).unwrap();
        assert!(NameRef::ptr_eq(&a, &b));
        assert_eq!(s.interned_names(), 1);
    }

    #[test]
    fn ipv6_addresses_are_first_class_keys() {
        let s = store(Variant::Main);
        s.insert_address(ip("2001:db8::7"), &name("v6.example"), 60, SimTime::ZERO);
        let (found, _) = s.lookup_ip(ip("2001:db8::7"), SimTime::ZERO).unwrap();
        assert_eq!(found.as_str(), "v6.example");
        // The v4-mapped form is a different key.
        assert!(s
            .lookup_ip(ip("::ffff:203.0.113.9"), SimTime::ZERO)
            .is_none());
    }

    #[test]
    fn clear_up_intervals_differ_between_maps() {
        let s = store(Variant::Main);
        s.insert_address(ip("1.1.1.1"), &name("a.example"), 60, SimTime::from_secs(0));
        s.insert_cname(
            &name("cdn.example"),
            &name("www.example"),
            60,
            SimTime::from_secs(0),
        );
        // After 4000 s the IP-NAME maps have rotated (interval 3600) but
        // the NAME-CNAME map (interval 7200) has not.
        s.observe_time(SimTime::from_secs(4000));
        assert_eq!(
            s.lookup_ip(ip("1.1.1.1"), SimTime::from_secs(4000))
                .unwrap()
                .1,
            Generation::Inactive
        );
        let cdn = s.intern(&name("cdn.example"));
        assert_eq!(
            s.lookup_cname(&cdn, SimTime::from_secs(4000)).unwrap().1,
            Generation::Active
        );
        // Only the split that has seen data had an armed clear-up clock.
        assert_eq!(s.clear_ups(), 1);
    }

    #[test]
    fn no_split_variant_uses_one_split() {
        let s = store(Variant::NoSplit);
        for i in 0..20 {
            s.insert_address(
                ip(&format!("10.0.0.{i}")),
                &name("x.example"),
                60,
                SimTime::ZERO,
            );
        }
        // A clear-up round on a single-split store counts once for IP-NAME.
        s.observe_time(SimTime::from_secs(4000));
        assert_eq!(s.clear_ups(), 1);
    }

    #[test]
    fn exact_ttl_variant_expires_by_record_ttl() {
        let s = store(Variant::ExactTtl);
        assert!(s.is_exact_ttl());
        s.insert_address(
            ip("9.9.9.9"),
            &name("short.example"),
            30,
            SimTime::from_secs(0),
        );
        assert!(s.lookup_ip(ip("9.9.9.9"), SimTime::from_secs(10)).is_some());
        assert!(s
            .lookup_ip(ip("9.9.9.9"), SimTime::from_secs(100))
            .is_none());
        // purge accounting becomes visible after the purge interval
        s.observe_time(SimTime::from_secs(1));
        s.observe_time(SimTime::from_secs(10_000));
        assert!(s.purge_scanned() > 0);
        assert_eq!(s.clear_ups(), 0);
    }

    #[test]
    fn memoization_feeds_later_lookups() {
        let s = store(Variant::Main);
        let edge = s.intern(&name("edge.cdn.example"));
        let service = s.intern(&name("service.example"));
        s.memoize_cname(&edge, &service);
        assert_eq!(
            s.lookup_cname(&edge, SimTime::ZERO).unwrap().0.as_str(),
            "service.example"
        );
    }

    #[test]
    fn snapshot_round_trip_restores_lookups_and_dedup() {
        let s = store(Variant::Main);
        let ts = SimTime::from_secs(10);
        s.insert_address(ip("203.0.113.9"), &name("edge7.cdn.example.net"), 60, ts);
        s.insert_address(ip("203.0.113.10"), &name("edge7.cdn.example.net"), 60, ts);
        s.insert_address(ip("2001:db8::7"), &name("v6.example"), 86_400, ts);
        s.insert_cname(
            &name("edge7.cdn.example.net"),
            &name("www.shop.example"),
            600,
            ts,
        );
        let image = s.export_image().unwrap();
        // The same name under two IPs (and as a CNAME key) is stored once.
        assert_eq!(image.names.len(), 3);
        assert_eq!(image.entry_count(), 4);
        assert_eq!(image.as_of, ts);

        let restored = store(Variant::Main);
        let loaded = restored.import_image(&image, None).unwrap();
        assert_eq!(loaded, 4);
        assert_eq!(restored.interned_names(), 3);
        let (a, gen_a) = restored.lookup_ip(ip("203.0.113.9"), ts).unwrap();
        assert_eq!(a.as_str(), "edge7.cdn.example.net");
        assert_eq!(gen_a, Generation::Active);
        let (b, _) = restored.lookup_ip(ip("203.0.113.10"), ts).unwrap();
        // Interner dedup reconstructed exactly: one allocation again.
        assert!(NameRef::ptr_eq(&a, &b));
        assert_eq!(
            restored.lookup_ip(ip("2001:db8::7"), ts).unwrap().1,
            Generation::Long
        );
        let (alias, _) = restored.lookup_cname(&a, ts).unwrap();
        assert_eq!(alias.as_str(), "www.shop.example");
    }

    #[test]
    fn import_ages_generations_past_the_rotation_window() {
        let s = store(Variant::Main);
        s.insert_address(ip("1.2.3.4"), &name("short.example"), 60, SimTime::ZERO);
        s.insert_address(
            ip("5.6.7.8"),
            &name("stable.example"),
            86_400,
            SimTime::ZERO,
        );
        let image = s.export_image().unwrap();
        let restored = store(Variant::Main);
        // Restart a full day later: only the Long generation survives.
        let now = SimTime::from_secs(86_400);
        restored.import_image(&image, Some(now)).unwrap();
        assert!(restored.lookup_ip(ip("1.2.3.4"), now).is_none());
        assert_eq!(
            restored.lookup_ip(ip("5.6.7.8"), now).unwrap().0.as_str(),
            "stable.example"
        );
    }

    #[test]
    fn exact_ttl_variant_has_no_snapshot() {
        let s = store(Variant::ExactTtl);
        assert!(s.export_image().is_none());
        let donor = store(Variant::Main);
        donor.insert_address(ip("1.1.1.1"), &name("a.example"), 60, SimTime::ZERO);
        let image = donor.export_image().unwrap();
        assert!(matches!(
            s.import_image(&image, None),
            Err(FlowDnsError::Snapshot(_))
        ));
    }

    #[test]
    fn import_rejects_changed_split_counts() {
        let s = store(Variant::Main); // 10 splits
        s.insert_address(ip("1.1.1.1"), &name("a.example"), 60, SimTime::ZERO);
        let image = s.export_image().unwrap();
        let single = store(Variant::NoSplit); // 1 split
        assert!(matches!(
            single.import_image(&image, None),
            Err(FlowDnsError::Snapshot(_))
        ));
    }

    #[test]
    fn import_rejects_changed_clear_up_intervals() {
        let s = store(Variant::Main);
        s.insert_address(ip("1.1.1.1"), &name("a.example"), 60, SimTime::ZERO);
        let image = s.export_image().unwrap();
        // The aging rules are computed against the exporting intervals;
        // a reconfigured store must reject the file, not misage it.
        let shorter = DnsStore::new(&CorrelatorConfig {
            a_clear_up_interval: flowdns_types::SimDuration::from_secs(60),
            ..CorrelatorConfig::default()
        });
        match shorter.import_image(&image, None) {
            Err(FlowDnsError::Snapshot(msg)) => {
                assert!(msg.contains("a_clear_up_interval"), "{msg}")
            }
            other => panic!("expected interval rejection, got {other:?}"),
        }
    }

    #[test]
    fn memory_estimate_grows_with_inserts() {
        let s = store(Variant::Main);
        let before = s.memory_estimate().total_bytes();
        for i in 0..100 {
            s.insert_address(
                ip(&format!("198.51.100.{i}")),
                &name("service.example.net"),
                60,
                SimTime::ZERO,
            );
        }
        assert!(s.memory_estimate().total_bytes() > before);
        assert_eq!(s.memory_estimate().entries, 100);
    }
}
