//! Shared-nothing correlator shards: key-routed partitions of the DNS
//! store, each owned exclusively by one worker thread.
//!
//! The pipeline routes records **at the ingest boundary**: listeners
//! compute [`shard_of_dns`]/[`shard_of_flow`] at decode time and push
//! into per-shard SPSC rings, and shard worker `i` is the only thread
//! that ever touches partition `i` — so the partition's IP-NAME maps are
//! plain single-owner [`LocalSplitStore`]s with **no lock and no atomic
//! on the per-record path**.
//!
//! Two things stay shared, by design:
//!
//! * the [`NameInterner`] — handles must compare equal across shards so
//!   the Write stage can aggregate names globally; interning is already
//!   concurrent and touch-once-per-distinct-name,
//! * the NAME-CNAME [`RotatingStore`] — CNAME chains routinely cross
//!   shard boundaries (the A record's answer IP hashes to one shard, the
//!   chain's aliases to others), so chain following needs a global view.
//!   It is read-mostly on the hot path (one insert per CNAME record vs.
//!   a lookup per chain hop) and keeps its internal lock striping.
//!
//! Routing invariants:
//!
//! * A/AAAA records route by **answer IP** ([`shard_of_key`]), the same
//!   key flows are looked up by, so a flow's shard always owns the
//!   mapping its source IP could have produced. Multi-answer DNS
//!   responses arrive here already split into one record per answer, so
//!   the answers of one response fan out to their respective shards.
//! * Flows route by **source IP** — the key Algorithm 2 looks up.
//! * CNAME records route by hash of the **query name**. Their target
//!   store is shared, so placement only matters for load balance.
//!
//! Clock semantics: each partition advances its own clear-up clocks from
//! the records it processes, and the shared CNAME clock is advanced by
//! CNAME inserts plus a once-per-simulated-second tick from flow
//! processing ([`ShardPartition::process_flow`]) — rotation granularity
//! is hours, so a 1 s tick resolution is far below observable, and it
//! keeps the shared store's clock mutex off the per-record path. The
//! offline simulator instead broadcasts every event's time to every
//! partition ([`ShardedStore::observe_time_all`]), which is what makes
//! its output independent of the shard count; the reference
//! [`DnsStore`](crate::store::DnsStore) advances only the inserting
//! split's clock on a DNS insert, so its splits rotate slightly out of
//! phase with this store's (measured in docs/ARCHITECTURE.md, "Clock
//! semantics").

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;

use flowdns_bgp::AsnReader;
use flowdns_snapshot::{DnsStoreImage, StoreImage};
use flowdns_storage::{
    GenerationsImage, LocalSplitStore, MemoryEstimate, RotatingStore, RotationPolicy,
};
use flowdns_types::{
    CorrelatedRecord, CorrelationOutcome, DnsAnswer, DnsRecord, DomainName, FlowDnsError,
    FlowRecord, IpKey, NameInterner, NameRef, RecordType, SimDuration, SimTime,
};

use crate::config::{CorrelatorConfig, Variant, MIGRATION_HINT};
use crate::fillup::FillUpStats;
use crate::lookup::{follow_chain, LookUpStats};
use crate::store::{
    decode_ip_entries, decode_name_entries, encode_ip_entries, encode_name_entries, NameTable,
};

/// How often flow processing ticks the shared CNAME clear-up clock.
const CNAME_TICK_RESOLUTION: SimDuration = SimDuration::from_secs(1);

/// Shard index for a compact IP key: hash modulo shard count, with the
/// same hasher the store splits use so the distribution properties are
/// shared. `shards = 1` always returns 0.
pub fn shard_of_key(key: &IpKey, shards: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % shards as u64) as usize
}

/// Shard index for a source/answer IP address.
pub fn shard_of_ip(ip: IpAddr, shards: usize) -> usize {
    shard_of_key(&IpKey::from_ip(ip), shards)
}

/// Shard index for a DNS record: A/AAAA route by answer IP (the key the
/// owning shard will store them under), everything else by a hash of the
/// query name (its store is shared, so only balance matters).
pub fn shard_of_dns(record: &DnsRecord, shards: usize) -> usize {
    match &record.answer {
        DnsAnswer::Ip(ip) if matches!(record.rtype, RecordType::A | RecordType::Aaaa) => {
            shard_of_ip(*ip, shards)
        }
        _ => {
            let mut hasher = DefaultHasher::new();
            record.query.as_str().hash(&mut hasher);
            (hasher.finish() % shards as u64) as usize
        }
    }
}

/// Shard index for a flow record: by source IP, the key Algorithm 2
/// looks up.
pub fn shard_of_flow(flow: &FlowRecord, shards: usize) -> usize {
    shard_of_key(&IpKey::from_ip(flow.key.src_ip), shards)
}

/// One shard's exclusive slice of the DNS store: a single-owner IP-NAME
/// split store plus the shard's CNAME-clock throttle state. Owned by
/// exactly one worker at a time (the pipeline wraps partitions in a
/// mutex locked once per wake-up, not per record).
#[derive(Debug)]
pub struct ShardPartition {
    ip_name: LocalSplitStore<IpKey, NameRef>,
    last_cname_tick: Option<SimTime>,
}

impl ShardPartition {
    fn new(policy: RotationPolicy, num_split: usize) -> Self {
        ShardPartition {
            ip_name: LocalSplitStore::new(policy, num_split),
            last_cname_tick: None,
        }
    }

    /// Process one DNS record against this partition (the body of the
    /// shard worker's FillUp half). The caller has already routed the
    /// record here via [`shard_of_dns`]. Returns `true` if stored.
    pub fn process_dns(
        &mut self,
        shared: &ShardedStore,
        record: &DnsRecord,
        stats: &mut FillUpStats,
    ) -> bool {
        if !record.is_correlatable() {
            stats.filtered += 1;
            return false;
        }
        match (&record.rtype, &record.answer) {
            (RecordType::A | RecordType::Aaaa, DnsAnswer::Ip(ip)) => {
                let value = shared.names.intern_domain(&record.query);
                self.ip_name
                    .insert(IpKey::from_ip(*ip), value, record.ttl, record.ts);
                stats.addresses_stored += 1;
                true
            }
            (RecordType::Cname, DnsAnswer::Name(target)) => {
                let key = shared.names.intern_domain(target);
                let value = shared.names.intern_domain(&record.query);
                shared.name_cname.insert(key, value, record.ttl, record.ts);
                stats.cnames_stored += 1;
                true
            }
            _ => {
                stats.filtered += 1;
                false
            }
        }
    }

    /// Process one flow record (the shard worker's LookUp half). The
    /// caller routed the flow here via [`shard_of_flow`], so this
    /// partition owns any IP-NAME mapping its source IP could have.
    /// `asn` is the worker's own attribution reader (it caches the
    /// routing-table snapshot, hence `&mut`).
    pub fn process_flow(
        &mut self,
        shared: &ShardedStore,
        asn: &mut Option<AsnReader>,
        flow: FlowRecord,
        stats: &mut LookUpStats,
    ) -> CorrelatedRecord {
        let (src_asn, dst_asn) = match asn {
            Some(reader) => {
                let src = reader.origin_as(flow.key.src_ip);
                let dst = reader.origin_as(flow.key.dst_ip);
                if src.is_some() {
                    stats.asn_stamped += 1;
                }
                (src, dst)
            }
            None => (None, None),
        };
        if !flow.is_valid() {
            stats.filtered += 1;
            return CorrelatedRecord::new(flow, CorrelationOutcome::NotFound)
                .with_asns(src_asn, dst_asn);
        }
        // Flow timestamps advance this partition's clear-up clocks so
        // DNS-quiet periods still rotate…
        self.ip_name.observe_time(flow.ts);
        // …and the shared CNAME clock at 1 s resolution, so we touch its
        // clock mutex at most once per simulated second instead of per
        // record.
        let tick_due = self.last_cname_tick.map_or(true, |last| {
            flow.ts.saturating_since(last) >= CNAME_TICK_RESOLUTION
        });
        if tick_due {
            self.last_cname_tick = Some(flow.ts);
            shared.name_cname.observe_time(flow.ts);
        }
        let outcome = self.resolve(shared, flow.key.src_ip, stats);
        CorrelatedRecord::new(flow, outcome).with_asns(src_asn, dst_asn)
    }

    /// Resolve a source IP against this partition's IP-NAME maps, then
    /// follow the CNAME chain through the shared NAME-CNAME store
    /// (Algorithm 2, partitioned front half).
    pub fn resolve(
        &mut self,
        shared: &ShardedStore,
        src_ip: IpAddr,
        stats: &mut LookUpStats,
    ) -> CorrelationOutcome {
        let key = IpKey::from_ip(src_ip);
        let Some((first_name, _)) = self.ip_name.lookup(&key) else {
            stats.ip_misses += 1;
            return CorrelationOutcome::NotFound;
        };
        follow_chain(
            first_name,
            shared.loop_limit,
            |name| shared.name_cname.lookup(name).map(|(next, _)| next),
            |first, last| shared.name_cname.memoize(first.clone(), last.clone()),
            stats,
        )
    }

    /// Advance this partition's clear-up clocks without processing a
    /// record (used by the offline simulator's broadcast clock and by
    /// drain paths at shutdown).
    pub fn observe_time(&mut self, ts: SimTime) {
        self.ip_name.observe_time(ts);
    }

    /// Entries currently stored in this partition.
    pub fn total_entries(&self) -> usize {
        self.ip_name.total_entries()
    }

    /// Clear-up rounds this partition has performed.
    pub fn clear_ups(&self) -> u64 {
        self.ip_name.stats().clear_ups
    }

    /// Entries this partition has rotated into Inactive maps.
    pub fn rotated_entries(&self) -> u64 {
        self.ip_name.stats().rotated_entries
    }

    /// Memory estimate for this partition's maps.
    pub fn memory_estimate(&self) -> MemoryEstimate {
        self.ip_name.memory_estimate()
    }
}

/// The sharded correlator's storage: `shards` exclusive
/// [`ShardPartition`]s plus the shared name interner and NAME-CNAME
/// store. The partition mutexes exist so non-worker threads (snapshot
/// export, metrics, shutdown drain) can reach in; shard workers lock
/// their own partition once per wake-up and process whole batches under
/// that one acquisition — never per record.
#[derive(Debug)]
pub struct ShardedStore {
    config: CorrelatorConfig,
    loop_limit: usize,
    names: NameInterner,
    partitions: Vec<parking_lot::Mutex<ShardPartition>>,
    name_cname: RotatingStore<NameRef, NameRef>,
}

impl ShardedStore {
    /// Build sharded storage for `config`. `config.correlator_shards`
    /// must be positive ([`CorrelatorConfig::validate`] enforces it for
    /// configs that come in through the front door) and the variant must
    /// not be the exact-TTL strawman, whose stores have no partitionable
    /// generations — [`crate::OfflineSimulator`] gives that variant the
    /// reference [`DnsStore`](crate::store::DnsStore) and
    /// [`crate::Correlator`] refuses it.
    pub fn new(config: &CorrelatorConfig) -> Self {
        assert!(
            config.correlator_shards > 0,
            "ShardedStore requires correlator_shards > 0"
        );
        assert!(
            !matches!(config.variant, Variant::ExactTtl),
            "ShardedStore does not support the ExactTtl variant"
        );
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
        let num_split = config.effective_num_split();
        ShardedStore {
            config: config.clone(),
            loop_limit: config.cname_loop_limit,
            names: NameInterner::new(),
            partitions: (0..config.correlator_shards)
                .map(|_| parking_lot::Mutex::new(ShardPartition::new(ip_policy, num_split)))
                .collect(),
            name_cname: RotatingStore::new(cname_policy, config.map_shards),
        }
    }

    /// The configuration this store was built for.
    pub fn config(&self) -> &CorrelatorConfig {
        &self.config
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.partitions.len()
    }

    /// Access a partition's mutex. Shard worker `i` is the only
    /// long-lived lock holder of partition `i`; anyone else takes the
    /// lock briefly and off the hot path.
    pub fn partition(&self, shard: usize) -> &parking_lot::Mutex<ShardPartition> {
        &self.partitions[shard]
    }

    /// Intern a domain name in the shared pool.
    pub fn intern(&self, name: &DomainName) -> NameRef {
        self.names.intern_domain(name)
    }

    /// Number of distinct names pooled in the shared interner.
    pub fn interned_names(&self) -> usize {
        self.names.len()
    }

    /// Advance every partition clock and the shared CNAME clock to
    /// `ts`. The offline simulator calls this before every event so all
    /// partitions observe the identical timestamp sequence — making
    /// rotation boundaries (and therefore correlated output)
    /// independent of the shard count.
    pub fn observe_time_all(&self, ts: SimTime) {
        for partition in &self.partitions {
            partition.lock().observe_time(ts);
        }
        self.name_cname.observe_time(ts);
    }

    /// Total stored entries across every partition and the shared CNAME
    /// store.
    pub fn total_entries(&self) -> usize {
        let partitioned: usize = self
            .partitions
            .iter()
            .map(|p| p.lock().total_entries())
            .sum();
        partitioned + self.name_cname.total_entries()
    }

    /// Clear-up rounds across all partitions and the CNAME store.
    pub fn clear_ups(&self) -> u64 {
        let partitioned: u64 = self.partitions.iter().map(|p| p.lock().clear_ups()).sum();
        partitioned + self.name_cname.stats().clear_ups
    }

    /// Entries rotated into Inactive maps across all partitions and the
    /// CNAME store.
    pub fn rotated_entries(&self) -> u64 {
        let partitioned: u64 = self
            .partitions
            .iter()
            .map(|p| p.lock().rotated_entries())
            .sum();
        partitioned + self.name_cname.stats().rotated_entries
    }

    /// Memory estimate across every partition and the shared stores.
    pub fn memory_estimate(&self) -> MemoryEstimate {
        let mut est = MemoryEstimate::new();
        for partition in &self.partitions {
            est.merge(partition.lock().memory_estimate());
        }
        est.merge(self.name_cname.memory_estimate());
        est
    }

    /// Export the sharded store as a snapshot image: `shards ×
    /// num_split` IP-NAME sections in shard-major order (shard 0's
    /// splits first), the shared NAME-CNAME triple, and the clocks.
    /// Each partition is locked briefly in turn; this runs from a
    /// background thread while workers keep processing.
    pub fn export_image(&self) -> DnsStoreImage {
        let mut table = NameTable::default();
        let mut as_of = SimTime::ZERO;
        let mut observe = |seen: Option<SimTime>| {
            if let Some(seen) = seen {
                as_of = as_of.max(seen);
            }
        };
        let num_split = self.config.effective_num_split();
        let mut ip_name = Vec::with_capacity(self.partitions.len() * num_split);
        for partition in &self.partitions {
            for split in partition.lock().ip_name.export_images() {
                observe(split.last_seen_ts);
                ip_name.push(StoreImage {
                    last_clear_ts: split.last_clear_ts,
                    last_seen_ts: split.last_seen_ts,
                    active: encode_ip_entries(split.active, &mut table),
                    inactive: encode_ip_entries(split.inactive, &mut table),
                    long: encode_ip_entries(split.long, &mut table),
                });
            }
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
        DnsStoreImage {
            as_of,
            num_split: num_split as u32,
            shards: self.partitions.len() as u32,
            a_interval_secs: self.config.a_clear_up_interval.as_secs(),
            c_interval_secs: self.config.c_clear_up_interval.as_secs(),
            names: table.names,
            ip_name,
            name_cname,
        }
    }

    /// Warm-start the sharded store from a snapshot image, aging every
    /// generation to `now`: generations older than the rotation window
    /// are discarded, a one-window-old Active demotes to Inactive, and
    /// the Long maps always survive (see
    /// [`RotatingStore::import_image`]).
    ///
    /// Errors if the image was written by a different shard count
    /// (`shards = 0` is what the removed classic layout wrote) — shard
    /// membership is a function of the shard count, so entries cannot
    /// be re-homed without rehashing the whole image (delete the
    /// snapshot to change `correlator_shards`). Split counts and
    /// clear-up intervals must match too: the aging math is only
    /// meaningful against the intervals the image was built with.
    pub fn import_image(
        &self,
        image: &DnsStoreImage,
        now: Option<SimTime>,
    ) -> Result<usize, FlowDnsError> {
        if image.shards == 0 {
            return Err(FlowDnsError::Snapshot(format!(
                "snapshot has 0 shards (written by the removed classic shared \
                 correlator), this correlator runs {} shards; its entries cannot be \
                 re-homed, so this is a cold start and the file is overwritten at the \
                 next snapshot write ({MIGRATION_HINT})",
                self.partitions.len()
            )));
        }
        if image.shards as usize != self.partitions.len() {
            return Err(FlowDnsError::Snapshot(format!(
                "snapshot has {} shards, this correlator is configured for {} \
                 (correlator_shards changed between runs? delete the snapshot to change it)",
                image.shards,
                self.partitions.len()
            )));
        }
        let num_split = self.config.effective_num_split();
        if image.num_split as usize != num_split {
            return Err(FlowDnsError::Snapshot(format!(
                "snapshot has {} splits, this store is configured for {} \
                 (num_split changed between runs?)",
                image.num_split, num_split
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
        for (shard, sections) in image.ip_name.chunks(num_split).enumerate() {
            let mut splits = Vec::with_capacity(sections.len());
            for split in sections {
                splits.push(GenerationsImage {
                    last_clear_ts: split.last_clear_ts,
                    last_seen_ts: split.last_seen_ts,
                    active: decode_ip_entries(&split.active, &handles)?,
                    inactive: decode_ip_entries(&split.inactive, &handles)?,
                    long: decode_ip_entries(&split.long, &handles)?,
                });
            }
            self.partitions[shard]
                .lock()
                .ip_name
                .import_images(splits, now)?;
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fillup::process_dns_record;
    use crate::lookup::Resolver;
    use crate::store::DnsStore;
    use std::net::Ipv4Addr;

    fn sharded_config(shards: usize) -> CorrelatorConfig {
        let config = CorrelatorConfig {
            correlator_shards: shards,
            ..CorrelatorConfig::default()
        };
        config.validate().unwrap();
        config
    }

    fn dns_chain(ts: SimTime) -> Vec<DnsRecord> {
        vec![
            DnsRecord::cname(
                ts,
                DomainName::literal("www.shop.example"),
                DomainName::literal("shop.cdn.example.net"),
                600,
            ),
            DnsRecord::cname(
                ts,
                DomainName::literal("shop.cdn.example.net"),
                DomainName::literal("edge7.cdn.example.net"),
                600,
            ),
            DnsRecord::address(
                ts,
                DomainName::literal("edge7.cdn.example.net"),
                Ipv4Addr::new(198, 51, 100, 7).into(),
                60,
            ),
            DnsRecord::address(
                ts,
                DomainName::literal("direct.example.org"),
                Ipv4Addr::new(203, 0, 113, 50).into(),
                300,
            ),
        ]
    }

    fn flow(src: [u8; 4]) -> FlowRecord {
        FlowRecord::inbound(
            SimTime::from_secs(20),
            Ipv4Addr::from(src).into(),
            Ipv4Addr::new(10, 0, 0, 1).into(),
            10_000,
        )
    }

    /// Route a record set through partitions and process each in its
    /// own shard, as the pipeline's workers would.
    fn fill(store: &ShardedStore, records: &[DnsRecord]) -> FillUpStats {
        let mut stats = FillUpStats::default();
        for record in records {
            let shard = shard_of_dns(record, store.shards());
            store
                .partition(shard)
                .lock()
                .process_dns(store, record, &mut stats);
        }
        stats
    }

    fn lookup(store: &ShardedStore, flow: FlowRecord) -> CorrelatedRecord {
        let mut stats = LookUpStats::default();
        let shard = shard_of_flow(&flow, store.shards());
        store
            .partition(shard)
            .lock()
            .process_flow(store, &mut None, flow, &mut stats)
    }

    #[test]
    fn routing_is_stable_and_in_range() {
        let ts = SimTime::from_secs(1);
        for shards in [1usize, 2, 4, 7] {
            for i in 0..200u32 {
                let ip: IpAddr = Ipv4Addr::from(0xC633_6400 + i).into();
                let s1 = shard_of_ip(ip, shards);
                assert_eq!(s1, shard_of_ip(ip, shards));
                assert!(s1 < shards);
                // A flow from that IP and the A record answering with it
                // land on the same shard.
                let record = DnsRecord::address(ts, DomainName::literal("x.example"), ip, 60);
                assert_eq!(shard_of_dns(&record, shards), s1);
                let f = FlowRecord::inbound(ts, ip, Ipv4Addr::new(10, 0, 0, 1).into(), 1);
                assert_eq!(shard_of_flow(&f, shards), s1);
            }
        }
    }

    #[test]
    fn cross_shard_cname_chain_resolves_like_the_classic_store() {
        let config = sharded_config(4);
        let store = ShardedStore::new(&config);
        let ts = SimTime::from_secs(10);
        let fstats = fill(&store, &dns_chain(ts));
        assert_eq!(fstats.addresses_stored, 2);
        assert_eq!(fstats.cnames_stored, 2);

        let rec = lookup(&store, flow([198, 51, 100, 7]));
        let names: Vec<&str> = rec.outcome.names().iter().map(|n| n.as_str()).collect();
        assert_eq!(
            names,
            vec![
                "edge7.cdn.example.net",
                "shop.cdn.example.net",
                "www.shop.example"
            ]
        );
        let rec = lookup(&store, flow([203, 0, 113, 50]));
        assert_eq!(
            rec.outcome,
            CorrelationOutcome::Name(DomainName::literal("direct.example.org"))
        );
        let rec = lookup(&store, flow([192, 0, 2, 99]));
        assert_eq!(rec.outcome, CorrelationOutcome::NotFound);
    }

    #[test]
    fn sharded_outcomes_match_the_classic_resolver() {
        let classic_config = CorrelatorConfig::default();
        let classic = DnsStore::new(&classic_config);
        let sharded = ShardedStore::new(&sharded_config(3));
        let ts = SimTime::from_secs(10);
        let mut fstats = FillUpStats::default();
        for record in dns_chain(ts) {
            process_dns_record(&classic, &record, &mut fstats);
        }
        fill(&sharded, &dns_chain(ts));

        let mut resolver = Resolver::new(&classic, &classic_config);
        for src in [[198, 51, 100, 7], [203, 0, 113, 50], [192, 0, 2, 99]] {
            let mut stats = LookUpStats::default();
            let classic_rec = resolver.process_flow(flow(src), &mut stats);
            let sharded_rec = lookup(&sharded, flow(src));
            assert_eq!(classic_rec.outcome, sharded_rec.outcome, "src {src:?}");
        }
    }

    #[test]
    fn export_import_round_trips_with_shards() {
        let config = sharded_config(4);
        let store = ShardedStore::new(&config);
        fill(&store, &dns_chain(SimTime::from_secs(10)));
        let image = store.export_image();
        assert_eq!(image.shards, 4);
        assert_eq!(
            image.ip_name.len(),
            4 * config.effective_num_split(),
            "shard-major sections"
        );
        // Round-tripping through the codec exercises its section-count
        // validation against the shard-major layout.
        let bytes = flowdns_snapshot::encode_snapshot(&image);
        assert_eq!(flowdns_snapshot::decode_snapshot(&bytes).unwrap(), image);

        let restored = ShardedStore::new(&config);
        let gained = restored.import_image(&image, None).unwrap();
        assert_eq!(gained, store.total_entries());
        let rec = lookup(&restored, flow([198, 51, 100, 7]));
        assert_eq!(
            rec.outcome.final_name().unwrap().as_str(),
            "www.shop.example"
        );
    }

    #[test]
    fn shard_count_change_is_rejected_on_import() {
        let store = ShardedStore::new(&sharded_config(4));
        fill(&store, &dns_chain(SimTime::from_secs(10)));
        let image = store.export_image();

        let other = ShardedStore::new(&sharded_config(2));
        match other.import_image(&image, None) {
            Err(FlowDnsError::Snapshot(msg)) => {
                assert!(msg.contains("4 shards"), "{msg}");
                assert!(msg.contains("correlator_shards"), "{msg}");
            }
            other => panic!("expected shard-count rejection, got {other:?}"),
        }
    }

    #[test]
    fn classic_and_sharded_images_do_not_cross_load() {
        // A classic image into a sharded store…
        let classic = DnsStore::new(&CorrelatorConfig::default());
        let mut fstats = FillUpStats::default();
        for record in dns_chain(SimTime::from_secs(10)) {
            process_dns_record(&classic, &record, &mut fstats);
        }
        let classic_image = classic.export_image().unwrap();
        let sharded = ShardedStore::new(&sharded_config(2));
        match sharded.import_image(&classic_image, None) {
            Err(FlowDnsError::Snapshot(msg)) => {
                assert!(msg.contains("classic shared correlator"), "{msg}");
                // 0 is no longer a value the operator can set.
                assert!(!msg.contains("correlator_shards = 0"), "{msg}");
            }
            other => panic!("expected layout rejection, got {other:?}"),
        }
        // …and a sharded image into a classic store.
        let sharded_image = sharded.export_image();
        match classic.import_image(&sharded_image, None) {
            Err(FlowDnsError::Snapshot(msg)) => {
                assert!(msg.contains("sharded correlator"), "{msg}")
            }
            other => panic!("expected layout rejection, got {other:?}"),
        }
    }

    #[test]
    fn flow_ticks_advance_partition_and_cname_clocks() {
        let store = ShardedStore::new(&sharded_config(2));
        fill(&store, &dns_chain(SimTime::from_secs(10)));
        let before = store.clear_ups();
        // A flow far in the future rotates its own shard's splits and
        // (via the 1 s-throttled tick) the shared CNAME store.
        let mut f = flow([198, 51, 100, 7]);
        f.ts = SimTime::from_secs(900_000);
        lookup(&store, f);
        assert!(store.clear_ups() > before);
    }

    #[test]
    fn observe_time_all_reaches_every_partition() {
        let store = ShardedStore::new(&sharded_config(4));
        fill(&store, &dns_chain(SimTime::from_secs(10)));
        // First broadcast arms every clock (splits that saw no insert
        // have unarmed clocks until their first observed timestamp)…
        store.observe_time_all(SimTime::from_secs(10));
        // …the second, a rotation interval later, rotates all of them.
        store.observe_time_all(SimTime::from_secs(900_000));
        // Every partition's splits plus the CNAME store rotated.
        let num_split = store.config().effective_num_split() as u64;
        assert_eq!(store.clear_ups(), 4 * num_split + 1);
    }
}
