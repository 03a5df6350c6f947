//! Shared-nothing correlator shards: key-routed partitions of the DNS
//! store, each owned exclusively by one worker thread.
//!
//! The pipeline routes records **at the ingest boundary**: listeners
//! compute [`shard_of_dns`]/[`shard_of_flow`] at decode time and push
//! into per-shard SPSC rings, and shard worker `i` is the only thread
//! that ever touches partition `i` — so a partition's IP-NAME maps are
//! plain single-owner [`GenerationTable`]s, one per address family under
//! one clear-up clock, with **no lock and no atomic on the per-record
//! path**.
//!
//! Two things stay shared, by design:
//!
//! * the [`NameInterner`] — handles must compare equal across shards so
//!   the Write stage can aggregate names globally; interning is already
//!   concurrent and touch-once-per-distinct-name,
//! * the NAME-CNAME store — CNAME chains routinely cross shard
//!   boundaries (the A record's answer IP hashes to one shard, the
//!   chain's aliases to others), so chain following needs a global view.
//!   It is one [`GenerationStore`] keyed by [`NameId`] behind one
//!   `RwLock`: a resolve takes the read lock once for the whole chase, and
//!   every hop is an identity probe that never reads or hashes name text.
//!   CNAME inserts, memoized shortcuts and the clock tick take the write
//!   lock.
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
//! Clock semantics: each partition has one clear-up clock, advanced by
//! the DNS records it inserts and the flows it looks up; the shared CNAME
//! clock is advanced by CNAME inserts plus a once-per-simulated-second
//! tick from flow processing ([`ShardPartition::process_flow`]) —
//! rotation granularity is hours, so a 1 s tick resolution is far below
//! observable, and it keeps the CNAME write lock off the per-record
//! path. The offline simulator instead broadcasts every event's time to
//! every partition ([`ShardedStore::observe_time_all`]), which is what
//! makes its output independent of the shard count.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::net::IpAddr;
use std::sync::Arc;

use flowdns_bgp::AsnReader;
use flowdns_snapshot::{DnsStoreImage, SnapshotKey, StoreImage};
use flowdns_storage::{
    Generation, GenerationStore, GenerationTable, GenerationsImage, MemoryEstimate, RotationClock,
    RotationPolicy,
};
use flowdns_types::{
    CorrelatedRecord, CorrelationOutcome, DnsAnswer, DnsRecord, FlowDnsError, FlowRecord, IpKey,
    NameId, NameInterner, RecordType, SimDuration, SimTime,
};
use parking_lot::{Mutex, RwLock};

use crate::config::{CorrelatorConfig, Variant, MIGRATION_HINT};
use crate::lookup::{follow_chain, LookUpStats};

/// How often flow processing ticks the shared CNAME clear-up clock.
const CNAME_TICK_RESOLUTION: SimDuration = SimDuration::from_secs(1);

/// Statistics of FillUp processing (Algorithm 1).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FillUpStats {
    /// A/AAAA records stored.
    pub addresses_stored: u64,
    /// CNAME records stored.
    pub cnames_stored: u64,
    /// Records dropped by the validity filter (wrong type, inconsistent
    /// answer, etc.).
    pub filtered: u64,
}

impl FillUpStats {
    /// Total records examined.
    pub fn total(&self) -> u64 {
        self.addresses_stored + self.cnames_stored + self.filtered
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &FillUpStats) {
        self.addresses_stored += other.addresses_stored;
        self.cnames_stored += other.cnames_stored;
        self.filtered += other.filtered;
    }
}

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

/// One shard's exclusive slice of the DNS store: one clear-up clock and
/// two IP-NAME generation tables keyed by raw address bits (IPv4 and
/// IPv6), plus the shard's CNAME-clock throttle state. Owned by exactly
/// one worker at a time (the pipeline wraps partitions in a mutex locked
/// once per wake-up, not per record).
#[derive(Debug)]
pub struct ShardPartition {
    clock: RotationClock,
    v4: GenerationTable<u32, NameId>,
    v6: GenerationTable<u128, NameId>,
    last_cname_tick: Option<SimTime>,
}

impl ShardPartition {
    fn new(policy: RotationPolicy) -> Self {
        ShardPartition {
            clock: RotationClock::new(policy),
            v4: GenerationTable::new(policy),
            v6: GenerationTable::new(policy),
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
                let value = shared.names.intern_domain_id(&record.query);
                self.observe_time(record.ts);
                match IpKey::from_ip(*ip) {
                    IpKey::V4(bits) => self.v4.insert(bits, value, record.ttl),
                    IpKey::V6(bits) => self.v6.insert(bits, value, record.ttl),
                }
                stats.addresses_stored += 1;
                true
            }
            (RecordType::Cname, DnsAnswer::Name(target)) => {
                let key = shared.names.intern_domain_id(target);
                let value = shared.names.intern_domain_id(&record.query);
                let mut cnames = shared.name_cname.write();
                cnames.insert(key, value, record.ttl, record.ts);
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
        // Flow timestamps advance this partition's clear-up clock so
        // DNS-quiet periods still rotate…
        self.observe_time(flow.ts);
        // …and the shared CNAME clock at 1 s resolution, so we take its
        // write lock at most once per simulated second instead of per
        // record.
        let tick_due = self.last_cname_tick.map_or(true, |last| {
            flow.ts.saturating_since(last) >= CNAME_TICK_RESOLUTION
        });
        if tick_due {
            self.last_cname_tick = Some(flow.ts);
            shared.name_cname.write().observe_time(flow.ts);
        }
        let outcome = self.resolve(shared, flow.key.src_ip, stats);
        CorrelatedRecord::new(flow, outcome).with_asns(src_asn, dst_asn)
    }

    /// The name an IP maps to in this partition, and its generation.
    fn lookup_ip(&self, ip: IpAddr) -> Option<(&NameId, Generation)> {
        match IpKey::from_ip(ip) {
            IpKey::V4(bits) => self.v4.get(&bits),
            IpKey::V6(bits) => self.v6.get(&bits),
        }
    }

    /// Resolve a source IP against this partition's IP-NAME tables, then
    /// follow the CNAME chain through the shared NAME-CNAME store
    /// (Algorithm 2, partitioned front half).
    pub fn resolve(
        &self,
        shared: &ShardedStore,
        src_ip: IpAddr,
        stats: &mut LookUpStats,
    ) -> CorrelationOutcome {
        let Some((first_name, _)) = self.lookup_ip(src_ip) else {
            stats.ip_misses += 1;
            return CorrelationOutcome::NotFound;
        };
        let mut shortcut = None;
        let outcome = {
            let cnames = shared.name_cname.read();
            follow_chain(
                first_name.clone(),
                shared.loop_limit,
                |name| cnames.lookup(name).map(|(next, _)| next.clone()),
                |first, last| shortcut = Some((first.clone(), last.clone())),
                stats,
            )
        };
        // A multi-hop chain memoizes its shortcut after the read lock is
        // released; the next chase from `first` is then a single hop.
        if let Some((first, last)) = shortcut {
            shared.name_cname.write().memoize(first, last);
        }
        outcome
    }

    /// Advance this partition's clear-up clock without processing a
    /// record (used by the offline simulator's broadcast clock and by
    /// drain paths at shutdown).
    pub fn observe_time(&mut self, ts: SimTime) {
        if self.clock.tick(ts) {
            self.v4.rotate();
            self.v6.rotate();
        }
    }

    /// Entries currently stored in this partition.
    pub fn total_entries(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    /// Clear-up rounds this partition has performed.
    pub fn clear_ups(&self) -> u64 {
        self.clock.clear_ups()
    }

    /// Entries this partition has rotated into Inactive.
    pub fn rotated_entries(&self) -> u64 {
        self.v4.stats().rotated_entries + self.v6.stats().rotated_entries
    }

    /// Entries and payload bytes of this partition, from its counters.
    pub fn memory_estimate(&self) -> MemoryEstimate {
        let mut est = self.v4.memory();
        est.merge(self.v6.memory());
        est
    }

    /// The partition's clock and entries as one snapshot section, its
    /// names numbered in `table`. Each generation's list is sized from
    /// the tables' counters and filled straight from them.
    fn export_section(&self, table: &mut NameTable) -> StoreImage {
        let (v4, v6) = (self.v4.entry_counts(), self.v6.entry_counts());
        let mut section = StoreImage {
            last_clear_ts: self.clock.last_clear_ts(),
            last_seen_ts: self.clock.last_seen_ts(),
            active: Vec::with_capacity(v4.0 + v6.0),
            inactive: Vec::with_capacity(v4.1 + v6.1),
            long: Vec::with_capacity(v4.2 + v6.2),
        };
        let v4 = self
            .v4
            .iter()
            .map(|(bits, name, g)| (IpKey::V4(*bits), name, g));
        let v6 = self
            .v6
            .iter()
            .map(|(bits, name, g)| (IpKey::V6(*bits), name, g));
        for (key, name, generation) in v4.chain(v6) {
            let entries = match generation {
                Generation::Active => &mut section.active,
                Generation::Inactive => &mut section.inactive,
                Generation::Long => &mut section.long,
            };
            entries.push((SnapshotKey::Ip(key), table.index_of(name)));
        }
        section
    }

    /// Load snapshot sections into this partition. Each section is aged
    /// by its own clock; the partition clock ends at the latest of them
    /// (see [`RotationClock::age_import`]). Sections of one image never
    /// share a key, and within a section an Active entry wins over an
    /// Inactive copy of the same key.
    fn import_sections(
        &mut self,
        sections: &[StoreImage],
        names: &[NameId],
        now: SimTime,
    ) -> Result<(), FlowDnsError> {
        // Size each family's maps once, up front, instead of growing them.
        let short = || {
            sections
                .iter()
                .flat_map(|s| s.active.iter().chain(&s.inactive))
        };
        let long = || sections.iter().flat_map(|s| s.long.iter());
        let v4 = |(key, _): &&(SnapshotKey, u32)| matches!(key, SnapshotKey::Ip(IpKey::V4(_)));
        let (short_v4, long_v4) = (short().filter(v4).count(), long().filter(v4).count());
        self.v4.reserve(short_v4, long_v4);
        self.v6
            .reserve(short().count() - short_v4, long().count() - long_v4);
        let policy = self.v4.policy();
        for section in sections {
            let age = self
                .clock
                .age_import(section.last_clear_ts, section.last_seen_ts, now);
            for (exported, entries) in [
                (Generation::Active, &section.active),
                (Generation::Inactive, &section.inactive),
                (Generation::Long, &section.long),
            ] {
                let Some(generation) = age.place(exported, policy) else {
                    continue;
                };
                for (key, idx) in entries {
                    let name = resolve_name(names, *idx)?;
                    match key {
                        SnapshotKey::Ip(IpKey::V4(bits)) => {
                            self.v4.restore(*bits, name, generation)
                        }
                        SnapshotKey::Ip(IpKey::V6(bits)) => {
                            self.v6.restore(*bits, name, generation)
                        }
                        SnapshotKey::Name(_) => {
                            return Err(FlowDnsError::Snapshot(
                                "IP-NAME split contains a non-IP key".into(),
                            ))
                        }
                    }
                }
            }
        }
        Ok(())
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
    partitions: Vec<Mutex<ShardPartition>>,
    name_cname: RwLock<GenerationStore<NameId, NameId>>,
}

impl ShardedStore {
    /// Build sharded storage for `config`. `config.correlator_shards`
    /// must be positive ([`CorrelatorConfig::validate`] enforces it for
    /// configs that come in through the front door) and the variant must
    /// not be the exact-TTL strawman, whose stores have no partitionable
    /// generations — [`crate::OfflineSimulator`] runs that variant on its
    /// own small arm and [`crate::Correlator`] refuses it.
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
            ..ip_policy
        };
        ShardedStore {
            config: config.clone(),
            loop_limit: config.cname_loop_limit,
            names: NameInterner::new(),
            partitions: (0..config.correlator_shards)
                .map(|_| Mutex::new(ShardPartition::new(ip_policy)))
                .collect(),
            name_cname: RwLock::new(GenerationStore::new(cname_policy)),
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
    pub fn partition(&self, shard: usize) -> &Mutex<ShardPartition> {
        &self.partitions[shard]
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
        self.name_cname.write().observe_time(ts);
    }

    /// Total stored entries across every partition and the shared CNAME
    /// store: distinct visible entries, exactly what an export/import
    /// round trip restores.
    pub fn total_entries(&self) -> usize {
        let partitioned: usize = self
            .partitions
            .iter()
            .map(|p| p.lock().total_entries())
            .sum();
        partitioned + self.name_cname.read().table().len()
    }

    /// Clear-up rounds across all partitions and the CNAME store.
    pub fn clear_ups(&self) -> u64 {
        let partitioned: u64 = self.partitions.iter().map(|p| p.lock().clear_ups()).sum();
        partitioned + self.name_cname.read().clock().clear_ups()
    }

    /// Entries rotated into Inactive across all partitions and the CNAME
    /// store.
    pub fn rotated_entries(&self) -> u64 {
        let partitioned: u64 = self
            .partitions
            .iter()
            .map(|p| p.lock().rotated_entries())
            .sum();
        partitioned + self.name_cname.read().table().stats().rotated_entries
    }

    /// Entries and payload bytes across every partition and the CNAME
    /// store. Served from the tables' counters: O(shards), not O(store).
    pub fn memory_estimate(&self) -> MemoryEstimate {
        let mut est = MemoryEstimate::new();
        for partition in &self.partitions {
            est.merge(partition.lock().memory_estimate());
        }
        est.merge(self.name_cname.read().table().memory());
        est
    }

    /// Export the sharded store as a snapshot image: one IP-NAME section
    /// per shard (`num_split = 1`) in shard order, the shared NAME-CNAME
    /// section, and the clocks. Each partition is locked in turn for one
    /// pass over its tables that encodes its entries into exactly sized
    /// lists; this runs from a background thread while workers keep
    /// processing.
    pub fn export_image(&self) -> DnsStoreImage {
        let mut table = NameTable::with_capacity(self.names.len());
        let mut as_of = SimTime::ZERO;
        let mut observe = |seen: Option<SimTime>| {
            if let Some(seen) = seen {
                as_of = as_of.max(seen);
            }
        };
        let mut ip_name = Vec::with_capacity(self.partitions.len());
        for partition in &self.partitions {
            let section = partition.lock().export_section(&mut table);
            observe(section.last_seen_ts);
            ip_name.push(section);
        }
        let cname = self.name_cname.read().export_image();
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
            num_split: 1,
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
    /// [`RotationClock::age_import`]). An image may carry any number of
    /// IP-NAME sections per shard (`num_split`): images written before
    /// the partitions stopped splitting carry one per split, and each is
    /// aged by its own clock.
    ///
    /// Errors if the image was written by a different shard count
    /// (`shards = 0` is what the removed classic layout wrote) — shard
    /// membership is a function of the shard count, so entries cannot
    /// be re-homed without rehashing the whole image (delete the
    /// snapshot to change `correlator_shards`). Clear-up intervals must
    /// match too: the aging math is only meaningful against the
    /// intervals the image was built with.
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
        let per_shard = image.num_split as usize;
        if per_shard == 0 || image.ip_name.len() != per_shard * self.partitions.len() {
            return Err(FlowDnsError::Snapshot(format!(
                "snapshot has {} IP-NAME sections, expected num_split {} × {} shards",
                image.ip_name.len(),
                image.num_split,
                self.partitions.len()
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
        let names = self.names.import_ids(&image.names);
        let before = self.total_entries();
        for (partition, sections) in self.partitions.iter().zip(image.ip_name.chunks(per_shard)) {
            partition.lock().import_sections(sections, &names, now)?;
        }
        let cname = &image.name_cname;
        let cname = GenerationsImage {
            last_clear_ts: cname.last_clear_ts,
            last_seen_ts: cname.last_seen_ts,
            active: decode_name_entries(&cname.active, &names)?,
            inactive: decode_name_entries(&cname.inactive, &names)?,
            long: decode_name_entries(&cname.long, &names)?,
        };
        self.name_cname.write().import_image(cname, now);
        Ok(self.total_entries().saturating_sub(before))
    }
}

/// Builds the deduplicated name table of a snapshot: each distinct name
/// identity gets one index, assigned on first sight, so the on-disk image
/// stores every name exactly once — mirroring the interner's
/// one-allocation-per-name invariant.
///
/// The table holds the pool's own allocations, not copies: exporting a
/// store allocates nothing per name.
struct NameTable {
    names: Vec<Arc<str>>,
    index: HashMap<NameId, u32>,
}

impl NameTable {
    /// A table with room for `names` distinct names (the pool size bounds
    /// what a store can reference), so building it never regrows.
    fn with_capacity(names: usize) -> Self {
        NameTable {
            names: Vec::with_capacity(names),
            index: HashMap::with_capacity(names),
        }
    }

    fn index_of(&mut self, name: &NameId) -> u32 {
        if let Some(&idx) = self.index.get(name) {
            return idx;
        }
        let idx = self.names.len() as u32;
        self.names.push(name.clone().into());
        self.index.insert(name.clone(), idx);
        idx
    }
}

fn encode_name_entries(
    entries: Vec<(NameId, NameId)>,
    table: &mut NameTable,
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

fn resolve_name(handles: &[NameId], idx: u32) -> Result<NameId, FlowDnsError> {
    handles.get(idx as usize).cloned().ok_or_else(|| {
        FlowDnsError::Snapshot(format!(
            "name index {idx} out of bounds (table has {} names)",
            handles.len()
        ))
    })
}

fn decode_name_entries(
    entries: &[(SnapshotKey, u32)],
    handles: &[NameId],
) -> Result<Vec<(NameId, NameId)>, FlowDnsError> {
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
pub(crate) mod tests {
    use super::*;
    use flowdns_bgp::{Announcement, AsnView, RoutingTable};
    use flowdns_storage::RotatingStore;
    use flowdns_types::DomainName;
    use std::net::{Ipv4Addr, Ipv6Addr};

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

    fn lookup_with(
        store: &ShardedStore,
        asn: &mut Option<AsnReader>,
        flow: FlowRecord,
        stats: &mut LookUpStats,
    ) -> CorrelatedRecord {
        let shard = shard_of_flow(&flow, store.shards());
        store
            .partition(shard)
            .lock()
            .process_flow(store, asn, flow, stats)
    }

    fn lookup(store: &ShardedStore, flow: FlowRecord) -> CorrelatedRecord {
        lookup_with(store, &mut None, flow, &mut LookUpStats::default())
    }

    /// A `shards = 0` image as the removed classic shared correlator left
    /// it on disk: ten IP-NAME splits holding `count` A records
    /// `203.0.113.i → svc{i}.example`, seen at 1 s.
    pub(crate) fn classic_layout_image(count: u8) -> DnsStoreImage {
        let config = CorrelatorConfig::default();
        let seen = Some(SimTime::from_secs(1));
        let mut ip_name = vec![
            StoreImage {
                last_clear_ts: seen,
                last_seen_ts: seen,
                ..StoreImage::default()
            };
            10
        ];
        for i in 0..count {
            let key = IpKey::from_ip(Ipv4Addr::new(203, 0, 113, i).into());
            ip_name[i as usize % 10]
                .active
                .push((SnapshotKey::Ip(key), i as u32));
        }
        DnsStoreImage {
            as_of: SimTime::from_secs(1),
            num_split: 10,
            shards: 0,
            a_interval_secs: config.a_clear_up_interval.as_secs(),
            c_interval_secs: config.c_clear_up_interval.as_secs(),
            names: (0..count)
                .map(|i| format!("svc{i}.example").into())
                .collect(),
            ip_name,
            name_cname: StoreImage::default(),
        }
    }

    /// The name and generation an IP resolves to in its own partition.
    fn resolve_ip(store: &ShardedStore, ip: IpAddr) -> Option<(String, Generation)> {
        let partition = store.partition(shard_of_ip(ip, store.shards())).lock();
        partition
            .lookup_ip(ip)
            .map(|(name, generation)| (name.as_str().to_string(), generation))
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
        let mut records = dns_chain(ts);
        // Uncorrelatable records are filtered: a TXT answer, and an A
        // record whose answer is a name.
        for (rtype, answer) in [
            (RecordType::Txt, DnsAnswer::Raw(vec![1, 2, 3])),
            (
                RecordType::A,
                DnsAnswer::Name(DomainName::literal("oops.example")),
            ),
        ] {
            records.push(DnsRecord {
                ts,
                query: DomainName::literal("example.com"),
                rtype,
                ttl: 60,
                answer,
            });
        }
        // Two services sharing one IP: the later record overwrites the
        // earlier, so all its traffic goes to the second name (the 50 %
        // scenario of Section 4).
        for (name, secs) in [("site-a.example", 11), ("site-b.example", 12)] {
            records.push(DnsRecord::address(
                SimTime::from_secs(secs),
                DomainName::literal(name),
                Ipv4Addr::new(203, 0, 113, 200).into(),
                300,
            ));
        }
        let fstats = fill(&store, &records);
        assert_eq!(fstats.addresses_stored, 4);
        assert_eq!(fstats.cnames_stored, 2);
        assert_eq!(fstats.filtered, 2);
        assert_eq!(store.total_entries(), 5);

        let rec = lookup(&store, flow([203, 0, 113, 200]));
        assert_eq!(rec.outcome.final_name().unwrap().as_str(), "site-b.example");
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

        // With a routing table both endpoints are stamped, and an invalid
        // flow is filtered but still reported, stamped, as uncorrelated.
        let mut table = RoutingTable::new();
        for (prefix, origin_as) in [("203.0.113.0/24", 64500u32), ("10.0.0.0/8", 64501)] {
            table.announce(Announcement {
                prefix: prefix.parse().unwrap(),
                origin_as,
            });
        }
        let mut asn = Some(AsnView::new(table.freeze()).reader());
        let mut stats = LookUpStats::default();
        let rec = lookup_with(&store, &mut asn, flow([203, 0, 113, 50]), &mut stats);
        assert!(rec.is_correlated());
        assert_eq!((rec.src_asn, rec.dst_asn), (Some(64500), Some(64501)));
        let rec = lookup_with(&store, &mut asn, flow([198, 51, 100, 7]), &mut stats);
        assert_eq!((rec.src_asn, rec.dst_asn), (None, Some(64501)));
        let mut invalid = flow([203, 0, 113, 50]);
        invalid.bytes = 0;
        let rec = lookup_with(&store, &mut asn, invalid, &mut stats);
        assert_eq!(rec.outcome, CorrelationOutcome::NotFound);
        assert_eq!(rec.src_asn, Some(64500));
        assert_eq!(
            (stats.filtered, stats.ip_hits, stats.asn_stamped),
            (1, 2, 2)
        );
    }

    #[test]
    fn multi_hop_chain_memoizes_its_shortcut() {
        let store = ShardedStore::new(&sharded_config(2));
        let ts = SimTime::from_secs(10);
        let mut records = dns_chain(ts);
        // A 10-hop chain n10 → … → n0 behind one A record, and a CNAME
        // that names itself.
        for i in 0..10 {
            records.push(DnsRecord::cname(
                ts,
                DomainName::literal(&format!("n{}.example", i + 1)),
                DomainName::literal(&format!("n{i}.example")),
                600,
            ));
        }
        records.push(DnsRecord::cname(
            ts,
            DomainName::literal("loop.example"),
            DomainName::literal("loop.example"),
            600,
        ));
        for (name, last) in [("n0.example", 77), ("loop.example", 80)] {
            records.push(DnsRecord::address(
                ts,
                DomainName::literal(name),
                Ipv4Addr::new(198, 51, 100, last).into(),
                60,
            ));
        }
        fill(&store, &records);
        let mut stats = LookUpStats::default();
        let ip: IpAddr = Ipv4Addr::new(198, 51, 100, 7).into();
        let partition = store.partition(shard_of_ip(ip, 2)).lock();
        partition.resolve(&store, ip, &mut stats);
        assert_eq!((stats.cname_hops, stats.memoized), (2, 1));
        let again = partition.resolve(&store, ip, &mut stats);
        assert_eq!(stats.cname_hops, 3, "the shortcut answers in one hop");
        assert_eq!(again.final_name().unwrap().as_str(), "www.shop.example");
        drop(partition);

        // The loop limit cuts the long chain: the A record's name plus at
        // most `cname_loop_limit` hops.
        let mut stats = LookUpStats::default();
        let rec = lookup_with(&store, &mut None, flow([198, 51, 100, 77]), &mut stats);
        assert_eq!(rec.outcome.names().len(), 1 + store.loop_limit);
        assert_eq!(stats.loop_limit_hits, 1);
        // The self-referential CNAME ends its chase.
        let rec = lookup(&store, flow([198, 51, 100, 80]));
        assert!(rec.is_correlated());
        assert!(rec.outcome.names().len() <= 2);
    }

    /// A few hundred v4/v6 records across three rotations, with re-inserts
    /// of Inactive keys (shadowing) and keys in both a short generation
    /// and Long.
    fn churned_store(config: &CorrelatorConfig) -> (ShardedStore, Vec<IpAddr>) {
        let store = ShardedStore::new(config);
        let mut ips = Vec::new();
        let mut records = dns_chain(SimTime::from_secs(10));
        for round in 0..4u64 {
            let ts = SimTime::from_secs(10 + round * 3_000);
            for i in 0..120u32 {
                let ip: IpAddr = if i % 3 == 0 {
                    Ipv6Addr::from(0x2001_0db8_u128 << 96 | (i % 50) as u128).into()
                } else {
                    Ipv4Addr::from(0x6440_0000 + i % 80).into()
                };
                let ttl = if (i + round as u32) % 5 == 0 {
                    86_400
                } else {
                    60
                };
                let name = DomainName::literal(&format!("h{}-{round}.example", i % 7));
                records.push(DnsRecord::address(ts, name, ip, ttl));
                ips.push(ip);
            }
        }
        fill(&store, &records);
        (store, ips)
    }

    #[test]
    fn fillup_stats_merge_accumulates() {
        let mut a = FillUpStats {
            addresses_stored: 3,
            cnames_stored: 1,
            filtered: 2,
        };
        a.merge(&FillUpStats {
            addresses_stored: 1,
            cnames_stored: 1,
            filtered: 0,
        });
        assert_eq!(a.total(), 8);
        assert_eq!(a.addresses_stored, 4);
    }

    #[test]
    fn export_import_round_trips_with_shards() {
        let config = sharded_config(4);
        let (store, ips) = churned_store(&config);
        let image = store.export_image();
        assert_eq!(image.shards, 4);
        assert_eq!(image.num_split, 1);
        assert_eq!(image.ip_name.len(), 4, "one section per shard");
        // The counters agree with the entries the export walks.
        assert_eq!(store.memory_estimate().entries, image.entry_count());
        assert_eq!(store.total_entries(), image.entry_count());
        // Round-tripping through the codec exercises its section-count
        // validation against the shard-major layout.
        let bytes = flowdns_snapshot::encode_snapshot(&image);
        assert_eq!(flowdns_snapshot::decode_snapshot(&bytes).unwrap(), image);

        let restored = ShardedStore::new(&config);
        let gained = restored.import_image(&image, None).unwrap();
        assert_eq!(gained, store.total_entries());
        assert_eq!(restored.total_entries(), store.total_entries());
        assert_eq!(restored.memory_estimate(), store.memory_estimate());
        for ip in ips {
            assert_eq!(resolve_ip(&restored, ip), resolve_ip(&store, ip), "{ip}");
        }
        let rec = lookup(&restored, flow([198, 51, 100, 7]));
        assert_eq!(
            rec.outcome.final_name().unwrap().as_str(),
            "www.shop.example"
        );
    }

    /// Images written while partitions still split into `num_split`
    /// stores carry one section per split, each with its own clock, and
    /// a key may sit in both Active and Inactive of its section. Every
    /// key must resolve to the name and generation its own section's
    /// aging gives it — the section imported alone into a three-map
    /// [`RotatingStore`] is the oracle.
    #[test]
    fn parent_layout_image_imports_with_per_section_aging() {
        const SPLITS: usize = 10;
        let config = sharded_config(2);
        let interval = config.a_clear_up_interval.as_secs();
        let now = SimTime::from_secs(100_000);
        let secs_ago = |s: u64| Some(SimTime::from_secs(100_000 - s));
        let mut names: Vec<std::sync::Arc<str>> = Vec::new();
        let mut sections: Vec<StoreImage> = (0..2 * SPLITS)
            .map(|s| {
                // Current, one rotation behind, or stale, and clocks that
                // differ within each class.
                let age = [600, interval + 600, 3 * interval][s % 3] + s as u64;
                StoreImage {
                    last_clear_ts: secs_ago(age),
                    last_seen_ts: secs_ago(age / 2),
                    ..StoreImage::default()
                }
            })
            .collect();
        let mut ips = Vec::new();
        for i in 0..600u32 {
            let ip: IpAddr = if i % 4 == 0 {
                Ipv6Addr::from(0x2001_0db8_u128 << 96 | i as u128).into()
            } else {
                Ipv4Addr::from(0x0A00_0000 + i).into()
            };
            let key = IpKey::from_ip(ip);
            let section = &mut sections[shard_of_key(&key, 2) * SPLITS + i as usize % SPLITS];
            let mut name = |tag: &str| {
                names.push(format!("{tag}{i}.example").into());
                (names.len() - 1) as u32
            };
            match i % 4 {
                0 => section.active.push((SnapshotKey::Ip(key), name("a"))),
                1 => section.inactive.push((SnapshotKey::Ip(key), name("i"))),
                2 => section.long.push((SnapshotKey::Ip(key), name("l"))),
                _ => {
                    section.inactive.push((SnapshotKey::Ip(key), name("old")));
                    section.active.push((SnapshotKey::Ip(key), name("new")));
                }
            }
            ips.push((ip, shard_of_key(&key, 2) * SPLITS + i as usize % SPLITS));
        }
        let image = DnsStoreImage {
            as_of: now,
            num_split: SPLITS as u32,
            shards: 2,
            a_interval_secs: interval,
            c_interval_secs: config.c_clear_up_interval.as_secs(),
            names: names.clone(),
            ip_name: sections.clone(),
            name_cname: StoreImage::default(),
        };
        // The codec accepts the layout.
        let bytes = flowdns_snapshot::encode_snapshot(&image);
        assert_eq!(flowdns_snapshot::decode_snapshot(&bytes).unwrap(), image);

        let store = ShardedStore::new(&config);
        let loaded = store.import_image(&image, Some(now)).unwrap();
        let policy = RotationPolicy::address_default();
        let text = |entries: &[(SnapshotKey, u32)]| {
            entries
                .iter()
                .map(|(key, idx)| match key {
                    SnapshotKey::Ip(ip) => (*ip, names[*idx as usize].to_string()),
                    SnapshotKey::Name(_) => unreachable!("IP sections only"),
                })
                .collect::<Vec<_>>()
        };
        let oracles: Vec<RotatingStore<IpKey, String>> = sections
            .iter()
            .map(|section| {
                let oracle = RotatingStore::new(policy, 4);
                oracle.import_image(
                    GenerationsImage {
                        last_clear_ts: section.last_clear_ts,
                        last_seen_ts: section.last_seen_ts,
                        active: text(&section.active),
                        inactive: text(&section.inactive),
                        long: text(&section.long),
                    },
                    now,
                );
                oracle
            })
            .collect();
        let mut resolving = 0;
        let mut generations = std::collections::HashSet::new();
        for (ip, section) in ips {
            let expected = oracles[section].lookup(&IpKey::from_ip(ip));
            assert_eq!(
                resolve_ip(&store, ip),
                expected,
                "{ip} in section {section}"
            );
            if let Some((_, generation)) = expected {
                resolving += 1;
                generations.insert(generation);
            }
        }
        assert_eq!(generations.len(), 3, "every generation is exercised");
        assert_eq!(loaded, resolving);
        assert_eq!(store.total_entries(), resolving);
        // The partition clock resumes at the latest section clock: a
        // current section's last clear-up or, for aged ones, `now`.
        for shard in 0..2 {
            let partition = store.partition(shard).lock();
            assert_eq!(partition.clock.last_clear_ts(), Some(now));
            assert_eq!(partition.clock.last_seen_ts(), Some(now));
        }
    }

    #[test]
    fn shard_count_or_interval_change_is_rejected_on_import() {
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
        // The aging rules are computed against the exporting intervals;
        // a reconfigured store must reject the file, not misage it.
        let shorter = ShardedStore::new(&CorrelatorConfig {
            a_clear_up_interval: SimDuration::from_secs(60),
            ..sharded_config(4)
        });
        match shorter.import_image(&image, None) {
            Err(FlowDnsError::Snapshot(msg)) => {
                assert!(msg.contains("a_clear_up_interval"), "{msg}")
            }
            other => panic!("expected interval rejection, got {other:?}"),
        }
    }

    #[test]
    fn num_split_does_not_invalidate_a_snapshot() {
        let store = ShardedStore::new(&sharded_config(2));
        fill(&store, &dns_chain(SimTime::from_secs(10)));
        let image = store.export_image();
        let resplit = ShardedStore::new(&CorrelatorConfig {
            num_split: 3,
            ..sharded_config(2)
        });
        assert_eq!(
            resplit.import_image(&image, None).unwrap(),
            store.total_entries()
        );
    }

    #[test]
    fn classic_layout_image_does_not_load_into_shards() {
        let classic_image = classic_layout_image(4);
        // The codec accepts the layout; the sharded store refuses it.
        let bytes = flowdns_snapshot::encode_snapshot(&classic_image);
        assert_eq!(
            flowdns_snapshot::decode_snapshot(&bytes).unwrap(),
            classic_image
        );
        let sharded = ShardedStore::new(&sharded_config(2));
        match sharded.import_image(&classic_image, None) {
            Err(FlowDnsError::Snapshot(msg)) => {
                assert!(msg.contains("classic shared correlator"), "{msg}");
                // 0 is no longer a value the operator can set.
                assert!(!msg.contains("correlator_shards = 0"), "{msg}");
            }
            other => panic!("expected layout rejection, got {other:?}"),
        }
        assert_eq!(sharded.total_entries(), 0);
    }

    #[test]
    fn flow_ticks_advance_partition_and_cname_clocks() {
        let store = ShardedStore::new(&sharded_config(2));
        fill(&store, &dns_chain(SimTime::from_secs(10)));
        let before = store.clear_ups();
        // A flow far in the future rotates its own shard's tables and
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
        // First broadcast arms every clock (partitions that saw no insert
        // have unarmed clocks until their first observed timestamp)…
        store.observe_time_all(SimTime::from_secs(10));
        // …the second, past the 3,600 s IP-NAME interval but inside the
        // 7,200 s NAME-CNAME one, rotates every partition and not the
        // CNAME store…
        store.observe_time_all(SimTime::from_secs(4_000));
        assert_eq!(store.clear_ups(), 4);
        let edge: IpAddr = Ipv4Addr::new(198, 51, 100, 7).into();
        assert_eq!(
            resolve_ip(&store, edge),
            Some(("edge7.cdn.example.net".into(), Generation::Inactive))
        );
        let edge_name = store
            .names
            .intern_domain_id(&DomainName::literal("edge7.cdn.example.net"));
        assert_eq!(
            store.name_cname.read().lookup(&edge_name).map(|(_, g)| g),
            Some(Generation::Active)
        );
        // …and a later one rotates all of them again: one clear-up per
        // partition plus the CNAME store's.
        store.observe_time_all(SimTime::from_secs(900_000));
        assert_eq!(store.clear_ups(), 4 + 4 + 1);
    }
}
