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
use flowdns_snapshot::{DnsStoreImage, GenerationColumns, StoreImage};
use flowdns_storage::{
    Generation, GenerationStore, GenerationTable, MemoryEstimate, RotationClock, RotationPolicy,
};
use flowdns_types::{
    CorrelatedRecord, CorrelationOutcome, DnsAnswer, DnsRecord, FlowDnsError, FlowRecord, IpKey,
    NameId, NameImport, NameInterner, RecordType, SimDuration, SimTime,
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
///
/// Every value is a [`NameId`] holding one count in the shared pool:
/// taken when the name is interned for the insert, released when an
/// overwrite displaces it or a clear-up drops its entry.
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
                let value = shared.names.intern_domain(&record.query);
                self.observe_time(&shared.names, record.ts);
                let displaced = match IpKey::from_ip(*ip) {
                    IpKey::V4(bits) => self.v4.insert(bits, value, record.ttl).map(|(_, old)| old),
                    IpKey::V6(bits) => self.v6.insert(bits, value, record.ttl).map(|(_, old)| old),
                };
                if let Some(old) = displaced {
                    shared.names.release(old);
                }
                stats.addresses_stored += 1;
                true
            }
            (RecordType::Cname, DnsAnswer::Name(target)) => {
                let key = shared.names.intern_domain(target);
                let value = shared.names.intern_domain(&record.query);
                let mut cnames = shared.name_cname.write();
                cnames.insert(key, value, record.ttl, record.ts, shared.release_entry());
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
        self.observe_time(&shared.names, flow.ts);
        // …and the shared CNAME clock at 1 s resolution, so we take its
        // write lock at most once per simulated second instead of per
        // record.
        let tick_due = self.last_cname_tick.map_or(true, |last| {
            flow.ts.saturating_since(last) >= CNAME_TICK_RESOLUTION
        });
        if tick_due {
            self.last_cname_tick = Some(flow.ts);
            let release = shared.release_entry();
            shared.name_cname.write().observe_time(flow.ts, release);
        }
        let outcome = self.resolve(shared, flow.key.src_ip, stats);
        CorrelatedRecord::new(flow, outcome).with_asns(src_asn, dst_asn)
    }

    /// The name an IP maps to in this partition, and its generation.
    fn lookup_ip(&self, ip: IpAddr) -> Option<(NameId, Generation)> {
        let found = match IpKey::from_ip(ip) {
            IpKey::V4(bits) => self.v4.get(&bits),
            IpKey::V6(bits) => self.v6.get(&bits),
        };
        found.map(|(&name, generation)| (name, generation))
    }

    /// Resolve a source IP against this partition's IP-NAME tables, then
    /// follow the CNAME chain through the shared NAME-CNAME store
    /// (Algorithm 2, partitioned front half). The chase runs on ids;
    /// each name of the outcome shares the pool's allocation.
    pub fn resolve(
        &self,
        shared: &ShardedStore,
        src_ip: IpAddr,
        stats: &mut LookUpStats,
    ) -> CorrelationOutcome {
        // This partition's table holds `first`, so it names its text.
        let Some((first, first_name)) = self
            .lookup_ip(src_ip)
            .and_then(|(first, _)| Some((first, shared.names.domain(first)?)))
        else {
            stats.ip_misses += 1;
            return CorrelationOutcome::NotFound;
        };
        let mut shortcut = None;
        let outcome = {
            // The NAME-CNAME store holds every id the chase reads, and
            // cannot release one while this read lock is held.
            let cnames = shared.name_cname.read();
            follow_chain(
                first,
                first_name,
                shared.loop_limit,
                |name| {
                    let (&next, _) = cnames.lookup(name)?;
                    Some((next, shared.names.domain(next)?))
                },
                |&first, &last| {
                    // Counted for the shortcut entry, before the lock
                    // that keeps `last` alive is released.
                    shared.names.retain(first);
                    shared.names.retain(last);
                    shortcut = Some((first, last));
                },
                stats,
            )
        };
        // A multi-hop chain memoizes its shortcut after the read lock is
        // released; the next chase from `first` is then a single hop.
        if let Some((first, last)) = shortcut {
            let release = shared.release_entry();
            shared.name_cname.write().memoize(first, last, release);
        }
        outcome
    }

    /// Advance this partition's clear-up clock; a clear-up releases the
    /// names of the entries it drops.
    fn observe_time(&mut self, names: &NameInterner, ts: SimTime) {
        if self.clock.tick(ts) {
            self.v4.rotate(|_, name| names.release(name));
            self.v6.rotate(|_, name| names.release(name));
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

    /// The partition's clock and entries as one snapshot section, its
    /// names numbered in `table`. Each generation's columns are sized
    /// from the tables' counters and filled straight from them.
    fn export_section(&self, table: &mut NameTable<'_>) -> StoreImage {
        let (v4, v6) = (self.v4.entry_counts(), self.v6.entry_counts());
        let columns = |v4: usize, v6: usize| GenerationColumns {
            v4: Vec::with_capacity(v4),
            v6: Vec::with_capacity(v6),
            names: Vec::new(),
        };
        let mut section = StoreImage {
            last_clear_ts: self.clock.last_clear_ts(),
            last_seen_ts: self.clock.last_seen_ts(),
            active: columns(v4.0, v6.0),
            inactive: columns(v4.1, v6.1),
            long: columns(v4.2, v6.2),
        };
        let v4 = self
            .v4
            .iter()
            .map(|(&bits, &name, g)| (IpKey::V4(bits), name, g));
        let v6 = self
            .v6
            .iter()
            .map(|(&bits, &name, g)| (IpKey::V6(bits), name, g));
        for (key, name, generation) in v4.chain(v6) {
            if let Some(idx) = table.index_of(name) {
                columns_mut(&mut section, generation).push_ip(key, idx);
            }
        }
        section
    }

    /// Load snapshot sections into this partition. Each section is aged
    /// by its own clock; the partition clock ends at the latest of them
    /// (see [`RotationClock::age_import`]). Sections of one image never
    /// share a key, and within a section an Active entry wins over an
    /// Inactive copy of the same key. The image was validated before
    /// anything was touched (see [`ShardedStore::import_image`]), so
    /// every name index is in range. Each restore counts a reference in
    /// `import`, and the ids the tables did not keep go to `displaced`.
    fn import_sections(
        &mut self,
        sections: &[StoreImage],
        import: &mut NameImport<'_>,
        displaced: &mut Vec<NameId>,
        now: SimTime,
    ) {
        // Size each family's maps once, up front, instead of growing them.
        let (mut short_v4, mut short_v6, mut long_v4, mut long_v6) = (0, 0, 0, 0);
        for section in sections {
            for columns in [&section.active, &section.inactive] {
                short_v4 += columns.v4.len();
                short_v6 += columns.v6.len();
            }
            long_v4 += section.long.v4.len();
            long_v6 += section.long.v6.len();
        }
        self.v4.reserve(short_v4, long_v4);
        self.v6.reserve(short_v6, long_v6);
        let policy = self.v4.policy();
        for section in sections {
            let age = self
                .clock
                .age_import(section.last_clear_ts, section.last_seen_ts, now);
            for (exported, columns) in [
                (Generation::Active, &section.active),
                (Generation::Inactive, &section.inactive),
                (Generation::Long, &section.long),
            ] {
                let Some(generation) = age.place(exported, policy) else {
                    continue;
                };
                for &(bits, idx) in &columns.v4 {
                    let Some(name) = import.take(idx) else {
                        continue;
                    };
                    if let Some((_, name)) = self.v4.restore(bits, name, generation) {
                        displaced.push(name);
                    }
                }
                for &(bytes, idx) in &columns.v6 {
                    let Some(name) = import.take(idx) else {
                        continue;
                    };
                    let bits = u128::from_le_bytes(bytes);
                    if let Some((_, name)) = self.v6.restore(bits, name, generation) {
                        displaced.push(name);
                    }
                }
            }
        }
    }
}

/// The generation's columns of a section under construction.
fn columns_mut(section: &mut StoreImage, generation: Generation) -> &mut GenerationColumns {
    match generation {
        Generation::Active => &mut section.active,
        Generation::Inactive => &mut section.inactive,
        Generation::Long => &mut section.long,
    }
}

/// The sharded correlator's storage: `shards` exclusive
/// [`ShardPartition`]s plus the shared name pool and NAME-CNAME store.
/// The partition mutexes exist so non-worker threads (snapshot export,
/// metrics, shutdown drain) can reach in; shard workers lock their own
/// partition once per wake-up and process whole batches under that one
/// acquisition — never per record.
///
/// Every table holds names as [`NameId`]s, each counted once in the
/// pool: the IP-NAME values, and the NAME-CNAME keys, values and
/// memoized shortcuts.
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

    /// The shared name pool every table's ids number into.
    pub fn name_pool(&self) -> &NameInterner {
        &self.names
    }

    /// Number of distinct names pooled in the shared interner.
    pub fn interned_names(&self) -> usize {
        self.names.len()
    }

    /// The sink of a NAME-CNAME mutation: releases both ids of every
    /// entry the store lets go of.
    fn release_entry(&self) -> impl FnMut(NameId, NameId) + '_ {
        |key, value| {
            self.names.release(key);
            self.names.release(value);
        }
    }

    /// Advance every partition clock and the shared CNAME clock to
    /// `ts`. The offline simulator calls this before every event so all
    /// partitions observe the identical timestamp sequence — making
    /// rotation boundaries (and therefore correlated output)
    /// independent of the shard count.
    pub fn observe_time_all(&self, ts: SimTime) {
        for partition in &self.partitions {
            partition.lock().observe_time(&self.names, ts);
        }
        self.name_cname
            .write()
            .observe_time(ts, self.release_entry());
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
    /// store: the tables' counters for entries and key bytes, and the
    /// pool's per-reference sum for name bytes (each entry charged its
    /// names' full length). O(shards + pool stripes), not O(store).
    pub fn memory_estimate(&self) -> MemoryEstimate {
        let mut est = MemoryEstimate::new();
        for partition in &self.partitions {
            let partition = partition.lock();
            est.merge(partition.v4.memory());
            est.merge(partition.v6.memory());
        }
        est.merge(self.name_cname.read().table().memory());
        est.payload_bytes += self.names.referenced_bytes();
        est
    }

    /// Export the sharded store as a snapshot image: one IP-NAME section
    /// per shard (`num_split = 1`) in shard order, the shared NAME-CNAME
    /// section, and the clocks. Each partition is locked in turn for one
    /// pass over its tables that encodes its entries into exactly sized
    /// columns, and the NAME-CNAME store is read-locked for its pass, so
    /// every id is first read while a table holds it, and the name table
    /// counts it from then until the export ends; this runs from a
    /// background thread while workers keep processing.
    pub fn export_image(&self) -> DnsStoreImage {
        let mut table = NameTable::new(&self.names);
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
        let name_cname = {
            let cnames = self.name_cname.read();
            let (active, inactive, long) = cnames.table().entry_counts();
            let columns = |len| GenerationColumns {
                names: Vec::with_capacity(len),
                ..GenerationColumns::default()
            };
            let mut section = StoreImage {
                last_clear_ts: cnames.clock().last_clear_ts(),
                last_seen_ts: cnames.clock().last_seen_ts(),
                active: columns(active),
                inactive: columns(inactive),
                long: columns(long),
            };
            for (&key, &value, generation) in cnames.table().iter() {
                if let (Some(key), Some(value)) = (table.index_of(key), table.index_of(value)) {
                    columns_mut(&mut section, generation)
                        .names
                        .push((key, value));
                }
            }
            section
        };
        observe(name_cname.last_seen_ts);
        DnsStoreImage {
            as_of,
            num_split: 1,
            shards: self.partitions.len() as u32,
            a_interval_secs: self.config.a_clear_up_interval.as_secs(),
            c_interval_secs: self.config.c_clear_up_interval.as_secs(),
            names: table.into_names(),
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
        // All or nothing: every entry is checked before a name is pooled
        // or a partition touched, so a bad image leaves the store empty.
        image.validate()?;
        let now = now.unwrap_or(image.as_of);
        // Each image name is pooled once and pinned; the tables' restores
        // count its references, and the counts replace the pins in one
        // pass once every table is loaded.
        // Ids the tables did not keep are released after the settle.
        let mut import = self.names.import_names(&image.names);
        let mut displaced = Vec::new();
        let before = self.total_entries();
        for (partition, sections) in self.partitions.iter().zip(image.ip_name.chunks(per_shard)) {
            partition
                .lock()
                .import_sections(sections, &mut import, &mut displaced, now);
        }
        let cname = &image.name_cname;
        self.name_cname.write().import_entries(
            cname.last_clear_ts,
            cname.last_seen_ts,
            now,
            cname.generations().map(|columns| columns.names.as_slice()),
            |&(key, value)| Some((import.take(key)?, import.take(value)?)),
            |key, value| displaced.extend([key, value]),
        );
        import.settle();
        for name in displaced {
            self.names.release(name);
        }
        Ok(self.total_entries().saturating_sub(before))
    }
}

/// Builds the deduplicated name table of a snapshot: each distinct name
/// id gets one index, assigned on first sight, so the on-disk image
/// stores every name exactly once — mirroring the pool's one slot per
/// name.
///
/// The table holds the pool's own allocations, not copies: exporting a
/// store allocates nothing per name. It also holds one count on every id
/// it has indexed, from first sight until it is dropped: an export locks
/// one table at a time, so without that count a name whose last entry
/// went after its table was exported could be swept and its slot reused
/// by another name before a later table is read, and the cached index
/// would then give the new name the old text.
struct NameTable<'a> {
    pool: &'a NameInterner,
    names: Vec<Arc<str>>,
    index: HashMap<NameId, u32>,
}

impl<'a> NameTable<'a> {
    /// A table with room for every pooled name (the pool size bounds what
    /// a store can reference), so building it never regrows.
    fn new(pool: &'a NameInterner) -> Self {
        let names = pool.len();
        NameTable {
            pool,
            names: Vec::with_capacity(names),
            index: HashMap::with_capacity(names),
        }
    }

    /// The index of a held id, or `None` if the pool does not know it.
    /// Counts one reference to an id on first sight.
    fn index_of(&mut self, name: NameId) -> Option<u32> {
        if let Some(&idx) = self.index.get(&name) {
            return Some(idx);
        }
        let idx = self.names.len() as u32;
        self.names.push(self.pool.text(name)?);
        self.pool.retain(name);
        self.index.insert(name, idx);
        Some(idx)
    }

    /// The table's names, in index order.
    fn into_names(mut self) -> Vec<Arc<str>> {
        std::mem::take(&mut self.names)
    }
}

impl Drop for NameTable<'_> {
    /// Give back the count taken on every indexed id.
    fn drop(&mut self) {
        for &name in self.index.keys() {
            self.pool.release(name);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use flowdns_bgp::{Announcement, AsnView, RoutingTable};
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
            ip_name[i as usize % 10].active.push_ip(key, i as u32);
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
            .map(|(name, generation)| (store.names.text(name).unwrap().to_string(), generation))
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
    fn export_name_table_keeps_indexed_names_from_reuse() {
        let pool = NameInterner::with_shards(1);
        let x = pool.intern("x.example");
        let mut table = NameTable::new(&pool);
        let x_idx = table.index_of(x).unwrap();
        // The last table entry holding X goes while the export runs, and
        // a sweep follows before the next name is interned.
        pool.release(x);
        assert_eq!(pool.purge_unreferenced(), 0);
        let y = pool.intern("y.example");
        assert_ne!(y, x, "Y took the slot of a name the export indexed");
        let y_idx = table.index_of(y).unwrap();
        assert_ne!(y_idx, x_idx);
        let names = table.into_names();
        assert_eq!(&*names[x_idx as usize], "x.example");
        assert_eq!(&*names[y_idx as usize], "y.example");
        // The table's counts end with it.
        assert_eq!(pool.ref_count(y), 1);
        pool.release(y);
        assert_eq!(pool.purge_unreferenced(), 2);
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
    /// aging gives it, written out here per age class: a current section
    /// loads verbatim, one an interval behind turns Active into Inactive
    /// and drops its Inactive, and a stale one keeps only Long.
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
                0 => section.active.push_ip(key, name("a")),
                1 => section.inactive.push_ip(key, name("i")),
                2 => section.long.push_ip(key, name("l")),
                _ => {
                    section.inactive.push_ip(key, name("old"));
                    section.active.push_ip(key, name("new"));
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
            names,
            ip_name: sections,
            name_cname: StoreImage::default(),
        };
        // The codec accepts the layout.
        let bytes = flowdns_snapshot::encode_snapshot(&image);
        assert_eq!(flowdns_snapshot::decode_snapshot(&bytes).unwrap(), image);

        let store = ShardedStore::new(&config);
        let loaded = store.import_image(&image, Some(now)).unwrap();
        let mut resolving = 0;
        let mut generations = std::collections::HashSet::new();
        for (i, (ip, section)) in ips.into_iter().enumerate() {
            // Key `i` was written by pattern `i % 4` above; section `s`
            // has age class `s % 3`: current, one behind, stale.
            let name = |tag: &str| format!("{tag}{i}.example");
            let expected = match (i % 4, section % 3) {
                (0, 0) => Some((name("a"), Generation::Active)),
                (0, 1) => Some((name("a"), Generation::Inactive)),
                (1, 0) => Some((name("i"), Generation::Inactive)),
                (2, _) => Some((name("l"), Generation::Long)),
                (3, 0) => Some((name("new"), Generation::Active)),
                (3, 1) => Some((name("new"), Generation::Inactive)),
                _ => None,
            };
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
    fn failed_import_leaves_the_store_empty() {
        let config = sharded_config(2);
        let (store, _) = churned_store(&config);
        let image = store.export_image();
        // One bad entry in the *last* section: the sections before it,
        // and the name table, are all valid.
        let mut bad = image.clone();
        let out_of_range = bad.names.len() as u32;
        bad.ip_name[1]
            .long
            .push_ip(IpKey::V4(0x0A00_0001), out_of_range);

        let restored = ShardedStore::new(&config);
        match restored.import_image(&bad, None) {
            Err(FlowDnsError::Snapshot(msg)) => assert!(msg.contains("out of bounds"), "{msg}"),
            other => panic!("expected an out-of-range rejection, got {other:?}"),
        }
        assert_eq!(restored.total_entries(), 0);
        assert_eq!(restored.interned_names(), 0);
        // The rejected image left nothing behind for the good one to land on.
        assert_eq!(
            restored.import_image(&image, None).unwrap(),
            store.total_entries()
        );
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
        let edge_name = store.names.intern("edge7.cdn.example.net");
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
