//! The exact-TTL strawman store (Appendix A.8).
//!
//! The paper evaluates what happens if DNS records are expired using their
//! exact TTLs: a record may only be used while
//! `TTL_dns + Timestamp_dns >= Timestamp_netflow`, and a regular process
//! walks the whole map to purge expired entries. The result is disastrous
//! (loss above 90%, memory doubling) because the purge walks and the
//! per-record checks contend with the hot lookup path. [`ExactTtlStore`]
//! implements exactly that design so the ablation harness can reproduce
//! the comparison; its [`purge_scanned`](ExactTtlStore::purge_scanned)
//! counter exposes how much scanning the purge does, which the simulator
//! reports as a count. Only the single-threaded simulator runs it, so it
//! is one plain map.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

use flowdns_types::{SimDuration, SimTime};

use crate::keys::{StoreKey, StoreValue};
use crate::memory::MemoryEstimate;

/// A value plus its absolute expiry time.
#[derive(Debug)]
struct Entry<V> {
    value: V,
    expires_at: SimTime,
}

/// Store that applies the exact TTL of every DNS record.
#[derive(Debug)]
pub struct ExactTtlStore<K, V> {
    map: HashMap<K, Entry<V>>,
    purge_interval: SimDuration,
    last_purge: Option<SimTime>,
    purge_scanned: u64,
}

impl<K: StoreKey, V: StoreValue> ExactTtlStore<K, V> {
    /// Create a store whose purge process runs every `purge_interval` of
    /// data time.
    pub fn new(purge_interval: SimDuration) -> Self {
        ExactTtlStore {
            map: HashMap::new(),
            purge_interval,
            last_purge: None,
            purge_scanned: 0,
        }
    }

    /// Insert a record observed at `ts` with TTL `ttl`, and run the purge
    /// process if it is due.
    pub fn insert(&mut self, key: K, value: V, ttl: u32, ts: SimTime) {
        self.map.insert(
            key,
            Entry {
                value,
                expires_at: ts + SimDuration::from_secs(ttl as u64),
            },
        );
        self.maybe_purge(ts);
    }

    /// Look `key` up at flow time `now`; only records whose TTL has not
    /// yet expired are returned. Accepts any borrowed form of the key.
    pub fn lookup<Q>(&self, key: &Q, now: SimTime) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Hash + Eq + ?Sized,
    {
        self.map
            .get(key)
            .filter(|entry| entry.expires_at >= now)
            .map(|entry| entry.value.clone())
    }

    /// Run the purge process if the purge interval has elapsed since the
    /// last run. Returns how many entries were scanned (0 when not due).
    pub fn maybe_purge(&mut self, now: SimTime) -> u64 {
        match self.last_purge {
            Some(prev) if now.saturating_since(prev) >= self.purge_interval => {
                self.last_purge = Some(now);
                self.purge(now)
            }
            Some(_) => 0,
            None => {
                self.last_purge = Some(now);
                0
            }
        }
    }

    /// Unconditionally scan the whole map and remove expired entries.
    /// Every scanned entry is a unit of work; this is the cost Appendix
    /// A.8 blames for the strawman's collapse.
    pub fn purge(&mut self, now: SimTime) -> u64 {
        let scanned = self.map.len() as u64;
        self.map.retain(|_, entry| entry.expires_at >= now);
        self.purge_scanned += scanned;
        scanned
    }

    /// Entries examined by purge scans so far (the dominant cost).
    pub fn purge_scanned(&self) -> u64 {
        self.purge_scanned
    }

    /// Number of stored entries (live and expired-but-not-yet-purged).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Memory estimate of the stored entries.
    pub fn memory_estimate(&self) -> MemoryEstimate {
        let mut est = MemoryEstimate::new();
        for (key, entry) in &self.map {
            // The expiry timestamp adds 16 bytes of payload per entry on
            // top of the key/value payloads.
            est.add_entry(key.estimate_bytes(), entry.value.estimate_bytes() + 16);
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> ExactTtlStore<String, String> {
        ExactTtlStore::new(SimDuration::from_secs(300))
    }

    #[test]
    fn live_records_hit_expired_records_miss() {
        let mut s = store();
        s.insert(
            "1.2.3.4".into(),
            "a.example".into(),
            60,
            SimTime::from_secs(0),
        );
        assert_eq!(
            s.lookup("1.2.3.4", SimTime::from_secs(30)),
            Some("a.example".into())
        );
        assert_eq!(s.lookup("1.2.3.4", SimTime::from_secs(61)), None);
        assert_eq!(s.lookup("unknown", SimTime::ZERO), None);
    }

    #[test]
    fn boundary_expiry_is_inclusive() {
        let mut s = store();
        s.insert("k".into(), "v".into(), 100, SimTime::from_secs(0));
        // Exactly at expiry the record is still usable (TTL + ts >= now).
        assert!(s.lookup("k", SimTime::from_secs(100)).is_some());
        assert!(s.lookup("k", SimTime::from_secs(101)).is_none());
    }

    #[test]
    fn purge_removes_expired_and_counts_work() {
        let mut s = store();
        for i in 0..100 {
            s.insert(format!("k{i}"), "v".into(), 10, SimTime::from_secs(0));
        }
        for i in 100..150 {
            s.insert(format!("k{i}"), "v".into(), 10_000, SimTime::from_secs(0));
        }
        let scanned = s.purge(SimTime::from_secs(100));
        assert_eq!(scanned, 150);
        assert_eq!(s.len(), 50);
        assert_eq!(s.purge_scanned(), 150);
    }

    #[test]
    fn maybe_purge_respects_interval() {
        let mut s = store();
        s.insert("a".into(), "v".into(), 1, SimTime::from_secs(0));
        // The insert armed the clock; not yet due.
        assert_eq!(s.maybe_purge(SimTime::from_secs(10)), 0);
        assert_eq!(s.maybe_purge(SimTime::from_secs(100)), 0);
        // Due: scans the map, once.
        assert_eq!(s.maybe_purge(SimTime::from_secs(400)), 1);
        assert_eq!(s.maybe_purge(SimTime::from_secs(401)), 0);
        assert_eq!(s.purge_scanned(), 1);
        assert!(s.is_empty());
    }

    #[test]
    fn memory_estimate_reflects_entries() {
        let mut s = store();
        assert!(s.is_empty());
        s.insert(
            "203.0.113.1".into(),
            "cdn.example.net".into(),
            60,
            SimTime::ZERO,
        );
        let est = s.memory_estimate();
        assert_eq!(est.entries, 1);
        assert!(est.payload_bytes >= "203.0.113.1".len() + "cdn.example.net".len());
    }
}
