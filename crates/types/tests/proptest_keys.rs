//! Property-based tests for the typed store keys.
//!
//! * `IpKey` must round-trip every IPv4 and IPv6 address exactly and
//!   preserve equality/inequality of the underlying addresses.
//! * `NameInterner` must be a pure deduplicator: interning never changes
//!   the text, equal texts share one slot, distinct texts do not compare
//!   equal.
//! * `NameId` equality must coincide with text equality for every pair of
//!   held ids, whatever was interned, released or purged before, and a
//!   held id must keep its text.

use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};

use flowdns_types::{DomainName, IpKey, NameInterner};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum IdOp {
    Intern(u8),
    InternDomain(u8),
    Drop(usize),
    Purge,
}

fn id_op() -> impl Strategy<Value = IdOp> {
    prop_oneof![
        4 => (0u8..6).prop_map(IdOp::Intern),
        2 => (0u8..6).prop_map(IdOp::InternDomain),
        3 => any::<usize>().prop_map(IdOp::Drop),
        1 => Just(IdOp::Purge),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn ipv4_round_trips_through_ipkey(bits in any::<u32>()) {
        let ip = IpAddr::V4(Ipv4Addr::from(bits));
        let key = IpKey::from_ip(ip);
        prop_assert!(key.is_v4());
        prop_assert_eq!(key.encoded_len(), 4);
        prop_assert_eq!(key.to_ip(), ip);
        prop_assert_eq!(IpKey::from_ip(key.to_ip()), key);
    }

    #[test]
    fn ipv6_round_trips_through_ipkey(hi in any::<u64>(), lo in any::<u64>()) {
        let bits = (hi as u128) << 64 | lo as u128;
        let ip = IpAddr::V6(Ipv6Addr::from(bits));
        let key = IpKey::from_ip(ip);
        prop_assert!(key.is_v6());
        prop_assert_eq!(key.encoded_len(), 16);
        prop_assert_eq!(key.to_ip(), ip);
        prop_assert_eq!(IpKey::from_ip(key.to_ip()), key);
    }

    #[test]
    fn ipkey_equality_matches_address_equality(a in any::<u32>(), b in any::<u32>()) {
        let ka = IpKey::from(Ipv4Addr::from(a));
        let kb = IpKey::from(Ipv4Addr::from(b));
        prop_assert_eq!(ka == kb, a == b);
        // Display parses back to the same key.
        let parsed: IpKey = ka.to_string().parse().unwrap();
        prop_assert_eq!(parsed, ka);
    }

    #[test]
    fn interner_dedups_equal_names(labels in proptest::collection::vec(proptest::string::string_regex("[a-z]{1,8}").unwrap(), 1..5)) {
        let pool = NameInterner::new();
        let text = labels.join(".");
        let first = pool.intern(&text);
        let second = pool.intern(&text);
        prop_assert_eq!(&*pool.text(first).unwrap(), text.as_str());
        prop_assert_eq!(first, second);
        prop_assert_eq!(pool.len(), 1);
        // Interning via a parsed DomainName yields the same pooled id.
        let domain = DomainName::literal(&text);
        prop_assert_eq!(first, pool.intern_domain(&domain));
        prop_assert_eq!(pool.len(), 1);
        prop_assert_eq!(pool.ref_count(first), 3);
    }

    #[test]
    fn interner_preserves_distinctness(a in proptest::string::string_regex("[a-z]{1,12}").unwrap(),
                                       b in proptest::string::string_regex("[a-z]{1,12}").unwrap()) {
        let pool = NameInterner::new();
        let ra = pool.intern(&a);
        let rb = pool.intern(&b);
        prop_assert_eq!(ra == rb, a == b);
        prop_assert_eq!(pool.len(), if a == b { 1 } else { 2 });
    }

    /// `NameId` compares slot numbers; that is only sound if slot
    /// equality is text equality for every pair of ids held at the same
    /// time, across interning, releasing and purging (which reuses
    /// slots).
    #[test]
    fn name_id_equality_is_text_equality(ops in proptest::collection::vec(id_op(), 1..80)) {
        use std::hash::BuildHasher;
        let pool = NameInterner::with_shards(2);
        let hasher = std::collections::hash_map::RandomState::new();
        let mut live: Vec<flowdns_types::NameId> = Vec::new();
        for op in ops {
            match op {
                IdOp::Intern(text) => live.push(pool.intern(&format!("n{text}.example"))),
                IdOp::InternDomain(text) => live.push(
                    pool.intern_domain(&DomainName::literal(&format!("n{text}.example"))),
                ),
                IdOp::Drop(at) => {
                    if !live.is_empty() {
                        pool.release(live.swap_remove(at % live.len()));
                    }
                }
                IdOp::Purge => {
                    pool.purge_unreferenced();
                }
            }
            for a in &live {
                for b in &live {
                    let (ta, tb) = (pool.text(*a).unwrap(), pool.text(*b).unwrap());
                    prop_assert_eq!(a == b, ta == tb, "{} vs {}", ta, tb);
                    if a == b {
                        prop_assert_eq!(hasher.hash_one(a), hasher.hash_one(b));
                    }
                }
            }
        }
    }

    #[test]
    fn pooled_domain_round_trip(labels in proptest::collection::vec(proptest::string::string_regex("[a-z0-9]{1,8}").unwrap(), 1..5)) {
        let pool = NameInterner::new();
        let domain = DomainName::literal(&labels.join("."));
        let back = pool.domain(pool.intern_domain(&domain)).unwrap();
        prop_assert_eq!(&back, &domain);
        // The pool adopted the domain's allocation and hands it back.
        prop_assert!(std::ptr::eq(back.as_str(), domain.as_str()));
    }
}
