//! Key and value traits of the typed store API.
//!
//! The rotating/split/exact-TTL stores are generic over their key and
//! value types so the hot IP-NAME path can use compact [`IpKey`]s and
//! interned [`NameRef`] handles while tests and ablation harnesses keep
//! using plain strings. Beyond the obvious `Hash + Eq + Clone` bounds,
//! the stores need one extra capability: estimating the bytes an entry
//! retains, which feeds [`crate::memory::MemoryEstimate`] and the
//! paper's memory figures.

use std::hash::Hash;

use flowdns_types::{DomainName, IpKey, NameId, NameRef};

/// A type usable as a store key: hashable, comparable, cheap to clone,
/// and able to report its retained payload size.
pub trait StoreKey: Hash + Eq + Clone + Send + Sync + 'static {
    /// Estimated bytes of payload this key retains (string length for
    /// textual keys, address width for [`IpKey`]s). Excludes hashmap
    /// overhead, which [`crate::memory::ENTRY_OVERHEAD_BYTES`] covers.
    fn estimate_bytes(&self) -> usize;
}

/// A type usable as a store value: cheap to clone (values are cloned on
/// every lookup hit and rotation copy) and size-accountable.
pub trait StoreValue: Clone + Send + Sync + 'static {
    /// Estimated bytes of payload this value retains.
    fn estimate_bytes(&self) -> usize;
}

impl StoreKey for String {
    fn estimate_bytes(&self) -> usize {
        self.len()
    }
}

impl StoreValue for String {
    fn estimate_bytes(&self) -> usize {
        self.len()
    }
}

impl StoreKey for IpKey {
    fn estimate_bytes(&self) -> usize {
        self.encoded_len()
    }
}

impl StoreKey for NameRef {
    // Interned handles share one allocation across every clone; charging
    // the full text length per entry over-counts shared bytes but keeps
    // the estimate comparable with the string-keyed baseline.
    fn estimate_bytes(&self) -> usize {
        self.len()
    }
}

impl StoreValue for NameRef {
    fn estimate_bytes(&self) -> usize {
        self.len()
    }
}

impl StoreKey for NameId {
    fn estimate_bytes(&self) -> usize {
        self.len()
    }
}

impl StoreValue for NameId {
    fn estimate_bytes(&self) -> usize {
        self.len()
    }
}

impl StoreKey for DomainName {
    fn estimate_bytes(&self) -> usize {
        self.len()
    }
}

impl StoreValue for DomainName {
    fn estimate_bytes(&self) -> usize {
        self.len()
    }
}

macro_rules! impl_for_ints {
    ($($t:ty),*) => {
        $(
            impl StoreKey for $t {
                fn estimate_bytes(&self) -> usize {
                    std::mem::size_of::<$t>()
                }
            }
            impl StoreValue for $t {
                fn estimate_bytes(&self) -> usize {
                    std::mem::size_of::<$t>()
                }
            }
        )*
    };
}

impl_for_ints!(u8, u16, u32, u64, u128, usize);

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key_bytes<K: StoreKey>(key: &K) -> usize {
        key.estimate_bytes()
    }

    fn value_bytes<V: StoreValue>(value: &V) -> usize {
        value.estimate_bytes()
    }

    #[test]
    fn estimates_track_payload_width() {
        assert_eq!(key_bytes(&"1.2.3.4".to_string()), 7);
        assert_eq!(value_bytes(&"1.2.3.4".to_string()), 7);
        assert_eq!(key_bytes(&IpKey::from(Ipv4Addr::new(1, 2, 3, 4))), 4);
        assert_eq!(
            key_bytes(&IpKey::from_ip("2001:db8::1".parse().unwrap())),
            16
        );
        assert_eq!(value_bytes(&NameRef::new("cdn.example")), 11);
        assert_eq!(key_bytes(&DomainName::literal("a.example")), 9);
        assert_eq!(key_bytes(&7u32), 4);
        assert_eq!(value_bytes(&7u64), 8);
    }
}
