//! IP prefixes.

use std::fmt;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr};
use std::str::FromStr;

use flowdns_types::FlowDnsError;

/// An IPv4 or IPv6 prefix (address + mask length).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Prefix {
    /// Network address (host bits are zeroed on construction).
    pub network: IpAddr,
    /// Prefix length in bits.
    pub len: u8,
}

impl Prefix {
    /// Build a prefix, zeroing host bits. Returns an error if `len`
    /// exceeds the address family's bit width.
    pub fn new(addr: IpAddr, len: u8) -> Result<Self, FlowDnsError> {
        let max = match addr {
            IpAddr::V4(_) => 32,
            IpAddr::V6(_) => 128,
        };
        if len > max {
            return Err(FlowDnsError::Config(format!(
                "prefix length {len} exceeds {max}"
            )));
        }
        Ok(Prefix {
            network: mask_addr(addr, len),
            len,
        })
    }

    /// Does the prefix contain `addr`? Different address families never
    /// contain one another.
    pub fn contains(&self, addr: IpAddr) -> bool {
        match (self.network, addr) {
            (IpAddr::V4(_), IpAddr::V4(_)) | (IpAddr::V6(_), IpAddr::V6(_)) => {
                mask_addr(addr, self.len) == self.network
            }
            _ => false,
        }
    }

    /// The first `self.len` bits of the network address, as an iterator of
    /// booleans (most significant first). Used by the trie.
    pub fn bits(&self) -> impl Iterator<Item = bool> + '_ {
        addr_bits(self.network).take(self.len as usize)
    }
}

/// The bits of an address, most significant first.
pub(crate) fn addr_bits(addr: IpAddr) -> impl Iterator<Item = bool> {
    let bytes: Vec<u8> = match addr {
        IpAddr::V4(v4) => v4.octets().to_vec(),
        IpAddr::V6(v6) => v6.octets().to_vec(),
    };
    bytes
        .into_iter()
        .flat_map(|b| (0..8).rev().map(move |i| (b >> i) & 1 == 1))
}

fn mask_addr(addr: IpAddr, len: u8) -> IpAddr {
    match addr {
        IpAddr::V4(v4) => {
            let raw = u32::from(v4);
            let mask = if len == 0 {
                0
            } else {
                u32::MAX << (32 - len as u32)
            };
            IpAddr::V4(Ipv4Addr::from(raw & mask))
        }
        IpAddr::V6(v6) => {
            let raw = u128::from(v6);
            let mask = if len == 0 {
                0
            } else {
                u128::MAX << (128 - len as u32)
            };
            IpAddr::V6(Ipv6Addr::from(raw & mask))
        }
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.network, self.len)
    }
}

impl FromStr for Prefix {
    type Err = FlowDnsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (addr, len) = s
            .split_once('/')
            .ok_or_else(|| FlowDnsError::Config(format!("'{s}' is not an address/len prefix")))?;
        let addr: IpAddr = addr
            .parse()
            .map_err(|_| FlowDnsError::Config(format!("'{addr}' is not an IP address")))?;
        let len: u8 = len
            .parse()
            .map_err(|_| FlowDnsError::Config(format!("'{len}' is not a prefix length")))?;
        Prefix::new(addr, len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_masks_host_bits() {
        let p: Prefix = "192.0.2.77/24".parse().unwrap();
        assert_eq!(p.network, "192.0.2.0".parse::<IpAddr>().unwrap());
        assert_eq!(p.to_string(), "192.0.2.0/24");
        let p6: Prefix = "2001:db8::ffff/32".parse().unwrap();
        assert_eq!(p6.network, "2001:db8::".parse::<IpAddr>().unwrap());
    }

    #[test]
    fn containment() {
        let p: Prefix = "100.64.0.0/10".parse().unwrap();
        assert!(p.contains("100.64.1.2".parse().unwrap()));
        assert!(p.contains("100.127.255.255".parse().unwrap()));
        assert!(!p.contains("100.128.0.0".parse().unwrap()));
        assert!(!p.contains("2001:db8::1".parse().unwrap()));
        let v6: Prefix = "2001:db8:cd::/48".parse().unwrap();
        assert!(v6.contains("2001:db8:cd::42".parse().unwrap()));
        assert!(!v6.contains("2001:db8:ce::42".parse().unwrap()));
    }

    #[test]
    fn zero_length_prefix_contains_everything_in_family() {
        let p = Prefix::new("0.0.0.0".parse().unwrap(), 0).unwrap();
        assert!(p.contains("255.255.255.255".parse().unwrap()));
        assert!(!p.contains("::1".parse().unwrap()));
    }

    #[test]
    fn invalid_prefixes_are_rejected() {
        assert!("192.0.2.0/33".parse::<Prefix>().is_err());
        assert!("2001:db8::/129".parse::<Prefix>().is_err());
        assert!("not-an-ip/24".parse::<Prefix>().is_err());
        assert!("192.0.2.0".parse::<Prefix>().is_err());
        assert!("192.0.2.0/abc".parse::<Prefix>().is_err());
    }

    #[test]
    fn bits_iteration_matches_prefix_length() {
        let p: Prefix = "192.0.2.0/24".parse().unwrap();
        let bits: Vec<bool> = p.bits().collect();
        assert_eq!(bits.len(), 24);
        // 192 = 11000000
        assert_eq!(
            &bits[..8],
            &[true, true, false, false, false, false, false, false]
        );
    }
}
