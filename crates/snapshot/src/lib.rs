//! # flowdns-snapshot
//!
//! Durable snapshots of the FlowDNS DNS store, so a restarted daemon can
//! warm-start instead of re-learning the IP→NAME and NAME→CNAME maps from
//! scratch.
//!
//! FlowDNS only correlates well once its fill-up phase has populated the
//! stores, so every `flowdnsd` restart silently degrades correlation for
//! up to a clear-up interval. This crate defines a compact, versioned,
//! checksummed binary file format for the store's full state — the
//! interned name pool, the `NUM_SPLIT` IP-NAME generation triples, the
//! NAME-CNAME triple, and the per-store rotation clocks — together with
//! atomic write (`.part` + rename) and strict, checksum-verified read.
//!
//! The crate deliberately knows nothing about live stores or threads: it
//! only defines the *image* types ([`DnsStoreImage`], [`StoreImage`]) and
//! the codec ([`write_snapshot`], [`read_snapshot`]). `flowdns-storage`
//! exports and imports generation images, and `flowdns-core` maps pooled
//! [`flowdns_types::NameId`]s to and from the image's name indices and
//! runs the background snapshot thread.
//!
//! ## File format (version 2)
//!
//! ```text
//! magic    8 bytes  "FDNSSNAP"
//! version  u32 LE   2
//! length   u64 LE   payload byte count
//! checksum u64 LE   FNV-1a 64 over the payload bytes
//! payload  ...      see `wire` for the section encodings
//! ```
//!
//! Version 2 added the [`DnsStoreImage::shards`] field for the sharded
//! correlator (the IP-NAME section then holds `shards × num_split`
//! generation triples in shard-major order; a correlator writes one per
//! shard and reads any `num_split`). Version 1 files are
//! rejected by the version check — the daemon records the error and
//! cold-starts; see MIGRATION.md.
//!
//! A torn or corrupted file fails the checksum (or the length check) and
//! is rejected with [`FlowDnsError::Snapshot`]; the writer never exposes
//! a partially written file under the final name because it writes to
//! `<path>.part` and renames only after a successful flush.
//!
//! # Examples
//!
//! ```
//! use flowdns_snapshot::{decode_snapshot, encode_snapshot, DnsStoreImage, StoreImage};
//! use flowdns_types::SimTime;
//!
//! let image = DnsStoreImage {
//!     as_of: SimTime::from_secs(900),
//!     num_split: 1,
//!     shards: 0, // unpartitioned (classic) layout; N > 0 for a correlator's shards
//!     a_interval_secs: 3600,
//!     c_interval_secs: 7200,
//!     names: vec!["svc.example".into()],
//!     ip_name: vec![StoreImage::default()],
//!     name_cname: StoreImage::default(),
//! };
//! let bytes = encode_snapshot(&image);
//! assert_eq!(decode_snapshot(&bytes).unwrap(), image);
//!
//! // A torn write is rejected by the checksum, never half-decoded.
//! assert!(decode_snapshot(&bytes[..bytes.len() - 1]).is_err());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod image;
pub mod wire;

pub use image::{DnsStoreImage, GenerationColumns, StoreImage, V6Bytes};

use std::path::Path;

use flowdns_types::FlowDnsError;

/// Magic bytes opening every snapshot file.
pub const MAGIC: &[u8; 8] = b"FDNSSNAP";

/// Current format version. Version 2 added [`DnsStoreImage::shards`];
/// version 1 files are rejected (cold start), see MIGRATION.md.
pub const FORMAT_VERSION: u32 = 2;

/// Bytes of header before the payload (magic + version + length +
/// checksum).
pub const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// FNV-1a 64-bit checksum over a byte slice — small, dependency-free,
/// and more than strong enough to reject torn or bit-flipped files
/// (it is not a cryptographic integrity check).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Serialize an image into a complete snapshot file body (header +
/// payload).
pub fn encode_snapshot(image: &DnsStoreImage) -> Vec<u8> {
    let mut payload = Vec::new();
    image.encode(&mut payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&checksum(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parse a complete snapshot file body, verifying magic, version,
/// length and checksum before decoding the payload.
pub fn decode_snapshot(bytes: &[u8]) -> Result<DnsStoreImage, FlowDnsError> {
    let fail = |msg: &str| Err(FlowDnsError::Snapshot(msg.to_string()));
    if bytes.len() < HEADER_LEN {
        return fail("file shorter than the snapshot header");
    }
    if &bytes[..8] != MAGIC {
        return fail("bad magic (not a FlowDNS snapshot)");
    }
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
    if version != FORMAT_VERSION {
        return Err(FlowDnsError::Snapshot(format!(
            "unsupported snapshot version {version} (this build reads version {FORMAT_VERSION})"
        )));
    }
    let length = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes")) as usize;
    let stored_checksum = u64::from_le_bytes(bytes[20..28].try_into().expect("8 bytes"));
    let payload = &bytes[HEADER_LEN..];
    if payload.len() != length {
        return Err(FlowDnsError::Snapshot(format!(
            "payload length mismatch: header says {length} bytes, file has {}",
            payload.len()
        )));
    }
    if checksum(payload) != stored_checksum {
        return fail("checksum mismatch (torn or corrupted snapshot)");
    }
    let mut reader = wire::Reader::new(payload);
    let image = DnsStoreImage::decode(&mut reader)?;
    reader.finish()?;
    Ok(image)
}

/// Write a snapshot atomically: encode, write `<path>.part`, flush, and
/// rename over the final path. Readers therefore never observe a
/// partially written snapshot under `path`. Returns the total file size
/// in bytes.
pub fn write_snapshot<P: AsRef<Path>>(path: P, image: &DnsStoreImage) -> Result<u64, FlowDnsError> {
    let path = path.as_ref();
    let bytes = encode_snapshot(image);
    let part = part_path(path);
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(&part, &bytes)?;
    // Durability is best-effort (no fsync of the directory), atomicity is
    // not: the rename is what makes the snapshot visible.
    std::fs::rename(&part, path)?;
    Ok(bytes.len() as u64)
}

/// Read and verify a snapshot file.
pub fn read_snapshot<P: AsRef<Path>>(path: P) -> Result<DnsStoreImage, FlowDnsError> {
    let bytes = std::fs::read(path.as_ref())?;
    decode_snapshot(&bytes)
}

/// The temporary name a snapshot is written under before the atomic
/// rename (`<path>.part`).
pub fn part_path(path: &Path) -> std::path::PathBuf {
    let mut name = path
        .file_name()
        .map(|n| n.to_string_lossy().into_owned())
        .unwrap_or_else(|| "snapshot".to_string());
    name.push_str(".part");
    path.with_file_name(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdns_types::SimTime;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn sample_image() -> DnsStoreImage {
        let v6: u128 = "2001:db8::7".parse::<Ipv6Addr>().unwrap().into();
        let ip_split = StoreImage {
            last_clear_ts: Some(SimTime::from_secs(3600)),
            last_seen_ts: Some(SimTime::from_secs(4000)),
            active: GenerationColumns {
                v4: vec![(Ipv4Addr::new(203, 0, 113, 9).into(), 0)],
                ..GenerationColumns::default()
            },
            long: GenerationColumns {
                v6: vec![(v6.to_le_bytes(), 1)],
                ..GenerationColumns::default()
            },
            ..StoreImage::default()
        };
        let cname = StoreImage {
            inactive: GenerationColumns {
                names: vec![(0, 2)],
                ..GenerationColumns::default()
            },
            ..StoreImage::default()
        };
        DnsStoreImage {
            as_of: SimTime::from_secs(4000),
            num_split: 1,
            shards: 0,
            a_interval_secs: 3600,
            c_interval_secs: 7200,
            names: vec![
                "edge7.cdn.example.net".into(),
                "v6.example".into(),
                "www.shop.example".into(),
            ],
            ip_name: vec![ip_split],
            name_cname: cname,
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let image = sample_image();
        let bytes = encode_snapshot(&image);
        let back = decode_snapshot(&bytes).unwrap();
        assert_eq!(back, image);
    }

    #[test]
    fn truncated_and_corrupted_files_are_rejected() {
        let bytes = encode_snapshot(&sample_image());
        // Torn write: any strict prefix must fail (short header, short
        // payload, or checksum mismatch — never a silent partial decode).
        for cut in [0, 4, HEADER_LEN - 1, HEADER_LEN + 3, bytes.len() - 1] {
            assert!(
                matches!(
                    decode_snapshot(&bytes[..cut]),
                    Err(FlowDnsError::Snapshot(_))
                ),
                "prefix of {cut} bytes must be rejected"
            );
        }
        // Single flipped payload byte: checksum mismatch.
        let mut flipped = bytes.clone();
        flipped[HEADER_LEN + 1] ^= 0x40;
        match decode_snapshot(&flipped) {
            Err(FlowDnsError::Snapshot(msg)) => assert!(msg.contains("checksum"), "{msg}"),
            other => panic!("expected checksum rejection, got {other:?}"),
        }
        // Wrong magic and wrong version.
        let mut wrong_magic = bytes.clone();
        wrong_magic[0] = b'X';
        assert!(decode_snapshot(&wrong_magic).is_err());
        let mut wrong_version = bytes;
        wrong_version[8] = 99;
        match decode_snapshot(&wrong_version) {
            Err(FlowDnsError::Snapshot(msg)) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn version_one_files_are_rejected_not_misparsed() {
        // A v1 file lacks the shards field; decoding its payload with the
        // v2 layout would silently shear every later section, so the
        // version gate must fire first.
        let mut v1 = encode_snapshot(&sample_image());
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        match decode_snapshot(&v1) {
            Err(FlowDnsError::Snapshot(msg)) => {
                assert!(msg.contains("unsupported snapshot version 1"), "{msg}")
            }
            other => panic!("expected version rejection, got {other:?}"),
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = encode_snapshot(&sample_image());
        bytes.extend_from_slice(b"junk");
        assert!(decode_snapshot(&bytes).is_err());
    }

    #[test]
    fn file_round_trip_is_atomic() {
        let dir = std::env::temp_dir().join("flowdns-snapshot-file-test");
        std::fs::remove_dir_all(&dir).ok();
        let path = dir.join("store.fdns");
        let image = sample_image();
        let bytes = write_snapshot(&path, &image).unwrap();
        assert!(bytes > HEADER_LEN as u64);
        // The .part intermediate must be gone after the rename.
        assert!(!part_path(&path).exists());
        assert_eq!(read_snapshot(&path).unwrap(), image);
        // Overwriting goes through the same .part dance.
        write_snapshot(&path, &image).unwrap();
        assert!(!part_path(&path).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_file_is_an_io_error() {
        match read_snapshot("/nonexistent/flowdns/store.fdns") {
            Err(FlowDnsError::Io(_)) => {}
            other => panic!("expected Io, got {other:?}"),
        }
    }

    #[test]
    fn checksum_is_stable_and_input_sensitive() {
        assert_eq!(checksum(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(checksum(b"a"), checksum(b"b"));
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
    }
}
