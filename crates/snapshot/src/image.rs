//! The snapshot *image*: a plain-data picture of one DNS store.
//!
//! An image is everything a warm restart needs, decoupled from the live
//! store types: a deduplicated name table (the interner pool, referenced
//! by index so each distinct name is stored once, exactly like it is held
//! once in memory), one generation triple per IP-NAME section (a shard
//! of the correlator, or a split in older layouts), the NAME-CNAME
//! triple, and the per-section rotation clocks that let the loader
//! decide which generations are still within the rotation window.
//!
//! `flowdns_core::ShardedStore` builds and consumes these images
//! (`export_image` / `import_image`); this crate only defines their
//! shape and byte encoding.

use std::sync::Arc;

use flowdns_types::{FlowDnsError, IpKey, SimTime};

use crate::wire::{self, Reader};

/// A key of one snapshotted store entry.
///
/// IP-NAME splits key by address bits, the NAME-CNAME store keys by a
/// name-table index; the tag byte in the encoding keeps the two
/// self-describing so a mismatched section is a decode error rather than
/// a misinterpretation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SnapshotKey {
    /// An IP address key (IP-NAME splits).
    Ip(IpKey),
    /// An index into [`DnsStoreImage::names`] (NAME-CNAME store).
    Name(u32),
}

impl SnapshotKey {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            SnapshotKey::Name(idx) => {
                wire::put_u8(out, 0);
                wire::put_u32(out, *idx);
            }
            SnapshotKey::Ip(IpKey::V4(bits)) => {
                wire::put_u8(out, 1);
                wire::put_u32(out, *bits);
            }
            SnapshotKey::Ip(IpKey::V6(bits)) => {
                wire::put_u8(out, 2);
                wire::put_u128(out, *bits);
            }
        }
    }

    fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError> {
        match reader.u8()? {
            0 => Ok(SnapshotKey::Name(reader.u32()?)),
            1 => Ok(SnapshotKey::Ip(IpKey::V4(reader.u32()?))),
            2 => Ok(SnapshotKey::Ip(IpKey::V6(reader.u128()?))),
            tag => Err(FlowDnsError::Snapshot(format!(
                "unknown snapshot key tag {tag}"
            ))),
        }
    }
}

/// One rotating store's state: the three generation maps as entry lists
/// (key → name-table index) plus the rotation clock.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreImage {
    /// When the store last performed a clear-up, in data time (`None` if
    /// it never has). The loader measures generation age from here.
    pub last_clear_ts: Option<SimTime>,
    /// The latest data timestamp the store observed (`None` if it never
    /// saw a record). Feeds [`DnsStoreImage::as_of`].
    pub last_seen_ts: Option<SimTime>,
    /// The Active generation's entries.
    pub active: Vec<(SnapshotKey, u32)>,
    /// The Inactive generation's entries.
    pub inactive: Vec<(SnapshotKey, u32)>,
    /// The Long generation's entries.
    pub long: Vec<(SnapshotKey, u32)>,
}

/// Smallest possible encoded entry: 1 tag + 4 key + 4 value bytes.
const MIN_ENTRY_BYTES: usize = 9;

impl StoreImage {
    /// Total entries across the three generations.
    pub fn entry_count(&self) -> usize {
        self.active.len() + self.inactive.len() + self.long.len()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        encode_opt_ts(out, self.last_clear_ts);
        encode_opt_ts(out, self.last_seen_ts);
        for generation in [&self.active, &self.inactive, &self.long] {
            wire::put_u32(out, generation.len() as u32);
            for (key, value) in generation {
                key.encode(out);
                wire::put_u32(out, *value);
            }
        }
    }

    fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError> {
        let last_clear_ts = decode_opt_ts(reader)?;
        let last_seen_ts = decode_opt_ts(reader)?;
        let mut generations: [Vec<(SnapshotKey, u32)>; 3] = Default::default();
        for generation in &mut generations {
            let count = reader.count(MIN_ENTRY_BYTES)?;
            generation.reserve_exact(count);
            for _ in 0..count {
                let key = SnapshotKey::decode(reader)?;
                let value = reader.u32()?;
                generation.push((key, value));
            }
        }
        let [active, inactive, long] = generations;
        Ok(StoreImage {
            last_clear_ts,
            last_seen_ts,
            active,
            inactive,
            long,
        })
    }
}

/// The full store image: name table, IP-NAME splits, NAME-CNAME store,
/// and the configuration facts the loader checks before importing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsStoreImage {
    /// The latest data timestamp any store in the image observed; the
    /// loader's default "now" when judging generation age.
    pub as_of: SimTime,
    /// Number of IP-NAME sections per shard (per store when `shards` is
    /// 0). Layouts that split the IP-NAME maps wrote one per split. A
    /// sharded correlator writes 1 (its partitions do not split) and
    /// loads any count, aging each section by its own clock.
    pub num_split: u32,
    /// Number of shared-nothing correlator shards the image was exported
    /// with. `0` means an unpartitioned store (one set of `num_split`
    /// splits) — what the removed classic pipeline and its unpartitioned
    /// store left on disk; a live correlator rejects it as a
    /// layout mismatch. Any positive value means [`DnsStoreImage::ip_name`]
    /// holds `shards × num_split` images in shard-major order (shard 0's
    /// sections first). A mismatch on import is rejected — the shard
    /// routing function is stable, so partitions cannot be reassigned
    /// without rehashing every entry.
    pub shards: u32,
    /// `AClearUpInterval` (seconds) the exporting store ran with.
    pub a_interval_secs: u64,
    /// `CClearUpInterval` (seconds) the exporting store ran with.
    pub c_interval_secs: u64,
    /// The deduplicated name table. Every entry value — and every
    /// NAME-CNAME key — is an index into this table, so one snapshot
    /// stores each distinct name exactly once and the importer can
    /// rebuild interner sharing exactly. Names are shared allocations: an
    /// export hands out the pool's own, and an import can adopt the
    /// decoded ones instead of copying them.
    pub names: Vec<Arc<str>>,
    /// One image per IP-NAME split, in split-label order.
    pub ip_name: Vec<StoreImage>,
    /// The NAME-CNAME store image.
    pub name_cname: StoreImage,
}

impl DnsStoreImage {
    /// Total entries across every store in the image.
    pub fn entry_count(&self) -> usize {
        self.ip_name
            .iter()
            .map(StoreImage::entry_count)
            .sum::<usize>()
            + self.name_cname.entry_count()
    }

    /// Serialize the payload sections (without the file header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.as_of.as_micros());
        wire::put_u32(out, self.num_split);
        wire::put_u32(out, self.shards);
        wire::put_u64(out, self.a_interval_secs);
        wire::put_u64(out, self.c_interval_secs);
        wire::put_u32(out, self.names.len() as u32);
        for name in &self.names {
            wire::put_str(out, name);
        }
        wire::put_u32(out, self.ip_name.len() as u32);
        for split in &self.ip_name {
            split.encode(out);
        }
        self.name_cname.encode(out);
    }

    /// Decode the payload sections and validate internal consistency
    /// (split count, name-index bounds, key kinds per section).
    pub fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError> {
        let as_of = SimTime::from_micros(reader.u64()?);
        let num_split = reader.u32()?;
        let shards = reader.u32()?;
        let a_interval_secs = reader.u64()?;
        let c_interval_secs = reader.u64()?;
        let name_count = reader.count(4)?;
        let mut names = Vec::with_capacity(name_count);
        for _ in 0..name_count {
            names.push(reader.str()?);
        }
        let split_count = reader.count(1)?;
        let mut ip_name = Vec::with_capacity(split_count);
        for _ in 0..split_count {
            ip_name.push(StoreImage::decode(reader)?);
        }
        let name_cname = StoreImage::decode(reader)?;
        let image = DnsStoreImage {
            as_of,
            num_split,
            shards,
            a_interval_secs,
            c_interval_secs,
            names,
            ip_name,
            name_cname,
        };
        image.validate()?;
        Ok(image)
    }

    /// Check internal consistency: the split count, every name index
    /// against the name table, and the key kind of every section.
    /// [`DnsStoreImage::decode`] runs it on every decoded image; an
    /// importer runs it before touching a store, so a bad image is
    /// rejected whole.
    pub fn validate(&self) -> Result<(), FlowDnsError> {
        let fail = |msg: String| Err(FlowDnsError::Snapshot(msg));
        let expected_sections = self.num_split as usize * self.shards.max(1) as usize;
        if self.ip_name.len() != expected_sections {
            return fail(format!(
                "split section count {} does not match declared num_split {} × {} shard(s)",
                self.ip_name.len(),
                self.num_split,
                self.shards.max(1)
            ));
        }
        let names = self.names.len() as u32;
        let check_name = |idx: u32| -> Result<(), FlowDnsError> {
            if idx >= names {
                return Err(FlowDnsError::Snapshot(format!(
                    "name index {idx} out of bounds (table has {names} names)"
                )));
            }
            Ok(())
        };
        for split in &self.ip_name {
            for (key, value) in split
                .active
                .iter()
                .chain(&split.inactive)
                .chain(&split.long)
            {
                if !matches!(key, SnapshotKey::Ip(_)) {
                    return fail("IP-NAME split contains a non-IP key".into());
                }
                check_name(*value)?;
            }
        }
        for (key, value) in self
            .name_cname
            .active
            .iter()
            .chain(&self.name_cname.inactive)
            .chain(&self.name_cname.long)
        {
            match key {
                SnapshotKey::Name(idx) => check_name(*idx)?,
                SnapshotKey::Ip(_) => {
                    return fail("NAME-CNAME store contains an IP key".into());
                }
            }
            check_name(*value)?;
        }
        Ok(())
    }
}

fn encode_opt_ts(out: &mut Vec<u8>, ts: Option<SimTime>) {
    match ts {
        Some(ts) => {
            wire::put_u8(out, 1);
            wire::put_u64(out, ts.as_micros());
        }
        None => wire::put_u8(out, 0),
    }
}

fn decode_opt_ts(reader: &mut Reader<'_>) -> Result<Option<SimTime>, FlowDnsError> {
    match reader.u8()? {
        0 => Ok(None),
        1 => Ok(Some(SimTime::from_micros(reader.u64()?))),
        tag => Err(FlowDnsError::Snapshot(format!(
            "invalid optional-timestamp tag {tag}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decode_image(image: &DnsStoreImage) -> Result<DnsStoreImage, FlowDnsError> {
        let mut payload = Vec::new();
        image.encode(&mut payload);
        let mut reader = Reader::new(&payload);
        let back = DnsStoreImage::decode(&mut reader)?;
        reader.finish()?;
        Ok(back)
    }

    fn minimal_image() -> DnsStoreImage {
        DnsStoreImage {
            as_of: SimTime::from_secs(100),
            num_split: 2,
            shards: 0,
            a_interval_secs: 3600,
            c_interval_secs: 7200,
            names: vec!["a.example".into()],
            ip_name: vec![StoreImage::default(), StoreImage::default()],
            name_cname: StoreImage::default(),
        }
    }

    #[test]
    fn empty_stores_round_trip() {
        let image = minimal_image();
        assert_eq!(image.entry_count(), 0);
        assert_eq!(decode_image(&image).unwrap(), image);
    }

    #[test]
    fn out_of_bounds_name_indices_are_rejected() {
        let mut image = minimal_image();
        image.ip_name[0]
            .active
            .push((SnapshotKey::Ip(IpKey::V4(1)), 7)); // only 1 name in the table
        assert!(decode_image(&image).is_err());
        let mut image = minimal_image();
        image.name_cname.long.push((SnapshotKey::Name(9), 0));
        assert!(decode_image(&image).is_err());
    }

    #[test]
    fn key_kind_mismatches_are_rejected() {
        let mut image = minimal_image();
        image.ip_name[1].inactive.push((SnapshotKey::Name(0), 0));
        assert!(decode_image(&image).is_err());
        let mut image = minimal_image();
        image
            .name_cname
            .active
            .push((SnapshotKey::Ip(IpKey::V4(1)), 0));
        assert!(decode_image(&image).is_err());
    }

    #[test]
    fn split_count_mismatch_is_rejected() {
        let mut image = minimal_image();
        image.num_split = 3; // but only 2 split sections
        assert!(decode_image(&image).is_err());
    }

    #[test]
    fn sharded_images_carry_shard_major_sections() {
        // 3 shards × 2 splits = 6 sections, shard-major.
        let mut image = minimal_image();
        image.shards = 3;
        image.ip_name = (0..6).map(|_| StoreImage::default()).collect();
        image.ip_name[5]
            .active
            .push((SnapshotKey::Ip(IpKey::V4(0xC0A80001)), 0));
        let back = decode_image(&image).unwrap();
        assert_eq!(back.shards, 3);
        assert_eq!(back.ip_name.len(), 6);
        assert_eq!(back, image);
        // shards = 1 is NOT the same as the classic layout marker 0 in
        // the header, but both expect num_split sections.
        let mut image = minimal_image();
        image.shards = 1;
        assert_eq!(decode_image(&image).unwrap().shards, 1);
    }

    #[test]
    fn shard_count_section_mismatch_is_rejected() {
        let mut image = minimal_image();
        image.shards = 2; // declares 2 × 2 = 4 sections, but only 2 present
        match decode_image(&image) {
            Err(FlowDnsError::Snapshot(msg)) => assert!(msg.contains("shard"), "{msg}"),
            other => panic!("expected shard mismatch rejection, got {other:?}"),
        }
    }
}
