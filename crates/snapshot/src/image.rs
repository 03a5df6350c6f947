//! The snapshot *image*: a plain-data picture of one DNS store.
//!
//! An image is everything a warm restart needs, decoupled from the live
//! store types: a deduplicated name table (the name pool, referenced by
//! index so each distinct name is stored once, exactly like it is held
//! once in memory), one generation triple per IP-NAME section (a shard
//! of the correlator, or a split in older layouts), the NAME-CNAME
//! triple, and the per-section rotation clocks that let the loader
//! decide which generations are still within the rotation window.
//!
//! In memory a generation is columnar: one vector per key kind (IPv4,
//! IPv6, name), each reserved to its exact length before it is filled,
//! so a decoded image costs 8 bytes per IPv4 or NAME-CNAME entry and 20
//! per IPv6 entry, and leaves no spare capacity behind. On the wire a
//! generation is still one list of tagged entries (see
//! [`GenerationColumns`]); the format did not change with the layout.
//!
//! `flowdns_core::ShardedStore` builds and consumes these images
//! (`export_image` / `import_image`); this crate only defines their
//! shape and byte encoding.

use std::sync::Arc;

use flowdns_types::{FlowDnsError, IpKey, SimTime};

use crate::wire::{self, Reader};

/// Key tag of a NAME-CNAME entry: a name-table index follows.
const TAG_NAME: u8 = 0;
/// Key tag of an IPv4 entry: 4 address bytes follow.
const TAG_V4: u8 = 1;
/// Key tag of an IPv6 entry: 16 address bytes follow.
const TAG_V6: u8 = 2;

/// An IPv6 key as its 16 wire bytes (the little-endian `u128` of the
/// address bits). A `u128` would align every column entry to 16 bytes
/// and pad it to 32; bytes keep an entry at 20.
pub type V6Bytes = [u8; 16];

/// One generation's entries, one exactly sized column per key kind.
/// Every value is an index into [`DnsStoreImage::names`].
///
/// The wire form is the entry count, then each entry as a key tag (`1`
/// IPv4, `2` IPv6, `0` name), the key (4, 16 or 4 bytes) and the value
/// index (4 bytes). An encoder writes the IPv4 column, then IPv6, then
/// names; a decoder accepts the kinds in any order and counts them in a
/// look-ahead pass to reserve each column once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GenerationColumns {
    /// IPv4 entries: address bits and name index.
    pub v4: Vec<(u32, u32)>,
    /// IPv6 entries: address bytes and name index.
    pub v6: Vec<(V6Bytes, u32)>,
    /// NAME-CNAME entries: key name index and value name index.
    pub names: Vec<(u32, u32)>,
}

impl GenerationColumns {
    /// Entries across the three columns.
    pub fn len(&self) -> usize {
        self.v4.len() + self.v6.len() + self.names.len()
    }

    /// Does the generation hold no entry?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append an IP-NAME entry to the column of its address family.
    pub fn push_ip(&mut self, key: IpKey, name: u32) {
        match key {
            IpKey::V4(bits) => self.v4.push((bits, name)),
            IpKey::V6(bits) => self.v6.push((bits.to_le_bytes(), name)),
        }
    }

    /// Every name index the generation references: the values of all
    /// three columns and the keys of the name column.
    pub fn name_indices(&self) -> impl Iterator<Item = u32> + '_ {
        let values = self.v4.iter().map(|&(_, v)| v);
        let v6 = self.v6.iter().map(|&(_, v)| v);
        let names = self.names.iter().flat_map(|&(k, v)| [k, v]);
        values.chain(v6).chain(names)
    }

    fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u32(out, self.len() as u32);
        for &(bits, value) in &self.v4 {
            wire::put_u8(out, TAG_V4);
            wire::put_u32(out, bits);
            wire::put_u32(out, value);
        }
        for (bytes, value) in &self.v6 {
            wire::put_u8(out, TAG_V6);
            out.extend_from_slice(bytes);
            wire::put_u32(out, *value);
        }
        for &(key, value) in &self.names {
            wire::put_u8(out, TAG_NAME);
            wire::put_u32(out, key);
            wire::put_u32(out, value);
        }
    }

    fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError> {
        let count = reader.count(MIN_ENTRY_BYTES)?;
        // Look ahead over the entries to size each column exactly.
        let mut ahead = reader.clone();
        let mut kinds = [0usize; 3];
        for _ in 0..count {
            let tag = ahead.u8()?;
            let key_bytes = match tag {
                TAG_NAME | TAG_V4 => 4,
                TAG_V6 => 16,
                tag => {
                    return Err(FlowDnsError::Snapshot(format!(
                        "unknown snapshot key tag {tag}"
                    )))
                }
            };
            kinds[tag as usize] += 1;
            ahead.skip(key_bytes + 4)?;
        }
        let mut columns = GenerationColumns {
            v4: Vec::with_capacity(kinds[TAG_V4 as usize]),
            v6: Vec::with_capacity(kinds[TAG_V6 as usize]),
            names: Vec::with_capacity(kinds[TAG_NAME as usize]),
        };
        for _ in 0..count {
            match reader.u8()? {
                TAG_V4 => columns.v4.push((reader.u32()?, reader.u32()?)),
                TAG_V6 => columns
                    .v6
                    .push((reader.u128()?.to_le_bytes(), reader.u32()?)),
                // The look-ahead rejected every other tag.
                _ => columns.names.push((reader.u32()?, reader.u32()?)),
            }
        }
        Ok(columns)
    }
}

/// One rotating store's state: the three generation maps as columns
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
    pub active: GenerationColumns,
    /// The Inactive generation's entries.
    pub inactive: GenerationColumns,
    /// The Long generation's entries.
    pub long: GenerationColumns,
}

/// Smallest possible encoded entry: 1 tag + 4 key + 4 value bytes.
const MIN_ENTRY_BYTES: usize = 9;

impl StoreImage {
    /// Total entries across the three generations.
    pub fn entry_count(&self) -> usize {
        self.active.len() + self.inactive.len() + self.long.len()
    }

    /// The Active, Inactive and Long generations, in that order.
    pub fn generations(&self) -> [&GenerationColumns; 3] {
        [&self.active, &self.inactive, &self.long]
    }

    fn encode(&self, out: &mut Vec<u8>) {
        encode_opt_ts(out, self.last_clear_ts);
        encode_opt_ts(out, self.last_seen_ts);
        for generation in self.generations() {
            generation.encode(out);
        }
    }

    fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError> {
        let last_clear_ts = decode_opt_ts(reader)?;
        let last_seen_ts = decode_opt_ts(reader)?;
        Ok(StoreImage {
            last_clear_ts,
            last_seen_ts,
            active: GenerationColumns::decode(reader)?,
            inactive: GenerationColumns::decode(reader)?,
            long: GenerationColumns::decode(reader)?,
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
        let check_names = |generation: &GenerationColumns| -> Result<(), FlowDnsError> {
            match generation.name_indices().find(|&idx| idx >= names) {
                Some(idx) => Err(FlowDnsError::Snapshot(format!(
                    "name index {idx} out of bounds (table has {names} names)"
                ))),
                None => Ok(()),
            }
        };
        for split in &self.ip_name {
            for generation in split.generations() {
                if !generation.names.is_empty() {
                    return fail("IP-NAME split contains a non-IP key".into());
                }
                check_names(generation)?;
            }
        }
        for generation in self.name_cname.generations() {
            if !generation.v4.is_empty() || !generation.v6.is_empty() {
                return fail("NAME-CNAME store contains an IP key".into());
            }
            check_names(generation)?;
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
        image.ip_name[0].active.v4.push((1, 7)); // only 1 name in the table
        assert!(decode_image(&image).is_err());
        let mut image = minimal_image();
        image.name_cname.long.names.push((9, 0));
        assert!(decode_image(&image).is_err());
    }

    #[test]
    fn key_kind_mismatches_are_rejected() {
        let mut image = minimal_image();
        image.ip_name[1].inactive.names.push((0, 0));
        assert!(decode_image(&image).is_err());
        let mut image = minimal_image();
        image.name_cname.active.v4.push((1, 0));
        assert!(decode_image(&image).is_err());
        let mut image = minimal_image();
        image.name_cname.active.v6.push((1u128.to_le_bytes(), 0));
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
        image.ip_name[5].active.v4.push((0xC0A80001, 0));
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

    #[test]
    fn column_entries_stay_small() {
        assert_eq!(std::mem::size_of::<(u32, u32)>(), 8);
        assert_eq!(std::mem::size_of::<(V6Bytes, u32)>(), 20);
    }

    #[test]
    fn decoding_accepts_interleaved_kinds_and_reserves_exactly() {
        // A generation whose kinds alternate on the wire, as no encoder
        // here writes them but the format allows.
        let mut payload = Vec::new();
        wire::put_u32(&mut payload, 4);
        for (tag, key) in [(TAG_V6, 16), (TAG_V4, 4), (TAG_V6, 16), (TAG_V4, 4)] {
            wire::put_u8(&mut payload, tag);
            payload.extend(std::iter::repeat(tag).take(key));
            wire::put_u32(&mut payload, u32::from(tag));
        }
        let columns = GenerationColumns::decode(&mut Reader::new(&payload)).unwrap();
        assert_eq!((columns.v4.len(), columns.v6.len()), (2, 2));
        assert_eq!((columns.v4.capacity(), columns.v6.capacity()), (2, 2));
        assert_eq!(columns.v6[0], ([TAG_V6; 16], 2));
        assert_eq!(columns.v4[1], (u32::from_le_bytes([TAG_V4; 4]), 1));
        // An unknown tag fails the look-ahead, before any column is filled.
        payload[4] = 7;
        match GenerationColumns::decode(&mut Reader::new(&payload)) {
            Err(FlowDnsError::Snapshot(msg)) => assert!(msg.contains("tag 7"), "{msg}"),
            other => panic!("expected a tag rejection, got {other:?}"),
        }
    }
}
