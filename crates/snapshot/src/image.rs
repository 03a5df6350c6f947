//! The snapshot *image*: a plain-data picture of one DNS store.
//!
//! An image is everything a warm restart needs, decoupled from the live
//! store types: a deduplicated name table (the name pool, referenced by
//! index so each distinct name is stored once, exactly like it is held
//! once in memory), one IP-NAME section per correlator shard, the
//! NAME-CNAME section, and the per-section rotation clocks that let the
//! loader decide which generations are still within the rotation window.
//!
//! A generation is columnar, in memory and on the wire alike: an
//! IP-NAME generation is an [`IpColumns`] (an IPv4 and an IPv6 column),
//! a NAME-CNAME generation one [`NameColumns`]. Each column is a count
//! followed by plain `(key, name index)` entries, and is reserved to
//! exactly that count when decoded, so a decoded image costs 8 bytes per
//! IPv4 or NAME-CNAME entry and 20 per IPv6 entry. A key of the wrong
//! kind has no column to go in.
//!
//! `flowdns_core::ShardedStore` builds and consumes these images
//! (`export_image` / `import_image`); this crate only defines their
//! shape and byte encoding.

use std::sync::Arc;

use flowdns_types::{FlowDnsError, IpKey, SimTime};

use crate::wire::{self, Reader};

/// An IPv6 key as its 16 wire bytes (the little-endian `u128` of the
/// address bits). A `u128` would align every column entry to 16 bytes
/// and pad it to 32; bytes keep an entry at 20.
pub type V6Bytes = [u8; 16];

/// One generation of a NAME-CNAME section: key name index and value
/// name index per entry.
pub type NameColumns = Vec<(u32, u32)>;

/// One generation of an IP-NAME section, one column per address family.
/// Every value is an index into [`DnsStoreImage::names`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IpColumns {
    /// IPv4 entries: address bits and name index.
    pub v4: Vec<(u32, u32)>,
    /// IPv6 entries: address bytes and name index.
    pub v6: Vec<(V6Bytes, u32)>,
}

impl IpColumns {
    /// Append an entry to the column of its address family.
    pub fn push_ip(&mut self, key: IpKey, name: u32) {
        match key {
            IpKey::V4(bits) => self.v4.push((bits, name)),
            IpKey::V6(bits) => self.v6.push((bits.to_le_bytes(), name)),
        }
    }
}

/// The columns of one generation: what a section of a given kind holds
/// per generation, and its wire form (each column a `u32` entry count,
/// then the entries).
pub trait Columns: Default {
    /// Entries in the generation.
    fn len(&self) -> usize;

    /// Does the generation hold no entry?
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every name index the generation references.
    fn name_indices(&self) -> impl Iterator<Item = u32> + '_;

    /// Append the wire form.
    fn encode(&self, out: &mut Vec<u8>);

    /// Read the wire form.
    fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError>;
}

impl Columns for IpColumns {
    fn len(&self) -> usize {
        self.v4.len() + self.v6.len()
    }

    fn name_indices(&self) -> impl Iterator<Item = u32> + '_ {
        let v4 = self.v4.iter().map(|&(_, v)| v);
        v4.chain(self.v6.iter().map(|&(_, v)| v))
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_column(out, &self.v4, |out, &bits| wire::put_u32(out, bits));
        put_column(out, &self.v6, |out, bytes| out.extend_from_slice(bytes));
    }

    fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError> {
        Ok(IpColumns {
            v4: read_column(reader, 4, Reader::u32)?,
            v6: read_column(reader, 16, Reader::array)?,
        })
    }
}

impl Columns for NameColumns {
    fn len(&self) -> usize {
        Vec::len(self)
    }

    fn name_indices(&self) -> impl Iterator<Item = u32> + '_ {
        self.iter().flat_map(|&(k, v)| [k, v])
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_column(out, self, |out, &key| wire::put_u32(out, key));
    }

    fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError> {
        read_column(reader, 4, Reader::u32)
    }
}

/// Write a column: its entry count, then each key and value index.
fn put_column<K>(out: &mut Vec<u8>, column: &[(K, u32)], put_key: impl Fn(&mut Vec<u8>, &K)) {
    wire::put_u32(out, column.len() as u32);
    for (key, value) in column {
        put_key(out, key);
        wire::put_u32(out, *value);
    }
}

/// Read a column of `key_bytes`-wide keys, reserved to its exact count.
/// The count is bounded by the entries the payload has room for, so a
/// corrupt one fails before anything is allocated.
fn read_column<'a, K>(
    reader: &mut Reader<'a>,
    key_bytes: usize,
    read_key: fn(&mut Reader<'a>) -> Result<K, FlowDnsError>,
) -> Result<Vec<(K, u32)>, FlowDnsError> {
    let count = reader.count(key_bytes + 4)?;
    let mut column = Vec::with_capacity(count);
    for _ in 0..count {
        column.push((read_key(reader)?, reader.u32()?));
    }
    Ok(column)
}

/// One section of the store: the three generations' columns plus the
/// rotation clock. An IP-NAME section holds [`IpColumns`], the
/// NAME-CNAME section [`NameColumns`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreImage<C> {
    /// When the store last performed a clear-up, in data time (`None` if
    /// it never has). The loader measures generation age from here.
    pub last_clear_ts: Option<SimTime>,
    /// The latest data timestamp the store observed (`None` if it never
    /// saw a record). Feeds [`DnsStoreImage::as_of`].
    pub last_seen_ts: Option<SimTime>,
    /// The Active generation's entries.
    pub active: C,
    /// The Inactive generation's entries.
    pub inactive: C,
    /// The Long generation's entries.
    pub long: C,
}

impl<C: Columns> StoreImage<C> {
    /// Total entries across the three generations.
    pub fn entry_count(&self) -> usize {
        self.generations().iter().map(|g| g.len()).sum()
    }

    /// The Active, Inactive and Long generations, in that order.
    pub fn generations(&self) -> [&C; 3] {
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
        Ok(StoreImage {
            last_clear_ts: decode_opt_ts(reader)?,
            last_seen_ts: decode_opt_ts(reader)?,
            active: C::decode(reader)?,
            inactive: C::decode(reader)?,
            long: C::decode(reader)?,
        })
    }
}

/// The full store image: name table, one IP-NAME section per shard, the
/// NAME-CNAME section, and the configuration facts the loader checks
/// before importing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DnsStoreImage {
    /// The latest data timestamp any store in the image observed; the
    /// loader's default "now" when judging generation age.
    pub as_of: SimTime,
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
    /// One section per correlator shard, in shard order; the file header
    /// records their count as the shard count. An import into a
    /// different shard count is rejected — the shard routing function is
    /// stable, so partitions cannot be reassigned without rehashing
    /// every entry.
    pub ip_name: Vec<StoreImage<IpColumns>>,
    /// The NAME-CNAME section.
    pub name_cname: StoreImage<NameColumns>,
}

impl DnsStoreImage {
    /// Total entries across every section.
    pub fn entry_count(&self) -> usize {
        let ip: usize = self.ip_name.iter().map(StoreImage::entry_count).sum();
        ip + self.name_cname.entry_count()
    }

    /// Serialize the payload (without the file header).
    pub fn encode(&self, out: &mut Vec<u8>) {
        wire::put_u64(out, self.as_of.as_micros());
        wire::put_u32(out, self.ip_name.len() as u32);
        wire::put_u64(out, self.a_interval_secs);
        wire::put_u64(out, self.c_interval_secs);
        wire::put_u32(out, self.names.len() as u32);
        for name in &self.names {
            wire::put_str(out, name);
        }
        for section in &self.ip_name {
            section.encode(out);
        }
        self.name_cname.encode(out);
    }

    /// Decode the payload and check every name index against the name
    /// table.
    pub fn decode(reader: &mut Reader<'_>) -> Result<Self, FlowDnsError> {
        let as_of = SimTime::from_micros(reader.u64()?);
        let shards = reader.u32()?;
        let a_interval_secs = reader.u64()?;
        let c_interval_secs = reader.u64()?;
        let name_count = reader.count(4)?;
        let mut names = Vec::with_capacity(name_count);
        for _ in 0..name_count {
            names.push(reader.str()?);
        }
        let image = DnsStoreImage {
            as_of,
            a_interval_secs,
            c_interval_secs,
            names,
            ip_name: (0..shards)
                .map(|_| StoreImage::decode(reader))
                .collect::<Result<_, _>>()?,
            name_cname: StoreImage::decode(reader)?,
        };
        image.validate()?;
        Ok(image)
    }

    /// Check every name index against the name table.
    /// [`DnsStoreImage::decode`] runs it on every decoded image; an
    /// importer runs it before touching a store, so a bad image is
    /// rejected whole.
    pub fn validate(&self) -> Result<(), FlowDnsError> {
        let names = self.names.len() as u32;
        let ip = self
            .ip_name
            .iter()
            .flat_map(|section| section.generations());
        let ip = ip.flat_map(|generation| generation.name_indices());
        let cname = self.name_cname.generations().into_iter();
        let cname = cname.flat_map(|generation| generation.name_indices());
        match ip.chain(cname).find(|&idx| idx >= names) {
            Some(idx) => Err(FlowDnsError::Snapshot(format!(
                "name index {idx} out of bounds (table has {names} names)"
            ))),
            None => Ok(()),
        }
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
        image.name_cname.long.push((9, 0));
        assert!(decode_image(&image).is_err());
    }

    #[test]
    fn one_section_per_shard_round_trips() {
        let mut image = minimal_image();
        image.ip_name = (0..3).map(|_| StoreImage::default()).collect();
        image.ip_name[2].active.v4.push((0xC0A80001, 0));
        image.ip_name[1].long.v6.push(([7; 16], 0));
        image.name_cname.inactive.push((0, 0));
        let back = decode_image(&image).unwrap();
        assert_eq!(back.ip_name.len(), 3);
        assert_eq!(back, image);
    }

    #[test]
    fn column_entries_stay_small() {
        assert_eq!(std::mem::size_of::<(u32, u32)>(), 8);
        assert_eq!(std::mem::size_of::<(V6Bytes, u32)>(), 20);
    }

    #[test]
    fn columns_are_count_prefixed_plain_entries() {
        let columns = IpColumns {
            v4: vec![(0x0A00_0001, 3)],
            v6: vec![([9; 16], 4), ([8; 16], 5)],
        };
        let mut payload = Vec::new();
        columns.encode(&mut payload);
        assert_eq!(payload.len(), 4 + 8 + 4 + 2 * 20);
        assert_eq!(&payload[..12], &[1, 0, 0, 0, 1, 0, 0, 0x0A, 3, 0, 0, 0]);
        let back = IpColumns::decode(&mut Reader::new(&payload)).unwrap();
        assert_eq!((back.v4.capacity(), back.v6.capacity()), (1, 2));
        assert_eq!(back, columns);
    }
}
