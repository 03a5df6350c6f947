//! Resolver-feed framing.
//!
//! The ISP resolvers forward cache-miss records to FlowDNS "via TCP"
//! (Section 4, Coverage). TCP is a byte stream, so records need framing.
//! This module implements a simple, robust length-prefixed frame format
//! with a compact binary payload per record:
//!
//! ```text
//! frame    := u32 length | payload (length bytes)
//! payload  := u64 ts_micros | u32 ttl | u16 rtype | u8 answer_tag
//!             | u16 query_len | query bytes
//!             | answer (format depends on tag)
//! answer   := tag 0: u8 4   | 4-byte IPv4
//!             tag 1: u8 16  | 16-byte IPv6
//!             tag 2: u16 len | name bytes (UTF-8)
//! ```
//!
//! [`FrameEncoder`] turns records into bytes; [`FrameDecoder`] is an
//! incremental decoder that accepts arbitrary byte chunks (as delivered by
//! a socket) and yields complete records, tolerating partial frames across
//! chunk boundaries — the standard tokio-style framing pattern, implemented
//! over `bytes::BytesMut`.
//!
//! The decoder is the DNS handler's hot path, so it allocates only for
//! names: frames are read in place from the buffer, the caller's record
//! batch is reused across reads ([`FrameDecoder::feed_into`]), and each
//! distinct name costs one shared string. Consecutive repeats of a name,
//! as in a CNAME chain (one record's answer is the next one's query) or a
//! multi-answer response, share the previous allocation.

use bytes::{Buf, BufMut, BytesMut};
use flowdns_types::{
    DnsAnswer, DnsRecord, DomainName, DomainParseError, FlowDnsError, RecordType, SimTime,
};

/// Maximum accepted frame length. A DNS record with a 255-byte name and a
/// 255-byte answer is well under this; anything larger indicates a corrupt
/// or hostile stream and is rejected instead of buffering unboundedly.
pub const MAX_FRAME_LEN: usize = 4096;

fn err(msg: impl Into<String>) -> FlowDnsError {
    FlowDnsError::DnsParse(msg.into())
}

/// Encodes [`DnsRecord`]s into length-prefixed frames.
#[derive(Debug, Default)]
pub struct FrameEncoder;

impl FrameEncoder {
    /// A new encoder.
    pub fn new() -> Self {
        FrameEncoder
    }

    /// Encode one record, appending the frame to `out`.
    pub fn encode_into(&self, record: &DnsRecord, out: &mut BytesMut) -> Result<(), FlowDnsError> {
        let mut payload = BytesMut::with_capacity(64);
        payload.put_u64(record.ts.as_micros());
        payload.put_u32(record.ttl);
        payload.put_u16(record.rtype.to_u16());
        match &record.answer {
            DnsAnswer::Ip(std::net::IpAddr::V4(_)) => payload.put_u8(0),
            DnsAnswer::Ip(std::net::IpAddr::V6(_)) => payload.put_u8(1),
            DnsAnswer::Name(_) => payload.put_u8(2),
        }
        let qbytes = record.query.as_str().as_bytes();
        if qbytes.len() > u16::MAX as usize {
            return Err(err("query name too long to frame"));
        }
        payload.put_u16(qbytes.len() as u16);
        payload.put_slice(qbytes);
        match &record.answer {
            DnsAnswer::Ip(std::net::IpAddr::V4(ip)) => {
                payload.put_u8(4);
                payload.put_slice(&ip.octets());
            }
            DnsAnswer::Ip(std::net::IpAddr::V6(ip)) => {
                payload.put_u8(16);
                payload.put_slice(&ip.octets());
            }
            DnsAnswer::Name(name) => {
                let bytes = name.as_str().as_bytes();
                payload.put_u16(bytes.len() as u16);
                payload.put_slice(bytes);
            }
        }
        if payload.len() > MAX_FRAME_LEN {
            return Err(err("frame exceeds MAX_FRAME_LEN"));
        }
        out.put_u32(payload.len() as u32);
        out.extend_from_slice(&payload);
        Ok(())
    }

    /// Encode a batch of records into a fresh buffer.
    pub fn encode_batch(&self, records: &[DnsRecord]) -> Result<BytesMut, FlowDnsError> {
        let mut out = BytesMut::with_capacity(records.len() * 64);
        for r in records {
            self.encode_into(r, &mut out)?;
        }
        Ok(out)
    }
}

/// Incremental decoder for the resolver-feed frame format.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buffer: BytesMut,
    /// The last name built; a name with the same bytes shares it.
    last_name: Option<DomainName>,
    /// Records successfully decoded so far.
    pub decoded_count: u64,
}

impl FrameDecoder {
    /// A new decoder with an empty buffer.
    pub fn new() -> Self {
        FrameDecoder {
            buffer: BytesMut::with_capacity(8 * 1024),
            last_name: None,
            decoded_count: 0,
        }
    }

    /// Bytes currently buffered but not yet decodable.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// Feed a chunk of bytes (as read from a socket) and decode every
    /// complete frame it completes into a fresh vector. Partial frames
    /// remain buffered for the next call. On a malformed frame the
    /// records of this chunk are dropped with the error; a caller that
    /// keeps them uses [`FrameDecoder::feed_into`].
    pub fn feed(&mut self, chunk: &[u8]) -> Result<Vec<DnsRecord>, FlowDnsError> {
        let mut out = Vec::new();
        self.feed_into(chunk, &mut out)?;
        Ok(out)
    }

    /// Feed a chunk of bytes and append every record it completes to
    /// `out`, which a caller reuses across reads. Partial frames remain
    /// buffered for the next call.
    ///
    /// Each frame decodes in place from the buffer, which advances past
    /// a frame only once it decoded. On a malformed frame the records
    /// decoded before it stay in `out` and the error is returned; the bad
    /// frame stays buffered, so the stream cannot resume.
    pub fn feed_into(
        &mut self,
        chunk: &[u8],
        out: &mut Vec<DnsRecord>,
    ) -> Result<(), FlowDnsError> {
        self.buffer.extend_from_slice(chunk);
        let mut used = 0;
        let result = loop {
            let rest = &self.buffer[used..];
            let Some(&[a, b, c, d]) = rest.get(..4) else {
                break Ok(());
            };
            let len = u32::from_be_bytes([a, b, c, d]) as usize;
            if len > MAX_FRAME_LEN {
                break Err(err(format!("frame length {len} exceeds maximum")));
            }
            let Some(payload) = rest.get(4..4 + len) else {
                break Ok(());
            };
            match decode_payload(payload, &mut self.last_name) {
                Ok(record) => out.push(record),
                Err(e) => break Err(e),
            }
            used += 4 + len;
            self.decoded_count += 1;
        };
        self.buffer.advance(used);
        result
    }
}

/// Build a name from its wire bytes. Valid UTF-8 parses in place, with
/// one allocation; only invalid UTF-8 takes the lossy copy. Bytes equal
/// to `last`'s text share its allocation: normalized text without a
/// trailing dot parses to itself.
fn decode_name(
    bytes: &[u8],
    last: &mut Option<DomainName>,
) -> Result<DomainName, DomainParseError> {
    if let Some(name) = last {
        if name.as_str().as_bytes() == bytes && !bytes.ends_with(b".") {
            return Ok(name.clone());
        }
    }
    let name = match std::str::from_utf8(bytes) {
        Ok(text) => DomainName::parse(text)?,
        Err(_) => DomainName::parse(&String::from_utf8_lossy(bytes))?,
    };
    *last = Some(name.clone());
    Ok(name)
}

fn decode_payload(
    payload: &[u8],
    last: &mut Option<DomainName>,
) -> Result<DnsRecord, FlowDnsError> {
    let mut r = crate::wire::Reader::new(payload);
    let ts = SimTime::from_micros(r.read_u64()?);
    let ttl = r.read_u32()?;
    let rtype = RecordType::from_u16(r.read_u16()?);
    let tag = r.read_u8()?;
    let qlen = r.read_u16()? as usize;
    let qbytes = r.read_bytes(qlen)?;
    let query =
        decode_name(qbytes, last).map_err(|e| err(format!("bad query name in frame: {e}")))?;
    let answer = match tag {
        0 => {
            let len = r.read_u8()? as usize;
            if len != 4 {
                return Err(err("IPv4 answer must be 4 bytes"));
            }
            DnsAnswer::Ip(std::net::Ipv4Addr::from(r.read_array::<4>()?).into())
        }
        1 => {
            let len = r.read_u8()? as usize;
            if len != 16 {
                return Err(err("IPv6 answer must be 16 bytes"));
            }
            DnsAnswer::Ip(std::net::Ipv6Addr::from(r.read_array::<16>()?).into())
        }
        2 => {
            let len = r.read_u16()? as usize;
            let b = r.read_bytes(len)?;
            DnsAnswer::Name(
                decode_name(b, last).map_err(|e| err(format!("bad answer name in frame: {e}")))?,
            )
        }
        other => return Err(err(format!("unknown answer tag {other}"))),
    };
    if !r.is_empty() {
        return Err(err("trailing bytes in frame payload"));
    }
    Ok(DnsRecord {
        ts,
        query,
        rtype,
        ttl,
        answer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{Ipv4Addr, Ipv6Addr};

    fn sample_records() -> Vec<DnsRecord> {
        vec![
            DnsRecord::address(
                SimTime::from_secs(1),
                DomainName::literal("video.example.com"),
                Ipv4Addr::new(203, 0, 113, 5).into(),
                300,
            ),
            DnsRecord::address(
                SimTime::from_millis(1500),
                DomainName::literal("v6.example.com"),
                Ipv6Addr::new(0x2001, 0xdb8, 0, 0, 0, 0, 0, 1).into(),
                7200,
            ),
            DnsRecord::cname(
                SimTime::from_secs(2),
                DomainName::literal("www.shop.example"),
                DomainName::literal("shop.cdn.example.net"),
                3600,
            ),
        ]
    }

    #[test]
    fn round_trip_batch() {
        let records = sample_records();
        let encoded = FrameEncoder::new().encode_batch(&records).unwrap();
        let mut decoder = FrameDecoder::new();
        let decoded = decoder.feed(&encoded).unwrap();
        assert_eq!(decoded, records);
        assert_eq!(decoder.decoded_count, 3);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn partial_frames_across_chunks() {
        let records = sample_records();
        let encoded = FrameEncoder::new().encode_batch(&records).unwrap();
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        // Feed one byte at a time — the worst possible socket behaviour.
        for byte in encoded.iter() {
            decoded.extend(decoder.feed(std::slice::from_ref(byte)).unwrap());
        }
        assert_eq!(decoded, records);
    }

    #[test]
    fn records_before_a_bad_frame_stay_in_the_batch() {
        let records = sample_records();
        let mut wire = FrameEncoder::new().encode_batch(&records).unwrap();
        wire.extend_from_slice(&(MAX_FRAME_LEN as u32 + 1).to_be_bytes());
        let mut decoder = FrameDecoder::new();
        let mut batch = Vec::new();
        assert!(decoder.feed_into(&wire, &mut batch).is_err());
        assert_eq!(batch, records);
        assert_eq!(decoder.decoded_count, 3);
        assert_eq!(decoder.buffered(), 4, "the bad frame is not consumed");
    }

    #[test]
    fn oversized_frame_is_rejected() {
        let mut decoder = FrameDecoder::new();
        let bogus = (MAX_FRAME_LEN as u32 + 1).to_be_bytes();
        assert!(decoder.feed(&bogus).is_err());
    }

    #[test]
    fn corrupt_payload_is_rejected() {
        let record = &sample_records()[0];
        let mut encoded = FrameEncoder::new()
            .encode_batch(std::slice::from_ref(record))
            .unwrap();
        // Corrupt the answer tag byte (offset 4 + 8 + 4 + 2 = 18).
        encoded[18] = 99;
        let mut decoder = FrameDecoder::new();
        assert!(decoder.feed(&encoded).is_err());
    }

    #[test]
    fn trailing_garbage_in_payload_is_rejected() {
        let record = &sample_records()[0];
        let frame = FrameEncoder::new()
            .encode_batch(std::slice::from_ref(record))
            .unwrap();
        // Extend the declared length by 2 and append two bytes of junk.
        let mut tampered = BytesMut::new();
        let orig_len = u32::from_be_bytes([frame[0], frame[1], frame[2], frame[3]]);
        tampered.put_u32(orig_len + 2);
        tampered.extend_from_slice(&frame[4..]);
        tampered.extend_from_slice(&[0xAA, 0xBB]);
        let mut decoder = FrameDecoder::new();
        assert!(decoder.feed(&tampered).is_err());
    }
}
