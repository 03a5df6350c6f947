//! Wire-format end-to-end example: frame a resolver's DNS records and
//! build a NetFlow v9 export packet, decode both with the protocol
//! substrates, and push the decoded records through the correlator — the
//! two inputs `flowdnsd` reads from its sockets.
//!
//! Run with: `cargo run --example netflow_capture`

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use flowdns::core::{Correlator, CorrelatorConfig};
use flowdns::dns::{FrameDecoder, FrameEncoder};
use flowdns::netflow::v9::{encode_standard_ipv4_record, V9PacketBuilder, V9Parser};
use flowdns::netflow::{ExtractorConfig, FlowExtractor, Template};
use flowdns::types::{DnsRecord, DomainName, SimTime};
use std::net::Ipv4Addr;

fn main() {
    println!("== wire-format ingestion example ==");

    // --- DNS side: a resolver's records on the feed. ---------------------
    let shop = DomainName::literal("www.shop.example");
    let cdn = DomainName::literal("edge3.cdn.example.net");
    let ts = SimTime::from_secs(5);
    let sent = vec![
        DnsRecord::cname(ts, shop, cdn.clone(), 600),
        DnsRecord::address(ts, cdn, Ipv4Addr::new(100, 64, 9, 9).into(), 120),
    ];
    let wire = FrameEncoder::new()
        .encode_batch(&sent)
        .expect("frame DNS records");
    println!("DNS records framed to {} bytes on the wire", wire.len());

    let dns_records = FrameDecoder::new().feed(&wire).expect("decode frames");
    assert_eq!(dns_records, sent);
    println!("decoded {} correlator records", dns_records.len());

    // --- NetFlow side: a v9 export packet with a template + data. --------
    let template = Template::standard_ipv4(256);
    let mut builder = V9PacketBuilder::new(42, 1, 10);
    builder.add_templates(std::slice::from_ref(&template));
    let data = vec![
        encode_standard_ipv4_record(
            Ipv4Addr::new(100, 64, 9, 9),
            Ipv4Addr::new(10, 1, 2, 3),
            443,
            52_001,
            6,
            2_500_000,
            1_800,
            0,
            1,
        ),
        encode_standard_ipv4_record(
            Ipv4Addr::new(192, 0, 2, 200),
            Ipv4Addr::new(10, 1, 2, 4),
            443,
            52_002,
            6,
            90_000,
            80,
            0,
            1,
        ),
    ];
    builder.add_data(&template, &data).expect("encode v9 data");
    let packet = builder.build(1_000);
    println!("NetFlow v9 packet encoded to {} bytes", packet.len());

    let mut parser = V9Parser::new();
    let parsed_packet = parser.parse(&packet).expect("decode v9 packet");
    let mut extractor = FlowExtractor::new(ExtractorConfig::default());
    let flows = extractor.from_v9(&parsed_packet);
    println!("extracted {} flow records", flows.len());

    // --- Correlate. -------------------------------------------------------
    let correlator = Correlator::start(CorrelatorConfig::default()).expect("start pipeline");
    correlator.dns_router().route_batch(dns_records);
    while correlator.queue_depths().0 > 0 {
        std::thread::sleep(std::time::Duration::from_millis(1));
    }
    std::thread::sleep(std::time::Duration::from_millis(20));
    correlator.flow_router().route_batch(flows);
    let report = correlator.finish().expect("clean shutdown");
    println!("\n{}", report.summary());
    println!("(the 100.64.9.9 flow is attributed to www.shop.example via the CNAME chain;");
    println!(" the 192.0.2.200 flow has no DNS record and stays uncorrelated)");
}
