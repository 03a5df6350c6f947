//! Send a small sample workload to a running `flowdnsd`.
//!
//! Companion to the README's "Running live" quickstart:
//!
//! ```sh
//! cargo run --release -p flowdns-ingest --bin flowdnsd -- --config examples/flowdnsd.conf
//! # in another terminal:
//! cargo run --example send_sample                       # default ports
//! cargo run --example send_sample -- 127.0.0.1:9995 127.0.0.1:9953
//! ```
//!
//! Pushes a framed DNS feed over TCP (so the store has names to hit),
//! then NetFlow v5, v9 (template + data) and IPFIX datagrams over UDP
//! from three distinct exporter sockets — enough to light up every
//! counter in the daemon's stats line.

// Reports go to stdout by design; the workspace denies
// `clippy::print_stdout` for library and daemon code.
#![allow(clippy::print_stdout)]

use std::io::Write as IoWrite;
use std::net::{Ipv4Addr, TcpStream, UdpSocket};

use flowdns::dns::framing::FrameEncoder;
use flowdns::netflow::template::Template;
use flowdns::netflow::v9::{encode_standard_ipv4_record, V9PacketBuilder};
use flowdns::netflow::{IpfixMessageBuilder, V5Header, V5Packet, V5Record};
use flowdns::types::{DnsRecord, DomainName, SimTime};

fn main() {
    let mut args = std::env::args().skip(1);
    let netflow_addr = args.next().unwrap_or_else(|| "127.0.0.1:9995".into());
    let dns_addr = args.next().unwrap_or_else(|| "127.0.0.1:9953".into());

    // --- DNS feed: three names behind three CDN addresses. ---
    let records = vec![
        dns("video.cdn.example", [203, 0, 113, 10]),
        dns("shop.cdn.example", [203, 0, 113, 20]),
        dns("games.cdn.example", [203, 0, 113, 30]),
    ];
    let frames = FrameEncoder::new().encode_batch(&records).expect("encode");
    let mut feed = TcpStream::connect(&dns_addr).expect("connect DNS feed");
    feed.write_all(&frames).expect("send DNS frames");
    feed.flush().expect("flush");
    println!("sent {} DNS records to {dns_addr}", records.len());
    // Give the shard workers a beat before the flows arrive.
    std::thread::sleep(std::time::Duration::from_millis(200));

    // --- Exporter 1: NetFlow v5. ---
    let v5 = V5Packet {
        header: V5Header {
            unix_secs: 1_000,
            ..Default::default()
        },
        records: vec![v5_record([203, 0, 113, 10], 150_000)],
    };
    send_udp(&netflow_addr, &v5.encode().expect("encode v5"), "v5");

    // --- Exporter 2: NetFlow v9, template before data. ---
    let template = Template::standard_ipv4(256);
    let mut v9 = V9PacketBuilder::new(7, 1, 1_000);
    v9.add_templates(std::slice::from_ref(&template));
    v9.add_data(&template, &[standard_record([203, 0, 113, 20], 90_000)])
        .expect("encode v9 data");
    send_udp(&netflow_addr, &v9.build(1), "v9");

    // --- Exporter 3: IPFIX. ---
    let template = Template::standard_ipv4(400);
    let mut ipfix = IpfixMessageBuilder::new(55, 1, 1_000);
    ipfix.add_templates(std::slice::from_ref(&template));
    ipfix
        .add_data(&template, &[standard_record([203, 0, 113, 30], 60_000)])
        .expect("encode ipfix data");
    send_udp(&netflow_addr, &ipfix.build(), "ipfix");

    println!("done — watch flowdnsd's stderr for the stats line");
}

fn dns(name: &str, ip: [u8; 4]) -> DnsRecord {
    DnsRecord::address(
        SimTime::from_secs(900),
        DomainName::literal(name),
        Ipv4Addr::from(ip).into(),
        3_600,
    )
}

fn v5_record(src: [u8; 4], octets: u32) -> V5Record {
    V5Record {
        src_addr: Ipv4Addr::from(src),
        dst_addr: Ipv4Addr::new(10, 0, 0, 1),
        src_port: 443,
        dst_port: 51_000,
        packets: 120,
        octets,
        ..Default::default()
    }
}

fn standard_record(src: [u8; 4], bytes: u32) -> Vec<u8> {
    encode_standard_ipv4_record(
        Ipv4Addr::from(src),
        Ipv4Addr::new(10, 0, 0, 1),
        443,
        51_000,
        6,
        bytes,
        100,
        0,
        1,
    )
}

fn send_udp(target: &str, payload: &[u8], label: &str) {
    let socket = UdpSocket::bind("127.0.0.1:0").expect("bind exporter socket");
    socket.send_to(payload, target).expect("send datagram");
    println!(
        "sent {label} datagram ({} bytes) to {target} from {}",
        payload.len(),
        socket.local_addr().expect("local addr")
    );
}
