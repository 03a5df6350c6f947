//! The traced pass: what each layer costs, priced from outside.
//!
//! 1. A single-threaded *layer chain* takes one lap through the daemon's
//!    own public functions in pipeline order, 1024 trace records at a
//!    time, with a span around every call batch. Spans stay in memory and
//!    go to `<out>/<workload>.spans.jsonl` at the end. The chain is also
//!    the single-thread baseline.
//! 2. The open-loop phase runs twice against a real daemon, first as in
//!    the end-to-end run, then with the flight recorder sampling one flow
//!    in 256 and the metrics registry read at both edges of the phase.
//!    The difference in CPU per record is the tracing overhead.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write;
use std::time::{Duration, Instant};

use flowdns_bgp::{AsnView, RoutingTable};
use flowdns_core::{
    shard_of_dns, shard_of_flow, FillUpStats, LookUpStats, OutputSink, RotatingFileSink,
    ShardedStore,
};
use flowdns_dns::framing::FrameDecoder;
use flowdns_netflow::{ExporterDecoder, ExtractorConfig};
use flowdns_obs::{HistogramSnapshot, RegistrySnapshot, SampleValue};
use flowdns_stream::{ShardedChannel, StreamBuffer};
use flowdns_types::{CorrelatedRecord, FlowRecord, SimDuration, SimTime};

use crate::drive::Clock;
use crate::wire::Kind;
use crate::workloads::T_BASE;
use crate::{live_run, metric, prepare, quantile, Args, Metric, Outcome, Prepared, CAPACITY_SHARE};

/// Trace records per call batch of the layer chain.
const BATCH: u32 = 1_024;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    batch: u32,
}

struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn open(&mut self, name: &'static str, parent: Option<usize>, batch: u32) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Total nanoseconds spent in spans of this name.
    fn total_ns(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum()
    }

    fn write(&self, path: &std::path::Path) -> Result<(), String> {
        let mut out =
            std::io::BufWriter::new(std::fs::File::create(path).map_err(|e| e.to_string())?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"batch\": {}}}",
                s.name, s.start_ns, s.end_ns, s.batch
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }
}

/// What the layer chain measured besides its spans.
struct Chain {
    spans: Spans,
    flows: f64,
    dns: f64,
    tsv_bytes: f64,
    read_ms: f64,
    import_ms: f64,
    export_ms: f64,
    write_ms: f64,
    freeze_ms: f64,
    clear_up_ms: f64,
    rotated_entries: f64,
}

fn ms(since: Instant) -> f64 {
    since.elapsed().as_secs_f64() * 1e3
}

fn layer_chain(p: &Prepared) -> Result<Chain, String> {
    let err = |e: flowdns_types::FlowDnsError| e.to_string();
    let config = &p.config.correlator;

    // The steps of a cold start, one by one.
    let t = Instant::now();
    let image = flowdns_snapshot::read_snapshot(p.paths.image()).map_err(err)?;
    let read_ms = ms(t);
    let store = ShardedStore::new(config);
    let t = Instant::now();
    store.import_image(&image, None).map_err(err)?;
    let import_ms = ms(t);
    drop(image);
    let t = Instant::now();
    let exported = store.export_image();
    let export_ms = ms(t);
    let scratch = p.paths.out.join("chain.fdns");
    let t = Instant::now();
    flowdns_snapshot::write_snapshot(&scratch, &exported).map_err(err)?;
    let write_ms = ms(t);
    drop(exported);
    let _ = std::fs::remove_file(&scratch);
    let t = Instant::now();
    let view = match &config.routing_table {
        Some(path) => Some(AsnView::new(
            RoutingTable::load_announcements(path)
                .map_err(err)?
                .freeze(),
        )),
        None => None,
    };
    let freeze_ms = ms(t);

    let lanes = store.shards();
    let mut asn = view.as_ref().map(|v| v.reader());
    let mut decoder = ExporterDecoder::new(ExtractorConfig::default());
    let mut frames = FrameDecoder::new();
    let channel: ShardedChannel<FlowRecord> =
        ShardedChannel::new(lanes, config.shard_flow_ring_capacity, 64);
    let mut producer = channel.producer();
    let mut consumers: Vec<_> = (0..lanes).map(|lane| channel.consumer(lane)).collect();
    let queue: StreamBuffer<CorrelatedRecord> = StreamBuffer::new(config.write_queue_capacity);
    let tsv_dir = p.paths.out.join("chain-tsv");
    let mut sink =
        RotatingFileSink::new(&tsv_dir, "corr", SimDuration::from_secs(1)).map_err(err)?;

    let mut spans = Spans {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut fillup = FillUpStats::default();
    let mut lookup = LookUpStats::default();
    let (mut flows_total, mut dns_total, mut tsv_bytes) = (0u64, 0u64, 0u64);
    let mut flows: Vec<FlowRecord> = Vec::new();
    let mut lane_of: Vec<usize> = Vec::new();
    let mut per_lane: Vec<Vec<FlowRecord>> = vec![Vec::new(); lanes];
    let mut asns: Vec<Vec<(Option<u32>, Option<u32>)>> = vec![Vec::new(); lanes];
    let mut dns = Vec::new();
    let mut records: Vec<CorrelatedRecord> = Vec::new();
    let mut no_asn = None;

    let mut at = 0usize;
    let mut batch = 0u32;
    while at < p.wire.items.len() {
        let from = at;
        let mut size = 0;
        while at < p.wire.items.len() && size < BATCH {
            size += p.wire.items[at].records;
            at += 1;
        }
        let items = &p.wire.items[from..at];
        let root = spans.open("batch", None, batch);
        let layer = |spans: &mut Spans, name: &'static str| spans.open(name, Some(root), batch);

        let s = layer(&mut spans, "netflow.decode");
        for item in items.iter().filter(|i| i.kind == Kind::Flows) {
            decoder
                .decode_datagram_into(p.wire.bytes(item), &mut flows)
                .map_err(err)?;
        }
        spans.close(s);
        flows_total += flows.len() as u64;

        let s = layer(&mut spans, "shard.route");
        lane_of.extend(flows.iter().map(|f| shard_of_flow(f, lanes)));
        spans.close(s);

        let s = layer(&mut spans, "spsc.hop");
        let mut accepted = vec![0u64; lanes];
        for (flow, lane) in flows.drain(..).zip(lane_of.drain(..)) {
            if producer.push_uncounted(lane, flow) {
                accepted[lane] += 1;
            }
        }
        for lane in 0..lanes {
            producer.note_accepted(&channel, lane, accepted[lane]);
            while let Some(flow) = consumers[lane].pop_adopting() {
                per_lane[lane].push(flow);
            }
        }
        spans.close(s);

        let s = layer(&mut spans, "dns.frame_decode");
        for item in items.iter().filter(|i| i.kind == Kind::Dns) {
            dns.extend(frames.feed(p.wire.bytes(item)).map_err(err)?);
        }
        spans.close(s);
        dns_total += dns.len() as u64;

        // One lock per partition and batch, as a shard worker takes it.
        let mut partitions: Vec<_> = (0..lanes)
            .map(|lane| store.partition(lane).lock())
            .collect();

        let s = layer(&mut spans, "fillup.insert");
        for record in dns.drain(..) {
            let lane = shard_of_dns(&record, lanes);
            partitions[lane].process_dns(&store, &record, &mut fillup);
        }
        spans.close(s);

        let s = layer(&mut spans, "bgp.lpm");
        if let Some(reader) = asn.as_mut() {
            for lane in 0..lanes {
                asns[lane].extend(per_lane[lane].iter().map(|f| {
                    (
                        reader.origin_as(f.key.src_ip),
                        reader.origin_as(f.key.dst_ip),
                    )
                }));
            }
        }
        spans.close(s);

        let s = layer(&mut spans, "lookup.resolve");
        for lane in 0..lanes {
            for (i, flow) in per_lane[lane].drain(..).enumerate() {
                let record = partitions[lane].process_flow(&store, &mut no_asn, flow, &mut lookup);
                let (src, dst) = asns[lane].get(i).copied().unwrap_or((None, None));
                records.push(record.with_asns(src, dst));
            }
            asns[lane].clear();
        }
        spans.close(s);
        drop(partitions);

        let s = layer(&mut spans, "buffer.hop");
        let pushed = records.len();
        for record in records.drain(..) {
            queue.push(record);
        }
        while let Some(record) = queue.pop() {
            records.push(record);
        }
        spans.close(s);
        if records.len() != pushed {
            return Err("the write queue dropped records of the layer chain".into());
        }

        let s = layer(&mut spans, "write.format");
        for record in &records {
            tsv_bytes += black_box(record.to_tsv()).len() as u64 + 1;
        }
        spans.close(s);

        let s = layer(&mut spans, "write.sink");
        for record in &records {
            sink.write_record(record).map_err(err)?;
        }
        spans.close(s);
        records.clear();

        spans.close(root);
        batch += 1;
    }
    sink.finalize().map_err(err)?;
    let _ = std::fs::remove_dir_all(&tsv_dir);
    if flows_total != p.wire.flow_records || dns_total != p.wire.dns_records {
        return Err(format!(
            "the layer chain decoded {flows_total} flows and {dns_total} DNS records of {} and {}",
            p.wire.flow_records, p.wire.dns_records
        ));
    }

    // Two clear-ups on the store as the lap left it. The first only
    // moves Active to Inactive; the second drops a full generation, which
    // is what every clear-up of a running daemon does, and is the one timed.
    let interval = config.a_clear_up_interval.as_secs();
    store.observe_time_all(SimTime::from_secs(T_BASE + interval + 1));
    let t = Instant::now();
    store.observe_time_all(SimTime::from_secs(T_BASE + 2 * interval + 2));
    let clear_up_ms = ms(t);
    Ok(Chain {
        spans,
        flows: flows_total as f64,
        dns: dns_total as f64,
        tsv_bytes: tsv_bytes as f64,
        read_ms,
        import_ms,
        export_ms,
        write_ms,
        freeze_ms,
        clear_up_ms,
        rotated_entries: store.rotated_entries() as f64,
    })
}

/// The two registry samples around the traced open-loop phase.
type Edges<'a> = (&'a RegistrySnapshot, &'a RegistrySnapshot);

fn counter_delta(edges: Edges, name: &str) -> f64 {
    (edges.1.counter(name) - edges.0.counter(name)) as f64
}

fn lookup_delta(edges: Edges, result: &str) -> f64 {
    let name = "flowdns_lookup_flows_total";
    (edges.1.counter_with(name, "result", result) - edges.0.counter_with(name, "result", result))
        as f64
}

/// The flow lanes' sampled ring wait over all shards.
fn flow_wait(snapshot: &RegistrySnapshot) -> HistogramSnapshot {
    let mut merged = HistogramSnapshot::default();
    for series in &snapshot.series {
        let lookup_lane = series.name == "flowdns_queue_wait_us"
            && series
                .labels
                .iter()
                .any(|(k, v)| k == "queue" && v == "lookup");
        if let (true, SampleValue::Histogram(h)) = (lookup_lane, &series.value) {
            merged
                .buckets
                .resize(merged.buckets.len().max(h.buckets.len()), 0);
            for (sum, bucket) in merged.buckets.iter_mut().zip(&h.buckets) {
                *sum += bucket;
            }
            merged.sum += h.sum;
        }
    }
    merged
}

fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

pub fn run_traced(args: &Args) -> Result<Outcome, String> {
    let mut p = prepare(args)?;
    let chain = layer_chain(&p)?;
    chain
        .spans
        .write(&p.paths.out.join(format!("{}.spans.jsonl", p.spec.name)))?;
    crate::sys::release_free_heap();

    let mut clock = Clock::new(p.spec.time_speed);
    let paced_time = Duration::from_secs_f64(args.seconds as f64 * (1.0 - CAPACITY_SHARE));
    let plain = live_run(&mut p, &mut clock, None, paced_time, false)?;
    p.config.correlator.trace_sample_every = 256;
    p.config.correlator.trace_path = Some(p.paths.flight().display().to_string());
    let traced = live_run(&mut p, &mut clock, None, paced_time, true)?;
    let observed = traced.observed.as_ref().expect("asked for");
    let edges: Edges = (&observed.0, &observed.1);
    let health = &observed.2;

    let per = |name: &str, count: f64| ratio(chain.spans.total_ns(name), count);
    let records = chain.flows + chain.dns;
    let format_ns = per("write.format", chain.flows);
    // What the daemon does to a record, once each: `write_record` formats
    // the line itself, so the stand-alone format span is left out.
    let ledger_ns: f64 = [
        "netflow.decode",
        "shard.route",
        "spsc.hop",
        "dns.frame_decode",
        "fillup.insert",
        "bgp.lpm",
        "lookup.resolve",
        "buffer.hop",
        "write.sink",
    ]
    .iter()
    .map(|name| chain.spans.total_ns(name))
    .sum();
    let ledger_us = ledger_ns / 1e3 / records;
    let cpu_us = plain.paced.cpu_us_per_record();
    let mut wait = flow_wait(edges.1);
    let before = flow_wait(edges.0);
    for (bucket, earlier) in wait.buckets.iter_mut().zip(&before.buckets) {
        *bucket -= earlier;
    }
    let hits = lookup_delta(edges, "ip_hit");
    let datagrams = (plain.datagrams + traced.datagrams) as f64;
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;

    let metrics: Vec<Metric> = vec![
        metric(
            "netflow.decode_ns_per_record",
            per("netflow.decode", chain.flows),
            "ns",
        ),
        metric(
            "shard.route_ns_per_record",
            per("shard.route", chain.flows),
            "ns",
        ),
        metric("spsc.hop_ns_per_record", per("spsc.hop", chain.flows), "ns"),
        metric(
            "ingest.datagrams_per_wake",
            ratio(
                counter_delta(edges, "flowdns_ingest_netflow_datagrams_total"),
                counter_delta(edges, "flowdns_ingest_netflow_drains_total"),
            ),
            "count",
        ),
        metric(
            "ingest.kernel_drop_pct",
            ratio((plain.kernel_drops + traced.kernel_drops) as f64, datagrams) * 100.0,
            "%",
        ),
        metric(
            "dns.frame_decode_ns_per_record",
            per("dns.frame_decode", chain.dns),
            "ns",
        ),
        metric(
            "fillup.insert_ns_per_record",
            per("fillup.insert", chain.dns),
            "ns",
        ),
        metric("storage.clear_up_ms", chain.clear_up_ms, "ms"),
        metric("storage.rotated_entries", chain.rotated_entries, "count"),
        metric(
            "lookup.resolve_ns_per_record",
            per("lookup.resolve", chain.flows),
            "ns",
        ),
        metric(
            "lookup.hit_pct",
            ratio(hits, hits + lookup_delta(edges, "ip_miss")) * 100.0,
            "%",
        ),
        metric(
            "lookup.cname_hops_per_hit",
            ratio(
                counter_delta(edges, "flowdns_lookup_cname_hops_total"),
                hits,
            ),
            "count",
        ),
        metric(
            "bgp.lpm_ns_per_lookup",
            per("bgp.lpm", chain.flows * 2.0),
            "ns",
        ),
        metric("write.format_ns_per_record", format_ns, "ns"),
        metric(
            "write.file_ns_per_record",
            per("write.sink", chain.flows) - format_ns,
            "ns",
        ),
        metric(
            "write.bytes_per_record",
            ratio(chain.tsv_bytes, chain.flows),
            "B",
        ),
        metric(
            "buffer.hop_ns_per_record",
            per("buffer.hop", chain.flows),
            "ns",
        ),
        metric("queue.flow_wait_p50_us", wait.quantile(0.5) as f64, "us"),
        metric("queue.flow_wait_p99_us", wait.quantile(0.99) as f64, "us"),
        metric(
            "queue.write_depth_max",
            plain.write_depth_max as f64,
            "count",
        ),
        metric("sink_lag_p90_ms", quantile(&plain.paced.lag_ms, 0.9), "ms"),
        metric("sink_lag_p99_ms", quantile(&plain.paced.lag_ms, 0.99), "ms"),
        metric("storage.entries", health.entries as f64, "count"),
        metric(
            "storage.bytes_per_entry",
            ratio(
                health.memory.total_bytes() as f64,
                health.memory.entries as f64,
            ),
            "B",
        ),
        metric("snapshot.read_ms", chain.read_ms, "ms"),
        metric("snapshot.import_ms", chain.import_ms, "ms"),
        metric("snapshot.export_ms", chain.export_ms, "ms"),
        metric("snapshot.write_ms", chain.write_ms, "ms"),
        metric("bgp.freeze_ms", chain.freeze_ms, "ms"),
        metric(
            "chain.records_per_s",
            records / (chain.spans.total_ns("batch") / 1e9),
            "1/s",
        ),
        metric("ledger.sum_layers_us_per_record", ledger_us, "us"),
        metric(
            "ledger.unexplained_pct",
            (cpu_us - ledger_us) / cpu_us * 100.0,
            "%",
        ),
        metric(
            "trace.overhead_pct",
            (traced.paced.cpu_us_per_record() - cpu_us) / cpu_us * 100.0,
            "%",
        ),
        metric(
            "gen.late_p99_ms",
            quantile(&plain.paced.late_ms, 0.99),
            "ms",
        ),
        metric("gen.cpu_share_pct", plain.paced.generator_cpu_pct(), "%"),
        metric("gen.gen_s", p.gen_secs, "s"),
        metric("loss_pct", failed as f64 / attempted as f64 * 100.0, "%"),
    ];
    report_top_layers(&p, &chain, records);
    let mut failures = plain.failures;
    failures.extend(traced.failures);
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        failures,
    })
}

/// The chain's layers by time per trace record, largest first, on stderr.
fn report_top_layers(p: &Prepared, chain: &Chain, records: f64) {
    let mut by_name: HashMap<&str, f64> = HashMap::new();
    for span in chain.spans.spans.iter().filter(|s| s.parent.is_some()) {
        *by_name.entry(span.name).or_default() += (span.end_ns - span.start_ns) as f64;
    }
    let mut ranked: Vec<_> = by_name.into_iter().collect();
    ranked.sort_by(|a, b| b.1.total_cmp(&a.1));
    let line: Vec<String> = ranked
        .iter()
        .map(|(name, ns)| format!("{name} {:.0}", ns / records))
        .collect();
    eprintln!(
        "{}: layer chain, ns per trace record: {}",
        p.spec.name,
        line.join(", ")
    );
}
