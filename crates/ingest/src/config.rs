//! Daemon configuration: listener addresses plus the correlator's own
//! `key = value` parameters, read from one config file.
//!
//! `flowdnsd` reads a single small file describing the whole deployment:
//! the ingest keys documented on [`IngestConfig`] are consumed here, and
//! every remaining line is handed to
//! [`CorrelatorConfig::from_config_text`], so worker counts, queue sizes,
//! store intervals and snapshot persistence use exactly the vocabulary
//! the offline tools already understand. The complete key reference —
//! every key with defaults and units — lives in `docs/CONFIG.md`.

use std::net::SocketAddr;
use std::time::Duration;

use flowdns_core::CorrelatorConfig;
use flowdns_types::FlowDnsError;

fn err(msg: impl Into<String>) -> FlowDnsError {
    FlowDnsError::Config(msg.into())
}

/// Configuration of the network listeners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IngestConfig {
    /// UDP socket address the NetFlow/IPFIX listener binds
    /// (`netflow_bind`, port 0 picks an ephemeral port).
    pub netflow_bind: SocketAddr,
    /// TCP socket address the DNS-feed listener binds (`dns_bind`).
    pub dns_bind: SocketAddr,
    /// Size of the NetFlow `SO_REUSEPORT` listener group
    /// (`netflow_listeners`): N sockets on one port, each with its own
    /// decode thread and per-exporter decoder shard. Clamped to 1 where
    /// `SO_REUSEPORT` is unavailable.
    pub netflow_listeners: usize,
    /// Size of the DNS-feed `SO_REUSEPORT` accept-loop group
    /// (`dns_listeners`).
    pub dns_listeners: usize,
    /// Upper bound of one receive drain (`recv_batch`): how many
    /// datagrams (UDP) or reads (TCP) a listener takes per blocking
    /// wake-up before pushing the decoded records as one batch. `1`
    /// disables draining — the per-datagram baseline the saturation
    /// harness measures against.
    pub recv_batch: usize,
    /// Kernel receive-buffer request per NetFlow socket
    /// (`recv_buffer_bytes`, `SO_RCVBUF`). A deep buffer absorbs
    /// exporter bursts and scheduling gaps that would otherwise drop
    /// datagrams before the listener is ever scheduled; the kernel
    /// silently clamps the request to `net.core.rmem_max`. `0` keeps
    /// the system default.
    pub recv_buffer_bytes: usize,
    /// Interval between periodic stats lines (`stats_interval`, seconds).
    pub stats_interval: Duration,
    /// TCP address of the embedded metrics endpoint (`metrics_addr`,
    /// port 0 picks an ephemeral port). Serves `/metrics` (Prometheus
    /// text exposition), `/healthz` and `/stats.json`; unset disables
    /// the server entirely.
    pub metrics_addr: Option<SocketAddr>,
    /// Output TSV path (`output`); correlated records are discarded after
    /// accounting when unset. With more than one write worker each shard
    /// writes its own file (`.w{shard}` suffix, or a `-w{shard}` filename
    /// tag when rotation is on).
    pub output: Option<String>,
    /// Rotation window of the output files
    /// (`output_rotate_interval`, seconds; `0` disables rotation and
    /// writes one file per shard). When set, `output` names the
    /// directory-plus-prefix of paper-style per-interval files:
    /// `output = /var/log/flowdns/corr` produces
    /// `/var/log/flowdns/corr-<window>.tsv`.
    pub output_rotate_interval: Option<Duration>,
}

impl Default for IngestConfig {
    fn default() -> Self {
        IngestConfig {
            netflow_bind: "127.0.0.1:9995".parse().expect("valid default addr"),
            dns_bind: "127.0.0.1:9953".parse().expect("valid default addr"),
            netflow_listeners: 1,
            dns_listeners: 1,
            recv_batch: 32,
            recv_buffer_bytes: 4 << 20,
            stats_interval: Duration::from_secs(10),
            metrics_addr: None,
            output: None,
            output_rotate_interval: None,
        }
    }
}

/// Everything `flowdnsd` needs: listeners plus correlator parameters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DaemonConfig {
    /// Listener configuration.
    pub ingest: IngestConfig,
    /// Correlation pipeline configuration.
    pub correlator: CorrelatorConfig,
}

impl DaemonConfig {
    /// Parse a daemon configuration from `key = value` text.
    ///
    /// Ingest keys (`netflow_bind`, `dns_bind`, `netflow_listeners`,
    /// `dns_listeners`, `recv_batch`, `recv_buffer_bytes`, `stats_interval`, `metrics_addr`,
    /// `output`, `output_rotate_interval`) are consumed here; all other
    /// lines — including comments
    /// and blanks — are forwarded verbatim to
    /// [`CorrelatorConfig::from_config_text`], which keeps that parser's
    /// line numbers accurate in error messages.
    pub fn from_config_text(text: &str) -> Result<Self, FlowDnsError> {
        let mut ingest = IngestConfig::default();
        let mut correlator_text = String::with_capacity(text.len());
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            let mut consumed = true;
            if let Some((key, value)) = line.split_once('=') {
                let (key, value) = (key.trim(), value.trim());
                match key {
                    "netflow_bind" => ingest.netflow_bind = parse_addr(lineno, value)?,
                    "dns_bind" => ingest.dns_bind = parse_addr(lineno, value)?,
                    "netflow_listeners" => {
                        ingest.netflow_listeners = parse_count(lineno, key, value, 1)?;
                    }
                    "dns_listeners" => {
                        ingest.dns_listeners = parse_count(lineno, key, value, 1)?;
                    }
                    "recv_batch" => {
                        ingest.recv_batch = parse_count(lineno, key, value, 1)?;
                    }
                    "recv_buffer_bytes" => {
                        ingest.recv_buffer_bytes = parse_count(lineno, key, value, 0)?;
                    }
                    "stats_interval" => {
                        let secs = value.parse::<u64>().map_err(|_| {
                            err(format!("line {}: '{value}' is not a number", lineno + 1))
                        })?;
                        if secs == 0 {
                            return Err(err(format!(
                                "line {}: stats_interval must be at least 1",
                                lineno + 1
                            )));
                        }
                        ingest.stats_interval = Duration::from_secs(secs);
                    }
                    "metrics_addr" => ingest.metrics_addr = Some(parse_addr(lineno, value)?),
                    "output" => ingest.output = Some(value.to_string()),
                    "output_rotate_interval" => {
                        let secs = value.parse::<u64>().map_err(|_| {
                            err(format!("line {}: '{value}' is not a number", lineno + 1))
                        })?;
                        ingest.output_rotate_interval =
                            (secs > 0).then(|| Duration::from_secs(secs));
                    }
                    _ => consumed = false,
                }
            } else {
                consumed = false;
            }
            if consumed {
                correlator_text.push('\n');
            } else {
                correlator_text.push_str(raw);
                correlator_text.push('\n');
            }
        }
        let correlator = CorrelatorConfig::from_config_text(&correlator_text)?;
        Ok(DaemonConfig { ingest, correlator })
    }

    /// Read and parse a configuration file.
    pub fn from_file(path: &str) -> Result<Self, FlowDnsError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| err(format!("cannot read config file '{path}': {e}")))?;
        DaemonConfig::from_config_text(&text)
    }
}

fn parse_count(lineno: usize, key: &str, value: &str, min: usize) -> Result<usize, FlowDnsError> {
    let n = value
        .parse::<usize>()
        .map_err(|_| err(format!("line {}: '{value}' is not a number", lineno + 1)))?;
    if n < min {
        return Err(err(format!(
            "line {}: {key} must be at least {min}",
            lineno + 1
        )));
    }
    Ok(n)
}

fn parse_addr(lineno: usize, value: &str) -> Result<SocketAddr, FlowDnsError> {
    value.parse().map_err(|_| {
        err(format!(
            "line {}: '{value}' is not a socket address (expected ip:port)",
            lineno + 1
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flowdns_core::Variant;

    #[test]
    fn defaults_are_sane() {
        let cfg = DaemonConfig::default();
        assert_eq!(cfg.ingest.netflow_bind.port(), 9995);
        assert_eq!(cfg.ingest.dns_bind.port(), 9953);
        assert_eq!(cfg.ingest.stats_interval, Duration::from_secs(10));
        assert!(cfg.ingest.output.is_none());
        assert!(cfg.correlator.validate().is_ok());
    }

    #[test]
    fn mixed_config_splits_ingest_and_correlator_keys() {
        let text = "
# flowdnsd at the small ISP
netflow_bind = 127.0.0.1:0
dns_bind = 127.0.0.1:0
stats_interval = 2
output = /tmp/flowdns.tsv
output_rotate_interval = 60
routing_table = /tmp/rib.txt

correlator_shards = 8
variant = NoRotation
";
        let cfg = DaemonConfig::from_config_text(text).unwrap();
        assert_eq!(cfg.ingest.netflow_bind.port(), 0);
        assert_eq!(cfg.ingest.dns_bind.port(), 0);
        assert_eq!(cfg.ingest.stats_interval, Duration::from_secs(2));
        assert_eq!(cfg.ingest.output.as_deref(), Some("/tmp/flowdns.tsv"));
        assert_eq!(
            cfg.ingest.output_rotate_interval,
            Some(Duration::from_secs(60))
        );
        assert_eq!(cfg.correlator.correlator_shards, 8);
        assert_eq!(cfg.correlator.variant, Variant::NoRotation);
        // The routing table path lands on the correlator side.
        assert_eq!(
            cfg.correlator.routing_table.as_deref(),
            Some("/tmp/rib.txt")
        );
        // Untouched correlator keys keep their defaults.
        assert_eq!(cfg.correlator.cname_loop_limit, 6);
    }

    #[test]
    fn listener_and_batch_keys_parse_and_validate() {
        let cfg = DaemonConfig::from_config_text(
            "netflow_listeners = 4\ndns_listeners = 2\nrecv_batch = 64\n\
             recv_buffer_bytes = 8388608\n",
        )
        .unwrap();
        assert_eq!(cfg.ingest.netflow_listeners, 4);
        assert_eq!(cfg.ingest.dns_listeners, 2);
        assert_eq!(cfg.ingest.recv_batch, 64);
        assert_eq!(cfg.ingest.recv_buffer_bytes, 8 << 20);
        // Defaults: single listeners, batched receive on, deep rcvbuf.
        let defaults = IngestConfig::default();
        assert_eq!(defaults.netflow_listeners, 1);
        assert_eq!(defaults.dns_listeners, 1);
        assert_eq!(defaults.recv_batch, 32);
        assert_eq!(defaults.recv_buffer_bytes, 4 << 20);
        // Zero listeners / zero recv_batch are configuration errors
        // (recv_buffer_bytes = 0 keeps the kernel's default socket depth).
        assert!(DaemonConfig::from_config_text("netflow_listeners = 0").is_err());
        assert!(DaemonConfig::from_config_text("dns_listeners = 0").is_err());
        assert!(DaemonConfig::from_config_text("recv_batch = 0").is_err());
        assert!(DaemonConfig::from_config_text("recv_buffer_bytes = 0").is_ok());
        assert!(DaemonConfig::from_config_text("recv_batch = lots").is_err());
    }

    #[test]
    fn metrics_addr_parses_and_defaults_off() {
        assert!(IngestConfig::default().metrics_addr.is_none());
        let cfg = DaemonConfig::from_config_text("metrics_addr = 127.0.0.1:9100").unwrap();
        assert_eq!(
            cfg.ingest.metrics_addr,
            Some("127.0.0.1:9100".parse().unwrap())
        );
        let e = DaemonConfig::from_config_text("metrics_addr = nowhere")
            .unwrap_err()
            .to_string();
        assert!(e.contains("line 1"), "{e}");
    }

    #[test]
    fn zero_rotate_interval_disables_rotation() {
        let cfg = DaemonConfig::from_config_text("output_rotate_interval = 0").unwrap();
        assert_eq!(cfg.ingest.output_rotate_interval, None);
        assert!(DaemonConfig::from_config_text("output_rotate_interval = soon").is_err());
    }

    #[test]
    fn bad_values_are_rejected_with_line_numbers() {
        let e = DaemonConfig::from_config_text("netflow_bind = not-an-addr")
            .unwrap_err()
            .to_string();
        assert!(e.contains("line 1"), "{e}");
        assert!(DaemonConfig::from_config_text("stats_interval = zero").is_err());
        assert!(DaemonConfig::from_config_text("stats_interval = 0").is_err());
        // Unknown keys still error through the correlator parser, with the
        // original file's line number.
        let e = DaemonConfig::from_config_text("netflow_bind = 127.0.0.1:0\nbogus_key = 1")
            .unwrap_err()
            .to_string();
        assert!(e.contains("line 2"), "{e}");
        assert!(e.contains("bogus_key"), "{e}");
        // A conf file from before the classic pipeline was removed hears
        // which key replaces the one it still carries.
        let e = DaemonConfig::from_config_text("netflow_bind = 127.0.0.1:0\n\nlookup_workers = 4")
            .unwrap_err()
            .to_string();
        assert!(e.contains("line 3"), "{e}");
        assert!(e.contains("'lookup_workers'"), "{e}");
        assert!(e.contains("'correlator_shards'"), "{e}");
        assert!(e.contains("docs/MIGRATION.md"), "{e}");
        // So does one that still sizes the deleted receive-buffer pool.
        let e = DaemonConfig::from_config_text("netflow_bind = 127.0.0.1:0\nbuffer_pool = 16")
            .unwrap_err()
            .to_string();
        assert!(e.contains("line 2"), "{e}");
        assert!(e.contains("'buffer_pool' is retired"), "{e}");
        assert!(e.contains("docs/MIGRATION.md"), "{e}");
        assert!(!e.contains("unknown key"), "{e}");
    }

    #[test]
    fn config_file_round_trip() {
        let dir = std::env::temp_dir().join("flowdns-ingest-config-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("flowdnsd.conf");
        std::fs::write(&path, "dns_bind = 127.0.0.1:15353\ncorrelator_shards = 3\n").unwrap();
        let cfg = DaemonConfig::from_file(path.to_str().unwrap()).unwrap();
        assert_eq!(cfg.ingest.dns_bind.port(), 15353);
        assert_eq!(cfg.correlator.correlator_shards, 3);
        assert!(DaemonConfig::from_file("/nonexistent/flowdnsd.conf").is_err());
    }
}
