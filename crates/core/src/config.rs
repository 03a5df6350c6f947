//! Correlator configuration: the Table 1 parameters plus shard and ring
//! sizing, and the ablation variants of Section 4 that the daemon runs.
//!
//! The paper states the system "can be adapted to use other data formats
//! ... in a configuration file"; [`CorrelatorConfig::from_config_text`]
//! parses the small `key = value` format used for that purpose, so
//! deployments can be described in a file rather than code.

use std::time::Duration;

use flowdns_types::{FlowDnsError, SimDuration};

/// The ablation variants evaluated in Section 4 (Figure 3, Figure 7).
/// The Appendix A.8 exact-TTL strawman is not one of them: only
/// [`OfflineSimulator::exact_ttl`](crate::OfflineSimulator::exact_ttl)
/// runs it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Variant {
    /// The fully featured system.
    #[default]
    Main,
    /// Hashmaps are not divided into splits (`NUM_SPLIT = 1`). The store
    /// never splits, so this runs as [`Variant::Main`]; only the offline
    /// simulator's per-split cost term tells them apart.
    NoSplit,
    /// Hashmaps are never cleared.
    NoClearUp,
    /// Hashmaps are cleared but nothing is copied to an Inactive map.
    NoRotation,
    /// Long-TTL records go to the Active maps instead of Long maps.
    NoLongHashmaps,
}

impl Variant {
    /// All variants in the order the paper discusses them.
    pub fn all() -> [Variant; 5] {
        [
            Variant::Main,
            Variant::NoSplit,
            Variant::NoClearUp,
            Variant::NoRotation,
            Variant::NoLongHashmaps,
        ]
    }

    /// The label used in the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Variant::Main => "Main",
            Variant::NoSplit => "NoSplit",
            Variant::NoClearUp => "NoClearUp",
            Variant::NoRotation => "NoRotation",
            Variant::NoLongHashmaps => "NoLong",
        }
    }

    /// Parse a variant label (case-insensitive).
    pub fn parse(s: &str) -> Result<Variant, FlowDnsError> {
        match s.to_ascii_lowercase().as_str() {
            "main" => Ok(Variant::Main),
            "nosplit" | "no-split" => Ok(Variant::NoSplit),
            "noclearup" | "no-clear-up" | "no-clearup" => Ok(Variant::NoClearUp),
            "norotation" | "no-rotation" => Ok(Variant::NoRotation),
            "nolong" | "no-long" | "nolonghashmaps" => Ok(Variant::NoLongHashmaps),
            "exactttl" | "exact-ttl" => Err(FlowDnsError::Config(format!(
                "variant '{s}' is the Appendix A.8 exact-TTL strawman, which only the \
                 offline simulator runs (OfflineSimulator::exact_ttl, exp_exact_ttl); \
                 the daemon runs the rotating variants, use variant = Main \
                 (see docs/MIGRATION.md, PR 37)"
            ))),
            other => Err(FlowDnsError::Config(format!("unknown variant '{other}'"))),
        }
    }
}

impl std::fmt::Display for Variant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Where every "this key/value is gone" error sends the operator.
const MIGRATION_HINT: &str = "see docs/MIGRATION.md, PR 16";

/// Config keys of the deleted classic FillUp/LookUp pipeline and the key
/// that now does their job. A conf file still carrying one fails with an
/// error naming both, not the generic "unknown key".
const RETIRED_KEYS: [(&str, &str); 4] = [
    ("fillup_workers", "correlator_shards"),
    ("lookup_workers", "correlator_shards"),
    ("fillup_queue_capacity", "shard_dns_ring_capacity"),
    ("lookup_queue_capacity", "shard_flow_ring_capacity"),
];

/// Config keys retired with no replacement key, and why. A conf file
/// still carrying one fails with that reason, not the generic "unknown
/// key".
const RETIRED_INTERNAL_KEYS: [(&str, &str); 4] = [
    (
        "map_shards",
        "the NAME-CNAME store it striped is a single table now; delete the line \
         (see docs/MIGRATION.md, \"one-probe DNS store\")",
    ),
    (
        "buffer_pool",
        "the receive-buffer pool it capped is gone, listeners allocate their \
         buffers directly; delete the line (see docs/MIGRATION.md, \"snapshot format v3, \
         no buffer pool\")",
    ),
    (
        "num_split",
        "no store splits, and the offline simulator prices its per-split cost \
         with the constant NUM_SPLIT = 10; delete the line (see docs/MIGRATION.md, PR 37)",
    ),
    (
        "exact_ttl_purge_interval",
        "the exact-TTL strawman it tuned runs only in the offline simulator \
         (OfflineSimulator::exact_ttl, exp_exact_ttl), with a fixed 300 s purge; \
         delete the line (see docs/MIGRATION.md, PR 37)",
    ),
];

/// Full configuration of a correlator instance.
#[derive(Debug, Clone, PartialEq)]
pub struct CorrelatorConfig {
    /// `AClearUpInterval`: seconds after which the IP-NAME Active maps are
    /// rotated and cleared (paper value: 3600).
    pub a_clear_up_interval: SimDuration,
    /// `CClearUpInterval`: seconds after which the NAME-CNAME Active map is
    /// rotated and cleared (paper value: 7200).
    pub c_clear_up_interval: SimDuration,
    /// Maximum number of CNAME chain look-ups (paper value: 6).
    pub cname_loop_limit: usize,
    /// Number of Write worker threads (live pipeline only).
    pub write_workers: usize,
    /// Capacity of the Write queue (records).
    pub write_queue_capacity: usize,
    /// Which ablation variant to run.
    pub variant: Variant,
    /// Path to a BGP announcement file (`prefix origin_as` lines, see
    /// `flowdns_bgp::RoutingTable::from_announcements_text`). When set,
    /// the pipeline compiles it into a frozen table and the LookUp
    /// workers stamp `src_asn`/`dst_asn` on every record.
    pub routing_table: Option<String>,
    /// Path of the DNS-store snapshot file. When set, the pipeline
    /// warm-starts from the file at boot (if it exists and passes its
    /// checksum), writes it periodically from a background thread (see
    /// [`CorrelatorConfig::snapshot_interval`]) and once more at
    /// shutdown, always via `.part` + atomic rename. `None` (the
    /// default) disables persistence entirely.
    pub snapshot_path: Option<String>,
    /// Wall-clock interval between background snapshot writes.
    /// `Duration::ZERO` keeps only the shutdown snapshot. Ignored unless
    /// [`CorrelatorConfig::snapshot_path`] is set.
    pub snapshot_interval: Duration,
    /// Number of shared-nothing correlator shards, at least 1. Records
    /// are routed by IP key at decode time into per-shard SPSC rings;
    /// each shard worker owns an exclusive partition of the IP-NAME
    /// store and performs both FillUp and LookUp for its key range.
    /// The default is the constant 4, not the host's core count: the
    /// snapshot layout is a function of the shard count, so a default
    /// that moved with the machine size would turn a resize into a cold
    /// start.
    pub correlator_shards: usize,
    /// Capacity of each per-(producer, shard) DNS ingress ring, in
    /// records (rounded up to a power of two).
    pub shard_dns_ring_capacity: usize,
    /// Capacity of each per-(producer, shard) flow ingress ring, in
    /// records (rounded up to a power of two).
    pub shard_flow_ring_capacity: usize,
    /// Flight-recorder sampling interval: every n-th decoded flow gets a
    /// trace token and emits one JSONL span at egress. `0` (the default)
    /// disables tracing entirely — no recorder is constructed and the
    /// hot path pays nothing.
    pub trace_sample_every: u64,
    /// Path of the flight-recorder JSONL ring file. Required when
    /// [`CorrelatorConfig::trace_sample_every`] is nonzero.
    pub trace_path: Option<String>,
}

impl Default for CorrelatorConfig {
    fn default() -> Self {
        CorrelatorConfig {
            a_clear_up_interval: SimDuration::from_secs(3600),
            c_clear_up_interval: SimDuration::from_secs(7200),
            cname_loop_limit: 6,
            write_workers: 1,
            write_queue_capacity: 262_144,
            variant: Variant::Main,
            routing_table: None,
            snapshot_path: None,
            snapshot_interval: Duration::from_secs(300),
            correlator_shards: 4,
            shard_dns_ring_capacity: 65_536,
            shard_flow_ring_capacity: 262_144,
            trace_sample_every: 0,
            trace_path: None,
        }
    }
}

impl CorrelatorConfig {
    /// The default configuration with a different variant.
    pub fn for_variant(variant: Variant) -> Self {
        CorrelatorConfig {
            variant,
            ..CorrelatorConfig::default()
        }
    }

    /// Does this configuration clear its hashmaps at all?
    pub fn clears_up(&self) -> bool {
        !matches!(self.variant, Variant::NoClearUp)
    }

    /// Does this configuration keep Inactive copies (buffer rotation)?
    pub fn rotates(&self) -> bool {
        !matches!(self.variant, Variant::NoRotation | Variant::NoClearUp)
    }

    /// Does this configuration use Long hashmaps?
    pub fn uses_long_maps(&self) -> bool {
        !matches!(self.variant, Variant::NoLongHashmaps)
    }

    /// Validate the configuration, returning a descriptive error for the
    /// first problem found.
    pub fn validate(&self) -> Result<(), FlowDnsError> {
        if self.a_clear_up_interval == SimDuration::ZERO && self.clears_up() {
            return Err(FlowDnsError::Config(
                "a_clear_up_interval must be positive".into(),
            ));
        }
        if self.c_clear_up_interval == SimDuration::ZERO && self.clears_up() {
            return Err(FlowDnsError::Config(
                "c_clear_up_interval must be positive".into(),
            ));
        }
        if self.cname_loop_limit == 0 {
            return Err(FlowDnsError::Config(
                "cname_loop_limit must be at least 1".into(),
            ));
        }
        if self.correlator_shards == 0 {
            return Err(FlowDnsError::Config(format!(
                "correlator_shards must be at least 1: the classic shared-queue pipeline \
                 that 0 selected is gone, use correlator_shards = 1 for a single shard \
                 worker ({MIGRATION_HINT})"
            )));
        }
        for (name, value) in [
            ("write_workers", self.write_workers),
            ("write_queue_capacity", self.write_queue_capacity),
            ("shard_dns_ring_capacity", self.shard_dns_ring_capacity),
            ("shard_flow_ring_capacity", self.shard_flow_ring_capacity),
        ] {
            if value == 0 {
                return Err(FlowDnsError::Config(format!("{name} must be at least 1")));
            }
        }
        if self.trace_sample_every > 0 && self.trace_path.is_none() {
            return Err(FlowDnsError::Config(
                "trace_sample_every requires trace_path".into(),
            ));
        }
        Ok(())
    }

    /// Parse a configuration from `key = value` text. Unknown keys are an
    /// error (they are usually typos); missing keys keep their defaults.
    /// Lines starting with `#` and blank lines are ignored.
    ///
    /// Every key is documented in `docs/CONFIG.md`; the `flowdnsd`
    /// config file feeds its non-ingest lines through this parser.
    ///
    /// # Examples
    ///
    /// ```
    /// use flowdns_core::CorrelatorConfig;
    ///
    /// let cfg = CorrelatorConfig::from_config_text(
    ///     "# deployment overrides\n\
    ///      correlator_shards = 8\n\
    ///      snapshot_path = /var/lib/flowdns/store.fdns\n",
    /// )
    /// .unwrap();
    /// assert_eq!(cfg.correlator_shards, 8);
    /// assert_eq!(cfg.a_clear_up_interval.as_secs(), 3600); // default kept
    /// assert!(CorrelatorConfig::from_config_text("correlator_shard = 4").is_err());
    /// ```
    pub fn from_config_text(text: &str) -> Result<Self, FlowDnsError> {
        let mut cfg = CorrelatorConfig::default();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| {
                FlowDnsError::Config(format!("line {}: expected 'key = value'", lineno + 1))
            })?;
            let key = key.trim();
            let value = value.trim();
            let parse_u64 = |v: &str| {
                v.parse::<u64>().map_err(|_| {
                    FlowDnsError::Config(format!("line {}: '{v}' is not a number", lineno + 1))
                })
            };
            match key {
                "a_clear_up_interval" => {
                    cfg.a_clear_up_interval = SimDuration::from_secs(parse_u64(value)?)
                }
                "c_clear_up_interval" => {
                    cfg.c_clear_up_interval = SimDuration::from_secs(parse_u64(value)?)
                }
                "cname_loop_limit" => cfg.cname_loop_limit = parse_u64(value)? as usize,
                "write_workers" => cfg.write_workers = parse_u64(value)? as usize,
                "write_queue_capacity" => cfg.write_queue_capacity = parse_u64(value)? as usize,
                "variant" => cfg.variant = Variant::parse(value)?,
                "routing_table" => cfg.routing_table = Some(value.to_string()),
                "snapshot_path" => cfg.snapshot_path = Some(value.to_string()),
                "snapshot_interval" => {
                    cfg.snapshot_interval = Duration::from_secs(parse_u64(value)?)
                }
                "correlator_shards" => cfg.correlator_shards = parse_u64(value)? as usize,
                "shard_dns_ring_capacity" => {
                    cfg.shard_dns_ring_capacity = parse_u64(value)? as usize
                }
                "shard_flow_ring_capacity" => {
                    cfg.shard_flow_ring_capacity = parse_u64(value)? as usize
                }
                "trace_sample_every" => cfg.trace_sample_every = parse_u64(value)?,
                "trace_path" => cfg.trace_path = Some(value.to_string()),
                other => {
                    let retired = RETIRED_KEYS.iter().find(|(old, _)| *old == other);
                    let internal = RETIRED_INTERNAL_KEYS.iter().find(|(old, _)| *old == other);
                    return Err(FlowDnsError::Config(match (retired, internal) {
                        (Some((old, replacement)), _) => format!(
                            "line {}: key '{old}' was retired with the classic \
                             FillUp/LookUp pipeline, use '{replacement}' ({MIGRATION_HINT})",
                            lineno + 1
                        ),
                        (None, Some((_, why))) => {
                            format!("line {}: key '{other}' is retired: {why}", lineno + 1)
                        }
                        (None, None) => format!("line {}: unknown key '{other}'", lineno + 1),
                    }));
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = CorrelatorConfig::default();
        assert_eq!(cfg.a_clear_up_interval.as_secs(), 3600);
        assert_eq!(cfg.c_clear_up_interval.as_secs(), 7200);
        assert_eq!(cfg.cname_loop_limit, 6);
        assert_eq!(cfg.variant, Variant::Main);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn variant_switches_drive_effective_settings() {
        assert!(!CorrelatorConfig::for_variant(Variant::NoClearUp).clears_up());
        assert!(!CorrelatorConfig::for_variant(Variant::NoRotation).rotates());
        assert!(!CorrelatorConfig::for_variant(Variant::NoLongHashmaps).uses_long_maps());
        assert!(CorrelatorConfig::for_variant(Variant::Main).rotates());
    }

    #[test]
    fn variant_labels_round_trip() {
        for v in Variant::all() {
            assert_eq!(Variant::parse(v.label()).unwrap(), v);
        }
        assert!(Variant::parse("bogus").is_err());
    }

    #[test]
    fn config_text_parses_and_overrides() {
        let text = "
# FlowDNS deployment at the small ISP
a_clear_up_interval = 1800
cname_loop_limit = 4
variant = NoRotation
write_workers = 2
";
        let cfg = CorrelatorConfig::from_config_text(text).unwrap();
        assert_eq!(cfg.a_clear_up_interval.as_secs(), 1800);
        assert_eq!(cfg.cname_loop_limit, 4);
        assert_eq!(cfg.variant, Variant::NoRotation);
        assert_eq!(cfg.write_workers, 2);
        // untouched keys keep defaults
        assert_eq!(cfg.c_clear_up_interval.as_secs(), 7200);
        assert_eq!(cfg.routing_table, None);
    }

    #[test]
    fn snapshot_keys_are_parsed_with_defaults() {
        let cfg = CorrelatorConfig::default();
        assert_eq!(cfg.snapshot_path, None);
        assert_eq!(cfg.snapshot_interval, Duration::from_secs(300));
        let cfg = CorrelatorConfig::from_config_text(
            "snapshot_path = /var/lib/flowdns/store.fdns\nsnapshot_interval = 60",
        )
        .unwrap();
        assert_eq!(
            cfg.snapshot_path.as_deref(),
            Some("/var/lib/flowdns/store.fdns")
        );
        assert_eq!(cfg.snapshot_interval, Duration::from_secs(60));
        // 0 keeps only the shutdown snapshot.
        let cfg = CorrelatorConfig::from_config_text("snapshot_interval = 0").unwrap();
        assert_eq!(cfg.snapshot_interval, Duration::ZERO);
        assert!(CorrelatorConfig::from_config_text("snapshot_interval = soon").is_err());
    }

    #[test]
    fn trace_keys_are_parsed_and_validated() {
        let cfg = CorrelatorConfig::default();
        assert_eq!(cfg.trace_sample_every, 0);
        assert_eq!(cfg.trace_path, None);
        let cfg = CorrelatorConfig::from_config_text(
            "trace_sample_every = 1024\ntrace_path = /var/lib/flowdns/trace.jsonl",
        )
        .unwrap();
        assert_eq!(cfg.trace_sample_every, 1024);
        assert_eq!(
            cfg.trace_path.as_deref(),
            Some("/var/lib/flowdns/trace.jsonl")
        );
        // Sampling without a file to write to is a config error.
        assert!(CorrelatorConfig::from_config_text("trace_sample_every = 64").is_err());
        // A path alone (sampling off) is fine.
        assert!(CorrelatorConfig::from_config_text("trace_path = /tmp/t.jsonl").is_ok());
    }

    #[test]
    fn shard_keys_are_parsed_and_validated() {
        let cfg = CorrelatorConfig::default();
        // A constant, not the core count: the snapshot layout follows it.
        assert_eq!(cfg.correlator_shards, 4);
        assert_eq!(cfg.shard_dns_ring_capacity, 65_536);
        assert_eq!(cfg.shard_flow_ring_capacity, 262_144);
        let cfg = CorrelatorConfig::from_config_text(
            "correlator_shards = 2\n\
             shard_dns_ring_capacity = 1024\n\
             shard_flow_ring_capacity = 4096",
        )
        .unwrap();
        assert_eq!(cfg.correlator_shards, 2);
        assert_eq!(cfg.shard_dns_ring_capacity, 1024);
        assert_eq!(cfg.shard_flow_ring_capacity, 4096);
        assert!(CorrelatorConfig::from_config_text("shard_dns_ring_capacity = 0").is_err());
        assert!(CorrelatorConfig::from_config_text("shard_flow_ring_capacity = 0").is_err());
    }

    #[test]
    fn zero_shards_is_a_config_error_naming_the_replacement() {
        let err = CorrelatorConfig::from_config_text("correlator_shards = 0").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("correlator_shards = 1"), "{msg}");
        assert!(msg.contains("docs/MIGRATION.md"), "{msg}");
        let cfg = CorrelatorConfig {
            correlator_shards: 0,
            ..CorrelatorConfig::default()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn retired_keys_fail_with_their_replacement_not_unknown_key() {
        for (key, replacement) in [
            ("fillup_workers", "correlator_shards"),
            ("lookup_workers", "correlator_shards"),
            ("fillup_queue_capacity", "shard_dns_ring_capacity"),
            ("lookup_queue_capacity", "shard_flow_ring_capacity"),
        ] {
            let err =
                CorrelatorConfig::from_config_text(&format!("cname_loop_limit = 4\n{key} = 2"))
                    .unwrap_err();
            let msg = err.to_string();
            assert!(msg.contains("line 2"), "{msg}");
            assert!(msg.contains(&format!("'{key}'")), "{msg}");
            assert!(msg.contains(&format!("'{replacement}'")), "{msg}");
            assert!(msg.contains("docs/MIGRATION.md"), "{msg}");
            assert!(!msg.contains("unknown key"), "{msg}");
        }
    }

    #[test]
    fn retired_internal_keys_fail_with_their_reason_not_unknown_key() {
        for (key, reason) in [
            ("map_shards", "single table"),
            ("num_split", "NUM_SPLIT = 10"),
            ("exact_ttl_purge_interval", "OfflineSimulator::exact_ttl"),
        ] {
            let err =
                CorrelatorConfig::from_config_text(&format!("cname_loop_limit = 4\n{key} = 32"))
                    .unwrap_err()
                    .to_string();
            assert!(err.contains("line 2"), "{err}");
            assert!(err.contains(&format!("'{key}' is retired")), "{err}");
            assert!(err.contains(reason), "{err}");
            assert!(err.contains("docs/MIGRATION.md"), "{err}");
            assert!(!err.contains("unknown key"), "{err}");
        }
    }

    #[test]
    fn exact_ttl_variant_names_the_simulator_not_unknown_variant() {
        for label in ["ExactTTL", "exact-ttl"] {
            let err = CorrelatorConfig::from_config_text(&format!("variant = {label}"))
                .unwrap_err()
                .to_string();
            assert!(err.contains("OfflineSimulator::exact_ttl"), "{err}");
            assert!(err.contains("exp_exact_ttl"), "{err}");
            assert!(err.contains("variant = Main"), "{err}");
            assert!(err.contains("docs/MIGRATION.md"), "{err}");
            assert!(!err.contains("unknown variant"), "{err}");
        }
    }

    #[test]
    fn routing_table_key_is_parsed() {
        let cfg =
            CorrelatorConfig::from_config_text("routing_table = /var/lib/flowdns/rib.txt").unwrap();
        assert_eq!(
            cfg.routing_table.as_deref(),
            Some("/var/lib/flowdns/rib.txt")
        );
    }

    #[test]
    fn config_text_rejects_unknown_keys_and_bad_values() {
        assert!(CorrelatorConfig::from_config_text("numsplit = 3").is_err());
        assert!(CorrelatorConfig::from_config_text("cname_loop_limit = many").is_err());
        assert!(CorrelatorConfig::from_config_text("just a line").is_err());
        assert!(CorrelatorConfig::from_config_text("variant = turbo").is_err());
        assert!(CorrelatorConfig::from_config_text("cname_loop_limit = 0").is_err());
    }

    #[test]
    fn validation_catches_zero_values() {
        let cfg = CorrelatorConfig {
            cname_loop_limit: 0,
            ..CorrelatorConfig::default()
        };
        assert!(cfg.validate().is_err());
        let cfg = CorrelatorConfig {
            write_queue_capacity: 0,
            ..CorrelatorConfig::default()
        };
        assert!(cfg.validate().is_err());
        let mut cfg = CorrelatorConfig {
            a_clear_up_interval: SimDuration::ZERO,
            ..CorrelatorConfig::default()
        };
        assert!(cfg.validate().is_err());
        // ... unless the variant never clears up anyway.
        cfg.variant = Variant::NoClearUp;
        cfg.c_clear_up_interval = SimDuration::ZERO;
        assert!(cfg.validate().is_ok());
    }
}
