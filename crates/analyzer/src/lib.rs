//! `flowdns-analyzer`: a repo-native static-analysis pass that keeps the
//! FlowDNS lock-free hot path honest. It lexes the workspace with its
//! own minimal Rust lexer (no crates.io in this environment) and runs
//! five rules over the token stream:
//!
//! 1. `undocumented-unsafe` — every `unsafe` needs a `// SAFETY:` comment
//! 2. `hot-path-lock` — no locks or per-record allocation in declared
//!    hot-path functions
//! 3. `unjustified-relaxed` — relaxed atomic stores need an
//!    `// ordering:` justification; Release-store/Relaxed-load pairs on
//!    the same field are flagged
//! 4. `panic-free-daemon` — no panicking constructs in daemon threads
//! 5. `doc-drift` — metric names ↔ `docs/OBSERVABILITY.md` and config
//!    keys ↔ `docs/CONFIG.md` + `examples/flowdnsd.conf`, both directions
//!
//! Each rule has a TOML allowlist (see `crates/analyzer/allowlists/`);
//! entries require a written reason and go stale loudly. The catalogue
//! of invariants and their history lives in `docs/INVARIANTS.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allowlist;
pub mod drift;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod toml;

use report::Finding;
use source::SourceFile;
use std::path::{Path, PathBuf};

/// Rule 1 ID.
pub const RULE_UNSAFE: &str = "undocumented-unsafe";
/// Rule 2 ID.
pub const RULE_HOT_PATH: &str = "hot-path-lock";
/// Rule 3 ID.
pub const RULE_RELAXED: &str = "unjustified-relaxed";
/// Rule 4 ID.
pub const RULE_PANIC: &str = "panic-free-daemon";
/// Rule 5 ID.
pub const RULE_DRIFT: &str = "doc-drift";
/// Pseudo-rule for allowlist entries that no longer match anything.
pub const RULE_STALE_ALLOWLIST: &str = "stale-allowlist";
/// Pseudo-rule for malformed allowlist entries (bad TOML, empty reason).
pub const RULE_INVALID_ALLOWLIST: &str = "invalid-allowlist";

/// The five allowlistable rules.
pub const ALL_RULES: [&str; 5] = [
    RULE_UNSAFE,
    RULE_HOT_PATH,
    RULE_RELAXED,
    RULE_PANIC,
    RULE_DRIFT,
];

/// A file-scoped rule target; `functions` empty means the whole file.
#[derive(Debug, Clone, Default)]
pub struct ScopeSpec {
    /// Workspace-relative path (forward slashes).
    pub path: String,
    /// Function names inside the file; empty = whole file.
    pub functions: Vec<String>,
}

/// One config-key source file for `doc-drift`. By default its keys are
/// checked against the global `[docs]` config doc and example conf; a
/// source may instead name its own doc (and optionally its own example
/// file) — e.g. the soak harness documents its keys in
/// `docs/WORKLOADS.md`, not `docs/CONFIG.md`, and ships no example
/// conf. When either override is present, only the named targets are
/// checked.
#[derive(Debug, Clone, Default)]
pub struct ConfigSourceSpec {
    /// Workspace-relative path of the source file.
    pub path: String,
    /// Override doc holding this source's key table.
    pub doc: Option<String>,
    /// Override example config file.
    pub example_conf: Option<String>,
}

/// What to scan and which scopes each rule applies to.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workspace root all relative paths resolve against.
    pub root: PathBuf,
    /// Directories (relative to root) to walk for `.rs` files.
    pub scan_roots: Vec<String>,
    /// Directory *names* skipped anywhere in the walk.
    pub exclude_dirs: Vec<String>,
    /// Declared hot-path scopes for `hot-path-lock`.
    pub hot_paths: Vec<ScopeSpec>,
    /// Files checked by `panic-free-daemon` (whole-file granularity).
    pub daemon_files: Vec<String>,
    /// Files whose `match key { ... }` arms define config keys.
    pub config_sources: Vec<ConfigSourceSpec>,
    /// Path to the metric inventory doc, if drift-checking metrics.
    pub observability_doc: Option<String>,
    /// Path to the config-key doc, if drift-checking config keys.
    pub config_doc: Option<String>,
    /// Path to the example config file.
    pub example_conf: Option<String>,
    /// Directory holding `<rule>.toml` allowlists.
    pub allowlist_dir: Option<String>,
}

impl Config {
    /// An empty config rooted at `root` (tests build on this).
    pub fn bare(root: PathBuf) -> Config {
        Config {
            root,
            scan_roots: vec![".".to_string()],
            exclude_dirs: Vec::new(),
            hot_paths: Vec::new(),
            daemon_files: Vec::new(),
            config_sources: Vec::new(),
            observability_doc: None,
            config_doc: None,
            example_conf: None,
            allowlist_dir: None,
        }
    }

    /// Load scopes from an `analyzer.toml` (see the one shipped in
    /// `crates/analyzer/` for the format).
    pub fn from_toml(root: PathBuf, toml_rel: &str) -> Result<Config, String> {
        let path = root.join(toml_rel);
        let src = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let tables = toml::parse(&src, toml_rel)?;
        let mut config = Config::bare(root);
        config.scan_roots.clear();
        for table in tables {
            let get = |k: &str| table.entries.get(k).and_then(|v| v.as_str());
            let get_list = |k: &str| {
                table
                    .entries
                    .get(k)
                    .map(|v| v.as_list())
                    .unwrap_or_default()
            };
            match table.name.as_str() {
                "scan" => {
                    config.scan_roots = get_list("roots");
                    config.exclude_dirs = get_list("exclude_dirs");
                }
                "hot_path" => config.hot_paths.push(ScopeSpec {
                    path: get("path")
                        .ok_or_else(|| {
                            format!("{toml_rel}:{}: [[hot_path]] needs `path`", table.line)
                        })?
                        .to_string(),
                    functions: get_list("functions"),
                }),
                "daemon" => config.daemon_files.push(
                    get("path")
                        .ok_or_else(|| {
                            format!("{toml_rel}:{}: [[daemon]] needs `path`", table.line)
                        })?
                        .to_string(),
                ),
                "config_source" => config.config_sources.push(ConfigSourceSpec {
                    path: get("path")
                        .ok_or_else(|| {
                            format!("{toml_rel}:{}: [[config_source]] needs `path`", table.line)
                        })?
                        .to_string(),
                    doc: get("doc").map(str::to_string),
                    example_conf: get("example_conf").map(str::to_string),
                }),
                "docs" => {
                    config.observability_doc = get("observability").map(str::to_string);
                    config.config_doc = get("config").map(str::to_string);
                    config.example_conf = get("example_conf").map(str::to_string);
                }
                "allowlists" => {
                    config.allowlist_dir = get("dir").map(str::to_string);
                }
                other => {
                    return Err(format!(
                        "{toml_rel}:{}: unknown table `[{other}]`",
                        table.line
                    ));
                }
            }
        }
        if config.scan_roots.is_empty() {
            return Err(format!("{toml_rel}: [scan] roots must not be empty"));
        }
        Ok(config)
    }
}

/// Result of one analyzer run.
#[derive(Debug)]
pub struct AnalysisReport {
    /// Findings after allowlisting, in canonical order.
    pub findings: Vec<Finding>,
    /// Number of `.rs` files lexed.
    pub files_scanned: usize,
}

/// Run all rules over the configured tree.
pub fn analyze(config: &Config) -> Result<AnalysisReport, String> {
    let mut rs_files = Vec::new();
    for scan_root in &config.scan_roots {
        let dir = config.root.join(scan_root);
        if dir.is_dir() {
            collect_rs(&dir, &config.root, &config.exclude_dirs, &mut rs_files)?;
        }
    }
    rs_files.sort();
    rs_files.dedup();

    let mut files = Vec::with_capacity(rs_files.len());
    for rel in &rs_files {
        let src = std::fs::read_to_string(config.root.join(rel))
            .map_err(|e| format!("cannot read {rel}: {e}"))?;
        files.push(SourceFile::new(rel.clone(), src.as_str()));
    }

    let mut findings = Vec::new();
    for file in &files {
        findings.extend(rules::undocumented_unsafe(file));
        findings.extend(rules::unjustified_relaxed(file));
        if let Some(spec) = config.hot_paths.iter().find(|s| s.path == file.rel_path) {
            findings.extend(rules::hot_path_lock(file, &spec.functions));
        }
        if config.daemon_files.contains(&file.rel_path) {
            findings.extend(rules::panic_free(file));
        }
    }

    let read_doc = |rel: &Option<String>| -> Result<Option<(String, String)>, String> {
        match rel {
            None => Ok(None),
            Some(rel) => {
                let text = std::fs::read_to_string(config.root.join(rel))
                    .map_err(|e| format!("cannot read {rel}: {e}"))?;
                Ok(Some((rel.clone(), text)))
            }
        }
    };
    // Group the config sources by the doc/example pair their keys are
    // checked against: sources with an override form their own group
    // (only the named targets are checked); the rest share the global
    // `[docs]` pair.
    let mut config_groups: Vec<drift::ConfigDriftGroup> = Vec::new();
    for spec in &config.config_sources {
        let has_override = spec.doc.is_some() || spec.example_conf.is_some();
        let (doc, conf) = if has_override {
            (read_doc(&spec.doc)?, read_doc(&spec.example_conf)?)
        } else {
            (
                read_doc(&config.config_doc)?,
                read_doc(&config.example_conf)?,
            )
        };
        let same_pair = |group: &&mut drift::ConfigDriftGroup| {
            group.config_doc.as_ref().map(|(p, _)| p) == doc.as_ref().map(|(p, _)| p)
                && group.example_conf.as_ref().map(|(p, _)| p) == conf.as_ref().map(|(p, _)| p)
        };
        match config_groups.iter_mut().find(same_pair) {
            Some(group) => group.sources.push(spec.path.clone()),
            None => config_groups.push(drift::ConfigDriftGroup {
                sources: vec![spec.path.clone()],
                config_doc: doc,
                example_conf: conf,
            }),
        }
    }
    let inputs = drift::DriftInputs {
        files: &files,
        config_groups: &config_groups,
        observability_doc: read_doc(&config.observability_doc)?,
    };
    findings.extend(drift::doc_drift(&inputs));

    if let Some(dir) = &config.allowlist_dir {
        let (lists, mut invalid) = allowlist::Allowlists::load(&config.root, dir, &ALL_RULES);
        findings = lists.apply(findings);
        findings.append(&mut invalid);
    }

    report::sort_findings(&mut findings);
    // Two pattern hits on one line (e.g. `[name[0], name[1]]`) carry no
    // extra information; report each (file, line, rule, message) once.
    findings.dedup();
    Ok(AnalysisReport {
        findings,
        files_scanned: files.len(),
    })
}

fn collect_rs(
    dir: &Path,
    root: &Path,
    exclude_dirs: &[String],
    out: &mut Vec<String>,
) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("walk error under {}: {e}", dir.display()))?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name.starts_with('.') || exclude_dirs.iter().any(|d| d == name.as_ref()) {
                continue;
            }
            collect_rs(&path, root, exclude_dirs, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .map_err(|_| format!("{} escapes the root", path.display()))?;
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}
