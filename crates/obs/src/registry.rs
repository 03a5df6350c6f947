//! The metrics registry: named series, registration, and rendering.
//!
//! Every series is a *closure* over state the pipeline already maintains
//! (`counter_fn` / `gauge_fn` / `histogram_fn`). That is what makes the
//! registry the single source of truth: `flowdnsd`'s stderr lines and
//! the `/metrics` exposition both read through
//! [`MetricsRegistry::snapshot`], so they cannot disagree.

use std::collections::BTreeMap;
use std::fmt::Write as FmtWrite;
use std::sync::Mutex;

use crate::metrics::{bucket_upper_bound, HistogramSnapshot};

type CounterFn = Box<dyn Fn() -> u64 + Send + Sync>;
type GaugeFn = Box<dyn Fn() -> f64 + Send + Sync>;
type HistogramFn = Box<dyn Fn() -> HistogramSnapshot + Send + Sync>;

enum Source {
    Counter(CounterFn),
    Gauge(GaugeFn),
    Histogram(HistogramFn),
}

impl Source {
    fn kind(&self) -> &'static str {
        match self {
            Source::Counter(_) => "counter",
            Source::Gauge(_) => "gauge",
            Source::Histogram(_) => "histogram",
        }
    }
}

struct Series {
    name: String,
    help: String,
    labels: Vec<(String, String)>,
    source: Source,
}

/// A registry of named metric series. Registration happens once at
/// startup; scraping and stats reporting read through [`snapshot`],
/// [`render_prometheus`] or [`render_json`].
///
/// [`snapshot`]: MetricsRegistry::snapshot
/// [`render_prometheus`]: MetricsRegistry::render_prometheus
/// [`render_json`]: MetricsRegistry::render_json
#[derive(Default)]
pub struct MetricsRegistry {
    series: Mutex<Vec<Series>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // A panic under the registry lock (a user-supplied gauge closure
        // can run there) must not cascade into every later scrape:
        // recover the guard and keep serving.
        let series = self
            .series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        f.debug_struct("MetricsRegistry")
            .field("series", &series.len())
            .finish()
    }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b':')
        && name.as_bytes().first().is_some_and(|b| !b.is_ascii_digit())
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    fn register(&self, name: &str, help: &str, labels: &[(&str, &str)], source: Source) {
        assert!(valid_name(name), "invalid metric name '{name}'");
        let labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| {
                assert!(valid_name(k), "invalid label name '{k}' on '{name}'");
                (k.to_string(), v.to_string())
            })
            .collect();
        // See Debug::fmt: recover rather than cascade a poisoned lock.
        let mut series = self
            .series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        for existing in series.iter() {
            if existing.name == name {
                assert_eq!(
                    existing.source.kind(),
                    source.kind(),
                    "metric '{name}' registered with two kinds"
                );
                assert_ne!(
                    existing.labels, labels,
                    "metric '{name}' registered twice with identical labels"
                );
            }
        }
        series.push(Series {
            name: name.to_string(),
            help: help.to_string(),
            labels,
            source,
        });
    }

    /// Register a counter read from a closure (typically over an atomic
    /// the pipeline already maintains).
    pub fn counter_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> u64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Counter(Box::new(f)));
    }

    /// Register a gauge read from a closure.
    pub fn gauge_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> f64 + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Gauge(Box::new(f)));
    }

    /// Register a histogram whose merged snapshot comes from a closure
    /// (bridges external histograms that use the same bucket scheme).
    pub fn histogram_fn(
        &self,
        name: &str,
        help: &str,
        labels: &[(&str, &str)],
        f: impl Fn() -> HistogramSnapshot + Send + Sync + 'static,
    ) {
        self.register(name, help, labels, Source::Histogram(Box::new(f)));
    }

    /// Sample every series once, consistently enough for reporting.
    pub fn snapshot(&self) -> RegistrySnapshot {
        // See Debug::fmt: recover rather than cascade a poisoned lock.
        let series = self
            .series
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        RegistrySnapshot {
            series: series
                .iter()
                .map(|s| SampledSeries {
                    name: s.name.clone(),
                    help: s.help.clone(),
                    labels: s.labels.clone(),
                    value: match &s.source {
                        Source::Counter(f) => SampleValue::Counter(f()),
                        Source::Gauge(f) => SampleValue::Gauge(f()),
                        Source::Histogram(f) => SampleValue::Histogram(f()),
                    },
                })
                .collect(),
        }
    }

    /// Render the Prometheus text exposition (format version 0.0.4).
    pub fn render_prometheus(&self) -> String {
        self.snapshot().to_prometheus()
    }

    /// Render the `/stats.json` document.
    pub fn render_json(&self) -> String {
        self.snapshot().to_json()
    }
}

/// One sampled value.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// A monotonic counter.
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(f64),
    /// A merged histogram.
    Histogram(HistogramSnapshot),
}

/// One sampled series: identity plus value.
#[derive(Debug, Clone)]
pub struct SampledSeries {
    /// Metric family name.
    pub name: String,
    /// Help text.
    pub help: String,
    /// Label key/value pairs.
    pub labels: Vec<(String, String)>,
    /// The sampled value.
    pub value: SampleValue,
}

impl SampledSeries {
    fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A point-in-time sample of every registered series, with lookup
/// helpers for reporters (the `flowdnsd` stats lines read these).
#[derive(Debug, Clone, Default)]
pub struct RegistrySnapshot {
    /// Every series, in registration order.
    pub series: Vec<SampledSeries>,
}

impl RegistrySnapshot {
    /// Sum of all counter series with this name (across label sets).
    pub fn counter(&self, name: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Sum of counter series with this name carrying `key = value`.
    pub fn counter_with(&self, name: &str, key: &str, value: &str) -> u64 {
        self.series
            .iter()
            .filter(|s| s.name == name && s.label(key) == Some(value))
            .filter_map(|s| match s.value {
                SampleValue::Counter(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// First gauge with this name, if any.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// Sum of gauge series with this name (e.g. total queue depth over
    /// per-shard gauges).
    pub fn gauge_sum(&self, name: &str) -> f64 {
        self.series
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Sum of gauge series with this name carrying `key = value` (one
    /// stage's queue depth over its per-shard gauges).
    pub fn gauge_sum_with(&self, name: &str, key: &str, value: &str) -> f64 {
        self.series
            .iter()
            .filter(|s| s.name == name && s.label(key) == Some(value))
            .filter_map(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
            .sum()
    }

    /// Gauge with this name carrying `key = value`, if any.
    pub fn gauge_with(&self, name: &str, key: &str, value: &str) -> Option<f64> {
        self.series
            .iter()
            .find(|s| s.name == name && s.label(key) == Some(value))
            .and_then(|s| match s.value {
                SampleValue::Gauge(v) => Some(v),
                _ => None,
            })
    }

    /// First histogram with this name, if any.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.series
            .iter()
            .find(|s| s.name == name)
            .and_then(|s| match &s.value {
                SampleValue::Histogram(h) => Some(h),
                _ => None,
            })
    }

    /// Histogram with this name carrying `key = value`, if any.
    pub fn histogram_with(&self, name: &str, key: &str, value: &str) -> Option<&HistogramSnapshot> {
        self.series
            .iter()
            .find(|s| s.name == name && s.label(key) == Some(value))
            .and_then(|s| match &s.value {
                SampleValue::Histogram(h) => Some(h),
                _ => None,
            })
    }

    /// Render as Prometheus text exposition: `# HELP`/`# TYPE` once per
    /// family, label values escaped, histogram buckets cumulative.
    pub fn to_prometheus(&self) -> String {
        // Group by family name, preserving registration order.
        let mut families: Vec<(&str, Vec<&SampledSeries>)> = Vec::new();
        let mut index: BTreeMap<&str, usize> = BTreeMap::new();
        for s in &self.series {
            match index.get(s.name.as_str()) {
                Some(&i) => families[i].1.push(s),
                None => {
                    index.insert(&s.name, families.len());
                    families.push((&s.name, vec![s]));
                }
            }
        }
        let mut out = String::new();
        for (name, members) in families {
            // Every family is created with one member; `else` is for the
            // linter and for robustness if the grouping above changes.
            let Some(&first) = members.first() else {
                continue;
            };
            let kind = match first.value {
                SampleValue::Counter(_) => "counter",
                SampleValue::Gauge(_) => "gauge",
                SampleValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# HELP {name} {}", escape_help(&first.help));
            let _ = writeln!(out, "# TYPE {name} {kind}");
            for s in members {
                match &s.value {
                    SampleValue::Counter(v) => {
                        let _ = writeln!(out, "{name}{} {v}", label_block(&s.labels, None));
                    }
                    SampleValue::Gauge(v) => {
                        let _ =
                            writeln!(out, "{name}{} {}", label_block(&s.labels, None), fnum(*v));
                    }
                    SampleValue::Histogram(h) => {
                        // Cumulative counts at each *occupied* bucket
                        // bound plus +Inf: any subset of bounds is a
                        // valid exposition because bucket values are
                        // cumulative, and skipping the empty tail keeps
                        // the page compact.
                        let mut cumulative = 0u64;
                        for (i, &bucket) in h.buckets.iter().enumerate() {
                            if bucket == 0 {
                                continue;
                            }
                            cumulative += bucket;
                            let le = bucket_upper_bound(i).to_string();
                            let _ = writeln!(
                                out,
                                "{name}_bucket{} {cumulative}",
                                label_block(&s.labels, Some(&le))
                            );
                        }
                        let _ = writeln!(
                            out,
                            "{name}_bucket{} {cumulative}",
                            label_block(&s.labels, Some("+Inf"))
                        );
                        let _ =
                            writeln!(out, "{name}_sum{} {}", label_block(&s.labels, None), h.sum);
                        let _ = writeln!(
                            out,
                            "{name}_count{} {cumulative}",
                            label_block(&s.labels, None)
                        );
                    }
                }
            }
        }
        out
    }

    /// Render as the `/stats.json` document: one entry per series, with
    /// histograms summarized to count/sum/p50/p99/p999.
    pub fn to_json(&self) -> String {
        let mut entries = Vec::with_capacity(self.series.len());
        for s in &self.series {
            let mut labels = String::new();
            for (i, (k, v)) in s.labels.iter().enumerate() {
                if i > 0 {
                    labels.push_str(", ");
                }
                let _ = write!(labels, "\"{}\": \"{}\"", escape_json(k), escape_json(v));
            }
            let body = match &s.value {
                SampleValue::Counter(v) => format!("\"type\": \"counter\", \"value\": {v}"),
                SampleValue::Gauge(v) => format!("\"type\": \"gauge\", \"value\": {}", fnum(*v)),
                SampleValue::Histogram(h) => format!(
                    "\"type\": \"histogram\", \"count\": {}, \"sum\": {}, \
                     \"p50\": {}, \"p99\": {}, \"p999\": {}",
                    h.count(),
                    h.sum,
                    h.p50(),
                    h.p99(),
                    h.p999()
                ),
            };
            entries.push(format!(
                "    {{\"name\": \"{}\", \"labels\": {{{labels}}}, {body}}}",
                escape_json(&s.name)
            ));
        }
        format!("{{\n  \"metrics\": [\n{}\n  ]\n}}\n", entries.join(",\n"))
    }
}

/// Render a float the exposition can carry: integers without a
/// fractional part, non-finite values as Prometheus spells them.
fn fnum(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_string()
    } else if x.is_infinite() {
        if x > 0.0 { "+Inf" } else { "-Inf" }.to_string()
    } else if x == x.trunc() && x.abs() < 1e15 {
        format!("{x:.0}")
    } else {
        format!("{x}")
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

fn escape_json(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
        .replace('\t', "\\t")
}

/// Format `{k="v",...}` (with the optional `le` bound appended), or an
/// empty string when there are no labels.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    if labels.is_empty() && le.is_none() {
        return String::new();
    }
    let mut out = String::from("{");
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{k}=\"{}\"", escape_label(v));
    }
    if let Some(le) = le {
        if !labels.is_empty() {
            out.push(',');
        }
        let _ = write!(out, "le=\"{le}\"");
    }
    out.push('}');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    /// A single-shard histogram holding `values`.
    fn histogram_of(values: &[u64]) -> Histogram {
        let histogram = Histogram::new(1);
        let recorder = histogram.recorder(0);
        for &v in values {
            recorder.record(v);
        }
        histogram
    }

    /// The golden exposition test: exact expected output for a small
    /// registry covering all three kinds, escaping, and label sets.
    #[test]
    fn golden_prometheus_exposition() {
        let registry = MetricsRegistry::new();
        registry.counter_fn(
            "flowdns_test_flows_total",
            "Flows seen.\nSecond line with a back\\slash.",
            &[("listener", "0")],
            || 42,
        );
        registry.counter_fn(
            "flowdns_test_flows_total",
            "Flows seen.",
            &[("listener", "quo\"te")],
            || 7,
        );
        registry.gauge_fn("flowdns_test_depth", "Queue depth.", &[], || 3.0);
        let h = histogram_of(&[0, 5, 5, 1_000]);
        registry.histogram_fn("flowdns_test_wait_us", "Queue wait.", &[], move || {
            h.snapshot()
        });

        let text = registry.render_prometheus();
        let expected = "\
# HELP flowdns_test_flows_total Flows seen.\\nSecond line with a back\\\\slash.
# TYPE flowdns_test_flows_total counter
flowdns_test_flows_total{listener=\"0\"} 42
flowdns_test_flows_total{listener=\"quo\\\"te\"} 7
# HELP flowdns_test_depth Queue depth.
# TYPE flowdns_test_depth gauge
flowdns_test_depth 3
# HELP flowdns_test_wait_us Queue wait.
# TYPE flowdns_test_wait_us histogram
flowdns_test_wait_us_bucket{le=\"0\"} 1
flowdns_test_wait_us_bucket{le=\"5\"} 3
flowdns_test_wait_us_bucket{le=\"1023\"} 4
flowdns_test_wait_us_bucket{le=\"+Inf\"} 4
flowdns_test_wait_us_sum 1010
flowdns_test_wait_us_count 4
";
        assert_eq!(text, expected);
    }

    #[test]
    fn histogram_buckets_are_cumulative_and_monotone() {
        let registry = MetricsRegistry::new();
        let h = Histogram::new(4);
        for worker in 0..4 {
            let rec = h.recorder(worker);
            for v in [1u64, 10, 100, 1_000, 10_000, 100_000] {
                rec.record(v);
            }
        }
        registry.histogram_fn("h_us", "h", &[], move || h.snapshot());
        let text = registry.render_prometheus();
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines().filter(|l| l.starts_with("h_us_bucket")) {
            let value: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(value >= last, "bucket counts must be cumulative: {line}");
            last = value;
            bucket_lines += 1;
        }
        assert!(bucket_lines >= 6);
        assert_eq!(last, 24);
        assert!(text.contains("h_us_count 24"));
    }

    #[test]
    fn snapshot_lookup_helpers() {
        let registry = MetricsRegistry::new();
        registry.counter_fn("c_total", "c", &[("shard", "0")], || 10);
        registry.counter_fn("c_total", "c", &[("shard", "1")], || 5);
        registry.gauge_fn("g", "g", &[("queue", "fillup"), ("shard", "0")], || 2.0);
        registry.gauge_fn("g", "g", &[("queue", "lookup"), ("shard", "0")], || 3.0);
        registry.gauge_fn("g", "g", &[("queue", "lookup"), ("shard", "1")], || 4.0);
        registry.histogram_fn("h_us", "h", &[], HistogramSnapshot::default);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("c_total"), 15);
        assert_eq!(snap.counter_with("c_total", "shard", "1"), 5);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge_with("g", "queue", "lookup"), Some(3.0));
        assert_eq!(snap.gauge_sum_with("g", "queue", "lookup"), 7.0);
        assert_eq!(snap.gauge_sum("g"), 9.0);
        assert_eq!(snap.histogram("h_us").unwrap().count(), 0);
        assert!(snap.histogram("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn mixed_kind_registration_panics() {
        let registry = MetricsRegistry::new();
        registry.counter_fn("m", "m", &[], || 0);
        registry.gauge_fn("m", "m", &[], || 0.0);
    }

    #[test]
    #[should_panic(expected = "identical labels")]
    fn duplicate_series_registration_panics() {
        let registry = MetricsRegistry::new();
        registry.counter_fn("m", "m", &[("a", "b")], || 0);
        registry.counter_fn("m", "m", &[("a", "b")], || 0);
    }

    #[test]
    fn json_document_lists_every_series() {
        let registry = MetricsRegistry::new();
        registry.counter_fn("c_total", "c", &[("k", "v")], || 2);
        registry.gauge_fn("g", "g", &[], || 1.5);
        let h = histogram_of(&[100]);
        registry.histogram_fn("h_us", "h", &[], move || h.snapshot());
        let json = registry.render_json();
        assert!(json.contains("\"name\": \"c_total\""));
        assert!(json.contains("\"value\": 2"));
        assert!(json.contains("\"k\": \"v\""));
        assert!(json.contains("\"value\": 1.5"));
        assert!(json.contains("\"type\": \"histogram\""));
        assert!(json.contains("\"count\": 1"));
    }
}
