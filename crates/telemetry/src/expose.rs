//! Dual exposition: Prometheus-style text and `serde_json` values.
//!
//! Text format (one sample per line, stable order), each family
//! headed once by the `# HELP` and `# TYPE` lines of its
//! [`InstrumentSpec`]:
//!
//! ```text
//! # HELP live_mark_rollbacks_total Sweeps whose refused shards rolled high-water marks back.
//! # TYPE live_mark_rollbacks_total counter
//! live_mark_rollbacks_total 42
//! # HELP live_shard_commit_ns Whole shard commit latency in ns.
//! # TYPE live_shard_commit_ns summary
//! live_shard_commit_ns{shard="0",quantile="0.5"} 18432
//! live_shard_commit_ns{shard="0",quantile="0.9"} 24576
//! live_shard_commit_ns{shard="0",quantile="0.99"} 30720
//! live_shard_commit_ns_count{shard="0"} 128
//! live_shard_commit_ns_sum{shard="0"} 2359296
//! live_shard_commit_ns_max{shard="0"} 31044
//! ```
//!
//! Counters and gauges are one line; histograms expand to three
//! quantile samples plus `_count` / `_sum` / `_max` and declare
//! `summary`. Help texts, label keys and values are emitted verbatim
//! — they are code-chosen (catalog text, shard indices, source
//! slugs), so no escaping layer is applied; callers must not feed
//! `"`, `\` or newlines into help texts or label values.
//!
//! The JSON form is an object keyed by the rendered series name;
//! histograms become `{count, sum, max, p50, p90, p99}` objects.

use serde_json::{json, Value};

use crate::catalog::InstrumentSpec;
use crate::histogram::HistogramSnapshot;

/// The value side of one registered series at snapshot time.
#[derive(Debug, Clone)]
pub enum MetricValue {
    /// Monotone counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(i64),
    /// Full histogram distribution.
    Histogram(HistogramSnapshot),
}

/// One registered series at snapshot time.
#[derive(Debug, Clone)]
pub struct MetricSnapshot {
    /// The series' instrument family.
    pub spec: &'static InstrumentSpec,
    /// Sorted `(key, value)` label pairs, possibly empty.
    pub labels: Vec<(String, String)>,
    /// The captured value.
    pub value: MetricValue,
}

/// Renders `{k="v",...}` for the label set, with room to append
/// extra pairs (the quantile label); empty input with no extras
/// renders as nothing.
fn label_block(labels: &[(String, String)], extra: Option<(&str, &str)>) -> String {
    let mut pairs: Vec<String> = labels.iter().map(|(k, v)| format!("{k}=\"{v}\"")).collect();
    if let Some((k, v)) = extra {
        pairs.push(format!("{k}=\"{v}\""));
    }
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

/// Renders snapshots in the Prometheus-style text format described
/// in the module docs. A family's series must be adjacent, as
/// [`Registry::snapshot`](crate::Registry::snapshot) orders them.
pub fn render_text(snapshots: &[MetricSnapshot]) -> String {
    let mut out = String::new();
    let mut family = None;
    for snap in snapshots {
        let name = snap.spec.name;
        if family != Some(name) {
            family = Some(name);
            out.push_str(&format!("# HELP {name} {}\n", snap.spec.help));
            let kind = snap.spec.kind.exposition_type();
            out.push_str(&format!("# TYPE {name} {kind}\n"));
        }
        let plain = label_block(&snap.labels, None);
        match &snap.value {
            MetricValue::Counter(v) => {
                out.push_str(&format!("{name}{plain} {v}\n"));
            }
            MetricValue::Gauge(v) => {
                out.push_str(&format!("{name}{plain} {v}\n"));
            }
            MetricValue::Histogram(h) => {
                for (q, v) in [("0.5", h.p50()), ("0.9", h.p90()), ("0.99", h.p99())] {
                    let labels = label_block(&snap.labels, Some(("quantile", q)));
                    out.push_str(&format!("{name}{labels} {v}\n"));
                }
                out.push_str(&format!("{name}_count{plain} {}\n", h.count()));
                out.push_str(&format!("{name}_sum{plain} {}\n", h.sum()));
                out.push_str(&format!("{name}_max{plain} {}\n", h.max()));
            }
        }
    }
    out
}

/// Renders snapshots as one JSON object keyed by rendered series
/// name (`name{labels}`), values as described in the module docs.
pub fn to_json(snapshots: &[MetricSnapshot]) -> Value {
    let mut map = serde_json::Map::new();
    for snap in snapshots {
        let key = format!("{}{}", snap.spec.name, label_block(&snap.labels, None));
        let value = match &snap.value {
            MetricValue::Counter(v) => json!(v),
            MetricValue::Gauge(v) => json!(v),
            MetricValue::Histogram(h) => json!({
                "count": h.count(),
                "sum": h.sum(),
                "max": h.max(),
                "p50": h.p50(),
                "p90": h.p90(),
                "p99": h.p99(),
            }),
        };
        map.insert(key, value);
    }
    Value::Object(map)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{InstrumentKind, CRAWL_FETCH_NS};
    use crate::histogram::Histogram;

    const COMMITS_TOTAL: InstrumentSpec = InstrumentSpec {
        name: "commits_total",
        kind: InstrumentKind::Counter,
        labels: &[],
        help: "Commits.",
    };
    const QUEUE_DEPTH: InstrumentSpec = InstrumentSpec {
        name: "queue_depth",
        kind: InstrumentKind::Gauge,
        labels: &["shard"],
        help: "Queue depth.",
    };
    const COMMIT_NS: InstrumentSpec = InstrumentSpec {
        name: "commit_ns",
        kind: InstrumentKind::Histogram,
        labels: &["shard"],
        help: "Commit latency.",
    };

    fn histogram(values: &[u64]) -> MetricValue {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        MetricValue::Histogram(h.snapshot())
    }

    fn sample_snapshots() -> Vec<MetricSnapshot> {
        vec![
            MetricSnapshot {
                spec: &COMMITS_TOTAL,
                labels: vec![],
                value: MetricValue::Counter(42),
            },
            MetricSnapshot {
                spec: &QUEUE_DEPTH,
                labels: vec![("shard".into(), "1".into())],
                value: MetricValue::Gauge(-3),
            },
            MetricSnapshot {
                spec: &COMMIT_NS,
                labels: vec![("shard".into(), "1".into())],
                value: histogram(&[10, 20, 30]),
            },
        ]
    }

    #[test]
    fn text_format_is_stable() {
        let text = render_text(&sample_snapshots());
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "# HELP commits_total Commits.");
        assert_eq!(lines[1], "# TYPE commits_total counter");
        assert_eq!(lines[2], "commits_total 42");
        assert_eq!(lines[3], "# HELP queue_depth Queue depth.");
        assert_eq!(lines[4], "# TYPE queue_depth gauge");
        assert_eq!(lines[5], "queue_depth{shard=\"1\"} -3");
        assert_eq!(lines[6], "# HELP commit_ns Commit latency.");
        assert_eq!(lines[7], "# TYPE commit_ns summary");
        assert!(lines[8].starts_with("commit_ns{shard=\"1\",quantile=\"0.5\"} "));
        assert!(lines[10].starts_with("commit_ns{shard=\"1\",quantile=\"0.99\"} "));
        assert_eq!(lines[11], "commit_ns_count{shard=\"1\"} 3");
        assert_eq!(lines[12], "commit_ns_sum{shard=\"1\"} 60");
        assert_eq!(lines[13], "commit_ns_max{shard=\"1\"} 30");
        assert_eq!(lines.len(), 14);
    }

    #[test]
    fn a_family_with_two_label_sets_gets_one_help_type_pair() {
        let text = render_text(&[
            MetricSnapshot {
                spec: &CRAWL_FETCH_NS,
                labels: vec![],
                value: histogram(&[5]),
            },
            MetricSnapshot {
                spec: &CRAWL_FETCH_NS,
                labels: vec![("source".into(), "7".into())],
                value: histogram(&[5]),
            },
        ]);
        let headers: Vec<&str> = text.lines().filter(|l| l.starts_with('#')).collect();
        let help = format!("# HELP crawl_fetch_ns {}", CRAWL_FETCH_NS.help);
        assert_eq!(headers, [help.as_str(), "# TYPE crawl_fetch_ns summary"]);
        assert!(text.contains("crawl_fetch_ns_count 1\n"));
        assert!(text.contains("crawl_fetch_ns_count{source=\"7\"} 1\n"));
    }

    #[test]
    fn json_format_carries_distribution_summary() {
        let value = to_json(&sample_snapshots());
        assert_eq!(value.get("commits_total"), Some(&serde_json::json!(42)));
        assert_eq!(
            value.get("queue_depth{shard=\"1\"}"),
            Some(&serde_json::json!(-3))
        );
        let hist = value.get("commit_ns{shard=\"1\"}").cloned().unwrap();
        assert_eq!(hist.get("count"), Some(&serde_json::json!(3)));
        assert_eq!(hist.get("sum"), Some(&serde_json::json!(60)));
        assert_eq!(hist.get("max"), Some(&serde_json::json!(30)));
    }
}
