//! The metrics registry of the one-thread simulation.
//!
//! Registration (name → handle) borrows the registry's map; the returned
//! [`Counter`]/[`Gauge`]/[`Histogram`] handles are `Rc`'d cells, so every
//! update afterwards is a plain load and store with no lookup and no
//! allocation. Handles registered twice under the same name and label
//! resolve to the *same* cells, which lets independent components share a
//! metric without coordinating. The handles are neither `Send` nor
//! `Sync`: the compiler, not a lock, keeps them on one thread.
//!
//! [`Registry::snapshot`] freezes the registry into a name-sorted
//! [`Snapshot`] whose JSON and Prometheus renderings are byte-stable for
//! a given set of metric values — the property the golden-file tests and
//! the trace-determinism contract (DESIGN.md §11) rely on.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// One metric's identity: name plus an optional `key="value"` label.
type MetricKey = (String, Option<(String, String)>);

#[derive(Debug)]
enum Entry {
    Counter {
        help: String,
        cell: Rc<Cell<u64>>,
    },
    Gauge {
        help: String,
        cell: Rc<Cell<i64>>,
    },
    Histogram {
        help: String,
        cell: Rc<HistogramCell>,
    },
}

/// A monotonic counter handle.
#[derive(Debug, Clone)]
pub struct Counter {
    cell: Rc<Cell<u64>>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.set(self.cell.get().wrapping_add(n));
    }

    /// Overwrites the value — used when absorbing an externally
    /// accumulated counter struct at snapshot time (see
    /// [`metric_struct!`](crate::metric_struct)).
    pub fn set(&self, v: u64) {
        self.cell.set(v);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.get()
    }
}

/// A gauge handle: a value that can move both ways.
#[derive(Debug, Clone)]
pub struct Gauge {
    cell: Rc<Cell<i64>>,
}

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.cell.set(v);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.cell.set(self.cell.get().wrapping_add(delta));
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.cell.get()
    }
}

#[derive(Debug)]
struct HistogramCell {
    /// Inclusive upper bounds of the finite buckets, strictly increasing.
    bounds: Vec<u64>,
    /// One count per finite bucket plus the overflow (+Inf) bucket.
    counts: Vec<Cell<u64>>,
    sum: Cell<u64>,
    count: Cell<u64>,
    max: Cell<u64>,
}

/// A fixed-bucket histogram handle.
#[derive(Debug, Clone)]
pub struct Histogram {
    cell: Rc<HistogramCell>,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, v: u64) {
        let idx = self
            .cell
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.cell.bounds.len());
        let cell = &self.cell;
        cell.counts[idx].set(cell.counts[idx].get() + 1);
        cell.sum.set(cell.sum.get().wrapping_add(v));
        cell.count.set(cell.count.get() + 1);
        cell.max.set(cell.max.get().max(v));
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.cell.count.get()
    }

    /// Sum of all observations.
    pub fn sum(&self) -> u64 {
        self.cell.sum.get()
    }

    /// Largest observation (0 when empty).
    pub fn max(&self) -> u64 {
        self.cell.max.get()
    }

    /// Estimates the `q`-quantile (`q` is clamped into `[0.0, 1.0]`).
    ///
    /// The interpolation rule: the target rank is
    /// `max(1, ceil(q * count))`, counted from the smallest bucket.
    /// Inside the finite bucket holding that rank the estimate moves
    /// linearly from the bucket's lower bound (exclusive, 0 for the
    /// first bucket) to its inclusive upper bound, proportional to the
    /// rank's position among the bucket's observations — so `q = 0.0`
    /// reports the first bucket's upper bound scaled by `1/n` of its
    /// width, not 0. Edge cases:
    ///
    /// * empty histogram → `None` for every `q`;
    /// * rank in the overflow (+Inf) bucket → the observed
    ///   [`Histogram::max`], the only upper bound a fixed-bucket
    ///   histogram actually knows;
    /// * a single-observation bucket reports that bucket's upper bound
    ///   (the interpolation fraction is `1/1`).
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for (idx, c) in self.cell.counts.iter().enumerate() {
            let in_bucket = c.get();
            if cumulative + in_bucket >= target {
                if idx >= self.cell.bounds.len() {
                    return Some(self.max());
                }
                let lo = if idx == 0 {
                    0
                } else {
                    self.cell.bounds[idx - 1]
                };
                let hi = self.cell.bounds[idx];
                let into = (target - cumulative) as f64 / in_bucket as f64;
                return Some(lo + ((hi - lo) as f64 * into).round() as u64);
            }
            cumulative += in_bucket;
        }
        Some(self.max())
    }
}

/// The shared metrics registry. Cloning yields a handle to the same
/// metric set.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    metrics: Rc<RefCell<BTreeMap<MetricKey, Entry>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or retrieves) an unlabeled counter.
    pub fn counter(&self, name: &str, help: &str) -> Counter {
        self.counter_labeled(name, help, None)
    }

    /// Registers (or retrieves) a counter carrying one `key="value"`
    /// label — the same name may be registered under several labels
    /// (e.g. one per client).
    ///
    /// # Panics
    ///
    /// Panics if the name+label is already registered as a different
    /// metric kind.
    pub fn counter_labeled(&self, name: &str, help: &str, label: Option<(&str, &str)>) -> Counter {
        let key = make_key(name, label);
        let mut metrics = self.metrics.borrow_mut();
        let entry = metrics.entry(key).or_insert_with(|| Entry::Counter {
            help: help.to_string(),
            cell: Rc::default(),
        });
        match entry {
            Entry::Counter { cell, .. } => Counter { cell: cell.clone() },
            _ => panic!("metric {name} already registered as a non-counter"),
        }
    }

    /// Registers (or retrieves) an unlabeled gauge.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered as a different kind.
    pub fn gauge(&self, name: &str, help: &str) -> Gauge {
        self.gauge_labeled(name, help, None)
    }

    /// Registers (or retrieves) a gauge carrying one `key="value"`
    /// label — the same name may be registered under several labels
    /// (e.g. one per client).
    ///
    /// # Panics
    ///
    /// Panics if the name+label is already registered as a different
    /// metric kind.
    pub fn gauge_labeled(&self, name: &str, help: &str, label: Option<(&str, &str)>) -> Gauge {
        let key = make_key(name, label);
        let mut metrics = self.metrics.borrow_mut();
        let entry = metrics.entry(key).or_insert_with(|| Entry::Gauge {
            help: help.to_string(),
            cell: Rc::default(),
        });
        match entry {
            Entry::Gauge { cell, .. } => Gauge { cell: cell.clone() },
            _ => panic!("metric {name} already registered as a non-gauge"),
        }
    }

    /// Registers (or retrieves) a fixed-bucket histogram. `bounds` are
    /// the inclusive upper bounds of the finite buckets, strictly
    /// increasing; an overflow (+Inf) bucket is added automatically.
    /// When the name is already registered, the existing histogram is
    /// returned and `bounds` is ignored.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing, or if the
    /// name is already registered as a different kind.
    pub fn histogram(&self, name: &str, help: &str, bounds: &[u64]) -> Histogram {
        self.histogram_labeled(name, help, bounds, None)
    }

    /// Registers (or retrieves) a histogram carrying one `key="value"`
    /// label — the same name may be registered under several labels
    /// (e.g. one per pipeline stage). Same bound rules as
    /// [`Registry::histogram`].
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing, or if the
    /// name+label is already registered as a different kind.
    pub fn histogram_labeled(
        &self,
        name: &str,
        help: &str,
        bounds: &[u64],
        label: Option<(&str, &str)>,
    ) -> Histogram {
        assert!(!bounds.is_empty(), "histogram {name} needs buckets");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram {name} bounds must be strictly increasing"
        );
        let key = make_key(name, label);
        let mut metrics = self.metrics.borrow_mut();
        let entry = metrics.entry(key).or_insert_with(|| Entry::Histogram {
            help: help.to_string(),
            cell: Rc::new(HistogramCell {
                bounds: bounds.to_vec(),
                counts: vec![Cell::new(0); bounds.len() + 1],
                sum: Cell::new(0),
                count: Cell::new(0),
                max: Cell::new(0),
            }),
        });
        match entry {
            Entry::Histogram { cell, .. } => Histogram { cell: cell.clone() },
            _ => panic!("metric {name} already registered as a non-histogram"),
        }
    }

    /// Freezes every metric into a name-sorted snapshot.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.borrow();
        let entries = metrics
            .iter()
            .map(|((name, label), entry)| {
                let value = match entry {
                    Entry::Counter { cell, .. } => MetricValue::Counter(cell.get()),
                    Entry::Gauge { cell, .. } => MetricValue::Gauge(cell.get()),
                    Entry::Histogram { cell, .. } => MetricValue::Histogram {
                        bounds: cell.bounds.clone(),
                        counts: cell.counts.iter().map(Cell::get).collect(),
                        sum: cell.sum.get(),
                        count: cell.count.get(),
                        max: cell.max.get(),
                    },
                };
                let help = match entry {
                    Entry::Counter { help, .. }
                    | Entry::Gauge { help, .. }
                    | Entry::Histogram { help, .. } => help.clone(),
                };
                SnapshotEntry {
                    name: name.clone(),
                    label: label.clone(),
                    help,
                    value,
                }
            })
            .collect();
        Snapshot { entries }
    }
}

fn make_key(name: &str, label: Option<(&str, &str)>) -> MetricKey {
    (
        name.to_string(),
        label.map(|(k, v)| (k.to_string(), v.to_string())),
    )
}

/// One frozen metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A monotonic counter.
    Counter(u64),
    /// A point-in-time gauge.
    Gauge(i64),
    /// A fixed-bucket histogram; `counts` has one entry per finite bound
    /// plus the overflow bucket.
    Histogram {
        /// Inclusive upper bounds of the finite buckets.
        bounds: Vec<u64>,
        /// Per-bucket (non-cumulative) observation counts.
        counts: Vec<u64>,
        /// Sum of all observations.
        sum: u64,
        /// Number of observations.
        count: u64,
        /// Largest observation (0 when empty).
        max: u64,
    },
}

#[derive(Debug, Clone)]
struct SnapshotEntry {
    name: String,
    label: Option<(String, String)>,
    help: String,
    value: MetricValue,
}

/// A frozen, name-sorted view of a [`Registry`], renderable as JSON or
/// Prometheus text exposition. Both renderings are byte-stable for a
/// given set of metric values.
#[derive(Debug, Clone)]
pub struct Snapshot {
    entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    /// Number of metrics in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks a metric up by name (first label match wins).
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// Looks a labeled metric up by name and label value.
    pub fn get_labeled(&self, name: &str, label_value: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name && e.label.as_ref().is_some_and(|(_, v)| v == label_value))
            .map(|e| &e.value)
    }

    /// Renders the snapshot as a deterministic JSON document: one entry
    /// per metric, sorted by name then label.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"metrics\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("\n    {");
            let _ = write!(out, "\"name\": {}", json_str(&e.name));
            if let Some((k, v)) = &e.label {
                let _ = write!(out, ", \"labels\": {{{}: {}}}", json_str(k), json_str(v));
            }
            if !e.help.is_empty() {
                let _ = write!(out, ", \"help\": {}", json_str(&e.help));
            }
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, ", \"type\": \"counter\", \"value\": {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, ", \"type\": \"gauge\", \"value\": {v}");
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                    max,
                } => {
                    out.push_str(", \"type\": \"histogram\", \"buckets\": [");
                    for (j, (b, c)) in bounds.iter().zip(counts.iter()).enumerate() {
                        if j > 0 {
                            out.push_str(", ");
                        }
                        let _ = write!(out, "{{\"le\": {b}, \"count\": {c}}}");
                    }
                    if !bounds.is_empty() {
                        out.push_str(", ");
                    }
                    let _ = write!(
                        out,
                        "{{\"le\": \"+Inf\", \"count\": {}}}]",
                        counts.last().copied().unwrap_or(0)
                    );
                    let _ = write!(out, ", \"sum\": {sum}, \"count\": {count}, \"max\": {max}");
                }
            }
            out.push('}');
        }
        out.push_str("\n  ]\n}\n");
        out
    }

    /// Renders the snapshot in the Prometheus text exposition format.
    /// `# HELP`/`# TYPE` headers are emitted once per metric name;
    /// histograms expand to cumulative `_bucket{le=...}` series plus
    /// `_sum`, `_count`, and `_max` lines.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut last_header: Option<&str> = None;
        for e in &self.entries {
            let kind = match &e.value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram { .. } => "histogram",
            };
            if last_header != Some(e.name.as_str()) {
                if !e.help.is_empty() {
                    let _ = writeln!(out, "# HELP {} {}", e.name, e.help);
                }
                let _ = writeln!(out, "# TYPE {} {}", e.name, kind);
                last_header = Some(e.name.as_str());
            }
            let label = |extra: Option<(&str, String)>| -> String {
                let mut parts = Vec::new();
                if let Some((k, v)) = &e.label {
                    parts.push(format!("{k}=\"{}\"", prom_label_value(v)));
                }
                if let Some((k, v)) = extra {
                    parts.push(format!("{k}=\"{}\"", prom_label_value(&v)));
                }
                if parts.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", parts.join(","))
                }
            };
            match &e.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "{}{} {v}", e.name, label(None));
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "{}{} {v}", e.name, label(None));
                }
                MetricValue::Histogram {
                    bounds,
                    counts,
                    sum,
                    count,
                    max,
                } => {
                    let mut cumulative = 0u64;
                    for (b, c) in bounds.iter().zip(counts.iter()) {
                        cumulative += c;
                        let _ = writeln!(
                            out,
                            "{}_bucket{} {cumulative}",
                            e.name,
                            label(Some(("le", b.to_string())))
                        );
                    }
                    let _ = writeln!(
                        out,
                        "{}_bucket{} {count}",
                        e.name,
                        label(Some(("le", "+Inf".to_string())))
                    );
                    let _ = writeln!(out, "{}_sum{} {sum}", e.name, label(None));
                    let _ = writeln!(out, "{}_count{} {count}", e.name, label(None));
                    let _ = writeln!(out, "{}_max{} {max}", e.name, label(None));
                }
            }
        }
        out
    }
}

/// Escapes a label value for the Prometheus text exposition format: in
/// quoted label values, backslash, double quote, and line feed must be
/// written `\\`, `\"`, and `\n` respectively (any other byte passes
/// through verbatim). Without this, a path or client label containing
/// one of those characters would break the exposition line.
fn prom_label_value(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

/// Escapes a string into a JSON string literal (quotes included).
/// Shared with the span profiler's Chrome trace export.
pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_shared_by_name() {
        let reg = Registry::new();
        let a = reg.counter("ops_total", "operations");
        let b = reg.counter("ops_total", "ignored on re-register");
        a.inc();
        b.add(2);
        assert_eq!(a.get(), 3);
        match reg.snapshot().get("ops_total") {
            Some(MetricValue::Counter(3)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn labels_keep_series_separate() {
        let reg = Registry::new();
        reg.counter_labeled("bytes_up", "", Some(("client", "0")))
            .add(10);
        reg.counter_labeled("bytes_up", "", Some(("client", "1")))
            .add(20);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get_labeled("bytes_up", "0"),
            Some(&MetricValue::Counter(10))
        );
        assert_eq!(
            snap.get_labeled("bytes_up", "1"),
            Some(&MetricValue::Counter(20))
        );
    }

    #[test]
    fn gauge_moves_both_ways() {
        let reg = Registry::new();
        let g = reg.gauge("queue_depth", "nodes queued");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_and_max() {
        let reg = Registry::new();
        let h = reg.histogram("delay_ms", "backoff delays", &[10, 100, 1000]);
        for v in [5, 50, 500, 5000, 7] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 5562);
        assert_eq!(h.max(), 5000);
        match reg.snapshot().get("delay_ms") {
            Some(MetricValue::Histogram { counts, .. }) => {
                assert_eq!(counts, &vec![2, 1, 1, 1]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn labeled_gauges_keep_series_separate() {
        let reg = Registry::new();
        reg.gauge_labeled("sync_queue_payload_bytes", "", Some(("client", "1")))
            .set(3);
        reg.gauge_labeled("sync_queue_payload_bytes", "", Some(("client", "2")))
            .set(7);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get_labeled("sync_queue_payload_bytes", "1"),
            Some(&MetricValue::Gauge(3))
        );
        assert_eq!(
            snap.get_labeled("sync_queue_payload_bytes", "2"),
            Some(&MetricValue::Gauge(7))
        );
    }

    #[test]
    fn quantiles_interpolate_within_buckets() {
        let reg = Registry::new();
        let h = reg.histogram("lat", "", &[100, 200, 400]);
        assert_eq!(h.quantile(0.5), None, "empty histogram has no quantiles");
        for v in [50, 150, 250, 350, 999] {
            h.observe(v);
        }
        // Rank 3 of 5 lands in the (200, 400] bucket, halfway through it.
        assert_eq!(h.quantile(0.5), Some(300));
        // The tail lives in the overflow bucket: report the observed max.
        assert_eq!(h.quantile(0.99), Some(999));
        // Rank 1 interpolates inside the first bucket.
        assert_eq!(h.quantile(0.0), Some(100));
    }

    #[test]
    fn quantile_edge_cases() {
        let reg = Registry::new();
        // Empty: no quantile at any q, including the extremes.
        let empty = reg.histogram("empty", "", &[10]);
        for q in [0.0, 0.5, 1.0] {
            assert_eq!(empty.quantile(q), None);
        }
        // Every observation in one finite bucket: all quantiles
        // interpolate inside it and q=1.0 reports its upper bound.
        let single = reg.histogram("single", "", &[100, 200]);
        for _ in 0..4 {
            single.observe(150);
        }
        assert_eq!(single.quantile(0.0), Some(125)); // rank 1 of 4: 1/4 into (100,200]
        assert_eq!(single.quantile(0.5), Some(150));
        assert_eq!(single.quantile(1.0), Some(200));
        // One observation: rank 1 is the whole bucket, so every q
        // reports the bucket's upper bound.
        let one = reg.histogram("one", "", &[50]);
        one.observe(3);
        assert_eq!(one.quantile(0.0), Some(50));
        assert_eq!(one.quantile(1.0), Some(50));
        // Everything in the overflow bucket: the observed max is the
        // only honest answer at any q.
        let over = reg.histogram("over", "", &[10]);
        over.observe(500);
        over.observe(900);
        assert_eq!(over.quantile(0.0), Some(900));
        assert_eq!(over.quantile(0.5), Some(900));
        assert_eq!(over.quantile(1.0), Some(900));
        // Out-of-range q clamps rather than panicking.
        assert_eq!(over.quantile(-3.0), Some(900));
        assert_eq!(over.quantile(7.0), Some(900));
    }

    #[test]
    fn prometheus_label_values_are_escaped() {
        let reg = Registry::new();
        reg.counter_labeled("by_path", "", Some(("path", "/a\"b\\c\nd")))
            .inc();
        let prom = reg.snapshot().to_prometheus();
        assert!(
            prom.contains("by_path{path=\"/a\\\"b\\\\c\\nd\"} 1"),
            "{prom}"
        );
        // The line must stay a single exposition line: the raw newline
        // may not survive into the output.
        let line = prom.lines().find(|l| l.starts_with("by_path{")).unwrap();
        assert!(line.ends_with("} 1"), "{line}");
        // Histograms escape the shared label on every series they expand to.
        let h = reg.histogram_labeled("lat_ms", "", &[10], Some(("op", "up\"load")));
        h.observe(5);
        let prom = reg.snapshot().to_prometheus();
        assert!(
            prom.contains("lat_ms_bucket{op=\"up\\\"load\",le=\"10\"} 1"),
            "{prom}"
        );
        assert!(prom.contains("lat_ms_sum{op=\"up\\\"load\"} 5"), "{prom}");
    }

    #[test]
    fn labeled_histograms_keep_series_separate() {
        let reg = Registry::new();
        reg.histogram_labeled("stage_ms", "", &[10, 100], Some(("stage", "encode")))
            .observe(5);
        reg.histogram_labeled("stage_ms", "", &[10, 100], Some(("stage", "upload")))
            .observe(50);
        let snap = reg.snapshot();
        match snap.get_labeled("stage_ms", "encode") {
            Some(MetricValue::Histogram { counts, .. }) => assert_eq!(counts, &vec![1, 0, 0]),
            other => panic!("unexpected {other:?}"),
        }
        match snap.get_labeled("stage_ms", "upload") {
            Some(MetricValue::Histogram { counts, .. }) => assert_eq!(counts, &vec![0, 1, 0]),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn prometheus_buckets_are_cumulative() {
        let reg = Registry::new();
        let h = reg.histogram("d", "", &[10, 100]);
        h.observe(5);
        h.observe(50);
        h.observe(5000);
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("d_bucket{le=\"10\"} 1"), "{prom}");
        assert!(prom.contains("d_bucket{le=\"100\"} 2"), "{prom}");
        assert!(prom.contains("d_bucket{le=\"+Inf\"} 3"), "{prom}");
        assert!(prom.contains("d_count 3"), "{prom}");
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("zeta", "").inc();
        reg.counter("alpha", "").inc();
        let a = reg.snapshot().to_json();
        let b = reg.snapshot().to_json();
        assert_eq!(a, b);
        let alpha = a.find("alpha").unwrap();
        let zeta = a.find("zeta").unwrap();
        assert!(alpha < zeta, "snapshot not sorted:\n{a}");
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_mismatch_is_rejected() {
        let reg = Registry::new();
        reg.gauge("x", "");
        reg.counter("x", "");
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
