//! # deltacfs-obs
//!
//! The unified observability layer for the DeltaCFS reproduction: every
//! quantity the paper's evaluation measures — traffic (Fig. 8–9),
//! computation cost (Table II), IO amplification (§II-A) — and every
//! quantity the fault harness needs to explain a diverging run flows
//! through this crate.
//!
//! Two pieces:
//!
//! * [`Registry`] — the metrics registry: monotonic [`Counter`]s,
//!   [`Gauge`]s, and fixed-bucket [`Histogram`]s behind `Rc`'d cell
//!   handles. Registration looks the name up once; every increment
//!   afterwards is a plain cell update. [`Registry::snapshot`] freezes
//!   all metrics into a deterministic, name-sorted [`Snapshot`] that
//!   exports as JSON ([`Snapshot::to_json`]) or Prometheus text
//!   exposition ([`Snapshot::to_prometheus`]).
//! * [`SpanRecorder`] — the one timeline of the sync pipeline: spans
//!   ([`SpanRecorder::start`]/[`SpanRecorder::end`]) and point events
//!   ([`SpanRecorder::event`], a zero-width span), keyed by the upload
//!   group's `<CliID, GroupSeq>` and timestamped by the caller from the
//!   deterministic `SimClock`, so two runs of the same seed produce a
//!   *byte-identical* record. It keeps the most recent `capacity`
//!   records. A disabled recorder costs one `Cell<bool>` read per call
//!   site; detail strings are built lazily through closures and never
//!   materialize when recording is off. Two readers share the table: the
//!   **flight recorder** ([`SpanRecorder::dump`] and [`DumpGuard`], a
//!   drop guard that appends the timeline to a file, or stderr, when a
//!   test panics) and the critical-path [`Profiler`].
//!
//! The simulation runs on one thread, and the types say so: every handle
//! here is `Rc`-shared and neither `Send` nor `Sync`, so clones share one
//! state and the compiler, not a lock, refuses cross-thread use.
//!
//! The [`Merge`] trait and the [`metric_struct!`] macro unify the ad-hoc
//! counter structs (`TrafficStats`, `IoStats`, `Cost`, `FaultStats`) that
//! used to hand-roll their own `merge`/`reset`: the macro defines the
//! struct and its aggregation in one place, so a newly added field can
//! never be silently dropped from aggregation or from metric export.
//!
//! # Example
//!
//! ```
//! use deltacfs_obs::{GroupKey, Obs};
//!
//! let obs = Obs::recording(1024);
//! let uploads = obs.registry.counter("uploads_total", "upload attempts");
//! uploads.inc();
//! let group = Some(GroupKey { client: 1, seq: 1 });
//! obs.recorder.record(group, "link", "wire.upload", 1500, 1530, None, || "group 1".into());
//! let snap = obs.registry.snapshot();
//! assert!(snap.to_prometheus().contains("uploads_total 1"));
//! assert!(obs.recorder.dump().contains("wire.upload <c1,g1> +30ms: group 1"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod merge;
mod registry;
mod spans;

use std::fmt::Write as _;
use std::io::Write as _;

pub use merge::Merge;
pub use registry::{Counter, Gauge, Histogram, MetricValue, Registry, Snapshot};
pub use spans::{
    GroupKey, GroupProfile, Profiler, SpanId, SpanRecord, SpanRecorder, STAGE_ORDER, WAIT_STAGE,
};

/// The observability bundle one simulated deployment shares: a metrics
/// registry and the recorder. Cloning yields handles to the *same*
/// registry and record table.
#[derive(Debug, Clone, Default)]
pub struct Obs {
    /// The shared metrics registry.
    pub registry: Registry,
    /// The shared recorder (disabled by default; see [`Obs::recording`]).
    pub recorder: SpanRecorder,
}

impl Obs {
    /// A bundle whose recorder is disabled: metrics record normally,
    /// recorder call sites cost one `Cell<bool>` read each.
    pub fn new() -> Self {
        Self::default()
    }

    /// A bundle whose recorder is on and keeps the most recent
    /// `capacity` records.
    pub fn recording(capacity: usize) -> Self {
        Obs {
            registry: Registry::new(),
            recorder: SpanRecorder::new(capacity),
        }
    }
}

/// The flight recorder's trigger: a drop guard that dumps the record
/// when the surrounding test or fault run panics.
///
/// On drop, if the thread is panicking, the timeline and a Prometheus
/// snapshot of the registry are appended, under the guard's label, to
/// the path named by the `DELTACFS_TRACE_DUMP` environment variable, or
/// written to stderr when it is unset. Nothing is written on a clean
/// exit.
#[derive(Debug)]
pub struct DumpGuard {
    label: String,
    obs: Obs,
}

impl DumpGuard {
    /// Arms the flight recorder for `obs`; `label` names the run in the
    /// dump header (e.g. the seed and topology under test).
    pub fn new(label: &str, obs: &Obs) -> Self {
        DumpGuard {
            label: label.to_string(),
            obs: obs.clone(),
        }
    }

    /// Builds the dump text without writing it anywhere (what the guard
    /// would emit on panic).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "=== DeltaCFS flight recorder dump: {} ===", self.label);
        out.push_str(&self.obs.recorder.dump());
        out.push_str("=== metrics at failure ===\n");
        out.push_str(&self.obs.registry.snapshot().to_prometheus());
        out
    }
}

impl Drop for DumpGuard {
    fn drop(&mut self) {
        if !std::thread::panicking() {
            return;
        }
        let dump = self.render();
        // Appended, not overwritten: every failing run of a test process
        // keeps its dump.
        if let Some(path) = std::env::var_os("DELTACFS_TRACE_DUMP").filter(|p| !p.is_empty()) {
            let file = std::fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path);
            if file.and_then(|mut f| f.write_all(dump.as_bytes())).is_ok() {
                let path = path.to_string_lossy();
                eprintln!("flight recorder: appended {} bytes to {path}", dump.len());
                return;
            }
        }
        eprintln!("{dump}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_bundle_records_nothing() {
        let obs = Obs::new();
        assert!(!obs.recorder.enabled());
        obs.recorder
            .event(None, "a", "stage", 0, || unreachable!("lazy detail"));
        assert!(obs.recorder.is_empty());
    }

    #[test]
    fn clones_share_state() {
        let obs = Obs::recording(16);
        let other = obs.clone();
        other.registry.counter("c", "").add(3);
        other.recorder.event(None, "x", "s", 5, || "d".into());
        assert_eq!(obs.registry.counter("c", "").get(), 3);
        assert_eq!(obs.recorder.len(), 1);
    }

    #[test]
    fn guard_renders_label_timeline_and_metrics() {
        let obs = Obs::recording(8);
        obs.registry.counter("fails_total", "").inc();
        obs.recorder.event(None, "a", "s", 1, String::new);
        let text = DumpGuard::new("seed=7", &obs).render();
        assert!(text.contains("seed=7"), "{text}");
        assert!(text.contains("1 records (0 dropped)"), "{text}");
        assert!(text.contains("fails_total 1"), "{text}");
    }
}
