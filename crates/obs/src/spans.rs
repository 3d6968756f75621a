//! The one timeline: causal spans, point events, the flight-recorder
//! dump, and the critical-path sync profiler.
//!
//! Every upload group already carries a `<CliID, GroupSeq>` identity on
//! the wire (the `group_opt` header of each chunk frame, in the upload,
//! forward, and recovery-download directions). A [`SpanRecorder`] keys
//! parented records on that identity — mirrored here as [`GroupKey`] so
//! this crate stays dependency-free — which lets the client, the wire
//! codec, the server, and the forward fan-out all write into the
//! *same* causal record without any extra bytes on the wire. A point
//! event ([`SpanRecorder::event`]) is a zero-width record; a record made
//! before its group id exists (a relation-table trigger, a delta encode)
//! carries no group until [`SpanRecorder::attach`] hands it one.
//!
//! **Retention:** one rule — a bounded FIFO. The table keeps the most
//! recent `capacity` records; a new record evicts the oldest, and the
//! eviction is counted ([`SpanRecorder::dropped`]). Ids are sequential
//! and never reused, so a record sits at `id - first_id` and a handle to
//! an evicted record is simply stale (ending it is a no-op).
//!
//! The caller supplies every timestamp from the deterministic `SimClock`
//! (raw milliseconds), so two runs of the same seed produce
//! byte-identical tables, [`SpanRecorder::dump`] timelines, text reports,
//! and Chrome trace exports. A disabled recorder (the default) costs one
//! `Cell<bool>` read per site; detail closures never run while recording
//! is off.
//!
//! The [`Profiler`] assembles per-group span trees and computes a
//! **critical-path attribution**: the group's wall-clock interval
//! `[min start, max end]` is swept over the elementary intervals induced
//! by all span boundaries, and each slice is attributed to the covering
//! span whose stage ranks highest in the pipeline order
//! (`vfs.write < relation.trigger < delta.encode < wire.compress <
//! wire.upload < server.stage < server.apply < forward`). Overlapped
//! time therefore lands on the *downstream* stage — exactly the
//! critical-path reading of the concurrent encode/upload overlap — and
//! slices covered by no span at all are attributed to `pipeline.wait`.
//! By construction the per-stage attributions sum to the end-to-end
//! time of every group, with no double counting. Only records that carry
//! a group and a stage of the pipeline order take part; everything else
//! in the table annotates the timeline.

use std::cell::{Cell, RefCell, RefMut};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt::Write as _;
use std::rc::Rc;

use crate::registry::json_str;
use crate::Registry;

/// The span-context key: a mirror of the protocol's `GroupId`
/// (`<CliID, GroupSeq>`), kept as plain integers so the obs crate does
/// not depend on the protocol types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupKey {
    /// The uploading client's id (`ClientId`); 0 marks the server's
    /// synthetic download streams (full sync / anti-entropy).
    pub client: u32,
    /// The client-local upload group sequence number.
    pub seq: u64,
}

impl std::fmt::Display for GroupKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "<c{},g{}>", self.client, self.seq)
    }
}

/// Handle to a record; ids order as the records were made.
/// [`SpanId::NONE`] is the sentinel a disabled recorder hands out;
/// ending it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(u64);

impl SpanId {
    /// The null span: returned by every recording call while recording
    /// is disabled, accepted (and ignored) everywhere.
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is the null span.
    pub fn is_none(&self) -> bool {
        self.0 == 0
    }
}

/// One record of the timeline. `end_ms: None` means the span never
/// closed — for example a `wire.upload` attempt whose frames were
/// dropped by the fault plan. Open spans are excluded from critical-path
/// attribution but surface in the report and export as Chrome `B`
/// (begin-only) events, so a lost chunk is visible rather than silently
/// absorbed. A point event has `end_ms == Some(start_ms)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// This record's id (recording order, 1-based, never reused).
    pub id: SpanId,
    /// The parent record, when one was resolvable.
    pub parent: Option<SpanId>,
    /// The upload group this record belongs to, once it is known.
    pub group: Option<GroupKey>,
    /// Which actor ran it (e.g. `client-1`, `server`, `codec`).
    pub actor: String,
    /// Pipeline stage name (e.g. `wire.upload`).
    pub stage: String,
    /// Simulated start, milliseconds.
    pub start_ms: u64,
    /// Simulated end, milliseconds; `None` = never closed.
    pub end_ms: Option<u64>,
    /// Lazily built human-readable detail.
    pub detail: String,
}

#[derive(Debug)]
struct SpanState {
    /// The retained records; the front one has id `first_id`.
    spans: VecDeque<SpanRecord>,
    first_id: u64,
    /// First retained record per group: the root that records with no
    /// explicit parent attach to.
    roots: BTreeMap<GroupKey, SpanId>,
    capacity: usize,
    dropped: u64,
}

impl SpanState {
    fn get_mut(&mut self, id: SpanId) -> Option<&mut SpanRecord> {
        let idx = id.0.checked_sub(self.first_id)?;
        self.spans.get_mut(usize::try_from(idx).ok()?)
    }
}

#[derive(Debug)]
struct RecorderInner {
    enabled: Cell<bool>,
    state: RefCell<SpanState>,
}

/// The shared recorder: a bounded FIFO of [`SpanRecord`]s. Cloning
/// yields a handle to the same table, so the clients, the codec, and the
/// server all write into one causal record. Like the simulation it
/// records, it lives on one thread (it is neither `Send` nor `Sync`).
///
/// The default recorder is *disabled*: every site pays exactly one
/// `Cell<bool>` read, recording calls return [`SpanId::NONE`], and detail
/// closures never execute.
#[derive(Debug, Clone)]
pub struct SpanRecorder {
    inner: Rc<RecorderInner>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        let r = SpanRecorder::new(65_536);
        r.set_enabled(false);
        r
    }
}

impl SpanRecorder {
    /// An enabled recorder keeping the most recent `capacity` records
    /// (older ones are evicted and counted).
    pub fn new(capacity: usize) -> Self {
        SpanRecorder {
            inner: Rc::new(RecorderInner {
                enabled: Cell::new(true),
                state: RefCell::new(SpanState {
                    spans: VecDeque::new(),
                    first_id: 1,
                    roots: BTreeMap::new(),
                    capacity: capacity.max(1),
                    dropped: 0,
                }),
            }),
        }
    }

    /// Whether records are currently made — the one read every site
    /// pays when recording is off.
    pub fn enabled(&self) -> bool {
        self.inner.enabled.get()
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.set(on);
    }

    fn state(&self) -> RefMut<'_, SpanState> {
        self.inner.state.borrow_mut()
    }

    /// Opens a span. With `parent: None` it attaches to its group's root
    /// (the group's first retained record); the first record of a group
    /// becomes that root. Returns [`SpanId::NONE`] while disabled.
    pub fn start(
        &self,
        group: Option<GroupKey>,
        actor: &str,
        stage: &str,
        at_ms: u64,
        parent: Option<SpanId>,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        self.push(group, actor, stage, at_ms, None, parent, String::new())
    }

    /// Closes span `id` at `at_ms` with a lazily built detail string. No-op
    /// for [`SpanId::NONE`], evicted ids, or spans already closed; the
    /// closure only runs if the span is actually closed.
    pub fn end(&self, id: SpanId, at_ms: u64, detail: impl FnOnce() -> String) {
        if id.is_none() || !self.enabled() {
            return;
        }
        let mut state = self.state();
        if let Some(span) = state.get_mut(id).filter(|s| s.end_ms.is_none()) {
            span.end_ms = Some(at_ms.max(span.start_ms));
            span.detail = detail();
        }
    }

    /// Records an already-closed span in one shot (same parent rules as
    /// [`SpanRecorder::start`]). `detail` only runs while enabled.
    #[allow(clippy::too_many_arguments)]
    pub fn record(
        &self,
        group: Option<GroupKey>,
        actor: &str,
        stage: &str,
        start_ms: u64,
        end_ms: u64,
        parent: Option<SpanId>,
        detail: impl FnOnce() -> String,
    ) -> SpanId {
        if !self.enabled() {
            return SpanId::NONE;
        }
        let end_ms = Some(end_ms.max(start_ms));
        self.push(group, actor, stage, start_ms, end_ms, parent, detail())
    }

    /// Records a point event: a zero-width record at `at_ms`.
    pub fn event(
        &self,
        group: Option<GroupKey>,
        actor: &str,
        stage: &str,
        at_ms: u64,
        detail: impl FnOnce() -> String,
    ) -> SpanId {
        self.record(group, actor, stage, at_ms, at_ms, None, detail)
    }

    #[allow(clippy::too_many_arguments)]
    fn push(
        &self,
        group: Option<GroupKey>,
        actor: &str,
        stage: &str,
        start_ms: u64,
        end_ms: Option<u64>,
        parent: Option<SpanId>,
        detail: String,
    ) -> SpanId {
        let mut state = self.state();
        if state.spans.len() == state.capacity {
            let old = state.spans.pop_front().expect("capacity is at least one");
            state.first_id += 1;
            state.dropped += 1;
            if let Some(g) = old.group.filter(|g| state.roots.get(g) == Some(&old.id)) {
                state.roots.remove(&g);
            }
        }
        let id = SpanId(state.first_id + state.spans.len() as u64);
        let mut parent = parent.filter(|p| !p.is_none());
        if let Some(g) = group {
            parent = parent.or_else(|| state.roots.get(&g).copied());
            state.roots.entry(g).or_insert(id);
        }
        state.spans.push_back(SpanRecord {
            id,
            parent,
            group,
            actor: actor.to_string(),
            stage: stage.to_string(),
            start_ms,
            end_ms,
            detail,
        });
        id
    }

    /// Hands `group` to records made before the group id existed; the
    /// parentless ones attach to the group's root. Stale ids are skipped.
    pub fn attach(&self, ids: &[SpanId], group: GroupKey) {
        if !self.enabled() {
            return;
        }
        let mut state = self.state();
        let root = state.roots.get(&group).copied();
        for &id in ids {
            if let Some(span) = state.get_mut(id) {
                span.group = Some(group);
                span.parent = span.parent.or(root);
            }
        }
    }

    /// Number of records currently retained.
    pub fn len(&self) -> usize {
        self.state().spans.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Records evicted because the table was full.
    pub fn dropped(&self) -> u64 {
        self.state().dropped
    }

    /// Clones the table in recording order (deterministic for a pinned
    /// seed).
    pub fn records(&self) -> Vec<SpanRecord> {
        self.state().spans.iter().cloned().collect()
    }

    /// Renders the table as a stable, human-readable timeline in
    /// recording order: one line per record with its start time, actor,
    /// stage, group, and `+<n>ms` for a span of nonzero width or
    /// `(open)` for one that never closed. Byte-identical for identical
    /// tables — the determinism tests compare these strings directly.
    pub fn dump(&self) -> String {
        let state = self.state();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== flight recorder: {} records ({} dropped) ===",
            state.spans.len(),
            state.dropped
        );
        for r in &state.spans {
            let _ = write!(out, "[{:>8}ms] {:<10} {}", r.start_ms, r.actor, r.stage);
            if let Some(g) = r.group {
                let _ = write!(out, " {g}");
            }
            match r.end_ms {
                None => out.push_str(" (open)"),
                Some(end) if end > r.start_ms => {
                    let _ = write!(out, " +{}ms", end - r.start_ms);
                }
                Some(_) => {}
            }
            if !r.detail.is_empty() {
                let _ = write!(out, ": {}", r.detail);
            }
            out.push('\n');
        }
        out
    }
}

/// Pipeline order of the committed stages; attribution rank is the
/// index, and overlapping spans resolve to the highest rank (the
/// downstream stage wins the overlapped slice). Records of any other
/// stage annotate the timeline and take no part in attribution.
pub const STAGE_ORDER: [&str; 8] = [
    "vfs.write",
    "relation.trigger",
    "delta.encode",
    "wire.compress",
    "wire.upload",
    "server.stage",
    "server.apply",
    "forward",
];

/// The synthetic stage that absorbs slices of a group's end-to-end
/// interval covered by no span: time spent queued between stages.
pub const WAIT_STAGE: &str = "pipeline.wait";

fn stage_rank(stage: &str) -> Option<usize> {
    STAGE_ORDER.iter().position(|s| *s == stage)
}

/// One group's assembled profile.
#[derive(Debug, Clone)]
pub struct GroupProfile {
    /// The group.
    pub group: GroupKey,
    /// `max end - min start` over the group's closed spans.
    pub e2e_ms: u64,
    /// Critical-path attribution: `(stage, attributed ms)` in pipeline
    /// order (then `pipeline.wait` last). Sums exactly to `e2e_ms`.
    pub attribution: Vec<(String, u64)>,
    /// Spans that never closed (dropped chunks, lost attempts).
    pub open_spans: usize,
    /// VFS write → last server commit, when both ends were recorded.
    pub sync_lag_ms: Option<u64>,
    /// VFS write → last peer (forward) commit; falls back to
    /// `sync_lag_ms` when the group fanned out to no peer.
    pub convergence_lag_ms: Option<u64>,
}

/// Assembles the records that carry a group into per-group
/// critical-path attributions, SLO lags, a text report, and a Chrome
/// trace export.
#[derive(Debug, Clone)]
pub struct Profiler {
    records: Vec<SpanRecord>,
}

/// The group of a record the profiler kept.
fn group_of(r: &SpanRecord) -> GroupKey {
    r.group.expect("the profiler keeps grouped records only")
}

impl Profiler {
    /// A profiler over the grouped records of a cloned table (see
    /// [`SpanRecorder::records`]).
    pub fn new(mut records: Vec<SpanRecord>) -> Self {
        records.retain(|r| r.group.is_some());
        Profiler { records }
    }

    /// The grouped records, in recording order.
    pub fn records(&self) -> &[SpanRecord] {
        &self.records
    }

    /// Per-group profiles, ordered by group key.
    pub fn groups(&self) -> Vec<GroupProfile> {
        let mut by_group: BTreeMap<GroupKey, Vec<&SpanRecord>> = BTreeMap::new();
        for r in self
            .records
            .iter()
            .filter(|r| stage_rank(&r.stage).is_some())
        {
            by_group.entry(group_of(r)).or_default().push(r);
        }
        by_group
            .into_iter()
            .map(|(group, spans)| profile_group(group, &spans))
            .collect()
    }

    /// Critical-path attributed milliseconds per stage, one sample per
    /// group (the inputs to the `span_stage_ms` histograms).
    pub fn stage_samples(&self) -> BTreeMap<String, Vec<u64>> {
        let mut out: BTreeMap<String, Vec<u64>> = BTreeMap::new();
        for g in self.groups() {
            for (stage, ms) in &g.attribution {
                out.entry(stage.clone()).or_default().push(*ms);
            }
        }
        out
    }

    /// Worst observed sync lag per client: VFS write → last server
    /// commit, maxed over the client's groups.
    pub fn sync_lags(&self) -> BTreeMap<u32, u64> {
        let mut out: BTreeMap<u32, u64> = BTreeMap::new();
        for g in self.groups() {
            if let Some(lag) = g.sync_lag_ms {
                let e = out.entry(g.group.client).or_insert(0);
                *e = (*e).max(lag);
            }
        }
        out
    }

    /// Worst observed convergence lag across all groups: VFS write →
    /// last peer commit.
    pub fn convergence_lag(&self) -> Option<u64> {
        self.groups()
            .iter()
            .filter_map(|g| g.convergence_lag_ms)
            .max()
    }

    /// Registers the profiler's aggregates on `reg`: per-stage
    /// `span_stage_ms{stage=...}` histograms (one observation per
    /// group), `sync_lag_ms{client=...}` and `convergence_lag_ms`
    /// gauges, and `spans_recorded` / `spans_open` counters.
    pub fn export(&self, reg: &Registry) {
        const STAGE_MS_BUCKETS: [u64; 14] = [
            1, 2, 5, 10, 25, 50, 100, 250, 500, 1_000, 2_500, 5_000, 15_000, 60_000,
        ];
        let stage_help = "critical-path ms attributed to this stage, one sample per group";
        for (stage, samples) in self.stage_samples() {
            let h = reg.histogram_labeled(
                "span_stage_ms",
                stage_help,
                &STAGE_MS_BUCKETS,
                Some(("stage", &stage)),
            );
            for s in samples {
                h.observe(s);
            }
        }
        for (client, lag) in self.sync_lags() {
            reg.gauge_labeled(
                "sync_lag_ms",
                "worst VFS write -> server commit lag over the client's groups",
                Some(("client", &client.to_string())),
            )
            .set(lag as i64);
        }
        if let Some(lag) = self.convergence_lag() {
            reg.gauge(
                "convergence_lag_ms",
                "worst VFS write -> last peer commit lag over all groups",
            )
            .set(lag as i64);
        }
        reg.counter("spans_recorded", "spans in the profiler table")
            .set(self.records.len() as u64);
        let open = self.records.iter().filter(|r| r.end_ms.is_none()).count();
        reg.counter("spans_open", "spans that never closed (lost work)")
            .set(open as u64);
    }

    /// Renders the per-group critical-path report plus the SLO gauges
    /// as stable text (byte-identical for identical span tables).
    pub fn text_report(&self) -> String {
        let groups = self.groups();
        let open_total: usize = groups.iter().map(|g| g.open_spans).sum();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "=== sync profile: {} groups, {} spans ({} open) ===",
            groups.len(),
            self.records.len(),
            open_total
        );
        for g in &groups {
            let _ = write!(out, "\ngroup {}  e2e {}ms", g.group, g.e2e_ms);
            if let Some(lag) = g.sync_lag_ms {
                let _ = write!(out, "  sync-lag {lag}ms");
            }
            if let Some(lag) = g.convergence_lag_ms {
                let _ = write!(out, "  convergence-lag {lag}ms");
            }
            if g.open_spans > 0 {
                let _ = write!(out, "  [{} open span(s)]", g.open_spans);
            }
            out.push('\n');
            for (stage, ms) in &g.attribution {
                let pct = if g.e2e_ms > 0 {
                    *ms as f64 * 100.0 / g.e2e_ms as f64
                } else {
                    0.0
                };
                let _ = writeln!(out, "  {stage:<18} {ms:>8}ms  {pct:>5.1}%");
            }
        }
        let samples = self.stage_samples();
        if !samples.is_empty() {
            let _ = writeln!(out, "\nper-stage critical-path latency (ms across groups):");
            let _ = writeln!(
                out,
                "  {:<18} {:>6} {:>8} {:>8} {:>8}",
                "stage", "groups", "p50", "p95", "p99"
            );
            for (stage, mut vals) in samples {
                vals.sort_unstable();
                let q = |f: f64| -> u64 {
                    let idx = ((f * vals.len() as f64).ceil() as usize).max(1) - 1;
                    vals[idx.min(vals.len() - 1)]
                };
                let _ = writeln!(
                    out,
                    "  {:<18} {:>6} {:>8} {:>8} {:>8}",
                    stage,
                    vals.len(),
                    q(0.50),
                    q(0.95),
                    q(0.99)
                );
            }
        }
        let lags = self.sync_lags();
        if !lags.is_empty() || self.convergence_lag().is_some() {
            let _ = writeln!(out, "\nSLO gauges:");
            for (client, lag) in &lags {
                let _ = writeln!(out, "  sync_lag_ms{{client=\"{client}\"}} {lag}");
            }
            if let Some(lag) = self.convergence_lag() {
                let _ = writeln!(out, "  convergence_lag_ms {lag}");
            }
        }
        out
    }

    /// Exports the span table as Chrome trace-event JSON (the format
    /// Perfetto and `chrome://tracing` load): closed spans become `X`
    /// complete events, open spans `B` begin-only events; `pid` is the
    /// group's client id and `tid` indexes the actor, with metadata
    /// name records for both. Timestamps are microseconds (simulated
    /// ms × 1000). Byte-identical for identical span tables.
    pub fn chrome_trace(&self) -> String {
        let mut actors: BTreeSet<&str> = BTreeSet::new();
        let mut clients: BTreeSet<u32> = BTreeSet::new();
        for r in &self.records {
            actors.insert(r.actor.as_str());
            clients.insert(group_of(r).client);
        }
        let tid_of: BTreeMap<&str, usize> = actors
            .iter()
            .enumerate()
            .map(|(i, a)| (*a, i + 1))
            .collect();
        let first_id = self.records.first().map_or(0, |r| r.id.0);
        let mut events: Vec<String> = Vec::new();
        for client in &clients {
            events.push(format!(
                "{{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":{client},\"tid\":0,\
                 \"args\":{{\"name\":{}}}}}",
                json_str(&format!("groups of client {client}"))
            ));
        }
        for (actor, tid) in &tid_of {
            for client in &clients {
                events.push(format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{client},\"tid\":{tid},\
                     \"args\":{{\"name\":{}}}}}",
                    json_str(actor)
                ));
            }
        }
        for r in &self.records {
            let tid = tid_of[r.actor.as_str()];
            let pid = group_of(r).client;
            let ts = r.start_ms * 1000;
            // A parent the recorder evicted reads as none: the record
            // is a root of what is left.
            let parent = r.parent.filter(|p| p.0 >= first_id).map_or(0, |p| p.0);
            let args = format!(
                "{{\"group\":{},\"span\":{},\"parent\":{parent},\"detail\":{}}}",
                json_str(&group_of(r).to_string()),
                r.id.0,
                json_str(&r.detail)
            );
            match r.end_ms {
                Some(end) => {
                    let dur = (end - r.start_ms) * 1000;
                    events.push(format!(
                        "{{\"ph\":\"X\",\"name\":{},\"cat\":\"sync\",\"ts\":{ts},\"dur\":{dur},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                        json_str(&r.stage)
                    ));
                }
                None => {
                    events.push(format!(
                        "{{\"ph\":\"B\",\"name\":{},\"cat\":\"sync\",\"ts\":{ts},\
                         \"pid\":{pid},\"tid\":{tid},\"args\":{args}}}",
                        json_str(&r.stage)
                    ));
                }
            }
        }
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
        for (i, e) in events.iter().enumerate() {
            out.push_str(e);
            if i + 1 < events.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("]}\n");
        out
    }
}

/// The critical-path sweep for one group (see the module docs for the
/// attribution rule).
fn profile_group(group: GroupKey, spans: &[&SpanRecord]) -> GroupProfile {
    let closed: Vec<(&SpanRecord, u64)> = spans
        .iter()
        .filter_map(|s| s.end_ms.map(|e| (*s, e)))
        .collect();
    let open_spans = spans.len() - closed.len();
    let mut bounds: BTreeSet<u64> = BTreeSet::new();
    for (s, e) in &closed {
        bounds.insert(s.start_ms);
        bounds.insert(*e);
    }
    let mut attributed: BTreeMap<&str, u64> = BTreeMap::new();
    let edges: Vec<u64> = bounds.into_iter().collect();
    for w in edges.windows(2) {
        let (lo, hi) = (w[0], w[1]);
        let winner = closed
            .iter()
            .filter(|(s, e)| s.start_ms <= lo && *e >= hi)
            .max_by_key(|(s, _)| (stage_rank(&s.stage), s.id.0))
            .map(|(s, _)| s.stage.as_str())
            .unwrap_or(WAIT_STAGE);
        *attributed.entry(winner).or_insert(0) += hi - lo;
    }
    // Stages whose spans are zero-width on the simulated clock (encode
    // CPU, server staging/apply) still surface in the table at 0ms —
    // the report must show every committed stage, not just the winners.
    for (s, _) in &closed {
        attributed.entry(s.stage.as_str()).or_insert(0);
    }
    let e2e_ms = match (edges.first(), edges.last()) {
        (Some(lo), Some(hi)) => hi - lo,
        _ => 0,
    };
    // Pipeline order, pipeline.wait last.
    let mut attribution: Vec<(String, u64)> = attributed
        .iter()
        .map(|(s, ms)| (s.to_string(), *ms))
        .collect();
    attribution.sort_by_key(|(stage, _)| stage_rank(stage).unwrap_or(usize::MAX));
    let origin = closed
        .iter()
        .filter(|(s, _)| s.stage == "vfs.write")
        .map(|(s, _)| s.start_ms)
        .min();
    let committed = closed
        .iter()
        .filter(|(s, _)| s.stage == "server.apply")
        .map(|(_, e)| *e)
        .max();
    let forwarded = closed
        .iter()
        .filter(|(s, _)| s.stage == "forward")
        .map(|(_, e)| *e)
        .max();
    let sync_lag_ms = match (origin, committed) {
        (Some(o), Some(c)) => Some(c.saturating_sub(o)),
        _ => None,
    };
    let convergence_lag_ms = match (origin, forwarded.or(committed)) {
        (Some(o), Some(f)) => Some(f.saturating_sub(o)),
        _ => None,
    };
    GroupProfile {
        group,
        e2e_ms,
        attribution,
        open_spans,
        sync_lag_ms,
        convergence_lag_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(client: u32, seq: u64) -> GroupKey {
        GroupKey { client, seq }
    }

    #[test]
    fn disabled_recorder_is_inert_and_lazy() {
        let r = SpanRecorder::default();
        assert!(!r.enabled());
        let id = r.start(Some(key(1, 1)), "client-1", "vfs.write", 5, None);
        assert!(id.is_none());
        r.end(id, 9, || unreachable!("must stay lazy"));
        let lazy = || unreachable!("must stay lazy");
        assert!(r
            .record(Some(key(1, 1)), "a", "wire.upload", 5, 9, None, lazy)
            .is_none());
        assert!(r.event(None, "a", "vfs.op", 5, lazy).is_none());
        r.attach(&[id], key(1, 1));
        assert!(r.is_empty());
        assert_eq!(r.dropped(), 0);
    }

    #[test]
    fn first_span_becomes_group_root_and_parents_followers() {
        let r = SpanRecorder::new(64);
        let root = r.record(
            Some(key(1, 1)),
            "client-1",
            "vfs.write",
            0,
            10,
            None,
            String::new,
        );
        let child = r.start(Some(key(1, 1)), "client-1", "wire.upload", 10, None);
        let explicit = r.start(Some(key(1, 1)), "server", "server.apply", 20, Some(child));
        r.end(child, 30, String::new);
        r.end(explicit, 40, String::new);
        // A different group roots independently; a groupless event has
        // no parent at all.
        r.start(Some(key(2, 1)), "client-2", "vfs.write", 5, None);
        r.event(None, "client-2", "vfs.op", 5, String::new);
        let parents: Vec<_> = r.records().iter().map(|s| s.parent).collect();
        assert_eq!(parents, [None, Some(root), Some(child), None, None]);
    }

    #[test]
    fn attach_hands_earlier_records_their_group_and_root() {
        let r = SpanRecorder::new(64);
        let trigger = r.event(None, "client-1", "relation.trigger", 3, String::new);
        let encode = r.start(None, "client-1", "delta.encode", 3, None);
        let child = r.record(None, "client-1", "vfs.op", 3, 3, Some(encode), String::new);
        r.end(encode, 3, String::new);
        let root = r.record(
            Some(key(1, 4)),
            "client-1",
            "vfs.write",
            0,
            9,
            None,
            String::new,
        );
        r.attach(&[trigger, encode, SpanId(99)], key(1, 4));
        let recs = r.records();
        assert_eq!(recs[0].group, Some(key(1, 4)));
        assert_eq!(recs[0].parent, Some(root));
        assert_eq!(recs[1].parent, Some(root));
        assert_eq!((recs[2].group, recs[2].parent), (None, Some(encode)));
        assert_eq!(recs[3].parent, None, "the root stays the root");
        assert_eq!(child, SpanId(3), "ids are recording order");
        // The profiler reads grouped pipeline stages only.
        assert_eq!(Profiler::new(recs).records().len(), 3);
    }

    #[test]
    fn full_table_evicts_the_oldest_and_never_reuses_an_id() {
        let r = SpanRecorder::new(3);
        let first = r.start(Some(key(1, 1)), "a", "wire.upload", 0, None);
        for i in 1..5 {
            r.event(Some(key(1, 1)), "a", "s", i, || format!("{i}"));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 2);
        r.end(first, 9, String::new); // evicted: a stale handle closes nobody's span
        let recs = r.records();
        assert_eq!(recs[0].detail, "2");
        assert!(recs.iter().all(|s| s.end_ms == Some(s.start_ms)));
        assert_eq!(recs[2].id, SpanId(5));
        // The evicted root no longer parents anything: the oldest
        // survivor of the group took its place.
        let next = r.event(Some(key(1, 1)), "a", "s", 5, String::new);
        let recs = r.records();
        assert_eq!((next, recs[2].parent), (SpanId(6), Some(recs[0].id)));
        assert!(Profiler::new(recs).chrome_trace().contains("\"parent\":0"));
    }

    #[test]
    fn dump_is_deterministic_and_marks_width() {
        let run = || {
            let r = SpanRecorder::new(32);
            r.event(None, "client-1", "vfs.op", 100, || "write /a".into());
            r.record(
                Some(key(1, 7)),
                "link",
                "wire.upload",
                105,
                140,
                None,
                || "group 7".into(),
            );
            r.start(Some(key(1, 7)), "link", "wire.upload", 150, None);
            r.dump()
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.contains("3 records (0 dropped)"), "{a}");
        assert!(a.contains("client-1   vfs.op: write /a"), "{a}");
        assert!(a.contains("wire.upload <c1,g7> +35ms: group 7"), "{a}");
        assert!(a.contains("wire.upload <c1,g7> (open)\n"), "{a}");
    }

    #[test]
    fn double_end_keeps_first_close() {
        let r = SpanRecorder::new(8);
        let id = r.start(Some(key(1, 1)), "a", "wire.upload", 10, None);
        r.end(id, 20, String::new);
        r.end(id, 99, String::new);
        assert_eq!(r.records()[0].end_ms, Some(20));
    }

    #[test]
    fn critical_path_attributes_overlap_downstream_and_sums_to_e2e() {
        let r = SpanRecorder::new(64);
        let g = key(1, 1);
        // vfs.write dwell 0..100, encode 100..140 overlapping upload
        // 120..200, gap 200..210, server.apply 210..230.
        r.record(Some(g), "client-1", "vfs.write", 0, 100, None, String::new);
        r.record(
            Some(g),
            "client-1",
            "delta.encode",
            100,
            140,
            None,
            String::new,
        );
        r.record(
            Some(g),
            "client-1",
            "wire.upload",
            120,
            200,
            None,
            String::new,
        );
        r.record(
            Some(g),
            "server",
            "server.apply",
            210,
            230,
            None,
            String::new,
        );
        let prof = Profiler::new(r.records());
        let groups = prof.groups();
        assert_eq!(groups.len(), 1);
        let gp = &groups[0];
        assert_eq!(gp.e2e_ms, 230);
        let ms = |stage: &str| {
            gp.attribution
                .iter()
                .find(|(s, _)| s == stage)
                .map(|(_, m)| *m)
                .unwrap_or(0)
        };
        assert_eq!(ms("vfs.write"), 100);
        assert_eq!(ms("delta.encode"), 20); // 100..120 only: 120..140 lost to upload
        assert_eq!(ms("wire.upload"), 80);
        assert_eq!(ms(WAIT_STAGE), 10); // the uncovered 200..210 gap
        assert_eq!(ms("server.apply"), 20);
        let total: u64 = gp.attribution.iter().map(|(_, m)| m).sum();
        assert_eq!(total, gp.e2e_ms);
        assert_eq!(gp.sync_lag_ms, Some(230));
        assert_eq!(gp.convergence_lag_ms, Some(230)); // no forward: falls back
    }

    #[test]
    fn open_spans_are_excluded_from_attribution_but_reported() {
        let r = SpanRecorder::new(64);
        let g = key(2, 3);
        r.record(Some(g), "client-2", "vfs.write", 0, 10, None, String::new);
        let lost = r.start(Some(g), "client-2", "wire.upload", 10, None);
        assert!(!lost.is_none()); // never ended: the dropped-chunk case
        r.record(
            Some(g),
            "client-2",
            "wire.upload",
            40,
            60,
            None,
            String::new,
        );
        r.record(Some(g), "server", "server.apply", 60, 70, None, String::new);
        let prof = Profiler::new(r.records());
        let gp = &prof.groups()[0];
        assert_eq!(gp.open_spans, 1);
        let total: u64 = gp.attribution.iter().map(|(_, m)| m).sum();
        assert_eq!(total, gp.e2e_ms);
        let report = prof.text_report();
        assert!(report.contains("1 open"), "{report}");
        let trace = prof.chrome_trace();
        assert!(trace.contains("\"ph\":\"B\""), "{trace}");
    }

    #[test]
    fn lags_and_report_cover_forward() {
        let r = SpanRecorder::new(64);
        let g = key(1, 2);
        r.record(
            Some(g),
            "client-1",
            "vfs.write",
            100,
            200,
            None,
            String::new,
        );
        r.record(
            Some(g),
            "server",
            "server.apply",
            250,
            300,
            None,
            String::new,
        );
        r.record(Some(g), "server", "forward", 300, 450, None, || {
            "peer client-2".into()
        });
        let prof = Profiler::new(r.records());
        let gp = &prof.groups()[0];
        assert_eq!(gp.sync_lag_ms, Some(200));
        assert_eq!(gp.convergence_lag_ms, Some(350));
        assert_eq!(prof.sync_lags().get(&1), Some(&200));
        assert_eq!(prof.convergence_lag(), Some(350));
        let report = prof.text_report();
        assert!(report.contains("sync_lag_ms{client=\"1\"} 200"), "{report}");
        assert!(report.contains("convergence_lag_ms 350"), "{report}");
    }

    #[test]
    fn export_registers_gauges_and_histograms() {
        let r = SpanRecorder::new(64);
        let g = key(1, 1);
        r.record(
            Some(g),
            "client-1",
            "vfs.write",
            0,
            1_000,
            None,
            String::new,
        );
        r.record(
            Some(g),
            "client-1",
            "wire.upload",
            1_000,
            1_400,
            None,
            String::new,
        );
        r.record(
            Some(g),
            "server",
            "server.apply",
            1_400,
            1_500,
            None,
            String::new,
        );
        let reg = Registry::new();
        Profiler::new(r.records()).export(&reg);
        let snap = reg.snapshot();
        assert_eq!(
            snap.get_labeled("sync_lag_ms", "1"),
            Some(&crate::MetricValue::Gauge(1_500))
        );
        let prom = reg.snapshot().to_prometheus();
        assert!(prom.contains("span_stage_ms"), "{prom}");
        assert!(prom.contains("stage=\"wire.upload\""), "{prom}");
    }

    #[test]
    fn chrome_trace_is_deterministic_and_balanced() {
        let build = || {
            let r = SpanRecorder::new(64);
            let g = key(3, 9);
            r.record(Some(g), "client-3", "vfs.write", 0, 50, None, || {
                "w \"q\"".into()
            });
            let open = r.start(Some(g), "client-3", "wire.upload", 50, None);
            assert!(!open.is_none());
            Profiler::new(r.records()).chrome_trace()
        };
        let a = build();
        assert_eq!(a, build());
        assert!(a.contains("\"ph\":\"X\""), "{a}");
        assert!(a.contains("\"ph\":\"B\""), "{a}");
        assert!(a.contains("\\\"q\\\""), "{a}"); // detail JSON-escaped
        assert!(a.trim_end().ends_with("]}"), "{a}");
    }
}
