//! In-memory span recorder for the traced run. Spans are recorded by the
//! benchmark's own code around calls into each layer, kept in memory, and
//! written out (Chrome trace-event JSON) only after the run.
//!
//! The recorder is single-threaded by design: the load generator is one
//! thread, and work the system does on its own worker threads shows up as
//! the duration of the call that waited for it.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

/// What a span belongs to: spans of one upload group share its
/// `<CliID, GroupSeq>`; work before a group exists carries the op index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanId {
    /// Not tied to an operation (whole-replay spans, ticks).
    None,
    /// The n-th operation of the iteration.
    Op(u64),
    /// An upload group.
    Group {
        /// Uploading client.
        client: u32,
        /// The client's group sequence number.
        seq: u64,
    },
}

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `client.handle_event`.
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// What the span belongs to.
    pub id: SpanId,
}

/// Per-name aggregate over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    /// Spans recorded under the name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the time covered by child spans.
    pub self_ns: u64,
}

/// The recorder. Disabled, `span()` costs one branch.
pub struct Recorder {
    enabled: Cell<bool>,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<u32>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    idx: Option<u32>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(idx) = self.idx {
            let end = self.rec.now_ns();
            self.rec.spans.borrow_mut()[idx as usize].end_ns = end;
            let popped = self.rec.open.borrow_mut().pop();
            debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        }
    }
}

impl Recorder {
    /// A recorder, enabled or not.
    pub fn new(enabled: bool) -> Self {
        Recorder {
            enabled: Cell::new(enabled),
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Switches recording on or off (between iterations).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.set(on);
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one; it closes when the
    /// guard drops.
    pub fn span(&self, name: &'static str, id: SpanId) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                rec: self,
                idx: None,
            };
        }
        let parent = self.open.borrow().last().copied();
        let mut spans = self.spans.borrow_mut();
        let idx = spans.len() as u32;
        let now = self.now_ns();
        spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            id,
        });
        self.open.borrow_mut().push(idx);
        SpanGuard {
            rec: self,
            idx: Some(idx),
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A copy of the recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Totals per span name. A span's self time is its duration minus
    /// the durations of its direct children (children never overlap:
    /// one thread, LIFO).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.borrow();
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child_ns[i]);
        }
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// Share of the driver's wall that layer spans cover: the time under
    /// spans called `root`, against the time of the outermost non-driver
    /// spans (those whose parent is a `driver.*` span).
    pub fn layer_coverage(&self, root: &str) -> f64 {
        let spans = self.spans.borrow();
        let is_driver = |name: &str| name.starts_with("driver.");
        let mut root_ns = 0u64;
        let mut covered = 0u64;
        for s in spans.iter() {
            if s.name == root {
                root_ns += s.end_ns - s.start_ns;
            } else if !is_driver(s.name)
                && s.parent.is_some_and(|p| is_driver(spans[p as usize].name))
            {
                covered += s.end_ns - s.start_ns;
            }
        }
        if root_ns == 0 {
            0.0
        } else {
            covered as f64 / root_ns as f64
        }
    }

    /// Renders the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). Times are microseconds.
    pub fn to_chrome_json(&self) -> String {
        let spans = self.spans.borrow();
        let mut out = String::with_capacity(spans.len() * 120 + 32);
        out.push_str("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\n");
        for (i, s) in spans.iter().enumerate() {
            let (cat, _) = s.name.split_once('.').unwrap_or((s.name, ""));
            let id = match s.id {
                SpanId::None => String::from("null"),
                SpanId::Op(n) => format!("\"op{n}\""),
                SpanId::Group { client, seq } => format!("\"c{client}g{seq}\""),
            };
            let parent = s.parent.map_or(String::from("null"), |p| p.to_string());
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"span\":{},\"parent\":{},\"id\":{}}}}}{}\n",
                s.name,
                cat,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                parent,
                id,
                if i + 1 < spans.len() { "," } else { "" }
            ));
        }
        out.push_str("]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::black_box(0);
        }
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let rec = Recorder::new(false);
        {
            let _a = rec.span("driver.replay", SpanId::None);
            let _b = rec.span("vfs.apply", SpanId::Op(0));
        }
        assert!(rec.is_empty());
        assert!(rec.totals().is_empty());
    }

    #[test]
    fn nesting_gives_parents_and_self_time() {
        let rec = Recorder::new(true);
        {
            let _root = rec.span("driver.replay", SpanId::None);
            spin(200);
            {
                let _a = rec.span("vfs.apply", SpanId::Op(0));
                spin(300);
                let _b = rec.span("client.handle_event", SpanId::Op(0));
                spin(300);
            }
            {
                let _c = rec.span("client.tick", SpanId::Group { client: 1, seq: 2 });
                spin(200);
            }
        }
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1), "opened while vfs.apply was open");
        assert_eq!(spans[3].parent, Some(0));
        let totals = rec.totals();
        let root = totals["driver.replay"];
        let vfs = totals["vfs.apply"];
        let ev = totals["client.handle_event"];
        assert_eq!(root.count, 1);
        assert!(root.self_ns < root.total_ns);
        assert_eq!(
            root.self_ns,
            root.total_ns - vfs.total_ns - totals["client.tick"].total_ns
        );
        assert_eq!(vfs.self_ns, vfs.total_ns - ev.total_ns);
        assert_eq!(ev.self_ns, ev.total_ns);
        // vfs.apply and client.tick sit directly under the driver span;
        // client.handle_event is inside vfs.apply and is not counted twice.
        let cov = rec.layer_coverage("driver.replay");
        let expect = (vfs.total_ns + totals["client.tick"].total_ns) as f64 / root.total_ns as f64;
        assert!((cov - expect).abs() < 1e-9, "coverage {cov} vs {expect}");
        assert!(cov > 0.5 && cov < 1.0, "coverage {cov}");
        assert_eq!(rec.durations("client.tick").len(), 1);
    }

    #[test]
    fn chrome_json_parses_and_names_every_span() {
        let rec = Recorder::new(true);
        {
            let _root = rec.span("driver.replay", SpanId::None);
            let _g = rec.span("server.apply", SpanId::Group { client: 1, seq: 7 });
        }
        let text = rec.to_chrome_json();
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let serde_json::Value::Object(map) = v else {
            panic!("object");
        };
        let Some(serde_json::Value::Array(events)) = map.get("traceEvents") else {
            panic!("traceEvents array");
        };
        assert_eq!(events.len(), 2);
        assert!(text.contains("\"c1g7\""));
        assert!(text.contains("\"cat\":\"server\""));
    }
}
