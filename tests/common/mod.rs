//! Helpers shared by the integration-test binaries: reading one series
//! out of a hub's exported snapshot, and hubs built with the flight
//! recorder armed.
#![allow(dead_code)] // every test binary uses its own subset

use std::ops::{Deref, DerefMut};

use deltacfs::core::{DeltaCfsConfig, HubConfig, SyncHub};
use deltacfs::net::{FaultSpec, LinkSpec, SimClock};
use deltacfs::obs::{DumpGuard, MetricValue, Obs};
use deltacfs::workloads::{GeditTrace, TimedOp, Trace, TraceConfig, TraceMeta, WeChatTrace};

fn number(name: &str, value: Option<&MetricValue>) -> i64 {
    match value {
        Some(MetricValue::Gauge(v)) => *v,
        Some(MetricValue::Counter(v)) => *v as i64,
        other => panic!("{name}: {other:?}"),
    }
}

/// The unlabeled counter or gauge `name` of the hub's exported snapshot.
pub fn metric(hub: &SyncHub, name: &str) -> i64 {
    number(name, hub.export_metrics().get(name))
}

/// The counter or gauge `name` labeled for client `idx`
/// (`client="<idx + 1>"`).
pub fn client_metric(hub: &SyncHub, name: &str, idx: usize) -> i64 {
    let label = (idx + 1).to_string();
    number(name, hub.export_metrics().get_labeled(name, &label))
}

/// A hub whose recorder is on and whose [`DumpGuard`] is armed: a test
/// that panics while it holds one leaves the run's timeline and metrics
/// under `DELTACFS_TRACE_DUMP` (CI uploads that file), labelled with the
/// topology and the fault seeds. Derefs to the hub; the two fault
/// switches are shadowed only to put their seeds in the label.
pub struct RecordedHub {
    hub: SyncHub,
    guard: DumpGuard,
}

/// Arms the flight recorder on `hub`.
pub fn recorded(mut hub: SyncHub) -> RecordedHub {
    hub.enable_observability(Obs::recording(8192));
    let guard = DumpGuard::new("no faults armed", hub.obs());
    RecordedHub { hub, guard }
}

impl RecordedHub {
    fn label(&mut self, seeds: &[u64]) {
        let label = format!(
            "{} client(s), fault seeds {seeds:?}",
            self.hub.client_count()
        );
        self.guard = DumpGuard::new(&label, self.hub.obs());
    }

    pub fn enable_faults(&mut self, spec: FaultSpec) {
        self.label(&[spec.seed]);
        self.hub.enable_faults(spec);
    }

    pub fn enable_fault_topology(&mut self, specs: Vec<FaultSpec>) {
        let seeds: Vec<u64> = specs.iter().map(|s| s.seed).collect();
        self.label(&seeds);
        self.hub.enable_fault_topology(specs);
    }
}

impl Deref for RecordedHub {
    type Target = SyncHub;
    fn deref(&self) -> &SyncHub {
        &self.hub
    }
}

impl DerefMut for RecordedHub {
    fn deref_mut(&mut self) -> &mut SyncHub {
        &mut self.hub
    }
}

/// A pinned-seed two-writer faulty run with the recorder on: concurrent
/// edits on disjoint files, then a Word-style transactional save on
/// client 1 (so the relation-table trigger and the parallel delta
/// encoder both leave records), settled to convergence under independent
/// per-writer fault schedules.
pub fn faulty_multi_writer_run(cfg: HubConfig, seed: u64) -> RecordedHub {
    let clock = SimClock::new();
    let mut hub = recorded(SyncHub::with_config(clock.clone(), cfg));
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.enable_fault_topology(vec![
        FaultSpec::clean(seed)
            .with_rates(0.25, 0.15, 0.25)
            .with_reorder(0.5),
        FaultSpec::clean(seed ^ 0xBEEF).with_rates(0.2, 0.2, 0.2),
    ]);

    hub.fs_mut(0).create("/a.txt").unwrap();
    hub.fs_mut(0)
        .write("/a.txt", 0, b"alpha round one")
        .unwrap();
    hub.fs_mut(1).create("/b.txt").unwrap();
    hub.fs_mut(1)
        .write("/b.txt", 0, &vec![7u8; 20_000])
        .unwrap();
    hub.pump();
    clock.advance(4_000);
    hub.pump();

    // Word-style save on client 1: rename away, write the new version
    // under a temp name, rename it into place, drop the old copy.
    let mut doc = hub.fs(1).peek_all("/b.txt").unwrap();
    doc[10_000] = 9;
    hub.fs_mut(1).rename("/b.txt", "/b.bak").unwrap();
    hub.pump();
    hub.fs_mut(1).create("/b.tmp").unwrap();
    hub.pump();
    hub.fs_mut(1).write("/b.tmp", 0, &doc).unwrap();
    hub.pump();
    hub.fs_mut(1).close_path("/b.tmp").unwrap();
    hub.pump();
    hub.fs_mut(1).rename("/b.tmp", "/b.txt").unwrap();
    hub.pump();
    hub.fs_mut(1).unlink("/b.bak").unwrap();
    hub.pump();
    clock.advance(4_000);
    hub.pump();
    hub.settle(600_000);
    hub
}

/// Two applications on one client: an editor's link+rename saves merged
/// by timestamp with a chat database's journaled page writes. The
/// database's open write node keeps the editor's transaction group from
/// aging out, so a second save fires while the first save's delta is
/// still queued.
pub fn editor_and_database_trace() -> impl Trace {
    struct Merged(GeditTrace, WeChatTrace);
    impl Trace for Merged {
        fn meta(&self) -> TraceMeta {
            TraceMeta {
                name: "gedit+wechat",
                description: format!(
                    "[{}] + [{}]",
                    self.0.meta().description,
                    self.1.meta().description
                ),
            }
        }
        fn generate(&self, sink: &mut dyn FnMut(TimedOp)) {
            let mut ops = Vec::new();
            self.0.generate(&mut |op| ops.push(op));
            self.1.generate(&mut |op| ops.push(op));
            // Stable: each application keeps its own order.
            ops.sort_by_key(|op| op.at_ms);
            ops.into_iter().for_each(sink);
        }
    }
    Merged(
        GeditTrace::new(TraceConfig::scaled(0.2)),
        WeChatTrace::new(TraceConfig::scaled(0.02)),
    )
}
