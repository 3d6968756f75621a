//! Integration tests for the causal span profiler: pinned-seed golden
//! determinism of the span tree and its Chrome trace export, the
//! critical-path attribution invariant (per-group stage attribution
//! sums exactly to the observed end-to-end time), the SLO lag gauges in
//! the unified snapshot, and the intentionally unclosed spans a fault
//! matrix leaves behind.

use deltacfs::core::{DeltaCfsConfig, HubConfig, SyncHub};
use deltacfs::net::{FaultSpec, LinkSpec, SimClock};
use deltacfs::obs::{MetricValue, Obs, Profiler};

mod common;

const SEED: u64 = 7;

/// The pinned-seed two-writer faulty run of `tests/observability.rs`,
/// with the profiler folded into the exported metrics.
fn faulty_profiled_run(seed: u64) -> common::RecordedHub {
    common::faulty_multi_writer_run(HubConfig::new().with_profiling(true), seed)
}

#[test]
fn pinned_seed_span_tree_and_chrome_trace_are_byte_identical() {
    // Tentpole golden: the same pinned-seed fault-matrix run twice must
    // produce the same span table, the same rendered report, and the
    // same Chrome trace-event JSON — byte for byte. This includes the
    // intentionally unclosed spans (attempts the fault plan dropped).
    let first = faulty_profiled_run(SEED);
    let second = faulty_profiled_run(SEED);
    assert_eq!(
        first.obs().recorder.dropped(),
        0,
        "recorder evicted records"
    );
    assert_eq!(
        second.obs().recorder.dropped(),
        0,
        "recorder evicted records"
    );

    let a = first.obs().recorder.records();
    let b = second.obs().recorder.records();
    assert!(!a.is_empty(), "no spans recorded");
    assert_eq!(a, b, "span tables differ");

    let pa = first.profiler();
    let pb = second.profiler();
    assert_eq!(pa.text_report(), pb.text_report(), "reports differ");
    assert_eq!(pa.chrome_trace(), pb.chrome_trace(), "trace exports differ");

    // The fault matrix drops upload attempts and cuts forward streams:
    // those spans stay open on purpose and the report says so.
    let open = a.iter().filter(|r| r.end_ms.is_none()).count();
    assert!(open > 0, "expected unclosed spans from dropped attempts");
    assert!(pa.text_report().contains("open span(s)"));
    // Open spans export as `B` begin-only events, closed ones as `X`.
    assert!(pa.chrome_trace().contains("\"ph\":\"B\""));
    assert!(pa.chrome_trace().contains("\"ph\":\"X\""));
}

#[test]
fn critical_path_attribution_sums_to_end_to_end_time() {
    let hub = faulty_profiled_run(SEED);
    let profiler = hub.profiler();
    let groups = profiler.groups();
    assert!(!groups.is_empty(), "no groups profiled");
    for g in &groups {
        let total: u64 = g.attribution.iter().map(|(_, ms)| ms).sum();
        assert_eq!(
            total, g.e2e_ms,
            "group {}: attribution {total}ms != e2e {}ms",
            g.group, g.e2e_ms
        );
    }
    // Both sides of the wire joined each tree: client-recorded roots
    // (vfs.write) and server/link stages keyed by the same group.
    let stages: Vec<&str> = profiler
        .records()
        .iter()
        .map(|r| r.stage.as_str())
        .collect();
    for stage in [
        "vfs.write",
        "relation.trigger",
        "delta.encode",
        "wire.upload",
        "server.apply",
        "forward",
    ] {
        assert!(stages.contains(&stage), "stage {stage} never recorded");
    }
    // Every non-root span links to a parent within its own group.
    for r in profiler.records() {
        if let Some(parent) = r.parent {
            let p = profiler
                .records()
                .iter()
                .find(|x| x.id == parent)
                .unwrap_or_else(|| panic!("span {:?} has dangling parent", r.id));
            assert_eq!(p.group, r.group, "parent crosses group boundary");
        }
    }
}

#[test]
fn profiled_snapshot_exports_stage_histograms_and_lag_gauges() {
    let hub = faulty_profiled_run(SEED);
    let snap = hub.export_metrics();

    // Per-stage critical-path histograms, labeled stage="...".
    for stage in ["vfs.write", "wire.upload", "pipeline.wait"] {
        match snap.get_labeled("span_stage_ms", stage) {
            Some(MetricValue::Histogram { count, .. }) => {
                assert!(*count > 0, "span_stage_ms{{stage={stage}}} has no samples")
            }
            other => panic!("span_stage_ms{{stage={stage}}}: {other:?}"),
        }
    }
    // Sync-lag per client and the all-replica convergence lag.
    let sync_lag = |client: &str| match snap.get_labeled("sync_lag_ms", client) {
        Some(MetricValue::Gauge(v)) => *v,
        other => panic!("sync_lag_ms{{client={client}}}: {other:?}"),
    };
    let convergence = match snap.get("convergence_lag_ms") {
        Some(MetricValue::Gauge(v)) => *v,
        other => panic!("convergence_lag_ms: {other:?}"),
    };
    assert!(sync_lag("1") > 0);
    assert!(sync_lag("2") > 0);
    // Both SLOs measure from the same VFS-write origin; the convergence
    // gauge covers the whole fan-out, so it lands in the same order of
    // magnitude as the worst sync lag (forwards ride pump ticks, so it
    // is not strictly ordered above it).
    assert!(convergence > 0, "convergence lag gauge empty");
    // Span accounting counters ride along; nothing was dropped.
    match snap.get("spans_open") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0, "no open spans counted"),
        other => panic!("spans_open: {other:?}"),
    }
    match snap.get("trace_events_dropped") {
        Some(MetricValue::Counter(v)) => assert_eq!(*v, 0),
        other => panic!("trace_events_dropped: {other:?}"),
    }
    // Both export formats carry the labeled profiler series.
    let prom = snap.to_prometheus();
    assert!(prom.contains("span_stage_ms_bucket{stage=\"vfs.write\""));
    assert!(prom.contains("sync_lag_ms{client=\"1\"}"));
    assert!(prom.contains("convergence_lag_ms"));
    assert!(snap.to_json().contains("\"span_stage_ms\""));
}

#[test]
fn profiling_off_records_no_spans() {
    // `Obs::new()` records nothing — the disabled path is one relaxed
    // atomic load per site — and recording changes no output byte: hub
    // state, traffic, cost and the exported metrics are identical to the
    // recording run's except the recorder-derived series.
    let run = |obs: Obs, profiling: bool| {
        let clock = SimClock::new();
        let cfg = HubConfig::new().with_profiling(profiling);
        let mut hub = SyncHub::with_config(clock.clone(), cfg);
        hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        hub.enable_observability(obs);
        hub.enable_faults(FaultSpec::clean(SEED).with_rates(0.25, 0.15, 0.25));
        hub.fs_mut(0).create("/x").unwrap();
        hub.fs_mut(0).write("/x", 0, b"payload").unwrap();
        hub.pump();
        clock.advance(4_000);
        hub.pump();
        hub.fs_mut(0).write("/x", 3, b"LOAD").unwrap();
        hub.pump();
        assert!(hub.settle(60_000));
        assert_eq!(hub.fs(1).peek_all("/x").unwrap(), b"payLOAD");
        hub
    };
    let plain = run(Obs::new(), false);
    assert!(
        plain.obs().recorder.is_empty(),
        "records made while disabled"
    );
    let snap = plain.export_metrics();
    assert!(snap.get("spans_recorded").is_none());
    assert!(snap.get("convergence_lag_ms").is_none());

    let recording = run(Obs::recording(8192), true);
    assert!(!recording.obs().recorder.is_empty());
    assert_eq!(recording.server().paths(), plain.server().paths());
    assert_eq!(recording.server().file("/x"), plain.server().file("/x"));
    for idx in 0..2 {
        assert_eq!(
            recording.traffic(idx),
            plain.traffic(idx),
            "client {idx} traffic"
        );
        assert_eq!(
            recording.client(idx).cost(),
            plain.client(idx).cost(),
            "client {idx} cost"
        );
    }
    let derived = [
        "span_stage_ms",
        "sync_lag_ms",
        "convergence_lag_ms",
        "spans_recorded",
        "spans_open",
    ];
    let without_derived = |json: String| -> Vec<String> {
        let entries = json.lines().map(str::to_string);
        entries
            .filter(|l| !derived.iter().any(|d| l.contains(d)))
            .collect()
    };
    assert_eq!(
        without_derived(recording.export_metrics().to_json()),
        without_derived(snap.to_json()),
    );
}

#[test]
fn streaming_upload_spans_cover_compress_and_stage() {
    // The upload leg (engine → codec → link → server stager) keys every
    // span off the group header riding the wire frames: wire.compress on
    // compressed frames, one wire.upload span per attempt, and the
    // zero-width server.stage / server.apply pair at commit.
    use deltacfs::core::{DeltaCfsSystem, SyncEngine};
    use deltacfs::net::PlatformProfile;

    let run = |obs: Obs| {
        let clock = SimClock::new();
        let cfg = DeltaCfsConfig::new()
            .with_chunk_budget(4096)
            .with_wire_compression(true);
        let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::mobile());
        sys.set_platform(PlatformProfile::mobile());
        sys.enable_observability(obs);

        let mut fs = deltacfs::vfs::Vfs::new();
        fs.enable_event_log();
        fs.create("/doc.txt").unwrap();
        let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
            .iter()
            .copied()
            .cycle()
            .take(64 * 1024)
            .collect();
        fs.write("/doc.txt", 0, &text).unwrap();
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        clock.advance(4_000);
        sys.finish(&fs);
        assert_eq!(sys.server().file("/doc.txt"), Some(&text[..]));
        (sys.report().traffic, sys.outcomes().to_vec())
    };
    let obs = Obs::recording(8192);
    let profiled = run(obs.clone());
    // Recording changes what the run remembers, not what it does.
    let plain = Obs::new();
    assert_eq!(run(plain.clone()), profiled);
    assert!(plain.recorder.is_empty(), "records made while disabled");

    let profiler = Profiler::new(obs.recorder.records());
    let stages: Vec<&str> = profiler
        .records()
        .iter()
        .map(|r| r.stage.as_str())
        .collect();
    for stage in [
        "vfs.write",
        "wire.compress",
        "wire.upload",
        "server.stage",
        "server.apply",
    ] {
        assert!(stages.contains(&stage), "stage {stage} never recorded");
    }
    // Clean run: every span closed, and attribution still balances.
    assert!(profiler.records().iter().all(|r| r.end_ms.is_some()));
    for g in profiler.groups() {
        let total: u64 = g.attribution.iter().map(|(_, ms)| ms).sum();
        assert_eq!(total, g.e2e_ms);
    }
}
