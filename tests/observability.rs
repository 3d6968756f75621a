//! Integration tests for the unified observability layer: one registry
//! snapshot covering every subsystem, deterministic sync-pipeline traces
//! under pinned-seed fault runs, and the flight recorder that dumps the
//! causal event timeline when a run fails.

use std::panic;

use deltacfs::core::{DeltaCfsConfig, SyncHub};
use deltacfs::net::{FaultSpec, LinkSpec, SimClock};
use deltacfs::obs::{DumpGuard, MetricValue, Obs, TraceEvent};

const SEED: u64 = 7;

/// A pinned-seed two-writer faulty run with tracing enabled: concurrent
/// edits on disjoint files, then a Word-style transactional save on
/// client 1 (so the relation-table trigger and the parallel delta
/// encoder both leave trace spans), settled to convergence.
fn faulty_multi_writer_run(seed: u64) -> SyncHub {
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.enable_observability(Obs::with_tracing(8192));
    hub.enable_fault_topology(vec![
        FaultSpec::clean(seed)
            .with_rates(0.25, 0.15, 0.25)
            .with_reorder(0.5),
        FaultSpec::clean(seed ^ 0xBEEF).with_rates(0.2, 0.2, 0.2),
    ]);

    hub.fs_mut(0).create("/a.txt").unwrap();
    hub.fs_mut(0).write("/a.txt", 0, b"alpha round one").unwrap();
    hub.fs_mut(1).create("/b.txt").unwrap();
    hub.fs_mut(1).write("/b.txt", 0, &vec![7u8; 20_000]).unwrap();
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

fn stages(events: &[TraceEvent]) -> Vec<&str> {
    events.iter().map(|e| e.stage.as_str()).collect()
}

#[test]
fn unified_snapshot_covers_every_subsystem() {
    let hub = faulty_multi_writer_run(SEED);
    let snap = hub.export_metrics();

    // Per-client counters are labeled client="<n>".
    for id in ["1", "2"] {
        for name in [
            "traffic_bytes_up",
            "traffic_bytes_down",
            "io_bytes_written",
            "io_mutations",
            "delta_cost_bytes_copied",
            "retry_retransmissions",
        ] {
            assert!(
                snap.get_labeled(name, id).is_some(),
                "missing {name}{{client=\"{id}\"}}"
            );
        }
    }
    // Something actually moved on the wire.
    match snap.get_labeled("traffic_bytes_up", "1") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0),
        other => panic!("traffic_bytes_up: {other:?}"),
    }
    // The delta encoder ran on client 2 (the transactional save).
    match snap.get_labeled("delta_cost_bytes_rolled", "2") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0, "no rolling checksums charged"),
        other => panic!("delta_cost_bytes_rolled: {other:?}"),
    }
    // Server-side and fault-layer counters are unlabeled singletons.
    assert!(snap.get("server_cost_bytes_copied").is_some());
    assert!(snap.get("server_duplicates_ignored").is_some());
    match snap.get("fault_injections_fired") {
        Some(MetricValue::Counter(v)) => assert!(*v > 0, "no injections fired"),
        other => panic!("fault_injections_fired: {other:?}"),
    }
    // Retry backoff delays landed in the histogram.
    match snap.get("retry_backoff_ms") {
        Some(MetricValue::Histogram { count, max, .. }) => {
            assert!(*count > 0, "no backoff delays recorded");
            assert!(*max <= 8_000, "delay beyond cap: {max}");
        }
        other => panic!("retry_backoff_ms: {other:?}"),
    }
    // The flight recorder's drop counter is part of the snapshot, and a
    // generously sized ring drops nothing on this run.
    match snap.get("trace_events_dropped") {
        Some(MetricValue::Counter(v)) => assert_eq!(*v, 0, "ring dropped events"),
        other => panic!("trace_events_dropped: {other:?}"),
    }
    // Both export formats include the labeled and histogram series.
    let json = snap.to_json();
    let prom = snap.to_prometheus();
    assert!(json.contains("\"retry_backoff_ms\""));
    assert!(json.contains("\"+Inf\""));
    assert!(prom.contains("traffic_bytes_up{client=\"1\"}"));
    assert!(prom.contains("retry_backoff_ms_bucket{le=\"8000\"}"));
}

/// One compressible streamed upload on a mobile link and platform with
/// tracing on: `len` bytes of repetitive text (every chunk clears the
/// cost-benefit bar there), synced to the cloud.
fn streamed_text_upload(
    len: usize,
    ring: usize,
) -> (deltacfs::core::DeltaCfsSystem, Obs) {
    use deltacfs::core::{DeltaCfsSystem, SyncEngine};
    use deltacfs::net::PlatformProfile;

    let clock = SimClock::new();
    let cfg = DeltaCfsConfig::new()
        .with_streaming(true)
        .with_chunk_budget(4096)
        .with_wire_compression(true);
    let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::mobile());
    sys.set_platform(PlatformProfile::mobile());
    let obs = Obs::with_tracing(ring);
    sys.enable_observability(obs.clone());

    let mut fs = deltacfs::vfs::Vfs::new();
    fs.enable_event_log();
    fs.create("/doc.txt").unwrap();
    let text: Vec<u8> = b"the quick brown fox jumps over the lazy dog. "
        .iter()
        .copied()
        .cycle()
        .take(len)
        .collect();
    fs.write("/doc.txt", 0, &text).unwrap();
    for e in fs.drain_events() {
        sys.on_event(&e, &fs);
    }
    clock.advance(4_000);
    sys.finish(&fs);
    assert_eq!(sys.server().file("/doc.txt"), Some(&text[..]));
    (sys, obs)
}

#[test]
fn wire_codec_metrics_and_trace_cover_the_compressed_stream() {
    // A compressible streamed upload on a mobile platform must leave
    // the codec's full observability surface behind: compressed/raw
    // chunk counters, the bytes-saved counter, the ratio histogram,
    // and a `wire.compress` trace event per codec decision.
    use deltacfs::core::SyncEngine;

    let (sys, obs) = streamed_text_upload(64 * 1024, 8192);

    let snap = obs.registry.snapshot();
    let counter = |name: &str| match snap.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        other => panic!("{name}: {other:?}"),
    };
    let compressed = counter("wire_compress_chunks");
    assert!(compressed > 0, "no chunk was compressed");
    assert!(
        counter("wire_compress_bytes_saved") > 0,
        "compression saved nothing"
    );
    match snap.get("wire_compress_ratio_pct") {
        Some(MetricValue::Histogram { count, .. }) => {
            assert_eq!(*count, compressed, "one ratio sample per compressed chunk");
        }
        other => panic!("wire_compress_ratio_pct: {other:?}"),
    }
    // The codec's CPU stays out of the client's cost accumulator but is
    // visible through its own.
    assert!(sys.codec_cost().bytes_compressed > 0);
    assert_eq!(sys.report().client_cost.bytes_compressed, 0);
    // Every codec decision left a trace event.
    let events = obs.tracer.events();
    let compress_events = events
        .iter()
        .filter(|e| e.stage == "wire.compress")
        .count() as u64;
    assert!(
        compress_events >= compressed,
        "codec traced {compress_events} events for {compressed} compressed chunks"
    );
}

#[test]
fn streamed_compressed_upload_trace_is_deterministic() {
    // The codec's `wire.compress` events and the uploader's `chunk`
    // events come from one loop on one thread, so the same streamed,
    // compressed upload renders the same dump every time.
    let run = || -> String {
        let (_, obs) = streamed_text_upload(256 * 1024, 65536);
        assert_eq!(obs.tracer.dropped(), 0, "ring dropped events");
        obs.tracer.dump()
    };
    let first = run();
    assert!(first.contains("wire.compress") && first.contains("chunk"));
    for round in 1..=20 {
        assert!(run() == first, "dump of run {round} differs from the first");
    }
}

#[test]
fn pinned_seed_trace_is_deterministic() {
    // Satellite check: the same pinned-seed multi-writer topology run
    // twice produces byte-identical traces — same event ordering, same
    // timestamps, same span nesting.
    let first = faulty_multi_writer_run(SEED);
    let second = faulty_multi_writer_run(SEED);
    let a = first.obs().tracer.events();
    let b = second.obs().tracer.events();
    assert!(!a.is_empty(), "trace is empty");
    assert_eq!(a.len(), b.len(), "event counts differ");
    assert_eq!(a, b, "event sequences differ");
    // Determinism only holds when the ring kept everything.
    assert_eq!(first.obs().tracer.dropped(), 0, "ring dropped events");
    assert_eq!(second.obs().tracer.dropped(), 0, "ring dropped events");
    assert_eq!(
        first.obs().tracer.dump(),
        second.obs().tracer.dump(),
        "rendered dumps differ"
    );

    // Every pipeline stage left its mark.
    let st = stages(&a);
    for stage in [
        "vfs.op",
        "relation.trigger",
        "delta.encode",
        "delta.segment",
        "sync.group",
        "wire.upload",
        "server.apply",
        "fault.inject",
        "retry.backoff",
        "wire.forward",
    ] {
        assert!(st.contains(&stage), "stage {stage} never traced");
    }
    // Span nesting: the delta.encode enter/exit pair brackets its
    // per-worker segment events at depth 1.
    let enter = st.iter().position(|s| *s == "delta.encode").unwrap();
    let seg = a
        .iter()
        .find(|e| e.stage == "delta.segment")
        .expect("segment event");
    assert_eq!(seg.depth, 1, "segment events nest inside the encode span");
    assert_eq!(a[enter].depth, 0);
}

#[test]
fn flight_recorder_dumps_causal_timeline_on_failure() {
    // A deliberately failed pinned-seed fault run must leave a flight
    // recorder dump with the causal timeline of the "diverging" file,
    // byte-identical across two runs of the same seed.
    let run_and_fail = |tag: &str| -> String {
        let path = std::env::temp_dir().join(format!(
            "deltacfs-obs-test-{}-{tag}.dump",
            std::process::id()
        ));
        std::fs::remove_file(&path).ok();
        std::env::set_var("DELTACFS_TRACE_DUMP", &path);
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            let hub = faulty_multi_writer_run(SEED);
            // Absorb component counters so the dump's metrics section
            // reflects the full picture at failure time.
            let _ = hub.export_metrics();
            let _guard = DumpGuard::new("seed 7 two-writer fault run", &hub.obs().tracer)
                .with_registry(&hub.obs().registry);
            // Deliberate divergence assertion — this is the failure the
            // recorder exists to explain.
            assert_eq!(
                hub.fs(0).peek_all("/b.txt").unwrap(),
                b"content that is not there",
                "deliberate failure"
            );
        }));
        std::env::remove_var("DELTACFS_TRACE_DUMP");
        assert!(result.is_err(), "the run was supposed to fail");
        let dump = std::fs::read_to_string(&path).expect("dump file written");
        std::fs::remove_file(&path).ok();
        dump
    };

    let first = run_and_fail("first");
    let second = run_and_fail("second");
    assert_eq!(first, second, "dump is not reproducible");

    // The header names the run, the timeline covers the diverging file's
    // causal chain, and the metrics snapshot rides along.
    assert!(first.contains("=== DeltaCFS flight recorder dump: seed 7 two-writer fault run ==="));
    assert!(first.contains("flight recorder:"), "missing event header");
    assert!(first.contains("/b.txt"), "diverging file absent from trace");
    assert!(first.contains("relation.trigger"), "no trigger decision");
    assert!(first.contains("delta.encode"), "no encode span");
    assert!(first.contains("server.apply"), "no server apply event");
    assert!(first.contains("=== metrics at failure ==="));
    assert!(first.contains("fault_injections_fired"));
}
