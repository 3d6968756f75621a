//! Integration tests for the unified observability layer: one registry
//! snapshot covering every subsystem, one deterministic record of the
//! sync pipeline under pinned-seed fault runs — every stage recorded
//! once, every adaptive decision explainable from it — and the flight
//! recorder that dumps that record when a run fails.

use std::panic;

use deltacfs::core::{DeltaCfsConfig, DeltaCfsSystem, HubConfig, SyncEngine, SyncHub};
use deltacfs::net::{FaultSpec, LinkSpec, SimClock};
use deltacfs::obs::{GroupKey, MetricValue, Obs, SpanRecord};
use deltacfs::vfs::Vfs;

mod common;
use common::{client_metric, faulty_multi_writer_run, recorded};

const SEED: u64 = 7;

fn stages(records: &[SpanRecord]) -> Vec<&str> {
    records.iter().map(|r| r.stage.as_str()).collect()
}

/// How many records of `stage` carry `group`.
fn count(records: &[SpanRecord], group: GroupKey, stage: &str) -> usize {
    let of_group = records.iter().filter(|r| r.group == Some(group));
    of_group.filter(|r| r.stage == stage).count()
}

#[test]
fn unified_snapshot_covers_every_subsystem() {
    let hub = faulty_multi_writer_run(HubConfig::new(), SEED);
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
    // The recorder's eviction counter is part of the snapshot, and a
    // generously sized table evicts nothing on this run.
    match snap.get("trace_events_dropped") {
        Some(MetricValue::Counter(v)) => assert_eq!(*v, 0, "recorder evicted records"),
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
/// the recorder on: `len` bytes of repetitive text (every chunk clears
/// the cost-benefit bar there), synced to the cloud.
fn streamed_text_upload(len: usize, capacity: usize) -> (DeltaCfsSystem, Obs) {
    use deltacfs::net::PlatformProfile;

    let clock = SimClock::new();
    let cfg = DeltaCfsConfig::new()
        .with_chunk_budget(4096)
        .with_wire_compression(true);
    let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::mobile());
    sys.set_platform(PlatformProfile::mobile());
    let obs = Obs::recording(capacity);
    sys.enable_observability(obs.clone());

    let mut fs = Vfs::new();
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
    // and exactly one `wire.compress` record per compressed chunk.
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
    // Every compressed chunk left one record, keyed by the group (the
    // file's create went up as group 1, its content as group 2).
    let group = GroupKey { client: 1, seq: 2 };
    let recorded = count(&obs.recorder.records(), group, "wire.compress") as u64;
    assert_eq!(recorded, compressed, "one record per compressed chunk");
}

#[test]
fn streamed_compressed_upload_trace_is_deterministic() {
    // The codec's `wire.compress` spans and the uploader's per-chunk
    // `wire.upload` spans come from one loop on one thread, so the same
    // streamed, compressed upload renders the same dump every time.
    let run = || -> String {
        let (_, obs) = streamed_text_upload(256 * 1024, 65536);
        assert_eq!(obs.recorder.dropped(), 0, "recorder evicted records");
        obs.recorder.dump()
    };
    let first = run();
    assert!(first.contains("wire.compress") && first.contains("wire.upload"));
    for round in 1..=20 {
        assert!(run() == first, "dump of run {round} differs from the first");
    }
}

#[test]
fn a_group_whose_first_ack_is_lost_is_forwarded_once_applied() {
    // Seed 3: client 1's second group is applied, its ack dies on the
    // downlink, and the retry is absorbed as a replay. The server
    // forwards what it applies when it applies it, so the group reaches
    // client 2 as that group's forward, not as the whole file at settle.
    let hub = faulty_multi_writer_run(HubConfig::new(), 3);
    let records = hub.obs().recorder.records();
    let group = GroupKey { client: 1, seq: 2 };
    let of_group: Vec<&SpanRecord> = records.iter().filter(|r| r.group == Some(group)).collect();
    let dump = || hub.obs().recorder.dump();
    assert!(
        of_group
            .iter()
            .any(|r| r.stage == "fault.inject" && r.detail.contains("ack lost")),
        "{group}'s first ack was not lost; the seed no longer pins the case:\n{}",
        dump()
    );
    assert!(
        of_group.iter().any(|r| r.stage == "server.dedup"),
        "{group}'s retry was not absorbed as a replay:\n{}",
        dump()
    );
    let forwards: Vec<&&SpanRecord> = of_group.iter().filter(|r| r.stage == "forward").collect();
    assert_eq!(forwards.len(), 1, "{group} forwards:\n{}", dump());
    assert_eq!(forwards[0].actor, "client-2", "{}", dump());
}

#[test]
fn pinned_seed_trace_is_deterministic() {
    // The same pinned-seed multi-writer topology run twice produces a
    // byte-identical record — same order, same timestamps, same parents.
    let first = faulty_multi_writer_run(HubConfig::new(), SEED);
    let second = faulty_multi_writer_run(HubConfig::new(), SEED);
    let a = first.obs().recorder.records();
    let b = second.obs().recorder.records();
    assert!(!a.is_empty(), "record is empty");
    assert_eq!(a, b, "records differ");
    // Determinism only holds when the table kept everything.
    assert_eq!(
        first.obs().recorder.dropped(),
        0,
        "recorder evicted records"
    );
    assert_eq!(
        first.obs().recorder.dump(),
        second.obs().recorder.dump(),
        "rendered dumps differ"
    );

    // Every pipeline stage left its mark.
    let st = stages(&a);
    for stage in [
        "vfs.op",
        "relation.trigger",
        "delta.encode",
        "vfs.write",
        "sync.group",
        "wire.upload",
        "server.apply",
        "fault.inject",
        "retry.backoff",
        "forward",
    ] {
        assert!(st.contains(&stage), "stage {stage} never recorded");
    }
}

#[test]
fn flight_recorder_dumps_causal_timeline_on_failure() {
    // A pinned-seed fault run built through the shared armed-hub builder
    // and failed on purpose must leave a flight recorder dump with the
    // causal timeline of the "diverging" file under the builder's label.
    // Dumps are appended: two failing runs leave two, byte-identical
    // because the seed is the same.
    let path = std::env::temp_dir().join(format!("deltacfs-obs-test-{}.dump", std::process::id()));
    std::fs::remove_file(&path).ok();
    std::env::set_var("DELTACFS_TRACE_DUMP", &path);
    for _ in 0..2 {
        let result = panic::catch_unwind(panic::AssertUnwindSafe(|| {
            let hub = faulty_multi_writer_run(HubConfig::new(), SEED);
            // Absorb component counters so the dump's metrics section
            // reflects the full picture at failure time.
            let _ = hub.export_metrics();
            // Deliberate divergence assertion — this is the failure the
            // recorder exists to explain.
            assert_eq!(
                hub.fs(0).peek_all("/b.txt").unwrap(),
                b"content that is not there",
                "deliberate failure"
            );
        }));
        assert!(result.is_err(), "the run was supposed to fail");
    }
    std::env::remove_var("DELTACFS_TRACE_DUMP");
    let both = std::fs::read_to_string(&path).expect("dump file written");
    std::fs::remove_file(&path).ok();
    let (first, second) = both.split_at(both.len() / 2);
    assert_eq!(
        first, second,
        "dump is not reproducible, or one overwrote the other"
    );

    // The header names the run by topology and seeds, the timeline
    // covers the diverging file's causal chain, and the metrics snapshot
    // rides along.
    let label = format!("2 client(s), fault seeds [{SEED}, {}]", SEED ^ 0xBEEF);
    assert!(first.starts_with(&format!("=== DeltaCFS flight recorder dump: {label} ===")));
    assert!(first.contains("flight recorder:"), "missing record header");
    assert!(
        first.contains("/b.txt"),
        "diverging file absent from the record"
    );
    assert!(first.contains("relation.trigger"), "no trigger decision");
    assert!(first.contains("delta.encode"), "no encode span");
    assert!(first.contains("server.apply"), "no server apply record");
    assert!(first.contains("=== metrics at failure ==="));
    assert!(first.contains("fault_injections_fired"));
}

/// Step `step` (of [`WORD_SAVE_STEPS`]) of a Word-style transactional
/// save of `/doc` — rename away, write a temp file, rename it into
/// place, drop the old copy: one relation-table trigger, one local delta.
/// Interception is synchronous, so the caller delivers each step's
/// events before the next.
fn word_save_step(fs: &mut Vfs, step: usize) {
    match step {
        0 => fs.rename("/doc", "/doc.bak").unwrap(),
        1 => fs.create("/doc.tmp").unwrap(),
        2 => {
            // An edit larger than two 1 KiB chunk budgets, so the delta
            // carries a literal that spans several frames.
            let mut doc = fs.peek_all("/doc.bak").unwrap();
            for b in &mut doc[10_000..13_000] {
                *b ^= 0xff;
            }
            fs.write("/doc.tmp", 0, &doc).unwrap();
        }
        3 => fs.close_path("/doc.tmp").unwrap(),
        4 => fs.rename("/doc.tmp", "/doc").unwrap(),
        _ => fs.unlink("/doc.bak").unwrap(),
    }
}
const WORD_SAVE_STEPS: usize = 6;

/// The group whose records include a `delta.encode` span.
fn delta_group(records: &[SpanRecord]) -> GroupKey {
    let encode = records.iter().find(|r| r.stage == "delta.encode");
    encode.and_then(|r| r.group).expect("a packed delta")
}

#[test]
fn every_stage_is_recorded_once_per_occurrence_on_every_path() {
    // One upload group carrying a delta, on each delivery path. Every
    // path uploads through the one framed leg, so the record has one
    // shape: per attempt one `wire.upload` span and one
    // `wire.upload.chunk` event per frame, then one `server.stage` and
    // one `server.apply` for the attempt that arrives. No stage is
    // written by two calls, and pack time re-creates nothing. A small
    // chunk budget makes the delta group span several frames.
    let cfg = DeltaCfsConfig::new().with_chunk_budget(1024);
    let engine_run = || {
        let clock = SimClock::new();
        let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::pc());
        let obs = Obs::recording(8192);
        sys.enable_observability(obs.clone());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/doc").unwrap();
        fs.write("/doc", 0, &vec![5u8; 20_000]).unwrap();
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        clock.advance(4_000);
        sys.tick(&fs);
        for step in 0..WORD_SAVE_STEPS {
            word_save_step(&mut fs, step);
            for e in fs.drain_events() {
                sys.on_event(&e, &fs);
            }
        }
        clock.advance(4_000);
        sys.finish(&fs);
        assert_eq!(sys.server().file("/doc"), fs.peek_slice("/doc").ok());
        obs.recorder.records()
    };
    let once = [
        "relation.trigger",
        "delta.encode",
        "vfs.write",
        "sync.group",
        "wire.upload",
        "server.stage",
        "server.apply",
    ];

    // Engine.
    let records = engine_run();
    let group = delta_group(&records);
    for stage in once {
        assert_eq!(count(&records, group, stage), 1, "engine: {stage}");
    }
    let frames = count(&records, group, "wire.upload.chunk");
    assert!(frames > 1, "the group went up in {frames} frame(s)");
    assert!(
        records.iter().all(|r| r.end_ms.is_some()),
        "engine: an open span"
    );

    // Hub: the pump's clean leg, the courier's attempts, and the
    // forward stream to the peer.
    let hub_run = |drop_first_upload: bool| {
        let clock = SimClock::new();
        let mut hub = recorded(SyncHub::new(clock.clone()));
        hub.add_client(cfg, LinkSpec::pc());
        hub.add_client(cfg, LinkSpec::pc());
        hub.fs_mut(0).create("/doc").unwrap();
        hub.fs_mut(0).write("/doc", 0, &vec![5u8; 20_000]).unwrap();
        hub.pump();
        clock.advance(4_000);
        hub.pump();
        if drop_first_upload {
            hub.enable_faults(FaultSpec::clean(SEED).with_dropped_upload(1));
        }
        for step in 0..WORD_SAVE_STEPS {
            word_save_step(hub.fs_mut(0), step);
            hub.ingest(0);
        }
        clock.advance(4_000);
        hub.pump();
        assert!(hub.settle(600_000));
        assert_eq!(
            hub.fs(1).peek_all("/doc").unwrap(),
            hub.fs(0).peek_all("/doc").unwrap()
        );
        let forwarded = client_metric(&hub, "forward_chunks", 1);
        (hub.obs().recorder.records(), forwarded as usize)
    };
    let (records, forwarded) = hub_run(false);
    let group = delta_group(&records);
    for stage in once.into_iter().chain(["forward"]) {
        assert_eq!(count(&records, group, stage), 1, "pump: {stage}");
    }
    assert_eq!(
        count(&records, group, "wire.upload.chunk"),
        frames,
        "pump: one event per frame"
    );
    let chunks: usize = records
        .iter()
        .filter(|r| r.stage == "wire.forward.chunk")
        .count();
    assert_eq!(chunks, forwarded, "one record per forwarded frame");
    assert!(
        records.iter().all(|r| r.end_ms.is_some()),
        "pump: an open span"
    );

    // Courier: one span per attempt — the dropped one stays open on
    // purpose — each attempt's frames on the wire, and still one stage,
    // one apply, one forward.
    let (records, _) = hub_run(true);
    let dropped = records
        .iter()
        .find(|r| r.end_ms.is_none())
        .expect("an open attempt");
    assert_eq!(dropped.stage, "wire.upload");
    let group = dropped.group.expect("attempts are keyed by their group");
    assert_eq!(
        count(&records, group, "wire.upload"),
        2,
        "courier: one span per attempt"
    );
    let frames = count(&records, group, "wire.upload.chunk");
    let msg = "courier: both attempts put every frame on the wire";
    assert!(frames >= 2 && frames.is_multiple_of(2), "{msg}");
    let stages = [
        "vfs.write",
        "sync.group",
        "retry.backoff",
        "server.stage",
        "server.apply",
        "forward",
    ];
    for stage in stages {
        assert_eq!(
            count(&records, group, stage),
            1,
            "courier, retried group: {stage}"
        );
    }
    let group = delta_group(&records);
    for stage in once.into_iter().chain(["forward"]) {
        assert_eq!(count(&records, group, stage), 1, "courier: {stage}");
    }
}

#[test]
fn interleaved_applications_are_explainable_from_the_record() {
    // PR 22's scenario: a second editor save fires while the first
    // save's delta is still queued behind the chat database's open write
    // node. From `records()` alone: which encode built on a version the
    // cloud did not hold yet, what produced that version, and that both
    // went up — in causal order — before the server applied them.
    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
    let obs = Obs::recording(1 << 16);
    sys.enable_observability(obs.clone());
    let mut fs = Vfs::new();
    deltacfs::workloads::replay(
        &common::editor_and_database_trace(),
        &mut fs,
        &mut sys,
        &clock,
        100,
    );
    assert_eq!(obs.recorder.dropped(), 0);
    let records = obs.recorder.records();

    // An encode's detail reads "<path> <version>: … base <path> <version>; …".
    let produced = |r: &SpanRecord| r.detail.split(": ").next().unwrap().to_string();
    let base = |r: &SpanRecord| {
        let (_, rest) = r.detail.split_once("base ").unwrap();
        rest.split(';').next().unwrap().to_string()
    };
    let packed_at = |g: Option<GroupKey>| {
        let pack = records
            .iter()
            .find(|r| r.stage == "sync.group" && r.group == g);
        pack.expect("every encode's group was packed").id
    };
    let encodes: Vec<&SpanRecord> = records
        .iter()
        .filter(|r| r.stage == "delta.encode")
        .collect();
    // The second save: its base was produced by an encode whose group
    // had not been packed when it ran.
    let (first, second) = encodes
        .iter()
        .flat_map(|a| encodes.iter().map(move |b| (*a, *b)))
        .find(|(a, b)| produced(a) == base(b) && packed_at(a.group) > b.id)
        .expect("no save chained onto a still-queued delta");
    assert!(
        second.detail.contains("base /notes.txt <c1,"),
        "{}",
        second.detail
    );
    assert!(second.detail.contains("delta wins"), "{}", second.detail);

    let group = second.group.expect("attached at pack time");
    let in_group = |stage: &str, after: &SpanRecord| {
        let mut of_stage = records.iter().filter(|r| r.stage == stage);
        of_stage
            .find(|r| r.group == Some(group) && r.id > after.id)
            .unwrap_or_else(|| panic!("no {stage} of {group} after {:?}", after.id))
    };
    let trigger = records[..records.iter().position(|r| r.id == second.id).unwrap()]
        .iter()
        .rev()
        .find(|r| r.stage == "relation.trigger")
        .unwrap();
    assert_eq!(trigger.group, Some(group));
    assert!(
        trigger.detail.contains("gedit pattern"),
        "{}",
        trigger.detail
    );
    // Causal order: trigger → encode → pack → upload → apply.
    let pack = in_group("sync.group", second);
    let upload = in_group("wire.upload", pack);
    let apply = in_group("server.apply", upload);
    assert!(
        apply.detail.contains("all_applied=true"),
        "{}",
        apply.detail
    );
    // The first save's delta is an earlier record of a group no later
    // than the second's: the cloud gets the base before what builds on it.
    assert!(first.id < second.id && first.group <= second.group);
    assert_eq!(count(&records, group, "server.apply"), 1);
}
