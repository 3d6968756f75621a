//! Fault-injection matrix: the reliability layer must converge client
//! and server state under seeded loss, duplication, reordering, server
//! crash/restart, and client disconnection.
//!
//! Every assertion embeds the seed that reproduces the failing schedule:
//! re-run with that seed pinned in a `FaultSpec` to replay it exactly.

use deltacfs::core::{ApplyOutcome, DeltaCfsConfig, SyncHub};
use deltacfs::net::{CrashPhase, FaultSpec, LinkSpec, SimClock};

mod common;
use common::{client_metric, recorded, RecordedHub};

const SETTLE_MS: u64 = 600_000;

fn two_client_hub() -> (RecordedHub, SimClock) {
    let clock = SimClock::new();
    let mut hub = recorded(SyncHub::new(clock.clone()));
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    (hub, clock)
}

/// Groups the couriers abandoned, over all clients.
fn given_up(hub: &SyncHub) -> i64 {
    (0..hub.client_count())
        .map(|idx| client_metric(hub, "retry_groups_given_up", idx))
        .sum()
}

/// Ingest pending events, then advance past the upload delay and pump
/// again so the aged nodes actually go on the (faulty) wire.
fn pump_round(hub: &mut SyncHub, clock: &SimClock) {
    hub.pump();
    clock.advance(4_000);
    hub.pump();
}

/// Asserts that every file the server holds is byte-identical on every
/// client, and that no client holds stray non-conflict files the server
/// lacks.
fn assert_converged(hub: &SyncHub, seed: u64) {
    for path in hub.cloud().paths() {
        let server = hub.cloud().file(&path).unwrap();
        for idx in 0..hub.client_count() {
            let local = hub.fs(idx).peek_all(&path).unwrap_or_default();
            assert_eq!(
                local, server,
                "seed {seed}: client {idx} diverged from server on {path}"
            );
        }
    }
    for idx in 0..hub.client_count() {
        for path in hub.fs(idx).walk_files("/").unwrap_or_default() {
            let path = path.to_string();
            if !path.contains(".conflict-") {
                assert!(
                    hub.cloud().file(&path).is_some(),
                    "seed {seed}: client {idx} holds {path} the server lacks"
                );
            }
        }
    }
}

/// A small two-client workload on disjoint paths: several rounds of
/// creates and in-place edits, each round a separate upload group.
fn run_disjoint_workload(hub: &mut SyncHub, clock: &SimClock) {
    hub.fs_mut(0).create("/a.txt").unwrap();
    hub.fs_mut(0)
        .write("/a.txt", 0, b"alpha round one")
        .unwrap();
    hub.fs_mut(1).create("/b.txt").unwrap();
    hub.fs_mut(1)
        .write("/b.txt", 0, b"bravo round one")
        .unwrap();
    pump_round(hub, clock);

    hub.fs_mut(0).write("/a.txt", 6, b"ROUND TWO").unwrap();
    hub.fs_mut(1).write("/b.txt", 0, b"BRAVO").unwrap();
    pump_round(hub, clock);

    hub.fs_mut(0).create("/a2.txt").unwrap();
    hub.fs_mut(0)
        .write("/a2.txt", 0, &vec![7u8; 2_000])
        .unwrap();
    hub.fs_mut(1).write("/b.txt", 15, b" plus a tail").unwrap();
    pump_round(hub, clock);
}

#[test]
fn drop_matrix_converges() {
    for seed in 0..8u64 {
        let (mut hub, clock) = two_client_hub();
        hub.enable_faults(
            FaultSpec::clean(seed)
                .with_rates(0.3, 0.2, 0.3)
                .with_reorder(0.5),
        );
        run_disjoint_workload(&mut hub, &clock);
        let drained = hub.settle(SETTLE_MS);
        assert!(drained, "seed {seed}: a courier gave up or never drained");
        assert_eq!(given_up(&hub), 0, "seed {seed}");
        assert_converged(&hub, seed);
    }
}

#[test]
fn drop_matrix_converges_with_wire_compression() {
    // The reliability layer is codec-agnostic: the same loss /
    // duplication / reorder matrix converges with the adaptive wire
    // codec compressing upload and forwarded chunk frames. Retries
    // replay whole groups, the server dedups on group seqs, and a
    // frame's codec decision never leaks into any of it.
    let cfg = DeltaCfsConfig::new().with_wire_compression(true);
    for seed in 0..8u64 {
        let clock = SimClock::new();
        let mut hub = recorded(SyncHub::new(clock.clone()));
        hub.add_client(cfg, LinkSpec::pc());
        hub.add_client(cfg, LinkSpec::mobile());
        hub.enable_faults(
            FaultSpec::clean(seed)
                .with_rates(0.3, 0.2, 0.3)
                .with_reorder(0.5),
        );
        run_disjoint_workload(&mut hub, &clock);
        let drained = hub.settle(SETTLE_MS);
        assert!(drained, "seed {seed}: a courier gave up or never drained");
        assert_eq!(given_up(&hub), 0, "seed {seed}");
        assert_converged(&hub, seed);
        let records = hub.obs().recorder.records();
        assert!(
            records
                .iter()
                .any(|r| r.stage == "wire.upload.chunk" && r.detail.contains("compressed from")),
            "seed {seed}: no upload frame was compressed"
        );
    }
}

#[test]
fn server_crash_matrix_loses_no_committed_version() {
    for seed in 0..8u64 {
        for phase in [CrashPhase::BeforeApply, CrashPhase::AfterApply] {
            // Crash a different upload attempt per seed so the matrix
            // sweeps injection points across the whole exchange.
            let crash_at = seed % 4 + 1;
            let (mut hub, clock) = two_client_hub();
            hub.enable_faults(FaultSpec::clean(seed).with_crash(crash_at, phase));
            run_disjoint_workload(&mut hub, &clock);
            let drained = hub.settle(SETTLE_MS);
            assert!(
                drained,
                "seed {seed} crash@{crash_at} {phase:?}: courier never drained"
            );
            assert_converged(&hub, seed);
            // Zero lost committed versions: everything the server acked
            // is still retrievable from its (restarted) state.
            assert!(
                !hub.acked().is_empty(),
                "seed {seed} crash@{crash_at} {phase:?}: nothing was acked"
            );
            for (client, path, version) in hub.acked() {
                assert!(
                    hub.cloud().version_history(path).contains(version),
                    "seed {seed} crash@{crash_at} {phase:?}: acked version \
                     {version:?} from client {client} lost on {path}"
                );
            }
        }
    }
}

#[test]
fn first_write_wins_when_losers_upload_is_delayed_by_loss() {
    let seed = 42u64;
    let (mut hub, clock) = two_client_hub();
    // Shared baseline, synced before faults are armed.
    hub.fs_mut(0).create("/doc").unwrap();
    hub.fs_mut(0).write("/doc", 0, &vec![b'x'; 50_000]).unwrap();
    pump_round(&mut hub, &clock);
    assert_eq!(hub.cloud().file("/doc").map(<[u8]>::len), Some(50_000));

    // Upload attempt 1 (client 1's edit) is dropped; the retry arrives
    // only after client 0's competing edit has been applied.
    hub.enable_faults(FaultSpec::clean(seed).with_dropped_upload(1));
    let up_before = hub.traffic(1).bytes_up;

    hub.fs_mut(1).write("/doc", 0, b"SECOND").unwrap();
    pump_round(&mut hub, &clock); // dropped, courier backs off

    hub.fs_mut(0).write("/doc", 0, b"FIRST!").unwrap();
    pump_round(&mut hub, &clock); // client 0 wins; client 1 retries late
    let drained = hub.settle(SETTLE_MS);
    assert!(drained, "seed {seed}: courier never drained");

    // First write wins: the cloud kept client 0's content.
    let doc = hub.cloud().file("/doc").unwrap();
    assert_eq!(&doc[..6], b"FIRST!", "seed {seed}");
    // The late loser was stored as a cloud-side conflict copy, built
    // from its incremental ops against the historical base.
    let conflict_path = "/doc.conflict-c2";
    let copy = hub
        .cloud()
        .file(conflict_path)
        .unwrap_or_else(|| panic!("seed {seed}: no conflict copy {conflict_path}"));
    assert_eq!(&copy[..6], b"SECOND", "seed {seed}");
    assert_eq!(
        copy.len(),
        50_000,
        "seed {seed}: copy not built on full base"
    );
    assert!(
        hub.server_outcomes()
            .iter()
            .any(|o| matches!(o, ApplyOutcome::Conflict { .. })),
        "seed {seed}: server never recorded the conflict"
    );
    // The losing edit travelled as incremental ops both times — never as
    // a re-upload of the whole 50 KB file.
    let up = hub.traffic(1).bytes_up - up_before;
    assert!(
        up < 10_000,
        "seed {seed}: client 1 uploaded {up} bytes for a 6-byte edit"
    );
    assert_converged(&hub, seed);
}

#[test]
fn client_crash_restart_replays_undo_log_as_delta() {
    let seed = 7u64;
    let (mut hub, clock) = two_client_hub();
    hub.fs_mut(0).create("/db").unwrap();
    hub.fs_mut(0).write("/db", 0, &vec![3u8; 40_000]).unwrap();
    pump_round(&mut hub, &clock);
    hub.enable_faults(FaultSpec::clean(seed));
    let up_before = hub.traffic(0).bytes_up;

    // In-place edits that never reach the wire before the crash.
    hub.fs_mut(0).write("/db", 1_000, &[9u8; 64]).unwrap();
    hub.fs_mut(0).write("/db", 30_000, &[8u8; 32]).unwrap();
    let replayed = hub.crash_and_restart_client(0);
    assert_eq!(replayed, vec!["/db".to_string()], "seed {seed}");

    let drained = hub.settle(SETTLE_MS);
    assert!(drained, "seed {seed}");
    let mut expect = vec![3u8; 40_000];
    expect[1_000..1_064].copy_from_slice(&[9u8; 64]);
    expect[30_000..30_032].copy_from_slice(&[8u8; 32]);
    assert_eq!(hub.cloud().file("/db"), Some(&expect[..]), "seed {seed}");
    assert_converged(&hub, seed);
    // The replay shipped a delta against the cloud's base, not 40 KB.
    let up = hub.traffic(0).bytes_up - up_before;
    assert!(
        up < 10_000,
        "seed {seed}: crash replay uploaded {up} bytes for ~100 changed bytes"
    );
}

#[test]
fn client_crash_restart_ships_unsynced_file_whole() {
    let seed = 11u64;
    let (mut hub, clock) = two_client_hub();
    hub.enable_faults(FaultSpec::clean(seed));
    // A brand-new file the cloud has never seen; the queue dies with the
    // crash, so recovery must fall back to full content.
    hub.fs_mut(0).create("/fresh").unwrap();
    hub.fs_mut(0).write("/fresh", 0, b"never uploaded").unwrap();
    let replayed = hub.crash_and_restart_client(0);
    assert_eq!(replayed, vec!["/fresh".to_string()], "seed {seed}");
    let drained = hub.settle(SETTLE_MS);
    assert!(drained, "seed {seed}");
    assert_eq!(
        hub.cloud().file("/fresh"),
        Some(&b"never uploaded"[..]),
        "seed {seed}"
    );
    let _ = clock;
    assert_converged(&hub, seed);
}

#[test]
fn duplicate_and_reordered_deliveries_are_absorbed() {
    for seed in 0..8u64 {
        let (mut hub, clock) = two_client_hub();
        hub.enable_faults(
            FaultSpec::clean(seed)
                .with_rates(0.0, 0.0, 1.0) // every delivery duplicated
                .with_reorder(1.0), // every duplicate arrives late
        );
        run_disjoint_workload(&mut hub, &clock);
        let drained = hub.settle(SETTLE_MS);
        assert!(drained, "seed {seed}");
        assert!(
            hub.cloud().duplicates_ignored() > 0,
            "seed {seed}: dedup never engaged"
        );
        // No version was applied twice: histories hold distinct versions.
        for path in hub.cloud().paths() {
            let history = hub.cloud().version_history(&path);
            let mut dedup = history.clone();
            dedup.dedup();
            assert_eq!(
                history, dedup,
                "seed {seed}: duplicate application left twin versions on {path}"
            );
        }
        assert_converged(&hub, seed);
    }
}

#[test]
fn multi_writer_fault_matrix_converges() {
    // Two *concurrently faulty* writers, each under its own pinned,
    // independent schedule: distinct seeds, distinct drop/dup/reorder
    // rates, and (on odd seeds) a server crash keyed on writer 1's own
    // upload attempts. One writer's retries never perturb the other's
    // decision stream, and both must still converge with the server.
    for seed in 0..8u64 {
        let (mut hub, clock) = two_client_hub();
        let mut spec_b = FaultSpec::clean(seed ^ 0x00DE_C0DE)
            .with_rates(0.25, 0.15, 0.5)
            .with_reorder(1.0);
        if seed % 2 == 1 {
            spec_b = spec_b.with_crash(seed % 3 + 1, CrashPhase::AfterApply);
        }
        hub.enable_fault_topology(vec![
            FaultSpec::clean(seed)
                .with_rates(0.3, 0.2, 0.4)
                .with_reorder(0.5),
            spec_b,
        ]);
        run_disjoint_workload(&mut hub, &clock);
        // Rename traffic keeps version-less (namespace-only) groups in
        // play on both writers while duplicates are being deferred.
        hub.fs_mut(0).rename("/a.txt", "/a-renamed.txt").unwrap();
        hub.fs_mut(1).rename("/b.txt", "/b-renamed.txt").unwrap();
        pump_round(&mut hub, &clock);
        // A root client moves a file across top-level directories.
        for dir in ["/docs", "/archive"] {
            hub.fs_mut(0).mkdir_all(dir).unwrap();
        }
        hub.fs_mut(0).create("/docs/notes.txt").unwrap();
        hub.fs_mut(0)
            .write("/docs/notes.txt", 0, b"moved across")
            .unwrap();
        pump_round(&mut hub, &clock);
        hub.fs_mut(0)
            .rename("/docs/notes.txt", "/archive/notes.txt")
            .unwrap();
        pump_round(&mut hub, &clock);
        let drained = hub.settle(SETTLE_MS);
        assert!(drained, "seed {seed}: a courier gave up or never drained");
        // Every held-back duplicate was redelivered before settle returned.
        assert_eq!(hub.deferred_len(), 0, "seed {seed}: deferred queue leaked");
        assert_converged(&hub, seed);
        assert_eq!(
            hub.cloud().file("/archive/notes.txt"),
            Some(&b"moved across"[..]),
            "seed {seed}"
        );
        assert!(hub.cloud().file("/docs/notes.txt").is_none(), "seed {seed}");
        // Causal order per writer, independent of the other writer's
        // interleaved retries.
        for idx in 0..hub.client_count() {
            let counters: Vec<u64> = hub
                .acked()
                .iter()
                .filter(|(c, _, _)| *c == idx)
                .map(|(_, _, v)| v.counter)
                .collect();
            for pair in counters.windows(2) {
                assert!(
                    pair[1] > pair[0],
                    "seed {seed}: client {idx} acked v{} after v{}",
                    pair[1],
                    pair[0]
                );
            }
        }
        // Nothing the server acked was lost, crash or no crash. A rename
        // carries a file's history to its new path, so search every
        // current path's history, not just the path the ack named.
        for (client, path, version) in hub.acked() {
            let survives = hub
                .cloud()
                .paths()
                .iter()
                .any(|p| hub.cloud().version_history(p).contains(version));
            assert!(
                survives,
                "seed {seed}: acked version {version:?} from client {client} lost on {path}"
            );
        }
    }
}

#[test]
fn late_rename_replay_after_recreate_is_deduped() {
    // Regression for the version-less dedup hole: a pure rename group
    // carries no file version, so a per-version index never saw it — a
    // duplicated copy deferred past the path's re-creation used to
    // re-execute the rename and clobber the fresh file. The sender's
    // `GroupSeq` marks the late copy a replay instead.
    let seed = 5u64;
    let (mut hub, clock) = two_client_hub();
    hub.fs_mut(0).create("/old").unwrap();
    hub.fs_mut(0).write("/old", 0, b"payload").unwrap();
    pump_round(&mut hub, &clock);
    assert_eq!(hub.cloud().file("/old"), Some(&b"payload"[..]));

    // Every delivery duplicated, every duplicate redelivered late.
    hub.enable_faults(
        FaultSpec::clean(seed)
            .with_rates(0.0, 0.0, 1.0)
            .with_reorder(1.0),
    );
    hub.fs_mut(0).rename("/old", "/new").unwrap();
    hub.fs_mut(0).create("/old").unwrap();
    hub.fs_mut(0).write("/old", 0, b"fresh").unwrap();
    pump_round(&mut hub, &clock);
    let drained = hub.settle(SETTLE_MS);
    assert!(drained, "seed {seed}: courier never drained");
    assert_eq!(hub.deferred_len(), 0, "seed {seed}: deferred queue leaked");
    assert!(
        hub.cloud().duplicates_ignored() > 0,
        "seed {seed}: dedup never engaged"
    );
    assert_eq!(
        hub.cloud().file("/new"),
        Some(&b"payload"[..]),
        "seed {seed}: late rename replay clobbered /new"
    );
    assert_eq!(
        hub.cloud().file("/old"),
        Some(&b"fresh"[..]),
        "seed {seed}: late rename replay removed the recreated /old"
    );
    assert_converged(&hub, seed);
}

#[test]
fn disconnect_window_defers_and_heals() {
    let seed = 3u64;
    let (mut hub, clock) = two_client_hub();
    // Client 1 is offline for the first 20 s of the run.
    hub.enable_faults(FaultSpec::clean(seed).with_disconnect(1, 0, 20_000));

    hub.fs_mut(0).create("/from0").unwrap();
    hub.fs_mut(0)
        .write("/from0", 0, b"while peer offline")
        .unwrap();
    hub.fs_mut(1).create("/from1").unwrap();
    hub.fs_mut(1)
        .write("/from1", 0, b"queued while offline")
        .unwrap();
    pump_round(&mut hub, &clock);

    // Inside the window nothing from client 1 reached the cloud.
    assert!(
        hub.cloud().file("/from1").is_none(),
        "seed {seed}: disconnected client still uploaded"
    );
    let stats = hub.fault_stats().unwrap();
    assert!(stats.disconnected_sends > 0, "seed {seed}");

    // Settling advances past the window; everything converges.
    let drained = hub.settle(SETTLE_MS);
    assert!(drained, "seed {seed}");
    assert_eq!(
        hub.cloud().file("/from1"),
        Some(&b"queued while offline"[..]),
        "seed {seed}"
    );
    assert_converged(&hub, seed);
}

// --- Namespaced two-writer fault matrix (DESIGN.md §13) -----------------

/// A hub whose two writers live in different namespaces of the one
/// server, so every fault schedule below mixes two tenants' retries,
/// snapshots and crash reloads.
fn two_writer_namespaced_hub() -> (RecordedHub, SimClock, [String; 2]) {
    let (ns_a, ns_b) = ("alpha".to_string(), "beta0".to_string());
    let clock = SimClock::new();
    let mut hub = recorded(SyncHub::new(clock.clone()));
    hub.add_client_in(&ns_a, DeltaCfsConfig::new(), LinkSpec::pc());
    hub.add_client_in(&ns_b, DeltaCfsConfig::new(), LinkSpec::pc());
    hub.fs_mut(0).mkdir_all(&format!("/{ns_a}")).unwrap();
    hub.fs_mut(1).mkdir_all(&format!("/{ns_b}")).unwrap();
    (hub, clock, [ns_a, ns_b])
}

/// The disjoint workload of `run_disjoint_workload`, with each writer's
/// paths under its own namespace.
fn run_namespaced_disjoint_workload(hub: &mut SyncHub, clock: &SimClock, ns: &[String; 2]) {
    let a = |p: &str| format!("/{}/{p}", ns[0]);
    let b = |p: &str| format!("/{}/{p}", ns[1]);
    hub.fs_mut(0).create(&a("a.txt")).unwrap();
    hub.fs_mut(0)
        .write(&a("a.txt"), 0, b"alpha round one")
        .unwrap();
    hub.fs_mut(1).create(&b("b.txt")).unwrap();
    hub.fs_mut(1)
        .write(&b("b.txt"), 0, b"bravo round one")
        .unwrap();
    pump_round(hub, clock);

    hub.fs_mut(0).write(&a("a.txt"), 6, b"ROUND TWO").unwrap();
    hub.fs_mut(1).write(&b("b.txt"), 0, b"BRAVO").unwrap();
    pump_round(hub, clock);

    hub.fs_mut(0).create(&a("a2.txt")).unwrap();
    hub.fs_mut(0)
        .write(&a("a2.txt"), 0, &vec![7u8; 2_000])
        .unwrap();
    hub.fs_mut(1)
        .write(&b("b.txt"), 15, b" plus a tail")
        .unwrap();
    pump_round(hub, clock);
}

/// Namespace-aware convergence: each client agrees with the server on
/// every path inside its own namespace, and holds no stray non-conflict
/// files the server lacks.
fn assert_converged_namespaced(hub: &SyncHub, seed: u64) {
    for idx in 0..hub.client_count() {
        let ns = hub.namespace(idx).to_string();
        for path in hub.cloud().paths_in_namespace(&ns) {
            let server = hub.cloud().file(&path).unwrap();
            let local = hub.fs(idx).peek_all(&path).unwrap_or_default();
            assert_eq!(
                local, server,
                "seed {seed}: client {idx} diverged from server on {path}"
            );
        }
        for path in hub.fs(idx).walk_files("/").unwrap_or_default() {
            let path = path.to_string();
            if !path.contains(".conflict-") {
                assert!(
                    hub.cloud().file(&path).is_some(),
                    "seed {seed}: client {idx} holds {path} the server lacks"
                );
            }
        }
    }
}

#[test]
fn namespaced_drop_matrix_converges() {
    // The pinned-seed drop/dup/reorder matrix of `drop_matrix_converges`,
    // with the writers in two namespaces.
    for seed in 0..8u64 {
        let (mut hub, clock, ns) = two_writer_namespaced_hub();
        hub.enable_faults(
            FaultSpec::clean(seed)
                .with_rates(0.3, 0.2, 0.3)
                .with_reorder(0.5),
        );
        run_namespaced_disjoint_workload(&mut hub, &clock, &ns);
        let drained = hub.settle(SETTLE_MS);
        assert!(drained, "seed {seed}: a courier gave up or never drained");
        assert_eq!(given_up(&hub), 0, "seed {seed}");
        assert_converged_namespaced(&hub, seed);
    }
}

#[test]
fn namespaced_multi_writer_fault_topology_converges() {
    // `multi_writer_fault_matrix_converges` with the writers in two
    // namespaces: distinct per-writer schedules, server crashes on odd
    // seeds (reloading the server's snapshot).
    for seed in 0..8u64 {
        let (mut hub, clock, ns) = two_writer_namespaced_hub();
        let mut spec_b = FaultSpec::clean(seed ^ 0x00DE_C0DE)
            .with_rates(0.25, 0.15, 0.5)
            .with_reorder(1.0);
        if seed % 2 == 1 {
            spec_b = spec_b.with_crash(seed % 3 + 1, CrashPhase::AfterApply);
        }
        hub.enable_fault_topology(vec![
            FaultSpec::clean(seed)
                .with_rates(0.3, 0.2, 0.4)
                .with_reorder(0.5),
            spec_b,
        ]);
        run_namespaced_disjoint_workload(&mut hub, &clock, &ns);
        // Version-less rename groups in both namespaces while duplicates
        // are being deferred.
        let a_renamed = format!("/{}/a-renamed.txt", ns[0]);
        let b_renamed = format!("/{}/b-renamed.txt", ns[1]);
        hub.fs_mut(0)
            .rename(&format!("/{}/a.txt", ns[0]), &a_renamed)
            .unwrap();
        hub.fs_mut(1)
            .rename(&format!("/{}/b.txt", ns[1]), &b_renamed)
            .unwrap();
        pump_round(&mut hub, &clock);
        let drained = hub.settle(SETTLE_MS);
        assert!(drained, "seed {seed}: a courier gave up or never drained");
        assert_eq!(hub.deferred_len(), 0, "seed {seed}: deferred queue leaked");
        assert_converged_namespaced(&hub, seed);
        // Causal order per writer, independent of the other writer's
        // interleaved retries.
        for idx in 0..hub.client_count() {
            let counters: Vec<u64> = hub
                .acked()
                .iter()
                .filter(|(c, _, _)| *c == idx)
                .map(|(_, _, v)| v.counter)
                .collect();
            for pair in counters.windows(2) {
                assert!(
                    pair[1] > pair[0],
                    "seed {seed}: client {idx} acked v{} after v{}",
                    pair[1],
                    pair[0]
                );
            }
        }
        // Nothing the server acked was lost, crash or no crash.
        for (client, path, version) in hub.acked() {
            let survives = hub
                .cloud()
                .paths()
                .iter()
                .any(|p| hub.cloud().version_history(p).contains(version));
            assert!(
                survives,
                "seed {seed}: acked version {version:?} from client {client} lost on {path}"
            );
        }
    }
}

#[test]
fn pinned_seed_fires_exact_injection_counts() {
    // Satellite check: the fault plan's injection counters are exported
    // through the obs registry, and a pinned seed fires an exact,
    // reproducible number of injections — if the decision stream drifts,
    // these numbers change and this test catches it.
    let seed = 3u64;
    let (mut hub, clock) = two_client_hub();
    hub.enable_observability(deltacfs::obs::Obs::new());
    hub.enable_faults(
        FaultSpec::clean(seed)
            .with_rates(0.3, 0.2, 0.3)
            .with_reorder(0.5),
    );
    run_disjoint_workload(&mut hub, &clock);
    let drained = hub.settle(SETTLE_MS);
    assert!(drained, "seed {seed}: courier never drained");

    let stats = hub.fault_stats().unwrap();
    assert!(stats.total_fired() > 0, "seed {seed}: no injection fired");
    // Exact pinned counts for seed 3 under this workload. Re-pinned when
    // the hub began forwarding a group as the server first applies it,
    // not on the uploader's ack: the forwards' download draws moved
    // ahead of the ack's in the one plan's decision stream.
    assert_eq!(stats.uploads_attempted, 16, "seed {seed}: {stats:?}");
    assert_eq!(stats.uploads_dropped, 2, "seed {seed}: {stats:?}");
    assert_eq!(stats.uploads_duplicated, 6, "seed {seed}: {stats:?}");
    assert_eq!(stats.duplicates_reordered, 3, "seed {seed}: {stats:?}");
    assert_eq!(stats.downloads_dropped, 6, "seed {seed}: {stats:?}");
    assert_eq!(stats.total_fired(), 17, "seed {seed}: {stats:?}");

    // The same numbers come out of the unified metrics snapshot.
    let snap = hub.export_metrics();
    let counter = |name: &str| match snap.get(name) {
        Some(deltacfs::obs::MetricValue::Counter(v)) => *v,
        other => panic!("{name}: unexpected {other:?}"),
    };
    assert_eq!(counter("fault_injections_fired"), stats.total_fired());
    assert_eq!(counter("fault_uploads_dropped"), stats.uploads_dropped);
    assert_eq!(
        counter("fault_uploads_duplicated"),
        stats.uploads_duplicated
    );
    assert_eq!(counter("fault_downloads_dropped"), stats.downloads_dropped);
}

#[test]
fn dropped_mid_group_chunk_never_commits_and_whole_group_resend_recovers() {
    // Every upload stages its chunk frames server-side; the group is
    // released whole on the final frame and committed atomically by
    // the caller (here explicitly, as the courier does). Losing a chunk in
    // the middle of a group must therefore leave the server exactly at
    // its pre-group state; the recovery protocol is a whole-group resend
    // from chunk (0,0), which the sender's `GroupSeq` keeps idempotent
    // even if the first attempt had partially staged.
    use deltacfs::core::{
        pipeline, ClientId, CloudServer, GroupId, Payload, UpdateMsg, UpdatePayload, Version,
    };
    use deltacfs::delta::{local, Cost, DeltaParams};

    let mut server = CloudServer::new();
    let cli = ClientId(7);
    let base: Vec<u8> = (0..4096u32)
        .map(|i| (i.wrapping_mul(13) % 251) as u8)
        .collect();
    let v1 = Version {
        client: cli,
        counter: 1,
    };
    server.apply_msg(&UpdateMsg {
        path: "/f".into(),
        base: None,
        version: Some(v1),
        payload: UpdatePayload::Full(Payload::from(base.clone())),
        group: None,
    });

    let mut new = base.clone();
    new[300..1500].fill(0xC3);
    let delta = local::diff(
        &base,
        &new,
        &DeltaParams::with_block_size(64),
        &mut Cost::new(),
    );
    let group = vec![UpdateMsg {
        path: "/f".into(),
        base: Some(v1),
        version: Some(Version {
            client: cli,
            counter: 2,
        }),
        payload: UpdatePayload::Delta {
            base_path: "/f".into(),
            delta,
        },
        group: Some(GroupId {
            client: cli,
            seq: 1,
        }),
    }];
    let mut frames = Vec::new();
    pipeline::frame_group(&group, 128, |f| frames.push(f));
    assert!(frames.len() >= 3, "workload must span several chunks");

    // First attempt: the link eats frame 1; the next frame arrives
    // out of order and is rejected, dropping the partial stage.
    assert_eq!(server.receive_chunk(&frames[0]).unwrap(), None);
    assert!(server.receive_chunk(&frames[2]).is_err());
    assert_eq!(
        server.file("/f"),
        Some(&base[..]),
        "partial group must not apply"
    );
    assert_eq!(server.version("/f"), Some(v1));

    // Retry: whole-group resend from chunk (0,0) arrives whole, and the
    // caller commits it atomically.
    let mut outcomes = Vec::new();
    for f in &frames {
        if let Some(msgs) = server.receive_chunk(f).unwrap() {
            assert_eq!(msgs, group, "the stage reassembles the sent group");
            outcomes.extend(server.apply_txn(&msgs));
        }
    }
    assert_eq!(outcomes, vec![ApplyOutcome::Applied]);
    assert_eq!(server.file("/f"), Some(&new[..]));
    let v2 = server.version("/f").unwrap();
    assert_eq!(v2.counter, 2);

    // A duplicate redelivery of the full chunk stream (e.g. a retry
    // racing the ack) is a replay: no outcomes, no state change, no
    // double-apply of the delta.
    let (order, cost) = (server.apply_order().to_vec(), server.cost());
    let mut replayed = 0;
    for f in &frames {
        if let Some(msgs) = server.receive_chunk(f).unwrap() {
            assert!(
                server.apply_txn(&msgs).is_empty(),
                "the sender's GroupSeq marks the resend a replay"
            );
            replayed += 1;
        }
    }
    assert_eq!(replayed, 1, "the resend reassembles once");
    assert_eq!(server.duplicates_ignored(), 1);
    assert_eq!((server.apply_order(), server.cost()), (&order[..], cost));
    assert_eq!(server.file("/f"), Some(&new[..]));
    assert_eq!(server.version("/f"), Some(v2));
    assert_eq!(server.version_history("/f"), vec![v1, v2]);
}

// --- Forward/download-direction streaming (DESIGN.md §14) -----------------

#[test]
fn lost_forward_then_diverged_peer_materializes_full_never_stale_delta() {
    // Regression for the forward-direction stale-base hazard: a peer
    // that missed an earlier forwarded group on a dropped downlink
    // holds an older base than the next group's incremental payload
    // assumes. The forward planner must detect the divergence against
    // the peer's version table and materialize full content; silently
    // applying the delta/ops to the stale base would corrupt the peer.
    // With whole-group atomic commit the peer is always at exactly one
    // of the writer's published versions — never a blend.
    let mut v1 = vec![7u8; 4_000];
    v1[..16].copy_from_slice(b"baseline-content");
    let mut v2 = v1.clone();
    v2[1_000..1_100].fill(0x22);
    let mut v3 = v2.clone();
    v3[2_500..2_600].fill(0x33);
    let states: [&[u8]; 3] = [&v1, &v2, &v3];

    let mut saw_materialized_heal = false;
    for seed in 0..16u64 {
        let (mut hub, clock) = two_client_hub();
        hub.fs_mut(0).create("/f").unwrap();
        hub.fs_mut(0).write("/f", 0, &v1).unwrap();
        pump_round(&mut hub, &clock);
        assert_eq!(
            hub.fs(1).peek_all("/f").unwrap(),
            v1,
            "seed {seed}: baseline"
        );

        // The writer uploads cleanly; the peer's downlink drops about
        // half of the forwarded streams.
        hub.enable_fault_topology(vec![
            FaultSpec::clean(seed),
            FaultSpec::clean(seed ^ 0x0D09).with_rates(0.0, 0.5, 0.0),
        ]);
        hub.fs_mut(0).write("/f", 1_000, &[0x22u8; 100]).unwrap();
        pump_round(&mut hub, &clock);
        let after2 = hub.fs(1).peek_all("/f").unwrap();
        assert!(
            states.contains(&&after2[..]),
            "seed {seed}: torn state after round 2"
        );

        hub.fs_mut(0).write("/f", 2_500, &[0x33u8; 100]).unwrap();
        pump_round(&mut hub, &clock);
        let after3 = hub.fs(1).peek_all("/f").unwrap();
        assert!(
            states.contains(&&after3[..]),
            "seed {seed}: stale incremental payload applied to the wrong base"
        );
        if after2 == v1 && after3 == v3 {
            // Round 2's forward was lost yet round 3 landed intact: the
            // only correct way there is the planner's materialized Full.
            saw_materialized_heal = true;
        }

        let drained = hub.settle(SETTLE_MS);
        assert!(drained, "seed {seed}: courier never drained");
        assert_eq!(hub.cloud().file("/f"), Some(&v3[..]), "seed {seed}");
        assert_converged(&hub, seed);
    }
    assert!(
        saw_materialized_heal,
        "no seed in 0..16 exercised the lost-then-diverged heal path"
    );
}

#[test]
fn crash_drops_staged_forward_group_and_settle_reconverges() {
    // A forwarded group whose stream is cut mid-group leaves the frames
    // received before the loss staged in the peer's stager (visible as
    // a non-zero forward stage depth). A client crash must not leak or
    // later resurrect that partial group: restart drops the stage, and
    // the anti-entropy settle pass brings the peer back to the server's
    // content through a fresh stream.
    let mut exercised = false;
    for seed in 0..64u64 {
        let (mut hub, clock) = two_client_hub();
        hub.fs_mut(0).create("/doc").unwrap();
        hub.fs_mut(0).write("/doc", 0, &[1u8; 700]).unwrap();
        pump_round(&mut hub, &clock);
        hub.enable_fault_topology(vec![
            FaultSpec::clean(seed),
            FaultSpec::clean(seed ^ 0x57A6).with_rates(0.0, 0.5, 0.0),
        ]);
        // Interleaved writes to two fresh files form one multi-message
        // transaction group: /u's second write batches into its still
        // open write node after /w entered the queue, and the FIFO
        // violation's backindex fuses [write /u, create /w, write /w]
        // into a single group. The forward then streams three messages
        // under one `GroupId`, so a loss drawn on a later message
        // leaves the earlier, already streamed ones staged but
        // uncommitted. (Events are ingested per operation, as a real
        // synchronous interception layer would deliver them.)
        hub.fs_mut(0).create("/u").unwrap();
        hub.ingest(0);
        hub.fs_mut(0).write("/u", 0, &[1u8; 700]).unwrap();
        hub.ingest(0);
        hub.fs_mut(0).create("/w").unwrap();
        hub.ingest(0);
        hub.fs_mut(0).write("/w", 0, &[2u8; 700]).unwrap();
        hub.ingest(0);
        hub.fs_mut(0).write("/u", 700, &[3u8; 700]).unwrap();
        hub.ingest(0);
        pump_round(&mut hub, &clock);
        if client_metric(&hub, "forward_staged_groups", 1) == 0 {
            continue; // this seed lost the head message (or nothing)
        }
        exercised = true;
        // The budget gauge sees the same partial group: at least the
        // first message's 700 written bytes, and nothing server-side
        // (the hub's uploads are not chunk-staged).
        let staged = |hub: &SyncHub, label: &str| match hub
            .export_metrics()
            .get_labeled("stager_staged_bytes", label)
        {
            Some(deltacfs::obs::MetricValue::Gauge(v)) => *v,
            other => panic!("stager_staged_bytes{{{label}}}: unexpected {other:?}"),
        };
        assert!(
            (700..2_800).contains(&staged(&hub, "2")),
            "seed {seed}: {} bytes staged",
            staged(&hub, "2")
        );
        assert_eq!(staged(&hub, "1"), 0, "seed {seed}");
        assert_eq!(staged(&hub, "server"), 0, "seed {seed}");
        hub.crash_and_restart_client(1);
        assert_eq!(
            client_metric(&hub, "forward_staged_groups", 1),
            0,
            "seed {seed}: restart left staged forward frames"
        );
        assert_eq!(
            staged(&hub, "2"),
            0,
            "seed {seed}: restart left staged bytes"
        );
        let drained = hub.settle(SETTLE_MS);
        assert!(drained, "seed {seed}: courier never drained");
        assert_converged(&hub, seed);
        let mut u = vec![1u8; 700];
        u.extend_from_slice(&[3u8; 700]);
        assert_eq!(
            hub.fs(1).peek_all("/u").unwrap(),
            u,
            "seed {seed}: peer missing the batched writes after settle"
        );
        assert_eq!(
            hub.fs(1).peek_all("/w").unwrap(),
            vec![2u8; 700],
            "seed {seed}: peer missing the interleaved file after settle"
        );
        break;
    }
    assert!(
        exercised,
        "no seed in 0..64 left a partially staged forward group"
    );
}

/// A forward must not cost the receiver its own pending edits. In a
/// pump round a later-indexed peer has not been drained yet when an
/// earlier client's group is forwarded to it; applying the forward used
/// to end by draining (and dropping) the peer's whole event log — here
/// the create and the write of `/b`, which then never reached the cloud.
#[test]
fn forward_keeps_the_receivers_own_pending_edits() {
    let clock = SimClock::new();
    let mut hub = recorded(SyncHub::new(clock.clone()));
    let a = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let b = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.fs_mut(a).create("/a").unwrap();
    hub.fs_mut(a).write("/a", 0, b"from a").unwrap();
    hub.pump();
    clock.advance(10_000);
    // B edits without an `ingest`: its events wait in the log while
    // the pump visits A first and forwards A's group to B.
    hub.fs_mut(b).create("/b").unwrap();
    hub.fs_mut(b).write("/b", 0, b"from b").unwrap();
    hub.pump();
    clock.advance(10_000);
    hub.pump();
    hub.flush();
    assert_eq!(
        hub.cloud().file("/b"),
        Some(&b"from b"[..]),
        "B's own edit was lost to the forward"
    );
    assert_eq!(hub.fs(a).peek_all("/b").unwrap(), b"from b");
    assert_eq!(hub.fs(b).peek_all("/a").unwrap(), b"from a");
    assert!(hub.conflicts().is_empty());
    assert_converged(&hub, 0);
}
