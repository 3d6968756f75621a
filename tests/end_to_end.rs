//! End-to-end integration: full traces through full engines, checking
//! convergence and the paper's qualitative claims.

use deltacfs::baselines::{DropboxEngine, NfsEngine, SeafileEngine};
use deltacfs::core::{ApplyOutcome, DeltaCfsConfig, DeltaCfsSystem, SyncEngine};
use deltacfs::net::{LinkSpec, PlatformProfile, SimClock};
use deltacfs::vfs::Vfs;
use deltacfs::workloads::{
    replay, AppendTrace, GeditTrace, RandomWriteTrace, Trace, TraceConfig, WeChatTrace, WordTrace,
};

mod common;

const SCALE: f64 = 0.02;

fn run_deltacfs(trace: &dyn Trace) -> (DeltaCfsSystem, Vfs, u64) {
    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::new();
    let report = replay(trace, &mut fs, &mut sys, &clock, 100);
    (sys, fs, report.update_bytes)
}

/// Convergence as the cloud saw it: every update was `Applied` (a
/// poisoned group cannot hide behind a later full-content heal), every
/// local file is byte-equal on the cloud, and the cloud holds no path the
/// client lacks — no stray temp file, no `.conflict-` copy.
fn assert_converged(name: &str, sys: &DeltaCfsSystem, fs: &Vfs) {
    for (i, outcome) in sys.outcomes().iter().enumerate() {
        assert_eq!(outcome, &ApplyOutcome::Applied, "{name}: outcome {i}");
    }
    for path in fs.walk_files("/").unwrap() {
        let local = fs.peek_all(path.as_str()).unwrap();
        assert_eq!(
            sys.server().file(path.as_str()),
            Some(&local[..]),
            "{name}: {path} diverged"
        );
    }
    for cloud_path in sys.server().paths() {
        assert!(
            fs.exists(&cloud_path),
            "{name}: cloud has {cloud_path} which does not exist locally"
        );
    }
}

/// The cloud's files must byte-match the client's for every trace.
#[test]
fn deltacfs_converges_on_every_standard_trace() {
    let cfg = TraceConfig::scaled(SCALE);
    let traces: Vec<Box<dyn Trace>> = vec![
        Box::new(AppendTrace::new(cfg)),
        Box::new(RandomWriteTrace::new(cfg)),
        Box::new(WordTrace::new(cfg)),
        Box::new(WeChatTrace::new(cfg)),
        Box::new(GeditTrace::new(cfg)),
    ];
    for trace in traces {
        let name = trace.meta().name;
        let (sys, fs, _) = run_deltacfs(trace.as_ref());
        assert_converged(name, &sys, &fs);
    }
}

/// Two applications on one client, the paper's normal case: an editor's
/// link+rename saves merged by timestamp with a chat database's journaled
/// page writes. The database's open write node keeps the editor's
/// transaction group from aging out, so a second save fires while the
/// first save's delta is still queued — the second delta must chain onto
/// the first, not replace it (it is the base's history).
#[test]
fn interleaved_editor_and_database_converge() {
    let trace = common::editor_and_database_trace();
    let (sys, fs, _) = run_deltacfs(&trace);
    assert_converged("gedit+wechat", &sys, &fs);
}

/// The undo-log path (paper §III-A): an in-place update that overwrote
/// more than `inplace_delta_threshold` of a file ships as a local delta
/// against the undo log's reconstruction of the cloud's copy, not as the
/// write itself. Here 12 000 of 20 000 bytes are rewritten with one byte
/// changed, so the delta carries about two blocks, not the 12 000 bytes.
#[test]
fn inplace_update_over_threshold_ships_a_local_delta() {
    use deltacfs::core::{ClientId, CloudServer, DeltaCfsClient, UpdateMsg, UpdatePayload};

    let clock = SimClock::new();
    let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
    let mut server = CloudServer::new();
    let mut fs = Vfs::new();
    fs.enable_event_log();
    let mut sync = |client: &mut DeltaCfsClient, fs: &mut Vfs| -> Vec<UpdateMsg> {
        for e in fs.drain_events() {
            client.handle_event(&e, fs);
        }
        clock.advance(4_000);
        let groups = client.tick(fs);
        for group in &groups {
            for outcome in server.apply_txn(group) {
                assert_eq!(outcome, ApplyOutcome::Applied);
            }
        }
        groups.into_iter().flatten().collect()
    };

    let base: Vec<u8> = (0..20_000u32)
        .map(|i| (i.wrapping_mul(31) % 251) as u8)
        .collect();
    fs.create("/f").unwrap();
    fs.write("/f", 0, &base).unwrap();
    sync(&mut client, &mut fs);

    let mut edit = base[100..12_100].to_vec();
    edit[5_000] ^= 0xFF;
    fs.write("/f", 100, &edit).unwrap();
    let uploaded = sync(&mut client, &mut fs);
    let [UpdateMsg {
        payload: UpdatePayload::Delta { delta, .. },
        ..
    }] = &uploaded[..]
    else {
        panic!("expected one delta message, uploaded {uploaded:?}");
    };
    assert!(
        delta.wire_size() < edit.len() as u64,
        "delta of {} wire bytes for a {}-byte edit",
        delta.wire_size(),
        edit.len()
    );
    assert_eq!(client.cost().bytes_strong_hashed, 0);
    assert!(client.cost().bytes_compared > 0, "the matcher never ran");
    assert_eq!(server.file("/f"), Some(&fs.peek_all("/f").unwrap()[..]));
}

/// A path as long as `PATH_MAX` syncs like any other; a longer one is
/// refused at the file system, before its length could overflow the
/// wire's `u16` path prefix and vanish on the way to the cloud.
#[test]
fn longest_path_syncs_and_a_longer_one_is_refused() {
    use deltacfs::vfs::{VfsError, PATH_MAX};

    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    let longest = format!("/{}", "p".repeat(PATH_MAX - 1));
    fs.create(&longest).unwrap();
    fs.write(&longest, 0, b"at the limit").unwrap();
    let too_long = format!("/{}", "q".repeat(70_000));
    assert!(matches!(
        fs.create(&too_long),
        Err(VfsError::InvalidArgument(_))
    ));
    for e in fs.drain_events() {
        sys.on_event(&e, &fs);
    }
    clock.advance(4_000);
    sys.finish(&fs);
    assert_converged("longest path", &sys, &fs);
    assert_eq!(sys.server().file(&longest), Some(&b"at the limit"[..]));
}

#[test]
fn gedit_trace_link_pattern_syncs_exactly() {
    let cfg = TraceConfig::scaled(0.2);
    let (sys, fs, update) = run_deltacfs(&GeditTrace::new(cfg));
    let local = fs.peek_all("/notes.txt").unwrap();
    assert_eq!(sys.server().file("/notes.txt"), Some(&local[..]));
    // The backup hard link exists on both sides.
    assert!(fs.exists("/notes.txt~"));
    assert!(sys.server().file("/notes.txt~").is_some());
    // Rewrite-everything saves synced with far less traffic than written.
    let up = sys.report().traffic.bytes_up;
    assert!(up < update, "uploaded {up} of {update} written");
}

#[test]
fn deltacfs_never_strong_hashes_anywhere() {
    let cfg = TraceConfig::scaled(SCALE);
    for trace in [
        Box::new(WordTrace::new(cfg)) as Box<dyn Trace>,
        Box::new(WeChatTrace::new(cfg)),
    ] {
        let (sys, _, _) = run_deltacfs(trace.as_ref());
        assert_eq!(sys.report().client_cost.bytes_strong_hashed, 0);
        assert_eq!(sys.server().cost().bytes_strong_hashed, 0);
    }
}

#[test]
fn paper_claim_client_work_ordering_on_inplace_traces() {
    // Table II: DeltaCFS ≪ Seafile ≪ Dropbox on append/random/wechat.
    let cfg = TraceConfig::scaled(SCALE);
    let pc = PlatformProfile::pc();
    for trace_ctor in [
        || Box::new(AppendTrace::new(TraceConfig::scaled(SCALE))) as Box<dyn Trace>,
        || Box::new(WeChatTrace::new(TraceConfig::scaled(SCALE))) as Box<dyn Trace>,
    ] {
        let _ = cfg;
        let mut ticks = Vec::new();
        // DeltaCFS
        let (sys, _, _) = run_deltacfs(trace_ctor().as_ref());
        let er = sys.report();
        ticks.push((
            "deltacfs",
            pc.ticks(&er.client_cost, er.traffic.total_bytes()),
        ));
        // Seafile
        let clock = SimClock::new();
        let mut engine = SeafileEngine::with_defaults(clock.clone());
        let mut fs = Vfs::new();
        replay(trace_ctor().as_ref(), &mut fs, &mut engine, &clock, 100);
        let er = engine.report();
        ticks.push((
            "seafile",
            pc.ticks(&er.client_cost, er.traffic.total_bytes()),
        ));
        // Dropbox
        let clock = SimClock::new();
        let mut engine = DropboxEngine::with_defaults(clock.clone());
        let mut fs = Vfs::new();
        replay(trace_ctor().as_ref(), &mut fs, &mut engine, &clock, 100);
        let er = engine.report();
        ticks.push((
            "dropbox",
            pc.ticks(&er.client_cost, er.traffic.total_bytes()),
        ));

        assert!(
            ticks[0].1 < ticks[1].1 && ticks[1].1 < ticks[2].1,
            "ordering violated: {ticks:?}"
        );
    }
}

#[test]
fn paper_claim_nfs_word_downloads_whole_files() {
    let clock = SimClock::new();
    let mut engine = NfsEngine::with_defaults(clock.clone());
    let mut fs = Vfs::new();
    let trace = WordTrace::new(TraceConfig::scaled(SCALE));
    replay(&trace, &mut fs, &mut engine, &clock, 100);
    let t = engine.report().traffic;
    // The paper's surprise: the server sends back nearly as much as the
    // client uploads, although the trace never reads.
    assert!(
        t.bytes_down * 3 > t.bytes_up,
        "down {} vs up {}",
        t.bytes_down,
        t.bytes_up
    );
}

#[test]
fn paper_claim_seafile_uploads_dwarf_deltacfs_on_small_writes() {
    let cfg = TraceConfig::scaled(SCALE);
    let clock = SimClock::new();
    let mut seafile = SeafileEngine::with_defaults(clock.clone());
    let mut fs = Vfs::new();
    replay(&WeChatTrace::new(cfg), &mut fs, &mut seafile, &clock, 100);
    let seafile_up = seafile.report().traffic.bytes_up;

    let (sys, _, _) = run_deltacfs(&WeChatTrace::new(cfg));
    let deltacfs_up = sys.report().traffic.bytes_up;
    assert!(
        seafile_up > deltacfs_up,
        "seafile {seafile_up} vs deltacfs {deltacfs_up}"
    );
}

#[test]
fn deltacfs_download_traffic_is_negligible() {
    // §IV-C1: "There is almost no data transmitted from server to client,
    // since the generation of incremental data does not require the
    // involvement of servers."
    let cfg = TraceConfig::scaled(SCALE);
    for trace in [
        Box::new(WordTrace::new(cfg)) as Box<dyn Trace>,
        Box::new(AppendTrace::new(cfg)),
    ] {
        let (sys, _, _) = run_deltacfs(trace.as_ref());
        let t = sys.report().traffic;
        assert!(
            t.bytes_down < t.bytes_up / 20 + 4096,
            "down {} vs up {}",
            t.bytes_down,
            t.bytes_up
        );
    }
}

#[test]
fn desktop_mix_routes_each_file_to_the_right_mechanism() {
    use deltacfs::workloads::DesktopTrace;
    let cfg = TraceConfig::scaled(0.05);
    let (sys, fs, _) = run_deltacfs(&DesktopTrace::new(cfg));
    // Everything converged, temp files from either save pattern never
    // reached the cloud.
    assert_converged("desktop", &sys, &fs);
    // Adaptivity: no MD5 anywhere, yet the document's transactional saves
    // still synced via bitwise-verified deltas (compared bytes > 0), and
    // the database's pages shipped without any delta machinery touching
    // the bulk of them.
    let cost = sys.report().client_cost;
    assert_eq!(cost.bytes_strong_hashed, 0);
    assert!(cost.bytes_compared > 0, "no delta ran for the document");
}
