//! Causal consistency, versioning, and durability integration tests.

use deltacfs::core::{
    ApplyOutcome, ClientId, CloudServer, DeltaCfsClient, DeltaCfsConfig, DeltaCfsSystem, Payload,
    SyncEngine, UpdateMsg, UpdatePayload,
};
use deltacfs::kvstore::{KeyValue, KvStore};
use deltacfs::net::{LinkSpec, SimClock};
use deltacfs::vfs::Vfs;

fn pump<K: KeyValue>(client: &mut DeltaCfsClient<K>, fs: &mut Vfs) {
    for e in fs.drain_events() {
        client.handle_event(&e, fs);
    }
}

/// The paper's causality example (§III-E): create a, b, c, then delete a
/// before anything uploads. The cloud must never observe "b without a and
/// c" — with the backindex, b and c arrive in one transaction and a is
/// elided entirely.
#[test]
fn deleted_file_elision_keeps_b_and_c_atomic() {
    let clock = SimClock::new();
    let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
    let mut server = CloudServer::new();
    let mut fs = Vfs::new();
    fs.enable_event_log();

    for p in ["/a", "/b", "/c"] {
        fs.create(p).unwrap();
        fs.write(p, 0, p.as_bytes()).unwrap();
    }
    fs.unlink("/a").unwrap();
    pump(&mut client, &mut fs);
    clock.advance(4_000);
    let groups = client.tick(&fs);
    // All surviving messages form one transaction.
    assert_eq!(groups.len(), 1);
    let msgs = &groups[0];
    assert!(msgs
        .iter()
        .all(|m| m.group.is_some() && m.group == msgs[0].group));
    assert!(msgs.iter().all(|m| !m.path.starts_with("/a")));
    let outcomes = server.apply_txn(msgs);
    assert!(outcomes.iter().all(|o| *o == ApplyOutcome::Applied));
    assert!(server.file("/b").is_some());
    assert!(server.file("/c").is_some());
    assert!(server.file("/a").is_none());
}

/// Uploads strictly follow update order regardless of file sizes
/// (Table IV's "causal" column).
#[test]
fn upload_order_follows_update_order() {
    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::new();
    fs.enable_event_log();

    // Sizes deliberately anti-correlated with update order.
    let files = [
        ("/huge", 3_000_000usize),
        ("/medium", 30_000),
        ("/tiny", 30),
    ];
    for (path, size) in files {
        fs.create(path).unwrap();
        fs.write(path, 0, &vec![7u8; size]).unwrap();
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        clock.advance(200);
    }
    clock.advance(10_000);
    sys.tick(&fs);
    sys.finish(&fs);
    let order = sys.server().apply_order();
    let pos = |p: &str| order.iter().position(|x| x == p).unwrap();
    assert!(pos("/huge") < pos("/medium"));
    assert!(pos("/medium") < pos("/tiny"));
}

/// A transaction with one stale member conflicts as a whole — the paper
/// labels every file of an atomic operation as conflicted.
#[test]
fn whole_transaction_conflicts_together() {
    use deltacfs::core::Version;
    let mut server = CloudServer::new();
    let v = |c: u32, n: u64| Version {
        client: ClientId(c),
        counter: n,
    };
    let full = |path: &str, base: Option<Version>, ver: Version, data: &'static [u8]| UpdateMsg {
        path: path.into(),
        base,
        version: Some(ver),
        payload: UpdatePayload::Full(Payload::from_static(data)),
        group: None,
    };
    server.apply_msg(&full("/x", None, v(1, 1), b"x1"));
    server.apply_msg(&full("/y", None, v(1, 2), b"y1"));
    // /y's base is stale; /x's is fine — both must conflict.
    let group = vec![
        full("/x", Some(v(1, 1)), v(2, 1), b"x2"),
        full("/y", Some(v(9, 9)), v(2, 2), b"y2"),
    ];
    let outcomes = server.apply_txn(&group);
    assert!(outcomes.iter().all(|o| matches!(
        o,
        ApplyOutcome::Conflict { .. } | ApplyOutcome::Rejected { .. }
    )));
    assert_eq!(server.file("/x"), Some(&b"x1"[..]));
    assert_eq!(server.file("/y"), Some(&b"y1"[..]));
}

/// The checksum store survives a client restart when backed by the
/// persistent KV store: corruption injected while the client was down is
/// detected by the post-restart scan.
#[test]
fn checksums_survive_restart_via_kvstore() {
    let dir = std::env::temp_dir().join(format!("deltacfs-restart-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let mut fs = Vfs::new();
    fs.enable_event_log();
    {
        let clock = SimClock::new();
        let backend = KvStore::open(&dir).unwrap();
        let mut client = DeltaCfsClient::with_backend(
            ClientId(1),
            DeltaCfsConfig::new(),
            clock.clone(),
            backend,
        );
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![0x3Cu8; 32 * 1024]).unwrap();
        for e in fs.drain_events() {
            client.handle_event(&e, &fs);
        }
        clock.advance(4_000);
        client.tick(&fs);
        // Client process exits here (dropped).
    }

    // Corruption happens while no client is running.
    fs.inject_bit_flip("/f", 10_000, 5).unwrap();

    // Restart: a fresh client over the same persistent checksum store.
    let clock = SimClock::new();
    let backend = KvStore::open(&dir).unwrap();
    let mut client =
        DeltaCfsClient::with_backend(ClientId(1), DeltaCfsConfig::new(), clock.clone(), backend);
    let issues = client.crash_recovery_scan(&["/f".to_string()], &fs);
    assert_eq!(issues.len(), 1);
    assert_eq!(issues[0].blocks, vec![2]); // byte 10_000 is in block 2
    std::fs::remove_dir_all(&dir).ok();
}

/// Version counters never repeat and always carry the client id.
#[test]
fn versions_are_unique_per_client() {
    let clock = SimClock::new();
    let mut client = DeltaCfsClient::new(ClientId(7), DeltaCfsConfig::new(), clock.clone());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    let mut seen = std::collections::HashSet::new();
    for i in 0..20 {
        let p = format!("/f{i}");
        fs.create(&p).unwrap();
        fs.write(&p, 0, b"x").unwrap();
        pump(&mut client, &mut fs);
        let v = client.version_of(&p).unwrap();
        assert_eq!(v.client, ClientId(7));
        assert!(seen.insert(v.counter), "duplicate counter {}", v.counter);
    }
}

/// Conflict copies rebuilt from incremental data match what the losing
/// client actually had (no re-upload round-trip needed).
#[test]
fn conflict_copy_content_is_exact() {
    let clock = SimClock::new();
    let mut server = CloudServer::new();
    let mut c1 = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
    let mut c2 = DeltaCfsClient::new(ClientId(2), DeltaCfsConfig::new(), clock.clone());
    let mut fs1 = Vfs::new();
    let mut fs2 = Vfs::new();
    fs1.enable_event_log();
    fs2.enable_event_log();

    // Client 1 establishes the shared file.
    fs1.create("/doc").unwrap();
    fs1.write("/doc", 0, b"shared base content").unwrap();
    pump(&mut c1, &mut fs1);
    clock.advance(4_000);
    let mut base_version = None;
    for group in c1.tick(&fs1) {
        base_version = group.last().and_then(|m| m.version);
        server.apply_txn(&group);
    }
    // Client 2 receives it (simulated forward).
    let forwarded = UpdateMsg {
        path: "/doc".into(),
        base: None,
        version: base_version,
        payload: UpdatePayload::Full(Payload::copy_from_slice(server.file("/doc").unwrap())),
        group: None,
    };
    c2.apply_remote(&forwarded, &mut fs2);

    // Both edit concurrently; client 1 wins the race.
    fs1.write("/doc", 0, b"ONE").unwrap();
    fs2.write("/doc", 7, b"TWO").unwrap();
    pump(&mut c1, &mut fs1);
    pump(&mut c2, &mut fs2);
    clock.advance(4_000);
    for group in c1.tick(&fs1) {
        server.apply_txn(&group);
    }
    let mut conflict_path = None;
    for group in c2.tick(&fs2) {
        for outcome in server.apply_txn(&group) {
            if let ApplyOutcome::Conflict { stored_as } = outcome {
                conflict_path = Some(stored_as);
            }
        }
    }
    let conflict_path = conflict_path.expect("second writer must conflict");
    // First write won.
    assert_eq!(server.file("/doc"), Some(&b"ONEred base content"[..]));
    // The conflict copy equals client 2's local file exactly.
    let local2 = fs2.peek_all("/doc").unwrap();
    assert_eq!(server.file(&conflict_path), Some(&local2[..]));
}

/// A client over the in-memory store with `/f` holding `len` bytes, all
/// checksummed.
fn client_with_file(len: usize) -> (DeltaCfsClient, Vfs) {
    let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), SimClock::new());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    fs.create("/f").unwrap();
    fs.write("/f", 0, &vec![0x5Au8; len]).unwrap();
    pump(&mut client, &mut fs);
    (client, fs)
}

/// A write that starts past the end zero-fills the old last block; its
/// sum must follow, or the next write into that block reads as corrupt.
#[test]
fn write_past_the_end_resums_the_old_last_block() {
    let (mut client, mut fs) = client_with_file(4);
    fs.write("/f", 5000, b"x").unwrap();
    pump(&mut client, &mut fs);
    fs.write("/f", 100, b"y").unwrap();
    pump(&mut client, &mut fs);
    assert!(client.issues().is_empty(), "{:?}", client.issues());
    assert!(!client.is_quarantined("/f"));
    assert!(client.crash_recovery_scan(&["/f".into()], &fs).is_empty());
}

/// A growing truncate zero-fills the old last block just as a write past
/// the end does.
#[test]
fn growing_truncate_resums_the_old_last_block() {
    let (mut client, mut fs) = client_with_file(4);
    fs.truncate("/f", 10_000).unwrap();
    pump(&mut client, &mut fs);
    fs.write("/f", 100, b"y").unwrap();
    pump(&mut client, &mut fs);
    assert!(client.issues().is_empty(), "{:?}", client.issues());
    assert!(!client.is_quarantined("/f"));
    assert!(client.crash_recovery_scan(&["/f".into()], &fs).is_empty());
}

/// A write's block sums come from the bytes it wrote, not from whatever
/// its path holds when the event is delivered: here the path was renamed
/// away and recreated with other bytes before any event reached the
/// client.
#[test]
fn a_write_delivered_after_its_path_was_reused_keeps_its_own_sums() {
    let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), SimClock::new());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    fs.create("/tmp0").unwrap();
    fs.write("/tmp0", 0, &[1u8; 10_000]).unwrap();
    fs.rename("/tmp0", "/f").unwrap();
    fs.create("/tmp0").unwrap();
    fs.write("/tmp0", 0, &[2u8; 10_000]).unwrap();
    pump(&mut client, &mut fs);
    let paths = ["/f".to_string(), "/tmp0".to_string()];
    assert!(client.crash_recovery_scan(&paths, &fs).is_empty());
    assert!(client.issues().is_empty(), "{:?}", client.issues());
}

/// A forwarded `Unlink` drops the file's checksums as a local one does:
/// a new file under the name must not be checked against the old sums.
#[test]
fn forwarded_unlink_drops_the_files_checksums() {
    let mut client = DeltaCfsClient::new(ClientId(2), DeltaCfsConfig::new(), SimClock::new());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    let forwarded = |payload| UpdateMsg {
        path: "/a".into(),
        base: None,
        version: None,
        payload,
        group: None,
    };
    let full = UpdatePayload::Full(Payload::from(vec![1u8; 8192]));
    client.apply_remote(&forwarded(full), &mut fs);
    client.apply_remote(&forwarded(UpdatePayload::Unlink), &mut fs);
    fs.create("/a").unwrap();
    fs.write("/a", 0, &[2u8; 4096]).unwrap();
    pump(&mut client, &mut fs);
    assert!(client.issues().is_empty(), "{:?}", client.issues());
    let issues = client.crash_recovery_scan(&["/a".into()], &fs);
    assert!(issues.is_empty(), "{issues:?}");
}

/// Over the durable store, a write and a rename that each span a record
/// of checksums (64 blocks) survive a reopen and verify clean, and the
/// sums are really there: a flip in the second record is caught.
#[test]
fn record_spanning_write_and_rename_survive_a_kvstore_reopen() {
    let dir = std::env::temp_dir().join(format!("deltacfs-records-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let record = 64 * 4096;

    let mut fs = Vfs::new();
    fs.enable_event_log();
    {
        let backend = KvStore::open(&dir).unwrap();
        let mut client = DeltaCfsClient::with_backend(
            ClientId(1),
            DeltaCfsConfig::new(),
            SimClock::new(),
            backend,
        );
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![0x11u8; 2 * record + 100]).unwrap();
        pump(&mut client, &mut fs);
        // Straddles the boundary between records 0 and 1.
        fs.write("/f", record as u64 - 3000, &vec![0x22u8; 7000])
            .unwrap();
        pump(&mut client, &mut fs);
        fs.rename("/f", "/g").unwrap();
        pump(&mut client, &mut fs);
        assert!(client.issues().is_empty(), "{:?}", client.issues());
    }

    let backend = KvStore::open(&dir).unwrap();
    let mut client =
        DeltaCfsClient::with_backend(ClientId(1), DeltaCfsConfig::new(), SimClock::new(), backend);
    let paths = ["/f".to_string(), "/g".to_string()];
    assert!(client.crash_recovery_scan(&paths, &fs).is_empty());
    fs.inject_bit_flip("/g", record as u64 + 5000, 3).unwrap();
    let issues = client.crash_recovery_scan(&paths, &fs);
    assert_eq!(issues.len(), 1);
    assert_eq!(issues[0].path, "/g");
    assert_eq!(issues[0].blocks, vec![65]);
    std::fs::remove_dir_all(&dir).ok();
}

/// Two partial writes to one block, ingested together: when the first
/// is delivered the file already holds the second, so the block's bytes
/// outside the first write postdate it. That is no corruption: the
/// file stays unquarantined and the cloud receives both writes.
#[test]
fn two_partial_writes_to_one_block_ingested_together_stay_sound() {
    use deltacfs::core::SyncHub;
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    let a = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let fs = hub.fs_mut(a);
    fs.create("/f").unwrap();
    fs.write("/f", 0, &[1u8; 8192]).unwrap();
    hub.ingest(a);
    hub.flush();
    let fs = hub.fs_mut(a);
    fs.write("/f", 0, &[2u8; 100]).unwrap();
    fs.write("/f", 200, &[3u8; 100]).unwrap();
    hub.ingest(a);
    hub.flush();
    let client = hub.client(a);
    assert!(client.issues().is_empty(), "{:?}", client.issues());
    assert!(!client.is_quarantined("/f"));
    let expected = hub.fs(a).peek_all("/f").unwrap();
    assert_eq!(hub.cloud().file("/f"), Some(&expected[..]));
    // The block's stored sum is the file's: a later write to it,
    // delivered alone, verifies clean.
    hub.fs_mut(a).write("/f", 1000, &[4u8; 50]).unwrap();
    hub.ingest(a);
    hub.flush();
    let client = hub.client(a);
    assert!(client.issues().is_empty(), "{:?}", client.issues());
    let expected = hub.fs(a).peek_all("/f").unwrap();
    assert_eq!(hub.cloud().file("/f"), Some(&expected[..]));
}

/// A shrinking truncate and a write into its new last block, ingested
/// together: the truncate is delivered when the block already holds the
/// write, so it drops the block's sum rather than storing one the
/// write's own verification would then fail.
#[test]
fn a_truncate_and_a_write_to_its_last_block_ingested_together_stay_sound() {
    use deltacfs::core::SyncHub;
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    let a = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let fs = hub.fs_mut(a);
    fs.create("/f").unwrap();
    fs.write("/f", 0, &[1u8; 8192]).unwrap();
    hub.ingest(a);
    hub.flush();
    let fs = hub.fs_mut(a);
    fs.truncate("/f", 5000).unwrap();
    fs.write("/f", 4500, &[2u8; 100]).unwrap();
    hub.ingest(a);
    hub.flush();
    let client = hub.client(a);
    assert!(client.issues().is_empty(), "{:?}", client.issues());
    let expected = hub.fs(a).peek_all("/f").unwrap();
    assert_eq!(hub.cloud().file("/f"), Some(&expected[..]));
}
