//! What one file RPC costs per hop (DESIGN.md §19): a receiver re-sums
//! only the checksum blocks a forwarded ops batch touched and ends with
//! the store a full re-index would build; the server applies ops in place
//! and keeps the way back to the version they replaced instead of a copy
//! of it, indistinguishably from whole-copy history; a pump visits only
//! busy clients; and a `Snapshot`-mode client is never skipped.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use deltacfs::core::{
    persist, ApplyOutcome, CausalMode, ChecksumStore, ClientId, CloudServer, DeltaCfsClient,
    DeltaCfsConfig, FileOpItem, Payload, SyncHub, UpdateMsg, UpdatePayload, Version,
};
use deltacfs::delta::{Cost, Delta, DeltaOp};
use deltacfs::kvstore::{BatchOp, KeyValue, KvError, MemStore};
use deltacfs::net::{LinkSpec, SimClock};
use deltacfs::vfs::Vfs;
use proptest::prelude::*;

mod common;
use common::metric;

fn version(client: u32, counter: u64) -> Version {
    Version {
        client: ClientId(client),
        counter,
    }
}

fn msg(
    path: &str,
    base: Option<Version>,
    ver: Option<Version>,
    payload: UpdatePayload,
) -> UpdateMsg {
    UpdateMsg {
        path: path.into(),
        base,
        version: ver,
        payload,
        txn: None,
        group: None,
    }
}

/// `(kind, position, length, snap to blocks)` → one file op. Kinds 0–2
/// write (overlapping, gapped, past the end — whatever the position
/// gives), 3 is a zero-length write, 4–5 truncate (growing or shrinking).
fn file_op((kind, pos, len, aligned): (u8, u64, usize, bool), block: usize) -> FileOpItem {
    let snap = |n: u64| {
        if aligned {
            n / block as u64 * block as u64
        } else {
            n
        }
    };
    match kind {
        0..=2 => FileOpItem::Write {
            offset: snap(pos),
            data: Payload::from(vec![
                kind + 1 + (pos % 200) as u8;
                snap(len as u64) as usize
            ]),
        },
        3 => FileOpItem::Write {
            offset: snap(pos),
            data: Payload::new(),
        },
        _ => FileOpItem::Truncate { size: snap(pos) },
    }
}

fn raw_batch(max_ops: usize) -> impl Strategy<Value = Vec<(u8, u64, usize, bool)>> {
    proptest::collection::vec((0u8..6, 0u64..600, 0usize..130, any::<bool>()), 1..max_ops)
}

// --- (a) ranged checksum update ≡ full re-index ---------------------------

/// A checksum-store backend the test keeps a second handle on.
#[derive(Clone, Default)]
struct Shared(Rc<RefCell<MemStore>>);

impl KeyValue for Shared {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<(), KvError> {
        self.0.borrow_mut().put(key, value)
    }
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>, KvError> {
        self.0.borrow_mut().get(key)
    }
    fn delete(&mut self, key: &[u8]) -> Result<(), KvError> {
        self.0.borrow_mut().delete(key)
    }
    fn scan_prefix(&mut self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>, KvError> {
        self.0.borrow_mut().scan_prefix(prefix)
    }
    fn write_batch(&mut self, batch: &[BatchOp]) -> Result<(), KvError> {
        self.0.borrow_mut().write_batch(batch)
    }
}

/// A receiving client over a store the caller can read, its file system,
/// and `/f` holding `base` as version `<1, 1>`.
fn receiver(base: &[u8], block: usize) -> (DeltaCfsClient<Shared>, Vfs, Shared) {
    let store = Shared::default();
    let mut cfg = DeltaCfsConfig::new();
    cfg.block_size = block;
    let mut client = DeltaCfsClient::with_backend(ClientId(2), cfg, SimClock::new(), store.clone());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    let payload = if base.is_empty() {
        UpdatePayload::Create
    } else {
        UpdatePayload::Full(Payload::copy_from_slice(base))
    };
    client.apply_remote(&msg("/f", None, Some(version(1, 1)), payload), &mut fs);
    (client, fs, store)
}

/// Every record a fresh `reindex_file` of `content` leaves in a store.
fn reindexed(content: &[u8], block: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut fresh = ChecksumStore::new(MemStore::new(), block);
    fresh.reindex_file("/f", content, &mut Cost::new()).unwrap();
    fresh.backend_mut().scan_prefix(b"").unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// After any forwarded ops batch — and the next, and the next — the
    /// receiver's checksum store holds exactly the keys and values a
    /// fresh re-index of the resulting content holds, and verifies clean.
    #[test]
    fn ranged_checksum_update_equals_a_full_reindex(
        base in proptest::collection::vec(any::<u8>(), 0..400),
        block in 1usize..70,
        batches in proptest::collection::vec(raw_batch(7), 1..4),
    ) {
        let (mut client, mut fs, mut store) = receiver(&base, block);
        let mut model = base.clone();
        for (n, raw) in batches.into_iter().enumerate() {
            let ops: Vec<FileOpItem> = raw.into_iter().map(|r| file_op(r, block)).collect();
            for op in &ops {
                op.apply_to(&mut model);
            }
            let n = n as u64;
            let update = msg(
                "/f",
                Some(version(1, n + 1)),
                Some(version(1, n + 2)),
                UpdatePayload::Ops(ops),
            );
            prop_assert!(client.apply_remote(&update, &mut fs).is_none());
            prop_assert_eq!(fs.peek_slice("/f").unwrap(), &model[..]);
            prop_assert_eq!(store.scan_prefix(b"").unwrap(), reindexed(&model, block));
            let bad = ChecksumStore::new(store.clone(), block)
                .verify_file("/f", &model, &mut Cost::new())
                .unwrap();
            prop_assert!(bad.is_empty(), "blocks {:?} do not verify", bad);
        }
        prop_assert!(!fs.has_events(), "a remote application logged local events");
    }
}

#[test]
fn receiver_reads_and_sums_only_the_blocks_a_forwarded_write_touches() {
    let base = vec![9u8; 1 << 20];
    let (mut client, mut fs, _) = receiver(&base, 4096);
    let before = client.cost();
    let write = FileOpItem::Write {
        offset: 300_000,
        data: Payload::from(vec![1u8; 4096]),
    };
    let update = msg(
        "/f",
        Some(version(1, 1)),
        Some(version(1, 2)),
        UpdatePayload::Ops(vec![write]),
    );
    client.apply_remote(&update, &mut fs);
    let cost = client.cost();
    // 4 KiB at an unaligned offset straddles two blocks of the 256.
    assert_eq!(cost.bytes_rolled - before.bytes_rolled, 2 * 4096);
    assert_eq!(cost.bytes_engine_read - before.bytes_engine_read, 2 * 4096);
}

// --- (b) reverse-patch history ≡ whole-copy history -----------------------

/// The reference: every retained version is a whole copy.
#[derive(Clone, Default)]
struct ModelFile {
    content: Vec<u8>,
    version: Option<Version>,
    history: VecDeque<(Version, Vec<u8>)>,
}

impl ModelFile {
    fn at(&self, v: Version) -> Option<&[u8]> {
        if self.version == Some(v) {
            return Some(&self.content);
        }
        self.history
            .iter()
            .find(|(hv, _)| *hv == v)
            .map(|(_, c)| &c[..])
    }

    fn replace(&mut self, content: Vec<u8>, version: Option<Version>) {
        let old = std::mem::replace(&mut self.content, content);
        if let Some(old_version) = self.version {
            self.history.push_back((old_version, old));
            while self.history.len() > 8 {
                self.history.pop_front();
            }
        }
        self.version = version;
    }
}

/// What `payload` makes of `base` (`None`: a delta that does not fit).
fn payload_result(payload: &UpdatePayload, base: &[u8]) -> Option<Vec<u8>> {
    match payload {
        UpdatePayload::Ops(ops) => {
            let mut content = base.to_vec();
            for op in ops {
                op.apply_to(&mut content);
            }
            Some(content)
        }
        UpdatePayload::Delta { delta, .. } => delta.apply(base).ok(),
        UpdatePayload::Full(data) => Some(data.to_vec()),
        other => panic!("not a content payload: {other:?}"),
    }
}

type Model = BTreeMap<String, ModelFile>;

/// Mirrors one message into the model, given what the server made of it.
fn mirror(model: &mut Model, update: &UpdateMsg, outcome: &ApplyOutcome) -> Result<(), String> {
    let base_path = match &update.payload {
        UpdatePayload::Delta { base_path, .. } => base_path.as_str(),
        _ => update.path.as_str(),
    };
    let retained_base = || match update.base {
        None => Some(Vec::new()),
        Some(wanted) => model
            .get(base_path)
            .and_then(|f| f.at(wanted))
            .map(<[u8]>::to_vec),
    };
    match (&update.payload, outcome) {
        (UpdatePayload::Create, ApplyOutcome::Applied) => {
            model.entry(update.path.clone()).or_default().version = update.version;
        }
        (UpdatePayload::Rename { to }, ApplyOutcome::Applied) => {
            if let Some(file) = model.remove(&update.path) {
                model.insert(to.clone(), file);
            }
        }
        (payload, ApplyOutcome::Applied) => {
            let base = model
                .get(base_path)
                .map(|f| f.content.clone())
                .unwrap_or_default();
            let content = payload_result(payload, &base).ok_or("applied delta does not fit")?;
            model
                .entry(update.path.clone())
                .or_default()
                .replace(content, update.version);
        }
        (UpdatePayload::Create, ApplyOutcome::Conflict { stored_as }) => {
            model.insert(
                stored_as.clone(),
                ModelFile {
                    version: update.version,
                    ..ModelFile::default()
                },
            );
        }
        (payload, ApplyOutcome::Conflict { stored_as }) => {
            let base = retained_base().ok_or("server found a base the reference has evicted")?;
            let content = payload_result(payload, &base).ok_or("conflicting delta does not fit")?;
            model.insert(
                stored_as.clone(),
                ModelFile {
                    content,
                    version: update.version,
                    history: VecDeque::new(),
                },
            );
        }
        (payload, ApplyOutcome::Rejected { .. }) => {
            let fits = retained_base().is_some_and(|b| payload_result(payload, &b).is_some());
            if fits {
                return Err("server rejected an update whose base the reference retains".into());
            }
        }
    }
    Ok(())
}

/// Every path, every retained version, every byte: server against model.
fn same_history(server: &CloudServer, model: &Model) -> Result<(), String> {
    let paths: Vec<String> = model.keys().cloned().collect();
    if server.paths() != paths {
        return Err(format!("paths {:?} vs {paths:?}", server.paths()));
    }
    for (path, file) in model {
        let versions: Vec<Version> = file
            .history
            .iter()
            .map(|(v, _)| *v)
            .chain(file.version)
            .collect();
        if server.version_history(path) != versions {
            return Err(format!("{path}: version history differs"));
        }
        if server.file(path) != Some(&file.content[..]) {
            return Err(format!("{path}: current content differs"));
        }
        for v in versions {
            if server.file_at(path, v).as_deref() != file.at(v) {
                return Err(format!("{path} at {v:?}: retained bytes differ"));
            }
        }
    }
    Ok(())
}

const FILES: [&str; 3] = ["/a", "/b", "/c"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random `Ops` / `Delta` / `Full` / `Rename` / conflicting groups and
    /// restores: after every step each retained version materialises to
    /// the bytes the whole-copy reference holds — across the 8-entry
    /// eviction, after a snapshot round-trip, and after `restore`.
    #[test]
    fn reverse_patch_history_equals_whole_copy_history(
        steps in proptest::collection::vec(
            (0u8..10, 0usize..3, 0usize..3, 0usize..12, raw_batch(5), any::<bool>()),
            1..48,
        ),
    ) {
        let mut server = CloudServer::new();
        let mut model = Model::new();
        let mut counter = 0u64;
        for (kind, file, other, pick, raw, stale) in steps {
            counter += 1;
            let path = FILES[file];
            let new_version = version(1 + u32::from(stale), counter);
            let current = model.get(path).and_then(|f| f.version);
            // A stale writer builds on some older retained version (or on
            // one the server never had).
            let base = if stale {
                model
                    .get(path)
                    .and_then(|f| f.history.get(pick % 9).map(|(v, _)| *v))
                    .or(Some(version(9, 9)))
            } else {
                current
            };
            let ops: Vec<FileOpItem> = raw.iter().map(|r| file_op(*r, 16)).collect();
            let update = match kind {
                0..=3 => msg(path, base, Some(new_version), UpdatePayload::Ops(ops)),
                4 => {
                    let data = vec![counter as u8; raw[0].2 * 3];
                    msg(path, base, Some(new_version), UpdatePayload::Full(Payload::from(data)))
                }
                5 => {
                    let base_path = FILES[other];
                    let keep = model.get(base_path).map_or(0, |f| f.content.len() / 2) as u64;
                    let delta = Delta::from_ops(vec![
                        DeltaOp::Copy { offset: 0, len: keep },
                        DeltaOp::Literal(Bytes::from(vec![counter as u8; raw[0].2])),
                    ]);
                    let base = if stale { base } else { model.get(base_path).and_then(|f| f.version) };
                    msg(
                        path,
                        base,
                        Some(new_version),
                        UpdatePayload::Delta { base_path: base_path.into(), delta },
                    )
                }
                6 => msg(path, None, None, UpdatePayload::Rename { to: FILES[other].into() }),
                7 => msg(path, None, Some(new_version), UpdatePayload::Create),
                _ => {
                    // Restore some retained version as a new one.
                    let Some(target) = model.get(path).and_then(|f| {
                        f.history.get(pick % 9).map(|(v, _)| *v).or(f.version)
                    }) else {
                        continue;
                    };
                    prop_assert!(server.restore(path, target, new_version));
                    let file = model.get_mut(path).expect("restored path");
                    let content = file.at(target).expect("retained in the reference").to_vec();
                    file.replace(content, Some(new_version));
                    prop_assert_eq!(same_history(&server, &model), Ok(()));
                    continue;
                }
            };
            let outcome = server.apply_msg(&update);
            prop_assert_eq!(mirror(&mut model, &update, &outcome), Ok(()), "{:?}", update);
            prop_assert_eq!(same_history(&server, &model), Ok(()), "after {:?}", update);
        }
        let mut store = MemStore::new();
        persist::save(&server, &mut store).unwrap();
        let reloaded = persist::load(&mut store).unwrap();
        prop_assert_eq!(same_history(&reloaded, &model), Ok(()), "after save/load");
    }
}

// --- budgets as gauges ----------------------------------------------------

#[test]
fn server_history_holds_the_overwritten_bytes_not_whole_copies() {
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    let a = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.fs_mut(a).create("/big").unwrap();
    hub.fs_mut(a).write("/big", 0, &vec![3u8; 1 << 20]).unwrap();
    hub.pump();
    clock.advance(10_000);
    hub.pump();
    assert_eq!(
        metric(&hub, "server_history_bytes"),
        0,
        "nothing overwritten yet"
    );
    const GROUPS: u64 = 6;
    for n in 0..GROUPS {
        hub.fs_mut(a)
            .write("/big", n * 100_000, &[n as u8; 4096])
            .unwrap();
        hub.pump();
        clock.advance(10_000);
        hub.pump();
    }
    let versions = hub.cloud().version_history("/big");
    assert_eq!(
        versions.len() as u64,
        2 + GROUPS,
        "create, fill, {GROUPS} ops groups"
    );
    let retained = metric(&hub, "server_history_bytes") as u64;
    assert!(
        retained >= GROUPS * 4096,
        "{retained}: the overwritten bytes are kept"
    );
    assert!(
        retained < 2 * GROUPS * 4096,
        "{retained} bytes retained for {GROUPS} 4 KiB groups"
    );
    // Each of them is still the file it was.
    let before_any = hub.cloud().file_at("/big", versions[1]).unwrap();
    assert_eq!(before_any, vec![3u8; 1 << 20]);
}

#[test]
fn pump_over_idle_tenants_visits_no_client() {
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    for t in 0..64 {
        hub.add_client_in(&format!("t{t}"), DeltaCfsConfig::new(), LinkSpec::pc());
    }
    for _ in 0..5 {
        clock.advance(1_000);
        hub.pump();
    }
    assert_eq!(metric(&hub, "hub_pump_clients_visited"), 0);
    assert_eq!(metric(&hub, "hub_pump_clients_skipped"), 5 * 64);
    // One tenant wakes up: it alone is visited, until it has drained.
    hub.fs_mut(7).mkdir_all("/t7").unwrap();
    hub.pump();
    assert_eq!(metric(&hub, "hub_pump_clients_visited"), 1);
}

// --- (c) mostly idle tenants ----------------------------------------------

const TENANTS: usize = 6;

/// Tenants that stay idle for many rounds, write, and go idle again; one
/// of them conflicts with itself, one unlinks a file it uploaded. A round
/// visits only the clients that wrote since they last drained or still
/// hold work, nobody else is touched, and every tenant ends converged
/// inside its own subtree.
#[test]
fn mostly_idle_tenants_are_visited_only_while_they_hold_work() {
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    for t in 0..TENANTS {
        for _ in 0..2 {
            hub.add_client_in(&format!("t{t}"), DeltaCfsConfig::new(), LinkSpec::pc());
        }
    }
    let mut visited = 0;
    let mut idle_rounds = 0;
    const ROUNDS: u64 = 40;
    for round in 0..ROUNDS {
        for t in 0..TENANTS {
            let (writer, peer) = (2 * t, 2 * t + 1);
            let file = format!("/t{t}/doc");
            // Tenant `t` wakes up every `5 + t` rounds, for two rounds.
            match round % (5 + t as u64) {
                0 if round == 0 => {
                    hub.fs_mut(writer).mkdir_all(&format!("/t{t}")).unwrap();
                    hub.fs_mut(writer).create(&file).unwrap();
                    hub.fs_mut(writer)
                        .write(&file, 0, &vec![t as u8; 9_000])
                        .unwrap();
                    hub.ingest(writer);
                }
                1 if round > 1 => {
                    if !hub.fs(writer).exists(&file) {
                        hub.fs_mut(writer).create(&file).unwrap();
                    }
                    let data = vec![round as u8; 700];
                    hub.fs_mut(writer).write(&file, round * 13, &data).unwrap();
                    hub.ingest(writer);
                    if t == 2 {
                        // Both replicas edit the same version.
                        hub.fs_mut(peer).write(&file, 5, b"peer edit").unwrap();
                        hub.ingest(peer);
                    }
                }
                2 if t == 4 && round > 10 && hub.fs(writer).exists(&file) => {
                    hub.fs_mut(writer).unlink(&file).unwrap();
                    hub.ingest(writer);
                }
                _ => {}
            }
        }
        clock.advance(2_000);
        // Busy is decided before the round, from what the test can see:
        // whoever holds queued nodes or an unexpired relation entry.
        let busy = (0..hub.client_count())
            .filter(|&idx| !hub.client(idx).is_quiescent())
            .count() as i64;
        hub.pump();
        let now = metric(&hub, "hub_pump_clients_visited");
        assert_eq!(now - visited, busy, "round {round}");
        assert_eq!(
            metric(&hub, "hub_pump_clients_skipped"),
            (round as i64 + 1) * 2 * TENANTS as i64 - now,
            "round {round}: every client is either visited or skipped"
        );
        idle_rounds += i64::from(busy == 0);
        visited = now;
    }
    assert!(
        visited < ROUNDS as i64 * TENANTS as i64 && idle_rounds > 0,
        "most of the {ROUNDS} x {} client visits are skipped: {visited} made, {idle_rounds} idle rounds",
        2 * TENANTS
    );
    clock.advance(10_000);
    hub.flush();
    assert!(
        !hub.conflicts().is_empty() || hub.cloud().paths().iter().any(|p| p.contains(".conflict"))
    );
    for t in 0..TENANTS {
        let subtree = format!("/t{t}/");
        for idx in [2 * t, 2 * t + 1] {
            let files = hub.fs(idx).walk_files("/").unwrap();
            assert!(
                files.iter().all(|p| p.as_str().starts_with(&subtree)),
                "client {idx} holds a file outside {subtree}: {files:?}"
            );
            for path in hub.cloud().paths_in_namespace(&format!("t{t}")) {
                assert_eq!(
                    hub.fs(idx).peek_slice(&path).ok(),
                    hub.cloud().file(&path),
                    "client {idx} {path}"
                );
            }
        }
    }
}

#[test]
fn relation_entry_of_an_otherwise_idle_client_still_expires() {
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    // An entry that outlives the upload delay: the unlink is long gone
    // from the queue while its preserved content is still held.
    let mut cfg = DeltaCfsConfig::new();
    cfg.relation_timeout_ms = 8_000;
    let a = hub.add_client_in("t", cfg, LinkSpec::pc());
    hub.add_client_in("t", DeltaCfsConfig::new(), LinkSpec::pc());
    hub.fs_mut(a).mkdir_all("/t").unwrap();
    hub.fs_mut(a).create("/t/f").unwrap();
    hub.fs_mut(a).write("/t/f", 0, &vec![1u8; 50_000]).unwrap();
    hub.pump();
    clock.advance(10_000);
    hub.pump();
    assert!(hub.client(a).is_quiescent());
    // The unlink preserves the dying content in the relation table.
    hub.fs_mut(a).unlink("/t/f").unwrap();
    hub.ingest(a);
    let timeout = hub.client(a).config().relation_timeout_ms;
    let delay = hub.client(a).config().upload_delay_ms;
    clock.advance(delay);
    hub.pump();
    assert!(hub.cloud().file("/t/f").is_none(), "the unlink went up");
    assert_eq!(hub.client(a).queued_nodes(), 0);
    assert!(
        !hub.client(a).is_quiescent(),
        "the preserved content is still held"
    );
    // Nothing queued, no event — the pump still comes by to expire it.
    clock.advance(timeout);
    let before = metric(&hub, "hub_pump_clients_visited");
    hub.pump();
    assert_eq!(metric(&hub, "hub_pump_clients_visited"), before + 1);
    assert!(hub.client(a).is_quiescent(), "entry expired, content freed");
    hub.pump();
    assert_eq!(
        metric(&hub, "hub_pump_clients_visited"),
        before + 1,
        "and then it is left alone"
    );
}

// --- (d) a Snapshot-mode client is never skipped --------------------------

/// Simulated times at which the snapshot client's uploads reach the
/// server, pumping once a second.
fn snapshot_upload_times() -> Vec<u64> {
    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    let cfg = DeltaCfsConfig::new().with_causal_mode(CausalMode::Snapshot { interval_ms: 5_000 });
    let a = hub.add_client_in("t", cfg, LinkSpec::pc());
    hub.add_client_in("t", DeltaCfsConfig::new(), LinkSpec::pc());
    hub.add_client_in("u", DeltaCfsConfig::new(), LinkSpec::pc());
    let mut times = Vec::new();
    let mut uploaded = 0;
    for second in 1..=40u64 {
        // Idle stretches longer than the interval between the edits.
        if [3, 4, 19, 33].contains(&second) {
            if second == 3 {
                hub.fs_mut(a).mkdir_all("/t").unwrap();
                hub.fs_mut(a).create("/t/f").unwrap();
            }
            hub.fs_mut(a)
                .write("/t/f", second * 10, &[second as u8; 100])
                .unwrap();
            hub.ingest(a);
        }
        clock.advance(1_000);
        hub.pump();
        let now = hub.traffic(a).msgs_up;
        if now != uploaded {
            uploaded = now;
            times.push(clock.now().as_millis());
        }
    }
    times
}

#[test]
fn snapshot_client_in_a_hub_uploads_when_it_always_did() {
    // Pinned from commit 42ed22d (the parent of the quiescence skip): the
    // snapshot clock ticks on every pump, edits or none.
    assert_eq!(snapshot_upload_times(), vec![5_000, 20_000, 35_000]);
}
