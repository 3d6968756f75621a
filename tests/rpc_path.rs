//! What one file RPC costs per hop (DESIGN.md §19): a receiver re-sums
//! only the checksum blocks a forwarded ops batch touched and ends with
//! the store a full re-index would build; every checksum-store operation
//! over its 64-block records ends the same way, and a forwarded delta's
//! receiver re-sums only the blocks it does not copy whole; the server
//! keeps files as shared extents and history as the views an update
//! replaced instead of copies, indistinguishably from whole-copy history
//! and within the cleaner's bounds; a pump visits only busy clients; and
//! a `Snapshot`-mode client is never skipped.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::rc::Rc;

use bytes::Bytes;
use deltacfs::core::{
    persist, ApplyOutcome, CausalMode, ChecksumStore, ClientId, CloudServer, DeltaCfsClient,
    DeltaCfsConfig, FileOpItem, Payload, SyncHub, UpdateMsg, UpdatePayload, Version,
};
use deltacfs::delta::{local, Cost, Delta, DeltaOp, DeltaParams};
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
            // No two neighbouring bytes alike, so a view misplaced by
            // a byte shows.
            data: Payload::from(
                (0..snap(len as u64))
                    .map(|i| kind + 1 + ((pos + i) % 200) as u8)
                    .collect::<Vec<u8>>(),
            ),
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

// --- (a) continued: 64-block records ≡ a fresh re-index -------------------

/// Every record a fresh `reindex_file` of each file leaves in a store.
fn reindexed_all(files: &BTreeMap<&str, Vec<u8>>, block: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut fresh = ChecksumStore::new(MemStore::new(), block);
    for (path, content) in files {
        fresh.reindex_file(path, content, &mut Cost::new()).unwrap();
    }
    fresh.backend_mut().scan_prefix(b"").unwrap()
}

/// `content` with `len` bytes of `fill` written at `at`, zero-filling any
/// gap past its end.
fn written(content: &[u8], at: u64, len: u64, fill: u8) -> Vec<u8> {
    let mut out = content.to_vec();
    let end = (at + len) as usize;
    if out.len() < end {
        out.resize(end, 0);
    }
    out[at as usize..end].fill(fill);
    out
}

/// `(kind, on "/g" not "/f", (position in blocks, byte in block),
/// (length in blocks, extra bytes), fill)` → one store operation.
type StoreStep = (u8, bool, (u64, u64), (u64, u64), u8);

fn store_steps() -> impl Strategy<Value = Vec<StoreStep>> {
    proptest::collection::vec(
        (
            0u8..10,
            any::<bool>(),
            (0u64..200, 0u64..70),
            (0u64..140, 0u64..70),
            any::<u8>(),
        ),
        1..12,
    )
}

/// The sums an output block of `delta` keeps: it is a whole, aligned copy
/// of a base block of the same length. Worked out byte by byte, apart
/// from the store's walk over the copy ops.
fn carried_blocks(delta: &Delta, base_len: u64, block: u64) -> Vec<bool> {
    let mut source = Vec::new();
    for op in delta.ops() {
        match op {
            DeltaOp::Copy { offset, len } => source.extend((*offset..offset + len).map(Some)),
            DeltaOp::Literal(bytes) => source.extend(std::iter::repeat_n(None, bytes.len())),
        }
    }
    source
        .chunks(block as usize)
        .map(|out| match out[0] {
            Some(s) if s % block == 0 && block.min(base_len - s) == out.len() as u64 => out
                .iter()
                .enumerate()
                .all(|(i, src)| *src == Some(s + i as u64)),
            _ => false,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Random sequences of every store operation over two files that
    /// cross the 64- and 128-block record boundaries: after each step the
    /// store holds exactly the records a fresh re-index of the model
    /// holds, and every file verifies clean.
    #[test]
    fn record_store_operations_equal_a_fresh_reindex(
        block in 1usize..70,
        steps in store_steps(),
    ) {
        let bs = block as u64;
        let mut cs = ChecksumStore::new(MemStore::new(), block);
        let mut files: BTreeMap<&str, Vec<u8>> = BTreeMap::new();
        let mut cost = Cost::new();
        for (kind, on_g, (pos, in_block), (blocks, extra), fill) in steps {
            let (p, q) = if on_g { ("/g", "/f") } else { ("/f", "/g") };
            let old = files.get(p).cloned().unwrap_or_default();
            let old_len = old.len() as u64;
            let at = pos * bs + in_block % bs;
            let len = blocks * bs + extra % bs;
            let new = written(&old, at, len, fill);
            match kind {
                // An intercepted write, through the one write-path call.
                0 | 1 => {
                    let clip = |n: u64| (n as usize).min(old.len());
                    let ow = &old[clip(at)..clip(at + len)];
                    let data = &new[at as usize..(at + len) as usize];
                    let (bad, _) = cs
                        .record_write(p, &new, (at, data), ow, old_len, &mut cost)
                        .unwrap();
                    prop_assert!(bad.is_empty(), "clean blocks {:?} failed", bad);
                    files.insert(p, new);
                }
                // The probe's call: a write that starts inside the file.
                2 => {
                    let at = at.min(old_len);
                    let new = written(&old, at, len, fill);
                    cs.update_range(p, at, len, |idx| {
                        let start = (idx * bs) as usize;
                        let end = (start + block).min(new.len());
                        (start < new.len()).then(|| new[start..end].to_vec())
                    }, &mut cost).unwrap();
                    files.insert(p, new);
                }
                // A forwarded write (3) or truncate to `at` (4).
                3 | 4 => {
                    let (dirty, new) = if kind == 3 {
                        (old_len.min(at)..at + len, new)
                    } else if at >= old_len {
                        (old_len..at, written(&old, old_len, at - old_len, 0))
                    } else {
                        (at.saturating_sub(1)..at, old[..at as usize].to_vec())
                    };
                    let peak = old_len.max(new.len() as u64);
                    cs.update_blocks(p, &new, &[dirty], peak, &mut cost).unwrap();
                    files.insert(p, new);
                }
                // A local truncate to `at`.
                5 => {
                    if at > old_len {
                        let new = written(&old, old_len, at - old_len, 0);
                        let (bad, _) = cs
                            .record_write(p, &new, (at, &[]), &[], old_len, &mut cost)
                            .unwrap();
                        prop_assert!(bad.is_empty(), "clean blocks {:?} failed", bad);
                        files.insert(p, new);
                    } else {
                        let new = &old[..at as usize];
                        let last = (at > 0).then(|| &new[((at - 1) / bs * bs) as usize..]);
                        cs.truncate(p, at, last, &mut cost).unwrap();
                        files.insert(p, new.to_vec());
                    }
                }
                6 => {
                    cs.rename(p, q).unwrap();
                    files.remove(q);
                    if let Some(content) = files.remove(p) {
                        files.insert(q, content);
                    }
                }
                7 => {
                    cs.remove(p).unwrap();
                    files.remove(p);
                }
                8 => {
                    cs.reindex_file(p, &new, &mut cost).unwrap();
                    files.insert(p, new);
                }
                // A forwarded delta against either file (or itself): `len`
                // bytes of `fill` replace `extra` bytes at `at`, shifting
                // the rest.
                _ => {
                    let base_path = if in_block % 2 == 1 && files.contains_key(q) { q } else { p };
                    let base = files.get(base_path).cloned().unwrap_or_default();
                    let cut = (at as usize).min(base.len());
                    let rest = (cut + extra as usize).min(base.len());
                    let new = [&base[..cut], &vec![fill; len as usize], &base[rest..]].concat();
                    let params = DeltaParams::with_block_size(block);
                    let delta = local::diff(&base, &new, &params, &mut Cost::new());
                    prop_assert_eq!(delta.apply(&base).unwrap(), new.clone());
                    let base_len = base.len() as u64;
                    cs.apply_delta(p, &new, base_path, base_len, &delta, &mut cost).unwrap();
                    files.insert(p, new);
                }
            }
            let records = cs.backend_mut().scan_prefix(b"").unwrap();
            prop_assert_eq!(records, reindexed_all(&files, block));
            for (path, content) in &files {
                let bad = cs.verify_file(path, content, &mut cost).unwrap();
                prop_assert!(bad.is_empty(), "{} blocks {:?} do not verify", path, bad);
            }
        }
    }

    /// A forwarded `Delta` onto a clean base, patching the file itself or
    /// built against another: the receiver keeps the base's sum for every
    /// output block that is a whole aligned copy, re-sums only the rest,
    /// and ends with the store a fresh re-index builds.
    #[test]
    fn forwarded_delta_resums_only_what_it_does_not_copy_whole(
        block in 1usize..70,
        shape in (60u64..200, 0u64..70),
        pieces in proptest::collection::vec((0u8..3, 0u64..200, 0u64..140), 1..8),
        other_base in any::<bool>(),
    ) {
        let (bs, (base_blocks, tail)) = (block as u64, shape);
        let base_len = base_blocks * bs + tail % bs;
        let base: Vec<u8> = (0..base_len).map(|i| (i * 31 % 251) as u8).collect();
        let mut ops = Vec::new();
        for (kind, at, len) in pieces {
            let offset = match kind {
                0 => at % base_blocks * bs,
                1 => (at * bs + 1) % base_len,
                _ => {
                    ops.push(DeltaOp::Literal(Bytes::from(vec![at as u8; len as usize + 1])));
                    continue;
                }
            };
            let len = ((len + 1) * bs).min(base_len - offset);
            ops.push(DeltaOp::Copy { offset, len });
        }
        let delta = Delta::from_ops(ops);
        let new = delta.apply(&base).unwrap();

        let (mut client, mut fs, mut store) = receiver(&base, block);
        let mut files = BTreeMap::from([("/f", base.clone())]);
        let base_path = if other_base {
            // "/f" holds something else; the delta is built against "/b".
            let full = UpdatePayload::Full(Payload::copy_from_slice(&base));
            let b = msg("/b", None, Some(version(1, 2)), full);
            client.apply_remote(&b, &mut fs);
            let other = UpdatePayload::Full(Payload::from(vec![7u8; 3 * block]));
            let f = msg("/f", Some(version(1, 1)), Some(version(1, 3)), other);
            client.apply_remote(&f, &mut fs);
            files.insert("/b", base.clone());
            "/b"
        } else {
            "/f"
        };
        let before = client.cost().bytes_rolled;
        let update = msg(
            "/f",
            None,
            Some(version(1, 4)),
            UpdatePayload::Delta { base_path: base_path.into(), delta: delta.clone() },
        );
        prop_assert!(client.apply_remote(&update, &mut fs).is_none());
        prop_assert_eq!(fs.peek_slice("/f").unwrap(), &new[..]);
        files.insert("/f", new.clone());

        let resummed: u64 = carried_blocks(&delta, base_len, bs)
            .iter()
            .zip(new.chunks(block))
            .filter(|(carried, _)| !**carried)
            .map(|(_, out)| out.len() as u64)
            .sum();
        prop_assert_eq!(client.cost().bytes_rolled - before, resummed);
        prop_assert_eq!(store.scan_prefix(b"").unwrap(), reindexed_all(&files, block));
        let bad = ChecksumStore::new(store.clone(), block)
            .verify_file("/f", &new, &mut Cost::new())
            .unwrap();
        prop_assert!(bad.is_empty(), "blocks {:?} do not verify", bad);
    }
}

// --- (b) extent history ≡ whole-copy history ------------------------------

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
        (UpdatePayload::Link { to }, ApplyOutcome::Applied) => {
            if let Some(file) = model.get(&update.path).cloned() {
                model.insert(to.clone(), file);
            }
        }
        (UpdatePayload::Unlink, ApplyOutcome::Applied) => {
            model.remove(&update.path);
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
        // The cleaner's bounds: what the extents pin but do not show, and
        // how many there are.
        let layout = server.layout(path).ok_or("listed path has no layout")?;
        if layout.unshown_bytes > layout.len / 8 + 4096
            || layout.extents > 64 + (layout.len / 4096) as usize
        {
            return Err(format!("{path}: {layout:?} outside the cleaner's bounds"));
        }
    }
    Ok(())
}

const FILES: [&str; 3] = ["/a", "/b", "/c"];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Random `Ops` / `Delta` / `Full` / `Rename` / `Link` / `Unlink` /
    /// conflicting groups and restores: after every step each retained
    /// version materialises to the bytes the whole-copy reference holds,
    /// and every file's extents stay within the cleaner's bounds — across
    /// the 8-entry eviction, compactions, after a snapshot round-trip, and
    /// after `restore`.
    #[test]
    fn extent_history_equals_whole_copy_history(
        steps in proptest::collection::vec(
            (0u8..12, 0usize..3, 0usize..3, 0usize..12, raw_batch(5), any::<bool>()),
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
                    // Up to 8 KiB: overwriting or cutting most of one
                    // pins more than the cleaner allows.
                    let data: Vec<u8> =
                        (0..raw[0].2 * 64).map(|i| (counter as usize + i) as u8).collect();
                    msg(path, base, Some(new_version), UpdatePayload::Full(Payload::from(data)))
                }
                5 => {
                    let base_path = FILES[other];
                    let keep = model.get(base_path).map_or(0, |f| f.content.len() / 2) as u64;
                    let delta = Delta::from_ops(vec![
                        DeltaOp::Copy { offset: 0, len: keep },
                        DeltaOp::Literal(Bytes::from(
                            (0..raw[0].2).map(|i| (counter as usize * 3 + i) as u8).collect::<Vec<u8>>(),
                        )),
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
                8 => msg(path, None, None, UpdatePayload::Link { to: FILES[other].into() }),
                9 => msg(path, None, None, UpdatePayload::Unlink),
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
