//! Property-based tests on the core invariants.

use bytes::Bytes;
use deltacfs::core::{ClientId, CloudServer, DeltaCfsClient, DeltaCfsConfig, UndoLog};
use deltacfs::delta::{cdc, compress, local, rsync, Cost, Delta, DeltaOp, DeltaParams};
use deltacfs::net::SimClock;
use deltacfs::vfs::Vfs;
use deltacfs::workloads::InDelProcess;
use proptest::prelude::*;

mod common;
use common::recorded;

fn buffer(max: usize) -> impl Strategy<Value = Vec<u8>> {
    // Skewed toward repetitive content so copies/matches actually occur.
    prop_oneof![
        proptest::collection::vec(any::<u8>(), 0..max),
        proptest::collection::vec(0u8..4, 0..max),
    ]
}

/// An `(old, new)` pair for the matcher round trips, from two input
/// classes: two independent buffers, or a `new` derived from `old`
/// (prefix shift + XOR edit + tail) — the class where long real matches
/// exist, so the walk's block jumps and its re-synchronisation after an
/// edit are actually exercised.
fn old_new_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    let derived = (
        buffer(16384),
        proptest::collection::vec(any::<u8>(), 0..128),
        proptest::collection::vec(any::<u8>(), 0..256),
        0usize..16384,
        0usize..64,
    )
        .prop_map(|(old, prefix, tail, edit_at, edit_len)| {
            let shift = prefix.len();
            let mut new = prefix;
            new.extend_from_slice(&old);
            if !old.is_empty() {
                let at = shift + edit_at % old.len();
                let end = (at + edit_len).min(new.len());
                for b in &mut new[at..end] {
                    *b ^= 0x5A;
                }
            }
            new.extend_from_slice(&tail);
            (old, new)
        });
    prop_oneof![(buffer(8192), buffer(8192)), derived]
}

/// An `(old, new)` pair drawn from the InDel process: random insertions
/// and deletions, byte-wise or in bursts, over a random old file.
fn indel_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (0usize..16384, 0usize..4, 1usize..64, any::<u64>()).prop_map(|(n, rate, burst, seed)| {
        let rate = [1e-4, 1e-3, 1e-2, 1e-1][rate];
        let pair = InDelProcess {
            n,
            p_ins: rate / 2.0,
            p_del: rate / 2.0,
            burst,
            seed,
        }
        .sample();
        (pair.old, pair.new)
    })
}

/// An `(old, new)` pair where `new` is `old` with a few single bytes
/// flipped: each flip leaves equal bytes on both sides of it inside the
/// same 8-byte word, where a miscounted word compare would show.
fn flipped_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        buffer(16384),
        proptest::collection::vec(any::<usize>(), 1..8),
    )
        .prop_map(|(old, at)| {
            let mut new = old.clone();
            if !new.is_empty() {
                let len = new.len();
                for i in at {
                    new[i % len] ^= 0x80;
                }
            }
            (old, new)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Growing matches into their literals only ever shrinks a delta:
    /// `rsync::diff` is the same walk without the growth (the same
    /// candidates, tried in the same order), and the local delta is never
    /// larger on the wire, carries no more literal bytes and no more
    /// copies, and still applies.
    #[test]
    fn local_delta_is_never_larger_than_rsync(
        pair in prop_oneof![old_new_pair(), indel_pair(), flipped_pair()],
        bs in 1usize..256,
    ) {
        let (old, new) = pair;
        let params = DeltaParams::with_block_size(bs);
        let mut cost = Cost::new();
        let local = local::diff(&old, &new, &params, &mut cost);
        let sig = rsync::signature(&old, &params, &mut cost);
        let remote = rsync::diff(&sig, &new, &params, &mut cost);
        let copies = |d: &Delta| d.ops().iter().filter(|op| matches!(op, DeltaOp::Copy { .. })).count();
        prop_assert!(local.wire_size() <= remote.wire_size());
        prop_assert!(local.literal_bytes() <= remote.literal_bytes());
        prop_assert!(copies(&local) <= copies(&remote));
        prop_assert_eq!(local.apply(&old).unwrap(), new);
    }

    /// rsync reconstructs any new file from any old file, independent or
    /// derived from it.
    #[test]
    fn rsync_roundtrip(pair in old_new_pair(), bs in 1usize..256) {
        let (old, new) = pair;
        let params = DeltaParams::with_block_size(bs);
        let mut cost = Cost::new();
        let sig = rsync::signature(&old, &params, &mut cost);
        let delta = rsync::diff(&sig, &new, &params, &mut cost);
        prop_assert_eq!(delta.apply(&old).unwrap(), new);
    }

    /// The local bitwise variant reconstructs identically and never
    /// strong-hashes.
    #[test]
    fn local_diff_roundtrip_without_md5(pair in old_new_pair(), bs in 1usize..256) {
        let (old, new) = pair;
        let params = DeltaParams::with_block_size(bs);
        let mut cost = Cost::new();
        let delta = local::diff(&old, &new, &params, &mut cost);
        prop_assert_eq!(delta.apply(&old).unwrap(), new);
        prop_assert_eq!(cost.bytes_strong_hashed, 0);
    }

    /// A delta framed for the wire is indistinguishable from the
    /// materialized one once the receiver has staged it: for any inputs,
    /// block size and chunk budget, no frame carries more than the
    /// budget in payload bytes, the frames account for exactly the
    /// message's wire size, their pieces concatenate to exactly the
    /// message's one wire encoding, and the stager hands back the
    /// identical message. This is the correctness contract of the framed
    /// upload (DESIGN.md §12): what crosses the wire in frames is exactly
    /// `wire::encode` of the message.
    #[test]
    fn framed_delta_equals_materialized(
        old in buffer(8192),
        new in buffer(8192),
        bs in 1usize..256,
        budget in 1usize..4096,
    ) {
        use deltacfs::core::pipeline::{frame_group, ChunkStager};
        use deltacfs::core::{GroupId, UpdateMsg, UpdatePayload, Version};

        let params = DeltaParams::with_block_size(bs);
        let delta = local::diff(&old, &new, &params, &mut Cost::new());
        let ver = |counter| Version { client: ClientId(1), counter };
        let msg = UpdateMsg {
            path: "/f".into(),
            base: Some(ver(1)),
            version: Some(ver(2)),
            payload: UpdatePayload::Delta { base_path: "/f.old".into(), delta },
            group: Some(GroupId { client: ClientId(1), seq: 1 }),
        };

        let mut frames = Vec::new();
        frame_group(std::slice::from_ref(&msg), budget, |f| frames.push(f));
        for f in &frames {
            prop_assert!(
                f.payload_bytes() <= budget as u64,
                "frame {} carries {} payload bytes over a budget of {}",
                f.chunk_idx, f.payload_bytes(), budget
            );
        }
        prop_assert_eq!(frames.iter().map(|f| f.accounted).sum::<u64>(), msg.wire_size());
        let concatenated: Vec<u8> = frames
            .iter()
            .flat_map(|f| &f.pieces)
            .flat_map(|p| p.as_slice().iter().copied())
            .collect();
        prop_assert_eq!(concatenated, deltacfs::core::wire::encode(&msg));

        let mut stager = ChunkStager::new();
        let mut committed = None;
        for f in &frames {
            prop_assert!(committed.is_none(), "frames after the commit");
            committed = stager.accept(f).expect("in-order stream stages");
        }
        let staged = committed.expect("the last frame commits the group");
        prop_assert_eq!(&staged, std::slice::from_ref(&msg));
        let UpdatePayload::Delta { delta, .. } = &staged[0].payload else {
            unreachable!("compared equal to a Delta message");
        };
        prop_assert_eq!(delta.apply(&old).unwrap(), new);
    }

    /// Local and remote rsync produce deltas of identical output length
    /// (they may differ in matching choices but must rebuild the same file).
    #[test]
    fn local_and_rsync_rebuild_identically(old in buffer(4096), new in buffer(4096)) {
        let params = DeltaParams::with_block_size(64);
        let mut cost = Cost::new();
        let d1 = local::diff(&old, &new, &params, &mut cost);
        let sig = rsync::signature(&old, &params, &mut cost);
        let d2 = rsync::diff(&sig, &new, &params, &mut cost);
        prop_assert_eq!(d1.apply(&old).unwrap(), d2.apply(&old).unwrap());
    }

    /// CDC chunks always partition the input exactly.
    #[test]
    fn cdc_partitions_input(data in buffer(64 * 1024)) {
        let params = cdc::CdcParams { min_size: 64, mask_bits: 8, max_size: 2048 };
        let spans = cdc::chunks(&data, &params, &mut Cost::new());
        let mut pos = 0u64;
        for s in &spans {
            prop_assert_eq!(s.offset, pos);
            prop_assert!(s.len > 0);
            pos += s.len;
        }
        prop_assert_eq!(pos, data.len() as u64);
    }

    /// Compression round-trips on arbitrary input.
    #[test]
    fn compress_roundtrip(data in buffer(32 * 1024)) {
        let compressed = compress::compress(&data, &mut Cost::new());
        prop_assert_eq!(compress::decompress(&compressed), Some(data));
    }

    /// The undo log reconstructs the pre-image of any write/truncate
    /// sequence.
    #[test]
    fn undo_log_reconstructs(initial in buffer(2048), ops in proptest::collection::vec((0usize..3000, buffer(256), any::<bool>()), 0..16)) {
        let original = initial.clone();
        let mut content = initial;
        let mut log = UndoLog::new();
        for (pos, data, is_truncate) in ops {
            let old_len = content.len() as u64;
            if is_truncate {
                let size = pos.min(content.len() + 512);
                let cut = if size < content.len() {
                    Bytes::copy_from_slice(&content[size..])
                } else {
                    Bytes::new()
                };
                content.resize(size, 0);
                log.record_truncate(old_len, size as u64, cut);
            } else {
                if data.is_empty() { continue; }
                let offset = pos.min(content.len());
                let end = offset + data.len();
                let overwritten = Bytes::copy_from_slice(
                    &content[offset.min(content.len())..end.min(content.len())],
                );
                if end > content.len() {
                    content.resize(end, 0);
                }
                content[offset..end].copy_from_slice(&data);
                log.record_write(old_len, offset as u64, overwritten, data.len() as u64);
            }
        }
        prop_assert_eq!(log.reconstruct(&content), original);
    }

    /// Whatever in-place write/truncate sequence an application performs,
    /// the cloud converges to the client's file content.
    #[test]
    fn client_server_converge_on_random_inplace_ops(
        ops in proptest::collection::vec((0u64..4096, buffer(512), any::<bool>()), 1..24)
    ) {
        let clock = SimClock::new();
        let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
        let mut server = CloudServer::new();
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/f").unwrap();
        for (offset, data, truncate) in ops {
            if truncate {
                fs.truncate("/f", offset).unwrap();
            } else if !data.is_empty() {
                fs.write("/f", offset, &data).unwrap();
            }
            for e in fs.drain_events() {
                client.handle_event(&e, &fs);
            }
            // Occasionally let time pass so multiple nodes form.
            clock.advance(1500);
            for group in client.tick(&fs) {
                server.apply_txn(&group);
            }
        }
        clock.advance(10_000);
        for group in client.flush(&fs) {
            server.apply_txn(&group);
        }
        let local_content = fs.peek_all("/f").unwrap();
        prop_assert_eq!(server.file("/f"), Some(&local_content[..]));
    }

    /// Transactional renames with arbitrary edits still converge.
    #[test]
    fn client_server_converge_on_transactional_saves(
        edits in proptest::collection::vec(buffer(1024), 1..6)
    ) {
        let clock = SimClock::new();
        let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
        let mut server = CloudServer::new();
        let mut fs = Vfs::new();
        fs.enable_event_log();
        let pump = |client: &mut DeltaCfsClient, fs: &mut Vfs| {
            for e in fs.drain_events() {
                client.handle_event(&e, fs);
            }
        };
        fs.create("/f").unwrap();
        fs.write("/f", 0, b"initial content for the transactional file").unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        for group in client.tick(&fs) {
            server.apply_txn(&group);
        }
        for (i, edit) in edits.iter().enumerate() {
            let tmp0 = format!("/f.old{i}");
            let tmp1 = format!("/f.new{i}");
            fs.rename("/f", &tmp0).unwrap();
            pump(&mut client, &mut fs);
            fs.create(&tmp1).unwrap();
            pump(&mut client, &mut fs);
            let mut doc = fs.peek_all(&tmp0).unwrap();
            doc.extend_from_slice(edit);
            fs.write(&tmp1, 0, &doc).unwrap();
            pump(&mut client, &mut fs);
            fs.close_path(&tmp1).unwrap();
            pump(&mut client, &mut fs);
            fs.rename(&tmp1, "/f").unwrap();
            pump(&mut client, &mut fs);
            fs.unlink(&tmp0).unwrap();
            pump(&mut client, &mut fs);
            clock.advance(4000);
            for group in client.tick(&fs) {
                server.apply_txn(&group);
            }
        }
        clock.advance(10_000);
        for group in client.flush(&fs) {
            server.apply_txn(&group);
        }
        let local_content = fs.peek_all("/f").unwrap();
        prop_assert_eq!(server.file("/f"), Some(&local_content[..]));
        // No temp files linger on the cloud.
        for p in server.paths() {
            prop_assert!(!p.contains(".old") && !p.contains(".new"), "stray {p}");
        }
    }
}

// --- Wire-format properties --------------------------------------------

use deltacfs::core::{wire, FileOpItem, Payload, UpdateMsg, UpdatePayload};

fn arb_version() -> impl Strategy<Value = Option<deltacfs::core::Version>> {
    proptest::option::of(
        (any::<u32>(), any::<u64>()).prop_map(|(c, n)| deltacfs::core::Version {
            client: ClientId(c),
            counter: n,
        }),
    )
}

fn arb_group() -> impl Strategy<Value = Option<deltacfs::core::GroupId>> {
    proptest::option::of(
        (any::<u32>(), any::<u64>()).prop_map(|(c, n)| deltacfs::core::GroupId {
            client: ClientId(c),
            seq: n,
        }),
    )
}

fn arb_payload() -> impl Strategy<Value = UpdatePayload> {
    prop_oneof![
        Just(UpdatePayload::Create),
        Just(UpdatePayload::Unlink),
        Just(UpdatePayload::Mkdir),
        Just(UpdatePayload::Rmdir),
        "[a-z/]{1,20}".prop_map(|to| UpdatePayload::Rename { to }),
        "[a-z/]{1,20}".prop_map(|to| UpdatePayload::Link { to }),
        proptest::collection::vec(any::<u8>(), 0..256)
            .prop_map(|d| UpdatePayload::Full(Payload::from(d))),
        proptest::collection::vec(
            prop_oneof![
                (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..64)).prop_map(|(o, d)| {
                    FileOpItem::Write {
                        offset: o,
                        data: Payload::from(d),
                    }
                }),
                any::<u64>().prop_map(|s| FileOpItem::Truncate { size: s }),
            ],
            0..8
        )
        .prop_map(UpdatePayload::Ops),
        (
            "[a-z/]{1,20}",
            proptest::collection::vec(
                prop_oneof![
                    (any::<u64>(), 1u64..10_000)
                        .prop_map(|(o, l)| DeltaOp::Copy { offset: o, len: l }),
                    proptest::collection::vec(any::<u8>(), 1..64)
                        .prop_map(|d| DeltaOp::Literal(Bytes::from(d))),
                ],
                0..8
            )
        )
            .prop_map(|(base_path, ops)| UpdatePayload::Delta {
                base_path,
                delta: Delta::from_ops(ops),
            }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every message round-trips through the wire format.
    #[test]
    fn wire_roundtrip(
        path in "[a-z0-9/._-]{1,40}",
        base in arb_version(),
        version in arb_version(),
        group in arb_group(),
        payload in arb_payload(),
    ) {
        let msg = UpdateMsg { path, base, version, payload, group };
        let decoded = wire::decode(&wire::encode(&msg)).unwrap();
        prop_assert_eq!(decoded, msg);
    }

    /// Decoding arbitrary bytes never panics (it may error).
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = wire::decode(&bytes);
    }

    /// Decoding a randomly corrupted valid message never panics.
    #[test]
    fn wire_decode_survives_corruption(
        payload in arb_payload(),
        group in arb_group(),
        flip_at in any::<u16>(),
        flip_bit in 0u8..8,
    ) {
        let msg = UpdateMsg {
            path: "/f".into(),
            base: None,
            version: None,
            payload,
            group,
        };
        let mut bytes = wire::encode(&msg);
        let idx = flip_at as usize % bytes.len();
        bytes[idx] ^= 1 << flip_bit;
        // Either it errors, or it decodes to *some* message — but never
        // panics or loops.
        let _ = wire::decode(&bytes);
    }
}

// --- Multi-client convergence ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Two clients editing disjoint files through the hub always converge
    /// to identical folder states (no conflicts possible).
    #[test]
    fn hub_converges_on_disjoint_edits(
        ops in proptest::collection::vec(
            (any::<bool>(), 0u8..3, 0u64..2048, buffer(256)),
            1..24
        )
    ) {
        use deltacfs::core::{DeltaCfsConfig, SyncHub};
        use deltacfs::net::LinkSpec;

        let clock = SimClock::new();
        let mut hub = SyncHub::new(clock.clone());
        let a = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        let b = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());

        for (who, file, offset, data) in ops {
            let (idx, prefix) = if who { (a, "a") } else { (b, "b") };
            let path = format!("/{prefix}{file}");
            if !hub.fs(idx).exists(&path) {
                hub.fs_mut(idx).create(&path).unwrap();
            }
            if !data.is_empty() {
                hub.fs_mut(idx).write(&path, offset, &data).unwrap();
            }
            hub.pump();
            clock.advance(1_000);
            hub.pump();
        }
        clock.advance(10_000);
        hub.pump();
        hub.flush();

        // Both clients and the cloud hold identical file sets.
        let files_a = hub.fs(a).walk_files("/").unwrap();
        let files_b = hub.fs(b).walk_files("/").unwrap();
        prop_assert_eq!(&files_a, &files_b);
        for path in files_a {
            let ca = hub.fs(a).peek_all(path.as_str()).unwrap();
            let cb = hub.fs(b).peek_all(path.as_str()).unwrap();
            prop_assert_eq!(&ca, &cb, "{} diverged between clients", path);
            prop_assert_eq!(
                hub.cloud().file(path.as_str()),
                Some(&ca[..]),
                "{} diverged from cloud", path
            );
        }
        prop_assert!(hub.conflicts().is_empty());
    }
}

// --- Cloud-server invariants --------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever mix of (possibly stale) updates arrives, the server keeps
    /// its invariants: the current content is always retrievable at the
    /// current version, history stays bounded, and stale writers never
    /// clobber the first writer.
    #[test]
    fn server_invariants_under_update_storms(
        updates in proptest::collection::vec(
            (0u8..3, any::<bool>(), proptest::collection::vec(any::<u8>(), 0..64)),
            1..40
        )
    ) {
        use deltacfs::core::{ApplyOutcome, UpdateMsg, UpdatePayload, Version};

        let mut server = CloudServer::new();
        let mut latest: std::collections::HashMap<String, Version> =
            std::collections::HashMap::new();
        for (n, (file, stale, data)) in updates.into_iter().enumerate() {
            let path = format!("/f{file}");
            let version = Version { client: ClientId(1), counter: n as u64 + 1 };
            // A stale writer uses a base that is one behind (or absent).
            let base = if stale { None } else { latest.get(&path).copied() };
            let outcome = server.apply_msg(&UpdateMsg {
                path: path.clone(),
                base,
                version: Some(version),
                payload: UpdatePayload::Full(Payload::from(data.clone())),
                group: None,
            });
            match outcome {
                ApplyOutcome::Applied => {
                    latest.insert(path.clone(), version);
                    // Current content is what we just wrote.
                    prop_assert_eq!(server.file(&path), Some(&data[..]));
                    prop_assert_eq!(server.version(&path), Some(version));
                }
                ApplyOutcome::Conflict { stored_as } => {
                    // The current version must be untouched...
                    prop_assert_eq!(server.version(&path), latest.get(&path).copied());
                    // ...and the losing content preserved somewhere.
                    prop_assert!(server.file(&stored_as).is_some());
                }
                ApplyOutcome::Rejected { .. } => {
                    prop_assert_eq!(server.version(&path), latest.get(&path).copied());
                }
            }
            // History is bounded and its entries all resolve.
            for v in server.version_history(&path) {
                prop_assert!(server.file_at(&path, v).is_some());
            }
            prop_assert!(server.version_history(&path).len() <= 9);
        }
    }
}

// --- Fault-injection invariants ------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A random write/rename/unlink workload pushed through a seeded
    /// fault schedule (drops, duplicates, reordered redeliveries, lost
    /// acks) still converges, and the server acknowledges each client's
    /// versions in strictly increasing order — the sync queue's causal
    /// order survives retransmission and duplicate delivery.
    #[test]
    fn faulty_sync_converges_and_preserves_causal_order(
        seed in any::<u64>(),
        upload_drop in 0.0f64..0.4,
        download_drop in 0.0f64..0.3,
        duplicate in 0.0f64..0.5,
        reorder in 0.0f64..1.0,
        ops in proptest::collection::vec(
            (0u8..5, 0usize..4, 0u64..2048, buffer(256)),
            1..20
        )
    ) {
        use deltacfs::core::SyncHub;
        use deltacfs::net::{FaultSpec, LinkSpec};

        let clock = SimClock::new();
        let mut hub = recorded(SyncHub::new(clock.clone()));
        hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        hub.enable_faults(
            FaultSpec::clean(seed)
                .with_rates(upload_drop, download_drop, duplicate)
                .with_reorder(reorder),
        );

        // Client 0 runs the workload over a small pool of live paths;
        // renames move files to fresh names so late duplicates of
        // rename groups would be caught clobbering recreated paths.
        let mut live: Vec<String> = Vec::new();
        let mut next_name = 0usize;
        for (kind, sel, offset, data) in ops {
            match kind {
                // Write (create on first touch) — the common case.
                0..=2 => {
                    let path = if live.is_empty() || (kind == 0 && live.len() < 4) {
                        let p = format!("/w{next_name}");
                        next_name += 1;
                        hub.fs_mut(0).create(&p).unwrap();
                        live.push(p.clone());
                        p
                    } else {
                        live[sel % live.len()].clone()
                    };
                    let len = hub.fs_mut(0).metadata(&path).map(|m| m.size).unwrap_or(0);
                    let off = offset.min(len);
                    if !data.is_empty() {
                        hub.fs_mut(0).write(&path, off, &data).unwrap();
                    }
                }
                3 => {
                    if !live.is_empty() {
                        let src = live.remove(sel % live.len());
                        let dst = format!("/r{next_name}");
                        next_name += 1;
                        hub.fs_mut(0).rename(&src, &dst).unwrap();
                        live.push(dst);
                    }
                }
                _ => {
                    if !live.is_empty() {
                        let victim = live.remove(sel % live.len());
                        hub.fs_mut(0).unlink(&victim).unwrap();
                    }
                }
            }
            hub.pump();
            clock.advance(2_500);
            hub.pump();
        }
        let drained = hub.settle(600_000);
        prop_assert!(drained, "seed {}: courier gave up or never drained", seed);

        // Convergence: the uploader, the passive peer, and the server
        // agree on every path the server holds.
        for path in hub.cloud().paths() {
            let server = hub.cloud().file(&path).unwrap();
            for idx in 0..2 {
                let local = hub.fs(idx).peek_all(&path).unwrap_or_default();
                prop_assert_eq!(
                    &local, &server,
                    "seed {}: client {} diverged on {}", seed, idx, path
                );
            }
        }
        // Causal order: per client, acked version counters strictly
        // increase — no retry or duplicate was committed out of order.
        let mut last: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (client, path, version) in hub.acked() {
            let prev = last.insert(*client, version.counter);
            prop_assert!(
                prev.is_none_or(|p| version.counter > p),
                "seed {}: client {} acked v{} after v{:?} ({})",
                seed, client, version.counter, prev, path
            );
        }
    }

    /// Two *concurrently faulty* writers, each under its own independent
    /// drop/dup/reorder schedule (its own seed and RNG), still converge
    /// with the server, and each writer's acked versions stay in causal
    /// order. Renames keep version-less groups in play, so this also
    /// exercises the per-sender `GroupSeq` replay rule under interleaved
    /// duplicate redelivery from both writers, and checks from the
    /// flight record the order that rule rests on.
    #[test]
    fn multi_writer_fault_topology_converges(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        drop_a in 0.0f64..0.35,
        drop_b in 0.0f64..0.35,
        dup_a in 0.0f64..0.5,
        dup_b in 0.0f64..0.5,
        reorder in 0.0f64..1.0,
        ops in proptest::collection::vec(
            (any::<bool>(), 0u8..5, 0usize..4, 0u64..2048, buffer(192)),
            1..20
        )
    ) {
        use deltacfs::core::SyncHub;
        use deltacfs::net::{FaultSpec, LinkSpec};

        let clock = SimClock::new();
        let mut hub = recorded(SyncHub::new(clock.clone()));
        hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        hub.enable_fault_topology(vec![
            FaultSpec::clean(seed_a)
                .with_rates(drop_a, 0.2, dup_a)
                .with_reorder(reorder),
            FaultSpec::clean(seed_b)
                .with_rates(drop_b, 0.15, dup_b)
                .with_reorder(1.0 - reorder),
        ]);

        // Each writer mutates its own namespace: the contention under
        // test lives in the fault layer (interleaved retries, duplicate
        // redeliveries, per-writer schedules), not in file conflicts.
        let mut live: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        let mut next_name = 0usize;
        for (who, kind, sel, offset, data) in ops {
            let w = usize::from(who);
            let prefix = if w == 0 { "a" } else { "b" };
            match kind {
                0..=2 => {
                    let path = if live[w].is_empty() || (kind == 0 && live[w].len() < 4) {
                        let p = format!("/{prefix}{next_name}");
                        next_name += 1;
                        hub.fs_mut(w).create(&p).unwrap();
                        live[w].push(p.clone());
                        p
                    } else {
                        live[w][sel % live[w].len()].clone()
                    };
                    let len = hub.fs_mut(w).metadata(&path).map(|m| m.size).unwrap_or(0);
                    let off = offset.min(len);
                    if !data.is_empty() {
                        hub.fs_mut(w).write(&path, off, &data).unwrap();
                    }
                }
                3 => {
                    if !live[w].is_empty() {
                        let src = live[w].remove(sel % live[w].len());
                        let dst = format!("/{prefix}r{next_name}");
                        next_name += 1;
                        hub.fs_mut(w).rename(&src, &dst).unwrap();
                        live[w].push(dst);
                    }
                }
                _ => {
                    if !live[w].is_empty() {
                        let victim = live[w].remove(sel % live[w].len());
                        hub.fs_mut(w).unlink(&victim).unwrap();
                    }
                }
            }
            hub.pump();
            clock.advance(2_500);
            hub.pump();
        }
        let drained = hub.settle(600_000);
        prop_assert!(
            drained,
            "seeds {}/{}: a courier gave up or never drained", seed_a, seed_b
        );
        // Every held-back duplicate was redelivered by the time the hub
        // settled.
        prop_assert_eq!(hub.deferred_len(), 0);

        // Convergence: both writers and the server agree on every path
        // the server holds.
        for path in hub.cloud().paths() {
            let server = hub.cloud().file(&path).unwrap();
            for idx in 0..2 {
                let local = hub.fs(idx).peek_all(&path).unwrap_or_default();
                prop_assert_eq!(
                    &local, &server,
                    "seeds {}/{}: client {} diverged on {}", seed_a, seed_b, idx, path
                );
            }
        }
        // Causal order per writer, independent of the other writer's
        // interleaved retries.
        let mut last: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (client, path, version) in hub.acked() {
            let prev = last.insert(*client, version.counter);
            prop_assert!(
                prev.is_none_or(|p| version.counter > p),
                "seeds {}/{}: client {} acked v{} after v{:?} ({})",
                seed_a, seed_b, client, version.counter, prev, path
            );
        }

        // The replay rule rests on per-sender order: the server applies
        // each client's groups in rising `GroupSeq`, every absorbed
        // replay names a group applied before it, and each peer commits
        // one sender's forwards in rising seq.
        let recorder = &hub.obs().recorder;
        prop_assert_eq!(recorder.dropped(), 0, "seeds {}/{}: records dropped", seed_a, seed_b);
        let mut applied_seq: std::collections::HashMap<u32, u64> = Default::default();
        let mut applied = std::collections::HashSet::new();
        let mut forwarded: std::collections::HashMap<(String, u32), u64> = Default::default();
        for rec in recorder.records() {
            let Some(g) = rec.group else { continue };
            match rec.stage.as_str() {
                "server.apply" => {
                    let prev = applied_seq.insert(g.client, g.seq);
                    prop_assert!(
                        prev.is_none_or(|p| g.seq > p),
                        "seeds {}/{}: {} applied after g{:?}", seed_a, seed_b, g, prev
                    );
                    applied.insert(g);
                }
                "server.dedup" => prop_assert!(
                    applied.contains(&g),
                    "seeds {}/{}: replay of {} absorbed before it was applied", seed_a, seed_b, g
                ),
                "forward" if rec.end_ms.is_some() => {
                    let prev = forwarded.insert((rec.actor.clone(), g.client), g.seq);
                    prop_assert!(
                        prev.is_none_or(|p| g.seq > p),
                        "seeds {}/{}: {} committed {} after g{:?}", seed_a, seed_b, rec.actor, g, prev
                    );
                }
                _ => {}
            }
        }
    }
}

// --- One server, many namespaces (DESIGN.md §13) --------------------------

use deltacfs::core::SyncHub;
use deltacfs::net::{FaultSpec, LinkSpec};

/// One tenant-workload step: tenant, second client?, kind, pick,
/// offset, data.
type TenantOp = (u8, bool, u8, usize, u64, Vec<u8>);

/// Everything two runs of one hub workload must agree on.
type HubFingerprint = (
    Vec<(String, Option<Vec<u8>>)>, // server content
    Vec<String>,                    // causal apply order
    Vec<Vec<(String, Vec<u8>)>>,    // per-client file state
    Vec<(u64, u64)>,                // per-client traffic totals
    Vec<(usize, String, u64)>,      // acked versions, in ack order
    Vec<(usize, String)>,           // conflicts observed: (client, path)
);

/// Every file of client `idx`, sorted by path.
fn client_files(hub: &SyncHub, idx: usize) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = hub
        .fs(idx)
        .walk_files("/")
        .unwrap_or_default()
        .into_iter()
        .map(|p| {
            let c = hub.fs(idx).peek_all(p.as_str()).unwrap();
            (p.to_string(), c)
        })
        .collect();
    files.sort();
    files
}

fn hub_fingerprint(hub: &SyncHub) -> HubFingerprint {
    let server_content = hub
        .cloud()
        .paths()
        .into_iter()
        .map(|p| {
            let c = hub.cloud().file(&p).map(<[u8]>::to_vec);
            (p, c)
        })
        .collect();
    (
        server_content,
        hub.cloud().apply_order().to_vec(),
        (0..hub.client_count())
            .map(|idx| client_files(hub, idx))
            .collect(),
        (0..hub.client_count())
            .map(|idx| (hub.traffic(idx).bytes_up, hub.traffic(idx).bytes_down))
            .collect(),
        hub.acked()
            .iter()
            .map(|(c, p, v)| (*c, p.clone(), v.counter))
            .collect(),
        hub.conflicts()
            .iter()
            .map(|(client, conflict)| (*client, conflict.path.clone()))
            .collect(),
    )
}

/// Drives a multi-tenant workload on one hub: four tenants, two clients
/// each, writes/renames/unlinks confined to each tenant's namespace; an
/// op whose tenant number is 4 or more (tenant `n % 4`) shares its pump
/// round with the next op, so rounds see several busy tenants. `faults`,
/// when given, is armed once every client is attached, before the first
/// op.
fn run_tenant_workload(ops: &[TenantOp], faults: Option<FaultSpec>) -> SyncHub {
    use deltacfs::core::DeltaCfsConfig;

    let clock = SimClock::new();
    let mut hub = SyncHub::new(clock.clone());
    let mut clients = Vec::new();
    for t in 0..4 {
        let ns = format!("t{t}");
        let a = hub.add_client_in(&ns, DeltaCfsConfig::new(), LinkSpec::pc());
        let b = hub.add_client_in(&ns, DeltaCfsConfig::new(), LinkSpec::pc());
        hub.fs_mut(a).mkdir_all(&format!("/{ns}")).unwrap();
        clients.push((a, b));
    }
    if let Some(spec) = faults {
        hub.enable_faults(spec);
    }
    let mut live: Vec<Vec<String>> = vec![Vec::new(); 4];
    let mut next_name = 0usize;
    for (tenant, second, kind, sel, offset, data) in ops {
        let t = (*tenant as usize) % 4;
        let idx = if *second { clients[t].1 } else { clients[t].0 };
        match kind {
            0..=2 => {
                let path = if live[t].is_empty() || (*kind == 0 && live[t].len() < 4) {
                    let p = format!("/t{t}/w{next_name}");
                    next_name += 1;
                    // Only the dir-owning writer may create before the
                    // Mkdir forwards; both clients of a tenant share the
                    // namespace dir made above by client a, which has
                    // been forwarded by the first pump.
                    if !hub.fs(idx).exists(&format!("/t{t}")) {
                        hub.fs_mut(idx).mkdir_all(&format!("/t{t}")).unwrap();
                    }
                    hub.fs_mut(idx).create(&p).unwrap();
                    live[t].push(p.clone());
                    p
                } else {
                    live[t][sel % live[t].len()].clone()
                };
                if !hub.fs(idx).exists(&path) {
                    continue; // peer hasn't received the create yet
                }
                let len = hub.fs_mut(idx).metadata(&path).map(|m| m.size).unwrap_or(0);
                let off = offset.min(&len).to_owned();
                if !data.is_empty() {
                    hub.fs_mut(idx).write(&path, off, data).unwrap();
                }
            }
            3 => {
                if !live[t].is_empty() {
                    let pick = sel % live[t].len();
                    let src = live[t].remove(pick);
                    if hub.fs(idx).exists(&src) {
                        let dst = format!("/t{t}/r{next_name}");
                        next_name += 1;
                        hub.fs_mut(idx).rename(&src, &dst).unwrap();
                        live[t].push(dst);
                    }
                }
            }
            _ => {
                if !live[t].is_empty() {
                    let pick = sel % live[t].len();
                    let victim = live[t].remove(pick);
                    if hub.fs(idx).exists(&victim) {
                        hub.fs_mut(idx).unlink(&victim).unwrap();
                    }
                }
            }
        }
        hub.ingest(idx);
        if *tenant >= 4 {
            continue;
        }
        hub.pump();
        clock.advance(2_500);
        hub.pump();
    }
    clock.advance(10_000);
    hub.pump();
    hub.flush();
    hub
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Many tenants on the one server, delivered with and without a fault
    /// plan that injects nothing: both runs land the identical server
    /// content, per-client state, traffic, causal apply order, conflict
    /// sequence and server outcomes (only the faulty run keeps an ack
    /// record); no client ever holds a path outside its namespace; and
    /// once settled, every client agrees with the server inside its
    /// namespace.
    #[test]
    fn clean_fault_plan_matches_the_fault_free_hub(
        seed in any::<u64>(),
        ops in proptest::collection::vec(
            (0u8..8, any::<bool>(), 0u8..5, 0usize..4, 0u64..2048, buffer(192)),
            1..16
        )
    ) {
        let mut hub = run_tenant_workload(&ops, None);
        let faulty = run_tenant_workload(&ops, Some(FaultSpec::clean(seed)));
        let without_acks = |hub: &SyncHub| {
            let mut fingerprint = hub_fingerprint(hub);
            fingerprint.4.clear();
            fingerprint
        };
        prop_assert_eq!(without_acks(&faulty), without_acks(&hub), "a clean fault plan changed the run");
        prop_assert_eq!(faulty.server_outcomes(), hub.server_outcomes());
        for idx in 0..hub.client_count() {
            let subtree = format!("/{}/", hub.namespace(idx));
            for (path, _) in client_files(&hub, idx) {
                prop_assert!(path.starts_with(&subtree), "client {} holds {}", idx, path);
            }
        }
        prop_assert!(hub.settle(600_000), "a courier never drained");
        for idx in 0..hub.client_count() {
            for path in hub.cloud().paths_in_namespace(hub.namespace(idx)) {
                prop_assert_eq!(
                    hub.fs(idx).peek_slice(&path).ok(),
                    hub.cloud().file(&path),
                    "client {} diverged on {}", idx, path
                );
            }
            for (path, _) in client_files(&hub, idx) {
                prop_assert!(
                    path.contains(".conflict-") || hub.cloud().file(&path).is_some(),
                    "client {} holds {} the server lacks", idx, path
                );
            }
        }
    }

    /// The multi-writer fault topology test with namespaces: two writers
    /// in two namespaces of the one server, each under its own
    /// independent drop/dup/reorder schedule, with a passive reader per
    /// namespace so forwarded downloads stay in play. Convergence and
    /// per-writer causal order must hold in each namespace.
    #[test]
    fn namespaced_multi_writer_fault_topology_converges(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        drop_a in 0.0f64..0.35,
        drop_b in 0.0f64..0.35,
        dup_a in 0.0f64..0.5,
        dup_b in 0.0f64..0.5,
        reorder in 0.0f64..1.0,
        ops in proptest::collection::vec(
            (any::<bool>(), 0u8..5, 0usize..4, 0u64..2048, buffer(192)),
            1..16
        )
    ) {
        use deltacfs::core::DeltaCfsConfig;

        let (ns_a, ns_b) = ("a".to_string(), "b0".to_string());

        let clock = SimClock::new();
        let mut hub = recorded(SyncHub::new(clock.clone()));
        let wa = hub.add_client_in(&ns_a, DeltaCfsConfig::new(), LinkSpec::pc());
        let wb = hub.add_client_in(&ns_b, DeltaCfsConfig::new(), LinkSpec::pc());
        let _ra = hub.add_client_in(&ns_a, DeltaCfsConfig::new(), LinkSpec::pc());
        let _rb = hub.add_client_in(&ns_b, DeltaCfsConfig::new(), LinkSpec::pc());
        hub.fs_mut(wa).mkdir_all(&format!("/{ns_a}")).unwrap();
        hub.fs_mut(wb).mkdir_all(&format!("/{ns_b}")).unwrap();
        hub.enable_fault_topology(vec![
            FaultSpec::clean(seed_a)
                .with_rates(drop_a, 0.2, dup_a)
                .with_reorder(reorder),
            FaultSpec::clean(seed_b)
                .with_rates(drop_b, 0.15, dup_b)
                .with_reorder(1.0 - reorder),
            FaultSpec::clean(seed_a ^ 0xA5A5)
                .with_rates(0.0, 0.25, 0.0),
            FaultSpec::clean(seed_b ^ 0x5A5A)
                .with_rates(0.0, 0.25, 0.0),
        ]);

        let writers = [(wa, ns_a.clone()), (wb, ns_b.clone())];
        let mut live: [Vec<String>; 2] = [Vec::new(), Vec::new()];
        let mut next_name = 0usize;
        for (who, kind, sel, offset, data) in ops {
            let w = usize::from(who);
            let (idx, ns) = (&writers[w].0, &writers[w].1);
            match kind {
                0..=2 => {
                    let path = if live[w].is_empty() || (kind == 0 && live[w].len() < 4) {
                        let p = format!("/{ns}/{next_name}");
                        next_name += 1;
                        hub.fs_mut(*idx).create(&p).unwrap();
                        live[w].push(p.clone());
                        p
                    } else {
                        live[w][sel % live[w].len()].clone()
                    };
                    let len = hub.fs_mut(*idx).metadata(&path).map(|m| m.size).unwrap_or(0);
                    let off = offset.min(len);
                    if !data.is_empty() {
                        hub.fs_mut(*idx).write(&path, off, &data).unwrap();
                    }
                }
                3 => {
                    if !live[w].is_empty() {
                        let src = live[w].remove(sel % live[w].len());
                        let dst = format!("/{ns}/r{next_name}");
                        next_name += 1;
                        hub.fs_mut(*idx).rename(&src, &dst).unwrap();
                        live[w].push(dst);
                    }
                }
                _ => {
                    if !live[w].is_empty() {
                        let victim = live[w].remove(sel % live[w].len());
                        hub.fs_mut(*idx).unlink(&victim).unwrap();
                    }
                }
            }
            hub.pump();
            clock.advance(2_500);
            hub.pump();
        }
        let drained = hub.settle(600_000);
        prop_assert!(
            drained,
            "seeds {}/{}: a courier gave up or never drained", seed_a, seed_b
        );
        prop_assert_eq!(hub.deferred_len(), 0);

        // Convergence per namespace: each client agrees with the server
        // on every path inside its own namespace.
        for idx in 0..hub.client_count() {
            let ns = hub.namespace(idx).to_string();
            for path in hub.cloud().paths_in_namespace(&ns) {
                let server = hub.cloud().file(&path).unwrap();
                let local = hub.fs(idx).peek_all(&path).unwrap_or_default();
                prop_assert_eq!(
                    &local, &server,
                    "seeds {}/{}: client {} diverged on {}", seed_a, seed_b, idx, path
                );
            }
        }
        // Causal order per writer, independent of the other writer's
        // interleaved retries.
        let mut last: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for (client, path, version) in hub.acked() {
            let prev = last.insert(*client, version.counter);
            prop_assert!(
                prev.is_none_or(|p| version.counter > p),
                "seeds {}/{}: client {} acked v{} after v{:?} ({})",
                seed_a, seed_b, client, version.counter, prev, path
            );
        }
    }
}

// --- Bidirectional sync (DESIGN.md §14) -----------------------------------

/// Two replicas of one shared namespace editing concurrently under a
/// seeded fault topology: every group either replica uploads is planned
/// against the other's version table and streamed back out as chunked
/// forward frames, so the download-direction framing, staging and
/// atomic group commit run in both directions at once. Returns
/// everything a second run must repeat.
#[allow(clippy::type_complexity)]
fn run_bidirectional_workload(
    seeds: (u64, u64),
    rates: (f64, f64, f64, f64),
    ops: &[(bool, u8, usize, u64, Vec<u8>)],
) -> (
    bool,                           // settled without give-up
    usize,                          // deferred duplicates left
    usize,                          // conflicts observed
    Vec<(String, Option<Vec<u8>>)>, // server content
    Vec<Vec<(String, Vec<u8>)>>,    // per-replica file state
    Vec<(u64, u64)>,                // per-replica traffic totals
) {
    use deltacfs::core::DeltaCfsConfig;

    let clock = SimClock::new();
    let mut hub = recorded(SyncHub::new(clock.clone()));
    let a = hub.add_client_in("shared", DeltaCfsConfig::new(), LinkSpec::pc());
    let b = hub.add_client_in("shared", DeltaCfsConfig::new(), LinkSpec::pc());
    hub.fs_mut(a).mkdir_all("/shared").unwrap();
    let (up_a, down_a, up_b, down_b) = rates;
    hub.enable_fault_topology(vec![
        FaultSpec::clean(seeds.0)
            .with_rates(up_a, down_a, 0.3)
            .with_reorder(0.5),
        FaultSpec::clean(seeds.1)
            .with_rates(up_b, down_b, 0.4)
            .with_reorder(0.5),
    ]);

    // Each replica edits its own files, but inside the one shared
    // namespace — so every committed group fans back out to the other
    // replica and both downlinks carry streamed forwards concurrently.
    let replicas = [a, b];
    let mut live: [Vec<String>; 2] = [Vec::new(), Vec::new()];
    let mut next_name = 0usize;
    for (who, kind, sel, offset, data) in ops {
        let w = usize::from(*who);
        let idx = replicas[w];
        let prefix = if w == 0 { "a" } else { "b" };
        match kind {
            0..=2 => {
                let path = if live[w].is_empty() || (*kind == 0 && live[w].len() < 4) {
                    let p = format!("/shared/{prefix}{next_name}");
                    next_name += 1;
                    if !hub.fs(idx).exists("/shared") {
                        // The Mkdir forward was lost on this replica's
                        // downlink; recreate the namespace dir locally.
                        hub.fs_mut(idx).mkdir_all("/shared").unwrap();
                    }
                    hub.fs_mut(idx).create(&p).unwrap();
                    live[w].push(p.clone());
                    p
                } else {
                    live[w][sel % live[w].len()].clone()
                };
                let len = hub.fs_mut(idx).metadata(&path).map(|m| m.size).unwrap_or(0);
                let off = (*offset).min(len);
                if !data.is_empty() {
                    hub.fs_mut(idx).write(&path, off, data).unwrap();
                }
            }
            3 => {
                if !live[w].is_empty() {
                    let src = live[w].remove(sel % live[w].len());
                    let dst = format!("/shared/{prefix}r{next_name}");
                    next_name += 1;
                    hub.fs_mut(idx).rename(&src, &dst).unwrap();
                    live[w].push(dst);
                }
            }
            _ => {
                if !live[w].is_empty() {
                    let victim = live[w].remove(sel % live[w].len());
                    hub.fs_mut(idx).unlink(&victim).unwrap();
                }
            }
        }
        hub.pump();
        clock.advance(2_500);
        hub.pump();
    }
    let settled = hub.settle(600_000);

    let server_content: Vec<(String, Option<Vec<u8>>)> = hub
        .cloud()
        .paths()
        .into_iter()
        .map(|p| {
            let c = hub.cloud().file(&p).map(<[u8]>::to_vec);
            (p, c)
        })
        .collect();
    let replica_state = replicas
        .iter()
        .map(|&idx| client_files(&hub, idx))
        .collect();
    let traffic = replicas
        .iter()
        .map(|&idx| (hub.traffic(idx).bytes_up, hub.traffic(idx).bytes_down))
        .collect();
    (
        settled,
        hub.deferred_len(),
        hub.conflicts().len(),
        server_content,
        replica_state,
        traffic,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Bidirectional sync: two replicas of one namespace exchanging
    /// concurrent edits under independent per-replica fault schedules
    /// always converge — each replica ends holding exactly the server's
    /// file set byte for byte, with no deferred duplicates and no
    /// conflict copies (the replicas edit disjoint files; only the
    /// fault layer and the forwarded streams contend).
    #[test]
    fn bidirectional_replicas_converge_under_fault_topology(
        seed_a in any::<u64>(),
        seed_b in any::<u64>(),
        up_a in 0.0f64..0.3,
        down_a in 0.0f64..0.3,
        up_b in 0.0f64..0.3,
        down_b in 0.0f64..0.3,
        ops in proptest::collection::vec(
            (any::<bool>(), 0u8..5, 0usize..4, 0u64..2048, buffer(192)),
            1..16
        )
    ) {
        let (settled, deferred, conflicts, server, replicas, _traffic) =
            run_bidirectional_workload((seed_a, seed_b), (up_a, down_a, up_b, down_b), &ops);
        prop_assert!(
            settled,
            "seeds {}/{}: a courier gave up or never drained", seed_a, seed_b
        );
        prop_assert_eq!(deferred, 0);
        prop_assert_eq!(conflicts, 0);
        for (path, content) in &server {
            let content = content.as_ref().expect("listed path exists");
            for (idx, files) in replicas.iter().enumerate() {
                let local = files.iter().find(|(p, _)| p == path).map(|(_, c)| c);
                prop_assert_eq!(
                    local, Some(content),
                    "seeds {}/{}: replica {} diverged on {}", seed_a, seed_b, idx, path
                );
            }
        }
        for (idx, files) in replicas.iter().enumerate() {
            for (path, _) in files {
                if !path.contains(".conflict-") {
                    prop_assert!(
                        server.iter().any(|(p, _)| p == path),
                        "seeds {}/{}: replica {} holds {} the server lacks",
                        seed_a, seed_b, idx, path
                    );
                }
            }
        }
    }
}

/// The bidirectional scenario, pinned: the concurrent-edit workload
/// drains with no leaked duplicates and no conflicts, every replica
/// equals the server, and a second run lands byte-identical server
/// content, replica states and traffic totals. (The name is from when
/// the hub was sharded; DESIGN.md §13 maps the old checks.)
#[test]
fn bidirectional_sync_is_byte_identical_for_any_shard_count() {
    let ops: Vec<(bool, u8, usize, u64, Vec<u8>)> = (0..24usize)
        .map(|i| {
            let data = vec![(i * 17 % 251) as u8; 48 + (i * 29) % 160];
            (
                i % 2 == 0,
                (i * 7 % 5) as u8,
                i * 3,
                (i as u64 * 137) % 1024,
                data,
            )
        })
        .collect();
    let seeds = (0xB1D1u64, 0xB1D2u64);
    let rates = (0.25, 0.25, 0.2, 0.3);

    let baseline = run_bidirectional_workload(seeds, rates, &ops);
    assert!(baseline.0, "the baseline never drained");
    assert_eq!(baseline.1, 0, "deferred duplicates leaked");
    assert_eq!(baseline.2, 0, "disjoint-file replicas must not conflict");
    for (path, content) in &baseline.3 {
        let content = content.as_ref().expect("listed path exists");
        for (idx, files) in baseline.4.iter().enumerate() {
            let local = files.iter().find(|(p, _)| p == path).map(|(_, c)| c);
            assert_eq!(local, Some(content), "replica {idx} diverged on {path}");
        }
    }
    let again = run_bidirectional_workload(seeds, rates, &ops);
    assert_eq!(again, baseline, "a second run diverged from the first");
}

/// Runs one streamed two-group workload through a [`DeltaCfsSystem`]
/// with the given codec policy (`None` = wire compression off) and
/// returns everything the codec must NOT perturb — synced content,
/// client cost, group outcomes — plus the uplink bytes it may only
/// shrink.
fn run_codec_workload(
    policy: Option<deltacfs::core::CodecPolicy>,
    base: &[u8],
    edit: &[u8],
    offset: usize,
    budget: usize,
) -> (
    Option<Vec<u8>>,
    Cost,
    Vec<deltacfs::core::ApplyOutcome>,
    u64,
) {
    use deltacfs::core::{DeltaCfsSystem, SyncEngine};
    use deltacfs::net::LinkSpec;

    let clock = SimClock::new();
    let cfg = DeltaCfsConfig::new()
        .with_chunk_budget(budget)
        .with_wire_compression(policy.is_some());
    let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::mobile());
    if let Some(policy) = policy {
        sys.set_codec_policy(policy);
        sys.set_platform(deltacfs::net::PlatformProfile::mobile());
    }
    let mut fs = Vfs::new();
    fs.enable_event_log();
    fs.create("/f").unwrap();
    fs.write("/f", 0, base).unwrap();
    for e in fs.drain_events() {
        sys.on_event(&e, &fs);
    }
    clock.advance(4_000);
    sys.tick(&fs);
    fs.write("/f", offset as u64, edit).unwrap();
    for e in fs.drain_events() {
        sys.on_event(&e, &fs);
    }
    clock.advance(4_000);
    sys.finish(&fs);
    let report = sys.report();
    (
        sys.server().file("/f").map(<[u8]>::to_vec),
        report.client_cost,
        sys.outcomes().to_vec(),
        report.traffic.bytes_up,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The adaptive wire codec is invisible to everything but traffic:
    /// for any workload, any chunk budget, and ANY per-chunk
    /// compress/raw decision schedule — including schedules the
    /// cost-benefit controller would never pick — the synced content,
    /// the client `Cost` totals, and the group outcomes are
    /// byte-identical to a raw-wire run, and the compressed uplink
    /// never exceeds the raw uplink (DESIGN.md §15). The controller can
    /// only ever trade wire bytes against codec-side CPU; it has no
    /// channel through which to perturb state.
    #[test]
    fn compressed_wire_is_state_identical(
        base in buffer(16 * 1024),
        edit in buffer(4 * 1024),
        offset in 0usize..8 * 1024,
        budget in 64usize..2048,
        schedule in proptest::collection::vec(any::<bool>(), 1..12),
    ) {
        use deltacfs::core::CodecPolicy;

        let raw = run_codec_workload(None, &base, &edit, offset, budget);
        for policy in [
            CodecPolicy::Schedule(schedule.clone()),
            CodecPolicy::Adaptive,
            CodecPolicy::Always,
        ] {
            let tag = format!("{policy:?}");
            let run = run_codec_workload(Some(policy), &base, &edit, offset, budget);
            prop_assert_eq!(&run.0, &raw.0, "content diverged under {}", &tag);
            prop_assert_eq!(&run.1, &raw.1, "client cost diverged under {}", &tag);
            prop_assert_eq!(&run.2, &raw.2, "outcomes diverged under {}", &tag);
            prop_assert!(
                run.3 <= raw.3,
                "{}: compressed uplink {} exceeds raw {}", &tag, run.3, raw.3
            );
        }
    }
}
