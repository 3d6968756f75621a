//! Edge-case integration tests for the DeltaCFS engine.

use deltacfs::core::{DeltaCfsConfig, DeltaCfsSystem, SyncEngine};
use deltacfs::net::{LinkSpec, SimClock};
use deltacfs::vfs::Vfs;

struct Rig {
    sys: DeltaCfsSystem,
    fs: Vfs,
    clock: SimClock,
}

impl Rig {
    fn new() -> Self {
        let clock = SimClock::new();
        let sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        Rig { sys, fs, clock }
    }

    /// Pumps events synchronously (the FUSE contract).
    fn pump(&mut self) {
        for e in self.fs.drain_events() {
            self.sys.on_event(&e, &self.fs);
        }
    }

    fn sync(&mut self) {
        self.pump();
        self.clock.advance(4_000);
        self.sys.tick(&self.fs);
    }

    fn assert_converged(&self) {
        for path in self.fs.walk_files("/").unwrap() {
            let local = self.fs.peek_all(path.as_str()).unwrap();
            assert_eq!(
                self.sys.server().file(path.as_str()),
                Some(&local[..]),
                "{path} diverged"
            );
        }
    }
}

#[test]
fn directories_sync() {
    let mut rig = Rig::new();
    rig.fs.mkdir_all("/a/b/c").unwrap();
    rig.fs.create("/a/b/c/deep.txt").unwrap();
    rig.fs.write("/a/b/c/deep.txt", 0, b"nested").unwrap();
    rig.sync();
    assert!(rig.sys.server().has_dir("/a"));
    assert!(rig.sys.server().has_dir("/a/b/c"));
    assert_eq!(
        rig.sys.server().file("/a/b/c/deep.txt"),
        Some(&b"nested"[..])
    );
    rig.fs.unlink("/a/b/c/deep.txt").unwrap();
    rig.fs.rmdir("/a/b/c").unwrap();
    rig.sync();
    assert!(!rig.sys.server().has_dir("/a/b/c"));
    assert!(rig.sys.server().file("/a/b/c/deep.txt").is_none());
}

#[test]
fn empty_file_syncs() {
    let mut rig = Rig::new();
    rig.fs.create("/empty").unwrap();
    rig.sync();
    assert_eq!(rig.sys.server().file("/empty"), Some(&b""[..]));
}

#[test]
fn zero_byte_write_is_harmless() {
    let mut rig = Rig::new();
    rig.fs.create("/f").unwrap();
    rig.fs.write("/f", 0, b"content").unwrap();
    rig.fs.write("/f", 3, b"").unwrap();
    rig.sync();
    rig.assert_converged();
}

#[test]
fn rename_chain_follows_through() {
    let mut rig = Rig::new();
    rig.fs.create("/a").unwrap();
    rig.fs.write("/a", 0, b"traveling").unwrap();
    rig.sync();
    rig.fs.rename("/a", "/b").unwrap();
    rig.pump();
    rig.fs.rename("/b", "/c").unwrap();
    rig.pump();
    rig.fs.rename("/c", "/d").unwrap();
    rig.sync();
    assert_eq!(rig.sys.server().file("/d"), Some(&b"traveling"[..]));
    for gone in ["/a", "/b", "/c"] {
        assert!(rig.sys.server().file(gone).is_none(), "{gone} lingers");
    }
    rig.assert_converged();
}

#[test]
fn writes_after_transactional_save_still_converge() {
    let mut rig = Rig::new();
    rig.fs.create("/f").unwrap();
    rig.fs.write("/f", 0, &vec![5u8; 20_000]).unwrap();
    rig.sync();
    // Transactional save...
    let mut doc = rig.fs.peek_all("/f").unwrap();
    doc[10] = 6;
    rig.fs.rename("/f", "/f.bak").unwrap();
    rig.pump();
    rig.fs.create("/f.tmp").unwrap();
    rig.pump();
    rig.fs.write("/f.tmp", 0, &doc).unwrap();
    rig.pump();
    rig.fs.close_path("/f.tmp").unwrap();
    rig.pump();
    rig.fs.rename("/f.tmp", "/f").unwrap();
    rig.pump();
    rig.fs.unlink("/f.bak").unwrap();
    rig.pump();
    // ...followed immediately by more in-place writes before any upload.
    rig.fs.write("/f", 100, b"post-save edit").unwrap();
    rig.fs.write("/f", 19_000, b"tail edit").unwrap();
    rig.sync();
    rig.clock.advance(10_000);
    rig.sys.tick(&rig.fs);
    rig.sys.finish(&rig.fs);
    rig.assert_converged();
}

#[test]
fn truncate_to_zero_and_regrow() {
    let mut rig = Rig::new();
    rig.fs.create("/log").unwrap();
    rig.fs.write("/log", 0, &vec![1u8; 10_000]).unwrap();
    rig.sync();
    rig.fs.truncate("/log", 0).unwrap();
    rig.pump();
    rig.fs.write("/log", 0, b"fresh start").unwrap();
    rig.sync();
    rig.sys.finish(&rig.fs);
    assert_eq!(rig.sys.server().file("/log"), Some(&b"fresh start"[..]));
}

#[test]
fn interleaved_files_preserve_order_under_load() {
    let mut rig = Rig::new();
    for round in 0..5u8 {
        for f in 0..4u8 {
            let path = format!("/f{f}");
            if round == 0 {
                rig.fs.create(&path).unwrap();
            }
            rig.fs
                .write(&path, (round as u64) * 100, &[round * 16 + f; 100])
                .unwrap();
        }
        rig.pump();
        rig.clock.advance(1_000);
        rig.sys.tick(&rig.fs);
    }
    rig.clock.advance(10_000);
    rig.sys.tick(&rig.fs);
    rig.sys.finish(&rig.fs);
    rig.assert_converged();
}

#[test]
fn hard_link_then_divergence() {
    let mut rig = Rig::new();
    rig.fs.create("/orig").unwrap();
    rig.fs.write("/orig", 0, b"shared inode").unwrap();
    rig.pump();
    rig.fs.link("/orig", "/alias").unwrap();
    rig.sync();
    assert_eq!(rig.sys.server().file("/alias"), Some(&b"shared inode"[..]));
    // A write through one name updates both locally; the engine ships the
    // write against the written name. Cloud-side the alias is a copy, so
    // after unlinking the original, the alias content remains valid.
    rig.fs.unlink("/orig").unwrap();
    rig.sync();
    rig.sys.finish(&rig.fs);
    assert!(rig.sys.server().file("/orig").is_none());
    assert_eq!(rig.sys.server().file("/alias"), Some(&b"shared inode"[..]));
}

#[test]
fn strict_fifo_mode_converges_but_uploads_more() {
    let run = |strict: bool| -> (u64, Vec<u8>, Option<Vec<u8>>) {
        use deltacfs::core::CausalMode;
        let clock = SimClock::new();
        let cfg = DeltaCfsConfig::new().with_causal_mode(if strict {
            CausalMode::StrictFifo
        } else {
            CausalMode::Backindex
        });
        let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::pc());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        let pump = |sys: &mut DeltaCfsSystem, fs: &mut Vfs| {
            for e in fs.drain_events() {
                sys.on_event(&e, fs);
            }
        };
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![3u8; 50_000]).unwrap();
        pump(&mut sys, &mut fs);
        clock.advance(4_000);
        sys.tick(&fs);
        // One transactional save.
        let mut doc = fs.peek_all("/f").unwrap();
        doc.push(9);
        fs.rename("/f", "/f.bak").unwrap();
        pump(&mut sys, &mut fs);
        fs.create("/f.tmp").unwrap();
        pump(&mut sys, &mut fs);
        fs.write("/f.tmp", 0, &doc).unwrap();
        pump(&mut sys, &mut fs);
        fs.close_path("/f.tmp").unwrap();
        pump(&mut sys, &mut fs);
        fs.rename("/f.tmp", "/f").unwrap();
        pump(&mut sys, &mut fs);
        fs.unlink("/f.bak").unwrap();
        pump(&mut sys, &mut fs);
        clock.advance(10_000);
        sys.tick(&fs);
        sys.finish(&fs);
        (
            sys.report().traffic.bytes_up,
            fs.peek_all("/f").unwrap(),
            sys.server().file("/f").map(<[u8]>::to_vec),
        )
    };
    let (up_fast, local_fast, cloud_fast) = run(false);
    let (up_strict, local_strict, cloud_strict) = run(true);
    assert_eq!(cloud_fast.as_deref(), Some(&local_fast[..]));
    assert_eq!(cloud_strict.as_deref(), Some(&local_strict[..]));
    // Strict FIFO forfeits the delta optimisation: the save re-uploads
    // the file.
    assert!(
        up_strict > up_fast + 40_000,
        "strict {up_strict} vs backindex {up_fast}"
    );
}

#[test]
fn capacity_pressure_does_not_derail_sync() {
    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::with_capacity(100_000);
    fs.enable_event_log();
    fs.create("/f").unwrap();
    fs.write("/f", 0, &vec![1u8; 90_000]).unwrap();
    // This write exceeds capacity and fails; no event is emitted for it.
    assert!(fs.write("/f", 90_000, &vec![1u8; 20_000]).is_err());
    for e in fs.drain_events() {
        sys.on_event(&e, &fs);
    }
    clock.advance(4_000);
    sys.tick(&fs);
    assert_eq!(sys.server().file("/f").map(<[u8]>::len), Some(90_000));
}

#[test]
fn snapshot_mode_converges_and_seals_whole_queue() {
    use deltacfs::core::CausalMode;
    let clock = SimClock::new();
    let cfg = DeltaCfsConfig::new().with_causal_mode(CausalMode::Snapshot {
        interval_ms: 10_000,
    });
    let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    let pump = |sys: &mut DeltaCfsSystem, fs: &mut Vfs| {
        for e in fs.drain_events() {
            sys.on_event(&e, fs);
        }
    };
    fs.create("/a").unwrap();
    fs.write("/a", 0, b"first").unwrap();
    pump(&mut sys, &mut fs);
    // Well past the 3 s node delay but before the 10 s snapshot: nothing
    // uploads in snapshot mode.
    clock.advance(8_000);
    sys.tick(&fs);
    assert!(sys.server().file("/a").is_none());
    fs.create("/b").unwrap();
    fs.write("/b", 0, b"second").unwrap();
    pump(&mut sys, &mut fs);
    clock.advance(3_000); // crosses the snapshot boundary
    sys.tick(&fs);
    assert_eq!(sys.server().file("/a"), Some(&b"first"[..]));
    assert_eq!(sys.server().file("/b"), Some(&b"second"[..]));
    // Everything arrived; later edits wait for the next snapshot.
    fs.write("/a", 0, b"FIRST").unwrap();
    pump(&mut sys, &mut fs);
    clock.advance(5_000);
    sys.tick(&fs);
    assert_eq!(sys.server().file("/a"), Some(&b"first"[..]));
    clock.advance(6_000);
    sys.tick(&fs);
    sys.finish(&fs);
    assert_eq!(sys.server().file("/a"), Some(&b"FIRST"[..]));
}

#[test]
fn snapshot_mode_transactional_save_still_converges() {
    use deltacfs::core::CausalMode;
    let clock = SimClock::new();
    // A pathological 1 ms snapshot interval: every tick seals the queue,
    // so the save's temp-file nodes upload *before* the trigger fires —
    // the paper's first objection to snapshots. Convergence must survive.
    let cfg = DeltaCfsConfig::new().with_causal_mode(CausalMode::Snapshot { interval_ms: 1 });
    let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    let step = |sys: &mut DeltaCfsSystem, fs: &mut Vfs, clock: &SimClock| {
        for e in fs.drain_events() {
            sys.on_event(&e, fs);
        }
        clock.advance(100);
        sys.tick(fs);
    };
    fs.create("/f").unwrap();
    fs.write("/f", 0, &vec![2u8; 30_000]).unwrap();
    step(&mut sys, &mut fs, &clock);

    let mut doc = fs.peek_all("/f").unwrap();
    doc.push(3);
    fs.rename("/f", "/f.bak").unwrap();
    step(&mut sys, &mut fs, &clock);
    fs.create("/f.tmp").unwrap();
    step(&mut sys, &mut fs, &clock);
    fs.write("/f.tmp", 0, &doc).unwrap();
    step(&mut sys, &mut fs, &clock);
    fs.close_path("/f.tmp").unwrap();
    step(&mut sys, &mut fs, &clock);
    fs.rename("/f.tmp", "/f").unwrap();
    step(&mut sys, &mut fs, &clock);
    fs.unlink("/f.bak").unwrap();
    step(&mut sys, &mut fs, &clock);
    clock.advance(5_000);
    sys.tick(&fs);
    sys.finish(&fs);
    // Converged, including cleanup of the mid-save temp upload.
    for path in fs.walk_files("/").unwrap() {
        let local = fs.peek_all(path.as_str()).unwrap();
        assert_eq!(sys.server().file(path.as_str()), Some(&local[..]), "{path}");
    }
    for cloud_path in sys.server().paths() {
        assert!(fs.exists(&cloud_path), "stray {cloud_path} on cloud");
    }
}

/// A delta decoded off the wire is untrusted input. A copy 16 TiB long
/// against a 4-byte base (it sized an allocation before any range check
/// and aborted the process), two copies whose merge overflows `u64` (a
/// panic in `Delta::from_ops`, a wrong merge in release), a copy whose
/// end overflows (a capacity panic) and in-range copies that sum to 1 TiB
/// all leave the file as it was.
#[test]
fn crafted_delta_messages_leave_the_file_unchanged() {
    use deltacfs::core::{wire, ClientId, CloudServer, Payload, UpdateMsg, UpdatePayload, Version};
    use deltacfs::delta::{Delta, DeltaOp};

    // Encoded in place of `u64::MAX`, which no `Delta` can be built with
    // next to `Copy { 0, 1 }`; patched into the bytes after encoding.
    const MARK: u64 = 0x1111_1111_1111_1111;
    let v = |counter| Version {
        client: ClientId(1),
        counter,
    };
    let msg = |base, payload| UpdateMsg {
        path: "/f".into(),
        base,
        version: Some(v(2)),
        payload,
        group: None,
    };
    let mut server = CloudServer::new();
    let mut create = msg(None, UpdatePayload::Full(Payload::from_static(b"abcd")));
    create.version = Some(v(1));
    server.apply_msg(&create);

    let copy = |offset, len| DeltaOp::Copy { offset, len };
    for ops in [
        vec![copy(0, 1 << 44)],
        vec![copy(MARK, 1), copy(0, 1)],
        vec![copy(2, u64::MAX)],
    ] {
        let delta = Delta::from_ops(ops.clone());
        let payload = UpdatePayload::Delta {
            base_path: "/f".into(),
            delta,
        };
        let mut bytes = wire::encode(&msg(Some(v(1)), payload));
        let at = bytes.windows(8).position(|w| w == MARK.to_le_bytes());
        if let Some(at) = at {
            bytes[at..at + 8].fill(0xFF);
        }
        let decoded = wire::decode(&bytes).expect("well-formed frame");
        server.apply_msg(&decoded);
        assert_eq!(server.file("/f"), Some(&b"abcd"[..]), "{ops:?}");
        assert_eq!(server.version("/f"), Some(v(1)), "{ops:?}");
    }

    // Copies each in range that sum to 1 TiB: 65 536 copies of a 16 MiB
    // base (the total sized an allocation and aborted the process).
    let base = vec![5u8; 16 << 20];
    let mut big = msg(None, UpdatePayload::Full(Payload::from(base.clone())));
    big.path = "/big".into();
    big.version = Some(v(3));
    server.apply_msg(&big);
    let delta = Delta::from_ops(vec![copy(0, base.len() as u64); 1 << 16]);
    let mut bomb = msg(
        Some(v(3)),
        UpdatePayload::Delta {
            base_path: "/big".into(),
            delta,
        },
    );
    bomb.path = "/big".into();
    bomb.version = Some(v(4));
    let decoded = wire::decode(&wire::encode(&bomb)).expect("well-formed frame");
    server.apply_msg(&decoded);
    assert_eq!(server.file("/big"), Some(&base[..]));
    assert_eq!(server.version("/big"), Some(v(3)));
}
