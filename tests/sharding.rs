//! Sharded-hub regression tests (DESIGN.md §13).
//!
//! Sharding is a dispatch optimization: routing state across striped
//! locks must never change what the server stores, what clients see, or
//! which duplicates are recognized. These tests pin the hazards the
//! refactor introduced — cross-shard groups, replicated group records,
//! per-shard persistence.

use deltacfs::core::{
    ApplyOutcome, ClientId, DeltaCfsConfig, GroupId, Payload, ShardRouter, ShardedServer, SyncHub,
    UpdateMsg, UpdatePayload, Version,
};
use deltacfs::net::{FaultSpec, LinkSpec, SimClock};

const SETTLE_MS: u64 = 600_000;

/// Picks `n` top-level directory names that all land on *different*
/// shards of an `shards`-way router, so tests exercise genuinely
/// cross-shard traffic regardless of how FNV happens to distribute.
fn distinct_shard_dirs(shards: usize, n: usize) -> Vec<String> {
    let router = ShardRouter::new(shards);
    let mut dirs: Vec<String> = Vec::new();
    let mut taken: Vec<usize> = Vec::new();
    for i in 0.. {
        let name = format!("d{i}");
        let s = router.shard_of_namespace(&name);
        if !taken.contains(&s) {
            taken.push(s);
            dirs.push(name);
            if dirs.len() == n {
                break;
            }
        }
        assert!(i < 10_000, "router failed to spread {n} names over {shards} shards");
    }
    dirs
}

fn pump_round(hub: &mut SyncHub, clock: &SimClock) {
    hub.pump();
    clock.advance(4_000);
    hub.pump();
}

/// Everything a shard count must not change about a hub run.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    server_files: Vec<(String, Option<Vec<u8>>)>,
    apply_order: Vec<String>,
    client_files: Vec<Vec<(String, Vec<u8>)>>,
    traffic: Vec<(u64, u64)>,
    conflicts: usize,
}

fn fingerprint(hub: &SyncHub) -> Fingerprint {
    let paths = hub.server().paths();
    Fingerprint {
        server_files: paths
            .iter()
            .map(|p| (p.clone(), hub.server().file(p)))
            .collect(),
        apply_order: hub.server().apply_order(),
        client_files: (0..hub.client_count())
            .map(|idx| {
                let mut files: Vec<(String, Vec<u8>)> = hub
                    .fs(idx)
                    .walk_files("/")
                    .unwrap_or_default()
                    .into_iter()
                    .map(|p| {
                        let content = hub.fs(idx).peek_all(p.as_str()).unwrap();
                        (p.to_string(), content)
                    })
                    .collect();
                files.sort();
                files
            })
            .collect(),
        traffic: (0..hub.client_count())
            .map(|idx| (hub.traffic(idx).bytes_up, hub.traffic(idx).bytes_down))
            .collect(),
        conflicts: hub.conflicts().len(),
    }
}

/// A fixed root-client workload that deliberately spans shards: writes
/// in several top-level directories plus a rename whose source and
/// destination live on different shards.
#[test]
fn root_hub_is_shard_count_invariant() {
    let dirs = distinct_shard_dirs(8, 3);
    let run = |shards: usize| {
        let clock = SimClock::new();
        let mut hub = SyncHub::with_shards(clock.clone(), shards);
        let a = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        let b = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
        for d in &dirs {
            hub.fs_mut(a).mkdir_all(&format!("/{d}")).unwrap();
        }
        let f0 = format!("/{}/notes.txt", dirs[0]);
        let f1 = format!("/{}/log.bin", dirs[1]);
        hub.fs_mut(a).create(&f0).unwrap();
        hub.fs_mut(a).write(&f0, 0, b"first component zero").unwrap();
        hub.fs_mut(a).create(&f1).unwrap();
        hub.fs_mut(a).write(&f1, 0, &vec![7u8; 4_000]).unwrap();
        pump_round(&mut hub, &clock);

        // Cross-shard rename: source in dirs[0], destination in dirs[2].
        let moved = format!("/{}/notes-moved.txt", dirs[2]);
        hub.fs_mut(a).rename(&f0, &moved).unwrap();
        pump_round(&mut hub, &clock);

        // The peer edits a forwarded file in place.
        hub.fs_mut(b).write(&f1, 100, b"peer patch").unwrap();
        pump_round(&mut hub, &clock);
        hub.flush();
        hub
    };

    let single = run(1);
    let sharded = run(8);
    assert_eq!(fingerprint(&single), fingerprint(&sharded));
    // The multi-shard run really took the cross-shard path (the rename
    // spans two shards), while the single-shard run never can.
    assert_eq!(single.server().cross_shard_groups(), 0);
    assert!(sharded.server().cross_shard_groups() > 0);
    let moved = format!("/{}/notes-moved.txt", dirs[2]);
    assert_eq!(
        sharded.server().file(&moved).as_deref(),
        Some(&b"first component zero"[..])
    );
}

/// Regression: the PR 2 dedup hole, now across shards. A pure rename
/// carries no file version, so only the `<CliID, GroupSeq>` record can
/// recognize its late duplicate. When the rename spans shards, that
/// record must be found no matter which shard the resend consults —
/// a duplicated copy deferred past the path's re-creation must not
/// re-execute the rename and clobber the fresh file.
#[test]
fn cross_shard_rename_replay_after_recreate_is_deduped() {
    let dirs = distinct_shard_dirs(8, 2);
    let seed = 5u64;
    let clock = SimClock::new();
    let mut hub = SyncHub::with_shards(clock.clone(), 8);
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let old = format!("/{}/old", dirs[0]);
    let new = format!("/{}/new", dirs[1]);
    for d in &dirs {
        hub.fs_mut(0).mkdir_all(&format!("/{d}")).unwrap();
    }
    hub.fs_mut(0).create(&old).unwrap();
    hub.fs_mut(0).write(&old, 0, b"payload").unwrap();
    pump_round(&mut hub, &clock);
    assert_eq!(hub.server().file(&old).as_deref(), Some(&b"payload"[..]));

    // Every delivery duplicated, every duplicate redelivered late.
    hub.enable_faults(
        FaultSpec::clean(seed)
            .with_rates(0.0, 0.0, 1.0)
            .with_reorder(1.0),
    );
    hub.fs_mut(0).rename(&old, &new).unwrap();
    hub.fs_mut(0).create(&old).unwrap();
    hub.fs_mut(0).write(&old, 0, b"fresh").unwrap();
    pump_round(&mut hub, &clock);
    let drained = hub.settle(SETTLE_MS);
    assert!(drained, "seed {seed}: courier never drained");
    assert_eq!(hub.deferred_len(), 0, "seed {seed}: deferred queue leaked");
    assert!(
        hub.server().cross_shard_groups() > 0,
        "seed {seed}: the rename never took the cross-shard path"
    );
    assert!(
        hub.server().duplicates_ignored() > 0,
        "seed {seed}: dedup never engaged"
    );
    assert_eq!(
        hub.server().file(&new).as_deref(),
        Some(&b"payload"[..]),
        "seed {seed}: late cross-shard rename replay clobbered {new}"
    );
    assert_eq!(
        hub.server().file(&old).as_deref(),
        Some(&b"fresh"[..]),
        "seed {seed}: late cross-shard rename replay removed the recreated {old}"
    );
}

/// A whole-group resend of a *committed* cross-shard group must replay
/// the recorded outcomes verbatim from whichever shard it lands on,
/// applying nothing twice — the group record is replicated to every
/// involved shard in one insert apiece.
#[test]
fn whole_group_resend_on_committed_shards_replays_verbatim() {
    let server = ShardedServer::new(4);
    let router = server.router();
    // Two paths on provably different shards.
    let dirs = distinct_shard_dirs(4, 2);
    let pa = format!("/{}/a", dirs[0]);
    let pb = format!("/{}/b", dirs[1]);
    assert_ne!(router.shard_of_path(&pa), router.shard_of_path(&pb));

    let cli = ClientId(9);
    let gid = GroupId { client: cli, seq: 1 };
    let group: Vec<UpdateMsg> = [(&pa, 1u64), (&pb, 2u64)]
        .into_iter()
        .map(|(path, counter)| UpdateMsg {
            path: path.clone(),
            base: None,
            version: Some(Version { client: cli, counter }),
            payload: UpdatePayload::Full(Payload::copy_from_slice(path.as_bytes())),
            txn: Some(1),
            group: Some(gid),
        })
        .collect();

    let (first, dup) = server.apply_txn_idempotent(&group);
    assert!(!dup);
    assert_eq!(first, vec![ApplyOutcome::Applied, ApplyOutcome::Applied]);
    assert_eq!(server.cross_shard_groups(), 1);
    let order_after_commit = server.apply_order();

    // The record is on *every* involved shard, so the resend is caught
    // wherever it routes first.
    for &s in &[router.shard_of_path(&pa), router.shard_of_path(&pb)] {
        assert!(server.with_shard(s, |cs| cs.has_seen_group(gid)));
    }

    let (replayed, dup) = server.apply_txn_idempotent(&group);
    assert!(dup, "resend of a committed group must be recognized");
    assert_eq!(replayed, first);
    assert_eq!(server.duplicates_ignored(), 1);
    assert_eq!(server.cross_shard_groups(), 1, "no second cross-shard apply");
    assert_eq!(server.apply_order(), order_after_commit, "no re-application");
    assert_eq!(server.file(&pa).as_deref(), Some(pa.as_bytes()));
    assert_eq!(server.file(&pb).as_deref(), Some(pb.as_bytes()));
}
