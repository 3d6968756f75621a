//! The transactional save path's copy budget (DESIGN.md §18): `close`
//! seals a write node without touching its data, adjacent-write merging
//! happens once — at pop, for packed live nodes only — and yields exactly
//! what the old pack-time merge yielded, a rename-triggered delta frees the
//! payloads it supersedes, and none of that moves a byte on the wire or a
//! tick of the cost model.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use deltacfs::core::{
    ApplyOutcome, ClientId, DeltaCfsClient, DeltaCfsConfig, DeltaCfsSystem, FileOpItem, HubConfig,
    Node, NodeKind, Payload, SyncEngine, SyncHub, SyncQueue,
};
use deltacfs::net::{LinkSpec, SimClock, SimTime};
use deltacfs::obs::MetricValue;
use deltacfs::vfs::Vfs;
use deltacfs::workloads::{replay, GeditTrace, Trace, TraceConfig, TraceOp, WordTrace};
use proptest::prelude::*;

// --- allocation counting -------------------------------------------------

thread_local! {
    /// Allocator calls made by the current thread (tests run in parallel,
    /// so the count must not be process-wide).
    static ALLOC_CALLS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator plus a per-thread call count.
struct CountingAlloc;

fn count_alloc_call() {
    // `try_with`: the allocator still runs while a thread tears down its
    // thread-locals.
    let _ = ALLOC_CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a `Cell<u64>` with a
// const initializer, so touching it neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc_call();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_alloc_call();
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc_call();
        // SAFETY: `ptr` came from `System` with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn alloc_calls() -> u64 {
    ALLOC_CALLS.with(Cell::get)
}

// --- helpers ---------------------------------------------------------------

fn setup() -> (DeltaCfsClient, Vfs, SimClock) {
    let clock = SimClock::new();
    let client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
    let mut fs = Vfs::new();
    fs.enable_event_log();
    (client, fs, clock)
}

fn pump(client: &mut DeltaCfsClient, fs: &mut Vfs) {
    for e in fs.drain_events() {
        client.handle_event(&e, fs);
    }
}

/// Writes `content` to `path` in `chunk`-byte adjacent writes, delivering
/// each write's event before the next.
fn write_in_chunks(
    client: &mut DeltaCfsClient,
    fs: &mut Vfs,
    path: &str,
    content: &[u8],
    chunk: usize,
) {
    for (i, piece) in content.chunks(chunk).enumerate() {
        fs.write(path, (i * chunk) as u64, piece).unwrap();
        pump(client, fs);
    }
}

fn patterned(len: usize, salt: u32) -> Vec<u8> {
    (0..len as u32)
        .map(|i| (i.wrapping_mul(2_654_435_761).wrapping_add(salt) >> 13) as u8)
        .collect()
}

/// The merge rule `SyncQueue::pack` applied eagerly before the save path
/// was made linear, kept as the reference the pop-time merge is checked
/// against: each write that starts exactly where the previous op's data
/// ends is folded into it.
fn eager_merge_reference(ops: &[FileOpItem]) -> Vec<FileOpItem> {
    let mut out: Vec<FileOpItem> = Vec::new();
    for op in ops {
        if let (
            Some(FileOpItem::Write {
                offset: prev_offset,
                data: prev_data,
            }),
            FileOpItem::Write { offset, data },
        ) = (out.last_mut(), op)
        {
            if *prev_offset + prev_data.len() as u64 == *offset {
                let mut merged = prev_data.to_vec();
                merged.extend_from_slice(data);
                *prev_data = Payload::from(merged);
                continue;
            }
        }
        out.push(op.clone());
    }
    out
}

/// Turns generated `(kind, len, jump)` steps into an op sequence rich in
/// the cases the merge rule distinguishes: adjacent, gapped and
/// overlapping writes, zero-length writes, truncates in between.
fn ops_from_steps(steps: &[(u8, usize, u64)]) -> Vec<FileOpItem> {
    let mut end = 0u64;
    let mut ops = Vec::with_capacity(steps.len());
    for (i, &(kind, len, jump)) in steps.iter().enumerate() {
        let data = Payload::from(patterned(len, i as u32));
        let offset = match kind {
            0..=2 => end,
            3 => end + 1 + jump,
            4 => end.saturating_sub(1 + jump),
            5 => {
                ops.push(FileOpItem::Write {
                    offset: end,
                    data: Payload::new(),
                });
                continue;
            }
            _ => {
                ops.push(FileOpItem::Truncate { size: jump * 3 });
                continue;
            }
        };
        end = offset + data.len() as u64;
        ops.push(FileOpItem::Write { offset, data });
    }
    ops
}

/// Queues `ops` as one write node for `/f`.
fn queue_with(ops: &[FileOpItem]) -> SyncQueue {
    let mut q = SyncQueue::new(3_000);
    let (first, rest) = ops.split_first().expect("at least one op");
    q.push(
        NodeKind::Write {
            path: "/f".into(),
            ops: vec![first.clone()],
            packed: false,
        },
        None,
        None,
        SimTime(0),
    );
    for op in rest {
        q.append_write("/f", op.clone(), SimTime(0))
            .expect("open node");
    }
    q
}

fn only_write_ops(groups: Vec<Vec<Node>>) -> Vec<FileOpItem> {
    let mut nodes: Vec<Node> = groups.into_iter().flatten().collect();
    assert_eq!(nodes.len(), 1);
    match nodes.pop().expect("one node").kind {
        NodeKind::Write { ops, .. } => ops,
        other => panic!("unexpected {other:?}"),
    }
}

// --- (a) pop-time merge ≡ the old pack-time merge -------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn packed_node_pops_with_the_eager_merge_rule_applied(
        steps in proptest::collection::vec((0u8..7, 0usize..6, 0u64..4), 1..40),
    ) {
        let ops = ops_from_steps(&steps);
        let mut q = queue_with(&ops);
        q.pack("/f");
        prop_assert_eq!(only_write_ops(q.pop_all()), eager_merge_reference(&ops));
    }

    #[test]
    fn open_node_that_ages_out_pops_unmerged(
        steps in proptest::collection::vec((0u8..7, 0usize..6, 0u64..4), 1..40),
    ) {
        let ops = ops_from_steps(&steps);
        let mut q = queue_with(&ops);
        prop_assert!(q.pop_ready(SimTime(2_999)).is_empty());
        prop_assert_eq!(only_write_ops(q.pop_ready(SimTime(3_000))), ops);
    }
}

// --- (b) close is O(1): no copy, no allocation ----------------------------

#[test]
fn pack_leaves_the_appended_payloads_in_place() {
    let ops: Vec<FileOpItem> = (0..64u64)
        .map(|i| FileOpItem::Write {
            offset: i * 1024,
            data: Payload::from(patterned(1024, i as u32)),
        })
        .collect();
    let mut q = queue_with(&ops);
    q.pack("/f");
    let node = q.iter().next().expect("the write node");
    let NodeKind::Write {
        ops: queued,
        packed,
        ..
    } = &node.kind
    else {
        panic!("unexpected {:?}", node.kind);
    };
    assert!(*packed);
    assert_eq!(queued.len(), ops.len(), "pack merged nothing");
    for (queued, appended) in queued.iter().zip(&ops) {
        let (FileOpItem::Write { data: a, .. }, FileOpItem::Write { data: b, .. }) =
            (queued, appended)
        else {
            panic!("write ops only");
        };
        assert_eq!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr());
    }
}

#[test]
fn close_of_a_file_written_in_adjacent_writes_allocates_nothing() {
    let (mut client, mut fs, _clock) = setup();
    fs.create("/doc.tmp").unwrap();
    pump(&mut client, &mut fs);
    let content = patterned(256 * 1024, 1);
    write_in_chunks(&mut client, &mut fs, "/doc.tmp", &content, 4096);
    let held = client.queued_payload_bytes();
    assert_eq!(held, content.len() as u64);

    fs.close_path("/doc.tmp").unwrap();
    let events = fs.drain_events();
    assert_eq!(events.len(), 1);
    let before = alloc_calls();
    client.handle_event(&events[0], &fs);
    let during = alloc_calls() - before;
    assert_eq!(during, 0, "close allocated {during} time(s)");
    assert_eq!(client.queued_payload_bytes(), held);
}

// --- (c) a triggered delta frees what it supersedes ------------------------

#[test]
fn rename_triggered_delta_frees_the_superseded_payloads() {
    let (mut client, mut fs, clock) = setup();
    let old = patterned(300_000, 7);
    fs.create("/f").unwrap();
    fs.write("/f", 0, &old).unwrap();
    pump(&mut client, &mut fs);
    clock.advance(4_000);
    assert!(!client.tick(&fs).is_empty());
    assert_eq!(client.queued_payload_bytes(), 0);

    // Word's save: rename f t0; create t1; write t1; close; rename t1 f.
    let mut new = old.clone();
    new[150_000..150_040].copy_from_slice(&[0xEE; 40]);
    fs.rename("/f", "/t0").unwrap();
    fs.create("/t1").unwrap();
    pump(&mut client, &mut fs);
    write_in_chunks(&mut client, &mut fs, "/t1", &new, 64 * 1024);
    fs.close_path("/t1").unwrap();
    pump(&mut client, &mut fs);
    assert_eq!(client.queued_payload_bytes(), new.len() as u64);

    fs.rename("/t1", "/f").unwrap();
    pump(&mut client, &mut fs);
    // Only the delta's literals are left: a block or two around the edit.
    let held = client.queued_payload_bytes();
    assert!(held > 0 && held <= 2 * 4096, "queue holds {held} bytes");
    // The dead nodes are still queued as placeholders.
    assert!(client.queued_nodes() >= 4);
}

#[test]
fn hub_exports_the_queue_payload_gauge() {
    let clock = SimClock::new();
    let mut hub = SyncHub::with_config(clock.clone(), HubConfig::new());
    let a = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let b = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    hub.fs_mut(a).create("/x").unwrap();
    hub.fs_mut(a).write("/x", 0, &[5u8; 10_000]).unwrap();
    hub.ingest(a);
    let gauge = |hub: &SyncHub, idx: usize| {
        let snap = hub.export_metrics();
        match snap.get_labeled("sync_queue_payload_bytes", &format!("{}", idx + 1)) {
            Some(MetricValue::Gauge(v)) => *v,
            other => panic!("gauge missing: {other:?}"),
        }
    };
    assert_eq!(gauge(&hub, a), 10_000);
    assert_eq!(gauge(&hub, b), 0);
    clock.advance(4_000);
    hub.flush();
    assert_eq!(gauge(&hub, a), 0);
    assert_eq!(hub.fs(b).peek_slice("/x").unwrap(), &[5u8; 10_000][..]);
}

// --- (d) nothing observable moved ------------------------------------------

fn fnv(acc: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(acc, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Everything a save leaves behind that a user, the cost model or the
/// cloud could observe, as one line.
fn save_summary(trace: &dyn Trace, cfg: DeltaCfsConfig) -> String {
    let clock = SimClock::new();
    let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::pc());
    let mut fs = Vfs::new();
    replay(trace, &mut fs, &mut sys, &clock, 100);
    let report = sys.report();
    let mut paths = sys.server().paths();
    paths.sort();
    let (mut bytes, mut hash) = (0u64, 0xcbf2_9ce4_8422_2325u64);
    for p in &paths {
        let content = sys.server().file(p).expect("listed path");
        bytes += content.len() as u64;
        hash = fnv(fnv(hash, p.as_bytes()), content);
    }
    let applied = sys
        .outcomes()
        .iter()
        .filter(|o| matches!(o, ApplyOutcome::Applied))
        .count();
    format!(
        "client {:?} | server {:?} | {:?} | cloud {} files {bytes} bytes fnv {hash:016x} | outcomes {applied}/{} applied",
        report.client_cost,
        report.server_cost.expect("deltacfs server cost"),
        report.traffic,
        paths.len(),
        sys.outcomes().len(),
    )
}

/// Pinned from commit 17782c2 (eager pack-time merge, copying `peek`).
/// Re-pinned when the local matcher began growing every confirmed match
/// into its neighbouring literals (DESIGN.md §10). Three fields moved,
/// all on the client's delta: `bytes_compared` (the growth's compares),
/// `bytes_copied` (fewer literal bytes copied out) and `bytes_up` (fewer
/// literal bytes shipped). `bytes_rolled` and everything else held.
/// Re-pinned when the matcher began taking the block sums the Checksum
/// Store holds (DESIGN.md §10): only the client's `bytes_rolled` and
/// `ops` moved (7 549 186 → 4 589 748 and 1 771 → 1 246), since the old
/// version's blocks and the new version's block-aligned windows that
/// match are no longer rolled; the delta, and so everything else, held.
/// Re-pinned when server files became lists of shared extents (DESIGN.md
/// §13): only the server's `bytes_copied` moved (3 019 892 → 906 213),
/// since a delta's copies are now views of the base and only its literal
/// bytes count. In the same change the Checksum Store began summing a
/// write's whole blocks from the written bytes, reading only the partial
/// edge blocks from the file: the client's `bytes_engine_read` moved
/// (7 549 730 → 4 529 838), its `bytes_rolled` did not. Wire and the
/// cloud's bytes held.
const WORD_SAVE_PIN: &str = "client Cost { bytes_rolled: 4589748, bytes_strong_hashed: 0, \
bytes_compared: 2113697, bytes_chunked: 0, bytes_compressed: 0, bytes_copied: 3291717, \
bytes_engine_read: 4529838, ops: 1246 } | server Cost { bytes_rolled: 0, bytes_strong_hashed: 0, \
bytes_compared: 0, bytes_chunked: 0, bytes_compressed: 0, bytes_copied: 906213, \
bytes_engine_read: 0, ops: 4 } | TrafficStats { bytes_up: 907176, bytes_down: 352, msgs_up: 11, \
msgs_down: 11 } | cloud 1 files 875558 bytes fnv 2c8dfbbd5292d14b | outcomes 11/11 applied";

/// Pinned from commit 17782c2; re-pinned with [`WORD_SAVE_PIN`], the
/// same three fields moved, and again with it for the stored sums
/// (`bytes_rolled` 829 952 → 359 936, `ops` 200 → 135), and for the
/// shared extents: the server's `bytes_copied` 576 000 → 54 079, the
/// deltas' literals alone, because `link f f~` now shares the file's
/// views instead of copying its bytes and a delta's copies are views; and
/// the client's `bytes_engine_read` 578 560 → 263 680, from the block
/// sums taken from the written bytes.
const GEDIT_SAVE_PIN: &str = "client Cost { bytes_rolled: 359936, bytes_strong_hashed: 0, \
bytes_compared: 260811, bytes_chunked: 0, bytes_compressed: 0, bytes_copied: 317759, \
bytes_engine_read: 263680, ops: 135 } | server Cost { bytes_rolled: 0, bytes_strong_hashed: 0, \
bytes_compared: 0, bytes_chunked: 0, bytes_compressed: 0, bytes_copied: 54079, \
bytes_engine_read: 0, ops: 6 } | TrafficStats { bytes_up: 55404, bytes_down: 352, msgs_up: 11, \
msgs_down: 11 } | cloud 2 files 107008 bytes fnv fc756f5ecd969018 | outcomes 16/16 applied";

#[test]
fn word_pattern_save_is_observably_unchanged() {
    let trace = WordTrace::new(TraceConfig::scaled(0.05));
    assert_eq!(save_summary(&trace, DeltaCfsConfig::new()), WORD_SAVE_PIN);
}

#[test]
fn gedit_pattern_save_is_observably_unchanged() {
    let trace = GeditTrace::new(TraceConfig::scaled(0.25));
    assert_eq!(save_summary(&trace, DeltaCfsConfig::new()), GEDIT_SAVE_PIN);
}

/// A gedit-style rename-over save of a 3 MiB file with 64 KiB inserted at
/// a block boundary sums each saved byte about once: the temp file's
/// blocks as they are written, and next to nothing for the delta. The old
/// version is indexed from the sums stored for the replaced file, and the
/// walk seeds every block-aligned window from the sums `rename` moved
/// onto `/f` (DESIGN.md §10).
#[test]
fn block_aligned_rename_over_save_sums_each_byte_about_once() {
    let (mut client, mut fs, clock) = setup();
    let mut state = 0x2545_F491_4F6C_DD1Du64;
    let mut noise = |len: usize| -> Vec<u8> {
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    };
    let old = noise(3 << 20);
    fs.create("/f").unwrap();
    write_in_chunks(&mut client, &mut fs, "/f", &old, 64 * 1024);
    clock.advance(4_000);
    assert!(!client.tick(&fs).is_empty());

    let mut new = old.clone();
    new.splice(1 << 20..1 << 20, noise(64 * 1024));
    let before = client.cost().bytes_rolled;
    fs.create("/f.tmp").unwrap();
    pump(&mut client, &mut fs);
    write_in_chunks(&mut client, &mut fs, "/f.tmp", &new, 64 * 1024);
    fs.close_path("/f.tmp").unwrap();
    fs.rename("/f.tmp", "/f").unwrap();
    pump(&mut client, &mut fs);

    let rolled = client.cost().bytes_rolled - before;
    assert!(
        rolled * 5 <= new.len() as u64 * 6,
        "the save rolled {rolled} bytes for a {}-byte file",
        new.len()
    );
    // The save still shipped as a delta: the inserted bytes and no more.
    assert_eq!(client.queued_payload_bytes(), 64 * 1024);
}

// --- forwarded hard links must not alias ----------------------------------

/// gedit's `create-write tmp; link f f~; rename tmp f` through a
/// two-client hub: the peer's backup copy must stay the *previous*
/// version, as on the writer and the cloud — a forwarded delta that was
/// written through the inode `link` shared would make it the new one.
#[test]
fn forwarded_gedit_save_keeps_the_backup_link_distinct_on_the_peer() {
    let clock = SimClock::new();
    let mut hub = SyncHub::with_config(clock.clone(), HubConfig::new());
    let writer = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());
    let peer = hub.add_client(DeltaCfsConfig::new(), LinkSpec::pc());

    let mut ops = Vec::new();
    GeditTrace::new(TraceConfig::scaled(0.25)).generate(&mut |t| ops.push(t));
    let start = clock.now();
    let mut next_pump = start.plus_millis(1_000);
    let mut pump_until = |target: SimTime, hub: &mut SyncHub| {
        while next_pump <= target {
            clock.advance_to(next_pump);
            next_pump = next_pump.plus_millis(1_000);
            hub.pump();
        }
        clock.advance_to(target);
    };
    for timed in &ops {
        pump_until(start.plus_millis(timed.at_ms), &mut hub);
        let fs = hub.fs_mut(writer);
        match &timed.op {
            TraceOp::Create(p) => fs.create(p),
            TraceOp::Write { path, offset, data } => fs.write(path, *offset, data),
            TraceOp::Link { src, dst } => fs.link(src, dst),
            TraceOp::Rename { src, dst } => fs.rename(src, dst),
            TraceOp::Unlink(p) => fs.unlink(p),
            TraceOp::Close(p) => fs.close_path(p),
            other => panic!("gedit trace has no {other:?}"),
        }
        .expect("trace op applies");
        hub.ingest(writer);
    }
    pump_until(clock.now().plus_millis(30_000), &mut hub);
    hub.flush();

    assert!(hub
        .server_outcomes()
        .iter()
        .all(|o| matches!(o, ApplyOutcome::Applied)));
    let current = hub.fs(writer).peek_all("/notes.txt").unwrap();
    let backup = hub.fs(writer).peek_all("/notes.txt~").unwrap();
    assert_ne!(current, backup, "the last save changed the document");
    for (name, expected) in [("/notes.txt", &current), ("/notes.txt~", &backup)] {
        assert_eq!(
            hub.cloud().file(name),
            Some(&expected[..]),
            "{name} on the cloud"
        );
        assert_eq!(
            hub.fs(peer).peek_slice(name).unwrap(),
            &expected[..],
            "{name} on the peer"
        );
    }
    assert_eq!(hub.fs(peer).metadata("/notes.txt").unwrap().nlink, 1);
}
