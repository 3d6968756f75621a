//! Layer probes: work that only happens inside a call (pack, diff,
//! checksum update, framing) timed directly through each layer's public
//! functions, on inputs harvested from the same replay.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use bytes::Bytes;
use deltacfs_core::pipeline::{frame_group, ChunkFrame, ChunkStager};
use deltacfs_core::wire::{self, FrameSeg};
use deltacfs_core::{
    persist, ChecksumStore, CloudServer, FileOpItem, NodeKind, Payload, ShardedServer, SyncQueue,
    UpdateMsg,
};
use deltacfs_delta::{
    compress, local, md5, rsync, take_hierarchy_stats, Cost, DeltaParams, RollingChecksum,
};
use deltacfs_kvstore::{BatchOp, KeyValue, KvStore, MemStore};
use deltacfs_net::{SimClock, SimTime};
use deltacfs_vfs::Vfs;
use deltacfs_workloads::{GeditTrace, TimedOp, Trace, TraceConfig, TraceOp};

use crate::config::{bench_config, ClientSetup, Role};
use crate::driver::{apply_op, new_hub, replay_hub};
use crate::meter::percentile;
use crate::spans::Recorder;
use crate::staged::{same_server_state, upload_codec};
use crate::verify::{scan_outcomes, verify_hub, Tally};
use crate::workloads::{HubSpec, Size, Solo, Workload};

/// Probe results by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// What the probes run on.
pub struct ProbeInputs<'a> {
    /// The client configuration the replay used.
    pub setup: &'a ClientSetup,
    /// One iteration's operations (one client's view).
    pub ops: &'a [TimedOp],
    /// `(old, new)` content of the last transactional save, if any.
    pub pair: Option<(&'a [u8], &'a [u8])>,
    /// Upload groups harvested from the staged replay.
    pub groups: &'a [Vec<UpdateMsg>],
    /// The facade's cloud after the replay.
    pub server: &'a CloudServer,
    /// A directory the benchmark may create and delete files under.
    pub tmp_dir: &'a Path,
    /// Shards of the `shard` probe's server.
    pub shards: usize,
}

/// Byte caps that keep every probe's time bounded on the full sizes.
const SAMPLE_CAP_BYTES: usize = 32 << 20;
const COMPRESS_SAMPLE_BYTES: usize = 4 << 20;
const KV_KEY_CAP: usize = 20_000;

fn per(ns: u128, units: u64) -> f64 {
    if units == 0 {
        0.0
    } else {
        ns as f64 / units as f64
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, u128) {
    let t = Instant::now();
    let out = std::hint::black_box(f());
    (out, t.elapsed().as_nanos())
}

/// Best of three: the first call of a probe also pays for faulting in
/// its buffers, which on these sizes is half again the steady cost.
fn timed_best<R>(mut f: impl FnMut() -> R) -> (R, u128) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 0..2 {
        let (again, ns) = timed(&mut f);
        if ns < best {
            (out, best) = (again, ns);
        }
    }
    (out, best)
}

/// The last `(old, new)` pair a transactional save produces: replays
/// `ops` on a scratch file system and, at every rename, pairs the
/// content being renamed in with the content it replaces (or, Word
/// style, the content that was just renamed away from the target).
pub fn harvest_pair(ops: &[TimedOp]) -> Option<(Vec<u8>, Vec<u8>)> {
    let mut fs = Vfs::new();
    let mut renamed_away: BTreeMap<String, String> = BTreeMap::new();
    let mut pair = None;
    for t in ops {
        if let TraceOp::Rename { src, dst } = &t.op {
            let old_path = if fs.exists(dst) {
                Some(dst.clone())
            } else {
                renamed_away.get(dst).filter(|p| fs.exists(p)).cloned()
            };
            if let Some(old_path) = old_path {
                if let (Ok(old), Ok(new)) = (fs.peek_all(&old_path), fs.peek_all(src)) {
                    pair = Some((old, new));
                }
            }
            renamed_away.insert(src.clone(), dst.clone());
        }
        apply(&t.op, &mut fs);
    }
    pair
}

/// Applies `op` on a probe's scratch file system. The replay already
/// counted refused operations; here a refusal is moot.
fn apply(op: &TraceOp, fs: &mut Vfs) {
    let _ = apply_op(op, fs);
}

/// `sync_queue`: the writes of the workload's most-written path appended
/// to one open write node, then packed.
fn probe_sync_queue(ops: &[TimedOp], out: &mut Values) {
    let mut per_path: BTreeMap<&str, u64> = BTreeMap::new();
    for t in ops {
        if let TraceOp::Write { path, data, .. } = &t.op {
            *per_path.entry(path).or_default() += data.len() as u64;
        }
    }
    let Some((&path, _)) = per_path.iter().max_by_key(|(_, bytes)| **bytes) else {
        return;
    };
    let mut items = Vec::new();
    let mut bytes = 0usize;
    for t in ops {
        if let TraceOp::Write {
            path: p,
            offset,
            data,
        } = &t.op
        {
            if p == path && bytes + data.len() <= SAMPLE_CAP_BYTES {
                bytes += data.len();
                items.push(FileOpItem::Write {
                    offset: *offset,
                    data: Payload::copy_from_slice(data),
                });
            }
        }
    }
    let n = items.len() as u64;
    // Packing consumes the node, so each attempt builds its own queue;
    // the better of two drops the first attempt's page-fault cost.
    let (mut append_ns, mut pack_ns) = (u128::MAX, u128::MAX);
    for _ in 0..2 {
        let mut queue = SyncQueue::new(3_000);
        let mut items = items.iter().cloned();
        let first = items.next().expect("the path has at least one write");
        let (_, ns) = timed(|| {
            queue.push(
                NodeKind::Write {
                    path: path.to_string(),
                    ops: vec![first],
                    packed: false,
                },
                None,
                None,
                SimTime(0),
            );
            for item in items {
                queue.append_write(path, item, SimTime(0));
            }
        });
        append_ns = append_ns.min(ns);
        pack_ns = pack_ns.min(timed(|| queue.pack(path)).1);
    }
    out.insert("sync_queue.append_ns_per_op", per(append_ns, n));
    out.insert("sync_queue.pack_ns_per_byte", per(pack_ns, bytes as u64));
}

/// `delta`: every matcher flavour and primitive on the harvested pair.
fn probe_delta(
    setup: &ClientSetup,
    pair: Option<(&[u8], &[u8])>,
    out: &mut Values,
    tally: &mut Tally,
) {
    let Some((old, new)) = pair else { return };
    if new.is_empty() {
        return;
    }
    let cfg = &setup.cfg;
    let flat = DeltaParams::with_block_size(cfg.block_size)
        .with_min_parallel_bytes(cfg.min_parallel_bytes);
    // As `DeltaCfsClient::delta_params` builds them.
    let as_client = flat.with_hierarchy(cfg.hierarchy_params());
    let n = new.len() as u64;
    let mut cost = Cost::new();

    let _ = take_hierarchy_stats();
    let (delta, ns) =
        timed_best(|| local::diff_parallel(old, new, &as_client, cfg.parallelism, &mut cost));
    let hstats = take_hierarchy_stats();
    out.insert("delta.local_diff_ns_per_byte", per(ns, n));
    out.insert(
        "delta.hier_bytes_skipped_share",
        // The stats accumulate over the repeated calls.
        hstats.bytes_skipped as f64 / hstats.diffs.max(1) as f64 / n as f64,
    );
    out.insert(
        "delta.literal_share",
        delta.literal_bytes() as f64 / n as f64,
    );

    let (seq, ns) = timed_best(|| local::diff(old, new, &flat, &mut cost));
    out.insert("delta.local_diff_seq_ns_per_byte", per(ns, n));
    let (par_flat, ns) =
        timed_best(|| local::diff_parallel(old, new, &flat, cfg.parallelism, &mut cost));
    out.insert("delta.local_flat_ns_per_byte", per(ns, n));
    tally.check(delta == seq && delta == par_flat, || {
        String::from("local diff flavours disagree on the harvested pair")
    });

    let (sig, ns) = timed_best(|| rsync::signature(old, &flat, &mut cost));
    out.insert(
        "delta.rsync_signature_ns_per_byte",
        per(ns, old.len() as u64),
    );
    let (_, ns) = timed_best(|| rsync::diff_parallel(&sig, new, &flat, cfg.parallelism, &mut cost));
    out.insert("delta.rsync_diff_ns_per_byte", per(ns, n));

    let (applied, ns) = timed_best(|| delta.apply(old));
    out.insert("delta.apply_ns_per_byte", per(ns, n));
    tally.check(applied.as_deref() == Ok(new), || {
        String::from("applying the harvested pair's delta does not rebuild the new content")
    });

    let (_, ns) = timed_best(|| md5(new));
    out.insert("delta.md5_ns_per_byte", per(ns, n));

    let bs = cfg.block_size.min(new.len());
    let (_, ns) = timed_best(|| {
        let mut rc = RollingChecksum::new(&new[..bs]);
        let mut acc = 0u32;
        for i in 0..new.len() - bs {
            rc.roll(new[i], new[i + bs]);
            acc ^= rc.digest();
        }
        acc
    });
    out.insert(
        "delta.rolling_ns_per_byte",
        per(ns, (new.len() - bs) as u64),
    );
}

/// Frames of the harvested groups under the client's chunk budget.
fn frames_of(groups: &[Vec<UpdateMsg>], chunk_budget: usize) -> Vec<ChunkFrame> {
    let mut frames = Vec::new();
    for group in groups {
        frame_group(group, chunk_budget, |f| frames.push(f));
    }
    frames
}

/// `pipeline`, `codec` and the compressor on the harvested groups.
fn probe_framing(
    setup: &ClientSetup,
    groups: &[Vec<UpdateMsg>],
    out: &mut Values,
    tally: &mut Tally,
) {
    if groups.is_empty() {
        return;
    }
    let budget = setup.cfg.chunk_budget;
    let wire_bytes: u64 = groups.iter().flatten().map(UpdateMsg::wire_size).sum();
    let (frames, ns) = timed_best(|| frames_of(groups, budget));
    out.insert("pipeline.frame_group_ns_per_byte", per(ns, wire_bytes));

    let real_bytes: u64 = frames.iter().map(ChunkFrame::byte_len).sum();
    let mut stager = ChunkStager::new();
    let (released, ns) = timed(|| {
        let mut released = 0usize;
        for frame in &frames {
            if let Ok(Some(msgs)) = stager.accept(frame) {
                released += msgs.len();
            }
        }
        released
    });
    out.insert("pipeline.stager_accept_ns_per_byte", per(ns, real_bytes));
    let sent: usize = groups.iter().map(Vec::len).sum();
    tally.check(released == sent, || {
        format!("stager released {released} of {sent} harvested messages")
    });

    let mut codec = upload_codec(setup);
    let mut sample = Vec::with_capacity(COMPRESS_SAMPLE_BYTES);
    for frame in &frames {
        for piece in &frame.pieces {
            let room = COMPRESS_SAMPLE_BYTES - sample.len();
            let bytes = piece.as_slice();
            sample.extend_from_slice(&bytes[..bytes.len().min(room)]);
        }
    }
    let (_, ns) = timed(|| {
        frames
            .into_iter()
            .map(|f| codec.encode_frame(f, 0).accounted)
            .sum::<u64>()
    });
    out.insert("codec.encode_frame_ns_per_byte", per(ns, real_bytes));

    let mut cost = Cost::new();
    let n = sample.len() as u64;
    let (packed, ns) = timed_best(|| compress::compress(&sample, &mut cost));
    out.insert("delta.compress_ns_per_byte", per(ns, n));
    let (unpacked, ns) = timed_best(|| compress::decompress(&packed));
    out.insert("delta.decompress_ns_per_byte", per(ns, n));
    tally.check(unpacked.as_deref() == Some(&sample[..]), || {
        String::from("compress/decompress does not round-trip the frame sample")
    });
    let (_, ns) = timed_best(|| compress::probe_ratio(&sample));
    out.insert("delta.probe_ns_per_byte", per(ns, n));
}

/// `wire`: scatter-gather encode plus the receiver's landing copy, and
/// the zero-copy decode, over every harvested message.
fn probe_wire(groups: &[Vec<UpdateMsg>], out: &mut Values, tally: &mut Tally) {
    let msgs: Vec<&UpdateMsg> = groups.iter().flatten().collect();
    if msgs.is_empty() {
        return;
    }
    let mut scratch = Vec::new();
    let mut payload_bytes = 0u64;
    let (bufs, ns) = timed(|| {
        msgs.iter()
            .map(|msg| {
                let frame = wire::encode_vectored(msg, &mut scratch);
                for seg in &frame.segs {
                    if let FrameSeg::Shared(p) = seg {
                        payload_bytes += p.len() as u64;
                    }
                }
                Bytes::from(frame.assemble(&scratch))
            })
            .collect::<Vec<Bytes>>()
    });
    let total: u64 = bufs.iter().map(|b| b.len() as u64).sum();
    out.insert("wire.encode_ns_per_byte", per(ns, total));
    out.insert(
        "wire.header_byte_share",
        (total - payload_bytes) as f64 / total as f64,
    );
    let (decoded, ns) = timed(|| {
        bufs.iter()
            .map(wire::decode_shared)
            .collect::<Result<Vec<UpdateMsg>, _>>()
    });
    out.insert("wire.decode_ns_per_byte", per(ns, total));
    tally.check(
        decoded.is_ok_and(|d| d.iter().zip(&msgs).all(|(a, b)| a == *b)),
        || String::from("wire decode does not round-trip the harvested messages"),
    );
}

/// `shard`: the harvested groups applied to a sharded server.
fn probe_shard(groups: &[Vec<UpdateMsg>], shards: usize, out: &mut Values) {
    if groups.is_empty() {
        return;
    }
    let server = ShardedServer::new(shards);
    let mut us: Vec<f64> = groups
        .iter()
        .map(|g| timed(|| server.apply_txn_idempotent(g)).1 as f64 / 1e3)
        .collect();
    out.insert(
        "shard.apply_us_p50",
        percentile(&mut us, 50.0).unwrap_or(0.0),
    );
    out.insert(
        "shard.apply_us_p99",
        percentile(&mut us, 99.0).unwrap_or(0.0),
    );
    out.insert(
        "shard.cross_shard_groups",
        server.cross_shard_groups() as f64,
    );
}

/// Replays the write stream through `ChecksumStore::update_range` over
/// `kv`, reading blocks back from a scratch file system as the client
/// does. Returns `(ns inside update_range, bytes written)`.
fn checksum_pass<K: KeyValue>(
    ops: &[TimedOp],
    block_size: usize,
    kv: K,
) -> (u128, u64, ChecksumStore<K>) {
    let mut store = ChecksumStore::new(kv, block_size);
    let mut fs = Vfs::new();
    let mut cost = Cost::new();
    let (mut ns, mut bytes) = (0u128, 0u64);
    for t in ops {
        apply(&t.op, &mut fs);
        if let TraceOp::Write { path, offset, data } = &t.op {
            if bytes as usize + data.len() > SAMPLE_CAP_BYTES {
                break;
            }
            bytes += data.len() as u64;
            let (result, took) = timed(|| {
                store.update_range(
                    path,
                    *offset,
                    data.len() as u64,
                    |idx| {
                        fs.peek_range(path, idx * block_size as u64, block_size)
                            .ok()
                    },
                    &mut cost,
                )
            });
            result.expect("checksum store backend failed");
            ns += took;
        }
    }
    (ns, bytes, store)
}

/// `checksum_store`, `kvstore`, `persist`. No end-to-end workload runs
/// the durable backend yet; these probes are its only instrument.
fn probe_storage(inputs: &ProbeInputs<'_>, out: &mut Values, tally: &mut Tally) {
    let bs = inputs.setup.cfg.block_size;
    let (ns, bytes, _) = checksum_pass(inputs.ops, bs, MemStore::new());
    out.insert("checksum_store.update_range_ns_per_byte", per(ns, bytes));

    let dir = inputs.tmp_dir.join(format!("kv-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kv = KvStore::open(&dir).expect("open the probe's KvStore");
    let (_, _, mut store) = checksum_pass(inputs.ops, bs, kv);
    let kv = store.backend_mut();
    let mut entries = kv.scan_prefix(b"").expect("scan the probe's KvStore");
    entries.truncate(KV_KEY_CAP);
    let (_, ns) = timed(|| {
        for (key, _) in &entries {
            kv.get(key).expect("get from the probe's KvStore");
        }
    });
    out.insert("kvstore.get_ns_per_op", per(ns, entries.len() as u64));
    let wal = dir.join("wal");
    let wal_before = std::fs::metadata(&wal).map_or(0, |m| m.len());
    let user_bytes: u64 = entries
        .iter()
        .map(|(k, v)| (k.len() + v.len()) as u64)
        .sum();
    let batches: Vec<Vec<BatchOp>> = entries
        .chunks(16)
        .map(|c| {
            c.iter()
                .map(|(k, v)| BatchOp::put(k.clone(), v.clone()))
                .collect()
        })
        .collect();
    let (_, ns) = timed(|| {
        for batch in &batches {
            kv.write_batch(batch).expect("write to the probe's KvStore");
        }
    });
    out.insert(
        "kvstore.write_batch_ns_per_op",
        per(ns, entries.len() as u64),
    );
    let wal_after = std::fs::metadata(&wal).map_or(0, |m| m.len());
    if user_bytes > 0 {
        out.insert(
            "kvstore.wal_bytes_per_user_byte",
            wal_after.saturating_sub(wal_before) as f64 / user_bytes as f64,
        );
    }
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);

    let stored = inputs.server.stored_bytes();
    let mut snapshot = MemStore::new();
    let (saved, ns) = timed(|| persist::save(inputs.server, &mut snapshot));
    out.insert("persist.save_ns_per_byte", per(ns, stored));
    let (loaded, ns) = timed(|| persist::load(&mut snapshot));
    out.insert("persist.load_ns_per_byte", per(ns, stored));
    tally.check(
        saved.is_ok() && loaded.is_ok_and(|l| same_server_state(inputs.server, &l).is_ok()),
        || String::from("persist save/load does not round-trip the cloud"),
    );
}

/// Runs every probe. Metrics whose inputs the workload does not produce
/// (no transactional save, no upload groups) are left out and report 0.
pub fn run_probes(inputs: &ProbeInputs<'_>, tally: &mut Tally) -> Values {
    let mut out = Values::new();
    probe_sync_queue(inputs.ops, &mut out);
    probe_delta(inputs.setup, inputs.pair, &mut out, tally);
    probe_framing(inputs.setup, inputs.groups, &mut out, tally);
    probe_wire(inputs.groups, &mut out, tally);
    probe_shard(inputs.groups, inputs.shards, &mut out);
    probe_storage(inputs, &mut out, tally);
    out
}

/// The known hard-link defect, measured: a writer replays the gedit
/// trace (`link f f~; rename tmp f`) through a two-client hub and every
/// replica is compared with the cloud. The forwarded hard link aliases
/// the inode the later delta is applied through, so the peer's backup
/// copy ends up equal to the *new* file. Returns the failed checks:
/// diverged replicas plus updates the cloud rejected.
/// The timed `hub_share` workload leaves the link operations out — a
/// benchmark workload may not contain failing operations — and this
/// count, not a filter, is where the defect stays visible.
pub fn hardlink_divergence(seed: u64, size: Size) -> u64 {
    let scale = match size {
        Size::Full => 0.25,
        Size::Smoke => 0.1,
    };
    let mut ops = Vec::new();
    GeditTrace::new(TraceConfig { scale, seed }).generate(&mut |t| ops.push((0usize, t)));
    let setup = bench_config(Workload::HubShare, Role::Writer);
    let spec = HubSpec {
        shards: 1,
        clients: vec![(String::new(), setup), (String::new(), setup)],
        ops,
        pump_every_ms: 1_000,
        parallel: false,
        solo: Solo::FirstWriter,
    };
    let clock = SimClock::new();
    let mut hub = new_hub(&spec, &clock, false);
    replay_hub(
        &spec,
        &mut hub,
        &clock,
        &Recorder::new(false),
        &mut Vec::new(),
    );
    let mut tally = Tally::default();
    scan_outcomes(hub.server_outcomes(), &mut tally);
    verify_hub(&hub, &mut tally);
    tally.failed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{generate, OpSource, SingleSpec, Spec};

    #[test]
    fn word_saves_yield_an_old_new_pair() {
        let Spec::Single(SingleSpec {
            source: OpSource::Fixed(ops),
            ..
        }) = generate(Workload::WordSave, 5, Size::Smoke)
        else {
            panic!("fixed workload");
        };
        let (old, new) = harvest_pair(&ops).expect("word saves are transactional");
        assert!(!old.is_empty() && old != new);
        // The pair is the last save: new is the final document.
        let mut fs = Vfs::new();
        for t in &ops {
            apply(&t.op, &mut fs);
        }
        assert_eq!(fs.peek_all("/doc.docx").unwrap(), new);
    }

    #[test]
    fn in_place_traces_yield_no_pair() {
        let Spec::Single(SingleSpec {
            source: OpSource::Fixed(ops),
            ..
        }) = generate(Workload::WechatInplace, 5, Size::Smoke)
        else {
            panic!("fixed workload");
        };
        assert!(harvest_pair(&ops).is_none());
    }

    #[test]
    fn sync_queue_probe_reports_both_costs() {
        let Spec::Single(SingleSpec {
            source: OpSource::Fixed(ops),
            ..
        }) = generate(Workload::WordSave, 5, Size::Smoke)
        else {
            panic!("fixed workload");
        };
        let mut out = Values::new();
        probe_sync_queue(&ops, &mut out);
        assert!(out["sync_queue.append_ns_per_op"] > 0.0);
        assert!(out["sync_queue.pack_ns_per_byte"] > 0.0);
    }
}
