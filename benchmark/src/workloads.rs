//! The five workloads, each generated from the seed alone. The system
//! under test only ever sees the generated operations.

use deltacfs_workloads::{
    AppendTrace, ContentGen, GeditTrace, HugeFile, RandomWriteTrace, TimedOp, Trace, TraceConfig,
    TraceOp, WeChatTrace, WordTrace,
};

use crate::config::{bench_config, ClientSetup, Role};

/// A benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Word-style transactional saves of a document above the parallel
    /// diff threshold: local delta encoding does the work.
    WordSave,
    /// Journaled SQLite page writes over the mobile link, streamed and
    /// compressed: the NFS-like RPC path does the work.
    WechatInplace,
    /// Transactional saves of one huge file: hierarchy, streaming encode,
    /// and large per-file queue state.
    HugeSave,
    /// Four clients sharing the root namespace: forwards and downloads.
    HubShare,
    /// Many small tenants over a sharded hub: pump, routing, dedup.
    HubFanin,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 5] = [
        Workload::WordSave,
        Workload::WechatInplace,
        Workload::HugeSave,
        Workload::HubShare,
        Workload::HubFanin,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::WordSave => "word_save",
            Workload::WechatInplace => "wechat_inplace",
            Workload::HugeSave => "huge_save",
            Workload::HubShare => "hub_share",
            Workload::HubFanin => "hub_fanin",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Full-size or smoke-size inputs. Smoke keeps every code path but
/// shrinks files so all five workloads finish in seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The sizes `BENCHMARK.json` is measured at.
    Full,
    /// Tiny inputs for `--smoke` and `cargo test`.
    Smoke,
}

/// What a generated workload drives.
#[allow(clippy::large_enum_variant)] // one value per run, moved once
pub enum Spec {
    /// One client through `DeltaCfsSystem`.
    Single(SingleSpec),
    /// Several clients through `SyncHub`.
    Hub(HubSpec),
}

/// A single-client workload.
pub struct SingleSpec {
    /// Client configuration.
    pub setup: ClientSetup,
    /// Where each iteration's operations come from.
    pub source: OpSource,
}

/// Operations of a single-client workload, iteration by iteration.
pub enum OpSource {
    /// The same operations every iteration, each on a fresh system.
    Fixed(Vec<TimedOp>),
    /// One system for the whole run: `base` is synced in set-up, then
    /// every iteration is one more save of the huge file.
    Saves(HugeSaves),
}

/// Generator for `huge_save`: holds the file's current content and
/// derives each save from it.
pub struct HugeSaves {
    /// Operations that create and write the base file (set-up).
    pub base: Vec<TimedOp>,
    content: Vec<u8>,
    gen: ContentGen,
    write_size: usize,
    edit_size: usize,
}

/// Path of the huge file.
pub const HUGE_PATH: &str = "/big.img";
/// Temp name each save is written under before the rename.
pub const HUGE_TMP: &str = "/big.img.tmp";
/// Full-size length of the huge file. `close()` of a file written in
/// adjacent writes is quadratic in its size today (8.5 s at 64 MiB and
/// 0.7 s at 32 MiB in 256 KiB writes, the latter swinging 0.63-1.37 s
/// from save to save), and a run has about ten seconds, so the file is
/// 16 MiB and `bench_config` lowers the hierarchy gate below it.
pub const HUGE_LEN: usize = 16 << 20;
/// Overlay edits per save.
const HUGE_OVERLAYS: usize = 3;

impl HugeSaves {
    fn new(seed: u64, size: Size) -> Self {
        let (len, write_size, edit_size, base_write) = match size {
            Size::Full => (HUGE_LEN, 256 << 10, 64 << 10, 4 << 20),
            Size::Smoke => (1 << 20, 64 << 10, 4 << 10, 256 << 10),
        };
        let content = HugeFile::new(seed, len as u64).materialize();
        let mut base = vec![timed(0, TraceOp::Create(HUGE_PATH.into()))];
        // Large writes: the base is set-up, not what the workload times.
        push_writes(&mut base, 1, HUGE_PATH, &content, base_write);
        base.push(timed(2, TraceOp::Close(HUGE_PATH.into())));
        HugeSaves {
            base,
            content,
            gen: ContentGen::new(seed ^ 0x5AFE),
            write_size,
            edit_size,
        }
    }

    /// The file content after the latest generated save.
    pub fn content(&self) -> &[u8] {
        &self.content
    }

    /// Generates the next save: a fresh block is inserted at the front
    /// (shifting everything; the tail is dropped so the length — and the
    /// work per iteration — stays constant) and three spans are
    /// overwritten in place. The save is written to a temp name in
    /// application-sized writes, closed, and renamed over the file.
    /// Returns the operations and the previous content.
    pub fn next_save(&mut self) -> (Vec<TimedOp>, Vec<u8>) {
        let len = self.content.len();
        let mut new = Vec::with_capacity(len);
        new.extend_from_slice(&self.gen.noise(self.edit_size));
        new.extend_from_slice(&self.content[..len - self.edit_size]);
        for _ in 0..HUGE_OVERLAYS {
            let at = self.gen.index(len - self.edit_size);
            let patch = self.gen.noise(self.edit_size);
            new[at..at + self.edit_size].copy_from_slice(&patch);
        }
        let mut ops = vec![timed(0, TraceOp::Create(HUGE_TMP.into()))];
        push_writes(&mut ops, 10, HUGE_TMP, &new, self.write_size);
        ops.push(timed(100, TraceOp::Close(HUGE_TMP.into())));
        ops.push(timed(
            110,
            TraceOp::Rename {
                src: HUGE_TMP.into(),
                dst: HUGE_PATH.into(),
            },
        ));
        let old = std::mem::replace(&mut self.content, new);
        (ops, old)
    }
}

/// A multi-client workload.
pub struct HubSpec {
    /// Server shards.
    pub shards: usize,
    /// Clients in attach order: `(namespace, setup)`; `""` is the root.
    pub clients: Vec<(String, ClientSetup)>,
    /// `(client index, operation)`, merged by timestamp.
    pub ops: Vec<(usize, TimedOp)>,
    /// The hub is pumped every this many simulated milliseconds.
    pub pump_every_ms: u64,
    /// Drive with `pump_parallel` / `flush_parallel`.
    pub parallel: bool,
    /// Which clients' operations the traced run also replays through one
    /// staged client to time the upload path layer by layer.
    pub solo: Solo,
}

/// The writers whose operations make up a hub workload's solo replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Solo {
    /// Client 0 only. Two independent writers folded into one client is
    /// not something a hub does — and today a gedit save interleaved with
    /// chat-database writes on one client gets its deltas rejected.
    FirstWriter,
    /// Every writer (tenants never share a path).
    AllWriters,
}

impl HubSpec {
    /// The operations of the solo replay, in time order.
    pub fn solo_ops(&self) -> Vec<TimedOp> {
        self.ops
            .iter()
            .filter(|(c, _)| self.solo == Solo::AllWriters || *c == 0)
            .map(|(_, t)| t.clone())
            .collect()
    }
}

fn timed(at_ms: u64, op: TraceOp) -> TimedOp {
    TimedOp { at_ms, op }
}

fn push_writes(ops: &mut Vec<TimedOp>, at_ms: u64, path: &str, data: &[u8], chunk: usize) {
    let mut offset = 0u64;
    for piece in data.chunks(chunk) {
        ops.push(timed(
            at_ms,
            TraceOp::Write {
                path: path.to_string(),
                offset,
                data: piece.to_vec(),
            },
        ));
        offset += piece.len() as u64;
    }
}

fn collect(trace: &dyn Trace) -> Vec<TimedOp> {
    let mut ops = Vec::new();
    trace.generate(&mut |op| ops.push(op));
    ops
}

/// The first `saves` saves of a Word trace (plus the initial document).
/// Later saves are generated and dropped: the trace API ties save count
/// to document size, and the workload needs a large document but a
/// short iteration.
fn word_prefix(cfg: TraceConfig, saves: usize) -> Vec<TimedOp> {
    let mut ops = Vec::new();
    let mut done = 0usize;
    WordTrace::new(cfg).generate(&mut |op| {
        if done >= saves {
            return;
        }
        if matches!(&op.op, TraceOp::Unlink(p) if p == "/doc.tmp0") {
            done += 1;
        }
        ops.push(op);
    });
    ops
}

fn shift(ops: Vec<TimedOp>, by_ms: u64) -> Vec<TimedOp> {
    ops.into_iter()
        .map(|t| timed(t.at_ms + by_ms, t.op))
        .collect()
}

fn map_paths(op: TraceOp, f: &dyn Fn(&str) -> String) -> TraceOp {
    match op {
        TraceOp::Create(p) => TraceOp::Create(f(&p)),
        TraceOp::Mkdir(p) => TraceOp::Mkdir(f(&p)),
        TraceOp::Write { path, offset, data } => TraceOp::Write {
            path: f(&path),
            offset,
            data,
        },
        TraceOp::Truncate { path, size } => TraceOp::Truncate {
            path: f(&path),
            size,
        },
        TraceOp::Rename { src, dst } => TraceOp::Rename {
            src: f(&src),
            dst: f(&dst),
        },
        TraceOp::Link { src, dst } => TraceOp::Link {
            src: f(&src),
            dst: f(&dst),
        },
        TraceOp::Unlink(p) => TraceOp::Unlink(f(&p)),
        TraceOp::Close(p) => TraceOp::Close(f(&p)),
        TraceOp::Fsync(p) => TraceOp::Fsync(f(&p)),
    }
}

/// Merges per-client streams by timestamp; ties keep client order and
/// each stream's own order.
fn merge(streams: Vec<(usize, Vec<TimedOp>)>) -> Vec<(usize, TimedOp)> {
    let mut all: Vec<(usize, TimedOp)> = streams
        .into_iter()
        .flat_map(|(c, ops)| ops.into_iter().map(move |op| (c, op)))
        .collect();
    all.sort_by_key(|(_, op)| op.at_ms);
    all
}

fn hub_share(seed: u64, size: Size) -> HubSpec {
    let (gedit_scale, word_scale, word_saves, chat_scale) = match size {
        Size::Full => (1.0, 0.25, 12, 0.1),
        Size::Smoke => (0.1, 0.02, 2, 0.005),
    };
    // Twelve Word saves: a save's rename (the delta encoding, ~4 ms) is
    // the slowest operation, and the renames must be well over 1 % of the
    // operations (12 of 658) so that `op_p99_us` lies in the middle of
    // them. Six are exactly the top 1 %, and the percentile then falls on
    // either side of the step down to the 1.5 ms operations from run to run.
    // Client 0: a gedit session, then a Word session. gedit's backup
    // link (`link f f~`, and the unlink of the previous backup) is left
    // out: a forwarded hard link diverges the replicas today, a workload
    // may not contain failing operations, and the defect is measured on
    // the unfiltered trace by `probes::hardlink_divergence` instead.
    let gedit: Vec<TimedOp> = collect(&GeditTrace::new(TraceConfig {
        scale: gedit_scale,
        seed,
    }))
    .into_iter()
    .filter(|t| match &t.op {
        TraceOp::Link { .. } => false,
        TraceOp::Unlink(p) => !p.ends_with('~'),
        _ => true,
    })
    .collect();
    let gedit_end = gedit.last().map_or(0, |t| t.at_ms) + 5_000;
    let word = word_prefix(
        TraceConfig {
            scale: word_scale,
            seed: seed.wrapping_add(1),
        },
        word_saves,
    );
    let mut writer0 = gedit;
    writer0.extend(shift(word, gedit_end));
    // Client 1, concurrently: a chat database of its own.
    let chat = collect(&WeChatTrace::new(TraceConfig {
        scale: chat_scale,
        seed: seed.wrapping_add(2),
    }));
    let w = Workload::HubShare;
    HubSpec {
        shards: 1,
        clients: vec![
            (String::new(), bench_config(w, Role::Writer)),
            (String::new(), bench_config(w, Role::Writer)),
            (String::new(), bench_config(w, Role::Receiver)),
            (String::new(), bench_config(w, Role::MobileReceiver)),
        ],
        ops: merge(vec![(0, writer0), (1, chat)]),
        pump_every_ms: 1_000,
        parallel: false,
        solo: Solo::FirstWriter,
    }
}

fn hub_fanin(seed: u64, size: Size) -> HubSpec {
    let (tenants, shards, scale) = match size {
        Size::Full => (128usize, 8usize, 0.005),
        Size::Smoke => (12, 4, 0.005),
    };
    let w = Workload::HubFanin;
    let mut clients = Vec::with_capacity(tenants * 2);
    let mut streams = Vec::with_capacity(tenants);
    for t in 0..tenants {
        let ns = format!("t{t}");
        clients.push((ns.clone(), bench_config(w, Role::Writer)));
        clients.push((ns.clone(), bench_config(w, Role::Receiver)));
        let cfg = TraceConfig {
            scale,
            seed: seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        };
        // The personality cycles by tenant, as in the repo's scale bench.
        let slice = match t % 3 {
            0 => collect(&AppendTrace::new(cfg)),
            1 => collect(&RandomWriteTrace::new(cfg)),
            _ => collect(&WordTrace::new(cfg)),
        };
        let prefix = format!("/{ns}");
        let mut ops = vec![timed(0, TraceOp::Mkdir(prefix.clone()))];
        ops.extend(
            slice
                .into_iter()
                .map(|t| timed(t.at_ms, map_paths(t.op, &|p| format!("{prefix}{p}")))),
        );
        streams.push((t * 2, ops));
    }
    HubSpec {
        shards,
        clients,
        ops: merge(streams),
        pump_every_ms: 1_000,
        parallel: true,
        solo: Solo::AllWriters,
    }
}

/// Generates `workload` from `seed`.
pub fn generate(workload: Workload, seed: u64, size: Size) -> Spec {
    match workload {
        Workload::WordSave => {
            // Scale 0.75 puts the document (9 -> 12.5 MB) above the 8 MiB
            // parallel-diff threshold.
            let (scale, saves) = match size {
                Size::Full => (0.75, 6),
                Size::Smoke => (0.02, 2),
            };
            Spec::Single(SingleSpec {
                setup: bench_config(workload, Role::Writer),
                source: OpSource::Fixed(word_prefix(TraceConfig { scale, seed }, saves)),
            })
        }
        Workload::WechatInplace => {
            let scale = match size {
                Size::Full => 0.25,
                Size::Smoke => 0.01,
            };
            Spec::Single(SingleSpec {
                setup: bench_config(workload, Role::Writer),
                source: OpSource::Fixed(collect(&WeChatTrace::new(TraceConfig { scale, seed }))),
            })
        }
        Workload::HugeSave => Spec::Single(SingleSpec {
            setup: bench_config(workload, Role::Writer),
            source: OpSource::Saves(HugeSaves::new(seed, size)),
        }),
        Workload::HubShare => Spec::Hub(hub_share(seed, size)),
        Workload::HubFanin => Spec::Hub(hub_fanin(seed, size)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn update_bytes(ops: &[TimedOp]) -> u64 {
        ops.iter()
            .map(|t| match &t.op {
                TraceOp::Write { data, .. } => data.len() as u64,
                _ => 0,
            })
            .sum()
    }

    fn fixed_ops(spec: &Spec) -> &[TimedOp] {
        match spec {
            Spec::Single(SingleSpec {
                source: OpSource::Fixed(ops),
                ..
            }) => ops,
            _ => panic!("expected a fixed single-client workload"),
        }
    }

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        let a = generate(Workload::WordSave, 7, Size::Smoke);
        let b = generate(Workload::WordSave, 7, Size::Smoke);
        let c = generate(Workload::WordSave, 8, Size::Smoke);
        assert_eq!(fixed_ops(&a), fixed_ops(&b));
        assert_ne!(fixed_ops(&a), fixed_ops(&c));
    }

    #[test]
    fn word_prefix_stops_after_the_requested_saves() {
        let ops = word_prefix(TraceConfig::scaled(0.05), 2);
        let unlinks = ops
            .iter()
            .filter(|t| matches!(&t.op, TraceOp::Unlink(_)))
            .count();
        assert_eq!(unlinks, 2);
        assert!(matches!(&ops.last().unwrap().op, TraceOp::Unlink(_)));
    }

    #[test]
    fn huge_saves_keep_length_and_differ_from_the_previous_content() {
        let mut saves = HugeSaves::new(3, Size::Smoke);
        let len = saves.content().len();
        let (ops, old) = saves.next_save();
        assert_eq!(saves.content().len(), len);
        assert_eq!(old.len(), len);
        assert_ne!(saves.content(), &old[..]);
        assert_eq!(update_bytes(&ops), len as u64);
        // The shift: old content reappears one edit-size further on.
        assert_eq!(
            &saves.content()[2 * saves.edit_size..3 * saves.edit_size].len(),
            &saves.edit_size
        );
        assert!(matches!(&ops.last().unwrap().op, TraceOp::Rename { dst, .. } if dst == HUGE_PATH));
    }

    #[test]
    fn hub_streams_are_time_ordered_and_namespaced() {
        let Spec::Hub(share) = generate(Workload::HubShare, 1, Size::Smoke) else {
            panic!("hub workload");
        };
        assert_eq!(share.clients.len(), 4);
        assert!(share.ops.windows(2).all(|w| w[0].1.at_ms <= w[1].1.at_ms));
        assert!(share.ops.iter().any(|(c, _)| *c == 0));
        assert!(share.ops.iter().any(|(c, _)| *c == 1));
        let Spec::Hub(fanin) = generate(Workload::HubFanin, 1, Size::Smoke) else {
            panic!("hub workload");
        };
        assert_eq!(fanin.clients.len(), 24);
        for (c, t) in &fanin.ops {
            assert_eq!(c % 2, 0, "only the first client of a tenant writes");
            let ns = &fanin.clients[*c].0;
            let path = match &t.op {
                TraceOp::Write { path, .. } => path,
                _ => continue,
            };
            assert!(path.starts_with(&format!("/{ns}/")));
        }
    }
}
