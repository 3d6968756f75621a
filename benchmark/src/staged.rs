//! The staged driver: `DeltaCfsSystem::upload_ready` rebuilt from public
//! functions, with a span around each call into a layer.
//!
//! `Vfs` op -> `DeltaCfsClient::handle_event` -> `tick`/`flush` ->
//! `pipeline::frame_group` -> `WireCodec::encode_frame` ->
//! `Link::upload_part_codec` -> `ChunkStager::accept` ->
//! `CloudServer::apply_txn_idempotent`. Unlike the facade it runs the
//! encoder inline instead of on a pipeline thread, so every layer's time
//! is visible to the one driver thread. It must leave the cloud
//! byte-identical to the facade and move exactly the same traffic;
//! [`same_outcome`] checks that after every iteration.

use std::collections::HashMap;
use std::rc::Rc;

use deltacfs_core::pipeline::{frame_group, ChunkStager};
use deltacfs_core::wire::Codec;
use deltacfs_core::{
    ApplyOutcome, ClientId, CloudServer, CodecPolicy, DeltaCfsClient, EngineReport, SyncEngine,
    UpdateMsg, UpdatePayload, WireCodec, ACK_WIRE_BYTES,
};
use deltacfs_net::{Link, SimClock};
use deltacfs_vfs::{OpEvent, Vfs};

use crate::config::ClientSetup;
use crate::driver::SingleEngine;
use crate::spans::{Recorder, SpanId};

/// Counts taken at the layer boundaries of the staged driver.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StagedStats {
    /// Events handed to the client.
    pub events: u64,
    /// `Close` events among them.
    pub closes: u64,
    /// Bytes written to a file since its previous close, summed at close.
    pub close_pending_bytes: u64,
    /// Upload groups the client produced.
    pub groups: u64,
    /// Messages in those groups.
    pub msgs: u64,
    /// Messages shipping raw operations (the NFS-like RPC mechanism).
    pub rpc_msgs: u64,
    /// Messages shipping a delta.
    pub delta_msgs: u64,
    /// Messages shipping full content.
    pub full_msgs: u64,
    /// Model wire bytes of all groups before the codec.
    pub group_wire_bytes: u64,
    /// Chunk frames put on the wire.
    pub frames: u64,
    /// Frames the codec compressed.
    pub compressed_frames: u64,
    /// Accounted bytes the codec saved.
    pub codec_saved_bytes: u64,
    /// Largest frame, real bytes.
    pub max_frame_bytes: u64,
    /// Simulated milliseconds the uplink was busy.
    pub sim_upload_ms: u64,
}

impl StagedStats {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &StagedStats) {
        self.events += other.events;
        self.closes += other.closes;
        self.close_pending_bytes += other.close_pending_bytes;
        self.groups += other.groups;
        self.msgs += other.msgs;
        self.rpc_msgs += other.rpc_msgs;
        self.delta_msgs += other.delta_msgs;
        self.full_msgs += other.full_msgs;
        self.group_wire_bytes += other.group_wire_bytes;
        self.frames += other.frames;
        self.compressed_frames += other.compressed_frames;
        self.codec_saved_bytes += other.codec_saved_bytes;
        self.max_frame_bytes = self.max_frame_bytes.max(other.max_frame_bytes);
        self.sim_upload_ms += other.sim_upload_ms;
    }
}

/// Upload groups kept for the layer probes, up to a byte cap (messages
/// share their payload buffers, so keeping them pins those buffers).
#[derive(Debug, Default)]
pub struct Harvest {
    /// The kept groups, in upload order.
    pub groups: Vec<Vec<UpdateMsg>>,
    wire_bytes: u64,
}

/// Harvest cap, in model wire bytes.
const HARVEST_CAP_BYTES: u64 = 48 << 20;

/// The upload-direction codec `DeltaCfsSystem` builds for `setup`:
/// adaptive when wire compression is on, a pass-through otherwise.
pub fn upload_codec(setup: &ClientSetup) -> WireCodec {
    let policy = if setup.cfg.wire_compression {
        CodecPolicy::Adaptive
    } else {
        CodecPolicy::Never
    };
    WireCodec::for_upload(policy, setup.platform, setup.link)
}

/// A single-client deployment assembled from the layers' public
/// functions.
pub struct StagedSystem {
    client: DeltaCfsClient,
    server: CloudServer,
    link: Link,
    clock: SimClock,
    codec: WireCodec,
    stager: ChunkStager,
    outcomes: Vec<ApplyOutcome>,
    rec: Rc<Recorder>,
    pending_write_bytes: HashMap<String, u64>,
    /// Boundary counts so far.
    pub stats: StagedStats,
    /// Groups kept for the probes.
    pub harvest: Harvest,
}

impl StagedSystem {
    /// Builds the staged twin of `driver::new_facade(setup, clock)`.
    pub fn new(setup: &ClientSetup, clock: &SimClock, rec: Rc<Recorder>) -> Self {
        let mut link = Link::new(setup.link);
        link.set_compute(setup.platform);
        StagedSystem {
            client: DeltaCfsClient::new(ClientId(1), setup.cfg, clock.clone()),
            server: CloudServer::new(),
            link,
            clock: clock.clone(),
            codec: upload_codec(setup),
            stager: ChunkStager::new(),
            outcomes: Vec::new(),
            rec,
            pending_write_bytes: HashMap::new(),
            stats: StagedStats::default(),
            harvest: Harvest::default(),
        }
    }

    fn note_group(&mut self, group: &[UpdateMsg]) {
        self.stats.groups += 1;
        self.stats.msgs += group.len() as u64;
        for msg in group {
            match &msg.payload {
                UpdatePayload::Ops(_) => self.stats.rpc_msgs += 1,
                UpdatePayload::Delta { .. } => self.stats.delta_msgs += 1,
                UpdatePayload::Full(_) => self.stats.full_msgs += 1,
                _ => {}
            }
        }
        let wire: u64 = group.iter().map(UpdateMsg::wire_size).sum();
        self.stats.group_wire_bytes += wire;
        if self.harvest.wire_bytes + wire <= HARVEST_CAP_BYTES {
            self.harvest.wire_bytes += wire;
            self.harvest.groups.push(group.to_vec());
        }
    }

    /// `DeltaCfsSystem::upload_ready`, layer by layer.
    fn upload_ready(&mut self, fs: &Vfs, flush: bool) {
        let rec = Rc::clone(&self.rec);
        let groups = {
            let _s = rec.span("client.tick", SpanId::None);
            if flush {
                self.client.flush(fs)
            } else {
                self.client.tick(fs)
            }
        };
        let now = self.clock.now();
        let cfg = *self.client.config();
        for group in groups {
            self.note_group(&group);
            let id = group
                .iter()
                .find_map(|m| m.group)
                .map_or(SpanId::None, |g| SpanId::Group {
                    client: g.client.0,
                    seq: g.seq,
                });
            if cfg.streaming && group.iter().all(|m| m.group.is_some()) {
                let at_ms = now.as_millis();
                let StagedSystem {
                    server,
                    link,
                    codec,
                    stager,
                    outcomes,
                    stats,
                    ..
                } = self;
                {
                    let _s = rec.span("pipeline.frame_group", id);
                    frame_group(&group, cfg.chunk_budget, |frame| {
                        let raw_accounted = frame.accounted;
                        let frame = {
                            let _s = rec.span("codec.encode_frame", id);
                            codec.encode_frame(frame, at_ms)
                        };
                        stats.frames += 1;
                        stats.max_frame_bytes = stats.max_frame_bytes.max(frame.byte_len());
                        if matches!(frame.codec, Codec::Lz77 { .. }) {
                            stats.compressed_frames += 1;
                            stats.codec_saved_bytes += raw_accounted - frame.accounted;
                        }
                        {
                            let _s = rec.span("net.upload", id);
                            let start = now.max(link.upload_busy_until());
                            let done = link.upload_part_codec(
                                frame.accounted,
                                frame.compressed_from(),
                                now,
                            );
                            stats.sim_upload_ms += done.since(start);
                        }
                        let staged = {
                            let _s = rec.span("pipeline.stager_accept", id);
                            stager
                                .accept(&frame)
                                .expect("in-process chunk stream cannot be malformed")
                        };
                        if let Some(msgs) = staged {
                            let _s = rec.span("server.apply", id);
                            let (out, _duplicate) = server.apply_txn_idempotent(&msgs);
                            outcomes.extend(out);
                        }
                    });
                }
                let start = now.max(link.upload_busy_until());
                stats.sim_upload_ms += link.upload_end_msg(now).since(start);
                link.download(ACK_WIRE_BYTES, now);
            } else {
                let wire: u64 = group.iter().map(UpdateMsg::wire_size).sum();
                {
                    let _s = rec.span("net.upload", id);
                    let start = now.max(self.link.upload_busy_until());
                    self.stats.sim_upload_ms += self.link.upload(wire, now).since(start);
                }
                {
                    let _s = rec.span("server.apply", id);
                    let out = self.server.apply_txn(&group);
                    self.outcomes.extend(out);
                }
                self.link.download(ACK_WIRE_BYTES, now);
            }
        }
    }
}

impl SyncEngine for StagedSystem {
    fn name(&self) -> &str {
        "deltacfs-staged"
    }

    fn on_event(&mut self, event: &OpEvent, fs: &Vfs) {
        self.stats.events += 1;
        let name = match event {
            OpEvent::Write { path, data, .. } => {
                *self
                    .pending_write_bytes
                    .entry(path.as_str().to_string())
                    .or_default() += data.len() as u64;
                "client.handle_event"
            }
            OpEvent::Close { path } => {
                self.stats.closes += 1;
                self.stats.close_pending_bytes +=
                    self.pending_write_bytes.remove(path.as_str()).unwrap_or(0);
                "client.close"
            }
            _ => "client.handle_event",
        };
        let _s = self.rec.span(name, SpanId::None);
        self.client.handle_event(event, fs);
    }

    fn tick(&mut self, fs: &Vfs) {
        self.upload_ready(fs, false);
    }

    fn finish(&mut self, fs: &Vfs) {
        self.upload_ready(fs, true);
    }

    fn report(&self) -> EngineReport {
        EngineReport {
            name: self.name().to_string(),
            client_cost: self.client.cost(),
            server_cost: Some(self.server.cost()),
            traffic: self.link.stats(),
        }
    }
}

impl SingleEngine for StagedSystem {
    fn server(&self) -> &CloudServer {
        &self.server
    }
    fn outcomes(&self) -> &[ApplyOutcome] {
        &self.outcomes
    }
}

/// Compares two clouds: same directories, same paths, and per path the
/// same bytes and version.
pub fn same_server_state(a: &CloudServer, b: &CloudServer) -> Result<(), String> {
    if a.dirs() != b.dirs() {
        return Err(format!(
            "directories differ: {:?} vs {:?}",
            a.dirs(),
            b.dirs()
        ));
    }
    if a.paths() != b.paths() {
        return Err(format!("paths differ: {:?} vs {:?}", a.paths(), b.paths()));
    }
    for path in a.paths() {
        if a.file(&path) != b.file(&path) {
            return Err(format!("{path}: content differs"));
        }
        if a.version(&path) != b.version(&path) {
            return Err(format!(
                "{path}: version {:?} vs {:?}",
                a.version(&path),
                b.version(&path)
            ));
        }
    }
    Ok(())
}

/// The staged driver's contract against the facade after the same
/// operations: identical cloud state, traffic, apply outcomes and client
/// cost counters.
pub fn same_outcome(facade: &dyn SingleEngine, staged: &dyn SingleEngine) -> Result<(), String> {
    same_server_state(facade.server(), staged.server())?;
    let (f, s) = (facade.report(), staged.report());
    if f.traffic != s.traffic {
        return Err(format!(
            "traffic differs: {:?} vs {:?}",
            f.traffic, s.traffic
        ));
    }
    if f.client_cost != s.client_cost {
        return Err(format!(
            "client cost differs: {:?} vs {:?}",
            f.client_cost, s.client_cost
        ));
    }
    if facade.outcomes() != staged.outcomes() {
        return Err(String::from("apply outcomes differ"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{bench_config, Role};
    use crate::driver::{new_facade, Deployment};
    use crate::workloads::{generate, OpSource, SingleSpec, Size, Spec, Workload};

    fn run_both(
        workload: Workload,
    ) -> (
        Deployment<deltacfs_core::DeltaCfsSystem>,
        Deployment<StagedSystem>,
    ) {
        let Spec::Single(SingleSpec { setup, source }) = generate(workload, 11, Size::Smoke) else {
            panic!("single-client workload");
        };
        let ops = match source {
            OpSource::Fixed(ops) => ops,
            OpSource::Saves(mut saves) => {
                let mut ops = std::mem::take(&mut saves.base);
                let end = ops.last().unwrap().at_ms + 60_000;
                let (save, _) = saves.next_save();
                ops.extend(save.into_iter().map(|mut t| {
                    t.at_ms += end;
                    t
                }));
                ops
            }
        };
        let off = Recorder::new(false);
        let rec = Rc::new(Recorder::new(true));
        let mut lat = Vec::new();
        let mut facade = Deployment::new(|c| new_facade(&setup, c));
        facade.iterate(&ops, &off, &mut lat);
        let mut staged = Deployment::new(|c| StagedSystem::new(&setup, c, Rc::clone(&rec)));
        let r = staged.iterate(&ops, &rec, &mut lat);
        assert_eq!(r.tally.failed, 0, "{:?}", r.tally.notes);
        assert!(!rec.is_empty());
        (facade, staged)
    }

    #[test]
    fn staged_equals_facade_on_the_materialized_path() {
        let (facade, staged) = run_both(Workload::WordSave);
        same_outcome(&facade.engine, &staged.engine).unwrap();
        assert!(staged.engine.stats.delta_msgs > 0, "word saves ship deltas");
        assert_eq!(
            staged.engine.stats.frames, 0,
            "streaming is off on this workload"
        );
    }

    #[test]
    fn staged_equals_facade_on_the_streamed_compressed_path() {
        let (facade, staged) = run_both(Workload::WechatInplace);
        same_outcome(&facade.engine, &staged.engine).unwrap();
        let s = staged.engine.stats;
        assert!(s.frames > 0 && s.rpc_msgs > 0);
        assert!(
            s.compressed_frames > 0,
            "chat text compresses on the mobile link"
        );
        assert!(s.closes == 0 && s.events > 0);
    }

    #[test]
    fn staged_equals_facade_on_a_huge_save() {
        let (facade, staged) = run_both(Workload::HugeSave);
        same_outcome(&facade.engine, &staged.engine).unwrap();
        let s = staged.engine.stats;
        assert_eq!(s.closes, 2);
        assert!(s.close_pending_bytes >= 2 << 20);
    }

    #[test]
    fn a_divergent_cloud_is_reported() {
        let setup = bench_config(Workload::WordSave, Role::Writer);
        let clock = SimClock::new();
        let a = new_facade(&setup, &clock);
        let mut b = new_facade(&setup, &clock);
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/only-b").unwrap();
        for e in fs.drain_events() {
            b.on_event(&e, &fs);
        }
        b.finish(&fs);
        assert!(same_outcome(&a, &b).is_err());
    }
}
