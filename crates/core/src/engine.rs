//! The common harness interface all sync engines implement, plus
//! [`DeltaCfsSystem`] — a DeltaCFS client and cloud server wired to a
//! simulated link.
//!
//! The baseline engines in `deltacfs-baselines` (Dropbox-, Seafile-, NFS-
//! and Dropsync-like) implement the same [`SyncEngine`] trait, so the
//! trace-replay driver and every benchmark treat all five identically.

use std::time::Instant;

use deltacfs_delta::Cost;
use deltacfs_kvstore::KeyValue;
use deltacfs_net::{Link, LinkSpec, PlatformProfile, SimClock, SimTime, TrafficStats};
use deltacfs_obs::{GroupKey, Histogram, Obs};
use deltacfs_vfs::{OpEvent, Vfs};

use crate::client::DeltaCfsClient;
use crate::codec::{CodecPolicy, WireCodec};
use crate::config::DeltaCfsConfig;
use crate::pipeline;
use crate::protocol::{ApplyOutcome, ClientId, UpdateMsg, ACK_WIRE_BYTES};
use crate::server::CloudServer;

/// Summary of an engine's resource usage after a run.
#[derive(Debug, Clone)]
pub struct EngineReport {
    /// Engine name ("deltacfs", "dropbox", ...).
    pub name: String,
    /// Client-side work counters.
    pub client_cost: Cost,
    /// Server-side work counters (`None` when the server is opaque, as
    /// for Dropbox in the paper).
    pub server_cost: Option<Cost>,
    /// Bytes and messages moved over the client↔cloud link.
    pub traffic: TrafficStats,
}

/// A sync engine driven by intercepted file-system events and a clock.
pub trait SyncEngine {
    /// Engine name, for reports.
    fn name(&self) -> &str;

    /// Feeds one intercepted operation.
    fn on_event(&mut self, event: &OpEvent, fs: &Vfs);

    /// Lets the engine act on the passage of time (debounce windows,
    /// upload delays, link availability).
    fn tick(&mut self, fs: &Vfs);

    /// Flushes all outstanding work (end of experiment).
    fn finish(&mut self, fs: &Vfs);

    /// Resource usage so far.
    fn report(&self) -> EngineReport;
}

/// A complete single-client DeltaCFS deployment: client engine, cloud
/// server, and the link between them.
#[derive(Debug)]
pub struct DeltaCfsSystem<K: KeyValue = deltacfs_kvstore::MemStore> {
    client: DeltaCfsClient<K>,
    server: CloudServer,
    link: Link,
    clock: SimClock,
    outcomes: Vec<ApplyOutcome>,
    obs: Obs,
    wire_codec: WireCodec,
}

/// The upload-direction codec a config and link imply: adaptive when
/// `wire_compression` is on, a raw-passthrough otherwise. The platform
/// defaults to PC until [`DeltaCfsSystem::set_platform`] overrides it.
fn upload_codec(cfg: &DeltaCfsConfig, link_spec: LinkSpec) -> WireCodec {
    let policy = if cfg.wire_compression {
        CodecPolicy::Adaptive
    } else {
        CodecPolicy::Never
    };
    WireCodec::for_upload(policy, PlatformProfile::pc(), link_spec)
}

impl DeltaCfsSystem<deltacfs_kvstore::MemStore> {
    /// Creates a system with an in-memory checksum store.
    pub fn new(cfg: DeltaCfsConfig, clock: SimClock, link_spec: LinkSpec) -> Self {
        DeltaCfsSystem {
            client: DeltaCfsClient::new(ClientId(1), cfg, clock.clone()),
            server: CloudServer::new(),
            link: Link::new(link_spec),
            clock,
            outcomes: Vec::new(),
            obs: Obs::new(),
            wire_codec: upload_codec(&cfg, link_spec),
        }
    }
}

impl<K: KeyValue> DeltaCfsSystem<K> {
    /// Creates a system with an explicit checksum-store backend.
    pub fn with_backend(
        cfg: DeltaCfsConfig,
        clock: SimClock,
        link_spec: LinkSpec,
        backend: K,
    ) -> Self {
        DeltaCfsSystem {
            client: DeltaCfsClient::with_backend(ClientId(1), cfg, clock.clone(), backend),
            server: CloudServer::new(),
            link: Link::new(link_spec),
            clock,
            outcomes: Vec::new(),
            obs: Obs::new(),
            wire_codec: upload_codec(&cfg, link_spec),
        }
    }

    /// Installs a shared observability bundle on the client engine (see
    /// [`DeltaCfsClient::set_obs`]).
    pub fn enable_observability(&mut self, obs: Obs) {
        self.obs = obs.clone();
        self.wire_codec.attach_obs(&obs);
        self.client.set_obs(obs);
    }

    /// Declares which platform this client runs on: the wire codec's
    /// cost model charges that platform's compression CPU, and the link
    /// charges the same work as simulated time on codec-tagged parts.
    pub fn set_platform(&mut self, profile: PlatformProfile) {
        self.wire_codec.set_profile(profile);
        self.link.set_compute(profile);
    }

    /// The upload-direction wire codec's own work accumulator
    /// (compression CPU; kept out of the client [`Cost`] so raw and
    /// compressed runs report identical client/server totals).
    pub fn codec_cost(&self) -> Cost {
        self.wire_codec.cost()
    }

    /// Overrides the wire codec's decision policy. Property tests use
    /// this to force arbitrary compress/raw schedules through a stream;
    /// production code configures the codec through
    /// [`DeltaCfsConfig::wire_compression`] instead.
    #[doc(hidden)]
    pub fn set_codec_policy(&mut self, policy: CodecPolicy) {
        self.wire_codec.set_policy(policy);
    }

    /// The client engine.
    pub fn client(&self) -> &DeltaCfsClient<K> {
        &self.client
    }

    /// Mutable access to the client engine.
    pub fn client_mut(&mut self) -> &mut DeltaCfsClient<K> {
        &mut self.client
    }

    /// The cloud server.
    pub fn server(&self) -> &CloudServer {
        &self.server
    }

    /// Apply outcomes observed so far (conflicts, rejections).
    pub fn outcomes(&self) -> &[ApplyOutcome] {
        &self.outcomes
    }

    /// Uploads every ready transaction group to the cloud.
    fn upload_ready(&mut self, fs: &Vfs, flush: bool) {
        let groups = if flush {
            self.client.flush(fs)
        } else {
            self.client.tick(fs)
        };
        let now = self.clock.now();
        let cfg = *self.client.config();
        for group in groups {
            if cfg.streaming && group.iter().all(|m| m.group.is_some()) {
                self.upload_group_streaming(&group, cfg.chunk_budget, now);
            } else {
                // "client-1": the actor `ClientId(1)`'s engine traces itself as.
                let outcomes = upload_group(
                    &self.obs,
                    &mut self.link,
                    "client-1",
                    now,
                    &group,
                    None,
                    |msgs| self.server.apply_txn(msgs),
                );
                self.outcomes.extend(outcomes);
            }
        }
    }

    /// Streams one group as bounded chunk frames: each frame
    /// (scatter-gather, shared payloads) goes through the wire codec,
    /// onto the link and into the server's chunk stage as it is cut; the
    /// server commits the group atomically on the final frame. Traffic
    /// totals match the materialized path exactly — the frames'
    /// accounted bytes sum to `Σ wire_size()` and the message latency is
    /// charged once per group, as `Link::upload` would.
    fn upload_group_streaming(&mut self, group: &[UpdateMsg], chunk_budget: usize, now: SimTime) {
        let link = &mut self.link;
        let server = &mut self.server;
        let outcomes = &mut self.outcomes;
        let codec = &mut self.wire_codec;
        let recorder = &self.obs.recorder;
        let at_ms = now.as_millis();
        let key = group_span_key(group);
        let mut stage_first_ms: Option<u64> = None;
        pipeline::frame_group(group, chunk_budget, |frame| {
            let frame = codec.encode_frame(frame, at_ms);
            let busy_before = link.upload_busy_until();
            let done = link.upload_part_codec(frame.accounted, frame.compressed_from(), now);
            let (start_ms, d) = (now.max(busy_before).as_millis(), done.as_millis());
            recorder.record(key, "link", "wire.upload", start_ms, d, None, || {
                format!(
                    "msg {} chunk {}{}: {} bytes ({} shared), {} on the wire",
                    frame.msg_idx,
                    frame.chunk_idx,
                    if frame.last_in_group { " [group end]" } else { "" },
                    frame.byte_len(),
                    frame.payload_bytes(),
                    frame.accounted,
                )
            });
            let staged_at = *stage_first_ms.get_or_insert(d);
            if let Some(out) = server
                .receive_chunk(&frame)
                .expect("in-process chunk stream cannot be malformed")
            {
                recorder.record(key, "server", "server.stage", d, d, None, || {
                    format!("committed after a {}ms staging window", d - staged_at)
                });
                recorder.record(key, "server", "server.apply", d, d, None, || {
                    format!("{} outcome(s)", out.len())
                });
                outcomes.extend(out);
            }
        });
        let busy_before_end = link.upload_busy_until();
        let end_done = link.upload_end_msg(now);
        let (start_ms, end_ms) = (now.max(busy_before_end).as_millis(), end_done.as_millis());
        recorder.record(key, "link", "wire.upload", start_ms, end_ms, None, || {
            "end-of-message latency".into()
        });
        // Acknowledgement.
        link.download(ACK_WIRE_BYTES, now);
    }
}

/// Whether the server applied every message of a group (no conflict copy,
/// no rejection) — the condition for forwarding it to peers.
pub(crate) fn all_applied(outcomes: &[ApplyOutcome]) -> bool {
    outcomes.iter().all(|o| *o == ApplyOutcome::Applied)
}

/// The key a group's stamped id gives its records.
pub(crate) fn group_span_key(group: &[UpdateMsg]) -> Option<GroupKey> {
    group.iter().find_map(|m| m.group).map(|g| g.span_key())
}

/// Records a first application of `from`'s group: a `server.apply` span
/// at the group's arrival, zero-width on the simulated clock — apply CPU
/// is accounted in cost counters, not link time.
pub(crate) fn record_apply(
    obs: &Obs,
    from: &str,
    key: Option<GroupKey>,
    at_ms: u64,
    outcomes: &[ApplyOutcome],
) {
    obs.recorder.record(key, "server", "server.apply", at_ms, at_ms, None, || {
        let applied = all_applied(outcomes);
        format!("group from {from}: {} msgs, all_applied={applied}", outcomes.len())
    });
}

/// The whole-message upload leg on a fault-free link, the one place a
/// group goes up unframed: [`Link::upload`] → `wire.upload` span →
/// `apply` (its wall-clock time observed into `latency` when given) →
/// [`record_apply`] → acknowledgement. [`DeltaCfsSystem`] and the hub's
/// pump both upload through here.
pub(crate) fn upload_group(
    obs: &Obs,
    link: &mut Link,
    actor: &str,
    now: SimTime,
    group: &[UpdateMsg],
    latency: Option<&Histogram>,
    apply: impl FnOnce(&[UpdateMsg]) -> Vec<ApplyOutcome>,
) -> Vec<ApplyOutcome> {
    let wire: u64 = group.iter().map(UpdateMsg::wire_size).sum();
    let key = group_span_key(group);
    let busy_before = link.upload_busy_until();
    let arrival = link.upload(wire, now);
    let (start_ms, arrival_ms) = (now.max(busy_before).as_millis(), arrival.as_millis());
    obs.recorder.record(key, "link", "wire.upload", start_ms, arrival_ms, None, || {
        format!("group of {} msgs, {wire} wire bytes", group.len())
    });
    let t0 = latency.map(|_| Instant::now());
    let outcomes = apply(group);
    if let (Some(hist), Some(t0)) = (latency, t0) {
        hist.observe(t0.elapsed().as_micros() as u64);
    }
    record_apply(obs, actor, key, arrival_ms, &outcomes);
    link.download(ACK_WIRE_BYTES, now);
    outcomes
}

impl<K: KeyValue> SyncEngine for DeltaCfsSystem<K> {
    fn name(&self) -> &str {
        "deltacfs"
    }

    fn on_event(&mut self, event: &OpEvent, fs: &Vfs) {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_sync_through_the_trait() {
        let clock = SimClock::new();
        let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/f").unwrap();
        fs.write("/f", 0, b"payload").unwrap();
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        clock.advance(4000);
        sys.tick(&fs);
        assert_eq!(sys.server().file("/f"), Some(&b"payload"[..]));
        let report = sys.report();
        assert!(report.traffic.bytes_up > 7);
        assert!(report.server_cost.is_some());
    }

    #[test]
    fn streaming_upload_matches_materialized_traffic_and_state() {
        // The streaming pipeline is an implementation detail of the
        // upload: same traffic totals, same costs, same cloud state.
        let run = |streaming: bool| {
            let clock = SimClock::new();
            let cfg = DeltaCfsConfig::new()
                .with_streaming(streaming)
                .with_chunk_budget(512);
            let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), LinkSpec::pc());
            let mut fs = Vfs::new();
            fs.enable_event_log();
            fs.create("/f").unwrap();
            let base: Vec<u8> = (0..30_000u32)
                .map(|i| (i.wrapping_mul(17) % 250) as u8)
                .collect();
            fs.write("/f", 0, &base).unwrap();
            fs.create("/small").unwrap();
            fs.write("/small", 0, b"tiny file").unwrap();
            for e in fs.drain_events() {
                sys.on_event(&e, &fs);
            }
            clock.advance(4000);
            sys.tick(&fs);
            // An in-place rewrite large enough to go through the local
            // delta path, so the streamed group carries a Delta payload.
            let edit = vec![0x5A; 16_000];
            fs.write("/f", 200, &edit).unwrap();
            fs.rename("/small", "/renamed").unwrap();
            for e in fs.drain_events() {
                sys.on_event(&e, &fs);
            }
            clock.advance(4000);
            sys.finish(&fs);
            let r = sys.report();
            (
                r.traffic,
                r.client_cost,
                sys.server().file("/f").map(<[u8]>::to_vec),
                sys.server().file("/renamed").map(<[u8]>::to_vec),
                sys.outcomes().to_vec(),
            )
        };
        let materialized = run(false);
        let streamed = run(true);
        assert_eq!(streamed, materialized);
        assert!(streamed.2.is_some());
        assert_eq!(streamed.3.as_deref(), Some(&b"tiny file"[..]));
    }

    #[test]
    fn finish_flushes_pending_nodes() {
        let clock = SimClock::new();
        let mut sys = DeltaCfsSystem::new(DeltaCfsConfig::new(), clock.clone(), LinkSpec::pc());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/late").unwrap();
        for e in fs.drain_events() {
            sys.on_event(&e, &fs);
        }
        // No clock advance: tick would upload nothing.
        sys.tick(&fs);
        assert!(sys.server().file("/late").is_none());
        sys.finish(&fs);
        assert!(sys.server().file("/late").is_some());
    }
}
