//! The common harness interface all sync engines implement, plus
//! [`DeltaCfsSystem`] — a DeltaCFS client and cloud server wired to a
//! simulated link.
//!
//! The baseline engines in `deltacfs-baselines` (Dropbox-, Seafile-, NFS-
//! and Dropsync-like) implement the same [`SyncEngine`] trait, so the
//! trace-replay driver and every benchmark treat all five identically.

use deltacfs_delta::Cost;
use deltacfs_net::{Link, LinkSpec, PlatformProfile, SimClock, TrafficStats};
use deltacfs_obs::{GroupKey, Obs};
use deltacfs_vfs::{OpEvent, Vfs};

use crate::client::DeltaCfsClient;
use crate::codec::{CodecPolicy, WireCodec};
use crate::config::DeltaCfsConfig;
use crate::pipeline::{self, Arrival};
use crate::protocol::{ApplyOutcome, ClientId, UpdateMsg};
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
pub struct DeltaCfsSystem {
    client: DeltaCfsClient,
    server: CloudServer,
    link: Link,
    clock: SimClock,
    outcomes: Vec<ApplyOutcome>,
    obs: Obs,
    wire_codec: WireCodec,
}

/// The codec policy a config implies, in both directions: adaptive when
/// `wire_compression` is on, a raw passthrough otherwise. Upload codecs
/// start on the PC profile; [`DeltaCfsSystem::set_platform`] overrides
/// it, the hub's clients keep it.
pub(crate) fn codec_policy(cfg: &DeltaCfsConfig) -> CodecPolicy {
    if cfg.wire_compression {
        CodecPolicy::Adaptive
    } else {
        CodecPolicy::Never
    }
}

impl DeltaCfsSystem {
    /// Creates a system with an in-memory checksum store.
    pub fn new(cfg: DeltaCfsConfig, clock: SimClock, link_spec: LinkSpec) -> Self {
        DeltaCfsSystem {
            client: DeltaCfsClient::new(ClientId(1), cfg, clock.clone()),
            server: CloudServer::new(),
            link: Link::new(link_spec),
            clock,
            outcomes: Vec::new(),
            obs: Obs::new(),
            wire_codec: WireCodec::for_upload(codec_policy(&cfg), PlatformProfile::pc(), link_spec),
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
    pub fn client(&self) -> &DeltaCfsClient {
        &self.client
    }

    /// Mutable access to the client engine.
    pub fn client_mut(&mut self) -> &mut DeltaCfsClient {
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

    /// Uploads every ready transaction group to the cloud, each as
    /// frames through [`pipeline::upload_frames`], and commits it.
    fn upload_ready(&mut self, fs: &Vfs, flush: bool) {
        let groups = if flush {
            self.client.flush(fs)
        } else {
            self.client.tick(fs)
        };
        let now = self.clock.now();
        let chunk_budget = self.client.config().chunk_budget;
        for group in groups {
            let arrived = pipeline::upload_frames(
                &self.obs,
                &mut self.link,
                &mut self.wire_codec,
                &mut self.server,
                &group,
                chunk_budget,
                now,
                Arrival::Acked,
            );
            // `None` only if the stager rejected frames cut in this
            // process, which arrive in order.
            if let Some((msgs, at)) = arrived {
                let outcomes = self.server.apply_txn(&msgs);
                let key = group_span_key(&msgs);
                // "client-1": the actor `ClientId(1)`'s engine traces itself as.
                record_apply(&self.obs, "client-1", key, at.as_millis(), &outcomes);
                self.outcomes.extend(outcomes);
            }
        }
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
    obs.recorder
        .record(key, "server", "server.apply", at_ms, at_ms, None, || {
            let applied = all_applied(outcomes);
            format!(
                "group from {from}: {} msgs, all_applied={applied}",
                outcomes.len()
            )
        });
}

impl SyncEngine for DeltaCfsSystem {
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
    fn framed_upload_charges_wire_size_latency_and_ack_per_group() {
        // Every group crosses the link as frames (a 512-byte budget
        // splits the delta), yet a reference link that carries each of
        // a twin client's identical groups as one whole message plus its
        // ack agrees on every counter and on when the uplink frees up:
        // the frames sum to `Σ wire_size()`, latency and message count
        // settle once per group.
        use crate::protocol::ACK_WIRE_BYTES;

        let spec = LinkSpec {
            bandwidth_up: None,
            bandwidth_down: None,
            latency_ms: 40,
        };
        let clock = SimClock::new();
        let cfg = DeltaCfsConfig::new().with_chunk_budget(512);
        let mut sys = DeltaCfsSystem::new(cfg, clock.clone(), spec);
        let mut twin = DeltaCfsClient::new(ClientId(1), cfg, clock.clone());
        let mut reference = Link::new(spec);
        let mut sync = |fs: &mut Vfs| {
            for e in fs.drain_events() {
                sys.on_event(&e, fs);
                twin.handle_event(&e, fs);
            }
            clock.advance(4000);
            for group in twin.flush(fs) {
                reference.upload(group.iter().map(UpdateMsg::wire_size).sum(), clock.now());
                reference.download(ACK_WIRE_BYTES, clock.now());
            }
            sys.finish(fs);
        };
        let mut fs = Vfs::new();
        fs.enable_event_log();
        fs.create("/f").unwrap();
        let base: Vec<u8> = (0..30_000u32)
            .map(|i| (i.wrapping_mul(17) % 250) as u8)
            .collect();
        fs.write("/f", 0, &base).unwrap();
        fs.create("/small").unwrap();
        fs.write("/small", 0, b"tiny file").unwrap();
        sync(&mut fs);
        // An in-place rewrite large enough for the local delta path.
        fs.write("/f", 200, &vec![0x5A; 16_000]).unwrap();
        fs.rename("/small", "/renamed").unwrap();
        sync(&mut fs);

        assert!(reference.stats().msgs_up >= 2);
        assert!(
            sys.report().client_cost.bytes_copied > 0,
            "no delta went up"
        );
        assert_eq!(sys.report().traffic, reference.stats());
        assert_eq!(sys.link.upload_busy_until(), reference.upload_busy_until());
        assert!(sys.outcomes().iter().all(|o| *o == ApplyOutcome::Applied));
        assert_eq!(sys.server().file("/f"), fs.peek_slice("/f").ok());
        assert_eq!(sys.server().file("/renamed"), Some(&b"tiny file"[..]));
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
