//! The closed-loop load generator: one thread applies each operation,
//! delivers its events, and only then moves on. The same replay loops
//! drive the facades (`DeltaCfsSystem`, `SyncHub`) in the untraced run
//! and the staged driver in the traced one.

use std::time::Instant;

use deltacfs_core::{ApplyOutcome, CloudServer, DeltaCfsSystem, SyncEngine, SyncHub};
use deltacfs_net::{SimClock, TrafficStats};
use deltacfs_obs::Obs;
use deltacfs_vfs::{Vfs, VfsError};
use deltacfs_workloads::{TimedOp, TraceOp, TAIL_MS};

use crate::config::{bench_hub_config, ClientSetup};
use crate::meter::{alloc_snapshot, cpu_times, reset_peak, CpuTimes};
use crate::spans::{Recorder, SpanId};
use crate::verify::{scan_outcomes, verify_hub, verify_single, Tally};
use crate::workloads::HubSpec;

/// Cadence of the single-client engine's `tick`, in simulated ms — the
/// polling granularity `deltacfs_workloads::replay` documents.
pub const TICK_MS: u64 = 100;

/// What one replay did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCounts {
    /// Operations applied.
    pub ops: u64,
    /// Application bytes written.
    pub update_bytes: u64,
    /// Operations the file system refused.
    pub failed_ops: u64,
}

/// Resources one timed section used.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measured {
    /// Wall-clock seconds.
    pub wall_s: f64,
    /// Process CPU, all threads.
    pub cpu: CpuTimes,
    /// Allocation calls made.
    pub alloc_calls: u64,
    /// Bytes requested from the allocator.
    pub alloc_bytes: u64,
    /// Peak live heap above the level at the start of the section.
    pub peak_growth_bytes: u64,
}

/// Runs `f` as a timed section.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, Measured) {
    reset_peak();
    let a0 = alloc_snapshot();
    let cpu0 = cpu_times().unwrap_or_default();
    let t0 = Instant::now();
    let out = f();
    let wall_s = t0.elapsed().as_secs_f64();
    let cpu = cpu_times().unwrap_or_default().since(&cpu0);
    let a1 = alloc_snapshot();
    (
        out,
        Measured {
            wall_s,
            cpu,
            alloc_calls: a1.calls - a0.calls,
            alloc_bytes: a1.bytes - a0.bytes,
            peak_growth_bytes: a1.peak.saturating_sub(a0.live),
        },
    )
}

/// Everything one iteration produced.
#[derive(Debug, Clone, Default)]
pub struct IterResult {
    /// Resources of the timed replay.
    pub measured: Measured,
    /// Operation counts of the replay.
    pub counts: ReplayCounts,
    /// Traffic over all links during the iteration.
    pub traffic: TrafficStats,
    /// Verification after the replay (untimed).
    pub tally: Tally,
}

/// Applies one trace operation to a file system.
pub fn apply_op(op: &TraceOp, fs: &mut Vfs) -> Result<(), VfsError> {
    match op {
        TraceOp::Create(path) => fs.create(path),
        TraceOp::Mkdir(path) => fs.mkdir_all(path),
        TraceOp::Write { path, offset, data } => fs.write(path, *offset, data),
        TraceOp::Truncate { path, size } => fs.truncate(path, *size),
        TraceOp::Rename { src, dst } => fs.rename(src, dst),
        TraceOp::Link { src, dst } => fs.link(src, dst),
        TraceOp::Unlink(path) => fs.unlink(path),
        TraceOp::Close(path) => fs.close_path(path),
        TraceOp::Fsync(path) => fs.fsync(path),
    }
}

/// Applies one operation inside a `vfs.*` span and counts it.
fn timed_apply(op: &TraceOp, fs: &mut Vfs, idx: u64, rec: &Recorder, counts: &mut ReplayCounts) {
    let name = match op {
        TraceOp::Write { .. } => "vfs.write",
        _ => "vfs.op",
    };
    let result = {
        let _s = rec.span(name, SpanId::Op(idx));
        apply_op(op, fs)
    };
    counts.ops += 1;
    if let TraceOp::Write { data, .. } = op {
        counts.update_bytes += data.len() as u64;
    }
    if result.is_err() {
        counts.failed_ops += 1;
    }
}

/// Replays `ops` through one engine, as `deltacfs_workloads::replay`
/// does, timing how long each operation blocks the application (the
/// `Vfs` call plus delivery of its events) into `lat_ns`.
pub fn replay_single(
    ops: &[TimedOp],
    fs: &mut Vfs,
    engine: &mut dyn SyncEngine,
    clock: &SimClock,
    rec: &Recorder,
    lat_ns: &mut Vec<u64>,
) -> ReplayCounts {
    let _root = rec.span("driver.replay", SpanId::None);
    let mut counts = ReplayCounts::default();
    let start = clock.now();
    let tick_until = |target, fs: &Vfs, engine: &mut dyn SyncEngine| {
        while clock.now() < target {
            clock.advance(TICK_MS.min(target.since(clock.now())));
            let _s = rec.span("driver.tick", SpanId::None);
            engine.tick(fs);
        }
    };
    for (i, timed) in ops.iter().enumerate() {
        tick_until(start.plus_millis(timed.at_ms), fs, engine);
        let t0 = Instant::now();
        timed_apply(&timed.op, fs, i as u64, rec, &mut counts);
        {
            let _s = rec.span("driver.on_event", SpanId::Op(i as u64));
            for event in fs.drain_events() {
                engine.on_event(&event, fs);
            }
        }
        lat_ns.push(t0.elapsed().as_nanos() as u64);
    }
    tick_until(clock.now().plus_millis(TAIL_MS), fs, engine);
    let _s = rec.span("driver.finish", SpanId::None);
    engine.finish(fs);
    counts
}

/// Replays a hub workload: `ingest` after every operation, a pump every
/// `pump_every_ms` of simulated time, a drain tail, then `flush`.
pub fn replay_hub(
    spec: &HubSpec,
    hub: &mut SyncHub,
    clock: &SimClock,
    rec: &Recorder,
    lat_ns: &mut Vec<u64>,
) -> ReplayCounts {
    let _root = rec.span("driver.replay", SpanId::None);
    let mut counts = ReplayCounts::default();
    let start = clock.now();
    let mut next_pump = start.plus_millis(spec.pump_every_ms);
    let mut pump_until = |target, hub: &mut SyncHub| {
        while next_pump <= target {
            clock.advance_to(next_pump);
            next_pump = next_pump.plus_millis(spec.pump_every_ms);
            let _s = rec.span("multi.pump", SpanId::None);
            if spec.parallel {
                hub.pump_parallel();
            } else {
                hub.pump();
            }
        }
        clock.advance_to(target);
    };
    for (i, (client, timed)) in spec.ops.iter().enumerate() {
        pump_until(start.plus_millis(timed.at_ms), hub);
        let t0 = Instant::now();
        timed_apply(&timed.op, hub.fs_mut(*client), i as u64, rec, &mut counts);
        {
            let _s = rec.span("multi.ingest", SpanId::Op(i as u64));
            hub.ingest(*client);
        }
        lat_ns.push(t0.elapsed().as_nanos() as u64);
    }
    pump_until(clock.now().plus_millis(TAIL_MS), hub);
    let _s = rec.span("multi.flush", SpanId::None);
    if spec.parallel {
        hub.flush_parallel();
    } else {
        hub.flush();
    }
    counts
}

/// A single-client deployment the replay loop can drive and the
/// verifier can inspect: the facade, or the staged driver.
pub trait SingleEngine: SyncEngine {
    /// The cloud server.
    fn server(&self) -> &CloudServer;
    /// Apply outcomes so far.
    fn outcomes(&self) -> &[ApplyOutcome];
}

impl SingleEngine for DeltaCfsSystem {
    fn server(&self) -> &CloudServer {
        DeltaCfsSystem::server(self)
    }
    fn outcomes(&self) -> &[ApplyOutcome] {
        DeltaCfsSystem::outcomes(self)
    }
}

/// Builds the facade for `setup`.
pub fn new_facade(setup: &ClientSetup, clock: &SimClock) -> DeltaCfsSystem {
    let mut sys = DeltaCfsSystem::new(setup.cfg, clock.clone(), setup.link);
    sys.set_platform(setup.platform);
    sys
}

fn traffic_since(now: TrafficStats, before: TrafficStats) -> TrafficStats {
    TrafficStats {
        bytes_up: now.bytes_up - before.bytes_up,
        bytes_down: now.bytes_down - before.bytes_down,
        msgs_up: now.msgs_up - before.msgs_up,
        msgs_down: now.msgs_down - before.msgs_down,
    }
}

/// One engine, its file system and its clock.
pub struct Deployment<E> {
    /// The engine under test.
    pub engine: E,
    /// The client's file system.
    pub fs: Vfs,
    /// The simulated clock both share.
    pub clock: SimClock,
    outcomes_seen: usize,
    traffic_seen: TrafficStats,
}

impl<E: SingleEngine> Deployment<E> {
    /// Wraps a freshly built engine (`make` receives the clock).
    pub fn new(make: impl FnOnce(&SimClock) -> E) -> Self {
        let clock = SimClock::new();
        let mut fs = Vfs::new();
        fs.enable_event_log();
        Deployment {
            engine: make(&clock),
            fs,
            clock,
            outcomes_seen: 0,
            traffic_seen: TrafficStats::default(),
        }
    }

    /// Replays `ops` as one timed iteration, then verifies the whole
    /// deployment. A deployment may be iterated more than once
    /// (`huge_save`): outcomes and traffic are per iteration.
    pub fn iterate(
        &mut self,
        ops: &[TimedOp],
        rec: &Recorder,
        lat_ns: &mut Vec<u64>,
    ) -> IterResult {
        let (counts, measured) = measure(|| {
            replay_single(
                ops,
                &mut self.fs,
                &mut self.engine,
                &self.clock,
                rec,
                lat_ns,
            )
        });
        let mut tally = Tally {
            attempted: counts.ops,
            failed: counts.failed_ops,
            notes: Vec::new(),
        };
        let outcomes = self.engine.outcomes();
        scan_outcomes(&outcomes[self.outcomes_seen..], &mut tally);
        self.outcomes_seen = outcomes.len();
        verify_single(self.engine.server(), &self.fs, &mut tally);
        let now = self.engine.report().traffic;
        let traffic = traffic_since(now, self.traffic_seen);
        self.traffic_seen = now;
        IterResult {
            measured,
            counts,
            traffic,
            tally,
        }
    }
}

/// Builds a hub for `spec`; `observed` switches the hub's own metrics,
/// latency histogram and span profiling on (traced runs only).
pub fn new_hub(spec: &HubSpec, clock: &SimClock, observed: bool) -> SyncHub {
    let mut hub = SyncHub::with_config(clock.clone(), bench_hub_config(spec.shards, observed));
    if observed {
        hub.enable_observability(Obs::new());
    }
    for (namespace, setup) in &spec.clients {
        hub.add_client_in(namespace, setup.cfg, setup.link);
    }
    hub
}

/// One timed iteration of a hub workload on a fresh hub, then
/// verification of every replica. Returns the hub for inspection.
pub fn iterate_hub(
    spec: &HubSpec,
    observed: bool,
    rec: &Recorder,
    lat_ns: &mut Vec<u64>,
) -> (IterResult, SyncHub) {
    let clock = SimClock::new();
    let mut hub = new_hub(spec, &clock, observed);
    let (counts, measured) = measure(|| replay_hub(spec, &mut hub, &clock, rec, lat_ns));
    let mut tally = Tally {
        attempted: counts.ops,
        failed: counts.failed_ops,
        notes: Vec::new(),
    };
    scan_outcomes(hub.server_outcomes(), &mut tally);
    verify_hub(&hub, &mut tally);
    let mut traffic = TrafficStats::default();
    for c in 0..hub.client_count() {
        traffic.merge(&hub.traffic(c));
    }
    (
        IterResult {
            measured,
            counts,
            traffic,
            tally,
        },
        hub,
    )
}
