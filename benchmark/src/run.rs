//! One benchmark run: set-up, the timed closed loop, and the metrics.
//!
//! The untraced run drives the public facades and yields the end-to-end
//! metrics. The traced run replays the same operations through the
//! staged driver with spans on, checks it against the facade, runs the
//! layer probes, and yields the per-layer metrics.

use std::path::PathBuf;
use std::rc::Rc;
use std::time::Instant;

use deltacfs_core::{ApplyOutcome, DeltaCfsSystem, SyncEngine};
use deltacfs_delta::Cost;
use deltacfs_net::TrafficStats;
use deltacfs_obs::MetricValue;
use deltacfs_workloads::TimedOp;

use crate::config::ClientSetup;
use crate::driver::{iterate_hub, new_facade, Deployment, IterResult, SingleEngine};
use crate::meter::{median, peak_rss_mib, percentile};
use crate::probes::{hardlink_divergence, harvest_pair, run_probes, ProbeInputs, Values};
use crate::report::{end_to_end_metrics, per_layer_metrics, RunOutput};
use crate::spans::Recorder;
use crate::staged::{same_outcome, StagedStats, StagedSystem};
use crate::verify::Tally;
use crate::workloads::{generate, HubSpec, HugeSaves, OpSource, Size, Spec, Workload};

const MIB: f64 = 1024.0 * 1024.0;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Fewest timed iterations of an untraced run.
const MIN_ITERATIONS: u64 = 4;
/// Pooled latency samples a p99 needs (ten beyond it).
const MIN_SAMPLES: usize = 1000;
/// A run that cannot pool enough samples stops after this many times
/// its `--seconds`.
const OVERRUN_FACTOR: f64 = 8.0;
/// Shards of the `shard` probe for single-client workloads.
const PROBE_SHARDS: usize = 8;

/// What to run.
#[derive(Debug, Clone)]
pub struct RunArgs {
    /// The workload.
    pub workload: Workload,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Seconds the timed loop measures for.
    pub seconds: f64,
    /// Run exactly this many timed iterations instead of measuring for
    /// `seconds`: both sides of a comparison then do identical work and
    /// every count repeats exactly.
    pub iterations: Option<u64>,
    /// Traced (per-layer) or untraced (end-to-end) run.
    pub trace: bool,
    /// Full or smoke sizes.
    pub size: Size,
    /// Scratch directory for the durable-store probes.
    pub tmp_dir: PathBuf,
    /// Where to write the Chrome trace of a traced run, if anywhere.
    pub trace_out: Option<PathBuf>,
}

/// A generated workload, set up and warmed, ready for timed iterations.
enum Prepared {
    Fixed {
        setup: ClientSetup,
        ops: Vec<TimedOp>,
    },
    Saves {
        saves: HugeSaves,
        facade: Box<Deployment<DeltaCfsSystem>>,
    },
    Hub(HubSpec),
}

/// Set-up: trace generation, base-file materialisation and initial sync,
/// and one discarded warm-up iteration.
fn set_up(args: &RunArgs) -> Prepared {
    let off = Recorder::new(false);
    let mut lat = Vec::new();
    match generate(args.workload, args.seed, args.size) {
        Spec::Single(single) => match single.source {
            OpSource::Fixed(ops) => {
                Deployment::new(|c| new_facade(&single.setup, c)).iterate(&ops, &off, &mut lat);
                Prepared::Fixed {
                    setup: single.setup,
                    ops,
                }
            }
            OpSource::Saves(mut saves) => {
                let mut facade = Box::new(Deployment::new(|c| new_facade(&single.setup, c)));
                facade.iterate(&std::mem::take(&mut saves.base), &off, &mut lat);
                let (warm, _) = saves.next_save();
                facade.iterate(&warm, &off, &mut lat);
                Prepared::Saves { saves, facade }
            }
        },
        Spec::Hub(spec) => {
            iterate_hub(&spec, false, &off, &mut lat);
            Prepared::Hub(spec)
        }
    }
}

/// Sums over the timed iterations of one driver.
#[derive(Default)]
struct Totals {
    iterations: u64,
    walls: Vec<f64>,
    mib_s: Vec<f64>,
    peaks_mib: Vec<f64>,
    update_bytes: u64,
    ops: u64,
    cpu_user_s: f64,
    cpu_sys_s: f64,
    alloc_bytes: u64,
    alloc_calls: u64,
    traffic: TrafficStats,
    lat_ns: Vec<u64>,
    tally: Tally,
}

impl Totals {
    fn add(&mut self, r: IterResult) {
        self.iterations += 1;
        self.walls.push(r.measured.wall_s);
        self.mib_s
            .push(r.counts.update_bytes as f64 / MIB / r.measured.wall_s);
        self.peaks_mib
            .push(r.measured.peak_growth_bytes as f64 / MIB);
        self.update_bytes += r.counts.update_bytes;
        self.ops += r.counts.ops;
        self.cpu_user_s += r.measured.cpu.user_s;
        self.cpu_sys_s += r.measured.cpu.sys_s;
        self.alloc_bytes += r.measured.alloc_bytes;
        self.alloc_calls += r.measured.alloc_calls;
        self.traffic.merge(&r.traffic);
        self.tally.absorb(r.tally);
    }

    fn update_mib(&self) -> f64 {
        self.update_bytes as f64 / MIB
    }

    fn process_metrics(&self, out: &mut Values) {
        out.insert(
            "process.alloc_bytes_per_update_byte",
            self.alloc_bytes as f64 / self.update_bytes.max(1) as f64,
        );
        out.insert(
            "process.alloc_calls_per_op",
            self.alloc_calls as f64 / self.ops.max(1) as f64,
        );
        let cpu = self.cpu_user_s + self.cpu_sys_s;
        if cpu > 0.0 {
            out.insert("process.sys_cpu_share", self.cpu_sys_s / cpu);
        }
        out.insert("process.peak_rss_mib", peak_rss_mib().unwrap_or(0.0));
    }
}

fn finish(
    tally: Tally,
    metrics: Vec<crate::report::Metric>,
    iterations: u64,
    samples: u64,
) -> RunOutput {
    RunOutput {
        correct: tally.failed == 0,
        attempted: tally.attempted.max(1),
        failed: tally.failed,
        metrics,
        iterations,
        samples,
        notes: tally.notes,
    }
}

fn run_untraced(args: &RunArgs) -> RunOutput {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut prepared = None;
    for _ in 0..SETUPS {
        // Free the previous set-up first: it is not part of this one.
        drop(prepared.take());
        let t = Instant::now();
        prepared = Some(set_up(args));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut prepared = prepared.expect("SETUPS is at least one");

    let off = Recorder::new(false);
    let mut totals = Totals::default();
    let started = Instant::now();
    loop {
        let lat = &mut totals.lat_ns;
        let r = match &mut prepared {
            Prepared::Fixed { setup, ops } => {
                Deployment::new(|c| new_facade(setup, c)).iterate(ops, &off, lat)
            }
            Prepared::Saves { saves, facade, .. } => {
                let (ops, _) = saves.next_save();
                facade.iterate(&ops, &off, lat)
            }
            Prepared::Hub(spec) => iterate_hub(spec, false, &off, lat).0,
        };
        totals.add(r);
        let elapsed = started.elapsed().as_secs_f64();
        let enough = totals.iterations >= MIN_ITERATIONS && totals.lat_ns.len() >= MIN_SAMPLES;
        let done = match args.iterations {
            Some(n) => totals.iterations >= n,
            None => (elapsed >= args.seconds && enough) || elapsed >= args.seconds * OVERRUN_FACTOR,
        };
        if done {
            break;
        }
    }

    let mut lat_us: Vec<f64> = totals.lat_ns.iter().map(|&ns| ns as f64 / 1e3).collect();
    let p50 = percentile(&mut lat_us, 50.0).expect("at least one operation ran");
    // Sized workloads always pool enough samples; a run cut short (by
    // `--iterations` or the overrun cap) reports its slowest operation
    // instead, and says so.
    let p99 = percentile(&mut lat_us, 99.0).unwrap_or_else(|| {
        totals.tally.notes.push(format!(
            "only {} latency samples: op_p99_us is the maximum",
            lat_us.len()
        ));
        lat_us[lat_us.len() - 1]
    });
    let cpu_ms = (totals.cpu_user_s + totals.cpu_sys_s) * 1e3;
    let metrics = end_to_end_metrics(&[
        ("sync_mib_s", median(&totals.mib_s).expect("iterations ran")),
        ("cpu_ms_per_mib", cpu_ms / totals.update_mib()),
        ("op_p50_us", p50),
        ("op_p99_us", p99),
        (
            "wire_bytes_per_update_byte",
            totals.traffic.total_bytes() as f64 / totals.update_bytes as f64,
        ),
        (
            "peak_mem_mib",
            median(&totals.peaks_mib).expect("iterations ran"),
        ),
        ("setup_s", median(&setup_s).expect("set-ups ran")),
    ]);
    let samples = totals.lat_ns.len() as u64;
    finish(totals.tally, metrics, totals.iterations, samples)
}

fn cost_delta(now: Cost, before: Cost) -> Cost {
    Cost {
        bytes_rolled: now.bytes_rolled - before.bytes_rolled,
        bytes_strong_hashed: now.bytes_strong_hashed - before.bytes_strong_hashed,
        bytes_compared: now.bytes_compared - before.bytes_compared,
        bytes_chunked: now.bytes_chunked - before.bytes_chunked,
        bytes_compressed: now.bytes_compressed - before.bytes_compressed,
        bytes_copied: now.bytes_copied - before.bytes_copied,
        bytes_engine_read: now.bytes_engine_read - before.bytes_engine_read,
        ops: now.ops - before.ops,
    }
}

/// What the facade-versus-staged loop of a traced run leaves behind.
struct SoloTrace {
    /// Facade iterations (every one is untraced).
    facade: Totals,
    /// Client cost over the facade iterations.
    facade_cost: Cost,
    /// Conflicts among, and count of, the facade's apply outcomes.
    conflicts: u64,
    outcomes: u64,
    duplicates_ignored: u64,
    staged_stats: StagedStats,
    staged_walls_traced: Vec<f64>,
    staged_walls_untraced: Vec<f64>,
    traced_iterations: u64,
    /// Probe results on the last iteration's inputs.
    probes: Values,
}

fn count_conflicts(outcomes: &[ApplyOutcome]) -> u64 {
    outcomes
        .iter()
        .filter(|o| matches!(o, ApplyOutcome::Conflict { .. }))
        .count() as u64
}

/// One client's operations through the facade and through the staged
/// driver, alternating traced and untraced staged iterations, for about
/// `budget_s` seconds (at least one of each). Every iteration checks the
/// staged driver against the facade.
#[allow(clippy::too_many_lines)]
fn trace_solo(
    args: &RunArgs,
    setup: ClientSetup,
    source: OpSource,
    shards: usize,
    budget_s: f64,
    rec: &Rc<Recorder>,
    tally: &mut Tally,
) -> SoloTrace {
    let off = Recorder::new(false);
    let make_staged = |c: &deltacfs_net::SimClock| StagedSystem::new(&setup, c, Rc::clone(rec));
    let mut facade_totals = Totals::default();
    let mut staged_lat = Vec::new();
    let mut out = SoloTrace {
        facade: Totals::default(),
        facade_cost: Cost::new(),
        conflicts: 0,
        outcomes: 0,
        duplicates_ignored: 0,
        staged_stats: StagedStats::default(),
        staged_walls_traced: Vec::new(),
        staged_walls_untraced: Vec::new(),
        traced_iterations: 0,
        probes: Values::new(),
    };

    let (fixed, mut saves) = match source {
        OpSource::Fixed(ops) => (ops, None),
        OpSource::Saves(saves) => (Vec::new(), Some(saves)),
    };
    // `huge_save` keeps one deployment of each kind for the whole run;
    // both sync the base file first, untimed and untraced.
    let mut persistent = saves.as_mut().map(|saves| {
        let base = std::mem::take(&mut saves.base);
        let mut facade = Deployment::new(|c| new_facade(&setup, c));
        facade.iterate(&base, &off, &mut staged_lat);
        let mut staged = Deployment::new(make_staged);
        staged.iterate(&base, &off, &mut staged_lat);
        (facade, staged)
    });

    // Iteration 0 is a discarded warm-up; after it traced and untraced
    // staged iterations alternate.
    let mut started = Instant::now();
    for i in 0u64.. {
        let traced = !i.is_multiple_of(2);
        // `huge_save`: this iteration's save and the content it replaces.
        let saved = saves.as_mut().map(HugeSaves::next_save);
        let ops: &[TimedOp] = saved.as_ref().map_or(&fixed, |(ops, _)| ops);
        let (mut fresh_facade, mut fresh_staged);
        let (facade, staged) = match &mut persistent {
            Some((f, s)) => (f, s),
            None => {
                fresh_facade = Deployment::new(|c| new_facade(&setup, c));
                fresh_staged = Deployment::new(make_staged);
                (&mut fresh_facade, &mut fresh_staged)
            }
        };
        let cost_before = facade.engine.report().client_cost;
        let outcomes_before = SingleEngine::outcomes(&facade.engine).len();

        let f = facade.iterate(ops, &off, &mut facade_totals.lat_ns);
        rec.set_enabled(traced);
        let r = staged.iterate(ops, rec, &mut staged_lat);
        rec.set_enabled(false);
        let stats = std::mem::take(&mut staged.engine.stats);
        if i == 0 {
            staged.engine.harvest.groups.clear();
            facade_totals.lat_ns.clear();
            started = Instant::now();
            continue;
        }
        facade_totals.add(f);
        if traced {
            out.traced_iterations += 1;
            out.staged_walls_traced.push(r.measured.wall_s);
        } else {
            out.staged_walls_untraced.push(r.measured.wall_s);
        }
        tally.absorb(r.tally);
        let same = same_outcome(&facade.engine, &staged.engine);
        tally.check(same.is_ok(), || {
            format!(
                "staged driver diverged from the facade: {}",
                same.unwrap_err()
            )
        });

        out.facade_cost
            .merge(&cost_delta(facade.engine.report().client_cost, cost_before));
        out.staged_stats.add(&stats);
        let new_outcomes = &SingleEngine::outcomes(&facade.engine)[outcomes_before..];
        out.conflicts += count_conflicts(new_outcomes);
        out.outcomes += new_outcomes.len() as u64;
        out.duplicates_ignored = SingleEngine::server(&facade.engine).duplicates_ignored();

        // At least one traced and one untraced iteration after the warm-up.
        let done = match args.iterations {
            Some(n) => i >= n.max(2),
            None => i >= 2 && started.elapsed().as_secs_f64() >= budget_s,
        };
        let groups = std::mem::take(&mut staged.engine.harvest.groups);
        if done {
            // Probes run on this last iteration's inputs.
            let harvested;
            let pair = match (&saved, &saves) {
                (Some((_, old)), Some(saves)) => Some((&old[..], saves.content())),
                _ => {
                    harvested = harvest_pair(ops);
                    harvested.as_ref().map(|(old, new)| (&old[..], &new[..]))
                }
            };
            out.probes = run_probes(
                &ProbeInputs {
                    setup: &setup,
                    ops,
                    pair,
                    groups: &groups,
                    server: SingleEngine::server(&facade.engine),
                    tmp_dir: &args.tmp_dir,
                    shards,
                },
                tally,
            );
            break;
        }
    }
    tally.absorb(std::mem::take(&mut facade_totals.tally));
    out.facade = facade_totals;
    out
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Layer metrics of the client-to-cloud path, from the staged driver's
/// spans and boundary counts (per traced iteration) and the facade's
/// cost counters.
fn solo_metrics(solo: &SoloTrace, rec: &Recorder, out: &mut Values) {
    let totals = rec.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let n = solo.traced_iterations.max(1);
    let iters = solo.facade.iterations.max(1) as f64;
    let stats = &solo.staged_stats;
    let update_per_iter = solo.facade.update_bytes as f64 / iters;
    let per_iter = |v: u64| v as f64 / iters;

    out.insert(
        "vfs.write_ns_per_byte",
        ratio(get("vfs.write").total_ns as f64 / n as f64, update_per_iter),
    );
    let events = get("client.handle_event");
    let closes = get("client.close");
    out.insert(
        "client.handle_event_ns_per_op",
        ratio(
            (events.total_ns + closes.total_ns) as f64,
            (events.count + closes.count) as f64,
        ),
    );
    out.insert(
        "client.close_ns_per_byte",
        ratio(
            closes.total_ns as f64 / n as f64,
            per_iter(stats.close_pending_bytes),
        ),
    );
    out.insert("client.close_busy_ms", ms(closes.total_ns / n));
    out.insert("client.tick_busy_ms", ms(get("client.tick").total_ns / n));
    out.insert("client.groups", per_iter(stats.groups));
    out.insert(
        "client.msgs_per_group",
        ratio(stats.msgs as f64, stats.groups as f64),
    );
    let content = (stats.rpc_msgs + stats.delta_msgs + stats.full_msgs) as f64;
    out.insert(
        "client.rpc_msg_share",
        ratio(stats.rpc_msgs as f64, content),
    );
    out.insert(
        "client.delta_msg_share",
        ratio(stats.delta_msgs as f64, content),
    );
    out.insert(
        "client.full_msg_share",
        ratio(stats.full_msgs as f64, content),
    );

    out.insert(
        "codec.encode_busy_ms",
        ms(get("codec.encode_frame").total_ns / n),
    );
    out.insert(
        "codec.compressed_frame_share",
        ratio(stats.compressed_frames as f64, stats.frames as f64),
    );
    out.insert(
        "codec.saved_byte_share",
        ratio(
            stats.codec_saved_bytes as f64,
            stats.group_wire_bytes as f64,
        ),
    );
    out.insert(
        "pipeline.frame_group_busy_ms",
        ms(get("pipeline.frame_group").self_ns / n),
    );
    out.insert(
        "pipeline.stager_accept_busy_ms",
        ms(get("pipeline.stager_accept").total_ns / n),
    );
    out.insert("pipeline.frames", per_iter(stats.frames));
    out.insert("pipeline.max_frame_bytes", stats.max_frame_bytes as f64);
    out.insert("net.sim_upload_ms", per_iter(stats.sim_upload_ms));

    let apply = get("server.apply");
    out.insert("server.apply_busy_ms", ms(apply.total_ns / n));
    out.insert(
        "server.apply_ns_per_byte",
        ratio(
            apply.total_ns as f64 / n as f64,
            per_iter(stats.group_wire_bytes),
        ),
    );
    let mut apply_us: Vec<f64> = rec
        .durations("server.apply")
        .into_iter()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    out.insert(
        "server.apply_us_p50",
        percentile(&mut apply_us, 50.0).unwrap_or(0.0),
    );
    // 0 when fewer than ten groups lie beyond the percentile.
    out.insert(
        "server.apply_us_p99",
        percentile(&mut apply_us, 99.0).unwrap_or(0.0),
    );
    out.insert("server.groups", per_iter(stats.groups));
    out.insert("server.duplicates_ignored", solo.duplicates_ignored as f64);
    out.insert(
        "server.conflict_share",
        ratio(solo.conflicts as f64, solo.outcomes as f64),
    );

    let update = solo.facade.update_bytes as f64;
    let cost = &solo.facade_cost;
    out.insert(
        "vfs.engine_read_bytes_per_update_byte",
        ratio(cost.bytes_engine_read as f64, update),
    );
    out.insert(
        "delta.bytes_rolled_per_update_byte",
        ratio(cost.bytes_rolled as f64, update),
    );
    out.insert(
        "delta.bytes_compared_per_update_byte",
        ratio(cost.bytes_compared as f64, update),
    );
    out.insert(
        "delta.bytes_copied_per_update_byte",
        ratio(cost.bytes_copied as f64, update),
    );
    out.insert(
        "driver.staged_vs_facade_wall",
        ratio(
            median(&solo.staged_walls_untraced).unwrap_or(0.0),
            median(&solo.facade.walls).unwrap_or(0.0),
        ),
    );
    out.extend(solo.probes.iter().map(|(k, v)| (*k, *v)));
}

/// Driver-level metrics from the workload's own replay loop: `vfs.*`
/// spans, event delivery (`driver.on_event` or `multi.ingest`), and
/// ticks (`driver.tick`/`driver.finish` or `multi.pump`/`multi.flush`).
fn driver_metrics(
    rec: &Recorder,
    traced_iterations: u64,
    ops_per_iteration: f64,
    walls_traced: &[f64],
    walls_untraced: &[f64],
    out: &mut Values,
) {
    let totals = rec.totals();
    let sum = |names: &[&str]| -> u64 {
        names
            .iter()
            .map(|n| totals.get(n).map_or(0, |t| t.total_ns))
            .sum()
    };
    let n = traced_iterations.max(1);
    out.insert(
        "driver.vfs_apply_busy_ms",
        ms(sum(&["vfs.write", "vfs.op"]) / n),
    );
    out.insert(
        "driver.on_event_busy_ms",
        ms(sum(&["driver.on_event", "multi.ingest"]) / n),
    );
    out.insert(
        "driver.tick_busy_ms",
        ms(sum(&["driver.tick", "driver.finish", "multi.pump", "multi.flush"]) / n),
    );
    out.insert(
        "driver.layer_coverage_share",
        rec.layer_coverage("driver.replay"),
    );
    let traced = median(walls_traced).unwrap_or(0.0);
    let untraced = median(walls_untraced).unwrap_or(0.0);
    if untraced > 0.0 {
        out.insert("driver.trace_overhead_share", traced / untraced - 1.0);
    }
    out.insert("driver.traced_iterations", traced_iterations as f64);
    // The mean, like the busy_ms figures it is read against.
    let mean_wall = walls_traced.iter().sum::<f64>() / walls_traced.len().max(1) as f64;
    out.insert("driver.replay_wall_ms", mean_wall * 1e3);
    out.insert("driver.spans", rec.len() as f64);
    out.insert("driver.ops_per_iteration", ops_per_iteration);
}

fn net_metrics(t: &Totals, out: &mut Values) {
    let iters = t.iterations.max(1) as f64;
    out.insert("net.bytes_up", t.traffic.bytes_up as f64 / iters);
    out.insert("net.bytes_down", t.traffic.bytes_down as f64 / iters);
    out.insert("net.msgs_up", t.traffic.msgs_up as f64 / iters);
}

/// Sums a per-client counter of the hub's metric export.
fn sum_labeled(snap: &deltacfs_obs::Snapshot, name: &str, clients: usize) -> f64 {
    (1..=clients)
        .map(|c| match snap.get_labeled(name, &c.to_string()) {
            Some(MetricValue::Counter(v)) => *v as f64,
            _ => 0.0,
        })
        .sum()
}

/// The hub's own replay, alternating observed (spans and the hub's
/// metrics on) and plain iterations for about `budget_s` seconds.
fn trace_hub(
    spec: &HubSpec,
    budget_s: f64,
    iterations: Option<u64>,
    rec: &Recorder,
    tally: &mut Tally,
    out: &mut Values,
) {
    let mut plain = Totals::default();
    let (mut walls_traced, mut walls_plain) = (Vec::new(), Vec::new());
    let mut traced_iterations = 0u64;
    let mut lat = Vec::new();
    let (mut forward_groups, mut forward_chunks, mut retries, mut conflicts) = (0.0, 0.0, 0.0, 0.0);
    // A discarded warm-up, then observed and plain iterations alternate.
    iterate_hub(spec, false, rec, &mut lat);
    let started = Instant::now();
    let mut i = 0u64;
    loop {
        let observed = i.is_multiple_of(2);
        rec.set_enabled(observed);
        let (r, hub) = iterate_hub(spec, observed, rec, &mut lat);
        rec.set_enabled(false);
        if observed {
            traced_iterations += 1;
            walls_traced.push(r.measured.wall_s);
            let snap = hub.export_metrics();
            let clients = hub.client_count();
            forward_groups = sum_labeled(&snap, "forward_groups", clients);
            forward_chunks = sum_labeled(&snap, "forward_chunks", clients);
            retries = sum_labeled(&snap, "retry_retransmissions", clients);
            conflicts = hub.conflicts().len() as f64;
            tally.absorb(r.tally);
        } else {
            walls_plain.push(r.measured.wall_s);
            plain.add(r);
        }
        i += 1;
        let done = match iterations {
            Some(n) => i >= n.max(2),
            None => i >= 2 && started.elapsed().as_secs_f64() >= budget_s,
        };
        if done {
            break;
        }
    }
    tally.absorb(std::mem::take(&mut plain.tally));

    let n = traced_iterations.max(1);
    let mut pump_us: Vec<f64> = rec
        .durations("multi.pump")
        .into_iter()
        .map(|ns| ns as f64 / 1e3)
        .collect();
    out.insert(
        "multi.pump_us_p50",
        percentile(&mut pump_us, 50.0).unwrap_or(0.0),
    );
    out.insert(
        "multi.pump_us_p99",
        percentile(&mut pump_us, 99.0).unwrap_or(0.0),
    );
    let totals = rec.totals();
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    out.insert("multi.pump_busy_ms", ms(get("multi.pump").total_ns / n));
    let ingest = get("multi.ingest");
    out.insert(
        "multi.ingest_ns_per_op",
        ratio(ingest.total_ns as f64, ingest.count as f64),
    );
    out.insert("multi.flush_ms", ms(get("multi.flush").total_ns / n));
    out.insert("multi.forward_groups", forward_groups);
    out.insert("multi.forward_chunks", forward_chunks);
    out.insert("multi.retries", retries);
    out.insert("multi.conflicts", conflicts);
    out.insert(
        "multi.forward_bytes_per_update_byte",
        ratio(plain.traffic.bytes_down as f64, plain.update_bytes as f64),
    );
    out.insert(
        "multi.forward_bytes_per_upload_byte",
        ratio(
            plain.traffic.bytes_down as f64,
            plain.traffic.bytes_up as f64,
        ),
    );
    driver_metrics(
        rec,
        traced_iterations,
        spec.ops.len() as f64,
        &walls_traced,
        &walls_plain,
        out,
    );
    net_metrics(&plain, out);
    plain.process_metrics(out);
}

fn run_traced(args: &RunArgs) -> RunOutput {
    let mut tally = Tally::default();
    let mut values = Values::new();
    let solo_rec = Rc::new(Recorder::new(false));
    let hub_rec = Recorder::new(false);
    let (iterations, samples);
    // The recorder of the workload's own replay loop is the one written out.
    let written: &Recorder;
    match generate(args.workload, args.seed, args.size) {
        Spec::Single(single) => {
            let solo = trace_solo(
                args,
                single.setup,
                single.source,
                PROBE_SHARDS,
                args.seconds * 0.5,
                &solo_rec,
                &mut tally,
            );
            solo_metrics(&solo, &solo_rec, &mut values);
            driver_metrics(
                &solo_rec,
                solo.traced_iterations,
                solo.facade.ops as f64 / solo.facade.iterations.max(1) as f64,
                &solo.staged_walls_traced,
                &solo.staged_walls_untraced,
                &mut values,
            );
            net_metrics(&solo.facade, &mut values);
            solo.facade.process_metrics(&mut values);
            iterations = solo.facade.iterations;
            samples = solo.facade.lat_ns.len() as u64;
            written = &*solo_rec;
        }
        Spec::Hub(spec) => {
            // The upload path, layer by layer, through one staged client.
            let solo = trace_solo(
                args,
                spec.clients[0].1,
                OpSource::Fixed(spec.solo_ops()),
                spec.shards,
                args.seconds * 0.2,
                &solo_rec,
                &mut tally,
            );
            solo_metrics(&solo, &solo_rec, &mut values);
            // The hub itself: driver, net, process and multi metrics.
            trace_hub(
                &spec,
                args.seconds * 0.4,
                args.iterations,
                &hub_rec,
                &mut tally,
                &mut values,
            );
            iterations = solo.facade.iterations;
            samples = solo.facade.lat_ns.len() as u64;
            written = &hub_rec;
        }
    }
    values.insert(
        "multi.hardlink_failed_checks",
        hardlink_divergence(args.seed, args.size) as f64,
    );
    if let Some(path) = &args.trace_out {
        let wrote = std::fs::write(path, written.to_chrome_json());
        tally.check(wrote.is_ok(), || {
            format!("could not write {}", path.display())
        });
    }
    finish(tally, per_layer_metrics(&values), iterations, samples)
}

/// Runs the benchmark once.
pub fn run(args: &RunArgs) -> RunOutput {
    if args.trace {
        run_traced(args)
    } else {
        run_untraced(args)
    }
}
