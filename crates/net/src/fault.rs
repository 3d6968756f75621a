//! Deterministic fault injection for the simulated network.
//!
//! A [`FaultSpec`] describes *what* can go wrong — upload/download loss,
//! duplicated and reordered deliveries, mid-upload server crashes, client
//! disconnect windows — and a [`FaultPlan`] turns it into a reproducible
//! stream of decisions: every verdict is a pure function of the spec's
//! seed and the sequence of calls made against the plan. Replaying the
//! same workload against the same spec yields byte-identical fault
//! schedules, which is what makes failing seeds reproducible.
//!
//! The plan is consulted by the client/server RPC pump in
//! `deltacfs-core` — one upload verdict per attempt, one loss draw per
//! download — and [`SimTime`] anchors the disconnect windows to the
//! shared virtual clock.

use rand::{Rng, SeedableRng, StdRng};

use crate::clock::SimTime;

/// When, relative to applying an uploaded group, the server crashes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPhase {
    /// The server dies after receiving the upload but *before* applying
    /// it: the group is lost and must be retransmitted.
    BeforeApply,
    /// The server dies after applying (and persisting) the group but
    /// before the acknowledgement reaches the client: the client retries
    /// and the server must deduplicate.
    AfterApply,
}

/// A scheduled server crash, keyed on the 1-based index of the upload
/// attempt that triggers it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPoint {
    /// Which upload attempt (1-based, counted across all clients) dies.
    pub at_upload: u64,
    /// Whether the group had been applied when the server died.
    pub phase: CrashPhase,
}

/// A window of simulated time during which one client has no network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DisconnectWindow {
    /// The disconnected client (hub slot index).
    pub client: usize,
    /// Window start, inclusive (ms of simulated time).
    pub from_ms: u64,
    /// Window end, exclusive.
    pub until_ms: u64,
}

impl DisconnectWindow {
    /// Whether `now` falls inside the window.
    pub fn contains(&self, now: SimTime) -> bool {
        (self.from_ms..self.until_ms).contains(&now.as_millis())
    }
}

/// Declarative description of the faults to inject.
///
/// Probabilities are per-event; scheduled events (`crash_points`,
/// `drop_uploads`, `disconnects`) fire deterministically regardless of
/// the probabilistic draws, so tests can pin exact failure scenarios.
#[derive(Debug, Clone, Default)]
pub struct FaultSpec {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// Probability that a client→server upload is lost in transit.
    pub upload_drop: f64,
    /// Probability that a server→client transfer (ack or forwarded
    /// update) is lost in transit.
    pub download_drop: f64,
    /// Probability that a delivered upload arrives twice.
    pub duplicate: f64,
    /// Probability that a duplicated copy is *reordered* — held back and
    /// delivered only after a later group.
    pub reorder: f64,
    /// Upload attempts (1-based indices) that are dropped unconditionally.
    pub drop_uploads: Vec<u64>,
    /// Scheduled server crashes.
    pub crash_points: Vec<CrashPoint>,
    /// Client offline windows.
    pub disconnects: Vec<DisconnectWindow>,
}

impl FaultSpec {
    /// A spec that injects nothing (useful as a baseline cell).
    pub fn clean(seed: u64) -> Self {
        FaultSpec {
            seed,
            ..FaultSpec::default()
        }
    }

    /// Sets the probabilistic loss/duplication rates.
    pub fn with_rates(mut self, upload_drop: f64, download_drop: f64, duplicate: f64) -> Self {
        self.upload_drop = upload_drop;
        self.download_drop = download_drop;
        self.duplicate = duplicate;
        self
    }

    /// Sets the reorder probability for duplicated deliveries.
    pub fn with_reorder(mut self, reorder: f64) -> Self {
        self.reorder = reorder;
        self
    }

    /// Schedules a server crash at the given upload attempt.
    pub fn with_crash(mut self, at_upload: u64, phase: CrashPhase) -> Self {
        self.crash_points.push(CrashPoint { at_upload, phase });
        self
    }

    /// Drops the given upload attempt unconditionally.
    pub fn with_dropped_upload(mut self, at_upload: u64) -> Self {
        self.drop_uploads.push(at_upload);
        self
    }

    /// Takes `client` offline for `[from_ms, until_ms)`.
    pub fn with_disconnect(mut self, client: usize, from_ms: u64, until_ms: u64) -> Self {
        self.disconnects.push(DisconnectWindow {
            client,
            from_ms,
            until_ms,
        });
        self
    }
}

deltacfs_obs::metric_struct! {
    /// Counters describing what the plan actually injected.
    ///
    /// Defined through [`metric_struct!`](deltacfs_obs::metric_struct) so
    /// topology aggregation ([`Merge`](deltacfs_obs::Merge)) and registry
    /// export ([`FaultStats::export_counters`]) always cover every field —
    /// a new fault kind can't be silently dropped from either.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct FaultStats {
        /// Upload attempts that reached the verdict stage (client online).
        pub uploads_attempted: u64,
        /// Uploads lost in transit.
        pub uploads_dropped: u64,
        /// Uploads delivered twice.
        pub uploads_duplicated: u64,
        /// Duplicated copies held back and delivered out of order.
        pub duplicates_reordered: u64,
        /// Server→client transfers lost (acks and forwarded updates).
        pub downloads_dropped: u64,
        /// Server crashes before applying the in-flight group.
        pub crashes_before_apply: u64,
        /// Server crashes after applying (ack lost).
        pub crashes_after_apply: u64,
        /// Sends suppressed because the client was inside a disconnect window.
        pub disconnected_sends: u64,
    }
}

impl FaultStats {
    /// Total injections of any kind that actually fired (excludes
    /// `uploads_attempted`, which counts opportunities, not faults).
    pub fn total_fired(&self) -> u64 {
        self.uploads_dropped
            + self.uploads_duplicated
            + self.duplicates_reordered
            + self.downloads_dropped
            + self.crashes_before_apply
            + self.crashes_after_apply
            + self.disconnected_sends
    }
}

/// The verdict for one upload attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UploadVerdict {
    /// The client is offline: nothing goes on the wire.
    Disconnected,
    /// The bytes went out but never arrived.
    Dropped,
    /// The upload arrived but the server died before applying it.
    CrashBeforeApply,
    /// The upload arrived and was applied.
    Delivered {
        /// The network delivered a second copy of the group.
        duplicate: bool,
        /// The server died right after applying, losing the ack.
        crash_after_apply: bool,
    },
}

/// A seeded, stateful decision stream realizing a [`FaultSpec`].
#[derive(Debug, Clone)]
pub struct FaultPlan {
    spec: FaultSpec,
    rng: StdRng,
    upload_seq: u64,
    stats: FaultStats,
}

impl FaultPlan {
    /// Instantiates the plan; all randomness derives from `spec.seed`.
    pub fn new(spec: FaultSpec) -> Self {
        let rng = StdRng::seed_from_u64(spec.seed ^ 0x5de1_7acf_5f4a_11a7);
        FaultPlan {
            spec,
            rng,
            upload_seq: 0,
            stats: FaultStats::default(),
        }
    }

    /// The spec this plan realizes.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// What the plan has injected so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether `client` is inside a disconnect window at `now`.
    pub fn is_disconnected(&self, client: usize, now: SimTime) -> bool {
        self.spec
            .disconnects
            .iter()
            .any(|w| w.client == client && w.contains(now))
    }

    /// When `client`'s current disconnect window ends, if it is inside one.
    pub fn disconnect_until(&self, client: usize, now: SimTime) -> Option<SimTime> {
        self.spec
            .disconnects
            .iter()
            .filter(|w| w.client == client && w.contains(now))
            .map(|w| SimTime(w.until_ms))
            .max()
    }

    /// Decides the fate of the next upload attempt from `client`.
    ///
    /// Consumes the same number of random draws for every delivered
    /// attempt, so scheduled events do not shift the probabilistic
    /// stream underneath reruns with different crash schedules.
    pub fn upload_verdict(&mut self, client: usize, now: SimTime) -> UploadVerdict {
        if self.is_disconnected(client, now) {
            self.stats.disconnected_sends += 1;
            return UploadVerdict::Disconnected;
        }
        self.upload_seq += 1;
        self.stats.uploads_attempted += 1;
        let seq = self.upload_seq;
        let drop_draw = self.rng.gen_bool(self.spec.upload_drop.clamp(0.0, 1.0));
        let dup_draw = self.rng.gen_bool(self.spec.duplicate.clamp(0.0, 1.0));
        if let Some(cp) = self.spec.crash_points.iter().find(|cp| cp.at_upload == seq) {
            match cp.phase {
                CrashPhase::BeforeApply => {
                    self.stats.crashes_before_apply += 1;
                    return UploadVerdict::CrashBeforeApply;
                }
                CrashPhase::AfterApply => {
                    self.stats.crashes_after_apply += 1;
                    return UploadVerdict::Delivered {
                        duplicate: false,
                        crash_after_apply: true,
                    };
                }
            }
        }
        if self.spec.drop_uploads.contains(&seq) || drop_draw {
            self.stats.uploads_dropped += 1;
            return UploadVerdict::Dropped;
        }
        if dup_draw {
            self.stats.uploads_duplicated += 1;
        }
        UploadVerdict::Delivered {
            duplicate: dup_draw,
            crash_after_apply: false,
        }
    }

    /// Whether a duplicated copy should be held back and delivered after
    /// a later group (out-of-order delivery).
    pub fn defer_duplicate(&mut self) -> bool {
        let defer = self.rng.gen_bool(self.spec.reorder.clamp(0.0, 1.0));
        if defer {
            self.stats.duplicates_reordered += 1;
        }
        defer
    }

    /// Decides whether a server→client transfer towards `client` is lost
    /// (the client being offline counts as a loss).
    pub fn download_lost(&mut self, client: usize, now: SimTime) -> bool {
        if self.is_disconnected(client, now) {
            self.stats.downloads_dropped += 1;
            return true;
        }
        let lost = self.rng.gen_bool(self.spec.download_drop.clamp(0.0, 1.0));
        if lost {
            self.stats.downloads_dropped += 1;
        }
        lost
    }
}

/// The fault schedules driving one multi-client run.
///
/// Two shapes exist:
///
/// * **Shared** — the seed harness's original model: one [`FaultPlan`]
///   (one RNG, one global upload counter) serves every client, so crash
///   points key on the 1-based upload attempt counted *across all
///   clients* and a single seed reproduces the whole run.
/// * **Per-client** — one independent plan per client, each with its own
///   seed, RNG, rates, crash schedule (keyed on *that client's* upload
///   attempts), and disconnect windows. This is what lets two or more
///   concurrent faulty writers carry genuinely independent
///   drop/dup/reorder/crash schedules: one writer's retries never shift
///   another writer's decision stream.
///
/// Aggregate counters sum over all plans.
#[derive(Debug, Clone)]
pub struct FaultTopology {
    plans: Vec<FaultPlan>,
    shared: bool,
}

impl FaultTopology {
    /// One plan shared by every client (the single-writer model).
    pub fn shared(spec: FaultSpec) -> Self {
        FaultTopology {
            plans: vec![FaultPlan::new(spec)],
            shared: true,
        }
    }

    /// One independent plan per client; `specs[i]` drives client `i`.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn per_client(specs: Vec<FaultSpec>) -> Self {
        assert!(!specs.is_empty(), "a topology needs at least one spec");
        FaultTopology {
            plans: specs.into_iter().map(FaultPlan::new).collect(),
            shared: false,
        }
    }

    /// The plan deciding `client`'s fate.
    ///
    /// # Panics
    ///
    /// Panics in per-client mode if `client` has no plan.
    pub fn plan_for(&mut self, client: usize) -> &mut FaultPlan {
        if self.shared {
            &mut self.plans[0]
        } else {
            &mut self.plans[client]
        }
    }

    /// Injected-fault counters summed over every plan.
    pub fn stats(&self) -> FaultStats {
        let mut total = FaultStats::default();
        for plan in &self.plans {
            deltacfs_obs::Merge::merge_from(&mut total, &plan.stats);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn verdicts(plan: &mut FaultPlan, n: usize) -> Vec<UploadVerdict> {
        (0..n)
            .map(|_| plan.upload_verdict(0, SimTime::ZERO))
            .collect()
    }

    #[test]
    fn same_seed_same_decisions() {
        let spec = FaultSpec::clean(42)
            .with_rates(0.3, 0.2, 0.25)
            .with_reorder(0.5);
        let mut a = FaultPlan::new(spec.clone());
        let mut b = FaultPlan::new(spec);
        assert_eq!(verdicts(&mut a, 50), verdicts(&mut b, 50));
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = FaultPlan::new(FaultSpec::clean(1).with_rates(0.5, 0.0, 0.0));
        let mut b = FaultPlan::new(FaultSpec::clean(2).with_rates(0.5, 0.0, 0.0));
        assert_ne!(verdicts(&mut a, 64), verdicts(&mut b, 64));
    }

    #[test]
    fn clean_spec_injects_nothing() {
        let mut plan = FaultPlan::new(FaultSpec::clean(7));
        for v in verdicts(&mut plan, 20) {
            assert_eq!(
                v,
                UploadVerdict::Delivered {
                    duplicate: false,
                    crash_after_apply: false
                }
            );
        }
        assert!(!plan.download_lost(0, SimTime::ZERO));
        assert_eq!(plan.stats().uploads_dropped, 0);
    }

    #[test]
    fn scheduled_crash_fires_at_exact_upload() {
        let spec = FaultSpec::clean(3)
            .with_crash(2, CrashPhase::BeforeApply)
            .with_crash(4, CrashPhase::AfterApply);
        let mut plan = FaultPlan::new(spec);
        let vs = verdicts(&mut plan, 5);
        assert_eq!(vs[1], UploadVerdict::CrashBeforeApply);
        assert_eq!(
            vs[3],
            UploadVerdict::Delivered {
                duplicate: false,
                crash_after_apply: true
            }
        );
        assert_eq!(plan.stats().crashes_before_apply, 1);
        assert_eq!(plan.stats().crashes_after_apply, 1);
    }

    #[test]
    fn scheduled_drop_fires_regardless_of_rates() {
        let spec = FaultSpec::clean(9).with_dropped_upload(1);
        let mut plan = FaultPlan::new(spec);
        assert_eq!(
            plan.upload_verdict(0, SimTime::ZERO),
            UploadVerdict::Dropped
        );
    }

    #[test]
    fn disconnect_window_suppresses_sends() {
        let spec = FaultSpec::clean(5).with_disconnect(1, 100, 200);
        let mut plan = FaultPlan::new(spec);
        assert!(plan.is_disconnected(1, SimTime(150)));
        assert!(!plan.is_disconnected(0, SimTime(150)));
        assert!(!plan.is_disconnected(1, SimTime(200)));
        assert_eq!(
            plan.upload_verdict(1, SimTime(150)),
            UploadVerdict::Disconnected
        );
        assert_eq!(plan.disconnect_until(1, SimTime(150)), Some(SimTime(200)));
        assert!(plan.download_lost(1, SimTime(199)));
        assert_eq!(plan.stats().disconnected_sends, 1);
    }

    #[test]
    fn crash_points_do_not_shift_probabilistic_stream() {
        // Two plans with the same seed and rates, one with a crash point:
        // the verdicts *after* the crash attempt must match the baseline.
        let base = FaultSpec::clean(11).with_rates(0.4, 0.0, 0.3);
        let mut a = FaultPlan::new(base.clone());
        let mut b = FaultPlan::new(base.with_crash(3, CrashPhase::BeforeApply));
        let va = verdicts(&mut a, 10);
        let vb = verdicts(&mut b, 10);
        assert_eq!(va[..2], vb[..2]);
        assert_eq!(va[3..], vb[3..]);
    }
}
