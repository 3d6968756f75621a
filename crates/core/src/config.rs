/// How causal consistency is preserved across the sync queue's
/// out-of-FIFO optimisations (paper §III-E).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CausalMode {
    /// The paper's design: backindex pointers group the affected nodes
    /// into transactions; everything else uploads at its own pace.
    Backindex,
    /// Ablation: strict FIFO with the optimisations disabled — no delta
    /// supersession, no elision. Causality is trivial, traffic suffers.
    StrictFifo,
    /// The ViewBox-style alternative the paper rejects: seal the whole
    /// queue every `interval_ms` and upload it as one transaction. Both
    /// of the paper's objections are observable: a save spanning a seal
    /// loses its delta optimisation, and the interval trades freshness
    /// against transaction bulk.
    Snapshot {
        /// Time between snapshots, in milliseconds.
        interval_ms: u64,
    },
}

/// Tuning knobs for a DeltaCFS client.
///
/// Defaults follow the paper: 3 s sync-queue upload delay (Fig. 6), 2 s
/// relation-entry timeout (Table I), 4 KB delta/checksum blocks, and a
/// 50 % changed-fraction threshold for delta-compressing in-place updates
/// (§III-A).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeltaCfsConfig {
    /// How long a sync-queue node waits before upload, in milliseconds.
    pub upload_delay_ms: u64,
    /// Relation-table entry lifetime, in milliseconds (paper: 1–3 s).
    pub relation_timeout_ms: u64,
    /// Block size for delta encoding and the checksum store.
    pub block_size: usize,
    /// If an in-place update has modified more than this fraction of a
    /// file when its node is uploaded, try compressing the update with
    /// local delta encoding against the undo-log reconstruction.
    pub inplace_delta_threshold: f64,
    /// Causal-consistency strategy (see [`CausalMode`]).
    pub causal_mode: CausalMode,
    /// Compat, no behaviour (DESIGN.md §10): always 1, read by nothing
    /// here; `benchmark/src/probes.rs` names it.
    pub parallelism: usize,
    /// Compat, no behaviour (DESIGN.md §10): always 0, read by nothing
    /// here; `benchmark/src/probes.rs` names it.
    pub min_parallel_bytes: usize,
    /// Compat, no behaviour (DESIGN.md §12): every group goes up as
    /// frames, so nothing here reads it; `benchmark/src/{config,staged}.rs`
    /// name it.
    pub streaming: bool,
    /// Payload-byte budget per chunk frame, in both directions (see
    /// [`frame_group`](crate::pipeline::frame_group)).
    pub chunk_budget: usize,
    /// Run chunk frames through the adaptive wire codec — this client's
    /// uploads, through `DeltaCfsSystem` or `SyncHub` alike, and the
    /// hub's forwards to it: a cost-benefit controller compresses a
    /// frame when the link's byte savings beat the compressing
    /// platform's CPU, and ships it raw otherwise (never worse than
    /// raw — an incompressible frame crosses the wire byte-identical to
    /// a codec-less run). Off by default; applied content, costs, and
    /// outcomes are identical either way, only traffic and timing
    /// improve.
    pub wire_compression: bool,
}

impl DeltaCfsConfig {
    /// The paper's configuration.
    pub fn new() -> Self {
        DeltaCfsConfig {
            upload_delay_ms: 3_000,
            relation_timeout_ms: 2_000,
            block_size: 4096,
            inplace_delta_threshold: 0.5,
            causal_mode: CausalMode::Backindex,
            parallelism: 1,
            min_parallel_bytes: 0,
            streaming: false,
            chunk_budget: 256 * 1024,
            wire_compression: false,
        }
    }

    /// Selects a causal-consistency strategy (ablations; the default is
    /// the paper's backindex design).
    pub fn with_causal_mode(mut self, mode: CausalMode) -> Self {
        self.causal_mode = mode;
        self
    }

    /// Compat, no behaviour: sets [`streaming`](Self::streaming), which
    /// nothing here reads.
    pub fn with_streaming(mut self, on: bool) -> Self {
        self.streaming = on;
        self
    }

    /// Sets the per-frame payload budget.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub fn with_chunk_budget(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "chunk budget must be positive");
        self.chunk_budget = bytes;
        self
    }

    /// Enables the adaptive wire codec on chunk frames.
    pub fn with_wire_compression(mut self, on: bool) -> Self {
        self.wire_compression = on;
        self
    }

    // Benchmark compat, no behaviour (see `deltacfs_delta`'s compat block;
    // the fields `parallelism` and `min_parallel_bytes` are compat too).
    /// Compat: returns `self`.
    pub fn with_hierarchy_min_bytes(self, _: usize) -> Self {
        self
    }
    /// Compat: always `None`.
    pub fn hierarchy_params(&self) -> Option<deltacfs_delta::HierarchyParams> {
        None
    }
}

impl Default for DeltaCfsConfig {
    fn default() -> Self {
        Self::new()
    }
}

/// Hub-level tuning knobs (the server side of the simulation; per-client
/// knobs live in [`DeltaCfsConfig`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HubConfig {
    /// Record per-group apply latency into the
    /// `hub_apply_latency_us` observability histogram. Off by default:
    /// wall-clock timing is nondeterministic, and the deterministic
    /// tests compare metric snapshots.
    pub latency_histogram: bool,
    /// Record the run (the flight recorder's and the critical-path sync
    /// profiler's input). Off by default: every recorder site then costs
    /// one `Cell<bool>` read. When on, `enable_observability` turns the
    /// shared recorder on even if the bundle was built with it off, and
    /// `export_metrics` folds the profiler's per-stage histograms and
    /// SLO lag gauges into the unified snapshot.
    pub profiling: bool,
}

impl HubConfig {
    /// The default configuration: both recorders off.
    pub fn new() -> Self {
        HubConfig {
            latency_histogram: false,
            profiling: false,
        }
    }

    /// Enables the wall-clock apply-latency histogram.
    pub fn with_latency_histogram(mut self, on: bool) -> Self {
        self.latency_histogram = on;
        self
    }

    /// Enables causal span recording and the critical-path profiler.
    pub fn with_profiling(mut self, on: bool) -> Self {
        self.profiling = on;
        self
    }
}

impl Default for HubConfig {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = DeltaCfsConfig::new();
        assert_eq!(c.upload_delay_ms, 3_000);
        assert_eq!(c.relation_timeout_ms, 2_000);
        assert_eq!(c.block_size, 4096);
        assert_eq!(c.chunk_budget, 256 * 1024);
        assert!(!c.wire_compression, "the wire codec is opt-in");
        assert!(c.with_wire_compression(true).wire_compression);
    }

    #[test]
    fn chunk_budget_builder() {
        assert_eq!(
            DeltaCfsConfig::new().with_chunk_budget(4096).chunk_budget,
            4096
        );
    }

    #[test]
    fn hub_profiling_is_opt_in() {
        let h = HubConfig::new();
        assert!(!h.profiling, "span recording is opt-in");
        assert!(h.with_profiling(true).profiling);
    }
}
