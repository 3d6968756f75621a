//! # deltacfs-delta
//!
//! Delta-encoding algorithms for the DeltaCFS reproduction (Zhang et al.,
//! ICDCS 2017), all implemented from scratch so that the *work they perform*
//! is measurable:
//!
//! * [`rsync`] — the classic rsync algorithm: fixed-size blocks, an
//!   Adler-style rolling checksum plus an MD5 strong checksum
//!   ([`RollingChecksum`], [`md5`]). This is what Dropbox runs on every file
//!   change (paper §II-A).
//! * [`local`] — the paper's optimisation (§III-A): when *both* versions of
//!   a file are on the same machine, strong checksums are unnecessary —
//!   candidate blocks found by the rolling hash are verified by **bitwise
//!   comparison** (word-at-a-time with exact first-difference accounting),
//!   eliminating the dominant MD5 cost.
//! * [`cdc`] — content-defined chunking with a gear hash, as used by
//!   Seafile/LBFS (1 MB average chunks by default).
//! * [`dedup`] — fixed-size super-block deduplication (Dropbox's 4 MB
//!   granularity).
//! * [`compress`] — a small LZ77-style byte compressor standing in for
//!   Snappy, which the paper suspects Dropbox applies to uploads.
//!
//! Every API threads a [`Cost`] accumulator that counts the bytes each
//! primitive touched (rolled, strong-hashed, compared, chunked,
//! compressed). The evaluation converts these counts into platform "CPU
//! ticks" — the quantity Table II of the paper reports.
//!
//! # Example
//!
//! ```
//! use deltacfs_delta::{local, rsync, Cost, DeltaParams};
//!
//! let old = b"the quick brown fox jumps over the lazy dog".repeat(200);
//! let mut new = old.clone();
//! new[10] = b'Q';
//!
//! let params = DeltaParams::with_block_size(64);
//! let mut cost = Cost::default();
//! let delta = local::diff(&old, &new, &params, &mut cost);
//! assert_eq!(delta.apply(&old).unwrap(), new);
//! // The local variant never computes a strong checksum.
//! assert_eq!(cost.bytes_strong_hashed, 0);
//!
//! let mut cost_rsync = Cost::default();
//! let sig = rsync::signature(&old, &params, &mut cost_rsync);
//! let delta2 = rsync::diff(&sig, &new, &params, &mut cost_rsync);
//! assert_eq!(delta2.apply(&old).unwrap(), new);
//! assert!(cost_rsync.bytes_strong_hashed > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cdc;
pub mod compress;
mod cost;
pub mod dedup;
mod delta_ops;
pub mod local;
mod md5_impl;
mod rolling;
pub mod rsync;
mod weak_index;

pub use cost::Cost;
pub use delta_ops::{ApplyError, Delta, DeltaOp, OP_HEADER_BYTES};
pub use md5_impl::{md5, md5_hex, Md5};
pub use rolling::RollingChecksum;

/// Tuning parameters shared by the block-based delta algorithms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaParams {
    /// Block size in bytes used by [`rsync`] and [`local`] diffs.
    ///
    /// The paper uses rsync's historical default of 4 KB; this is also the
    /// reason op-level RPC beats delta sync for sub-4 KB in-place writes
    /// (§IV-C: "the delta is at least one data block even though only 1 byte
    /// is modified"). That holds for [`rsync`]; [`local`] grows each
    /// confirmed block bitwise into its neighbouring literals, so its
    /// literals shrink to the changed bytes wherever a block anchors them.
    pub block_size: usize,
}

impl DeltaParams {
    /// rsync's historical 4 KB block size, the paper's default.
    pub const DEFAULT_BLOCK_SIZE: usize = 4096;

    /// Creates parameters with the paper's default 4 KB block size.
    pub fn new() -> Self {
        Self::with_block_size(Self::DEFAULT_BLOCK_SIZE)
    }

    /// Creates parameters with a custom block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn with_block_size(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        DeltaParams { block_size }
    }
}

impl Default for DeltaParams {
    fn default() -> Self {
        Self::new()
    }
}

// Benchmark compat, no behaviour (DESIGN.md §17, §10): `benchmark/src/probes.rs`
// names these five and `{local,rsync}::diff_parallel`; they go with the
// benchmark's `api.rs` PR.
/// Compat: empty.
pub struct HierarchyParams {}
/// Compat: always zero.
#[derive(Default)]
pub struct HierarchyStats {
    /// Always 0.
    pub bytes_skipped: u64,
    /// Always 0.
    pub diffs: u64,
}
/// Compat: always the default.
pub fn take_hierarchy_stats() -> HierarchyStats {
    HierarchyStats::default()
}
impl DeltaParams {
    /// Compat: returns `self`.
    pub fn with_hierarchy(self, _: Option<HierarchyParams>) -> Self {
        self
    }
    /// Compat: returns `self`.
    pub fn with_min_parallel_bytes(self, _: usize) -> Self {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_params_use_4k_blocks() {
        assert_eq!(DeltaParams::new().block_size, 4096);
        assert_eq!(DeltaParams::default(), DeltaParams::new());
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let _ = DeltaParams::with_block_size(0);
    }
}
