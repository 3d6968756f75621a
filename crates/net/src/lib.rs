//! # deltacfs-net
//!
//! The simulated environment for the DeltaCFS evaluation: a virtual
//! clock, network links with bandwidth/latency and byte accounting, and
//! platform cost profiles that convert algorithmic work
//! ([`Cost`](deltacfs_delta::Cost)) into the "CPU ticks" the paper's
//! Table II reports.
//!
//! The paper ran on two EC2 `m4.xlarge` instances (PC experiments) and a
//! Samsung Galaxy Note3 over a WAN (mobile experiments). Neither platform
//! is reproducible, but the quantities that make DeltaCFS win are: *how
//! many bytes each engine rolls/hashes/compares/compresses* and *how many
//! bytes it moves*. This crate makes both first-class:
//!
//! * [`SimClock`] — a shared virtual clock (milliseconds). Trace replay
//!   advances it; relation-table timeouts and sync-queue upload delays
//!   read it.
//! * [`Link`] — an accounted, optionally bandwidth-limited pipe. Uploads
//!   occupy the link for `bytes / bandwidth`, which is what produces
//!   Dropsync's unintentional batching on mobile (paper §IV-C2).
//! * [`PlatformProfile`] — per-platform weights over work counters; the
//!   [`PlatformProfile::pc`] and [`PlatformProfile::mobile`] presets model
//!   the Xeon and the wimpy phone core respectively.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod fault;
mod link;
mod profile;
mod traffic;

pub use clock::{SimClock, SimTime};
pub use fault::{
    CrashPhase, CrashPoint, DisconnectWindow, FaultPlan, FaultSpec, FaultStats, FaultTopology,
    UploadVerdict,
};
pub use link::{Link, LinkSpec};
pub use profile::PlatformProfile;
pub use traffic::TrafficStats;
