//! # deltacfs-baselines
//!
//! The comparison systems from the DeltaCFS paper's evaluation (§IV), each
//! implemented as a [`SyncEngine`](deltacfs_core::SyncEngine) so that the
//! trace-replay driver and benchmarks treat them interchangeably with
//! DeltaCFS:
//!
//! * [`DropboxEngine`] — inotify-style change detection, 4 MB fixed-block
//!   deduplication, rsync (4 KB blocks, MD5 strong checksums, client-side
//!   checksum offloading) confined within dedup blocks, LZ compression of
//!   uploads. Its server is opaque, as in the paper.
//! * [`SeafileEngine`] — content-defined chunking (gear hash, ~1 MB
//!   average chunks); only new chunks are strong-hashed and uploaded.
//! * [`NfsEngine`] — NFSv4-style write-through operation shipping with
//!   close-to-open cache semantics: whole-file re-fetch after a
//!   rename-over (stale filehandle, RFC 3530 §4.2.3/9.3.4) and
//!   fetch-before-write for non-block-aligned writes.
//! * [`DropsyncEngine`] — the mobile auto-sync client: full-file upload on
//!   every change, with implicit batching whenever the slow uplink is
//!   still busy.
//!
//! All engines charge their real algorithmic work (hashing, chunking,
//! scanning, compression) to a [`Cost`](deltacfs_delta::Cost) accumulator
//! and their transfers to a [`Link`](deltacfs_net::Link), which is exactly
//! what Tables II and Figures 8–9 of the paper report.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod common;
mod dropbox;
mod dropsync;
mod nfs;
mod seafile;

pub use common::DirtyTracker;
pub use dropbox::{DropboxConfig, DropboxEngine};
pub use dropsync::{DropsyncConfig, DropsyncEngine};
pub use nfs::NfsEngine;
pub use seafile::{SeafileConfig, SeafileEngine};
