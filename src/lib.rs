//! # DeltaCFS
//!
//! A from-scratch Rust reproduction of **"DeltaCFS: Boosting Delta Sync
//! for Cloud Storage Services by Learning from NFS"** (Zhang et al.,
//! ICDCS 2017): a file-sync framework that adaptively combines *NFS-like
//! file RPC* (ship intercepted write operations verbatim) with *delta
//! sync* (triggered only for transactional updates, computed locally with
//! bitwise comparison instead of MD5).
//!
//! This crate is the facade over the workspace:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `deltacfs-core` | relation table, sync queue (+backindex), versioning, checksum store, undo log, client engine, cloud server, multi-client hub |
//! | [`vfs`] | `deltacfs-vfs` | in-memory file system with operation interception (the FUSE stand-in) |
//! | [`delta`] | `deltacfs-delta` | rsync, the local bitwise variant, CDC, fixed-block dedup, LZ compression, MD5 |
//! | [`kvstore`] | `deltacfs-kvstore` | WAL + memtable + segment KV store (the LevelDB stand-in) |
//! | [`net`] | `deltacfs-net` | virtual clock, accounted links, platform cost profiles |
//! | [`obs`] | `deltacfs-obs` | metrics registry, one recorder of the sync pipeline (flight recorder, span profiler) |
//! | [`baselines`] | `deltacfs-baselines` | Dropbox-, Seafile-, NFS- and Dropsync-like engines |
//! | [`workloads`] | `deltacfs-workloads` | the §IV-A traces, filebench personalities, replay driver |
//!
//! # Quickstart
//!
//! ```
//! use deltacfs::core::{ClientId, CloudServer, DeltaCfsClient, DeltaCfsConfig};
//! use deltacfs::net::SimClock;
//! use deltacfs::vfs::Vfs;
//!
//! let clock = SimClock::new();
//! let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
//! let mut server = CloudServer::new();
//! let mut fs = Vfs::new();
//! fs.enable_event_log();
//!
//! fs.create("/hello.txt")?;
//! fs.write("/hello.txt", 0, b"hello, cloud")?;
//! for event in fs.drain_events() {
//!     client.handle_event(&event, &fs);
//! }
//! clock.advance(4_000);
//! for group in client.tick(&fs) {
//!     server.apply_txn(&group);
//! }
//! assert_eq!(server.file("/hello.txt"), Some(&b"hello, cloud"[..]));
//! # Ok::<(), deltacfs::vfs::VfsError>(())
//! ```
//!
//! Runnable examples live in `examples/` (`cargo run --example
//! quickstart`), and the full paper evaluation regenerates with
//! `cargo run -p deltacfs-bench --release --bin repro -- all`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use deltacfs_baselines as baselines;
pub use deltacfs_core as core;
pub use deltacfs_delta as delta;
pub use deltacfs_kvstore as kvstore;
pub use deltacfs_net as net;
pub use deltacfs_obs as obs;
pub use deltacfs_vfs as vfs;
pub use deltacfs_workloads as workloads;
