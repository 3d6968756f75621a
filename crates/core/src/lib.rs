//! # deltacfs-core
//!
//! The DeltaCFS file-sync framework (Zhang et al., ICDCS 2017): an
//! adaptive combination of **NFS-like file RPC** (ship intercepted write
//! operations verbatim) and **delta sync** (triggered only for
//! transactional updates, computed locally with bitwise comparison
//! instead of strong checksums).
//!
//! Architecture (paper Fig. 4):
//!
//! ```text
//!  application ──ops──▶ VFS (deltacfs-vfs) ──events──▶ DeltaCfsClient
//!                                                        │ relation table
//!                                                        │ sync queue (+backindex)
//!                                                        │ undo log / checksum store
//!                                                        ▼
//!                                              versioned UpdateMsg groups
//!                                                        ▼
//!                                                   CloudServer ──forward──▶ other clients
//! ```
//!
//! Entry points: [`DeltaCfsClient`] (the engine), [`CloudServer`] (the
//! cloud), [`DeltaCfsSystem`] (both wired to a simulated link, implementing
//! [`SyncEngine`]), [`SyncHub`] (multi-client sharing).
//!
//! # Example
//!
//! ```
//! use deltacfs_core::{ClientId, CloudServer, DeltaCfsClient, DeltaCfsConfig};
//! use deltacfs_net::SimClock;
//! use deltacfs_vfs::Vfs;
//!
//! let clock = SimClock::new();
//! let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
//! let mut server = CloudServer::new();
//! let mut fs = Vfs::new();
//! fs.enable_event_log();
//!
//! fs.create("/notes.txt")?;
//! fs.write("/notes.txt", 0, b"hello cloud")?;
//! for event in fs.drain_events() {
//!     client.handle_event(&event, &fs);
//! }
//! clock.advance(4_000); // past the sync-queue upload delay
//! for group in client.tick(&fs) {
//!     server.apply_txn(&group);
//! }
//! assert_eq!(server.file("/notes.txt"), Some(&b"hello cloud"[..]));
//! # Ok::<(), deltacfs_vfs::VfsError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checksum_store;
mod client;
pub mod codec;
mod compat;
mod config;
mod engine;
mod extents;
mod inline;
mod multi;
pub mod persist;
pub mod pipeline;
mod protocol;
mod relation_table;
mod retry;
mod server;
mod sync_queue;
mod undo_log;
pub mod wire;

pub use checksum_store::ChecksumStore;
pub use client::{DeltaCfsClient, IntegrityIssue, IssueKind, RemoteConflict};
pub use codec::{CodecPolicy, WireCodec};
pub use compat::{CloudCopies, ShardedServer};
pub use config::{CausalMode, DeltaCfsConfig, HubConfig};
pub use engine::{DeltaCfsSystem, EngineReport, SyncEngine};
pub use inline::{InlineInterceptor, InlineMode};
pub use multi::SyncHub;
pub use protocol::{
    ApplyOutcome, ClientId, FileOpItem, GroupId, Payload, UpdateMsg, UpdatePayload, Version,
    ACK_WIRE_BYTES, MSG_HEADER_BYTES, OP_ITEM_HEADER_BYTES,
};
pub use relation_table::{OldVersion, Preserved, RelationTable};
pub use retry::{Courier, Flight, RetryPolicy, BACKOFF_BUCKETS_MS};
pub use server::{CloudServer, FileLayout};
pub use sync_queue::{Node, NodeKind, SyncQueue};
pub use undo_log::{UndoLog, UndoRecord};
