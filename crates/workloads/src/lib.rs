//! # deltacfs-workloads
//!
//! The workloads of the DeltaCFS evaluation (§IV-A) and the replay driver
//! that feeds them through any [`SyncEngine`](deltacfs_core::SyncEngine):
//!
//! * [`AppendTrace`] — 40 append operations of ~800 KB each, 15 s apart;
//!   the file grows from 0 to 32 MB;
//! * [`RandomWriteTrace`] — a 20 MB file receiving 40 writes of 1010
//!   bytes at random offsets, 15 s apart;
//! * [`WordTrace`] — a Microsoft Word editing session: 61 saves of a
//!   document growing from 12.1 MB to 16.7 MB, each save being the
//!   transactional `rename f t0; create-write t1; rename t1 f; delete t0`
//!   sequence of Fig. 3;
//! * [`WeChatTrace`] — an SQLite chat-history database (131 → 137 MB,
//!   373 modifications) updated through journaled page writes:
//!   `create-write f-journal; write f; truncate f-journal 0` (Fig. 3);
//! * [`GeditTrace`] — gedit's `create-write tmp; link f f~; rename tmp f`
//!   save pattern;
//! * [`filebench`] — Fileserver/Varmail/Webserver op-mix personalities
//!   for the local-throughput micro-benchmarks (Table III);
//! * [`InDelProcess`] — random insertions and deletions over a random
//!   file, with the exact edit script as the yardstick for delta size.
//!
//! Every trace is deterministic (seeded) and carries a
//! [`scale`](TraceConfig::scale) knob: `1.0` reproduces the paper's sizes,
//! smaller values shrink files and op counts proportionally so the full
//! evaluation runs quickly on small machines. Content is generated with a
//! realistic compressibility mix (chat text compresses; random blobs do
//! not), because the Dropbox baseline's compression savings depend on it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod filebench;
mod gen;
mod huge;
mod indel;
mod json;
mod replay;
mod traces;

pub use gen::ContentGen;
pub use huge::HugeFile;
pub use indel::{InDelPair, InDelProcess};
pub use json::{RecordedTrace, TraceJsonError};
pub use replay::{replay, ReplayReport, TAIL_MS};
pub use traces::{
    AppendTrace, DesktopTrace, GeditTrace, RandomWriteTrace, TimedOp, Trace, TraceConfig,
    TraceMeta, TraceOp, WeChatTrace, WordTrace,
};
