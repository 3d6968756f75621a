//! # deltacfs-vfs
//!
//! An in-memory user-space file system that plays the role FUSE plays in the
//! DeltaCFS paper (Zhang et al., ICDCS 2017): a layer that *sees every file
//! operation* before it reaches the backing store.
//!
//! DeltaCFS's central trick — combining NFS-like file RPC with delta
//! encoding — requires intercepting `write`, `rename`, `link`, `unlink`,
//! `truncate` and `close` operations together with the written data. This
//! crate provides:
//!
//! * [`Vfs`] — a complete in-memory file system (files, directories, hard
//!   links, handles, capacity accounting),
//! * [`OpEvent`] / [`OpObserver`] — the interception hook. Every mutating
//!   operation emits an event carrying everything a sync engine needs,
//!   including the *overwritten* bytes (which is what the paper's physical
//!   undo logging copies out before a write lands),
//! * fault injection ([`Vfs::inject_bit_flip`], [`Vfs::inject_torn_write`])
//!   that mutates the backing store *without* emitting events, exactly like
//!   disk corruption or an ordered-journaling crash does underneath a real
//!   sync client (paper §IV-E).
//!
//! # Example
//!
//! ```
//! use deltacfs_vfs::{Vfs, VfsError};
//!
//! # fn main() -> Result<(), VfsError> {
//! let mut fs = Vfs::new();
//! fs.create("/doc.txt")?;
//! fs.write("/doc.txt", 0, b"hello")?;
//! assert_eq!(fs.read("/doc.txt", 0, 5)?, b"hello");
//! fs.rename("/doc.txt", "/doc.old")?;
//! assert!(fs.exists("/doc.old"));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod event;
mod fs;
mod path;
mod stats;

pub use error::VfsError;
pub use event::{OpEvent, OpObserver};
pub use fs::{DirEntry, FileKind, Handle, Metadata, PausedEventLog, Vfs};
pub use path::{VPath, PATH_MAX};
pub use stats::IoStats;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, VfsError>;
