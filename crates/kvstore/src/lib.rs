//! # deltacfs-kvstore
//!
//! A small embedded key-value store standing in for LevelDB, which the
//! paper uses for DeltaCFS's Checksum Store (§III-E): per-4 KB-block
//! checksums persisted on the client so that corruption and crash
//! inconsistency can be detected across restarts.
//!
//! The design is a miniature LSM tree:
//!
//! * every mutation is appended to a CRC-protected write-ahead log
//!   ([`wal`]) before being applied to an in-memory memtable,
//! * when the memtable exceeds a threshold it is flushed to a sorted,
//!   immutable segment file,
//! * lookups consult the memtable first, then segments newest-to-oldest,
//! * [`KvStore::compact`] merges all segments and drops tombstones,
//! * on open, segments are loaded and the WAL tail is replayed — torn
//!   final records (a crash mid-append) are detected by CRC and discarded.
//!
//! For workloads that do not need durability (e.g. short-lived tests) the
//! crate also provides [`MemStore`]; both implement [`KeyValue`].
//!
//! # Example
//!
//! ```
//! use deltacfs_kvstore::{KeyValue, KvStore};
//!
//! # fn main() -> Result<(), deltacfs_kvstore::KvError> {
//! let dir = std::env::temp_dir().join(format!("kvdoc-{}", std::process::id()));
//! let mut store = KvStore::open(&dir)?;
//! store.put(b"block:0", b"checksum-a")?;
//! assert_eq!(store.get(b"block:0")?.as_deref(), Some(&b"checksum-a"[..]));
//! store.delete(b"block:0")?;
//! assert_eq!(store.get(b"block:0")?, None);
//! # drop(store);
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc;
mod error;
mod mem;
mod segment;
mod store;
pub mod wal;

pub use crc::crc32;
pub use error::KvError;
pub use mem::MemStore;
pub use store::KvStore;

/// Result alias used throughout this crate.
pub type Result<T> = std::result::Result<T, KvError>;

/// One operation inside an atomic [`KeyValue::write_batch`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BatchOp {
    /// Store `value` under `key`.
    Put {
        /// The key to insert.
        key: Vec<u8>,
        /// The value to store.
        value: Vec<u8>,
    },
    /// Remove `key` (absent keys are not an error).
    Delete {
        /// The key to remove.
        key: Vec<u8>,
    },
}

impl BatchOp {
    /// Convenience constructor for a put.
    pub fn put(key: impl Into<Vec<u8>>, value: impl Into<Vec<u8>>) -> Self {
        BatchOp::Put {
            key: key.into(),
            value: value.into(),
        }
    }

    /// Convenience constructor for a delete.
    pub fn delete(key: impl Into<Vec<u8>>) -> Self {
        BatchOp::Delete { key: key.into() }
    }
}

/// The key-value operations the DeltaCFS checksum store needs.
///
/// Implemented by the persistent [`KvStore`] and the volatile
/// [`MemStore`].
pub trait KeyValue {
    /// Stores `value` under `key`, replacing any previous value.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Io`] if persisting the mutation fails.
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()>;

    /// Returns the value stored under `key`, if any.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Io`] if reading fails.
    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>>;

    /// Removes `key`; removing an absent key is not an error.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Io`] if persisting the mutation fails.
    fn delete(&mut self, key: &[u8]) -> Result<()>;

    /// Returns all `(key, value)` pairs whose key starts with `prefix`,
    /// sorted by key.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Io`] if reading fails.
    fn scan_prefix(&mut self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>>;

    /// Applies `batch` as one group commit.
    ///
    /// [`KvStore`] overrides this with a single WAL append (one CRC over
    /// the whole batch record, one flush point) whose replay is
    /// all-or-nothing after a crash. The default implementation applies
    /// the operations one by one and makes no atomicity promise — volatile
    /// backends that cannot crash mid-batch (e.g. [`MemStore`]) are
    /// trivially atomic anyway.
    ///
    /// # Errors
    ///
    /// Returns [`KvError::Io`] if persisting the batch fails.
    fn write_batch(&mut self, batch: &[BatchOp]) -> Result<()> {
        for op in batch {
            match op {
                BatchOp::Put { key, value } => self.put(key, value)?,
                BatchOp::Delete { key } => self.delete(key)?,
            }
        }
        Ok(())
    }
}
