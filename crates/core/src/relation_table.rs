//! The relation table (paper §III-A, Table I).
//!
//! The table tracks transformations of file *names*: each entry is a tuple
//! `src → dst` meaning "the file that used to be called `src` now survives
//! as `dst`". Entries are created by `rename` (the old version was
//! preserved under a new name) and by `unlink` (DeltaCFS temporarily
//! preserves the dying content instead of discarding it). When a file is
//! created whose name equals some entry's `src`, the update is a
//! transactional update in progress and delta encoding is triggered
//! between the new file and the entry's `dst`.
//!
//! Entries expire after a short timeout (1–3 s; a file update by the
//! operating system usually completes within a second), and are consumed
//! when they trigger.

use std::collections::HashMap;

use bytes::Bytes;
use deltacfs_net::SimTime;

/// Where a preserved old version of a file lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OldVersion {
    /// The old version still exists in the file system under this name
    /// (e.g. Word's `t0` after `rename f t0`).
    Path(String),
    /// The old version's bytes, preserved at unlink time (the paper moves
    /// the file into a `tmp/` area; we hold the dying inode's content).
    Content(Bytes),
}

/// A consumed relation-table entry: the preserved old version plus the
/// cloud version it corresponds to (captured at preservation time for
/// unlinked content; resolved by the caller for renamed paths).
#[derive(Debug, Clone, PartialEq)]
pub struct Preserved {
    /// Where the old content lives.
    pub old: OldVersion,
    /// The version the old content had, when known at preservation time.
    pub base_version: Option<crate::protocol::Version>,
    /// The Checksum Store's sums of an [`OldVersion::Content`]'s blocks
    /// (`None` for a block with none), for the matcher to take instead of
    /// rolling them. Only a rename over an existing file captures them,
    /// before the store moves the new file's sums onto the name; content
    /// preserved at unlink has none and is rolled. An
    /// [`OldVersion::Path`]'s sums stay in the store under its path.
    pub sums: Vec<Option<u32>>,
}

#[derive(Debug, Clone)]
struct Entry {
    dst: OldVersion,
    base_version: Option<crate::protocol::Version>,
    created_at: SimTime,
}

/// The relation table: `src name → preserved old version`.
///
/// # Example
///
/// ```
/// use deltacfs_core::{OldVersion, RelationTable};
/// use deltacfs_net::SimTime;
///
/// // Word's save: rename f t0; ... ; rename t1 f.
/// let mut rt = RelationTable::new(2_000);
/// rt.on_rename("/f", "/t0", SimTime(0));
/// let hit = rt.take_match("/f", SimTime(500)).expect("trigger fires");
/// assert_eq!(hit.old, OldVersion::Path("/t0".into()));
/// ```
#[derive(Debug)]
pub struct RelationTable {
    entries: HashMap<String, Entry>,
    timeout_ms: u64,
}

impl RelationTable {
    /// Creates an empty table with the given entry timeout.
    pub fn new(timeout_ms: u64) -> Self {
        RelationTable {
            entries: HashMap::new(),
            timeout_ms,
        }
    }

    /// Records `rename src → dst`: the content once named `src` now lives
    /// at `dst`. The base version is resolved by the caller at trigger
    /// time (the renamed path keeps its version).
    pub fn on_rename(&mut self, src: &str, dst: &str, now: SimTime) {
        self.entries.insert(
            src.to_string(),
            Entry {
                dst: OldVersion::Path(dst.to_string()),
                base_version: None,
                created_at: now,
            },
        );
    }

    /// Records `unlink path` with the preserved content and the version
    /// the content had on the cloud.
    pub fn on_unlink(
        &mut self,
        path: &str,
        content: Bytes,
        base_version: Option<crate::protocol::Version>,
        now: SimTime,
    ) {
        self.entries.insert(
            path.to_string(),
            Entry {
                dst: OldVersion::Content(content),
                base_version,
                created_at: now,
            },
        );
    }

    /// If `name` matches a live entry's `src`, consumes the entry and
    /// returns the preserved old version — delta encoding should be
    /// triggered against it.
    pub fn take_match(&mut self, name: &str, now: SimTime) -> Option<Preserved> {
        match self.entries.get(name) {
            Some(e) if now.since(e.created_at) <= self.timeout_ms => {
                let e = self.entries.remove(name).expect("entry present");
                Some(Preserved {
                    old: e.dst,
                    base_version: e.base_version,
                    sums: Vec::new(),
                })
            }
            Some(_) => {
                self.entries.remove(name);
                None
            }
            None => None,
        }
    }

    /// If the preserved old version of some entry lives at file `path`
    /// (i.e. an entry whose `dst` is `Path(path)`), invalidate that entry —
    /// the preserved copy was itself modified or removed, so it no longer
    /// represents the old version.
    pub fn invalidate_dst(&mut self, path: &str) {
        self.entries
            .retain(|_, e| e.dst != OldVersion::Path(path.to_string()));
    }

    /// Drops expired entries; returns how many were removed.
    pub fn expire(&mut self, now: SimTime) -> usize {
        let before = self.entries.len();
        let timeout = self.timeout_ms;
        self.entries
            .retain(|_, e| now.since(e.created_at) <= timeout);
        before - self.entries.len()
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn word_pattern_triggers_on_recreate() {
        // rename f t0; ... ; rename t1 f  => entry f→t0 fires when f is
        // created again.
        let mut rt = RelationTable::new(2000);
        rt.on_rename("/f", "/t0", SimTime(0));
        assert_eq!(rt.len(), 1);
        let hit = rt.take_match("/f", SimTime(500)).unwrap();
        assert_eq!(hit.old, OldVersion::Path("/t0".into()));
        assert!(rt.is_empty());
        // Consumed: a second create does not fire.
        assert_eq!(rt.take_match("/f", SimTime(600)), None);
    }

    #[test]
    fn unlink_preserves_content() {
        let mut rt = RelationTable::new(2000);
        rt.on_unlink("/f", Bytes::from_static(b"old"), None, SimTime(0));
        match rt.take_match("/f", SimTime(100)).map(|p| p.old) {
            Some(OldVersion::Content(b)) => assert_eq!(&b[..], b"old"),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn entries_expire() {
        let mut rt = RelationTable::new(2000);
        rt.on_rename("/f", "/t0", SimTime(0));
        assert_eq!(rt.take_match("/f", SimTime(2001)), None);
        rt.on_rename("/g", "/t1", SimTime(0));
        assert_eq!(rt.expire(SimTime(5000)), 1);
        assert!(rt.is_empty());
    }

    #[test]
    fn newer_entry_replaces_older_for_same_src() {
        let mut rt = RelationTable::new(2000);
        rt.on_rename("/f", "/t0", SimTime(0));
        rt.on_rename("/f", "/t9", SimTime(100));
        assert_eq!(
            rt.take_match("/f", SimTime(200)).unwrap().old,
            OldVersion::Path("/t9".into())
        );
    }

    #[test]
    fn invalidate_dst_drops_stale_preservation() {
        let mut rt = RelationTable::new(2000);
        rt.on_rename("/f", "/t0", SimTime(0));
        rt.invalidate_dst("/t0");
        assert_eq!(rt.take_match("/f", SimTime(100)), None);
    }

    #[test]
    fn expiry_boundary_is_inclusive() {
        let mut rt = RelationTable::new(2000);
        rt.on_rename("/f", "/t0", SimTime(0));
        // Exactly at the timeout the entry is still valid.
        assert!(rt.take_match("/f", SimTime(2000)).is_some());
    }
}
