use bytes::Bytes;

use crate::VPath;

/// A file operation observed by the interception layer.
///
/// This is the information FUSE hands to LibFuse in the paper's
/// architecture (Fig. 4). Each mutating [`Vfs`](crate::Vfs) call emits
/// exactly one event *after* the operation has been validated and applied.
/// Events carry the written payloads (for NFS-like file RPC) and the
/// overwritten bytes (for physical undo logging), so observers never need
/// to re-read the file system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpEvent {
    /// A regular file was created (empty).
    Create {
        /// The created path.
        path: VPath,
    },
    /// `data` was written to `path` at byte `offset`.
    Write {
        /// The written file.
        path: VPath,
        /// Byte offset of the write.
        offset: u64,
        /// The written bytes.
        data: Bytes,
        /// Previous contents of the overwritten range (shorter than `data`
        /// when the write extends the file). This is the copy-out the
        /// paper's undo log performs before issuing the write (§III-A,
        /// in-place updates that modify a large portion of a file).
        overwritten: Bytes,
        /// The file system's content stamp after the write
        /// ([`Vfs::content_stamp`](crate::Vfs::content_stamp)): an
        /// observer that finds another stamp knows a file changed since,
        /// so this file's bytes outside the write may postdate the event.
        stamp: u64,
    },
    /// `path` was truncated to `size` bytes.
    Truncate {
        /// The truncated file.
        path: VPath,
        /// The new size.
        size: u64,
        /// The bytes that were removed, if the file shrank.
        cut: Bytes,
        /// The file system's content stamp after the truncate, as for
        /// [`OpEvent::Write`].
        stamp: u64,
    },
    /// `src` was atomically renamed to `dst`.
    Rename {
        /// Old path.
        src: VPath,
        /// New path.
        dst: VPath,
        /// Previous content of `dst` when the rename overwrote an existing
        /// file — the "to-be-created file's name already exists" case that
        /// triggers delta encoding in the relation table (paper §III-A).
        /// Moved out of the dying inode, so carrying it is free.
        replaced: Option<Bytes>,
    },
    /// A hard link `dst` was created for the file at `src`.
    Link {
        /// Existing path.
        src: VPath,
        /// The new link.
        dst: VPath,
    },
    /// The link at `path` was removed.
    Unlink {
        /// The removed path.
        path: VPath,
        /// The file content when this removed the *final* link (`Some`
        /// plays the role of the paper's tmp/ preservation area: the
        /// DeltaCFS layer keeps the dying content around briefly so a
        /// delete-then-recreate update can still be delta-encoded).
        /// `None` means other hard links keep the inode alive.
        removed: Option<Bytes>,
    },
    /// A directory was created.
    Mkdir {
        /// The created directory.
        path: VPath,
    },
    /// An empty directory was removed.
    Rmdir {
        /// The removed directory.
        path: VPath,
    },
    /// The last open handle on `path` was closed.
    ///
    /// Sync engines pack the file's write node on this event (§III-B).
    Close {
        /// The closed file.
        path: VPath,
    },
    /// `path` was fsync'ed by the application.
    Fsync {
        /// The synced file.
        path: VPath,
    },
}

impl OpEvent {
    /// Number of payload bytes carried by the event (written data only).
    pub fn payload_len(&self) -> usize {
        match self {
            OpEvent::Write { data, .. } => data.len(),
            _ => 0,
        }
    }

    /// A short lowercase name for the operation kind, for logs and stats.
    pub fn kind(&self) -> &'static str {
        match self {
            OpEvent::Create { .. } => "create",
            OpEvent::Write { .. } => "write",
            OpEvent::Truncate { .. } => "truncate",
            OpEvent::Rename { .. } => "rename",
            OpEvent::Link { .. } => "link",
            OpEvent::Unlink { .. } => "unlink",
            OpEvent::Mkdir { .. } => "mkdir",
            OpEvent::Rmdir { .. } => "rmdir",
            OpEvent::Close { .. } => "close",
            OpEvent::Fsync { .. } => "fsync",
        }
    }
}

/// The interception hook: implementors receive every mutating operation.
///
/// This is the seam where DeltaCFS (and the baseline sync engines) attach
/// to the file system, mirroring LibFuse's callback table. Observers run
/// synchronously on the calling thread, so an observer that does heavy work
/// directly slows down file operations — exactly the effect Table III of
/// the paper measures.
pub trait OpObserver {
    /// Called once per mutating operation, after it has been applied.
    fn on_op(&mut self, event: &OpEvent);
}

impl<F: FnMut(&OpEvent)> OpObserver for F {
    fn on_op(&mut self, event: &OpEvent) {
        self(event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> VPath {
        VPath::new(s).unwrap()
    }

    #[test]
    fn payload_len_counts_written_bytes_only() {
        let e = OpEvent::Write {
            path: p("/a"),
            offset: 0,
            data: Bytes::from_static(b"xyz"),
            overwritten: Bytes::new(),
            stamp: 1,
        };
        assert_eq!(e.payload_len(), 3);
        assert_eq!(OpEvent::Close { path: p("/a") }.payload_len(), 0);
    }

    #[test]
    fn closures_are_observers() {
        let mut count = 0usize;
        {
            let mut obs = |_: &OpEvent| count += 1;
            obs.on_op(&OpEvent::Create { path: p("/x") });
        }
        assert_eq!(count, 1);
    }
}
