//! Physical undo logging for in-place updates (paper §III-A).
//!
//! NFS-like file RPC is usually the right mechanism for in-place updates,
//! but when an update rewrites a large portion of a file (more than ~50 %)
//! local delta encoding could compress the change set further. Delta
//! encoding requires the file's *old* version — so, before each write
//! lands, the overwritten bytes are copied out (they are already in the
//! page cache, so this costs a memcpy, not IO). Replaying the records in
//! reverse against the current content reconstructs the old version
//! exactly.

use bytes::Bytes;

/// One undo record: enough to reverse a single write or truncate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UndoRecord {
    /// File length immediately *before* the operation.
    pub old_len: u64,
    /// Offset where old bytes must be restored.
    pub offset: u64,
    /// The bytes the operation destroyed (overwritten range, or the tail
    /// cut off by a truncate).
    pub old_bytes: Bytes,
}

/// The per-file undo log accumulated between uploads.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use deltacfs_core::UndoLog;
///
/// let mut content = b"hello world".to_vec();
/// let mut log = UndoLog::new();
/// // Overwrite "world" with "WORLD", preserving the destroyed bytes.
/// log.record_write(11, 6, Bytes::from_static(b"world"), 5);
/// content[6..11].copy_from_slice(b"WORLD");
/// assert_eq!(log.reconstruct(&content), b"hello world");
/// ```
#[derive(Debug, Clone, Default)]
pub struct UndoLog {
    records: Vec<UndoRecord>,
    changed_bytes: u64,
}

impl UndoLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a write of `written_len` bytes at `offset` that destroyed
    /// `overwritten` (shorter than `written_len` when the write extended
    /// the file), on a file that was `old_len` bytes long.
    pub fn record_write(
        &mut self,
        old_len: u64,
        offset: u64,
        overwritten: Bytes,
        written_len: u64,
    ) {
        self.changed_bytes += written_len;
        self.records.push(UndoRecord {
            old_len,
            offset,
            old_bytes: overwritten,
        });
    }

    /// Records a truncate that cut `cut` bytes off a file that was
    /// `old_len` bytes long (empty `cut` for extensions).
    pub fn record_truncate(&mut self, old_len: u64, new_size: u64, cut: Bytes) {
        self.changed_bytes += cut.len() as u64;
        self.records.push(UndoRecord {
            old_len,
            offset: new_size,
            old_bytes: cut,
        });
    }

    /// Total bytes written/cut since the log was last cleared — the
    /// numerator of the changed-fraction heuristic.
    pub fn changed_bytes(&self) -> u64 {
        self.changed_bytes
    }

    /// The file's length before the first recorded operation (0 when
    /// nothing is recorded). A zero initial length means there is no old
    /// version to delta against.
    pub fn initial_len(&self) -> u64 {
        self.records.first().map(|r| r.old_len).unwrap_or(0)
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no operations have been recorded.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Memory held by preserved old bytes.
    pub fn preserved_bytes(&self) -> u64 {
        self.records.iter().map(|r| r.old_bytes.len() as u64).sum()
    }

    /// Fraction of the (current) file the logged operations modified.
    pub fn changed_fraction(&self, current_len: u64) -> f64 {
        if current_len == 0 {
            if self.changed_bytes == 0 {
                0.0
            } else {
                1.0
            }
        } else {
            self.changed_bytes as f64 / current_len as f64
        }
    }

    /// Reconstructs the file content as it was before the first recorded
    /// operation, given the `current` content.
    pub fn reconstruct(&self, current: &[u8]) -> Vec<u8> {
        let mut content = current.to_vec();
        self.revert(&mut content);
        content
    }

    /// [`UndoLog::reconstruct`] in place: turns `content` back into what
    /// it was before the first recorded operation.
    pub fn revert(&self, content: &mut Vec<u8>) {
        for rec in self.records.iter().rev() {
            content.resize(rec.old_len as usize, 0);
            let start = (rec.offset as usize).min(content.len());
            let end = (start + rec.old_bytes.len()).min(content.len());
            content[start..end].copy_from_slice(&rec.old_bytes[..end - start]);
        }
    }

    /// Clears the log (after the corresponding node uploaded).
    pub fn clear(&mut self) {
        self.records.clear();
        self.changed_bytes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies a write the way the VFS does, returning the overwritten
    /// range.
    fn apply_write(content: &mut Vec<u8>, offset: usize, data: &[u8]) -> Bytes {
        let old_len = content.len();
        let end = offset + data.len();
        let overwritten = Bytes::copy_from_slice(&content[offset.min(old_len)..end.min(old_len)]);
        if end > old_len {
            content.resize(end, 0);
        }
        content[offset..end].copy_from_slice(data);
        overwritten
    }

    #[test]
    fn single_overwrite_roundtrip() {
        let original = b"hello world".to_vec();
        let mut content = original.clone();
        let mut log = UndoLog::new();
        let old_len = content.len() as u64;
        let ow = apply_write(&mut content, 6, b"WORLD");
        log.record_write(old_len, 6, ow, 5);
        assert_eq!(log.reconstruct(&content), original);
        assert_eq!(log.changed_bytes(), 5);
    }

    #[test]
    fn extension_roundtrip() {
        let original = b"ab".to_vec();
        let mut content = original.clone();
        let mut log = UndoLog::new();
        let ow = apply_write(&mut content, 1, b"XYZ");
        log.record_write(2, 1, ow, 3);
        assert_eq!(content, b"aXYZ");
        assert_eq!(log.reconstruct(&content), original);
    }

    #[test]
    fn truncate_roundtrip() {
        let original = b"abcdef".to_vec();
        let mut content = original.clone();
        let mut log = UndoLog::new();
        let cut = Bytes::copy_from_slice(&content[2..]);
        content.truncate(2);
        log.record_truncate(6, 2, cut);
        assert_eq!(log.reconstruct(&content), original);
    }

    #[test]
    fn sequence_of_mixed_ops_roundtrips() {
        let original: Vec<u8> = (0..200u8).collect();
        let mut content = original.clone();
        let mut log = UndoLog::new();

        let ow = apply_write(&mut content, 50, &[1u8; 30]);
        log.record_write(200, 50, ow, 30);

        let cut = Bytes::copy_from_slice(&content[150..]);
        content.truncate(150);
        log.record_truncate(200, 150, cut);

        let ow = apply_write(&mut content, 140, &[2u8; 40]); // extends to 180
        log.record_write(150, 140, ow, 40);

        let old_len = content.len() as u64;
        let ow = apply_write(&mut content, 0, &[3u8; 10]);
        log.record_write(old_len, 0, ow, 10);

        assert_eq!(log.reconstruct(&content), original);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn changed_fraction_and_clear() {
        let mut log = UndoLog::new();
        log.record_write(100, 0, Bytes::from_static(b"x"), 60);
        assert!((log.changed_fraction(100) - 0.6).abs() < 1e-9);
        assert_eq!(log.changed_fraction(0), 1.0);
        log.clear();
        assert!(log.is_empty());
        assert_eq!(log.changed_fraction(0), 0.0);
    }

    #[test]
    fn truncate_extension_roundtrips() {
        // Truncate that *grows* the file cuts nothing.
        let original = b"ab".to_vec();
        let mut content = original.clone();
        let mut log = UndoLog::new();
        content.resize(5, 0);
        log.record_truncate(2, 5, Bytes::new());
        assert_eq!(log.reconstruct(&content), original);
    }
}
