//! The client↔cloud wire protocol: versioned incremental updates.
//!
//! DeltaCFS outsources version assignment to clients (paper §III-C): each
//! client stamps sync-queue nodes with `<CliID, VerCnt>` pairs from its own
//! monotonic counter, so no round-trip to the server is needed at enqueue
//! time. Partial order is sufficient in the cloud-sync setting; the cloud
//! only ever compares versions for *equality* against its current version
//! of a file (base-version check), falling back to first-write-wins
//! conflict handling on mismatch.

use std::collections::HashMap;
use std::fmt;

use bytes::Bytes;
use deltacfs_delta::Delta;

/// A cheap, shared, immutable payload buffer: `Arc`'d storage plus an
/// offset/len window, `Bytes`-style.
///
/// Every hop of the sync path used to copy payload bytes (queue node →
/// message → wire → server apply). `Payload` replaces those copies with
/// reference-count bumps: cloning and [`slice`](Payload::slice)-ing share
/// the underlying allocation, so a write's data is materialized exactly
/// once — when the VFS event is intercepted — and then travels by view.
#[derive(Debug, Clone, Default, PartialEq, Eq, Hash)]
pub struct Payload(Bytes);

impl Payload {
    /// An empty payload.
    pub fn new() -> Self {
        Payload(Bytes::new())
    }

    /// Copies `data` into a fresh buffer — the one intentional copy, at
    /// the point bytes enter the sync pipeline.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Payload(Bytes::copy_from_slice(data))
    }

    /// Wraps a static byte slice.
    pub fn from_static(data: &'static [u8]) -> Self {
        Payload(Bytes::from_static(data))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Zero-copy sub-window: shares storage, adjusts offset/len.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        Payload(self.0.slice(range))
    }

    /// The shared buffer itself (zero-copy view).
    pub fn as_bytes(&self) -> &Bytes {
        &self.0
    }

    /// Copies the contents out into a `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.0.to_vec()
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Bytes> for Payload {
    fn from(b: Bytes) -> Self {
        Payload(b)
    }
}

impl From<Payload> for Bytes {
    fn from(p: Payload) -> Self {
        p.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Self {
        Payload(Bytes::from(v))
    }
}

impl PartialEq<[u8]> for Payload {
    fn eq(&self, other: &[u8]) -> bool {
        &self.0[..] == other
    }
}

/// Identifier of a sync client (device).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// A client-assigned file version: `<CliID, VerCnt>`.
///
/// Versions from different clients are distinct but not totally ordered in
/// any meaningful way — the protocol only compares them for equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Version {
    /// The client that assigned this version.
    pub client: ClientId,
    /// That client's monotonically increasing counter.
    pub counter: u64,
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{},{}>", self.client, self.counter)
    }
}

/// Identifier of one upload group: `<CliID, GroupSeq>`.
///
/// Like file versions, group sequence numbers are client-assigned from a
/// per-client monotonic counter — but they stamp the *group*, not the
/// file, so namespace-only groups (pure renames/mkdirs, which carry no
/// file version) are just as dedupable as content-bearing ones. A
/// stop-and-wait courier delivers each client's groups in `seq` order,
/// so a receiver recognizes a replay by one number per sender: a group
/// whose `seq` is at most the last one it applied from that client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GroupId {
    /// The client that uploaded the group.
    pub client: ClientId,
    /// That client's monotonically increasing group counter.
    pub seq: u64,
}

impl GroupId {
    /// Whether this group is a replay for a receiver whose `last` holds
    /// the highest `GroupSeq` it applied from each sender; a group that
    /// is not becomes its sender's entry.
    pub(crate) fn is_replay(self, last: &mut HashMap<ClientId, u64>) -> bool {
        let applied = last.entry(self.client).or_insert(0);
        let replay = self.seq <= *applied;
        *applied = (*applied).max(self.seq);
        replay
    }

    /// The span-context key this group id defines: every chunk frame
    /// already carries the `<CliID, GroupSeq>` pair in its wire header
    /// (upload, forward, and recovery-download directions alike), so
    /// causal spans recorded on either side of a link join the same
    /// tree without any extra bytes on the wire.
    pub fn span_key(&self) -> deltacfs_obs::GroupKey {
        deltacfs_obs::GroupKey {
            client: self.client.0,
            seq: self.seq,
        }
    }
}

impl fmt::Display for GroupId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<{},g{}>", self.client, self.seq)
    }
}

/// One intercepted file operation, as shipped by NFS-like file RPC.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FileOpItem {
    /// Write `data` at `offset`.
    Write {
        /// Byte offset of the write.
        offset: u64,
        /// The written bytes (shared buffer, not a copy).
        data: Payload,
    },
    /// Truncate (or zero-extend) the file to `size` bytes.
    Truncate {
        /// The new file size.
        size: u64,
    },
}

impl FileOpItem {
    /// Payload bytes this op carries on the wire (headers charged
    /// separately).
    pub fn payload_len(&self) -> u64 {
        match self {
            FileOpItem::Write { data, .. } => data.len() as u64,
            FileOpItem::Truncate { .. } => 0,
        }
    }

    /// The length of a file that was `len` bytes long once this op has
    /// been applied to it.
    pub fn len_after(&self, len: u64) -> u64 {
        match self {
            FileOpItem::Write { offset, data } => len.max(offset + data.len() as u64),
            FileOpItem::Truncate { size } => *size,
        }
    }

    /// The longest a file of `len` bytes gets while `ops` are applied to
    /// it in order (never less than `len`).
    pub fn peak_len(ops: &[FileOpItem], mut len: u64) -> u64 {
        let mut peak = len;
        for op in ops {
            len = op.len_after(len);
            peak = peak.max(len);
        }
        peak
    }

    /// Applies this op to a file image in memory.
    pub fn apply_to(&self, content: &mut Vec<u8>) {
        match self {
            FileOpItem::Write { offset, data } => {
                let end = *offset as usize + data.len();
                if end > content.len() {
                    content.resize(end, 0);
                }
                content[*offset as usize..end].copy_from_slice(data);
            }
            FileOpItem::Truncate { size } => {
                content.resize(*size as usize, 0);
            }
        }
    }
}

/// The body of an [`UpdateMsg`].
#[derive(Debug, Clone, PartialEq)]
pub enum UpdatePayload {
    /// Create an empty file.
    Create,
    /// Apply intercepted file operations (NFS-like file RPC).
    Ops(Vec<FileOpItem>),
    /// Apply a delta against the cloud's copy of `base_path` (which is the
    /// file itself for in-place updates, or the preserved old version —
    /// e.g. Word's `t0` — for transactional updates, Fig. 5b).
    Delta {
        /// The path whose cloud-side content is the delta base.
        base_path: String,
        /// The reconstruction recipe.
        delta: Delta,
    },
    /// Replace the file content wholesale (initial upload or fallback).
    Full(Payload),
    /// Rename this message's `path` to `to`.
    Rename {
        /// Destination path.
        to: String,
    },
    /// Duplicate this message's `path` as a copy named `to` (hard links
    /// materialize as copies on the cloud).
    Link {
        /// Destination path.
        to: String,
    },
    /// Remove the file.
    Unlink,
    /// Create a directory.
    Mkdir,
    /// Remove a directory.
    Rmdir,
}

/// Fixed per-message control overhead on the wire: path, versions, opcode,
/// framing. The paper notes DeltaCFS uploads slightly more than NFS
/// because of exactly this control information (§IV-C1).
pub const MSG_HEADER_BYTES: u64 = 64;

/// Per-file-op framing inside an [`UpdatePayload::Ops`] payload.
pub const OP_ITEM_HEADER_BYTES: u64 = 16;

/// Bytes one server acknowledgement occupies on the wire: the magic (4),
/// an ack opcode and padding (4), the group id (12) and three `u32`
/// outcome tallies (12). Every simulated ack download charges this
/// constant, so changing the ack header changes traffic stats everywhere
/// at once instead of silently skewing them.
pub const ACK_WIRE_BYTES: u64 = 32;

/// One versioned incremental update for one file.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateMsg {
    /// The file this update concerns.
    pub path: String,
    /// Version the update was computed against (`None` when the file is
    /// new to the cloud).
    pub base: Option<Version>,
    /// The version this update produces.
    pub version: Option<Version>,
    /// What to do.
    pub payload: UpdatePayload,
    /// The upload group this message travelled in (`<CliID, GroupSeq>`),
    /// shared by every member of the group; the server applies a group
    /// atomically (backindex grouping, paper §III-E). `None` only for
    /// synthetic messages that never cross the client→cloud upload path
    /// (full-sync pushes, anti-entropy repairs, persisted snapshot
    /// records).
    pub group: Option<GroupId>,
}

impl UpdateMsg {
    /// Total bytes this message occupies on the wire.
    pub fn wire_size(&self) -> u64 {
        MSG_HEADER_BYTES
            + match &self.payload {
                UpdatePayload::Create
                | UpdatePayload::Unlink
                | UpdatePayload::Mkdir
                | UpdatePayload::Rmdir => 0,
                UpdatePayload::Ops(ops) => ops
                    .iter()
                    .map(|op| OP_ITEM_HEADER_BYTES + op.payload_len())
                    .sum(),
                UpdatePayload::Delta { delta, base_path } => {
                    delta.wire_size() + base_path.len() as u64
                }
                UpdatePayload::Full(data) => data.len() as u64,
                UpdatePayload::Rename { to } | UpdatePayload::Link { to } => to.len() as u64,
            }
    }
}

/// The cloud's verdict on an applied update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyOutcome {
    /// The base version matched; the update is now the latest version.
    Applied,
    /// The base version did not match ("first write wins"): the update was
    /// materialized as a conflict copy at the contained path instead.
    Conflict {
        /// Where the losing version was stored.
        stored_as: String,
    },
    /// The update could not be applied at all (unknown base content); the
    /// client must fall back to a full upload.
    Rejected {
        /// Human-readable reason, for diagnostics.
        reason: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn version_display_matches_paper_notation() {
        let v = Version {
            client: ClientId(3),
            counter: 17,
        };
        assert_eq!(v.to_string(), "<c3,17>");
    }

    #[test]
    fn group_id_display_names_client_and_sequence() {
        let g = GroupId {
            client: ClientId(2),
            seq: 5,
        };
        assert_eq!(g.to_string(), "<c2,g5>");
    }

    #[test]
    fn op_apply_write_extends_and_overwrites() {
        let mut content = b"abcdef".to_vec();
        FileOpItem::Write {
            offset: 4,
            data: Payload::from_static(b"XYZ"),
        }
        .apply_to(&mut content);
        assert_eq!(content, b"abcdXYZ");
        FileOpItem::Truncate { size: 2 }.apply_to(&mut content);
        assert_eq!(content, b"ab");
        FileOpItem::Truncate { size: 4 }.apply_to(&mut content);
        assert_eq!(content, b"ab\0\0");
    }

    #[test]
    fn wire_size_counts_payload_and_headers() {
        let msg = UpdateMsg {
            path: "/f".into(),
            base: None,
            version: None,
            payload: UpdatePayload::Ops(vec![
                FileOpItem::Write {
                    offset: 0,
                    data: Payload::from_static(b"12345"),
                },
                FileOpItem::Truncate { size: 0 },
            ]),
            group: None,
        };
        assert_eq!(
            msg.wire_size(),
            MSG_HEADER_BYTES + 2 * OP_ITEM_HEADER_BYTES + 5
        );
        let full = UpdateMsg {
            payload: UpdatePayload::Full(Payload::from_static(b"123")),
            ..msg.clone()
        };
        assert_eq!(full.wire_size(), MSG_HEADER_BYTES + 3);
        let create = UpdateMsg {
            payload: UpdatePayload::Create,
            ..msg
        };
        assert_eq!(create.wire_size(), MSG_HEADER_BYTES);
    }
}
