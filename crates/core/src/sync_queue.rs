//! The Sync Queue (paper §III-B, Figs. 6 and 7).
//!
//! Incremental data waits here before upload. Writes to the same file are
//! batched into a single *write node* (indexed by a hash table for O(1)
//! lookup); a write node is *packed* — made immutable — when its file's
//! state changes (close, rename, unlink), so a recreated file with the
//! same name cannot corrupt it. When delta encoding is triggered, the
//! corresponding write node is deleted and the delta node enqueued
//! instead.
//!
//! Operating on non-tail nodes (batching into an old write node, deleting
//! a node) violates FIFO order and therefore causality. The queue records
//! a **backindex** on every such node: a pointer to the node that was at
//! the tail when the out-of-order operation happened. All nodes covered by
//! a backindex span are released (and must be applied by the cloud) as one
//! transaction; interleaving spans are merged.

use std::collections::{HashMap, VecDeque};

use deltacfs_delta::Delta;
use deltacfs_net::SimTime;

use crate::protocol::{FileOpItem, Payload, Version};

/// What a sync-queue node carries.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// The file was created empty.
    Create {
        /// The created path.
        path: String,
    },
    /// Batched intercepted operations on one file (the *write node*).
    Write {
        /// The written path.
        path: String,
        /// The batched operations, in order.
        ops: Vec<FileOpItem>,
        /// Whether the node has been packed (made immutable).
        packed: bool,
    },
    /// A triggered delta (replaces write/create nodes).
    Delta {
        /// The file the delta produces.
        path: String,
        /// The cloud-side path holding the base content.
        base_path: String,
        /// The reconstruction recipe.
        delta: Delta,
    },
    /// Full-content upload (initial sync or fallback).
    Full {
        /// The uploaded path.
        path: String,
        /// The file's entire content (shared buffer).
        data: Payload,
    },
    /// A rename.
    Rename {
        /// Old path.
        src: String,
        /// New path.
        dst: String,
    },
    /// A hard link (materializes as a server-side copy).
    Link {
        /// Existing path.
        src: String,
        /// New link name.
        dst: String,
    },
    /// A file removal.
    Unlink {
        /// The removed path.
        path: String,
    },
    /// A directory creation.
    Mkdir {
        /// The created directory.
        path: String,
    },
    /// A directory removal.
    Rmdir {
        /// The removed directory.
        path: String,
    },
}

impl NodeKind {
    /// The primary path the node concerns.
    pub fn path(&self) -> &str {
        match self {
            NodeKind::Create { path }
            | NodeKind::Write { path, .. }
            | NodeKind::Delta { path, .. }
            | NodeKind::Full { path, .. }
            | NodeKind::Unlink { path }
            | NodeKind::Mkdir { path }
            | NodeKind::Rmdir { path } => path,
            NodeKind::Rename { src, .. } | NodeKind::Link { src, .. } => src,
        }
    }

    /// File-content bytes the node holds: batched write data, a full
    /// upload's content, a delta's literals.
    fn payload_bytes(&self) -> u64 {
        match self {
            NodeKind::Write { ops, .. } => ops.iter().map(FileOpItem::payload_len).sum(),
            NodeKind::Full { data, .. } => data.len() as u64,
            NodeKind::Delta { delta, .. } => delta.literal_bytes(),
            _ => 0,
        }
    }

    /// Drops the content a superseded node will never ship.
    fn release_payload(&mut self) {
        match self {
            NodeKind::Write { ops, .. } => *ops = Vec::new(),
            NodeKind::Full { data, .. } => *data = Payload::new(),
            NodeKind::Delta { delta, .. } => *delta = Delta::default(),
            _ => {}
        }
    }
}

/// One queue entry.
#[derive(Debug, Clone)]
pub struct Node {
    /// Stable node identifier (monotonic).
    pub id: u64,
    /// Payload.
    pub kind: NodeKind,
    /// Version of the file this node's change was computed against.
    pub base: Option<Version>,
    /// Version the node produces.
    pub version: Option<Version>,
    /// When the node was enqueued.
    pub enqueued_at: SimTime,
    /// When the node was last modified (batched writes refresh this; the
    /// upload delay counts from here).
    pub last_touched: SimTime,
    /// Deleted nodes are skipped at upload but still delimit transactions.
    pub deleted: bool,
    /// Id of the node that was at the tail when this node was operated on
    /// out of FIFO order.
    pub backindex: Option<u64>,
}

/// The sync queue.
///
/// # Example
///
/// ```
/// use deltacfs_core::{FileOpItem, NodeKind, Payload, SyncQueue};
/// use deltacfs_net::SimTime;
///
/// let mut q = SyncQueue::new(3_000); // the paper's 3 s upload delay
/// q.push(
///     NodeKind::Write {
///         path: "/f".into(),
///         ops: vec![FileOpItem::Write { offset: 0, data: Payload::from_static(b"hi") }],
///         packed: false,
///     },
///     None,
///     None,
///     SimTime(0),
/// );
/// assert!(q.pop_ready(SimTime(2_999)).is_empty()); // still batching
/// assert_eq!(q.pop_ready(SimTime(3_000)).len(), 1); // aged out
/// ```
#[derive(Debug)]
pub struct SyncQueue {
    nodes: VecDeque<Node>,
    /// Path → id of that path's *open* (unpacked) write node.
    write_index: HashMap<String, u64>,
    next_id: u64,
    delay_ms: u64,
}

impl SyncQueue {
    /// Creates an empty queue whose nodes become uploadable `delay_ms`
    /// milliseconds after they were last touched.
    pub fn new(delay_ms: u64) -> Self {
        SyncQueue {
            nodes: VecDeque::new(),
            write_index: HashMap::new(),
            next_id: 1,
            delay_ms,
        }
    }

    /// Number of nodes currently queued (deleted placeholders included).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the queue holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Iterates over queued nodes front to back.
    pub fn iter(&self) -> impl Iterator<Item = &Node> {
        self.nodes.iter()
    }

    /// File-content bytes held by all queued nodes — batched write data,
    /// full uploads, delta literals; superseded nodes hold none.
    pub fn payload_bytes(&self) -> u64 {
        self.nodes.iter().map(|n| n.kind.payload_bytes()).sum()
    }

    /// The id of the node currently at the tail, if any.
    pub fn tail_id(&self) -> Option<u64> {
        self.nodes.back().map(|n| n.id)
    }

    fn position(&self, id: u64) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == id)
    }

    /// Appends a node and returns its id.
    pub fn push(
        &mut self,
        kind: NodeKind,
        base: Option<Version>,
        version: Option<Version>,
        now: SimTime,
    ) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        if let NodeKind::Write { path, packed, .. } = &kind {
            if !*packed {
                self.write_index.insert(path.clone(), id);
            }
        }
        self.nodes.push_back(Node {
            id,
            kind,
            base,
            version,
            enqueued_at: now,
            last_touched: now,
            deleted: false,
            backindex: None,
        });
        id
    }

    /// Batches `op` into `path`'s open write node, if one exists. Sets a
    /// backindex when the node is not at the tail (FIFO violation).
    ///
    /// Returns the node's id, or `None` when no open write node exists
    /// (the caller should [`SyncQueue::push`] a fresh one carrying the op).
    pub fn append_write(&mut self, path: &str, op: FileOpItem, now: SimTime) -> Option<u64> {
        let id = *self.write_index.get(path)?;
        let tail = self.tail_id().expect("write_index implies non-empty queue");
        let pos = self.position(id).expect("indexed node is queued");
        let node = &mut self.nodes[pos];
        match &mut node.kind {
            NodeKind::Write { ops, .. } => {
                ops.push(op);
                node.last_touched = now;
                if tail != id {
                    // Batching into a non-tail node: remember where this
                    // operation would have gone under strict FIFO.
                    node.backindex = Some(tail);
                }
                Some(id)
            }
            _ => unreachable!("write_index points at a non-write node"),
        }
    }

    /// Packs `path`'s open write node (close/rename/unlink), making it
    /// immutable. Subsequent writes to the same name start a new node.
    /// Returns the packed node's id, if there was one.
    ///
    /// Packing only seals the node; it touches none of the batched data.
    /// A packed node's runs of strictly adjacent `Write` ops are merged
    /// when the node is popped for upload — a transactional save packs a
    /// node on close and supersedes it on the rename that follows, so
    /// merging here would copy every written byte for nothing.
    pub fn pack(&mut self, path: &str) -> Option<u64> {
        let id = self.write_index.remove(path)?;
        let pos = self.position(id).expect("indexed node is queued");
        if let NodeKind::Write { packed, .. } = &mut self.nodes[pos].kind {
            *packed = true;
        }
        Some(id)
    }

    /// Ids of all non-deleted nodes whose primary path is `path`.
    pub fn pending_ids_for_path(&self, path: &str) -> Vec<u64> {
        self.nodes
            .iter()
            .filter(|n| !n.deleted && n.kind.path() == path)
            .map(|n| n.id)
            .collect()
    }

    /// Ids of non-deleted *content* nodes (create/write/full — plus unlink
    /// when `include_unlink`) for `path`. Namespace nodes (rename/link)
    /// are excluded: a triggered delta supersedes the file's content
    /// history, not the renames that preserved its old version.
    pub fn pending_content_ids(&self, path: &str, include_unlink: bool) -> Vec<u64> {
        self.nodes
            .iter()
            .filter(|n| {
                !n.deleted
                    && match &n.kind {
                        NodeKind::Create { path: p }
                        | NodeKind::Write { path: p, .. }
                        | NodeKind::Full { path: p, .. }
                        | NodeKind::Delta { path: p, .. } => p == path,
                        NodeKind::Unlink { path: p } => include_unlink && p == path,
                        _ => false,
                    }
            })
            .map(|n| n.id)
            .collect()
    }

    /// The `base` of the earliest pending content node for `path` —
    /// i.e. what the cloud holds at `path` before any of the pending
    /// history applies. Outer `None` means no content node is pending:
    /// everything the client assigned to `path` has already shipped.
    pub fn pending_chain_base(&self, path: &str) -> Option<Option<Version>> {
        self.nodes.iter().find_map(|n| {
            if n.deleted {
                return None;
            }
            let touches = match &n.kind {
                NodeKind::Create { path: p }
                | NodeKind::Write { path: p, .. }
                | NodeKind::Full { path: p, .. }
                | NodeKind::Delta { path: p, .. }
                | NodeKind::Unlink { path: p } => p == path,
                _ => false,
            };
            touches.then_some(n.base)
        })
    }

    /// Whether a pending rename still involves `path` on either end —
    /// the cloud's copy under that name is about to move, so `path`'s
    /// version there cannot be projected from the version map.
    pub fn pending_rename_touching(&self, path: &str) -> bool {
        self.nodes.iter().any(|n| {
            !n.deleted
                && matches!(&n.kind,
                    NodeKind::Rename { src, dst } if src == path || dst == path)
        })
    }

    /// Whether a (non-deleted) `Create` node for `path` is still queued —
    /// i.e. the cloud has never heard of this file.
    pub fn has_pending_create(&self, path: &str) -> bool {
        self.nodes
            .iter()
            .any(|n| !n.deleted && matches!(&n.kind, NodeKind::Create { path: p } if p == path))
    }

    /// Marks `ids` deleted with a backindex to `target` (the node standing
    /// where the deleting operation would have been appended under FIFO).
    /// A deleted node stays queued as a placeholder that delimits its
    /// transaction, but its content is released at once. Unknown ids are
    /// ignored.
    pub fn delete_nodes(&mut self, ids: &[u64], target: u64) {
        for node in &mut self.nodes {
            if ids.contains(&node.id) {
                node.deleted = true;
                node.backindex = Some(target);
                node.kind.release_payload();
                if let NodeKind::Write { path, packed, .. } = &mut node.kind {
                    *packed = true;
                    if self.write_index.get(path.as_str()) == Some(&node.id) {
                        self.write_index.remove(path.as_str());
                    }
                }
            }
        }
    }

    fn node_ready(&self, node: &Node, now: SimTime) -> bool {
        node.deleted || now.since(node.last_touched) >= self.delay_ms
    }

    /// Releases, from the front, every transaction group whose nodes have
    /// all aged past the upload delay. Stops at the first group that is
    /// not fully ready (strict FIFO between groups).
    pub fn pop_ready(&mut self, now: SimTime) -> Vec<Vec<Node>> {
        let groups = group_spans(self.nodes.make_contiguous());
        let mut take = 0usize;
        for (start, end) in groups {
            let all_ready = (start..=end).all(|i| self.node_ready(&self.nodes[i], now));
            if all_ready {
                take = end + 1;
            } else {
                break;
            }
        }
        self.take_front(take)
    }

    /// Releases everything unconditionally (end of experiment / shutdown).
    pub fn pop_all(&mut self) -> Vec<Vec<Node>> {
        self.take_front(self.nodes.len())
    }

    fn take_front(&mut self, count: usize) -> Vec<Vec<Node>> {
        if count == 0 {
            return Vec::new();
        }
        let mut popped: Vec<Node> = Vec::with_capacity(count);
        for _ in 0..count {
            let mut node = self.nodes.pop_front().expect("count bounded by len");
            if let NodeKind::Write { path, ops, packed } = &mut node.kind {
                if self.write_index.get(path.as_str()) == Some(&node.id) {
                    self.write_index.remove(path.as_str());
                }
                // Only a sealed node is merged: an open node that aged
                // out ships its ops as they were written (and a deleted
                // one has none left).
                if *packed {
                    coalesce_adjacent_writes(ops);
                }
            }
            popped.push(node);
        }
        // Re-split the popped prefix into its transaction groups.
        let spans = group_spans(&popped);
        let mut out: Vec<Vec<Node>> = Vec::with_capacity(spans.len());
        let mut it = popped.into_iter();
        for (start, end) in spans {
            out.push(it.by_ref().take(end - start + 1).collect());
        }
        out
    }
}

/// Merges each run of strictly adjacent `Write` ops — `next.offset ==
/// prev.offset + prev.data.len()` — into one op carrying the concatenated
/// data. Non-write ops and non-adjacent writes break a run; op order is
/// preserved, and the byte image the sequence produces is unchanged.
///
/// Sequential writers — editors flushing a buffer, databases appending a
/// log — produce long such runs, and every op costs a fixed protocol
/// header on the wire. A run is measured first and gathered into one
/// buffer allocated at its final size, so each byte is copied once; an op
/// outside any run is moved, not copied.
fn coalesce_adjacent_writes(ops: &mut Vec<FileOpItem>) {
    let adjacent = |pair: &[FileOpItem]| match pair {
        [FileOpItem::Write { offset, data }, FileOpItem::Write { offset: next, .. }] => {
            *offset + data.len() as u64 == *next
        }
        _ => false,
    };
    if !ops.windows(2).any(adjacent) {
        return;
    }
    let mut out: Vec<FileOpItem> = Vec::with_capacity(ops.len());
    // The pending run: its start offset, the offset just past its last
    // byte, and its pieces in order.
    let (mut run_start, mut run_end) = (0u64, 0u64);
    let mut run: Vec<Payload> = Vec::new();
    let flush = |run: &mut Vec<Payload>, run_start: u64, out: &mut Vec<FileOpItem>| {
        let data = match run.len() {
            0 => return,
            1 => run.pop().expect("one piece"),
            _ => {
                let mut merged = Vec::with_capacity(run.iter().map(Payload::len).sum());
                for piece in run.drain(..) {
                    merged.extend_from_slice(&piece);
                }
                Payload::from(merged)
            }
        };
        out.push(FileOpItem::Write {
            offset: run_start,
            data,
        });
    };
    for op in ops.drain(..) {
        match op {
            FileOpItem::Write { offset, data } => {
                if run.is_empty() || offset != run_end {
                    flush(&mut run, run_start, &mut out);
                    run_start = offset;
                    run_end = offset;
                }
                run_end += data.len() as u64;
                run.push(data);
            }
            other => {
                flush(&mut run, run_start, &mut out);
                out.push(other);
            }
        }
    }
    flush(&mut run, run_start, &mut out);
    *ops = out;
}

/// Maximal runs of nodes connected by (merged) backindex spans: each node
/// at position `p` contributes the interval `[p, pos(backindex)]`;
/// overlapping intervals merge. Returns inclusive `(start, end)` position
/// pairs covering `nodes` in order.
fn group_spans(nodes: &[Node]) -> Vec<(usize, usize)> {
    let mut pos_of: HashMap<u64, usize> = HashMap::with_capacity(nodes.len());
    for (i, n) in nodes.iter().enumerate() {
        pos_of.insert(n.id, i);
    }
    let mut groups = Vec::new();
    let mut i = 0;
    while i < nodes.len() {
        let mut end = i;
        let mut j = i;
        while j <= end {
            if let Some(bi) = nodes[j].backindex {
                if let Some(&t) = pos_of.get(&bi) {
                    end = end.max(t);
                }
            }
            j += 1;
        }
        groups.push((i, end));
        i = end + 1;
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(offset: u64, data: &'static [u8]) -> FileOpItem {
        FileOpItem::Write {
            offset,
            data: Payload::from_static(data),
        }
    }

    fn push_write(q: &mut SyncQueue, path: &str, op: FileOpItem, now: SimTime) -> u64 {
        match q.append_write(path, op.clone(), now) {
            Some(id) => id,
            None => q.push(
                NodeKind::Write {
                    path: path.into(),
                    ops: vec![op],
                    packed: false,
                },
                None,
                None,
                now,
            ),
        }
    }

    #[test]
    fn writes_to_same_file_batch_into_one_node() {
        let mut q = SyncQueue::new(3000);
        let id1 = push_write(&mut q, "/f", w(0, b"aa"), SimTime(0));
        let id2 = push_write(&mut q, "/f", w(2, b"bb"), SimTime(10));
        assert_eq!(id1, id2);
        assert_eq!(q.len(), 1);
        let first = q.iter().next().unwrap();
        match &first.kind {
            NodeKind::Write { ops, .. } => assert_eq!(ops.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn packed_node_no_longer_batches() {
        let mut q = SyncQueue::new(3000);
        push_write(&mut q, "/f", w(0, b"aa"), SimTime(0));
        q.pack("/f");
        let id2 = push_write(&mut q, "/f", w(0, b"bb"), SimTime(10));
        assert_eq!(q.len(), 2);
        assert!(q.iter().any(|n| n.id == id2));
    }

    /// The ops of the single write node a full pop releases.
    fn popped_ops(q: &mut SyncQueue) -> Vec<FileOpItem> {
        let mut nodes: Vec<Node> = q.pop_all().into_iter().flatten().collect();
        assert_eq!(nodes.len(), 1);
        match nodes.pop().unwrap().kind {
            NodeKind::Write { ops, .. } => ops,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn pack_coalesces_adjacent_writes() {
        let mut q = SyncQueue::new(3000);
        // Sequential writer: 0..2, 2..4, 4..6 — then a gap, then 10..12.
        push_write(&mut q, "/f", w(0, b"aa"), SimTime(0));
        push_write(&mut q, "/f", w(2, b"bb"), SimTime(1));
        push_write(&mut q, "/f", w(4, b"cc"), SimTime(2));
        push_write(&mut q, "/f", w(10, b"dd"), SimTime(3));
        q.pack("/f");
        assert!(matches!(
            q.iter().next().unwrap().kind,
            NodeKind::Write { packed: true, .. }
        ));
        assert_eq!(
            popped_ops(&mut q),
            vec![w(0, b"aabbcc"), w(10, b"dd")],
            "adjacent run merged, gapped write kept separate"
        );
    }

    #[test]
    fn pack_seals_without_touching_the_data() {
        let mut q = SyncQueue::new(3000);
        let ops = [w(0, b"aa"), w(2, b"bb"), w(4, b"cc")];
        for (i, op) in ops.iter().enumerate() {
            push_write(&mut q, "/f", op.clone(), SimTime(i as u64));
        }
        q.pack("/f");
        let node = q.iter().next().unwrap();
        match &node.kind {
            NodeKind::Write {
                ops: queued,
                packed,
                ..
            } => {
                assert!(*packed);
                assert_eq!(queued.len(), 3, "merging waits for the pop");
                for (queued, appended) in queued.iter().zip(&ops) {
                    let (FileOpItem::Write { data: a, .. }, FileOpItem::Write { data: b, .. }) =
                        (queued, appended)
                    else {
                        panic!("unexpected op");
                    };
                    assert_eq!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr());
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn open_node_that_ages_out_pops_unmerged() {
        let mut q = SyncQueue::new(3000);
        push_write(&mut q, "/f", w(0, b"aa"), SimTime(0));
        push_write(&mut q, "/f", w(2, b"bb"), SimTime(1));
        let mut nodes: Vec<Node> = q.pop_ready(SimTime(5000)).into_iter().flatten().collect();
        match nodes.pop().unwrap().kind {
            NodeKind::Write { ops, packed, .. } => {
                assert!(!packed);
                assert_eq!(ops, vec![w(0, b"aa"), w(2, b"bb")]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn unmerged_ops_keep_their_buffers_through_the_pop() {
        // A lone op and an op outside any run are moved, not re-copied.
        let mut q = SyncQueue::new(3000);
        let gapped = w(10, b"dd");
        push_write(&mut q, "/f", w(0, b"aa"), SimTime(0));
        push_write(&mut q, "/f", w(2, b"bb"), SimTime(1));
        push_write(&mut q, "/f", gapped.clone(), SimTime(2));
        q.pack("/f");
        let ops = popped_ops(&mut q);
        let (FileOpItem::Write { data: a, .. }, FileOpItem::Write { data: b, .. }) =
            (&ops[1], &gapped)
        else {
            panic!("unexpected op");
        };
        assert_eq!(a.as_bytes().as_ptr(), b.as_bytes().as_ptr());
    }

    #[test]
    fn coalescing_stops_at_non_write_ops() {
        let mut q = SyncQueue::new(3000);
        push_write(&mut q, "/f", w(0, b"aa"), SimTime(0));
        q.append_write("/f", FileOpItem::Truncate { size: 2 }, SimTime(1));
        push_write(&mut q, "/f", w(2, b"bb"), SimTime(2));
        q.pack("/f");
        assert_eq!(popped_ops(&mut q).len(), 3, "truncate must break the run");
    }

    #[test]
    fn coalescing_only_merges_exact_adjacency() {
        // Overlapping writes (offset < prev end) must NOT merge: the later
        // write overwrites part of the earlier one, and concatenation
        // would corrupt the replayed image.
        let mut q = SyncQueue::new(3000);
        push_write(&mut q, "/f", w(0, b"aaaa"), SimTime(0));
        push_write(&mut q, "/f", w(2, b"bb"), SimTime(1));
        q.pack("/f");
        assert_eq!(popped_ops(&mut q), vec![w(0, b"aaaa"), w(2, b"bb")]);
    }

    #[test]
    fn deleted_nodes_release_their_payload() {
        let mut q = SyncQueue::new(3000);
        let a = push_write(&mut q, "/a", w(0, b"aaaa"), SimTime(0));
        let b = q.push(
            NodeKind::Full {
                path: "/b".into(),
                data: Payload::from_static(b"bbbbbb"),
            },
            None,
            None,
            SimTime(0),
        );
        let c = push_write(&mut q, "/c", w(0, b"cc"), SimTime(0));
        assert_eq!(q.payload_bytes(), 12);
        q.delete_nodes(&[a, b], c);
        assert_eq!(q.payload_bytes(), 2, "only the live node holds bytes");
        assert_eq!(q.len(), 3, "placeholders still delimit the transaction");
        let groups = q.pop_all();
        assert_eq!(groups.len(), 1);
    }

    #[test]
    fn groups_are_unchanged_when_the_ring_has_wrapped() {
        // Reference: the same backindex pattern in a queue that never
        // popped, so its ring is one contiguous slice.
        let build = |q: &mut SyncQueue| {
            let ids: Vec<u64> = (0..6)
                .map(|i| {
                    q.push(
                        NodeKind::Create {
                            path: format!("/n{i}"),
                        },
                        None,
                        None,
                        SimTime(10),
                    )
                })
                .collect();
            q.delete_nodes(&[ids[0]], ids[2]);
            q.delete_nodes(&[ids[3]], ids[4]);
        };
        let shape = |groups: Vec<Vec<Node>>| -> Vec<Vec<String>> {
            groups
                .iter()
                .map(|g| g.iter().map(|n| n.kind.path().to_string()).collect())
                .collect()
        };
        let mut flat = SyncQueue::new(0);
        build(&mut flat);
        assert!(flat.nodes.as_slices().1.is_empty());
        let expected = shape(flat.pop_ready(SimTime(10)));
        assert_eq!(expected.len(), 3);

        // Fill the ring to capacity, pop from the front, and push again so
        // the live range wraps past the end of the buffer.
        let mut q = SyncQueue::new(0);
        let fill = q.nodes.capacity().max(8);
        for i in 0..fill {
            q.push(
                NodeKind::Create {
                    path: format!("/pad{i}"),
                },
                None,
                None,
                SimTime(0),
            );
        }
        assert_eq!(q.pop_ready(SimTime(0)).len(), fill);
        for i in 0..q.nodes.capacity() - 3 {
            q.push(
                NodeKind::Create {
                    path: format!("/pad{i}"),
                },
                None,
                None,
                SimTime(0),
            );
        }
        assert_eq!(q.pop_ready(SimTime(0)).len(), q.nodes.capacity() - 3);
        build(&mut q);
        assert!(!q.nodes.as_slices().1.is_empty(), "ring must have wrapped");
        assert_eq!(shape(q.pop_ready(SimTime(10))), expected);
        assert!(q.is_empty());
    }

    #[test]
    fn nodes_wait_for_upload_delay() {
        let mut q = SyncQueue::new(3000);
        push_write(&mut q, "/f", w(0, b"aa"), SimTime(0));
        assert!(q.pop_ready(SimTime(2999)).is_empty());
        let groups = q.pop_ready(SimTime(3000));
        assert_eq!(groups.len(), 1);
        assert!(q.is_empty());
    }

    #[test]
    fn batched_write_refreshes_delay() {
        let mut q = SyncQueue::new(3000);
        push_write(&mut q, "/f", w(0, b"aa"), SimTime(0));
        push_write(&mut q, "/f", w(2, b"bb"), SimTime(2000));
        assert!(q.pop_ready(SimTime(3001)).is_empty());
        assert_eq!(q.pop_ready(SimTime(5000)).len(), 1);
    }

    #[test]
    fn fifo_between_files() {
        let mut q = SyncQueue::new(1000);
        push_write(&mut q, "/a", w(0, b"a"), SimTime(0));
        push_write(&mut q, "/b", w(0, b"b"), SimTime(500));
        // /a is ready at 1000 but /b is not: only /a pops.
        let groups = q.pop_ready(SimTime(1200));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0][0].kind.path(), "/a");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn batching_into_non_tail_node_sets_backindex_and_groups() {
        let mut q = SyncQueue::new(1000);
        push_write(&mut q, "/a", w(0, b"a1"), SimTime(0));
        push_write(&mut q, "/b", w(0, b"b1"), SimTime(0));
        // Batch another write into /a's node — /a's node is no longer at
        // the tail, so it must be applied transactionally with /b's.
        push_write(&mut q, "/a", w(2, b"a2"), SimTime(100));
        let node_a = q.iter().find(|n| n.kind.path() == "/a").unwrap();
        let node_b = q.iter().find(|n| n.kind.path() == "/b").unwrap();
        assert_eq!(node_a.backindex, Some(node_b.id));
        let groups = q.pop_ready(SimTime(5000));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn deleted_nodes_delimit_transactions() {
        // Paper's causality example: create a, create b, create c,
        // delete a (before upload). The deleted node's backindex to the
        // tail forces b and c into one atomic group with it.
        let mut q = SyncQueue::new(1000);
        let a = q.push(
            NodeKind::Create { path: "/a".into() },
            None,
            None,
            SimTime(0),
        );
        let _b = q.push(
            NodeKind::Create { path: "/b".into() },
            None,
            None,
            SimTime(0),
        );
        let c = q.push(
            NodeKind::Create { path: "/c".into() },
            None,
            None,
            SimTime(0),
        );
        q.delete_nodes(&[a], c);
        let groups = q.pop_ready(SimTime(5000));
        assert_eq!(groups.len(), 1);
        let live: Vec<&str> = groups[0]
            .iter()
            .filter(|n| !n.deleted)
            .map(|n| n.kind.path())
            .collect();
        assert_eq!(live, vec!["/b", "/c"]);
    }

    #[test]
    fn interleaved_backindex_spans_merge() {
        let mut q = SyncQueue::new(0);
        let n1 = q.push(
            NodeKind::Create { path: "/1".into() },
            None,
            None,
            SimTime(0),
        );
        let n2 = q.push(
            NodeKind::Create { path: "/2".into() },
            None,
            None,
            SimTime(0),
        );
        let n3 = q.push(
            NodeKind::Create { path: "/3".into() },
            None,
            None,
            SimTime(0),
        );
        let n4 = q.push(
            NodeKind::Create { path: "/4".into() },
            None,
            None,
            SimTime(0),
        );
        q.delete_nodes(&[n1], n3);
        q.delete_nodes(&[n2], n4);
        // Spans [1,3] and [2,4] interleave: one merged group of 4.
        let groups = q.pop_ready(SimTime(100));
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 4);
    }

    #[test]
    fn disjoint_spans_stay_separate_groups() {
        let mut q = SyncQueue::new(0);
        let n1 = q.push(
            NodeKind::Create { path: "/1".into() },
            None,
            None,
            SimTime(0),
        );
        let n2 = q.push(
            NodeKind::Create { path: "/2".into() },
            None,
            None,
            SimTime(0),
        );
        let _n3 = q.push(
            NodeKind::Create { path: "/3".into() },
            None,
            None,
            SimTime(0),
        );
        q.delete_nodes(&[n1], n2);
        let groups = q.pop_ready(SimTime(100));
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].len(), 2);
        assert_eq!(groups[1].len(), 1);
    }

    #[test]
    fn group_blocks_until_every_member_ready() {
        let mut q = SyncQueue::new(1000);
        let a = q.push(
            NodeKind::Create { path: "/a".into() },
            None,
            None,
            SimTime(0),
        );
        // A second node arrives late; deleting /a's node with a backindex
        // to it glues them together.
        let b = q.push(
            NodeKind::Create { path: "/b".into() },
            None,
            None,
            SimTime(900),
        );
        q.delete_nodes(&[a], b);
        // At t=1000, /a alone would be ready but /b is not: nothing pops.
        assert!(q.pop_ready(SimTime(1000)).is_empty());
        assert_eq!(q.pop_ready(SimTime(1900)).len(), 1);
    }

    #[test]
    fn pending_queries() {
        let mut q = SyncQueue::new(1000);
        q.push(
            NodeKind::Create { path: "/f".into() },
            None,
            None,
            SimTime(0),
        );
        push_write(&mut q, "/f", w(0, b"x"), SimTime(0));
        assert!(q.has_pending_create("/f"));
        assert_eq!(q.pending_ids_for_path("/f").len(), 2);
        assert!(!q.has_pending_create("/g"));
        let ids = q.pending_ids_for_path("/f");
        let tail = q.tail_id().unwrap();
        q.delete_nodes(&ids, tail);
        assert!(!q.has_pending_create("/f"));
        assert!(q.pending_ids_for_path("/f").is_empty());
    }

    #[test]
    fn pop_all_flushes_everything_in_order() {
        let mut q = SyncQueue::new(60_000);
        push_write(&mut q, "/a", w(0, b"a"), SimTime(0));
        q.pack("/a");
        push_write(&mut q, "/a", w(0, b"b"), SimTime(1));
        let groups = q.pop_all();
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 2);
        assert!(q.is_empty());
    }

    #[test]
    fn write_after_pop_creates_fresh_node() {
        let mut q = SyncQueue::new(0);
        push_write(&mut q, "/f", w(0, b"a"), SimTime(0));
        q.pop_ready(SimTime(1));
        let id = push_write(&mut q, "/f", w(1, b"b"), SimTime(2));
        assert_eq!(q.len(), 1);
        assert_eq!(q.iter().next().unwrap().id, id);
    }
}
