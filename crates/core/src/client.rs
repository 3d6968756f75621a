//! The DeltaCFS client engine (paper §III).
//!
//! The engine consumes the intercepted operation stream from the VFS and
//! produces versioned incremental updates:
//!
//! * every file gets **NFS-like file RPC** by default — intercepted writes
//!   are batched into sync-queue write nodes and shipped verbatim;
//! * the **relation table** watches rename/unlink patterns; when a
//!   transactional update is recognized (Word, gedit, delete-then-rewrite)
//!   the batched RPC nodes are superseded by one **locally computed
//!   delta** (rolling checksums + bitwise comparison, no MD5);
//! * an **undo log** of overwritten bytes lets the engine delta-compress
//!   in-place updates that modified a large fraction of a file;
//! * a **checksum store** (4 KB blocks, rolling checksums in a KV store)
//!   detects silent corruption and post-crash inconsistency before they
//!   are propagated to the cloud;
//! * versions are client-assigned `<CliID, VerCnt>` pairs; causal order is
//!   preserved by the sync queue's backindex transactions.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use bytes::Bytes;
use deltacfs_delta::{local, Cost, DeltaParams};
use deltacfs_kvstore::{KeyValue, MemStore};
use deltacfs_net::{SimClock, SimTime};
use deltacfs_obs::{Obs, SpanId};
use deltacfs_vfs::{OpEvent, Vfs};

use crate::checksum_store::ChecksumStore;
use crate::config::{CausalMode, DeltaCfsConfig};
use crate::protocol::{ClientId, FileOpItem, GroupId, Payload, UpdateMsg, UpdatePayload, Version};
use crate::relation_table::{OldVersion, Preserved, RelationTable};
use crate::sync_queue::{NodeKind, SyncQueue};
use crate::undo_log::UndoLog;

/// An integrity problem the engine detected and refused to propagate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityIssue {
    /// The affected file.
    pub path: String,
    /// The mismatching block indices.
    pub blocks: Vec<u64>,
    /// What kind of fault this looks like.
    pub kind: IssueKind,
}

/// Classification of a detected integrity problem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IssueKind {
    /// A block changed without any operation passing the interception
    /// layer while the system was running (silent corruption).
    Corruption,
    /// A recently modified file disagrees with its checksums after a
    /// crash (ordered-journaling inconsistency).
    CrashInconsistency,
}

/// A conflict noticed while applying a remote (forwarded) update.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RemoteConflict {
    /// The contested file.
    pub path: String,
    /// Where the local (losing) content was preserved.
    pub local_copy: String,
}

/// The DeltaCFS client engine, generic over the checksum-store backend.
#[derive(Debug)]
pub struct DeltaCfsClient<K: KeyValue = MemStore> {
    id: ClientId,
    cfg: DeltaCfsConfig,
    clock: SimClock,
    relation: RelationTable,
    queue: SyncQueue,
    /// Latest version assigned or observed per path.
    versions: HashMap<String, Version>,
    /// File sizes tracked from the event stream (for undo-log bookkeeping).
    sizes: HashMap<String, u64>,
    ver_counter: u64,
    /// Monotonic upload-group counter: every group leaving this client is
    /// stamped `<CliID, GroupSeq>` from here. Like `ver_counter` it is
    /// never reset — a crash rebuilds the queue but not the counters, so
    /// post-restart groups always rise above every pre-crash seq the
    /// server applied, which is what its replay rule relies on.
    group_counter: u64,
    pending_delta: HashMap<String, Preserved>,
    undo: HashMap<String, UndoLog>,
    /// The version a file held when its (currently open) undo batch
    /// started — i.e. the newest version the cloud could have acked for
    /// it. Crash recovery replays the undo log as a delta only when the
    /// cloud is still at this base.
    undo_base: HashMap<String, Version>,
    checksums: ChecksumStore<K>,
    quarantined: HashSet<String>,
    issues: Vec<IntegrityIssue>,
    last_snapshot: SimTime,
    cost: Cost,
    /// Observability bundle; default-disabled recorder, so every
    /// recorder call below costs one `Cell<bool>` read until
    /// [`DeltaCfsClient::set_obs`] installs a live one.
    obs: Obs,
    /// Actor name under which this client's records are made.
    actor: String,
    /// Per queue node, the `relation.trigger` and `delta.encode` records
    /// made when the node was queued — the `<CliID, GroupSeq>` they
    /// belong to only exists once `convert_groups` stamps the group,
    /// which then attaches them to it.
    span_marks: HashMap<u64, [SpanId; 2]>,
}

impl DeltaCfsClient<MemStore> {
    /// Creates a client with an in-memory checksum store.
    pub fn new(id: ClientId, cfg: DeltaCfsConfig, clock: SimClock) -> Self {
        Self::with_backend(id, cfg, clock, MemStore::new())
    }
}

impl<K: KeyValue> DeltaCfsClient<K> {
    /// Creates a client with an explicit checksum-store backend (e.g. the
    /// persistent [`deltacfs_kvstore::KvStore`]).
    pub fn with_backend(id: ClientId, cfg: DeltaCfsConfig, clock: SimClock, backend: K) -> Self {
        DeltaCfsClient {
            id,
            cfg,
            relation: RelationTable::new(cfg.relation_timeout_ms),
            queue: SyncQueue::new(cfg.upload_delay_ms),
            versions: HashMap::new(),
            sizes: HashMap::new(),
            ver_counter: 0,
            group_counter: 0,
            pending_delta: HashMap::new(),
            undo: HashMap::new(),
            undo_base: HashMap::new(),
            checksums: ChecksumStore::new(backend, cfg.block_size),
            quarantined: HashSet::new(),
            issues: Vec::new(),
            last_snapshot: SimTime::ZERO,
            clock,
            cost: Cost::new(),
            obs: Obs::new(),
            actor: format!("client-{}", id.0),
            span_marks: HashMap::new(),
        }
    }

    /// Records a relation-table trigger; a single `Cell<bool>` read while
    /// recording is off.
    fn mark_relation(&self, now: SimTime, detail: impl FnOnce() -> String) -> SpanId {
        let at_ms = now.as_millis();
        self.obs
            .recorder
            .event(None, &self.actor, "relation.trigger", at_ms, detail)
    }

    /// Installs a shared observability bundle: this client's records
    /// flow into `obs.recorder` under the actor name `client-<id>`.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// This client's identifier.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// Work performed so far.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// The client's configuration.
    pub fn config(&self) -> &DeltaCfsConfig {
        &self.cfg
    }

    /// Integrity issues detected so far.
    pub fn issues(&self) -> &[IntegrityIssue] {
        &self.issues
    }

    /// Whether [`DeltaCfsClient::tick`] would do nothing, whatever the
    /// time: no node queued and no relation-table entry left to expire.
    /// A driver may skip such a client until its file system logs an
    /// event. Never true in [`CausalMode::Snapshot`]: there a tick moves
    /// the snapshot clock even over an empty queue, so a skipped tick
    /// would shift every later upload.
    pub fn is_quiescent(&self) -> bool {
        self.queue.is_empty()
            && self.relation.is_empty()
            && !matches!(self.cfg.causal_mode, CausalMode::Snapshot { .. })
    }

    /// Number of nodes waiting in the sync queue (diagnostics).
    pub fn queued_nodes(&self) -> usize {
        self.queue.len()
    }

    /// File-content bytes the sync queue holds (write data, full
    /// uploads, delta literals); superseded nodes hold none.
    pub fn queued_payload_bytes(&self) -> u64 {
        self.queue.payload_bytes()
    }

    /// The latest version this client knows for `path`.
    pub fn version_of(&self, path: &str) -> Option<Version> {
        self.versions.get(path).copied()
    }

    fn next_version(&mut self) -> Version {
        self.ver_counter += 1;
        Version {
            client: self.id,
            counter: self.ver_counter,
        }
    }

    /// When a fresh undo batch opens for `path`, remember which version
    /// the file had — the delta base crash recovery will need.
    fn note_undo_base(&mut self, path: &str) {
        if self.undo.get(path).is_none_or(UndoLog::is_empty) {
            match self.versions.get(path) {
                Some(v) => {
                    self.undo_base.insert(path.to_string(), *v);
                }
                None => {
                    self.undo_base.remove(path);
                }
            }
        }
    }

    fn clear_undo(&mut self, path: &str) {
        self.undo.remove(path);
        self.undo_base.remove(path);
    }

    /// Enqueues full-content uploads for every file already present in
    /// `fs` (initial sync of a pre-existing folder).
    pub fn bootstrap(&mut self, fs: &Vfs) {
        let now = self.clock.now();
        let paths = fs.walk_files("/").unwrap_or_default();
        for path in paths {
            let content = engine_read(&mut self.cost, fs, path.as_str());
            self.checksums
                .reindex_file(path.as_str(), content, &mut self.cost)
                .ok();
            let version = self.next_version();
            self.sizes.insert(path.to_string(), content.len() as u64);
            self.queue.push(
                NodeKind::Full {
                    path: path.to_string(),
                    data: Payload::copy_from_slice(content),
                },
                None,
                Some(version),
                now,
            );
            self.versions.insert(path.to_string(), version);
        }
    }

    /// Feeds one intercepted operation into the engine.
    ///
    /// Events must be delivered *before* the file system advances further
    /// (FUSE interception is synchronous). Delivering a batch of events at
    /// once is safe for plain in-place workloads, but transactional
    /// updates whose preserved old version (`t0`) is unlinked within the
    /// same batch will fall back to a full upload, because the old content
    /// is no longer readable when the trigger fires.
    pub fn handle_event(&mut self, event: &OpEvent, fs: &Vfs) {
        let now = self.clock.now();
        self.obs
            .recorder
            .event(None, &self.actor, "vfs.op", now.as_millis(), || {
                op_summary(event)
            });
        match event {
            OpEvent::Create { path } => self.on_create(path.as_str(), now),
            OpEvent::Write {
                path,
                offset,
                data,
                overwritten,
                stamp,
            } => self.on_write(path.as_str(), (*offset, data), overwritten, *stamp, fs, now),
            OpEvent::Truncate {
                path,
                size,
                cut,
                stamp,
            } => self.on_truncate(path.as_str(), *size, cut, *stamp, fs, now),
            OpEvent::Rename { src, dst, replaced } => {
                self.on_rename(src.as_str(), dst.as_str(), replaced.clone(), fs, now)
            }
            OpEvent::Link { src, dst } => self.on_link(src.as_str(), dst.as_str(), now),
            OpEvent::Unlink { path, removed } => {
                self.on_unlink(path.as_str(), removed.clone(), now)
            }
            OpEvent::Mkdir { path } => {
                self.queue.push(
                    NodeKind::Mkdir {
                        path: path.to_string(),
                    },
                    None,
                    None,
                    now,
                );
            }
            OpEvent::Rmdir { path } => {
                self.queue.push(
                    NodeKind::Rmdir {
                        path: path.to_string(),
                    },
                    None,
                    None,
                    now,
                );
            }
            OpEvent::Close { path } => self.on_close(path.as_str(), fs, now),
            OpEvent::Fsync { .. } => {}
        }
    }

    fn on_create(&mut self, path: &str, now: SimTime) {
        if let Some(pre) = (self.cfg.causal_mode != CausalMode::StrictFifo)
            .then(|| self.relation.take_match(path, now))
            .flatten()
        {
            // Delete-then-rewrite (or similar) pattern: remember the old
            // version; the delta runs when the new content is complete.
            self.mark_relation(now, || {
                format!("delete-then-rewrite matched on {path}; delta deferred to close")
            });
            self.pending_delta.insert(path.to_string(), pre);
        }
        self.sizes.insert(path.to_string(), 0);
        let version = self.next_version();
        self.queue.push(
            NodeKind::Create {
                path: path.to_string(),
            },
            self.versions.get(path).copied(),
            Some(version),
            now,
        );
        self.versions.insert(path.to_string(), version);
    }

    fn on_write(
        &mut self,
        path: &str,
        (offset, data): (u64, &Bytes),
        overwritten: &Bytes,
        stamp: u64,
        fs: &Vfs,
        now: SimTime,
    ) {
        let old_len = self.sizes.get(path).copied().unwrap_or(0);
        let new_len = old_len.max(offset + data.len() as u64);
        self.sizes.insert(path.to_string(), new_len);
        self.relation.invalidate_dst(path);

        // Interception itself costs one copy of the written data.
        self.cost.bytes_copied += data.len() as u64;

        self.verify_and_update_checksums(path, (offset, data), overwritten, old_len, stamp, fs);
        if self.quarantined.contains(path) {
            return;
        }

        // Undo log: preserve the overwritten bytes (paper §III-A).
        self.note_undo_base(path);
        self.undo.entry(path.to_string()).or_default().record_write(
            old_len,
            offset,
            overwritten.clone(),
            data.len() as u64,
        );

        let op = FileOpItem::Write {
            offset,
            data: Payload::from(data.clone()),
        };
        if self.queue.append_write(path, op.clone(), now).is_none() {
            let base = self.versions.get(path).copied();
            let version = self.next_version();
            self.queue.push(
                NodeKind::Write {
                    path: path.to_string(),
                    ops: vec![op],
                    packed: false,
                },
                base,
                Some(version),
                now,
            );
            self.versions.insert(path.to_string(), version);
        }
    }

    /// Verifies the blocks a write of `written` — its offset and bytes —
    /// (or a growing truncate) changes *before* recording their new
    /// checksums. If the pre-write content did not match the stored
    /// checksums — something modified the file underneath the
    /// interception layer — the file is quarantined: corruption must not
    /// propagate.
    ///
    /// The event is `stamp`ed; once a file has changed since, a block
    /// the write covers only in part may hold later bytes, so it loses
    /// its sum instead of being verified, and a later event sums it
    /// again.
    fn verify_and_update_checksums(
        &mut self,
        path: &str,
        written: (u64, &[u8]),
        overwritten: &[u8],
        old_len: u64,
        stamp: u64,
        fs: &Vfs,
    ) {
        let content = stamped(fs, path, stamp).unwrap_or_default();
        let cs = &mut self.checksums;
        let Ok((bad_blocks, read)) =
            cs.record_write(path, content, written, overwritten, old_len, &mut self.cost)
        else {
            return;
        };
        self.cost.bytes_engine_read += read;
        if !bad_blocks.is_empty() {
            self.issues.push(IntegrityIssue {
                path: path.to_string(),
                blocks: bad_blocks,
                kind: IssueKind::Corruption,
            });
            self.quarantined.insert(path.to_string());
        }
    }

    fn on_truncate(
        &mut self,
        path: &str,
        size: u64,
        cut: &Bytes,
        stamp: u64,
        fs: &Vfs,
        now: SimTime,
    ) {
        let old_len = self.sizes.get(path).copied().unwrap_or(0);
        self.sizes.insert(path.to_string(), size);
        self.relation.invalidate_dst(path);
        if size > old_len {
            // Growing zero-fills the old last block too: a write of zeros.
            self.verify_and_update_checksums(path, (size, &[]), &[], old_len, stamp, fs);
        } else {
            let cs = &mut self.checksums;
            // Once a file has changed since, the new last block's bytes
            // may not be this truncate's: it loses its sum.
            let content = stamped(fs, path, stamp).filter(|_| size > 0);
            let last_block = content.map(|content| {
                let start = (size - 1) as usize / cs.block_size() * cs.block_size();
                let block = &content[start.min(content.len())..content.len().min(size as usize)];
                self.cost.bytes_engine_read += block.len() as u64;
                block
            });
            cs.truncate(path, size, last_block, &mut self.cost).ok();
        }
        if self.quarantined.contains(path) {
            return;
        }
        self.note_undo_base(path);
        self.undo
            .entry(path.to_string())
            .or_default()
            .record_truncate(old_len, size, cut.clone());
        let op = FileOpItem::Truncate { size };
        if self.queue.append_write(path, op.clone(), now).is_none() {
            let base = self.versions.get(path).copied();
            let version = self.next_version();
            self.queue.push(
                NodeKind::Write {
                    path: path.to_string(),
                    ops: vec![op],
                    packed: false,
                },
                base,
                Some(version),
                now,
            );
            self.versions.insert(path.to_string(), version);
        }
    }

    /// The Checksum Store's sums of the blocks of `path`'s `len` bytes,
    /// for the matcher to take instead of rolling them; a backend error
    /// leaves every block to be rolled.
    fn stored_sums(&mut self, path: &str, len: usize) -> Vec<Option<u32>> {
        let blocks = len.div_ceil(self.checksums.block_size()) as u64;
        self.checksums.sums(path, blocks).unwrap_or_default()
    }

    fn rekey(&mut self, src: &str, dst: &str) {
        if let Some(v) = self.versions.remove(src) {
            self.versions.insert(dst.to_string(), v);
        }
        if let Some(s) = self.sizes.remove(src) {
            self.sizes.insert(dst.to_string(), s);
        }
        if let Some(u) = self.undo.remove(src) {
            self.undo.insert(dst.to_string(), u);
        }
        if let Some(v) = self.undo_base.remove(src) {
            self.undo_base.insert(dst.to_string(), v);
        }
        if let Some(p) = self.pending_delta.remove(src) {
            self.pending_delta.insert(dst.to_string(), p);
        }
        if self.quarantined.remove(src) {
            self.quarantined.insert(dst.to_string());
        }
        self.checksums.rename(src, dst).ok();
    }

    fn on_rename(&mut self, src: &str, dst: &str, replaced: Option<Bytes>, fs: &Vfs, now: SimTime) {
        // Capture the replaced file's version and block sums before any
        // rekeying moves src's over them.
        let replaced_version = self.versions.get(dst).copied();
        let replaced_sums = match &replaced {
            Some(content) => self.stored_sums(dst, content.len()),
            None => Vec::new(),
        };
        self.queue.pack(src);
        self.queue.pack(dst);
        self.rekey(src, dst);
        // The rename itself preserves src's old *name* relation.
        self.relation.on_rename(src, dst, now);

        // Trigger check: did this rename recreate a name whose old version
        // is preserved (Word), or overwrite an existing file (gedit)?
        // Strict-FIFO mode (ablation) never triggers: the rename ships
        // as-is and the temp file's full content ships as RPC ops.
        if self.cfg.causal_mode == CausalMode::StrictFifo {
            self.queue.push(
                NodeKind::Rename {
                    src: src.to_string(),
                    dst: dst.to_string(),
                },
                None,
                None,
                now,
            );
        } else if let Some(pre) = self.relation.take_match(dst, now) {
            let trigger = self.mark_relation(now, || {
                format!("rename-recreate (word pattern) matched on {dst}")
            });
            self.execute_delta(dst, pre, Some(src), fs, now, trigger);
        } else if let Some(old_content) = replaced {
            let trigger = self.mark_relation(now, || {
                format!("rename-over-existing (gedit pattern) matched on {dst}")
            });
            let pre = Preserved {
                old: OldVersion::Content(old_content),
                base_version: replaced_version,
                sums: replaced_sums,
            };
            self.execute_delta(dst, pre, Some(src), fs, now, trigger);
        } else {
            self.queue.push(
                NodeKind::Rename {
                    src: src.to_string(),
                    dst: dst.to_string(),
                },
                None,
                None,
                now,
            );
        }
    }

    fn on_link(&mut self, src: &str, dst: &str, now: SimTime) {
        // No relation entry for link (paper Table I): the rename-over that
        // follows triggers via the "name already exists" rule.
        if let Some(v) = self.versions.get(src).copied() {
            self.versions.insert(dst.to_string(), v);
        }
        if let Some(s) = self.sizes.get(src).copied() {
            self.sizes.insert(dst.to_string(), s);
        }
        self.queue.push(
            NodeKind::Link {
                src: src.to_string(),
                dst: dst.to_string(),
            },
            None,
            None,
            now,
        );
    }

    fn on_unlink(&mut self, path: &str, removed: Option<Bytes>, now: SimTime) {
        // Unlinked files larger than this are not preserved for the
        // relation table (the paper's ENOSPC escape hatch).
        const PRESERVE_LIMIT: u64 = 256 * 1024 * 1024;
        self.queue.pack(path);
        self.relation.invalidate_dst(path);
        let base_version = self.versions.get(path).copied();
        if let Some(content) = removed {
            if (content.len() as u64) <= PRESERVE_LIMIT {
                // Preserve the dying content (the paper's tmp/ move).
                self.relation.on_unlink(path, content, base_version, now);
            }
        }
        if self.cfg.causal_mode != CausalMode::StrictFifo && self.queue.has_pending_create(path) {
            // The cloud has never seen this file: elide every pending node
            // instead of uploading a create/write/unlink sequence. The
            // backindex pins causality to the current tail.
            let ids = self.queue.pending_ids_for_path(path);
            if let Some(tail) = self.queue.tail_id() {
                self.queue.delete_nodes(&ids, tail);
            }
        } else {
            self.queue.push(
                NodeKind::Unlink {
                    path: path.to_string(),
                },
                base_version,
                None,
                now,
            );
        }
        self.versions.remove(path);
        self.sizes.remove(path);
        self.clear_undo(path);
        self.pending_delta.remove(path);
        self.quarantined.remove(path);
        self.checksums.remove(path).ok();
    }

    fn on_close(&mut self, path: &str, fs: &Vfs, now: SimTime) {
        self.queue.pack(path);
        if let Some(pre) = self.pending_delta.remove(path) {
            let trigger =
                self.mark_relation(now, || format!("close fired deferred delta on {path}"));
            self.execute_delta(path, pre, None, fs, now, trigger);
        }
    }

    /// Runs the paper's local delta encoding for `path` against the
    /// preserved old version and splices the result into the sync queue,
    /// superseding the pending RPC nodes.
    fn execute_delta(
        &mut self,
        path: &str,
        pre: Preserved,
        src_hint: Option<&str>,
        fs: &Vfs,
        now: SimTime,
        trigger: SpanId,
    ) {
        // Both versions are read where they lie: the new one (and an old
        // one that survives under another name) in the file system, a
        // preserved old one in its buffer.
        let new_content = engine_read(&mut self.cost, fs, path);
        let old_via_path = matches!(pre.old, OldVersion::Path(_));
        let preserved;
        let (old_content, base_path, base_version, old_sums): (&[u8], String, _, _) = match pre.old
        {
            OldVersion::Path(p) => {
                let content = engine_read(&mut self.cost, fs, &p);
                let version = self.versions.get(&p).copied();
                let sums = self.stored_sums(&p, content.len());
                (content, p, version, sums)
            }
            OldVersion::Content(bytes) => {
                preserved = bytes;
                (&preserved[..], path.to_string(), pre.base_version, pre.sums)
            }
        };
        // The new version's sums: recorded as it was written, and moved
        // onto `path` by the rename that triggered this delta.
        let new_sums = self.stored_sums(path, new_content.len());

        // Nodes this delta supersedes: the file's own pending content
        // history (including a pending unlink in the delete-then-recreate
        // pattern — the cloud's copy stays and serves as the delta base)
        // and the content assembled under the temporary source name.
        let mut ids = self.queue.pending_content_ids(path, true);
        // Except the base's own history: when the node that *produces*
        // `base_version` is still queued (an earlier save's delta, held
        // back because another application's open write node keeps the
        // group from aging out), the cloud has to receive it, and every
        // node of `path` queued before it, for the base to exist there.
        // Only what was queued after the base is superseded.
        let base_node = base_version.and_then(|base| {
            let mut nodes = self.queue.iter();
            let produced = nodes.find(|n| n.version == Some(base) && ids.contains(&n.id));
            produced.map(|n| n.id)
        });
        if let Some(base_node) = base_node {
            ids.retain(|&id| id > base_node);
        }
        if let Some(src) = src_hint {
            let src_ids = self.queue.pending_content_ids(src, false);
            if src_ids.is_empty() {
                // The temp file's content already reached the cloud (its
                // nodes uploaded before the trigger — e.g. a snapshot
                // sealed mid-save). Clean the stray copy up explicitly;
                // unlinking a path the cloud never had is harmless.
                self.queue.push(
                    NodeKind::Unlink {
                        path: src.to_string(),
                    },
                    None,
                    None,
                    now,
                );
            }
            ids.extend(src_ids);
        }

        // Encode CPU never advances the simulated clock, so the span is
        // zero-width at `now`; measured encode time is the standing
        // benchmark's `delta.local_diff_ns_per_byte`.
        let now_ms = now.as_millis();
        let span = self
            .obs
            .recorder
            .start(None, &self.actor, "delta.encode", now_ms, None);
        let params = DeltaParams::with_block_size(self.cfg.block_size);
        let delta = local::diff_with_sums(
            old_content,
            new_content,
            &params,
            &old_sums,
            &new_sums,
            &mut self.cost,
        );
        let chose_delta = delta.wire_size() < new_content.len() as u64;
        // What the cloud will hold at `path` when a full-content node
        // lands there. The paper's per-RPC interception never uploads
        // mid-save, but a driver that pumps between batched operations
        // can ship part of the save (say, the temp file's create) before
        // the trigger fires — then "the old version was renamed away"
        // no longer implies "the cloud has nothing at this name", and a
        // `base: None` full would bounce off its own create as a version
        // conflict. The pending chain's bottom is the cloud's copy; with
        // nothing pending and no rename in flight for the name, the
        // version map points straight at it.
        let cloud_base = match self.queue.pending_chain_base(path) {
            Some(chain_bottom) => chain_bottom,
            None if self.queue.pending_rename_touching(path) => None,
            None => self.versions.get(path).copied(),
        };
        let version = self.next_version();
        self.obs.recorder.end(span, now_ms, || {
            let base = base_version.map_or("none".to_string(), |v| v.to_string());
            let (old, new, wire) = (old_content.len(), new_content.len(), delta.wire_size());
            let verdict = if chose_delta {
                "delta wins"
            } else {
                "full-content fallback"
            };
            format!(
                "{path} {version}: {old} -> {new} bytes, base {base_path} {base}; \
                 {verdict}: delta {wire} wire bytes"
            )
        });
        let node_id = if chose_delta {
            self.queue.push(
                NodeKind::Delta {
                    path: path.to_string(),
                    base_path,
                    delta,
                },
                base_version,
                Some(version),
                now,
            )
        } else {
            // The files are too different (or too small) for delta
            // encoding to pay off: ship the whole content. The base must
            // reflect what the cloud holds at `path` when this applies:
            // nothing, if the old version was renamed away (Word's t0);
            // the preserved version, if the content survives in place
            // (gedit's replaced rename, unlink-then-recreate).
            self.cost.bytes_copied += new_content.len() as u64;
            let full_base = if old_via_path {
                cloud_base
            } else {
                base_version
            };
            self.queue.push(
                NodeKind::Full {
                    path: path.to_string(),
                    data: Payload::copy_from_slice(new_content),
                },
                full_base,
                Some(version),
                now,
            )
        };
        self.versions.insert(path.to_string(), version);
        if !span.is_none() {
            self.span_marks.insert(node_id, [trigger, span]);
        }
        if !ids.is_empty() {
            self.queue.delete_nodes(&ids, node_id);
        }
        // The RPC history no longer matters for this file.
        self.clear_undo(path);
    }

    /// Advances timeouts and returns the transaction groups that are ready
    /// to upload.
    pub fn tick(&mut self, fs: &Vfs) -> Vec<Vec<UpdateMsg>> {
        let now = self.clock.now();
        self.relation.expire(now);
        if let CausalMode::Snapshot { interval_ms } = self.cfg.causal_mode {
            // ViewBox-style: seal the entire queue every interval and
            // upload it as one transaction (paper §III-E's rejected
            // alternative). Nothing leaves between snapshots.
            if now.since(self.last_snapshot) < interval_ms {
                return Vec::new();
            }
            self.last_snapshot = now;
            let groups = self.queue.pop_all();
            let merged: Vec<crate::sync_queue::Node> = groups.into_iter().flatten().collect();
            if merged.is_empty() {
                return Vec::new();
            }
            return self.convert_groups(vec![merged], fs);
        }
        let groups = self.queue.pop_ready(now);
        self.convert_groups(groups, fs)
    }

    /// Flushes everything still queued (end of run / shutdown).
    pub fn flush(&mut self, fs: &Vfs) -> Vec<Vec<UpdateMsg>> {
        let groups = self.queue.pop_all();
        self.convert_groups(groups, fs)
    }

    fn convert_groups(
        &mut self,
        groups: Vec<Vec<crate::sync_queue::Node>>,
        fs: &Vfs,
    ) -> Vec<Vec<UpdateMsg>> {
        let mut out = Vec::with_capacity(groups.len());
        for group in groups {
            // Superseded nodes included: their encodes were paid for too.
            let marks: Vec<[SpanId; 2]> = if self.span_marks.is_empty() {
                Vec::new()
            } else {
                let marks = &mut self.span_marks;
                group.iter().filter_map(|n| marks.remove(&n.id)).collect()
            };
            let mut msgs = Vec::new();
            for node in &group {
                if node.deleted {
                    continue;
                }
                if let Some(msg) = self.node_to_msg(node, fs) {
                    msgs.push(msg);
                }
            }
            if !msgs.is_empty() {
                self.group_counter += 1;
                let gid = GroupId {
                    client: self.id,
                    seq: self.group_counter,
                };
                for m in &mut msgs {
                    m.group = Some(gid);
                }
                if self.obs.recorder.enabled() {
                    // The group's root span: first VFS write entering
                    // the queue through pack time — the NFS-style
                    // upload-delay dwell. Everything downstream (the
                    // server side included) parents under this root via
                    // the group key riding the wire headers, and so do
                    // the trigger and encode records made when the
                    // group's nodes were queued.
                    let now_ms = self.clock.now().as_millis();
                    let origin_ms = group
                        .iter()
                        .filter(|n| !n.deleted)
                        .map(|n| n.enqueued_at.as_millis())
                        .min()
                        .unwrap_or(now_ms);
                    let key = Some(gid.span_key());
                    let recorder = &self.obs.recorder;
                    recorder.record(
                        key,
                        &self.actor,
                        "vfs.write",
                        origin_ms,
                        now_ms,
                        None,
                        || {
                            format!(
                                "first write queued {}ms before the pack",
                                now_ms - origin_ms
                            )
                        },
                    );
                    recorder.event(key, &self.actor, "sync.group", now_ms, || {
                        let wire: u64 = msgs.iter().map(UpdateMsg::wire_size).sum();
                        format!("packed {} msgs, {wire} wire bytes", msgs.len())
                    });
                    for ids in &marks {
                        recorder.attach(ids, gid.span_key());
                    }
                }
                out.push(msgs);
            }
        }
        out
    }

    fn node_to_msg(&mut self, node: &crate::sync_queue::Node, fs: &Vfs) -> Option<UpdateMsg> {
        let payload = match &node.kind {
            NodeKind::Create { .. } => UpdatePayload::Create,
            NodeKind::Write { path, ops, .. } => self.write_node_payload(path, ops, node.base, fs),
            NodeKind::Delta {
                base_path, delta, ..
            } => UpdatePayload::Delta {
                base_path: base_path.clone(),
                delta: delta.clone(),
            },
            NodeKind::Full { data, .. } => UpdatePayload::Full(data.clone()),
            NodeKind::Rename { dst, .. } => UpdatePayload::Rename { to: dst.clone() },
            NodeKind::Link { dst, .. } => UpdatePayload::Link { to: dst.clone() },
            NodeKind::Unlink { .. } => UpdatePayload::Unlink,
            NodeKind::Mkdir { .. } => UpdatePayload::Mkdir,
            NodeKind::Rmdir { .. } => UpdatePayload::Rmdir,
        };
        Some(UpdateMsg {
            path: node.kind.path().to_string(),
            base: node.base,
            version: node.version,
            payload,
            group: None, // stamped per-group by convert_groups
        })
    }

    /// Decides between shipping raw ops and delta-compressing a large
    /// in-place update via the undo log (paper §III-A).
    fn write_node_payload(
        &mut self,
        path: &str,
        ops: &[FileOpItem],
        base: Option<Version>,
        fs: &Vfs,
    ) -> UpdatePayload {
        let raw_size: u64 = ops
            .iter()
            .map(|op| crate::protocol::OP_ITEM_HEADER_BYTES + op.payload_len())
            .sum();
        let current_len = self.sizes.get(path).copied().unwrap_or(0);
        // Delta compression only makes sense against a base version the
        // cloud already holds; fresh files always ship their raw writes.
        let try_delta = base.is_some()
            && self
                .undo
                .get(path)
                .map(|u| {
                    !u.is_empty()
                        && u.initial_len() > 0
                        && u.changed_fraction(current_len) > self.cfg.inplace_delta_threshold
                        // Only safe when no other pending node interleaves
                        // with this file's history.
                        && self.queue.pending_ids_for_path(path).is_empty()
                })
                .unwrap_or(false);
        if try_delta {
            let current = engine_read(&mut self.cost, fs, path);
            let undo = self.undo.get(path).expect("checked above");
            let old = undo.reconstruct(current);
            self.cost.bytes_copied += old.len() as u64;
            let params = DeltaParams::with_block_size(self.cfg.block_size);
            let delta = local::diff(&old, current, &params, &mut self.cost);
            self.clear_undo(path);
            if delta.wire_size() < raw_size {
                return UpdatePayload::Delta {
                    base_path: path.to_string(),
                    delta,
                };
            }
        } else {
            self.clear_undo(path);
        }
        UpdatePayload::Ops(ops.to_vec())
    }

    /// Applies a remote (forwarded) update to the local file system.
    ///
    /// If this client has its own pending changes for the file, the local
    /// content is preserved as a conflict copy first (the cloud's version
    /// won — first write wins).
    pub fn apply_remote(&mut self, msg: &UpdateMsg, fs: &mut Vfs) -> Option<RemoteConflict> {
        // Our own application must not come back as local edits, and the
        // local edits already waiting in the log must survive it: the log
        // is paused for the call, not drained after it.
        let mut paused = fs.pause_event_log();
        let fs: &mut Vfs = &mut paused;
        let mut conflict = None;
        let pending = self.queue.pending_ids_for_path(&msg.path);
        let content_change = matches!(
            msg.payload,
            UpdatePayload::Ops(_) | UpdatePayload::Delta { .. } | UpdatePayload::Full(_)
        );
        if !pending.is_empty() && content_change {
            let local_copy = format!("{}.conflict-{}", msg.path, self.id);
            // Owned: the copy is written back into the same file system.
            let local_content = engine_read(&mut self.cost, fs, &msg.path).to_vec();
            fs.create(&local_copy).ok();
            fs.write(&local_copy, 0, &local_content).ok();
            // Drop our losing pending nodes.
            if let Some(tail) = self.queue.tail_id() {
                self.queue.delete_nodes(&pending, tail);
            }
            conflict = Some(RemoteConflict {
                path: msg.path.clone(),
                local_copy,
            });
        }
        let len_before = fs.metadata(&msg.path).map_or(0, |m| m.size);
        let delta_base_len = self.apply_remote_payload(msg, fs);
        if let Some(v) = msg.version {
            self.versions.insert(msg.path.clone(), v);
        }
        if content_change {
            let content = fs.peek_slice(&msg.path).unwrap_or_default();
            let cs = &mut self.checksums;
            let path = msg.path.as_str();
            let read = match (&msg.payload, delta_base_len) {
                // File RPC moves no byte it does not write, so only
                // the blocks the batch touched are read and re-summed.
                (UpdatePayload::Ops(ops), _) => {
                    let dirty = ops_dirty_ranges(len_before, ops);
                    let peak_len = FileOpItem::peak_len(ops, len_before);
                    cs.update_blocks(path, content, &dirty, peak_len, &mut self.cost)
                }
                // A delta's whole aligned block copies keep their sums.
                (UpdatePayload::Delta { base_path, delta }, Some(base_len)) => {
                    cs.apply_delta(path, content, base_path, base_len, delta, &mut self.cost)
                }
                // A new image may move every block.
                _ => cs
                    .reindex_file(path, content, &mut self.cost)
                    .map(|()| content.len() as u64),
            };
            self.cost.bytes_engine_read += read.unwrap_or(0);
            self.sizes.insert(msg.path.clone(), content.len() as u64);
        }
        conflict
    }

    /// Applies `msg`'s payload to `fs`; returns the base's length when it
    /// is a `Delta` that applied.
    fn apply_remote_payload(&mut self, msg: &UpdateMsg, fs: &mut Vfs) -> Option<u64> {
        match &msg.payload {
            UpdatePayload::Create => {
                fs.create(&msg.path).ok();
            }
            UpdatePayload::Ops(ops) => {
                if !fs.exists(&msg.path) {
                    fs.create(&msg.path).ok();
                }
                for op in ops {
                    match op {
                        FileOpItem::Write { offset, data } => {
                            fs.write(&msg.path, *offset, data).ok();
                        }
                        FileOpItem::Truncate { size } => {
                            fs.truncate(&msg.path, *size).ok();
                        }
                    }
                }
            }
            UpdatePayload::Delta { base_path, delta } => {
                let base = engine_read(&mut self.cost, fs, base_path);
                let base_len = base.len() as u64;
                let new_content = delta.apply(base).ok()?;
                install_content(fs, &msg.path, &new_content);
                return Some(base_len);
            }
            UpdatePayload::Full(data) => install_content(fs, &msg.path, data),
            UpdatePayload::Rename { to } => {
                fs.rename(&msg.path, to).ok();
                self.rekey(&msg.path, to);
            }
            UpdatePayload::Link { to } => {
                fs.link(&msg.path, to).ok();
            }
            UpdatePayload::Unlink => {
                fs.unlink(&msg.path).ok();
                self.versions.remove(&msg.path);
                self.sizes.remove(&msg.path);
                self.checksums.remove(&msg.path).ok();
            }
            UpdatePayload::Mkdir => {
                fs.mkdir_all(&msg.path).ok();
            }
            UpdatePayload::Rmdir => {
                fs.rmdir(&msg.path).ok();
            }
        }
        None
    }

    /// Verified read (paper §III-E: "When a file is read, the data blocks
    /// will be verified using the checksums"). Returns the requested
    /// range, or the detected [`IntegrityIssue`] if any covering block
    /// fails verification — in which case the file is quarantined and
    /// should be recovered from the cloud via
    /// [`DeltaCfsClient::recover_file`].
    ///
    /// # Errors
    ///
    /// Returns the [`IntegrityIssue`] describing the corrupted blocks.
    pub fn verified_read(
        &mut self,
        path: &str,
        offset: u64,
        len: usize,
        fs: &Vfs,
    ) -> Result<Vec<u8>, IntegrityIssue> {
        let data = fs.peek_range(path, offset, len).unwrap_or_default();
        self.cost.bytes_engine_read += data.len() as u64;
        if data.is_empty() {
            return Ok(data);
        }
        let cs = &mut self.checksums;
        let bs = cs.block_size() as u64;
        let blocks = offset / bs..(offset + data.len() as u64).div_ceil(bs);
        let content = fs.peek_slice(path).unwrap_or_default();
        let covered =
            &content[(blocks.start * bs) as usize..content.len().min((blocks.end * bs) as usize)];
        self.cost.bytes_engine_read += covered.len() as u64;
        let bad = cs
            .verify_blocks(path, content, blocks, &mut self.cost)
            .unwrap_or_default();
        if bad.is_empty() {
            Ok(data)
        } else {
            let issue = IntegrityIssue {
                path: path.to_string(),
                blocks: bad,
                kind: IssueKind::Corruption,
            };
            self.quarantined.insert(path.to_string());
            self.issues.push(issue.clone());
            Err(issue)
        }
    }

    /// Post-crash scan (paper §III-E): verifies `paths` (the recently
    /// modified files) against the checksum store and reports files whose
    /// blocks disagree — these are in a crash-inconsistent state and must
    /// not be uploaded; the correct version should be pulled from the
    /// cloud instead.
    pub fn crash_recovery_scan(&mut self, paths: &[String], fs: &Vfs) -> Vec<IntegrityIssue> {
        let mut found = Vec::new();
        for path in paths {
            let content = engine_read(&mut self.cost, fs, path);
            if let Ok(bad) = self.checksums.verify_file(path, content, &mut self.cost) {
                if !bad.is_empty() {
                    let issue = IntegrityIssue {
                        path: path.clone(),
                        blocks: bad,
                        kind: IssueKind::CrashInconsistency,
                    };
                    self.quarantined.insert(path.clone());
                    self.issues.push(issue.clone());
                    found.push(issue);
                }
            }
        }
        found
    }

    /// Replaces a quarantined file's local content with `good` (pulled
    /// from the cloud) and lifts the quarantine.
    pub fn recover_file(&mut self, path: &str, good: &[u8], fs: &mut Vfs) {
        {
            // Paused, not drained afterwards: see `apply_remote`.
            let mut fs = fs.pause_event_log();
            if !fs.exists(path) {
                fs.create(path).ok();
            }
            fs.truncate(path, 0).ok();
            fs.write(path, 0, good).ok();
        }
        self.checksums.reindex_file(path, good, &mut self.cost).ok();
        self.sizes.insert(path.to_string(), good.len() as u64);
        self.quarantined.remove(path);
    }

    /// Whether `path` is currently quarantined (detected fault, awaiting
    /// recovery).
    pub fn is_quarantined(&self, path: &str) -> bool {
        self.quarantined.contains(path)
    }

    /// Rebuilds the sync queue after a client crash by replaying the undo
    /// log (the paper's durable per-file journal of overwritten bytes).
    ///
    /// The sync queue, relation table, and in-flight retransmissions are
    /// volatile — a crash loses them — but the local files and their undo
    /// logs survive. For every file with an open undo batch this
    /// re-derives the update the lost queue would have shipped:
    ///
    /// * if the cloud still holds exactly the version the batch started
    ///   from (`cloud_version` reports the server's current version per
    ///   path), the old content is reconstructed from the undo log and a
    ///   **delta** is queued against it;
    /// * otherwise (cloud advanced past us, or never saw the file) the
    ///   current content ships **whole**, based on whatever the cloud
    ///   holds, so server-side validation accepts it.
    ///
    /// Neither counter is reset: a reused version would collide with one
    /// the server already holds, and a reused group seq would make fresh
    /// groups look like retransmissions.
    ///
    /// Returns the paths that were re-queued.
    pub fn restart_from_undo_log<F>(&mut self, fs: &Vfs, cloud_version: F) -> Vec<String>
    where
        F: Fn(&str) -> Option<Version>,
    {
        let now = self.clock.now();
        // Volatile state died with the process.
        self.queue = SyncQueue::new(self.cfg.upload_delay_ms);
        self.relation = RelationTable::new(self.cfg.relation_timeout_ms);
        self.pending_delta.clear();
        self.span_marks.clear();

        let mut paths: Vec<String> = self.undo.keys().cloned().collect();
        paths.sort();
        let mut replayed = Vec::new();
        for path in paths {
            if !fs.exists(&path) {
                self.clear_undo(&path);
                continue;
            }
            let (log_empty, initial_len) = {
                let log = &self.undo[&path];
                (log.is_empty(), log.initial_len())
            };
            if log_empty {
                self.clear_undo(&path);
                continue;
            }
            let current = engine_read(&mut self.cost, fs, &path);
            let cloud = cloud_version(&path);
            let base_matches =
                cloud.is_some() && cloud == self.undo_base.get(path.as_str()).copied();
            let version = self.next_version();
            let mut pushed_delta = false;
            if base_matches && initial_len > 0 {
                let old = self.undo[&path].reconstruct(current);
                self.cost.bytes_copied += old.len() as u64;
                let params = DeltaParams::with_block_size(self.cfg.block_size);
                let delta = local::diff(&old, current, &params, &mut self.cost);
                if delta.wire_size() < current.len() as u64 {
                    self.queue.push(
                        NodeKind::Delta {
                            path: path.clone(),
                            base_path: path.clone(),
                            delta,
                        },
                        cloud,
                        Some(version),
                        now,
                    );
                    pushed_delta = true;
                }
            }
            if !pushed_delta {
                self.cost.bytes_copied += current.len() as u64;
                self.queue.push(
                    NodeKind::Full {
                        path: path.clone(),
                        data: Payload::copy_from_slice(current),
                    },
                    cloud,
                    Some(version),
                    now,
                );
            }
            self.versions.insert(path.clone(), version);
            self.sizes.insert(path.clone(), current.len() as u64);
            self.clear_undo(&path);
            replayed.push(path);
        }
        replayed
    }
}

/// Borrows `path`'s whole content in place for one of the engine's own
/// scans (empty when the file is gone), charging the read to `cost`.
fn engine_read<'a>(cost: &mut Cost, fs: &'a Vfs, path: &str) -> &'a [u8] {
    let content = fs.peek_slice(path).unwrap_or_default();
    cost.bytes_engine_read += content.len() as u64;
    content
}

/// The byte ranges an ops batch dirties in a file that was `len` bytes
/// long before it. A write dirties what it covers plus the zero-filled gap
/// when it starts past the end; a growing truncate the zero-filled tail; a
/// shrinking one the block the file now ends in.
fn ops_dirty_ranges(mut len: u64, ops: &[FileOpItem]) -> Vec<Range<u64>> {
    let mut dirty = Vec::with_capacity(ops.len());
    for op in ops {
        match op {
            FileOpItem::Write { offset, data } => {
                dirty.push(len.min(*offset)..offset + data.len() as u64);
            }
            FileOpItem::Truncate { size } if *size >= len => dirty.push(len..*size),
            FileOpItem::Truncate { size } => dirty.push(size.saturating_sub(1)..*size),
        }
        len = op.len_after(len);
    }
    dirty
}

/// Makes `content` the whole content of `path` on the receiving side.
///
/// A forwarded delta or full upload stands for a *new file* under that
/// name (the writer renamed a temporary over it), so when the name still
/// shares its inode with other hard links — gedit's `link f f~` backup —
/// the name gets a fresh inode instead of the bytes being written through
/// to every link.
fn install_content(fs: &mut Vfs, path: &str, content: &[u8]) {
    if fs.metadata(path).is_ok_and(|m| m.nlink > 1) {
        fs.unlink(path).ok();
    }
    if !fs.exists(path) {
        fs.create(path).ok();
    }
    fs.truncate(path, 0).ok();
    fs.write(path, 0, content).ok();
}

/// `path`'s bytes as the event stamped `stamp` left them, or `None` once
/// any file has changed since (see [`Vfs::content_stamp`]).
fn stamped<'a>(fs: &'a Vfs, path: &str, stamp: u64) -> Option<&'a [u8]> {
    (fs.content_stamp() == stamp)
        .then(|| fs.peek_slice(path).ok())
        .flatten()
}

/// Compact one-line rendering of an intercepted operation for the trace.
fn op_summary(event: &OpEvent) -> String {
    match event {
        OpEvent::Create { path } => format!("create {path}"),
        OpEvent::Write {
            path, offset, data, ..
        } => format!("write {path} @{offset} +{}B", data.len()),
        OpEvent::Truncate { path, size, .. } => format!("truncate {path} to {size}B"),
        OpEvent::Rename { src, dst, replaced } => {
            if replaced.is_some() {
                format!("rename {src} -> {dst} (replaces existing)")
            } else {
                format!("rename {src} -> {dst}")
            }
        }
        OpEvent::Link { src, dst } => format!("link {src} -> {dst}"),
        OpEvent::Unlink { path, .. } => format!("unlink {path}"),
        OpEvent::Mkdir { path } => format!("mkdir {path}"),
        OpEvent::Rmdir { path } => format!("rmdir {path}"),
        OpEvent::Close { path } => format!("close {path}"),
        OpEvent::Fsync { path } => format!("fsync {path}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (DeltaCfsClient, Vfs, SimClock) {
        let clock = SimClock::new();
        let client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
        let mut fs = Vfs::new();
        fs.enable_event_log();
        (client, fs, clock)
    }

    fn pump(client: &mut DeltaCfsClient, fs: &mut Vfs) {
        for e in fs.drain_events() {
            client.handle_event(&e, fs);
        }
    }

    #[test]
    fn writes_become_rpc_ops() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/f").unwrap();
        fs.write("/f", 0, b"hello").unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        let groups = client.tick(&fs);
        let msgs: Vec<_> = groups.into_iter().flatten().collect();
        assert_eq!(msgs.len(), 2); // create + ops
        assert!(matches!(msgs[0].payload, UpdatePayload::Create));
        match &msgs[1].payload {
            UpdatePayload::Ops(ops) => assert_eq!(ops.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        // No delta machinery ran.
        assert_eq!(client.cost().bytes_strong_hashed, 0);
    }

    #[test]
    fn word_pattern_collapses_to_one_delta() {
        let (mut client, mut fs, clock) = setup();
        // Initial file, uploaded.
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![7u8; 40_000]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        let initial = client.tick(&fs);
        assert!(!initial.is_empty());

        // Transactional save: rename f t0; create t1; write t1; rename
        // t1 f; unlink t0 — all within one second.
        let mut new_content = vec![7u8; 40_000];
        new_content[100..140].copy_from_slice(&[9u8; 40]);
        fs.rename("/f", "/t0").unwrap();
        pump(&mut client, &mut fs);
        fs.create("/t1").unwrap();
        pump(&mut client, &mut fs);
        fs.write("/t1", 0, &new_content).unwrap();
        pump(&mut client, &mut fs);
        fs.close_path("/t1").unwrap();
        pump(&mut client, &mut fs);
        fs.rename("/t1", "/f").unwrap();
        pump(&mut client, &mut fs);
        fs.unlink("/t0").unwrap();
        pump(&mut client, &mut fs);

        clock.advance(4000);
        let groups = client.tick(&fs);
        let msgs: Vec<_> = groups.into_iter().flatten().collect();
        // Expected surviving messages: rename f→t0, delta on f, unlink t0.
        let kinds: Vec<&'static str> = msgs
            .iter()
            .map(|m| match &m.payload {
                UpdatePayload::Rename { .. } => "rename",
                UpdatePayload::Delta { .. } => "delta",
                UpdatePayload::Unlink => "unlink",
                UpdatePayload::Ops(_) => "ops",
                UpdatePayload::Create => "create",
                UpdatePayload::Full(_) => "full",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, vec!["rename", "delta", "unlink"], "got {msgs:?}");
        // The delta is small: far below the 40 KB file.
        let delta_size: u64 = msgs
            .iter()
            .map(|m| match &m.payload {
                UpdatePayload::Delta { delta, .. } => delta.wire_size(),
                _ => 0,
            })
            .sum();
        assert!(delta_size < 6000, "delta too large: {delta_size}");
        // And no strong checksums were computed (bitwise comparison).
        assert_eq!(client.cost().bytes_strong_hashed, 0);
    }

    #[test]
    fn word_delta_applies_correctly_on_server() {
        use crate::server::CloudServer;
        let (mut client, mut fs, clock) = setup();
        let mut server = CloudServer::new();
        let sync = |client: &mut DeltaCfsClient, fs: &Vfs, server: &mut CloudServer| {
            for group in client.tick(fs) {
                server.apply_txn(&group);
            }
        };
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![1u8; 20_000]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        sync(&mut client, &fs, &mut server);
        assert_eq!(server.file("/f"), Some(&vec![1u8; 20_000][..]));

        let mut new_content = vec![1u8; 20_000];
        new_content.extend_from_slice(&[2u8; 500]);
        fs.rename("/f", "/t0").unwrap();
        pump(&mut client, &mut fs);
        fs.create("/t1").unwrap();
        pump(&mut client, &mut fs);
        fs.write("/t1", 0, &new_content).unwrap();
        pump(&mut client, &mut fs);
        fs.close_path("/t1").unwrap();
        pump(&mut client, &mut fs);
        fs.rename("/t1", "/f").unwrap();
        pump(&mut client, &mut fs);
        fs.unlink("/t0").unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        sync(&mut client, &fs, &mut server);
        assert_eq!(server.file("/f"), Some(&new_content[..]));
        assert!(server.file("/t0").is_none());
        assert!(server.file("/t1").is_none());
    }

    #[test]
    fn gedit_pattern_triggers_on_replacement() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![5u8; 10_000]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        client.tick(&fs);

        // gedit: create tmp; write tmp; link f f~; rename tmp f.
        let mut new_content = vec![5u8; 10_000];
        new_content[0] = 6;
        fs.create("/tmp0").unwrap();
        pump(&mut client, &mut fs);
        fs.write("/tmp0", 0, &new_content).unwrap();
        pump(&mut client, &mut fs);
        fs.close_path("/tmp0").unwrap();
        pump(&mut client, &mut fs);
        fs.link("/f", "/f~").unwrap();
        pump(&mut client, &mut fs);
        fs.rename("/tmp0", "/f").unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        let msgs: Vec<_> = client.tick(&fs).into_iter().flatten().collect();
        assert!(
            msgs.iter()
                .any(|m| matches!(m.payload, UpdatePayload::Delta { .. })),
            "expected a delta, got {msgs:?}"
        );
        // No full 10 KB re-upload happened.
        let total: u64 = msgs.iter().map(UpdateMsg::wire_size).sum();
        assert!(total < 5000, "uploaded {total} bytes");
    }

    #[test]
    fn back_to_back_gedit_saves_chain_their_deltas() {
        use crate::protocol::ApplyOutcome;
        use crate::server::CloudServer;
        let (mut client, mut fs, clock) = setup();
        let mut server = CloudServer::new();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![5u8; 10_000]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        for group in client.tick(&fs) {
            server.apply_txn(&group);
        }

        // Two saves with no tick between them: the second delta's base is
        // the version the first one — still queued — produces, so the
        // first must stay queued rather than be superseded. Each event is
        // delivered before the file system changes again, as interception
        // does.
        let mut content = vec![5u8; 10_000];
        for save in 0..2 {
            content[save] = 6;
            fs.create("/tmp0").unwrap();
            pump(&mut client, &mut fs);
            fs.write("/tmp0", 0, &content).unwrap();
            pump(&mut client, &mut fs);
            fs.close_path("/tmp0").unwrap();
            pump(&mut client, &mut fs);
            if save > 0 {
                fs.unlink("/f~").unwrap();
                pump(&mut client, &mut fs);
            }
            fs.link("/f", "/f~").unwrap();
            pump(&mut client, &mut fs);
            fs.rename("/tmp0", "/f").unwrap();
            pump(&mut client, &mut fs);
        }
        clock.advance(4000);
        let msgs: Vec<_> = client.tick(&fs).into_iter().flatten().collect();
        let deltas: Vec<_> = msgs
            .iter()
            .filter(|m| matches!(m.payload, UpdatePayload::Delta { .. }))
            .collect();
        assert_eq!(deltas.len(), 2, "one delta per save");
        assert_eq!(deltas[1].base, deltas[0].version, "the deltas chain");
        for outcome in server.apply_txn(&msgs) {
            assert_eq!(outcome, ApplyOutcome::Applied);
        }
        assert_eq!(server.file("/f"), Some(&content[..]));
        assert!(server.file("/tmp0").is_none());
    }

    #[test]
    fn delete_then_recreate_uses_preserved_content() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![3u8; 8000]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        client.tick(&fs);

        // Bad update pattern: delete, recreate, rewrite almost-same data.
        let mut new_content = vec![3u8; 8000];
        new_content[7999] = 4;
        fs.unlink("/f").unwrap();
        pump(&mut client, &mut fs);
        fs.create("/f").unwrap();
        pump(&mut client, &mut fs);
        fs.write("/f", 0, &new_content).unwrap();
        pump(&mut client, &mut fs);
        fs.close_path("/f").unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        let msgs: Vec<_> = client.tick(&fs).into_iter().flatten().collect();
        assert!(
            msgs.iter()
                .any(|m| matches!(m.payload, UpdatePayload::Delta { .. })),
            "expected delta from preserved content, got {msgs:?}"
        );
    }

    #[test]
    fn unlinked_never_uploaded_file_is_elided() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/a").unwrap();
        fs.create("/b").unwrap();
        fs.create("/c").unwrap();
        fs.write("/a", 0, b"temp").unwrap();
        fs.unlink("/a").unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        let groups = client.tick(&fs);
        let msgs: Vec<_> = groups.iter().flatten().collect();
        // /a never reaches the cloud, but /b and /c do — atomically.
        assert!(msgs.iter().all(|m| !m.path.starts_with("/a")));
        assert_eq!(msgs.len(), 2);
        // They were glued into one transaction by the backindex: one
        // group, one `<CliID, GroupSeq>` on both.
        assert_eq!(groups.len(), 1);
        assert!(msgs
            .iter()
            .all(|m| m.group.is_some() && m.group == msgs[0].group));
    }

    #[test]
    fn large_inplace_update_is_delta_compressed() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/db").unwrap();
        fs.write("/db", 0, &vec![1u8; 100_000]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        client.tick(&fs);

        // Rewrite 60% of the file with identical bytes (e.g. a journal
        // replay writing mostly unchanged pages): raw RPC would ship 60 KB,
        // the undo-log delta ships almost nothing.
        fs.write("/db", 0, &vec![1u8; 60_000]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        let msgs: Vec<_> = client.tick(&fs).into_iter().flatten().collect();
        assert_eq!(msgs.len(), 1);
        match &msgs[0].payload {
            UpdatePayload::Delta { delta, .. } => {
                // Raw RPC would ship 60 KB; the delta is two orders of
                // magnitude smaller (block-copy headers plus an unmatched
                // sub-block tail).
                assert!(delta.wire_size() < 4000, "delta {}", delta.wire_size());
            }
            other => panic!("expected delta, got {other:?}"),
        }
    }

    #[test]
    fn small_inplace_update_ships_raw_ops() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/db").unwrap();
        fs.write("/db", 0, &vec![1u8; 100_000]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        client.tick(&fs);

        fs.write("/db", 500, b"xy").unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        let msgs: Vec<_> = client.tick(&fs).into_iter().flatten().collect();
        assert!(matches!(msgs[0].payload, UpdatePayload::Ops(_)));
        assert!(msgs[0].wire_size() < 200);
    }

    #[test]
    fn corruption_is_detected_and_quarantined() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![0u8; 8192]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        client.tick(&fs);

        // Silent corruption under the interception layer.
        fs.inject_bit_flip("/f", 100, 0).unwrap();
        // The application writes one byte nearby.
        fs.write("/f", 200, b"z").unwrap();
        pump(&mut client, &mut fs);
        assert_eq!(client.issues().len(), 1);
        assert_eq!(client.issues()[0].kind, IssueKind::Corruption);
        assert!(client.is_quarantined("/f"));
        // Nothing is uploaded for the corrupted file.
        clock.advance(4000);
        let msgs: Vec<_> = client.tick(&fs).into_iter().flatten().collect();
        assert!(msgs.is_empty(), "got {msgs:?}");
        // Recovery restores the file and lifts the quarantine.
        let good = vec![0u8; 8192];
        client.recover_file("/f", &good, &mut fs);
        assert!(!client.is_quarantined("/f"));
        assert_eq!(fs.read_all("/f").unwrap(), good);
    }

    #[test]
    fn verified_read_returns_data_or_detects() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![7u8; 8192]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        client.tick(&fs);

        // Clean read: data comes back verified.
        let data = client.verified_read("/f", 100, 50, &fs).unwrap();
        assert_eq!(data, vec![7u8; 50]);

        // Silent corruption in block 1: the read detects it.
        fs.inject_bit_flip("/f", 5000, 1).unwrap();
        let err = client.verified_read("/f", 4096, 100, &fs).unwrap_err();
        assert_eq!(err.kind, IssueKind::Corruption);
        assert_eq!(err.blocks, vec![1]);
        assert!(client.is_quarantined("/f"));
    }

    #[test]
    fn crash_scan_detects_torn_writes() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![9u8; 8192]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        client.tick(&fs);

        fs.inject_torn_write("/f", 4096, &[7u8; 100]).unwrap();
        let issues = client.crash_recovery_scan(&["/f".to_string()], &fs);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].kind, IssueKind::CrashInconsistency);
        assert_eq!(issues[0].blocks, vec![1]);
    }

    #[test]
    fn clean_crash_scan_reports_nothing() {
        let (mut client, mut fs, clock) = setup();
        fs.create("/f").unwrap();
        fs.write("/f", 0, &vec![9u8; 4096]).unwrap();
        pump(&mut client, &mut fs);
        clock.advance(4000);
        client.tick(&fs);
        assert!(client
            .crash_recovery_scan(&["/f".to_string()], &fs)
            .is_empty());
    }

    #[test]
    fn bootstrap_uploads_existing_files() {
        let clock = SimClock::new();
        let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), clock.clone());
        let mut fs = Vfs::new();
        fs.create("/pre").unwrap();
        fs.write("/pre", 0, b"existing").unwrap();
        fs.enable_event_log();
        fs.drain_events();
        client.bootstrap(&fs);
        clock.advance(4000);
        let msgs: Vec<_> = client.tick(&fs).into_iter().flatten().collect();
        assert_eq!(msgs.len(), 1);
        assert!(matches!(&msgs[0].payload, UpdatePayload::Full(d) if &d[..] == b"existing"));
    }

    #[test]
    fn bootstrapped_file_checksums_are_live() {
        let mut client = DeltaCfsClient::new(ClientId(1), DeltaCfsConfig::new(), SimClock::new());
        let mut fs = Vfs::new();
        fs.create("/pre").unwrap();
        fs.write("/pre", 0, &vec![3u8; 3 * 4096]).unwrap();
        client.bootstrap(&fs);
        let paths = ["/pre".to_string()];
        assert!(client.crash_recovery_scan(&paths, &fs).is_empty());
        // Only sums recorded by `bootstrap` can catch this flip.
        fs.inject_bit_flip("/pre", 2 * 4096 + 7, 4).unwrap();
        let issues = client.crash_recovery_scan(&paths, &fs);
        assert_eq!(issues.len(), 1);
        assert_eq!(issues[0].blocks, vec![2]);
    }

    #[test]
    fn apply_remote_updates_local_fs() {
        let (mut client, mut fs, _clock) = setup();
        let msg = UpdateMsg {
            path: "/shared".into(),
            base: None,
            version: Some(Version {
                client: ClientId(2),
                counter: 1,
            }),
            payload: UpdatePayload::Full(Payload::from_static(b"from-peer")),
            group: None,
        };
        let conflict = client.apply_remote(&msg, &mut fs);
        assert!(conflict.is_none());
        assert_eq!(fs.read_all("/shared").unwrap(), b"from-peer");
        // The engine did not try to re-sync its own application.
        assert_eq!(client.queued_nodes(), 0);
    }

    #[test]
    fn apply_remote_conflicts_with_local_pending() {
        let (mut client, mut fs, _clock) = setup();
        fs.create("/doc").unwrap();
        fs.write("/doc", 0, b"local edit").unwrap();
        pump(&mut client, &mut fs);
        // Remote update arrives before our node uploads.
        let msg = UpdateMsg {
            path: "/doc".into(),
            base: None,
            version: Some(Version {
                client: ClientId(2),
                counter: 5,
            }),
            payload: UpdatePayload::Full(Payload::from_static(b"remote wins")),
            group: None,
        };
        let conflict = client
            .apply_remote(&msg, &mut fs)
            .expect("conflict expected");
        assert_eq!(conflict.path, "/doc");
        assert_eq!(fs.read_all("/doc").unwrap(), b"remote wins");
        assert_eq!(fs.read_all(&conflict.local_copy).unwrap(), b"local edit");
    }

    #[test]
    fn version_counter_is_monotonic_per_client() {
        let (mut client, mut fs, _clock) = setup();
        fs.create("/a").unwrap();
        fs.create("/b").unwrap();
        pump(&mut client, &mut fs);
        let va = client.version_of("/a").unwrap();
        let vb = client.version_of("/b").unwrap();
        assert_eq!(va.client, ClientId(1));
        assert!(vb.counter > va.counter);
    }
}
