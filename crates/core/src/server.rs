//! The DeltaCFS cloud server (paper §III-C/D and the future-work note:
//! "the load of the server side is minimized, servers simply apply
//! incremental data on files").
//!
//! The server keeps, per file, the current content, its version, and a
//! bounded history of recent versions. Applying an update checks the
//! attached base version against the current one; on mismatch, the
//! "first write wins" rule keeps the current content as the latest
//! version and materializes the loser as a conflict copy — built from the
//! *incremental* data applied against the matching historical version, so
//! nothing needs to be re-uploaded (§III-C).
//!
//! Content is a list of shared extents (`extents.rs`): a
//! received message lands once and the file keeps views of it, so an
//! apply splices views and copies no byte, and history keeps the views a
//! version replaced. A cleaner compacts a file whose extents pin many
//! bytes it no longer shows, or grow too many; a reader that needs
//! contiguous bytes gets a flatten that is counted.
//!
//! A hub runs one server for all tenants: a namespace is a path prefix
//! over the one file map (DESIGN.md §13).

use std::borrow::Cow;
use std::cell::{Cell, OnceCell};
use std::collections::{BTreeSet, HashMap, VecDeque};

use bytes::Bytes;
use deltacfs_delta::compress::MAX_DECOMPRESSED;
use deltacfs_delta::{Cost, Delta, DeltaOp};

use crate::extents::{
    relocate, revert, unshared_bytes, Extent, Extents, Mint, PatchRec, Pins, Source,
};
use crate::pipeline::{ChunkFrame, ChunkStager};
use crate::protocol::{ApplyOutcome, ClientId, FileOpItem, UpdateMsg, UpdatePayload, Version};
use crate::wire::WireError;

/// How many past versions the server retains per file.
const DEFAULT_HISTORY: usize = 8;

/// The cleaner compacts a file whose sources hold more than
/// `len / UNSHOWN_SHARE + UNSHOWN_SLACK` bytes that it no longer shows...
const UNSHOWN_SHARE: u64 = 8;
const UNSHOWN_SLACK: u64 = 4096;
/// ...or that has more than `EXTENT_FLOOR + len / EXTENT_BYTES` extents.
const EXTENT_FLOOR: usize = 64;
const EXTENT_BYTES: u64 = 4096;

#[derive(Debug, Clone, Default)]
struct ServerFile {
    content: Extents,
    version: Option<Version>,
    /// The retained older versions, oldest first.
    history: VecDeque<(Version, Retained)>,
    /// What the current extents keep alive, for the cleaner.
    pins: Pins,
    /// The content as one buffer, once a reader asked for it; every
    /// mutation drops it.
    flat: OnceCell<Bytes>,
}

/// How a version that is no longer current is kept: as its whole extent
/// list, or as the way back to it from the next newer version — never
/// both. Either way it holds views, not copies.
#[derive(Debug, Clone)]
enum Retained {
    /// The version's extents. A delta, a full upload or a restore replaced
    /// the file, so the old list was moved here as it was.
    Image(Extents),
    /// What an ops group overwrote and cut off: reverting it on the next
    /// newer version gives this version back.
    Patch(Vec<PatchRec>),
}

impl ServerFile {
    /// A file of `content` at `version`, with no history.
    fn holding(content: Extents, version: Option<Version>) -> Self {
        ServerFile {
            pins: Pins::of(&content),
            content,
            version,
            ..ServerFile::default()
        }
    }

    /// The extents of a retained `version`, the current one included. A
    /// version kept as a patch is rebuilt by walking back from the nearest
    /// newer whole list.
    fn at(&self, version: Version) -> Option<Extents> {
        if self.version == Some(version) {
            return Some(self.content.clone());
        }
        let idx = self.history.iter().position(|(v, _)| *v == version)?;
        let mut newer = &self.content;
        // The patches between `version` and `newer`, oldest first.
        let mut patches = Vec::new();
        for (_, kept) in self.history.range(idx..) {
            match kept {
                Retained::Image(list) => {
                    newer = list;
                    break;
                }
                Retained::Patch(patch) => patches.push(patch),
            }
        }
        let mut content = newer.clone();
        for patch in patches.into_iter().rev() {
            revert(&mut content, patch);
        }
        Some(content)
    }

    /// Makes `version` the current one; the version it replaces, if the
    /// file had one, stays retrievable through `kept`, within `limit`
    /// retained versions.
    fn advance(&mut self, kept: Retained, version: Option<Version>, limit: usize) {
        if let Some(old_version) = self.version {
            self.history.push_back((old_version, kept));
            while self.history.len() > limit {
                self.history.pop_front();
            }
        }
        self.version = version;
    }

    /// Replaces the content wholesale; the old list becomes history.
    fn replace(&mut self, content: Extents, version: Option<Version>, limit: usize) {
        self.pins = Pins::of(&content);
        self.flat.take();
        let old = std::mem::replace(&mut self.content, content);
        self.advance(Retained::Image(old), version, limit);
    }

    /// Applies one group's `ops` as splices of views of their payloads,
    /// which all arrived in one message, and returns what they replaced.
    fn apply_ops(&mut self, ops: &[FileOpItem], mint: &mut Mint) -> Vec<PatchRec> {
        let src = mint.source(ops.iter().map(FileOpItem::payload_len).sum());
        let mut patch = Vec::with_capacity(ops.len());
        for op in ops {
            let old_len = self.content.len();
            let (offset, replaced) = match op {
                FileOpItem::Write { offset, data } => {
                    self.grow_to(*offset, mint);
                    let piece = Extent {
                        start: *offset,
                        data: data.as_bytes().clone(),
                        src,
                    };
                    if !piece.data.is_empty() {
                        self.pins.add(&piece);
                    }
                    (*offset, self.content.splice(*offset, vec![piece]))
                }
                FileOpItem::Truncate { size } => {
                    self.grow_to(*size, mint);
                    (*size, self.content.truncate(*size))
                }
            };
            for r in &replaced {
                self.pins.remove(r);
            }
            patch.push(PatchRec {
                old_len,
                offset,
                replaced,
            });
        }
        self.flat.take();
        patch
    }

    /// Zero-fills the file up to `len` bytes if it is shorter.
    fn grow_to(&mut self, len: u64, mint: &mut Mint) {
        let Some(gap) = len.checked_sub(self.content.len()).filter(|g| *g > 0) else {
            return;
        };
        let zeros = Extent {
            start: self.content.len(),
            data: Bytes::from(vec![0u8; gap as usize]),
            src: mint.source(gap),
        };
        self.pins.add(&zeros);
        self.content.push(zeros.data, zeros.src);
    }

    /// Bytes the current extents keep alive but do not show.
    fn unshown(&self) -> u64 {
        self.pins.pinned().saturating_sub(self.content.len())
    }

    /// Whether the cleaner's bounds are exceeded.
    fn needs_compaction(&self) -> bool {
        let len = self.content.len();
        self.unshown() > len / UNSHOWN_SHARE + UNSHOWN_SLACK
            || self.content.count() > EXTENT_FLOOR + (len / EXTENT_BYTES) as usize
    }

    /// Flattens the content into one fresh buffer, then copies history's
    /// views out of the buffers the content no longer holds where that
    /// frees them. Returns the bytes copied.
    fn compact(&mut self, mint: &mut Mint) -> u64 {
        let len = self.content.len();
        let flat = Bytes::from(self.content.flatten());
        let dropped = std::mem::take(&mut self.pins);
        self.content = Extents::whole(flat, mint.source(len));
        self.pins = Pins::of(&self.content);
        self.flat.take();
        let mut views: Vec<&mut Extent> = Vec::new();
        for (_, kept) in &mut self.history {
            match kept {
                Retained::Image(list) => views.extend(list.iter_mut()),
                Retained::Patch(patch) => {
                    for rec in patch {
                        views.extend(rec.replaced.iter_mut());
                    }
                }
            }
        }
        len + relocate(&mut views, |id| dropped.holds(id), mint)
    }

    /// Every extent history holds.
    fn kept_extents(&self) -> impl Iterator<Item = &Extent> {
        self.history
            .iter()
            .flat_map(|(_, kept)| -> Box<dyn Iterator<Item = &Extent>> {
                match kept {
                    Retained::Image(list) => Box::new(list.iter()),
                    Retained::Patch(patch) => {
                        Box::new(patch.iter().flat_map(|r| r.replaced.iter()))
                    }
                }
            })
    }

    /// Bytes held for the sake of older versions: what history shows and
    /// the current content does not.
    fn history_bytes(&self) -> u64 {
        unshared_bytes(self.kept_extents(), self.content.iter())
    }
}

/// The extents `delta` builds from `base`: a copy is views of the base's
/// extents, a literal its own view of the message (source `src`). `None`
/// if a copy reaches past the base, or the output would exceed
/// [`MAX_DECOMPRESSED`] — checked before anything is built, since a
/// decoded delta's lengths are untrusted.
fn delta_extents(base: &Extents, delta: &Delta, src: Source) -> Option<Extents> {
    let mut out_len = 0u64;
    for op in delta.ops() {
        let n = match op {
            DeltaOp::Copy { offset, len } => {
                offset.checked_add(*len).filter(|end| *end <= base.len())?;
                *len
            }
            DeltaOp::Literal(b) => b.len() as u64,
        };
        out_len = out_len.saturating_add(n);
    }
    if out_len > MAX_DECOMPRESSED as u64 {
        return None;
    }
    let mut out = Extents::default();
    for op in delta.ops() {
        match op {
            DeltaOp::Copy { offset, len } => out.push_range(base, *offset, *len),
            DeltaOp::Literal(b) => out.push(b.clone(), src),
        }
    }
    Some(out)
}

/// Whether `path` lies inside namespace `ns`: the `/<ns>` subtree, or
/// anywhere for the root namespace `""`.
pub(crate) fn in_namespace(ns: &str, path: &str) -> bool {
    ns.is_empty()
        || path
            .strip_prefix('/')
            .and_then(|rest| rest.strip_prefix(ns))
            .is_some_and(|rest| rest.is_empty() || rest.starts_with('/'))
}

/// How a file's current content is laid out in the server's memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileLayout {
    /// The file's length.
    pub len: u64,
    /// How many extents show it.
    pub extents: usize,
    /// Bytes of the buffers those extents keep alive that the file does
    /// not show (overwritten or cut views of a landed message).
    pub unshown_bytes: u64,
}

/// The cloud endpoint: versioned file storage that applies incremental
/// updates.
///
/// # Example
///
/// ```
/// use deltacfs_core::{ClientId, CloudServer, Payload, UpdateMsg, UpdatePayload, Version};
///
/// let mut cloud = CloudServer::new();
/// let v1 = Version { client: ClientId(1), counter: 1 };
/// cloud.apply_msg(&UpdateMsg {
///     path: "/f".into(),
///     base: None,
///     version: Some(v1),
///     payload: UpdatePayload::Full(Payload::from_static(b"v1")),
///     group: None,
/// });
/// assert_eq!(cloud.file("/f"), Some(&b"v1"[..]));
/// assert_eq!(cloud.version_history("/f"), vec![v1]);
/// ```
#[derive(Debug)]
pub struct CloudServer {
    files: HashMap<String, ServerFile>,
    dirs: BTreeSet<String>,
    cost: Cost,
    history_limit: usize,
    apply_order: Vec<String>,
    /// Replay memory: the highest `GroupSeq` applied from each client
    /// (see [`GroupId`](crate::GroupId)).
    applied_seq: HashMap<ClientId, u64>,
    duplicate_groups: u64,
    /// In-progress streamed group uploads, keyed by group id. Nothing
    /// in a stage is visible to reads or applied until the group's
    /// final chunk commits it atomically.
    stager: ChunkStager,
    /// Source ids for landed messages and new buffers.
    mint: Mint,
    /// Bytes copied to give a reader contiguous content.
    flattened: Cell<u64>,
}

impl Default for CloudServer {
    fn default() -> Self {
        Self::new()
    }
}

impl CloudServer {
    /// Creates an empty cloud store.
    pub fn new() -> Self {
        CloudServer {
            files: HashMap::new(),
            dirs: BTreeSet::new(),
            cost: Cost::new(),
            history_limit: DEFAULT_HISTORY,
            apply_order: Vec::new(),
            applied_seq: HashMap::new(),
            duplicate_groups: 0,
            stager: ChunkStager::new(),
            mint: Mint::default(),
            flattened: Cell::new(0),
        }
    }

    /// Work the server has performed so far.
    pub fn cost(&self) -> Cost {
        self.cost
    }

    /// `file`'s content as one buffer: its single extent, or a flatten
    /// cached until the next mutation and counted in
    /// [`flatten_bytes`](CloudServer::flatten_bytes).
    fn flat<'a>(&'a self, file: &'a ServerFile) -> Option<&'a Bytes> {
        if file.content.len() == 0 {
            return None;
        }
        Some(file.content.single().unwrap_or_else(|| {
            file.flat.get_or_init(|| {
                self.flattened
                    .set(self.flattened.get() + file.content.len());
                Bytes::from(file.content.flatten())
            })
        }))
    }

    /// Current content of `path`, if present.
    pub fn file(&self, path: &str) -> Option<&[u8]> {
        let file = self.files.get(path)?;
        Some(self.flat(file).map_or(&[][..], |b| &b[..]))
    }

    /// Current version of `path`, if present.
    pub fn version(&self, path: &str) -> Option<Version> {
        self.files.get(path).and_then(|f| f.version)
    }

    /// Whether the directory `path` exists.
    pub fn has_dir(&self, path: &str) -> bool {
        self.dirs.contains(path)
    }

    /// All stored directory paths, sorted.
    pub fn dirs(&self) -> Vec<String> {
        self.dirs.iter().cloned().collect()
    }

    /// All stored file paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        self.paths_in_namespace("")
    }

    /// The stored file paths inside namespace `ns` (the `/<ns>` subtree;
    /// every path for the root namespace `""`), sorted.
    pub fn paths_in_namespace(&self, ns: &str) -> Vec<String> {
        let mut v: Vec<String> = self
            .files
            .keys()
            .filter(|p| in_namespace(ns, p))
            .cloned()
            .collect();
        v.sort();
        v
    }

    /// The current content of `path` as one shared buffer, to share
    /// instead of copy: the file's own buffer when it has one extent,
    /// else the counted flatten [`file`](CloudServer::file) reads.
    pub(crate) fn shared_file(&self, path: &str) -> Option<Bytes> {
        let file = self.files.get(path)?;
        Some(self.flat(file).cloned().unwrap_or_default())
    }

    /// Total bytes stored (current versions only).
    pub fn stored_bytes(&self) -> u64 {
        self.files.values().map(|f| f.content.len()).sum()
    }

    /// Bytes retained for the sake of older versions: the bytes retained
    /// versions show and the current ones do not — whatever a delta, a
    /// full upload or an ops group replaced.
    pub fn history_bytes(&self) -> u64 {
        self.files.values().map(ServerFile::history_bytes).sum()
    }

    /// Bytes copied so far to hand a reader contiguous content
    /// ([`file`](CloudServer::file) of a file of several extents, a
    /// retained version, a snapshot). Applying and forwarding copy none.
    pub fn flatten_bytes(&self) -> u64 {
        self.flattened.get()
    }

    /// How `path`'s current content is laid out, if it exists.
    pub fn layout(&self, path: &str) -> Option<FileLayout> {
        self.files.get(path).map(|f| FileLayout {
            len: f.content.len(),
            extents: f.content.count(),
            unshown_bytes: f.unshown(),
        })
    }

    /// Bytes staged for streamed groups that have not committed yet
    /// (see [`ChunkStager::staged_bytes`]).
    pub fn staged_bytes(&self) -> u64 {
        self.stager.staged_bytes()
    }

    /// The order in which file updates were applied — the causal-ordering
    /// probe used by the Table IV reliability test.
    pub fn apply_order(&self) -> &[String] {
        &self.apply_order
    }

    /// The retained versions of `path`, oldest first, ending with the
    /// current one. This is the fine-grained version control the sync
    /// queue's per-node versioning enables (§III-C): every uploaded node
    /// became one entry here.
    pub fn version_history(&self, path: &str) -> Vec<Version> {
        let Some(f) = self.files.get(path) else {
            return Vec::new();
        };
        let mut out: Vec<Version> = f.history.iter().map(|(v, _)| *v).collect();
        out.extend(f.version);
        out
    }

    /// Content of `path` at a specific retained version (the current
    /// version included). Borrowed for the current version, as
    /// [`file`](CloudServer::file) reads it; an older one is rebuilt
    /// from the views history keeps and flattened, counted.
    pub fn file_at(&self, path: &str, version: Version) -> Option<Cow<'_, [u8]>> {
        let file = self.files.get(path)?;
        if file.version == Some(version) {
            return self.file(path).map(Cow::Borrowed);
        }
        let content = file.at(version)?;
        self.flattened.set(self.flattened.get() + content.len());
        Some(Cow::Owned(content.flatten()))
    }

    /// Restores `path` to a retained `version`, stamping the restored
    /// content as `new_version` (restores are themselves versioned, so
    /// they forward to clients like any other update). Returns `false`
    /// if the version is no longer retained.
    pub fn restore(&mut self, path: &str, version: Version, new_version: Version) -> bool {
        let Some(content) = self.files.get(path).and_then(|f| f.at(version)) else {
            return false;
        };
        self.bump(path, content, Some(new_version));
        true
    }

    /// Resolves a conflict the way the paper describes ("let users
    /// resolve conflicts manually, for example picking the version they
    /// want"): promotes the conflict copy at `conflict_path` to be the
    /// new current version of `path` (stamped `new_version`), removing
    /// the copy. Returns `false` if the conflict copy does not exist.
    pub fn resolve_conflict_keep_copy(
        &mut self,
        path: &str,
        conflict_path: &str,
        new_version: Version,
    ) -> bool {
        let Some(copy) = self.files.remove(conflict_path) else {
            return false;
        };
        self.bump(path, copy.content, Some(new_version));
        true
    }

    /// Resolves a conflict by discarding the conflict copy (keeping the
    /// current version). Returns `false` if the copy does not exist.
    pub fn resolve_conflict_discard(&mut self, conflict_path: &str) -> bool {
        self.files.remove(conflict_path).is_some()
    }

    /// Validates a whole group *sequentially*: later members may depend
    /// on versions assigned by earlier members (e.g. a create followed by
    /// writes against the created version), so validation walks a virtual
    /// view of the namespace as the group would transform it.
    fn validate_group(&self, msgs: &[UpdateMsg]) -> bool {
        // Virtual state: path → Some(version) = present, None = absent.
        // Paths not in the map fall back to the real store.
        let mut virt: HashMap<String, Option<Option<Version>>> = HashMap::new();
        let state =
            |virt: &HashMap<String, Option<Option<Version>>>, path: &str| match virt.get(path) {
                Some(s) => *s,
                None => self.files.get(path).map(|f| f.version),
            };
        for msg in msgs {
            match &msg.payload {
                UpdatePayload::Create => {
                    if state(&virt, &msg.path).is_some() {
                        return false;
                    }
                    virt.insert(msg.path.clone(), Some(msg.version));
                }
                UpdatePayload::Ops(_) | UpdatePayload::Full(_) => {
                    let current = state(&virt, &msg.path).flatten();
                    if msg.base.is_some() && current != msg.base {
                        return false;
                    }
                    if msg.base.is_none() {
                        // New-to-cloud content: any existing version loses.
                        if let Some(existing) = state(&virt, &msg.path) {
                            if existing.is_some() {
                                return false;
                            }
                        }
                    }
                    virt.insert(msg.path.clone(), Some(msg.version));
                }
                UpdatePayload::Delta { base_path, .. } => {
                    match state(&virt, base_path) {
                        Some(current) if current == msg.base => {}
                        _ => return false,
                    }
                    virt.insert(msg.path.clone(), Some(msg.version));
                }
                UpdatePayload::Rename { to } => {
                    let src = state(&virt, &msg.path);
                    if src.is_none() {
                        return false;
                    }
                    virt.insert(msg.path.clone(), None);
                    virt.insert(to.clone(), src);
                }
                UpdatePayload::Link { to } => {
                    let src = state(&virt, &msg.path);
                    if src.is_none() {
                        return false;
                    }
                    virt.insert(to.clone(), src);
                }
                UpdatePayload::Unlink => {
                    virt.insert(msg.path.clone(), None);
                }
                UpdatePayload::Mkdir | UpdatePayload::Rmdir => {}
            }
        }
        true
    }

    /// Applies a single message.
    pub fn apply_msg(&mut self, msg: &UpdateMsg) -> ApplyOutcome {
        if self.validate_group(std::slice::from_ref(msg)) {
            self.apply_unchecked(msg);
            ApplyOutcome::Applied
        } else {
            self.apply_as_conflict(msg)
        }
    }

    /// Applies a transaction group atomically: if any member fails
    /// validation, *every* member is treated as a conflict (the paper
    /// labels all files of an atomic operation as conflicted and lets the
    /// user resolve them).
    ///
    /// A stamped group (every upload group is, see
    /// [`GroupId`](crate::GroupId)) whose `GroupSeq` is at most the last
    /// one applied from its client is a replay: it applies nothing,
    /// counts in [`duplicates_ignored`](CloudServer::duplicates_ignored)
    /// and returns no outcomes. Groups are never empty, so an empty
    /// result means a replay.
    pub fn apply_txn(&mut self, msgs: &[UpdateMsg]) -> Vec<ApplyOutcome> {
        let group = msgs.iter().find_map(|m| m.group);
        if group.is_some_and(|g| g.is_replay(&mut self.applied_seq)) {
            self.duplicate_groups += 1;
            return Vec::new();
        }
        if self.validate_group(msgs) {
            msgs.iter()
                .map(|m| {
                    self.apply_unchecked(m);
                    ApplyOutcome::Applied
                })
                .collect()
        } else {
            msgs.iter().map(|m| self.apply_as_conflict(m)).collect()
        }
    }

    /// Stages one frame of a group upload in the server's
    /// [`ChunkStager`] and returns the group's messages whole once its
    /// final frame lands, for the caller to commit through
    /// [`apply_txn`](CloudServer::apply_txn). A cut stream commits
    /// nothing; a whole-group resend restarts it, and a server crash
    /// drops whatever is staged.
    ///
    /// # Errors
    ///
    /// As [`ChunkStager::accept`]: an out-of-order frame or staged bytes
    /// that do not decode drop the stage; a full resend recovers.
    pub fn receive_chunk(
        &mut self,
        frame: &ChunkFrame,
    ) -> Result<Option<Vec<UpdateMsg>>, WireError> {
        self.stager.accept(frame)
    }

    /// The last `GroupSeq` applied from each client, for snapshotting.
    pub(crate) fn applied_seqs(&self) -> impl Iterator<Item = (ClientId, u64)> + '_ {
        self.applied_seq.iter().map(|(c, s)| (*c, *s))
    }

    /// Restores one client's last applied `GroupSeq` (snapshot load path).
    pub(crate) fn restore_applied_seq(&mut self, client: ClientId, seq: u64) {
        self.applied_seq.insert(client, seq);
    }

    /// How many duplicate (retransmitted) groups were absorbed without
    /// re-applying.
    pub fn duplicates_ignored(&self) -> u64 {
        self.duplicate_groups
    }

    /// Hands the apply log to `restarted`, this server reloaded after a
    /// simulated crash: the log keeps what ran before the crash and leaves
    /// out the snapshot replay `persist::load` performs.
    pub(crate) fn hand_over_apply_order(&mut self, restarted: &mut CloudServer) {
        restarted.apply_order = std::mem::take(&mut self.apply_order);
    }

    fn bump(&mut self, path: &str, content: Extents, version: Option<Version>) {
        let file = self.files.entry(path.to_string()).or_default();
        file.replace(content, version, self.history_limit);
        self.clean(path);
        self.apply_order.push(path.to_string());
    }

    /// Runs the cleaner on `path` after a change to its content.
    fn clean(&mut self, path: &str) {
        if let Some(file) = self.files.get_mut(path).filter(|f| f.needs_compaction()) {
            self.cost.bytes_copied += file.compact(&mut self.mint);
        }
    }

    fn apply_unchecked(&mut self, msg: &UpdateMsg) {
        match &msg.payload {
            UpdatePayload::Create => {
                self.files.entry(msg.path.clone()).or_default().version = msg.version;
                self.apply_order.push(msg.path.clone());
            }
            UpdatePayload::Ops(ops) => {
                let file = self.files.entry(msg.path.clone()).or_default();
                // Spliced where it lies: the payloads are views of the
                // landed message, and what they replace is the way back
                // to the version this group replaces.
                for op in ops {
                    self.cost.bytes_copied += op.payload_len();
                    self.cost.ops += 1;
                }
                let patch = file.apply_ops(ops, &mut self.mint);
                file.advance(Retained::Patch(patch), msg.version, self.history_limit);
                self.clean(&msg.path);
                self.apply_order.push(msg.path.clone());
            }
            UpdatePayload::Delta { base_path, delta } => {
                let empty = Extents::default();
                let base = self.files.get(base_path).map_or(&empty, |f| &f.content);
                let src = self.mint.source(delta.literal_bytes());
                self.cost.ops += 1;
                // A base mismatch that slipped through (e.g. a base
                // shorter than the delta expects) stores nothing; the
                // version check should have caught it.
                if let Some(content) = delta_extents(base, delta, src) {
                    self.cost.bytes_copied += delta.literal_bytes();
                    self.bump(&msg.path, content, msg.version);
                }
            }
            UpdatePayload::Full(data) => {
                self.cost.bytes_copied += data.len() as u64;
                self.cost.ops += 1;
                let src = self.mint.source(data.len() as u64);
                let content = Extents::whole(data.as_bytes().clone(), src);
                self.bump(&msg.path, content, msg.version);
            }
            UpdatePayload::Rename { to } => {
                if let Some(f) = self.files.remove(&msg.path) {
                    self.files.insert(to.clone(), f);
                    self.apply_order.push(to.clone());
                }
            }
            UpdatePayload::Link { to } => {
                // The copy shares every view, and its history.
                if let Some(f) = self.files.get(&msg.path).cloned() {
                    self.files.insert(to.clone(), f);
                    self.apply_order.push(to.clone());
                }
            }
            UpdatePayload::Unlink => {
                self.files.remove(&msg.path);
                self.apply_order.push(msg.path.clone());
            }
            UpdatePayload::Mkdir => {
                self.dirs.insert(msg.path.clone());
            }
            UpdatePayload::Rmdir => {
                self.dirs.remove(&msg.path);
            }
        }
    }

    /// First-write-wins reconciliation: the current cloud version stays
    /// the latest; the incoming incremental data is applied against its
    /// matching base from history and stored as a conflict copy.
    fn apply_as_conflict(&mut self, msg: &UpdateMsg) -> ApplyOutcome {
        let base_path = match &msg.payload {
            UpdatePayload::Delta { base_path, .. } => base_path.as_str(),
            _ => msg.path.as_str(),
        };
        let base = match msg.base {
            None => Some(Extents::default()),
            Some(wanted) => self.files.get(base_path).and_then(|f| f.at(wanted)),
        };
        let Some(base) = base else {
            return ApplyOutcome::Rejected {
                reason: format!("unknown base version for {}", msg.path),
            };
        };
        let client = msg.version.map(|v| v.client.0).unwrap_or_default();
        let stored_as = format!("{}.conflict-c{}", msg.path, client);
        let file = match &msg.payload {
            UpdatePayload::Ops(ops) => {
                let mut file = ServerFile::holding(base, msg.version);
                for op in ops {
                    self.cost.bytes_copied += op.payload_len();
                }
                file.apply_ops(ops, &mut self.mint);
                file
            }
            UpdatePayload::Delta { delta, .. } => {
                let src = self.mint.source(delta.literal_bytes());
                let Some(content) = delta_extents(&base, delta, src) else {
                    return ApplyOutcome::Rejected {
                        reason: format!("delta does not fit base for {}", msg.path),
                    };
                };
                self.cost.bytes_copied += delta.literal_bytes();
                ServerFile::holding(content, msg.version)
            }
            UpdatePayload::Full(data) => {
                let src = self.mint.source(data.len() as u64);
                ServerFile::holding(Extents::whole(data.as_bytes().clone(), src), msg.version)
            }
            // A create that lost the race materializes as an empty
            // conflict copy; the existing file stays untouched.
            UpdatePayload::Create => ServerFile::holding(Extents::default(), msg.version),
            // Namespace ops cannot conflict in this model; apply directly.
            _ => {
                self.apply_unchecked(msg);
                return ApplyOutcome::Applied;
            }
        };
        self.files.insert(stored_as.clone(), file);
        self.clean(&stored_as);
        self.apply_order.push(stored_as.clone());
        ApplyOutcome::Conflict { stored_as }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{FileOpItem, GroupId, Payload};

    fn v(c: u32, n: u64) -> Version {
        Version {
            client: ClientId(c),
            counter: n,
        }
    }

    fn ops_msg(path: &str, base: Option<Version>, ver: Version, ops: Vec<FileOpItem>) -> UpdateMsg {
        UpdateMsg {
            path: path.into(),
            base,
            version: Some(ver),
            payload: UpdatePayload::Ops(ops),
            group: None,
        }
    }

    fn write_op(offset: u64, data: &[u8]) -> FileOpItem {
        FileOpItem::Write {
            offset,
            data: Payload::copy_from_slice(data),
        }
    }

    #[test]
    fn create_then_ops_builds_content() {
        let mut s = CloudServer::new();
        let create = UpdateMsg {
            path: "/f".into(),
            base: None,
            version: Some(v(1, 1)),
            payload: UpdatePayload::Create,
            group: None,
        };
        assert_eq!(s.apply_msg(&create), ApplyOutcome::Applied);
        let msg = ops_msg("/f", Some(v(1, 1)), v(1, 2), vec![write_op(0, b"hello")]);
        assert_eq!(s.apply_msg(&msg), ApplyOutcome::Applied);
        assert_eq!(s.file("/f"), Some(&b"hello"[..]));
        assert_eq!(s.version("/f"), Some(v(1, 2)));
    }

    #[test]
    fn stale_base_becomes_conflict_copy() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/f", None, v(1, 1), vec![write_op(0, b"base")]));
        // Client 2 updates from v(1,1): wins.
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(2, 1),
            vec![write_op(0, b"AAAA")],
        ));
        // Client 3 also updates from v(1,1): late, becomes a conflict.
        let out = s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(3, 1),
            vec![write_op(0, b"BB")],
        ));
        match out {
            ApplyOutcome::Conflict { stored_as } => {
                assert_eq!(stored_as, "/f.conflict-c3");
                // Conflict content = historical base with client 3's
                // increment applied — no re-upload needed.
                assert_eq!(s.file("/f.conflict-c3"), Some(&b"BBse"[..]));
            }
            other => panic!("unexpected {other:?}"),
        }
        // The first write stayed the latest.
        assert_eq!(s.file("/f"), Some(&b"AAAA"[..]));
        assert_eq!(s.version("/f"), Some(v(2, 1)));
    }

    #[test]
    fn unknown_base_is_rejected() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/f", None, v(1, 1), vec![write_op(0, b"x")]));
        let out = s.apply_msg(&ops_msg(
            "/f",
            Some(v(9, 9)),
            v(2, 1),
            vec![write_op(0, b"y")],
        ));
        assert!(matches!(out, ApplyOutcome::Rejected { .. }));
    }

    #[test]
    fn delta_applies_against_named_base_path() {
        use deltacfs_delta::{Delta, DeltaOp};
        let mut s = CloudServer::new();
        // Old version preserved as /t0 (Word's transactional update).
        s.apply_msg(&ops_msg(
            "/t0",
            None,
            v(1, 1),
            vec![write_op(0, b"old content")],
        ));
        let delta = Delta::from_ops(vec![
            DeltaOp::Copy { offset: 0, len: 4 },
            DeltaOp::Literal(Bytes::from_static(b"NEW")),
        ]);
        let msg = UpdateMsg {
            path: "/f".into(),
            base: Some(v(1, 1)),
            version: Some(v(1, 2)),
            payload: UpdatePayload::Delta {
                base_path: "/t0".into(),
                delta,
            },
            group: None,
        };
        assert_eq!(s.apply_msg(&msg), ApplyOutcome::Applied);
        assert_eq!(s.file("/f"), Some(&b"old NEW"[..]));
    }

    #[test]
    fn rename_link_unlink_namespace_ops() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/a", None, v(1, 1), vec![write_op(0, b"data")]));
        s.apply_msg(&UpdateMsg {
            path: "/a".into(),
            base: None,
            version: None,
            payload: UpdatePayload::Link { to: "/a~".into() },
            group: None,
        });
        assert_eq!(s.file("/a~"), Some(&b"data"[..]));
        s.apply_msg(&UpdateMsg {
            path: "/a".into(),
            base: None,
            version: None,
            payload: UpdatePayload::Rename { to: "/b".into() },
            group: None,
        });
        assert!(s.file("/a").is_none());
        assert_eq!(s.file("/b"), Some(&b"data"[..]));
        s.apply_msg(&UpdateMsg {
            path: "/b".into(),
            base: None,
            version: None,
            payload: UpdatePayload::Unlink,
            group: None,
        });
        assert!(s.file("/b").is_none());
    }

    #[test]
    fn txn_all_or_conflict() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/x", None, v(1, 1), vec![write_op(0, b"x0")]));
        s.apply_msg(&ops_msg("/y", None, v(1, 2), vec![write_op(0, b"y0")]));
        // A group where /y's base is stale: every member conflicts.
        let group = vec![
            ops_msg("/x", Some(v(1, 1)), v(2, 1), vec![write_op(0, b"X")]),
            ops_msg("/y", Some(v(9, 9)), v(2, 2), vec![write_op(0, b"Y")]),
        ];
        let outcomes = s.apply_txn(&group);
        assert!(matches!(outcomes[0], ApplyOutcome::Conflict { .. }));
        // /x unchanged — atomicity held.
        assert_eq!(s.file("/x"), Some(&b"x0"[..]));
        // A fully valid group applies wholesale.
        let group = vec![
            ops_msg("/x", Some(v(1, 1)), v(2, 3), vec![write_op(0, b"X")]),
            ops_msg("/y", Some(v(1, 2)), v(2, 4), vec![write_op(0, b"Y")]),
        ];
        let outcomes = s.apply_txn(&group);
        assert!(outcomes.iter().all(|o| *o == ApplyOutcome::Applied));
        assert_eq!(s.file("/x"), Some(&b"X0"[..]));
    }

    #[test]
    fn apply_order_is_recorded() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/big", None, v(1, 1), vec![write_op(0, b"bbbb")]));
        s.apply_msg(&ops_msg("/small", None, v(1, 2), vec![write_op(0, b"s")]));
        assert_eq!(s.apply_order(), &["/big".to_string(), "/small".to_string()]);
    }

    #[test]
    fn conflict_resolution_keep_or_discard() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/f", None, v(1, 1), vec![write_op(0, b"base")]));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(2, 1),
            vec![write_op(0, b"AAAA")],
        ));
        let out = s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(3, 1),
            vec![write_op(0, b"BB")],
        ));
        let ApplyOutcome::Conflict { stored_as } = out else {
            panic!("expected conflict");
        };
        // The user picks the losing version.
        assert!(s.resolve_conflict_keep_copy("/f", &stored_as, v(3, 2)));
        assert_eq!(s.file("/f"), Some(&b"BBse"[..]));
        assert_eq!(s.version("/f"), Some(v(3, 2)));
        assert!(s.file(&stored_as).is_none());
        // The overwritten winner is still retained in history.
        assert_eq!(s.file_at("/f", v(2, 1)).as_deref(), Some(&b"AAAA"[..]));
        // Discarding a nonexistent copy reports false.
        assert!(!s.resolve_conflict_discard(&stored_as));
    }

    #[test]
    fn keep_copy_logs_its_promotion_once() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/f", None, v(1, 1), vec![write_op(0, b"base")]));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(2, 1),
            vec![write_op(0, b"A")],
        ));
        let ApplyOutcome::Conflict { stored_as } = s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(3, 1),
            vec![write_op(0, b"B")],
        )) else {
            panic!("expected conflict");
        };
        let before = s.apply_order().len();
        assert!(s.resolve_conflict_keep_copy("/f", &stored_as, v(3, 2)));
        assert_eq!(s.apply_order()[before..], ["/f".to_string()]);
    }

    #[test]
    fn version_history_and_restore() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/f", None, v(1, 1), vec![write_op(0, b"one")]));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(1, 2),
            vec![write_op(0, b"two")],
        ));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 2)),
            v(1, 3),
            vec![write_op(0, b"tri")],
        ));
        assert_eq!(s.version_history("/f"), vec![v(1, 1), v(1, 2), v(1, 3)]);
        assert_eq!(s.file_at("/f", v(1, 1)).as_deref(), Some(&b"one"[..]));
        assert_eq!(s.file_at("/f", v(1, 3)).as_deref(), Some(&b"tri"[..]));
        assert_eq!(s.file_at("/f", v(9, 9)), None);
        // Restore to the first version under a fresh version number.
        assert!(s.restore("/f", v(1, 1), v(1, 4)));
        assert_eq!(s.file("/f"), Some(&b"one"[..]));
        assert_eq!(s.version("/f"), Some(v(1, 4)));
        // The pre-restore content is itself retained.
        assert_eq!(s.file_at("/f", v(1, 3)).as_deref(), Some(&b"tri"[..]));
        // Restoring an evicted/unknown version fails cleanly.
        assert!(!s.restore("/f", v(9, 9), v(1, 5)));
        assert!(s.version_history("/missing").is_empty());
    }

    #[test]
    fn ops_splice_views_and_leave_a_reverse_patch() {
        let full = |base, ver, data: Vec<u8>| UpdateMsg {
            path: "/f".into(),
            base,
            version: Some(ver),
            payload: UpdatePayload::Full(Payload::from(data)),
            group: None,
        };
        let mut s = CloudServer::new();
        let body = Payload::from(vec![7u8; 100_000]);
        let landed = body.as_bytes().as_ptr();
        s.apply_msg(&UpdateMsg {
            payload: UpdatePayload::Full(body),
            ..full(None, v(1, 1), Vec::new())
        });
        // The full upload is the file: its buffer, not a copy.
        assert_eq!(s.file("/f").unwrap().as_ptr(), landed);
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(1, 2),
            vec![write_op(10, b"one")],
        ));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 2)),
            v(1, 3),
            vec![write_op(50_000, b"two")],
        ));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 3)),
            v(1, 4),
            vec![FileOpItem::Truncate { size: 90_000 }],
        ));
        // Spliced, not rebuilt: the payloads are the only bytes counted,
        // and nothing was flattened.
        assert_eq!(s.cost().bytes_copied, 100_000 + 3 + 3);
        assert_eq!(s.flatten_bytes(), 0);
        let layout = s.layout("/f").unwrap();
        assert_eq!((layout.len, layout.extents), (90_000, 5));
        // Three ops groups retain what they destroyed, not three images.
        assert_eq!(s.history_bytes(), 3 + 3 + 10_000);
        // A new image in between: older versions walk back from it, not
        // from the current content.
        s.apply_msg(&full(Some(v(1, 4)), v(1, 5), b"rewritten".to_vec()));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 5)),
            v(1, 6),
            vec![write_op(0, b"RE")],
        ));
        assert_eq!(s.file("/f"), Some(&b"REwritten"[..]));
        assert_eq!(s.flatten_bytes(), 9, "a read of two extents flattens");
        assert_eq!(s.file_at("/f", v(1, 5)).as_deref(), Some(&b"rewritten"[..]));
        let mut expect = vec![7u8; 100_000];
        assert_eq!(s.file_at("/f", v(1, 1)).as_deref(), Some(&expect[..]));
        expect[10..13].copy_from_slice(b"one");
        assert_eq!(s.file_at("/f", v(1, 2)).as_deref(), Some(&expect[..]));
        expect[50_000..50_003].copy_from_slice(b"two");
        assert_eq!(s.file_at("/f", v(1, 3)).as_deref(), Some(&expect[..]));
        expect.truncate(90_000);
        assert_eq!(s.file_at("/f", v(1, 4)).as_deref(), Some(&expect[..]));
    }

    #[test]
    fn a_delta_copies_views_of_its_base_and_its_literals() {
        use deltacfs_delta::{Delta, DeltaOp};
        let mut s = CloudServer::new();
        let base = Payload::from((0..=255u8).cycle().take(64 * 1024).collect::<Vec<u8>>());
        s.apply_msg(&UpdateMsg {
            path: "/f".into(),
            base: None,
            version: Some(v(1, 1)),
            payload: UpdatePayload::Full(base.clone()),
            group: None,
        });
        let delta = Delta::from_ops(vec![
            DeltaOp::Copy {
                offset: 0,
                len: 1000,
            },
            DeltaOp::Literal(Bytes::from_static(b"NEW")),
            DeltaOp::Copy {
                offset: 2000,
                len: 60_000,
            },
        ]);
        let expect = [&base[..1000], b"NEW", &base[2000..62_000]].concat();
        let copied = s.cost().bytes_copied;
        let msg = UpdateMsg {
            path: "/f".into(),
            base: Some(v(1, 1)),
            version: Some(v(1, 2)),
            payload: UpdatePayload::Delta {
                base_path: "/f".into(),
                delta,
            },
            group: None,
        };
        assert_eq!(s.apply_msg(&msg), ApplyOutcome::Applied);
        assert_eq!(s.cost().bytes_copied - copied, 3, "only the literal");
        let layout = s.layout("/f").unwrap();
        assert_eq!((layout.len, layout.extents), (61_003, 3));
        // The copies view the old image, which history keeps whole.
        assert_eq!(layout.unshown_bytes, 64 * 1024 - 61_000);
        assert_eq!(s.history_bytes(), 64 * 1024 - 61_000);
        assert_eq!(s.file("/f"), Some(&expect[..]));
        assert_eq!(s.file_at("/f", v(1, 1)).as_deref(), Some(&base[..]));
    }

    #[test]
    fn the_cleaner_compacts_a_file_that_pins_what_it_no_longer_shows() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg(
            "/f",
            None,
            v(1, 1),
            vec![write_op(0, &[1u8; 64 * 1024])],
        ));
        let mut counter = 1;
        // Each group overwrites most of the previous one's bytes.
        for round in 0..40u64 {
            counter += 1;
            let ops = vec![FileOpItem::Write {
                offset: round * 512 % 8192,
                data: Payload::from(vec![round as u8; 8192]),
            }];
            s.apply_msg(&ops_msg("/f", Some(v(1, counter - 1)), v(1, counter), ops));
            let layout = s.layout("/f").unwrap();
            assert!(
                layout.unshown_bytes <= layout.len / 8 + 4096,
                "round {round}: {layout:?}"
            );
            assert!(layout.extents <= 64 + (layout.len / 4096) as usize);
        }
        let copied_by_cleaner = s.cost().bytes_copied - 64 * 1024 - 40 * 8192;
        assert!(copied_by_cleaner > 0, "the cleaner ran");
        // Every retained version is still the bytes it was.
        let history = s.version_history("/f");
        let mut reference = vec![1u8; 64 * 1024];
        for round in 0..40u64 {
            let at = (round * 512 % 8192) as usize;
            reference[at..at + 8192].fill(round as u8);
            let version = v(1, round + 2);
            if history.contains(&version) {
                assert_eq!(
                    s.file_at("/f", version).as_deref(),
                    Some(&reference[..]),
                    "{version:?}"
                );
            }
        }
        assert_eq!(s.file("/f"), Some(&reference[..]));
    }

    #[test]
    fn history_is_bounded() {
        let mut s = CloudServer::new();
        for i in 0..50u64 {
            let base = if i == 0 { None } else { Some(v(1, i)) };
            s.apply_msg(&ops_msg("/f", base, v(1, i + 1), vec![write_op(0, b"z")]));
        }
        assert!(s.files["/f"].history.len() <= DEFAULT_HISTORY);
    }

    fn gid(c: u32, n: u64) -> GroupId {
        GroupId {
            client: ClientId(c),
            seq: n,
        }
    }

    fn stamped(group: GroupId, mut msgs: Vec<UpdateMsg>) -> Vec<UpdateMsg> {
        for m in &mut msgs {
            m.group = Some(group);
        }
        msgs
    }

    /// Resends `group` and checks that it is recognized as a replay: no
    /// outcomes, one more ignored duplicate, and the apply log, the cost
    /// and every path's content and retained versions unchanged.
    fn assert_replay(s: &mut CloudServer, group: &[UpdateMsg]) {
        let observe = |s: &CloudServer| {
            let files: Vec<_> = (s.paths().into_iter())
                .map(|p| (s.file(&p).map(<[u8]>::to_vec), s.version_history(&p), p))
                .collect();
            (s.apply_order().to_vec(), s.cost(), files)
        };
        let (before, ignored) = (observe(s), s.duplicates_ignored());
        assert!(
            s.apply_txn(group).is_empty(),
            "a replay returns no outcomes"
        );
        assert_eq!(observe(s), before, "a replay applied something");
        assert_eq!(s.duplicates_ignored(), ignored + 1);
    }

    #[test]
    fn idempotent_apply_absorbs_retransmissions() {
        let mut s = CloudServer::new();
        let group = stamped(
            gid(1, 1),
            vec![ops_msg("/f", None, v(1, 1), vec![write_op(0, b"once")])],
        );
        assert_eq!(s.apply_txn(&group), vec![ApplyOutcome::Applied]);
        assert_eq!(s.duplicates_ignored(), 0);
        // The same group retransmitted: recognized, state untouched.
        assert_replay(&mut s, &group);
        assert_eq!(s.duplicates_ignored(), 1);
        assert_eq!(s.version_history("/f"), vec![v(1, 1)]);
    }

    #[test]
    fn conflict_replay_mints_no_second_copy() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/f", None, v(1, 1), vec![write_op(0, b"base")]));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(2, 1),
            vec![write_op(0, b"AAAA")],
        ));
        let late = stamped(
            gid(3, 1),
            vec![ops_msg(
                "/f",
                Some(v(1, 1)),
                v(3, 1),
                vec![write_op(0, b"BB")],
            )],
        );
        let first = s.apply_txn(&late);
        assert!(matches!(first[0], ApplyOutcome::Conflict { .. }));
        assert_replay(&mut s, &late);
        // Only one conflict copy materialized.
        let copies = s.paths().iter().filter(|p| p.contains(".conflict")).count();
        assert_eq!(copies, 1);
    }

    #[test]
    fn late_versionless_rename_replay_cannot_clobber_recreated_path() {
        // Regression for the version-less dedup hole: a pure rename
        // group carries no version, so a late (reordered) duplicate
        // must still be recognized, or it re-executes the rename
        // against whatever path state exists by then. The sender's
        // `GroupSeq` recognizes the replay regardless of payload.
        let mut s = CloudServer::new();
        let setup = stamped(
            gid(1, 1),
            vec![ops_msg(
                "/old",
                None,
                v(1, 1),
                vec![write_op(0, b"payload")],
            )],
        );
        s.apply_txn(&setup);
        // A namespace-only group: no version anywhere in it.
        let rename = stamped(
            gid(1, 2),
            vec![UpdateMsg {
                path: "/old".into(),
                base: None,
                version: None,
                payload: UpdatePayload::Rename { to: "/new".into() },
                group: None,
            }],
        );
        assert_eq!(s.apply_txn(&rename), vec![ApplyOutcome::Applied]);
        // The path is later recreated with fresh content...
        let recreate = stamped(
            gid(1, 3),
            vec![ops_msg("/old", None, v(1, 2), vec![write_op(0, b"fresh")])],
        );
        s.apply_txn(&recreate);
        // ...and only then does the duplicated rename copy show up.
        assert_replay(&mut s, &rename);
        assert_eq!(s.file("/old"), Some(&b"fresh"[..]));
        assert_eq!(s.file("/new"), Some(&b"payload"[..]));
    }

    #[test]
    fn conflicted_group_resend_mints_no_copies() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/f", None, v(1, 1), vec![write_op(0, b"base")]));
        s.apply_msg(&ops_msg(
            "/f",
            Some(v(1, 1)),
            v(2, 1),
            vec![write_op(0, b"AAAA")],
        ));
        // A two-member group whose first member carries a stale base:
        // validation fails group-wide, so *every* member lands as a
        // conflict copy (atomic-group semantics), and its one `GroupSeq`
        // covers both members.
        let group = stamped(
            gid(3, 1),
            vec![
                ops_msg("/f", Some(v(1, 1)), v(3, 1), vec![write_op(0, b"BB")]),
                UpdateMsg {
                    path: "/g".into(),
                    base: None,
                    version: Some(v(3, 2)),
                    payload: UpdatePayload::Full(Payload::from_static(b"new")),
                    group: None,
                },
            ],
        );
        let first = s.apply_txn(&group);
        assert!(matches!(first[0], ApplyOutcome::Conflict { .. }));
        assert!(matches!(first[1], ApplyOutcome::Conflict { .. }));
        assert_eq!(s.applied_seqs().collect::<Vec<_>>(), vec![(ClientId(3), 1)]);
        // The resend mints no second round of conflict copies.
        assert_replay(&mut s, &group);
    }

    #[test]
    fn whole_group_resend_applies_nothing() {
        // A committed group over two top-level directories, resent whole.
        let group = stamped(
            gid(9, 1),
            vec![
                ops_msg("/d0/a", None, v(9, 1), vec![write_op(0, b"a")]),
                ops_msg("/d1/b", None, v(9, 2), vec![write_op(0, b"b")]),
            ],
        );
        let mut s = CloudServer::new();
        assert_eq!(s.apply_txn(&group), vec![ApplyOutcome::Applied; 2]);
        assert_replay(&mut s, &group);
        assert_eq!(s.duplicates_ignored(), 1);
        assert_eq!(s.version_history("/d1/b"), vec![v(9, 2)]);
    }

    #[test]
    fn namespace_listing_filters_the_one_map() {
        let mut s = CloudServer::new();
        for (n, path) in ["/t1/a", "/t2/b", "/t1", "/t10/c", "/t1.conflict-c2"]
            .iter()
            .enumerate()
        {
            s.apply_msg(&ops_msg(
                path,
                None,
                v(1, n as u64 + 1),
                vec![write_op(0, b"x")],
            ));
        }
        assert_eq!(s.paths_in_namespace("t1"), ["/t1", "/t1/a"]);
        assert_eq!(s.paths_in_namespace("t2"), ["/t2/b"]);
        assert_eq!(s.paths_in_namespace("").len(), 5);
    }

    #[test]
    fn create_of_existing_file_conflicts_not_duplicates() {
        let mut s = CloudServer::new();
        s.apply_msg(&ops_msg("/f", None, v(1, 1), vec![write_op(0, b"x")]));
        let out = s.apply_msg(&UpdateMsg {
            path: "/f".into(),
            base: None,
            version: Some(v(2, 1)),
            payload: UpdatePayload::Create,
            group: None,
        });
        // An empty create against an existing file materializes as a
        // (trivially empty) conflict copy.
        assert!(matches!(
            out,
            ApplyOutcome::Conflict { .. } | ApplyOutcome::Rejected { .. }
        ));
        assert_eq!(s.file("/f"), Some(&b"x"[..]));
    }
}
