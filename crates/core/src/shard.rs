//! The sharded server dispatch layer (DESIGN.md §13).
//!
//! The paper leaves the server side as "wimpy storage servers that simply
//! apply incremental data"; scaling that to heavy multi-tenant traffic
//! means partitioning the hub. [`ShardedServer`] stripes the cloud state
//! over N independent [`CloudServer`] shards, each behind its own lock
//! and (in the hub) backed by its own snapshot store and caches — a shard
//! never touches another shard's persistence.
//!
//! Routing is by *namespace*: the first component of a path (the tenant
//! folder) hashes to a shard, so every path of one tenant — conflict
//! copies included — lives on one shard and single-tenant groups take
//! exactly one lock. Groups whose members span namespaces that hash to
//! different shards (legacy root-folder renames, for instance) go through
//! the cross-shard dispatcher: the referenced entries are checked out of
//! their owner shards, applied on a scratch server with the ordinary
//! whole-group validation, and checked back in by path — and the group's
//! outcome record is replicated onto *every* involved shard, so a
//! retransmission recognizes the replay no matter which shard it reaches
//! first (the cross-shard analogue of the PR 2 version-less dedup fix).
//!
//! The shard-invariance property suite (`tests/properties.rs`) pins the
//! contract this module must keep: for any shard count, final state,
//! traffic, and causal apply order are identical to the 1-shard hub.

use std::sync::{Mutex, MutexGuard};

use deltacfs_delta::Cost;
use deltacfs_kvstore::KeyValue;

use crate::persist::{self, PersistError};
use crate::protocol::{ApplyOutcome, GroupId, UpdateMsg, UpdatePayload, Version};
use crate::server::CloudServer;

/// Deterministic namespace→shard routing.
///
/// The routing key is the first path component with any
/// `.conflict-c<n>` suffix stripped, so a conflict copy of a root-level
/// file (`/f.conflict-c3`) lands on the same shard as the file it
/// shadows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardRouter {
    shards: usize,
}

impl ShardRouter {
    /// A router over `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards >= 1, "a hub needs at least one shard");
        ShardRouter { shards }
    }

    /// Number of shards routed over.
    pub fn shard_count(&self) -> usize {
        self.shards
    }

    /// The namespace (routing key) of `path`: its first component, with
    /// a trailing conflict-copy suffix stripped.
    pub fn namespace_of(path: &str) -> &str {
        let trimmed = path.strip_prefix('/').unwrap_or(path);
        let first = trimmed.split('/').next().unwrap_or("");
        strip_conflict_suffix(first)
    }

    /// The shard a namespace hashes to (FNV-1a, stable across runs).
    pub fn shard_of_namespace(&self, ns: &str) -> usize {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in ns.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        (h % self.shards as u64) as usize
    }

    /// The shard owning `path`.
    pub fn shard_of_path(&self, path: &str) -> usize {
        self.shard_of_namespace(Self::namespace_of(path))
    }

    /// Every shard a group touches, ascending and deduplicated: the
    /// shards of each member's path plus rename/link targets and delta
    /// base paths.
    pub fn shards_of_group(&self, msgs: &[UpdateMsg]) -> Vec<usize> {
        let mut out: Vec<usize> = Vec::with_capacity(2);
        let mut push = |s: usize| {
            if !out.contains(&s) {
                out.push(s);
            }
        };
        for msg in msgs {
            push(self.shard_of_path(&msg.path));
            match &msg.payload {
                UpdatePayload::Rename { to } | UpdatePayload::Link { to } => {
                    push(self.shard_of_path(to));
                }
                UpdatePayload::Delta { base_path, .. } => {
                    push(self.shard_of_path(base_path));
                }
                _ => {}
            }
        }
        out.sort_unstable();
        out
    }
}

/// Strips a `.conflict-c<digits>` tail from a path component.
fn strip_conflict_suffix(component: &str) -> &str {
    if let Some(pos) = component.rfind(".conflict-c") {
        let digits = &component[pos + ".conflict-c".len()..];
        if !digits.is_empty() && digits.bytes().all(|b| b.is_ascii_digit()) {
            return &component[..pos];
        }
    }
    component
}

/// The global causal-order log: per-shard cursors let the dispatcher
/// splice each shard's `apply_order` appends into one sequence that, for
/// a sequentially pumped hub, is identical to a single server's log.
#[derive(Debug)]
struct OrderLog {
    global: Vec<String>,
    cursors: Vec<usize>,
}

/// Dispatcher-level accounting for cross-shard groups (work done on the
/// scratch server belongs to no single shard).
#[derive(Debug, Default)]
struct CrossState {
    cost: Cost,
    duplicates: u64,
    groups: u64,
}

/// A cloud server partitioned into independently locked shards.
///
/// All mutation entry points take `&self`: shard locks are striped, so
/// single-shard groups on different shards apply concurrently. The read
/// facade mirrors [`CloudServer`]'s API with owned return values (the
/// data crosses a lock).
///
/// # Example
///
/// ```
/// use deltacfs_core::{ClientId, Payload, ShardedServer, UpdateMsg, UpdatePayload, Version};
///
/// let server = ShardedServer::new(4);
/// let v1 = Version { client: ClientId(1), counter: 1 };
/// server.apply_txn(&[UpdateMsg {
///     path: "/tenant-a/f".into(),
///     base: None,
///     version: Some(v1),
///     payload: UpdatePayload::Full(Payload::from_static(b"v1")),
///     txn: None,
///     group: None,
/// }]);
/// assert_eq!(server.file("/tenant-a/f").as_deref(), Some(&b"v1"[..]));
/// ```
#[derive(Debug)]
pub struct ShardedServer {
    router: ShardRouter,
    shards: Vec<Mutex<CloudServer>>,
    order: Mutex<OrderLog>,
    cross: Mutex<CrossState>,
}

impl ShardedServer {
    /// A sharded server with `shards` empty shards.
    ///
    /// # Panics
    ///
    /// Panics when `shards` is zero.
    pub fn new(shards: usize) -> Self {
        ShardedServer {
            router: ShardRouter::new(shards),
            shards: (0..shards).map(|_| Mutex::new(CloudServer::new())).collect(),
            order: Mutex::new(OrderLog {
                global: Vec::new(),
                cursors: vec![0; shards],
            }),
            cross: Mutex::new(CrossState::default()),
        }
    }

    /// The routing table.
    pub fn router(&self) -> ShardRouter {
        self.router
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.router.shard_count()
    }

    /// The shard owning `path`.
    pub fn shard_of_path(&self, path: &str) -> usize {
        self.router.shard_of_path(path)
    }

    fn lock(&self, shard: usize) -> MutexGuard<'_, CloudServer> {
        self.shards[shard].lock().expect("shard lock poisoned")
    }

    /// Splices shard `s`'s new `apply_order` entries into the global log.
    /// Must run while `shard`'s lock is still held, so no other group's
    /// appends interleave with the cursor update.
    fn drain_order(&self, s: usize, shard: &CloudServer) {
        let mut log = self.order.lock().expect("order lock poisoned");
        let order = shard.apply_order();
        let cur = log.cursors[s].min(order.len());
        log.global.extend(order[cur..].iter().cloned());
        log.cursors[s] = order.len();
    }

    /// Applies a transaction group atomically (the sharded counterpart of
    /// [`CloudServer::apply_txn`]): one lock for a single-shard group,
    /// the checkout/check-in dispatcher for a cross-shard one.
    pub fn apply_txn(&self, msgs: &[UpdateMsg]) -> Vec<ApplyOutcome> {
        let involved = self.router.shards_of_group(msgs);
        if let [s] = involved[..] {
            let mut shard = self.lock(s);
            let outcomes = shard.apply_txn(msgs);
            self.drain_order(s, &shard);
            outcomes
        } else {
            self.apply_cross(msgs)
        }
    }

    /// Applies a group with replay deduplication (the sharded counterpart
    /// of [`CloudServer::apply_txn_idempotent`]). For a cross-shard group
    /// the outcome record is written to *every* involved shard, so a
    /// whole-group resend is recognized no matter which of its shards
    /// already committed; the duplicate check likewise consults each
    /// involved shard's replay index.
    pub fn apply_txn_idempotent(&self, msgs: &[UpdateMsg]) -> (Vec<ApplyOutcome>, bool) {
        let involved = self.router.shards_of_group(msgs);
        if let [s] = involved[..] {
            let mut shard = self.lock(s);
            let result = shard.apply_txn_idempotent(msgs);
            self.drain_order(s, &shard);
            return result;
        }
        let gid = msgs.iter().find_map(|m| m.group);
        if let Some(gid) = gid {
            for &s in &involved {
                if let Some(recorded) = self.lock(s).group_record(gid) {
                    self.cross.lock().expect("cross lock").duplicates += 1;
                    return (recorded, true);
                }
            }
        }
        let version_hit = msgs.iter().any(|m| {
            m.version
                .is_some_and(|v| involved.iter().any(|&s| self.lock(s).has_seen(v)))
        });
        if version_hit {
            self.cross.lock().expect("cross lock").duplicates += 1;
            let outcomes = msgs
                .iter()
                .map(|m| {
                    m.version
                        .and_then(|v| involved.iter().find_map(|&s| self.lock(s).seen_outcome(v)))
                        .unwrap_or(ApplyOutcome::Applied)
                })
                .collect();
            return (outcomes, true);
        }
        let outcomes = self.apply_cross(msgs);
        for (msg, outcome) in msgs.iter().zip(&outcomes) {
            if let Some(v) = msg.version {
                self.lock(self.router.shard_of_path(&msg.path))
                    .record_seen(v, outcome.clone());
            }
        }
        if let Some(gid) = gid {
            // Replicated, not split: the whole outcome vector lands on
            // each involved shard in one insert apiece, so the record is
            // present wherever the resend routes first.
            for &s in &involved {
                self.lock(s).restore_group_record(gid, outcomes.clone());
            }
        }
        (outcomes, false)
    }

    /// The cross-shard path: check referenced entries out of their owner
    /// shards, apply on a scratch server (whole-group validation and
    /// conflict materialization run unchanged), then check the surviving
    /// entries back in by path. The `cross` mutex serializes cross-shard
    /// groups against each other; per-shard locks are taken one at a
    /// time, so single-shard traffic on uninvolved shards never waits.
    fn apply_cross(&self, msgs: &[UpdateMsg]) -> Vec<ApplyOutcome> {
        let mut state = self.cross.lock().expect("cross lock poisoned");
        let involved = self.router.shards_of_group(msgs);
        let mut temp = CloudServer::new();
        // Check out everything the group's validation can observe: the
        // referenced files and the involved shards' directory sets
        // (a path's parent directories share its first component, so
        // they live on an involved shard by construction). The scratch
        // apply then validates and conflicts exactly like the 1-shard
        // server would — including rejecting the whole group, in which
        // case the diff below is empty and no shard changes.
        let mut initial_dirs: Vec<String> = Vec::new();
        for &s in &involved {
            for dir in self.lock(s).dirs() {
                temp.insert_dir(&dir);
                initial_dirs.push(dir);
            }
        }
        for path in referenced_paths(msgs) {
            let s = self.router.shard_of_path(&path);
            if let Some(file) = self.lock(s).take_file(&path) {
                temp.put_file(path, file);
            }
        }
        let outcomes = temp.apply_txn(msgs);
        state.cost.merge(&temp.cost());
        state.groups += 1;
        {
            let mut log = self.order.lock().expect("order lock poisoned");
            log.global.extend(temp.apply_order().iter().cloned());
        }
        let final_dirs = temp.dirs();
        for dir in &final_dirs {
            if !initial_dirs.contains(dir) {
                self.lock(self.router.shard_of_path(dir)).insert_dir(dir);
            }
        }
        for dir in &initial_dirs {
            if !final_dirs.contains(dir) {
                self.lock(self.router.shard_of_path(dir)).remove_dir(dir);
            }
        }
        for (path, file) in temp.drain_files() {
            let s = self.router.shard_of_path(&path);
            self.lock(s).put_file(path, file);
        }
        outcomes
    }

    /// Current content of `path`, if present.
    pub fn file(&self, path: &str) -> Option<Vec<u8>> {
        self.lock(self.router.shard_of_path(path))
            .file(path)
            .map(<[u8]>::to_vec)
    }

    /// Current version of `path`, if present.
    pub fn version(&self, path: &str) -> Option<Version> {
        self.lock(self.router.shard_of_path(path)).version(path)
    }

    /// Whether the directory `path` exists.
    pub fn has_dir(&self, path: &str) -> bool {
        self.lock(self.router.shard_of_path(path)).has_dir(path)
    }

    /// All stored directory paths, sorted.
    pub fn dirs(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in 0..self.shard_count() {
            out.extend(self.lock(s).dirs());
        }
        out.sort();
        out
    }

    /// All stored file paths, sorted.
    pub fn paths(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in 0..self.shard_count() {
            out.extend(self.lock(s).paths());
        }
        out.sort();
        out
    }

    /// The stored file paths visible in `namespace` (every path when the
    /// namespace is the root `""`), sorted. A namespaced listing reads
    /// only the owner shard — the multi-tenant fast path.
    pub fn paths_in_namespace(&self, namespace: &str) -> Vec<String> {
        if namespace.is_empty() {
            return self.paths();
        }
        let s = self.router.shard_of_namespace(namespace);
        let prefix = format!("/{namespace}/");
        let mut out: Vec<String> = self
            .lock(s)
            .paths()
            .into_iter()
            .filter(|p| p.starts_with(&prefix) || p.as_str() == &prefix[..prefix.len() - 1])
            .collect();
        out.sort();
        out
    }

    /// Number of files stored on shard `s`.
    pub fn shard_file_count(&self, s: usize) -> usize {
        self.lock(s).paths().len()
    }

    /// Total bytes stored (current versions only).
    pub fn stored_bytes(&self) -> u64 {
        (0..self.shard_count()).map(|s| self.lock(s).stored_bytes()).sum()
    }

    /// Bytes retained for the sake of older versions, summed over shards
    /// (see [`CloudServer::history_bytes`]).
    pub fn history_bytes(&self) -> u64 {
        (0..self.shard_count()).map(|s| self.lock(s).history_bytes()).sum()
    }

    /// Bytes staged for streamed groups that have not committed yet,
    /// summed over shards (see [`CloudServer::staged_bytes`]).
    pub fn staged_bytes(&self) -> u64 {
        (0..self.shard_count()).map(|s| self.lock(s).staged_bytes()).sum()
    }

    /// The retained versions of `path`, oldest first.
    pub fn version_history(&self, path: &str) -> Vec<Version> {
        self.lock(self.router.shard_of_path(path)).version_history(path)
    }

    /// Content of `path` at a specific retained version.
    pub fn file_at(&self, path: &str, version: Version) -> Option<Vec<u8>> {
        self.lock(self.router.shard_of_path(path))
            .file_at(path, version)
            .map(std::borrow::Cow::into_owned)
    }

    /// The global causal apply order, spliced from every shard's log in
    /// commit order. For a sequentially pumped hub this is identical to
    /// the 1-shard server's `apply_order` — the invariant the property
    /// suite pins.
    pub fn apply_order(&self) -> Vec<String> {
        self.order.lock().expect("order lock poisoned").global.clone()
    }

    /// Work the server has performed so far, summed over shards plus the
    /// cross-shard dispatcher.
    pub fn cost(&self) -> Cost {
        let mut total = self.cross.lock().expect("cross lock").cost;
        for s in 0..self.shard_count() {
            total.merge(&self.lock(s).cost());
        }
        total
    }

    /// Duplicate (retransmitted) groups absorbed without re-applying,
    /// summed over shards plus cross-shard duplicates.
    pub fn duplicates_ignored(&self) -> u64 {
        let cross = self.cross.lock().expect("cross lock").duplicates;
        cross
            + (0..self.shard_count())
                .map(|s| self.lock(s).duplicates_ignored())
                .sum::<u64>()
    }

    /// Cross-shard groups dispatched through the scratch server.
    pub fn cross_shard_groups(&self) -> u64 {
        self.cross.lock().expect("cross lock").groups
    }

    /// Whether a `<CliID, VerCnt>` version has been applied on any shard.
    pub fn has_seen(&self, version: Version) -> bool {
        (0..self.shard_count()).any(|s| self.lock(s).has_seen(version))
    }

    /// Whether a `<CliID, GroupSeq>` group is recorded on any shard.
    pub fn has_seen_group(&self, group: GroupId) -> bool {
        (0..self.shard_count()).any(|s| self.lock(s).has_seen_group(group))
    }

    /// Runs `f` against one shard's [`CloudServer`] under its lock.
    pub fn with_shard<R>(&self, s: usize, f: impl FnOnce(&CloudServer) -> R) -> R {
        f(&self.lock(s))
    }

    /// Snapshots every shard into its own store: shard `i` into
    /// `stores[i]`. A shard never writes another shard's store.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures.
    ///
    /// # Panics
    ///
    /// Panics unless `stores` has one store per shard.
    pub fn save_all<K: KeyValue>(&self, stores: &mut [K]) -> Result<(), PersistError> {
        assert_eq!(stores.len(), self.shard_count(), "one store per shard");
        for (s, store) in stores.iter_mut().enumerate() {
            persist::save(&self.lock(s), store)?;
        }
        Ok(())
    }

    /// Snapshots only the shards a delivered group touched, in ascending
    /// shard order. Combined with the replicated group record this is the
    /// commit protocol DESIGN.md §13 documents: each involved shard's
    /// snapshot is self-contained (its file effects plus the whole-group
    /// record), so a crash reload from per-shard stores never resurrects
    /// a half-deduplicated group.
    ///
    /// # Errors
    ///
    /// Propagates backing-store failures.
    pub fn save_group<K: KeyValue>(
        &self,
        msgs: &[UpdateMsg],
        stores: &mut [K],
    ) -> Result<(), PersistError> {
        assert_eq!(stores.len(), self.shard_count(), "one store per shard");
        for s in self.router.shards_of_group(msgs) {
            persist::save(&self.lock(s), &mut stores[s])?;
        }
        Ok(())
    }

    /// Reloads every shard from its snapshot store after a simulated
    /// server crash. Volatile dispatcher state (cross-shard cost and
    /// duplicate counters) dies with the process, exactly as a single
    /// server's in-memory counters do; the global order log keeps its
    /// pre-crash prefix and the per-shard cursors re-anchor on the
    /// reloaded logs.
    ///
    /// # Errors
    ///
    /// [`PersistError::Corrupt`] if a record fails to decode.
    pub fn reload_all<K: KeyValue>(&self, stores: &mut [K]) -> Result<(), PersistError> {
        assert_eq!(stores.len(), self.shard_count(), "one store per shard");
        for (s, store) in stores.iter_mut().enumerate() {
            let mut shard = self.lock(s);
            persist::load_into(store, &mut shard)?;
            let len = shard.apply_order().len();
            self.order.lock().expect("order lock poisoned").cursors[s] = len;
        }
        let mut state = self.cross.lock().expect("cross lock poisoned");
        state.cost = Cost::new();
        state.duplicates = 0;
        Ok(())
    }
}

/// Every path a group reads or writes: member paths, rename/link
/// targets, and delta base paths, deduplicated in first-reference order.
fn referenced_paths(msgs: &[UpdateMsg]) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(msgs.len());
    let mut push = |p: &str| {
        if !out.iter().any(|q| q == p) {
            out.push(p.to_string());
        }
    };
    for msg in msgs {
        push(&msg.path);
        match &msg.payload {
            UpdatePayload::Rename { to } | UpdatePayload::Link { to } => push(to),
            UpdatePayload::Delta { base_path, .. } => push(base_path),
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientId, Payload};

    fn v(c: u32, n: u64) -> Version {
        Version {
            client: ClientId(c),
            counter: n,
        }
    }

    fn gid(c: u32, n: u64) -> GroupId {
        GroupId {
            client: ClientId(c),
            seq: n,
        }
    }

    fn full(path: &str, base: Option<Version>, ver: Version, data: &[u8]) -> UpdateMsg {
        UpdateMsg {
            path: path.into(),
            base,
            version: Some(ver),
            payload: UpdatePayload::Full(Payload::copy_from_slice(data)),
            txn: None,
            group: None,
        }
    }

    fn rename(from: &str, to: &str, group: Option<GroupId>) -> UpdateMsg {
        UpdateMsg {
            path: from.into(),
            base: None,
            version: None,
            payload: UpdatePayload::Rename { to: to.into() },
            txn: None,
            group,
        }
    }

    /// Two root-level names guaranteed to hash to different shards.
    fn cross_shard_pair(router: ShardRouter) -> (String, String) {
        let a = "/src-file".to_string();
        for i in 0..1024 {
            let b = format!("/dst-file-{i}");
            if router.shard_of_path(&b) != router.shard_of_path(&a) {
                return (a, b);
            }
        }
        panic!("no cross-shard name found in 1024 candidates");
    }

    #[test]
    fn routing_is_by_first_component() {
        let r = ShardRouter::new(8);
        assert_eq!(r.shard_of_path("/t3/a"), r.shard_of_path("/t3/b/c"));
        assert_eq!(ShardRouter::namespace_of("/t3/a/b"), "t3");
        assert_eq!(ShardRouter::namespace_of("/f"), "f");
    }

    #[test]
    fn conflict_copies_route_with_their_file() {
        let r = ShardRouter::new(8);
        assert_eq!(r.shard_of_path("/f"), r.shard_of_path("/f.conflict-c3"));
        assert_eq!(
            r.shard_of_path("/t1/doc"),
            r.shard_of_path("/t1/doc.conflict-c12")
        );
        // A name that merely resembles the suffix is not rewritten.
        assert_eq!(ShardRouter::namespace_of("/x.conflict-cat"), "x.conflict-cat");
    }

    #[test]
    fn single_shard_groups_apply_in_place() {
        let server = ShardedServer::new(4);
        let outcomes = server.apply_txn(&[full("/t1/f", None, v(1, 1), b"hello")]);
        assert_eq!(outcomes, vec![ApplyOutcome::Applied]);
        assert_eq!(server.file("/t1/f").as_deref(), Some(&b"hello"[..]));
        assert_eq!(server.apply_order(), vec!["/t1/f".to_string()]);
        assert_eq!(server.cross_shard_groups(), 0);
    }

    #[test]
    fn cross_shard_rename_moves_content_between_shards() {
        let server = ShardedServer::new(4);
        let (src, dst) = cross_shard_pair(server.router());
        server.apply_txn(&[full(&src, None, v(1, 1), b"payload")]);
        let outcomes = server.apply_txn(&[rename(&src, &dst, None)]);
        assert_eq!(outcomes, vec![ApplyOutcome::Applied]);
        assert!(server.file(&src).is_none());
        assert_eq!(server.file(&dst).as_deref(), Some(&b"payload"[..]));
        assert_eq!(server.cross_shard_groups(), 1);
        // The causal log interleaves both shards' entries in commit order.
        assert_eq!(server.apply_order(), vec![src, dst]);
    }

    #[test]
    fn cross_shard_group_record_lands_on_every_involved_shard() {
        let server = ShardedServer::new(4);
        let (src, dst) = cross_shard_pair(server.router());
        server.apply_txn_idempotent(&[full(&src, None, v(1, 1), b"x")]);
        let g = gid(1, 2);
        let (first, dup) = server.apply_txn_idempotent(&[rename(&src, &dst, Some(g))]);
        assert!(!dup);
        let src_shard = server.shard_of_path(&src);
        let dst_shard = server.shard_of_path(&dst);
        assert!(server.with_shard(src_shard, |s| s.has_seen_group(g)));
        assert!(server.with_shard(dst_shard, |s| s.has_seen_group(g)));
        let (replayed, dup) = server.apply_txn_idempotent(&[rename(&src, &dst, Some(g))]);
        assert!(dup, "whole-group resend must be recognized");
        assert_eq!(replayed, first);
        assert_eq!(server.duplicates_ignored(), 1);
    }

    #[test]
    fn one_shard_matches_cloud_server_semantics() {
        // With a single shard every group is "single-shard": the
        // dispatcher degenerates to a plain CloudServer.
        let sharded = ShardedServer::new(1);
        let mut plain = CloudServer::new();
        let groups: Vec<Vec<UpdateMsg>> = vec![
            vec![full("/a", None, v(1, 1), b"a1")],
            vec![rename("/a", "/b", Some(gid(1, 2)))],
            vec![full("/a", None, v(1, 3), b"fresh")],
            vec![rename("/a", "/b", Some(gid(1, 2)))], // late replay
        ];
        for g in &groups {
            let lhs = sharded.apply_txn_idempotent(g);
            let rhs = plain.apply_txn_idempotent(g);
            assert_eq!(lhs, rhs);
        }
        assert_eq!(sharded.paths(), plain.paths());
        assert_eq!(sharded.apply_order(), plain.apply_order());
        assert_eq!(sharded.duplicates_ignored(), plain.duplicates_ignored());
    }

    #[test]
    fn namespace_listing_reads_only_the_owner_shard() {
        let server = ShardedServer::new(4);
        server.apply_txn(&[full("/t1/a", None, v(1, 1), b"x")]);
        server.apply_txn(&[full("/t2/b", None, v(1, 2), b"y")]);
        assert_eq!(server.paths_in_namespace("t1"), vec!["/t1/a".to_string()]);
        assert_eq!(server.paths_in_namespace("t2"), vec!["/t2/b".to_string()]);
        assert_eq!(server.paths_in_namespace("").len(), 2);
    }
}
