// ---- Benchmark compat, no behaviour (DESIGN.md §13) --------------------
// Only `benchmark/src` names these; nothing in crates/, tests/, src/ or
// examples/ calls them. They go with the benchmark's `api.rs` (ROADMAP).
use crate::{ApplyOutcome, CloudServer, HubConfig, SyncHub, UpdateMsg};
use deltacfs_net::SimClock;
use std::cell::RefCell;

impl HubConfig {
    /// Compat: returns `self`.
    pub fn with_shards(self, _: usize) -> Self {
        self
    }
}
impl SyncHub {
    /// Compat: [`SyncHub::new`].
    pub fn with_shards(clock: SimClock, _: usize) -> Self {
        Self::new(clock)
    }
    /// Compat: [`SyncHub::cloud`], read as owned copies.
    pub fn server(&self) -> CloudCopies<'_> {
        CloudCopies(self.cloud())
    }
}
impl CloudServer {
    /// Compat: [`CloudServer::apply_txn`], and whether the group was a
    /// replay.
    pub fn apply_txn_idempotent(&mut self, msgs: &[UpdateMsg]) -> (Vec<ApplyOutcome>, bool) {
        let before = self.duplicates_ignored();
        let outcomes = self.apply_txn(msgs);
        (outcomes, self.duplicates_ignored() > before)
    }
}
/// Compat: owned-copy reads of a [`CloudServer`].
pub struct CloudCopies<'a>(&'a CloudServer);
impl CloudCopies<'_> {
    /// Compat: [`CloudServer::paths`].
    pub fn paths(&self) -> Vec<String> {
        self.0.paths()
    }
    /// Compat: [`CloudServer::file`], copied.
    pub fn file(&self, path: &str) -> Option<Vec<u8>> {
        self.0.file(path).map(<[u8]>::to_vec)
    }
}
/// Compat: one [`CloudServer`] behind a shared reference.
pub struct ShardedServer(RefCell<CloudServer>);
impl ShardedServer {
    /// Compat: one empty server.
    pub fn new(_: usize) -> Self {
        Self(RefCell::new(CloudServer::new()))
    }
    /// Compat: [`CloudServer::apply_txn_idempotent`].
    pub fn apply_txn_idempotent(&self, msgs: &[UpdateMsg]) -> (Vec<ApplyOutcome>, bool) {
        self.0.borrow_mut().apply_txn_idempotent(msgs)
    }
    /// Compat: always 0.
    pub fn cross_shard_groups(&self) -> u64 {
        0
    }
}
