//! Cloud-server persistence: snapshot the server's state to disk and load
//! it back after a restart.
//!
//! The paper leaves server-side system design as future work but sketches
//! the goal: because DeltaCFS servers "simply apply incremental data on
//! files", wimpy storage servers suffice. This module supplies the
//! durability half of that sketch — every file's current content and
//! version (plus the retained history) serializes through the same wire
//! format the protocol uses, into the embedded KV store.
//!
//! Layout inside the store:
//!
//! ```text
//! f\0<path>            = wire-encoded Full message (current content+version)
//! h\0<path>\0<n>       = wire-encoded Full message (history entry n)
//! d\0<path>            = directory marker
//! g\0<client:u32 BE><seq:u64 BE> = recorded whole-group outcomes
//! ```
//!
//! The `g\0` records matter for correctness, not just bookkeeping: the
//! per-version idempotency index is rebuildable from the file histories,
//! but a version-less group (pure rename/mkdir) leaves no version behind
//! — only its persisted `<CliID, GroupSeq>` record lets the restarted
//! server recognize its retransmission. Each group is one record, so a
//! snapshot can never hold a partially recorded group.

use deltacfs_kvstore::{KeyValue, KvError};

use crate::protocol::{ApplyOutcome, ClientId, GroupId, Payload, UpdateMsg, UpdatePayload};
use crate::server::CloudServer;
use crate::wire;

/// Errors from persisting or loading a server snapshot.
#[derive(Debug, Clone)]
pub enum PersistError {
    /// The backing store failed.
    Store(KvError),
    /// A stored record did not decode.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Store(e) => write!(f, "snapshot store error: {e}"),
            PersistError::Corrupt(m) => write!(f, "corrupt snapshot: {m}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Store(e) => Some(e),
            PersistError::Corrupt(_) => None,
        }
    }
}

impl From<KvError> for PersistError {
    fn from(e: KvError) -> Self {
        PersistError::Store(e)
    }
}

fn file_key(path: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + path.len());
    k.extend_from_slice(b"f\0");
    k.extend_from_slice(path.as_bytes());
    k
}

fn history_key(path: &str, n: usize) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + path.len() + 9);
    k.extend_from_slice(b"h\0");
    k.extend_from_slice(path.as_bytes());
    k.push(0);
    k.extend_from_slice(&(n as u64).to_be_bytes());
    k
}

fn dir_key(path: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + path.len());
    k.extend_from_slice(b"d\0");
    k.extend_from_slice(path.as_bytes());
    k
}

fn group_key(group: GroupId) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + 4 + 8);
    k.extend_from_slice(b"g\0");
    k.extend_from_slice(&group.client.0.to_be_bytes());
    k.extend_from_slice(&group.seq.to_be_bytes());
    k
}

fn encode_outcomes(outcomes: &[ApplyOutcome]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + outcomes.len() * 2);
    buf.extend_from_slice(&(outcomes.len() as u32).to_le_bytes());
    for o in outcomes {
        match o {
            ApplyOutcome::Applied => buf.push(0),
            ApplyOutcome::Conflict { stored_as } => {
                buf.push(1);
                buf.extend_from_slice(&(stored_as.len() as u32).to_le_bytes());
                buf.extend_from_slice(stored_as.as_bytes());
            }
            ApplyOutcome::Rejected { reason } => {
                buf.push(2);
                buf.extend_from_slice(&(reason.len() as u32).to_le_bytes());
                buf.extend_from_slice(reason.as_bytes());
            }
        }
    }
    buf
}

fn take_record<'a>(buf: &'a [u8], pos: &mut usize, n: usize) -> Result<&'a [u8], PersistError> {
    let end = pos
        .checked_add(n)
        .filter(|&e| e <= buf.len())
        .ok_or_else(|| PersistError::Corrupt("group outcomes: truncated".into()))?;
    let out = &buf[*pos..end];
    *pos = end;
    Ok(out)
}

fn decode_outcomes(buf: &[u8]) -> Result<Vec<ApplyOutcome>, PersistError> {
    let corrupt = |m: &str| PersistError::Corrupt(format!("group outcomes: {m}"));
    let mut pos = 0usize;
    let count = u32::from_le_bytes(take_record(buf, &mut pos, 4)?.try_into().expect("4")) as usize;
    let mut out = Vec::with_capacity(count.min(4096));
    for _ in 0..count {
        let tag = take_record(buf, &mut pos, 1)?[0];
        out.push(match tag {
            0 => ApplyOutcome::Applied,
            1 | 2 => {
                let len =
                    u32::from_le_bytes(take_record(buf, &mut pos, 4)?.try_into().expect("4"))
                        as usize;
                let s = String::from_utf8(take_record(buf, &mut pos, len)?.to_vec())
                    .map_err(|_| corrupt("utf-8"))?;
                if tag == 1 {
                    ApplyOutcome::Conflict { stored_as: s }
                } else {
                    ApplyOutcome::Rejected { reason: s }
                }
            }
            _ => return Err(corrupt("tag")),
        });
    }
    if pos != buf.len() {
        return Err(corrupt("trailing bytes"));
    }
    Ok(out)
}

/// Writes a full snapshot of `server` into `store` (replacing any previous
/// snapshot).
///
/// # Errors
///
/// Propagates backing-store failures.
pub fn save<K: KeyValue>(server: &CloudServer, store: &mut K) -> Result<(), PersistError> {
    // Clear any previous snapshot.
    for prefix in [&b"f\0"[..], &b"h\0"[..], &b"d\0"[..], &b"g\0"[..]] {
        for (key, _) in store.scan_prefix(prefix)? {
            store.delete(&key)?;
        }
    }
    for path in server.paths() {
        let history = server.version_history(&path);
        // All but the last entry (the current version) are history. Each
        // record's base chains to its predecessor so that replaying the
        // records through the normal apply path validates cleanly and
        // rebuilds the retained history.
        let mut prev = None;
        for (n, v) in history
            .iter()
            .take(history.len().saturating_sub(1))
            .enumerate()
        {
            let old = server.file_at(&path, *v).expect("retained version");
            let msg = UpdateMsg {
                path: path.clone(),
                base: prev,
                version: Some(*v),
                payload: UpdatePayload::Full(Payload::from(old.into_owned())),
                txn: None,
                group: None,
            };
            store.put(&history_key(&path, n), &wire::encode(&msg))?;
            prev = Some(*v);
        }
        let content = server.file(&path).expect("listed path exists");
        let msg = UpdateMsg {
            path: path.clone(),
            base: prev,
            version: server.version(&path),
            payload: UpdatePayload::Full(Payload::copy_from_slice(content)),
            txn: None,
            group: None,
        };
        store.put(&file_key(&path), &wire::encode(&msg))?;
    }
    for dir in server.dirs() {
        store.put(&dir_key(&dir), b"")?;
    }
    // One record per applied group: the whole outcome vector together, so
    // a reloaded server replays namespace-only groups all-or-nothing.
    for (group, outcomes) in server.group_records() {
        store.put(&group_key(group), &encode_outcomes(outcomes))?;
    }
    Ok(())
}

/// Reconstructs a server from the snapshot in `store`.
///
/// # Errors
///
/// [`PersistError::Corrupt`] if a record fails to decode.
pub fn load<K: KeyValue>(store: &mut K) -> Result<CloudServer, PersistError> {
    let mut server = CloudServer::new();
    // History first (oldest versions applied before the current one).
    let mut history: Vec<(Vec<u8>, Vec<u8>)> = store.scan_prefix(b"h\0")?;
    // Keys sort by path then index, which is exactly application order.
    history.sort_by(|a, b| a.0.cmp(&b.0));
    for (key, value) in history {
        let msg = wire::decode(&value)
            .map_err(|e| PersistError::Corrupt(format!("history {key:?}: {e}")))?;
        server.apply_msg(&msg);
    }
    for (key, value) in store.scan_prefix(b"f\0")? {
        let msg = wire::decode(&value)
            .map_err(|e| PersistError::Corrupt(format!("file {key:?}: {e}")))?;
        server.apply_msg(&msg);
    }
    for (key, _) in store.scan_prefix(b"d\0")? {
        let path = String::from_utf8(key[2..].to_vec())
            .map_err(|_| PersistError::Corrupt("directory path".into()))?;
        server.apply_msg(&UpdateMsg {
            path,
            base: None,
            version: None,
            payload: UpdatePayload::Mkdir,
            txn: None,
            group: None,
        });
    }
    // The per-version idempotency memory died with the old process; every
    // applied version is recoverable from the reloaded file state, so a
    // client retransmitting a group the crashed server had already
    // applied is still recognized as a duplicate.
    server.rebuild_idempotency_index();
    // The whole-group index is *not* rebuildable (a rename leaves no
    // version behind); restore it from its own records.
    for (key, value) in store.scan_prefix(b"g\0")? {
        if key.len() != 2 + 4 + 8 {
            return Err(PersistError::Corrupt(format!("group key {key:?}")));
        }
        let client = u32::from_be_bytes(key[2..6].try_into().expect("4"));
        let seq = u64::from_be_bytes(key[6..14].try_into().expect("8"));
        let group = GroupId {
            client: ClientId(client),
            seq,
        };
        server.restore_group_record(group, decode_outcomes(&value)?);
    }
    Ok(server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ClientId, Payload, Version};
    use deltacfs_kvstore::{KvStore, MemStore};

    fn v(n: u64) -> Version {
        Version {
            client: ClientId(1),
            counter: n,
        }
    }

    fn full(path: &str, base: Option<Version>, ver: u64, data: &'static [u8]) -> UpdateMsg {
        UpdateMsg {
            path: path.into(),
            base,
            version: Some(v(ver)),
            payload: UpdatePayload::Full(Payload::from_static(data)),
            txn: None,
            group: None,
        }
    }

    #[test]
    fn snapshot_roundtrip_preserves_content_versions_history() {
        let mut server = CloudServer::new();
        server.apply_msg(&full("/a", None, 1, b"a1"));
        server.apply_msg(&full("/a", Some(v(1)), 2, b"a2"));
        server.apply_msg(&full("/b", None, 3, b"b1"));
        server.apply_msg(&UpdateMsg {
            path: "/dir".into(),
            base: None,
            version: None,
            payload: UpdatePayload::Mkdir,
            txn: None,
            group: None,
        });

        let mut store = MemStore::new();
        save(&server, &mut store).unwrap();
        let mut restored = load(&mut store).unwrap();

        assert_eq!(restored.file("/a"), Some(&b"a2"[..]));
        assert_eq!(restored.version("/a"), Some(v(2)));
        assert_eq!(restored.file("/b"), Some(&b"b1"[..]));
        assert!(restored.has_dir("/dir"));
        // History survived: the old version is still retrievable.
        assert_eq!(restored.file_at("/a", v(1)).as_deref(), Some(&b"a1"[..]));
        // And incremental updates continue from the restored version.
        let outcome = restored.apply_msg(&full("/a", Some(v(2)), 4, b"a3"));
        assert_eq!(outcome, crate::protocol::ApplyOutcome::Applied);
    }

    #[test]
    fn snapshot_survives_process_restart_via_kvstore() {
        let dir = std::env::temp_dir().join(format!("deltacfs-persist-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        {
            let mut server = CloudServer::new();
            server.apply_msg(&full("/f", None, 1, b"durable"));
            let mut store = KvStore::open(&dir).unwrap();
            save(&server, &mut store).unwrap();
        }
        let mut store = KvStore::open(&dir).unwrap();
        let restored = load(&mut store).unwrap();
        assert_eq!(restored.file("/f"), Some(&b"durable"[..]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resave_replaces_previous_snapshot() {
        let mut store = MemStore::new();
        let mut server = CloudServer::new();
        server.apply_msg(&full("/old", None, 1, b"x"));
        save(&server, &mut store).unwrap();

        let mut server2 = CloudServer::new();
        server2.apply_msg(&full("/new", None, 1, b"y"));
        save(&server2, &mut store).unwrap();

        let restored = load(&mut store).unwrap();
        assert!(restored.file("/old").is_none());
        assert_eq!(restored.file("/new"), Some(&b"y"[..]));
    }

    #[test]
    fn reloaded_server_still_deduplicates_applied_groups() {
        let mut server = CloudServer::new();
        let group = vec![full("/f", None, 1, b"v1")];
        server.apply_txn_idempotent(&group);
        let mut store = MemStore::new();
        save(&server, &mut store).unwrap();

        // Crash: the in-memory server (and its idempotency map) is gone.
        let mut restored = load(&mut store).unwrap();
        // The client never got the ack and retransmits the same group.
        let (outcomes, duplicate) = restored.apply_txn_idempotent(&group);
        assert!(duplicate, "reloaded server must recognize the dup");
        assert_eq!(outcomes, vec![crate::protocol::ApplyOutcome::Applied]);
        assert_eq!(restored.version_history("/f"), vec![v(1)]);
    }

    #[test]
    fn corrupt_record_is_reported() {
        let mut store = MemStore::new();
        store.put(&file_key("/f"), b"not a wire message").unwrap();
        assert!(matches!(load(&mut store), Err(PersistError::Corrupt(_))));
    }
}
