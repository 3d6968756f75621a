//! Cloud-server persistence: snapshot the server's state to disk and load
//! it back after a restart.
//!
//! The paper leaves server-side system design as future work but sketches
//! the goal: because DeltaCFS servers "simply apply incremental data on
//! files", wimpy storage servers suffice. This module supplies the
//! durability half of that sketch — every file's current content and
//! version (plus the retained history) serializes through the same wire
//! format the protocol uses, into the embedded KV store. A file of
//! several extents, and every retained version, is flattened for it
//! (counted in [`CloudServer::flatten_bytes`]); a reloaded file is one
//! extent again.
//!
//! Layout inside the store:
//!
//! ```text
//! f\0<path>            = wire-encoded Full message (current content+version)
//! h\0<path>\0<n>       = wire-encoded Full message (history entry n)
//! d\0<path>            = directory marker
//! g\0<client:u32 BE>   = u64 LE: the last GroupSeq applied from that client
//! ```
//!
//! The `g\0` rows are the server's whole replay memory. A courier resends
//! a group until it is acknowledged, and a crash can lose the
//! acknowledgement of a group the snapshot already holds; the restarted
//! server knows the resend for a replay from its sender's row alone,
//! whatever the group carries — a version-less rename included. There is
//! one row per client, not per group.

use deltacfs_kvstore::{KeyValue, KvError};

use crate::protocol::{ClientId, Payload, UpdateMsg, UpdatePayload};
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

fn group_key(client: ClientId) -> Vec<u8> {
    let mut k = Vec::with_capacity(2 + 4);
    k.extend_from_slice(b"g\0");
    k.extend_from_slice(&client.0.to_be_bytes());
    k
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
                group: None,
            };
            store.put(&history_key(&path, n), &wire::encode(&msg))?;
            prev = Some(*v);
        }
        let content = server.shared_file(&path).expect("listed path exists");
        let msg = UpdateMsg {
            path: path.clone(),
            base: prev,
            version: server.version(&path),
            payload: UpdatePayload::Full(Payload::from(content)),
            group: None,
        };
        store.put(&file_key(&path), &wire::encode(&msg))?;
    }
    for dir in server.dirs() {
        store.put(&dir_key(&dir), b"")?;
    }
    for (client, seq) in server.applied_seqs() {
        store.put(&group_key(client), &seq.to_le_bytes())?;
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
            group: None,
        });
    }
    for (key, value) in store.scan_prefix(b"g\0")? {
        let client = <[u8; 4]>::try_from(&key[2..])
            .map_err(|_| PersistError::Corrupt(format!("group key {key:?}")))?;
        let seq = <[u8; 8]>::try_from(&value[..])
            .map_err(|_| PersistError::Corrupt(format!("group seq {value:?}")))?;
        server.restore_applied_seq(
            ClientId(u32::from_be_bytes(client)),
            u64::from_le_bytes(seq),
        );
    }
    Ok(server)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::{ApplyOutcome, GroupId, Version};
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
        let mut group = vec![full("/f", None, 1, b"v1")];
        group[0].group = Some(GroupId {
            client: ClientId(1),
            seq: 1,
        });
        assert_eq!(server.apply_txn(&group), vec![ApplyOutcome::Applied]);
        let mut store = MemStore::new();
        save(&server, &mut store).unwrap();

        // Crash: the in-memory server (and its replay memory) is gone.
        let mut restored = load(&mut store).unwrap();
        let (order, cost) = (restored.apply_order().to_vec(), restored.cost());
        // The client never got the ack and retransmits the same group.
        assert!(
            restored.apply_txn(&group).is_empty(),
            "reloaded server must recognize the replay"
        );
        assert_eq!(restored.duplicates_ignored(), 1);
        assert_eq!(
            (restored.apply_order(), restored.cost()),
            (&order[..], cost)
        );
        assert_eq!(restored.file("/f"), Some(&b"v1"[..]));
        assert_eq!(restored.version_history("/f"), vec![v(1)]);
    }

    #[test]
    fn truncated_group_row_is_reported() {
        // A key cut short of its client id.
        let mut store = MemStore::new();
        store.put(b"g\0\0\0", &7u64.to_le_bytes()).unwrap();
        assert!(matches!(load(&mut store), Err(PersistError::Corrupt(_))));
        // A value cut short of its seq.
        let mut store = MemStore::new();
        store.put(&group_key(ClientId(1)), &[7, 0, 0]).unwrap();
        assert!(matches!(load(&mut store), Err(PersistError::Corrupt(_))));
    }

    #[test]
    fn corrupt_record_is_reported() {
        let mut store = MemStore::new();
        store.put(&file_key("/f"), b"not a wire message").unwrap();
        assert!(matches!(load(&mut store), Err(PersistError::Corrupt(_))));
    }
}
