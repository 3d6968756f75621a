//! The Checksum Store (paper §III-E): block checksums for integrity.
//!
//! Every file is partitioned into fixed 4 KB blocks; each block's checksum
//! is kept in a local key-value store. Because rsync splits files the same
//! way, the *rolling* checksum doubles as the block checksum, "which
//! further reduces the computational cost" — no cryptographic hash is paid
//! here.
//!
//! The store detects two faults that Dropbox-like systems propagate
//! (Table IV):
//!
//! * **silent corruption** — a block read back no longer matches its
//!   checksum although no write went through the interception layer;
//! * **crash inconsistency** — after a crash, a recently modified file's
//!   blocks disagree with the recorded checksums (data blocks hit the disk
//!   while the corresponding interception-layer state did not).

use std::ops::Range;

use deltacfs_delta::{Cost, RollingChecksum};
use deltacfs_kvstore::{BatchOp, KeyValue, KvError};

/// Key layout: `b"cs\0" + path + b"\0" + block index (BE)`.
fn block_key(path: &str, idx: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(3 + path.len() + 9);
    k.extend_from_slice(b"cs\0");
    k.extend_from_slice(path.as_bytes());
    k.push(0);
    k.extend_from_slice(&idx.to_be_bytes());
    k
}

fn file_prefix(path: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(3 + path.len() + 1);
    k.extend_from_slice(b"cs\0");
    k.extend_from_slice(path.as_bytes());
    k.push(0);
    k
}

/// Per-block checksum store over any [`KeyValue`] backend.
#[derive(Debug)]
pub struct ChecksumStore<K> {
    kv: K,
    block_size: usize,
}

impl<K: KeyValue> ChecksumStore<K> {
    /// Creates a store with the given backend and block size.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(kv: K, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        ChecksumStore { kv, block_size }
    }

    /// The configured block size.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Gives access to the underlying store (e.g. to flush it).
    pub fn backend_mut(&mut self) -> &mut K {
        &mut self.kv
    }

    fn checksum(&self, block: &[u8], cost: &mut Cost) -> u32 {
        cost.bytes_rolled += block.len() as u64;
        cost.ops += 1;
        RollingChecksum::new(block).digest()
    }

    /// Records the checksum of block `idx` of `path`.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn put_block(
        &mut self,
        path: &str,
        idx: u64,
        block: &[u8],
        cost: &mut Cost,
    ) -> Result<(), KvError> {
        let sum = self.checksum(block, cost);
        self.kv.put(&block_key(path, idx), &sum.to_le_bytes())
    }

    /// Verifies block `idx` of `path` against the stored checksum.
    ///
    /// Returns `true` when the block matches or no checksum is recorded
    /// yet (an unknown block cannot be declared corrupt).
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn verify_block(
        &mut self,
        path: &str,
        idx: u64,
        block: &[u8],
        cost: &mut Cost,
    ) -> Result<bool, KvError> {
        match self.kv.get(&block_key(path, idx))? {
            Some(stored) => {
                let sum = self.checksum(block, cost);
                Ok(stored == sum.to_le_bytes())
            }
            None => Ok(true),
        }
    }

    /// Re-checksums every block of `content` and records it for `path`,
    /// dropping stale trailing blocks.
    ///
    /// All mutations — stale-tail deletes plus one put per block — are
    /// committed as a single [`KeyValue::write_batch`] group commit: one
    /// WAL append and one flush point instead of N, and a crash leaves
    /// either the old checksum set or the new one, never a mix.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn reindex_file(
        &mut self,
        path: &str,
        content: &[u8],
        cost: &mut Cost,
    ) -> Result<(), KvError> {
        let nblocks = content.len().div_ceil(self.block_size) as u64;
        let mut batch = Vec::new();
        // Remove checksums past the new end.
        for (key, _) in self.kv.scan_prefix(&file_prefix(path))? {
            let idx_bytes: [u8; 8] = key[key.len() - 8..].try_into().expect("8-byte suffix");
            if u64::from_be_bytes(idx_bytes) >= nblocks {
                batch.push(BatchOp::Delete { key });
            }
        }
        for (i, block) in content.chunks(self.block_size).enumerate() {
            let sum = self.checksum(block, cost);
            batch.push(BatchOp::Put {
                key: block_key(path, i as u64),
                value: sum.to_le_bytes().to_vec(),
            });
        }
        self.kv.write_batch(&batch)
    }

    /// Updates checksums for the blocks touched by a write of `data_len`
    /// bytes at `offset`. `read_block(idx)` must return the *current*
    /// (post-write) content of block `idx`, or `None` past EOF.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn update_range(
        &mut self,
        path: &str,
        offset: u64,
        data_len: u64,
        mut read_block: impl FnMut(u64) -> Option<Vec<u8>>,
        cost: &mut Cost,
    ) -> Result<(), KvError> {
        if data_len == 0 {
            return Ok(());
        }
        let first = offset / self.block_size as u64;
        let last = (offset + data_len - 1) / self.block_size as u64;
        let mut batch = Vec::with_capacity((last - first + 1) as usize);
        for idx in first..=last {
            if let Some(block) = read_block(idx) {
                let sum = self.checksum(&block, cost);
                batch.push(BatchOp::Put {
                    key: block_key(path, idx),
                    value: sum.to_le_bytes().to_vec(),
                });
            }
        }
        self.kv.write_batch(&batch)
    }

    /// Brings `path`'s checksums up to date after a batch of in-place
    /// operations left the file as `content`: every block a `dirty` byte
    /// range touches is re-summed once, however many ranges hit it, and
    /// the blocks between `content`'s end and `peak_len` — the longest
    /// the file was before or during the batch — are dropped. All of it
    /// is one [`KeyValue::write_batch`] group commit, and the store ends
    /// as [`ChecksumStore::reindex_file`] would leave it (given that it
    /// matched the file before the batch) at the cost of the touched
    /// blocks only.
    ///
    /// Returns how many bytes of `content` were read.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn update_blocks(
        &mut self,
        path: &str,
        content: &[u8],
        dirty: &[Range<u64>],
        peak_len: u64,
        cost: &mut Cost,
    ) -> Result<u64, KvError> {
        let bs = self.block_size as u64;
        let nblocks = (content.len() as u64).div_ceil(bs);
        let mut spans: Vec<(u64, u64)> = dirty
            .iter()
            .filter(|r| r.start < r.end)
            .map(|r| (r.start / bs, ((r.end - 1) / bs + 1).min(nblocks)))
            .collect();
        spans.sort_unstable();
        let mut batch = Vec::new();
        let mut read = 0;
        // First block no earlier span has re-summed.
        let mut next = 0;
        for (first, end) in spans {
            for idx in first.max(next)..end {
                let start = (idx * bs) as usize;
                let block = &content[start..(start + self.block_size).min(content.len())];
                read += block.len() as u64;
                let sum = self.checksum(block, cost);
                batch.push(BatchOp::Put {
                    key: block_key(path, idx),
                    value: sum.to_le_bytes().to_vec(),
                });
            }
            next = next.max(end);
        }
        for idx in nblocks..peak_len.div_ceil(bs) {
            batch.push(BatchOp::Delete {
                key: block_key(path, idx),
            });
        }
        self.kv.write_batch(&batch)?;
        Ok(read)
    }

    /// Adjusts checksums after a truncate to `new_size`; `last_block` is
    /// the content of the (possibly shortened) final block, if any.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn truncate(
        &mut self,
        path: &str,
        new_size: u64,
        last_block: Option<&[u8]>,
        cost: &mut Cost,
    ) -> Result<(), KvError> {
        let nblocks = new_size.div_ceil(self.block_size as u64);
        let mut batch = Vec::new();
        for (key, _) in self.kv.scan_prefix(&file_prefix(path))? {
            let idx_bytes: [u8; 8] = key[key.len() - 8..].try_into().expect("8-byte suffix");
            if u64::from_be_bytes(idx_bytes) >= nblocks {
                batch.push(BatchOp::Delete { key });
            }
        }
        if let (Some(block), true) = (last_block, new_size > 0) {
            let sum = self.checksum(block, cost);
            batch.push(BatchOp::Put {
                key: block_key(path, nblocks - 1),
                value: sum.to_le_bytes().to_vec(),
            });
        }
        self.kv.write_batch(&batch)
    }

    /// Moves all checksums of `from` to `to` (rename).
    ///
    /// Destination-residue deletes, the new puts and the source deletes
    /// all go into one group commit, so a crash can never leave the file
    /// half-renamed in the store.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn rename(&mut self, from: &str, to: &str) -> Result<(), KvError> {
        let entries = self.kv.scan_prefix(&file_prefix(from))?;
        let mut batch = Vec::with_capacity(2 * entries.len());
        // Remove any stale checksums for the destination first.
        for (key, _) in self.kv.scan_prefix(&file_prefix(to))? {
            batch.push(BatchOp::Delete { key });
        }
        for (key, value) in entries {
            let idx_bytes: [u8; 8] = key[key.len() - 8..].try_into().expect("8-byte suffix");
            let idx = u64::from_be_bytes(idx_bytes);
            batch.push(BatchOp::Put {
                key: block_key(to, idx),
                value,
            });
            batch.push(BatchOp::Delete { key });
        }
        self.kv.write_batch(&batch)
    }

    /// Removes all checksums for `path`.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn remove(&mut self, path: &str) -> Result<(), KvError> {
        let batch: Vec<BatchOp> = self
            .kv
            .scan_prefix(&file_prefix(path))?
            .into_iter()
            .map(|(key, _)| BatchOp::Delete { key })
            .collect();
        self.kv.write_batch(&batch)
    }

    /// Verifies every block of `content` against the stored checksums and
    /// returns the indices that mismatch. Blocks with no stored checksum
    /// are skipped; stored checksums *past* the content's end are reported
    /// as mismatches (the file shrank behind our back).
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn verify_file(
        &mut self,
        path: &str,
        content: &[u8],
        cost: &mut Cost,
    ) -> Result<Vec<u64>, KvError> {
        let mut bad = Vec::new();
        let nblocks = content.len().div_ceil(self.block_size) as u64;
        for (key, stored) in self.kv.scan_prefix(&file_prefix(path))? {
            let idx_bytes: [u8; 8] = key[key.len() - 8..].try_into().expect("8-byte suffix");
            let idx = u64::from_be_bytes(idx_bytes);
            if idx >= nblocks {
                bad.push(idx);
                continue;
            }
            let start = idx as usize * self.block_size;
            let end = (start + self.block_size).min(content.len());
            let sum = self.checksum(&content[start..end], cost);
            if stored != sum.to_le_bytes() {
                bad.push(idx);
            }
        }
        bad.sort_unstable();
        Ok(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deltacfs_kvstore::MemStore;

    fn store() -> ChecksumStore<MemStore> {
        ChecksumStore::new(MemStore::new(), 4)
    }

    #[test]
    fn reindex_and_verify_clean_file() {
        let mut cs = store();
        let mut cost = Cost::new();
        let content = b"0123456789"; // 3 blocks: 4+4+2
        cs.reindex_file("/f", content, &mut cost).unwrap();
        assert_eq!(cs.verify_file("/f", content, &mut cost).unwrap(), vec![]);
    }

    #[test]
    fn corruption_is_detected() {
        let mut cs = store();
        let mut cost = Cost::new();
        let content = b"0123456789".to_vec();
        cs.reindex_file("/f", &content, &mut cost).unwrap();
        let mut corrupted = content.clone();
        corrupted[5] ^= 0x01; // block 1
        assert_eq!(
            cs.verify_file("/f", &corrupted, &mut cost).unwrap(),
            vec![1]
        );
    }

    #[test]
    fn update_range_touches_only_affected_blocks() {
        let mut cs = store();
        let mut cost = Cost::new();
        let mut content = b"aaaabbbbcccc".to_vec();
        cs.reindex_file("/f", &content, &mut cost).unwrap();
        // Overwrite bytes 5..7 (inside block 1).
        content[5..7].copy_from_slice(b"XY");
        cs.update_range(
            "/f",
            5,
            2,
            |idx| {
                let start = idx as usize * 4;
                content
                    .get(start..(start + 4).min(content.len()))
                    .map(<[u8]>::to_vec)
            },
            &mut cost,
        )
        .unwrap();
        assert_eq!(cs.verify_file("/f", &content, &mut cost).unwrap(), vec![]);
    }

    #[test]
    fn update_blocks_resums_each_touched_block_once_and_drops_the_tail() {
        let mut cs = store();
        let mut cost = Cost::new();
        cs.reindex_file("/f", b"aaaabbbbccccdddd", &mut cost).unwrap();
        // Two overlapping writes inside blocks 0-1, then a cut to 10 bytes.
        let content = b"aXYZWbbbcc";
        let mut cost = Cost::new();
        let read = cs
            .update_blocks("/f", content, &[1..4, 3..5, 9..10], 16, &mut cost)
            .unwrap();
        assert_eq!(read, 4 + 4 + 2, "blocks 0, 1 and the new last one, once each");
        assert_eq!(cost.bytes_rolled, read);
        let mut fresh = store();
        fresh.reindex_file("/f", content, &mut Cost::new()).unwrap();
        assert_eq!(
            cs.backend_mut().scan_prefix(b"cs\0").unwrap(),
            fresh.backend_mut().scan_prefix(b"cs\0").unwrap()
        );
    }

    #[test]
    fn truncate_drops_tail_checksums() {
        let mut cs = store();
        let mut cost = Cost::new();
        let content = b"aaaabbbbcccc".to_vec();
        cs.reindex_file("/f", &content, &mut cost).unwrap();
        let truncated = &content[..6];
        cs.truncate("/f", 6, Some(&truncated[4..6]), &mut cost)
            .unwrap();
        assert_eq!(cs.verify_file("/f", truncated, &mut cost).unwrap(), vec![]);
    }

    #[test]
    fn shrink_behind_our_back_is_flagged() {
        let mut cs = store();
        let mut cost = Cost::new();
        cs.reindex_file("/f", b"aaaabbbb", &mut cost).unwrap();
        // File shrank to one block without the store being told.
        let bad = cs.verify_file("/f", b"aaaa", &mut cost).unwrap();
        assert_eq!(bad, vec![1]);
    }

    #[test]
    fn rename_moves_checksums() {
        let mut cs = store();
        let mut cost = Cost::new();
        cs.reindex_file("/a", b"12345678", &mut cost).unwrap();
        cs.rename("/a", "/b").unwrap();
        assert_eq!(
            cs.verify_file("/b", b"12345678", &mut cost).unwrap(),
            vec![]
        );
        // No residue under the old name.
        assert_eq!(cs.verify_file("/a", b"zzzz", &mut cost).unwrap(), vec![]);
    }

    #[test]
    fn remove_clears_file() {
        let mut cs = store();
        let mut cost = Cost::new();
        cs.reindex_file("/a", b"12345678", &mut cost).unwrap();
        cs.remove("/a").unwrap();
        assert_eq!(
            cs.verify_file("/a", b"different", &mut cost).unwrap(),
            vec![]
        );
    }

    #[test]
    fn unknown_blocks_verify_true() {
        let mut cs = store();
        let mut cost = Cost::new();
        assert!(cs.verify_block("/f", 0, b"anything", &mut cost).unwrap());
    }

    #[test]
    fn verify_block_detects_mismatch() {
        let mut cs = store();
        let mut cost = Cost::new();
        cs.put_block("/f", 0, b"good", &mut cost).unwrap();
        assert!(cs.verify_block("/f", 0, b"good", &mut cost).unwrap());
        assert!(!cs.verify_block("/f", 0, b"evil", &mut cost).unwrap());
    }

    #[test]
    fn repeated_update_range_round_trips_hit_the_backend_read_cache() {
        // Over a durable backend, the hot path is: write some blocks,
        // flush, then re-verify the same blocks again and again (e.g. a
        // file that keeps receiving writes to the same region). The
        // KvStore read cache should absorb the repeated segment lookups.
        let dir = std::env::temp_dir().join(format!(
            "deltacfs-cs-cache-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let reg = deltacfs_obs::Registry::new();
        let mut kv = deltacfs_kvstore::KvStore::open(&dir).unwrap();
        kv.attach_obs(&reg);
        let mut cs = ChecksumStore::new(kv, 4);
        let mut cost = Cost::new();

        let mut content = b"aaaabbbbcccc".to_vec();
        cs.reindex_file("/f", &content, &mut cost).unwrap();
        let count = |reg: &deltacfs_obs::Registry, name: &str| match reg.snapshot().get(name) {
            Some(deltacfs_obs::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };

        for round in 0..3u8 {
            // Same region rewritten each round; update_range invalidates
            // exactly the touched block's cache entry.
            content[5..7].copy_from_slice(&[b'0' + round, b'Z']);
            let snapshot = content.clone();
            cs.update_range(
                "/f",
                5,
                2,
                |idx| {
                    let start = idx as usize * 4;
                    snapshot
                        .get(start..(start + 4).min(snapshot.len()))
                        .map(<[u8]>::to_vec)
                },
                &mut cost,
            )
            .unwrap();
            // Push the fresh checksums out of the memtable so the
            // verifying reads below must go through cache + segments.
            cs.backend_mut().flush().unwrap();
            assert!(cs.verify_block("/f", 1, &content[4..8], &mut cost).unwrap());
            assert!(cs.verify_block("/f", 1, &content[4..8], &mut cost).unwrap());
            assert!(cs.verify_block("/f", 1, &content[4..8], &mut cost).unwrap());
        }
        // Each round: one miss to warm the (freshly invalidated) entry,
        // then two hits from the cache.
        assert_eq!(count(&reg, "kv_cache_misses"), 3);
        assert_eq!(count(&reg, "kv_cache_hits"), 6);

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn paths_do_not_collide() {
        // "/ab" block 0 must not collide with "/a" + strange suffix.
        let mut cs = store();
        let mut cost = Cost::new();
        cs.reindex_file("/ab", b"xxxx", &mut cost).unwrap();
        assert_eq!(cs.verify_file("/a", b"yyyy", &mut cost).unwrap(), vec![]);
    }
}
