use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};

use deltacfs_obs::{Counter, Registry};

use crate::segment::Segment;
use crate::wal::{replay, WalRecord, WalWriter};
use crate::{BatchOp, KeyValue, KvError, Result};

/// Default memtable flush threshold, in entries.
const DEFAULT_FLUSH_THRESHOLD: usize = 16 * 1024;

/// Default capacity of the segment read cache, in entries.
const DEFAULT_READ_CACHE_ENTRIES: usize = 1024;

/// A small LRU over *segment* lookup results (the memtable is already a
/// single map probe and is always consulted first). Caches negative
/// results too: a `None` from the segment scan is just as expensive to
/// recompute. Writers invalidate the touched keys, so flushes and
/// compactions — which only move entries between layers without changing
/// the merged view — need no invalidation at all.
#[derive(Debug, Default)]
struct ReadCache {
    map: HashMap<Vec<u8>, Option<Vec<u8>>>,
    /// Least-recently-used first.
    order: VecDeque<Vec<u8>>,
    cap: usize,
}

impl ReadCache {
    fn new(cap: usize) -> Self {
        ReadCache {
            map: HashMap::new(),
            order: VecDeque::new(),
            cap,
        }
    }

    /// Outer `None` = not cached; inner value is the cached segment-scan
    /// result (which may itself be a miss/tombstone).
    fn get(&mut self, key: &[u8]) -> Option<Option<Vec<u8>>> {
        let hit = self.map.get(key)?.clone();
        if self.order.back().map(Vec::as_slice) != Some(key) {
            self.order.retain(|k| k != key);
            self.order.push_back(key.to_vec());
        }
        Some(hit)
    }

    fn insert(&mut self, key: &[u8], value: Option<Vec<u8>>) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(key.to_vec(), value).is_some() {
            self.order.retain(|k| k != key);
        }
        self.order.push_back(key.to_vec());
        while self.map.len() > self.cap {
            let evict = self.order.pop_front().expect("order tracks map");
            self.map.remove(&evict);
        }
    }

    fn invalidate(&mut self, key: &[u8]) {
        if self.map.remove(key).is_some() {
            self.order.retain(|k| k != key);
        }
    }
}

/// A persistent key-value store: WAL + memtable + sorted segments.
///
/// See the [crate documentation](crate) for the design. All state lives
/// under a single directory:
///
/// ```text
/// <dir>/wal            the write-ahead log
/// <dir>/seg-000001     oldest segment
/// <dir>/seg-000002     ...
/// ```
#[derive(Debug)]
pub struct KvStore {
    dir: PathBuf,
    wal: WalWriter,
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Oldest first; lookups scan newest first.
    segments: Vec<(u64, Segment)>,
    next_segment: u64,
    flush_threshold: usize,
    /// Records the WAL replayed into the memtable at open time —
    /// exported when [`KvStore::attach_obs`] installs counters.
    replayed: u64,
    counters: Option<KvCounters>,
    cache: ReadCache,
}

/// WAL/flush counters registered by [`KvStore::attach_obs`].
#[derive(Debug, Clone)]
struct KvCounters {
    wal_records: Counter,
    wal_batch_commits: Counter,
    flushes: Counter,
    compactions: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
}

impl KvStore {
    /// Opens (creating if needed) the store rooted at `dir`, replaying the
    /// WAL into the memtable.
    ///
    /// # Errors
    ///
    /// [`KvError::Io`] on file-system failure, [`KvError::Corrupt`] if a
    /// segment file is damaged.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self> {
        Self::open_with_threshold(dir, DEFAULT_FLUSH_THRESHOLD)
    }

    /// Like [`KvStore::open`] but with a custom memtable flush threshold
    /// (entries). Small thresholds are useful in tests.
    ///
    /// # Errors
    ///
    /// Same as [`KvStore::open`].
    pub fn open_with_threshold(dir: impl AsRef<Path>, flush_threshold: usize) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        let mut segments = Vec::new();
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if let Some(num) = name.strip_prefix("seg-") {
                let id: u64 = num
                    .parse()
                    .map_err(|_| KvError::Corrupt(format!("unexpected segment name {name}")))?;
                segments.push((id, Segment::load(&entry.path())?));
            }
        }
        segments.sort_by_key(|(id, _)| *id);
        let next_segment = segments.last().map(|(id, _)| id + 1).unwrap_or(1);
        let mut memtable = BTreeMap::new();
        let mut replayed = 0u64;
        for rec in replay(&dir.join("wal"))? {
            replayed += 1;
            match rec {
                WalRecord::Put { key, value } => {
                    memtable.insert(key, Some(value));
                }
                WalRecord::Delete { key } => {
                    memtable.insert(key, None);
                }
            }
        }
        let wal = WalWriter::open(&dir.join("wal"))?;
        Ok(KvStore {
            dir,
            wal,
            memtable,
            segments,
            next_segment,
            flush_threshold,
            replayed,
            counters: None,
            cache: ReadCache::new(DEFAULT_READ_CACHE_ENTRIES),
        })
    }

    /// Registers this store's WAL, flush, and read-cache counters in
    /// `registry` and starts recording into them: `kv_wal_records`,
    /// `kv_wal_batch_commits`, `kv_memtable_flushes`, `kv_compactions`,
    /// `kv_cache_hits`, `kv_cache_misses`. The records already replayed
    /// from the WAL at open time are added to `kv_wal_replayed_records`
    /// immediately.
    pub fn attach_obs(&mut self, registry: &Registry) {
        registry
            .counter(
                "kv_wal_replayed_records",
                "WAL records replayed into the memtable at open",
            )
            .add(self.replayed);
        self.counters = Some(KvCounters {
            wal_records: registry
                .counter("kv_wal_records", "records appended to the write-ahead log"),
            wal_batch_commits: registry.counter(
                "kv_wal_batch_commits",
                "group commits appended to the WAL as one record",
            ),
            flushes: registry.counter(
                "kv_memtable_flushes",
                "memtable flushes into on-disk segments",
            ),
            compactions: registry.counter("kv_compactions", "full segment compactions"),
            cache_hits: registry.counter(
                "kv_cache_hits",
                "segment lookups served from the read cache",
            ),
            cache_misses: registry.counter(
                "kv_cache_misses",
                "segment lookups that had to scan the segment stack",
            ),
        });
    }

    /// Flushes the memtable to a new segment and truncates the WAL.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn flush(&mut self) -> Result<()> {
        if self.memtable.is_empty() {
            return Ok(());
        }
        let id = self.next_segment;
        self.next_segment += 1;
        let path = self.dir.join(format!("seg-{id:06}"));
        Segment::write(&path, &self.memtable)?;
        self.segments.push((id, Segment::load(&path)?));
        self.memtable.clear();
        if let Some(c) = &self.counters {
            c.flushes.inc();
        }
        // Truncate the WAL: its contents are now durable in the segment.
        std::fs::write(self.dir.join("wal"), b"")?;
        self.wal = WalWriter::open(&self.dir.join("wal"))?;
        Ok(())
    }

    /// Merges all segments (and the memtable) into a single segment,
    /// dropping tombstones.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn compact(&mut self) -> Result<()> {
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for (_, seg) in &self.segments {
            for (k, v) in seg.iter() {
                merged.insert(k.clone(), v.clone());
            }
        }
        for (k, v) in &self.memtable {
            merged.insert(k.clone(), v.clone());
        }
        merged.retain(|_, v| v.is_some());
        let old_ids: Vec<u64> = self.segments.iter().map(|(id, _)| *id).collect();
        let id = self.next_segment;
        self.next_segment += 1;
        let path = self.dir.join(format!("seg-{id:06}"));
        Segment::write(&path, &merged)?;
        let seg = Segment::load(&path)?;
        for old in old_ids {
            std::fs::remove_file(self.dir.join(format!("seg-{old:06}"))).ok();
        }
        self.segments = vec![(id, seg)];
        self.memtable.clear();
        std::fs::write(self.dir.join("wal"), b"")?;
        self.wal = WalWriter::open(&self.dir.join("wal"))?;
        if let Some(c) = &self.counters {
            c.compactions.inc();
        }
        Ok(())
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.memtable.len() >= self.flush_threshold {
            self.flush()?;
        }
        Ok(())
    }
}

impl KeyValue for KvStore {
    fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        self.wal.append(&WalRecord::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })?;
        if let Some(c) = &self.counters {
            c.wal_records.inc();
        }
        self.cache.invalidate(key);
        self.memtable.insert(key.to_vec(), Some(value.to_vec()));
        self.maybe_flush()
    }

    fn get(&mut self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if let Some(v) = self.memtable.get(key) {
            return Ok(v.clone());
        }
        if let Some(cached) = self.cache.get(key) {
            if let Some(c) = &self.counters {
                c.cache_hits.inc();
            }
            return Ok(cached);
        }
        if let Some(c) = &self.counters {
            c.cache_misses.inc();
        }
        let found = self
            .segments
            .iter()
            .rev()
            .find_map(|(_, seg)| seg.get(key))
            .and_then(|v| v.cloned());
        self.cache.insert(key, found.clone());
        Ok(found)
    }

    fn delete(&mut self, key: &[u8]) -> Result<()> {
        self.wal.append(&WalRecord::Delete { key: key.to_vec() })?;
        if let Some(c) = &self.counters {
            c.wal_records.inc();
        }
        self.cache.invalidate(key);
        self.memtable.insert(key.to_vec(), None);
        self.maybe_flush()
    }

    fn scan_prefix(&mut self, prefix: &[u8]) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        // Merge newest-wins across memtable and segments.
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for (_, seg) in &self.segments {
            for (k, v) in seg.iter() {
                if k.starts_with(prefix) {
                    merged.insert(k.clone(), v.clone());
                }
            }
        }
        for (k, v) in self
            .memtable
            .range(prefix.to_vec()..)
            .take_while(|(k, _)| k.starts_with(prefix))
        {
            merged.insert(k.clone(), v.clone());
        }
        Ok(merged
            .into_iter()
            .filter_map(|(k, v)| v.map(|v| (k, v)))
            .collect())
    }

    /// Group commit: the whole batch goes to the WAL as one record (one
    /// CRC, one flush point) before any of it touches the memtable, so a
    /// crash anywhere in between replays all of the batch or none of it.
    fn write_batch(&mut self, batch: &[BatchOp]) -> Result<()> {
        if batch.is_empty() {
            return Ok(());
        }
        self.wal.append_batch(batch)?;
        if let Some(c) = &self.counters {
            c.wal_batch_commits.inc();
            c.wal_records.add(batch.len() as u64);
        }
        for op in batch {
            match op {
                BatchOp::Put { key, value } => {
                    self.cache.invalidate(key);
                    self.memtable.insert(key.clone(), Some(value.clone()));
                }
                BatchOp::Delete { key } => {
                    self.cache.invalidate(key);
                    self.memtable.insert(key.clone(), None);
                }
            }
        }
        self.maybe_flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(name: &str) -> Self {
            let path = std::env::temp_dir()
                .join(format!("deltacfs-kv-test-{}-{name}", std::process::id()));
            std::fs::remove_dir_all(&path).ok();
            TempDir(path)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            std::fs::remove_dir_all(&self.0).ok();
        }
    }

    #[test]
    fn crud_and_persistence_across_reopen() {
        let dir = TempDir::new("crud");
        {
            let mut s = KvStore::open(&dir.0).unwrap();
            s.put(b"a", b"1").unwrap();
            s.put(b"b", b"2").unwrap();
            s.delete(b"a").unwrap();
        }
        let mut s = KvStore::open(&dir.0).unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn flush_creates_segments_and_lookups_still_work() {
        let dir = TempDir::new("flush");
        let mut s = KvStore::open_with_threshold(&dir.0, 4).unwrap();
        for i in 0..10u8 {
            s.put(&[i], &[i * 2]).unwrap();
        }
        assert!(s.segments.len() >= 2);
        for i in 0..10u8 {
            assert_eq!(s.get(&[i]).unwrap(), Some(vec![i * 2]));
        }
    }

    #[test]
    fn newest_segment_wins() {
        let dir = TempDir::new("newest");
        let mut s = KvStore::open(&dir.0).unwrap();
        s.put(b"k", b"old").unwrap();
        s.flush().unwrap();
        s.put(b"k", b"new").unwrap();
        s.flush().unwrap();
        assert_eq!(s.get(b"k").unwrap(), Some(b"new".to_vec()));
        // And after reopen.
        drop(s);
        let mut s = KvStore::open(&dir.0).unwrap();
        assert_eq!(s.get(b"k").unwrap(), Some(b"new".to_vec()));
    }

    #[test]
    fn tombstones_shadow_older_segments() {
        let dir = TempDir::new("tombstone");
        let mut s = KvStore::open(&dir.0).unwrap();
        s.put(b"k", b"v").unwrap();
        s.flush().unwrap();
        s.delete(b"k").unwrap();
        s.flush().unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);
        drop(s);
        let mut s = KvStore::open(&dir.0).unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);
    }

    #[test]
    fn compaction_merges_to_one_segment_and_drops_tombstones() {
        let dir = TempDir::new("compact");
        let mut s = KvStore::open(&dir.0).unwrap();
        s.put(b"a", b"1").unwrap();
        s.flush().unwrap();
        s.put(b"b", b"2").unwrap();
        s.delete(b"a").unwrap();
        s.flush().unwrap();
        s.compact().unwrap();
        assert_eq!(s.segments.len(), 1);
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        drop(s);
        let mut s = KvStore::open(&dir.0).unwrap();
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.segments.len(), 1);
    }

    #[test]
    fn scan_prefix_merges_all_layers() {
        let dir = TempDir::new("scan");
        let mut s = KvStore::open(&dir.0).unwrap();
        s.put(b"blk:1", b"seg").unwrap();
        s.put(b"blk:3", b"dead").unwrap();
        s.flush().unwrap();
        s.put(b"blk:2", b"mem").unwrap();
        s.delete(b"blk:3").unwrap();
        let hits = s.scan_prefix(b"blk:").unwrap();
        assert_eq!(
            hits,
            vec![
                (b"blk:1".to_vec(), b"seg".to_vec()),
                (b"blk:2".to_vec(), b"mem".to_vec()),
            ]
        );
    }

    #[test]
    fn wal_replay_survives_simulated_crash() {
        let dir = TempDir::new("crash");
        {
            let mut s = KvStore::open(&dir.0).unwrap();
            s.put(b"durable", b"yes").unwrap();
            // No flush; process "crashes" here (store dropped without
            // flushing the memtable to a segment).
        }
        let mut s = KvStore::open(&dir.0).unwrap();
        assert_eq!(s.get(b"durable").unwrap(), Some(b"yes".to_vec()));
    }

    #[test]
    fn write_batch_is_one_group_commit() {
        let dir = TempDir::new("batch");
        {
            let mut s = KvStore::open(&dir.0).unwrap();
            s.put(b"seed", b"v").unwrap();
            s.write_batch(&[
                BatchOp::put(b"a".to_vec(), b"1".to_vec()),
                BatchOp::put(b"b".to_vec(), b"2".to_vec()),
                BatchOp::delete(b"seed".to_vec()),
            ])
            .unwrap();
        }
        let mut s = KvStore::open(&dir.0).unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.get(b"seed").unwrap(), None);
    }

    #[test]
    fn crashed_batch_replays_all_or_nothing() {
        let dir = TempDir::new("batch-crash");
        {
            let mut s = KvStore::open(&dir.0).unwrap();
            s.put(b"durable", b"yes").unwrap();
            s.write_batch(&[
                BatchOp::put(b"blk:0".to_vec(), b"c0".to_vec()),
                BatchOp::put(b"blk:1".to_vec(), b"c1".to_vec()),
                BatchOp::put(b"blk:2".to_vec(), b"c2".to_vec()),
            ])
            .unwrap();
        }
        // Simulate a crash that tore the batch record: chop bytes off the
        // WAL tail. However deep the cut lands inside the batch, recovery
        // must never surface a strict subset of its keys.
        let wal_path = dir.0.join("wal");
        let full = std::fs::read(&wal_path).unwrap();
        for cut in 1..30 {
            std::fs::write(&wal_path, &full[..full.len() - cut]).unwrap();
            let mut s = KvStore::open(&dir.0).unwrap();
            let present = (0..3u8)
                .filter(|i| s.get(format!("blk:{i}").as_bytes()).unwrap().is_some())
                .count();
            assert_eq!(present, 0, "cut {cut}: partial batch visible after crash");
            assert_eq!(s.get(b"durable").unwrap(), Some(b"yes".to_vec()));
        }
        // An untouched WAL replays the whole batch.
        std::fs::write(&wal_path, &full).unwrap();
        let mut s = KvStore::open(&dir.0).unwrap();
        for i in 0..3u8 {
            assert!(s.get(format!("blk:{i}").as_bytes()).unwrap().is_some());
        }
    }

    #[test]
    fn write_batch_respects_flush_threshold() {
        let dir = TempDir::new("batch-flush");
        let mut s = KvStore::open_with_threshold(&dir.0, 4).unwrap();
        let batch: Vec<BatchOp> = (0..10u8)
            .map(|i| BatchOp::put(vec![i], vec![i * 3]))
            .collect();
        s.write_batch(&batch).unwrap();
        assert!(!s.segments.is_empty());
        for i in 0..10u8 {
            assert_eq!(s.get(&[i]).unwrap(), Some(vec![i * 3]));
        }
    }

    #[test]
    fn read_cache_serves_repeated_segment_lookups() {
        let dir = TempDir::new("cache");
        let reg = Registry::new();
        let mut s = KvStore::open(&dir.0).unwrap();
        s.attach_obs(&reg);
        s.put(b"k", b"v1").unwrap();
        s.put(b"other", b"x").unwrap();
        s.flush().unwrap(); // move everything into a segment

        let count = |reg: &Registry, name: &str| match reg.snapshot().get(name) {
            Some(deltacfs_obs::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };

        // First lookup scans the segment stack; the next two are served
        // from the cache.
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v1"[..]));
        assert_eq!(count(&reg, "kv_cache_misses"), 1);
        assert_eq!(count(&reg, "kv_cache_hits"), 2);

        // Negative results are cached too.
        assert_eq!(s.get(b"absent").unwrap(), None);
        assert_eq!(s.get(b"absent").unwrap(), None);
        assert_eq!(count(&reg, "kv_cache_misses"), 2);
        assert_eq!(count(&reg, "kv_cache_hits"), 3);

        // A write invalidates the cached entry; after the memtable is
        // flushed away the store must re-read the *new* segment value
        // rather than serve the stale cached one.
        s.put(b"k", b"v2").unwrap();
        s.flush().unwrap();
        assert_eq!(s.get(b"k").unwrap().as_deref(), Some(&b"v2"[..]));
        assert_eq!(count(&reg, "kv_cache_misses"), 3);

        // Same story for deletes: the tombstone wins over the cache.
        s.delete(b"k").unwrap();
        s.flush().unwrap();
        assert_eq!(s.get(b"k").unwrap(), None);

        // Compaction does not change the merged view, so cached entries
        // stay valid across it.
        assert_eq!(s.get(b"other").unwrap().as_deref(), Some(&b"x"[..]));
        let hits_before = count(&reg, "kv_cache_hits");
        s.compact().unwrap();
        assert_eq!(s.get(b"other").unwrap().as_deref(), Some(&b"x"[..]));
        assert_eq!(count(&reg, "kv_cache_hits"), hits_before + 1);
    }

    #[test]
    fn read_cache_evicts_least_recently_used() {
        let mut cache = ReadCache::new(2);
        cache.insert(b"a", Some(b"1".to_vec()));
        cache.insert(b"b", Some(b"2".to_vec()));
        // Touch "a" so "b" becomes the LRU entry.
        assert_eq!(cache.get(b"a"), Some(Some(b"1".to_vec())));
        cache.insert(b"c", Some(b"3".to_vec()));
        assert_eq!(cache.get(b"b"), None);
        assert_eq!(cache.get(b"a"), Some(Some(b"1".to_vec())));
        assert_eq!(cache.get(b"c"), Some(Some(b"3".to_vec())));
        // Invalidate removes the entry outright.
        cache.invalidate(b"a");
        assert_eq!(cache.get(b"a"), None);
    }

    #[test]
    fn attach_obs_counts_wal_activity_and_replay() {
        let dir = TempDir::new("obs");
        let reg = Registry::new();
        {
            let mut s = KvStore::open(&dir.0).unwrap();
            s.attach_obs(&reg);
            s.put(b"a", b"1").unwrap();
            s.delete(b"a").unwrap();
            s.write_batch(&[
                BatchOp::Put {
                    key: b"b".to_vec(),
                    value: b"2".to_vec(),
                },
                BatchOp::Put {
                    key: b"c".to_vec(),
                    value: b"3".to_vec(),
                },
            ])
            .unwrap();
            s.flush().unwrap();
            s.compact().unwrap();
        }
        let snap = reg.snapshot();
        let count = |name: &str| match snap.get(name) {
            Some(deltacfs_obs::MetricValue::Counter(v)) => *v,
            other => panic!("{name}: {other:?}"),
        };
        assert_eq!(count("kv_wal_records"), 4); // put + delete + 2 batched
        assert_eq!(count("kv_wal_batch_commits"), 1);
        assert_eq!(count("kv_memtable_flushes"), 1);
        assert_eq!(count("kv_compactions"), 1);
        assert_eq!(count("kv_wal_replayed_records"), 0); // fresh store

        // Reopen without flushing first: WAL replay is counted.
        let reg2 = Registry::new();
        let mut s = KvStore::open(&dir.0).unwrap();
        s.put(b"d", b"4").unwrap();
        drop(s);
        let mut s = KvStore::open(&dir.0).unwrap();
        s.attach_obs(&reg2);
        let snap2 = reg2.snapshot();
        assert_eq!(
            snap2.get("kv_wal_replayed_records"),
            Some(&deltacfs_obs::MetricValue::Counter(1))
        );
    }

    #[test]
    fn empty_store_behaves() {
        let dir = TempDir::new("empty");
        let mut s = KvStore::open(&dir.0).unwrap();
        assert_eq!(s.get(b"nope").unwrap(), None);
        assert!(s.scan_prefix(b"x").unwrap().is_empty());
        s.flush().unwrap(); // flushing empty memtable is a no-op
        assert_eq!(s.segments.len(), 0);
    }
}
