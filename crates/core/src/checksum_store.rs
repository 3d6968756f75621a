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
//!
//! Sums are stored [`RECORD_BLOCKS`] consecutive blocks to a record, so an
//! operation pays one key, one lookup and one value per record it touches
//! rather than per block. Every operation reads each record it touches at
//! most once and commits all its changes as one [`KeyValue::write_batch`]:
//! a crash leaves a file's old checksum set or its new one, never a mix.

use std::borrow::Cow;
use std::ops::Range;

use deltacfs_delta::{Cost, Delta, DeltaOp, RollingChecksum};
use deltacfs_kvstore::{BatchOp, KeyValue, KvError};

/// Blocks per record: the width of a record's presence mask.
const RECORD_BLOCKS: u64 = 64;

/// Key layout: `b"cs\0" + path + b"\0" + record index (BE)`; record `r`
/// holds blocks `r * RECORD_BLOCKS ..`.
fn record_key(path: &str, rec: u64) -> Vec<u8> {
    let mut k = Vec::with_capacity(3 + path.len() + 9);
    k.extend_from_slice(b"cs\0");
    k.extend_from_slice(path.as_bytes());
    k.push(0);
    k.extend_from_slice(&rec.to_be_bytes());
    k
}

fn file_prefix(path: &str) -> Vec<u8> {
    let mut k = Vec::with_capacity(3 + path.len() + 1);
    k.extend_from_slice(b"cs\0");
    k.extend_from_slice(path.as_bytes());
    k.push(0);
    k
}

/// The record index at the end of a key built by [`record_key`].
fn key_record(key: &[u8]) -> u64 {
    let idx: [u8; 8] = key[key.len() - 8..].try_into().expect("8-byte suffix");
    u64::from_be_bytes(idx)
}

/// The sums of [`RECORD_BLOCKS`] consecutive blocks, each present or not.
///
/// Stored as the presence mask (`u64` LE) followed by one `u32` LE sum
/// per slot up to the last present one; an absent slot below it reads 0.
/// A record with no present slot is not stored at all.
#[derive(Clone, Copy)]
struct Record {
    present: u64,
    sums: [u32; RECORD_BLOCKS as usize],
}

impl Record {
    const EMPTY: Record = Record {
        present: 0,
        sums: [0; RECORD_BLOCKS as usize],
    };

    fn decode(value: &[u8]) -> Record {
        let mut r = Record::EMPTY;
        if let Some((mask, sums)) = value.split_first_chunk::<8>() {
            let mut stored = 0;
            for (slot, sum) in r.sums.iter_mut().zip(sums.chunks_exact(4)) {
                *slot = u32::from_le_bytes(sum.try_into().expect("4-byte chunk"));
                stored += 1;
            }
            // A slot without a stored sum is absent whatever the mask says.
            r.present = u64::from_le_bytes(*mask) & low_bits(stored);
        }
        r
    }

    fn encode(&self) -> Vec<u8> {
        let n = (64 - self.present.leading_zeros()) as usize;
        let mut v = Vec::with_capacity(8 + 4 * n);
        v.extend_from_slice(&self.present.to_le_bytes());
        for sum in &self.sums[..n] {
            v.extend_from_slice(&sum.to_le_bytes());
        }
        v
    }

    fn get(&self, slot: usize) -> Option<u32> {
        ((self.present >> slot) & 1 == 1).then_some(self.sums[slot])
    }

    fn set(&mut self, slot: usize, sum: u32) {
        self.present |= 1 << slot;
        self.sums[slot] = sum;
    }

    fn clear(&mut self, slot: usize) {
        self.present &= !(1 << slot);
        self.sums[slot] = 0;
    }

    /// Drops every slot from `slot` on.
    fn clear_from(&mut self, slot: usize) {
        self.present &= low_bits(slot);
        self.sums[slot..].fill(0);
    }

    /// The batch op that stores this record under `key`.
    fn commit(&self, key: Vec<u8>) -> BatchOp {
        if self.present == 0 {
            BatchOp::Delete { key }
        } else {
            BatchOp::Put {
                key,
                value: self.encode(),
            }
        }
    }
}

/// A mask of the lowest `n` bits, `n` in `0..=64`.
fn low_bits(n: usize) -> u64 {
    u64::MAX.checked_shr(64 - n as u32).unwrap_or(0)
}

/// Record and slot of block `idx`.
fn locate(idx: u64) -> (u64, usize) {
    (idx / RECORD_BLOCKS, (idx % RECORD_BLOCKS) as usize)
}

/// The records of one path that one operation rewrites, each read from
/// the backend on first touch and never again.
struct Touched<'p> {
    path: &'p str,
    records: Vec<(u64, Vec<u8>, Record)>,
}

impl<'p> Touched<'p> {
    fn new(path: &'p str) -> Self {
        Touched {
            path,
            records: Vec::new(),
        }
    }

    fn record<K: KeyValue>(&mut self, kv: &mut K, rec: u64) -> Result<&mut Record, KvError> {
        let at = match self.records.iter().rposition(|(r, ..)| *r == rec) {
            Some(at) => at,
            None => {
                let key = record_key(self.path, rec);
                let record = kv.get(&key)?.map_or(Record::EMPTY, |v| Record::decode(&v));
                self.records.push((rec, key, record));
                self.records.len() - 1
            }
        };
        Ok(&mut self.records[at].2)
    }

    fn into_batch(self) -> Vec<BatchOp> {
        self.records
            .into_iter()
            .map(|(_, key, r)| r.commit(key))
            .collect()
    }
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

    /// Block `idx` of `content`, empty past its end.
    fn block<'c>(&self, content: &'c [u8], idx: u64) -> &'c [u8] {
        let start = (idx as usize)
            .saturating_mul(self.block_size)
            .min(content.len());
        &content[start..(start + self.block_size).min(content.len())]
    }

    fn nblocks(&self, len: u64) -> u64 {
        len.div_ceil(self.block_size as u64)
    }

    /// Every record `path` has, keyed by record index.
    fn scan(&mut self, path: &str) -> Result<Vec<(u64, Vec<u8>)>, KvError> {
        Ok(self
            .kv
            .scan_prefix(&file_prefix(path))?
            .into_iter()
            .map(|(key, value)| (key_record(&key), value))
            .collect())
    }

    /// Records `content`'s sums for `path` from scratch, taking block
    /// `k`'s from `carried(k)` where it gives one and re-summing the rest,
    /// and drops the records `stale` lists past the new end. Returns the
    /// bytes of `content` read.
    fn rebuild(
        &mut self,
        path: &str,
        content: &[u8],
        stale: &[u64],
        mut carried: impl FnMut(u64) -> Option<u32>,
        cost: &mut Cost,
    ) -> Result<u64, KvError> {
        let nblocks = self.nblocks(content.len() as u64);
        let nrecords = nblocks.div_ceil(RECORD_BLOCKS);
        let mut batch = Vec::with_capacity(nrecords as usize + stale.len());
        batch.extend(
            stale
                .iter()
                .filter(|&&rec| rec >= nrecords)
                .map(|&rec| BatchOp::Delete {
                    key: record_key(path, rec),
                }),
        );
        let mut read = 0;
        for rec in 0..nrecords {
            let mut record = Record::EMPTY;
            for idx in rec * RECORD_BLOCKS..((rec + 1) * RECORD_BLOCKS).min(nblocks) {
                let sum = match carried(idx) {
                    Some(sum) => sum,
                    None => {
                        let block = self.block(content, idx);
                        read += block.len() as u64;
                        self.checksum(block, cost)
                    }
                };
                record.set(locate(idx).1, sum);
            }
            batch.push(record.commit(record_key(path, rec)));
        }
        self.kv.write_batch(&batch)?;
        Ok(read)
    }

    /// Re-checksums every block of `content` and records it for `path`,
    /// dropping stale trailing blocks.
    ///
    /// All of it — the deletes of records past the new end plus one put
    /// per record — is a single [`KeyValue::write_batch`] group commit:
    /// one WAL append and one flush point, and a crash leaves either the
    /// old checksum set or the new one, never a mix.
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
        let stale: Vec<u64> = self.scan(path)?.into_iter().map(|(rec, _)| rec).collect();
        self.rebuild(path, content, &stale, |_| None, cost)
            .map(drop)
    }

    /// Re-indexes `path` after a forwarded `delta` turned the
    /// `base_len`-byte file at `base_path` (which may be `path` itself)
    /// into `content`. An output block that is one whole, block-aligned
    /// `Copy` of a base block with a stored sum keeps that sum — the
    /// base's, so a base block corrupted before the copy still fails to
    /// verify — and every other block is re-summed. The store ends as
    /// [`ChecksumStore::reindex_file`] would leave it, given that the
    /// base's sums matched the base.
    ///
    /// Returns how many bytes of `content` were read.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn apply_delta(
        &mut self,
        path: &str,
        content: &[u8],
        base_path: &str,
        base_len: u64,
        delta: &Delta,
        cost: &mut Cost,
    ) -> Result<u64, KvError> {
        let copies = self.whole_block_copies(delta, base_len, content.len() as u64);
        let own = self.scan(path)?;
        let stale: Vec<u64> = own.iter().map(|(rec, _)| *rec).collect();
        // The base's records, from the scan when the delta patches its
        // own base (its records are about to be overwritten).
        let mut base: Vec<(u64, Record)> = Vec::new();
        if base_path == path {
            base.extend(own.iter().map(|(rec, v)| (*rec, Record::decode(v))));
        } else {
            let mut wanted: Vec<u64> = copies.iter().map(|&(_, j)| locate(j).0).collect();
            wanted.sort_unstable();
            wanted.dedup();
            for rec in wanted {
                if let Some(v) = self.kv.get(&record_key(base_path, rec))? {
                    base.push((rec, Record::decode(&v)));
                }
            }
        }
        let mut copies = copies.into_iter().peekable();
        self.rebuild(
            path,
            content,
            &stale,
            |k| {
                let (_, j) = copies.next_if(|&(out, _)| out == k)?;
                let (rec, slot) = locate(j);
                let at = base.binary_search_by_key(&rec, |&(r, _)| r).ok()?;
                base[at].1.get(slot)
            },
            cost,
        )
    }

    /// `(output block, base block)` for every output block of the
    /// `out_len`-byte result of `delta` that one `Copy` fills with a whole,
    /// block-aligned block of the `base_len`-byte base, in output order.
    fn whole_block_copies(&self, delta: &Delta, base_len: u64, out_len: u64) -> Vec<(u64, u64)> {
        let bs = self.block_size as u64;
        let mut copies = Vec::new();
        let mut pos = 0u64;
        for op in delta.ops() {
            let (offset, len) = match op {
                DeltaOp::Copy { offset, len } => (*offset, *len),
                DeltaOp::Literal(bytes) => {
                    pos = pos.saturating_add(bytes.len() as u64);
                    continue;
                }
            };
            let end = pos.saturating_add(len);
            if offset % bs == pos % bs {
                let mut k = pos.div_ceil(bs);
                let mut src = offset + (k * bs - pos);
                while k * bs < end.min(out_len) {
                    let block_len = bs.min(out_len - k * bs);
                    if k * bs + block_len > end || bs.min(base_len.saturating_sub(src)) != block_len
                    {
                        break;
                    }
                    copies.push((k, src / bs));
                    k += 1;
                    src += bs;
                }
            }
            pos = end;
        }
        copies
    }

    /// Checks and records one intercepted write of `path`: `written` is
    /// its offset and the bytes it wrote (a growing truncate writes no
    /// bytes at the new size: zeros fill `[old_len, offset)` either way),
    /// `overwritten` the bytes it destroyed, starting at its offset,
    /// `old_len` the length before, and `content` the file as it is when
    /// the write is recorded — possibly after later operations.
    ///
    /// Every block from the one holding the first changed byte —
    /// `min(offset, old_len)`, so the old last block a write past the end
    /// zero-fills is included — to the end of the write gets its new sum.
    /// A block the write covers up to `max(old_len, write end)` is summed
    /// from the written bytes, and its old sum verified against
    /// `overwritten`; only the partial edge blocks are read from
    /// `content`, with the part that existed before the write rebuilt and
    /// verified against the stored sum, if any. An edge block whose
    /// written part `content` no longer holds gets no sum: the file moved
    /// on, and whatever changed it is recorded in turn.
    ///
    /// Returns the blocks whose pre-write content did not verify, and how
    /// many bytes of `content` were read.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn record_write(
        &mut self,
        path: &str,
        content: &[u8],
        written: (u64, &[u8]),
        overwritten: &[u8],
        old_len: u64,
        cost: &mut Cost,
    ) -> Result<(Vec<u64>, u64), KvError> {
        let bs = self.block_size as u64;
        let (offset, data) = written;
        let end = offset + data.len() as u64;
        let from = offset.min(old_len);
        if from >= end {
            return Ok((Vec::new(), 0));
        }
        let new_len = old_len.max(end);
        // What the write left at `range` (inside `from..end`): zeros up
        // to `offset`, then `data` — borrowed unless the range reaches
        // into the zero-filled gap of a write past the end.
        let left = |range: Range<u64>| -> Cow<'_, [u8]> {
            let lo = range.start.max(offset);
            let written = &data[(lo - offset) as usize..(range.end.max(lo) - offset) as usize];
            if lo == range.start {
                return Cow::Borrowed(written);
            }
            let mut out = vec![0u8; (lo.min(range.end) - range.start) as usize];
            out.extend_from_slice(written);
            Cow::Owned(out)
        };
        let mut touched = Touched::new(path);
        let (mut bad, mut read) = (Vec::new(), 0);
        let mut pre = Vec::new();
        for idx in from / bs..=(end - 1) / bs {
            let start = idx * bs;
            let stop = (start + bs).min(new_len);
            let old_stop = (start + bs).min(old_len);
            let (rec, slot) = locate(idx);
            let (new, old): (Cow<'_, [u8]>, &[u8]) = if from <= start && stop <= end {
                // Wholly written: the event's bytes are the block, and
                // the bytes it overwrote are the block's old part.
                let old = if start < old_stop {
                    &overwritten[(start - offset) as usize..(old_stop - offset) as usize]
                } else {
                    &[]
                };
                (left(start..stop), old)
            } else {
                let written = from.max(start)..end.min(stop);
                let block = content.get(start as usize..stop as usize);
                read += block.map_or(0, |b| b.len() as u64);
                let Some(block) = block.filter(|b| {
                    b[(written.start - start) as usize..(written.end - start) as usize]
                        == *left(written.clone())
                }) else {
                    touched.record(&mut self.kv, rec)?.clear(slot);
                    continue;
                };
                // The old block ends at the old file end; splice back what
                // the write destroyed.
                let old = &block[..(old_stop.max(start) - start) as usize];
                let ow = offset.max(start)..(offset + overwritten.len() as u64).min(old_stop);
                let old = if ow.is_empty() {
                    old
                } else {
                    pre.clear();
                    pre.extend_from_slice(old);
                    pre[(ow.start - start) as usize..(ow.end - start) as usize].copy_from_slice(
                        &overwritten[(ow.start - offset) as usize..(ow.end - offset) as usize],
                    );
                    &pre
                };
                (Cow::Borrowed(block), old)
            };
            let record = touched.record(&mut self.kv, rec)?;
            if let (true, Some(stored)) = (start < old_stop, record.get(slot)) {
                if self.checksum(old, cost) != stored {
                    bad.push(idx);
                }
            }
            record.set(slot, self.checksum(&new, cost));
        }
        self.kv.write_batch(&touched.into_batch())?;
        Ok((bad, read))
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
        let mut touched = Touched::new(path);
        for idx in first..=last {
            if let Some(block) = read_block(idx) {
                let sum = self.checksum(&block, cost);
                let (rec, slot) = locate(idx);
                touched.record(&mut self.kv, rec)?.set(slot, sum);
            }
        }
        self.kv.write_batch(&touched.into_batch())
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
        let nblocks = self.nblocks(content.len() as u64);
        let mut spans: Vec<(u64, u64)> = dirty
            .iter()
            .filter(|r| r.start < r.end)
            .map(|r| (r.start / bs, ((r.end - 1) / bs + 1).min(nblocks)))
            .collect();
        spans.sort_unstable();
        let mut touched = Touched::new(path);
        let mut read = 0;
        // First block no earlier span has re-summed.
        let mut next = 0;
        for (first, end) in spans {
            for idx in first.max(next)..end {
                let block = self.block(content, idx);
                read += block.len() as u64;
                let sum = self.checksum(block, cost);
                let (rec, slot) = locate(idx);
                touched.record(&mut self.kv, rec)?.set(slot, sum);
            }
            next = next.max(end);
        }
        // Drop the blocks past the new end: trim the record it falls in,
        // delete the records wholly beyond it.
        let mut stale = 0..0;
        let peak_blocks = self.nblocks(peak_len);
        if peak_blocks > nblocks {
            let (rec, slot) = locate(nblocks);
            stale = rec..peak_blocks.div_ceil(RECORD_BLOCKS);
            if slot > 0 {
                touched.record(&mut self.kv, rec)?.clear_from(slot);
                stale.start += 1;
            }
        }
        let mut batch = touched.into_batch();
        batch.extend(stale.map(|rec| BatchOp::Delete {
            key: record_key(path, rec),
        }));
        self.kv.write_batch(&batch)?;
        Ok(read)
    }

    /// Adjusts checksums after a truncate to `new_size`; `last_block` is
    /// the content of the (possibly shortened) final block, or `None`
    /// when its bytes are not known — then that block loses its sum.
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
        let nblocks = self.nblocks(new_size);
        let kept = nblocks.div_ceil(RECORD_BLOCKS);
        let mut batch = Vec::new();
        let mut boundary = None;
        for (rec, value) in self.scan(path)? {
            if rec >= kept {
                batch.push(BatchOp::Delete {
                    key: record_key(path, rec),
                });
            } else if rec + 1 == kept {
                boundary = Some(Record::decode(&value));
            }
        }
        // The record the new last block falls in loses the slots past it
        // and takes that block's new sum.
        if nblocks > 0 && (boundary.is_some() || last_block.is_some()) {
            let (rec, slot) = locate(nblocks - 1);
            let mut record = boundary.unwrap_or(Record::EMPTY);
            match last_block {
                Some(block) => {
                    record.clear_from(slot + 1);
                    record.set(slot, self.checksum(block, cost));
                }
                None => record.clear_from(slot),
            }
            batch.push(record.commit(record_key(path, rec)));
        }
        self.kv.write_batch(&batch)
    }

    /// The stored sums of `path`'s first `n` blocks, `None` for a block
    /// with none. Reads only the records that hold those blocks, so the
    /// result has exactly `n` entries whatever the store holds.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn sums(&mut self, path: &str, n: u64) -> Result<Vec<Option<u32>>, KvError> {
        let mut sums = Vec::with_capacity(n as usize);
        for rec in 0..n.div_ceil(RECORD_BLOCKS) {
            let record = self
                .kv
                .get(&record_key(path, rec))?
                .map_or(Record::EMPTY, |v| Record::decode(&v));
            let slots = (n - rec * RECORD_BLOCKS).min(RECORD_BLOCKS) as usize;
            sums.extend((0..slots).map(|slot| record.get(slot)));
        }
        Ok(sums)
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
        if from == to {
            return Ok(());
        }
        let entries = self.scan(from)?;
        let mut batch = Vec::with_capacity(2 * entries.len());
        // Remove any stale checksums for the destination first.
        for (rec, _) in self.scan(to)? {
            if !entries.iter().any(|(r, _)| *r == rec) {
                batch.push(BatchOp::Delete {
                    key: record_key(to, rec),
                });
            }
        }
        for (rec, value) in entries {
            batch.push(BatchOp::Put {
                key: record_key(to, rec),
                value,
            });
            batch.push(BatchOp::Delete {
                key: record_key(from, rec),
            });
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

    /// Checks record `rec`'s present slots among `blocks` against
    /// `content`, pushing the failing block indices to `bad`; a stored
    /// sum past the content's end fails too.
    fn check(
        &self,
        rec: u64,
        record: &Record,
        content: &[u8],
        blocks: &Range<u64>,
        bad: &mut Vec<u64>,
        cost: &mut Cost,
    ) {
        let nblocks = self.nblocks(content.len() as u64);
        for slot in 0..RECORD_BLOCKS as usize {
            let idx = rec * RECORD_BLOCKS + slot as u64;
            let Some(stored) = record.get(slot).filter(|_| blocks.contains(&idx)) else {
                continue;
            };
            if idx >= nblocks || self.checksum(self.block(content, idx), cost) != stored {
                bad.push(idx);
            }
        }
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
        for (rec, value) in self.scan(path)? {
            self.check(
                rec,
                &Record::decode(&value),
                content,
                &(0..u64::MAX),
                &mut bad,
                cost,
            );
        }
        Ok(bad)
    }

    /// Verifies the blocks `blocks` of `content` (the whole file) against
    /// their stored checksums, reading only the records that hold them,
    /// and returns the indices that mismatch, as
    /// [`ChecksumStore::verify_file`] does.
    ///
    /// # Errors
    ///
    /// Propagates backend errors.
    pub fn verify_blocks(
        &mut self,
        path: &str,
        content: &[u8],
        blocks: Range<u64>,
        cost: &mut Cost,
    ) -> Result<Vec<u64>, KvError> {
        let mut bad = Vec::new();
        if blocks.is_empty() {
            return Ok(bad);
        }
        for rec in locate(blocks.start).0..=locate(blocks.end - 1).0 {
            if let Some(value) = self.kv.get(&record_key(path, rec))? {
                self.check(
                    rec,
                    &Record::decode(&value),
                    content,
                    &blocks,
                    &mut bad,
                    cost,
                );
            }
        }
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

    /// The store's whole contents.
    fn dump(cs: &mut ChecksumStore<MemStore>) -> Vec<(Vec<u8>, Vec<u8>)> {
        cs.backend_mut().scan_prefix(b"").unwrap()
    }

    fn reindexed(path: &str, content: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut fresh = store();
        fresh.reindex_file(path, content, &mut Cost::new()).unwrap();
        dump(&mut fresh)
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
    fn a_record_holds_64_blocks_with_trailing_absent_slots_trimmed() {
        let mut cs = store();
        // 65 blocks: a full record and a record of one slot.
        let content = vec![7u8; 4 * 65];
        cs.reindex_file("/f", &content, &mut Cost::new()).unwrap();
        let records = dump(&mut cs);
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].0, record_key("/f", 0));
        assert_eq!(records[0].1.len(), 8 + 4 * 64);
        assert_eq!(records[0].1[..8], u64::MAX.to_le_bytes());
        assert_eq!(records[1].1.len(), 8 + 4);
        assert_eq!(records[1].1[..8], 1u64.to_le_bytes());
        // Cut to 64 blocks: the second record goes, not an empty one.
        let cut = &content[..4 * 64];
        cs.truncate(
            "/f",
            cut.len() as u64,
            Some(&cut[4 * 63..]),
            &mut Cost::new(),
        )
        .unwrap();
        assert_eq!(dump(&mut cs), reindexed("/f", cut));
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
        assert_eq!(
            cs.verify_blocks("/f", &corrupted, 1..3, &mut cost).unwrap(),
            vec![1]
        );
        assert_eq!(
            cs.verify_blocks("/f", &corrupted, 2..3, &mut cost).unwrap(),
            vec![]
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
        let before = cost.bytes_rolled;
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
        assert_eq!(cost.bytes_rolled - before, 4);
        assert_eq!(cs.verify_file("/f", &content, &mut cost).unwrap(), vec![]);
    }

    #[test]
    fn record_write_verifies_the_old_bytes_and_records_the_new() {
        let mut cs = store();
        let mut cost = Cost::new();
        let mut content = b"aaaabbbbcc".to_vec();
        cs.reindex_file("/f", &content, &mut cost).unwrap();
        // "XYZWV" over bytes 3..8, then 2 bytes past the old end.
        content[3..8].copy_from_slice(b"XYZWV");
        // Block 0 is an edge, read from the file; block 1 is written whole.
        let (bad, read) = cs
            .record_write("/f", &content, (3, b"XYZWV"), b"abbbb", 10, &mut cost)
            .unwrap();
        assert_eq!((bad, read), (vec![], 4));
        content.extend_from_slice(b"\0\0\0\0PQ");
        let (bad, read) = cs
            .record_write("/f", &content, (14, b"PQ"), b"", 10, &mut cost)
            .unwrap();
        // The old last block "cc" was zero-filled to a whole block (read);
        // the next one is zeros and the write.
        assert_eq!((bad, read), (vec![], 4));
        assert_eq!(dump(&mut cs), reindexed("/f", &content));
        // Bytes changed behind the store's back fail the next write.
        content[0] = b'!';
        content[1] = b'm';
        let (bad, _) = cs
            .record_write("/f", &content, (1, b"m"), b"a", 16, &mut cost)
            .unwrap();
        assert_eq!(bad, vec![0]);
    }

    #[test]
    fn a_write_is_summed_from_its_bytes_not_from_what_the_path_holds_later() {
        let mut cs = store();
        let mut cost = Cost::new();
        // The path already holds other bytes when the write is recorded:
        // the written blocks are summed from the write.
        let (bad, read) = cs
            .record_write("/f", b"zzzzzzzzzz", (0, b"aaaabbbbcc"), b"", 0, &mut cost)
            .unwrap();
        assert_eq!((bad, read), (vec![], 0));
        assert_eq!(dump(&mut cs), reindexed("/f", b"aaaabbbbcc"));
        // An edge block whose written part the file no longer holds gets
        // no sum; a whole one is still summed from the write.
        let (bad, read) = cs
            .record_write(
                "/f",
                b"aaaaqqqqqq",
                (2, b"XXXXXX"),
                b"aabbbb",
                10,
                &mut cost,
            )
            .unwrap();
        assert_eq!((bad, read), (vec![], 4));
        let mut expect = reindexed("/f", b"aaXXXXXXcc");
        // Slot 0 absent: its mask bit clear, its sum stored as 0.
        expect[0].1[..8].copy_from_slice(&0b110u64.to_le_bytes());
        expect[0].1[8..12].fill(0);
        assert_eq!(dump(&mut cs), expect);
    }

    #[test]
    fn update_blocks_resums_each_touched_block_once_and_drops_the_tail() {
        let mut cs = store();
        let mut cost = Cost::new();
        cs.reindex_file("/f", b"aaaabbbbccccdddd", &mut cost)
            .unwrap();
        // Two overlapping writes inside blocks 0-1, then a cut to 10 bytes.
        let content = b"aXYZWbbbcc";
        let mut cost = Cost::new();
        let read = cs
            .update_blocks("/f", content, &[1..4, 3..5, 9..10], 16, &mut cost)
            .unwrap();
        assert_eq!(
            read,
            4 + 4 + 2,
            "blocks 0, 1 and the new last one, once each"
        );
        assert_eq!(cost.bytes_rolled, read);
        assert_eq!(dump(&mut cs), reindexed("/f", content));
    }

    #[test]
    fn apply_delta_keeps_the_sums_of_whole_aligned_copies() {
        let mut cs = store();
        let base = b"aaaabbbbccccdd";
        cs.reindex_file("/f", base, &mut Cost::new()).unwrap();
        // Output: "bbbb" (copied whole, aligned), "xy" + "aa" (literal +
        // half a block), "ccccdd" (the last two blocks, aligned).
        let delta = Delta::from_ops(vec![
            DeltaOp::Copy { offset: 4, len: 4 },
            DeltaOp::Literal(bytes::Bytes::from_static(b"xy")),
            DeltaOp::Copy { offset: 0, len: 2 },
            DeltaOp::Copy { offset: 8, len: 6 },
        ]);
        let content = delta.apply(base).unwrap();
        let mut cost = Cost::new();
        let read = cs
            .apply_delta("/f", &content, "/f", base.len() as u64, &delta, &mut cost)
            .unwrap();
        assert_eq!(read, 4, "only block 1 is re-summed");
        assert_eq!(cost.bytes_rolled, 4);
        assert_eq!(dump(&mut cs), reindexed("/f", &content));
    }

    #[test]
    fn a_carried_sum_is_the_bases_so_base_corruption_stays_visible() {
        let mut cs = store();
        cs.reindex_file("/base", b"aaaabbbb", &mut Cost::new())
            .unwrap();
        // The base's block 1 rots before a delta copies it to "/f".
        let rotten = b"aaaabbXb";
        let delta = Delta::from_ops(vec![DeltaOp::Copy { offset: 0, len: 8 }]);
        let content = delta.apply(rotten).unwrap();
        let mut cost = Cost::new();
        let read = cs
            .apply_delta("/f", &content, "/base", 8, &delta, &mut cost)
            .unwrap();
        assert_eq!(read, 0);
        assert_eq!(cs.verify_file("/f", &content, &mut cost).unwrap(), vec![1]);
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
        assert_eq!(dump(&mut cs), reindexed("/f", truncated));
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
        cs.reindex_file("/b", &[5u8; 4 * 70], &mut cost).unwrap();
        cs.rename("/a", "/b").unwrap();
        assert_eq!(
            cs.verify_file("/b", b"12345678", &mut cost).unwrap(),
            vec![]
        );
        // No residue under either name.
        assert_eq!(dump(&mut cs), reindexed("/b", b"12345678"));
    }

    #[test]
    fn sums_reads_exactly_the_first_n_blocks() {
        let mut cs = store();
        // 130 blocks of 4 bytes span three records; block 65 is unsummed.
        let content: Vec<u8> = (0..520u32).map(|i| (i * 7 % 251) as u8).collect();
        cs.reindex_file("/f", &content, &mut Cost::new()).unwrap();
        let mut rec1 = Record::decode(&cs.kv.get(&record_key("/f", 1)).unwrap().unwrap());
        rec1.present &= !(1 << 1);
        cs.kv.put(&record_key("/f", 1), &rec1.encode()).unwrap();
        let expect: Vec<Option<u32>> = content
            .chunks(4)
            .enumerate()
            .map(|(i, b)| (i != 65).then(|| RollingChecksum::new(b).digest()))
            .collect();
        assert_eq!(cs.sums("/f", 130).unwrap(), expect);
        assert_eq!(cs.sums("/f", 3).unwrap(), expect[..3]);
        assert_eq!(cs.sums("/f", 0).unwrap(), []);
        // Past the stored blocks, and for an unknown path, every sum is absent.
        assert_eq!(cs.sums("/f", 200).unwrap()[130..], [None; 70]);
        assert_eq!(cs.sums("/g", 2).unwrap(), [None, None]);
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
    fn unknown_blocks_verify_clean() {
        let mut cs = store();
        let mut cost = Cost::new();
        assert_eq!(
            cs.verify_blocks("/f", b"anything", 0..2, &mut cost)
                .unwrap(),
            vec![]
        );
        assert_eq!(cost.bytes_rolled, 0);
    }

    #[test]
    fn repeated_update_range_round_trips_hit_the_backend_read_cache() {
        // Over a durable backend, the hot path is: write some blocks,
        // flush, then re-verify the same blocks again and again (e.g. a
        // file that keeps receiving writes to the same region). The
        // KvStore read cache should absorb the repeated segment lookups.
        let dir =
            std::env::temp_dir().join(format!("deltacfs-cs-cache-test-{}", std::process::id()));
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
            // Same region rewritten each round; update_range reads the
            // block's record once and invalidates its cache entry.
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
            for _ in 0..3 {
                let bad = cs.verify_blocks("/f", &content, 1..2, &mut cost).unwrap();
                assert_eq!(bad, vec![]);
            }
        }
        // Each round: one miss to warm the (freshly invalidated) record,
        // then two hits from the cache. From the second round on,
        // update_range's own read of the record hits the entry the last
        // round's verifies left warm.
        assert_eq!(count(&reg, "kv_cache_misses"), 3);
        assert_eq!(count(&reg, "kv_cache_hits"), 6 + 2);

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
