//! The classic rsync algorithm (Tridgell & Mackerras, 1996).
//!
//! The receiver (or, with Dropbox's client-side offloading, the client
//! itself — paper §IV-B) computes a [`Signature`] of the old file: a weak
//! rolling checksum and a strong MD5 checksum per fixed-size block. The
//! sender slides a window over the new file; whenever the rolling checksum
//! hits the signature table it confirms the match with MD5 and emits a
//! block reference instead of literal bytes.
//!
//! Every byte rolled, hashed, or copied is charged to the supplied
//! [`Cost`], because this per-modification whole-file scan is precisely the
//! "abuse of delta sync" the paper sets out to eliminate.

use std::collections::HashMap;

use crate::cost::Cost;
use crate::delta_ops::Delta;
use crate::hierarchy::{diff_hier_sink, HierarchyParams};
use crate::md5_impl::md5;
use crate::parallel::{replay_matches, replay_with, scan_matches, scan_streaming, ProbeOutcome};
use crate::rolling::RollingChecksum;
use crate::stream::{ChunkSink, DeltaChunk, MaterializeSink, OpSink};
use crate::weak_index::{insert_candidate, CandidateSet, WeakFilter};
use crate::DeltaParams;

/// Per-block wire overhead of a transmitted signature entry:
/// 4 bytes weak + 16 bytes strong checksum.
pub const SIGNATURE_ENTRY_BYTES: u64 = 20;

/// Block signatures of a base file.
#[derive(Debug, Clone)]
pub struct Signature {
    block_size: usize,
    /// Strong checksum of each block, indexed by block number.
    strong: Vec<[u8; 16]>,
    /// Weak checksum of each block, indexed by block number. Part of the
    /// wire signature already (each entry ships weak + strong); kept
    /// per-block so the hierarchical matcher's metadata self-probe can
    /// answer a span-aligned block's own probe without hashing.
    weak: Vec<u32>,
    /// Weak checksum -> block numbers with that weak checksum (first
    /// candidate inline, overflow allocated only on collision).
    weak_map: HashMap<u32, CandidateSet>,
    /// Superset membership filter over `weak_map`'s keys: a filter miss
    /// proves a map miss, which lets the scan's miss loop word-skip.
    filter: WeakFilter,
    old_len: u64,
}

impl Signature {
    /// Block size the signature was computed with.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks (including a short final block).
    pub fn block_count(&self) -> usize {
        self.strong.len()
    }

    /// Length of the base file in bytes.
    pub fn old_len(&self) -> u64 {
        self.old_len
    }

    /// Bytes this signature occupies when transmitted (what rsync's
    /// receiver sends to the sender).
    pub fn wire_size(&self) -> u64 {
        self.block_count() as u64 * SIGNATURE_ENTRY_BYTES
    }

    /// `(offset, len)` of block `block_idx` in the old file.
    fn block_range(&self, block_idx: u32) -> (u64, u64) {
        let start = block_idx as u64 * self.block_size as u64;
        let len = (self.old_len - start).min(self.block_size as u64);
        (start, len)
    }

    /// Weak-map lookup behind the filter fast-path; by the
    /// [`WeakFilter`] superset invariant the result equals a direct map
    /// probe.
    #[inline]
    fn lookup_weak(&self, weak: u32) -> Option<&CandidateSet> {
        if !self.filter.plausible(weak) {
            return None;
        }
        self.weak_map.get(&weak)
    }
}

/// Computes the block [`Signature`] of `old`.
///
/// Charges one weak-checksum pass and one strong-checksum pass over the
/// whole file to `cost`.
pub fn signature(old: &[u8], params: &DeltaParams, cost: &mut Cost) -> Signature {
    let bs = params.block_size;
    let nblocks = old.len().div_ceil(bs);
    let mut strong = Vec::with_capacity(nblocks);
    let mut weaks = Vec::with_capacity(nblocks);
    let mut weak_map: HashMap<u32, CandidateSet> = HashMap::with_capacity(nblocks);
    let mut filter = WeakFilter::new();
    for (i, block) in old.chunks(bs).enumerate() {
        let weak = RollingChecksum::new(block).digest();
        cost.bytes_rolled += block.len() as u64;
        let digest = md5(block);
        cost.bytes_strong_hashed += block.len() as u64;
        cost.ops += 2;
        strong.push(digest);
        weaks.push(weak);
        insert_candidate(&mut weak_map, weak, i as u32);
        filter.insert(weak);
    }
    Signature {
        block_size: bs,
        strong,
        weak: weaks,
        weak_map,
        filter,
        old_len: old.len() as u64,
    }
}

/// Computes a [`Delta`] that transforms the file described by `sig` into
/// `new`, using the rolling-window search with MD5 confirmation.
///
/// Charges every rolled byte and every confirming MD5 to `cost`.
pub fn diff(sig: &Signature, new: &[u8], params: &DeltaParams, cost: &mut Cost) -> Delta {
    debug_assert_eq!(sig.block_size, params.block_size);
    diff_with(
        new,
        params.block_size,
        cost,
        Some(&sig.filter),
        |weak| sig.lookup_weak(weak),
        |window, candidates, cost| {
            let digest = md5(window);
            cost.bytes_strong_hashed += window.len() as u64;
            cost.ops += 1;
            candidates.iter().find(|&b| sig.strong[b as usize] == digest)
        },
        |block_idx| sig.block_range(block_idx),
    )
}

/// Like [`diff`], but probes window positions across `workers` scoped
/// threads, sharing `sig` read-only.
///
/// The output `Delta` — and the `Cost` totals — are **byte-identical** to
/// [`diff`]'s for any thread count: candidate selection stays ordered by
/// block index and the greedy walk is replayed sequentially over the
/// precomputed match table. Of the `workers` offered,
/// [`DeltaParams::workers_for`] are used; one falls through to the
/// sequential implementation.
pub fn diff_parallel(
    sig: &Signature,
    new: &[u8],
    params: &DeltaParams,
    workers: usize,
    cost: &mut Cost,
) -> Delta {
    debug_assert_eq!(sig.block_size, params.block_size);
    let workers = params.workers_for(new.len(), workers);
    if workers <= 1 {
        return diff(sig, new, params, cost);
    }
    let bs = sig.block_size;
    let probe = probe_md5(sig);
    let table = scan_matches(new, bs, workers, &probe);
    replay_matches(
        new,
        bs,
        &table,
        cost,
        |cost, bytes, ops| {
            cost.bytes_strong_hashed += bytes;
            cost.ops += ops;
        },
        |block_idx| sig.block_range(block_idx),
        |pos| {
            let window = &new[pos..pos + bs];
            probe(RollingChecksum::new(window).digest(), window)
        },
    )
}

/// The md5-confirming probe shared by the parallel and streaming paths.
fn probe_md5<'a>(sig: &'a Signature) -> impl Fn(u32, &[u8]) -> Option<ProbeOutcome> + Sync + 'a {
    |weak: u32, window: &[u8]| {
        sig.lookup_weak(weak).map(|candidates| {
            let digest = md5(window);
            let matched = candidates.iter().find(|&b| sig.strong[b as usize] == digest);
            (matched, window.len() as u64, 1u64)
        })
    }
}

/// Streaming variant of [`diff_parallel`]: instead of materializing a
/// [`Delta`], hands [`DeltaChunk`]s of at most `chunk_budget` literal
/// bytes to `emit` as the walk produces them, overlapping segment
/// scanning with chunk release.
///
/// Reassembling the chunks with [`Delta::from_chunks`] yields output
/// byte-identical to [`diff`] / [`diff_parallel`], with identical
/// [`Cost`] totals. Sub-threshold or single-worker inputs run the
/// sequential walk through the same chunk sink.
pub fn diff_streaming(
    sig: &Signature,
    new: &[u8],
    params: &DeltaParams,
    workers: usize,
    cost: &mut Cost,
    chunk_budget: usize,
    emit: impl FnMut(DeltaChunk),
) {
    debug_assert_eq!(sig.block_size, params.block_size);
    let bs = sig.block_size;
    let mut sink = ChunkSink::new(chunk_budget, emit);
    let workers = params.workers_for(new.len(), workers);
    if workers <= 1 {
        diff_with_sink(
            new,
            bs,
            cost,
            Some(&sig.filter),
            |weak| sig.lookup_weak(weak),
            |window, candidates, cost| {
                let digest = md5(window);
                cost.bytes_strong_hashed += window.len() as u64;
                cost.ops += 1;
                candidates.iter().find(|&b| sig.strong[b as usize] == digest)
            },
            |block_idx| sig.block_range(block_idx),
            &mut sink,
        );
    } else {
        let probe = probe_md5(sig);
        scan_streaming(new, bs, workers, &probe, |feed| {
            replay_with(
                new,
                bs,
                feed,
                cost,
                |cost, bytes, ops| {
                    cost.bytes_strong_hashed += bytes;
                    cost.ops += ops;
                },
                |block_idx| sig.block_range(block_idx),
                |pos| {
                    let window = &new[pos..pos + bs];
                    probe(RollingChecksum::new(window).digest(), window)
                },
                &mut sink,
            );
        });
    }
    sink.finish();
}

/// Hierarchical coarse→fine variant of [`diff_parallel`].
///
/// Unlike the other rsync entry points this needs the *old file content*
/// (`old`), not just its [`Signature`] — the shingle tree pairs old and
/// new spans byte-for-byte. That is exactly the paper's client-side
/// offloading setting (§IV-B): the machine running the diff holds both
/// versions, and the signature is only reused so the `Cost` model and
/// output stay those of rsync. `old` must be the file `sig` was computed
/// from. Output and [`Cost`] are byte-identical to [`diff`]'s.
pub fn diff_hierarchical(
    sig: &Signature,
    old: &[u8],
    new: &[u8],
    h: &HierarchyParams,
    params: &DeltaParams,
    workers: usize,
    cost: &mut Cost,
) -> Delta {
    debug_assert_eq!(sig.block_size, params.block_size);
    debug_assert_eq!(sig.old_len, old.len() as u64);
    if new.len() < h.min_file_bytes || new.len() < params.block_size {
        return diff_parallel(sig, new, params, workers, cost);
    }
    let mut sink = MaterializeSink::new();
    diff_hier_md5(sig, old, new, h, workers, cost, &mut sink);
    sink.into_delta()
}

/// Streaming form of [`diff_hierarchical`]: chunked like
/// [`diff_streaming`], same identity contract.
#[allow(clippy::too_many_arguments)] // mirrors diff_streaming's signature plus the hierarchy knobs
pub fn diff_hierarchical_streaming(
    sig: &Signature,
    old: &[u8],
    new: &[u8],
    h: &HierarchyParams,
    params: &DeltaParams,
    workers: usize,
    cost: &mut Cost,
    chunk_budget: usize,
    emit: impl FnMut(DeltaChunk),
) {
    debug_assert_eq!(sig.block_size, params.block_size);
    debug_assert_eq!(sig.old_len, old.len() as u64);
    if new.len() < h.min_file_bytes || new.len() < params.block_size {
        return diff_streaming(sig, new, params, workers, cost, chunk_budget, emit);
    }
    let mut sink = ChunkSink::new(chunk_budget, emit);
    diff_hier_md5(sig, old, new, h, workers, cost, &mut sink);
    sink.finish();
}

/// The md5-confirming hierarchical walk behind both entry points.
fn diff_hier_md5<S: OpSink>(
    sig: &Signature,
    old: &[u8],
    new: &[u8],
    h: &HierarchyParams,
    workers: usize,
    cost: &mut Cost,
    sink: &mut S,
) {
    let bs = sig.block_size;
    let probe = probe_md5(sig);
    // Metadata self-probe: a span-aligned window IS old block `block`
    // (full length), so its MD5 equals the signature's stored strong sum
    // and its weak digest is the stored weak sum. The sequential probe's
    // answer — first candidate whose strong sum equals the window's —
    // is therefore derivable from signature metadata alone, with the
    // same `(window.len(), 1)` charge `probe_md5` reports.
    let self_probe_meta = |block: u32| -> Option<ProbeOutcome> {
        let candidates = sig.lookup_weak(sig.weak[block as usize])?;
        let digest = sig.strong[block as usize];
        let matched = candidates.iter().find(|&b| sig.strong[b as usize] == digest);
        Some((matched, bs as u64, 1))
    };
    diff_hier_sink(
        old,
        new,
        bs,
        h,
        workers.max(1),
        &probe,
        self_probe_meta,
        cost,
        |cost, bytes, ops| {
            cost.bytes_strong_hashed += bytes;
            cost.ops += ops;
        },
        |block_idx| sig.block_range(block_idx),
        sink,
    );
}

/// Shared rolling-window matcher used by both the remote ([`diff`]) and the
/// local bitwise variant (`local::diff`).
///
/// `lookup` maps a weak digest to its candidate set; `confirm` verifies a
/// candidate (MD5 or bitwise compare); `block_range` maps a confirmed
/// block index to its (offset, len) in the old file.
pub(crate) fn diff_with<'a>(
    new: &[u8],
    block_size: usize,
    cost: &mut Cost,
    filter: Option<&WeakFilter>,
    lookup: impl Fn(u32) -> Option<&'a CandidateSet>,
    confirm: impl FnMut(&[u8], &CandidateSet, &mut Cost) -> Option<u32>,
    block_range: impl Fn(u32) -> (u64, u64),
) -> Delta {
    let mut sink = MaterializeSink::new();
    diff_with_sink(
        new, block_size, cost, filter, lookup, confirm, block_range, &mut sink,
    );
    sink.into_delta()
}

/// Sink-generic form of [`diff_with`]: identical walk, but ops go to an
/// [`OpSink`] so the streaming paths reuse the exact traversal.
///
/// With a `filter`, the miss loop advances word-wise: instead of rolling
/// one byte at a time, it peeks the next 8 window positions
/// ([`RollingChecksum::peek8`]) and jumps straight to the first whose
/// weak digest the filter deems plausible. Filter-implausible positions
/// are *provably* lookup misses — and a lookup miss charges nothing but
/// its one rolled byte, which the jump still charges per position skipped
/// — so output and [`Cost`] are identical to the byte-at-a-time walk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn diff_with_sink<'a, S: OpSink>(
    new: &[u8],
    block_size: usize,
    cost: &mut Cost,
    filter: Option<&WeakFilter>,
    lookup: impl Fn(u32) -> Option<&'a CandidateSet>,
    mut confirm: impl FnMut(&[u8], &CandidateSet, &mut Cost) -> Option<u32>,
    block_range: impl Fn(u32) -> (u64, u64),
    sink: &mut S,
) {
    let mut literal_start = 0usize;
    let mut pos = 0usize;

    let flush_literal = |sink: &mut S, from: usize, to: usize, cost: &mut Cost| {
        if to > from {
            sink.literal(&new[from..to]);
            cost.bytes_copied += (to - from) as u64;
        }
    };

    if new.len() >= block_size {
        let mut rc = RollingChecksum::new(&new[..block_size]);
        cost.bytes_rolled += block_size as u64;
        loop {
            let window = &new[pos..pos + block_size];
            let matched =
                lookup(rc.digest()).and_then(|candidates| confirm(window, candidates, cost));
            if let Some(block_idx) = matched {
                flush_literal(sink, literal_start, pos, cost);
                let (offset, len) = block_range(block_idx);
                sink.copy(offset, len);
                pos += block_size;
                literal_start = pos;
                if pos + block_size > new.len() {
                    break;
                }
                rc = RollingChecksum::new(&new[pos..pos + block_size]);
                cost.bytes_rolled += block_size as u64;
            } else {
                if pos + block_size >= new.len() {
                    break;
                }
                if let Some(filter) = filter {
                    if pos + block_size + 8 <= new.len() {
                        let outs: [u8; 8] =
                            new[pos..pos + 8].try_into().expect("8-byte out window");
                        let ins: [u8; 8] = new[pos + block_size..pos + block_size + 8]
                            .try_into()
                            .expect("8-byte in window");
                        let states = rc.peek8(&outs, &ins);
                        // Jump to the first plausible upcoming position, or
                        // past all 8 when none is; each skipped position is
                        // a proven miss and charges its one rolled byte.
                        let k = states
                            .iter()
                            .position(|s| filter.plausible(s.digest()))
                            .unwrap_or(7);
                        rc = states[k];
                        cost.bytes_rolled += k as u64 + 1;
                        pos += k + 1;
                        continue;
                    }
                }
                rc.roll(new[pos], new[pos + block_size]);
                cost.bytes_rolled += 1;
                pos += 1;
            }
        }
    }
    flush_literal(sink, literal_start, new.len(), cost);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(old: &[u8], new: &[u8], bs: usize) -> (Delta, Cost) {
        let params = DeltaParams::with_block_size(bs);
        let mut cost = Cost::new();
        let sig = signature(old, &params, &mut cost);
        let delta = diff(&sig, new, &params, &mut cost);
        assert_eq!(delta.apply(old).unwrap(), new, "reconstruction mismatch");
        (delta, cost)
    }

    #[test]
    fn identical_files_are_all_copies() {
        let data = b"0123456789abcdef".repeat(64);
        let (delta, _) = roundtrip(&data, &data, 16);
        assert_eq!(delta.literal_bytes(), 0);
        assert_eq!(delta.copy_bytes(), data.len() as u64);
    }

    #[test]
    fn single_byte_flip_costs_one_block() {
        let old = b"0123456789abcdef".repeat(64);
        let mut new = old.clone();
        new[100] = b'!';
        let (delta, _) = roundtrip(&old, &new, 16);
        assert_eq!(delta.literal_bytes(), 16);
    }

    #[test]
    fn insertion_shifts_are_resynchronized() {
        // This is rsync's raison d'être: data shifted by an insertion is
        // still matched via the rolling checksum.
        let old: Vec<u8> = (0..4096u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut new = old.clone();
        new.splice(1000..1000, b"INSERTED".iter().copied());
        let (delta, _) = roundtrip(&old, &new, 64);
        // Most of the file should still be copies.
        assert!(delta.copy_bytes() as usize > old.len() * 9 / 10);
    }

    #[test]
    fn empty_and_tiny_inputs() {
        roundtrip(b"", b"", 16);
        roundtrip(b"", b"abc", 16);
        roundtrip(b"abc", b"", 16);
        roundtrip(b"abc", b"abc", 16);
        roundtrip(b"short", b"sh", 16);
    }

    #[test]
    fn appended_tail_is_literal_only_for_tail() {
        let old = vec![7u8; 1024];
        let mut new = old.clone();
        new.extend_from_slice(&[9u8; 100]);
        let (delta, _) = roundtrip(&old, &new, 64);
        assert_eq!(delta.copy_bytes(), 1024);
        assert_eq!(delta.literal_bytes(), 100);
    }

    #[test]
    fn cost_charges_signature_and_scan() {
        let old = vec![1u8; 4096];
        let new = vec![2u8; 4096];
        let params = DeltaParams::with_block_size(256);
        let mut cost = Cost::new();
        let sig = signature(&old, &params, &mut cost);
        assert_eq!(cost.bytes_strong_hashed, 4096);
        assert_eq!(cost.bytes_rolled, 4096);
        let before = cost;
        let _ = diff(&sig, &new, &params, &mut cost);
        assert!(cost.bytes_rolled > before.bytes_rolled);
    }

    #[test]
    fn signature_wire_size_counts_blocks() {
        let params = DeltaParams::with_block_size(100);
        let mut cost = Cost::new();
        let sig = signature(&vec![0u8; 250], &params, &mut cost);
        assert_eq!(sig.block_count(), 3);
        assert_eq!(sig.wire_size(), 60);
        assert_eq!(sig.old_len(), 250);
        assert_eq!(sig.block_size(), 100);
    }

    #[test]
    fn weak_collision_is_rescued_by_strong_check() {
        // Two different blocks engineered to share a weak checksum: "ab" vs
        // "ba" differ, but craft data where sums collide: [1,3] and [2,2]
        // have equal byte sums and equal positional sums? a=4 both; b: for
        // [1,3]: 2*1+1*3=5; for [2,2]: 2*2+1*2=6 — not colliding. Use
        // [0,4] vs [2,2]: b=4 vs 6. Try [3,1] vs [1,3]: b=7 vs 5.
        // Construct collision directly: blocks [x,y] and [x+1, y-1] have
        // a equal; b differs by 1. Instead use length-1 blocks where weak
        // is the byte itself: no collision possible. So simply verify that
        // a strong mismatch with equal weak emits a literal, via the
        // block at a *different* position trick: old "aa" occurs, new has
        // "aa" too — matches fine. The practical guarantee is covered by
        // reconstruction equality on random data below.
        let mut rng_state = 0x12345678u64;
        let mut next = move || {
            rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (rng_state >> 33) as u8
        };
        let old: Vec<u8> = (0..10_000).map(|_| next()).collect();
        let new: Vec<u8> = (0..10_000).map(|_| next()).collect();
        roundtrip(&old, &new, 32);
    }

    #[test]
    fn parallel_output_is_byte_identical() {
        let old: Vec<u8> = (0..20_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut new = old.clone();
        new.splice(3_000..3_000, b"SHIFTED".iter().copied());
        new[60_000] ^= 0x55;
        let params = DeltaParams::with_block_size(256).with_min_parallel_bytes(0);
        let mut c_sig = Cost::new();
        let sig = signature(&old, &params, &mut c_sig);
        let mut c_seq = Cost::new();
        let d_seq = diff(&sig, &new, &params, &mut c_seq);
        for workers in [2, 3, 4, 6] {
            let mut c_par = Cost::new();
            let d_par = diff_parallel(&sig, &new, &params, workers, &mut c_par);
            assert_eq!(d_par, d_seq, "delta differs with {workers} workers");
            assert_eq!(c_par, c_seq, "cost differs with {workers} workers");
        }
    }

    /// Runs the sink walk with and without the weak filter and demands
    /// identical deltas and identical `Cost` totals — the skip must be
    /// decision-neutral at every boundary (tiny blocks, block sizes under
    /// the 8-byte lookahead, tails shorter than a word, dense matches).
    fn assert_filter_is_decision_neutral(old: &[u8], new: &[u8], bs: usize) {
        use crate::stream::MaterializeSink;
        let params = DeltaParams::with_block_size(bs);
        let mut c_sig = Cost::new();
        let sig = signature(old, &params, &mut c_sig);
        let run = |filter: Option<&WeakFilter>| {
            let mut cost = Cost::new();
            let mut sink = MaterializeSink::new();
            diff_with_sink(
                new,
                bs,
                &mut cost,
                filter,
                |weak| sig.weak_map.get(&weak),
                |window, candidates, cost| {
                    let digest = md5(window);
                    cost.bytes_strong_hashed += window.len() as u64;
                    cost.ops += 1;
                    candidates.iter().find(|&b| sig.strong[b as usize] == digest)
                },
                |block_idx| sig.block_range(block_idx),
                &mut sink,
            );
            (sink.into_delta(), cost)
        };
        let (d_plain, c_plain) = run(None);
        let (d_filt, c_filt) = run(Some(&sig.filter));
        assert_eq!(d_filt, d_plain, "delta drifted (bs {bs})");
        assert_eq!(c_filt, c_plain, "cost drifted (bs {bs})");
        assert_eq!(d_filt.apply(old).unwrap(), new);
    }

    #[test]
    fn filter_skip_is_decision_neutral_on_boundaries() {
        let mut state = 0xB5297A4Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as u8
        };
        let old: Vec<u8> = (0..4_096).map(|_| next()).collect();
        // Disjoint new: every position is a miss, maximal skipping.
        let disjoint: Vec<u8> = (0..4_096).map(|_| next()).collect();
        // Shifted new: matches resume mid-walk after an unaligned insert.
        let mut shifted = old.clone();
        shifted.splice(333..333, [0xAB; 11]);
        // Dense-match new: every window hits (no skipping possible).
        let dense = old.clone();
        for new in [&disjoint, &shifted, &dense] {
            // Block sizes straddling the 8-byte lookahead, plus lengths
            // that leave 0..8 tail bytes after the last full window.
            for bs in [4usize, 7, 8, 9, 64] {
                assert_filter_is_decision_neutral(&old, new, bs);
                for trim in 1..9 {
                    assert_filter_is_decision_neutral(&old, &new[..new.len() - trim], bs);
                }
            }
        }
        // Degenerate inputs around the lookahead guard.
        for len in [0usize, 3, 8, 9, 15, 16, 17] {
            assert_filter_is_decision_neutral(&old, &disjoint[..len], 8);
        }
    }

    #[test]
    fn hierarchical_output_is_byte_identical() {
        use crate::cdc::CdcParams;
        let old: Vec<u8> = (0..20_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut new = vec![0x42; 333];
        new.extend_from_slice(&old);
        new.splice(3_000..3_000, b"SHIFTED".iter().copied());
        new[60_000] ^= 0x55;
        let params = DeltaParams::with_block_size(256);
        let h = HierarchyParams::from_levels(&[
            CdcParams {
                min_size: 128,
                mask_bits: 7,
                max_size: 2048,
            },
            CdcParams {
                min_size: 32,
                mask_bits: 5,
                max_size: 512,
            },
        ])
        .with_min_file_bytes(0);
        let mut c_sig = Cost::new();
        let sig = signature(&old, &params, &mut c_sig);
        let mut c_seq = Cost::new();
        let d_seq = diff(&sig, &new, &params, &mut c_seq);
        for workers in [1, 2, 4] {
            let mut c_h = Cost::new();
            let d_h = diff_hierarchical(&sig, &old, &new, &h, &params, workers, &mut c_h);
            let stats = crate::take_hierarchy_stats();
            assert_eq!(d_h, d_seq, "delta differs ({workers} workers)");
            assert_eq!(c_h, c_seq, "cost differs ({workers} workers)");
            assert!(stats.engaged());
        }
        for budget in [128usize, 4096] {
            let mut c_h = Cost::new();
            let mut chunks = Vec::new();
            diff_hierarchical_streaming(&sig, &old, &new, &h, &params, 2, &mut c_h, budget, |c| {
                chunks.push(c)
            });
            let _ = crate::take_hierarchy_stats();
            assert!(chunks.iter().all(|c| c.literal_bytes() <= budget as u64));
            assert_eq!(Delta::from_chunks(chunks), d_seq, "budget {budget}");
            assert_eq!(c_h, c_seq, "budget {budget}");
        }
    }

    #[test]
    fn streaming_chunks_reassemble_byte_identically() {
        let old: Vec<u8> = (0..20_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut new = old.clone();
        new.splice(3_000..3_000, b"SHIFTED".iter().copied());
        new[60_000] ^= 0x55;
        let params = DeltaParams::with_block_size(256).with_min_parallel_bytes(0);
        let mut c_sig = Cost::new();
        let sig = signature(&old, &params, &mut c_sig);
        let mut c_seq = Cost::new();
        let d_seq = diff(&sig, &new, &params, &mut c_seq);
        for workers in [1, 3] {
            for budget in [128usize, 4096] {
                let mut c_str = Cost::new();
                let mut chunks = Vec::new();
                diff_streaming(&sig, &new, &params, workers, &mut c_str, budget, |c| {
                    chunks.push(c)
                });
                assert!(chunks.iter().all(|c| c.literal_bytes() <= budget as u64));
                let d_str = Delta::from_chunks(chunks);
                assert_eq!(d_str, d_seq, "{workers} workers, budget {budget}");
                assert_eq!(c_str, c_seq, "{workers} workers, budget {budget}");
            }
        }
    }
}
