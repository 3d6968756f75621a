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

use bytes::Bytes;

use crate::cost::Cost;
use crate::delta_ops::{Delta, DeltaOp};
use crate::local::{grow_backward, grow_last_copy};
use crate::md5_impl::md5;
use crate::rolling::RollingChecksum;
use crate::weak_index::{CandidateSet, WeakIndex};
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
    /// Weak checksum -> block numbers with that weak checksum.
    index: WeakIndex,
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
}

/// Computes the block [`Signature`] of `old`.
///
/// Charges one weak-checksum pass and one strong-checksum pass over the
/// whole file to `cost`.
pub fn signature(old: &[u8], params: &DeltaParams, cost: &mut Cost) -> Signature {
    let bs = params.block_size;
    let nblocks = old.len().div_ceil(bs);
    let mut strong = Vec::with_capacity(nblocks);
    let mut index = WeakIndex::with_capacity(nblocks);
    for (i, block) in old.chunks(bs).enumerate() {
        let weak = RollingChecksum::new(block).digest();
        cost.bytes_rolled += block.len() as u64;
        let digest = md5(block);
        cost.bytes_strong_hashed += block.len() as u64;
        cost.ops += 2;
        strong.push(digest);
        index.insert(weak, i as u32);
    }
    Signature {
        block_size: bs,
        strong,
        index,
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
        None,
        params.block_size,
        &[],
        &sig.index,
        cost,
        |window, candidates, cost| {
            let digest = md5(window);
            cost.bytes_strong_hashed += window.len() as u64;
            cost.ops += 1;
            candidates
                .iter()
                .find(|&b| sig.strong[b as usize] == digest)
                .map(|b| sig.block_range(b))
        },
    )
}

// Benchmark compat, no behaviour (DESIGN.md §10): `benchmark/src/probes.rs`
// names it; it goes with the benchmark's `api.rs` PR.
/// Compat: [`diff`]; `workers` is ignored.
pub fn diff_parallel(
    sig: &Signature,
    new: &[u8],
    params: &DeltaParams,
    _workers: usize,
    cost: &mut Cost,
) -> Delta {
    diff(sig, new, params, cost)
}

/// Shared rolling-window matcher used by both the remote ([`diff`]) and the
/// local bitwise variant (`local::diff`).
///
/// `index` maps a weak digest to its candidate set; `confirm` verifies
/// the candidates (MD5 or bitwise compare) and returns the confirmed
/// block's (offset, len) in the old file.
///
/// A window that starts on a block boundary takes its state from
/// `new_sums[block]` when that holds a sum ([`RollingChecksum::from_digest`]),
/// and is rolled otherwise. A seeded window that finds no match is rolled
/// from its bytes before the walk slides on, and looked up again if the
/// two states differ, so a wrong sum costs one roll and no match; and
/// every candidate is still confirmed by `confirm`.
///
/// With the `old` bytes at hand (the local walk), every pending literal is
/// trimmed from both ends before it is flushed: the copy before it grows
/// forward and the confirmed copy after it grows backward, by bitwise
/// comparison charged to `bytes_compared`. The walk's decisions are the
/// same with or without `old` — the same windows are rolled and the same
/// blocks confirmed — so only literals shrink.
///
/// The miss loop advances word-wise: instead of rolling one byte at a
/// time, it peeks the next 8 window positions
/// ([`RollingChecksum::peek8`]) and jumps straight to the first whose
/// weak digest the index's filter deems plausible. Filter-implausible positions
/// are *provably* lookup misses — and a lookup miss charges nothing but
/// its one rolled byte, which the jump still charges per position skipped
/// — so output and [`Cost`] are identical to the byte-at-a-time walk.
pub(crate) fn diff_with(
    new: &[u8],
    old: Option<&[u8]>,
    block_size: usize,
    new_sums: &[Option<u32>],
    index: &WeakIndex,
    cost: &mut Cost,
    mut confirm: impl FnMut(&[u8], &CandidateSet, &mut Cost) -> Option<(u64, u64)>,
) -> Delta {
    let mut ops = Vec::new();
    let mut literal_start = 0usize;
    let mut pos = 0usize;

    let flush_literal = |ops: &mut Vec<DeltaOp>, from: usize, to: usize, cost: &mut Cost| {
        if to > from {
            ops.push(DeltaOp::Literal(Bytes::copy_from_slice(&new[from..to])));
            cost.bytes_copied += (to - from) as u64;
        }
    };

    // The window at `pos`, and whether it came from a stored sum.
    let seed = |pos: usize, cost: &mut Cost| match new_sums.get(pos / block_size) {
        Some(&Some(sum)) if pos.is_multiple_of(block_size) => {
            (RollingChecksum::from_digest(sum, block_size), true)
        }
        _ => {
            cost.bytes_rolled += block_size as u64;
            (RollingChecksum::new(&new[pos..pos + block_size]), false)
        }
    };

    if new.len() >= block_size {
        let (mut rc, mut seeded) = seed(0, cost);
        loop {
            let window = &new[pos..pos + block_size];
            let matched = index
                .get(rc.digest())
                .and_then(|candidates| confirm(window, candidates, cost));
            if let Some((mut offset, mut len)) = matched {
                let mut literal_end = pos;
                if let Some(old) = old {
                    literal_start += grow_last_copy(&mut ops, old, &new[literal_start..pos], cost);
                    let back = grow_backward(old, offset, &new[literal_start..pos], cost);
                    offset -= back;
                    len += back;
                    literal_end -= back as usize;
                }
                flush_literal(&mut ops, literal_start, literal_end, cost);
                ops.push(DeltaOp::Copy { offset, len });
                pos += block_size;
                literal_start = pos;
                if pos + block_size > new.len() {
                    break;
                }
                (rc, seeded) = seed(pos, cost);
            } else {
                if seeded {
                    // The walk never slides from a stored sum that found
                    // nothing: it rolls the window's own bytes and looks
                    // again where they disagree, so a bad sum costs this
                    // roll and not the matches after it.
                    seeded = false;
                    let rolled = RollingChecksum::new(window);
                    cost.bytes_rolled += block_size as u64;
                    if rolled != rc {
                        rc = rolled;
                        continue;
                    }
                }
                if pos + block_size >= new.len() {
                    break;
                }
                if pos + block_size + 8 <= new.len() {
                    let outs: [u8; 8] = new[pos..pos + 8].try_into().expect("8-byte out window");
                    let ins: [u8; 8] = new[pos + block_size..pos + block_size + 8]
                        .try_into()
                        .expect("8-byte in window");
                    let states = rc.peek8(&outs, &ins);
                    // Jump to the first plausible upcoming position, or
                    // past all 8 when none is; each skipped position is
                    // a proven miss and charges its one rolled byte.
                    let k = states
                        .iter()
                        .position(|s| index.plausible(s.digest()))
                        .unwrap_or(7);
                    rc = states[k];
                    cost.bytes_rolled += k as u64 + 1;
                    pos += k + 1;
                    continue;
                }
                rc.roll(new[pos], new[pos + block_size]);
                cost.bytes_rolled += 1;
                pos += 1;
            }
        }
    }
    if let Some(old) = old {
        literal_start += grow_last_copy(&mut ops, old, &new[literal_start..], cost);
    }
    flush_literal(&mut ops, literal_start, new.len(), cost);
    Delta::from_ops(ops)
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
    fn rsync_walk_ships_whole_blocks_around_an_edit() {
        // The sender does not hold the old file, so nothing grows a
        // confirmed block: the edited block and the old file's short
        // tail both ship as literals.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let old: Vec<u8> = (0..20_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let mut new = old.clone();
        new[5_000] ^= 0xFF;
        let (delta, _) = roundtrip(&old, &new, 4096);
        assert_eq!(
            delta.ops(),
            [
                DeltaOp::Copy {
                    offset: 0,
                    len: 4096
                },
                DeltaOp::Literal(new[4096..8192].to_vec().into()),
                DeltaOp::Copy {
                    offset: 8192,
                    len: 8192
                },
                DeltaOp::Literal(new[16_384..].to_vec().into()),
            ]
        );
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

    /// Runs the walk with the weak filter and with one that finds every
    /// digest plausible (so the walk never skips), and demands
    /// identical deltas and identical `Cost` totals — the skip must be
    /// decision-neutral at every boundary (tiny blocks, block sizes under
    /// the 8-byte lookahead, tails shorter than a word, dense matches).
    fn assert_filter_is_decision_neutral(old: &[u8], new: &[u8], bs: usize) {
        let params = DeltaParams::with_block_size(bs);
        let mut c_sig = Cost::new();
        let sig = signature(old, &params, &mut c_sig);
        let run = |index: &WeakIndex| {
            let mut cost = Cost::new();
            let delta = diff_with(
                new,
                None,
                bs,
                &[],
                index,
                &mut cost,
                |window, candidates, cost| {
                    let digest = md5(window);
                    cost.bytes_strong_hashed += window.len() as u64;
                    cost.ops += 1;
                    candidates
                        .iter()
                        .find(|&b| sig.strong[b as usize] == digest)
                        .map(|b| sig.block_range(b))
                },
            );
            (delta, cost)
        };
        let (d_plain, c_plain) = run(&sig.index.clone().unfiltered());
        let (d_filt, c_filt) = run(&sig.index);
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
}
