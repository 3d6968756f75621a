//! The paper's lightweight local delta encoding (§III-A).
//!
//! When the relation table triggers delta encoding, *both* the old and the
//! new version of the file are on the client (the old version survives as
//! the `dst` of a relation entry, e.g. Word's `t0`). Classic rsync was
//! designed for files on different machines and therefore pays for MD5
//! strong checksums; with both files local, a candidate match found by the
//! rolling checksum can instead be verified by **bitwise comparison**,
//! which short-circuits on the first differing byte and costs no hashing
//! at all.
//!
//! The same holds next to a confirmed block: the bytes around it can be
//! compared with the old file directly, so every confirmed match grows
//! bitwise into the literals on either side of it (DESIGN.md §10), and a
//! 1-byte edit ships 1 literal byte rather than a block.
//!
//! The emitted [`Delta`] is bit-for-bit compatible with
//! [`rsync::diff`](crate::rsync::diff)'s output format, so the cloud-side
//! apply path is shared.

use crate::cost::Cost;
use crate::delta_ops::{Delta, DeltaOp};
use crate::rolling::RollingChecksum;
use crate::rsync::diff_with;
use crate::weak_index::{CandidateSet, WeakIndex};
use crate::DeltaParams;

/// Indexes old-file blocks by weak checksum only: block `i` takes
/// `old_sums[i]` when that holds a sum, and is rolled (and charged) when
/// it does not.
///
/// Kept out of line: inlined into [`diff_with_sums`], its one caller, the
/// per-block checksum loop spills its vector constants and a 10 MB `diff`
/// measures 8 % slower (13.0 against 14.3 ms, medians of seven
/// alternating runs).
#[inline(never)]
fn index_old(old: &[u8], bs: usize, old_sums: &[Option<u32>], cost: &mut Cost) -> WeakIndex {
    let mut index = WeakIndex::with_capacity(old.len().div_ceil(bs));
    for (i, block) in old.chunks(bs).enumerate() {
        let weak = match old_sums.get(i) {
            Some(&Some(sum)) => sum,
            _ => {
                cost.bytes_rolled += block.len() as u64;
                cost.ops += 1;
                RollingChecksum::new(block).digest()
            }
        };
        index.insert(weak, i as u32);
    }
    index
}

/// Computes a [`Delta`] from `old` to `new` using rolling-checksum search
/// with bitwise confirmation (no strong checksums), each confirmed match
/// grown bitwise into its neighbouring literals.
///
/// Charges rolled and compared bytes to `cost`;
/// `cost.bytes_strong_hashed` is never incremented by this function —
/// that is the whole point.
pub fn diff(old: &[u8], new: &[u8], params: &DeltaParams, cost: &mut Cost) -> Delta {
    diff_with_sums(old, new, params, &[], &[], cost)
}

/// [`diff`], taking the block sums a caller already holds instead of
/// rolling them: `old_sums[i]` and `new_sums[i]` are the
/// [`RollingChecksum`] digests of block `i` (at `params.block_size`) of
/// `old` and `new`, or `None` where the caller has none. Past either
/// slice's end every block is rolled.
///
/// The old file is indexed from `old_sums`, and the walk seeds every
/// window that starts on a block boundary from `new_sums`. A wrong sum
/// can only cost matches, never correctness: every candidate is still
/// confirmed bitwise. With every sum right the delta equals [`diff`]'s,
/// and only `cost.bytes_rolled` and `cost.ops` fall.
pub fn diff_with_sums(
    old: &[u8],
    new: &[u8],
    params: &DeltaParams,
    old_sums: &[Option<u32>],
    new_sums: &[Option<u32>],
    cost: &mut Cost,
) -> Delta {
    let bs = params.block_size;
    let index = index_old(old, bs, old_sums, cost);
    diff_with(
        new,
        Some(old),
        bs,
        new_sums,
        &index,
        cost,
        |window, candidates, cost| confirm_bitwise(old, bs, window, candidates, cost),
    )
}

// Benchmark compat, no behaviour (DESIGN.md §10): `benchmark/src/probes.rs`
// names it; it goes with the benchmark's `api.rs` PR.
/// Compat: [`diff`]; `workers` is ignored.
pub fn diff_parallel(
    old: &[u8],
    new: &[u8],
    params: &DeltaParams,
    _workers: usize,
    cost: &mut Cost,
) -> Delta {
    diff(old, new, params, cost)
}

/// Tries `candidates` in block-index order until one bitwise-matches
/// `window`, charging each compare's exact cost to `cost`, and returns
/// that block's `(offset, len)` in `old`.
fn confirm_bitwise(
    old: &[u8],
    block_size: usize,
    window: &[u8],
    candidates: &CandidateSet,
    cost: &mut Cost,
) -> Option<(u64, u64)> {
    for b in candidates.iter() {
        let start = b as usize * block_size;
        let block = &old[start..(start + block_size).min(old.len())];
        let (equal, compared) = bitwise_eq(block, window);
        cost.bytes_compared += compared;
        cost.ops += 1;
        if equal {
            return Some((start as u64, block.len() as u64));
        }
    }
    None
}

/// Grows the copy that ends `ops`, if any, forward over the start of
/// `literal` by bitwise comparison with the old bytes after it, and
/// returns how many literal bytes it took.
pub(crate) fn grow_last_copy(
    ops: &mut [DeltaOp],
    old: &[u8],
    literal: &[u8],
    cost: &mut Cost,
) -> usize {
    let Some(DeltaOp::Copy { offset, len }) = ops.last_mut() else {
        return 0;
    };
    let after = &old[(*offset + *len) as usize..];
    let grown = common_prefix(after, literal);
    cost.bytes_compared += examined(grown, after.len().min(literal.len()));
    *len += grown as u64;
    grown
}

/// How many bytes at the end of `literal` equal the old bytes before
/// `offset`: what a copy starting at `offset` grows backward by.
pub(crate) fn grow_backward(old: &[u8], offset: u64, literal: &[u8], cost: &mut Cost) -> u64 {
    let before = &old[..offset as usize];
    let grown = common_suffix(before, literal);
    cost.bytes_compared += examined(grown, before.len().min(literal.len()));
    grown as u64
}

/// Bytes a short-circuiting scan examined to find `equal` equal bytes out
/// of `limit`: the first differing byte counts too.
fn examined(equal: usize, limit: usize) -> u64 {
    (equal + usize::from(equal < limit)) as u64
}

/// Compares two slices, returning whether they are equal and how many
/// bytes were examined before the answer was known.
///
/// The byte count is *exact*: on a mismatch it is the position of the
/// first differing byte plus one — precisely what a byte-at-a-time
/// short-circuiting scan would report. Slices of unequal length differ
/// at no charge.
fn bitwise_eq(a: &[u8], b: &[u8]) -> (bool, u64) {
    if a.len() != b.len() {
        return (false, 0);
    }
    let equal = common_prefix(a, b);
    (equal == a.len(), examined(equal, a.len()))
}

/// Length of the common prefix of `a` and `b`, compared 8 bytes at a
/// time: the XOR of two little-endian words has its lowest set bit in
/// the first byte that differs.
#[inline]
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    let mut len = 0;
    for (x, y) in a.chunks_exact(8).zip(b.chunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return len + diff.trailing_zeros() as usize / 8;
        }
        len += 8;
    }
    len + a[len..]
        .iter()
        .zip(&b[len..])
        .take_while(|(x, y)| x == y)
        .count()
}

/// Length of the common suffix of `a` and `b`, compared 8 bytes at a
/// time from the end: the XOR of two little-endian words has its highest
/// set bit in the last byte that differs.
#[inline]
pub(crate) fn common_suffix(a: &[u8], b: &[u8]) -> usize {
    let n = a.len().min(b.len());
    let (a, b) = (&a[a.len() - n..], &b[b.len() - n..]);
    let mut len = 0;
    for (x, y) in a.rchunks_exact(8).zip(b.rchunks_exact(8)) {
        let diff = u64::from_le_bytes(x.try_into().expect("8-byte chunk"))
            ^ u64::from_le_bytes(y.try_into().expect("8-byte chunk"));
        if diff != 0 {
            return len + diff.leading_zeros() as usize / 8;
        }
        len += 8;
    }
    len + a[..n - len]
        .iter()
        .rev()
        .zip(b[..n - len].iter().rev())
        .take_while(|(x, y)| x == y)
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(old: &[u8], new: &[u8], bs: usize) -> (Delta, Cost) {
        let mut cost = Cost::new();
        let delta = diff(old, new, &DeltaParams::with_block_size(bs), &mut cost);
        assert_eq!(delta.apply(old).unwrap(), new);
        (delta, cost)
    }

    /// Reference byte-at-a-time comparison with the same contract.
    fn bitwise_eq_reference(a: &[u8], b: &[u8]) -> (bool, u64) {
        if a.len() != b.len() {
            return (false, 0);
        }
        match a.iter().zip(b.iter()).position(|(x, y)| x != y) {
            Some(idx) => (false, idx as u64 + 1),
            None => (true, a.len() as u64),
        }
    }

    #[test]
    fn never_strong_hashes() {
        let old = b"hello world, this is a longer buffer".repeat(100);
        let mut new = old.clone();
        new[50] = b'#';
        let (_, cost) = roundtrip(&old, &new, 64);
        assert_eq!(cost.bytes_strong_hashed, 0);
        assert!(cost.bytes_compared > 0);
    }

    #[test]
    fn identical_files_full_copy() {
        let data = vec![42u8; 8192];
        let (delta, _) = roundtrip(&data, &data, 512);
        assert_eq!(delta.literal_bytes(), 0);
        assert_eq!(delta.copy_bytes(), 8192);
    }

    #[test]
    fn matches_rsync_semantics_on_shifted_data() {
        let old: Vec<u8> = (0..8192u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut new = old.clone();
        new.splice(400..400, [0xEE; 13]);
        let (delta, _) = roundtrip(&old, &new, 128);
        assert!(delta.copy_bytes() as usize > old.len() * 9 / 10);
    }

    #[test]
    fn disjoint_files_are_all_literal() {
        let old = vec![0u8; 1000];
        let new = vec![1u8; 1000];
        let (delta, _) = roundtrip(&old, &new, 100);
        assert_eq!(delta.copy_bytes(), 0);
        assert_eq!(delta.literal_bytes(), 1000);
    }

    #[test]
    fn empty_edges() {
        roundtrip(b"", b"", 16);
        roundtrip(b"", b"xyz", 16);
        roundtrip(b"xyz", b"", 16);
        roundtrip(b"tiny", b"tin", 16);
    }

    #[test]
    fn comparison_short_circuits() {
        // All-zero old; new block differs in the first byte, so only one
        // byte per candidate comparison should be charged (plus full-block
        // compares for real matches).
        let old = vec![0u8; 1024];
        let mut new = vec![0u8; 1024];
        for (i, byte) in new.iter_mut().enumerate() {
            if i % 2 == 0 {
                *byte = 1;
            }
        }
        let (_, cost) = roundtrip(&old, &new, 64);
        // Comparisons happened but far fewer bytes than rolled.
        assert!(cost.bytes_compared < cost.bytes_rolled);
    }

    #[test]
    fn cheaper_than_rsync_on_same_input() {
        use crate::rsync;
        let old: Vec<u8> = (0..50_000u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut new = old.clone();
        new[12_345] ^= 0xFF;

        let params = DeltaParams::with_block_size(4096);
        let mut c_local = Cost::new();
        let d_local = diff(&old, &new, &params, &mut c_local);

        let mut c_rsync = Cost::new();
        let sig = rsync::signature(&old, &params, &mut c_rsync);
        let d_rsync = rsync::diff(&sig, &new, &params, &mut c_rsync);

        assert_eq!(d_local.apply(&old).unwrap(), d_rsync.apply(&old).unwrap());
        assert_eq!(c_local.bytes_strong_hashed, 0);
        assert!(c_rsync.bytes_strong_hashed >= old.len() as u64);
    }

    #[test]
    fn bitwise_eq_matches_reference_at_all_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 4095, 4096] {
            let a: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            // Equal slices: full length charged.
            assert_eq!(bitwise_eq(&a, &a), (true, len as u64), "equal len {len}");
            assert_eq!(bitwise_eq(&a, &a), bitwise_eq_reference(&a, &a));
            // Mismatch at every position: exact first-diff accounting.
            for at in 0..len {
                let mut b = a.clone();
                b[at] ^= 0x80;
                let got = bitwise_eq(&a, &b);
                assert_eq!(got, (false, at as u64 + 1), "len {len} mismatch at {at}");
                assert_eq!(got, bitwise_eq_reference(&a, &b));
            }
        }
    }

    #[test]
    fn bitwise_eq_mismatch_at_word_boundaries() {
        // The boundary cases the word-wise fast path must not miscount:
        // last byte of a word, first byte of the next, and the scalar tail.
        let len = 4096;
        let a = vec![0xA5u8; len];
        for at in [0usize, 6, 7, 8, 9, 4087, 4088, 4089, 4095] {
            let mut b = a.clone();
            b[at] = !b[at];
            assert_eq!(bitwise_eq(&a, &b), (false, at as u64 + 1), "boundary {at}");
        }
    }

    #[test]
    fn bitwise_eq_length_mismatch_is_free() {
        assert_eq!(bitwise_eq(b"abc", b"abcd"), (false, 0));
    }

    /// Reference byte-at-a-time common suffix.
    fn common_suffix_reference(a: &[u8], b: &[u8]) -> usize {
        a.iter()
            .rev()
            .zip(b.iter().rev())
            .take_while(|(x, y)| x == y)
            .count()
    }

    #[test]
    fn common_suffix_matches_reference_at_all_lengths() {
        for len in [0usize, 1, 7, 8, 9, 15, 16, 17, 4095, 4096] {
            let a: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
            assert_eq!(common_suffix(&a, &a), len, "equal len {len}");
            // Mismatch at every position, counted from the end.
            for at in 0..len {
                let mut b = a.clone();
                b[at] ^= 0x80;
                let got = common_suffix(&a, &b);
                assert_eq!(got, len - at - 1, "len {len} mismatch at {at}");
                assert_eq!(got, common_suffix_reference(&a, &b));
            }
            // Unequal lengths align at the ends.
            let mut longer = vec![0xEEu8; 5];
            longer.extend_from_slice(&a);
            assert_eq!(common_suffix(&longer, &a), len, "prefixed len {len}");
            assert_eq!(
                common_suffix(&a, &longer),
                common_suffix_reference(&a, &longer)
            );
        }
    }

    /// Seeded incompressible bytes: no two 4 KiB windows share a weak
    /// checksum by accident, so the walk confirms only real matches.
    fn noise(len: usize) -> Vec<u8> {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn one_byte_flip_ships_one_literal_byte() {
        let old = noise(20_000);
        let mut new = old.clone();
        new[5_000] ^= 0xFF;
        let (delta, _) = roundtrip(&old, &new, 4096);
        assert_eq!(
            delta.ops(),
            [
                DeltaOp::Copy {
                    offset: 0,
                    len: 5_000
                },
                DeltaOp::Literal(new[5_000..5_001].to_vec().into()),
                DeltaOp::Copy {
                    offset: 5_001,
                    len: 14_999
                },
            ]
        );
    }

    #[test]
    fn unchanged_short_tail_is_copied() {
        // The old file's short final block never matches a full window;
        // the copy before it grows forward through it instead.
        let old = noise(4096 + 1000);
        let (delta, cost) = roundtrip(&old, &old, 4096);
        assert_eq!(
            delta.ops(),
            [DeltaOp::Copy {
                offset: 0,
                len: 5_096
            }]
        );
        assert_eq!(cost.bytes_copied, 0);
    }

    mod stored_sums {
        use super::*;
        use proptest::prelude::*;

        /// Seeded bytes drawn from an `alphabet`-letter alphabet: a small
        /// one makes weak collisions and repeated blocks common.
        fn bytes(len: usize, seed: u64, alphabet: u16) -> Vec<u8> {
            let mut state = seed | 1;
            (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    ((state >> 33) % u64::from(alphabet)) as u8
                })
                .collect()
        }

        /// `old` after each `(at, kind, len)` edit in turn: insert `len`
        /// bytes (kind 0), insert whole blocks at a block boundary (1),
        /// delete (2) or overwrite (3).
        fn edited(old: &[u8], edits: &[(usize, u8, usize)], bs: usize, seed: u64) -> Vec<u8> {
            let mut new = old.to_vec();
            for (k, &(at, kind, len)) in edits.iter().enumerate() {
                let fresh = bytes(len, seed ^ k as u64, 256);
                let at = at % (new.len() + 1);
                match kind {
                    0 => drop(new.splice(at..at, fresh)),
                    1 => {
                        let at = at / bs * bs;
                        let blocks = bytes(bs * (1 + len % 3), seed ^ k as u64, 256);
                        drop(new.splice(at..at, blocks));
                    }
                    2 => drop(new.drain(at..(at + len).min(new.len()))),
                    _ => {
                        let end = (at + len).min(new.len());
                        new[at..end].copy_from_slice(&fresh[..end - at]);
                    }
                }
            }
            new
        }

        fn sums(data: &[u8], bs: usize) -> Vec<Option<u32>> {
            data.chunks(bs)
                .map(|block| Some(RollingChecksum::new(block).digest()))
                .collect()
        }

        /// `sums` with each entry kept, dropped or replaced by `rot`'s
        /// draw, and the list cut short or run past the file's end.
        fn damaged(mut sums: Vec<Option<u32>>, rot: u64, len_shift: u8) -> Vec<Option<u32>> {
            let mut state = rot | 1;
            for sum in &mut sums {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                match (state >> 60) % 4 {
                    0 => {}
                    1 => *sum = None,
                    2 => *sum = Some((state >> 16) as u32),
                    _ => *sum = sum.map(|s| s ^ 1),
                }
            }
            match len_shift % 3 {
                0 => sums.truncate(sums.len() / 2),
                1 => sums.extend([Some(0), None, Some(u32::MAX)]),
                _ => {}
            }
            sums
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(128))]

            #[test]
            fn correct_sums_change_only_the_rolled_bytes(
                old_len in 0usize..6_000,
                seed in any::<u64>(),
                alphabet in 1u16..257,
                bs in 4usize..96,
                edits in proptest::collection::vec((any::<usize>(), 0u8..4, 0usize..300), 0..6),
            ) {
                let params = DeltaParams::with_block_size(bs);
                let old = bytes(old_len, seed, alphabet);
                let new = edited(&old, &edits, bs, seed);
                let mut plain_cost = Cost::new();
                let plain = diff(&old, &new, &params, &mut plain_cost);
                let mut cost = Cost::new();
                let stored =
                    diff_with_sums(&old, &new, &params, &sums(&old, bs), &sums(&new, bs), &mut cost);
                prop_assert_eq!(stored.ops(), plain.ops());
                prop_assert!(cost.bytes_rolled <= plain_cost.bytes_rolled);
                cost.bytes_rolled = plain_cost.bytes_rolled;
                cost.ops = plain_cost.ops;
                prop_assert_eq!(cost, plain_cost);
            }

            #[test]
            fn wrong_or_missing_sums_still_apply_exactly(
                old_len in 0usize..6_000,
                seed in any::<u64>(),
                alphabet in 1u16..257,
                bs in 4usize..96,
                edits in proptest::collection::vec((any::<usize>(), 0u8..4, 0usize..300), 0..6),
                rot in any::<u64>(),
                len_shift in any::<u8>(),
            ) {
                let params = DeltaParams::with_block_size(bs);
                let old = bytes(old_len, seed, alphabet);
                let new = edited(&old, &edits, bs, seed);
                let old_sums = damaged(sums(&old, bs), rot, len_shift);
                let new_sums = damaged(sums(&new, bs), !rot, len_shift / 3);
                let mut cost = Cost::new();
                let delta = diff_with_sums(&old, &new, &params, &old_sums, &new_sums, &mut cost);
                prop_assert_eq!(delta.apply(&old).unwrap(), &new[..]);
                // A bad sum on the new side costs a roll, never a match.
                let mut cost = Cost::new();
                let new_side = diff_with_sums(&old, &new, &params, &sums(&old, bs), &new_sums, &mut cost);
                prop_assert_eq!(new_side.ops(), diff(&old, &new, &params, &mut Cost::new()).ops());
            }
        }
    }

    #[test]
    fn extension_charges_every_examined_byte() {
        let old = noise(20_000);
        let mut new = old.clone();
        new[5_000] ^= 0xFF;
        let (_, cost) = roundtrip(&old, &new, 4096);
        // Three confirmed blocks (0, 2 and 3), then: block 0's copy grows
        // forward over new[4096..8192] and stops at the flipped byte
        // (904 equal + 1); block 2's copy grows backward over the 3192
        // bytes left and stops at it (3191 + 1); at the end block 3's copy
        // grows forward over the 3616-byte tail (all equal).
        assert_eq!(cost.bytes_compared, 3 * 4096 + 905 + 3192 + 3616);
        assert_eq!(cost.bytes_copied, 1);
    }
}
