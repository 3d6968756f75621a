//! Weak-checksum candidate maps shared by the block-matching diffs.
//!
//! Three pieces live here:
//!
//! * [`CandidateSet`] — the value type of every weak map. Almost all weak
//!   checksums identify exactly one block, so the first candidate is stored
//!   inline and the overflow `Vec` is only allocated on a real collision.
//!   This removes one heap allocation per *block* of the old file compared
//!   to the previous `Vec<u32>`-per-entry representation.
//! * [`WeakFilter`] — a pair of 64 Kbit membership bitmaps over the two
//!   16-bit halves of the weak digest. A filter miss *proves* a weak-map
//!   miss (the filter is a superset of the map's key set), so the hot
//!   miss loops can skip the hash probe — and, with
//!   [`RollingChecksum::peek8`](crate::RollingChecksum::peek8), skip whole
//!   words of implausible positions — without ever changing a match
//!   decision.
//! * [`WeakIndex`] — the weak map and its filter, filled together, so the
//!   superset invariant holds by construction.

use std::collections::HashMap;

/// Block indices sharing one weak checksum, first candidate inline.
///
/// Iteration yields candidates in insertion order, which every builder in
/// this crate keeps equal to increasing block-index order, so a window
/// that matches several blocks takes the first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CandidateSet {
    first: u32,
    overflow: Vec<u32>,
}

impl CandidateSet {
    /// A set holding a single candidate, allocation-free.
    pub(crate) fn new(first: u32) -> Self {
        CandidateSet {
            first,
            overflow: Vec::new(),
        }
    }

    /// Appends a colliding candidate (allocates only now).
    pub(crate) fn push(&mut self, idx: u32) {
        self.overflow.push(idx);
    }

    /// Candidates in insertion (block-index) order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = u32> + '_ {
        std::iter::once(self.first).chain(self.overflow.iter().copied())
    }

    /// Number of candidates in the set.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        1 + self.overflow.len()
    }
}

/// Old-file blocks by weak digest, behind a [`WeakFilter`] over the same
/// digests: what the walk looks each window up in.
#[derive(Debug, Clone)]
pub(crate) struct WeakIndex {
    map: HashMap<u32, CandidateSet>,
    filter: WeakFilter,
}

impl WeakIndex {
    /// An empty index sized for `blocks` blocks.
    pub(crate) fn with_capacity(blocks: usize) -> Self {
        WeakIndex {
            map: HashMap::with_capacity(blocks),
            filter: WeakFilter::new(),
        }
    }

    /// Inserts block `idx` under `weak`, preserving block-index
    /// insertion order.
    pub(crate) fn insert(&mut self, weak: u32, idx: u32) {
        self.map
            .entry(weak)
            .and_modify(|set| set.push(idx))
            .or_insert_with(|| CandidateSet::new(idx));
        self.filter.insert(weak);
    }

    /// Whether some block *might* have digest `weak`. `false` is
    /// definitive.
    #[inline]
    pub(crate) fn plausible(&self, weak: u32) -> bool {
        self.filter.plausible(weak)
    }

    /// The blocks with digest `weak`. The filter answers a miss first; by
    /// its superset invariant the result equals a direct map probe.
    #[inline]
    pub(crate) fn get(&self, weak: u32) -> Option<&CandidateSet> {
        if !self.filter.plausible(weak) {
            return None;
        }
        self.map.get(&weak)
    }

    /// The same index with a filter that finds every digest plausible:
    /// a walk over it never skips, the byte-at-a-time reference.
    #[cfg(test)]
    pub(crate) fn unfiltered(mut self) -> Self {
        self.filter.lo.fill(u64::MAX);
        self.filter.hi.fill(u64::MAX);
        self
    }
}

/// A conservative membership test over weak digests: two 64 Kbit bitmaps,
/// one indexed by the low 16 bits of the digest (`a`, the byte sum) and
/// one by the high 16 bits (`b`, the positional sum).
///
/// The invariant the miss-skip optimization rests on: every weak digest
/// inserted sets both its bits, so `!plausible(weak)` **implies** the weak
/// map has no entry for `weak`. False positives (both bits set by
/// different digests) merely fall through to the map probe; false
/// negatives cannot occur, so consulting the filter first can never
/// change a lookup result — only skip provably-fruitless probes.
#[derive(Debug, Clone)]
pub(crate) struct WeakFilter {
    lo: Box<[u64; 1024]>,
    hi: Box<[u64; 1024]>,
}

impl WeakFilter {
    /// An empty filter (rejects everything).
    pub(crate) fn new() -> Self {
        WeakFilter {
            lo: Box::new([0u64; 1024]),
            hi: Box::new([0u64; 1024]),
        }
    }

    /// Marks `weak` as present.
    #[inline]
    pub(crate) fn insert(&mut self, weak: u32) {
        let a = (weak & 0xffff) as usize;
        let b = (weak >> 16) as usize;
        self.lo[a / 64] |= 1 << (a % 64);
        self.hi[b / 64] |= 1 << (b % 64);
    }

    /// Whether `weak` *might* be in the map. `false` is definitive.
    #[inline]
    pub(crate) fn plausible(&self, weak: u32) -> bool {
        let a = (weak & 0xffff) as usize;
        let b = (weak >> 16) as usize;
        (self.lo[a / 64] >> (a % 64)) & 1 == 1 && (self.hi[b / 64] >> (b % 64)) & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rolling::RollingChecksum;

    #[test]
    fn candidate_set_keeps_insertion_order() {
        let mut set = CandidateSet::new(3);
        set.push(7);
        set.push(11);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 7, 11]);
        assert_eq!(set.len(), 3);
    }

    #[test]
    fn first_candidate_is_allocation_free() {
        let set = CandidateSet::new(5);
        assert_eq!(set.overflow.capacity(), 0);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![5]);
    }

    #[test]
    fn filter_never_rejects_an_indexed_digest() {
        // The superset invariant: every digest actually in the map must be
        // plausible — including digests whose halves collide across blocks.
        let old: Vec<u8> = (0..5_000).map(|i| (i * 37 % 251) as u8).collect();
        let bs = 8;
        let mut index = WeakIndex::with_capacity(0);
        for (i, block) in old.chunks(bs).enumerate() {
            index.insert(RollingChecksum::new(block).digest(), i as u32);
        }
        for (i, block) in old.chunks(bs).enumerate() {
            let weak = RollingChecksum::new(block).digest();
            assert!(index.plausible(weak), "false negative at {weak:#x}");
            let candidates = index.get(weak).expect("indexed digest");
            assert!(candidates.iter().any(|b| b == i as u32));
        }
    }

    #[test]
    fn filter_rejects_definitively() {
        let mut f = WeakFilter::new();
        assert!(!f.plausible(0));
        assert!(!f.plausible(0xDEADBEEF));
        f.insert(0x0001_0002);
        assert!(f.plausible(0x0001_0002));
        // Same low half, absent high half: one bitmap hits, the other
        // rejects.
        assert!(!f.plausible(0x0099_0002));
        assert!(!f.plausible(0x0001_0099));
        // Cross-product false positive is allowed (and expected): after a
        // second insert, the halves of the two digests combine.
        f.insert(0x0099_0099);
        assert!(f.plausible(0x0001_0099));
    }

    #[test]
    fn filter_covers_bitmap_edges() {
        let mut f = WeakFilter::new();
        for weak in [0u32, 0xffff, 0xffff_0000, 0xffff_ffff, 0x0040_0040] {
            f.insert(weak);
            assert!(f.plausible(weak), "edge digest {weak:#x}");
        }
    }
}
