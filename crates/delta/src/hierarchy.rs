//! Hierarchical coarse→fine reconciliation for huge files.
//!
//! The block matchers in [`local`](crate::local) / [`rsync`](crate::rsync)
//! walk a rolling window over the *entire* new file, so a 10 GB file with
//! a few divergent spans still pays the full O(n) probe walk. Following
//! the recursive content-dependent shingling idea (Song & Trachtenberg),
//! this module first reconciles the two files at coarse granularity and
//! only hands the ranges that actually diverge to the byte-level walk:
//!
//! 1. **Prescans** — a word-wise same-offset comparison of the two files
//!    finds identical runs at memcmp speed, covering the dominant
//!    huge-file pattern (in-place page writes to VM images or
//!    databases); a second pass at offset `new_len - old_len` resolves
//!    the suffix a lone insertion or truncation shifted.
//! 2. **Shingle levels** — the ranges the prescan could not pair are
//!    partitioned with content-defined cut points (the CDC gear hash via
//!    [`cdc::cut_spans_sparse`](crate::cdc)) at 1–3 granularities, coarse
//!    to fine (~4 MiB → ~64 KiB → ~6 KiB by default). Each new-side
//!    chunk is looked up by a 64-bit span hash in a map of the old side's
//!    chunks and verified byte-for-byte, which catches content that an
//!    insertion *shifted*. Chunks still unmatched after the finest level
//!    are the divergent leaf ranges.
//! 3. **Exact replay** ([`hier_replay`]) — the sequential greedy walk
//!    is then reproduced position by position. Inside a verified span the
//!    probe question ("does this window match an old block, at what
//!    confirm cost?") is answered from the *old* file: the window equals
//!    an old-side slice byte-for-byte, so at block-aligned old offsets a
//!    memoized per-block self-probe answers in O(1) and the walk jumps a
//!    whole block without touching the new bytes. Divergent ranges are
//!    scanned by the parallel matcher's segment scanner (in parallel,
//!    fed into the replay as segments finish) and handled exactly like
//!    parallel seams.
//!
//! The output [`Delta`](crate::Delta) and the charged [`Cost`] totals are
//! **byte-identical** to the sequential greedy matcher for every input —
//! the property suite in `tests/properties.rs` enforces it. All hierarchy
//! work (prescan, gear cuts, span hashes, verify compares, self-probe
//! windows) is wall-clock overhead accounted separately in
//! [`HierarchyStats::overhead`], following the PR 3 precedent that
//! speculative work the greedy walk never performs is not charged to the
//! reproducible cost model.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::cdc::{cut_spans_sparse, CdcParams};
use crate::cost::Cost;
use crate::delta_ops::{Delta, DeltaBuilder};
use crate::parallel::{scan_segment, ProbeOutcome, ScanTable};
use crate::rolling::RollingChecksum;

/// Maximum number of shingle levels (coarse → fine).
pub const MAX_LEVELS: usize = 3;

/// Tuning for the hierarchical matcher. `Copy` so it can ride inside
/// [`DeltaParams`](crate::DeltaParams).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HierarchyParams {
    /// Shingle levels, coarse to fine; `None` entries are unused. The
    /// level fan-out knob: more levels match moved content at finer
    /// granularity at the price of extra old-side passes.
    pub levels: [Option<CdcParams>; MAX_LEVELS],
    /// New files smaller than this take the plain matcher — the shingle
    /// tree only pays off once the probe walk dominates (the huge-file
    /// analogue of `min_parallel_bytes`).
    pub min_file_bytes: usize,
}

impl HierarchyParams {
    /// Default minimum file size for the hierarchical path (64 MiB).
    pub const DEFAULT_MIN_FILE_BYTES: usize = 64 << 20;

    /// The default shingle ladder: ~4 MiB, ~64 KiB and ~6 KiB average
    /// chunks (`avg = min_size + 2^mask_bits`).
    pub const DEFAULT_LEVELS: [CdcParams; MAX_LEVELS] = [
        CdcParams {
            min_size: 2 << 20,
            mask_bits: 21,
            max_size: 16 << 20,
        },
        CdcParams {
            min_size: 32 << 10,
            mask_bits: 15,
            max_size: 256 << 10,
        },
        CdcParams {
            min_size: 2 << 10,
            mask_bits: 12,
            max_size: 32 << 10,
        },
    ];

    /// Parameters using the first `n` default levels (1..=3).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`MAX_LEVELS`].
    pub fn with_levels(n: usize) -> Self {
        assert!(
            (1..=MAX_LEVELS).contains(&n),
            "hierarchy levels must be 1..={MAX_LEVELS}"
        );
        let mut levels = [None; MAX_LEVELS];
        for (slot, params) in levels.iter_mut().zip(Self::DEFAULT_LEVELS).take(n) {
            *slot = Some(params);
        }
        HierarchyParams {
            levels,
            min_file_bytes: Self::DEFAULT_MIN_FILE_BYTES,
        }
    }

    /// Parameters with a custom level ladder (tests use tiny chunk sizes
    /// to exercise the tree on kilobyte buffers).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or longer than [`MAX_LEVELS`].
    pub fn from_levels(levels: &[CdcParams]) -> Self {
        assert!(
            (1..=MAX_LEVELS).contains(&levels.len()),
            "hierarchy levels must be 1..={MAX_LEVELS}"
        );
        let mut out = [None; MAX_LEVELS];
        for (slot, params) in out.iter_mut().zip(levels.iter()) {
            *slot = Some(*params);
        }
        HierarchyParams {
            levels: out,
            min_file_bytes: Self::DEFAULT_MIN_FILE_BYTES,
        }
    }

    /// Overrides the minimum file size gate (0 forces the hierarchical
    /// path on any input; tests use this).
    pub fn with_min_file_bytes(mut self, min_file_bytes: usize) -> Self {
        self.min_file_bytes = min_file_bytes;
        self
    }

    /// The configured levels, coarse to fine.
    pub fn level_params(&self) -> impl Iterator<Item = CdcParams> + '_ {
        self.levels.iter().filter_map(|l| *l)
    }
}

impl Default for HierarchyParams {
    fn default() -> Self {
        Self::with_levels(2)
    }
}

/// What the hierarchical matcher did on one diff, plus the wall-clock
/// overhead it spent doing it. Accumulated per thread; drained with
/// [`take_hierarchy_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HierarchyStats {
    /// Hierarchical diffs that actually engaged (passed the size gate).
    pub diffs: u64,
    /// Identical runs accepted by the word-wise prescans (same-offset,
    /// plus the length-difference shift probe).
    pub aligned_runs: u64,
    /// Chunks matched wholesale per shingle level, coarse to fine.
    pub level_chunks_matched: [u64; MAX_LEVELS],
    /// New-file bytes inside wholesale-accepted spans — bytes the greedy
    /// walk fast-forwards over instead of byte-walking.
    pub bytes_skipped: u64,
    /// New-file bytes left to the byte-level leaf walk.
    pub leaf_walk_bytes: u64,
    /// Wall-clock hierarchy work, in the same units as the matcher's
    /// [`Cost`]: prescan and verify compares (`bytes_compared`), gear
    /// cuts (`bytes_chunked`), span hashes (`bytes_strong_hashed`),
    /// self-probe window checksums (`bytes_rolled`). Never merged into
    /// the diff's own `Cost` — that one stays byte-identical to the
    /// sequential matcher's by contract.
    pub overhead: Cost,
}

impl HierarchyStats {
    /// Total spans accepted wholesale across the prescan and every level
    /// (the `hierarchy_levels_matched` metric).
    pub fn levels_matched(&self) -> u64 {
        self.aligned_runs + self.level_chunks_matched.iter().sum::<u64>()
    }

    /// Whether any hierarchical diff contributed to these stats.
    pub fn engaged(&self) -> bool {
        self.diffs > 0
    }

    /// Accumulates `other` into `self`.
    pub fn merge(&mut self, other: &HierarchyStats) {
        self.diffs += other.diffs;
        self.aligned_runs += other.aligned_runs;
        for (a, b) in self
            .level_chunks_matched
            .iter_mut()
            .zip(other.level_chunks_matched)
        {
            *a += b;
        }
        self.bytes_skipped += other.bytes_skipped;
        self.leaf_walk_bytes += other.leaf_walk_bytes;
        self.overhead.merge(&other.overhead);
    }
}

thread_local! {
    static STATS: RefCell<HierarchyStats> = RefCell::new(HierarchyStats::default());
}

/// Drains the [`HierarchyStats`] accumulated by hierarchical diffs on the
/// *current thread* since the last call.
///
/// The diff entry points keep their signatures free of out-params by
/// accumulating here; callers that export metrics take the stats right
/// after the diff call, on the same thread that ran it.
pub fn take_hierarchy_stats() -> HierarchyStats {
    STATS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// A verified identical region: `len` bytes at `new_start` of the new
/// file equal to the bytes at `old_start` of the old file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SpanPair {
    pub new_start: usize,
    pub old_start: usize,
    pub len: usize,
}

/// 64-bit span fingerprint, word-wise FNV-style. Collisions are harmless
/// — every map hit is verified byte-for-byte before a span is accepted —
/// so speed beats cryptographic strength here.
fn span_hash(data: &[u8]) -> u64 {
    const K: u64 = 0x100000001b3;
    let mut h = 0xcbf29ce484222325u64 ^ (data.len() as u64).wrapping_mul(K);
    let mut words = data.chunks_exact(8);
    for w in words.by_ref() {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(K);
    }
    for &b in words.remainder() {
        h = (h ^ b as u64).wrapping_mul(K);
    }
    h ^ (h >> 32)
}

/// Word-wise equal-run scan: maximal runs of `a[i..] == b[i..]` at least
/// `min_run` bytes long, over the common prefix length of the two views.
/// Run bounds are word-aligned at the start and byte-exact at the end —
/// coverage, not correctness, is at stake, so the cheap scan wins.
fn equal_runs(a: &[u8], b: &[u8], min_run: usize) -> Vec<(usize, usize)> {
    let common = a.len().min(b.len());
    let mut runs = Vec::new();
    let mut run_start: Option<usize> = None;
    let words = common / 8;
    let close = |start: usize, end: usize, runs: &mut Vec<(usize, usize)>| {
        if end - start >= min_run {
            runs.push((start, end));
        }
    };
    for w in 0..words {
        let i = w * 8;
        let x = u64::from_le_bytes(a[i..i + 8].try_into().expect("8-byte chunk"));
        let y = u64::from_le_bytes(b[i..i + 8].try_into().expect("8-byte chunk"));
        if x == y {
            if run_start.is_none() {
                run_start = Some(i);
            }
        } else if let Some(start) = run_start.take() {
            // Extend byte-exactly into the mismatching word.
            let extra = ((x ^ y).trailing_zeros() / 8) as usize;
            close(start, i + extra, &mut runs);
        }
    }
    if let Some(start) = run_start {
        // Extend through the byte tail past the last full word.
        let mut end = words * 8;
        while end < common && a[end] == b[end] {
            end += 1;
        }
        close(start, end, &mut runs);
    }
    runs
}

/// Same-offset prescan: identical runs of `old[i..] == new[i..]`.
fn aligned_runs(old: &[u8], new: &[u8], min_run: usize, stats: &mut HierarchyStats) -> Vec<SpanPair> {
    stats.overhead.bytes_compared += old.len().min(new.len()) as u64;
    let runs: Vec<SpanPair> = equal_runs(old, new, min_run)
        .into_iter()
        .map(|(s, e)| SpanPair {
            new_start: s,
            old_start: s,
            len: e - s,
        })
        .collect();
    stats.aligned_runs += runs.len() as u64;
    runs
}

/// Prescan at a fixed shift: compares `new[p]` against `old[p - shift]`
/// over the still-uncovered ranges only. A single insertion (or
/// truncation) of `s` bytes shifts everything after it by exactly
/// `s = new_len - old_len`, so probing that one offset catches the whole
/// shifted suffix at memcmp speed and the shingle ladder never pays its
/// gear pass over two near-identical files for the dominant
/// prepend/append pattern.
fn shifted_runs(
    old: &[u8],
    new: &[u8],
    shift: isize,
    min_run: usize,
    pending: &[(usize, usize)],
    stats: &mut HierarchyStats,
) -> Vec<SpanPair> {
    // Positions p where old[p - shift] exists.
    let lo = shift.max(0) as usize;
    let hi = (old.len() as isize + shift).clamp(0, new.len() as isize) as usize;
    let mut runs = Vec::new();
    for &(r0, r1) in pending {
        let p0 = r0.max(lo);
        let p1 = r1.min(hi);
        if p1 <= p0 {
            continue;
        }
        let q0 = (p0 as isize - shift) as usize;
        let len = p1 - p0;
        stats.overhead.bytes_compared += len as u64;
        for (s, e) in equal_runs(&old[q0..q0 + len], &new[p0..p0 + len], min_run) {
            runs.push(SpanPair {
                new_start: p0 + s,
                old_start: q0 + s,
                len: e - s,
            });
        }
    }
    stats.aligned_runs += runs.len() as u64;
    runs
}

/// The byte ranges of `new` not covered by `spans` (which must be sorted
/// and non-overlapping).
fn uncovered_ranges(spans: &[SpanPair], new_len: usize) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    let mut at = 0usize;
    for s in spans {
        if s.new_start > at {
            out.push((at, s.new_start));
        }
        at = s.new_start + s.len;
    }
    if at < new_len {
        out.push((at, new_len));
    }
    out
}

/// Computes the verified identical spans between `old` and `new`:
/// aligned prescan first, then the configured shingle levels over
/// whatever remains. Returned spans are sorted by `new_start`,
/// non-overlapping in `new`, merged where contiguous in both files, and
/// at least `block_size` long (shorter matches cannot seed a
/// fast-forward window and are left to the leaf walk).
pub(crate) fn compute_spans(
    old: &[u8],
    new: &[u8],
    block_size: usize,
    hp: &HierarchyParams,
    stats: &mut HierarchyStats,
) -> Vec<SpanPair> {
    let mut spans = aligned_runs(old, new, 4 * block_size, stats);
    let mut pending = uncovered_ranges(&spans, new.len());
    // Length-difference shift probe: a lone insertion or truncation moves
    // every byte after it by exactly `new_len - old_len`, so one more
    // word-wise pass at that offset resolves whole shifted suffixes
    // before the (much costlier) shingle levels get involved.
    let shift = new.len() as isize - old.len() as isize;
    if shift != 0 && !pending.is_empty() {
        let shifted = shifted_runs(old, new, shift, 4 * block_size, &pending, stats);
        if !shifted.is_empty() {
            spans.extend(shifted);
            spans.sort_by_key(|s| s.new_start);
            pending = uncovered_ranges(&spans, new.len());
        }
    }
    for (level, params) in hp.level_params().enumerate() {
        let pending_bytes: usize = pending.iter().map(|(a, b)| b - a).sum();
        if pending.is_empty() {
            break;
        }
        // Cost-model gate: indexing the whole old file at this level
        // costs an old-side pass; descending only pays when the pending
        // ranges would otherwise leaf-walk more work than that pass.
        if pending_bytes.saturating_mul(8) < old.len() {
            break;
        }
        // Old-side shingle map at this level: (hash, len) -> first offset.
        let old_cuts = cut_spans_sparse(old, &params, &mut stats.overhead.bytes_chunked);
        let mut map: HashMap<(u64, u64), u64> = HashMap::with_capacity(old_cuts.len());
        for c in &old_cuts {
            let bytes = c.slice(old);
            stats.overhead.bytes_strong_hashed += c.len;
            map.entry((span_hash(bytes), c.len)).or_insert(c.offset);
        }
        let mut still_pending = Vec::new();
        for &(r0, r1) in &pending {
            let range = &new[r0..r1];
            let cuts = cut_spans_sparse(range, &params, &mut stats.overhead.bytes_chunked);
            for c in &cuts {
                let bytes = c.slice(range);
                stats.overhead.bytes_strong_hashed += c.len;
                let matched = map.get(&(span_hash(bytes), c.len)).copied().and_then(|off| {
                    let candidate = &old[off as usize..off as usize + bytes.len()];
                    stats.overhead.bytes_compared += c.len;
                    (candidate == bytes).then_some(off as usize)
                });
                if let Some(old_start) = matched {
                    stats.level_chunks_matched[level] += 1;
                    spans.push(SpanPair {
                        new_start: r0 + c.offset as usize,
                        old_start,
                        len: c.len as usize,
                    });
                } else {
                    still_pending.push((r0 + c.offset as usize, r0 + (c.offset + c.len) as usize));
                }
            }
        }
        pending = still_pending;
    }
    spans.sort_by_key(|s| s.new_start);
    // Merge spans contiguous in both files, then drop the ones too short
    // to hold a window.
    let mut merged: Vec<SpanPair> = Vec::with_capacity(spans.len());
    for s in spans {
        if let Some(last) = merged.last_mut() {
            if last.new_start + last.len == s.new_start && last.old_start + last.len == s.old_start
            {
                last.len += s.len;
                continue;
            }
        }
        merged.push(s);
    }
    merged.retain(|s| s.len >= block_size);
    stats.bytes_skipped += merged.iter().map(|s| s.len as u64).sum::<u64>();
    stats.leaf_walk_bytes +=
        new.len() as u64 - merged.iter().map(|s| s.len as u64).sum::<u64>();
    merged
}

/// The window-position ranges the leaf walk must actually scan: the
/// complement of the spans' *safe* regions (positions whose whole window
/// lies inside a span) over `[0, new_len - block_size + 1)`.
fn gap_position_ranges(
    spans: &[SpanPair],
    new_len: usize,
    block_size: usize,
) -> Vec<(usize, usize)> {
    if new_len < block_size {
        return Vec::new();
    }
    let positions = new_len - block_size + 1;
    let mut out = Vec::new();
    let mut at = 0usize;
    for s in spans {
        // Safe positions of this span: [new_start, new_start + len - bs].
        let safe_start = s.new_start.min(positions);
        let safe_end = (s.new_start + s.len - block_size + 1).min(positions);
        if safe_start > at {
            out.push((at, safe_start));
        }
        at = at.max(safe_end);
    }
    if at < positions {
        out.push((at, positions));
    }
    out
}

/// Splits the gap ranges into roughly `workers`-balanced scan segments.
fn split_gap_segments(gaps: &[(usize, usize)], workers: usize) -> Vec<(usize, usize)> {
    let total: usize = gaps.iter().map(|(a, b)| b - a).sum();
    if total == 0 {
        return Vec::new();
    }
    let target = total.div_ceil(workers.max(1)).max(16 * 1024);
    let mut out = Vec::new();
    for &(a, b) in gaps {
        let mut start = a;
        while start < b {
            let end = (start + target).min(b);
            out.push((start, end));
            start = end;
        }
    }
    out
}

/// Supplies scan-table data to the replay walk, possibly incrementally.
trait TableFeed {
    /// Blocks until the table covers window position `pos`, then returns
    /// the records and unprobed intervals accumulated so far. Both stay
    /// append-only and position-sorted across calls, so callers may keep
    /// cursors.
    fn ensure(&mut self, pos: usize) -> &ScanTable;
}

/// A [`TableFeed`] over an already-complete scan table.
struct ReadyFeed<'a>(&'a ScanTable);

impl TableFeed for ReadyFeed<'_> {
    fn ensure(&mut self, _pos: usize) -> &ScanTable {
        self.0
    }
}

/// Incremental feed over the gap scan segments: per-segment tables
/// arrive over a channel in whatever order the scan workers finish;
/// `ensure` splices them in segment order so the replay only ever sees
/// an append-only, position-sorted prefix.
struct GapFeed<'a> {
    bounds: &'a [(usize, usize)],
    rx: std::sync::mpsc::Receiver<(usize, ScanTable)>,
    pending: Vec<Option<ScanTable>>,
    next: usize,
    acc: ScanTable,
}

impl TableFeed for GapFeed<'_> {
    fn ensure(&mut self, pos: usize) -> &ScanTable {
        while self.next < self.bounds.len() && self.bounds[self.next].0 <= pos {
            while self.pending[self.next].is_none() {
                let (i, seg) = self.rx.recv().expect("gap scan worker disconnected");
                self.pending[i] = Some(seg);
            }
            let seg = self.pending[self.next].take().expect("segment just arrived");
            self.acc.records.extend(seg.records);
            self.acc.unprobed.extend(seg.unprobed);
            self.next += 1;
        }
        &self.acc
    }
}

/// Scans the gap segments across a pool of `workers` scoped threads
/// (work-stealing over the segment list) while `consume` replays against
/// the incrementally-fed table, so the walk starts before the last gap
/// is scanned.
fn scan_gaps_streaming<P, F, T>(
    new: &[u8],
    block_size: usize,
    segs: &[(usize, usize)],
    workers: usize,
    probe: &P,
    consume: F,
) -> T
where
    P: Fn(u32, &[u8]) -> Option<ProbeOutcome> + Sync,
    F: FnOnce(&mut dyn TableFeed) -> T,
{
    if segs.is_empty() {
        let empty = ScanTable::empty();
        return consume(&mut ReadyFeed(&empty));
    }
    let nworkers = workers.clamp(1, segs.len());
    let (tx, rx) = std::sync::mpsc::channel::<(usize, ScanTable)>();
    let task = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..nworkers {
            let tx = tx.clone();
            let task = &task;
            s.spawn(move || loop {
                let i = task.fetch_add(1, Ordering::Relaxed);
                if i >= segs.len() {
                    break;
                }
                let (a, b) = segs[i];
                let seg = scan_segment(new, block_size, a, b, probe);
                if tx.send((i, seg)).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        let mut feed = GapFeed {
            bounds: segs,
            rx,
            pending: (0..segs.len()).map(|_| None).collect(),
            next: 0,
            acc: ScanTable::empty(),
        };
        consume(&mut feed)
    })
}

/// Replays the sequential greedy walk with span fast-forwarding.
///
/// Position classes:
/// * **span-safe, old-aligned** — the window equals a full old block, so
///   the memoized `self_probe` answers in O(1) and the walk jumps a
///   block without reading the new bytes;
/// * **span-safe, unaligned** — the window equals an unaligned old
///   slice; `probe_at` answers from scratch (at most `block_size - 1`
///   such positions per span entry before the walk aligns);
/// * **gap** — answered from the scanned tables exactly as
///   `parallel::replay_matches` does: a record is a weak hit with
///   its precomputed confirm cost, an unprobed interval triggers an
///   on-demand probe, anything else is a scanned miss.
///
/// Rolling bytes are charged along the replayed path — full window at
/// every (re)initialization, one per slide — so `Cost` totals equal the
/// sequential matcher's to the byte.
#[allow(clippy::too_many_arguments)]
fn hier_replay(
    new: &[u8],
    block_size: usize,
    spans: &[SpanPair],
    feed: &mut dyn TableFeed,
    self_probe: &mut dyn FnMut(u32) -> ProbeOutcome,
    cost: &mut Cost,
    charge: impl Fn(&mut Cost, u64, u64),
    block_range: impl Fn(u32) -> (u64, u64),
    probe_at: impl Fn(usize) -> Option<ProbeOutcome>,
) -> Delta {
    let mut sink = DeltaBuilder::default();
    let mut literal_start = 0usize;
    let mut pos = 0usize;
    let mut cursor = 0usize;
    let mut iv = 0usize;
    let mut sc = 0usize;

    let flush_literal = |sink: &mut DeltaBuilder, from: usize, to: usize, cost: &mut Cost| {
        if to > from {
            sink.literal(&new[from..to]);
            cost.bytes_copied += (to - from) as u64;
        }
    };

    if new.len() >= block_size {
        cost.bytes_rolled += block_size as u64;
        loop {
            while sc < spans.len() && spans[sc].new_start + spans[sc].len - block_size < pos {
                sc += 1;
            }
            let matched = if sc < spans.len() && spans[sc].new_start <= pos {
                let s = &spans[sc];
                let q = s.old_start + (pos - s.new_start);
                if q.is_multiple_of(block_size) {
                    let (m, confirm_bytes, confirm_ops) =
                        self_probe((q / block_size) as u32);
                    charge(cost, confirm_bytes, confirm_ops);
                    m
                } else {
                    match probe_at(pos) {
                        Some((m, confirm_bytes, confirm_ops)) => {
                            charge(cost, confirm_bytes, confirm_ops);
                            m
                        }
                        None => None,
                    }
                }
            } else {
                let table = feed.ensure(pos);
                let records = &table.records;
                while cursor < records.len() && records[cursor].pos < pos {
                    cursor += 1;
                }
                while iv < table.unprobed.len() && table.unprobed[iv].1 <= pos {
                    iv += 1;
                }
                if cursor < records.len() && records[cursor].pos == pos {
                    let r = &records[cursor];
                    charge(cost, r.confirm_bytes, r.confirm_ops);
                    r.matched
                } else if iv < table.unprobed.len()
                    && table.unprobed[iv].0 <= pos
                    && pos < table.unprobed[iv].1
                {
                    match probe_at(pos) {
                        Some((m, confirm_bytes, confirm_ops)) => {
                            charge(cost, confirm_bytes, confirm_ops);
                            m
                        }
                        None => None,
                    }
                } else {
                    None
                }
            };
            if let Some(block_idx) = matched {
                flush_literal(&mut sink, literal_start, pos, cost);
                let (offset, len) = block_range(block_idx);
                sink.copy(offset, len);
                pos += block_size;
                literal_start = pos;
                if pos + block_size > new.len() {
                    break;
                }
                cost.bytes_rolled += block_size as u64;
            } else {
                if pos + block_size >= new.len() {
                    break;
                }
                cost.bytes_rolled += 1;
                pos += 1;
            }
        }
    }
    flush_literal(&mut sink, literal_start, new.len(), cost);
    sink.finish()
}

/// The hierarchical matcher, generic over the caller's probe / charge /
/// block-range closures. The caller has already built (and charged) the
/// weak index the probe closes over.
///
/// `self_probe_meta` answers "what would the sequential probe return for
/// old block `b` probing its own content?" from index/signature
/// *metadata* — no window checksum, usually no byte compares — and is
/// the reason span fast-forwarding beats the byte walk on the clock.
/// Returning `None` falls back to an honest windowed probe; either way
/// the memoized answer (and the cost charged through `charge`) must be
/// exactly what the sequential walk computes at that position.
#[allow(clippy::too_many_arguments)]
pub(crate) fn diff_hier<P>(
    old: &[u8],
    new: &[u8],
    block_size: usize,
    hp: &HierarchyParams,
    workers: usize,
    probe: &P,
    self_probe_meta: impl Fn(u32) -> Option<ProbeOutcome>,
    cost: &mut Cost,
    charge: impl Fn(&mut Cost, u64, u64),
    block_range: impl Fn(u32) -> (u64, u64),
) -> Delta
where
    P: Fn(u32, &[u8]) -> Option<ProbeOutcome> + Sync,
{
    let mut stats = HierarchyStats {
        diffs: 1,
        ..HierarchyStats::default()
    };
    let spans = compute_spans(old, new, block_size, hp, &mut stats);
    let gaps = gap_position_ranges(&spans, new.len(), block_size);
    let segs = split_gap_segments(&gaps, workers);
    let memo: RefCell<HashMap<u32, ProbeOutcome>> = RefCell::new(HashMap::new());
    let fallback_probes = std::cell::Cell::new(0u64);
    let mut self_probe = |block: u32| -> ProbeOutcome {
        if let Some(hit) = memo.borrow().get(&block) {
            return *hit;
        }
        let outcome = self_probe_meta(block).unwrap_or_else(|| {
            fallback_probes.set(fallback_probes.get() + 1);
            let start = block as usize * block_size;
            let window = &old[start..start + block_size];
            probe(RollingChecksum::new(window).digest(), window)
                .expect("full old block must hit its own weak map")
        });
        memo.borrow_mut().insert(block, outcome);
        outcome
    };
    let delta = scan_gaps_streaming(new, block_size, &segs, workers, probe, |feed| {
        hier_replay(
            new,
            block_size,
            &spans,
            feed,
            &mut self_probe,
            cost,
            charge,
            block_range,
            |pos| {
                let window = &new[pos..pos + block_size];
                probe(RollingChecksum::new(window).digest(), window)
            },
        )
    });
    stats.overhead.bytes_rolled += fallback_probes.get() * block_size as u64;
    STATS.with(|s| s.borrow_mut().merge(&stats));
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_levels() -> HierarchyParams {
        HierarchyParams::from_levels(&[
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
        .with_min_file_bytes(0)
    }

    fn pseudo_random(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn span_hash_differs_on_content_and_length() {
        assert_ne!(span_hash(b"abcdefgh"), span_hash(b"abcdefgi"));
        assert_ne!(span_hash(b"abc"), span_hash(b"abcd"));
        assert_eq!(span_hash(b"same bytes!"), span_hash(b"same bytes!"));
    }

    #[test]
    fn aligned_prescan_finds_identical_runs() {
        let old = pseudo_random(10_000, 3);
        let mut new = old.clone();
        new[5_000] ^= 0xFF;
        let mut stats = HierarchyStats::default();
        let runs = aligned_runs(&old, &new, 64, &mut stats);
        assert_eq!(runs.len(), 2);
        assert_eq!(runs[0].new_start, 0);
        assert!(runs[0].len >= 4_992 && runs[0].len <= 5_000);
        assert!(runs[1].new_start > 5_000 && runs[1].new_start <= 5_008);
        assert_eq!(runs[1].new_start + runs[1].len, 10_000);
        assert_eq!(stats.aligned_runs, 2);
    }

    #[test]
    fn aligned_prescan_ignores_short_runs() {
        let old = pseudo_random(1_000, 5);
        let mut new = pseudo_random(1_000, 7);
        new[100..140].copy_from_slice(&old[100..140]);
        let mut stats = HierarchyStats::default();
        assert!(aligned_runs(&old, &new, 256, &mut stats).is_empty());
    }

    #[test]
    fn shift_probe_resolves_a_prepended_suffix() {
        let old = pseudo_random(20_000, 11);
        let mut new = pseudo_random(777, 13);
        new.extend_from_slice(&old);
        let mut stats = HierarchyStats::default();
        // Offset 0 finds nothing; the length-difference probe must pair
        // the entire shifted suffix in one run.
        assert!(aligned_runs(&old, &new, 512, &mut stats).is_empty());
        let runs = shifted_runs(&old, &new, 777, 512, &[(0, new.len())], &mut stats);
        assert_eq!(runs.len(), 1);
        assert_eq!(
            runs[0],
            SpanPair {
                new_start: 777,
                old_start: 0,
                len: 20_000
            }
        );
        // And compute_spans wires the probe in: no shingle level needed.
        let hp = HierarchyParams::default().with_min_file_bytes(0);
        let mut cstats = HierarchyStats::default();
        let spans = compute_spans(&old, &new, 64, &hp, &mut cstats);
        assert_eq!(spans.len(), 1);
        assert_eq!(spans[0].old_start, 0);
        assert_eq!(spans[0].new_start, 777);
        assert_eq!(cstats.overhead.bytes_chunked, 0, "gear pass should not run");
    }

    #[test]
    fn shingle_levels_match_shifted_content() {
        // Two insertions of different sizes: the same-offset prescan finds
        // nothing, the length-difference probe only pairs the suffix after
        // the second insertion, and the body between the two shifts is the
        // shingle map's to recover.
        let old = pseudo_random(50_000, 11);
        let mut new = pseudo_random(777, 13);
        new.extend_from_slice(&old[..25_000]);
        new.extend_from_slice(&pseudo_random(531, 17));
        new.extend_from_slice(&old[25_000..]);
        let mut stats = HierarchyStats::default();
        let spans = compute_spans(&old, &new, 64, &tiny_levels(), &mut stats);
        assert_eq!(stats.aligned_runs, 1, "shift probe should pair the suffix only");
        assert!(
            stats.level_chunks_matched.iter().sum::<u64>() > 0,
            "no shingle matches"
        );
        let covered: usize = spans.iter().map(|s| s.len).sum();
        assert!(
            covered > old.len() * 8 / 10,
            "only {covered} of {} bytes covered",
            old.len()
        );
        for s in &spans {
            assert_eq!(
                &new[s.new_start..s.new_start + s.len],
                &old[s.old_start..s.old_start + s.len],
                "span not byte-identical"
            );
        }
    }

    #[test]
    fn spans_are_sorted_disjoint_and_merged() {
        let old = pseudo_random(40_000, 17);
        let mut new = old.clone();
        new[10_000] ^= 1;
        new[30_000] ^= 1;
        let mut stats = HierarchyStats::default();
        let spans = compute_spans(&old, &new, 32, &tiny_levels(), &mut stats);
        let mut at = 0usize;
        for s in &spans {
            assert!(s.new_start >= at, "overlap");
            assert!(s.len >= 32);
            at = s.new_start + s.len;
        }
        assert_eq!(
            stats.bytes_skipped + stats.leaf_walk_bytes,
            new.len() as u64
        );
    }

    #[test]
    fn descent_gate_skips_cdc_when_pending_is_tiny() {
        // 1% divergence: the leaf walk is cheaper than an old-side
        // shingle pass, so no CDC level should engage.
        let old = pseudo_random(100_000, 19);
        let mut new = old.clone();
        new[50_000..50_500].copy_from_slice(&pseudo_random(500, 21));
        let mut stats = HierarchyStats::default();
        let _ = compute_spans(&old, &new, 64, &tiny_levels(), &mut stats);
        assert_eq!(stats.level_chunks_matched, [0; MAX_LEVELS]);
        assert!(stats.overhead.bytes_chunked == 0);
        assert!(stats.bytes_skipped > 0);
    }

    #[test]
    fn gap_ranges_complement_safe_regions() {
        let spans = vec![
            SpanPair {
                new_start: 100,
                old_start: 0,
                len: 200,
            },
            SpanPair {
                new_start: 500,
                old_start: 300,
                len: 64,
            },
        ];
        let bs = 64;
        let gaps = gap_position_ranges(&spans, 1000, bs);
        // Safe regions: [100, 237) and [500, 501).
        assert_eq!(gaps, vec![(0, 100), (237, 500), (501, 937)]);
        // Short input: no positions at all.
        assert!(gap_position_ranges(&spans, 63, bs).is_empty());
        // No spans: one gap covering every position.
        assert_eq!(gap_position_ranges(&[], 1000, bs), vec![(0, 937)]);
    }

    #[test]
    fn gap_segments_split_and_cover() {
        let gaps = vec![(0usize, 40_000usize), (60_000, 61_000)];
        let segs = split_gap_segments(&gaps, 2);
        assert!(segs.len() >= 2);
        let mut covered = 0usize;
        let mut last_end = 0usize;
        for &(a, b) in &segs {
            assert!(a >= last_end);
            covered += b - a;
            last_end = b;
        }
        assert_eq!(covered, 41_000);
        assert!(split_gap_segments(&[], 4).is_empty());
    }
}
