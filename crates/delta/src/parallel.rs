//! The parallel rolling-window matcher behind `local::diff_parallel` and
//! `rsync::diff_parallel`.
//!
//! The sequential matcher (`rsync::diff_with`) walks the new file greedily:
//! at each position it evaluates a *position-independent* question — "does
//! the window starting here match an old block, and what did confirming it
//! cost?" — then either jumps a whole block (match) or slides one byte
//! (miss). Because the question depends only on the window's content, it
//! can be answered ahead of time, in parallel:
//!
//! 1. **Scan** ([`scan_matches`]): the window positions of `new` are split
//!    into contiguous segments, one scoped worker per segment. Each worker
//!    runs the *same greedy walk* from its segment start — probing, then
//!    jumping a whole block on a match or sliding one byte on a miss — and
//!    records a [`MatchRecord`] for every position where the weak map hit,
//!    holding the confirmed block (first candidate in block-index order,
//!    same as the sequential search) and the exact confirm cost. Jumping
//!    matters: probing every position would cost a weak-map lookup per
//!    *byte* where the sequential matcher pays one per *block* on
//!    well-matched files, so a non-jumping scan could never break even.
//!    Positions a worker jumped over are recorded as *unprobed* intervals.
//! 2. **Replay** ([`replay_matches`]): a cheap sequential walk replays the
//!    greedy traversal over the record table, emitting ops and charging
//!    [`Cost`] exactly as the sequential matcher would have at the
//!    positions it actually visits. When the true walk lands inside an
//!    unprobed interval — the worker's locally-greedy walk diverged from
//!    the true one, which can only happen near segment seams before the
//!    two walks re-synchronize at a common match — the replay probes that
//!    position on demand.
//!
//! The result is **byte-identical** to the sequential diff, with identical
//! `Cost` totals: scan work at positions the greedy walk skips over, and
//! window re-derivations for on-demand probes, are parallelization
//! overhead paid in wall-clock only, never in the cost model (see
//! DESIGN.md §10 for the contract).

use crate::cost::Cost;
use crate::delta_ops::{Delta, DeltaBuilder};
use crate::rolling::RollingChecksum;

/// Outcome of probing one window position: `(matched block, confirm bytes,
/// confirm ops)`. `matched` is `None` when candidates existed but none
/// confirmed — the confirm cost is still charged, as in the sequential
/// search.
pub(crate) type ProbeOutcome = (Option<u32>, u64, u64);

/// One weak-map hit found by the scan phase.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatchRecord {
    /// Window position in the new file.
    pub pos: usize,
    /// Confirmed block index, `None` if every candidate was refuted.
    pub matched: Option<u32>,
    /// Bytes the confirm step examined (bitwise-compared bytes for the
    /// local variant, strong-hashed bytes for rsync).
    pub confirm_bytes: u64,
    /// Primitive invocations the confirm step performed.
    pub confirm_ops: u64,
}

/// Scan output: weak-map hits plus the position intervals the workers'
/// greedy walks jumped over without probing. Both are sorted by position.
pub(crate) struct ScanTable {
    pub records: Vec<MatchRecord>,
    pub unprobed: Vec<(usize, usize)>,
}

impl ScanTable {
    pub(crate) fn empty() -> Self {
        ScanTable {
            records: Vec::new(),
            unprobed: Vec::new(),
        }
    }
}

/// The contiguous window-position segments the parallel scan splits a
/// `new_len`-byte file into for `workers` threads, as `(start, end)`
/// pairs (empty when the file is shorter than one block).
///
/// This is the *exact* split [`scan_matches`] uses — exposed so call
/// sites can trace or report per-worker-segment work without reaching
/// into the scan, and without risk of drifting from the real layout.
pub fn segment_bounds(new_len: usize, block_size: usize, workers: usize) -> Vec<(usize, usize)> {
    if new_len < block_size {
        return Vec::new();
    }
    let positions = new_len - block_size + 1;
    let workers = workers.clamp(1, positions);
    let per_seg = positions.div_ceil(workers);
    (0..workers)
        .map(|w| ((w * per_seg).min(positions), ((w + 1) * per_seg).min(positions)))
        .filter(|(start, end)| start < end)
        .collect()
}

/// Probes window positions of `new` across `workers` scoped threads, each
/// walking its contiguous segment greedily (block jump on match, one-byte
/// slide on miss).
///
/// `probe(weak, window)` returns `None` when the weak map has no entry and
/// the [`ProbeOutcome`] otherwise.
pub(crate) fn scan_matches<P>(
    new: &[u8],
    block_size: usize,
    workers: usize,
    probe: &P,
) -> ScanTable
where
    P: Fn(u32, &[u8]) -> Option<ProbeOutcome> + Sync,
{
    let bounds = segment_bounds(new.len(), block_size, workers);
    if bounds.is_empty() {
        return ScanTable::empty();
    }
    let mut segments: Vec<ScanTable> = Vec::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = bounds
            .iter()
            .map(|&(start, end)| {
                s.spawn(move || scan_segment(new, block_size, start, end, probe))
            })
            .collect();
        segments = handles
            .into_iter()
            .map(|h| h.join().expect("scan worker panicked"))
            .collect();
    });
    let mut records = Vec::new();
    let mut unprobed = Vec::new();
    for seg in segments {
        records.extend(seg.records);
        unprobed.extend(seg.unprobed);
    }
    ScanTable { records, unprobed }
}

/// Greedily scans window positions `start..end`, deriving the rolling
/// checksum at `start` and after every block jump.
fn scan_segment<P>(
    new: &[u8],
    block_size: usize,
    start: usize,
    end: usize,
    probe: &P,
) -> ScanTable
where
    P: Fn(u32, &[u8]) -> Option<ProbeOutcome>,
{
    let mut out = ScanTable {
        records: Vec::new(),
        unprobed: Vec::new(),
    };
    if start >= end {
        return out;
    }
    let mut pos = start;
    let mut rc = RollingChecksum::new(&new[pos..pos + block_size]);
    loop {
        let hit = probe(rc.digest(), &new[pos..pos + block_size]);
        let matched = matches!(hit, Some((Some(_), _, _)));
        if let Some((m, confirm_bytes, confirm_ops)) = hit {
            out.records.push(MatchRecord {
                pos,
                matched: m,
                confirm_bytes,
                confirm_ops,
            });
        }
        if matched {
            let skipped_to = (pos + block_size).min(end);
            if skipped_to > pos + 1 {
                out.unprobed.push((pos + 1, skipped_to));
            }
            pos += block_size;
            if pos >= end {
                break;
            }
            rc = RollingChecksum::new(&new[pos..pos + block_size]);
        } else {
            pos += 1;
            if pos >= end {
                break;
            }
            rc.roll(new[pos - 1], new[pos - 1 + block_size]);
        }
    }
    out
}

/// Replays the sequential greedy walk over the precomputed scan table.
///
/// `charge` applies a confirm cost to the right [`Cost`] field;
/// `block_range` maps a confirmed block index to `(offset, len)` in the
/// old file; `probe_at(pos)` answers the probe question from scratch for
/// the (rare) visited positions inside unprobed intervals. Rolling-
/// checksum bytes are charged along the replayed path — a full window at
/// every (re)initialization, one byte per slide — so the totals equal the
/// sequential matcher's to the byte.
pub(crate) fn replay_matches(
    new: &[u8],
    block_size: usize,
    table: &ScanTable,
    cost: &mut Cost,
    charge: impl Fn(&mut Cost, u64, u64),
    block_range: impl Fn(u32) -> (u64, u64),
    probe_at: impl Fn(usize) -> Option<ProbeOutcome>,
) -> Delta {
    let mut sink = DeltaBuilder::default();
    let records = &table.records;
    let mut literal_start = 0usize;
    let mut pos = 0usize;
    let mut cursor = 0usize;
    let mut iv = 0usize;

    let flush_literal = |sink: &mut DeltaBuilder, from: usize, to: usize, cost: &mut Cost| {
        if to > from {
            sink.literal(&new[from..to]);
            cost.bytes_copied += (to - from) as u64;
        }
    };

    if new.len() >= block_size {
        cost.bytes_rolled += block_size as u64;
        loop {
            while cursor < records.len() && records[cursor].pos < pos {
                cursor += 1;
            }
            while iv < table.unprobed.len() && table.unprobed[iv].1 <= pos {
                iv += 1;
            }
            let matched = if cursor < records.len() && records[cursor].pos == pos {
                let r = &records[cursor];
                charge(cost, r.confirm_bytes, r.confirm_ops);
                r.matched
            } else if iv < table.unprobed.len()
                && table.unprobed[iv].0 <= pos
                && pos < table.unprobed[iv].1
            {
                // A worker jumped over this position; ask from scratch.
                match probe_at(pos) {
                    Some((m, confirm_bytes, confirm_ops)) => {
                        charge(cost, confirm_bytes, confirm_ops);
                        m
                    }
                    None => None,
                }
            } else {
                None
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
