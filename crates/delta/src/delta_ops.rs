use std::error::Error;
use std::fmt;
use std::ops::Range;

use bytes::Bytes;

use crate::compress::MAX_DECOMPRESSED;

/// One instruction of a [`Delta`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOp {
    /// Copy `len` bytes starting at `offset` of the *old* file.
    Copy {
        /// Byte offset into the old file.
        offset: u64,
        /// Number of bytes to copy.
        len: u64,
    },
    /// Emit these bytes verbatim.
    Literal(Bytes),
}

/// A reconstruction recipe: applying it to the old file yields the new one.
///
/// This is the unit rsync transmits instead of the file. Its
/// [`wire_size`](Delta::wire_size) is what the network-traffic figures
/// count for delta-encoding engines.
///
/// # Example
///
/// ```
/// use bytes::Bytes;
/// use deltacfs_delta::{Delta, DeltaOp};
///
/// let delta = Delta::from_ops(vec![
///     DeltaOp::Copy { offset: 0, len: 3 },
///     DeltaOp::Literal(Bytes::from_static(b"XY")),
/// ]);
/// assert_eq!(delta.apply(b"abcdef")?, b"abcXY");
/// # Ok::<(), deltacfs_delta::ApplyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    ops: Vec<DeltaOp>,
}

/// Per-instruction wire overhead: opcode + offset/length encoding.
///
/// Matches librsync's order of magnitude; the exact constant only has to be
/// charged consistently across engines.
pub const OP_HEADER_BYTES: u64 = 9;

impl Delta {
    /// Creates a delta from a list of instructions, merging adjacent
    /// compatible ops (back-to-back copies, back-to-back literals).
    ///
    /// A run of back-to-back literals is gathered first and concatenated
    /// with one allocation, so a literal that arrived in N frames costs
    /// one copy of its bytes, not N.
    pub fn from_ops(ops: Vec<DeltaOp>) -> Self {
        let mut merged: Vec<DeltaOp> = Vec::with_capacity(ops.len());
        let mut run: Vec<Bytes> = Vec::new();
        for op in ops {
            match op {
                DeltaOp::Literal(b) => run.push(b),
                DeltaOp::Copy { offset, len } => {
                    flush_literal_run(&mut run, &mut merged);
                    match merged.last_mut() {
                        // Checked: decoded ops are untrusted, and a copy
                        // whose end overflows has no neighbour.
                        Some(DeltaOp::Copy {
                            offset: prev_offset,
                            len: prev_len,
                        }) if prev_offset.checked_add(*prev_len) == Some(offset)
                            && prev_len.checked_add(len).is_some() =>
                        {
                            *prev_len += len
                        }
                        _ => merged.push(DeltaOp::Copy { offset, len }),
                    }
                }
            }
        }
        flush_literal_run(&mut run, &mut merged);
        Delta { ops: merged }
    }

    /// The instructions, in order.
    pub fn ops(&self) -> &[DeltaOp] {
        &self.ops
    }

    /// Total bytes carried literally.
    pub fn literal_bytes(&self) -> u64 {
        self.ops
            .iter()
            .map(|op| match op {
                DeltaOp::Literal(b) => b.len() as u64,
                DeltaOp::Copy { .. } => 0,
            })
            .sum()
    }

    /// Total bytes referenced from the old file, saturating at
    /// `u64::MAX` (a decoded delta's lengths are untrusted).
    pub fn copy_bytes(&self) -> u64 {
        self.ops.iter().fold(0, |sum, op| match op {
            DeltaOp::Copy { len, .. } => sum.saturating_add(*len),
            DeltaOp::Literal(_) => sum,
        })
    }

    /// Length of the file this delta reconstructs, saturating at
    /// `u64::MAX`.
    pub fn output_len(&self) -> u64 {
        self.literal_bytes().saturating_add(self.copy_bytes())
    }

    /// Size of the delta on the wire: literals plus per-op headers.
    pub fn wire_size(&self) -> u64 {
        self.literal_bytes() + OP_HEADER_BYTES * self.ops.len() as u64
    }

    /// Reconstructs the new file from `old`.
    ///
    /// # Errors
    ///
    /// Returns [`ApplyError`] if a copy instruction references bytes beyond
    /// the end of `old` — which means the delta was computed against a
    /// different base version (the situation DeltaCFS's version control
    /// exists to prevent) — or if the output would exceed
    /// [`MAX_DECOMPRESSED`], the ceiling a decoded frame is held to too.
    pub fn apply(&self, old: &[u8]) -> Result<Vec<u8>, ApplyError> {
        // Every copy is range-checked and the total is capped before
        // anything is allocated: a decoded delta's lengths are untrusted,
        // and copies each in range can still sum to many times the base.
        let mut out_len = 0usize;
        for op in &self.ops {
            out_len = out_len.saturating_add(match op {
                DeltaOp::Copy { offset, len } => copy_range(old, *offset, *len)?.len(),
                DeltaOp::Literal(b) => b.len(),
            });
        }
        if out_len > MAX_DECOMPRESSED {
            return Err(ApplyError::OutputTooLarge {
                len: self.output_len(),
            });
        }
        let mut out = Vec::with_capacity(out_len);
        for op in &self.ops {
            match op {
                DeltaOp::Copy { offset, len } => {
                    out.extend_from_slice(&old[copy_range(old, *offset, *len)?]);
                }
                DeltaOp::Literal(b) => out.extend_from_slice(b),
            }
        }
        Ok(out)
    }
}

/// The bytes of `old` a copy of `len` bytes at `offset` reads, or the
/// error if any of them lies past its end (an overflowing end included).
fn copy_range(old: &[u8], offset: u64, len: u64) -> Result<Range<usize>, ApplyError> {
    let old_len = old.len() as u64;
    match offset.checked_add(len) {
        Some(end) if end <= old_len => Ok(offset as usize..end as usize),
        _ => Err(ApplyError::CopyOutOfRange {
            offset,
            len,
            old_len,
        }),
    }
}

/// Appends the pending run of back-to-back literals to `merged` as one
/// op: a lone literal moves as it is, a longer run is concatenated into a
/// single buffer sized up front.
fn flush_literal_run(run: &mut Vec<Bytes>, merged: &mut Vec<DeltaOp>) {
    if run.len() <= 1 {
        merged.extend(run.drain(..).map(DeltaOp::Literal));
        return;
    }
    let mut joined = Vec::with_capacity(run.iter().map(Bytes::len).sum());
    for part in run.drain(..) {
        joined.extend_from_slice(&part);
    }
    merged.push(DeltaOp::Literal(Bytes::from(joined)));
}

/// Error returned by [`Delta::apply`] when the base file does not match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ApplyError {
    /// A copy instruction referenced a range outside the base file.
    CopyOutOfRange {
        /// Offset the instruction asked for.
        offset: u64,
        /// Length the instruction asked for.
        len: u64,
        /// Actual length of the base file.
        old_len: u64,
    },
    /// The output would exceed [`MAX_DECOMPRESSED`] bytes.
    OutputTooLarge {
        /// Length the delta asked for, saturating at `u64::MAX`.
        len: u64,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::CopyOutOfRange {
                offset,
                len,
                old_len,
            } => write!(
                f,
                "delta copy [{offset}, +{len}) exceeds base file of {old_len} bytes"
            ),
            ApplyError::OutputTooLarge { len } => write!(
                f,
                "delta output of {len} bytes exceeds the {MAX_DECOMPRESSED}-byte ceiling"
            ),
        }
    }
}

impl Error for ApplyError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_mixed_ops() {
        let delta = Delta::from_ops(vec![
            DeltaOp::Literal(Bytes::from_static(b">>")),
            DeltaOp::Copy { offset: 2, len: 2 },
        ]);
        assert_eq!(delta.apply(b"abcd").unwrap(), b">>cd");
        assert_eq!(delta.output_len(), 4);
        assert_eq!(delta.literal_bytes(), 2);
        assert_eq!(delta.copy_bytes(), 2);
    }

    #[test]
    fn adjacent_copies_merge() {
        let delta = Delta::from_ops(vec![
            DeltaOp::Copy { offset: 0, len: 4 },
            DeltaOp::Copy { offset: 4, len: 4 },
            DeltaOp::Copy { offset: 10, len: 2 },
        ]);
        assert_eq!(delta.ops().len(), 2);
        assert_eq!(delta.wire_size(), 2 * OP_HEADER_BYTES);
    }

    #[test]
    fn adjacent_literals_merge() {
        let delta = Delta::from_ops(vec![
            DeltaOp::Literal(Bytes::from_static(b"ab")),
            DeltaOp::Literal(Bytes::from_static(b"cd")),
        ]);
        assert_eq!(delta.ops().len(), 1);
        assert_eq!(delta.apply(b"").unwrap(), b"abcd");
    }

    #[test]
    fn long_literal_runs_merge_into_one_op() {
        // A fully-literal file streamed at a small chunk budget: 2 048
        // adjacent literal chunks, then a copy, then 1 024 more.
        let chunk = |i: usize| -> Vec<u8> { (0..64).map(|j| (i * 31 + j) as u8).collect() };
        let mut ops = Vec::new();
        let mut head = Vec::new();
        for i in 0..2048 {
            head.extend_from_slice(&chunk(i));
            ops.push(DeltaOp::Literal(Bytes::from(chunk(i))));
        }
        ops.push(DeltaOp::Copy { offset: 8, len: 4 });
        let mut tail = Vec::new();
        for i in 0..1024 {
            tail.extend_from_slice(&chunk(i + 7));
            ops.push(DeltaOp::Literal(Bytes::from(chunk(i + 7))));
        }
        let delta = Delta::from_ops(ops);
        assert_eq!(
            delta.ops(),
            &[
                DeltaOp::Literal(Bytes::from(head)),
                DeltaOp::Copy { offset: 8, len: 4 },
                DeltaOp::Literal(Bytes::from(tail)),
            ]
        );
    }

    #[test]
    fn lone_literal_is_moved_not_copied() {
        let lit = Bytes::from(vec![5u8; 1024]);
        let ptr = lit.as_ref().as_ptr();
        let delta = Delta::from_ops(vec![
            DeltaOp::Copy { offset: 0, len: 1 },
            DeltaOp::Literal(lit),
        ]);
        match &delta.ops()[1] {
            DeltaOp::Literal(b) => assert_eq!(b.as_ref().as_ptr(), ptr),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn out_of_range_copy_errors() {
        let delta = Delta::from_ops(vec![DeltaOp::Copy { offset: 2, len: 10 }]);
        let err = delta.apply(b"abcd").unwrap_err();
        assert!(matches!(err, ApplyError::CopyOutOfRange { old_len: 4, .. }));
        assert!(err.to_string().contains("exceeds base file"));
    }

    fn copy(offset: u64, len: u64) -> DeltaOp {
        DeltaOp::Copy { offset, len }
    }

    #[test]
    fn huge_copy_is_rejected_before_anything_is_allocated() {
        // A 16 TiB copy against a 4-byte base: the declared length must
        // not size an allocation (it used to abort the process).
        let delta = Delta::from_ops(vec![copy(0, 1 << 44)]);
        assert_eq!(delta.output_len(), 1 << 44);
        assert!(matches!(
            delta.apply(b"abcd"),
            Err(ApplyError::CopyOutOfRange { len, .. }) if len == 1 << 44
        ));
        // Out of range after an in-range op too.
        let x = DeltaOp::Literal(Bytes::from_static(b"x"));
        let delta = Delta::from_ops(vec![copy(0, 2), x, copy(3, u64::MAX)]);
        assert!(delta.apply(b"abcd").is_err());
    }

    #[test]
    fn copies_summing_past_the_ceiling_are_rejected_before_allocating() {
        // Each copy is in range; together they ask for 1 GiB + 64 KiB.
        let base = vec![7u8; 64 << 10];
        let n = (MAX_DECOMPRESSED / base.len()) as u64 + 1;
        let ops = (0..n).map(|_| copy(0, base.len() as u64)).collect();
        let delta = Delta::from_ops(ops);
        assert_eq!(delta.ops().len() as u64, n, "repeated copies do not merge");
        let err = delta.apply(&base).unwrap_err();
        assert_eq!(
            err,
            ApplyError::OutputTooLarge {
                len: n * base.len() as u64
            }
        );
        assert!(err.to_string().contains("ceiling"));
        // Up to the ceiling is fine.
        let delta = Delta::from_ops(vec![copy(0, 4), copy(0, 4)]);
        assert_eq!(delta.apply(b"abcd").unwrap(), b"abcdabcd");
    }

    #[test]
    fn copies_whose_end_overflows_neither_merge_nor_panic() {
        // The end overflows: no neighbour.
        let ops = vec![copy(u64::MAX, 1), copy(0, 1)];
        assert_eq!(Delta::from_ops(ops.clone()).ops(), &ops[..]);
        assert!(Delta::from_ops(ops).apply(b"abcd").is_err());
        // Adjacent, but the joined length would overflow.
        let ops = vec![copy(0, 2), copy(2, u64::MAX)];
        assert_eq!(Delta::from_ops(ops.clone()).ops(), &ops[..]);
        assert!(Delta::from_ops(ops).apply(b"abcd").is_err());
    }

    #[test]
    fn lengths_saturate() {
        let x = DeltaOp::Literal(Bytes::from_static(b"x"));
        let delta = Delta::from_ops(vec![copy(0, u64::MAX), x, copy(0, u64::MAX)]);
        assert_eq!(delta.copy_bytes(), u64::MAX);
        assert_eq!(delta.output_len(), u64::MAX);
    }

    #[test]
    fn empty_delta_yields_empty_file() {
        let delta = Delta::default();
        assert_eq!(delta.apply(b"whatever").unwrap(), Vec::<u8>::new());
        assert_eq!(delta.wire_size(), 0);
    }
}
