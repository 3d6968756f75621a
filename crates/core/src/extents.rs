//! Server file content as an ordered list of shared extents.
//!
//! A server file is the concatenation of [`Extent`]s, each a `Bytes` view
//! of a buffer the server already holds: the landed message a write, a
//! literal or a full upload arrived in, or a buffer the cleaner compacted
//! into. Applying an update splices views — a `Copy` of the base becomes
//! slices of the base's extents, a write or a literal is its own view —
//! so an apply costs O(ops + extents touched) and copies no byte of the
//! base or of the message. What a splice removes is itself a list of
//! views: the way back to the version it replaced.
//!
//! Each extent names its [`Source`], the buffer it views and that
//! buffer's size, so the server can tell how many bytes a file pins but
//! no longer shows (DESIGN.md §19, rule 2).

use std::collections::HashMap;
use std::ops::Range;

use bytes::Bytes;

/// The buffer an extent is a view of: an id the server mints per landed
/// message (or per compacted or zero-filled buffer) and the bytes that
/// buffer holds, counted from the payloads the server applied from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Source {
    pub(crate) id: u64,
    pub(crate) size: u64,
}

/// One piece of a file: `data` shown at byte `start`.
#[derive(Debug, Clone)]
pub(crate) struct Extent {
    pub(crate) start: u64,
    pub(crate) data: Bytes,
    pub(crate) src: Source,
}

impl Extent {
    fn end(&self) -> u64 {
        self.start + self.data.len() as u64
    }

    /// The part of this extent inside `[from, to)`, re-placed at `at`.
    fn cut(&self, from: u64, to: u64, at: u64) -> Extent {
        let lo = (from.max(self.start) - self.start) as usize;
        let hi = (to.min(self.end()) - self.start) as usize;
        Extent {
            start: at,
            data: self.data.slice(lo..hi),
            src: self.src,
        }
    }

    /// The address range of the bytes this extent shows: two extents
    /// overlap here exactly when they show the same bytes of one buffer.
    fn span(&self) -> Range<usize> {
        let at = self.data.as_ptr() as usize;
        at..at + self.data.len()
    }
}

/// A file's bytes as contiguous extents in offset order.
#[derive(Debug, Clone, Default)]
pub(crate) struct Extents {
    list: Vec<Extent>,
    len: u64,
}

impl Extents {
    /// One extent holding `data` (none when it is empty).
    pub(crate) fn whole(data: Bytes, src: Source) -> Extents {
        let mut out = Extents::default();
        out.push(data, src);
        out
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    pub(crate) fn count(&self) -> usize {
        self.list.len()
    }

    pub(crate) fn iter(&self) -> std::slice::Iter<'_, Extent> {
        self.list.iter()
    }

    pub(crate) fn iter_mut(&mut self) -> std::slice::IterMut<'_, Extent> {
        self.list.iter_mut()
    }

    /// The one buffer a file of a single extent is.
    pub(crate) fn single(&self) -> Option<&Bytes> {
        match self.list.as_slice() {
            [only] => Some(&only.data),
            _ => None,
        }
    }

    /// The bytes, copied into one buffer of exactly their length.
    pub(crate) fn flatten(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len as usize);
        for e in &self.list {
            out.extend_from_slice(&e.data);
        }
        out
    }

    /// Appends `data` at the end.
    pub(crate) fn push(&mut self, data: Bytes, src: Source) {
        if data.is_empty() {
            return;
        }
        let start = self.len;
        self.len += data.len() as u64;
        self.list.push(Extent { start, data, src });
    }

    /// Index of the extent holding byte `offset` (the count when
    /// `offset` is at or past the end).
    fn index_of(&self, offset: u64) -> usize {
        self.list.partition_point(|e| e.end() <= offset)
    }

    /// Appends the views of `base`'s bytes `[offset, offset + len)`;
    /// the caller has checked that they exist.
    pub(crate) fn push_range(&mut self, base: &Extents, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        let end = offset + len;
        let mut at = base.index_of(offset);
        while let Some(e) = base.list.get(at).filter(|e| e.start < end) {
            let piece = e.cut(offset, end, self.len);
            self.len += piece.data.len() as u64;
            self.list.push(piece);
            at += 1;
        }
    }

    /// Shows `pieces` (contiguous, starting at `offset <= len`) over
    /// whatever lay at `[offset, offset + Σ pieces)`, growing the file if
    /// they reach past its end, and returns the views they replaced.
    pub(crate) fn splice(&mut self, offset: u64, pieces: Vec<Extent>) -> Vec<Extent> {
        debug_assert!(offset <= self.len);
        let new_len: u64 = pieces.iter().map(|p| p.data.len() as u64).sum();
        if new_len == 0 {
            return Vec::new();
        }
        let end = offset + new_len;
        let first = self.index_of(offset);
        let last = self.index_of(end).min(self.list.len());
        let mut replaced = Vec::new();
        let mut keep = Vec::with_capacity(pieces.len() + 2);
        // Only the first and last extents of the range can stick out.
        let mut tail = None;
        for e in &self.list[first..last.max(first)] {
            if e.start < offset {
                keep.push(e.cut(e.start, offset, e.start));
            }
            replaced.push(e.cut(offset, end, e.start.max(offset)));
        }
        if let Some(e) = self.list.get(last).filter(|e| e.start < end) {
            if e.start < offset {
                keep.push(e.cut(e.start, offset, e.start));
            }
            replaced.push(e.cut(offset, end, e.start.max(offset)));
            tail = Some(e.cut(end, e.end(), end));
        }
        let stop = if tail.is_some() { last + 1 } else { last };
        let mut at = offset;
        for mut p in pieces {
            p.start = at;
            at += p.data.len() as u64;
            keep.push(p);
        }
        keep.extend(tail.filter(|t| !t.data.is_empty()));
        self.list.splice(first..stop, keep);
        self.len = self.len.max(end);
        replaced
    }

    /// Cuts the file to `size` bytes (no longer than it is) and returns
    /// the views cut off.
    pub(crate) fn truncate(&mut self, size: u64) -> Vec<Extent> {
        if size >= self.len {
            return Vec::new();
        }
        let at = self.index_of(size);
        let mut cut: Vec<Extent> = self.list.split_off(at);
        if let Some(e) = cut.first_mut().filter(|e| e.start < size) {
            self.list.push(e.cut(e.start, size, e.start));
            *e = e.cut(size, e.end(), size);
        }
        self.len = size;
        cut
    }
}

/// What one op of an ops group replaced: reverting it on the newer
/// version gives the older one back.
#[derive(Debug, Clone)]
pub(crate) struct PatchRec {
    /// The file's length before the op.
    pub(crate) old_len: u64,
    /// Where `replaced` lay.
    pub(crate) offset: u64,
    /// The views the op overwrote or cut off, contiguous from `offset`.
    pub(crate) replaced: Vec<Extent>,
}

/// Turns `content` back into what it was before `patch` (one group's
/// records, in apply order) ran on it.
pub(crate) fn revert(content: &mut Extents, patch: &[PatchRec]) {
    for rec in patch.iter().rev() {
        content.truncate(rec.old_len);
        if !rec.replaced.is_empty() {
            content.splice(rec.offset, rec.replaced.clone());
        }
    }
}

/// Hands out fresh [`Source`] ids, one per landed message or new buffer.
#[derive(Debug, Default)]
pub(crate) struct Mint(u64);

impl Mint {
    /// A source no extent names yet, holding `size` bytes.
    pub(crate) fn source(&mut self, size: u64) -> Source {
        self.0 += 1;
        Source { id: self.0, size }
    }
}

/// Per-source counts of what a file's current extents show, and the
/// total size of the sources they keep alive: the cleaner's input.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pins {
    shown: HashMap<u64, (u64, u64)>,
    pinned: u64,
}

impl Pins {
    /// The pins of `content`, counted from scratch.
    pub(crate) fn of(content: &Extents) -> Pins {
        let mut pins = Pins::default();
        for e in content.iter() {
            pins.add(e);
        }
        pins
    }

    pub(crate) fn add(&mut self, e: &Extent) {
        let entry = self.shown.entry(e.src.id).or_insert((e.src.size, 0));
        if entry.1 == 0 {
            self.pinned += entry.0;
        }
        entry.1 += e.data.len() as u64;
    }

    pub(crate) fn remove(&mut self, e: &Extent) {
        if let Some(entry) = self.shown.get_mut(&e.src.id) {
            entry.1 -= e.data.len() as u64;
            if entry.1 == 0 {
                self.pinned -= entry.0;
                self.shown.remove(&e.src.id);
            }
        }
    }

    /// Bytes of the sources kept alive, shown or not.
    pub(crate) fn pinned(&self) -> u64 {
        self.pinned
    }

    /// Whether `id` is among the sources kept alive.
    pub(crate) fn holds(&self, id: u64) -> bool {
        self.shown.contains_key(&id)
    }
}

/// The address ranges `spans` cover, sorted and merged.
fn merged(mut spans: Vec<Range<usize>>) -> Vec<Range<usize>> {
    spans.retain(|s| !s.is_empty());
    spans.sort_unstable_by_key(|s| s.start);
    let mut out: Vec<Range<usize>> = Vec::with_capacity(spans.len());
    for s in spans {
        match out.last_mut() {
            Some(last) if s.start <= last.end => last.end = last.end.max(s.end),
            _ => out.push(s),
        }
    }
    out
}

/// Bytes the `kept` extents show that none of the `current` ones does.
pub(crate) fn unshared_bytes<'a>(
    kept: impl Iterator<Item = &'a Extent>,
    current: impl Iterator<Item = &'a Extent>,
) -> u64 {
    let kept = merged(kept.map(Extent::span).collect());
    let current = merged(current.map(Extent::span).collect());
    let mut total = 0;
    let mut c = current.iter().peekable();
    for k in kept {
        let mut at = k.start;
        while at < k.end {
            // Skip current spans wholly before `at`.
            while c.next_if(|r| r.end <= at).is_some() {}
            match c.peek() {
                Some(r) if r.start <= at => at = r.end.min(k.end),
                Some(r) if r.start < k.end => {
                    total += r.start - at;
                    at = r.end.min(k.end);
                }
                _ => {
                    total += k.end - at;
                    at = k.end;
                }
            }
        }
    }
    total as u64
}

/// A moving source's merged address spans, each with where it starts in
/// the source's new buffer.
type Placed = Vec<(Range<usize>, usize)>;

/// Where the byte at address `at` lands in its source's new buffer.
fn place(spans: &Placed, at: usize) -> usize {
    let (span, base) = &spans[spans.partition_point(|(s, _)| s.end <= at)];
    base + (at - span.start)
}

/// Copies the bytes the extents behind `views` show out of the sources
/// `dropped` names, where that frees memory: each such source whose
/// viewed bytes are less than half its size gets one fresh buffer of
/// exactly those bytes, and every view of it is re-pointed there.
/// Returns the bytes copied.
pub(crate) fn relocate(
    views: &mut [&mut Extent],
    dropped: impl Fn(u64) -> bool,
    mint: &mut Mint,
) -> u64 {
    // Per source, the merged address ranges its views cover.
    let mut by_src: HashMap<u64, (u64, Vec<Range<usize>>)> = HashMap::new();
    for v in views.iter().filter(|v| dropped(v.src.id)) {
        let entry = by_src.entry(v.src.id).or_insert((v.src.size, Vec::new()));
        entry.1.push(v.span());
    }
    let mut moved: HashMap<u64, (Placed, Vec<u8>)> = HashMap::new();
    for (id, (size, spans)) in by_src {
        let mut viewed = 0;
        let placed: Placed = merged(spans)
            .into_iter()
            .map(|s| {
                viewed += s.len();
                (s.clone(), viewed - s.len())
            })
            .collect();
        if (viewed as u64) * 2 < size {
            moved.insert(id, (placed, vec![0u8; viewed]));
        }
    }
    if moved.is_empty() {
        return 0;
    }
    for v in views.iter() {
        if let Some((spans, buf)) = moved.get_mut(&v.src.id) {
            let at = place(spans, v.span().start);
            buf[at..at + v.data.len()].copy_from_slice(&v.data);
        }
    }
    let mut copied = 0;
    let fresh: HashMap<u64, (Placed, Bytes, Source)> = moved
        .into_iter()
        .map(|(id, (spans, buf))| {
            copied += buf.len() as u64;
            let src = mint.source(buf.len() as u64);
            (id, (spans, Bytes::from(buf), src))
        })
        .collect();
    for v in views.iter_mut() {
        if let Some((spans, buf, src)) = fresh.get(&v.src.id) {
            let at = place(spans, v.span().start);
            v.data = buf.slice(at..at + v.data.len());
            v.src = *src;
        }
    }
    copied
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src(id: u64, size: u64) -> Source {
        Source { id, size }
    }

    fn bytes(e: &Extents) -> Vec<u8> {
        e.flatten()
    }

    fn piece(data: &'static [u8], id: u64) -> Extent {
        Extent {
            start: 0,
            data: Bytes::from_static(data),
            src: src(id, data.len() as u64),
        }
    }

    #[test]
    fn splice_overwrites_extends_and_returns_what_it_replaced() {
        let mut e = Extents::whole(Bytes::from_static(b"abcdefgh"), src(1, 8));
        let replaced = e.splice(2, vec![piece(b"XY", 2)]);
        assert_eq!(bytes(&e), b"abXYefgh");
        assert_eq!(replaced.len(), 1);
        assert_eq!((replaced[0].start, &replaced[0].data[..]), (2, &b"cd"[..]));
        // Across three extents and past the end.
        let replaced = e.splice(1, vec![piece(b"1234567890", 3)]);
        assert_eq!(bytes(&e), b"a1234567890");
        let old: Vec<u8> = replaced.iter().flat_map(|r| r.data.to_vec()).collect();
        assert_eq!(old, b"bXYefgh");
        assert_eq!(e.len(), 11);
        // At the end: an append.
        assert!(e.splice(11, vec![piece(b"!", 4)]).is_empty());
        assert_eq!(bytes(&e), b"a1234567890!");
        let starts: Vec<u64> = e.iter().map(|x| x.start).collect();
        assert_eq!(starts, [0, 1, 11]);
    }

    #[test]
    fn truncate_and_revert_restore_the_older_version() {
        let original = b"0123456789".to_vec();
        let mut e = Extents::whole(Bytes::from(original.clone()), src(1, 10));
        let mut patch = Vec::new();
        for (offset, data) in [(3u64, &b"abc"[..]), (8, b"WXYZ"), (0, b"q")] {
            let old_len = e.len();
            let replaced = e.splice(
                offset,
                vec![Extent {
                    start: 0,
                    data: Bytes::copy_from_slice(data),
                    src: src(2, 9),
                }],
            );
            patch.push(PatchRec {
                old_len,
                offset,
                replaced,
            });
        }
        let old_len = e.len();
        patch.push(PatchRec {
            old_len,
            offset: 5,
            replaced: e.truncate(5),
        });
        assert_eq!(bytes(&e), b"q12ab");
        revert(&mut e, &patch);
        assert_eq!(bytes(&e), original);
    }

    #[test]
    fn push_range_views_the_base() {
        let mut base = Extents::whole(Bytes::from_static(b"abcd"), src(1, 4));
        base.push(Bytes::from_static(b"efgh"), src(2, 4));
        let mut out = Extents::default();
        out.push_range(&base, 2, 4);
        out.push(Bytes::from_static(b"!"), src(3, 1));
        out.push_range(&base, 0, 1);
        assert_eq!(bytes(&out), b"cdef!a");
        assert_eq!(out.count(), 4);
        assert_eq!(out.iter().last().map(|e| e.start), Some(5));
    }

    #[test]
    fn pins_count_each_source_once_while_any_of_it_shows() {
        let mut e = Extents::whole(Bytes::from(vec![1u8; 100]), src(1, 100));
        let mut pins = Pins::of(&e);
        assert_eq!(pins.pinned(), 100);
        let new = piece(b"xx", 2);
        pins.add(&new);
        for r in e.splice(10, vec![new]) {
            pins.remove(&r);
        }
        assert_eq!(pins.pinned(), 102, "source 1 still shows 98 bytes");
        for r in e.truncate(5) {
            pins.remove(&r);
        }
        assert!(!pins.holds(2));
        assert_eq!(pins.pinned(), 100);
    }

    #[test]
    fn unshared_bytes_subtracts_what_the_current_version_shows() {
        let buf = Bytes::from(vec![0u8; 100]);
        let view = |r: Range<usize>| Extent {
            start: 0,
            data: buf.slice(r),
            src: src(1, 100),
        };
        let kept = [view(0..40), view(30..60), view(90..100)];
        let current = [view(10..20), view(50..95)];
        assert_eq!(unshared_bytes(kept.iter(), current.iter()), 10 + 30 + 5);
        assert_eq!(unshared_bytes(kept.iter(), [].iter()), 70);
    }

    #[test]
    fn relocate_copies_sparse_views_once_and_keeps_dense_ones() {
        let sparse = Bytes::from((0..100u8).collect::<Vec<u8>>());
        let dense = Bytes::from(vec![7u8; 10]);
        let mut a = Extent {
            start: 0,
            data: sparse.slice(10..20),
            src: src(1, 100),
        };
        let mut b = Extent {
            start: 0,
            data: sparse.slice(15..25),
            src: src(1, 100),
        };
        let mut c = Extent {
            start: 0,
            data: dense.slice(0..9),
            src: src(2, 10),
        };
        let mut mint = Mint(10);
        let copied = relocate(&mut [&mut a, &mut b, &mut c], |_| true, &mut mint);
        assert_eq!(copied, 15, "bytes 10..25 once");
        assert_eq!(&a.data[..], &(10..20).collect::<Vec<u8>>()[..]);
        assert_eq!(&b.data[..], &(15..25).collect::<Vec<u8>>()[..]);
        assert_eq!((a.src, b.src), (src(11, 15), src(11, 15)));
        assert_eq!(c.src, src(2, 10), "a source mostly in view stays");
    }
}
