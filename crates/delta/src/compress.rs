//! A small LZ77-style byte compressor standing in for Snappy.
//!
//! The paper suspects Dropbox compresses uploads ("we suspect it applies
//! data compression (e.g., Snappy)", §IV-C) and charges CPU for it
//! (§IV-B). This module provides a fast greedy LZ77 with a 4-byte hash
//! table — the same family of algorithm as Snappy — so the Dropbox
//! baseline can both pay the compression cost and enjoy the traffic
//! savings on compressible data, and the wire codec can compress chunk
//! frames.
//!
//! # Stream format
//!
//! Private, round-trip only. A stream is a list of *sequences*, each a
//! run of literal bytes and then one back-reference:
//!
//! ```text
//! token  [lit-ext]  literals  offset  [match-ext]
//! ```
//!
//! * `token` is one byte:
//!   * bits 0–2 hold the literal count `L`; the value 7 means `lit-ext`,
//!     a LEB128 varint, follows the token, and `L = 7 + lit-ext`;
//!   * bits 3–6 hold the match length `M − 4`; the value 15 means
//!     `match-ext`, a varint, follows the offset, and `M = 19 +
//!     match-ext`;
//!   * bit 7 set means the offset takes two bytes; clear, one.
//! * `literals` are the `L` bytes, verbatim.
//! * `offset` (little-endian) says how far before the write point the
//!   match starts: 1 to 65 535 bytes, into any earlier sequence's
//!   output but never before the stream's first byte. The match may
//!   overlap its own output (a run). Offset 0 means "no match": the
//!   sequence is literals only, and its match-length bits must be 0.
//! * A stream may end right after a sequence's literals: that last
//!   sequence has no offset and no match. The empty stream decodes to
//!   nothing.
//!
//! A stream whose last sequence carries an offset may be followed by
//! another stream: the concatenation decodes to the two outputs one
//! after the other. The encoder closes every window but an input's last
//! one that way, with offset 0 after a literal tail.
//!
//! # Encoder
//!
//! The match finder lives in an [`Encoder`], which owns the hash table:
//! 2^15 `u32` positions (128 KiB), allocated on the first call and
//! reused across calls, so whoever owns the encoder decides how long
//! the table lives (the wire codec drops it between groups; the
//! one-shot [`compress`] builds one per call). Candidates are hashed
//! and verified with 4-byte little-endian word loads and extended 8
//! bytes at a time. Matching is lazy (one-byte lookahead), like zlib's.
//! Misses stride, like LZ4: every 64 consecutive probes that find no
//! match make the scan step one byte longer, and a match resets it, so
//! an incompressible run costs a probe every few dozen bytes instead of
//! one per byte — at the price of finding the first match after such a
//! run a little late (under 1 % of output on the content classes the
//! ratio-guard tests pin). A sequence is written as fixed 8- and
//! 16-byte block stores cut back to its length, while the output's
//! spare capacity takes them.

use std::ops::Range;

use crate::cost::Cost;
use crate::local::common_prefix;

const MIN_MATCH: usize = 4;
/// The farthest an offset reaches back: the largest two-byte offset.
const MAX_DIST: usize = u16::MAX as usize;
const HASH_BITS: u32 = 15;
const TABLE_LEN: usize = 1 << HASH_BITS;

/// Token bits 0–2, the literal count; this value means a varint follows.
const LIT_FIELD: usize = 7;
/// Token bits 3–6, the match length less [`MIN_MATCH`]; this value
/// means a varint follows the offset.
const MATCH_FIELD: usize = 15;
/// Token bit 7: the offset takes two bytes.
const WIDE: u8 = 0x80;

/// The scan step grows by one byte per `1 << STRIDE_SHIFT` consecutive
/// misses.
const STRIDE_SHIFT: u32 = 6;

/// Longest slice one pass of the table covers. Table entries are `u32`
/// positions, so longer inputs are compressed as independent windows
/// (the format concatenates).
const WINDOW: usize = 1 << 30;

/// Short literal runs and matches are copied as one block of this many
/// bytes, then cut back to their length.
const BLOCK: usize = 16;

/// Spare output capacity the block stores of one sequence may write
/// into: a head word, a literal block and a tail word. With less spare,
/// or more literals than a block, a sequence is appended at its exact
/// length, so the output's capacity grows exactly as under exact
/// appends.
const SEQUENCE_SLACK: usize = 8 + BLOCK + 8;

#[inline]
fn load32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte slice"))
}

#[inline]
fn hash(word: u32) -> usize {
    (word.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
}

/// `v` as a LEB128 varint in the low bytes of a little-endian word, and
/// how many bytes it takes. Lengths stay under a [`WINDOW`] (2^30), so
/// at most five.
#[inline]
fn varint_word(mut v: usize) -> (u64, usize) {
    let mut word = 0u64;
    let mut n = 0;
    while v >= 0x80 {
        word |= ((v as u64 & 0x7f) | 0x80) << (8 * n);
        v >>= 7;
        n += 1;
    }
    (word | (v as u64) << (8 * n), n + 1)
}

/// A sequence's token, whose other bits are `token`, and its literal
/// count extension for `lit` literals: a word and its length in bytes.
#[inline]
fn head(lit: usize, token: u8) -> (u64, usize) {
    let token = u64::from(token) | lit.min(LIT_FIELD) as u64;
    if lit < LIT_FIELD {
        return (token, 1);
    }
    let (ext, n) = varint_word(lit - LIT_FIELD);
    (token | ext << 8, 1 + n)
}

/// Appends the first `n` bytes of `word` as one store of all eight, cut
/// back.
#[inline]
fn put_word(out: &mut Vec<u8>, word: u64, n: usize) {
    let at = out.len();
    out.extend_from_slice(&word.to_le_bytes());
    out.truncate(at + n);
}

/// Appends one sequence: the literals `data[lits]`, then a match of
/// `len >= MIN_MATCH` bytes starting `dist` bytes back. `dist` 0 writes
/// offset 0, "no match" (then `len` must be `MIN_MATCH`).
#[inline]
fn put_sequence(out: &mut Vec<u8>, data: &[u8], lits: Range<usize>, len: usize, dist: usize) {
    let lit = lits.len();
    let code = len - MIN_MATCH;
    let wide = dist > 0xFF;
    let token = (code.min(MATCH_FIELD) << 3) as u8 | if wide { WIDE } else { 0 };
    let (head, head_len) = head(lit, token);
    let (mut tail, mut tail_len) = (dist as u64, 1 + usize::from(wide));
    if code >= MATCH_FIELD {
        let (ext, n) = varint_word(code - MATCH_FIELD);
        tail |= ext << (8 * tail_len);
        tail_len += n;
    }
    let spare = out.capacity() - out.len();
    let block = data.get(lits.start..lits.start + BLOCK);
    if lit == 0 && spare >= 8 {
        // Nine matches in ten follow no literals: token and tail fit
        // one word.
        put_word(out, head | tail << 8, 1 + tail_len);
    } else if let Some(block) = block.filter(|_| lit <= BLOCK && spare >= SEQUENCE_SLACK) {
        put_word(out, head, head_len);
        let at = out.len();
        out.extend_from_slice(block);
        out.truncate(at + lit);
        put_word(out, tail, tail_len);
    } else {
        out.extend_from_slice(&head.to_le_bytes()[..head_len]);
        out.extend_from_slice(&data[lits]);
        out.extend_from_slice(&tail.to_le_bytes()[..tail_len]);
    }
}

/// Appends the literal run that ends an input: the last sequence, with
/// no offset.
fn put_last_literals(out: &mut Vec<u8>, run: &[u8]) {
    if !run.is_empty() {
        let (head, head_len) = head(run.len(), 0);
        out.extend_from_slice(&head.to_le_bytes()[..head_len]);
        out.extend_from_slice(run);
    }
}

/// Records position `i` in the table and returns the `(length,
/// distance)` of the match its slot's previous occupant offers, if any.
/// Needs `i + MIN_MATCH <= data.len()`.
#[inline]
fn find(table: &mut [u32; TABLE_LEN], base: u32, data: &[u8], i: usize) -> Option<(usize, usize)> {
    let word = load32(data, i);
    let here = base + i as u32;
    let dist = (here - std::mem::replace(&mut table[hash(word)], here)) as usize;
    // An empty slot and a position left by an earlier input both lie
    // before `base`, so their distance exceeds `i`.
    if dist == 0 || dist > i.min(MAX_DIST) || load32(data, i - dist) != word {
        return None;
    }
    let len = MIN_MATCH + common_prefix(&data[i - dist + MIN_MATCH..], &data[i + MIN_MATCH..]);
    Some((len, dist))
}

/// The greedy-lazy scan over one window; `more` says another window of
/// the same input follows. `STRIDE` is a compile-time switch only so
/// the ratio-guard tests can hold the unstrided parse equal to the
/// reference encoder's; every public entry point strides.
fn scan<const STRIDE: bool>(
    table: &mut [u32; TABLE_LEN],
    base: u32,
    data: &[u8],
    more: bool,
    out: &mut Vec<u8>,
) {
    let mut literal_start = 0usize;
    let mut misses = 0usize;
    let mut i = 0usize;
    while i + MIN_MATCH <= data.len() {
        let Some((mut len, mut dist)) = find(table, base, data, i) else {
            i += 1;
            if STRIDE {
                i += misses >> STRIDE_SHIFT;
                misses += 1;
            }
            continue;
        };
        misses = 0;
        // Lazy evaluation: a longer match starting one byte later wins;
        // the current byte joins the literal run.
        if i + 1 + MIN_MATCH <= data.len() {
            if let Some((len2, dist2)) = find(table, base, data, i + 1) {
                if len2 > len + 1 {
                    i += 1;
                    len = len2;
                    dist = dist2;
                }
            }
        }
        put_sequence(out, data, literal_start..i, len, dist);
        i += len;
        literal_start = i;
    }
    if more && literal_start < data.len() {
        put_sequence(out, data, literal_start..data.len(), MIN_MATCH, 0);
    } else {
        put_last_literals(out, &data[literal_start..]);
    }
}

/// The LZ77 match finder and the hash table it works in.
///
/// The table (128 KiB) is allocated on the first
/// [`compress_into`](Encoder::compress_into) and kept for the next one:
/// entries are positions counted from the first byte the encoder ever
/// saw, so an entry left by an earlier input reads as out of range and
/// the table needs no clearing between inputs (it is cleared, and the
/// count restarted, only before the count would pass `u32::MAX`).
/// Dropping the encoder releases it.
#[derive(Debug)]
pub struct Encoder {
    table: Vec<u32>,
    /// Table value of the next input's first byte. Starts at 1 so that
    /// 0 is an empty slot.
    base: u32,
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

impl Encoder {
    /// An encoder holding no memory yet.
    pub const fn new() -> Self {
        Encoder {
            table: Vec::new(),
            base: 1,
        }
    }

    /// Appends the token stream for `data` to `out`. Charges nothing:
    /// callers that count work add `data.len()` to their own
    /// `Cost::bytes_compressed`, as [`compress`] does.
    pub fn compress_into(&mut self, data: &[u8], out: &mut Vec<u8>) {
        self.compress_with::<true>(data, WINDOW, out);
    }

    fn compress_with<const STRIDE: bool>(&mut self, data: &[u8], window: usize, out: &mut Vec<u8>) {
        if self.table.is_empty() {
            self.table = vec![0; TABLE_LEN];
        }
        let mut windows = data.chunks(window).peekable();
        while let Some(chunk) = windows.next() {
            if u64::from(self.base) + chunk.len() as u64 > u64::from(u32::MAX) {
                self.table.fill(0);
                self.base = 1;
            }
            let table = <&mut [u32; TABLE_LEN]>::try_from(&mut self.table[..])
                .expect("table allocated with TABLE_LEN entries");
            scan::<STRIDE>(table, self.base, chunk, windows.peek().is_some(), out);
            self.base += chunk.len() as u32;
        }
    }
}

/// Compresses `data`, charging one pass over it to `cost.bytes_compressed`.
///
/// The output is only readable by [`decompress`]; it is a traffic model,
/// not an interchange format.
pub fn compress(data: &[u8], cost: &mut Cost) -> Vec<u8> {
    cost.bytes_compressed += data.len() as u64;
    cost.ops += 1;
    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    Encoder::new().compress_into(data, &mut out);
    out
}

/// Hard ceiling on [`decompress`]'s output. A malformed token stream can
/// declare astronomically long back-references with a handful of input
/// bytes; without a ceiling, decompression of untrusted input is an
/// allocation bomb. Callers that know the expected size should prefer
/// [`decompress_limited`], which enforces it exactly.
pub const MAX_DECOMPRESSED: usize = 1 << 30;

/// Decompresses a buffer produced by [`compress`].
///
/// Returns `None` if the input is malformed or the output would exceed
/// [`MAX_DECOMPRESSED`]. Never panics or over-allocates on untrusted
/// input: every length is bounds-checked with overflow-safe arithmetic
/// before any byte is produced.
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    decompress_limited(data, MAX_DECOMPRESSED)
}

/// Decompresses a buffer produced by [`compress`], refusing to produce
/// more than `max_len` output bytes.
pub fn decompress_limited(data: &[u8], max_len: usize) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    decompress_into(data, max_len, &mut out)?;
    Some(out)
}

/// Decompresses a buffer produced by [`compress`] onto the end of
/// `out`, refusing to append more than `max_len` bytes.
///
/// This is the entry point for wire-facing callers: a codec-tagged chunk
/// frame carries its raw length, so the receiver passes it here and a
/// frame whose token stream tries to inflate past the declared size is
/// rejected as malformed instead of ballooning memory. A back-reference
/// never reaches before the append point, and on `None` `out` is
/// exactly as it was.
///
/// Every sequence is appended: a length is checked against the input
/// left (literals) or the output so far (offsets) and against `max_len`
/// before any of its bytes are, and no block store passes `max_len`,
/// so memory follows the bytes read and produced, not a length a token
/// merely declares — and a caller that reserved `max_len` sees no
/// reallocation.
pub fn decompress_into(data: &[u8], max_len: usize, out: &mut Vec<u8>) -> Option<()> {
    let start = out.len();
    let inflated = inflate(data, start.saturating_add(max_len), out);
    if inflated.is_none() {
        out.truncate(start);
    }
    inflated
}

/// Reads a length extension: a varint that fits `usize`.
#[inline]
fn get_len(data: &[u8], pos: &mut usize) -> Option<usize> {
    usize::try_from(get_varint(data, pos)?).ok()
}

fn get_varint(data: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let byte = *data.get(*pos)?;
        *pos += 1;
        // A continuation byte whose payload bits would be shifted past
        // bit 63 encodes a value outside u64 — malformed, not wrapped.
        if shift == 63 && byte & 0x7e != 0 {
            return None;
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
        if shift > 63 {
            return None;
        }
    }
}

/// [`decompress_into`]'s loop: appends sequences to `out` while it stays
/// within `limit` bytes. Leaves what it appended on `None`.
fn inflate(data: &[u8], limit: usize, out: &mut Vec<u8>) -> Option<()> {
    let start = out.len();
    let mut pos = 0usize;
    while pos < data.len() {
        let token = data[pos];
        pos += 1;
        let mut lit = usize::from(token) & LIT_FIELD;
        if lit == LIT_FIELD {
            lit = get_len(data, &mut pos)?.checked_add(LIT_FIELD)?;
        }
        let at = out.len();
        if lit > limit - at {
            return None;
        }
        match data.get(pos..pos + BLOCK) {
            Some(block) if lit <= BLOCK && BLOCK <= limit - at => {
                out.extend_from_slice(block);
                out.truncate(at + lit);
            }
            _ => out.extend_from_slice(data.get(pos..pos.checked_add(lit)?)?),
        }
        pos += lit;
        if pos == data.len() {
            break;
        }
        // The offset, one or two bytes: a two-byte load masked by the
        // width bit, unless the stream ends after one byte.
        let wide = usize::from(token >> 7);
        let dist = match data.get(pos..pos + 2) {
            Some(&[lo, hi]) => usize::from(u16::from_le_bytes([lo, hi])) & (0xFF | (wide * 0xFF00)),
            _ if wide == 0 => usize::from(data[pos]),
            _ => return None,
        };
        pos += 1 + wide;
        let mut len = usize::from(token >> 3) & MATCH_FIELD;
        if dist == 0 {
            // Literals only; a match length would be meaningless.
            if len != 0 {
                return None;
            }
            continue;
        }
        if len == MATCH_FIELD {
            len = get_len(data, &mut pos)?.checked_add(MATCH_FIELD)?;
        }
        let len = len.checked_add(MIN_MATCH)?;
        let at = out.len();
        if dist > at - start || len > limit - at {
            return None;
        }
        let from = at - dist;
        if len <= BLOCK && dist >= BLOCK && BLOCK <= limit - at {
            out.extend_from_within(from..from + BLOCK);
            out.truncate(at + len);
        } else {
            // Overlapping copies are valid LZ77 (run-length encoding).
            // Each pass copies everything between `from` and the write
            // point, so the passes never overlap and double in size; a
            // match at `dist >= len` is one pass.
            let mut done = 0;
            while done < len {
                let n = (len - done).min(dist + done);
                out.extend_from_within(from..from + n);
                done += n;
            }
        }
    }
    Some(())
}

/// Compresses and reports only the resulting size; convenience for traffic
/// modelling when the compressed bytes themselves are not needed.
pub fn compressed_size(data: &[u8], cost: &mut Cost) -> u64 {
    compress(data, cost).len() as u64
}

/// How many bytes [`probe_ratio`] samples at most. The probe is the cheap
/// side of a cost-benefit decision; it must stay orders of magnitude
/// cheaper than compressing the chunk it judges.
pub const PROBE_SAMPLE_BYTES: usize = 2048;

/// Estimates the achievable compression ratio (`compressed / raw`, in
/// `0.0..=1.0`) of `data` from the byte-value entropy of a strided
/// sample.
///
/// The probe reads at most [`PROBE_SAMPLE_BYTES`] bytes regardless of
/// input size: it strides evenly across the input so a file whose head
/// is text and whose tail is random is judged on both. Shannon entropy
/// of the byte histogram, divided by 8, approximates the ratio an
/// order-0 coder would reach; LZ back-references usually beat it on
/// repetitive data, which is why the adaptive controller layers an
/// observed-outcome bias on top rather than trusting the probe alone.
///
/// Deterministic: same input, same estimate — no RNG, no thread
/// dependence. Returns `1.0` (incompressible) for empty input.
pub fn probe_ratio(data: &[u8]) -> f64 {
    probe_ratio_sampled(data.len(), |i| data[i])
}

/// [`probe_ratio`] over a virtual byte string of length `len` addressed
/// by `byte_at` — lets scatter-gather callers probe a frame without
/// first concatenating its pieces.
pub fn probe_ratio_sampled(len: usize, byte_at: impl Fn(usize) -> u8) -> f64 {
    if len == 0 {
        return 1.0;
    }
    let stride = len.div_ceil(PROBE_SAMPLE_BYTES).max(1);
    let mut hist = [0u32; 256];
    let mut sampled = 0u32;
    let mut i = 0;
    while i < len {
        hist[byte_at(i) as usize] += 1;
        sampled += 1;
        i += stride;
    }
    let n = f64::from(sampled);
    let mut entropy_bits = 0.0;
    for &count in &hist {
        if count > 0 {
            let p = f64::from(count) / n;
            entropy_bits -= p * p.log2();
        }
    }
    (entropy_bits / 8.0).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The stream format this module shipped before sequences: a varint
    /// `v` per token, a literal run of `v >> 1` bytes if `v` is even,
    /// else a match of `v >> 1` bytes whose distance follows as a second
    /// varint.
    fn put_varint(out: &mut Vec<u8>, mut v: u64) {
        while v >= 0x80 {
            out.push(v as u8 | 0x80);
            v >>= 7;
        }
        out.push(v as u8);
    }

    fn put_literals(out: &mut Vec<u8>, run: &[u8]) {
        if !run.is_empty() {
            put_varint(out, (run.len() as u64) << 1);
            out.extend_from_slice(run);
        }
    }

    /// The distance limit of the old format.
    const REFERENCE_MAX_DIST: usize = 64 * 1024;

    /// The encoder this module shipped before [`Encoder`], in the old
    /// stream format: a probe at every byte position, byte-wise loads
    /// and match extension. It is the definition of what the wire cost
    /// before, so the ratio guard below measures against it.
    fn reference_compress(data: &[u8]) -> Vec<u8> {
        reference_compress_within(data, REFERENCE_MAX_DIST)
    }

    /// [`reference_compress`] with matches reaching at most `max_dist`
    /// back.
    fn reference_compress_within(data: &[u8], max_dist: usize) -> Vec<u8> {
        fn hash4(data: &[u8], i: usize) -> usize {
            let v = u32::from_le_bytes([data[i], data[i + 1], data[i + 2], data[i + 3]]);
            (v.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
        }
        let mut out = Vec::new();
        let mut table = vec![usize::MAX; 1 << HASH_BITS];
        let mut literal_start = 0usize;
        let mut i = 0usize;
        let find = |table: &mut [usize], i: usize| -> Option<(usize, usize)> {
            if i + MIN_MATCH > data.len() {
                return None;
            }
            let h = hash4(data, i);
            let candidate = table[h];
            table[h] = i;
            if candidate == usize::MAX
                || i - candidate > max_dist
                || data[candidate..candidate + MIN_MATCH] != data[i..i + MIN_MATCH]
            {
                return None;
            }
            let mut len = MIN_MATCH;
            while i + len < data.len() && data[candidate + len] == data[i + len] {
                len += 1;
            }
            Some((len, i - candidate))
        };
        while i + MIN_MATCH <= data.len() {
            match find(&mut table, i) {
                Some((mut len, mut dist)) => {
                    if let Some((len2, dist2)) = find(&mut table, i + 1) {
                        if len2 > len + 1 {
                            i += 1;
                            len = len2;
                            dist = dist2;
                        }
                    }
                    put_literals(&mut out, &data[literal_start..i]);
                    put_varint(&mut out, ((len as u64) << 1) | 1);
                    put_varint(&mut out, dist as u64);
                    i += len;
                    literal_start = i;
                }
                None => i += 1,
            }
        }
        put_literals(&mut out, &data[literal_start..]);
        out
    }

    /// A parse: one `(literals, match length, distance)` per sequence,
    /// length and distance 0 for a sequence of literals only.
    type Parse = Vec<(Vec<u8>, usize, usize)>;

    /// The parse an old-format stream encodes: each match with the
    /// literal run before it.
    fn reference_parse(stream: &[u8]) -> Parse {
        let (mut parse, mut lits, mut pos) = (Vec::new(), Vec::new(), 0);
        while pos < stream.len() {
            let token = get_varint(stream, &mut pos).expect("well-formed") as usize;
            if token & 1 == 0 {
                lits.extend_from_slice(&stream[pos..pos + (token >> 1)]);
                pos += token >> 1;
            } else {
                let dist = get_varint(stream, &mut pos).expect("well-formed") as usize;
                parse.push((std::mem::take(&mut lits), token >> 1, dist));
            }
        }
        if !lits.is_empty() {
            parse.push((lits, 0, 0));
        }
        parse
    }

    /// The parse a sequence stream encodes, field by field.
    fn parse(stream: &[u8]) -> Parse {
        let (mut parse, mut pos) = (Vec::new(), 0);
        while pos < stream.len() {
            let token = stream[pos];
            pos += 1;
            let mut lit = usize::from(token) & LIT_FIELD;
            if lit == LIT_FIELD {
                lit += get_len(stream, &mut pos).expect("well-formed");
            }
            let lits = stream[pos..pos + lit].to_vec();
            pos += lit;
            if pos == stream.len() {
                parse.push((lits, 0, 0));
                break;
            }
            let mut dist = usize::from(stream[pos]);
            pos += 1;
            if token & WIDE != 0 {
                dist |= usize::from(stream[pos]) << 8;
                pos += 1;
            }
            let mut len = usize::from(token >> 3) & MATCH_FIELD;
            if dist == 0 {
                assert_eq!(len, 0, "offset 0 with match bits");
                parse.push((lits, 0, 0));
                continue;
            }
            if len == MATCH_FIELD {
                len += get_len(stream, &mut pos).expect("well-formed");
            }
            parse.push((lits, len + MIN_MATCH, dist));
        }
        parse
    }

    fn unstrided(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Encoder::new().compress_with::<false>(data, WINDOW, &mut out);
        out
    }

    /// The unstrided encoder and the reference, at this format's
    /// distance limit, decide alike: same literals, same matches.
    fn assert_same_parse(data: &[u8], what: &str) {
        let ours = parse(&unstrided(data));
        let reference = reference_parse(&reference_compress_within(data, MAX_DIST));
        assert!(
            ours == reference,
            "{what}: the parse diverges from the reference"
        );
    }

    const WORDS: &[&str] = &[
        "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog", "hello", "world",
        "meeting", "tomorrow", "lunch", "thanks", "see", "you", "later", "report", "draft",
        "chapter", "figure", "table", "result", "system", "design", "data", "sync", "cloud",
        "storage",
    ];

    fn word_salad(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 16);
        while out.len() < len {
            out.extend_from_slice(WORDS[rng.gen_range(0..WORDS.len())].as_bytes());
            out.push(b' ');
        }
        out.truncate(len);
        out
    }

    fn noise(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        rng.fill(&mut out[..]);
        out
    }

    /// The traces' content: runs of 256..4096 bytes, each word salad
    /// with probability `text_fraction`, noise otherwise
    /// (`ContentGen::mixed` in the workloads crate).
    fn mixed(rng: &mut StdRng, len: usize, text_fraction: f64) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let run = rng.gen_range(256..4096).min(len - out.len());
            if rng.gen_bool(text_fraction) {
                out.extend_from_slice(&word_salad(rng, run));
            } else {
                out.extend_from_slice(&noise(rng, run));
            }
        }
        out
    }

    /// Server-log lines (the compressible text of `tests/wire_codec.rs`).
    fn log_text(len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 128);
        let mut i = 0u64;
        while out.len() < len {
            out.extend_from_slice(
                format!(
                    "2026-08-07T12:{:02}:{:02} INFO request id={} path=/api/v1/items/{} \
                     status=200 latency_ms={}\n",
                    i / 60 % 60,
                    i % 60,
                    i.wrapping_mul(31) % 100_000,
                    i % 512,
                    i.wrapping_mul(7) % 300,
                )
                .as_bytes(),
            );
            i += 1;
        }
        out.truncate(len);
        out
    }

    /// 4 KiB B-tree pages: header, cell pointers, small records, zero
    /// padding (the SQLite-style content of `tests/wire_codec.rs`).
    fn sqlite_pages(len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        for (p, page) in out.chunks_exact_mut(4096).enumerate() {
            page[..16].copy_from_slice(b"SQLite format 3\0");
            let cells = 20 + p % 10;
            for c in 0..cells {
                let ptr = (4096 - (c + 1) * 64) as u16;
                page[16 + c * 2..18 + c * 2].copy_from_slice(&ptr.to_be_bytes());
                let at = 4096 - (c + 1) * 64;
                page[at..at + 8].copy_from_slice(&((p * cells + c) as u64).to_be_bytes());
            }
        }
        out
    }

    /// Noise with a marker every 8 KiB (the JPEG-like content of
    /// `tests/wire_codec.rs`).
    fn jpeg_like(rng: &mut StdRng, len: usize) -> Vec<u8> {
        let mut out = noise(rng, len);
        for chunk in out.chunks_exact_mut(8192) {
            chunk[..2].copy_from_slice(&[0xFF, 0xDA]);
        }
        out
    }

    /// The content classes the wire carries, `len` bytes of each.
    fn content_classes(len: usize) -> Vec<(&'static str, Vec<u8>)> {
        let rng = &mut StdRng::seed_from_u64(0x5EED);
        vec![
            ("word salad", word_salad(rng, len)),
            ("mix 0.3", mixed(rng, len, 0.3)),
            ("mix 0.6", mixed(rng, len, 0.6)),
            ("mix 0.8", mixed(rng, len, 0.8)),
            ("log text", log_text(len)),
            ("sqlite pages", sqlite_pages(len)),
            ("jpeg-like", jpeg_like(rng, len)),
            ("noise", noise(rng, len)),
            ("zeros", vec![0u8; len]),
        ]
    }

    const GUARD_FRAMES: [usize; 3] = [4 << 10, 24 << 10, 256 << 10];

    #[test]
    fn strided_output_is_within_one_percent_of_the_reference() {
        for (class, data) in content_classes(1 << 20) {
            for frame in GUARD_FRAMES {
                let (mut new, mut old) = (0usize, 0usize);
                let mut encoder = Encoder::new();
                for chunk in data.chunks(frame) {
                    let mut out = Vec::new();
                    encoder.compress_into(chunk, &mut out);
                    assert_eq!(
                        decompress_limited(&out, chunk.len()).as_deref(),
                        Some(chunk)
                    );
                    new += out.len();
                    old += reference_compress(chunk).len();
                }
                assert!(
                    new * 100 <= old * 101,
                    "{class} at {frame}-byte frames: {new} bytes vs reference {old} ({:+.3} %)",
                    (new as f64 / old as f64 - 1.0) * 100.0
                );
            }
        }
    }

    #[test]
    fn unstrided_parse_is_the_reference_parse() {
        for (class, data) in content_classes(1 << 19) {
            for frame in GUARD_FRAMES {
                // One encoder across frames: entries an earlier frame
                // left in the table must read as empty.
                let mut encoder = Encoder::new();
                for chunk in data.chunks(frame) {
                    let mut out = Vec::new();
                    encoder.compress_with::<false>(chunk, WINDOW, &mut out);
                    let reference = reference_parse(&reference_compress_within(chunk, MAX_DIST));
                    assert!(
                        parse(&out) == reference,
                        "{class} at {frame}-byte frames diverges from the reference"
                    );
                }
            }
        }
    }

    #[test]
    fn windows_concatenate_into_one_stream() {
        // Noise, text, noise: a window that ends in a literal tail is
        // closed with offset 0 unless it is the input's last.
        let rng = &mut StdRng::seed_from_u64(7);
        let data = [noise(rng, 700), word_salad(rng, 900), noise(rng, 1300)].concat();
        for window in [500, 1000, 1200, data.len()] {
            let mut closes = 0;
            let mut stream = Vec::new();
            Encoder::new().compress_with::<true>(&data, window, &mut stream);
            assert_eq!(
                decompress_limited(&stream, data.len()).as_deref(),
                Some(&data[..])
            );
            // Each window's stream, decoded on its own, is that window.
            let mut encoder = Encoder::new();
            let mut joined = Vec::new();
            let chunks: Vec<&[u8]> = data.chunks(window).collect();
            for (k, chunk) in chunks.iter().enumerate() {
                let mut part = Vec::new();
                encoder.compress_with::<true>(chunk, WINDOW, &mut part);
                assert_eq!(decompress(&part).as_deref(), Some(*chunk), "window {k}");
                if k + 1 < chunks.len() && matches!(parse(&part).last(), Some((_, 0, 0))) {
                    // The close: offset 0 after the literal tail.
                    part.push(0);
                    closes += 1;
                }
                joined.extend_from_slice(&part);
            }
            assert_eq!(joined, stream, "{window}-byte windows");
            assert_eq!(closes > 0, window < data.len(), "{window}-byte windows");
        }
        // A close after an empty tail would be a stray token: after a
        // match the window ends without one.
        let runs = [b'r'; 64];
        let mut stream = Vec::new();
        Encoder::new().compress_with::<true>(&[&runs[..], &runs[..]].concat(), 64, &mut stream);
        assert_eq!(decompress(&stream), Some(vec![b'r'; 128]));
        assert_eq!(parse(&stream).len(), 2);
    }

    #[test]
    fn table_positions_restart_before_they_overflow() {
        let data = b"hello world hello world hello world ".repeat(20);
        let mut encoder = Encoder::new();
        encoder.compress_into(&data, &mut Vec::new());
        // As if ~4 GiB had gone through: the next input does not fit
        // under u32::MAX, so the encoder clears the table and restarts.
        encoder.base = u32::MAX - 100;
        let mut out = Vec::new();
        encoder.compress_into(&data, &mut out);
        assert_eq!(encoder.base as usize, 1 + data.len());
        assert_eq!(out, compress(&data, &mut Cost::new()));
    }

    fn roundtrip(data: &[u8]) -> Vec<u8> {
        let compressed = compress(data, &mut Cost::new());
        let restored = decompress(&compressed).expect("decompression failed");
        assert_eq!(restored, data);
        compressed
    }

    #[test]
    fn empty_and_tiny() {
        assert!(roundtrip(b"").is_empty());
        roundtrip(b"a");
        roundtrip(b"abc");
        roundtrip(b"abcd");
    }

    #[test]
    fn repetitive_data_shrinks() {
        let data = b"hello world ".repeat(1000);
        let compressed = roundtrip(&data);
        assert!(
            compressed.len() < data.len() / 4,
            "compressed {} of {}",
            compressed.len(),
            data.len()
        );
    }

    #[test]
    fn random_data_does_not_explode() {
        let mut state = 42u64;
        let data: Vec<u8> = (0..50_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let compressed = roundtrip(&data);
        // Worst case adds only token framing overhead.
        assert!(compressed.len() < data.len() + data.len() / 100 + 16);
    }

    #[test]
    fn run_length_overlapping_match() {
        let data = vec![7u8; 10_000];
        let compressed = roundtrip(&data);
        assert!(compressed.len() < 100);
    }

    #[test]
    fn text_like_content_compresses_about_2x_or_more() {
        let words = [
            "the", "quick", "brown", "fox", "jumps", "over", "lazy", "dog",
        ];
        let mut state = 9u64;
        let mut text = String::new();
        while text.len() < 100_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            text.push_str(words[(state >> 33) as usize % words.len()]);
            text.push(' ');
        }
        let compressed = roundtrip(text.as_bytes());
        assert!(compressed.len() * 2 < text.len());
    }

    #[test]
    fn malformed_inputs_return_none() {
        // Five literals with only one byte present.
        assert!(decompress(&[0x05, b'a']).is_none());
        // A 4-byte match at distance 9 into an empty output.
        assert!(decompress(&[0x00, 0x09]).is_none());
        // A literal count extension cut short.
        assert!(decompress(&[0x07, 0x80]).is_none());
        // A match length extension missing after the offset.
        assert!(decompress(&[0x79, b'a', 0x01]).is_none());
        // A two-byte offset with one byte left.
        assert!(decompress(&[0x81, b'a', 0x01]).is_none());
        // Offset 0 ("no match") with match-length bits set.
        assert!(decompress(&[0x09, b'a', 0x00]).is_none());
        // Offset 0 without them is a literals-only sequence.
        assert_eq!(
            decompress(&[0x01, b'a', 0x00, 0x01, b'b']),
            Some(b"ab".to_vec())
        );
    }

    #[test]
    fn cost_charged_once_per_pass() {
        let mut cost = Cost::new();
        compressed_size(&vec![0u8; 1234], &mut cost);
        assert_eq!(cost.bytes_compressed, 1234);
    }

    #[test]
    fn zero_and_one_byte_inputs_never_panic() {
        assert_eq!(decompress(&[]), Some(Vec::new()));
        // Every single-byte input is either a valid empty-literal token
        // or malformed — never a panic.
        for b in 0..=255u8 {
            let _ = decompress(&[b]);
        }
        // A literal run of 0 bytes decodes to nothing.
        assert_eq!(decompress(&[0x00]), Some(Vec::new()));
    }

    #[test]
    fn truncated_tokens_are_rejected() {
        let data = b"hello world hello world hello world ".repeat(50);
        let full = compress(&data, &mut Cost::new());
        // Every proper prefix either decodes to a prefix-consistent
        // output or is rejected; it must never panic. Prefixes that cut
        // a token mid-varint or mid-literal must return None.
        for cut in 0..full.len() {
            let _ = decompress(&full[..cut]);
        }
        // Explicit truncations: literals promising more bytes than
        // remain, and a two-byte offset cut after its first byte.
        assert!(decompress(&[0x05, b'a']).is_none());
        assert!(decompress(&[0x81, b'a', 0x01]).is_none());
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // A literal count extension of ten continuation bytes pushes
        // past 63 bits of shift.
        let mut overlong = vec![0x07];
        overlong.extend_from_slice(&[0xff; 10]);
        assert!(decompress(&overlong).is_none());
        // Exactly at the boundary: a 10th byte with any bit above the
        // 64th set is malformed, not silently wrapped.
        let mut edge = vec![0x07];
        edge.extend_from_slice(&[0x80; 9]);
        edge.push(0x02);
        assert!(decompress(&edge).is_none());
        // Likewise for a match length extension.
        let mut edge = vec![0x7A, b'a', b'b', 0x01];
        edge.extend_from_slice(&[0x80; 9]);
        edge.push(0x02);
        assert!(decompress(&edge).is_none());
    }

    #[test]
    fn giant_declared_match_cannot_balloon_memory() {
        // Two literals, then a match at distance 1 declaring a length
        // near u64::MAX: rejected by the output ceiling without
        // allocating the declared length.
        let mut bomb = vec![0x7A, b'a', b'b', 0x01];
        put_varint(&mut bomb, u64::MAX - 64);
        assert!(decompress(&bomb).is_none());
        assert!(decompress_limited(&bomb, 1 << 16).is_none());
        // A match length just under the ceiling passes the ceiling but
        // not the cap.
        let mut bomb = vec![0x7A, b'a', b'b', 0x01];
        put_varint(&mut bomb, (MAX_DECOMPRESSED - 64) as u64);
        assert!(decompress_limited(&bomb, 1 << 16).is_none());
        // Literal counts likewise: past the ceiling, and under it but
        // past the input.
        for declared in [u64::MAX - 64, (MAX_DECOMPRESSED - 64) as u64] {
            let mut bomb = vec![0x07];
            put_varint(&mut bomb, declared);
            bomb.extend_from_slice(b"abc");
            assert!(decompress(&bomb).is_none());
            let mut out = Vec::new();
            assert!(decompress_into(&bomb, MAX_DECOMPRESSED, &mut out).is_none());
            assert!(out.capacity() < 4096, "capacity {}", out.capacity());
        }
    }

    #[test]
    fn decompress_limited_enforces_the_exact_cap() {
        let data = b"abcdabcdabcdabcd".repeat(64);
        let compressed = compress(&data, &mut Cost::new());
        assert_eq!(
            decompress_limited(&compressed, data.len()),
            Some(data.clone())
        );
        assert!(decompress_limited(&compressed, data.len() - 1).is_none());
        assert!(decompress_limited(&compressed, 0).is_none());
    }

    #[test]
    fn fuzz_random_inputs_never_panic_and_respect_the_limit() {
        // Fuzz-style sweep: decompress arbitrary byte soup at many
        // lengths. The property is total safety — no panic, no output
        // beyond the declared cap — not any particular decode result.
        let mut state = 0x123456789abcdef0u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u8
        };
        for round in 0..500 {
            let len = (round * 7) % 257;
            let buf: Vec<u8> = (0..len).map(|_| next()).collect();
            if let Some(out) = decompress_limited(&buf, 4096) {
                assert!(out.len() <= 4096);
            }
        }
    }

    mod prop {
        use super::super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            // Decompression is total over arbitrary byte soup: never a
            // panic, and any accepted output honors the caller's cap.
            #[test]
            fn decompress_is_total_on_random_bytes(
                data in proptest::collection::vec(any::<u8>(), 0..512),
                cap in 0usize..8192,
            ) {
                if let Some(out) = decompress_limited(&data, cap) {
                    prop_assert!(out.len() <= cap);
                }
            }

            // Real compressor output always round-trips exactly, and the
            // tight cap (exactly the original length) is sufficient.
            #[test]
            fn roundtrip_any_buffer(
                data in proptest::collection::vec(any::<u8>(), 0..4096),
            ) {
                let compressed = compress(&data, &mut Cost::new());
                let restored = decompress_limited(&compressed, data.len());
                prop_assert_eq!(restored, Some(data));
            }

            // With the stride off the new match finder makes exactly
            // the reference's decisions. A small alphabet makes matches
            // frequent; a wide one exercises the miss path.
            #[test]
            fn unstrided_parse_matches_reference_on_random_buffers(
                data in proptest::collection::vec(any::<u8>(), 0..4096),
                alphabet in 1u16..257,
            ) {
                let data: Vec<u8> = data.iter().map(|&b| (u16::from(b) % alphabet) as u8).collect();
                super::assert_same_parse(&data, "random buffer");
            }
        }
    }

    #[test]
    fn probe_separates_text_from_noise() {
        let text = b"the quick brown fox jumps over the lazy dog ".repeat(200);
        let mut state = 7u64;
        let noise: Vec<u8> = (0..8192)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect();
        let rt = probe_ratio(&text);
        let rn = probe_ratio(&noise);
        assert!(rt < 0.65, "text probe {rt}");
        assert!(rn > 0.9, "noise probe {rn}");
        assert_eq!(probe_ratio(&[]), 1.0);
        // The sampled variant over the same bytes agrees.
        assert_eq!(rt, probe_ratio_sampled(text.len(), |i| text[i]));
    }
}
