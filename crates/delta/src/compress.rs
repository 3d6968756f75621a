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
//! Format (private, round-trip only): a token stream where each token
//! starts with a varint `v`; if `v & 1 == 0` it is a literal run of
//! `v >> 1` bytes that follow, otherwise a back-reference of length
//! `v >> 1` whose distance follows as a second varint. A concatenation
//! of token streams is a token stream.
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
//! ratio-guard tests pin).

use crate::cost::Cost;
use crate::local::common_prefix;

const MIN_MATCH: usize = 4;
const MAX_DIST: usize = 64 * 1024;
const HASH_BITS: u32 = 15;
const TABLE_LEN: usize = 1 << HASH_BITS;

/// The scan step grows by one byte per `1 << STRIDE_SHIFT` consecutive
/// misses.
const STRIDE_SHIFT: u32 = 6;

/// Longest slice one pass of the table covers. Table entries are `u32`
/// positions, so longer inputs are compressed as independent windows
/// (the format concatenates).
const WINDOW: usize = 1 << 30;

#[inline]
fn load32(data: &[u8], at: usize) -> u32 {
    u32::from_le_bytes(data[at..at + 4].try_into().expect("4-byte slice"))
}

#[inline]
fn hash(word: u32) -> usize {
    (word.wrapping_mul(0x9E3779B1) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
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

/// [`get_varint`] with the one-byte case — nearly every token of real
/// compressor output — decided on the spot.
#[inline]
fn get_varint_fast(data: &[u8], pos: &mut usize) -> Option<u64> {
    match data.get(*pos) {
        Some(&byte) if byte < 0x80 => {
            *pos += 1;
            Some(u64::from(byte))
        }
        _ => get_varint(data, pos),
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

fn put_literals(out: &mut Vec<u8>, run: &[u8]) {
    if !run.is_empty() {
        put_varint(out, (run.len() as u64) << 1);
        out.extend_from_slice(run);
    }
}

/// The greedy-lazy scan over one window. `STRIDE` is a compile-time
/// switch only so the ratio-guard tests can pin the unstrided output
/// byte for byte against the reference encoder; every public entry
/// point strides.
fn scan<const STRIDE: bool>(
    table: &mut [u32; TABLE_LEN],
    base: u32,
    data: &[u8],
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
        put_literals(out, &data[literal_start..i]);
        put_varint(out, ((len as u64) << 1) | 1);
        put_varint(out, dist as u64);
        i += len;
        literal_start = i;
    }
    put_literals(out, &data[literal_start..]);
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
        self.compress_with::<true>(data, out);
    }

    fn compress_with<const STRIDE: bool>(&mut self, data: &[u8], out: &mut Vec<u8>) {
        if self.table.is_empty() {
            self.table = vec![0; TABLE_LEN];
        }
        for window in data.chunks(WINDOW) {
            if u64::from(self.base) + window.len() as u64 > u64::from(u32::MAX) {
                self.table.fill(0);
                self.base = 1;
            }
            let table = <&mut [u32; TABLE_LEN]>::try_from(&mut self.table[..])
                .expect("table allocated with TABLE_LEN entries");
            scan::<STRIDE>(table, self.base, window, out);
            self.base += window.len() as u32;
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
/// Tokens are decoded into a zero-filled window at the end of `out`
/// that is sized from the *input* (twice its length) and doubles
/// when a token that has passed every check needs more, never past
/// `max_len` — memory follows the bytes read and produced, not a length
/// a token merely declares.
pub fn decompress_into(data: &[u8], max_len: usize, out: &mut Vec<u8>) -> Option<()> {
    let start = out.len();
    let produced = inflate(data, max_len, out);
    out.truncate(start + produced.unwrap_or(0));
    produced.map(|_| ())
}

/// Short matches are copied as one fixed-size block; the bytes past the
/// match's end land in window space the next token overwrites.
const BLOCK: usize = 16;

/// Grows the decode window at the end of `out` to cover `..end`
/// (`end <= limit`): at least doubling it, never past `limit`.
#[inline]
fn ensure_window(out: &mut Vec<u8>, start: usize, end: usize, limit: usize) {
    if end > out.len() {
        let doubled = start.saturating_add((out.len() - start).saturating_mul(2));
        out.resize(doubled.max(end).min(limit), 0);
    }
}

/// [`decompress_into`]'s loop. Leaves `out` longer than the bytes
/// produced (the window); returns how many bytes it produced.
fn inflate(data: &[u8], max_len: usize, out: &mut Vec<u8>) -> Option<usize> {
    let start = out.len();
    // One past the last index this call may ever write.
    let limit = start.saturating_add(max_len);
    let window = data.len().saturating_mul(2);
    out.resize(limit.min(start.saturating_add(window)), 0);
    let mut at = start;
    let mut pos = 0usize;
    while pos < data.len() {
        let token = get_varint_fast(data, &mut pos)?;
        let len = usize::try_from(token >> 1).ok()?;
        if len > limit - at {
            return None;
        }
        if token & 1 == 0 {
            let run = data.get(pos..pos.checked_add(len)?)?;
            ensure_window(out, start, at + len, limit);
            out[at..at + len].copy_from_slice(run);
            pos += len;
        } else {
            let dist = usize::try_from(get_varint_fast(data, &mut pos)?).ok()?;
            if dist == 0 || dist > at - start {
                return None;
            }
            ensure_window(out, start, at + len, limit);
            let from = at - dist;
            if len <= BLOCK && dist >= BLOCK && at + BLOCK <= out.len() {
                let block: [u8; BLOCK] = out[from..from + BLOCK]
                    .try_into()
                    .expect("BLOCK-byte slice");
                out[at..at + BLOCK].copy_from_slice(&block);
            } else {
                // Overlapping copies are valid LZ77 (run-length
                // encoding). Each pass copies everything between `from`
                // and the write point, so the passes never overlap and
                // double in size; a match at `dist >= len` is one pass.
                let mut done = 0;
                while done < len {
                    let n = (len - done).min(dist + done);
                    out.copy_within(from..from + n, at + done);
                    done += n;
                }
            }
        }
        at += len;
    }
    Some(at - start)
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

    /// The encoder this module shipped before [`Encoder`]: a probe at
    /// every byte position, byte-wise loads and match extension. It is
    /// the definition of what the wire cost before, so the ratio guard
    /// below measures against it.
    fn reference_compress(data: &[u8]) -> Vec<u8> {
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
                || i - candidate > MAX_DIST
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

    fn unstrided(data: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        Encoder::new().compress_with::<false>(data, &mut out);
        out
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
    fn unstrided_output_is_the_reference_output() {
        for (class, data) in content_classes(1 << 19) {
            for frame in GUARD_FRAMES {
                // One encoder across frames: entries an earlier frame
                // left in the table must read as empty.
                let mut encoder = Encoder::new();
                for chunk in data.chunks(frame) {
                    let mut out = Vec::new();
                    encoder.compress_with::<false>(chunk, &mut out);
                    assert!(
                        out == reference_compress(chunk),
                        "{class} at {frame}-byte frames diverges from the reference"
                    );
                }
            }
        }
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
        // Literal run of 5 with only 1 byte present.
        assert!(decompress(&[0x0a, b'a']).is_none());
        // Match of len 2 with dist 9 into an empty output.
        assert!(decompress(&[0x05, 0x09]).is_none());
        // Truncated varint.
        assert!(decompress(&[0x80]).is_none());
        // Match token missing its distance varint.
        assert!(decompress(&[0x05]).is_none());
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
        // Explicit truncations: literal promising more bytes than remain,
        // and a match token whose distance varint is missing.
        assert!(decompress(&[0x0a, b'a']).is_none());
        assert!(decompress(&[0x05]).is_none());
    }

    #[test]
    fn varint_overflow_is_rejected() {
        // Ten continuation bytes push past 63 bits of shift.
        let overlong = [0xff; 10];
        assert!(decompress(&overlong).is_none());
        // Exactly at the boundary: a 10th byte with any bit above the
        // 64th set is malformed, not silently wrapped.
        let mut edge = [0x80u8; 10];
        edge[9] = 0x02;
        assert!(decompress(&edge).is_none());
    }

    #[test]
    fn giant_declared_match_cannot_balloon_memory() {
        // A back-reference declaring a near-u64::MAX length with dist 1:
        // two literal bytes then the bomb token. Must be rejected by the
        // output ceiling without allocating the declared length.
        let mut bomb = vec![0x04, b'a', b'b'];
        put_varint(&mut bomb, (u64::MAX >> 1 << 1) | 1); // match, huge len
        put_varint(&mut bomb, 1); // dist 1
        assert!(decompress(&bomb).is_none());
        assert!(decompress_limited(&bomb, 1 << 16).is_none());
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
            fn unstrided_matches_reference_on_random_buffers(
                data in proptest::collection::vec(any::<u8>(), 0..4096),
                alphabet in 1u16..257,
            ) {
                let data: Vec<u8> = data.iter().map(|&b| (u16::from(b) % alphabet) as u8).collect();
                prop_assert_eq!(super::unstrided(&data), super::reference_compress(&data));
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
