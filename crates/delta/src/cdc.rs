//! Content-defined chunking (CDC) with a gear hash.
//!
//! This is the LBFS/Seafile approach (paper §II-A): chunk boundaries are
//! chosen where a rolling fingerprint of the content matches a mask, so an
//! insertion only perturbs the chunk it lands in — no per-byte strong
//! hashing is needed on unchanged regions. Seafile runs CDC with an average
//! chunk size of 1 MB, which is why its CPU usage is moderate but its
//! network usage is poor: touching one byte re-uploads a ~1 MB chunk.

use crate::cost::Cost;

/// Parameters for the gear-hash chunker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CdcParams {
    /// Minimum chunk length in bytes (boundaries are suppressed below it).
    pub min_size: usize,
    /// Number of mask bits; the average chunk size is `min_size + 2^mask_bits`.
    pub mask_bits: u32,
    /// Hard maximum chunk length in bytes.
    pub max_size: usize,
}

impl CdcParams {
    /// Seafile's defaults: ~1 MB average chunks.
    pub fn seafile() -> Self {
        CdcParams {
            min_size: 256 * 1024,
            mask_bits: 20,
            max_size: 4 * 1024 * 1024,
        }
    }

    /// Small chunks (~4 KB average), as used by Ori and LBFS-style systems.
    pub fn fine() -> Self {
        CdcParams {
            min_size: 1024,
            mask_bits: 12,
            max_size: 64 * 1024,
        }
    }

    /// The boundary mask derived from `mask_bits`.
    fn mask(&self) -> u64 {
        (1u64 << self.mask_bits) - 1
    }
}

impl Default for CdcParams {
    fn default() -> Self {
        Self::seafile()
    }
}

/// A chunk of a file identified by content-defined boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSpan {
    /// Byte offset of the chunk within the file.
    pub offset: u64,
    /// Chunk length in bytes.
    pub len: u64,
}

impl ChunkSpan {
    /// The chunk's bytes within `data`.
    ///
    /// # Panics
    ///
    /// Panics if the span does not lie within `data`.
    pub fn slice<'a>(&self, data: &'a [u8]) -> &'a [u8] {
        &data[self.offset as usize..(self.offset + self.len) as usize]
    }
}

/// The gear hash's per-byte values, built at compile time.
const GEAR: [u64; 256] = gear_table();

const fn gear_table() -> [u64; 256] {
    // splitmix64 from a fixed seed: deterministic across runs/platforms.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut table = [0u64; 256];
    let mut i = 0;
    while i < 256 {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        table[i] = z ^ (z >> 31);
        i += 1;
    }
    table
}

/// Splits `data` into content-defined chunks.
///
/// Charges one gear-scan pass over `data` to `cost.bytes_chunked`.
/// Always returns at least one chunk for non-empty input; chunk spans
/// partition the input exactly.
pub fn chunks(data: &[u8], params: &CdcParams, cost: &mut Cost) -> Vec<ChunkSpan> {
    let table = &GEAR;
    let mask = params.mask();
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut hash: u64 = 0;
    let mut i = 0usize;
    cost.bytes_chunked += data.len() as u64;
    while i < data.len() {
        hash = (hash << 1).wrapping_add(table[data[i] as usize]);
        let len = i - start + 1;
        let boundary = (len >= params.min_size && (hash & mask) == 0) || len >= params.max_size;
        if boundary {
            out.push(ChunkSpan {
                offset: start as u64,
                len: len as u64,
            });
            cost.ops += 1;
            start = i + 1;
            hash = 0;
        }
        i += 1;
    }
    if start < data.len() {
        out.push(ChunkSpan {
            offset: start as u64,
            len: (data.len() - start) as u64,
        });
        cost.ops += 1;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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

    fn small() -> CdcParams {
        CdcParams {
            min_size: 64,
            mask_bits: 8,
            max_size: 2048,
        }
    }

    #[test]
    fn chunks_partition_input_exactly() {
        let data = pseudo_random(100_000, 7);
        let mut cost = Cost::new();
        let spans = chunks(&data, &small(), &mut cost);
        let mut pos = 0u64;
        for s in &spans {
            assert_eq!(s.offset, pos);
            assert!(s.len > 0);
            pos += s.len;
        }
        assert_eq!(pos, data.len() as u64);
        assert_eq!(cost.bytes_chunked, data.len() as u64);
    }

    #[test]
    fn chunk_sizes_respect_min_and_max() {
        let data = pseudo_random(200_000, 11);
        let params = small();
        let spans = chunks(&data, &params, &mut Cost::new());
        for (i, s) in spans.iter().enumerate() {
            assert!(s.len as usize <= params.max_size);
            if i + 1 < spans.len() {
                assert!(s.len as usize >= params.min_size, "chunk {i} too small");
            }
        }
    }

    #[test]
    fn average_chunk_size_is_in_the_right_ballpark() {
        let data = pseudo_random(1_000_000, 13);
        let params = small();
        let spans = chunks(&data, &params, &mut Cost::new());
        let avg = data.len() / spans.len();
        let expected = params.min_size + (1 << params.mask_bits);
        // Within a factor of three of the analytic expectation.
        assert!(
            avg > expected / 3 && avg < expected * 3,
            "avg {avg}, expected around {expected}"
        );
    }

    #[test]
    fn insertion_only_perturbs_local_chunks() {
        let data = pseudo_random(300_000, 17);
        let mut edited = data.clone();
        edited.splice(150_000..150_000, pseudo_random(50, 19));
        let a = chunks(&data, &small(), &mut Cost::new());
        let b = chunks(&edited, &small(), &mut Cost::new());
        // Chunks strictly before the edit share identical spans.
        let before_edit = a
            .iter()
            .zip(b.iter())
            .take_while(|(x, y)| x == y && x.offset + x.len <= 150_000)
            .count();
        assert!(before_edit > 0, "no stable prefix chunks");
        // And a suffix of chunk *contents* re-synchronizes after the edit.
        let tail_a: Vec<&[u8]> = a.iter().rev().take(3).map(|s| s.slice(&data)).collect();
        let tail_b: Vec<&[u8]> = b.iter().rev().take(3).map(|s| s.slice(&edited)).collect();
        assert_eq!(tail_a, tail_b);
    }

    #[test]
    fn empty_input_yields_no_chunks() {
        assert!(chunks(&[], &small(), &mut Cost::new()).is_empty());
    }

    #[test]
    fn deterministic_across_calls() {
        let data = pseudo_random(50_000, 23);
        let a = chunks(&data, &small(), &mut Cost::new());
        let b = chunks(&data, &small(), &mut Cost::new());
        assert_eq!(a, b);
    }

    #[test]
    fn gear_table_and_boundaries_are_pinned() {
        let t = &GEAR;
        assert_eq!(t[0], 0x6e78_9e6a_a1b9_65f4);
        assert_eq!(t[1], 0x06c4_5d18_8009_454f);
        assert_eq!(t[255], 0xcbdc_6d34_b7c7_534d);
        let data = pseudo_random(4_000, 29);
        let ends: Vec<u64> = chunks(&data, &small(), &mut Cost::new())
            .iter()
            .map(|s| s.offset + s.len)
            .collect();
        assert_eq!(
            ends,
            [575, 866, 930, 1335, 1541, 1656, 2452, 3320, 3819, 4000]
        );
    }

    #[test]
    fn seafile_params_average_is_about_a_megabyte() {
        let p = CdcParams::seafile();
        assert_eq!(
            p.min_size + (1usize << p.mask_bits),
            256 * 1024 + 1024 * 1024
        );
    }
}
