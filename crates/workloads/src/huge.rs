//! Synthetic huge-file content for the standing benchmark's `huge_save`
//! workload.
//!
//! A [`HugeFile`] is a **virtual** byte string: content is a pure
//! function of `(seed, offset)` computed on demand (a splitmix64 word
//! stream), so memory is independent of the file length; callers
//! materialize only the ranges (or the single buffer) they actually feed
//! to the diff and edit the materialized bytes.
//!
//! The word-random content is deliberately incompressible and free of
//! repeated blocks, so a diff of two edited copies matches exactly the
//! ranges the edits left alone.

/// A deterministic, virtually-materialized huge file.
#[derive(Debug, Clone)]
pub struct HugeFile {
    seed: u64,
    len: u64,
}

/// splitmix64: the finalizer-quality mixer behind the word stream.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

impl HugeFile {
    /// A virtual file of `len` seed-determined bytes. No allocation
    /// proportional to `len` happens here or in [`read_at`].
    ///
    /// [`read_at`]: HugeFile::read_at
    pub fn new(seed: u64, len: u64) -> Self {
        HugeFile { seed, len }
    }

    /// Length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Fills `buf` with the bytes at `[offset, offset + buf.len())`;
    /// nothing outside that range is materialized anywhere.
    ///
    /// # Panics
    ///
    /// Panics if the range runs past the end of the file.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) {
        assert!(
            offset + buf.len() as u64 <= self.len,
            "read [{offset}, {}) past end {}",
            offset + buf.len() as u64,
            self.len
        );
        for (i, out) in buf.iter_mut().enumerate() {
            let at = offset + i as u64;
            let word = splitmix64(self.seed ^ (at / 8));
            *out = (word >> (8 * (at % 8))) as u8;
        }
    }

    /// Materializes `[start, end)` into a fresh buffer.
    pub fn materialize_range(&self, start: u64, end: u64) -> Vec<u8> {
        let mut buf = vec![0u8; (end - start) as usize];
        self.read_at(start, &mut buf);
        buf
    }

    /// Materializes the whole file — for callers that must hand the diff
    /// a contiguous slice. Tests should prefer [`materialize_range`].
    ///
    /// [`materialize_range`]: HugeFile::materialize_range
    pub fn materialize(&self) -> Vec<u8> {
        self.materialize_range(0, self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a = HugeFile::new(9, 10_000).materialize();
        let b = HugeFile::new(9, 10_000).materialize();
        let c = HugeFile::new(10, 10_000).materialize();
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.len(), 10_000);
    }

    #[test]
    fn read_at_matches_materialize() {
        let f = HugeFile::new(3, 5_000);
        let whole = f.materialize();
        assert_eq!(whole.len() as u64, f.len());
        for (start, len) in [
            (0u64, 64usize),
            (5, 1),
            (90, 40),
            (3_990, 300),
            (f.len() - 17, 17),
        ] {
            let mut buf = vec![0u8; len];
            f.read_at(start, &mut buf);
            assert_eq!(
                buf,
                &whole[start as usize..start as usize + len],
                "range [{start}, +{len})"
            );
        }
    }

    #[test]
    fn gigantic_files_stay_sparse() {
        // 1 TiB virtual length: constructing it and reading a page near
        // the tail must be instant and allocation-bounded by the page.
        let f = HugeFile::new(77, 1 << 40);
        assert_eq!(f.len(), 1 << 40);
        let mut page = vec![0u8; 4096];
        f.read_at(f.len() - 4096, &mut page);
        // Word-random content: no long zero runs.
        assert!(page.iter().filter(|&&b| b == 0).count() < 200);
    }

    #[test]
    fn cdc_resynchronizes_after_an_edit() {
        // Content-defined chunking sees real structure in the word
        // stream: cut points downstream of an edit coincide with the
        // unedited file's.
        use deltacfs_delta::cdc::{chunks, CdcParams};
        let old = HugeFile::new(5, 200_000).materialize();
        let mut new = old.clone();
        new[10_000..10_064].fill(0x55);
        let params = CdcParams {
            min_size: 1024,
            mask_bits: 11,
            max_size: 16 << 10,
        };
        let mut cost = deltacfs_delta::Cost::new();
        let old_cuts: std::collections::HashSet<u64> = chunks(&old, &params, &mut cost)
            .iter()
            .map(|c| c.offset)
            .collect();
        let new_cuts: Vec<u64> = chunks(&new, &params, &mut cost)
            .iter()
            .map(|c| c.offset)
            .collect();
        let resynced = new_cuts
            .iter()
            .filter(|o| **o > 20_000 && old_cuts.contains(o))
            .count();
        let downstream = new_cuts.iter().filter(|o| **o > 20_000).count();
        assert_eq!(
            resynced, downstream,
            "cut points diverged downstream of the edit"
        );
    }
}
