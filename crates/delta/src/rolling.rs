/// The rsync rolling (weak) checksum.
///
/// This is the Adler-32-inspired checksum from Tridgell & Mackerras'
/// original rsync paper: `a` is the byte sum and `b` is the positional sum,
/// both modulo 2^16; the digest is `a | b << 16`. Its defining property is
/// that sliding the window one byte forward costs O(1)
/// ([`RollingChecksum::roll`]), which is what lets rsync test every byte
/// offset of a file against a block table — and also why running it over
/// whole files on every modification burns the CPU the paper complains
/// about.
///
/// DeltaCFS reuses the same checksum for its 4 KB block checksum store
/// (§III-E), "which further reduces the computational cost".
///
/// # Example
///
/// ```
/// use deltacfs_delta::RollingChecksum;
///
/// let data = b"hello, rolling world";
/// let win = 5;
/// let mut rc = RollingChecksum::new(&data[..win]);
/// for i in 0..data.len() - win {
///     rc.roll(data[i], data[i + win]);
///     assert_eq!(rc.digest(), RollingChecksum::new(&data[i + 1..i + 1 + win]).digest());
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollingChecksum {
    a: u32,
    b: u32,
    window: u32,
}

/// Lanes of the block kernel: one 16-byte chunk per step, one `u16` lane
/// per byte position in the chunk.
const LANES: usize = 16;

impl RollingChecksum {
    /// Computes the checksum of an initial window.
    ///
    /// Both halves are taken mod 2^16, so the whole window is summed in
    /// `u16` wrapping lanes, [`LANES`] bytes a step: per chunk `P += A;
    /// A += bytes`. Byte `j` of chunk `k` (of `m`) adds to `b` once per
    /// byte after it, `16·(m−1−k) + (16−j)` times, so `a = ΣA` and
    /// `b = 16·ΣP + Σ(16−j)·A[j]`; the short tail continues byte by byte
    /// with `a += x; b += a`. The fixed-width lane loop compiles to
    /// vector adds on the default target (SSE2 on x86-64).
    pub fn new(window: &[u8]) -> Self {
        let mut acc = [0u16; LANES];
        let mut prefix = [0u16; LANES];
        let chunks = window.chunks_exact(LANES);
        let tail = chunks.remainder();
        for chunk in chunks {
            for j in 0..LANES {
                prefix[j] = prefix[j].wrapping_add(acc[j]);
                acc[j] = acc[j].wrapping_add(u16::from(chunk[j]));
            }
        }
        let mut a = 0u16;
        let mut b = 0u16;
        for j in 0..LANES {
            a = a.wrapping_add(acc[j]);
            b = b
                .wrapping_add(prefix[j].wrapping_mul(LANES as u16))
                .wrapping_add(acc[j].wrapping_mul((LANES - j) as u16));
        }
        for &x in tail {
            a = a.wrapping_add(u16::from(x));
            b = b.wrapping_add(a);
        }
        RollingChecksum {
            a: u32::from(a),
            b: u32::from(b),
            window: window.len() as u32,
        }
    }

    /// The state [`RollingChecksum::new`] leaves after a `window`-byte
    /// window whose digest is `digest`: a sum stored earlier (the Checksum
    /// Store's block sums) seeds a walk without re-reading the window.
    pub fn from_digest(digest: u32, window: usize) -> Self {
        RollingChecksum {
            a: digest & 0xffff,
            b: digest >> 16,
            window: window as u32,
        }
    }

    /// Slides the window one byte: removes `out` (the oldest byte) and
    /// appends `incoming`.
    #[inline]
    pub fn roll(&mut self, out: u8, incoming: u8) {
        self.a = self
            .a
            .wrapping_sub(out as u32)
            .wrapping_add(incoming as u32)
            & 0xffff;
        self.b = self
            .b
            .wrapping_sub(self.window.wrapping_mul(out as u32))
            .wrapping_add(self.a)
            & 0xffff;
    }

    /// The 32-bit digest (`a` in the low half, `b` in the high half).
    #[inline]
    pub fn digest(&self) -> u32 {
        self.a | (self.b << 16)
    }

    /// Non-committing 8-step lookahead: returns the checksum states after
    /// rolling 1, 2, …, 8 bytes forward (`outs[i]` leaves as `ins[i]`
    /// enters), without mutating `self`.
    ///
    /// `states[i]` is exactly what `i + 1` successive [`roll`] calls would
    /// produce — the miss loops use this to test a whole word of upcoming
    /// window positions against the weak filter and jump straight to the
    /// first plausible one.
    ///
    /// [`roll`]: RollingChecksum::roll
    #[inline]
    pub fn peek8(&self, outs: &[u8; 8], ins: &[u8; 8]) -> [RollingChecksum; 8] {
        let mut rc = *self;
        let mut states = [rc; 8];
        for i in 0..8 {
            rc.roll(outs[i], ins[i]);
            states[i] = rc;
        }
        states
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Convenience: the digest of `block` in one call.
    fn weak_digest(block: &[u8]) -> u32 {
        RollingChecksum::new(block).digest()
    }

    /// The scalar definition the lane kernel must reproduce bit for bit:
    /// `a = Σx`, `b = Σ(len−i)·x`, both mod 2^16.
    fn reference_digest(window: &[u8]) -> u32 {
        let mut a: u32 = 0;
        let mut b: u32 = 0;
        let len = window.len() as u32;
        for (i, &x) in window.iter().enumerate() {
            a = a.wrapping_add(x as u32);
            b = b.wrapping_add((len - i as u32).wrapping_mul(x as u32));
        }
        (a & 0xffff) | ((b & 0xffff) << 16)
    }

    /// Seeded bytes spread over the whole byte range.
    fn noise(len: usize, seed: u64) -> Vec<u8> {
        let mut state = seed;
        (0..len)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as u8
            })
            .collect()
    }

    #[test]
    fn empty_window_is_zero() {
        assert_eq!(RollingChecksum::new(&[]).digest(), 0);
    }

    #[test]
    fn kernel_matches_reference_at_every_length_to_4200() {
        let data = noise(4_200, 0xC0FF_EE00);
        let ones = vec![0xFFu8; 4_200];
        for len in 0..=data.len() {
            for window in [&data[..len], &ones[..len]] {
                assert_eq!(weak_digest(window), reference_digest(window), "len {len}");
            }
        }
    }

    #[test]
    fn kernel_does_not_overflow_on_a_17_mib_window_of_ones() {
        // The scalar loop's `(len − i) * x` leaves u32 from 16 843 010
        // bytes of 0xFF on; the lanes wrap by design.
        let window = vec![0xFFu8; 17 << 20];
        assert_eq!(weak_digest(&window), reference_digest(&window));
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn kernel_matches_reference_on_random_windows(
                len in 0usize..65_536,
                seed in any::<u64>(),
            ) {
                let window = noise(len, seed);
                prop_assert_eq!(weak_digest(&window), reference_digest(&window));
            }
        }
    }

    #[test]
    fn from_digest_round_trips_and_rolls_like_a_fresh_window() {
        let data = noise(3_000, 7);
        for win in [1usize, 15, 16, 17, 100, 1_024] {
            let seeded = RollingChecksum::from_digest(weak_digest(&data[..win]), win);
            assert_eq!(seeded, RollingChecksum::new(&data[..win]), "win {win}");
            let mut rc = seeded;
            for i in 0..data.len() - win {
                rc.roll(data[i], data[i + win]);
                assert_eq!(rc.digest(), weak_digest(&data[i + 1..i + 1 + win]));
            }
        }
    }

    #[test]
    fn roll_matches_fresh_computation() {
        let data: Vec<u8> = (0..=255u8).cycle().take(1000).collect();
        let win = 64;
        let mut rc = RollingChecksum::new(&data[..win]);
        for i in 0..data.len() - win {
            rc.roll(data[i], data[i + win]);
            let fresh = RollingChecksum::new(&data[i + 1..i + 1 + win]);
            assert_eq!(rc.digest(), fresh.digest(), "mismatch at offset {i}");
        }
    }

    #[test]
    fn different_content_usually_differs() {
        let a = weak_digest(b"aaaaaaaa");
        let b = weak_digest(b"aaaaaaab");
        assert_ne!(a, b);
    }

    #[test]
    fn order_sensitive() {
        // Unlike a plain byte sum, the positional term distinguishes
        // permutations.
        assert_ne!(weak_digest(b"ab"), weak_digest(b"ba"));
    }

    #[test]
    fn peek8_matches_sequential_rolls_at_every_offset() {
        let data: Vec<u8> = (0..500).map(|i| (i * 131 % 251) as u8).collect();
        for win in [4usize, 8, 64] {
            let mut rc = RollingChecksum::new(&data[..win]);
            let mut pos = 0usize;
            while pos + win + 8 <= data.len() {
                let outs: [u8; 8] = data[pos..pos + 8].try_into().unwrap();
                let ins: [u8; 8] = data[pos + win..pos + win + 8].try_into().unwrap();
                let states = rc.peek8(&outs, &ins);
                let before = rc;
                for (i, state) in states.iter().enumerate() {
                    let fresh = RollingChecksum::new(&data[pos + i + 1..pos + i + 1 + win]);
                    assert_eq!(
                        state.digest(),
                        fresh.digest(),
                        "win {win} pos {pos} step {i}"
                    );
                }
                // Non-committing: self unchanged.
                assert_eq!(rc, before);
                rc.roll(data[pos], data[pos + win]);
                assert_eq!(rc, states[0], "single roll equals first peeked state");
                pos += 1;
            }
        }
    }
}
