//! A deterministic InDel edit process, the yardstick for delta size.
//!
//! Wang et al. ("File Updates Under Random/Arbitrary Insertions And
//! Deletions") bound what an update must cost when a file is edited by
//! random insertions and deletions. [`InDelProcess`] draws such an edit
//! over a random old file and keeps its ledger: the exact edit script, as
//! a [`Delta`] that copies every surviving run and carries every inserted
//! byte. That script's [`wire_size`](Delta::wire_size) is the bound a
//! delta encoder is measured against.

use deltacfs_delta::{Delta, DeltaOp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random insertions and deletions over a random `n`-byte file.
///
/// Before each old byte an edit event happens with probability
/// `p_ins + p_del`. It inserts `burst` fresh random bytes there with
/// probability `p_ins / (p_ins + p_del)`, and otherwise deletes the
/// `burst` old bytes that start there. `burst = 1` is the classic
/// byte-wise process; larger bursts model edits of whole words or lines.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InDelProcess {
    /// Length of the old file in bytes.
    pub n: usize,
    /// Per-byte probability of an insertion event.
    pub p_ins: f64,
    /// Per-byte probability of a deletion event.
    pub p_del: f64,
    /// Bytes inserted or deleted by one event.
    pub burst: usize,
    /// Seed of the old content, the event positions and inserted bytes.
    pub seed: u64,
}

/// One draw of an [`InDelProcess`].
#[derive(Debug, Clone)]
pub struct InDelPair {
    /// The file before the edit.
    pub old: Vec<u8>,
    /// The file after the edit.
    pub new: Vec<u8>,
    /// The exact edit script: applied to `old` it yields `new`.
    pub script: Delta,
    /// Number of insertion and deletion events drawn.
    pub events: usize,
}

impl InDelPair {
    /// Wire bytes of the exact edit script: what the edit itself costs in
    /// the delta format.
    pub fn bound(&self) -> u64 {
        self.script.wire_size()
    }
}

impl InDelProcess {
    /// Draws the old file and its edit. Identical parameters give
    /// identical bytes.
    pub fn sample(&self) -> InDelPair {
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut old = vec![0u8; self.n];
        rng.fill(&mut old[..]);
        let p = self.p_ins + self.p_del;
        let burst = self.burst.max(1);
        let mut new = Vec::with_capacity(self.n);
        let mut ops = Vec::new();
        let mut events = 0;
        let mut at = 0usize;
        loop {
            // Bytes kept before the next event: geometric in `p`.
            let gap = if p <= 0.0 {
                usize::MAX
            } else if p >= 1.0 {
                0
            } else {
                let u = 1.0 - rng.gen::<f64>();
                (u.ln() / (1.0 - p).ln()) as usize
            };
            let kept_end = at.saturating_add(gap).min(self.n);
            if kept_end > at {
                new.extend_from_slice(&old[at..kept_end]);
                ops.push(DeltaOp::Copy {
                    offset: at as u64,
                    len: (kept_end - at) as u64,
                });
            }
            at = kept_end;
            if at == self.n {
                break;
            }
            events += 1;
            if rng.gen_bool(self.p_ins / p) {
                let mut inserted = vec![0u8; burst];
                rng.fill(&mut inserted[..]);
                new.extend_from_slice(&inserted);
                ops.push(DeltaOp::Literal(inserted.into()));
            } else {
                at = (at + burst).min(self.n);
            }
        }
        InDelPair {
            old,
            new,
            script: Delta::from_ops(ops),
            events,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn process(n: usize, rate: f64, burst: usize, seed: u64) -> InDelProcess {
        InDelProcess {
            n,
            p_ins: rate / 2.0,
            p_del: rate / 2.0,
            burst,
            seed,
        }
    }

    #[test]
    fn script_reconstructs_the_new_file() {
        for (rate, burst) in [(0.0, 1), (1e-3, 1), (1e-2, 64), (0.5, 3), (1.0, 1)] {
            for seed in 0..4 {
                let pair = process(10_000, rate, burst, seed).sample();
                assert_eq!(
                    pair.script.apply(&pair.old).unwrap(),
                    pair.new,
                    "rate {rate} burst {burst} seed {seed}"
                );
                assert_eq!(pair.old.len(), 10_000);
            }
        }
    }

    #[test]
    fn draws_are_deterministic() {
        let a = process(50_000, 1e-3, 8, 7).sample();
        let b = process(50_000, 1e-3, 8, 7).sample();
        assert_eq!((a.old, a.new, a.script), (b.old, b.new, b.script));
        assert_ne!(
            process(50_000, 1e-3, 8, 8).sample().new,
            process(50_000, 1e-3, 8, 7).sample().new
        );
    }

    #[test]
    fn event_count_follows_the_rate() {
        // 1e6 positions at rate 1e-3: about 1 000 events, and the inserted
        // share about half of them.
        let pair = process(1_000_000, 1e-3, 1, 3).sample();
        assert!(
            (800..1_200).contains(&pair.events),
            "{} events",
            pair.events
        );
        let inserted = pair.script.literal_bytes() as usize;
        assert!(
            (pair.events * 2 / 5..pair.events * 3 / 5).contains(&inserted),
            "{inserted} of {} events inserted",
            pair.events
        );
    }

    #[test]
    fn no_edit_is_one_copy() {
        let pair = process(4096, 0.0, 1, 1).sample();
        assert_eq!(pair.new, pair.old);
        assert_eq!(pair.events, 0);
        assert_eq!(
            pair.script.ops(),
            [DeltaOp::Copy {
                offset: 0,
                len: 4096
            }]
        );
    }
}
