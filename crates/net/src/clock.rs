use std::cell::Cell;
use std::fmt;
use std::rc::Rc;

/// A point in simulated time, in milliseconds since the experiment start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

impl SimTime {
    /// The experiment origin.
    pub const ZERO: SimTime = SimTime(0);

    /// Milliseconds since the origin.
    pub fn as_millis(self) -> u64 {
        self.0
    }

    /// This time advanced by `ms` milliseconds.
    pub fn plus_millis(self, ms: u64) -> SimTime {
        SimTime(self.0 + ms)
    }

    /// Milliseconds from `earlier` to `self` (saturating at zero).
    pub fn since(self, earlier: SimTime) -> u64 {
        self.0.saturating_sub(earlier.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

/// A shared virtual clock.
///
/// Cloning a `SimClock` yields a handle to the *same* clock, so a replay
/// driver, a sync engine, and its sync queue all observe consistent time.
/// The clock only moves when the driver calls [`SimClock::advance`] — the
/// relation-table timeout (1–3 s) and sync-queue upload delay (3 s) from
/// the paper become deterministic. The simulation runs on one thread,
/// so the clock is an `Rc<Cell<u64>>` and neither `Send` nor `Sync`.
///
/// # Example
///
/// ```
/// use deltacfs_net::SimClock;
///
/// let clock = SimClock::new();
/// let engine_view = clock.clone();
/// clock.advance(1500);
/// assert_eq!(engine_view.now().as_millis(), 1500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct SimClock {
    now: Rc<Cell<u64>>,
}

impl SimClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        SimTime(self.now.get())
    }

    /// Moves the clock forward by `ms` milliseconds.
    pub fn advance(&self, ms: u64) {
        self.now.set(self.now.get().wrapping_add(ms));
    }

    /// Moves the clock to `t` if `t` is in the future; never rewinds.
    pub fn advance_to(&self, t: SimTime) {
        self.now.set(self.now.get().max(t.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clones_share_time() {
        let a = SimClock::new();
        let b = a.clone();
        a.advance(10);
        b.advance(5);
        assert_eq!(a.now(), SimTime(15));
        assert_eq!(b.now(), a.now());
    }

    #[test]
    fn advance_to_never_rewinds() {
        let c = SimClock::new();
        c.advance(100);
        c.advance_to(SimTime(50));
        assert_eq!(c.now(), SimTime(100));
        c.advance_to(SimTime(150));
        assert_eq!(c.now(), SimTime(150));
    }

    #[test]
    fn simtime_arithmetic() {
        let t = SimTime(100);
        assert_eq!(t.plus_millis(50), SimTime(150));
        assert_eq!(t.since(SimTime(40)), 60);
        assert_eq!(SimTime(10).since(SimTime(40)), 0);
        assert_eq!(format!("{t}"), "100ms");
    }
}
