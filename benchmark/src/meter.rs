//! Process-level meters: a counting global allocator, a `/proc` CPU and
//! RSS reader, and order statistics. Std only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The system allocator with four counters in front of it. The counters
/// publish no other data, so every access is `Relaxed`.
pub struct CountingAlloc;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: u64) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes, Relaxed);
    let live = LIVE.fetch_add(bytes, Relaxed) + bytes;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters never influence what is allocated or freed.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size() as u64);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
    }

    // Forwarded (not the default alloc+copy+free) so large `Vec` growth
    // keeps the system allocator's in-place / mremap behaviour.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size() as u64, Relaxed);
            grew(new_size as u64);
        }
        p
    }
}

/// Allocator counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocSnapshot {
    /// Allocation calls (alloc, alloc_zeroed, realloc) so far.
    pub calls: u64,
    /// Bytes requested by those calls.
    pub bytes: u64,
    /// Bytes currently allocated.
    pub live: u64,
    /// Highest `live` since the last [`reset_peak`].
    pub peak: u64,
}

/// Reads the counters.
pub fn alloc_snapshot() -> AllocSnapshot {
    AllocSnapshot {
        calls: CALLS.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        live: LIVE.load(Relaxed),
        peak: PEAK.load(Relaxed),
    }
}

/// Restarts peak tracking from the current live size (start of a timed
/// section).
pub fn reset_peak() {
    PEAK.store(LIVE.load(Relaxed), Relaxed);
}

/// Linux reports `utime`/`stime` in clock ticks; `sysconf(_SC_CLK_TCK)`
/// is 100 on every Linux ABI Rust supports, and std offers no way to ask.
const CLK_TCK: f64 = 100.0;

/// User and system CPU seconds, summed over all threads.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CpuTimes {
    /// Seconds in user mode.
    pub user_s: f64,
    /// Seconds in kernel mode.
    pub sys_s: f64,
}

impl CpuTimes {
    /// `self - earlier`, field by field.
    pub fn since(&self, earlier: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_s: self.user_s - earlier.user_s,
            sys_s: self.sys_s - earlier.sys_s,
        }
    }
}

/// Parses the contents of `/proc/<pid>/stat`. The command name (field 2)
/// may hold spaces and parentheses, so fields are counted from the last
/// `)`: `utime` and `stime` are fields 14 and 15.
pub fn parse_proc_stat(stat: &str) -> Option<CpuTimes> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // `rest` starts at field 3 (state); utime is 11 fields further on.
    let utime: f64 = fields.nth(11)?.parse().ok()?;
    let stime: f64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_s: utime / CLK_TCK,
        sys_s: stime / CLK_TCK,
    })
}

/// CPU consumed by this process so far. `None` where `/proc` is missing.
pub fn cpu_times() -> Option<CpuTimes> {
    parse_proc_stat(&std::fs::read_to_string("/proc/self/stat").ok()?)
}

/// Parses `VmHWM` (peak resident set, KiB) out of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let kib = parse_vm_hwm_kib(&std::fs::read_to_string("/proc/self/status").ok()?)?;
    Some(kib as f64 / 1024.0)
}

/// Median of `values` (mean of the two middle ones for an even count).
/// `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// The `p`-th percentile (nearest rank) of `samples`, refused (`None`)
/// unless at least ten samples lie beyond it — a p99 needs 1 000 samples.
/// The median (`p = 50`) is exempt from the rule.
pub fn percentile(samples: &mut [f64], p: f64) -> Option<f64> {
    assert!((0.0..100.0).contains(&p), "percentile must be in [0, 100)");
    if samples.is_empty() {
        return None;
    }
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    if p > 50.0 && n - rank < 10 {
        return None;
    }
    Some(samples[rank - 1])
}

/// First and third quartile by the exclusive method, as Python's
/// `statistics.quantiles(values, n=4)` computes them. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    // Python: j = i*(n+1)//4 clamped to [1, n-1], then interpolate (or
    // extrapolate, when the clamp moved j) by delta = i*(n+1) - 4j.
    let at = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_counts_calls_bytes_live_and_peak() {
        // Other test threads allocate concurrently, so assert only on
        // growth this thread is known to cause.
        let before = alloc_snapshot();
        let buf = vec![7u8; 3 << 20];
        let during = alloc_snapshot();
        assert!(during.calls > before.calls);
        assert!(during.bytes >= before.bytes + (3 << 20));
        assert!(during.peak >= 3 << 20);
        reset_peak();
        let after_reset = alloc_snapshot();
        assert!(
            after_reset.peak >= 3 << 20,
            "peak restarts from live, which holds buf"
        );
        drop(buf);
        let big = vec![1u8; 8 << 20];
        assert!(alloc_snapshot().peak >= 8 << 20);
        drop(big);
    }

    #[test]
    fn realloc_keeps_live_consistent() {
        let mut v: Vec<u8> = Vec::with_capacity(1 << 20);
        let a = alloc_snapshot();
        v.reserve_exact(4 << 20);
        let b = alloc_snapshot();
        assert!(
            b.bytes >= a.bytes + (4 << 20),
            "realloc counts the new size"
        );
        assert!(b.calls > a.calls);
    }

    #[test]
    fn proc_stat_parses_past_a_hostile_command_name() {
        let stat = "4242 (a b) c) R 1 2 3 4 5 6 7 8 9 10 250 50 0 0 20 0 3 0 100 0 0";
        let t = parse_proc_stat(stat).unwrap();
        assert_eq!(t.user_s, 2.5);
        assert_eq!(t.sys_s, 0.5);

        assert!(parse_proc_stat("garbage").is_none());
    }

    #[test]
    fn live_cpu_reader_advances_under_load() {
        let Some(start) = cpu_times() else { return };
        let mut x = 0u64;
        let t0 = std::time::Instant::now();
        while t0.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let used = cpu_times().unwrap().since(&start);
        assert!(
            used.user_s + used.sys_s >= 0.03,
            "60 ms of spinning shows as >= 3 ticks"
        );
    }

    #[test]
    fn vm_hwm_parses() {
        let status = "Name:\tx\nVmPeak:\t  100 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(20480));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
    }

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let mut s: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(
            percentile(&mut s, 99.0),
            None,
            "999 samples leave 9 beyond p99"
        );
        let mut s: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 99.0), Some(990.0));
        assert_eq!(percentile(&mut s, 50.0), Some(500.0));
        let mut s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut s, 90.0), Some(90.0));
        assert_eq!(percentile(&mut s, 95.0), None);
        let mut small = [5.0, 1.0];
        assert_eq!(
            percentile(&mut small, 50.0),
            Some(1.0),
            "the median is exempt"
        );
        assert_eq!(percentile(&mut [], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]), Some((1.5, 4.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
