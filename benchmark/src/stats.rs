//! Order statistics, process accounting from `/proc`, and the host-noise
//! sentinel.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// First quartile, median and third quartile of `values`, by the rule of
/// Python's `statistics.quantiles(values, n=4)`, so a spread computed here
/// reads the same as one computed from the printed results.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        n => {
            let at = |k: usize| {
                // Position k(n+1)/4, one-based, clamped into the sample.
                let pos = (k * (n + 1)) as f64 / 4.0;
                let j = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - j as f64;
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            (at(1), at(2), at(3))
        }
    }
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// The value below which `share` of the samples lie (nearest rank).
pub fn percentile(values: &[f64], share: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (share * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Interquartile range over the median; 0 for fewer than two samples.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if values.len() < 2 || med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med
    }
}

/// Linux reports process CPU time in ticks of 1/100 s on every supported
/// architecture (`USER_HZ`).
const TICKS_PER_S: f64 = 100.0;

/// User plus system CPU seconds this process has used, exited threads
/// included.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name may hold spaces; fields are counted after its ")".
    let after = &stat[stat.rfind(')').expect("comm field") + 1..];
    let fields: Vec<&str> = after.split_whitespace().collect();
    // `after` starts at field 3 (state); utime and stime are fields 14, 15.
    let ticks = |i: usize| fields[i - 3].parse::<f64>().expect("cpu ticks");
    (ticks(14) + ticks(15)) / TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// What [`sentinel_ms`] reads on the box the first baseline was taken on,
/// while that box is quiet. Timings are reported as they would read at this
/// host speed, see [`HostState::speed_index`].
pub const SENTINEL_REF_MS: f64 = 2.65;

/// A job during which the hypervisor stole more CPU than this many 10 ms
/// ticks is not a measurement of the program.
pub const STEAL_TOLERANCE_TICKS: u64 = 2;

/// The host-noise sentinel: milliseconds one thread takes for a fixed loop
/// of the benchmark's own, half latency-bound (a dependent arithmetic
/// chain) and half throughput-bound (independent vector arithmetic on an
/// array that fits the first-level cache).
///
/// This box changes speed under the benchmark for minutes at a time (a
/// neighbour on the sibling hardware thread): dense code slows by up to
/// 1.7x, a dependent chain hardly at all, and the four workloads by 1.25x
/// to 1.4x, which is what this half-and-half loop does too. It calls
/// nothing of the program, so no change to the program moves it.
pub fn sentinel_ms() -> f64 {
    let t0 = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut acc = 0.0f64;
    for _ in 0..600_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc * 0.999_999 + (x >> 40) as f64;
    }
    black_box((x, acc));
    let mut y = [0.5f32; 1024];
    let xs = [0.25f32; 1024];
    for r in 0..12_000u32 {
        let a = 0.999 + (r & 1) as f32 * 1e-4;
        for (yi, xi) in y.iter_mut().zip(&xs) {
            *yi = *yi * a + xi;
        }
        black_box(&mut y);
    }
    t0.elapsed().as_secs_f64() * 1e3
}

/// CPU time the hypervisor gave to someone else while this guest wanted
/// it, in ticks, over all CPUs since boot (`steal` of `/proc/stat`).
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("cpu line of /proc/stat");
    // "cpu user nice system idle iowait irq softirq steal ..."
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// What the host did to one job.
#[derive(Debug, Clone, Copy)]
pub struct HostState {
    /// The sentinel taken right before and right after the job, over
    /// [`SENTINEL_REF_MS`]: 1.3 means the host ran this job 1.3x slower than
    /// the reference. A job's times are divided by it and its rates
    /// multiplied, so that a median over jobs taken in a slow minute and one
    /// taken in a fast minute agree.
    pub speed_index: f64,
    /// Ticks stolen by the hypervisor during the job.
    pub steal_ticks: u64,
}

impl HostState {
    pub fn clean(&self) -> bool {
        self.steal_ticks <= STEAL_TOLERANCE_TICKS
    }
}

/// Runs `f` and reports the host's state around it.
pub fn observe_host<T>(f: impl FnOnce() -> T) -> (T, HostState) {
    let steal_before = steal_ticks();
    let before = sentinel_ms();
    let out = f();
    let after = sentinel_ms();
    let state = HostState {
        speed_index: (before + after) / 2.0 / SENTINEL_REF_MS,
        steal_ticks: steal_ticks().saturating_sub(steal_before),
    };
    (out, state)
}

/// Median microseconds of one call of `f`: at least `min_calls` timed
/// samples, or as many as fit in `cap` once 50 are in. A call faster than
/// the clock's own cost is timed in batches.
pub fn probe_us(min_calls: usize, cap: Duration, mut f: impl FnMut()) -> f64 {
    f();
    let t = Instant::now();
    f();
    let once_ns = t.elapsed().as_nanos().max(1) as u64;
    let batch = (2_000 / once_ns).clamp(1, 64) as usize;
    let mut samples = Vec::with_capacity(min_calls);
    let start = Instant::now();
    while samples.len() < min_calls {
        if samples.len() >= 50 && start.elapsed() > cap {
            break;
        }
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / 1e3 / batch as f64);
    }
    median(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
    }
}
