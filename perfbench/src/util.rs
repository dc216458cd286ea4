//! Order statistics, set-up timing, the result line, and the procfs and
//! clock readers behind the noise witness and the process-level metrics.

use std::collections::BTreeMap;
use std::time::Instant;

/// Median of a sample (the mean of the middle pair for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Set-up samples gathered over a run. Millisecond phases jitter by
/// tens of percent when timed once and the host's speed drifts over
/// seconds, so workloads time their set-up many times, both before and
/// after the timed phase, and report the median.
#[derive(Debug, Default)]
pub struct SetupTimer {
    cpu_s: Vec<f64>,
    wall_s: Vec<f64>,
}

impl SetupTimer {
    /// Runs `f` `repeats` times (at least once), recording the process
    /// CPU time and wall time of each, and returns the last result; each
    /// result is dropped before the next run starts. No other thread of
    /// the process may be busy meanwhile.
    pub fn time<R>(&mut self, repeats: usize, mut f: impl FnMut() -> R) -> R {
        let mut last = None;
        for _ in 0..repeats.max(1) {
            drop(last.take());
            let (cpu0, t) = (process_cpu_us(), Instant::now());
            last = Some(f());
            self.wall_s.push(secs(t));
            self.cpu_s.push((process_cpu_us() - cpu0) / 1e6);
        }
        last.expect("at least one repeat")
    }

    /// Median CPU seconds of one set-up, all threads included.
    pub fn cpu_s(&self) -> f64 {
        median(&self.cpu_s)
    }

    /// One line naming the set-up, with its sample count and medians.
    pub fn report(&self, what: &str) -> String {
        format!(
            "{what} set-up: {} repeats, median {:.6} s CPU, {:.6} s wall",
            self.cpu_s.len(),
            self.cpu_s(),
            median(&self.wall_s)
        )
    }
}

/// Metric name → (value, unit), in name order.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, (f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        assert!(value.is_finite(), "metric {name} is not finite: {value}");
        self.0.insert(name, (value, unit));
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).map_or(0.0, |(v, _)| *v)
    }
}

/// Formats the contract's result line: exactly `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .0
        .iter()
        .map(|(name, (value, unit))| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

/// Latency histogram with 1024 linear sub-buckets per power of two
/// (0.1% relative resolution, exact below 2048 ns): fixed memory
/// however many samples a run records, so peak RSS does not grow with
/// throughput.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
}

const SUB_BITS: u32 = 10;
const SUB: u64 = 1 << SUB_BITS;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; (2 * SUB + 54 * SUB) as usize],
            total: 0,
        }
    }
}

impl LatencyHistogram {
    fn index(v: u64) -> usize {
        if v < 2 * SUB {
            return v as usize;
        }
        let shift = 63 - v.leading_zeros() - SUB_BITS;
        (u64::from(shift) * SUB + (v >> shift)) as usize
    }

    /// `(lower bound, width)` of bucket `i`.
    fn bucket(i: usize) -> (u64, u64) {
        let i = i as u64;
        if i < 2 * SUB {
            return (i, 1);
        }
        let shift = i / SUB - 1;
        ((i - shift * SUB) << shift, 1 << shift)
    }

    /// Records `n` samples of `ns`.
    pub fn record_n(&mut self, ns: u64, n: u64) {
        self.counts[Self::index(ns)] += n;
        self.total += n;
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    /// Quantile `q`, interpolated within its bucket, ns.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut below = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && below + c >= rank {
                let (lower, width) = Self::bucket(i);
                return lower as f64 + width as f64 * ((rank - below) as f64 - 0.5) / c as f64;
            }
            below += c;
        }
        unreachable!("rank is within the total count")
    }

    /// Mean, from bucket midpoints, ns.
    pub fn mean(&self) -> f64 {
        let sum: f64 = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lower, width) = Self::bucket(i);
                c as f64 * (lower as f64 + width as f64 / 2.0)
            })
            .sum();
        sum / self.total.max(1) as f64
    }
}

// ---------------------------------------------------------------------
// procfs and clocks
// ---------------------------------------------------------------------

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

fn status_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// The kernel's resident-set high-water mark (`VmHWM`) since the last
/// [`reset_peak_rss`], MiB. It catches transient peaks as well: the
/// kernel raises the mark before it unmaps freed memory.
fn peak_rss_mb() -> f64 {
    status_field(&read("/proc/self/status"), "VmHWM:") as f64 / 1024.0
}

/// Hands the free memory the allocator still holds from earlier phases
/// back to the kernel, then restarts the high-water mark from the
/// resident set that is left, so [`peak_rss_mb`] covers only what runs
/// after this call.
fn reset_peak_rss() {
    // SAFETY: `malloc_trim` only releases free heap memory; it takes a
    // plain integer and touches no memory this program owns.
    unsafe { malloc_trim(0) };
    // Writing 5 to clear_refs resets VmHWM to the current VmRSS.
    if let Err(e) = std::fs::write("/proc/self/clear_refs", "5") {
        eprintln!("perfbench: VmHWM not reset ({e}); peak_rss_mb includes earlier phases");
    }
}

/// The resident-set peak of a run's gated phases, with pauses for the
/// set-up rounds the benchmark runs between passes: those build a
/// second store beside the serving one, which no server does.
#[derive(Debug)]
pub struct PeakRss(f64);

impl PeakRss {
    /// Starts the gated phases: see [`reset_peak_rss`].
    pub fn start() -> PeakRss {
        reset_peak_rss();
        PeakRss(0.0)
    }

    /// Runs `f` with the peak paused: the peak so far is kept, and the
    /// mark restarts once `f` has freed what it allocated.
    pub fn paused(&mut self, f: impl FnOnce()) {
        self.0 = self.0.max(peak_rss_mb());
        f();
        reset_peak_rss();
    }

    /// The peak so far, MiB.
    pub fn mb(&self) -> f64 {
        self.0.max(peak_rss_mb())
    }
}

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time of every thread of the process,
/// live or exited.
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// User + system CPU time of this process so far, including threads
/// that have exited, µs at ns resolution. The kernel accounts hypervisor
/// steal apart from it, so it measures work done rather than time
/// waited.
pub fn process_cpu_us() -> f64 {
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `Timespec` matches the 64-bit Linux `struct timespec`
    // layout (two `long`s), `t` is a valid, exclusively borrowed
    // instance, and the process CPU clock always exists.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU clock is always readable");
    t.sec as f64 * 1e6 + t.nsec as f64 / 1e3
}

/// CPU time each live thread of this process has run so far
/// (`schedstat`, steal excluded), ns by task id.
pub fn task_cpu_ns() -> BTreeMap<u64, u64> {
    let mut out = BTreeMap::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let text = read(&format!("/proc/self/task/{tid}/schedstat"));
            if let Some(ns) = text.split_whitespace().next().and_then(|v| v.parse().ok()) {
                out.insert(tid, ns);
            }
        }
    }
    out
}

/// CPU ns the threads other than `except` ran between two
/// [`task_cpu_ns`] readings (threads alive at both).
pub fn cpu_ns_between(
    before: &BTreeMap<u64, u64>,
    after: &BTreeMap<u64, u64>,
    except: Option<u64>,
) -> u64 {
    after
        .iter()
        .filter(|(tid, _)| Some(**tid) != except)
        .map(|(tid, ns)| ns - before.get(tid).copied().unwrap_or(0))
        .sum()
}

/// This thread's kernel task id.
pub fn thread_id() -> u64 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .and_then(|s| s.parse().ok())
        })
        .unwrap_or(0)
}

/// Per-task `(voluntary, involuntary)` context switches of every live
/// thread of this process.
pub fn task_switches() -> BTreeMap<u64, (u64, u64)> {
    let mut out = BTreeMap::new();
    if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|s| s.parse().ok()) else {
                continue;
            };
            let text = read(&format!("/proc/self/task/{tid}/status"));
            out.insert(
                tid,
                (
                    status_field(&text, "voluntary_ctxt_switches:"),
                    status_field(&text, "nonvoluntary_ctxt_switches:"),
                ),
            );
        }
    }
    out
}

/// Host-wide `(steal, total)` CPU jiffies from `/proc/stat`.
fn host_jiffies() -> (u64, u64) {
    let stat = read("/proc/stat");
    let line = stat.lines().next().unwrap_or("");
    let v: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|x| x.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already included in user and nice.
    let total: u64 = v.iter().take(8).sum();
    (v.get(7).copied().unwrap_or(0), total)
}

/// Host-noise evidence for one run: hypervisor steal, machine shape and
/// the involuntary context switches this process suffered.
#[derive(Debug)]
pub struct NoiseWitness {
    start_jiffies: (u64, u64),
    start_invol: u64,
}

impl NoiseWitness {
    pub fn start() -> NoiseWitness {
        NoiseWitness {
            start_jiffies: host_jiffies(),
            start_invol: task_switches().values().map(|s| s.1).sum(),
        }
    }

    /// Hypervisor steal as a share of all host CPU time since `start`.
    pub fn steal_share(&self) -> f64 {
        let (steal, total) = host_jiffies();
        let dt = total.saturating_sub(self.start_jiffies.1);
        if dt == 0 {
            return 0.0;
        }
        steal.saturating_sub(self.start_jiffies.0) as f64 / dt as f64
    }

    /// One line naming the host noise this run saw.
    pub fn report(&self) -> String {
        let invol: u64 = task_switches().values().map(|s| s.1).sum();
        let model = read("/proc/cpuinfo")
            .lines()
            .find_map(|l| {
                l.strip_prefix("model name")
                    .map(|r| r.trim_start_matches([' ', '\t', ':']).to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        format!(
            "noise: host.steal_share {:.4}, nproc {}, cpu \"{}\", involuntary context switches {} (live threads)",
            self.steal_share(),
            nproc(),
            model,
            invol.saturating_sub(self.start_invol),
        )
    }
}

/// Available parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn histogram_quantiles_are_within_a_bucket() {
        let mut h = LatencyHistogram::default();
        for v in 1..=100_000u64 {
            h.record_n(v * 37, 1);
        }
        let p50 = h.quantile(0.5);
        assert!((p50 / (50_000.0 * 37.0) - 1.0).abs() < 2e-3, "p50 {p50}");
        let p99 = h.quantile(0.99);
        assert!((p99 / (99_000.0 * 37.0) - 1.0).abs() < 2e-3, "p99 {p99}");
        assert_eq!(h.len(), 100_000);
        for v in [0u64, 1, 2047, 2048, 4095, 4096, 1 << 40] {
            let (lower, width) = LatencyHistogram::bucket(LatencyHistogram::index(v));
            assert!(lower <= v && v < lower + width, "{v} outside its bucket");
        }
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = result_line(10, 0, &m);
        assert!(line
            .starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}"));
    }
}
