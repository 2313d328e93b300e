//! Shared plumbing: seeded randomness, percentiles, process facts, the
//! scratch directory and the result record every workload fills in.

use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::Instant;

use twpp::obs::JsonWriter;

/// SplitMix64: a tiny seeded generator. Request order and sampling only
/// need reproducibility, not statistical strength.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 0.5)
}

/// Latency samples in microseconds, one per operation.
#[derive(Default, Clone)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    pub fn push_since(&mut self, started: Instant) {
        self.0.push(started.elapsed().as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `(p50, p99)` in microseconds.
    pub fn p50_p99(&self) -> (f64, f64) {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        (percentile(&v, 0.50), percentile(&v, 0.99))
    }

    /// Samples beyond the p99 rank: the support behind the tail figure.
    pub fn beyond_p99(&self) -> usize {
        self.len() - (0.99 * self.len() as f64).ceil() as usize
    }
}

/// Consecutive chunks a timed phase's samples are split into for rates.
const RATE_CHUNKS: usize = 10;

/// Work per second in a closed loop: the median, over ten consecutive
/// chunks of `(latency µs, work units)` samples, of each chunk's units
/// over its summed latency. One stall then moves one chunk only.
pub fn median_chunk_rate(samples: &[(f64, f64)]) -> f64 {
    let n = samples.len();
    let chunks = RATE_CHUNKS.clamp(1, n.max(1));
    let rates: Vec<f64> = (0..chunks)
        .map(|c| &samples[c * n / chunks..(c + 1) * n / chunks])
        .filter(|chunk| !chunk.is_empty())
        .map(|chunk| {
            let units: f64 = chunk.iter().map(|s| s.1).sum();
            let us: f64 = chunk.iter().map(|s| s.0).sum();
            units * 1e6 / us
        })
        .collect();
    median(&rates)
}

/// Resets this process's peak resident set (VmHWM) to its current
/// resident set, so [`peak_rss_mib`] then covers the timed phase only,
/// not set-up or the correctness gates.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process in MiB. The daemons under
/// test run in-process, so this is the system's footprint plus the
/// benchmark's own inputs, measured the same way on every commit.
pub fn peak_rss_mib() -> f64 {
    let status = fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit of the checkout, read from `.git` without running git;
/// `unknown` outside a git checkout.
pub fn git_rev() -> String {
    let read = |p: &str| fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev;
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_owned()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A scratch directory under `.bench_work/` in the working directory,
/// removed on drop.
pub struct WorkDir(PathBuf);

impl WorkDir {
    pub fn new(tag: &str) -> WorkDir {
        let dir = Path::new(".bench_work").join(format!("{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create the benchmark scratch directory");
        WorkDir(dir)
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leaves `.bench_work` itself only if another run still uses it.
        let _ = fs::remove_dir(".bench_work");
    }
}

/// Runs `setup` `reps` times, keeping the last result, and returns it
/// with the median set-up time in seconds. Earlier results are dropped
/// (stopping any daemon they own) before the next repetition starts.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (T, f64, Vec<f64>) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    let state = last.expect("at least one set-up repetition ran");
    (state, median(&times), times)
}

/// One measured figure of a run.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run produced: the correctness verdict, operation
/// counts, metrics, and human-readable lines printed ahead of the
/// JSON result.
#[derive(Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub lines: Vec<String>,
    /// Correctness-gate failures, each one line.
    pub errors: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    pub fn line(&mut self, text: String) {
        self.lines.push(text);
    }

    /// Records a failed correctness gate; the run then reports
    /// `correct: false` and exits non-zero.
    pub fn gate(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`, values printed with every digit.
    pub fn json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.key("correct");
        w.boolean(self.correct);
        w.key("attempted");
        w.uint(self.attempted);
        w.key("failed");
        w.uint(self.failed);
        w.key("metrics");
        w.begin_object();
        for m in &self.metrics {
            w.key(&m.name);
            w.begin_object();
            w.key("value");
            w.raw(&json_number(m.value));
            w.key("unit");
            w.string(m.unit);
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }
}

/// Shortest round-trip rendering of a finite float as a JSON number.
pub fn json_number(v: f64) -> String {
    if !v.is_finite() {
        return "0".into();
    }
    let mut s = String::new();
    let _ = write!(s, "{v}");
    s
}

/// Pins the calling thread, and every thread it spawns afterwards, to
/// the highest-numbered CPU it may run on; returns that CPU. On a small
/// VM a loopback round trip between two threads on different CPUs pays
/// an inter-processor wake-up whose cost depends on where the scheduler
/// happened to place them, which made latency bimodal from run to run.
#[cfg(target_os = "linux")]
pub fn pin_to_one_cpu() -> Option<usize> {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // A glibc `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..1024)
        .rev()
        .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is a readable buffer of exactly the size passed and
    // names a CPU the thread is already allowed on.
    if unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) } != 0 {
        return None;
    }
    Some(cpu)
}

#[cfg(not(target_os = "linux"))]
pub fn pin_to_one_cpu() -> Option<usize> {
    None
}
