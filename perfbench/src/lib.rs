//! End-to-end and per-layer benchmark of the Polite WiFi workspace.
//!
//! `perfbench --workload W --seed N --seconds S --trace 0|1` runs one
//! workload for `S` seconds on inputs generated from `N`, checks every
//! output, and prints as its last line one JSON object with the
//! verdict and the metrics named in `BENCHMARK.json`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See `perfbench/README.md` for what each workload and metric means.

pub mod alloc;
pub mod city;
pub mod layers;
pub mod paper;
pub mod serve;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 3] = ["paper", "city", "serve"];

/// An end-to-end metric: name, unit, which direction is better.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

#[rustfmt::skip]
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd { name: "setup_s",     unit: "s",  better: "lower" },
    EndToEnd { name: "wall_s",      unit: "s",  better: "lower" },
    EndToEnd { name: "peak_rss_mb", unit: "MB", better: "lower" },
];

/// A per-layer metric and the end-to-end metric and workload a change
/// to its layer should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
    pub on: &'static str,
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        moves,
        on,
    }
}

#[rustfmt::skip]
pub const PER_LAYER: &[PerLayer] = &[
    layer("sim.ns_per_event",       "ns",     "lower",  "wall_s", "city"),
    layer("sim.events",             "count",  "lower",  "wall_s", "city"),
    layer("sim.arrivals_per_tx",    "ratio",  "lower",  "wall_s", "city"),
    layer("sim.allocs",             "count",  "lower",  "wall_s", "city"),
    layer("devices.population_ms",  "ms",     "lower",  "setup_s", "city"),
    layer("devices.allocs",         "count",  "lower",  "setup_s", "city"),
    layer("frame.encode_ns",        "ns",     "lower",  "wall_s", "paper"),
    layer("frame.parse_ns",         "ns",     "lower",  "wall_s", "city"),
    layer("frame.allocs",           "count",  "lower",  "wall_s", "city"),
    layer("phy.csi_sample_ns",      "ns",     "lower",  "wall_s", "paper"),
    layer("phy.allocs",             "count",  "lower",  "wall_s", "paper"),
    layer("sensing.condition_ms",   "ms",     "lower",  "wall_s", "paper"),
    layer("sensing.segment_ms",     "ms",     "lower",  "wall_s", "paper"),
    layer("sensing.keystroke_ms",   "ms",     "lower",  "wall_s", "paper"),
    layer("sensing.hub_ms",         "ms",     "lower",  "wall_s", "paper"),
    layer("sensing.allocs",         "count",  "lower",  "wall_s", "paper"),
    layer("core.drain_run_ms",      "ms",     "lower",  "wall_s", "paper"),
    layer("core.keystroke_run_ms",  "ms",     "lower",  "wall_s", "paper"),
    layer("core.allocs",            "count",  "lower",  "wall_s", "paper"),
    layer("scenario.parse_us",      "us",     "lower",  "wall_s", "serve"),
    layer("scenario.hash_us",       "us",     "lower",  "wall_s", "serve"),
    layer("scenario.allocs",        "count",  "lower",  "wall_s", "serve"),
    layer("harness.envelope_ms",    "ms",     "lower",  "wall_s", "serve"),
    layer("harness.envelope_bytes", "bytes",  "lower",  "wall_s", "serve"),
    layer("harness.allocs",         "count",  "lower",  "wall_s", "serve"),
    layer("obs.incr_ns",            "ns",     "lower",  "wall_s", "city"),
    layer("obs.json_parse_us",      "us",     "lower",  "wall_s", "serve"),
    layer("obs.allocs",             "count",  "lower",  "wall_s", "serve"),
    layer("daemon.cache_get_us",    "us",     "lower",  "wall_s", "serve"),
    layer("daemon.cache_put_us",    "us",     "lower",  "wall_s", "serve"),
    layer("daemon.http_rtt_us",     "us",     "lower",  "wall_s", "serve"),
    layer("daemon.allocs",          "count",  "lower",  "wall_s", "serve"),
    layer("daemon.cache_hit_ratio", "ratio",  "higher", "wall_s", "serve"),
    layer("daemon.jobs_completed",  "count",  "higher", "wall_s", "serve"),
    layer("daemon.rejected",        "count",  "lower",  "wall_s", "serve"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Run {
    /// Duration of each set-up repetition, seconds.
    pub setup_s: Vec<f64>,
    /// Duration of each pass over the workload's fixed operation set.
    pub pass_s: Vec<f64>,
    /// Whether recording was on during each pass (traced runs alternate).
    pub pass_traced: Vec<bool>,
    /// Latency samples of each operation of the pass, milliseconds,
    /// indexed by the operation's place in the pass.
    pub op_ms: Vec<Vec<f64>>,
    /// Latency of every request sent, by whether it was a cache hit
    /// (`serve` only; reported on standard error).
    pub hit_ms: Vec<f64>,
    pub miss_ms: Vec<f64>,
    /// Simulated events dispatched during the passes (`city` only).
    pub events: u64,
    /// Operations attempted: specs, neighbourhoods or requests.
    pub attempted: u64,
    /// Operations that failed a check.
    pub failed: u64,
    /// Failure messages; also other failed checks that are not one
    /// operation (a counter mismatch after a pass).
    pub failures: Vec<String>,
}

impl Run {
    /// Records one failed check.
    pub fn fail(&mut self, why: String) {
        if self.failures.len() < 20 {
            eprintln!("perfbench: check failed: {why}");
        }
        self.failures.push(why);
    }

    /// Operation `index` of the pass took `ms`; `problem` is why it
    /// failed its check, if it did.
    pub fn op(&mut self, index: usize, ms: f64, problem: Option<String>) {
        if self.op_ms.len() <= index {
            self.op_ms.resize(index + 1, Vec::new());
        }
        self.op_ms[index].push(ms);
        self.attempted += 1;
        if let Some(why) = problem {
            self.failed += 1;
            self.fail(why);
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// One pass at the host's best speed, seconds: the sum over the
    /// pass's operations of each one's fastest time in the run. The host
    /// runs the same code up to 1.9x slower for tens of seconds at a
    /// time; a median follows those spells, the minimum over a run's
    /// repetitions follows the program's own cost.
    pub fn best_pass_s(&self) -> f64 {
        self.op_ms
            .iter()
            .map(|samples| samples.iter().copied().fold(f64::INFINITY, f64::min))
            .sum::<f64>()
            / 1e3
    }
}

/// The scratch directory one run works in, under the checkout.
pub fn work_dir(workload: &str) -> PathBuf {
    PathBuf::from(".perfbench").join(format!("{workload}-{}", std::process::id()))
}

/// SplitMix64: the benchmark's own generator for seed-derived inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn dup(fd: i32) -> i32;
    fn dup2(old: i32, new: i32) -> i32;
    fn close(fd: i32) -> i32;
}

/// Points this process's standard output at `/dev/null` until dropped.
///
/// The experiments and the daemon's jobs print their reports to standard
/// output, a few lines per spec or miss. Written to a pipe, each line
/// wakes whoever reads it, so the measured time would depend on the
/// reader; the benchmark's own result line is printed after the drop.
pub struct SilencedStdout {
    saved: i32,
}

impl SilencedStdout {
    pub fn new() -> std::io::Result<SilencedStdout> {
        use std::io::Write;
        use std::os::fd::AsRawFd;
        let null = std::fs::OpenOptions::new().write(true).open("/dev/null")?;
        std::io::stdout().flush()?;
        // SAFETY: plain descriptor calls on fd 1 and on `null`, which is
        // open for the duration of the calls; neither touches memory.
        let saved = unsafe { dup(1) };
        if saved < 0 {
            return Err(std::io::Error::last_os_error());
        }
        // SAFETY: as above.
        if unsafe { dup2(null.as_raw_fd(), 1) } < 0 {
            let err = std::io::Error::last_os_error();
            // SAFETY: `saved` is the descriptor `dup` just returned.
            unsafe { close(saved) };
            return Err(err);
        }
        Ok(SilencedStdout { saved })
    }
}

impl Drop for SilencedStdout {
    fn drop(&mut self) {
        use std::io::Write;
        let _ = std::io::stdout().flush();
        // SAFETY: `saved` is the descriptor `dup` returned in `new`, still
        // open; restoring it onto fd 1 and closing it touches no memory.
        unsafe {
            dup2(self.saved, 1);
            close(self.saved);
        }
    }
}

/// The CPUs this thread may run on.
pub fn allowed_cpus() -> Vec<usize> {
    // A Linux `cpu_set_t`: 1024 bits.
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a writable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// Pins the calling thread, and every thread it starts afterwards, to
/// `cpu`. Returns whether the kernel accepted it.
pub fn pin_to(cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a readable buffer of exactly the size passed;
    // pid 0 names the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// Peak resident set size of this process so far, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
