//! Shared helpers: the seeded RNG every input is drawn from, order
//! statistics, the metric list a run reports, memory readings, and the
//! CPU rotation of single-threaded loops.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::time::{Duration, Instant};

/// SplitMix64: small, fast and fully determined by its seed, so the same
/// `--seed` always yields the same graphs and query streams.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6A09_E667_F3BC_C908)
    }

    /// An independent stream for one purpose (`salt`) of this seed.
    pub fn derive(seed: u64, salt: &str) -> Rng {
        let mut h = DefaultHasher::new();
        salt.hash(&mut h);
        Rng::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ h.finish())
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<'a, T>(&mut self, v: &'a [T]) -> &'a T {
        &v[self.below(v.len())]
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = self.below(i + 1);
            v.swap(i, j);
        }
    }
}

/// Linear-interpolated quantile of an ascending slice (the inclusive
/// method: `q = 0` is the minimum, `q = 1` the maximum).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    s
}

pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over no events).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Human-readable context (sample counts, what was timed).
    pub note: String,
}

/// The metrics of one run, in report order, plus the checks that failed.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Reasons the run is not valid (wrong answers, too few samples, a
    /// generator that fell behind); empty for a valid run.
    pub invalid: Vec<String>,
    /// Extra human-readable lines for the report.
    pub notes: Vec<String>,
}

impl Report {
    pub fn add(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds `name` as the `q` quantile of `samples`. A tail percentile
    /// is only reported with at least ten samples beyond it; otherwise a
    /// note says why it is missing.
    pub fn percentile(&mut self, name: &str, samples: &[f64], q: f64, unit: &'static str) {
        let s = sorted(samples);
        let n = s.len();
        let beyond = n - ((q * n as f64).ceil() as usize).min(n);
        if n == 0 || (q > 0.5 && beyond < 10) {
            self.notes.push(format!(
                "{name} not reported: {beyond} of {n} samples lie beyond it, 10 are needed"
            ));
            return;
        }
        let value = quantile_sorted(&s, q);
        self.add(name, value, unit, format!("n={n}, {beyond} beyond"));
    }

    pub fn fail(&mut self, why: impl Into<String>) {
        self.invalid.push(why.into());
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

/// Peak resident set size (`VmHWM`) of a process, in MiB.
pub fn vm_hwm_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let text = std::fs::read_to_string(path).unwrap_or_default();
    text.lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// `cpu_set_t`: one bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

unsafe extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

fn set_affinity(mask: &CpuSet) {
    // SAFETY: `mask` is a valid `cpu_set_t` of the size passed; pid 0 is
    // the calling thread. A failed call leaves the affinity as it was.
    unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) };
}

/// Moves the calling thread round the CPUs it may run on, one CPU per
/// `period`, and restores its affinity when dropped.
///
/// On a shared host each core's speed drifts on its own: neighbours on
/// its sibling hyperthread slow it by up to 2x, for seconds at a time,
/// and two cores' speeds measured side by side were uncorrelated. A
/// single-threaded loop left where the scheduler puts it inherits one
/// core's drift for a whole run; in turn, a run averages over all of
/// them. Only for loops whose work stays on the calling thread: threads
/// spawned while it is pinned inherit the one-CPU mask.
pub struct CpuRotor {
    all: Option<CpuSet>,
    cpus: Vec<usize>,
    next: usize,
    period: Duration,
    last: Instant,
}

impl CpuRotor {
    pub fn new(period: Duration) -> CpuRotor {
        let mut mask: CpuSet = [0; 16];
        // SAFETY: `mask` is a writable `cpu_set_t` of the size passed.
        let ok = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut mask) } == 0;
        let cpus = if ok {
            (0..1024)
                .filter(|c| mask[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        CpuRotor {
            all: ok.then_some(mask),
            cpus,
            next: 0,
            period,
            last: Instant::now() - period,
        }
    }

    /// A rotor that never moves the thread.
    pub fn off() -> CpuRotor {
        CpuRotor {
            all: None,
            cpus: Vec::new(),
            next: 0,
            period: Duration::MAX,
            last: Instant::now(),
        }
    }

    /// Moves to the next CPU if the current one has had its period.
    pub fn tick(&mut self) {
        if self.cpus.len() < 2 || self.last.elapsed() < self.period {
            return;
        }
        let c = self.cpus[self.next % self.cpus.len()];
        self.next += 1;
        let mut mask: CpuSet = [0; 16];
        mask[c / 64] |= 1 << (c % 64);
        set_affinity(&mask);
        self.last = Instant::now();
    }
}

impl Drop for CpuRotor {
    fn drop(&mut self) {
        if let (Some(all), true) = (&self.all, self.next > 0) {
            set_affinity(all);
        }
    }
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number (non-finite values, which JSON cannot carry, become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}
