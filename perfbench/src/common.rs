//! Shared plumbing: command line, exact percentiles over the benchmark's
//! own raw samples, the run report and its JSON rendering.

use std::fmt::Write as _;
use std::time::Instant;

/// The command line the benchmark is driven with.
#[derive(Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value}: {e}"))?),
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.ok_or("missing --trace")?,
        })
    }
}

/// Nearest-rank percentile `q ∈ (0, 1]` of ascending `sorted` samples,
/// or `None` unless at least ten samples lie beyond it — a tail read off
/// fewer samples is noise, not a percentile.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= 10).then(|| sorted[rank - 1])
}

/// Nearest-rank percentile without the support rule, for pass/fail tests
/// (the capacity rule's p99) rather than for reported figures.
pub fn rank_value(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return f64::NAN;
    }
    sorted[((q * n as f64).ceil() as usize).clamp(1, n) - 1]
}

/// Median of a small set (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        f64::NAN
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of repeated timings of `f`, in microseconds.
pub fn median_us(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// The host's parallelism: the pool width of the closed-loop workloads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The raw bits of `v`, for bit-identity checks.
pub fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `(steal, total)` CPU ticks of the whole machine from `/proc/stat`:
/// how much time the hypervisor gave to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    Some((*ticks.get(7)?, ticks.iter().sum()))
}

/// CPU time the whole process has used so far, in seconds: user plus
/// system time summed over every thread. The guest kernel accounts the
/// time the hypervisor steals to nobody, so on a shared host this clock,
/// unlike the wall clock, does not run while another guest has the CPU.
pub fn process_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux) that outlives the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.sec as f64 + ts.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// The process's memory high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Every op of a run lands in exactly one bucket.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ledger {
    pub ok: u64,
    pub shed: u64,
    pub expired: u64,
    pub failed: u64,
    pub transport: u64,
    /// Answered, but not with the reference bits.
    pub mismatch: u64,
}

impl Ledger {
    pub fn add(&mut self, o: &Ledger) {
        self.ok += o.ok;
        self.shed += o.shed;
        self.expired += o.expired;
        self.failed += o.failed;
        self.transport += o.transport;
        self.mismatch += o.mismatch;
    }

    pub fn attempted(&self) -> u64 {
        self.ok + self.not_ok()
    }

    pub fn not_ok(&self) -> u64 {
        self.shed + self.expired + self.failed + self.transport + self.mismatch
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"ok\": {}, \"shed\": {}, \"expired\": {}, \"failed\": {}, \"transport\": {}, \"mismatch\": {}}}",
            self.ok, self.shed, self.expired, self.failed, self.transport, self.mismatch
        )
    }
}

/// What one run reports: its ops, its metrics, and the details (sample
/// counts, ledgers, reconciliations) printed before the result line.
#[derive(Debug, Default)]
pub struct Report {
    pub ledger: Ledger,
    /// Correctness checks other than per-op output checks (ledger closure,
    /// cross-checks); any `false` makes the run incorrect.
    pub checks: Vec<(String, bool)>,
    pub metrics: Vec<(String, f64, &'static str)>,
    pub detail: Vec<(String, String)>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn detail(&mut self, key: impl Into<String>, json: impl Into<String>) {
        self.detail.push((key.into(), json.into()));
    }

    /// Record a percentile with its sample count in the details, and
    /// return it when the sample supports it.
    pub fn percentile_detail(&mut self, key: &str, sorted: &[f64], q: f64) -> Option<f64> {
        let p = percentile(sorted, q);
        self.detail(
            key,
            format!(
                "{{\"value\": {}, \"samples\": {}}}",
                p.map_or("null".to_string(), num),
                sorted.len()
            ),
        );
        p
    }

    pub fn correct(&self) -> bool {
        self.ledger.mismatch == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

/// A JSON number with all its digits (`null` for non-finite values).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), v))
        .collect();
    format!("{{{}}}", body.join(", "))
}
