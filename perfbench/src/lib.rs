//! The repository benchmark: three named workloads driven through the
//! public APIs from outside, every metric printed with its unit, every
//! output checked. See `perfbench/README.md` for the workloads, the
//! metrics and which layer metric should move which end-to-end metric.
//!
//! The binary prints one `name value unit` line per metric and, as its
//! last line, a JSON object `{correct, attempted, failed, metrics}`.
//! `run.py` builds the binaries, selects the metrics `BENCHMARK.json`
//! asks for and adds the traced run's overhead.

pub mod alloc;
mod service;
mod sim;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Duration;

use bench::json::Value;

/// What one workload run produced.
#[derive(Default)]
pub(crate) struct Outcome {
    /// Operations (points or jobs) attempted.
    pub attempted: u64,
    /// Operations that failed their output check, errored or timed out.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    /// Counts one failed operation and says why on stderr.
    pub fn fail(&mut self, what: &str, why: &str) {
        self.failed += 1;
        eprintln!("perfbench: FAILED {what}: {why}");
    }
}

/// Settings of one `run` invocation.
pub(crate) struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    /// The `occamy` CLI binary (`service_mix` only).
    pub occamy: Option<PathBuf>,
    /// Committed reference digests of the simulator points.
    pub refs: PathBuf,
    /// Directory for the trace file and the daemon's state directories.
    pub out: PathBuf,
    /// Host fingerprint (JSON object) recorded in the trace file.
    pub fingerprint: Value,
}

const USAGE: &str = "usage:\n  \
    perfbench run --workload <paper_corun|idle_chase|service_mix> --seed <n> --seconds <s>\n      \
    --refs <digests.json> --out <dir> [--occamy <occamy binary>] [--fingerprint <json>]\n  \
    perfbench refs --write <digests.json> --golden <table3_timing_scale005.json>";

/// Entry point shared by both binaries; `traced` selects the traced
/// run (spans, step histograms, allocation counts).
pub fn main(traced: bool) -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_run(&args[1..]).and_then(|a| run(&a, traced)),
        Some("refs") => refs(&args[1..]),
        _ => Err(USAGE.to_owned()),
    };
    match result {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    }
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 0,
        seconds: Duration::ZERO,
        occamy: None,
        refs: PathBuf::new(),
        out: PathBuf::new(),
        fingerprint: Value::obj(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                out.seconds = Duration::from_secs_f64(s);
            }
            "--occamy" => out.occamy = Some(PathBuf::from(value)),
            "--refs" => out.refs = PathBuf::from(value),
            "--out" => out.out = PathBuf::from(value),
            "--fingerprint" => {
                out.fingerprint =
                    bench::json::parse(value).map_err(|e| format!("--fingerprint: {e}"))?;
            }
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    if out.seconds.is_zero() || out.out.as_os_str().is_empty() || out.refs.as_os_str().is_empty() {
        return Err(format!("--seconds, --refs and --out are required\n{USAGE}"));
    }
    Ok(out)
}

fn run(args: &RunArgs, traced: bool) -> Result<(), String> {
    std::fs::create_dir_all(&args.out)
        .map_err(|e| format!("creating {}: {e}", args.out.display()))?;
    let mut tracer = trace::Tracer::new(traced);
    let (mut outcome, other) = match args.workload.as_str() {
        "paper_corun" | "idle_chase" => sim::run(args, &mut tracer)?,
        "service_mix" => service::run(args, &mut tracer)?,
        other => return Err(format!("unknown workload `{other}`\n{USAGE}")),
    };
    if traced {
        // Every workload reports every per-layer metric; a layer this
        // workload does not drive reads 0.
        let undriven = if args.workload == "service_mix" {
            sim::LAYER_METRICS
        } else {
            service::LAYER_METRICS
        };
        for (name, unit) in undriven {
            outcome.metric(name, 0.0, unit);
        }
    }
    let failed_frac = outcome.failed as f64 / outcome.attempted.max(1) as f64;
    outcome.metric("bench.failed_frac", failed_frac, "frac");
    if traced {
        let mut doc = Value::obj();
        doc.push("fingerprint", args.fingerprint.clone())
            .push("workload", Value::Str(args.workload.clone()))
            .push("seed", Value::UInt(args.seed))
            .push("histograms", other);
        let path = args
            .out
            .join(format!("trace_{}_{}.json", args.workload, args.seed));
        std::fs::write(&path, tracer.to_chrome("perfbench", doc))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        eprintln!("perfbench: wrote {}", path.display());
    }
    print_outcome(&outcome);
    Ok(())
}

fn print_outcome(o: &Outcome) {
    let mut metrics = Value::obj();
    for (name, value, unit) in &o.metrics {
        println!("{name:<36} {value:>16.6} {unit}");
        let mut m = Value::obj();
        m.push("value", Value::Num(*value))
            .push("unit", Value::Str((*unit).to_owned()));
        metrics.push(name.clone(), m);
    }
    let mut doc = Value::obj();
    doc.push("correct", Value::Bool(o.failed == 0 && o.attempted > 0))
        .push("attempted", Value::UInt(o.attempted))
        .push("failed", Value::UInt(o.failed))
        .push("metrics", metrics);
    println!("{}", doc.render_compact());
}

fn refs(args: &[String]) -> Result<(), String> {
    let (mut write, mut golden) = (None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))?;
        match flag.as_str() {
            "--write" => write = Some(PathBuf::from(value)),
            "--golden" => golden = Some(PathBuf::from(value)),
            other => return Err(format!("unknown option `{other}`\n{USAGE}")),
        }
    }
    let (Some(write), Some(golden)) = (write, golden) else {
        return Err(format!("--write and --golden are required\n{USAGE}"));
    };
    sim::write_refs(&write, &golden)
}

/// The calibration loop's CPU time on the reference host. On a shared
/// host the CPU ran the same point up to about 1.7 times faster or
/// slower from minute to minute, often for a whole run, so every point
/// is preceded by [`calibrate`] and its CPU times are scaled by this
/// over the loop's time: they read as on a host that runs the loop in
/// 2 ms, about what the 2-vCPU host of the README's figures took.
pub(crate) const CALIB_REF_S: f64 = 0.002;

/// Runs a fixed loop of register and first-level-cache work and returns
/// its thread CPU time in seconds: the host's current speed. It uses
/// nothing the simulator can leave behind (no heap, no large arrays),
/// so no change to the program under test can change its time.
pub(crate) fn calibrate() -> f64 {
    let start = thread_cpu();
    let mut x: u64 = std::hint::black_box(0x9e37_79b9_7f4a_7c15);
    let mut acc = 0u64;
    let mut table = [0u64; 512];
    for i in 0..600_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x % 512) as usize;
        table[slot] = table[slot].wrapping_add(i);
        acc = acc
            .wrapping_mul(31)
            .wrapping_add(x ^ table[(i % 512) as usize]);
        if x & 7 == 0 {
            acc ^= acc >> 3;
        }
    }
    std::hint::black_box(acc);
    (thread_cpu() - start).as_secs_f64()
}

/// Median of `v` (0 when empty).
pub(crate) fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// The `q` quantile of `v` by linear interpolation between closest
/// ranks (0 when empty).
pub(crate) fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
}

/// `struct sched_param`.
#[repr(C)]
struct SchedParam {
    sched_priority: i32,
}

/// Moves the calling thread to `SCHED_IDLE`, the lowest scheduling
/// class: it runs only when no other thread on its CPU wants to, and
/// any thread that wakes there preempts it at once.
pub(crate) fn set_idle_priority() -> Result<(), String> {
    const SCHED_IDLE: i32 = 5;
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param`; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setscheduler(0, SCHED_IDLE, &param) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setscheduler: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// A CPU set as `sched_{get,set}affinity` take it: up to 1024 CPUs.
pub(crate) type CpuMask = [u64; 16];

/// The CPUs the calling thread may run on.
pub(crate) fn affinity() -> Result<CpuMask, String> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is a live, writable buffer of the size passed.
    let rc = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_mut_ptr()) };
    if rc == 0 {
        Ok(mask)
    } else {
        Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// Restricts the calling thread, and every thread or process it starts
/// afterwards, to the CPUs in `mask`.
pub(crate) fn set_affinity(mask: &CpuMask) -> Result<(), String> {
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 is the
    // calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuMask>(), mask.as_ptr()) };
    if rc == 0 {
        Ok(())
    } else {
        Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ))
    }
}

/// The mask holding only CPU `cpu`.
pub(crate) fn single_cpu(cpu: usize) -> CpuMask {
    let mut mask = [0u64; 16];
    mask[cpu / 64] |= 1 << (cpu % 64);
    mask
}

/// The CPUs in `mask`, lowest first.
pub(crate) fn cpus(mask: &CpuMask) -> Vec<usize> {
    (0..mask.len() * 64)
        .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
        .collect()
}

/// CPU time the calling thread has used. The simulator workloads time
/// in it rather than wall time: on a shared host, wall time also counts
/// the time the thread waited for a CPU, which is not the simulator's.
pub(crate) fn thread_cpu() -> Duration {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, the only target the benchmark runs on)
    // and the clock id is one every Linux kernel supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// `VmHWM` (peak resident set) of a process, in MiB.
pub(crate) fn peak_rss_mb(status: &Path) -> Result<f64, String> {
    let text = std::fs::read_to_string(status)
        .map_err(|e| format!("reading {}: {e}", status.display()))?;
    let kb: f64 = text
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| format!("no VmHWM in {}", status.display()))?;
    Ok(kb / 1024.0)
}
