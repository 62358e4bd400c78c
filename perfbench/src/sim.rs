//! The simulator workloads: `paper_corun` (Table-3 co-run pairs on all
//! four architectures, pipelines busy almost every cycle) and
//! `idle_chase` (a serial DRAM-latency vector chase the event kernel
//! jumps almost entirely). Both run a fixed set of points in rounds, one
//! machine per point, serially on one thread; the seed permutes the
//! point order of every round.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use bench::json::Value;
use em_simd::{
    DedicatedReg, EmSimdInst, Operand, OperationalIntensity, Program, ProgramBuilder, ScalarInst,
    VReg, VectorInst, XReg,
};
use mem_sim::{MemStats, Memory};
use occamy_compiler::{ArrayLayout, CodeGenOptions, Compiler, VlMode};
use occamy_sim::{Architecture, Machine, MachineStats, MetricValue, SimConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{corun, table3, WorkloadSpec};

use crate::trace::{LogHistogram, Tracer};
use crate::{alloc, calibrate, median, quantile, Outcome, RunArgs, CALIB_REF_S};

/// Cycle budget of every point; each completes far below it.
const BUDGET: u64 = 50_000_000;

/// The `paper_corun` pairs. All 25 Table-3 pairs on four architectures
/// take about 12 s of host time, so a round runs a fixed subset of about
/// 1 s, several rounds fitting in one run: two SPEC pairs and an OpenCV
/// pair whose combined share of skipped cycles and host time per cycle
/// match the whole suite's (`perfbench refs` prints both).
const CORUN_PAIRS: &[&str] = &["1+13", "7+18", "6+1"];

/// `idle_chase` walk lengths, about a second of host time in all. Each
/// walk's footprint (17.6 to 31.3 MiB) exceeds the 8 MiB L2.
const CHASE_ITERS: &[i64] = &[
    18_000, 20_000, 22_000, 24_000, 26_000, 28_000, 30_000, 32_000,
];
/// 1 KiB: 16 lines, past the vector cache's 8-line stream prefetch, so
/// every access goes to DRAM.
const CHASE_STRIDE_ELEMS: i64 = 256;
/// The paper's DRAM round trip.
const CHASE_DRAM_LATENCY: u64 = 120;

/// Per-layer metrics the simulator workloads report, `(name, unit)`.
/// `service_mix` reports them as 0: it drives none of these layers
/// in-process.
pub(crate) const LAYER_METRICS: &[(&str, &str)] = &[
    ("workloads.build_s", "s"),
    ("occamy-compiler.compile_s", "s"),
    ("occamy-compiler.insts", "count"),
    ("occamy-sim.run_s", "s"),
    ("occamy-sim.ns_per_cycle", "ns"),
    ("occamy-sim.steps", "count"),
    ("occamy-sim.plain_step_ns", "ns"),
    ("occamy-sim.skip_step_ns", "ns"),
    ("occamy-sim.allocs_per_cycle", "count"),
    ("occamy-sim.alloc_bytes_per_cycle", "bytes"),
    ("occamy-sim.cycles_skipped", "count"),
    ("occamy-sim.skips", "count"),
    ("occamy-sim.skipped_frac", "frac"),
    ("occamy-sim.cycles", "count"),
    ("occamy-sim.ipc", "inst/cycle"),
    ("mem-sim.veccache_hit_rate", "frac"),
    ("mem-sim.dram_served_frac", "frac"),
    ("lane-manager.replans", "count"),
    ("lane-manager.lane_util", "frac"),
];

enum Kind {
    Corun {
        specs: Vec<WorkloadSpec>,
        arch: Architecture,
    },
    Chase {
        iters: i64,
    },
}

/// One simulation point: a machine built from scratch and run to
/// completion.
struct Point {
    /// `<pair>/<architecture>` or `chase-<iters>`.
    id: String,
    kind: Kind,
}

impl Point {
    fn build(&self) -> Result<Machine, String> {
        match &self.kind {
            Kind::Corun { specs, arch } => {
                corun::build_machine(specs, &SimConfig::paper_2core(), arch, 1.0)
                    .map_err(|e| e.to_string())
            }
            Kind::Chase { iters } => {
                let mut cfg = SimConfig::paper(1);
                cfg.mem.dram_latency = CHASE_DRAM_LATENCY;
                // The whole walk plus one vector span, rounded up.
                let span = (iters * CHASE_STRIDE_ELEMS * 4 + (1 << 12)) as usize;
                let mut m = Machine::new(
                    cfg,
                    Architecture::Occamy,
                    Memory::new(span.next_power_of_two()),
                )
                .map_err(|e| e.to_string())?;
                m.load_program(0, chase_program(*iters));
                Ok(m)
            }
        }
    }

    /// Compiles the point's programs again, apart from the build, and
    /// returns their instruction count: `Compiler::compile_repeated`
    /// for co-runs (the call `build_machine` makes per core, here on a
    /// layout of stand-in addresses), the program builder for chases.
    /// [`run_point`] checks the count against the programs the build
    /// loaded, so this copy cannot drift from the build unnoticed.
    fn compile(&self) -> Result<u64, String> {
        match &self.kind {
            Kind::Corun { specs, arch } => {
                let cfg = SimConfig::paper_2core();
                let mut insts = 0;
                for (core, spec) in specs.iter().enumerate() {
                    let prefix = format!("c{core}_");
                    let mut layout = ArrayLayout::new();
                    let mut next = 1u64 << 20;
                    let mut phases = Vec::new();
                    for phase in &spec.phases {
                        let kernel = phase.kernel.with_array_prefix(&prefix);
                        for array in kernel.base_arrays() {
                            if layout.addr(&array).is_none() {
                                layout.bind(array, next);
                                next += 1 << 20;
                            }
                        }
                        phases.push((kernel, phase.trip.max(64), phase.repeat.max(1)));
                    }
                    let mode = match arch.fixed_vl(core, &cfg) {
                        Some(vl) => VlMode::Fixed(vl),
                        None => VlMode::Elastic {
                            default: em_simd::VectorLength::new(2),
                        },
                    };
                    let compiler = Compiler::new(CodeGenOptions {
                        mode,
                        ..CodeGenOptions::default()
                    });
                    let program = compiler
                        .compile_repeated(&phases, &layout)
                        .map_err(|e| e.to_string())?;
                    insts += program.len() as u64;
                }
                Ok(insts)
            }
            Kind::Chase { iters } => Ok(chase_program(*iters).len() as u64),
        }
    }
}

/// The serial DRAM-latency chase: each iteration vector-loads with a
/// cache-hostile stride, reduces into a scalar register and at once
/// consumes the result, so the core sits provably inert for most of
/// every memory round trip. Kept here, not shared with `bench`, so the
/// workload cannot change under a cleanup elsewhere.
fn chase_program(iters: i64) -> Program {
    let mut b = ProgramBuilder::new();
    b.scalar(ScalarInst::MovImm {
        dst: XReg::X5,
        imm: CHASE_STRIDE_ELEMS,
    });
    b.em_simd(EmSimdInst::Msr {
        reg: DedicatedReg::Oi,
        src: Operand::Imm(OperationalIntensity::uniform(0.05).to_bits() as i64),
    });
    b.em_simd(EmSimdInst::Msr {
        reg: DedicatedReg::Vl,
        src: Operand::Imm(2),
    });
    b.scalar(ScalarInst::MovImm {
        dst: XReg::X0,
        imm: 0,
    });
    b.scalar(ScalarInst::MovImm {
        dst: XReg::X3,
        imm: 0,
    });
    b.scalar(ScalarInst::MovImm {
        dst: XReg::X4,
        imm: iters,
    });
    let head = b.fresh_label("chase");
    b.bind(head);
    b.vector(VectorInst::Load {
        dst: VReg::Z1,
        base: XReg::X0,
        index: XReg::X3,
    });
    b.vector(VectorInst::ReduceAdd {
        dst: XReg::X1,
        src: VReg::Z1,
    });
    // Dependent use: interlocks the front end until the reduce lands.
    b.scalar(ScalarInst::Add {
        dst: XReg::X2,
        a: XReg::X1,
        b: Operand::Imm(1),
    });
    b.scalar(ScalarInst::Add {
        dst: XReg::X3,
        a: XReg::X3,
        b: Operand::Reg(XReg::X5),
    });
    b.scalar(ScalarInst::Add {
        dst: XReg::X4,
        a: XReg::X4,
        b: Operand::Imm(-1),
    });
    b.scalar(ScalarInst::Bne {
        a: XReg::X4,
        b: Operand::Imm(0),
        target: head,
    });
    b.em_simd(EmSimdInst::Msr {
        reg: DedicatedReg::Vl,
        src: Operand::Imm(0),
    });
    b.halt();
    b.build()
}

/// Co-run points of `pairs` (all 25 when `None`) at trip scale `scale`
/// on the two-core paper machine, each pair on the four architectures.
fn corun_points(scale: f64, pairs: Option<&[&str]>) -> Vec<Point> {
    let cfg = SimConfig::paper_2core();
    let all = table3::all_pairs(scale);
    if let Some(keep) = pairs {
        for label in keep {
            assert!(
                all.iter().any(|p| p.label == *label),
                "no Table-3 pair {label}"
            );
        }
    }
    all.into_iter()
        .filter(|p| pairs.is_none_or(|keep| keep.contains(&p.label.as_str())))
        .flat_map(|pair| {
            let specs = pair.workloads.to_vec();
            bench::architectures(&specs, &cfg)
                .into_iter()
                .map(|arch| Point {
                    id: format!("{}/{}", pair.label, arch.short_name()),
                    kind: Kind::Corun {
                        specs: specs.clone(),
                        arch,
                    },
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

fn chase_points() -> Vec<Point> {
    CHASE_ITERS
        .iter()
        .map(|&iters| Point {
            id: format!("chase-{iters}"),
            kind: Kind::Chase { iters },
        })
        .collect()
}

/// The output check: FNV-1a of the compact `bench::stats_to_json`.
fn digest(stats: &MachineStats) -> String {
    format!(
        "{:016x}",
        occamyd::protocol::fnv1a(bench::stats_to_json(stats).render_compact().as_bytes())
    )
}

fn counter(stats: &MachineStats, name: &str) -> u64 {
    match stats.metrics.get(name) {
        Some(MetricValue::Counter(v)) => *v,
        _ => 0,
    }
}

/// What one point's run yielded.
struct PointResult {
    /// Raw CPU time of the calibration loop before the point.
    calib_s: f64,
    /// CPU times at the reference host speed (see [`CALIB_REF_S`]).
    build_s: f64,
    compile_s: f64,
    run_s: f64,
    insts: u64,
    steps: u64,
    cycles_skipped: u64,
    skips: u64,
    allocs: u64,
    alloc_bytes: u64,
    counts: Counts,
    digest: String,
}

/// Exact simulated counts of a point or a round: the per-layer
/// witnesses. Kept instead of the whole `MachineStats`, whose lane
/// timeline would make the benchmark's own memory grow with run length.
#[derive(Default, Clone, Copy)]
struct Counts {
    cycles: u64,
    retired: u64,
    vc_hits: u64,
    vc_misses: u64,
    /// Vector accesses by serving level: first level, L2, DRAM.
    served: [u64; 3],
    replans: u64,
    busy_lanes: f64,
    alloc_lanes: u64,
}

impl Counts {
    fn of(stats: &MachineStats, mem: &MemStats) -> Counts {
        let mut c = Counts {
            cycles: stats.cycles,
            vc_hits: mem.veccache.hits,
            vc_misses: mem.veccache.misses,
            served: mem.vec_served,
            replans: counter(stats, "sim.lanemgr.replans"),
            ..Counts::default()
        };
        for core in &stats.cores {
            c.retired += core.total_vector_issued() + core.scalar_executed;
            c.busy_lanes += core.busy_lane_cycles;
            c.alloc_lanes += core.alloc_lane_cycles;
        }
        c
    }

    fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.retired += o.retired;
        self.vc_hits += o.vc_hits;
        self.vc_misses += o.vc_misses;
        for (total, n) in self.served.iter_mut().zip(o.served) {
            *total += n;
        }
        self.replans += o.replans;
        self.busy_lanes += o.busy_lanes;
        self.alloc_lanes += o.alloc_lanes;
    }
}

/// Step-time histograms of the traced run: calls that jumped idle
/// cycles and calls that did not.
#[derive(Default)]
struct StepHists {
    plain: LogHistogram,
    skip: LogHistogram,
}

/// Builds and runs one point. Untraced: `Machine::run`. Traced: the
/// same loop `Machine::run` makes, one timed `step_bounded` call at a
/// time, with allocations counted; the digest check proves both give
/// the same statistics. The `step_bounded` histograms are raw host
/// times; the point's CPU times are scaled to the reference host speed.
fn run_point(p: &Point, tracer: &mut Tracer, hists: &mut StepHists) -> Result<PointResult, String> {
    let traced = tracer.enabled();
    let calib_s = calibrate();
    let to_ref = CALIB_REF_S / calib_s;
    let (compile_s, insts) = if traced {
        let (t, cpu) = (Instant::now(), crate::thread_cpu());
        let insts = p.compile()?;
        tracer.span("occamy-compiler", "compile", &p.id, 1, t, Instant::now());
        ((crate::thread_cpu() - cpu).as_secs_f64(), insts)
    } else {
        (0.0, 0)
    };
    let (t0, cpu0) = (Instant::now(), crate::thread_cpu());
    let mut m = p.build()?;
    let (t1, cpu1) = (Instant::now(), crate::thread_cpu());
    tracer.span("workloads", "build", &p.id, 1, t0, t1);
    if traced {
        let loaded: u64 = (0..m.config().cores)
            .filter_map(|core| m.program(core))
            .map(|program| program.len() as u64)
            .sum();
        if loaded != insts {
            return Err(format!(
                "the compile step gave {insts} instructions, the build loaded {loaded}"
            ));
        }
    }
    let (allocs0, bytes0) = alloc::counted();
    let mut steps = 0;
    let stats = if traced {
        alloc::arm(true);
        let result = (|| {
            while m.cycle() < BUDGET && !m.done() {
                let skipped = m.cycles_skipped();
                let t = Instant::now();
                m.step_bounded(BUDGET)?;
                let ns = t.elapsed().as_nanos() as u64;
                if m.cycles_skipped() == skipped {
                    hists.plain.record(ns);
                } else {
                    hists.skip.record(ns);
                }
                steps += 1;
            }
            Ok(())
        })();
        alloc::arm(false);
        result.map_err(|e: occamy_sim::SimError| format!("simulation fault: {e}"))?;
        let mut stats = m.stats();
        stats.timed_out = !stats.completed;
        stats
    } else {
        m.run(BUDGET)
            .map_err(|e| format!("simulation fault: {e}"))?
    };
    let (t2, cpu2) = (Instant::now(), crate::thread_cpu());
    tracer.span("occamy-sim", "run", &p.id, 1, t1, t2);
    let (allocs1, bytes1) = alloc::counted();
    if !stats.completed {
        return Err(format!("not complete within {BUDGET} cycles"));
    }
    Ok(PointResult {
        calib_s,
        build_s: (cpu1 - cpu0).as_secs_f64() * to_ref,
        compile_s: compile_s * to_ref,
        run_s: (cpu2 - cpu1).as_secs_f64() * to_ref,
        insts,
        steps,
        cycles_skipped: m.cycles_skipped(),
        skips: m.skip_count(),
        allocs: allocs1 - allocs0,
        alloc_bytes: bytes1 - bytes0,
        counts: Counts::of(&stats, &m.mem_stats()),
        digest: digest(&stats),
    })
}

/// `(cycles, digest)` per point id.
type Refs = HashMap<String, (u64, String)>;

fn load_refs(path: &Path, workload: &str) -> Result<Refs, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("reading {}: {e}", path.display()))?;
    let doc = bench::json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Value::Obj(points)) = doc.get(workload) else {
        return Err(format!("{}: no `{workload}` section", path.display()));
    };
    points
        .iter()
        .map(|(id, v)| {
            let cycles = v.get("cycles").and_then(Value::as_u64);
            let digest = v.get("digest").and_then(Value::as_str);
            match (cycles, digest) {
                (Some(c), Some(d)) => Ok((id.clone(), (c, d.to_owned()))),
                _ => Err(format!("{}: malformed entry `{id}`", path.display())),
            }
        })
        .collect()
}

/// A seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, rng: &mut StdRng) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    order
}

/// Runs `paper_corun` or `idle_chase` for about `args.seconds`, in
/// whole rounds over the point set.
pub(crate) fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<(Outcome, Value), String> {
    let points = if args.workload == "paper_corun" {
        corun_points(1.0, Some(CORUN_PAIRS))
    } else {
        chase_points()
    };
    let refs = load_refs(&args.refs, &args.workload)?;
    let mut rng = StdRng::seed_from_u64(args.seed);
    let mut out = Outcome::default();
    let mut hists = StepHists::default();
    // `rounds[r][i]` is point `i`'s result in round `r` (None: failed).
    let mut rounds: Vec<Vec<Option<PointResult>>> = Vec::new();
    let started = Instant::now();
    let mut last_round = Duration::ZERO;
    while rounds.is_empty() || started.elapsed() + last_round <= args.seconds {
        let round_start = Instant::now();
        let mut results: Vec<Option<PointResult>> = points.iter().map(|_| None).collect();
        for i in permutation(points.len(), &mut rng) {
            let p = &points[i];
            out.attempted += 1;
            let r = match run_point(p, tracer, &mut hists) {
                Ok(r) => r,
                Err(e) => {
                    out.fail(&p.id, &e);
                    continue;
                }
            };
            match refs.get(&p.id) {
                Some((cycles, d)) if *cycles == r.counts.cycles && *d == r.digest => {
                    results[i] = Some(r);
                }
                Some((cycles, d)) => out.fail(
                    &p.id,
                    &format!(
                        "cycles {} digest {} differ from the reference {cycles} {d}",
                        r.counts.cycles, r.digest
                    ),
                ),
                None => out.fail(&p.id, "no reference digest"),
            }
        }
        last_round = round_start.elapsed();
        rounds.push(results);
    }
    report(&mut out, &rounds, &hists, tracer.enabled())?;
    let mut other = Value::obj();
    other
        .push("plain_step", hists.plain.to_value())
        .push("skip_step", hists.skip.to_value());
    Ok((out, other))
}

/// Per-round sums over the points that passed, in point order (so
/// floating-point sums do not depend on the seed's permutation).
#[derive(Default)]
struct RoundSums {
    build_s: f64,
    compile_s: f64,
    run_s: f64,
    insts: u64,
    steps: u64,
    cycles_skipped: u64,
    skips: u64,
    counts: Counts,
    points: usize,
}

fn sums(round: &[Option<PointResult>]) -> RoundSums {
    let mut s = RoundSums::default();
    for r in round.iter().flatten() {
        s.build_s += r.build_s;
        s.compile_s += r.compile_s;
        s.run_s += r.run_s;
        s.insts += r.insts;
        s.steps += r.steps;
        s.cycles_skipped += r.cycles_skipped;
        s.skips += r.skips;
        s.counts.add(&r.counts);
        s.points += 1;
    }
    s
}

fn report(
    out: &mut Outcome,
    rounds: &[Vec<Option<PointResult>>],
    hists: &StepHists,
    traced: bool,
) -> Result<(), String> {
    let sums: Vec<RoundSums> = rounds.iter().map(|r| sums(r)).collect();
    let over_rounds = |f: &dyn Fn(&RoundSums) -> f64| -> Vec<f64> { sums.iter().map(f).collect() };
    let per_round = |f: &dyn Fn(&RoundSums) -> f64| -> f64 { median(&over_rounds(f)) };
    let total = |f: &dyn Fn(&RoundSums) -> f64| -> f64 { sums.iter().map(f).sum() };
    out.metric(
        "sim_mcycles_per_s",
        total(&|s| s.counts.cycles as f64) / total(&|s| s.run_s) / 1e6,
        "Mcycles/s",
    );
    out.metric("setup_s", per_round(&|s| s.build_s), "s");
    out.metric(
        "peak_rss_mb",
        crate::peak_rss_mb(Path::new("/proc/self/status"))?,
        "MiB",
    );
    out.metric(
        "svc_jobs_per_s",
        total(&|s| s.points as f64) / total(&|s| s.build_s + s.run_s),
        "1/s",
    );
    let latency_ms: Vec<f64> = rounds
        .iter()
        .flatten()
        .flatten()
        .map(|r| (r.build_s + r.run_s) * 1e3)
        .collect();
    out.metric("svc_latency_p50_ms", quantile(&latency_ms, 0.5), "ms");
    out.metric("svc_latency_p90_ms", quantile(&latency_ms, 0.9), "ms");
    if !traced {
        return Ok(());
    }
    let first = &sums[0];
    let calib_ms: Vec<f64> = rounds
        .iter()
        .flatten()
        .flatten()
        .map(|r| r.calib_s * 1e3)
        .collect();
    let cycles = first.counts.cycles.max(1) as f64;
    let total_cycles: u64 = sums.iter().map(|s| s.counts.cycles).sum();
    let (allocs, bytes) = rounds
        .iter()
        .flatten()
        .flatten()
        .fold((0u64, 0u64), |(a, b), r| (a + r.allocs, b + r.alloc_bytes));
    out.metric("workloads.build_s", per_round(&|s| s.build_s), "s");
    out.metric(
        "occamy-compiler.compile_s",
        per_round(&|s| s.compile_s),
        "s",
    );
    out.metric("occamy-compiler.insts", first.insts as f64, "count");
    out.metric("occamy-sim.run_s", per_round(&|s| s.run_s), "s");
    out.metric(
        "occamy-sim.ns_per_cycle",
        per_round(&|s| s.run_s * 1e9 / s.counts.cycles as f64),
        "ns",
    );
    out.metric("occamy-sim.steps", first.steps as f64, "count");
    out.metric("occamy-sim.plain_step_ns", hists.plain.quantile(0.5), "ns");
    out.metric("occamy-sim.skip_step_ns", hists.skip.quantile(0.5), "ns");
    out.metric(
        "occamy-sim.allocs_per_cycle",
        allocs as f64 / total_cycles.max(1) as f64,
        "count",
    );
    out.metric(
        "occamy-sim.alloc_bytes_per_cycle",
        bytes as f64 / total_cycles.max(1) as f64,
        "bytes",
    );
    out.metric(
        "occamy-sim.cycles_skipped",
        first.cycles_skipped as f64,
        "count",
    );
    out.metric("occamy-sim.skips", first.skips as f64, "count");
    out.metric(
        "occamy-sim.skipped_frac",
        first.cycles_skipped as f64 / cycles,
        "frac",
    );
    out.metric("occamy-sim.cycles", first.counts.cycles as f64, "count");
    out.metric(
        "occamy-sim.ipc",
        first.counts.retired as f64 / cycles,
        "inst/cycle",
    );
    let accesses = (first.counts.vc_hits + first.counts.vc_misses).max(1) as f64;
    out.metric(
        "mem-sim.veccache_hit_rate",
        first.counts.vc_hits as f64 / accesses,
        "frac",
    );
    let served = first.counts.served.iter().sum::<u64>().max(1) as f64;
    out.metric(
        "mem-sim.dram_served_frac",
        first.counts.served[2] as f64 / served,
        "frac",
    );
    out.metric("lane-manager.replans", first.counts.replans as f64, "count");
    out.metric(
        "lane-manager.lane_util",
        first.counts.busy_lanes / first.counts.alloc_lanes.max(1) as f64,
        "frac",
    );
    out.metric("bench.calib_ms", median(&calib_ms), "ms");
    Ok(())
}

/// Generates the reference digests of every `paper_corun` candidate
/// point (all 25 pairs, four architectures, paper scale) and every
/// `idle_chase` point into `write`, after cross-checking the point
/// driver against the committed scale-0.05 golden sweep at `golden`.
pub(crate) fn write_refs(write: &Path, golden: &Path) -> Result<(), String> {
    let expected = std::fs::read_to_string(golden)
        .map_err(|e| format!("reading {}: {e}", golden.display()))?;
    let mut sweeps: Vec<bench::ArchSweep> = Vec::new();
    for p in corun_points(0.05, None) {
        let (label, arch) = p.id.split_once('/').expect("corun ids are <pair>/<arch>");
        let stats = p
            .build()?
            .run(BUDGET)
            .map_err(|e| format!("{}: {e}", p.id))?;
        let arch = ["Private", "FTS", "VLS", "Occamy"]
            .into_iter()
            .find(|a| *a == arch)
            .expect("one of the four architectures");
        match sweeps.last_mut() {
            Some(s) if s.label == label => s.results.push((arch, stats)),
            _ => sweeps.push(bench::ArchSweep {
                label: label.to_owned(),
                results: vec![(arch, stats)],
            }),
        }
    }
    let rendered = bench::sweeps_to_json("two_speed_timing_golden", 0.05, &sweeps).render();
    if rendered != expected {
        return Err(format!(
            "scale-0.05 cross-check: the point driver's sweep differs from {}",
            golden.display()
        ));
    }
    eprintln!(
        "perfbench: scale-0.05 cross-check equals {}",
        golden.display()
    );

    let mut doc = Value::obj();
    // Cycles, skipped cycles and host seconds in `Machine::run`, over
    // all 25 pairs and over the `CORUN_PAIRS` subset.
    let mut suite = [(0u64, 0u64, 0f64); 2];
    for (workload, points) in [
        ("paper_corun", corun_points(1.0, None)),
        ("idle_chase", chase_points()),
    ] {
        let mut section = Value::obj();
        for p in points {
            let t = Instant::now();
            let mut m = p.build()?;
            let t_run = Instant::now();
            let stats = m.run(BUDGET).map_err(|e| format!("{}: {e}", p.id))?;
            let run_s = t_run.elapsed().as_secs_f64();
            if !stats.completed {
                return Err(format!("{}: not complete within {BUDGET} cycles", p.id));
            }
            let mem = m.mem_stats();
            eprintln!(
                "perfbench: {:<16} {:>9} cycles {:>7.3} s  skipped {:.3}  dram-served {}/{}",
                p.id,
                stats.cycles,
                t.elapsed().as_secs_f64(),
                m.cycles_skipped() as f64 / stats.cycles as f64,
                mem.vec_served[2],
                mem.vec_served.iter().sum::<u64>(),
            );
            if workload == "paper_corun" {
                let pair = p.id.split_once('/').map_or("", |(pair, _)| pair);
                let subset = CORUN_PAIRS.contains(&pair);
                for (k, s) in suite.iter_mut().enumerate() {
                    if k == 0 || subset {
                        s.0 += stats.cycles;
                        s.1 += m.cycles_skipped();
                        s.2 += run_s;
                    }
                }
            }
            let mut entry = Value::obj();
            entry
                .push("cycles", Value::UInt(stats.cycles))
                .push("digest", Value::Str(digest(&stats)));
            section.push(p.id, entry);
        }
        doc.push(workload, section);
    }
    for ((cycles, skipped, run_s), what) in suite.iter().zip(["all 25 pairs", "paper_corun"]) {
        eprintln!(
            "perfbench: {what:<12} skipped {:.4}  {:.0} ns/cycle",
            *skipped as f64 / *cycles as f64,
            run_s * 1e9 / *cycles as f64,
        );
    }
    std::fs::write(write, doc.render() + "\n")
        .map_err(|e| format!("writing {}: {e}", write.display()))?;
    eprintln!("perfbench: wrote {}", write.display());
    Ok(())
}
