//! `service_mix`: an `occamy serve --workers 1` child process, driven
//! over one TCP connection by a writer (the calling thread) and a
//! reader thread.
//!
//! Jobs are two-core Table-3 co-runs at scale 0.05 on Occamy. Three in
//! four repeat one of a fixed hot set of 8 specs (cache hits after the
//! warm-up); the rest carry a unique seed, which is part of the cache
//! key but not of the simulation, so they are misses whose payload must
//! still equal the spec's. The run is a sequence of rounds, each a
//! phase-1 window, an open loop of Poisson arrivals at 100 jobs/s with
//! each request timed from when it was due, and a phase-2 burst of jobs
//! submitted at once and timed until drained.
//!
//! The daemon and the load generator each run on a CPU of their own.
//! On the 2-vCPU host the benchmark was sized on, the kernel at times
//! ran two busy threads on one vCPU for minutes while the other idled,
//! which halved every service figure of a run that fell in that state.
//! Pinned, the daemon's threads always share one CPU and the client's
//! the other, so no run depends on where the scheduler put them; a
//! second worker would only time-share the daemon's CPU. During the
//! rounds a [`Spinner`] keeps that CPU from going idle.
//!
//! The timed daemon runs in memory (no `--state-dir`): the benchmark
//! may write only inside its checkout, and `fsync` on a disk there
//! dominates and scatters every latency, since each reply commits the
//! journal first. Traced runs add a journal probe: a second daemon with
//! its state directory under `--out` serves an untimed batch, to count
//! journal bytes per job.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bench::json::Value;
use occamy_sim::{Architecture, SimConfig};
use occamyd::protocol::{read_frame, MAX_LINE_BYTES};
use occamyd::{JobSpec, JobTiming, Reply, Request};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use workloads::{corun, table3};

use crate::trace::Tracer;
use crate::{affinity, cpus, set_affinity, set_idle_priority, single_cpu, CpuMask};
use crate::{calibrate, median, quantile, Outcome, RunArgs, CALIB_REF_S};

/// Trip-count scale of every job.
const SCALE: f64 = 0.05;
/// Pairs (indices into `table3::all_pairs`) of the hot set.
const HOT: [usize; 8] = [0, 3, 6, 9, 12, 15, 18, 21];
/// Phase-1 jobs per round (about 2 s at [`RATE`]).
const WINDOW: usize = 200;
/// Share of jobs that are misses; exact in every window and burst, so
/// the seed moves which jobs miss but not how many.
const MISS_FRAC: f64 = 0.25;
/// Phase-1 arrival rate (jobs/s).
const RATE: f64 = 100.0;
/// Jobs per phase-2 burst, one burst per round.
const BURST: usize = 200;
/// Rounds run until this share of `--seconds` has passed since the
/// first spawn, and at least [`MIN_ROUNDS`] of them.
const ROUNDS_SHARE: f64 = 0.9;
const MIN_ROUNDS: usize = 3;
/// Calibration loops run on the daemon's CPU after each round.
const CALIB_SAMPLES: usize = 5;
/// Daemon spawns per run; `setup_s` is their median spawn-to-`Pong`.
const SPAWNS: usize = 15;
/// How long a set-up waits after the daemon's banner before it
/// connects. `occamy serve` polls its listener every 10 ms from about
/// when it prints the banner, so a client that connects at once either
/// beats the first poll (about 2 ms to `Pong`) or waits for the second
/// (about 12 ms), run by run. Connecting after the first poll makes
/// every set-up wait out the same poll period; the delay itself is left
/// out of the time.
const CONNECT_DELAY: Duration = Duration::from_millis(2);
/// How long to wait for any one reply before counting jobs as lost.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);
/// Linux reports process CPU time in ticks of 1/100 s (`USER_HZ`).
const MS_PER_TICK: f64 = 10.0;

/// Per-layer metrics of the service workload, `(name, unit)`. The
/// simulator workloads report them as 0.
pub(crate) const LAYER_METRICS: &[(&str, &str)] = &[
    ("occamyd.hit_latency_p50_ms", "ms"),
    ("occamyd.reply_bytes_p50", "bytes"),
    ("occamyd.daemon_cpu_ms_per_job", "ms"),
    ("occamyd.miss_latency_p50_ms", "ms"),
    ("occamyd.miss_latency_p99_ms", "ms"),
    ("occamyd.queue_us_p50", "us"),
    ("occamyd.queue_us_p99", "us"),
    ("occamyd.run_us_p50", "us"),
    ("occamyd.cache_hit_frac", "frac"),
    ("occamyd.coalesced", "count"),
    ("occamyd.journal_bytes_per_job", "bytes"),
    ("occamyd.latency_p99_ms", "ms"),
    ("loadgen.late_max_ms", "ms"),
];

/// Which CPUs the daemon and the client run on: the last and the first
/// CPU the benchmark may use, or all of them if it may use only one.
#[derive(Clone, Copy)]
struct Placement {
    daemon: CpuMask,
    client: CpuMask,
}

impl Placement {
    /// Chooses the CPUs and pins the calling thread, and so every
    /// thread it starts, to the client's.
    fn pin_client() -> Result<Placement, String> {
        let all = affinity()?;
        let placement = match cpus(&all)[..] {
            [first, .., last] => Placement {
                daemon: single_cpu(last),
                client: single_cpu(first),
            },
            _ => Placement {
                daemon: all,
                client: all,
            },
        };
        set_affinity(&placement.client)?;
        Ok(placement)
    }
}

/// Keeps the daemon's CPU from going idle while it lives: a thread on
/// that CPU at the lowest scheduling priority spins, and any daemon
/// thread that wakes preempts it at once. On the 2-vCPU host an idle
/// vCPU halts, and each request then waited for the hypervisor to run
/// the vCPU again; the kernel counts that wait as stolen time, which
/// took 18% to 39% of the daemon CPU's busy-or-stolen ticks during
/// phase 1 from run to run and moved every service figure with it.
/// With the spinner the share is under 1%.
struct Spinner {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl Spinner {
    fn start(cpu: Placement) -> Result<Spinner, String> {
        let stop = Arc::new(AtomicBool::new(false));
        let (ready_tx, ready_rx) = mpsc::channel();
        let thread = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let ready = set_affinity(&cpu.daemon).and_then(|()| set_idle_priority());
                let ok = ready.is_ok();
                let _ = ready_tx.send(ready);
                while ok && !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
            })
        };
        let spinner = Spinner {
            stop,
            thread: Some(thread),
        };
        match ready_rx.recv() {
            Ok(Ok(())) => Ok(spinner),
            Ok(Err(e)) => Err(e),
            Err(_) => Err("the spinner thread panicked".into()),
        }
    }
}

impl Drop for Spinner {
    /// Stops the spinner and joins it.
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A running `occamy serve` child. Dropping it kills and reaps the
/// child if [`Daemon::stop`] did not end it.
struct Daemon {
    child: Child,
    addr: String,
    /// Reads the child's stdout to EOF: `occamy serve` prints more
    /// lines after its banner and panics if that pipe is closed.
    drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `occamy serve` on the daemon's CPU, in memory or with
    /// durable state in `state` (write-ahead journal and disk cache).
    fn spawn(bin: &Path, cpu: Placement, state: Option<&Path>) -> Result<Daemon, String> {
        let mut cmd = Command::new(bin);
        cmd.args(["serve", "--listen", "tcp:127.0.0.1:0", "--workers", "1"]);
        if let Some(state) = state {
            cmd.arg("--state-dir").arg(state);
        }
        // The child inherits the spawning thread's CPUs.
        set_affinity(&cpu.daemon)?;
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()));
        set_affinity(&cpu.client)?;
        let mut child = child?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            drain: None,
        };
        let mut banner = String::new();
        stdout
            .read_line(&mut banner)
            .map_err(|e| format!("reading the daemon banner: {e}"))?;
        daemon.drain = Some(std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        }));
        daemon.addr = banner
            .trim()
            .strip_prefix("occamyd listening on tcp:")
            .ok_or_else(|| format!("unexpected daemon banner {banner:?}"))?
            .to_owned();
        Ok(daemon)
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends `Shutdown`, waits for the acknowledgement and requires the
    /// child to exit with status 0.
    fn stop(mut self, mut conn: Conn) -> Result<(), String> {
        conn.send(&Request::Shutdown)?;
        conn.wait_for(|r| matches!(r, Reply::ShuttingDown))?;
        drop(conn);
        let deadline = Instant::now() + REPLY_TIMEOUT;
        let status = loop {
            match self
                .child
                .try_wait()
                .map_err(|e| format!("waiting for the daemon: {e}"))?
            {
                Some(status) => break status,
                None if Instant::now() > deadline => {
                    return Err("the daemon did not exit after shutdown".into())
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        };
        if let Some(drain) = self.drain.take() {
            drain
                .join()
                .map_err(|_| "the stdout drain thread panicked".to_owned())?;
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("the daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One reply as the reader thread received it.
struct Incoming {
    at: Instant,
    /// Length of the reply line.
    bytes: usize,
    reply: Result<Reply, String>,
}

/// The client connection: this thread writes, a reader thread parses
/// replies and timestamps them as they arrive.
struct Conn {
    writer: BufWriter<TcpStream>,
    rx: Receiver<Incoming>,
    reader: Option<JoinHandle<()>>,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        let mut read_half = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning the socket: {e}"))?,
        );
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            let frame = read_frame(&mut read_half, MAX_LINE_BYTES);
            let at = Instant::now();
            let (reply, bytes) = match frame {
                Ok(Some(line)) => (
                    Reply::parse_line(&line).map_err(|e| e.to_string()),
                    line.len(),
                ),
                Ok(None) => return,
                Err(e) => (Err(e.to_string()), 0),
            };
            let failed = reply.is_err();
            if tx.send(Incoming { at, bytes, reply }).is_err() || failed {
                return;
            }
        });
        Ok(Conn {
            writer: BufWriter::new(stream),
            rx,
            reader: Some(reader),
        })
    }

    /// Buffers one request line.
    fn queue(&mut self, req: &Request) -> Result<(), String> {
        writeln!(self.writer, "{}", req.to_line()).map_err(|e| format!("sending: {e}"))
    }

    fn flush(&mut self) -> Result<(), String> {
        self.writer.flush().map_err(|e| format!("sending: {e}"))
    }

    fn send(&mut self, req: &Request) -> Result<(), String> {
        self.queue(req)?;
        self.flush()
    }

    fn recv(&self) -> Result<Incoming, String> {
        match self.rx.recv_timeout(REPLY_TIMEOUT) {
            Ok(i) => Ok(i),
            Err(RecvTimeoutError::Timeout) => Err("no reply within the timeout".into()),
            Err(RecvTimeoutError::Disconnected) => Err("the daemon closed the connection".into()),
        }
    }

    /// Waits for the first reply matching `want`, skipping others.
    fn wait_for(&self, want: impl Fn(&Reply) -> bool) -> Result<(Instant, Reply), String> {
        loop {
            let i = self.recv()?;
            let reply = i.reply?;
            if want(&reply) {
                return Ok((i.at, reply));
            }
        }
    }
}

impl Drop for Conn {
    /// Closes the socket, which ends the reader thread, and joins it.
    fn drop(&mut self) {
        let _ = self.writer.flush();
        let _ = self.writer.get_ref().shutdown(std::net::Shutdown::Both);
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
    }
}

/// One submitted job.
struct Job {
    id: String,
    /// Index into `table3::all_pairs`.
    pair: usize,
    /// A unique-seed miss (as opposed to a hot-set repeat).
    miss: bool,
    spec: JobSpec,
}

/// A job's terminal reply, as far as the run needs it.
struct Done {
    at: Instant,
    bytes: usize,
    timing: Option<JobTiming>,
    cycles: u64,
}

fn job(id: String, pair: usize, seed: u64, pairs: &[table3::CorunPair]) -> Job {
    let spec = JobSpec {
        workloads: pairs[pair]
            .workloads
            .iter()
            .map(|w| w.label.clone())
            .collect(),
        arch: "occamy".into(),
        scale: SCALE,
        seed,
        ..JobSpec::default()
    };
    Job {
        id,
        pair,
        miss: seed != 0,
        spec,
    }
}

/// Generates `n` jobs, exactly `MISS_FRAC` of them misses in seeded
/// positions, misses cycling through the 25 pairs in a seeded order
/// that starts afresh in every batch, and hot jobs drawn uniformly from
/// the hot set. A window or burst of [`WINDOW`] or [`BURST`] jobs thus
/// simulates every pair exactly twice, so its miss work does not depend
/// on the seed.
struct JobMaker {
    rng: StdRng,
    pairs: Vec<table3::CorunPair>,
    deck: Vec<usize>,
    next_seed: u64,
}

impl JobMaker {
    fn batch(&mut self, prefix: &str, n: usize) -> Vec<Job> {
        self.deck.clear();
        let misses = (n as f64 * MISS_FRAC).round() as usize;
        let mut is_miss: Vec<bool> = (0..n).map(|i| i < misses).collect();
        for i in (1..n).rev() {
            is_miss.swap(i, self.rng.gen_range(0..=i));
        }
        is_miss
            .into_iter()
            .enumerate()
            .map(|(i, miss)| {
                let id = format!("{prefix}{i}");
                if miss {
                    if self.deck.is_empty() {
                        self.deck = (0..self.pairs.len()).collect();
                        for k in (1..self.deck.len()).rev() {
                            self.deck.swap(k, self.rng.gen_range(0..=k));
                        }
                    }
                    let pair = self.deck.pop().expect("refilled above");
                    self.next_seed += 1;
                    job(id, pair, self.next_seed, &self.pairs)
                } else {
                    let pair = HOT[self.rng.gen_range(0..HOT.len())];
                    job(id, pair, 0, &self.pairs)
                }
            })
            .collect()
    }
}

/// The payload every `ok` reply for each pair must carry: the compact
/// `bench::stats_to_json` of the same simulation run in-process.
fn expected_payloads(pairs: &[table3::CorunPair]) -> Result<Vec<String>, String> {
    let cfg = SimConfig::paper(2);
    (0..pairs.len())
        .map(|i| {
            let j = job(String::new(), i, 0, pairs);
            let specs = occamyd::service::resolve_workloads(&j.spec)?;
            let mut m = corun::build_machine(&specs, &cfg, &Architecture::Occamy, SCALE)
                .map_err(|e| e.to_string())?;
            let stats = m.run(j.spec.max_cycles).map_err(|e| e.to_string())?;
            Ok(bench::stats_to_json(&stats).render_compact())
        })
        .collect()
}

/// Collects the terminal replies of `jobs`, checking each payload.
/// Returns one entry per job (None: failed or lost).
fn collect(conn: &Conn, jobs: &[Job], expected: &[String], out: &mut Outcome) -> Vec<Option<Done>> {
    let index: HashMap<&str, usize> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.as_str(), i))
        .collect();
    let mut done: Vec<Option<Done>> = jobs.iter().map(|_| None).collect();
    let mut answered = vec![false; jobs.len()];
    let mut pending = jobs.len();
    while pending > 0 {
        let incoming = match conn.recv() {
            Ok(i) => i,
            Err(e) => {
                for (j, _) in jobs.iter().zip(&answered).filter(|(_, a)| !**a) {
                    out.fail(&j.id, &e);
                }
                break;
            }
        };
        let reply = match incoming.reply {
            Ok(r) => r,
            Err(e) => {
                eprintln!("perfbench: unreadable reply: {e}");
                continue;
            }
        };
        if !reply.is_terminal() {
            continue;
        }
        let Some(&i) = reply.id().and_then(|id| index.get(id)) else {
            continue;
        };
        if std::mem::replace(&mut answered[i], true) {
            out.fail(&jobs[i].id, "a second terminal reply");
            continue;
        }
        pending -= 1;
        let job = &jobs[i];
        match reply {
            Reply::Result {
                payload, timing, ..
            } => {
                if payload.render_compact() == expected[job.pair] {
                    done[i] = Some(Done {
                        at: incoming.at,
                        bytes: incoming.bytes,
                        timing,
                        cycles: payload.get("cycles").and_then(Value::as_u64).unwrap_or(0),
                    });
                } else {
                    out.fail(&job.id, "payload differs from the in-process simulation");
                }
            }
            other => out.fail(&job.id, &format!("non-result terminal {}", other.to_line())),
        }
    }
    done
}

/// Simulated cycles per µs of service time, which is Mcycles/s, over
/// the misses among `jobs` (None without any).
fn miss_rate<'a>(jobs: impl Iterator<Item = (&'a Job, &'a Option<Done>)>) -> Option<f64> {
    let (cycles, us) = jobs
        .filter(|(j, _)| j.miss)
        .filter_map(|(_, d)| {
            d.as_ref()
                .and_then(|d| d.timing.map(|t| (d.cycles, t.run_us)))
        })
        .fold((0u64, 0u64), |(c, u), (dc, du)| (c + dc, u + du));
    (us > 0).then(|| cycles as f64 / us as f64)
}

fn submit(job: &Job) -> Request {
    Request::Submit {
        tenant: "bench".into(),
        id: job.id.clone(),
        job: job.spec.clone(),
    }
}

/// `utime + stime` of a process, in ms.
fn cpu_ms(pid: u32) -> Result<f64, String> {
    let path = format!("/proc/{pid}/stat");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // Fields after the parenthesised command name, from field 3 on.
    let rest = text
        .rsplit_once(") ")
        .map(|(_, r)| r)
        .ok_or("malformed stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(u), Some(s)) => Ok((u + s) * MS_PER_TICK),
        _ => Err(format!("malformed {path}")),
    }
}

fn stats_number(stats: &Value, name: &str) -> f64 {
    stats
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(Value::as_f64)
        .unwrap_or(0.0)
}

/// Spawns a daemon, waits [`CONNECT_DELAY`] after its banner, connects
/// and pings it. Returns the daemon, the connection and the set-up time:
/// spawn to `Pong` less the delay.
fn start(
    bin: &Path,
    cpu: Placement,
    state: Option<&Path>,
) -> Result<(Daemon, Conn, Duration), String> {
    let t0 = Instant::now();
    let daemon = Daemon::spawn(bin, cpu, state)?;
    std::thread::sleep(CONNECT_DELAY);
    let mut conn = Conn::open(&daemon.addr)?;
    conn.send(&Request::Ping)?;
    let (pong, _) = conn.wait_for(|r| matches!(r, Reply::Pong))?;
    Ok((daemon, conn, (pong - t0).saturating_sub(CONNECT_DELAY)))
}

/// Submits each hot spec twice back to back, so the second coalesces
/// onto the first's run; afterwards the hot specs are cache hits.
fn warm_up(
    conn: &mut Conn,
    maker: &JobMaker,
    expected: &[String],
    out: &mut Outcome,
) -> Result<(), String> {
    let warm: Vec<Job> = HOT
        .iter()
        .flat_map(|&p| [0, 1].map(|k| job(format!("w{p}_{k}"), p, 0, &maker.pairs)))
        .collect();
    for j in &warm {
        conn.queue(&submit(j))?;
    }
    conn.flush()?;
    out.attempted += warm.len() as u64;
    collect(conn, &warm, expected, out);
    Ok(())
}

/// Submits `jobs` at once and collects their replies.
fn burst(
    conn: &mut Conn,
    jobs: &[Job],
    expected: &[String],
    out: &mut Outcome,
) -> Result<Vec<Option<Done>>, String> {
    for j in jobs {
        conn.queue(&submit(j))?;
    }
    conn.flush()?;
    out.attempted += jobs.len() as u64;
    Ok(collect(conn, jobs, expected, out))
}

fn stats(conn: &mut Conn) -> Result<Value, String> {
    conn.send(&Request::Stats {
        tenant: None,
        prefix: None,
    })?;
    match conn.wait_for(|r| matches!(r, Reply::Stats { .. }))? {
        (_, Reply::Stats { payload }) => Ok(payload),
        _ => unreachable!("waited for a stats reply"),
    }
}

pub(crate) fn run(args: &RunArgs, tracer: &mut Tracer) -> Result<(Outcome, Value), String> {
    let bin = args
        .occamy
        .as_deref()
        .ok_or("service_mix needs --occamy <occamy binary>")?;
    let cpu = Placement::pin_client()?;
    let pairs = table3::all_pairs(1.0);
    let expected = expected_payloads(&pairs)?;
    let mut out = Outcome::default();
    let mut maker = JobMaker {
        rng: StdRng::seed_from_u64(args.seed),
        pairs,
        deck: Vec::new(),
        next_seed: 0,
    };
    timed(args, bin, cpu, &expected, &mut maker, tracer, &mut out)?;
    if tracer.enabled() {
        let state = args.out.join(format!("state_{}", args.seed));
        let _ = std::fs::remove_dir_all(&state);
        let bytes = journal_probe(bin, cpu, &state, &expected, &mut maker, &mut out);
        let _ = std::fs::remove_dir_all(&state);
        out.metric("occamyd.journal_bytes_per_job", bytes?, "bytes");
    }
    Ok((out, Value::obj()))
}

/// The journal probe: warm-up plus one burst on a daemon with durable
/// state; returns the journal's size per job.
fn journal_probe(
    bin: &Path,
    cpu: Placement,
    state: &Path,
    expected: &[String],
    maker: &mut JobMaker,
    out: &mut Outcome,
) -> Result<f64, String> {
    let (daemon, mut conn, _) = start(bin, cpu, Some(state))?;
    let before = out.attempted;
    warm_up(&mut conn, maker, expected, out)?;
    let jobs = maker.batch("j", BURST);
    burst(&mut conn, &jobs, expected, out)?;
    let journal = stats_number(&stats(&mut conn)?, "service.journal_bytes");
    daemon.stop(conn)?;
    Ok(journal / (out.attempted - before) as f64)
}

/// Runs [`calibrate`] [`CALIB_SAMPLES`] times on the daemon's CPU, at a
/// time the daemon is idle, and returns the loop's CPU times.
fn calibrate_daemon_cpu(cpu: Placement) -> Result<Vec<f64>, String> {
    set_affinity(&cpu.daemon)?;
    let times = (0..CALIB_SAMPLES).map(|_| calibrate()).collect();
    set_affinity(&cpu.client)?;
    Ok(times)
}

/// One round: a phase-1 window and a burst.
struct Round {
    window: Vec<Job>,
    window_done: Vec<Option<Done>>,
    /// When each window job was due.
    due: Vec<Instant>,
    /// Burst throughput, jobs per second.
    burst_rate: f64,
}

/// Sends `jobs` in an open loop, each at `start` plus its due time,
/// and collects their replies; raises `late_max` to how late the latest
/// send was.
fn open_loop(
    conn: &mut Conn,
    jobs: &[Job],
    start: Instant,
    due: &[Duration],
    expected: &[String],
    out: &mut Outcome,
    late_max: &mut Duration,
) -> Result<Vec<Option<Done>>, String> {
    for (j, &d) in jobs.iter().zip(due) {
        let when = start + d;
        if let Some(wait) = when.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        *late_max = (*late_max).max(Instant::now().saturating_duration_since(when));
        conn.send(&submit(j))?;
    }
    out.attempted += jobs.len() as u64;
    Ok(collect(conn, jobs, expected, out))
}

/// Set-up, then rounds of a phase-1 window and a burst, on in-memory
/// daemons.
fn timed(
    args: &RunArgs,
    bin: &Path,
    cpu: Placement,
    expected: &[String],
    maker: &mut JobMaker,
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let t_start = Instant::now();
    // Set-up, several times: all but the last daemon are stopped again.
    let mut setup = Vec::new();
    let mut last = None;
    for k in 0..SPAWNS {
        let t0 = Instant::now();
        let (daemon, conn, took) = start(bin, cpu, None)?;
        setup.push(took.as_secs_f64());
        tracer.span(
            "occamyd",
            "spawn_to_pong",
            &format!("spawn{k}"),
            1,
            t0,
            Instant::now(),
        );
        if k + 1 < SPAWNS {
            daemon.stop(conn)?;
        } else {
            last = Some((daemon, conn));
        }
    }
    let (daemon, mut conn) = last.expect("SPAWNS > 0");
    warm_up(&mut conn, maker, expected, out)?;

    let cpu0 = cpu_ms(daemon.pid())?;
    let budget = args.seconds.mul_f64(ROUNDS_SHARE);
    let mut rounds: Vec<Round> = Vec::new();
    let mut late_max = Duration::ZERO;
    let mut calib = Vec::new();
    let spinner = Spinner::start(cpu)?;
    while rounds.len() < MIN_ROUNDS || t_start.elapsed() < budget {
        let k = rounds.len();
        // Phase 1: open loop, Poisson arrivals.
        let window = maker.batch(&format!("p{k}_"), WINDOW);
        let mut due = Vec::with_capacity(WINDOW);
        let mut t = 0.0;
        for _ in 0..WINDOW {
            let u: f64 = maker.rng.gen_range(f64::EPSILON..1.0);
            t += -u.ln() / RATE;
            due.push(Duration::from_secs_f64(t));
        }
        let start = Instant::now();
        let window_done = open_loop(
            &mut conn,
            &window,
            start,
            &due,
            expected,
            out,
            &mut late_max,
        )?;

        // Phase 2: a burst submitted at once, timed until drained.
        let burst_jobs = maker.batch(&format!("b{k}_"), BURST);
        let t0 = Instant::now();
        let burst_done = burst(&mut conn, &burst_jobs, expected, out)?;
        let end = burst_done
            .iter()
            .flatten()
            .map(|d| d.at)
            .max()
            .unwrap_or(t0);
        for (j, d) in burst_jobs.iter().zip(&burst_done) {
            if let Some(d) = d {
                tracer.async_span("occamyd", "request", &j.id, 3, t0, d.at);
            }
        }
        let burst_rate = burst_jobs.len() as f64 / (end - t0).as_secs_f64().max(1e-9);
        calib.extend(calibrate_daemon_cpu(cpu)?);
        rounds.push(Round {
            window,
            window_done,
            due: due.iter().map(|&d| start + d).collect(),
            burst_rate,
        });
    }
    drop(spinner);
    let cpu1 = cpu_ms(daemon.pid())?;
    let rss = crate::peak_rss_mb(Path::new(&format!("/proc/{}/status", daemon.pid())))?;
    let stats = stats(&mut conn)?;
    daemon.stop(conn)?;

    // The throughputs and CPU times are scaled to the reference host
    // speed like those of the simulator workloads (see `CALIB_REF_S`):
    // host times by `to_ref`, rates by its inverse. The latencies are
    // not: most of each is the daemon's Nagle stall (see the README),
    // and scaling them widened their spread.
    let calib_s = median(&calib);
    let to_ref = CALIB_REF_S / calib_s;

    // Phase-1 latencies, pooled over rounds.
    let (mut all, mut hit, mut miss) = (Vec::new(), Vec::new(), Vec::new());
    let mut bytes = Vec::new();
    let (mut queue_us, mut run_us) = (Vec::new(), Vec::new());
    for r in &rounds {
        for ((j, d), &due) in r.window.iter().zip(&r.window_done).zip(&r.due) {
            let Some(d) = d else { continue };
            tracer.async_span("occamyd", "request", &j.id, 2, due, d.at);
            let ms = d.at.saturating_duration_since(due).as_secs_f64() * 1e3;
            all.push(ms);
            bytes.push(d.bytes as f64);
            if j.miss {
                miss.push(ms);
                if let Some(t) = d.timing {
                    queue_us.push(t.queue_us as f64);
                    run_us.push(t.run_us as f64 * to_ref);
                }
            } else {
                hit.push(ms);
            }
        }
    }
    // Miss simulation speed per window, and burst throughput. Burst
    // misses are left out of the speed: they share the daemon's CPU
    // with the burst's hits, whose handling preempts them.
    let sim_rates: Vec<f64> = rounds
        .iter()
        .filter_map(|r| miss_rate(r.window.iter().zip(&r.window_done)).map(|v| v / to_ref))
        .collect();
    let burst_rates: Vec<f64> = rounds.iter().map(|r| r.burst_rate / to_ref).collect();

    out.metric("sim_mcycles_per_s", median(&sim_rates), "Mcycles/s");
    out.metric("setup_s", median(&setup), "s");
    out.metric("peak_rss_mb", rss, "MiB");
    out.metric("svc_jobs_per_s", median(&burst_rates), "1/s");
    out.metric("svc_latency_p50_ms", quantile(&all, 0.5), "ms");
    out.metric("svc_latency_p90_ms", quantile(&all, 0.9), "ms");
    if !tracer.enabled() {
        return Ok(());
    }
    let jobs = (rounds.len() * (WINDOW + BURST)) as f64;
    let hits = stats_number(&stats, "sim.cache.hits");
    let lookups = hits + stats_number(&stats, "sim.cache.misses");
    out.metric("occamyd.hit_latency_p50_ms", quantile(&hit, 0.5), "ms");
    out.metric("occamyd.reply_bytes_p50", quantile(&bytes, 0.5), "bytes");
    out.metric(
        "occamyd.daemon_cpu_ms_per_job",
        (cpu1 - cpu0) * to_ref / jobs,
        "ms",
    );
    out.metric("occamyd.miss_latency_p50_ms", quantile(&miss, 0.5), "ms");
    out.metric("occamyd.miss_latency_p99_ms", quantile(&miss, 0.99), "ms");
    out.metric("occamyd.queue_us_p50", quantile(&queue_us, 0.5), "us");
    out.metric("occamyd.queue_us_p99", quantile(&queue_us, 0.99), "us");
    out.metric("occamyd.run_us_p50", quantile(&run_us, 0.5), "us");
    out.metric("occamyd.cache_hit_frac", hits / lookups.max(1.0), "frac");
    out.metric(
        "occamyd.coalesced",
        stats_number(&stats, "service.coalesced"),
        "count",
    );
    out.metric("occamyd.latency_p99_ms", quantile(&all, 0.99), "ms");
    out.metric("loadgen.late_max_ms", late_max.as_secs_f64() * 1e3, "ms");
    out.metric("bench.calib_ms", calib_s * 1e3, "ms");
    Ok(())
}
