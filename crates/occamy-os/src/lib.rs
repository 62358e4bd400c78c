//! # occamy-os: preemptive time-sharing over the Occamy machine
//!
//! The paper's §5 describes how an OS interacts with the elastic
//! co-processor: on a context switch the kernel drains the SIMD
//! pipeline, saves the five dedicated registers plus the vector and
//! predicate state, and releases the task's lanes so co-runners can
//! absorb them; on switch-in it re-declares the task's `<OI>` and
//! re-acquires a vector length. [`occamy_sim::Machine`] exposes that
//! mechanism as [`preempt`](occamy_sim::Machine::preempt) /
//! [`resume`](occamy_sim::Machine::resume); this crate builds the
//! *policy* on top — a round-robin, quantum-based scheduler that runs
//! any number of tasks over the machine's cores and reports per-task
//! turnaround and context-switch costs.
//!
//! # Examples
//!
//! ```no_run
//! use occamy_os::{Scheduler, Task};
//! use occamy_sim::{Architecture, Machine, SimConfig};
//! use mem_sim::Memory;
//!
//! # fn programs() -> Vec<em_simd::Program> { Vec::new() }
//! let mut machine = Machine::new(
//!     SimConfig::paper_2core(),
//!     Architecture::Occamy,
//!     Memory::new(1 << 20),
//! )?;
//! let tasks: Vec<Task> =
//!     programs().into_iter().enumerate().map(|(i, p)| Task::new(format!("t{i}"), p)).collect();
//! let report = Scheduler::new(10_000).run(&mut machine, tasks, 100_000_000)?;
//! println!("{}", report.render());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::VecDeque;

use em_simd::{OperationalIntensity, Program};
use mem_sim::Cycle;
use occamy_sim::{Machine, SavedTask, SimError};

/// A schedulable unit of work: a compiled EM-SIMD program plus a label
/// for reporting.
#[derive(Debug, Clone)]
pub struct Task {
    /// Label used in [`TaskOutcome`] and [`SchedReport::render`].
    pub name: String,
    /// The compiled program (see [`occamy_compiler::Compiler`]).
    ///
    /// [`occamy_compiler::Compiler`]: https://docs.rs/occamy-compiler
    pub program: Program,
    /// The task's dominant operational intensity, if the submitter knows
    /// it (e.g. from `occamy_compiler::analyze`). Only consulted by
    /// [`Policy::IntensityAware`].
    pub oi: Option<OperationalIntensity>,
}

impl Task {
    /// A new task with unknown intensity.
    pub fn new(name: impl Into<String>, program: Program) -> Self {
        Self { name: name.into(), program, oi: None }
    }

    /// Attaches the task's operational intensity for intensity-aware
    /// placement.
    #[must_use]
    pub fn with_oi(mut self, oi: OperationalIntensity) -> Self {
        self.oi = Some(oi);
        self
    }
}

/// How the scheduler picks the next task for an idle core.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Policy {
    /// Strict FIFO order from the ready queue.
    #[default]
    RoundRobin,
    /// Prefer the queued task whose *memory* intensity is farthest from
    /// the tasks currently running on the other cores, so memory-bound
    /// and compute-bound work co-run — exactly the mixes where elastic
    /// lane sharing wins (§2, §7.4). The paper's §5 makes the `<OI>`
    /// declaration visible to the OS; this policy is the OS using it.
    /// Tasks without a declared OI fall back to FIFO order.
    IntensityAware,
}

/// What happened to one task.
#[derive(Debug, Clone)]
pub struct TaskOutcome {
    /// The task's label.
    pub name: String,
    /// Cycle at which the task first received a core.
    pub started_at: Cycle,
    /// Cycle at which the task halted, if it completed in budget.
    pub finished_at: Option<Cycle>,
    /// How many times the task was preempted.
    pub preemptions: u32,
}

impl TaskOutcome {
    /// Completion time from submission (cycle 0) to halt.
    pub fn turnaround(&self) -> Option<Cycle> {
        self.finished_at
    }
}

/// The result of a [`Scheduler::run`].
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Per-task outcomes, in submission order.
    pub outcomes: Vec<TaskOutcome>,
    /// Machine cycle when the last task halted (or the budget ran out).
    pub makespan: Cycle,
    /// Total context switches performed.
    pub context_switches: u32,
    /// Whether every task completed within the cycle budget.
    pub completed: bool,
}

impl SchedReport {
    /// Mean turnaround over the completed tasks.
    pub fn mean_turnaround(&self) -> f64 {
        let done: Vec<Cycle> = self.outcomes.iter().filter_map(|o| o.finished_at).collect();
        if done.is_empty() {
            return 0.0;
        }
        done.iter().sum::<Cycle>() as f64 / done.len() as f64
    }

    /// A human-readable table of the outcomes.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "{:<16} {:>10} {:>12} {:>7}", "task", "started", "finished", "slices");
        for o in &self.outcomes {
            let fin = o.finished_at.map_or_else(|| "-".into(), |c| c.to_string());
            let _ =
                writeln!(s, "{:<16} {:>10} {:>12} {:>7}", o.name, o.started_at, fin, o.preemptions + 1);
        }
        let _ = writeln!(
            s,
            "makespan {} cycles, {} context switches, mean turnaround {:.0}",
            self.makespan,
            self.context_switches,
            self.mean_turnaround()
        );
        s
    }
}

enum Runnable {
    Fresh(usize),
    Saved(usize, Box<SavedTask>),
}

impl Runnable {
    fn index(&self) -> usize {
        match self {
            Runnable::Fresh(i) | Runnable::Saved(i, _) => *i,
        }
    }
}

/// A round-robin, quantum-based preemptive scheduler.
///
/// Cores are filled from a FIFO ready queue. A task keeps its core
/// until it halts or its quantum expires *and* another task is waiting
/// — quantum expiry with an empty queue lets the task run on
/// (preempting to nobody only wastes a drain).
#[derive(Debug, Clone)]
pub struct Scheduler {
    quantum: Cycle,
    policy: Policy,
    drain_budget: Cycle,
    acquire_budget: Cycle,
}

impl Scheduler {
    /// A round-robin scheduler with the given time-slice, in machine
    /// cycles.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn new(quantum: Cycle) -> Self {
        Self::with_policy(quantum, Policy::RoundRobin)
    }

    /// A scheduler with an explicit placement policy.
    ///
    /// # Panics
    ///
    /// Panics if `quantum` is zero.
    pub fn with_policy(quantum: Cycle, policy: Policy) -> Self {
        assert!(quantum > 0, "quantum must be positive");
        Self { quantum, policy, drain_budget: 1_000_000, acquire_budget: 1_000_000 }
    }

    /// The time-slice in cycles.
    pub fn quantum(&self) -> Cycle {
        self.quantum
    }

    /// The placement policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The queue position to dispatch next, given the memory
    /// intensities of the tasks currently on other cores.
    fn pick(&self, queue: &VecDeque<Runnable>, ois: &[Option<f64>], running: &[f64]) -> usize {
        if self.policy == Policy::RoundRobin || queue.is_empty() {
            return 0;
        }
        // Farthest-from-running placement; unknown OI keeps FIFO rank 0
        // distance so it is only chosen when nothing is known-better.
        let mut best = (0usize, -1.0f64);
        for (pos, r) in queue.iter().enumerate() {
            let score = match ois[r.index()] {
                Some(mem) if !running.is_empty() => running
                    .iter()
                    .map(|&other| (mem.log2() - other.log2()).abs())
                    .fold(f64::INFINITY, f64::min),
                _ => 0.0,
            };
            if score > best.1 {
                best = (pos, score);
            }
        }
        best.0
    }

    /// Runs `tasks` over all of `machine`'s cores until every task
    /// halts or `max_cycles` elapse.
    ///
    /// The machine must be freshly constructed (no programs loaded);
    /// task programs address disjoint memory the caller has already
    /// initialised via [`Machine::memory_mut`].
    ///
    /// # Errors
    ///
    /// Returns any [`SimError`] the machine trips — including
    /// [`SimError::Watchdog`] when a preempted task fails to drain or
    /// re-acquire lanes within the internal budgets (a wedged program).
    pub fn run(
        &self,
        machine: &mut Machine,
        tasks: Vec<Task>,
        max_cycles: Cycle,
    ) -> Result<SchedReport, SimError> {
        let cores = machine.config().cores;
        let mut outcomes: Vec<TaskOutcome> = tasks
            .iter()
            .map(|t| TaskOutcome {
                name: t.name.clone(),
                started_at: 0,
                finished_at: None,
                preemptions: 0,
            })
            .collect();
        let ois: Vec<Option<f64>> = tasks.iter().map(|t| t.oi.map(|o| o.mem())).collect();
        let mut programs: Vec<Option<Program>> =
            tasks.into_iter().map(|t| Some(t.program)).collect();
        let mut queue: VecDeque<Runnable> = (0..programs.len()).map(Runnable::Fresh).collect();
        // (task index, cycle its current slice began) per core.
        let mut running: Vec<Option<(usize, Cycle)>> = vec![None; cores];
        let mut switches = 0u32;
        let mut remaining = programs.len();

        while remaining > 0 && machine.cycle() < max_cycles {
            // Fill idle cores from the ready queue.
            for core in 0..cores {
                if running[core].is_none() {
                    let co_running: Vec<f64> = running
                        .iter()
                        .flatten()
                        .filter_map(|&(idx, _)| ois[idx])
                        .collect();
                    let pos = self.pick(&queue, &ois, &co_running);
                    if let Some(next) = queue.remove(pos) {
                        let idx = next.index();
                        let now = machine.cycle();
                        match next {
                            Runnable::Fresh(i) => {
                                outcomes[i].started_at = now;
                                let program =
                                    programs[i].take().expect("fresh task scheduled twice");
                                machine.load_program(core, program);
                            }
                            Runnable::Saved(_, task) => {
                                machine.resume(core, *task, self.acquire_budget)?;
                            }
                        }
                        running[core] = Some((idx, machine.cycle()));
                    }
                }
            }

            // Step with the event kernel bounded by the earliest quantum
            // expiry: a skipped idle span must not jump past the cycle
            // where a preemption decision is due. (`core_done` cannot
            // change during a skipped span, so the quantum boundary is
            // the only scheduler-visible deadline inside one.) With an
            // empty ready queue no preemption can fire — and the queue
            // stays empty from then on, preemption being its only
            // producer — so the quantum bound is dropped there.
            let bound = if queue.is_empty() {
                max_cycles
            } else {
                running
                    .iter()
                    .flatten()
                    .map(|&(_, since)| since.saturating_add(self.quantum))
                    .fold(max_cycles, Cycle::min)
            }
            .max(machine.cycle() + 1);
            machine.step_bounded(bound)?;

            // Retire finished tasks; preempt expired quanta.
            for core in 0..cores {
                let Some((idx, since)) = running[core] else { continue };
                if machine.core_done(core) {
                    outcomes[idx].finished_at = Some(machine.cycle());
                    running[core] = None;
                    remaining -= 1;
                } else if machine.cycle().saturating_sub(since) >= self.quantum
                    && !queue.is_empty()
                {
                    let saved = machine.preempt(core, self.drain_budget)?;
                    outcomes[idx].preemptions += 1;
                    switches += 1;
                    queue.push_back(Runnable::Saved(idx, Box::new(saved)));
                    running[core] = None;
                }
            }
        }

        Ok(SchedReport {
            makespan: machine.cycle(),
            context_switches: switches,
            completed: remaining == 0,
            outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_is_rejected() {
        let _ = Scheduler::new(0);
    }

    #[test]
    fn report_renders_unfinished_tasks() {
        let report = SchedReport {
            outcomes: vec![TaskOutcome {
                name: "t0".into(),
                started_at: 5,
                finished_at: None,
                preemptions: 2,
            }],
            makespan: 100,
            context_switches: 2,
            completed: false,
        };
        let text = report.render();
        assert!(text.contains("t0"));
        assert!(text.contains('-'), "unfinished tasks show a dash");
        assert_eq!(report.mean_turnaround(), 0.0);
    }
}
