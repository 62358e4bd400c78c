//! The SIMD co-processor micro-architecture (Fig. 5).
//!
//! Pipeline stages, executed once per machine cycle in this order:
//!
//! 1. [`CoProcessor::complete`] — writebacks (compute results, load data,
//!    store acknowledgements), ROB retirement (freeing previous physical
//!    registers), scalar-result forwarding.
//! 2. [`CoProcessor::issue`] — selects ready compute instructions from the
//!    issue queues (out-of-order within a core) and vector memory
//!    operations from the LSUs; under temporal sharing (FTS) the issue
//!    slots are shared and arbitrated round-robin between the cores.
//! 3. [`CoProcessor::rename`] — pops the per-core in-order instruction
//!    pools, allocates physical registers from the per-RegBlk free lists,
//!    and processes EM-SIMD instructions on the in-order EM-SIMD data
//!    path, including the pipeline-drain rule for `MSR <VL>` (§4.2.2).

use std::collections::VecDeque;

use em_simd::{
    DedicatedReg, EmSimdInst, OperationalIntensity, VReg, VectorInst, VectorLength, XReg,
    LANES_PER_GRANULE, NUM_PREGS, NUM_VREGS,
};
use lane_manager::{LaneManager, PhaseDemand, ResourceTable};
use mem_sim::{Cycle, Memory, MemorySystem};
use roofline::{MachineCeilings, MemLevel};

use crate::config::{Architecture, SimConfig};
use crate::error::SimError;
use crate::events::{Event, EventKind, EventLog, Track};
use crate::exec;
use crate::fault::FaultState;
use crate::lsu::{Lsu, LsuEntry, PendingValues};
use crate::regblocks::{BlockOwner, LaneHealth, PhysId, PhysRegFile, RegBlocks};
use crate::sched::EventQueue;
use crate::stats::{CoreStats, PhaseStats};
use crate::trace::{Trace, TraceEvent, TraceStage};

/// An entry of a core's in-order instruction pool.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum PoolEntry {
    /// A vector instruction with its pre-resolved scalar payload: the
    /// effective address for memory ops, the broadcast value's bits for
    /// `Dup` (scalar operands are captured at transmit time, Table 2).
    Vector { inst: VectorInst, aux: Option<u64> },
    /// An EM-SIMD instruction with its pre-resolved write operand.
    Em { inst: EmSimdInst, operand: u64 },
}

/// Response of the EM-SIMD data path to the issuing scalar core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct EmResponse {
    pub core: usize,
    /// Value to write into a scalar register (for `MRS`).
    pub write_x: Option<(XReg, u64)>,
}

/// A scalar-register writeback from the co-processor (reductions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ScalarWriteback {
    pub core: usize,
    pub reg: XReg,
    pub value: f32,
}

/// A saved EM-SIMD context: the five dedicated registers plus the
/// architectural vector state (§5: the OS saves these across context
/// switches).
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct OsContext {
    pub oi: u64,
    pub decision: u64,
    pub vl: usize,
    pub status: u64,
    pub vregs: Vec<Vec<f32>>,
    pub pregs: Vec<Vec<f32>>,
}

/// What a core's memory issue stage would do (see
/// `CoProcessor::mem_candidate`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MemAction {
    /// Issue the LSU entry at this index.
    Issue(usize),
    /// Trip a memory fault on the access at `addr` spanning `bytes`.
    Fault { addr: u64, bytes: u64 },
}

/// What one core's co-processor stages did in one cycle (consumed by
/// the machine's statistics and its skip replay).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct CoreCycle {
    /// Compute instructions issued.
    pub compute: u64,
    /// Memory instructions issued.
    pub mem: u64,
    /// Whether rename stalled on register-block exhaustion.
    pub rename_stall: bool,
}

/// Which physical register file a name belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RegClass {
    Vector,
    Pred,
}

/// Up to three physical registers — an instruction's vector sources or
/// its data predicates — kept inline so renaming allocates nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PhysList {
    ids: [PhysId; 3],
    len: u8,
}

impl PhysList {
    fn new(ids: impl Iterator<Item = PhysId>) -> Self {
        let mut list = PhysList { ids: [PhysId(0); 3], len: 0 };
        for id in ids {
            list.ids[usize::from(list.len)] = id;
            list.len += 1;
        }
        list
    }

    fn as_slice(&self) -> &[PhysId] {
        &self.ids[..usize::from(self.len)]
    }
}

/// A compute instruction's operands, resolved to physical registers.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PhysOperands {
    srcs: PhysList,
    /// Governing predicate (physical), if predicated.
    pred: Option<PhysId>,
    /// Predicate registers read as data (SEL's selector).
    psrcs: PhysList,
    /// Old destination value for merging predication.
    merge: Option<PhysId>,
}

#[derive(Debug, Clone, PartialEq)]
struct IqEntry {
    seq: u64,
    inst: VectorInst,
    srcs: PhysList,
    dst: Option<PhysId>,
    dst_class: RegClass,
    /// Governing predicate (physical), if predicated.
    pred: Option<PhysId>,
    /// Predicate registers read as data (SEL's selector).
    psrcs: PhysList,
    /// Old destination value for merging predication.
    merge: Option<PhysId>,
    /// Scalar payload (WHILELO bounds packed as two u32).
    aux: Option<u64>,
    lanes: usize,
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct RobEntry {
    seq: u64,
    done: bool,
    prev_phys: Option<(PhysId, RegClass)>,
}

/// Extra cycles charged when a corrupted result on an already-quarantined
/// granule is corrected in place (re-execution on a healthy granule)
/// instead of tripping another rollback.
const RETRY_PENALTY: Cycle = 12;

/// Bit XORed into a corrupted lane (mantissa bit 22: visibly wrong on any
/// normal operand without manufacturing NaN/Inf out of thin air).
const LANE_FLIP: u32 = 0x0040_0000;

/// A compute result in the execution pipeline. Its value already sits in
/// the destination register's lanes (written at issue); completion only
/// makes it visible.
#[derive(Debug, Clone, PartialEq)]
struct InflightCompute {
    complete_at: Cycle,
    core: usize,
    dst: Option<PhysId>,
    dst_class: RegClass,
    scalar_wb: Option<(XReg, f32)>,
    rob_seq: u64,
    /// Set when a lane fault corrupted this result: the granule hit and
    /// the injection cycle. The residue check at writeback turns the tag
    /// into a [`SimError::LaneFault`].
    faulted: Option<(usize, Cycle)>,
}

#[derive(Debug, Clone, PartialEq)]
struct CoreCtx {
    pool: VecDeque<PoolEntry>,
    iq: Vec<IqEntry>,
    lsu: Lsu,
    rob: VecDeque<RobEntry>,
    rename_map: [PhysId; NUM_VREGS],
    pred_rename: [PhysId; NUM_PREGS],
    cur_vl: VectorLength,
    status: u64,
    /// Blocks the core's registers currently span.
    spans: Vec<usize>,
    /// Index of the open phase in the stats, if any.
    open_phase: Option<usize>,
    /// `vector_compute_issued` snapshot at phase start.
    phase_start_issued: u64,
    /// Cycle an `MSR <VL>` began waiting for the pipeline drain
    /// (event-log bookkeeping only; stays `None` when events are off).
    drain_start: Option<Cycle>,
    /// Cycle the current rename-stall streak began (event-log
    /// bookkeeping only; stays `None` when events are off).
    stall_since: Option<Cycle>,
}

/// The shared SIMD co-processor: register blocks, per-core pipeline
/// contexts, the resource table and (for Occamy) the lane manager.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CoProcessor {
    cfg: SimConfig,
    arch: Architecture,
    blocks: RegBlocks,
    prf: PhysRegFile,
    /// Physical predicate registers (masks stored as 1.0/0.0 lanes).
    ppf: PhysRegFile,
    cores: Vec<CoreCtx>,
    table: ResourceTable,
    mgr: Option<LaneManager>,
    inflight: Vec<InflightCompute>,
    next_seq: u64,
    /// Total instructions retired from the ROBs (forward-progress
    /// signal for the machine's watchdog).
    pub(crate) retired: u64,
    /// First fault latched by the co-processor pipeline; surfaced by
    /// `Machine::step` at the end of the cycle.
    pub(crate) fault: Option<SimError>,
    /// Lane-fault corruptions absorbed in place because they hit an
    /// already-quarantined granule (charged [`RETRY_PENALTY`] instead of
    /// another rollback).
    pub(crate) corrected_inline: u64,
    /// `<OI>` hints rejected by sanitization and replaced with the
    /// hardware monitor's measured intensity.
    pub(crate) hints_sanitized: u64,
    /// Monotonic replan counter; rotates the oversubscription
    /// round-robin so no core is starved when workloads outnumber
    /// surviving granules (invisible otherwise). Also published as
    /// `sim.lanemgr.replans` in the metrics registry.
    pub(crate) replan_epoch: usize,
    /// Instruction-lifecycle trace (disabled by default).
    pub(crate) trace: Trace,
    /// Cross-layer structured event log (disabled by default).
    pub(crate) events: EventLog,
    /// Where compute results and load data are assembled before they are
    /// written into their destination register.
    scratch: Scratch,
}

/// A reusable lane buffer. Holds no machine state: it is empty between
/// pipeline stages, so it is neither compared nor checkpointed.
#[derive(Clone, Default)]
struct Scratch(Vec<f32>);

impl PartialEq for Scratch {
    fn eq(&self, _: &Self) -> bool {
        true
    }
}

impl std::fmt::Debug for Scratch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Scratch")
    }
}

impl CoProcessor {
    pub(crate) fn new(cfg: SimConfig, arch: Architecture) -> Self {
        let mut blocks =
            RegBlocks::new(cfg.total_granules, cfg.vregs_per_block, cfg.pregs_per_block);
        if arch == Architecture::TemporalSharing {
            blocks.set_all_shared();
        }
        let mut prf = PhysRegFile::new();
        let mut ppf = PhysRegFile::new();
        let cores = (0..cfg.cores)
            .map(|_| CoreCtx {
                pool: VecDeque::new(),
                iq: Vec::new(),
                lsu: Lsu::new(cfg.lsu_entries),
                rob: VecDeque::new(),
                rename_map: std::array::from_fn(|_| prf.alloc_zeroed(&[], 0)),
                pred_rename: std::array::from_fn(|_| ppf.alloc_zeroed(&[], 0)),
                cur_vl: VectorLength::ZERO,
                status: 0,
                spans: Vec::new(),
                open_phase: None,
                phase_start_issued: 0,
                drain_start: None,
                stall_since: None,
            })
            .collect();
        let mgr = if arch == Architecture::Occamy {
            let ceilings = MachineCeilings {
                veccache_bytes_cycle: cfg.mem.veccache_bytes_cycle as f64,
                l2_bytes_cycle: cfg.mem.l2_bytes_cycle as f64,
                dram_bytes_cycle: cfg.mem.dram_bytes_cycle as f64,
                ..MachineCeilings::paper_default()
            };
            Some(
                LaneManager::new(ceilings, cfg.total_granules, MemLevel::Dram)
                    .with_contention_awareness(cfg.contention_aware_planning),
            )
        } else {
            None
        };
        let table = ResourceTable::new(cfg.cores, cfg.total_granules);
        CoProcessor {
            cfg,
            arch,
            blocks,
            prf,
            ppf,
            cores,
            table,
            mgr,
            inflight: Vec::new(),
            next_seq: 0,
            retired: 0,
            fault: None,
            corrected_inline: 0,
            hints_sanitized: 0,
            replan_epoch: 0,
            trace: Trace::disabled(),
            events: EventLog::disabled(),
            scratch: Scratch::default(),
        }
    }

    /// Latches the first pipeline fault; later faults are dropped (the
    /// machine is already poisoned by the first).
    fn trip(&mut self, e: SimError) {
        if self.fault.is_none() {
            self.fault = Some(e);
        }
    }

    /// Instruction-pool occupancy (watchdog diagnostics).
    pub(crate) fn pool_len(&self, core: usize) -> usize {
        self.cores[core].pool.len()
    }

    /// Reorder-buffer occupancy (watchdog diagnostics).
    pub(crate) fn rob_len(&self, core: usize) -> usize {
        self.cores[core].rob.len()
    }

    /// Outstanding LSU requests (watchdog diagnostics).
    pub(crate) fn lsu_outstanding(&self, core: usize) -> usize {
        self.cores[core].lsu.len()
    }

    fn trace_event(&mut self, cycle: Cycle, core: usize, seq: u64, stage: TraceStage, disasm: String) {
        if self.trace.is_enabled() {
            self.trace.record(TraceEvent { cycle, core, seq, stage, disasm });
        }
    }

    /// Records a completion in `trace` (no-op unless tracing is on).
    fn trace_complete(trace: &mut Trace, cycle: Cycle, core: usize, seq: u64) {
        if trace.is_enabled() {
            let disasm = String::new();
            trace.record(TraceEvent { cycle, core, seq, stage: TraceStage::Complete, disasm });
        }
    }

    /// Records a structured event (no-op unless the event log is on).
    pub(crate) fn event(&mut self, cycle: Cycle, track: Track, kind: EventKind) {
        if self.events.is_enabled() {
            self.events.record(Event { cycle, track, kind });
        }
    }

    pub(crate) fn table(&self) -> &ResourceTable {
        &self.table
    }

    pub(crate) fn cur_vl(&self, core: usize) -> VectorLength {
        self.cores[core].cur_vl
    }

    pub(crate) fn pool_has_space(&self, core: usize) -> bool {
        self.cores[core].pool.len() < self.cfg.pool_entries
    }

    pub(crate) fn push_vector(
        &mut self,
        core: usize,
        inst: VectorInst,
        aux: Option<u64>,
    ) {
        debug_assert!(self.pool_has_space(core));
        self.cores[core].pool.push_back(PoolEntry::Vector { inst, aux });
    }

    pub(crate) fn push_em(&mut self, core: usize, inst: EmSimdInst, operand: u64) {
        debug_assert!(self.pool_has_space(core));
        self.cores[core].pool.push_back(PoolEntry::Em { inst, operand });
    }

    /// The speculative `MRS <decision>` fast path (§4.1.1).
    pub(crate) fn read_decision(&self, core: usize) -> u64 {
        self.table.read(core, DedicatedReg::Decision)
    }

    /// Index into `stats[core].phases` of the phase currently open on
    /// `core`, if any (profiler bucketing).
    pub(crate) fn open_phase(&self, core: usize) -> Option<usize> {
        self.cores[core].open_phase
    }

    /// Whether the core has no instructions anywhere in the co-processor.
    pub(crate) fn is_drained(&self, core: usize) -> bool {
        self.cores[core].pool.is_empty() && self.cores[core].rob.is_empty()
    }

    /// MOB query: whether any in-flight vector memory operation of `core`
    /// overlaps the byte range — covering both the LSU and vector memory
    /// instructions still queued in the instruction pool (transmitted but
    /// not yet renamed), using the maximum possible vector width for the
    /// latter since their lanes are not fixed until rename.
    pub(crate) fn any_mem_overlap(&self, core: usize, addr: u64, bytes: u64) -> bool {
        if self.cores[core].lsu.any_overlap(addr, bytes) {
            return true;
        }
        let max_width = (self.cfg.total_granules * 16) as u64;
        self.cores[core].pool.iter().any(|e| match e {
            PoolEntry::Vector { inst, aux: Some(a) } if inst.is_mem() => {
                // Saturating: wild (near-u64::MAX) addresses from untrusted
                // programs must not overflow the span arithmetic.
                *a < addr.saturating_add(bytes) && addr < a.saturating_add(max_width)
            }
            _ => false,
        })
    }

    /// Schedules every pending completion — in-flight compute writebacks
    /// and issued LSU accesses — into the event queue, keyed by the same
    /// `(track, seq)` identities the event log uses.
    pub(crate) fn schedule_completions(&self, q: &mut EventQueue) {
        for f in &self.inflight {
            q.schedule(f.complete_at, Track::Coproc, f.rob_seq);
        }
        for ctx in &self.cores {
            for (at, seq) in ctx.lsu.issued_completions() {
                q.schedule(at, Track::Memory, seq);
            }
        }
    }

    fn mark_rob_done(rob: &mut VecDeque<RobEntry>, seq: u64) {
        let Some(e) = rob.iter_mut().find(|e| e.seq == seq) else {
            debug_assert!(false, "ROB entry {seq} vanished");
            return;
        };
        debug_assert!(!e.done);
        e.done = true;
    }

    /// Whether every register an issue-queue entry reads is ready.
    fn operands_ready(&self, e: &IqEntry) -> bool {
        e.srcs.as_slice().iter().all(|&s| self.prf.is_ready(s))
            && e.pred.is_none_or(|p| self.ppf.is_ready(p))
            && e.psrcs.as_slice().iter().all(|&p| self.ppf.is_ready(p))
            && e.merge.is_none_or(|m| self.prf.is_ready(m))
    }

    /// Stage 1: writebacks, load/store completion, retirement. Scalar
    /// results for the scalar cores are appended to `wbs`. Returns
    /// whether anything completed or retired.
    pub(crate) fn complete(&mut self, now: Cycle, wbs: &mut Vec<ScalarWriteback>) -> bool {
        let (inflight_before, retired_before) = (self.inflight.len(), self.retired);
        let CoProcessor { prf, ppf, cores, inflight, trace, .. } = self;

        // Compute writebacks: the values already sit in their
        // destination registers; completion makes them visible.
        let mut lane_fault = None;
        inflight.retain(|f| {
            if f.complete_at > now {
                return true;
            }
            // Residue check at writeback (§ detection & recovery): a
            // corrupted result is *detected* here, not corrected — the
            // value still lands, and the machine's recovery layer decides
            // whether to roll back to the last checkpoint.
            if let Some((granule, injected_at)) = f.faulted {
                lane_fault.get_or_insert(SimError::LaneFault {
                    core: f.core,
                    granule,
                    injected_at,
                    detected_at: now,
                });
            }
            if let Some(dst) = f.dst {
                match f.dst_class {
                    RegClass::Vector => prf.set_ready(dst),
                    RegClass::Pred => ppf.set_ready(dst),
                }
            }
            if let Some((reg, value)) = f.scalar_wb {
                wbs.push(ScalarWriteback { core: f.core, reg, value });
            }
            Self::trace_complete(trace, now, f.core, f.rob_seq);
            Self::mark_rob_done(&mut cores[f.core].rob, f.rob_seq);
            false
        });
        if let Some(e) = lane_fault {
            self.trip(e);
        }

        // Memory completions: issued loads wrote their data at issue.
        let mut progress = self.inflight.len() != inflight_before;
        let CoProcessor { prf, cores, trace, .. } = self;
        for (core, ctx) in cores.iter_mut().enumerate() {
            let CoreCtx { lsu, rob, .. } = ctx;
            lsu.retire_completed(now, |e| {
                progress = true;
                if let Some(dst) = e.dst {
                    prf.set_ready(dst);
                }
                Self::trace_complete(trace, now, core, e.seq);
                Self::mark_rob_done(rob, e.seq);
            });
        }

        // Retirement: free previous physical registers in order.
        for core in 0..self.cores.len() {
            let mut budget = self.cfg.retire_width;
            while budget > 0 {
                match self.cores[core].rob.front() {
                    Some(head) if head.done => {
                        let Some(head) = self.cores[core].rob.pop_front() else { break };
                        self.retired += 1;
                        self.trace_event(now, core, head.seq, TraceStage::Retire, String::new());
                        match head.prev_phys {
                            Some((prev, RegClass::Vector)) => {
                                self.blocks.release(self.prf.free(prev));
                            }
                            Some((prev, RegClass::Pred)) => {
                                self.blocks.release_pred(self.ppf.free(prev));
                            }
                            None => {}
                        }
                        budget -= 1;
                    }
                    _ => break,
                }
            }
        }
        progress || self.retired != retired_before
    }

    /// Stage 2: compute and memory issue. Resets `counts` to one entry
    /// per core and fills in the issue counts.
    pub(crate) fn issue(
        &mut self,
        now: Cycle,
        mem: &mut Memory,
        memsys: &mut MemorySystem,
        faults: &mut Option<FaultState>,
        counts: &mut Vec<CoreCycle>,
    ) {
        let ncores = self.cores.len();
        counts.clear();
        counts.resize(ncores, CoreCycle::default());
        let shared = self.arch == Architecture::TemporalSharing;

        // Compute issue. Under temporal sharing the whole datapath is
        // owned by one core per cycle (rotating), and other cores only
        // steal slots the owner leaves idle — which is what produces the
        // paper's halved per-core issue rates when both cores are busy
        // (Fig. 2(f)) while still letting a lone core run at full speed.
        if shared {
            let mut budget = self.cfg.compute_width;
            let start = (now as usize) % ncores;
            for k in 0..ncores {
                let c = (start + k) % ncores;
                while budget > 0 && self.try_issue_compute(c, now, faults) {
                    counts[c].compute += 1;
                    budget -= 1;
                }
            }
        } else {
            for c in 0..ncores {
                for _ in 0..self.cfg.compute_width {
                    if self.try_issue_compute(c, now, faults) {
                        counts[c].compute += 1;
                    } else {
                        break;
                    }
                }
            }
        }

        // Memory issue (same ownership rotation under temporal sharing).
        if shared {
            let mut budget = self.cfg.mem_width;
            let start = (now as usize) % ncores;
            for k in 0..ncores {
                let c = (start + k) % ncores;
                while budget > 0 && self.try_issue_mem(c, now, mem, memsys, faults) {
                    counts[c].mem += 1;
                    budget -= 1;
                }
            }
        } else {
            for c in 0..ncores {
                for _ in 0..self.cfg.mem_width {
                    if self.try_issue_mem(c, now, mem, memsys, faults) {
                        counts[c].mem += 1;
                    } else {
                        break;
                    }
                }
            }
        }
    }

    /// Executes compute instruction `inst` over physical operands into
    /// the scratch buffer, returning its scalar writeback, if any. Shared
    /// by the timing model's issue stage and the functional engine.
    fn execute(
        &mut self,
        inst: &VectorInst,
        ops: &PhysOperands,
        aux: Option<u64>,
        lanes: usize,
    ) -> Option<(XReg, f32)> {
        let (prf, ppf) = (&self.prf, &self.ppf);
        let mut srcs: [&[f32]; 3] = [&[]; 3];
        for (slot, &id) in srcs.iter_mut().zip(ops.srcs.as_slice()) {
            *slot = prf.read(id);
        }
        let operands = exec::Operands {
            srcs,
            mask: ops.pred.map(|p| ppf.read(p)),
            sel: ops.psrcs.as_slice().first().map(|&p| ppf.read(p)),
            old: ops.merge.map(|m| prf.read(m)),
        };
        exec::compute(inst, &operands, aux, lanes, &mut self.scratch.0)
    }

    /// The issue-queue index of `core`'s oldest compute instruction whose
    /// operands are ready. The queue is in age order: rename appends in
    /// sequence order and issue removes in place (decode checks it).
    fn compute_candidate(&self, core: usize) -> Option<usize> {
        self.cores[core].iq.iter().position(|e| self.operands_ready(e))
    }

    /// Issues the oldest ready compute instruction of `core`, if any: its
    /// result is computed now and written into the destination register,
    /// which becomes visible when the instruction completes.
    fn try_issue_compute(
        &mut self,
        core: usize,
        now: Cycle,
        faults: &mut Option<FaultState>,
    ) -> bool {
        let Some(pos) = self.compute_candidate(core) else { return false };
        let e = self.cores[core].iq.remove(pos);
        if self.trace.is_enabled() {
            self.trace_event(now, core, e.seq, TraceStage::Issue, String::new());
        }
        let latency = match e.inst.inner() {
            VectorInst::Binary { op: em_simd::VBinOp::Fdiv, .. }
            | VectorInst::Unary { op: em_simd::VUnOp::Fsqrt, .. } => self.cfg.exe_latency_long,
            _ => self.cfg.exe_latency,
        };
        let ops = PhysOperands { srcs: e.srcs, pred: e.pred, psrcs: e.psrcs, merge: e.merge };
        let mut scalar_wb = self.execute(&e.inst, &ops, e.aux, e.lanes);
        let value = match (e.dst, e.dst_class) {
            (Some(dst), RegClass::Vector) => self.prf.produce(dst, &self.scratch.0),
            (Some(dst), RegClass::Pred) => self.ppf.produce(dst, &self.scratch.0),
            (None, _) => &mut [],
        };
        // Lane-fault injection (§ detection & recovery): a transient or
        // permanent ExeBU fault flips a bit in the lanes one granule of
        // this core computes. A hit on an already-quarantined granule is
        // corrected in place at a re-execution penalty — the recovery
        // layer has retired it, so no rollback is owed — while a hit on a
        // healthy granule corrupts the result and tags it for the residue
        // check at writeback.
        let mut complete_at = now + latency;
        let mut faulted = None;
        if let Some(f) = faults.as_mut() {
            let spans = &self.cores[core].spans;
            if let Some(g) = f.lane_fault(spans, now) {
                if self.blocks.is_quarantined(g) {
                    self.corrected_inline += 1;
                    complete_at += RETRY_PENALTY;
                } else {
                    let per_granule = e.lanes / spans.len().max(1);
                    let li = spans.iter().position(|&s| s == g).unwrap_or(0) * per_granule;
                    if let Some(v) = value.get_mut(li) {
                        *v = f32::from_bits(v.to_bits() ^ LANE_FLIP);
                    } else if let Some((_, sum)) = scalar_wb.as_mut() {
                        // Reductions write back a scalar; the corrupted
                        // lane surfaces in the sum.
                        *sum = f32::from_bits(sum.to_bits() ^ LANE_FLIP);
                    }
                    faulted = Some((g, now));
                }
            }
        }
        self.inflight.push(InflightCompute {
            complete_at,
            core,
            dst: e.dst,
            dst_class: e.dst_class,
            scalar_wb,
            rob_seq: e.seq,
            faulted,
        });
        true
    }

    /// What `core`'s memory issue does this cycle: issue the oldest LSU
    /// entry that may go, or fault on an out-of-range access met first.
    /// An entry may go once its governing predicate is ready, the issue
    /// rules no longer hold it back ([`Lsu::pending`]) and, for a store,
    /// its data is ready. The bounds check comes before the ordering
    /// rules: an out-of-range vector access is a typed fault, not a
    /// crash, even while it waits. Predicated accesses only touch active
    /// lanes (SVE fault suppression), so the checked span ends at the
    /// last active lane.
    fn mem_candidate(&self, core: usize, mem_capacity: u64) -> Option<MemAction> {
        for (idx, e, blocked) in self.cores[core].lsu.pending() {
            if e.pred.is_some_and(|p| !self.ppf.is_ready(p)) {
                continue;
            }
            let span = exec::access_span(e.pred.map(|p| self.ppf.read(p)), e.bytes);
            if span > 0 && e.addr.checked_add(span).is_none_or(|end| end > mem_capacity) {
                return Some(MemAction::Fault { addr: e.addr, bytes: span });
            }
            if blocked {
                continue;
            }
            if e.store && !e.src.is_some_and(|src| self.prf.is_ready(src)) {
                debug_assert!(e.src.is_some(), "store has a data source");
                continue;
            }
            return Some(MemAction::Issue(idx));
        }
        None
    }

    /// Issues one eligible memory operation of `core`, if any (see
    /// [`mem_candidate`](Self::mem_candidate)). A load writes its data
    /// into the destination register now; the value becomes visible when
    /// the access completes.
    fn try_issue_mem(
        &mut self,
        core: usize,
        now: Cycle,
        mem: &mut Memory,
        memsys: &mut MemorySystem,
        faults: &mut Option<FaultState>,
    ) -> bool {
        let capacity = mem.capacity() as u64;
        let idx = match self.mem_candidate(core, capacity) {
            None => return false,
            Some(MemAction::Fault { addr, bytes }) => {
                self.trip(SimError::MemoryFault { core, addr, bytes, capacity });
                return false;
            }
            Some(MemAction::Issue(idx)) => idx,
        };
        let e = &self.cores[core].lsu.entries()[idx];
        let (store, addr, bytes, lanes) = (e.store, e.addr, e.bytes, e.lanes);
        let (src, dst) = (e.src, e.dst);
        let mask = e.pred.map(|p| self.ppf.read(p));
        if store {
            if let Some(src) = src {
                exec::store(mem, addr, self.prf.read(src), mask);
            }
        } else {
            exec::load(mem, addr, lanes, mask, &mut self.scratch.0);
            debug_assert!(dst.is_some(), "a load has a destination");
            if let Some(dst) = dst {
                self.prf.produce(dst, &self.scratch.0);
            }
        }
        let (served, level) = memsys.vector_access_traced(now, core, addr, bytes, store);
        let done = served + faults.as_mut().map_or(0, FaultState::spike_mem);
        if level != mem_sim::ServiceLevel::FirstLevel {
            self.event(now, Track::Memory, EventKind::CacheMiss { core, level });
        }
        let e = &mut self.cores[core].lsu.entries_mut()[idx];
        e.issued = true;
        e.complete_at = Some(done);
        let seq = e.seq;
        self.trace_event(now, core, seq, TraceStage::Issue, String::new());
        true
    }

    /// Stage 3: rename + the EM-SIMD data path. Updates rename-stall and
    /// phase statistics in `stats` and the rename-stall flags in
    /// `cycle`; appends responses for waiting scalar cores to `resps`.
    /// Returns whether anything renamed or executed, or a drain or
    /// rename stall began or ended.
    pub(crate) fn rename(
        &mut self,
        now: Cycle,
        stats: &mut [CoreStats],
        faults: &mut Option<FaultState>,
        resps: &mut Vec<EmResponse>,
        cycle: &mut [CoreCycle],
    ) -> bool {
        let mut progress = false;
        let mut em_budget = self.cfg.em_width;
        // Rotate the service order so the shared EM-SIMD data path cannot
        // be starved by other cores' vector-length retry loops (with a
        // fixed order, two spinning cores would consume every EM slot and
        // a third core's lane release would never execute — deadlock).
        let ncores = self.cores.len();
        let start = (now as usize) % ncores;
        for k in 0..ncores {
            let core = (start + k) % ncores;
            let mut budget = self.cfg.transmit_width;
            let mut stalled_on_regs = false;
            while budget > 0 {
                match self.cores[core].pool.front() {
                    None => break,
                    Some(&PoolEntry::Em { inst, operand }) => {
                        if em_budget == 0 {
                            break;
                        }
                        match self.exec_em(core, inst, operand, now, stats, faults) {
                            Some(resp) => {
                                resps.push(resp);
                                self.cores[core].pool.pop_front();
                                em_budget -= 1;
                                budget -= 1;
                                progress = true;
                            }
                            // Waiting for the pipeline to drain (whose
                            // start this cycle may have stamped).
                            None => {
                                progress |= self.cores[core].drain_start == Some(now);
                                break;
                            }
                        }
                    }
                    Some(PoolEntry::Vector { .. }) => {
                        if !self.rename_vector(core, now, &mut stalled_on_regs) {
                            break;
                        }
                        budget -= 1;
                        progress = true;
                    }
                }
            }
            cycle[core].rename_stall = stalled_on_regs;
            if stalled_on_regs {
                stats[core].rename_stall_cycles += 1;
            }
            if self.events.is_enabled() {
                if stalled_on_regs {
                    if self.cores[core].stall_since.is_none() {
                        self.cores[core].stall_since = Some(now);
                        self.event(now, Track::Core(core), EventKind::RenameStallBegin);
                        progress = true;
                    }
                } else if self.cores[core].stall_since.take().is_some() {
                    self.event(now, Track::Core(core), EventKind::RenameStallEnd);
                    progress = true;
                }
            }
        }
        progress
    }

    /// The physical registers a vector instruction of `core` reads under
    /// the current rename maps: read before the destination is redefined
    /// (FMLA reads its accumulator; merging predication reads the old
    /// destination — only for compute, as predicated loads are zeroing).
    fn resolve(&self, core: usize, inst: &VectorInst) -> PhysOperands {
        let ctx = &self.cores[core];
        let merge = match (inst, inst.vector_dst()) {
            (VectorInst::Predicated { .. }, Some(d)) if !inst.is_mem() => {
                Some(ctx.rename_map[d.index()])
            }
            _ => None,
        };
        PhysOperands {
            srcs: PhysList::new(inst.vector_srcs().map(|v| ctx.rename_map[v.index()])),
            pred: inst.governing_pred().map(|p| ctx.pred_rename[p.index()]),
            psrcs: PhysList::new(inst.pred_srcs().map(|p| ctx.pred_rename[p.index()])),
            merge,
        }
    }

    /// Renames the vector instruction at the head of `core`'s pool,
    /// moving it into the issue queue or the LSU. Returns `false` (and
    /// leaves it in the pool) when a structural or register-file stall
    /// blocks it.
    fn rename_vector(&mut self, core: usize, now: Cycle, stalled_on_regs: &mut bool) -> bool {
        let (is_mem, vector_dst, pred_dst) = match self.cores[core].pool.front() {
            Some(PoolEntry::Vector { inst, .. }) => {
                (inst.is_mem(), inst.vector_dst(), inst.pred_dst())
            }
            _ => return false,
        };
        let (rob_full, lsu_full, iq_full, lanes) = {
            let ctx = &self.cores[core];
            (
                ctx.rob.len() >= self.cfg.rob_entries,
                ctx.lsu.is_full(),
                ctx.iq.len() >= self.cfg.iq_entries,
                ctx.cur_vl.lanes(),
            )
        };
        if rob_full || (is_mem && lsu_full) || (!is_mem && iq_full) {
            return false;
        }
        if lanes == 0 {
            self.trip(SimError::InvalidVl {
                core,
                granules: 0,
                detail: "vector instruction executed with <VL> = 0".into(),
            });
            return false;
        }
        let Some(PoolEntry::Vector { inst, aux }) = self.cores[core].pool.front() else {
            return false;
        };
        let (ops, aux) = (self.resolve(core, inst), *aux);

        let mut prev_phys = None;
        let mut dst_phys = None;
        let mut dst_class = RegClass::Vector;
        let ctx = &mut self.cores[core];
        if let Some(d) = vector_dst {
            if !self.blocks.try_reserve(&ctx.spans) {
                *stalled_on_regs = true;
                return false;
            }
            let id = self.prf.alloc(&ctx.spans);
            prev_phys = Some((ctx.rename_map[d.index()], RegClass::Vector));
            ctx.rename_map[d.index()] = id;
            dst_phys = Some(id);
        } else if let Some(p) = pred_dst {
            if !self.blocks.try_reserve_pred(&ctx.spans) {
                *stalled_on_regs = true;
                return false;
            }
            let id = self.ppf.alloc(&ctx.spans);
            prev_phys = Some((ctx.pred_rename[p.index()], RegClass::Pred));
            ctx.pred_rename[p.index()] = id;
            dst_phys = Some(id);
            dst_class = RegClass::Pred;
        }
        let Some(PoolEntry::Vector { inst, .. }) = ctx.pool.pop_front() else {
            debug_assert!(false, "the pool head is the vector instruction being renamed");
            return false;
        };

        let seq = self.next_seq;
        self.next_seq += 1;
        self.cores[core].rob.push_back(RobEntry { seq, done: false, prev_phys });
        if self.trace.is_enabled() {
            self.trace_event(now, core, seq, TraceStage::Rename, inst.to_string());
        }

        if is_mem {
            let store = matches!(inst.inner(), VectorInst::Store { .. });
            let src = ops.srcs.as_slice().first().copied().filter(|_| store);
            self.cores[core].lsu.push(LsuEntry {
                seq,
                store,
                addr: {
                    debug_assert!(aux.is_some(), "memory instruction carries its address");
                    aux.unwrap_or(0)
                },
                bytes: (lanes * 4) as u64,
                lanes,
                dst: dst_phys,
                src,
                issued: false,
                complete_at: None,
                pred: ops.pred,
            });
        } else {
            // Rewrite scalar broadcasts into immediate broadcasts: the
            // scalar value was captured by the scalar core at transmit
            // time (Table 2: scalar operands are ready by then).
            let inst = match (inst, aux) {
                (VectorInst::Dup { dst, .. }, Some(bits)) => {
                    VectorInst::DupImm { dst, imm: f32::from_bits(bits as u32) }
                }
                (i, _) => i,
            };
            self.cores[core].iq.push(IqEntry {
                seq,
                inst,
                srcs: ops.srcs,
                dst: dst_phys,
                dst_class,
                pred: ops.pred,
                psrcs: ops.psrcs,
                merge: ops.merge,
                aux,
                lanes,
            });
        }
        true
    }

    /// Executes a vector compute instruction directly on `core`'s
    /// architectural registers (the functional engine): the result
    /// overwrites the destination register in place. Returns the scalar
    /// writeback of a reduction.
    pub(crate) fn execute_arch(
        &mut self,
        core: usize,
        inst: &VectorInst,
        aux: Option<u64>,
    ) -> Option<(XReg, f32)> {
        let ops = self.resolve(core, inst);
        let lanes = self.cores[core].cur_vl.lanes();
        let wb = self.execute(inst, &ops, aux, lanes);
        if let Some(d) = inst.vector_dst() {
            self.prf.overwrite(self.cores[core].rename_map[d.index()], &self.scratch.0);
        } else if let Some(p) = inst.pred_dst() {
            self.ppf.overwrite(self.cores[core].pred_rename[p.index()], &self.scratch.0);
        }
        wb
    }

    /// Executes a vector load or store directly against `core`'s
    /// architectural registers and `mem` (the functional engine), with
    /// the timing LSU's zeroing-load and active-lane-store semantics.
    /// The caller has bounds-checked the access.
    pub(crate) fn access_arch(
        &mut self,
        core: usize,
        inst: &VectorInst,
        mem: &mut Memory,
        addr: u64,
    ) {
        let ctx = &self.cores[core];
        let mask = inst.governing_pred().map(|p| self.ppf.read(ctx.pred_rename[p.index()]));
        match inst.inner() {
            VectorInst::Load { dst, .. } => {
                exec::load(mem, addr, ctx.cur_vl.lanes(), mask, &mut self.scratch.0);
                self.prf.overwrite(ctx.rename_map[dst.index()], &self.scratch.0);
            }
            VectorInst::Store { src, .. } => {
                exec::store(mem, addr, self.prf.read(ctx.rename_map[src.index()]), mask);
            }
            _ => {}
        }
    }

    /// Executes one EM-SIMD instruction on the in-order EM-SIMD data
    /// path. Returns `None` when the instruction must wait (pipeline not
    /// drained for `MSR <VL>`). Also the EM-SIMD semantic core of the
    /// functional engine (`crate::functional`), which calls it on a
    /// drained pipeline so the wait case cannot occur there.
    pub(crate) fn exec_em(
        &mut self,
        core: usize,
        inst: EmSimdInst,
        operand: u64,
        now: Cycle,
        stats: &mut [CoreStats],
        faults: &mut Option<FaultState>,
    ) -> Option<EmResponse> {
        match inst {
            EmSimdInst::Msr { reg, .. } => {
                match reg {
                    DedicatedReg::Oi => self.write_oi(core, operand, now, stats, faults),
                    DedicatedReg::Vl => {
                        // §4.2.2: the vector length only changes once the
                        // core's SIMD pipeline is drained.
                        if !self.cores[core].rob.is_empty() {
                            if self.events.is_enabled()
                                && self.cores[core].drain_start.is_none()
                            {
                                self.cores[core].drain_start = Some(now);
                            }
                            return None;
                        }
                        debug_assert!(self.cores[core].lsu.is_empty());
                        let from_granules = self.cores[core].cur_vl.granules();
                        let granules = (operand as usize).min(64);
                        let ok = self.try_set_vl(core, granules);
                        self.cores[core].status = u64::from(ok);
                        if ok {
                            if let Some(p) = self.cores[core].open_phase {
                                stats[core].phases[p].configured_granules = granules;
                            }
                        }
                        if self.events.is_enabled() {
                            let drain_cycles = self.cores[core]
                                .drain_start
                                .take()
                                .map_or(0, |s| now.saturating_sub(s));
                            self.event(
                                now,
                                Track::Core(core),
                                EventKind::VlReconfig {
                                    from_granules,
                                    to_granules: granules,
                                    drain_cycles,
                                    ok,
                                },
                            );
                        }
                    }
                    DedicatedReg::Decision => self.table.write(core, DedicatedReg::Decision, operand),
                    DedicatedReg::Status => self.cores[core].status = operand,
                    DedicatedReg::Al => { /* read-only to software; ignore */ }
                }
                Some(EmResponse { core, write_x: None })
            }
            EmSimdInst::Mrs { dst, reg } => {
                let value = self.read_dedicated(core, reg);
                Some(EmResponse { core, write_x: Some((dst, value)) })
            }
        }
    }

    fn read_dedicated(&self, core: usize, reg: DedicatedReg) -> u64 {
        match reg {
            DedicatedReg::Oi | DedicatedReg::Decision => self.table.read(core, reg),
            DedicatedReg::Vl => self.cores[core].cur_vl.granules() as u64,
            DedicatedReg::Status => self.cores[core].status,
            DedicatedReg::Al => {
                if self.arch == Architecture::TemporalSharing {
                    0
                } else {
                    self.table.free_granules() as u64
                }
            }
        }
    }

    /// Handles a write to `<OI>`: records phase boundaries and (on
    /// Occamy) triggers the lane manager to publish a new partition plan
    /// in every core's `<decision>` (§5).
    fn write_oi(
        &mut self,
        core: usize,
        operand: u64,
        now: Cycle,
        stats: &mut [CoreStats],
        faults: &mut Option<FaultState>,
    ) {
        let operand = match faults {
            Some(f) => f.corrupt_oi(operand),
            None => operand,
        };
        let operand = self.sanitize_oi(core, operand, stats);
        self.table.write(core, DedicatedReg::Oi, operand);
        let oi = OperationalIntensity::from_bits(operand);
        if oi.is_phase_end() {
            if let Some(p) = self.cores[core].open_phase.take() {
                let phase = &mut stats[core].phases[p];
                phase.end_cycle = Some(now);
                phase.compute_issued = stats[core].vector_compute_issued
                    + stats[core].vector_mem_issued
                    - self.cores[core].phase_start_issued;
                self.event(now, Track::Core(core), EventKind::PhaseEnd);
            }
        } else {
            self.cores[core].phase_start_issued =
                stats[core].vector_compute_issued + stats[core].vector_mem_issued;
            stats[core].phases.push(PhaseStats {
                oi,
                start_cycle: now,
                end_cycle: None,
                compute_issued: 0,
                configured_granules: self.cores[core].cur_vl.granules(),
            });
            self.cores[core].open_phase = Some(stats[core].phases.len() - 1);
            self.event(
                now,
                Track::Core(core),
                EventKind::PhaseBegin { oi_issue: oi.issue(), oi_mem: oi.mem() },
            );
        }

        self.replan(now, faults);
    }

    /// Validates a software `<OI>` hint against the roofline model's
    /// plausible range (§ detection & recovery). A hint that decodes to
    /// NaN/Inf, a negative intensity, or a value orders of magnitude past
    /// any machine balance point cannot come from an honest kernel, and
    /// feeding it to the planner would wreck the partition for every
    /// co-runner. Such hints fall back to the hardware monitor's measured
    /// intensity for the core; valid hints (and the phase-end marker)
    /// pass through bit-unchanged. Baselines have no planner to poison,
    /// so they keep the raw write.
    fn sanitize_oi(&mut self, core: usize, operand: u64, stats: &[CoreStats]) -> u64 {
        let Some(mgr) = &self.mgr else { return operand };
        let oi = OperationalIntensity::from_bits(operand);
        if oi.is_phase_end() {
            return operand;
        }
        let max = mgr.plausible_oi_max();
        let plausible = |x: f64| x.is_finite() && x >= 0.0 && x <= max;
        if plausible(oi.issue()) && plausible(oi.mem()) {
            return operand;
        }
        // Monitor path: FLOPs per byte from the issue counters (each
        // vector memory instruction moves ~4 bytes per lane), defaulting
        // to the machine balance point before any traffic exists. Clamped
        // away from zero so the fallback can never alias the phase-end
        // marker.
        let s = &stats[core];
        let measured = if s.vector_mem_issued == 0 {
            mgr.balance_point_oi()
        } else {
            s.vector_compute_issued as f64 / (4.0 * s.vector_mem_issued as f64)
        };
        self.hints_sanitized += 1;
        OperationalIntensity::uniform(measured.clamp(1e-6, max)).to_bits()
    }

    /// Re-runs the lane manager over the current `<OI>` registers and
    /// publishes the plan in every core's `<decision>` (no-op on the
    /// baseline architectures, which have no lane manager). Publishes a
    /// [`EventKind::Repartition`] event when the plan actually changed
    /// some core's `<decision>`.
    fn replan(&mut self, now: Cycle, faults: &mut Option<FaultState>) {
        let epoch = self.replan_epoch;
        self.replan_epoch = self.replan_epoch.wrapping_add(1);
        if self.mgr.is_none() {
            return;
        }
        let record = self.events.is_enabled();
        let old = if record { self.table.decisions() } else { Vec::new() };
        if let Some(mgr) = &self.mgr {
            let demands: Vec<PhaseDemand> = (0..self.cores.len())
                .map(|c| {
                    let oi =
                        OperationalIntensity::from_bits(self.table.read(c, DedicatedReg::Oi));
                    if oi.is_phase_end() {
                        PhaseDemand::Idle
                    } else {
                        PhaseDemand::Active(oi)
                    }
                })
                .collect();
            let plan = mgr.plan_rotated(&demands, epoch);
            for c in 0..self.cores.len() {
                let mut granules = plan.vl(c).granules() as u64;
                if let Some(f) = faults {
                    granules = f.perturb_decision(granules, self.cfg.total_granules as u64);
                }
                self.table.write(c, DedicatedReg::Decision, granules);
            }
        }
        if record {
            let new = self.table.decisions();
            if new != old {
                self.event(now, Track::LaneManager, EventKind::Repartition { epoch, old, new });
            }
        }
    }

    /// Whether this co-processor has a lane manager (Occamy) — the only
    /// architecture that can repartition around a retired granule.
    pub(crate) fn has_lane_manager(&self) -> bool {
        self.mgr.is_some()
    }

    /// Whether a corrupted (tagged) compute result is still in flight —
    /// checkpoints must not be taken while one is, or the rollback would
    /// replay the corruption forever.
    pub(crate) fn inflight_tainted(&self) -> bool {
        self.inflight.iter().any(|f| f.faulted.is_some())
    }

    /// Starts quarantining `granule` (§ detection & recovery): the block
    /// is marked for lazy drain (retired immediately when free), the lane
    /// manager stops planning over it, and a fresh plan is published so
    /// the owning core sheds it at its next partition point. Returns
    /// `false` when the granule was already quarantined, is out of range,
    /// or there is no lane manager to repartition around it.
    pub(crate) fn begin_quarantine(&mut self, granule: usize, now: Cycle) -> bool {
        if self.mgr.is_none() || granule >= self.cfg.total_granules {
            return false;
        }
        if !self.blocks.begin_quarantine(granule) {
            return false;
        }
        if let Some(mgr) = &mut self.mgr {
            mgr.retire_granule();
        }
        if self.blocks.health(granule) == LaneHealth::Retired {
            // The block was free, so it leaves the resource table now;
            // owned blocks retire in `maintain_quarantine` once drained.
            let retired = self.table.retire_granule();
            debug_assert!(retired, "a free block implies a free table slot");
        }
        self.event(now, Track::Recovery, EventKind::QuarantineBegin { granule });
        self.replan(now, &mut None);
        true
    }

    /// Finishes quarantines whose owner has shed the block since the last
    /// cycle, shrinking the resource table to the survivors. A block only
    /// retires when the table has a free slot to give up (always true on
    /// planner-driven machines; adversarial programs can briefly
    /// over-acquire, in which case the block stays draining until a slot
    /// frees). Returns the number of granules newly retired.
    pub(crate) fn maintain_quarantine(&mut self, now: Cycle) -> usize {
        let mut retired = 0;
        for b in 0..self.blocks.num_blocks() {
            if self.blocks.health(b) == LaneHealth::Draining
                && self.blocks.owner(b) == BlockOwner::Free
                && self.table.retire_granule()
                && self.blocks.try_finish_drain(b)
            {
                retired += 1;
                self.event(now, Track::Recovery, EventKind::GranuleRetired { granule: b });
            }
        }
        retired
    }

    /// The `(draining, retired)` granule counts of the quarantine state
    /// machine.
    pub(crate) fn quarantine_counts(&self) -> (usize, usize) {
        (0..self.blocks.num_blocks()).fold((0, 0), |(d, r), b| match self.blocks.health(b) {
            LaneHealth::Draining => (d + 1, r),
            LaneHealth::Retired => (d, r + 1),
            LaneHealth::Healthy => (d, r),
        })
    }

    /// Cross-checks the lane bookkeeping after quarantine and elastic
    /// repartitioning: no block assigned to two cores, no retired block
    /// still spanned, spans consistent with block ownership, occupancy
    /// bounded by the surviving granules, and the resource-table
    /// conservation invariant intact.
    pub(crate) fn lane_audit(&self) -> Result<(), String> {
        let mut seen = vec![false; self.blocks.num_blocks()];
        for (c, ctx) in self.cores.iter().enumerate() {
            for &b in &ctx.spans {
                if b >= seen.len() {
                    return Err(format!("core {c} spans out-of-range block {b}"));
                }
                if self.arch != Architecture::TemporalSharing {
                    if seen[b] {
                        return Err(format!("block {b} assigned to two cores"));
                    }
                    if self.blocks.owner(b) != BlockOwner::Core(c) {
                        return Err(format!("core {c} spans block {b} it does not own"));
                    }
                }
                seen[b] = true;
                if self.blocks.health(b) == LaneHealth::Retired {
                    return Err(format!("core {c} still spans retired block {b}"));
                }
            }
        }
        let retired = self.blocks.retired_blocks().len();
        let surviving = self.cfg.total_granules.saturating_sub(retired);
        if self.arch != Architecture::TemporalSharing {
            let occupied: usize = self.cores.iter().map(|c| c.spans.len()).sum();
            if occupied > surviving {
                return Err(format!(
                    "{occupied} granules occupied but only {surviving} survive"
                ));
            }
        }
        if !self.table.invariant_holds() {
            return Err("resource-table conservation (VL + AL == total) violated".into());
        }
        Ok(())
    }

    /// OS context save (§5): with the core's pipelines drained, captures
    /// the dedicated registers and the architectural vector state, then
    /// releases the core's lanes and re-triggers partitioning so the
    /// co-running workloads can absorb them.
    ///
    /// # Panics
    ///
    /// Panics if the core is not drained.
    pub(crate) fn os_save(&mut self, core: usize, now: Cycle) -> OsContext {
        assert!(self.is_drained(core), "context save requires drained pipelines (§5)");
        let ctx = OsContext {
            oi: self.table.read(core, DedicatedReg::Oi),
            decision: self.table.read(core, DedicatedReg::Decision),
            vl: self.cores[core].cur_vl.granules(),
            status: self.cores[core].status,
            vregs: (0..NUM_VREGS)
                .map(|v| self.prf.read(self.cores[core].rename_map[v]).to_vec())
                .collect(),
            pregs: (0..NUM_PREGS)
                .map(|p| self.ppf.read(self.cores[core].pred_rename[p]).to_vec())
                .collect(),
        };
        let released = self.try_set_vl(core, 0);
        debug_assert!(released, "releasing lanes cannot fail");
        self.table.write(core, DedicatedReg::Oi, 0);
        self.replan(now, &mut None);
        ctx
    }

    /// OS context restore (§5): re-declares the saved `<OI>` (triggering
    /// a new partition), then attempts to re-acquire the saved vector
    /// length and vector state. Returns `false` while the lanes are not
    /// yet available — the OS retries as co-runners shed lanes.
    pub(crate) fn os_try_restore(&mut self, core: usize, ctx: &OsContext, now: Cycle) -> bool {
        assert!(self.is_drained(core), "context restore requires a quiesced core");
        self.table.write(core, DedicatedReg::Oi, ctx.oi);
        self.replan(now, &mut None);
        if !self.try_set_vl(core, ctx.vl) {
            return false;
        }
        self.cores[core].status = ctx.status;
        self.table.write(core, DedicatedReg::Decision, ctx.decision);
        // Restore the architectural vector values at the re-acquired
        // width (alloc_arch_regs left them zeroed).
        for (v, value) in ctx.vregs.iter().enumerate() {
            self.prf.overwrite(self.cores[core].rename_map[v], value);
        }
        for (p, value) in ctx.pregs.iter().enumerate() {
            self.ppf.overwrite(self.cores[core].pred_rename[p], value);
        }
        true
    }

    /// Attempts the architecture-specific vector-length reconfiguration.
    /// The caller has verified the core's pipeline is drained.
    fn try_set_vl(&mut self, core: usize, granules: usize) -> bool {
        match &self.arch {
            Architecture::TemporalSharing => {
                // Temporal sharing runs every core at full width.
                if granules != 0 && granules != self.cfg.total_granules {
                    return false;
                }
                let spans: Vec<usize> =
                    if granules == 0 { Vec::new() } else { (0..self.cfg.total_granules).collect() };
                // The free lists are shared: the other cores' in-flight
                // registers may leave no room for this core's
                // architectural state. Fail (status 0) and let the
                // software retry — a real contention cost of temporal
                // sharing.
                let old = self.cores[core].spans.clone();
                let fits = spans.iter().all(|b| {
                    let released = if old.contains(b) { NUM_VREGS } else { 0 };
                    let released_p = if old.contains(b) { NUM_PREGS } else { 0 };
                    self.blocks.free_entries(*b) + released >= NUM_VREGS
                        && self.blocks.free_pred_entries(*b) + released_p >= NUM_PREGS
                });
                if !fits {
                    return false;
                }
                self.reset_core_regs(core, spans, granules);
                true
            }
            _ => {
                if self.table.try_reconfigure(core, VectorLength::new(granules)).is_err() {
                    return false;
                }
                self.release_arch_regs(core);
                let spans = self.blocks.reassign(core, granules);
                self.alloc_arch_regs(core, spans, granules);
                true
            }
        }
    }

    fn reset_core_regs(&mut self, core: usize, spans: Vec<usize>, granules: usize) {
        self.release_arch_regs(core);
        self.alloc_arch_regs(core, spans, granules);
    }

    fn release_arch_regs(&mut self, core: usize) {
        for v in 0..NUM_VREGS {
            self.blocks.release(self.prf.free(self.cores[core].rename_map[v]));
        }
        for p in 0..NUM_PREGS {
            self.blocks.release_pred(self.ppf.free(self.cores[core].pred_rename[p]));
        }
    }

    fn alloc_arch_regs(&mut self, core: usize, spans: Vec<usize>, granules: usize) {
        debug_assert!(
            spans.iter().all(|&b| {
                matches!(self.blocks.owner(b), crate::regblocks::BlockOwner::Shared)
                    || self.blocks.spans_for(core).contains(&b)
            }),
            "core {core} allocating registers in blocks it does not own"
        );
        for v in 0..NUM_VREGS {
            let reserved = self.blocks.try_reserve(&spans);
            debug_assert!(reserved, "architectural registers must always fit (32 of {})",
                self.cfg.vregs_per_block);
            if !reserved {
                self.trip(SimError::RegBlockExhausted {
                    core,
                    requested: NUM_VREGS,
                    detail: format!(
                        "architectural vector registers do not fit ({NUM_VREGS} of {})",
                        self.cfg.vregs_per_block
                    ),
                });
            }
            let id = self.prf.alloc_zeroed(&spans, granules * LANES_PER_GRANULE);
            self.cores[core].rename_map[v] = id;
        }
        for p in 0..NUM_PREGS {
            let reserved = self.blocks.try_reserve_pred(&spans);
            debug_assert!(reserved, "architectural predicates must always fit (8 of {})",
                self.cfg.pregs_per_block);
            if !reserved {
                self.trip(SimError::RegBlockExhausted {
                    core,
                    requested: NUM_PREGS,
                    detail: format!(
                        "architectural predicate registers do not fit ({NUM_PREGS} of {})",
                        self.cfg.pregs_per_block
                    ),
                });
            }
            let id = self.ppf.alloc_zeroed(&spans, granules * LANES_PER_GRANULE);
            self.cores[core].pred_rename[p] = id;
        }
        self.cores[core].cur_vl = VectorLength::new(granules);
        self.cores[core].spans = spans;
    }

    /// In-flight compute results with a vector or predicate destination,
    /// and issued-but-incomplete vector loads (see
    /// `Machine::pending_vector_results`).
    pub(crate) fn pending_vector_results(&self) -> (usize, usize) {
        let compute = self.inflight.iter().filter(|f| f.dst.is_some()).count();
        let loads = self
            .cores
            .iter()
            .flat_map(|c| c.lsu.entries())
            .filter(|e| e.issued && !e.store)
            .count();
        (compute, loads)
    }

    /// Debug/test hook: the number of free entries in each block.
    pub(crate) fn block_free_entries(&self) -> Vec<usize> {
        (0..self.blocks.num_blocks()).map(|b| self.blocks.free_entries(b)).collect()
    }

    /// Debug/test hook: the current architectural value of a vector
    /// register.
    pub(crate) fn read_vreg(&self, core: usize, v: VReg) -> Vec<f32> {
        self.prf.read(self.cores[core].rename_map[v.index()]).to_vec()
    }

    /// Borrows the current architectural value of a predicate register.
    pub(crate) fn preg(&self, core: usize, p: em_simd::PReg) -> &[f32] {
        self.ppf.read(self.cores[core].pred_rename[p.index()])
    }
}

impl CoProcessor {
    /// The configuration this co-processor was built with; checkpoint
    /// decoding cross-checks it against the machine's copy.
    pub(crate) fn config(&self) -> &SimConfig {
        &self.cfg
    }
}

// --- Checkpoint serialization --------------------------------------------
//
// `trace`, `events` and the latched `fault` are NOT serialized: snapshot
// I/O refuses machines with any of them active (see
// `Machine::snapshot_io_refusal`), and decode reconstructs the disabled /
// empty defaults. Everything else — including the out-of-order windows —
// round-trips exactly.
//
// In format version 1 an in-flight compute result or issued load carries
// its value in its own record (`InflightCompute`, `LsuEntry`), and the
// destination register records an empty value until the producer
// completes. The values themselves live only in the destination
// registers, so encoding reads them from there and decoding writes them
// back.

statecodec::impl_codec_enum!(PoolEntry {
    0 => Vector { inst, aux },
    1 => Em { inst, operand },
});

statecodec::impl_codec_enum!(RegClass {
    0 => Vector,
    1 => Pred,
});

/// Encoded like the `Vec<PhysId>` it replaced.
impl statecodec::Codec for PhysList {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::encode_seq(self.as_slice(), sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let ids: Vec<PhysId> = statecodec::Codec::decode(src)?;
        if ids.len() > 3 {
            return Err(statecodec::DecodeError::at(src, "more than three register operands"));
        }
        Ok(PhysList::new(ids.into_iter()))
    }
}

statecodec::impl_codec!(IqEntry {
    seq,
    inst,
    srcs,
    dst,
    dst_class,
    pred,
    psrcs,
    merge,
    aux,
    lanes,
});
statecodec::impl_codec!(RobEntry { seq, done, prev_phys });

impl InflightCompute {
    fn encode_with(&self, sink: &mut statecodec::Sink, value: &[f32]) {
        use statecodec::Codec;
        self.complete_at.encode(sink);
        self.core.encode(sink);
        self.dst.encode(sink);
        self.dst_class.encode(sink);
        statecodec::encode_seq(value, sink);
        self.scalar_wb.encode(sink);
        self.rob_seq.encode(sink);
        self.faulted.encode(sink);
    }

    /// Decodes one record and its value.
    fn decode_with(
        src: &mut statecodec::Src<'_>,
    ) -> Result<(Self, Vec<f32>), statecodec::DecodeError> {
        use statecodec::Codec;
        let complete_at = Cycle::decode(src)?;
        let core = usize::decode(src)?;
        let dst = Option::<PhysId>::decode(src)?;
        let dst_class = RegClass::decode(src)?;
        let value = Vec::<f32>::decode(src)?;
        let scalar_wb = Option::<(XReg, f32)>::decode(src)?;
        let rob_seq = u64::decode(src)?;
        let faulted = Option::<(usize, Cycle)>::decode(src)?;
        let f = InflightCompute { complete_at, core, dst, dst_class, scalar_wb, rob_seq, faulted };
        Ok((f, value))
    }
}

impl CoreCtx {
    fn encode_with(&self, sink: &mut statecodec::Sink, prf: &PhysRegFile) {
        use statecodec::Codec;
        self.pool.encode(sink);
        self.iq.encode(sink);
        self.lsu.encode_with(sink, |dst| prf.pending(dst).unwrap_or_default());
        self.rob.encode(sink);
        self.rename_map.encode(sink);
        self.pred_rename.encode(sink);
        self.cur_vl.encode(sink);
        self.status.encode(sink);
        self.spans.encode(sink);
        self.open_phase.encode(sink);
        self.phase_start_issued.encode(sink);
        self.drain_start.encode(sink);
        self.stall_since.encode(sink);
    }

    /// Decodes one context plus its issued loads' in-flight values.
    fn decode_with(
        src: &mut statecodec::Src<'_>,
    ) -> Result<(Self, PendingValues), statecodec::DecodeError> {
        use statecodec::Codec;
        let pool = Codec::decode(src)?;
        let iq: Vec<IqEntry> = Codec::decode(src)?;
        let (lsu, loaded) = Lsu::decode_with(src)?;
        if iq.windows(2).any(|w: &[IqEntry]| w[0].seq >= w[1].seq) {
            return Err(statecodec::DecodeError::at(src, "issue queue out of age order"));
        }
        let ctx = CoreCtx {
            pool,
            iq,
            lsu,
            rob: Codec::decode(src)?,
            rename_map: Codec::decode(src)?,
            pred_rename: Codec::decode(src)?,
            cur_vl: Codec::decode(src)?,
            status: Codec::decode(src)?,
            spans: Codec::decode(src)?,
            open_phase: Codec::decode(src)?,
            phase_start_issued: Codec::decode(src)?,
            drain_start: Codec::decode(src)?,
            stall_since: Codec::decode(src)?,
        };
        Ok((ctx, loaded))
    }
}

/// Writes a decoded in-flight value back into its destination, which must
/// be a live register awaiting exactly one producer.
fn restore_pending(
    src: &statecodec::Src<'_>,
    file: &mut PhysRegFile,
    dst: PhysId,
    value: &[f32],
) -> Result<(), statecodec::DecodeError> {
    if file.pending(dst) != Some(&[]) {
        return Err(statecodec::DecodeError::at(
            src,
            "in-flight result targets a register that is not awaiting it",
        ));
    }
    file.produce(dst, value);
    Ok(())
}

// Hand-written so decode re-validates the configuration and the
// cross-structure invariants a later pipeline step would otherwise
// index-panic on.
impl statecodec::Codec for CoProcessor {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.cfg, sink);
        statecodec::Codec::encode(&self.arch, sink);
        statecodec::Codec::encode(&self.blocks, sink);
        statecodec::Codec::encode(&self.prf, sink);
        statecodec::Codec::encode(&self.ppf, sink);
        statecodec::Codec::encode(&self.cores.len(), sink);
        for ctx in &self.cores {
            ctx.encode_with(sink, &self.prf);
        }
        statecodec::Codec::encode(&self.table, sink);
        statecodec::Codec::encode(&self.mgr, sink);
        statecodec::Codec::encode(&self.inflight.len(), sink);
        for f in &self.inflight {
            let file = match f.dst_class {
                RegClass::Vector => &self.prf,
                RegClass::Pred => &self.ppf,
            };
            f.encode_with(sink, f.dst.and_then(|d| file.pending(d)).unwrap_or_default());
        }
        statecodec::Codec::encode(&self.next_seq, sink);
        statecodec::Codec::encode(&self.retired, sink);
        statecodec::Codec::encode(&self.corrected_inline, sink);
        statecodec::Codec::encode(&self.hints_sanitized, sink);
        statecodec::Codec::encode(&self.replan_epoch, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let cfg: SimConfig = statecodec::Codec::decode(src)?;
        let arch: Architecture = statecodec::Codec::decode(src)?;
        let blocks: RegBlocks = statecodec::Codec::decode(src)?;
        let mut prf: PhysRegFile = statecodec::Codec::decode(src)?;
        let mut ppf: PhysRegFile = statecodec::Codec::decode(src)?;
        let ncores = <usize as statecodec::Codec>::decode(src)?;
        if ncores > src.remaining() {
            return Err(statecodec::DecodeError::at(src, "core count exceeds the input"));
        }
        let mut cores = Vec::with_capacity(ncores);
        for _ in 0..ncores {
            let (ctx, loaded) = CoreCtx::decode_with(src)?;
            for (dst, value) in loaded {
                restore_pending(src, &mut prf, dst, &value)?;
            }
            cores.push(ctx);
        }
        let table: ResourceTable = statecodec::Codec::decode(src)?;
        let mgr: Option<LaneManager> = statecodec::Codec::decode(src)?;
        let ninflight = <usize as statecodec::Codec>::decode(src)?;
        if ninflight > src.remaining() {
            return Err(statecodec::DecodeError::at(src, "in-flight count exceeds the input"));
        }
        let mut inflight = Vec::with_capacity(ninflight);
        for _ in 0..ninflight {
            let (f, value) = InflightCompute::decode_with(src)?;
            match (f.dst, f.dst_class) {
                (Some(dst), RegClass::Vector) => restore_pending(src, &mut prf, dst, &value)?,
                (Some(dst), RegClass::Pred) => restore_pending(src, &mut ppf, dst, &value)?,
                (None, _) if value.is_empty() => {}
                (None, _) => {
                    return Err(statecodec::DecodeError::at(
                        src,
                        "in-flight result without a destination holds a value",
                    ))
                }
            }
            if f.core >= ncores {
                return Err(statecodec::DecodeError::at(src, "in-flight result of an unknown core"));
            }
            inflight.push(f);
        }
        let next_seq = <u64 as statecodec::Codec>::decode(src)?;
        let retired = <u64 as statecodec::Codec>::decode(src)?;
        let corrected_inline = <u64 as statecodec::Codec>::decode(src)?;
        let hints_sanitized = <u64 as statecodec::Codec>::decode(src)?;
        let replan_epoch = <usize as statecodec::Codec>::decode(src)?;

        cfg.validate().map_err(|e| statecodec::DecodeError::at(src, e))?;
        cfg.validate_arch(&arch).map_err(|e| statecodec::DecodeError::at(src, e))?;
        if cores.len() != cfg.cores {
            return Err(statecodec::DecodeError::at(
                src,
                format!("co-processor holds {} core contexts for {} cores", cores.len(), cfg.cores),
            ));
        }
        if blocks.num_blocks() != cfg.total_granules {
            return Err(statecodec::DecodeError::at(
                src,
                format!(
                    "{} register blocks for {} granules",
                    blocks.num_blocks(),
                    cfg.total_granules
                ),
            ));
        }
        if table.num_cores() != cfg.cores {
            return Err(statecodec::DecodeError::at(
                src,
                format!("resource table serves {} of {} cores", table.num_cores(), cfg.cores),
            ));
        }
        let nv = prf.slot_count();
        let np = ppf.slot_count();
        for ctx in &cores {
            if ctx.rename_map.iter().any(|p| p.0 as usize >= nv)
                || ctx.pred_rename.iter().any(|p| p.0 as usize >= np)
            {
                return Err(statecodec::DecodeError::at(
                    src,
                    "rename map references a physical register beyond the file",
                ));
            }
            if ctx.spans.iter().any(|&b| b >= blocks.num_blocks()) {
                return Err(statecodec::DecodeError::at(
                    src,
                    "core spanning set references a register block beyond the machine",
                ));
            }
        }
        Ok(CoProcessor {
            cfg,
            arch,
            blocks,
            prf,
            ppf,
            cores,
            table,
            mgr,
            inflight,
            next_seq,
            retired,
            fault: None,
            corrected_inline,
            hints_sanitized,
            replan_epoch,
            trace: Trace::disabled(),
            events: EventLog::disabled(),
            scratch: Scratch::default(),
        })
    }
}
