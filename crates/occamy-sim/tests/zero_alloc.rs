//! The timing hot path allocates nothing in steady state.
//!
//! This binary installs a counting global allocator (it lives only here)
//! that counts the heap allocations each thread makes. A Table-3 co-run
//! on each of the four architectures is stepped past its warm-up, then
//! measured over windows of cycles with trace, events and profile off.
//! Two things allocate by design, and a window must contain neither:
//!
//! - a partition point: an `<OI>` write opens or closes a phase record,
//!   replans, and may reconfigure `<VL>`;
//! - a lane-timeline bucket: every 1000 cycles the timeline appends one
//!   bucket of per-core averages (an output record).
//!
//! So each window runs from just after one bucket flush to just before
//! the next, and is used only if no phase began or ended and no `<VL>`
//! or `<decision>` changed in it. Every such window must allocate
//! nothing. A functional-mode window is checked the same way: two
//! windows of different lengths, both inside one phase, must make the
//! same number of allocations (the window's own set-up), so executing
//! instructions allocates nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use occamy_sim::{Architecture, Machine, SimConfig, SimMode};
use workloads::corun::{build_machine, vls_partition};
use workloads::table3;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: forwards every call to the system allocator unchanged; the
// counter is a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Heap allocations this thread has made so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Cycles stepped before the first window: the pipelines, register
/// files and stage buffers reach their steady-state footprint.
const WARM_UP: u64 = 3_000;

/// Lane-timeline bucket width (`Machine`'s timeline flushes every this
/// many cycles).
const BUCKET: u64 = 1_000;

/// Table-3 pair 1+13 at a size that runs tens of thousands of cycles.
fn pair() -> Vec<workloads::WorkloadSpec> {
    let pair = table3::all_pairs(0.5).into_iter().next().expect("pair 1+13");
    assert_eq!(pair.label, "1+13");
    pair.workloads.to_vec()
}

fn architectures(specs: &[workloads::WorkloadSpec], cfg: &SimConfig) -> Vec<Architecture> {
    vec![
        Architecture::Private,
        Architecture::TemporalSharing,
        Architecture::StaticSpatialSharing { partition: vls_partition(specs, cfg) },
        Architecture::Occamy,
    ]
}

/// What must stay fixed across a window for it to lie between partition
/// points: per-core phase counts, `<VL>`s and `<decision>`s.
fn partition_state(m: &Machine) -> Vec<(usize, usize, u64)> {
    let stats = m.stats();
    (0..m.config().cores)
        .map(|c| {
            (
                stats.cores[c].phases.len(),
                m.vl(c).granules(),
                m.resource_table().read(c, em_simd::DedicatedReg::Decision),
            )
        })
        .collect()
}

fn step_to(m: &mut Machine, bound: u64) {
    while m.cycle() < bound && !m.done() {
        m.step_bounded(bound).expect("fault-free run");
    }
}

#[test]
fn steady_state_timing_cycles_allocate_nothing() {
    let cfg = SimConfig::paper_2core();
    let specs = pair();
    for arch in architectures(&specs, &cfg) {
        let mut m = build_machine(&specs, &cfg, &arch, 1.0).expect("pair builds");
        step_to(&mut m, WARM_UP);
        let (mut windows, mut measured) = (0, 0);
        while !m.done() {
            // From just after one timeline flush to just before the next.
            let start = m.cycle().div_ceil(BUCKET) * BUCKET;
            step_to(&mut m, start);
            if m.done() {
                break;
            }
            let before = partition_state(&m);
            let a0 = allocs();
            step_to(&mut m, start + BUCKET - 1);
            let made = allocs() - a0;
            windows += 1;
            if partition_state(&m) == before && !m.done() {
                measured += 1;
                assert_eq!(
                    made, 0,
                    "{arch:?}: {made} allocations in steady-state cycles {start}..{}",
                    start + BUCKET - 1
                );
            }
        }
        assert!(
            measured >= 3,
            "{arch:?}: only {measured} of {windows} windows lie between partition points"
        );
    }
}

#[test]
fn functional_execution_allocates_per_window_not_per_instruction() {
    let cfg = SimConfig::paper_2core();
    let specs = pair();
    let mut m = build_machine(&specs, &cfg, &Architecture::Occamy, 1.0).expect("pair builds");
    m.set_mode(SimMode::Functional).expect("functional mode");
    // A functional window executes up to `fuel × scalar_width`
    // instructions per core. Warm up into the first phases, then compare
    // a window with twice the instructions of another.
    let run = |m: &mut Machine, fuel: u64| {
        let before = partition_state(m);
        let a0 = allocs();
        m.run(fuel).expect("functional window");
        let made = allocs() - a0;
        (made, partition_state(m) == before)
    };
    run(&mut m, 100);
    let mut checked = 0;
    for _ in 0..20 {
        let (short, steady_short) = run(&mut m, 20);
        let (long, steady_long) = run(&mut m, 40);
        if steady_short && steady_long && !m.done() {
            assert_eq!(short, long, "functional instructions allocate ({short} vs {long})");
            checked += 1;
        }
    }
    assert!(checked >= 3, "only {checked} functional window pairs lie inside one phase");
}
