//! Pins the `snapshot_io` byte format of a mid-flight machine.
//!
//! A fixed scale-0.05 Table-3 co-run (pair 1+13 on Occamy) is snapshotted
//! at a cycle where compute results are still in the execution pipeline
//! and vector loads are in flight to memory, so the bytes cover every
//! place a vector value can live: the physical register files, the
//! in-flight compute queue and the LSUs. The encoding must match the
//! digest recorded for format version 1 — `occamyd` checkpoints written by
//! older builds stay resumable only while it does — and the decoded
//! machine must finish the run exactly like an uninterrupted one.

use occamy_sim::{
    snapshot_from_bytes, snapshot_to_bytes, Architecture, Machine, SimConfig, SNAPSHOT_VERSION,
};
use workloads::corun::build_machine;
use workloads::table3;

/// Cycle the snapshot is taken at: mid-phase, with both kinds of
/// in-flight vector results present (asserted below).
const SNAPSHOT_CYCLE: u64 = 2_000;

/// Run budget; the pair completes well within it.
const MAX_CYCLES: u64 = 10_000_000;

/// FNV-1a 64 of the version-1 snapshot bytes at [`SNAPSHOT_CYCLE`].
const V1_DIGEST: u64 = 0xb2fb_5107_e993_bc65;

/// Byte length of the same snapshot.
const V1_LEN: usize = 4_813_071;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

fn corun() -> Machine {
    // The pair is sized at scale 0.05; build at 1.0 so it is not scaled twice.
    let pair = table3::all_pairs(0.05).into_iter().next().expect("pair 1+13");
    assert_eq!(pair.label, "1+13");
    build_machine(&pair.workloads, &SimConfig::paper_2core(), &Architecture::Occamy, 1.0)
        .expect("pair builds")
}

fn run_to(m: &mut Machine, bound: u64) {
    while m.cycle() < bound && !m.done() {
        m.step_bounded(bound).expect("fault-free run");
    }
}

#[test]
fn mid_flight_snapshot_bytes_are_pinned_and_resume_exactly() {
    assert_eq!(SNAPSHOT_VERSION, 1);
    let mut m = corun();
    run_to(&mut m, SNAPSHOT_CYCLE);
    assert_eq!(m.cycle(), SNAPSHOT_CYCLE);
    let (compute, loads) = m.pending_vector_results();
    assert!(compute > 0, "no compute result in flight at cycle {SNAPSHOT_CYCLE}");
    assert!(loads > 0, "no vector load in flight at cycle {SNAPSHOT_CYCLE}");

    let bytes = snapshot_to_bytes(&m.snapshot()).expect("plain machine encodes");
    assert_eq!(
        (bytes.len(), fnv1a(&bytes)),
        (V1_LEN, V1_DIGEST),
        "snapshot_io bytes changed: bump SNAPSHOT_VERSION with a tested migration"
    );

    let decoded = snapshot_from_bytes(&bytes).expect("own bytes decode");
    assert_eq!(snapshot_to_bytes(&decoded).expect("re-encode"), bytes, "re-encode differs");
    let mut resumed = corun();
    resumed.restore_snapshot(&decoded);
    assert_eq!(resumed.cycle(), SNAPSHOT_CYCLE);

    let uninterrupted = corun().run(MAX_CYCLES).expect("uninterrupted run");
    let finished = resumed.run(MAX_CYCLES).expect("resumed run");
    assert!(uninterrupted.completed);
    assert_eq!(finished, uninterrupted, "resumed run diverged from the uninterrupted one");
}
