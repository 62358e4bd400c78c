//! RegBlk ownership (`RegFile.Cfg`/`Dispatch.Cfg`) and physical-register
//! accounting.
//!
//! The paper keeps two configuration tables with identical contents — one
//! in the Dispatcher for ExeBUs and one in the Register File for RegBlks
//! (each ExeBU is hard-wired to its RegBlk, §4.2.1). We model the pair as
//! a single [`RegBlocks`] ownership table.
//!
//! The crucial modeling decision for reproducing Fig. 13: physical
//! registers live in **per-block free lists**. A rename allocates one
//! entry in *every block the destination register spans*:
//!
//! * spatial sharing (Private/VLS/Occamy): a core's registers span only
//!   its own blocks, so cores never contend;
//! * temporal sharing (FTS): every register spans **all** blocks and the
//!   free lists are shared by both cores, so co-running workloads exhaust
//!   them and the renamer stalls.

use std::fmt;

/// Ownership state of one RegBlk/ExeBU pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockOwner {
    /// Unassigned (available to the lane manager).
    #[default]
    Free,
    /// Exclusively owned by a core (spatial sharing).
    Core(usize),
    /// Shared by every core (temporal sharing / FTS).
    Shared,
}

impl fmt::Display for BlockOwner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockOwner::Free => f.write_str("free"),
            BlockOwner::Core(c) => write!(f, "core{c}"),
            BlockOwner::Shared => f.write_str("shared"),
        }
    }
}

/// A physical register name. Identifies a value slot in [`PhysRegFile`];
/// the per-block storage it occupies is tracked by [`RegBlocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PhysId(pub(crate) u32);

/// Health of one RegBlk/ExeBU pair, as seen by the quarantine state
/// machine (`Healthy → Draining → Retired`, never backward).
///
/// A granule classified as persistently faulty is first marked
/// [`Draining`](LaneHealth::Draining): the lane manager stops planning
/// over it and [`RegBlocks::reassign`] stops handing it out, but the
/// current owner keeps it (at full width, with detections corrected
/// in place) until its next partition point naturally releases it.
/// Forcing the block away mid-phase would change the owner's `<VL>`
/// between partition points, which compiled kernels are allowed to
/// assume constant. Once the block is free it becomes
/// [`Retired`](LaneHealth::Retired) and leaves the machine for good.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LaneHealth {
    /// Fully operational.
    #[default]
    Healthy,
    /// Classified faulty; awaiting natural release by its owner.
    Draining,
    /// Out of service: never planned over, never reassigned.
    Retired,
}

/// The RegBlk ownership table plus per-block free-entry counters for
/// both register classes (Fig. 5: each RegBlk holds 160 x 128-bit
/// vector registers and 64 x 16-bit predicate registers).
#[derive(Debug, Clone, PartialEq)]
pub struct RegBlocks {
    owner: Vec<BlockOwner>,
    free: Vec<usize>,
    capacity: usize,
    pred_free: Vec<usize>,
    pred_capacity: usize,
    health: Vec<LaneHealth>,
}

impl RegBlocks {
    /// Creates `blocks` RegBlks of `capacity` physical vector registers
    /// and `pred_capacity` physical predicate registers each, all
    /// initially [`BlockOwner::Free`].
    pub fn new(blocks: usize, capacity: usize, pred_capacity: usize) -> Self {
        RegBlocks {
            owner: vec![BlockOwner::Free; blocks],
            free: vec![capacity; blocks],
            capacity,
            pred_free: vec![pred_capacity; blocks],
            pred_capacity,
            health: vec![LaneHealth::Healthy; blocks],
        }
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.owner.len()
    }

    /// The owner of `block`.
    pub fn owner(&self, block: usize) -> BlockOwner {
        self.owner[block]
    }

    /// Free physical-register entries remaining in `block`.
    pub fn free_entries(&self, block: usize) -> usize {
        self.free[block]
    }

    /// Marks every block [`BlockOwner::Shared`] (the FTS configuration).
    pub fn set_all_shared(&mut self) {
        self.owner.iter_mut().for_each(|o| *o = BlockOwner::Shared);
    }

    /// The health state of `block`.
    pub fn health(&self, block: usize) -> LaneHealth {
        self.health[block]
    }

    /// Whether `block` is quarantined (draining or retired).
    pub fn is_quarantined(&self, block: usize) -> bool {
        block < self.health.len() && self.health[block] != LaneHealth::Healthy
    }

    /// Starts quarantining `block`: marks it [`LaneHealth::Draining`] if
    /// currently healthy and free blocks become [`LaneHealth::Retired`]
    /// directly (nothing to drain). Idempotent; returns `true` if the
    /// block left the healthy pool on this call.
    pub fn begin_quarantine(&mut self, block: usize) -> bool {
        if block >= self.health.len() || self.health[block] != LaneHealth::Healthy {
            return false;
        }
        self.health[block] = if self.owner[block] == BlockOwner::Free {
            LaneHealth::Retired
        } else {
            LaneHealth::Draining
        };
        true
    }

    /// Finalizes one quarantine if `block`'s owner has released it
    /// (Draining + Free → Retired). Returns whether the block retired on
    /// this call, so the caller can couple each retirement to its own
    /// resource-table bookkeeping.
    pub fn try_finish_drain(&mut self, block: usize) -> bool {
        if block < self.health.len()
            && self.health[block] == LaneHealth::Draining
            && self.owner[block] == BlockOwner::Free
        {
            self.health[block] = LaneHealth::Retired;
            true
        } else {
            false
        }
    }

    /// Blocks currently in [`LaneHealth::Retired`].
    pub fn retired_blocks(&self) -> Vec<usize> {
        (0..self.health.len()).filter(|&i| self.health[i] == LaneHealth::Retired).collect()
    }

    /// Reassigns ownership so that `core` owns exactly `granules` blocks:
    /// its current blocks are freed, then the lowest-indexed free blocks
    /// are claimed. Returns the indices now owned, in order.
    ///
    /// This mirrors the `MSR <VL>` table update of §4.2.2 and must only
    /// be called once the core's pipeline is drained (the caller's
    /// responsibility); any register entries the core still held in the
    /// old blocks must have been released first.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `granules` blocks are free after releasing
    /// the core's current blocks — callers check availability through the
    /// resource table first.
    pub fn reassign(&mut self, core: usize, granules: usize) -> Vec<usize> {
        for o in self.owner.iter_mut() {
            if *o == BlockOwner::Core(core) {
                *o = BlockOwner::Free;
            }
        }
        let mut claimed = Vec::with_capacity(granules);
        for (i, o) in self.owner.iter_mut().enumerate() {
            if claimed.len() == granules {
                break;
            }
            if *o == BlockOwner::Free && self.health[i] == LaneHealth::Healthy {
                *o = BlockOwner::Core(core);
                claimed.push(i);
            }
        }
        debug_assert!(
            claimed.len() == granules,
            "lane manager over-committed: core {core} wanted {granules} blocks"
        );
        claimed
    }

    /// The blocks a register written by `core` spans, given the core's
    /// current spanning set (owned blocks, or all blocks under FTS).
    pub fn spans_for(&self, core: usize) -> Vec<usize> {
        let mut spans: Vec<usize> = (0..self.owner.len())
            .filter(|&i| match self.owner[i] {
                BlockOwner::Core(c) => c == core,
                BlockOwner::Shared => true,
                BlockOwner::Free => false,
            })
            .collect();
        spans.sort_unstable();
        spans
    }

    /// Tries to reserve one physical-register entry in each of `blocks`.
    /// Returns `false` (reserving nothing) if any block is exhausted —
    /// the renamer stalls in that case.
    pub fn try_reserve(&mut self, blocks: &[usize]) -> bool {
        if blocks.iter().any(|&b| self.free[b] == 0) {
            return false;
        }
        for &b in blocks {
            self.free[b] -= 1;
        }
        true
    }

    /// Releases one entry in each of `blocks` (on retire-time free or
    /// pipeline reset). A release past a block's capacity (double free)
    /// saturates at the capacity (and trips a `debug_assert!` in debug
    /// builds).
    pub fn release(&mut self, blocks: &[usize]) {
        for &b in blocks {
            debug_assert!(self.free[b] < self.capacity, "double free in block {b}");
            if self.free[b] < self.capacity {
                self.free[b] += 1;
            }
        }
    }

    /// Free predicate-register entries remaining in `block`.
    pub fn free_pred_entries(&self, block: usize) -> usize {
        self.pred_free[block]
    }

    /// Tries to reserve one predicate-register entry in each of `blocks`;
    /// reserves nothing on failure.
    pub fn try_reserve_pred(&mut self, blocks: &[usize]) -> bool {
        if blocks.iter().any(|&b| self.pred_free[b] == 0) {
            return false;
        }
        for &b in blocks {
            self.pred_free[b] -= 1;
        }
        true
    }

    /// Releases one predicate entry in each of `blocks`, saturating at
    /// the block capacity on a double free (which trips a
    /// `debug_assert!` in debug builds).
    pub fn release_pred(&mut self, blocks: &[usize]) {
        for &b in blocks {
            debug_assert!(
                self.pred_free[b] < self.pred_capacity,
                "predicate double free in block {b}"
            );
            if self.pred_free[b] < self.pred_capacity {
                self.pred_free[b] += 1;
            }
        }
    }
}

/// Where a slot's contents live in one of the register file's arenas:
/// `len` entries from `at`, inside room for `cap`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Region {
    at: u32,
    len: u32,
    cap: u32,
}

impl Region {
    fn range(self) -> std::ops::Range<usize> {
        self.at as usize..(self.at + self.len) as usize
    }

    /// Sets the region to `len` entries of `arena`, returning them. A
    /// region that is too small moves to the end of the arena with room
    /// to double, so a slot relocates only a logarithmic number of times
    /// and a machine in steady state never grows the arena.
    fn place<'a, T: Copy + Default>(&mut self, arena: &'a mut Vec<T>, len: usize) -> &'a mut [T] {
        // Offsets fit `u32`: a register file holds far fewer than 2^32
        // lanes (decoding bounds hostile sizes well below that).
        let len = len as u32;
        if len > self.cap {
            self.cap = len.max(self.cap.saturating_mul(2));
            self.at = arena.len() as u32;
            arena.resize(arena.len() + self.cap as usize, T::default());
        }
        self.len = len;
        &mut arena[self.range()]
    }
}

/// Bookkeeping of one physical register; its lanes and block ids live in
/// the [`PhysRegFile`] arenas.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    /// Whether the value is visible to consumers (its producer completed).
    ready: bool,
    /// Slot-recycling generation guard.
    live: bool,
    /// The value's lanes in [`PhysRegFile::lanes`]: written by the
    /// producer at issue, read once `ready`. Empty until first produced.
    value: Region,
    /// The blocks whose free-lists this register occupies, in
    /// [`PhysRegFile::block_ids`].
    blocks: Region,
}

/// The physical vector (or predicate) register file: one lane arena plus
/// a readiness scoreboard, keyed by [`PhysId`].
///
/// Like a RegBlk's storage (Fig. 5) the lanes live in one flat `f32`
/// arena; each register owns a fixed region of it that it keeps across
/// recycling, so renaming, executing and retiring allocate nothing once
/// the machine has reached its steady-state register footprint. A
/// producer writes its result into the destination's region when it
/// *issues*; the value becomes visible when the producer *completes*
/// ([`set_ready`](Self::set_ready)), exactly when the timing model
/// makes it available to consumers.
///
/// Block-level *capacity* is enforced by [`RegBlocks`]; this type only
/// stores values, so it can hand out as many slot ids as renames succeed.
#[derive(Clone, Default)]
pub struct PhysRegFile {
    slots: Vec<Slot>,
    recycled: Vec<u32>,
    /// Lane storage of every slot.
    lanes: Vec<f32>,
    /// Spanned-block ids of every slot.
    block_ids: Vec<usize>,
}

impl PhysRegFile {
    /// Creates an empty register file.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a slot spanning `blocks` (whose free-list entries the
    /// caller has already reserved). The value is not ready.
    pub fn alloc(&mut self, blocks: &[usize]) -> PhysId {
        let id = match self.recycled.pop() {
            Some(id) => id,
            None => {
                self.slots.push(Slot::default());
                (self.slots.len() - 1) as u32
            }
        };
        let s = &mut self.slots[id as usize];
        s.ready = false;
        s.live = true;
        s.value.len = 0;
        s.blocks.place(&mut self.block_ids, blocks.len()).copy_from_slice(blocks);
        PhysId(id)
    }

    /// Allocates a ready all-zero register of `lanes` lanes (the
    /// architectural state after reset or reconfiguration).
    pub fn alloc_zeroed(&mut self, blocks: &[usize], lanes: usize) -> PhysId {
        let id = self.alloc(blocks);
        let s = &mut self.slots[id.0 as usize];
        s.value.place(&mut self.lanes, lanes).fill(0.0);
        s.ready = true;
        id
    }

    /// Whether `id`'s value has been produced. A freed slot reads as not
    /// ready (and trips a `debug_assert!` in debug builds).
    pub fn is_ready(&self, id: PhysId) -> bool {
        let s = &self.slots[id.0 as usize];
        debug_assert!(s.live, "use of freed physical register {id:?}");
        s.live && s.ready
    }

    /// Reads a value. A freed or not-ready slot reads as whatever its
    /// lanes hold (tripping a `debug_assert!` in debug builds).
    pub fn read(&self, id: PhysId) -> &[f32] {
        let s = &self.slots[id.0 as usize];
        debug_assert!(s.live && s.ready, "read of not-ready physical register {id:?}");
        &self.lanes[s.value.range()]
    }

    /// The producer's write at issue: stores `value` as `id`'s lanes,
    /// still invisible until [`set_ready`](Self::set_ready). Returns the
    /// stored lanes so fault injection can corrupt them in place.
    /// Producing into a freed or ready slot trips a `debug_assert!` in
    /// debug builds; in release builds the last write wins.
    pub fn produce(&mut self, id: PhysId, value: &[f32]) -> &mut [f32] {
        let s = &mut self.slots[id.0 as usize];
        debug_assert!(s.live, "write to freed physical register {id:?}");
        debug_assert!(!s.ready, "double write to physical register {id:?}");
        let lanes = s.value.place(&mut self.lanes, value.len());
        lanes.copy_from_slice(value);
        lanes
    }

    /// The producer's completion: makes `id`'s produced value visible.
    /// Completing a freed or already-ready slot trips a `debug_assert!`
    /// in debug builds; in release builds it is a no-op on a ready slot.
    pub fn set_ready(&mut self, id: PhysId) {
        let s = &mut self.slots[id.0 as usize];
        debug_assert!(s.live, "write to freed physical register {id:?}");
        debug_assert!(!s.ready, "double write to physical register {id:?}");
        s.ready = true;
    }

    /// Replaces a ready register's value in place (architectural writes
    /// of the functional engine and OS context restore): the register
    /// keeps its id and blocks and stays ready.
    pub fn overwrite(&mut self, id: PhysId, value: &[f32]) {
        let s = &mut self.slots[id.0 as usize];
        debug_assert!(s.live, "write to freed physical register {id:?}");
        s.value.place(&mut self.lanes, value.len()).copy_from_slice(value);
        s.ready = true;
    }

    /// Frees a slot, returning the blocks whose entries the caller must
    /// release back to [`RegBlocks`]. A double free returns no blocks
    /// (and trips a `debug_assert!` in debug builds) so block entries
    /// are never released twice. A freed slot keeps its value only if it
    /// was ready.
    pub fn free(&mut self, id: PhysId) -> &[usize] {
        let s = &mut self.slots[id.0 as usize];
        debug_assert!(s.live, "double free of physical register {id:?}");
        if !s.live {
            return &[];
        }
        if !s.ready {
            s.value.len = 0;
        }
        s.live = false;
        s.ready = false;
        self.recycled.push(id.0);
        let blocks = s.blocks.range();
        s.blocks.len = 0;
        &self.block_ids[blocks]
    }

    /// The value a producer wrote at issue into a live slot that is not
    /// yet ready (its in-flight result), or `None` when nothing is
    /// pending there.
    pub(crate) fn pending(&self, id: PhysId) -> Option<&[f32]> {
        let s = self.slots.get(id.0 as usize)?;
        (s.live && !s.ready).then(|| &self.lanes[s.value.range()])
    }

    /// The value checkpoints record for a slot: what consumers can see
    /// (a ready or freed slot's lanes), empty while a result is pending.
    fn visible(&self, s: &Slot) -> &[f32] {
        if s.live && !s.ready {
            &[]
        } else {
            &self.lanes[s.value.range()]
        }
    }
}

/// Shows register *contents* — each slot's state, value and blocks — not
/// the arena layout.
impl fmt::Debug for PhysRegFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        struct SlotView<'a>(&'a PhysRegFile, &'a Slot);
        impl fmt::Debug for SlotView<'_> {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                let SlotView(file, s) = self;
                f.debug_struct("Slot")
                    .field("ready", &s.ready)
                    .field("live", &s.live)
                    .field("value", &&file.lanes[s.value.range()])
                    .field("blocks", &&file.block_ids[s.blocks.range()])
                    .finish()
            }
        }
        f.debug_struct("PhysRegFile")
            .field("slots", &self.slots.iter().map(|s| SlotView(self, s)).collect::<Vec<_>>())
            .field("recycled", &self.recycled)
            .finish()
    }
}

/// Equality of register *contents*: slot states, recycling order, and
/// each slot's value and blocks — not where the arenas put them.
impl PartialEq for PhysRegFile {
    fn eq(&self, other: &Self) -> bool {
        self.recycled == other.recycled
            && self.slots.len() == other.slots.len()
            && self.slots.iter().zip(&other.slots).all(|(a, b)| {
                a.ready == b.ready
                    && a.live == b.live
                    && self.lanes[a.value.range()] == other.lanes[b.value.range()]
                    && self.block_ids[a.blocks.range()] == other.block_ids[b.blocks.range()]
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reassign_claims_lowest_free_blocks() {
        let mut rb = RegBlocks::new(8, 160, 64);
        let a = rb.reassign(0, 3);
        assert_eq!(a, vec![0, 1, 2]);
        let b = rb.reassign(1, 2);
        assert_eq!(b, vec![3, 4]);
        // Core 0 shrinks to 1: frees 0..3, claims block 0.
        let c = rb.reassign(0, 1);
        assert_eq!(c, vec![0]);
        assert_eq!(rb.owner(1), BlockOwner::Free);
        assert_eq!(rb.spans_for(1), vec![3, 4]);
    }

    #[test]
    fn quarantine_of_a_free_block_retires_immediately() {
        let mut rb = RegBlocks::new(4, 160, 64);
        assert!(rb.begin_quarantine(2));
        assert_eq!(rb.health(2), LaneHealth::Retired);
        assert!(!rb.begin_quarantine(2), "idempotent");
        // Retired blocks are never handed out again.
        let claimed = rb.reassign(0, 3);
        assert_eq!(claimed, vec![0, 1, 3]);
    }

    #[test]
    fn quarantine_of_an_owned_block_drains_then_retires() {
        let mut rb = RegBlocks::new(4, 160, 64);
        assert_eq!(rb.reassign(0, 2), vec![0, 1]);
        assert!(rb.begin_quarantine(1));
        assert_eq!(rb.health(1), LaneHealth::Draining);
        assert!(rb.is_quarantined(1));
        // Still owned: nothing retires yet.
        assert!(!rb.try_finish_drain(1));
        assert_eq!(rb.health(1), LaneHealth::Draining);
        // Owner repartitions down to one granule: the draining block is
        // freed but not reclaimed, then finalization retires it.
        assert_eq!(rb.reassign(0, 1), vec![0]);
        assert!(rb.try_finish_drain(1));
        assert_eq!(rb.retired_blocks(), vec![1]);
        // Growing again skips the retired block.
        assert_eq!(rb.reassign(0, 3), vec![0, 2, 3]);
    }

    #[test]
    fn shared_blocks_span_everything() {
        let mut rb = RegBlocks::new(4, 160, 64);
        rb.set_all_shared();
        assert_eq!(rb.spans_for(0), vec![0, 1, 2, 3]);
        assert_eq!(rb.spans_for(1), vec![0, 1, 2, 3]);
    }

    #[test]
    fn reserve_fails_atomically_when_any_block_is_full() {
        let mut rb = RegBlocks::new(2, 1, 64);
        assert!(rb.try_reserve(&[0]));
        // Block 0 now empty; a span covering both blocks must not touch
        // block 1 when it fails.
        assert!(!rb.try_reserve(&[0, 1]));
        assert_eq!(rb.free_entries(1), 1);
        rb.release(&[0]);
        assert!(rb.try_reserve(&[0, 1]));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn release_past_capacity_panics() {
        let mut rb = RegBlocks::new(1, 2, 64);
        rb.release(&[0]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn release_past_capacity_saturates_in_release() {
        let mut rb = RegBlocks::new(1, 2, 64);
        rb.release(&[0]);
        rb.release_pred(&[0]);
        assert_eq!(rb.free_entries(0), 2);
        assert_eq!(rb.free_pred_entries(0), 64);
    }

    #[test]
    fn phys_file_value_lifecycle() {
        let mut prf = PhysRegFile::new();
        let id = prf.alloc(&[0, 1]);
        assert!(!prf.is_ready(id));
        prf.produce(id, &[1.0; 8]);
        assert!(!prf.is_ready(id), "written at issue, invisible until completion");
        assert_eq!(prf.pending(id), Some(&[1.0; 8][..]));
        prf.set_ready(id);
        assert!(prf.is_ready(id));
        assert_eq!(prf.pending(id), None);
        assert_eq!(prf.read(id)[3], 1.0);
        assert_eq!(prf.free(id), &[0, 1]);
    }

    #[test]
    fn slots_are_recycled() {
        let mut prf = PhysRegFile::new();
        let a = prf.alloc(&[0]);
        prf.free(a);
        let b = prf.alloc(&[1]);
        assert_eq!(a.0, b.0, "slot recycled");
        assert!(!prf.is_ready(b));
    }

    #[test]
    fn recycled_slots_reuse_their_lanes() {
        let mut prf = PhysRegFile::new();
        let a = prf.alloc_zeroed(&[0, 1], 8);
        prf.overwrite(a, &[2.0; 8]);
        assert_eq!(prf.read(a), &[2.0; 8]);
        prf.free(a);
        let arena = prf.lanes.len();
        let b = prf.alloc(&[2, 3]);
        prf.produce(b, &[3.0; 4]);
        prf.set_ready(b);
        assert_eq!(prf.read(b), &[3.0; 4]);
        assert_eq!(prf.lanes.len(), arena, "a narrower value fits the slot's region");
        assert_eq!(prf.free(b), &[2, 3]);
    }

    #[test]
    fn wider_values_relocate_without_disturbing_others() {
        let mut prf = PhysRegFile::new();
        let a = prf.alloc_zeroed(&[0], 4);
        let b = prf.alloc_zeroed(&[1], 4);
        prf.overwrite(b, &[5.0; 4]);
        prf.overwrite(a, &[7.0; 16]);
        assert_eq!(prf.read(a), &[7.0; 16]);
        assert_eq!(prf.read(b), &[5.0; 4]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double write")]
    fn double_write_panics() {
        let mut prf = PhysRegFile::new();
        let id = prf.alloc_zeroed(&[0], 4);
        prf.produce(id, &[1.0; 4]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn double_write_last_write_wins_in_release() {
        let mut prf = PhysRegFile::new();
        let id = prf.alloc_zeroed(&[0], 4);
        prf.produce(id, &[1.0; 4]);
        prf.set_ready(id);
        assert!(prf.is_ready(id));
        assert_eq!(prf.read(id), &[1.0; 4]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "freed physical register")]
    fn use_after_free_panics() {
        let mut prf = PhysRegFile::new();
        let id = prf.alloc(&[0]);
        prf.free(id);
        let _ = prf.is_ready(id);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn freed_slot_reads_not_ready_in_release() {
        let mut prf = PhysRegFile::new();
        let id = prf.alloc_zeroed(&[0], 4);
        assert_eq!(prf.free(id), &[0]);
        assert!(!prf.is_ready(id));
        assert!(prf.free(id).is_empty(), "a double free releases no blocks");
    }

    #[test]
    fn codec_records_pending_values_as_empty() {
        use statecodec::Codec;
        let mut prf = PhysRegFile::new();
        let a = prf.alloc_zeroed(&[0], 4);
        let b = prf.alloc(&[0]);
        prf.produce(b, &[9.0; 4]);
        let mut sink = statecodec::Sink::new();
        prf.encode(&mut sink);
        let bytes = sink.into_bytes();
        let back = PhysRegFile::decode(&mut statecodec::Src::new(&bytes)).expect("decodes");
        assert_eq!(back.read(a), &[0.0; 4]);
        assert_eq!(back.pending(b), Some(&[][..]), "pending values travel with their producer");
    }
}

// --- Checkpoint serialization --------------------------------------------

statecodec::impl_codec_enum!(BlockOwner {
    0 => Free,
    1 => Core(core),
    2 => Shared,
});

statecodec::impl_codec_enum!(LaneHealth {
    0 => Healthy,
    1 => Draining,
    2 => Retired,
});

impl statecodec::Codec for PhysId {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.0, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        Ok(PhysId(<u32 as statecodec::Codec>::decode(src)?))
    }
}

// The wire format (snapshot version 1) is one `{ready, value, blocks,
// live}` record per slot, then the recycling stack. A slot whose result
// is still in flight records an empty value: the in-flight queue's and
// the LSU's records carry those values (see the co-processor and LSU
// codecs).
impl statecodec::Codec for PhysRegFile {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.slots.len(), sink);
        for s in &self.slots {
            statecodec::Codec::encode(&s.ready, sink);
            statecodec::encode_seq(self.visible(s), sink);
            statecodec::encode_seq(&self.block_ids[s.blocks.range()], sink);
            statecodec::Codec::encode(&s.live, sink);
        }
        statecodec::Codec::encode(&self.recycled, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let n = <usize as statecodec::Codec>::decode(src)?;
        if n > src.remaining() {
            return Err(statecodec::DecodeError::at(
                src,
                "register file claims more slots than bytes",
            ));
        }
        let mut prf = PhysRegFile::new();
        for _ in 0..n {
            let ready = <bool as statecodec::Codec>::decode(src)?;
            let value: Vec<f32> = statecodec::Codec::decode(src)?;
            let blocks: Vec<usize> = statecodec::Codec::decode(src)?;
            let live = <bool as statecodec::Codec>::decode(src)?;
            if live && !ready && !value.is_empty() {
                return Err(statecodec::DecodeError::at(
                    src,
                    "a register whose result is pending holds a value",
                ));
            }
            if prf.lanes.len() + value.len() > u32::MAX as usize / 2
                || prf.block_ids.len() + blocks.len() > u32::MAX as usize / 2
            {
                return Err(statecodec::DecodeError::at(src, "register file exceeds its arena"));
            }
            let mut slot = Slot { ready, live, ..Slot::default() };
            slot.value.place(&mut prf.lanes, value.len()).copy_from_slice(&value);
            slot.blocks.place(&mut prf.block_ids, blocks.len()).copy_from_slice(&blocks);
            prf.slots.push(slot);
        }
        prf.recycled = statecodec::Codec::decode(src)?;
        if prf.recycled.iter().any(|&id| prf.slots.get(id as usize).is_none_or(|s| s.live)) {
            return Err(statecodec::DecodeError::at(
                src,
                "recycled register id is live or beyond the file",
            ));
        }
        Ok(prf)
    }
}

// Hand-written so decode re-establishes the parallel-array invariant
// (one free-count and one health state per block, free counts within
// capacity).
impl statecodec::Codec for RegBlocks {
    fn encode(&self, sink: &mut statecodec::Sink) {
        statecodec::Codec::encode(&self.owner, sink);
        statecodec::Codec::encode(&self.free, sink);
        statecodec::Codec::encode(&self.capacity, sink);
        statecodec::Codec::encode(&self.pred_free, sink);
        statecodec::Codec::encode(&self.pred_capacity, sink);
        statecodec::Codec::encode(&self.health, sink);
    }
    fn decode(src: &mut statecodec::Src<'_>) -> Result<Self, statecodec::DecodeError> {
        let owner: Vec<BlockOwner> = statecodec::Codec::decode(src)?;
        let free: Vec<usize> = statecodec::Codec::decode(src)?;
        let capacity = <usize as statecodec::Codec>::decode(src)?;
        let pred_free: Vec<usize> = statecodec::Codec::decode(src)?;
        let pred_capacity = <usize as statecodec::Codec>::decode(src)?;
        let health: Vec<LaneHealth> = statecodec::Codec::decode(src)?;
        if free.len() != owner.len() || pred_free.len() != owner.len() || health.len() != owner.len()
        {
            return Err(statecodec::DecodeError::at(
                src,
                format!(
                    "regblock tables disagree on block count: {} owners, {} free, \
                     {} pred_free, {} health",
                    owner.len(),
                    free.len(),
                    pred_free.len(),
                    health.len()
                ),
            ));
        }
        if free.iter().any(|&f| f > capacity) || pred_free.iter().any(|&f| f > pred_capacity) {
            return Err(statecodec::DecodeError::at(
                src,
                "regblock free count exceeds its capacity",
            ));
        }
        Ok(RegBlocks { owner, free, capacity, pred_free, pred_capacity, health })
    }
}

impl PhysRegFile {
    /// Number of slots ever allocated (live or recycled); checkpoint
    /// decoding bounds-checks rename maps against it.
    pub(crate) fn slot_count(&self) -> usize {
        self.slots.len()
    }
}
