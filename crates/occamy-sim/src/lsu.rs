//! The per-core load/store unit queue (LSU with LHQ/STQ of Fig. 5).

use mem_sim::Cycle;

use crate::regblocks::PhysId;

/// One queued vector memory operation.
#[derive(Debug, Clone, PartialEq)]
pub struct LsuEntry {
    /// Global age (program-order sequence number).
    pub seq: u64,
    /// `true` for stores.
    pub store: bool,
    /// Effective byte address (resolved by the scalar core before
    /// transmission).
    pub addr: u64,
    /// Access width in bytes (`lanes * 4`).
    pub bytes: u64,
    /// Number of f32 lanes.
    pub lanes: usize,
    /// Destination physical register (loads).
    pub dst: Option<PhysId>,
    /// Data source physical register (stores).
    pub src: Option<PhysId>,
    /// Whether the entry has been issued to the memory system.
    pub issued: bool,
    /// Completion cycle once issued. An issued load has already written
    /// its data into `dst`'s lanes; it becomes visible at completion.
    pub complete_at: Option<Cycle>,
    /// Governing predicate's physical register, if predicated.
    pub pred: Option<PhysId>,
}

impl LsuEntry {
    /// Whether the entry's byte range overlaps `[addr, addr + bytes)`.
    /// Saturating: spans from untrusted programs may sit at the top of
    /// the address space.
    pub fn overlaps(&self, addr: u64, bytes: u64) -> bool {
        self.addr < addr.saturating_add(bytes) && addr < self.addr.saturating_add(self.bytes)
    }
}

/// A bounded, age-ordered queue of in-flight vector memory operations for
/// one core.
///
/// Issue rules (enforced by the co-processor's issue stage using the
/// query methods here):
///
/// * a **load** may issue once no older *un-issued* store overlaps it
///   (issued stores have already performed their functional write);
/// * a **store** may issue once its data register is ready and every
///   older entry has issued (stores keep program order conservatively —
///   the paper's MOB discipline).
#[derive(Debug, Clone, PartialEq)]
pub struct Lsu {
    entries: Vec<LsuEntry>,
    capacity: usize,
}

impl Lsu {
    /// Creates an empty queue of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Lsu { entries: Vec::new(), capacity }
    }

    /// Whether the queue is at capacity.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Whether the queue holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Current occupancy.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Enqueues an operation (entries must arrive in `seq` order).
    /// Misuse — a full queue or a non-monotonic `seq` — drops the entry
    /// (and trips a `debug_assert!` in debug builds) rather than
    /// corrupting the age order.
    pub fn push(&mut self, entry: LsuEntry) {
        debug_assert!(!self.is_full(), "LSU overflow — rename must check is_full()");
        if self.is_full() {
            return;
        }
        if let Some(last) = self.entries.last() {
            debug_assert!(entry.seq > last.seq, "out-of-order LSU enqueue");
            if entry.seq <= last.seq {
                return;
            }
        }
        self.entries.push(entry);
    }

    /// The entries in age order.
    pub fn entries(&self) -> &[LsuEntry] {
        &self.entries
    }

    /// Mutable access, age order.
    pub fn entries_mut(&mut self) -> &mut [LsuEntry] {
        &mut self.entries
    }

    /// Whether the load at `idx` is blocked by an older un-issued store.
    pub fn load_blocked(&self, idx: usize) -> bool {
        let me = &self.entries[idx];
        self.entries[..idx]
            .iter()
            .any(|e| e.store && !e.issued && e.overlaps(me.addr, me.bytes))
    }

    /// The un-issued entries in age order, each with whether the issue
    /// rules hold it back: a store while any older entry is un-issued, a
    /// load while an older un-issued store overlaps it. One pass: the
    /// overlap scan runs only behind an un-issued store.
    pub fn pending(&self) -> impl Iterator<Item = (usize, &LsuEntry, bool)> + '_ {
        let (mut older_unissued, mut older_store) = (false, false);
        self.entries.iter().enumerate().filter(|(_, e)| !e.issued).map(move |(idx, e)| {
            let blocked =
                if e.store { older_unissued } else { older_store && self.load_blocked(idx) };
            older_unissued = true;
            older_store |= e.store;
            (idx, e, blocked)
        })
    }

    /// Removes completed entries (`complete_at <= now`) in age order,
    /// handing each to `done` first.
    pub fn retire_completed(&mut self, now: Cycle, mut done: impl FnMut(&LsuEntry)) {
        self.entries.retain(|e| {
            let complete = e.issued && e.complete_at.is_some_and(|c| c <= now);
            if complete {
                done(e);
            }
            !complete
        });
    }

    /// Completion times of issued entries, as `(complete_at, seq)` pairs
    /// — the wakeups the event kernel schedules on the memory track.
    pub fn issued_completions(&self) -> impl Iterator<Item = (Cycle, u64)> + '_ {
        self.entries
            .iter()
            .filter(|e| e.issued)
            .filter_map(|e| e.complete_at.map(|c| (c, e.seq)))
    }

    /// Whether any entry (issued or not) overlaps the byte range — the
    /// MOB query scalar cores use before scalar memory accesses
    /// (Table 2's address-overlap ordering).
    pub fn any_overlap(&self, addr: u64, bytes: u64) -> bool {
        self.entries.iter().any(|e| e.overlaps(addr, bytes))
    }
}

// --- Checkpoint serialization --------------------------------------------
//
// Each entry's wire record carries an `Option<Vec<f32>>` data field
// between `complete_at` and `pred`: `Some` for an issued load, holding
// the value it wrote into its destination register at issue. The queue
// keeps no copy of that value, so the co-processor codec supplies it
// from the register file on encode and writes it back there on decode.

/// In-flight vector values recovered by a decoder, each with the
/// register it is bound for.
pub(crate) type PendingValues = Vec<(PhysId, Vec<f32>)>;

impl Lsu {
    /// Encodes the queue; `loaded` yields an issued load's in-flight
    /// value from its destination register.
    pub(crate) fn encode_with<'a>(
        &self,
        sink: &mut statecodec::Sink,
        loaded: impl Fn(PhysId) -> &'a [f32],
    ) {
        statecodec::Codec::encode(&self.entries.len(), sink);
        for e in &self.entries {
            statecodec::Codec::encode(&e.seq, sink);
            statecodec::Codec::encode(&e.store, sink);
            statecodec::Codec::encode(&e.addr, sink);
            statecodec::Codec::encode(&e.bytes, sink);
            statecodec::Codec::encode(&e.lanes, sink);
            statecodec::Codec::encode(&e.dst, sink);
            statecodec::Codec::encode(&e.src, sink);
            statecodec::Codec::encode(&e.issued, sink);
            statecodec::Codec::encode(&e.complete_at, sink);
            match e.dst.filter(|_| e.issued && !e.store) {
                Some(dst) => {
                    sink.put_byte(1);
                    statecodec::encode_seq(loaded(dst), sink);
                }
                None => sink.put_byte(0),
            }
            statecodec::Codec::encode(&e.pred, sink);
        }
        statecodec::Codec::encode(&self.capacity, sink);
    }

    /// Decodes a queue, re-establishing the bounds and age-order
    /// invariants `push` enforces. Also returns each issued load's
    /// in-flight value with its destination register, for the caller to
    /// write back into the register file.
    pub(crate) fn decode_with(
        src: &mut statecodec::Src<'_>,
    ) -> Result<(Self, PendingValues), statecodec::DecodeError> {
        use statecodec::Codec;
        let n = usize::decode(src)?;
        if n > src.remaining() {
            return Err(statecodec::DecodeError::at(src, "LSU claims more entries than bytes"));
        }
        let mut entries = Vec::with_capacity(n);
        let mut loaded = Vec::new();
        for _ in 0..n {
            let seq = u64::decode(src)?;
            let store = bool::decode(src)?;
            let addr = u64::decode(src)?;
            let bytes = u64::decode(src)?;
            let lanes = usize::decode(src)?;
            let dst = Option::<PhysId>::decode(src)?;
            let source = Option::<PhysId>::decode(src)?;
            let issued = bool::decode(src)?;
            let complete_at = Option::<Cycle>::decode(src)?;
            let data = Option::<Vec<f32>>::decode(src)?;
            let pred = Option::<PhysId>::decode(src)?;
            match (data, dst.filter(|_| issued && !store)) {
                (Some(value), Some(dst)) => loaded.push((dst, value)),
                (None, None) => {}
                _ => {
                    return Err(statecodec::DecodeError::at(
                        src,
                        "LSU load data must be present exactly when a load has issued",
                    ))
                }
            }
            entries.push(LsuEntry {
                seq,
                store,
                addr,
                bytes,
                lanes,
                dst,
                src: source,
                issued,
                complete_at,
                pred,
            });
        }
        let capacity = usize::decode(src)?;
        if entries.len() > capacity {
            return Err(statecodec::DecodeError::at(
                src,
                format!("LSU holds {} entries over a capacity of {capacity}", entries.len()),
            ));
        }
        if entries.windows(2).any(|w| w[0].seq >= w[1].seq) {
            return Err(statecodec::DecodeError::at(src, "LSU entries out of age order"));
        }
        Ok((Lsu { entries, capacity }, loaded))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn load(seq: u64, addr: u64, bytes: u64) -> LsuEntry {
        LsuEntry {
            seq,
            store: false,
            addr,
            bytes,
            lanes: (bytes / 4) as usize,
            dst: Some(PhysId(seq as u32)),
            src: None,
            issued: false,
            complete_at: None,
            pred: None,
        }
    }

    fn store(seq: u64, addr: u64, bytes: u64) -> LsuEntry {
        LsuEntry {
            seq,
            store: true,
            addr,
            bytes,
            lanes: (bytes / 4) as usize,
            dst: None,
            src: Some(PhysId(seq as u32)),
            issued: false,
            complete_at: None,
            pred: None,
        }
    }

    #[test]
    fn loads_bypass_nonoverlapping_stores() {
        let mut lsu = Lsu::new(8);
        lsu.push(store(1, 0x100, 64));
        lsu.push(load(2, 0x200, 64));
        assert!(!lsu.load_blocked(1), "different address — may bypass");
    }

    #[test]
    fn loads_wait_for_overlapping_unissued_stores() {
        let mut lsu = Lsu::new(8);
        lsu.push(store(1, 0x100, 64));
        lsu.push(load(2, 0x120, 64));
        assert!(lsu.load_blocked(1));
        lsu.entries_mut()[0].issued = true;
        assert!(!lsu.load_blocked(1), "issued store already wrote memory");
    }

    #[test]
    fn stores_wait_for_all_older_entries() {
        let mut lsu = Lsu::new(8);
        lsu.push(load(1, 0x0, 64));
        lsu.push(store(2, 0x1000, 64));
        let blocked = |lsu: &Lsu| lsu.pending().map(|(i, _, b)| (i, b)).collect::<Vec<_>>();
        assert_eq!(blocked(&lsu), vec![(0, false), (1, true)]);
        lsu.entries_mut()[0].issued = true;
        assert_eq!(blocked(&lsu), vec![(1, false)]);
    }

    #[test]
    fn pending_reports_loads_behind_overlapping_stores() {
        let mut lsu = Lsu::new(8);
        lsu.push(store(1, 0x100, 64));
        lsu.push(load(2, 0x200, 64));
        lsu.push(load(3, 0x120, 64));
        let blocked: Vec<_> = lsu.pending().map(|(i, _, b)| (i, b)).collect();
        assert_eq!(blocked, vec![(0, false), (1, false), (2, true)]);
    }

    #[test]
    fn retire_removes_only_completed() {
        let mut lsu = Lsu::new(8);
        lsu.push(load(1, 0x0, 64));
        lsu.push(load(2, 0x40, 64));
        lsu.entries_mut()[0].issued = true;
        lsu.entries_mut()[0].complete_at = Some(10);
        let mut done = Vec::new();
        lsu.retire_completed(5, |e| done.push(e.seq));
        assert!(done.is_empty());
        lsu.retire_completed(10, |e| done.push(e.seq));
        assert_eq!(done, vec![1]);
        assert_eq!(lsu.len(), 1);
    }

    #[test]
    fn overlap_query_covers_partial_ranges() {
        let mut lsu = Lsu::new(8);
        lsu.push(store(1, 0x100, 64));
        assert!(lsu.any_overlap(0x13c, 4));
        assert!(!lsu.any_overlap(0x140, 4));
        assert!(!lsu.any_overlap(0xfc, 4));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "overflow")]
    fn overflow_panics() {
        let mut lsu = Lsu::new(1);
        lsu.push(load(1, 0, 64));
        lsu.push(load(2, 64, 64));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn overflow_drops_the_entry_in_release() {
        let mut lsu = Lsu::new(1);
        lsu.push(load(1, 0, 64));
        lsu.push(load(2, 64, 64));
        assert_eq!(lsu.entries().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![1]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "out-of-order")]
    fn out_of_order_enqueue_panics() {
        let mut lsu = Lsu::new(4);
        lsu.push(load(5, 0, 64));
        lsu.push(load(3, 64, 64));
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn out_of_order_enqueue_drops_the_entry_in_release() {
        let mut lsu = Lsu::new(4);
        lsu.push(load(5, 0, 64));
        lsu.push(load(3, 64, 64));
        lsu.push(load(5, 128, 64));
        assert_eq!(lsu.entries().iter().map(|e| e.seq).collect::<Vec<_>>(), vec![5]);
    }
}
