//! The discrete-event scheduler behind the event-driven timing kernel.
//!
//! [`EventQueue`] is a cycle-keyed event queue (MGSim-style): events are
//! kept in one vector sorted latest-first, so the earliest pending event
//! is its last element and popping it is O(1). The queue holds a handful
//! of events per skip attempt, where a sorted vector beats a tree, and
//! [`reset`](EventQueue::reset) reuses its storage, so the machine's
//! per-attempt queue allocates nothing. The machine uses it to find the
//! next cycle at which *anything* can happen — pipeline completions,
//! scalar-load arrivals, watchdog/self-test/checkpoint timers — and,
//! after a tick that made no progress, advances time directly to that
//! cycle instead of ticking through the idle span (see
//! `Machine::step_bounded`).
//!
//! # Determinism
//!
//! Pop order is a pure function of the queue's *contents*, never of
//! insertion order: events are totally ordered by the tie-break key
//! `(cycle, track rank, seq)`, with the rank fixed by [`track_rank`]
//! (cores first, then co-processor, lane manager, memory, recovery —
//! the machine's stage order) and `seq` a caller-supplied discriminator
//! (ROB sequence number, LSU age, timer id). Two schedules of the same
//! event set therefore drain identically regardless of the order the
//! components scheduled them in, which is what keeps the event kernel
//! bit-reproducible across refactors of the machine's horizon code.
//!
//! Scheduling into the past is impossible by construction: an `at`
//! before the queue's current cycle clamps to the current cycle (and
//! trips a `debug_assert!`), so the head of the queue is always `>= now`
//! and time only moves forward.

use mem_sim::Cycle;

use crate::events::Track;

/// One scheduled wakeup: "something on `track` acts at cycle `at`".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledEvent {
    /// The cycle the event fires.
    pub at: Cycle,
    /// The component track the event belongs to (the same vocabulary the
    /// structured [`EventLog`](crate::EventLog) uses).
    pub track: Track,
    /// Caller-supplied tie-break discriminator (ROB `seq`, LSU age,
    /// timer id) — part of the event's identity, not an insertion index.
    pub seq: u64,
}

/// Deterministic total order of tracks within one cycle, mirroring the
/// machine's stage order (completions retire per core, then the shared
/// pipeline, lane manager, memory system, and recovery timers).
fn track_rank(track: Track) -> (u8, usize) {
    match track {
        Track::Core(c) => (0, c),
        Track::Coproc => (1, 0),
        Track::LaneManager => (2, 0),
        Track::Memory => (3, 0),
        Track::Recovery => (4, 0),
    }
}

fn event_key(e: &ScheduledEvent) -> (Cycle, u8, usize, u64) {
    let (class, idx) = track_rank(e.track);
    (e.at, class, idx, e.seq)
}

/// A monotone, cycle-keyed event queue with a deterministic tie-break on
/// `(cycle, track, seq)`. See the module docs for the determinism rules.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventQueue {
    now: Cycle,
    /// Pending events sorted by descending [`event_key`]: the next event
    /// to pop is the last.
    events: Vec<ScheduledEvent>,
}

impl EventQueue {
    /// An empty queue whose clock reads `now`.
    pub fn new(now: Cycle) -> Self {
        EventQueue { now, events: Vec::new() }
    }

    /// Empties the queue and sets its clock to `now` — unlike
    /// [`new`](Self::new), even backwards — keeping its storage.
    pub fn reset(&mut self, now: Cycle) {
        self.now = now;
        self.events.clear();
    }

    /// The queue's current cycle. Only ever moves forward.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Schedules an event. An `at` in the past clamps to the current
    /// cycle (a scheduler may only ever defer work, never rewrite
    /// history); the clamp trips a `debug_assert!` because a past target
    /// is a horizon bug, not a legal request.
    pub fn schedule(&mut self, at: Cycle, track: Track, seq: u64) {
        debug_assert!(at >= self.now, "event scheduled into the past: {at} < {}", self.now);
        let at = at.max(self.now);
        let e = ScheduledEvent { at, track, seq };
        // Keep the events sorted by the tie-break key so pop order is
        // independent of insertion order. Duplicates of the same key are
        // identical events; their relative order is unobservable.
        let pos = self.events.partition_point(|x| event_key(x) > event_key(&e));
        self.events.insert(pos, e);
    }

    /// The cycle of the earliest pending event, if any.
    pub fn next_at(&self) -> Option<Cycle> {
        self.events.last().map(|e| e.at)
    }

    /// Removes and returns the earliest pending event (ties broken on
    /// `(track, seq)`), advancing the clock to its cycle.
    pub fn pop(&mut self) -> Option<ScheduledEvent> {
        let e = self.events.pop()?;
        self.now = self.now.max(e.at);
        Some(e)
    }

    /// Advances the clock to `cycle` (never backwards). Pending events
    /// earlier than the new clock are a caller bug and are clamped
    /// forward on pop rather than lost.
    pub fn advance_to(&mut self, cycle: Cycle) {
        debug_assert!(
            self.next_at().is_none_or(|at| at >= cycle),
            "advanced past a pending event"
        );
        self.now = self.now.max(cycle);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_cycle_then_track_then_seq_order() {
        let mut q = EventQueue::new(0);
        q.schedule(7, Track::Recovery, 0);
        q.schedule(3, Track::Memory, 9);
        q.schedule(3, Track::Core(1), 2);
        q.schedule(3, Track::Core(0), 5);
        q.schedule(3, Track::Coproc, 1);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order.iter().map(|e| (e.at, e.track, e.seq)).collect::<Vec<_>>(),
            vec![
                (3, Track::Core(0), 5),
                (3, Track::Core(1), 2),
                (3, Track::Coproc, 1),
                (3, Track::Memory, 9),
                (7, Track::Recovery, 0),
            ]
        );
    }

    #[test]
    fn pop_order_is_insertion_order_independent() {
        let events = [
            (4, Track::Core(0), 3),
            (4, Track::Core(0), 1),
            (4, Track::Coproc, 0),
            (2, Track::Recovery, 7),
            (9, Track::Memory, 2),
        ];
        let mut fwd = EventQueue::new(0);
        let mut rev = EventQueue::new(0);
        for &(at, t, s) in &events {
            fwd.schedule(at, t, s);
        }
        for &(at, t, s) in events.iter().rev() {
            rev.schedule(at, t, s);
        }
        let a: Vec<_> = std::iter::from_fn(|| fwd.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| rev.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn clock_is_monotone_and_pop_advances_it() {
        let mut q = EventQueue::new(10);
        q.schedule(15, Track::Coproc, 0);
        assert_eq!(q.next_at(), Some(15));
        let e = q.pop().unwrap();
        assert_eq!((e.at, q.now()), (15, 15));
        q.advance_to(12); // backwards request: clamped, clock unchanged
        assert_eq!(q.now(), 15);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "into the past")]
    fn scheduling_into_the_past_clamps_in_release_and_asserts_in_debug() {
        let mut q = EventQueue::new(100);
        q.schedule(50, Track::Recovery, 0);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn scheduling_into_the_past_clamps_in_release() {
        let mut q = EventQueue::new(100);
        q.schedule(50, Track::Recovery, 0);
        assert_eq!(q.next_at(), Some(100));
        assert_eq!(q.pop().map(|e| (e.at, q.now())), Some((100, 100)));
    }

    #[test]
    fn reset_empties_and_rewinds_the_clock() {
        let mut q = EventQueue::new(10);
        q.schedule(40, Track::Memory, 1);
        q.reset(5);
        assert!(q.is_empty());
        assert_eq!((q.now(), q.next_at()), (5, None));
        q.schedule(6, Track::Coproc, 0);
        assert_eq!(q.next_at(), Some(6));
    }
}
