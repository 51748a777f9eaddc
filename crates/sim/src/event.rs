//! Cancellable discrete-event scheduler: one 4-ary min-heap.
//!
//! Events fire in exact `(time, sequence)` order: ties at the same
//! instant fire in scheduling order, which gives the deterministic FIFO
//! semantics the MACEDON engine's timer subsystem relies on. Every
//! event — packet departures and arrivals, RTOs, failure-detector
//! sweeps, spec timers — goes through [`Scheduler::schedule`] into one
//! 4-ary min-heap of 24-byte `(time, seq, slot)` keys; the payload lives
//! in a slab at `slot`, so the heap's sift loops move keys only.
//!
//! **Cancellation** is O(1) and exact: the payload slab stores each
//! slot's owning sequence number, [`Scheduler::cancel`] frees the slab
//! slot immediately, and the heap drops the stale key when it reaches
//! the top. There is no tombstone side-set to purge — a long run with
//! steady cancellations reclaims its payloads at once and its keys
//! amortized during pop.

use crate::time::Time;

/// Opaque handle to a scheduled event, used for cancellation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct EventId {
    seq: u64,
    slot: u32,
}

impl EventId {
    /// Sentinel that never names a live event; [`Scheduler::cancel`] on
    /// it is a no-op returning `false`. Useful as an initializer for
    /// "no pending event" slots.
    pub const NONE: EventId = EventId {
        seq: u64::MAX,
        slot: u32::MAX,
    };
}

/// Heap key: payload stays in the slab at `slot`. `(at, seq)` is
/// unique and totally ordered, so the pop sequence is a pure function
/// of the schedule calls; the comparison is written branchless for the
/// sift loops.
#[derive(Clone, Copy)]
struct Entry {
    at_us: u64,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn new(at: Time, seq: u64, slot: u32) -> Entry {
        Entry {
            at_us: at.0,
            seq,
            slot,
        }
    }

    #[inline]
    fn at(&self) -> Time {
        Time(self.at_us)
    }

    #[inline]
    fn before(&self, other: &Entry) -> bool {
        // Bitwise (non-short-circuit) combination keeps the comparison
        // branchless in the sift loops.
        (self.at_us < other.at_us) | ((self.at_us == other.at_us) & (self.seq < other.seq))
    }
}

/// 4-ary min-heap over [`Entry`] keys: half the levels of a binary
/// heap, and each sift-down touches four children sitting in at most
/// two cache lines — measurably cheaper pops on the large heaps a
/// many-node world builds (one key per in-flight packet and timer).
struct MinHeap {
    v: Vec<Entry>,
}

impl MinHeap {
    #[inline]
    fn peek(&self) -> Option<&Entry> {
        self.v.first()
    }

    fn push(&mut self, e: Entry) {
        self.v.push(e);
        let mut i = self.v.len() - 1;
        while i > 0 {
            let p = (i - 1) / 4;
            if self.v[i].before(&self.v[p]) {
                self.v.swap(i, p);
                i = p;
            } else {
                break;
            }
        }
    }

    fn pop(&mut self) -> Option<Entry> {
        if self.v.is_empty() {
            return None;
        }
        let top = self.v.swap_remove(0);
        let len = self.v.len();
        if len > 1 {
            // Hole technique: carry the displaced entry down and store
            // it once at its final position instead of swapping per
            // level.
            let hole = self.v[0];
            let mut i = 0;
            loop {
                let first = 4 * i + 1;
                if first >= len {
                    break;
                }
                let last = (first + 4).min(len);
                let mut min = first;
                let mut min_e = self.v[first];
                for c in first + 1..last {
                    let e = self.v[c];
                    if e.before(&min_e) {
                        min = c;
                        min_e = e;
                    }
                }
                if min_e.before(&hole) {
                    self.v[i] = min_e;
                    i = min;
                } else {
                    break;
                }
            }
            self.v[i] = hole;
        }
        Some(top)
    }
}

/// Payload slab cell. `seq` identifies the owning event; a heap key
/// whose seq no longer matches (or whose payload is gone) is stale —
/// its event was cancelled — and is dropped on contact.
struct Slot<E> {
    seq: u64,
    payload: Option<E>,
}

/// A virtual-time event queue generic over the event payload type.
pub struct Scheduler<E> {
    /// Every pending key, plus stale ones not yet reached.
    heap: MinHeap,
    /// Payload slab indexed by `Entry::slot`.
    slab: Vec<Slot<E>>,
    /// Free slots available for reuse.
    free: Vec<u32>,
    /// Live (scheduled, neither fired nor cancelled) events.
    live: usize,
    now: Time,
    next_seq: u64,
    fired: u64,
}

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Scheduler<E> {
    pub fn new() -> Scheduler<E> {
        Scheduler {
            // Room for the first 64 keys. Measured, not derived: without
            // this block, repeating a world's set-up (as `benchmark/`
            // does for `setup_s`) made glibc trim and re-fault
            // ~250 KiB of heap on every repetition.
            heap: MinHeap {
                v: Vec::with_capacity(64),
            },
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            now: Time::ZERO,
            next_seq: 0,
            fired: 0,
        }
    }

    /// Current virtual time: the timestamp of the most recently popped
    /// event (or zero before any event fires).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Total number of events that have fired.
    pub fn events_fired(&self) -> u64 {
        self.fired
    }

    /// Number of pending (non-cancelled) events.
    pub fn pending(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Allocate a slab slot for `payload`, owned by `seq`.
    fn alloc(&mut self, seq: u64, payload: E) -> u32 {
        match self.free.pop() {
            Some(s) => {
                let cell = &mut self.slab[s as usize];
                debug_assert!(cell.payload.is_none());
                cell.seq = seq;
                cell.payload = Some(payload);
                s
            }
            None => {
                self.slab.push(Slot {
                    seq,
                    payload: Some(payload),
                });
                (self.slab.len() - 1) as u32
            }
        }
    }

    /// Schedule an event at absolute time `at`.
    ///
    /// Scheduling in the past is a logic error; it panics in debug builds
    /// and clamps to `now` in release builds.
    pub fn schedule(&mut self, at: Time, payload: E) -> EventId {
        debug_assert!(
            at >= self.now,
            "scheduling into the past: {at:?} < {:?}",
            self.now
        );
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc(seq, payload);
        self.heap.push(Entry::new(at, seq, slot));
        self.live += 1;
        EventId { seq, slot }
    }

    /// Schedule an event `delay` after the current time.
    pub fn schedule_in(&mut self, delay: crate::time::Duration, payload: E) -> EventId {
        let at = self.now + delay;
        self.schedule(at, payload)
    }

    /// Same as [`Scheduler::schedule_in`]; kept only because
    /// `benchmark/src/drills.rs` calls it.
    pub fn schedule_timer_in(&mut self, delay: crate::time::Duration, payload: E) -> EventId {
        self.schedule_in(delay, payload)
    }

    /// Cancel a scheduled event. Returns `true` if the event had not yet
    /// fired (or been cancelled). O(1): the payload is freed here; the
    /// stale key is dropped when it reaches the top of the heap.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slab.get_mut(id.slot as usize) {
            Some(cell) if cell.seq == id.seq && cell.payload.is_some() => {
                cell.payload = None;
                self.free.push(id.slot);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.pop_bounded(u64::MAX)
    }

    /// Pop the next event only if it fires at or before `deadline`.
    pub fn pop_before(&mut self, deadline: Time) -> Option<(Time, E)> {
        self.pop_bounded(deadline.0)
    }

    fn pop_bounded(&mut self, limit_us: u64) -> Option<(Time, E)> {
        self.settle();
        if self.heap.peek()?.at_us > limit_us {
            return None;
        }
        let entry = self.heap.pop().expect("peeked");
        let at = entry.at();
        debug_assert!(at >= self.now);
        self.now = at;
        self.fired += 1;
        self.live -= 1;
        let payload = self.reclaim(entry.slot);
        Some((at, payload))
    }

    /// Take a slot's payload and return the slot to the freelist.
    fn reclaim(&mut self, slot: u32) -> E {
        let payload = self.slab[slot as usize]
            .payload
            .take()
            .expect("entry that survives staleness checks owns its slot");
        self.free.push(slot);
        payload
    }

    /// Advance the clock to `t` without firing anything (used when a run
    /// ends before the queue drains).
    pub fn fast_forward(&mut self, t: Time) {
        if t > self.now {
            self.now = t;
        }
    }

    /// Is this key's event gone (cancelled, slot freed or reused)?
    #[inline]
    fn stale(&self, e: &Entry) -> bool {
        let cell = &self.slab[e.slot as usize];
        cell.seq != e.seq || cell.payload.is_none()
    }

    /// Drop stale keys off the top of the heap, so its head (if any) is
    /// the earliest pending event.
    fn settle(&mut self) {
        while self.heap.peek().is_some_and(|top| self.stale(top)) {
            self.heap.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    fn t(ms: u64) -> Time {
        Time::from_millis(ms)
    }

    #[test]
    fn fires_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(t(30), "c");
        s.schedule(t(10), "a");
        s.schedule(t(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn ties_fire_in_insertion_order() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.schedule(t(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn ties_across_classes_fire_in_insertion_order() {
        // The engine's event classes (packet hops, connection timers,
        // spec timers) share one queue and one sequence counter, so a
        // tie fires in scheduling order whichever call scheduled it.
        let mut s = Scheduler::new();
        s.schedule(t(5), 0);
        s.schedule_in(Duration::from_millis(5), 1);
        s.schedule(t(5), 2);
        s.schedule_in(Duration::from_millis(5), 3);
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
    }

    #[test]
    fn timer_and_packet_classes_interleave_in_time_order() {
        let mut s = Scheduler::new();
        s.schedule(t(50), "rto");
        s.schedule(t(10), "depart");
        s.schedule(t(20), "sweep");
        s.schedule(t(30), "arrive");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["depart", "sweep", "arrive", "rto"]);
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut s = Scheduler::new();
        s.schedule(t(10), ());
        s.schedule(t(25), ());
        assert_eq!(s.now(), Time::ZERO);
        s.pop();
        assert_eq!(s.now(), t(10));
        s.pop();
        assert_eq!(s.now(), t(25));
    }

    #[test]
    fn cancellation() {
        let mut s = Scheduler::new();
        let a = s.schedule(t(10), "a");
        s.schedule(t(20), "b");
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double cancel reports false");
        let (_, e) = s.pop().unwrap();
        assert_eq!(e, "b");
        assert!(s.pop().is_none());
    }

    #[test]
    fn timer_cancellation() {
        // The engine's re-arm: cancel the superseded firing, schedule
        // its replacement; only the replacement fires.
        let mut s = Scheduler::new();
        let a = s.schedule(t(10), "first");
        s.schedule(t(20), "other");
        assert!(s.cancel(a));
        assert!(!s.cancel(a), "double cancel reports false");
        let b = s.schedule(t(30), "rearmed");
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["other", "rearmed"]);
        assert!(!s.cancel(b), "fired event cannot be cancelled");
    }

    #[test]
    fn cancel_after_fire_reports_false() {
        let mut s = Scheduler::new();
        let a = s.schedule(t(1), "a");
        let b = s.schedule(t(2), "b");
        assert!(s.pop().is_some());
        assert!(s.pop().is_some());
        assert!(!s.cancel(a), "fired event cannot be cancelled");
        assert!(!s.cancel(b), "fired event cannot be cancelled");
    }

    #[test]
    fn pending_accounts_for_cancelled() {
        let mut s = Scheduler::new();
        let a = s.schedule(t(1), ());
        s.schedule(t(2), ());
        assert_eq!(s.pending(), 2);
        s.cancel(a);
        assert_eq!(s.pending(), 1);
        assert!(!s.is_empty());
        s.pop();
        assert!(s.is_empty());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut s = Scheduler::new();
        s.schedule(t(100), "base");
        s.pop();
        s.schedule_in(Duration::from_millis(50), "later");
        let (at, _) = s.pop().unwrap();
        assert_eq!(at, t(150));
    }

    /// Covers the forward `benchmark/src/drills.rs` calls.
    #[test]
    fn schedule_timer_in_is_relative() {
        let mut s = Scheduler::new();
        s.schedule(t(100), "base");
        s.pop();
        s.schedule_timer_in(Duration::from_millis(50), "later");
        let (at, _) = s.pop().unwrap();
        assert_eq!(at, t(150));
    }

    #[test]
    fn pop_before_respects_deadline() {
        let mut s = Scheduler::new();
        s.schedule(t(10), "a");
        s.schedule(t(30), "b");
        assert!(s.pop_before(t(20)).is_some());
        assert!(s.pop_before(t(20)).is_none());
        assert!(s.pop_before(t(30)).is_some());
    }

    #[test]
    fn pop_before_respects_deadline_for_timers() {
        // A timer re-armed past the deadline: its cancelled first
        // firing sits before the deadline and must not leak through.
        let mut s = Scheduler::new();
        let a = s.schedule(t(10), "a");
        s.cancel(a);
        s.schedule(t(30), "a'");
        assert!(s.pop_before(t(20)).is_none());
        assert_eq!(s.now(), Time::ZERO, "a refused pop leaves the clock");
        assert_eq!(s.pop_before(t(30)).map(|(_, e)| e), Some("a'"));
    }

    #[test]
    fn slab_slots_recycle() {
        let mut s = Scheduler::new();
        for round in 0..50u64 {
            for i in 0..10u64 {
                s.schedule(t(round * 100 + i), i);
            }
            while s.pop().is_some() {}
        }
        assert!(
            s.slab.len() <= 10,
            "slab bounded by peak pending, got {}",
            s.slab.len()
        );
        assert_eq!(s.free.len(), s.slab.len(), "all slots free when drained");
    }

    #[test]
    fn steady_cancellation_reclaims_memory_incrementally() {
        // The old tombstone set only purged when the heap fully
        // drained; a long scenario with steady cancel traffic grew it
        // without bound. Cancellation now frees payloads immediately
        // and stale keys are dropped on contact, so memory stays
        // bounded by the peak *live* population even though the
        // structures never drain.
        let mut s = Scheduler::new();
        for round in 0..10_000u64 {
            // One long-lived event keeps the queue permanently
            // non-empty; per round, schedule a timer and a packet and
            // cancel both.
            if round == 0 {
                s.schedule(t(10_000_000), 0);
            }
            let a = s.schedule(t(round + 1_000), 1);
            let b = s.schedule(t(round + 1_000), 2);
            s.cancel(a);
            s.cancel(b);
            if round % 7 == 0 {
                // Pops amortize the stale-key cleanup (this one
                // settles the heap and fires nothing).
                let _ = s.pop_before(Time::ZERO);
            }
        }
        assert_eq!(s.pending(), 1);
        assert!(
            s.slab.len() <= 8,
            "slab bounded by live population, got {}",
            s.slab.len()
        );
        assert!(
            s.heap.v.len() <= 16,
            "stale keys dropped on contact, got {}",
            s.heap.v.len()
        );
    }

    #[test]
    fn cancellation_correct_across_slot_reuse() {
        let mut s = Scheduler::new();
        let a = s.schedule(t(1), "a");
        s.cancel(a);
        assert!(s.pop().is_none(), "cancelled event never fires");
        // Slot reused by a fresh event; the old id must not kill it.
        let b = s.schedule(t(2), "b");
        assert!(!s.cancel(a), "stale id is inert after slot reuse");
        let fired: Vec<_> = std::iter::from_fn(|| s.pop()).map(|(_, e)| e).collect();
        assert_eq!(fired, vec!["b"]);
        let _ = b;
    }

    #[test]
    fn far_future_times_pop_in_order() {
        // Scheduled out of order, from 3 ms to 10^10 ms plus one key a
        // microsecond short of the end of time: the heap orders any
        // `u64` key exactly.
        let times = [
            Time::from_millis(3),
            Time::from_millis(200),
            Time::from_millis(7_000),
            Time::from_millis(500_000),
            Time::from_millis(40_000_000),
            Time::from_millis(10_000_000_000),
            Time(u64::MAX - 1),
        ];
        let mut s = Scheduler::new();
        for i in [4, 0, 6, 2, 5, 1, 3] {
            s.schedule(times[i], i);
        }
        let order: Vec<_> = std::iter::from_fn(|| s.pop()).collect();
        let expect: Vec<_> = times.iter().copied().zip(0..).collect();
        assert_eq!(order, expect);
    }

    #[test]
    fn event_scheduled_at_now_beats_an_earlier_scheduled_later_one() {
        let mut s = Scheduler::new();
        s.schedule(t(100), "far");
        s.schedule(t(50), "pkt");
        assert_eq!(s.pop().unwrap().1, "pkt");
        // now = 50 ms: an event at `now` fires before "far", which was
        // scheduled first but for later.
        s.schedule(s.now(), "immediate");
        assert_eq!(s.pop().unwrap(), (t(50), "immediate"));
        assert_eq!(s.pop().unwrap(), (t(100), "far"));
    }

    #[test]
    fn events_fired_counter() {
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.schedule(t(i), i);
        }
        while s.pop().is_some() {}
        assert_eq!(s.events_fired(), 10);
    }

    #[test]
    fn cancelled_events_never_count_as_fired() {
        let mut s = Scheduler::new();
        for i in 0..10u64 {
            let id = s.schedule(t(i + 1), i);
            if i % 2 == 0 {
                s.cancel(id);
            }
        }
        while s.pop().is_some() {}
        assert_eq!(s.events_fired(), 5);
    }

    #[test]
    fn fast_forward_moves_clock() {
        let mut s: Scheduler<()> = Scheduler::new();
        s.fast_forward(t(500));
        assert_eq!(s.now(), t(500));
        // fast-forward backwards is a no-op
        s.fast_forward(t(100));
        assert_eq!(s.now(), t(500));
    }
}
