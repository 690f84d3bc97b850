//! The event queue at the heart of the discrete-event engine.
//!
//! Implemented as a *pooled index-heap*: event payloads live in a slab of
//! recycled slots, and the heap itself is a flat `Vec<u32>` of slot handles
//! ordered by `(time, sequence)`. Popping an event returns its slot to a
//! free list instead of dropping the storage, so a simulation in steady
//! state (pop one, schedule one) performs **zero heap allocations** after
//! the pool reaches its high-water mark — the discrete-event engine's inner
//! loop stops paying the allocator.
//!
//! The ordering contract is identical to the previous `BinaryHeap`-based
//! implementation: strict `(at, seq)` min-order, so simultaneous events pop
//! in the order they were scheduled and runs are reproducible bit-for-bit.

use crate::SimTime;

/// Heap fan-out. Four children per node halves the depth of a binary heap;
/// the pop path (the dominant operation in a simulation, where every
/// scheduled event is eventually popped) walks half as many levels, and the
/// extra per-level comparisons stay within one or two cache lines.
const ARITY: usize = 4;

/// A heap entry packed into a single `u128`:
///
/// ```text
/// bits 127..64   time as f64 bit pattern (non-negative finite, so the
///                integer order of the bits equals the numeric order)
/// bits  63..32   32-bit schedule sequence (FIFO tie-break)
/// bits  31..0    slot handle into the payload slab
/// ```
///
/// Because the key occupies the high bits in `(time, seq)` significance
/// order, plain `u128` comparison *is* the `(at, seq)` heap order — one
/// integer compare instead of a float compare plus a tie-break branch, and
/// the entry shrinks from 24 to 16 bytes so a 4-ary sibling group spans a
/// single cache line. `seq` values are unique among pending entries (the
/// counter renumbers before wrapping), so two distinct entries never
/// compare equal and the order is total — the root of the determinism
/// argument. The slot bits sit below `seq` and therefore never influence
/// the outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct HeapEntry(u128);

impl HeapEntry {
    #[inline]
    fn new(at: SimTime, seq: u32, slot: u32) -> Self {
        let bits =
            (u128::from(at.as_secs().to_bits()) << 64) | (u128::from(seq) << 32) | u128::from(slot);
        HeapEntry(bits)
    }

    #[inline]
    fn at(self) -> SimTime {
        // Entries are only built from valid instants, so the bit pattern
        // round-trips through the constructor's validity check.
        SimTime::from_secs(f64::from_bits((self.0 >> 64) as u64))
    }

    #[inline]
    fn slot(self) -> u32 {
        self.0 as u32
    }
}

/// A deterministic future-event list, generic over the user's event type.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, making simulations reproducible run-to-run. In steady state
/// (interleaved schedule/pop at a stable pending depth) the queue allocates
/// nothing: popped slots are recycled through a free list and the handle
/// heap reuses its capacity.
///
/// # Examples
///
/// ```
/// use er_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule_in(1.0, "later");
/// q.schedule_in(0.5, "sooner");
/// assert_eq!(q.pop().unwrap().1, "sooner");
/// assert_eq!(q.now(), SimTime::from_secs(0.5));
/// ```
pub struct EventQueue<E> {
    /// Slab of event payloads, indexed by the handles stored in `heap`.
    /// `None` marks a recycled slot sitting on the free list.
    slots: Vec<Option<E>>,
    /// Recycled slot handles available for the next `schedule`.
    free: Vec<u32>,
    /// 4-ary min-heap ordered by the packed `(at, seq)` key.
    heap: Vec<HeapEntry>,
    now: SimTime,
    seq: u32,
    processed: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue with room for `capacity` pending events
    /// before the pool or heap must grow.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            heap: Vec::with_capacity(capacity),
            now: SimTime::ZERO,
            seq: 0,
            processed: 0,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or zero before any event fires).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current simulated time — the past is
    /// immutable in a discrete-event simulation.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event in the past (at={at}, now={})",
            self.now
        );
        if self.seq == u32::MAX {
            self.renumber();
        }
        let seq = self.seq;
        self.seq += 1;
        let slot = match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = Some(event);
                h
            }
            None => {
                // lint::allow(no_panic): documented capacity limit of the u32 handle space
                let h = u32::try_from(self.slots.len()).expect("event pool exceeds u32 handles");
                self.slots.push(Some(event));
                h
            }
        };
        self.sift_up(HeapEntry::new(at, seq, slot));
    }

    /// Compacts the 32-bit sequence space when the counter is about to
    /// wrap: pending entries are reassigned `0..n` in their current
    /// `(time, seq)` order, which preserves every FIFO relationship, and
    /// the counter restarts above them. Runs once every ~4 billion
    /// schedules, costs one sort of the *pending* set (typically tiny
    /// relative to total throughput), and keeps the packed key at 16
    /// bytes instead of paying for a 64-bit sequence on every compare.
    #[cold]
    fn renumber(&mut self) {
        // A sorted array satisfies the d-ary heap property for every d,
        // so the heap invariant is re-established for free.
        self.heap.sort_unstable();
        for (i, e) in self.heap.iter_mut().enumerate() {
            // Heap length is bounded by the u32 slot-handle space checked
            // in `schedule`.
            // lint::allow(no_panic): heap len fits u32 (checked in schedule)
            let seq = u32::try_from(i).expect("pending events exceed u32 sequence space");
            *e = HeapEntry::new(e.at(), seq, e.slot());
        }
        // lint::allow(no_panic): heap len fits u32 (checked in schedule)
        let len = u32::try_from(self.heap.len()).expect("pending events exceed u32 sequence space");
        self.seq = len;
    }

    /// Schedules `event` to fire `delay` seconds from now.
    ///
    /// # Panics
    ///
    /// Panics if `delay` is negative or not finite.
    pub fn schedule_in(&mut self, delay: f64, event: E) {
        assert!(
            delay.is_finite() && delay >= 0.0,
            "delay must be finite and non-negative, got {delay}"
        );
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest pending event, advancing the clock to its timestamp.
    /// Returns `None` when the simulation has run dry. The popped slot is
    /// recycled, not freed.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let top = *self.heap.first()?;
        // lint::allow(no_panic): first() above proves the heap is non-empty
        let last = self.heap.pop().expect("heap is non-empty");
        if !self.heap.is_empty() {
            self.sift_down(last);
        }
        let event = self.slots[top.slot() as usize]
            .take()
            // lint::allow(no_panic): heap handles always point at occupied slots
            .expect("heap handles always reference occupied slots");
        self.free.push(top.slot());
        let at = top.at();
        self.now = at;
        self.processed += 1;
        Some((at, event))
    }

    /// Number of events waiting to fire.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events popped so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Size of the slot pool — the high-water mark of simultaneously
    /// pending events. Steady-state operation never grows it.
    pub fn pool_slots(&self) -> usize {
        self.slots.len()
    }

    /// Pushes `entry` with hole insertion: parents slide down until the
    /// entry's position is found, writing each element once instead of
    /// swapping pairwise.
    #[inline]
    fn sift_up(&mut self, entry: HeapEntry) {
        let mut pos = self.heap.len();
        self.heap.push(entry);
        while pos > 0 {
            let parent = (pos - 1) / ARITY;
            if entry < self.heap[parent] {
                self.heap[pos] = self.heap[parent];
                pos = parent;
            } else {
                break;
            }
        }
        self.heap[pos] = entry;
    }

    /// Re-inserts `entry` (the displaced last element) from the root down,
    /// sliding the smallest child up into the hole at each level. With four
    /// children per node the tree is half as deep as a binary heap, trading
    /// a few extra (contiguous, cache-resident) comparisons per level for
    /// half the dependent cache-line hops on the pop path.
    ///
    /// Interior levels (a full group of four siblings, the overwhelmingly
    /// common case on a deep heap) take an unrolled min-of-four over plain
    /// `u128`s — four loads and three conditional moves, no loop counter
    /// and one bounds check. Only the frontier group at the very bottom
    /// falls back to a short scan.
    #[inline]
    fn sift_down(&mut self, entry: HeapEntry) {
        let len = self.heap.len();
        let mut pos = 0;
        loop {
            let first = ARITY * pos + 1;
            if first + ARITY <= len {
                // Full sibling group: one slice covers all four children.
                let g = &self.heap[first..first + ARITY];
                let mut child = first;
                let mut best = g[0];
                if g[1] < best {
                    best = g[1];
                    child = first + 1;
                }
                if g[2] < best {
                    best = g[2];
                    child = first + 2;
                }
                if g[3] < best {
                    best = g[3];
                    child = first + 3;
                }
                if best < entry {
                    self.heap[pos] = best;
                    pos = child;
                    continue;
                }
            } else if first < len {
                // Partial group at the frontier; its children cannot exist.
                let kids = &self.heap[first..len];
                let mut child = first;
                let mut best = kids[0];
                for (i, &k) in kids.iter().enumerate().skip(1) {
                    if k < best {
                        best = k;
                        child = first + i;
                    }
                }
                if best < entry {
                    self.heap[pos] = best;
                    pos = child;
                }
            }
            break;
        }
        self.heap[pos] = entry;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
            .field("pool_slots", &self.slots.len())
            .field("processed", &self.processed)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_pop_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(3.0), 'c');
        q.schedule(SimTime::from_secs(1.0), 'a');
        q.schedule(SimTime::from_secs(2.0), 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
        assert_eq!(q.processed(), 3);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule_in(5.0, ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(5.0));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule_in(1.0, "first");
        q.pop();
        q.schedule_in(1.0, "second");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs(2.0));
    }

    #[test]
    fn peek_does_not_advance_clock() {
        let mut q = EventQueue::new();
        q.schedule_in(2.0, ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn empty_queue_pops_none() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_in(10.0, ());
        q.pop();
        q.schedule(SimTime::from_secs(5.0), ());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_delay_panics() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.schedule_in(-1.0, ());
    }

    #[test]
    fn steady_state_churn_recycles_slots() {
        let mut q = EventQueue::new();
        for i in 0..64 {
            q.schedule_in(i as f64, i);
        }
        let high_water = q.pool_slots();
        assert_eq!(high_water, 64);
        // Pop one / push one for many iterations: the pool must not grow.
        for i in 0..10_000u64 {
            let (_, _) = q.pop().expect("queue stays at depth 64");
            q.schedule_in(100.0, i);
            assert_eq!(q.pool_slots(), high_water);
            assert_eq!(q.len(), 64);
        }
    }

    #[test]
    fn drained_queue_reuses_its_pool() {
        let mut q = EventQueue::new();
        for round in 0..5 {
            for i in 0..32 {
                q.schedule_in(i as f64, (round, i));
            }
            while q.pop().is_some() {}
            assert_eq!(q.pool_slots(), 32, "pool grew on round {round}");
        }
        assert_eq!(q.processed(), 5 * 32);
    }

    #[test]
    fn interleaved_schedule_pop_preserves_global_order() {
        // Schedule in bursts while popping, with deliberate ties: the popped
        // sequence must still be globally sorted by (time, schedule order).
        let mut q = EventQueue::new();
        let mut popped: Vec<(SimTime, u64)> = Vec::new();
        let mut next_id = 0u64;
        for burst in 0..50 {
            for k in 0..7 {
                // Ties within and across bursts: only 5 distinct times.
                let t = f64::from((burst + k) % 5);
                q.schedule(q.now() + t, next_id);
                next_id += 1;
            }
            for _ in 0..5 {
                if let Some(p) = q.pop() {
                    popped.push(p);
                }
            }
        }
        while let Some(p) = q.pop() {
            popped.push(p);
        }
        assert_eq!(popped.len(), 50 * 7);
        for w in popped.windows(2) {
            assert!(
                w[0].0 <= w[1].0,
                "time went backwards: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn sequence_renumber_preserves_fifo_order() {
        // Drive the 32-bit sequence counter to its wrap point with ties
        // pending, then keep scheduling: events on both sides of the
        // renumber must still pop in global (time, schedule order).
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1.0);
        for i in 0..10 {
            q.schedule(t, i);
        }
        q.seq = u32::MAX; // next schedule triggers renumbering
        for i in 10..20 {
            q.schedule(t, i);
        }
        assert!(q.seq < u32::MAX, "counter compacted: {}", q.seq);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn renumber_respects_time_order_across_mixed_times() {
        let mut q = EventQueue::new();
        for i in 0..32u32 {
            // Five distinct times, heavy ties, scheduled out of order.
            q.schedule(SimTime::from_secs(f64::from(i % 5)), i);
            if i == 15 {
                q.seq = u32::MAX; // renumber mid-stream
            }
        }
        let popped: Vec<(f64, u32)> =
            std::iter::from_fn(|| q.pop().map(|(t, e)| (t.as_secs(), e))).collect();
        assert_eq!(popped.len(), 32);
        // Globally sorted by time; FIFO within each instant.
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0);
            if w[0].0 == w[1].0 {
                assert!(w[0].1 < w[1].1, "FIFO broken: {:?} then {:?}", w[0], w[1]);
            }
        }
    }

    #[test]
    fn with_capacity_preallocates() {
        let mut q: EventQueue<u32> = EventQueue::with_capacity(16);
        assert_eq!(q.pool_slots(), 0);
        for i in 0..16 {
            q.schedule_in(1.0, i);
        }
        assert_eq!(q.pool_slots(), 16);
        assert_eq!(q.len(), 16);
    }
}
