//! The event queue at the heart of the discrete-event engine.
//!
//! A thin wrapper over [`std::collections::BinaryHeap`] that fixes the
//! ordering contract every simulation digest depends on: strict
//! `(at, seq)` min-order, so simultaneous events pop in the order they
//! were scheduled and runs are reproducible bit-for-bit. The wrapper also
//! rejects scheduling into the past. A simulation in steady state (pop
//! one, schedule one) allocates nothing, because the heap reuses its
//! `Vec` capacity.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::SimTime;

/// A pending event, ordered by its `(time bits, schedule sequence)` key
/// only. A schedulable time is finite and at least `+0.0` (`-0.0` sorts
/// below [`SimTime::ZERO`], so it is in the past), and for those the
/// integer order of the bits equals the numeric order.
/// Sequences are unique and a `u64` cannot wrap, so two entries never
/// compare equal and the order is total — the root of the determinism
/// argument.
struct Entry<E> {
    key: (u64, u64),
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic future-event list, generic over the user's event type.
///
/// Events scheduled for the same instant pop in the order they were
/// scheduled, making simulations reproducible run-to-run.
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
    heap: BinaryHeap<Reverse<Entry<E>>>,
    now: SimTime,
    seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        Self {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
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
        let key = (at.as_secs().to_bits(), self.seq);
        self.seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
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
    /// Returns `None` when the simulation has run dry.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(Entry { key, event }) = self.heap.pop()?;
        self.now = SimTime::from_secs(f64::from_bits(key.0));
        Some((self.now, event))
    }

    /// Number of events waiting to fire.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("now", &self.now)
            .field("pending", &self.heap.len())
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
}
