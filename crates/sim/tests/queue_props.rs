//! Property test: [`er_sim::EventQueue`] is observationally identical to
//! a straightforward reference model.
//!
//! The reference is a plain `BinaryHeap` of `(time, seq)` min-entries over
//! arbitrary interleaved schedule/pop programs. Delays are drawn from a
//! coarse grid so same-instant ties are common — exactly the case where
//! the queue's FIFO sequence tie-break (and therefore every simulation
//! digest in the repo) must hold.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use er_sim::EventQueue;
use proptest::prelude::*;

/// Reference future-event list: min-heap keyed by `(time bits, seq)`.
/// Times are non-negative finite, so `f64::to_bits` is order-preserving.
#[derive(Default)]
struct RefQueue {
    heap: BinaryHeap<Reverse<(u64, u64, u32)>>,
    seq: u64,
    now: f64,
}

impl RefQueue {
    fn schedule_in(&mut self, delay: f64, payload: u32) {
        let at = self.now + delay;
        self.heap.push(Reverse((at.to_bits(), self.seq, payload)));
        self.seq += 1;
    }

    fn pop(&mut self) -> Option<(f64, u32)> {
        let Reverse((bits, _, payload)) = self.heap.pop()?;
        self.now = f64::from_bits(bits);
        Some((self.now, payload))
    }
}

/// One program step: `pops` pops (drained lazily), then one scheduled
/// event at `delay_q / 4.0` seconds from now with payload `payload`.
fn step_strategy() -> impl Strategy<Value = (u8, u8, u32)> {
    (0u8..3, 0u8..8, 0u32..u32::MAX)
}

proptest! {
    /// Pops from the queue match the reference model bit-for-bit — times,
    /// payloads, and order — under arbitrary interleavings, including
    /// exact same-instant ties and full drains.
    #[test]
    fn pooled_queue_matches_reference_heap(
        steps in proptest::collection::vec(step_strategy(), 1..200),
    ) {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut r = RefQueue::default();
        for &(pops, delay_q, payload) in &steps {
            for _ in 0..pops {
                let got = q.pop();
                let want = r.pop();
                prop_assert_eq!(got.map(|(t, e)| (t.as_secs(), e)), want);
            }
            // The quantized grid makes exact (bitwise) time collisions
            // routine, exercising the seq tie-break.
            let delay = f64::from(delay_q) / 4.0;
            q.schedule_in(delay, payload);
            r.schedule_in(delay, payload);
        }
        while let Some(want) = r.pop() {
            let got = q.pop();
            prop_assert_eq!(got.map(|(t, e)| (t.as_secs(), e)), Some(want));
        }
        prop_assert!(q.pop().is_none());
    }
}
