//! Proof that the serving fast path is allocation-free at steady state.
//!
//! Behind the `alloc-count` feature this binary installs a counting global
//! allocator and asserts that, once a [`elasticrec::ForwardWorkspace`] is
//! warm, a full sharded forward pass performs **zero** heap allocations —
//! the end-to-end guarantee the pooled buffers, `bucketize_into`, the
//! `gather_pool_into` kernel, and the MLP ping-pong scratch combine to
//! deliver. It also asserts that a warm [`er_sim::EventQueue`] churns
//! (pop one, schedule one) without allocating. Run with:
//!
//! ```text
//! cargo test -p elasticrec --features alloc-count --test zero_alloc
//! ```
//!
//! The feature gate exists because a `#[global_allocator]` is
//! process-global: inside the shared test binary it would instrument every
//! other test. This file is its own integration-test crate, so the
//! allocator's scope is exactly these tests.

#![cfg(feature = "alloc-count")]
// The counting allocator keeps per-thread counters; clippy checks
// `thread_local!` only at crate level, so the allow is crate-wide here.
#![allow(clippy::disallowed_macros)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::thread::LocalKey;

use elasticrec::ShardedDlrm;
use er_model::{configs, Dlrm, QueryGenerator};
use er_partition::PartitionPlan;
use er_sim::{EventQueue, SimRng};

/// [`System`] with per-thread allocation/deallocation counters. `realloc`
/// routes through the default impl (alloc + copy + dealloc), so buffer
/// growth is always visible in `ALLOCS`. Counting per thread keeps the
/// test harness and tests running on other threads out of every measured
/// window.
struct CountingAlloc;

// A const-initialised `Cell<u64>` needs no lazy init and no destructor,
// so touching it inside the allocator cannot allocate or recurse.
std::thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static DEALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static LocalKey<Cell<u64>>) {
    // Fails only during thread teardown, which no test measures.
    let _ = counter.try_with(|c| c.set(c.get() + 1));
}

// GlobalAlloc is an unsafe trait; this impl only forwards to System and
// bumps counters.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCS);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&DEALLOCS);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations this thread makes while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.get();
    f();
    ALLOCS.get() - before
}

fn build_sharded(rows: u64, tables: usize) -> (er_model::ModelConfig, ShardedDlrm) {
    let cfg = configs::rm1().scaled_tables(rows).with_num_tables(tables);
    let model = Dlrm::with_seed(&cfg, 11);
    let counts: Vec<Vec<u64>> = (0..tables)
        .map(|t| {
            (0..rows)
                .map(|i| ((i * 7919 + t as u64 * 31) % rows) + 1)
                .collect()
        })
        .collect();
    let plans = vec![PartitionPlan::new(vec![rows / 10, rows / 2, rows], rows).unwrap(); tables];
    let sharded = ShardedDlrm::new(model, &counts, plans).unwrap();
    (cfg, sharded)
}

#[test]
fn warm_workspace_forward_performs_zero_allocations() {
    let (cfg, sharded) = build_sharded(400, 3);
    let gen = QueryGenerator::new(&cfg);
    let mut rng = SimRng::seed_from(5);
    let queries: Vec<_> = (0..4).map(|_| gen.generate(&mut rng)).collect();

    let mut ws = sharded.workspace();
    // Warmup: buffers grow to the workload's peak shapes here.
    for q in &queries {
        let _ = sharded.forward_ws(q, &mut ws);
    }

    for (i, q) in queries.iter().enumerate() {
        let n = allocs_during(|| {
            let out = sharded.forward_ws(q, &mut ws);
            assert_eq!(out.rows(), q.batch_size());
        });
        assert_eq!(n, 0, "steady-state forward pass {i} allocated {n} times");
    }
}

#[test]
fn allocating_oracle_path_is_visible_to_the_counter() {
    // Sanity-check the instrument itself: `forward` builds and grows a
    // fresh workspace per call, which must register plenty of traffic, or
    // a zero above would be vacuous.
    let (cfg, sharded) = build_sharded(400, 3);
    let q = QueryGenerator::new(&cfg).generate(&mut SimRng::seed_from(9));
    let n = allocs_during(|| {
        let _ = sharded.forward(&q);
    });
    assert!(n > 10, "expected the allocating path to allocate, saw {n}");
    assert!(DEALLOCS.get() > 0);
}

#[test]
fn warm_event_queue_churn_performs_zero_allocations() {
    // The simulator's steady state: a deep future-event list where every
    // popped event schedules one more. Warm-up grows the heap to its
    // high-water depth; after that the churn must reuse its capacity.
    const DEPTH: u64 = 4096;
    let mut q = EventQueue::new();
    let mut rng = SimRng::seed_from(7);
    for i in 0..DEPTH {
        q.schedule_in(rng.uniform() * 10.0, i);
    }
    let n = allocs_during(|| {
        for i in 0..100_000 {
            let (_, ev) = q.pop().expect("queue holds DEPTH pending events");
            assert!(ev < DEPTH + 100_000);
            q.schedule_in(rng.uniform() * 10.0, DEPTH + i);
        }
    });
    assert_eq!(n, 0, "warm event-queue churn allocated {n} times");
    assert_eq!(q.len() as u64, DEPTH);
}
