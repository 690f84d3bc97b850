//! Proof that the serving fast path is allocation-free at steady state.
//!
//! Behind the `alloc-count` feature this binary installs a counting global
//! allocator and asserts that, once a [`elasticrec::ForwardWorkspace`] is
//! warm, a full sharded forward pass performs **zero** heap allocations —
//! the end-to-end guarantee the pooled buffers, `bucketize_into`, the
//! `gather_pool_into` kernel, and the MLP ping-pong scratch combine to
//! deliver. Run with:
//!
//! ```text
//! cargo test -p elasticrec --features alloc-count --test zero_alloc
//! ```
//!
//! The feature gate exists because a `#[global_allocator]` is
//! process-global: inside the shared test binary it would also count every
//! other test's churn. This file is its own integration-test crate, so the
//! allocator's scope is exactly these tests.

#![cfg(feature = "alloc-count")]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use elasticrec::ShardedDlrm;
use er_model::{configs, Dlrm, QueryGenerator};
use er_partition::PartitionPlan;
use er_sim::SimRng;

/// [`System`] with allocation/deallocation counters. `realloc` routes
/// through the default impl (alloc + copy + dealloc), so buffer growth is
/// always visible in `ALLOCS`.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

// GlobalAlloc is an unsafe trait; this impl only forwards to System and
// bumps counters.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations observed while running `f`.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCS.load(Ordering::Relaxed);
    f();
    ALLOCS.load(Ordering::Relaxed) - before
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
    assert!(DEALLOCS.load(Ordering::Relaxed) > 0);
}
