#!/usr/bin/env bash
# Local CI gate. Stages run in order and the script exits nonzero at the
# first failure; a summary table of every stage's outcome prints on exit.
# Usage: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

STAGE_NAMES=()
STAGE_RESULTS=()

summary() {
    echo
    echo "==== CI stage summary ===="
    printf '%-28s %s\n' "stage" "result"
    printf '%-28s %s\n' "-----" "------"
    for i in "${!STAGE_NAMES[@]}"; do
        printf '%-28s %s\n' "${STAGE_NAMES[$i]}" "${STAGE_RESULTS[$i]}"
    done
}
trap summary EXIT

run_stage() {
    local name="$1"
    shift
    STAGE_NAMES+=("$name")
    STAGE_RESULTS+=("FAIL")
    echo "==> $name: $*"
    "$@"
    STAGE_RESULTS[${#STAGE_RESULTS[@]}-1]="ok"
}

run_stage "fmt" cargo fmt --check
# clippy.toml holds the ambient-input bans (wall clock, std::env,
# thread_local!) and the HashMap/HashSet ban; every crates/*/src/lib.rs
# denies unwrap, expect, panic!, todo!, unimplemented! and an allow without
# a reason. An intentional panic site carries #[expect(clippy::..., reason)],
# which fails this stage once the site no longer panics.
run_stage "clippy" cargo clippy --workspace --all-targets -- -D warnings
# er-lint prints one line per diagnostic and a per-rule summary row
# (rule=count) to stderr; any diagnostic exits nonzero and fails the
# stage. er-lint keeps only what clippy cannot check: ordered f32
# reductions, unit mixing, the hot_alloc call-graph proof and stale allow
# markers. er-lint.toml puts crates/lint and crates/units in the serving
# scope, so the tooling is held to the serving-path rules by this same
# stage. Its rule fixtures and the hot_alloc/zero_alloc sync check are
# tier-1 tests.
run_stage "er-lint" cargo run --release -q -p er-lint -- .
run_stage "build (tier-1)" cargo build --release
# Every figure, ablation and extension bench asserts its shapes and the numbers EXPERIMENTS.md quotes.
run_stage "paper figures" cargo bench -q -p er-bench --benches
# perfbench/ is its own workspace, so tier-1 never builds it. Building it
# against its committed lockfile fails on a public API change perfbench
# calls and on a dependency change that would rewrite perfbench/Cargo.lock.
run_stage "build perfbench (locked)" cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
# Every workspace test target: the er-lint rule fixtures, the
# hot_alloc/zero_alloc sync check, the zero-allocation proof, the pinned
# smoke-scale perfsuite digests and the backend-parity and quantization
# error-bound tests among them.
run_stage "test (tier-1)" cargo test -q
# Full-scale digests and paired speed floors: every section, the
# 1000-node fleet_par included, must match the digest committed in BENCH_perf.json (a section
# missing from it fails the stage too), and every paired ratio in
# perf::FLOORS must reach its floor: the median, over interleaved rounds
# in this same run, of an in-process reference's wall over the kernel's
# (i8 vs f32 gather, packed vs naive matmul, the detected SIMD rung vs the
# scalar f16 gather, route words vs plan cuts). Only names and digests are
# read from BENCH_perf.json; the report lands in target/, leaving it as is.
# After the timed sections the run checks every SIMD rung's f16 encode
# against f16_from_f32 on all 2^32 f32 bit patterns (the scalar rung is
# that converter; unavailable rungs are logged as skipped).
run_stage "perfsuite digests" ./target/release/perfsuite --baseline BENCH_perf.json --out target/BENCH_perf.json
# The control plane's contract: er-mc exhaustively explores the documented
# CI bound (2 deployments x 3 replicas x 6 traffic steps) breadth-first over
# the same pure HPA, placement and soonest-start routing handlers the
# engine runs, hard-failing on any counterexample, each printed as a
# minimized trace.
run_stage "er-mc" ./target/release/er-mc

echo
echo "CI OK"
