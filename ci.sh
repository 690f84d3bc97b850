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

# er-lint writes the machine-readable report to target/er-lint.json and a
# per-rule summary row (rule=count) to stderr, which lands in the CI log.
# Any diagnostic exits nonzero and fails the stage. er-lint.toml puts
# crates/lint and crates/units in the serving scope, so the tooling is
# held to the serving-path rules by this same stage.
er_lint_json() {
    mkdir -p target
    cargo run --release -q -p er-lint -- --format json . > target/er-lint.json
}

run_stage "fmt" cargo fmt --check
# clippy.toml holds the ambient-input bans (wall clock, std::env, thread_local!).
run_stage "clippy" cargo clippy --workspace --all-targets -- -D warnings
run_stage "er-lint" er_lint_json
# Every tests/fixtures/*_bad.rs must yield exactly its expected findings.
run_stage "er-lint fixtures" cargo test -q -p er-lint --test rule_fixtures
# The static hot_alloc proof and the dynamic counting-allocator test must
# cover the same entry points (both drive forward_ws), and every entry in
# er-lint.toml's hot_alloc_entries must still name a real function.
run_stage "hot-alloc sync" cargo test -q -p er-lint --test hot_alloc_sync
run_stage "build (tier-1)" cargo build --release
# perfbench/ is its own workspace, so tier-1 never builds it. Building it
# against its committed lockfile fails on a public API change perfbench
# calls and on a dependency change that would rewrite perfbench/Cargo.lock.
run_stage "build perfbench (locked)" cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
run_stage "test (tier-1)" cargo test -q
# The warm-workspace forward pass must stay allocation-free (its own test
# binary: the counting global allocator is process-wide).
run_stage "test zero-alloc" cargo test -q -p elasticrec --features alloc-count --test zero_alloc
# CI-sized perf run: exercises the suite end to end, validates the emitted
# JSON schema, and writes target/BENCH_perf_smoke.json. Timings at smoke
# scale are noise — the full run is `cargo run --release -p er-bench --bin
# perfsuite`.
run_stage "perfsuite smoke" ./target/release/perfsuite --smoke
# The quantized data plane's contract: every available SIMD backend
# produces bit-identical f32, f16 and i8 gathers and decodes all 2^16 f16
# bit patterns as the software converter does, every SIMD rung encodes
# all 2^32 f32 bit patterns as `f16_from_f32` does (the scalar rung is
# that converter), and f16/i8 gathers stay inside their analytic error
# bounds (unavailable backends are logged as skipped).
run_stage "quant parity" ./target/release/perfsuite --quant-parity
# Full-scale digests and paired speed floors: every section, fleet_par
# included, must match the digest committed in BENCH_perf.json (a section
# missing from it fails the stage too), and every paired ratio in
# perf::FLOORS must reach its floor: the median, over interleaved rounds
# in this same run, of an in-process reference's wall over the kernel's
# (i8 vs f32 gather, packed vs naive matmul, the detected SIMD rung vs the
# scalar f16 gather, route words vs plan cuts). Only names and digests are
# read from BENCH_perf.json; the report lands in target/, leaving it as is.
run_stage "perfsuite digests" ./target/release/perfsuite --fleet --baseline BENCH_perf.json --out target/BENCH_perf.json
# The control plane's contract: er-mc exhaustively explores the documented
# CI bound (2 deployments x 3 replicas x 6 traffic steps) breadth-first over
# the same pure HPA, placement and soonest-start routing handlers the
# engine runs, hard-failing on any counterexample. The machine-readable report lands at
# target/er-mc.json (er-lint-style schema).
run_stage "er-mc" ./target/release/er-mc --format json --out target/er-mc.json

echo
echo "CI OK"
