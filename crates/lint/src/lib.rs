//! `er-lint` — dependency-free static analysis for the ElasticRec
//! workspace.
//!
//! The simulator's headline guarantees are *determinism invariants*: the
//! fast kernels are bit-identical to their naive oracles, the
//! discrete-event simulation replays exactly per seed, and float
//! reductions happen in one documented order. Property tests exercise
//! those guarantees; this crate enforces the coding rules they rest on, so
//! a violation is caught at lint time rather than as a flaky repro:
//!
//! | rule | scope | catches |
//! |------|-------|---------|
//! | `wall_clock` | deterministic paths + `er-bench` | `Instant::now` / `SystemTime::now` |
//! | `ambient_rng` | deterministic paths | `thread_rng`, `from_entropy`, `rand::random` |
//! | `env_io` | deterministic paths | `env::var` and friends |
//! | `hashmap_iter` | deterministic paths | iteration over `HashMap`/`HashSet` bindings |
//! | `no_panic` | serving hot path | panics *reachable through the call graph* from a public serving fn |
//! | `float_reduction` | serving minus blessed kernels | ad-hoc `sum::<f32>` / `product::<f32>` |
//! | `unit_mixing` | er-units adopter files | raw-f64 arithmetic on resource-named symbols |
//!
//! Scopes are path prefixes configured in `er-lint.toml` (see
//! [`Config`]); intentional exceptions carry a
//! `// lint::allow(rule): reason` marker. The repo is offline, so the
//! lexer is hand-rolled ([`lexer`]) — no `syn`, no dependencies at all.
//!
//! Phase 3 widens the lens to the whole workspace: `use`/`pub use`/glob
//! re-exports across all crates resolve into one symbol table
//! ([`resolve`]), and three dataflow rules run over the resulting
//! inter-crate call graph ([`graph`]) — `hot_alloc` (the warm serving
//! fast path reaches no allocation site; entries configured via
//! `hot_alloc_entries`, cross-checked against the dynamic `alloc-count`
//! test), cross-crate `no_panic`, and transitive `impure_handler` —
//! plus an `unused_allow` audit for markers that no longer suppress
//! anything. Violation counts ratchet against `er-lint-baseline.json`
//! ([`baseline`]): counts may only decrease, CI fails on any increase.
//! An incremental file-hash cache ([`cache`]) keeps the whole-workspace
//! pass fast enough for every ci.sh run.
//!
//! The analysis runs in two layers. Layer 1 ([`check_file`]) is the
//! per-file token scan; layer 2 ([`check_workspace`]) additionally
//! extracts per-file facts ([`facts`]), resolves them into the workspace
//! graph, and reports graph rules with the full call chain from the
//! entry point to the offending site — crate-qualified where the chain
//! crosses crates.
//!
//! # Examples
//!
//! ```
//! use er_lint::{check_file, Config, FileContext};
//!
//! let src = "fn now_ms() -> u128 { Instant::now().elapsed().as_millis() }";
//! let ctx = FileContext::new("crates/sim/src/time.rs", src);
//! let diags = check_file(&ctx, &Config::default());
//! assert_eq!(diags[0].rule, "wall_clock");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub, missing_docs)]

pub mod baseline;
pub mod cache;
pub mod config;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod walk;

pub use config::Config;
pub use facts::FileFacts;
pub use graph::{check_workspace, check_workspace_facts, hot_entry_drift};
pub use rules::{check_file, render_json, Diagnostic, FileContext, RULES};
