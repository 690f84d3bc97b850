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
//! | `float_reduction` | serving minus blessed kernels | ad-hoc `sum::<f32>` / `product::<f32>` |
//! | `unit_mixing` | er-units adopter files | raw-f64 arithmetic on resource-named symbols |
//! | `hot_alloc` | warm serving entries | allocation sites *reachable through the call graph* |
//! | `unused_allow` | every file | markers that suppress nothing; every marker in a test, bench, example or binary file |
//!
//! er-lint keeps only the checks rustc and clippy cannot make. The
//! wall-clock, environment, thread-local and `HashMap`/`HashSet` bans live
//! in the workspace `clippy.toml`; every library crate root denies
//! `unwrap`, `expect`, `panic!`, `todo!` and `unimplemented!` through
//! clippy's restriction lints; and ambient RNG and `static mut` do not
//! compile here (the `rand` stub exports no entropy source; `unsafe_code`
//! is denied).
//!
//! Scopes are path prefixes configured in `er-lint.toml` (see
//! [`Config`]); intentional exceptions carry a
//! `// lint::allow(rule): reason` marker. The repo is offline, so the
//! lexer is hand-rolled ([`lexer`]) — no `syn`, no dependencies at all.
//!
//! The analysis is one pass over the whole workspace. [`check_file`]
//! runs the per-file token rules over one lexed file. The fact extractor
//! ([`facts`]) records those diagnostics before marker suppression, plus
//! every function, call, allocation site and `use` declaration.
//! [`check_workspace`] resolves the facts of every file into one
//! inter-crate call graph ([`resolve`]) and runs the graph rules over it
//! ([`graph`]): `hot_alloc` (the warm serving fast path reaches no
//! allocation site; entries configured via `hot_alloc_entries`,
//! cross-checked against the dynamic `zero_alloc` test), and an
//! `unused_allow` audit for markers that no longer suppress anything. Graph diagnostics carry the full call chain from the entry
//! point to the offending site — crate-qualified where the chain crosses
//! crates.
//!
//! # Examples
//!
//! ```
//! use er_lint::facts::extract_facts;
//! use er_lint::{check_file, check_workspace, Config, FileContext};
//!
//! let cfg = Config::default();
//! let src = "fn total(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }";
//! let ctx = FileContext::new("crates/model/src/pool.rs", src);
//! let diags = check_file(&ctx, &cfg);
//! assert_eq!(diags[0].rule, "float_reduction");
//!
//! // `hot_alloc` follows calls, so it needs the workspace pass.
//! let src = "pub fn forward_ws(n: usize) -> usize { grow(n) }
//!            fn grow(n: usize) -> usize { vec![0u8; n].len() }";
//! let facts = [extract_facts(&FileContext::new("crates/core/src/fast.rs", src), &cfg)];
//! let diags = check_workspace(&facts, &cfg);
//! assert_eq!(diags[0].rule, "hot_alloc");
//! assert_eq!(diags[0].chain, ["forward_ws", "grow"]);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub, missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod config;
pub mod facts;
pub mod graph;
pub mod lexer;
pub mod resolve;
pub mod rules;
pub mod walk;

pub use config::Config;
pub use facts::FileFacts;
pub use graph::{check_workspace, hot_entry_drift};
pub use rules::{check_file, Diagnostic, FileContext, RULES};
