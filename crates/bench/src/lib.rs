//! Benchmark harness crate: every table and figure of the paper has a
//! corresponding bench target under `benches/`, plus reporting helpers
//! shared by those targets.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

pub mod perf;
pub mod report;
