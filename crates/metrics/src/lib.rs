//! Statistics primitives for the ElasticRec reproduction.
//!
//! This crate is the stand-in for the Prometheus metrics server used by the
//! paper (Section V-B): it provides the observables every experiment needs —
//! latency percentile histograms, windowed QPS estimation, running summaries,
//! and time series — without any external collector.
//!
//! # Examples
//!
//! ```
//! use er_metrics::Histogram;
//!
//! let mut h = Histogram::new();
//! for ms in [1.0, 2.0, 3.0, 100.0] {
//!     h.record(ms);
//! }
//! assert!(h.percentile(0.95) >= 3.0);
//! ```

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

mod histogram;
mod qps;
mod summary;
mod timeseries;

pub use histogram::Histogram;
pub use qps::QpsWindow;
pub use summary::Summary;
pub use timeseries::{TimePoint, TimeSeries};
