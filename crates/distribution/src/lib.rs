//! Embedding-access distribution modeling for the ElasticRec reproduction.
//!
//! The paper's resource-allocation policy is driven entirely by the *skewed
//! access pattern* of embedding tables (Section III-B): a power-law where a
//! small set of hot entries receives most lookups. This crate provides
//!
//! * an analytic [`ZipfDistribution`] with closed-form CDF and inverse-CDF
//!   sampling, usable at the paper's 20M-entry scale,
//! * a [`LocalityTarget`] solver mapping the paper's locality metric `P`
//!   (fraction of accesses covered by the top 10% of entries, Section V-C)
//!   onto a Zipf exponent,
//! * an [`EmpiricalCdf`] built from observed access counts,
//! * hotness [`sorting`] (the Figure 8 table preprocessing step), and
//! * the synthetic [`datasets`] standing in for Amazon Books / Criteo /
//!   MovieLens (Figure 6).
//!
//! # Examples
//!
//! ```
//! use er_distribution::{AccessModel, LocalityTarget};
//!
//! // A 1M-entry table where the top 10% of entries draw 90% of accesses.
//! let zipf = LocalityTarget::new(0.90).solve(1_000_000);
//! assert!((zipf.cdf(100_000) - 0.90).abs() < 0.01);
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

pub mod datasets;
mod drift;
mod empirical;
mod locality;
mod model;
pub mod sorting;
mod zipf;

pub use drift::DriftedAccess;
pub use empirical::EmpiricalCdf;
pub use locality::LocalityTarget;
pub use model::AccessModel;
pub use zipf::{CdfTable, ZipfDistribution};
