//! Query traffic generation and SLA accounting for RecSys serving.
//!
//! The paper drives its clusters with batched queries (batch 32, Section
//! V-C) under a 400 ms p95 SLA and, for the Figure 19 experiment, a stepped
//! traffic schedule. This crate provides the [`TrafficSchedule`] (piecewise
//! constant target QPS), a Poisson [`ArrivalProcess`] over the schedule,
//! and the [`SlaConfig`] used to judge tail latency.
//!
//! # Examples
//!
//! ```
//! use er_workload::{ArrivalProcess, TrafficSchedule};
//! use er_sim::SimRng;
//!
//! let schedule = TrafficSchedule::constant(100.0);
//! let mut arrivals = ArrivalProcess::new(schedule, SimRng::seed_from(1));
//! let first = arrivals.next_arrival(0.0).unwrap();
//! assert!(first > 0.0 && first < 1.0); // ~10 ms mean gap at 100 QPS
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

mod arrivals;
mod schedule;
mod sla;

pub use arrivals::ArrivalProcess;
pub use schedule::TrafficSchedule;
pub use sla::SlaConfig;
