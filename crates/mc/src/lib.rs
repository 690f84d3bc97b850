//! `er-mc`: an explicit-state model checker for the ElasticRec control
//! plane.
//!
//! ElasticRec's wins come from fine-grained per-microservice autoscaling,
//! which makes the HPA × load balancer × scheduler × pod-startup
//! interactions the real product surface. This crate checks them the way
//! `stateright`-style systems do, with zero external dependencies:
//!
//! * a small [`checker`] doing bounded BFS over message interleavings
//!   with FNV fingerprint dedup, safety invariants, terminal-liveness
//!   checks, and minimal replayable counterexample traces;
//! * a composed [`control`] model exploring HPA decisions, scale
//!   deliveries, routing, completions, traffic steps, and pod startup
//!   against the property catalog ([`control::properties`]): no
//!   scale-down below serving capacity, no thrash inside the
//!   stabilization window, every request routed to a live, ready pod at
//!   the soonest start any pod offers, convergence to the target replica
//!   count, and no node overcommit.
//!
//! The model calls the production pure handlers directly: the HPA, the
//! scheduler and the balancer are the same `HpaPolicy::step`,
//! `er_cluster::place_pod` and `er_cluster::soonest_start` the simulation
//! engine runs.
//!
//! Seeded [`control::Mutation`]s deliberately break one handler at a time
//! to prove the checker catches real bugs with minimized traces; the
//! `er-mc` binary runs the catalog in CI and writes `target/er-mc.json`.

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

pub mod checker;
pub mod control;
pub mod report;

pub use checker::{
    check, fingerprint, replay, Bounds, CheckReport, Model, Property, PropertyKind, Trace,
};
pub use control::{ControlPlane, CpAction, CpConfig, CpState, Mutation};
pub use report::render_json;
