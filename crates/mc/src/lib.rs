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
//!   stabilization window, balancer counters exact across replica churn,
//!   convergence to the target replica count, and no node overcommit.
//!
//! The model calls the production pure handlers directly: the HPA and
//! the scheduler are the same `HpaPolicy::step` and
//! `er_cluster::place_pod` the simulation engine runs. Routing is
//! different: the engine sends each RPC to the pod that can start it
//! soonest and keeps no counters, while the model routes over
//! outstanding-request counters (`er_rpc::pure`), the balancer shape
//! property P3 checks.
//!
//! Seeded [`control::Mutation`]s deliberately break one handler at a time
//! to prove the checker catches real bugs with minimized traces; the
//! `er-mc` binary runs the catalog in CI and writes `target/er-mc.json`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub)]

pub mod checker;
pub mod control;
pub mod report;

pub use checker::{
    check, fingerprint, replay, Bounds, CheckReport, Model, Property, PropertyKind, Trace,
};
pub use control::{ControlPlane, CpAction, CpConfig, CpState, Mutation};
pub use report::render_json;
