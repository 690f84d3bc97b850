//! `er-mc`: an explicit-state model checker for the ElasticRec control
//! plane.
//!
//! ElasticRec's wins come from fine-grained per-microservice autoscaling,
//! which makes the HPA × load balancer × scheduler × pod-startup
//! interactions the real product surface. This crate checks them the way
//! `stateright`-style systems do, with zero external dependencies:
//!
//! * a small [`checker`] doing bounded BFS/DFS over message interleavings
//!   with FNV fingerprint dedup, safety invariants, terminal-liveness
//!   checks, and minimal replayable counterexample traces;
//! * an [`actor`] shape (`fn on_msg(&State, Msg) -> (State, Vec<Out>)`)
//!   with adapters wrapping the *production* pure handlers —
//!   `HpaPolicy::step`, `er_rpc::pure`, and `er_cluster::place_pod` — so
//!   the simulation engine and the checker drive the exact same code;
//! * a composed [`control`] model exploring HPA decisions, scale
//!   deliveries, routing, completions, traffic steps, and pod startup
//!   against the property catalog ([`control::properties`]): no
//!   scale-down below serving capacity, no thrash inside the
//!   stabilization window, balancer counters exact across replica churn,
//!   convergence to the target replica count, and no node overcommit.
//!
//! Seeded [`control::Mutation`]s deliberately break one handler at a time
//! to prove the checker catches real bugs with minimized traces; the
//! `er-mc` binary runs the catalog in CI and writes `target/er-mc.json`.

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub)]

pub mod actor;
pub mod checker;
pub mod control;
pub mod report;

pub use actor::{Actor, BalancerActor, HpaActor, LbMsg, SchedulerActor};
pub use checker::{
    check, fingerprint, replay, Bounds, CheckReport, Model, Property, PropertyKind, Strategy, Trace,
};
pub use control::{ControlPlane, CpAction, CpConfig, CpState, Mutation};
pub use report::render_json;
