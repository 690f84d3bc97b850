//! Simulated RPC fabric for the ElasticRec reproduction.
//!
//! In the paper, model shards communicate over C++ gRPC and queries are load
//! balanced by Linkerd (Section V-B). The experiments depend on two
//! properties of that stack: the *latency* an RPC hop adds (the paper
//! measures ~31 ms extra end-to-end latency on the CPU cluster and ~60 ms on
//! GKE) and the *spreading* of requests over shard replicas. This crate
//! models the latency: a [`NetworkProfile`] turns message sizes into
//! transfer latencies and [`messages`] sizes the DLRM request/response
//! payloads. Spreading requests over replicas is not modeled here: the
//! simulation engine and the `er-mc` control-plane checker both route each
//! RPC with `er_cluster::soonest_start`, the same pure pick.
//!
//! # Examples
//!
//! ```
//! use er_rpc::{messages, NetworkProfile};
//!
//! let net = NetworkProfile::ten_gbps();
//! let req = messages::embedding_request_bytes(32 * 128, 32);
//! let secs = net.transfer_secs(req);
//! assert!(secs > 0.0 && secs < 0.01);
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

pub mod messages;
mod network;

pub use network::NetworkProfile;
