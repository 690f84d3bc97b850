//! Simulated RPC fabric for the ElasticRec reproduction.
//!
//! In the paper, model shards communicate over C++ gRPC and queries are load
//! balanced by Linkerd (Section V-B). The experiments depend on two
//! properties of that stack: the *latency* an RPC hop adds (the paper
//! measures ~31 ms extra end-to-end latency on the CPU cluster and ~60 ms on
//! GKE) and the *spreading* of requests over shard replicas. This crate
//! models the latency: a [`NetworkProfile`] turns message sizes into
//! transfer latencies and [`messages`] sizes the DLRM request/response
//! payloads. The simulation engine spreads requests itself (each RPC goes
//! to the pod that can start it soonest, and no counters are kept);
//! [`pure`] holds the outstanding-counter routing model the `er-mc`
//! control-plane checker explores.
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

pub mod messages;
mod network;
pub mod pure;

pub use network::NetworkProfile;
