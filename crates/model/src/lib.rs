//! DLRM — the deep learning recommendation model served by ElasticRec.
//!
//! The paper deploys Meta's DLRM (Figure 1): dense continuous features pass
//! through a *bottom MLP*; sparse categorical features index *embedding
//! tables* whose gathered vectors are *pooled*; a pairwise-dot *feature
//! interaction* combines both; and a *top MLP* produces the click
//! probability. This crate implements the full functional model on
//! [`er_tensor`] kernels plus exact FLOP/byte accounting, and carries the
//! paper's workload configurations (Tables I and II).
//!
//! # Examples
//!
//! ```
//! use er_model::{configs, Dlrm};
//!
//! let cfg = configs::rm1().scaled_tables(1_000); // shrink tables for a demo
//! let model = Dlrm::with_seed(&cfg, 42);
//! assert_eq!(model.config().name, "RM1");
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub)]

pub mod configs;
mod dlrm;
mod embedding;
mod flops;
mod interaction;
mod query;

pub use configs::{EmbeddingTableConfig, MicrobenchGrid, MlpSize, ModelConfig};
pub use dlrm::Dlrm;
pub use embedding::EmbeddingTable;
pub use flops::{dense_phase_flops, CostBreakdown, LayerCosts};
pub use interaction::{dot_interaction, dot_interaction_into};
pub use query::{AccessCounter, LookupError, QueryBatch, QueryGenerator, TableLookup};
