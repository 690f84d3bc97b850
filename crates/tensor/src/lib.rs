//! Minimal dense linear algebra for the ElasticRec reproduction.
//!
//! The paper builds its models with libtorch; this crate supplies the small
//! subset a DLRM needs — a row-major [`Matrix`], fully-connected
//! [`Linear`] layers, activations, and an [`Mlp`] stack — together with exact
//! FLOP accounting so the Figure 3 compute/memory breakdown can be computed
//! from first principles rather than estimated.
//!
//! # Examples
//!
//! ```
//! use er_tensor::{Activation, Matrix, Mlp};
//!
//! // The RM1 bottom MLP: 13 dense features -> 256 -> 128 -> 32.
//! let mlp = Mlp::with_seed(13, &[256, 128, 32], Activation::Relu, 42);
//! let input = Matrix::zeros(4, 13); // batch of 4
//! let out = mlp.forward(&input);
//! assert_eq!(out.shape(), (4, 32));
//! ```

#![deny(unsafe_code)] // allowed back on in exactly one module: simd.rs
#![deny(missing_debug_implementations, unreachable_pub)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

mod activation;
pub mod aligned;
mod error;
mod gather;
mod linear;
mod matrix;
mod mlp;
pub mod quant;
pub mod reduce;
pub mod simd;

pub use activation::Activation;
pub use aligned::Aligned;
pub use error::ShapeError;
pub use gather::gather_pool_csr;
pub use linear::Linear;
pub use matrix::{Matrix, PackedMatrix};
pub use mlp::Mlp;
pub use quant::{
    gather_pool_csr_f16, gather_pool_csr_i8, quantize_f16, quantize_f16_into, quantize_i8_rows,
    quantize_i8_rows_into,
};
pub use simd::SimdBackend;
