//! A fully-connected layer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::{Activation, Matrix, PackedMatrix};

/// A dense layer `y = act(x W + b)` with weights `W: in_dim x out_dim`.
///
/// `W` is packed once, at construction, into the panel-major layout the
/// matmul kernel streams ([`Matrix::packed`]); the layer keeps no
/// row-major copy.
///
/// # Examples
///
/// ```
/// use er_tensor::{Activation, Linear, Matrix};
///
/// let layer = Linear::with_seed(4, 8, Activation::Relu, 1);
/// let x = Matrix::zeros(2, 4);
/// assert_eq!(layer.forward(&x).shape(), (2, 8));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    weights: PackedMatrix,
    bias: Vec<f32>,
    activation: Activation,
}

impl Linear {
    /// Creates a layer with Xavier-uniform initialized weights from a seed.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn with_seed(in_dim: usize, out_dim: usize, activation: Activation, seed: u64) -> Self {
        assert!(
            in_dim > 0 && out_dim > 0,
            "layer dimensions must be non-zero"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let bound = (6.0 / (in_dim + out_dim) as f32).sqrt();
        let data = (0..in_dim * out_dim)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        #[expect(
            clippy::expect_used,
            reason = "data vector is exactly in_dim * out_dim elements by construction"
        )]
        let weights = Matrix::from_vec(in_dim, out_dim, data).expect("sized by construction");
        Self {
            weights: weights.packed(),
            bias: vec![0.0; out_dim],
            activation,
        }
    }

    /// Creates a layer from explicit parameters, packing `weights`.
    ///
    /// # Panics
    ///
    /// Panics if `bias.len() != weights.cols()`.
    pub fn from_parts(weights: Matrix, bias: Vec<f32>, activation: Activation) -> Self {
        assert_eq!(
            bias.len(),
            weights.cols(),
            "bias length must equal the layer's output width"
        );
        Self {
            weights: weights.packed(),
            bias,
            activation,
        }
    }

    /// Input width.
    pub fn in_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Output width.
    pub fn out_dim(&self) -> usize {
        self.weights.cols()
    }

    /// The layer's activation.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    pub(crate) fn set_activation(&mut self, activation: Activation) {
        self.activation = activation;
    }

    /// Forward pass for a batch: `x` is `batch x in_dim`. Allocates the
    /// output; [`Linear::forward_into`] is the same computation into a
    /// reused buffer.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(x.rows(), self.out_dim());
        self.forward_into(x, &mut out);
        out
    }

    /// Forward pass writing into `out` (reshaped in place): the packed
    /// matmul into the reused buffer, then bias and activation applied in
    /// place. Once `out`'s capacity is warm the call performs no
    /// allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    #[expect(
        clippy::panic,
        reason = "documented panic surface of forward_into(): input width must match"
    )]
    #[expect(
        clippy::expect_used,
        reason = "bias length equals out_dim since construction"
    )]
    pub fn forward_into(&self, x: &Matrix, out: &mut Matrix) {
        x.matmul_packed_into(&self.weights, out)
            .unwrap_or_else(|e| panic!("linear layer shape mismatch: {e}"));
        out.add_row_broadcast_in_place(&self.bias)
            .expect("bias width checked at construction");
        self.activation.apply_in_place(out);
    }

    /// Number of parameters (weights + biases), counted on the logical
    /// `in_dim x out_dim` weight shape, not the padded packed storage.
    pub fn param_count(&self) -> u64 {
        (self.weights.rows() * self.weights.cols() + self.bias.len()) as u64
    }

    /// Parameter bytes at `f32` precision.
    pub fn param_bytes(&self) -> u64 {
        self.param_count() * 4
    }

    /// FLOPs for a forward pass with the given batch size
    /// (multiply-accumulate counted as 2 FLOPs, plus bias and activation).
    pub fn flops(&self, batch: usize) -> u64 {
        let b = batch as u64;
        let (i, o) = (self.in_dim() as u64, self.out_dim() as u64);
        b * (2 * i * o + o + o * self.activation.flops_per_element())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_shape_and_determinism() {
        let l1 = Linear::with_seed(3, 5, Activation::Relu, 9);
        let l2 = Linear::with_seed(3, 5, Activation::Relu, 9);
        let x = Matrix::filled(2, 3, 0.5);
        let y1 = l1.forward(&x);
        let y2 = l2.forward(&x);
        assert_eq!(y1.shape(), (2, 5));
        assert_eq!(y1, y2);
    }

    #[test]
    fn known_small_case() {
        // y = x W + b with W = [[1,0],[0,2]], b = [10, 20].
        let w = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap();
        let layer = Linear::from_parts(w, vec![10.0, 20.0], Activation::Identity);
        let x = Matrix::from_rows(&[&[3.0, 4.0]]).unwrap();
        let y = layer.forward(&x);
        assert_eq!(y.row(0), &[13.0, 28.0]);
    }

    #[test]
    fn relu_masks_negative_outputs() {
        let w = Matrix::from_rows(&[&[-1.0]]).unwrap();
        let layer = Linear::from_parts(w, vec![0.0], Activation::Relu);
        let x = Matrix::from_rows(&[&[5.0]]).unwrap();
        assert_eq!(layer.forward(&x).get(0, 0), 0.0);
    }

    #[test]
    fn param_and_flop_accounting() {
        let layer = Linear::with_seed(256, 128, Activation::Relu, 0);
        assert_eq!(layer.param_count(), 256 * 128 + 128);
        assert_eq!(layer.param_bytes(), (256 * 128 + 128) * 4);
        // batch 32: 32 * (2*256*128 + 128)
        assert_eq!(layer.flops(32), 32 * (2 * 256 * 128 + 128));
    }

    #[test]
    fn accounting_uses_the_logical_shape_not_the_padded_panels() {
        // 20 and 1 output columns pack into 32- and 16-wide panels; the
        // layer still reports its logical shape and parameters.
        for (i, o) in [(2560, 20), (128, 1)] {
            let layer = Linear::with_seed(i, o, Activation::Relu, 0);
            assert_eq!((layer.in_dim(), layer.out_dim()), (i, o));
            assert_eq!(layer.param_count(), (i * o + o) as u64);
            assert_eq!(layer.param_bytes(), (i * o + o) as u64 * 4);
            assert_eq!(layer.flops(1), (2 * i * o + o) as u64);
        }
    }

    #[test]
    fn xavier_bound_is_respected() {
        let layer = Linear::with_seed(10, 10, Activation::Relu, 3);
        let bound = (6.0f32 / 20.0).sqrt();
        // Probe the weights through a forward pass of unit basis vectors.
        for i in 0..10 {
            let mut x = Matrix::zeros(1, 10);
            x.set(0, i, 1.0);
            let w = layer.replace_activation(Activation::Identity);
            for &v in w.forward(&x).row(0) {
                assert!(v.abs() <= bound);
            }
        }
    }

    #[test]
    fn forward_matches_naive_matmul_bias_and_activation() {
        // The test-local oracle: naive matmul, then bias, then the scalar
        // activation. One reused `out` must match it bit-for-bit, as must
        // the allocating `forward`.
        let mut out = Matrix::zeros(1, 1);
        for (i, act) in [Activation::Relu, Activation::Sigmoid, Activation::Identity]
            .into_iter()
            .enumerate()
        {
            let weights = Matrix::from_vec(
                7,
                11,
                (0..77)
                    .map(|j| ((j * 37 + i) % 19) as f32 / 9.0 - 1.0)
                    .collect(),
            )
            .unwrap();
            let bias: Vec<f32> = (0..11).map(|j| j as f32 * 0.25 - 1.5).collect();
            let x =
                Matrix::from_vec(3, 7, (0..21).map(|j| (j % 5) as f32 - 2.2).collect()).unwrap();
            let mut expect = x.matmul(&weights).unwrap();
            for r in 0..expect.rows() {
                for (o, &b) in expect.row_mut(r).iter_mut().zip(&bias) {
                    *o = act.eval(*o + b);
                }
            }
            let layer = Linear::from_parts(weights, bias, act);
            layer.forward_into(&x, &mut out);
            assert_eq!(out, expect, "{act:?}");
            assert_eq!(layer.forward(&x), expect, "{act:?}");
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn forward_into_rejects_wrong_input_width() {
        let layer = Linear::with_seed(4, 2, Activation::Relu, 0);
        layer.forward_into(&Matrix::zeros(1, 3), &mut Matrix::zeros(1, 1));
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn wrong_input_width_panics() {
        let layer = Linear::with_seed(4, 2, Activation::Relu, 0);
        layer.forward(&Matrix::zeros(1, 3));
    }

    #[test]
    #[should_panic(expected = "bias length")]
    fn mismatched_bias_panics() {
        Linear::from_parts(Matrix::zeros(2, 3), vec![0.0; 2], Activation::Relu);
    }
}
