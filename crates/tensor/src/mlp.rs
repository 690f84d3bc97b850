//! Multi-layer perceptron stacks.

use serde::{Deserialize, Serialize};

use crate::{Activation, Linear, Matrix};

/// A stack of [`Linear`] layers: the building block of DLRM's bottom and top
/// MLPs (paper Figure 1).
///
/// Hidden layers use the supplied activation; by convention the caller sets
/// the final non-linearity (DLRM's top MLP ends in a sigmoid, its bottom MLP
/// ends in ReLU) via [`Mlp::with_output_activation`].
///
/// # Examples
///
/// ```
/// use er_tensor::{Activation, Matrix, Mlp};
///
/// // Table II RM1 top MLP operates on the interaction output.
/// let top = Mlp::with_seed(96, &[256, 64, 1], Activation::Relu, 7)
///     .with_output_activation(Activation::Sigmoid);
/// let logits = top.forward(&Matrix::zeros(32, 96));
/// assert_eq!(logits.shape(), (32, 1));
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Creates an MLP mapping `in_dim` through each width in `widths`.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty or any dimension is zero.
    pub fn with_seed(in_dim: usize, widths: &[usize], activation: Activation, seed: u64) -> Self {
        assert!(!widths.is_empty(), "an MLP needs at least one layer");
        let mut layers = Vec::with_capacity(widths.len());
        let mut prev = in_dim;
        for (i, &w) in widths.iter().enumerate() {
            layers.push(Linear::with_seed(
                prev,
                w,
                activation,
                seed.wrapping_add(i as u64),
            ));
            prev = w;
        }
        Self { layers }
    }

    /// Replaces the final layer's activation (e.g. sigmoid for the CTR head).
    pub fn with_output_activation(mut self, activation: Activation) -> Self {
        #[expect(clippy::expect_used, reason = "constructors reject empty layer stacks")]
        let last = self.layers.pop().expect("MLP has at least one layer");
        let (w, b) = (last.in_dim(), last.out_dim());
        // Rebuild the final layer with identical weights but a new activation:
        // Linear exposes no setter, so route through from_parts via serde-free
        // clone of parameters. Simplest correct path: forward identity probes
        // would be wasteful; instead Linear keeps its parts accessible here.
        let rebuilt = last.replace_activation(activation);
        debug_assert_eq!((rebuilt.in_dim(), rebuilt.out_dim()), (w, b));
        self.layers.push(rebuilt);
        self
    }

    /// The layers in order.
    pub fn layers(&self) -> &[Linear] {
        &self.layers
    }

    /// Input width of the first layer.
    pub fn in_dim(&self) -> usize {
        self.layers[0].in_dim()
    }

    /// Output width of the final layer.
    #[expect(clippy::expect_used, reason = "constructors reject empty layer stacks")]
    pub fn out_dim(&self) -> usize {
        self.layers.last().expect("non-empty").out_dim()
    }

    /// Forward pass for a batch: [`Mlp::forward_into`] on two fresh scratch
    /// matrices, with the result copied out.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward(&self, x: &Matrix) -> Matrix {
        let mut a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(1, 1);
        self.forward_into(x, &mut a, &mut b).clone()
    }

    /// Forward pass ping-ponging between two caller-owned scratch matrices
    /// instead of allocating one activation matrix per layer. Returns a
    /// reference to whichever scratch holds the final layer's output. Each
    /// layer runs [`Linear::forward_into`]; once both buffers' capacity
    /// covers the widest layer the call performs no allocation.
    ///
    /// # Panics
    ///
    /// Panics if `x.cols() != in_dim()`.
    pub fn forward_into<'a>(&self, x: &Matrix, a: &'a mut Matrix, b: &'a mut Matrix) -> &'a Matrix {
        self.layers[0].forward_into(x, a);
        let mut in_a = true;
        for layer in &self.layers[1..] {
            if in_a {
                layer.forward_into(a, b);
            } else {
                layer.forward_into(b, a);
            }
            in_a = !in_a;
        }
        if in_a {
            a
        } else {
            b
        }
    }

    /// Total parameters across all layers.
    pub fn param_count(&self) -> u64 {
        self.layers.iter().map(Linear::param_count).sum()
    }

    /// Total parameter bytes at `f32` precision.
    pub fn param_bytes(&self) -> u64 {
        self.layers.iter().map(Linear::param_bytes).sum()
    }

    /// Total forward-pass FLOPs for the given batch size.
    pub fn flops(&self, batch: usize) -> u64 {
        self.layers.iter().map(|l| l.flops(batch)).sum()
    }
}

impl Linear {
    /// Returns a copy of this layer with a different activation but identical
    /// parameters. Used to give MLP heads their output non-linearity.
    pub fn replace_activation(&self, activation: Activation) -> Linear {
        let mut out = self.clone();
        out.set_activation(activation);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stack_shapes_chain() {
        let mlp = Mlp::with_seed(13, &[256, 128, 32], Activation::Relu, 0);
        assert_eq!(mlp.in_dim(), 13);
        assert_eq!(mlp.out_dim(), 32);
        assert_eq!(mlp.layers().len(), 3);
        let y = mlp.forward(&Matrix::zeros(8, 13));
        assert_eq!(y.shape(), (8, 32));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = Mlp::with_seed(4, &[8, 2], Activation::Relu, 11);
        let b = Mlp::with_seed(4, &[8, 2], Activation::Relu, 11);
        let x = Matrix::filled(3, 4, 0.3);
        assert_eq!(a.forward(&x), b.forward(&x));
    }

    #[test]
    fn output_activation_changes_range() {
        let raw = Mlp::with_seed(4, &[8, 1], Activation::Relu, 5);
        let ctr = raw.clone().with_output_activation(Activation::Sigmoid);
        let x = Matrix::filled(16, 4, 1.0);
        for r in 0..16 {
            let p = ctr.forward(&x).get(r, 0);
            assert!((0.0..=1.0).contains(&p));
        }
        // Identical parameters: sigmoid(raw) == ctr output.
        let yr = raw.forward(&x);
        let yc = ctr.forward(&x);
        for r in 0..16 {
            let expect = Activation::Sigmoid.eval(yr.get(r, 0));
            assert!((yc.get(r, 0) - expect).abs() < 1e-6);
        }
    }

    #[test]
    fn param_count_matches_hand_computation() {
        // 13->256->128->32: (13*256+256) + (256*128+128) + (128*32+32)
        let mlp = Mlp::with_seed(13, &[256, 128, 32], Activation::Relu, 0);
        let expect = (13 * 256 + 256) + (256 * 128 + 128) + (128 * 32 + 32);
        assert_eq!(mlp.param_count(), expect as u64);
        assert_eq!(mlp.param_bytes(), expect as u64 * 4);
    }

    #[test]
    fn flops_scale_linearly_with_batch() {
        let mlp = Mlp::with_seed(16, &[64, 1], Activation::Relu, 0);
        assert_eq!(mlp.flops(2), 2 * mlp.flops(1));
        assert_eq!(mlp.flops(32), 32 * mlp.flops(1));
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn empty_widths_panics() {
        Mlp::with_seed(4, &[], Activation::Relu, 0);
    }

    #[test]
    fn forward_into_matches_naive_layers_for_odd_and_even_depths() {
        // Odd and even layer counts land the result in different ping-pong
        // buffers; both must reproduce the test-local oracle (naive matmul,
        // bias, scalar activation per layer) exactly, and the scratch pair
        // must survive reuse across calls.
        let mut a = Matrix::zeros(1, 1);
        let mut b = Matrix::zeros(1, 1);
        for widths in [&[8][..], &[8, 4], &[16, 8, 2], &[8, 8, 8, 1]] {
            let mut parts = Vec::new();
            let mut prev = 6;
            for (i, &w) in widths.iter().enumerate() {
                let weights = Matrix::from_vec(
                    prev,
                    w,
                    (0..prev * w)
                        .map(|j| ((j * 37 + i) % 23) as f32 / 11.0 - 1.0)
                        .collect(),
                )
                .unwrap();
                let bias: Vec<f32> = (0..w).map(|j| j as f32 * 0.125 - 0.5).collect();
                let act = if i + 1 == widths.len() {
                    Activation::Sigmoid
                } else {
                    Activation::Relu
                };
                parts.push((weights, bias, act));
                prev = w;
            }
            let mlp = Mlp {
                layers: parts
                    .iter()
                    .map(|(w, bias, act)| Linear::from_parts(w.clone(), bias.clone(), *act))
                    .collect(),
            };
            let x = Matrix::filled(5, 6, 0.4);
            let mut expect = x.clone();
            for (weights, bias, act) in &parts {
                let mut z = expect.matmul(weights).unwrap();
                for r in 0..z.rows() {
                    for (o, &c) in z.row_mut(r).iter_mut().zip(bias) {
                        *o = act.eval(*o + c);
                    }
                }
                expect = z;
            }
            assert_eq!(*mlp.forward_into(&x, &mut a, &mut b), expect, "{widths:?}");
            assert_eq!(mlp.forward(&x), expect, "{widths:?}");
        }
    }
}
