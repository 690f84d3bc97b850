//! Activation functions used by DLRM MLP stacks.

use serde::{Deserialize, Serialize};

use crate::Matrix;

/// A pointwise non-linearity.
///
/// DLRM uses ReLU between hidden layers and a sigmoid on the final output
/// (the click-through probability).
///
/// # Examples
///
/// ```
/// use er_tensor::{Activation, Matrix};
///
/// let mut x = Matrix::from_rows(&[&[-1.0, 0.0, 2.0]]).unwrap();
/// Activation::Relu.apply_in_place(&mut x);
/// assert_eq!(x.row(0), &[0.0, 0.0, 2.0]);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum Activation {
    /// `max(0, x)` — used between hidden layers.
    #[default]
    Relu,
    /// `1 / (1 + e^-x)` — used on the event-probability output.
    Sigmoid,
    /// Pass-through, for layers that apply no non-linearity.
    Identity,
}

impl Activation {
    /// Applies the activation to a scalar.
    pub fn eval(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            Activation::Identity => x,
        }
    }

    /// Applies the activation element-wise to a matrix, in place.
    pub fn apply_in_place(self, m: &mut Matrix) {
        if self == Activation::Identity {
            return;
        }
        for x in m.as_mut_slice() {
            *x = self.eval(*x);
        }
    }

    /// FLOPs charged per element: ReLU and Identity are free at the accounting
    /// granularity the paper uses; sigmoid costs a handful of operations.
    pub fn flops_per_element(self) -> u64 {
        match self {
            Activation::Relu | Activation::Identity => 0,
            Activation::Sigmoid => 4,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        assert_eq!(Activation::Relu.eval(-5.0), 0.0);
        assert_eq!(Activation::Relu.eval(3.0), 3.0);
        assert_eq!(Activation::Relu.eval(0.0), 0.0);
    }

    #[test]
    fn sigmoid_is_bounded_and_centered() {
        let s = Activation::Sigmoid;
        assert!((s.eval(0.0) - 0.5).abs() < 1e-6);
        assert!(s.eval(10.0) > 0.999);
        assert!(s.eval(-10.0) < 0.001);
    }

    #[test]
    fn apply_in_place_matches_eval() {
        let x = Matrix::from_rows(&[&[-2.0, 0.0, 3.5]]).unwrap();
        for act in [Activation::Relu, Activation::Sigmoid, Activation::Identity] {
            let mut m = x.clone();
            act.apply_in_place(&mut m);
            for (c, &v) in x.row(0).iter().enumerate() {
                assert_eq!(m.get(0, c), act.eval(v), "{act:?}");
            }
        }
    }

    #[test]
    fn flop_accounting() {
        assert_eq!(Activation::Relu.flops_per_element(), 0);
        assert_eq!(Activation::Sigmoid.flops_per_element(), 4);
    }

    #[test]
    fn default_is_relu() {
        assert_eq!(Activation::default(), Activation::Relu);
    }
}
