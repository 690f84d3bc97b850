//! Oracle-ordered float reductions.
//!
//! Floating-point addition is not associative, so a reduction's *order* is
//! part of its result. The workspace's bit-exactness guarantees (packed
//! vs. naive kernels, SIMD kernels vs. portable builds) hold because
//! every float reduction happens in one documented order:
//! **ascending index, one scalar accumulator**. These helpers are that
//! order, named; `er-lint`'s `float_reduction` rule steers ad-hoc
//! `sum::<f32>()` call sites here so a refactor to a tree or SIMD-lane
//! reduction can never slip in silently at one site.
//!
//! # Examples
//!
//! ```
//! use er_tensor::reduce;
//!
//! let xs = [0.1f32, 0.2, 0.3];
//! assert_eq!(reduce::sum_f32(&xs), ((0.1f32 + 0.2) + 0.3));
//! let ys = [0.5f32, 2.0, 4.0];
//! assert_eq!(reduce::dot_f32(&xs, &ys), reduce::sum_f32(&[0.05, 0.4, 1.2]));
//! ```

/// Sum of `xs` in ascending index order with a single `f32` accumulator
/// starting at `+0.0` — the reference order every kernel in this
/// workspace reduces in.
pub fn sum_f32(xs: &[f32]) -> f32 {
    xs.iter().fold(0.0, |acc, &x| acc + x)
}

/// Dot product `Σ a[i] * b[i]` in ascending index order with a single
/// `f32` accumulator — the reduction used by the feature-interaction and
/// matmul reference kernels.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn dot_f32(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot operands must have equal length");
    a.iter().zip(b).fold(0.0, |acc, (&x, &y)| acc + x * y)
}

/// Sum of `xs` in ascending index order with a single `f64` accumulator.
pub fn sum_f64(xs: &[f64]) -> f64 {
    xs.iter().fold(0.0, |acc, &x| acc + x)
}

/// Arithmetic mean via [`sum_f64`]'s ordered sum.
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn mean_f64(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "mean of an empty slice is undefined");
    sum_f64(xs) / xs.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sum_matches_the_left_fold_exactly() {
        // A sequence chosen so reassociation changes the result: summing
        // left-to-right loses the small terms, a pairwise tree would not.
        let xs = [1.0e8f32, 1.0, 1.0, 1.0, -1.0e8];
        let mut acc = 0.0f32;
        for &x in &xs {
            acc += x;
        }
        assert_eq!(sum_f32(&xs), acc);
        // And the iterator `sum` (same order) agrees — the helper's value
        // is not exotic, it is the *named* default order.
        let it: f32 = xs.iter().sum();
        assert_eq!(sum_f32(&xs), it);
    }

    #[test]
    fn dot_is_mul_then_ordered_sum() {
        let a = [1.5f32, -2.0, 0.25, 8.0];
        let b = [2.0f32, 0.5, -4.0, 0.125];
        let prods: Vec<f32> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        assert_eq!(dot_f32(&a, &b), sum_f32(&prods));
    }

    #[test]
    fn empty_sums_are_positive_zero() {
        assert_eq!(sum_f32(&[]).to_bits(), 0.0f32.to_bits());
        assert_eq!(sum_f64(&[]).to_bits(), 0.0f64.to_bits());
    }

    #[test]
    fn mean_divides_the_ordered_sum() {
        let xs = [1.0f64, 2.0, 4.0];
        assert_eq!(mean_f64(&xs), (1.0 + 2.0 + 4.0) / 3.0);
    }

    #[test]
    #[should_panic(expected = "equal length")]
    fn dot_rejects_mismatched_lengths() {
        dot_f32(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn mean_rejects_empty_input() {
        mean_f64(&[]);
    }
}
