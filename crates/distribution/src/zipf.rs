//! Analytic Zipf (power-law) access distribution.

use serde::{Deserialize, Serialize};

use crate::AccessModel;

/// A Zipf distribution over `n` ranked items: the probability of rank `r`
/// is proportional to `r^-s`.
///
/// The generalized harmonic normalizer is evaluated with an Euler–Maclaurin
/// approximation past an exactly summed 256-rank head, so no 20M-element
/// weight array is ever materialized at the paper's table size.
/// Construction sums the head once (256 `powf` calls) and keeps it, so a
/// CDF query past rank 256 costs a few `powf` calls and one at or below
/// it sums at most `x` terms.
///
/// # Examples
///
/// ```
/// use er_distribution::{AccessModel, ZipfDistribution};
///
/// let z = ZipfDistribution::new(20_000_000, 1.0);
/// assert!(z.cdf(2_000_000) > 0.85); // strong head concentration
/// assert!((z.cdf(20_000_000) - 1.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ZipfDistribution {
    n: u64,
    s: f64,
    /// `H(min(n, 256), s)`, the exactly summed head of every `H(x, s)`
    /// with `x > 256`.
    head: f64,
    h_n: f64,
}

/// Ranks whose harmonic terms are summed exactly; past this, the tail is
/// integrated.
const EXACT_LIMIT: u64 = 256;

/// `sum_{k=1..n} k^-s`, summed in rank order.
fn exact_harmonic(n: u64, s: f64) -> f64 {
    (1..=n).map(|k| (k as f64).powf(-s)).sum()
}

/// Generalized harmonic number `H(n, s) = sum_{k=1..n} k^-s`, approximated by
/// Euler–Maclaurin for large `n`. Exact summation up to [`EXACT_LIMIT`];
/// above it, `head` must be `H(EXACT_LIMIT, s)`.
fn harmonic(n: u64, s: f64, head: f64) -> f64 {
    if n <= EXACT_LIMIT {
        return exact_harmonic(n, s);
    }
    // The head is summed exactly, the tail integrated.
    let a = EXACT_LIMIT as f64;
    let b = n as f64;
    let integral = if (s - 1.0).abs() < 1e-12 {
        (b / a).ln()
    } else {
        (b.powf(1.0 - s) - a.powf(1.0 - s)) / (1.0 - s)
    };
    // Euler–Maclaurin correction terms at both ends.
    let correction = 0.5 * (b.powf(-s) - a.powf(-s));
    head + integral + correction
}

impl ZipfDistribution {
    /// Creates a Zipf distribution with `n` items and exponent `s >= 0`
    /// (`s = 0` is the uniform distribution).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`, or `s` is negative or not finite.
    pub fn new(n: u64, s: f64) -> Self {
        assert!(n > 0, "distribution needs at least one item");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be non-negative, got {s}"
        );
        let head = exact_harmonic(n.min(EXACT_LIMIT), s);
        Self {
            n,
            s,
            head,
            h_n: harmonic(n, s, head),
        }
    }

    /// The skew exponent.
    pub fn exponent(&self) -> f64 {
        self.s
    }

    /// Draws a 1-based rank by inverse-CDF bisection on `u ~ Uniform[0,1)`:
    /// about `log2(n)` CDF evaluations per draw, each a few `powf` calls
    /// past rank 256.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1)`.
    pub fn quantile(&self, u: f64) -> u64 {
        assert!((0.0..1.0).contains(&u), "u must be in [0,1), got {u}");
        // Smallest x with cdf(x) >= u.
        let (mut lo, mut hi) = (1u64, self.n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if self.cdf(mid) >= u {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        lo
    }

    /// Expected access count of rank `r` given `total` draws — the series
    /// plotted in the paper's Figure 6.
    ///
    /// # Panics
    ///
    /// Panics if `r` is 0 or exceeds the item count.
    pub fn expected_count(&self, r: u64, total: u64) -> f64 {
        self.pmf(r) * total as f64
    }

    /// Materializes the full per-rank CDF for O(log n) quantile sampling.
    ///
    /// [`ZipfDistribution::quantile`] bisects on the analytic CDF — exact
    /// but ~25 CDF evaluations per draw. For bulk sampling (millions
    /// of draws for the memory-utility measurements) the tabulated form is
    /// orders of magnitude faster at the price of `8 × n` bytes.
    pub fn tabulate(&self) -> CdfTable {
        let mut cum = Vec::with_capacity(self.n as usize);
        let mut acc = 0.0;
        for r in 1..=self.n {
            acc += (r as f64).powf(-self.s) / self.h_n;
            cum.push(acc);
        }
        // Normalize away accumulation error so the last entry is exactly 1.
        let last = *cum.last().expect("n > 0");
        for c in &mut cum {
            *c /= last;
        }
        CdfTable { cum }
    }
}

/// A materialized per-rank CDF supporting fast inverse-CDF sampling.
///
/// # Examples
///
/// ```
/// use er_distribution::ZipfDistribution;
///
/// let table = ZipfDistribution::new(1000, 1.0).tabulate();
/// assert_eq!(table.len(), 1000);
/// assert_eq!(table.quantile(0.0), 1); // the hottest rank
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CdfTable {
    cum: Vec<f64>,
}

impl CdfTable {
    /// Number of ranks.
    pub fn len(&self) -> u64 {
        self.cum.len() as u64
    }

    /// Whether the table is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cum.is_empty()
    }

    /// Smallest 1-based rank whose CDF reaches `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1)`.
    pub fn quantile(&self, u: f64) -> u64 {
        assert!((0.0..1.0).contains(&u), "u must be in [0,1), got {u}");
        (self.cum.partition_point(|&c| c < u) as u64 + 1).min(self.len())
    }
}

impl AccessModel for ZipfDistribution {
    fn len(&self) -> u64 {
        self.n
    }

    fn cdf(&self, x: u64) -> f64 {
        if x == 0 {
            return 0.0;
        }
        let x = x.min(self.n);
        (harmonic(x, self.s, self.head) / self.h_n).min(1.0)
    }

    fn pmf(&self, r: u64) -> f64 {
        assert!(r >= 1 && r <= self.n, "rank {r} out of range");
        (r as f64).powf(-self.s) / self.h_n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harmonic_matches_exact_sum() {
        for &s in &[0.0, 0.5, 1.0, 1.5, 2.0] {
            for &n in &[1u64, 10, 256, 1000, 100_000] {
                let exact: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
                let approx = harmonic(n, s, exact_harmonic(EXACT_LIMIT, s));
                let rel = ((approx - exact) / exact).abs();
                assert!(rel < 1e-6, "s={s} n={n} rel={rel}");
            }
        }
    }

    /// `H(n, s)` as it was computed before the head was cached: the head
    /// re-summed on every call.
    fn uncached_harmonic(n: u64, s: f64) -> f64 {
        if n == 0 {
            return 0.0;
        }
        if n <= 256 {
            return (1..=n).map(|k| (k as f64).powf(-s)).sum();
        }
        let head: f64 = (1..=256u64).map(|k| (k as f64).powf(-s)).sum();
        let (a, b) = (256.0f64, n as f64);
        let integral = if (s - 1.0).abs() < 1e-12 {
            (b / a).ln()
        } else {
            (b.powf(1.0 - s) - a.powf(1.0 - s)) / (1.0 - s)
        };
        head + integral + 0.5 * (b.powf(-s) - a.powf(-s))
    }

    #[test]
    fn cached_head_cdf_is_bit_equal_to_uncached() {
        for n in [1u64, 200, 256, 257, 100_000, 20_000_000] {
            for s in [0.0, 0.5, 1.0, 1.3] {
                let z = ZipfDistribution::new(n, s);
                let h_n = uncached_harmonic(n, s);
                for x in [0, 1, 255, 256, 257, n / 10, n] {
                    let want = if x == 0 {
                        0.0
                    } else {
                        (uncached_harmonic(x.min(n), s) / h_n).min(1.0)
                    };
                    assert_eq!(z.cdf(x).to_bits(), want.to_bits(), "n={n} s={s} x={x}");
                }
            }
        }
    }

    #[test]
    fn cdf_boundaries() {
        let z = ZipfDistribution::new(1000, 1.2);
        assert_eq!(z.cdf(0), 0.0);
        assert!((z.cdf(1000) - 1.0).abs() < 1e-9);
        assert!((z.cdf(2000) - 1.0).abs() < 1e-9); // clamped past the end
    }

    #[test]
    fn cdf_is_monotone() {
        let z = ZipfDistribution::new(10_000, 0.9);
        let mut prev = 0.0;
        for x in (0..=10_000).step_by(97) {
            let c = z.cdf(x);
            assert!(c >= prev - 1e-12, "x={x}");
            prev = c;
        }
    }

    #[test]
    fn zero_exponent_is_uniform() {
        let z = ZipfDistribution::new(100, 0.0);
        assert!((z.cdf(10) - 0.10).abs() < 1e-9);
        assert!((z.cdf(50) - 0.50).abs() < 1e-9);
        assert!((z.pmf(7) - 0.01).abs() < 1e-9);
    }

    #[test]
    fn higher_exponent_concentrates_head() {
        let mild = ZipfDistribution::new(100_000, 0.5);
        let steep = ZipfDistribution::new(100_000, 1.5);
        assert!(steep.cdf(100) > mild.cdf(100));
        assert!(steep.cdf(10_000) > mild.cdf(10_000));
    }

    #[test]
    fn pmf_matches_cdf_difference() {
        let z = ZipfDistribution::new(500, 1.1);
        for r in [1u64, 2, 100, 499, 500] {
            let d = z.cdf(r) - z.cdf(r - 1);
            assert!((z.pmf(r) - d).abs() < 1e-9, "r={r}");
        }
    }

    #[test]
    fn quantile_inverts_cdf() {
        let z = ZipfDistribution::new(10_000, 1.0);
        for &u in &[0.0, 0.1, 0.5, 0.9, 0.999] {
            let r = z.quantile(u);
            assert!(z.cdf(r) >= u, "u={u} r={r}");
            if r > 1 {
                assert!(z.cdf(r - 1) < u, "u={u} r={r}");
            }
        }
    }

    #[test]
    fn quantile_on_hot_mass_returns_low_ranks() {
        let z = ZipfDistribution::new(1_000_000, 1.2);
        assert!(z.quantile(0.2) < 100);
    }

    #[test]
    fn twenty_million_entries_is_fast_and_sane() {
        let z = ZipfDistribution::new(20_000_000, 1.0);
        let ten_pct = z.cdf(2_000_000);
        assert!(ten_pct > 0.8 && ten_pct <= 1.0, "cdf(10%)={ten_pct}");
    }

    #[test]
    fn expected_count_scales_with_total() {
        let z = ZipfDistribution::new(100, 1.0);
        assert!((z.expected_count(1, 1000) - 1000.0 * z.pmf(1)).abs() < 1e-9);
    }

    #[test]
    fn tabulated_quantiles_match_analytic() {
        let z = ZipfDistribution::new(10_000, 1.0);
        let t = z.tabulate();
        for &u in &[0.0, 0.1, 0.5, 0.9, 0.999] {
            let a = z.quantile(u);
            let b = t.quantile(u);
            // The analytic CDF is an approximation of the exact sum, so
            // allow small rank disagreement.
            let rel = (a as f64 - b as f64).abs() / (a.max(b) as f64);
            assert!(
                rel < 0.02 || (a as i64 - b as i64).abs() <= 2,
                "u={u} a={a} b={b}"
            );
        }
    }

    #[test]
    fn tabulated_sampling_is_distribution_faithful() {
        use rand::{Rng, SeedableRng};
        let z = ZipfDistribution::new(1000, 1.0);
        let t = z.tabulate();
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let draws = 50_000;
        let hot = (0..draws)
            .filter(|_| t.quantile(rng.gen::<f64>()) <= 100)
            .count();
        let expect = z.cdf(100);
        let got = hot as f64 / draws as f64;
        assert!((got - expect).abs() < 0.01, "got={got} expect={expect}");
    }

    #[test]
    fn tabulated_edges() {
        let t = ZipfDistribution::new(10, 0.0).tabulate();
        assert_eq!(t.len(), 10);
        assert!(!t.is_empty());
        assert_eq!(t.quantile(0.0), 1);
        assert_eq!(t.quantile(0.9999999), 10);
    }

    #[test]
    #[should_panic(expected = "at least one item")]
    fn zero_items_panics() {
        ZipfDistribution::new(0, 1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_exponent_panics() {
        ZipfDistribution::new(10, -0.5);
    }
}
