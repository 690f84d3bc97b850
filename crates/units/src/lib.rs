//! `er-units` — zero-cost dimensional analysis for ElasticRec's resource
//! arithmetic.
//!
//! Every headline number in the paper's reproduction — memory utility,
//! server count, HPA scale decisions — comes from first-order resource
//! arithmetic: FLOPs ÷ FLOPs/s, bytes ÷ bytes/s, queries ÷ QPS targets
//! (Algorithms 1–2). A single bytes-vs-FLOPs or ms-vs-s mix-up silently
//! corrupts the whole reproduction. This crate makes that class of bug a
//! *compile error* by giving each dimension its own `f64` newtype and
//! implementing only the dimension-correct operators:
//!
//! | expression | result | meaning |
//! |---|---|---|
//! | `Flops / FlopsPerSec` | [`Secs`] | compute time |
//! | `Bytes / BytesPerSec` | [`Secs`] | transfer time |
//! | `Flops / Secs` | [`FlopsPerSec`] | achieved rate |
//! | `Bytes / Secs` | [`BytesPerSec`] | achieved rate |
//! | `FlopsPerSec * Secs` | [`Flops`] | work done |
//! | `BytesPerSec * Secs` | [`Bytes`] | bytes moved |
//! | `f64 / Secs` | [`Qps`] | queries ÷ latency |
//! | `f64 / Qps` | [`Secs`] | queries ÷ rate |
//! | `T / T` | `f64` | dimensionless ratio |
//! | `T ± T`, `T * f64`, `T / f64` | `T` | scaling within a dimension |
//!
//! There is no `Deref<Target = f64>`; the raw magnitude leaves the newtype
//! only through an explicit [`Bytes::raw`]-style call, so every boundary
//! back to untyped code is greppable.
//!
//! Dimension confusion fails to compile:
//!
//! ```compile_fail
//! use er_units::{Bytes, Flops};
//! let _ = Bytes::of(1.0) + Flops::of(1.0); // bytes + FLOPs: no such op
//! ```
//!
//! ```compile_fail
//! use er_units::{Qps, Secs};
//! let _ = Qps::of(100.0) * Secs::of(0.4); // rate x latency must be explicit
//! ```
//!
//! while dimension-correct arithmetic reads like the paper's equations:
//!
//! ```
//! use er_units::{Bytes, BytesPerSec, Qps, Secs};
//!
//! let per_query = Bytes::of_u64(4096 * 128);     // gathered bytes/query
//! let bandwidth = BytesPerSec::of(2.0e9);        // replica gather bandwidth
//! let latency: Secs = Secs::of(2.0e-4) + per_query / bandwidth;
//! let qps: Qps = 1.0 / latency;                  // Algorithm 1's QPS(x)
//! let replicas = Qps::of(10_000.0) / qps;        // target ÷ QPS -> count
//! assert!(replicas > 1.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_debug_implementations, unreachable_pub, missing_docs)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

macro_rules! scalar_unit {
    ($(#[$meta:meta])* $name:ident, $unit:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, PartialOrd)]
        #[repr(transparent)]
        pub struct $name(f64);

        impl $name {
            /// The zero of this dimension.
            pub const ZERO: Self = Self(0.0);

            #[doc = concat!("Wraps a magnitude measured in ", $unit, ".")]
            pub const fn of(v: f64) -> Self {
                Self(v)
            }

            #[doc = concat!("The raw magnitude in ", $unit, " — the only way \
                out of the newtype. Keep calls at untyped boundaries.")]
            pub const fn raw(self) -> f64 {
                self.0
            }

            /// True when the magnitude is finite.
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// The larger of two magnitudes.
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// The smaller of two magnitudes.
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{} {}", self.0, $unit)
            }
        }

        impl Add for $name {
            type Output = Self;
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl AddAssign for $name {
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Same-dimension division yields a dimensionless ratio.
        impl Div for $name {
            type Output = f64;
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }
    };
}

/// `amount / time = rate` and every dimension-correct rearrangement.
macro_rules! rate_algebra {
    ($amount:ident / $time:ident = $rate:ident) => {
        impl Div<$time> for $amount {
            type Output = $rate;
            fn div(self, rhs: $time) -> $rate {
                $rate(self.0 / rhs.0)
            }
        }

        impl Div<$rate> for $amount {
            type Output = $time;
            fn div(self, rhs: $rate) -> $time {
                $time(self.0 / rhs.0)
            }
        }

        impl Mul<$time> for $rate {
            type Output = $amount;
            fn mul(self, rhs: $time) -> $amount {
                $amount(self.0 * rhs.0)
            }
        }

        impl Mul<$rate> for $time {
            type Output = $amount;
            fn mul(self, rhs: $rate) -> $amount {
                $amount(self.0 * rhs.0)
            }
        }
    };
}

scalar_unit!(
    /// A memory or storage size. Fractional values are meaningful: the cost
    /// model's `replicas x shard_bytes` is an expectation, not an
    /// allocation.
    Bytes,
    "B"
);

scalar_unit!(
    /// Floating-point operations (an amount of compute work, not a rate).
    Flops,
    "FLOP"
);

scalar_unit!(
    /// A duration in seconds. Use [`Secs::from_millis`] at millisecond
    /// boundaries instead of multiplying by hand — ms-vs-s slips are the
    /// canonical unit bug.
    Secs,
    "s"
);

scalar_unit!(
    /// Queries per second — the paper's traffic and throughput unit.
    Qps,
    "qps"
);

scalar_unit!(
    /// A data-movement rate (memory or network bandwidth).
    BytesPerSec,
    "B/s"
);

scalar_unit!(
    /// A compute rate (sustained floating-point throughput).
    FlopsPerSec,
    "FLOP/s"
);

rate_algebra!(Bytes / Secs = BytesPerSec);
rate_algebra!(Flops / Secs = FlopsPerSec);

impl Bytes {
    /// Wraps an exact byte count. Exact for all capacities below 2^53
    /// bytes (8 PiB) — far past any node in the paper.
    pub const fn of_u64(v: u64) -> Self {
        Self(v as f64)
    }

    /// The magnitude as a whole number of bytes (rounded to nearest), for
    /// allocator/scheduler boundaries that count in integers.
    pub fn whole(self) -> u64 {
        self.0.round() as u64
    }

    /// The magnitude in GiB, for reports.
    pub fn gib(self) -> f64 {
        self.0 / (1u64 << 30) as f64
    }
}

impl Secs {
    /// Converts from milliseconds — the one blessed ms→s conversion.
    pub const fn from_millis(ms: f64) -> Self {
        Self(ms / 1e3)
    }

    /// The duration in milliseconds, for reports.
    pub const fn as_millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The rate sustained by one query per this period: `1 / t`.
    pub fn recip(self) -> Qps {
        Qps(1.0 / self.0)
    }
}

impl Qps {
    /// The per-query period at this rate: `1 / qps`.
    pub fn recip(self) -> Secs {
        Secs(1.0 / self.0)
    }
}

/// Queries (a dimensionless count) over a duration is a rate.
impl Div<Secs> for f64 {
    type Output = Qps;
    fn div(self, rhs: Secs) -> Qps {
        Qps(self / rhs.0)
    }
}

/// Queries (a dimensionless count) over a rate is a duration.
impl Div<Qps> for f64 {
    type Output = Secs;
    fn div(self, rhs: Qps) -> Secs {
        Secs(self / rhs.0)
    }
}

/// Storage element type of an embedding table — the unit the data plane's
/// byte accounting is denominated in.
///
/// Embedding gathers are memory-bandwidth-bound (paper Fig 9), so the
/// stored element width directly sets both a table's capacity footprint
/// and its gather throughput. Placing the kind here (rather than in
/// `er-tensor`) lets `er-partition`'s cost model price quantized tables
/// without depending on the kernel crate: quantization becomes a
/// *placement* decision, not just a kernel trick.
///
/// Accumulation is always f32 regardless of storage kind; `I8` rows carry
/// one f32 scale each (symmetric, per-row), which [`ElemKind::row_bytes`]
/// accounts for.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ElemKind {
    /// 32-bit IEEE-754 floats — the bit-exact reference precision.
    #[default]
    F32,
    /// 16-bit IEEE-754 half-precision floats (round-to-nearest-even).
    F16,
    /// Signed 8-bit integers under a per-row symmetric f32 scale
    /// (`scale = max_abs / 127`).
    I8,
}

impl ElemKind {
    /// Every kind, widest first.
    pub const ALL: [ElemKind; 3] = [ElemKind::F32, ElemKind::F16, ElemKind::I8];

    /// Stored bytes per element.
    pub const fn bytes_per_elem(self) -> u64 {
        match self {
            ElemKind::F32 => 4,
            ElemKind::F16 => 2,
            ElemKind::I8 => 1,
        }
    }

    /// Per-row side-band bytes: the f32 scale an `I8` row carries.
    pub const fn scale_bytes_per_row(self) -> u64 {
        match self {
            ElemKind::F32 | ElemKind::F16 => 0,
            ElemKind::I8 => 4,
        }
    }

    /// Storage bytes of one `dim`-wide embedding vector at this kind,
    /// including the per-row scale for `I8`.
    pub const fn row_bytes(self, dim: u32) -> Bytes {
        Bytes::of_u64(dim as u64 * self.bytes_per_elem() + self.scale_bytes_per_row())
    }

    /// Shrinks an f32-precision row size to this kind's storage size:
    /// `f32_row / 4 * bytes_per_elem + scale_bytes`. The fractional form of
    /// [`ElemKind::row_bytes`] for callers that carry row bytes rather
    /// than a dimension.
    pub fn scaled_row_bytes(self, f32_row: Bytes) -> Bytes {
        f32_row * (self.bytes_per_elem() as f64 / 4.0) + Bytes::of_u64(self.scale_bytes_per_row())
    }

    /// Short lowercase name for reports and bench-section labels.
    pub const fn name(self) -> &'static str {
        match self {
            ElemKind::F32 => "f32",
            ElemKind::F16 => "f16",
            ElemKind::I8 => "i8",
        }
    }
}

impl fmt::Display for ElemKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A whole number of logical CPU cores.
///
/// Integer-backed (schedulers count cores); convert explicitly with
/// [`Cores::millicores`] (Kubernetes requests) or [`Cores::as_f64`]
/// (rate scaling).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(transparent)]
pub struct Cores(u32);

impl Cores {
    /// Zero cores.
    pub const ZERO: Self = Self(0);

    /// Wraps a core count.
    pub const fn of(n: u32) -> Self {
        Self(n)
    }

    /// The raw core count.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Kubernetes-style millicores (`cores x 1000`).
    pub const fn millicores(self) -> u64 {
        self.0 as u64 * 1000
    }

    /// The count as an `f64` scaling factor for per-core rates.
    pub const fn as_f64(self) -> f64 {
        self.0 as f64
    }
}

impl fmt::Display for Cores {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} cores", self.0)
    }
}

impl Add for Cores {
    type Output = Self;
    fn add(self, rhs: Self) -> Self {
        Self(self.0 + rhs.0)
    }
}

impl Sub for Cores {
    type Output = Self;
    fn sub(self, rhs: Self) -> Self {
        Self(self.0 - rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compute_time_from_flops_and_rate() {
        let t: Secs = Flops::of(3.0e12) / FlopsPerSec::of(1.5e12);
        assert!((t.raw() - 2.0).abs() < 1e-12);
        // And back: work = rate x time.
        let w: Flops = FlopsPerSec::of(1.5e12) * t;
        assert!((w.raw() - 3.0e12).abs() < 1.0);
    }

    #[test]
    fn transfer_time_from_bytes_and_bandwidth() {
        let t: Secs = Bytes::of_u64(1 << 30) / BytesPerSec::of((1u64 << 30) as f64);
        assert!((t.raw() - 1.0).abs() < 1e-12);
        let rate: BytesPerSec = Bytes::of(5.0e9) / Secs::of(2.0);
        assert!((rate.raw() - 2.5e9).abs() < 1.0);
    }

    #[test]
    fn qps_is_queries_over_time() {
        let latency = Secs::from_millis(4.0);
        let qps: Qps = 1.0 / latency;
        assert!((qps.raw() - 250.0).abs() < 1e-9);
        assert!((qps.recip().raw() - 0.004).abs() < 1e-12);
        // target traffic / per-replica QPS -> replica count (dimensionless).
        let replicas = Qps::of(1000.0) / qps;
        assert!((replicas - 4.0).abs() < 1e-9);
    }

    #[test]
    fn same_dimension_addition_and_scaling() {
        let total = Bytes::of_u64(100) + Bytes::of_u64(28);
        assert_eq!(total, Bytes::of(128.0));
        assert_eq!(total * 2.0, Bytes::of(256.0));
        assert_eq!(2.0 * total, Bytes::of(256.0));
        assert_eq!(total / 2.0, Bytes::of(64.0));
        let mut acc = Flops::ZERO;
        acc += Flops::of(3.0);
        acc -= Flops::of(1.0);
        assert_eq!(acc, Flops::of(2.0));
    }

    #[test]
    fn ratio_of_like_quantities_is_dimensionless() {
        let frac: f64 = Bytes::of(25.0) / Bytes::of(100.0);
        assert!((frac - 0.25).abs() < 1e-12);
        let speedup: f64 = Secs::of(3.0) / Secs::of(1.5);
        assert!((speedup - 2.0).abs() < 1e-12);
    }

    #[test]
    fn sums_and_ordering() {
        let total: Bytes = [1u64, 2, 3].iter().map(|&b| Bytes::of_u64(b)).sum();
        assert_eq!(total, Bytes::of(6.0));
        assert!(Secs::of(1.0) < Secs::of(2.0));
        assert_eq!(Secs::of(5.0).max(Secs::of(3.0)), Secs::of(5.0));
        assert_eq!(Secs::of(5.0).min(Secs::of(3.0)), Secs::of(3.0));
    }

    #[test]
    fn byte_conversions_round_trip() {
        assert_eq!(Bytes::of_u64(384 << 30).whole(), 384 << 30);
        assert!((Bytes::of_u64(64 << 30).gib() - 64.0).abs() < 1e-12);
        assert_eq!(Bytes::of(1.4).whole(), 1);
        assert_eq!(Bytes::of(1.6).whole(), 2);
    }

    #[test]
    fn millisecond_conversions() {
        assert_eq!(Secs::from_millis(400.0), Secs::of(0.4));
        assert!((Secs::of(0.26).as_millis() - 260.0).abs() < 1e-9);
    }

    #[test]
    fn cores_are_integers_with_explicit_conversions() {
        let c = Cores::of(64);
        assert_eq!(c.raw(), 64);
        assert_eq!(c.millicores(), 64_000);
        assert_eq!(c.as_f64(), 64.0);
        assert_eq!(Cores::of(2) + Cores::of(3), Cores::of(5));
        assert_eq!(Cores::of(5) - Cores::of(3), Cores::of(2));
        assert!(Cores::of(2) < Cores::of(3));
    }

    #[test]
    fn elem_kind_widths_and_row_bytes() {
        assert_eq!(ElemKind::F32.bytes_per_elem(), 4);
        assert_eq!(ElemKind::F16.bytes_per_elem(), 2);
        assert_eq!(ElemKind::I8.bytes_per_elem(), 1);
        assert_eq!(ElemKind::default(), ElemKind::F32);
        // A dim-64 row: 256 B at f32, 128 B at f16, 64 + 4 (scale) at i8.
        assert_eq!(ElemKind::F32.row_bytes(64), Bytes::of_u64(256));
        assert_eq!(ElemKind::F16.row_bytes(64), Bytes::of_u64(128));
        assert_eq!(ElemKind::I8.row_bytes(64), Bytes::of_u64(68));
        // The fractional form agrees with the dimension form.
        for kind in ElemKind::ALL {
            assert_eq!(
                kind.scaled_row_bytes(Bytes::of_u64(256)),
                kind.row_bytes(64)
            );
        }
        assert_eq!(ElemKind::I8.to_string(), "i8");
        assert_eq!(ElemKind::F16.name(), "f16");
    }

    #[test]
    fn display_carries_the_unit() {
        assert_eq!(Bytes::of(128.0).to_string(), "128 B");
        assert_eq!(Qps::of(250.0).to_string(), "250 qps");
        assert_eq!(Cores::of(8).to_string(), "8 cores");
        assert_eq!(FlopsPerSec::of(1.5e12).to_string(), "1500000000000 FLOP/s");
    }
}
