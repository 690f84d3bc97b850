//! Piecewise-constant traffic schedules.

use serde::{Deserialize, Serialize};

/// Target query rate over time: a step function of `(start_time, qps)`
/// segments. The Figure 19 experiment raises traffic in five increments and
/// then drops it.
///
/// # Examples
///
/// ```
/// use er_workload::TrafficSchedule;
///
/// let s = TrafficSchedule::steps(&[(0.0, 50.0), (60.0, 200.0), (120.0, 80.0)]).unwrap();
/// assert_eq!(s.rate_at(30.0), 50.0);
/// assert_eq!(s.rate_at(60.0), 200.0);
/// assert_eq!(s.rate_at(500.0), 80.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrafficSchedule {
    /// `(start_time_secs, qps)` segments, ascending by start time; the
    /// first starts at 0.
    segments: Vec<(f64, f64)>,
}

/// Error building an invalid [`TrafficSchedule`].
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleError(String);

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ScheduleError {}

impl TrafficSchedule {
    /// A constant-rate schedule.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is negative or not finite.
    pub fn constant(qps: f64) -> Self {
        assert!(
            qps.is_finite() && qps >= 0.0,
            "rate must be non-negative, got {qps}"
        );
        Self {
            segments: vec![(0.0, qps)],
        }
    }

    /// A stepped schedule from `(start_time, qps)` pairs.
    ///
    /// # Errors
    ///
    /// Returns an error if `steps` is empty, does not start at time 0, is
    /// not strictly increasing in time, or contains a negative rate.
    pub fn steps(steps: &[(f64, f64)]) -> Result<Self, ScheduleError> {
        if steps.is_empty() {
            return Err(ScheduleError("schedule needs at least one segment".into()));
        }
        if steps[0].0 != 0.0 {
            return Err(ScheduleError(format!(
                "first segment must start at time 0, got {}",
                steps[0].0
            )));
        }
        for w in steps.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(ScheduleError(format!(
                    "segment starts must be strictly increasing ({} after {})",
                    w[1].0, w[0].0
                )));
            }
        }
        if steps
            .iter()
            .any(|&(t, q)| !t.is_finite() || !q.is_finite() || q < 0.0)
        {
            return Err(ScheduleError(
                "times and rates must be finite, rates non-negative".into(),
            ));
        }
        Ok(Self {
            segments: steps.to_vec(),
        })
    }

    /// The schedule used by the paper's Figure 19: traffic rises in five
    /// steps from `base` QPS and then falls back, with `step_secs` between
    /// changes.
    ///
    /// # Panics
    ///
    /// Panics if `base` or `step_secs` is non-positive.
    #[expect(
        clippy::expect_used,
        reason = "steps start at 0 and rise strictly, with positive finite rates"
    )]
    pub fn figure19(base: f64, step_secs: f64) -> Self {
        assert!(base > 0.0 && base.is_finite(), "base rate must be positive");
        assert!(
            step_secs > 0.0 && step_secs.is_finite(),
            "step must be positive"
        );
        // Five increments (x1..x5 the base), then a decrease back down.
        let mut steps = Vec::new();
        for i in 0..5 {
            steps.push((i as f64 * step_secs, base * (i + 1) as f64));
        }
        steps.push((5.0 * step_secs, base * 2.0));
        Self::steps(&steps).expect("constructed valid")
    }

    /// A stepped approximation of a diurnal (sinusoidal) load curve:
    /// `steps_per_period` equal segments per period oscillating between
    /// `low` and `high` QPS, repeated for `periods` periods. Useful for
    /// longer-horizon autoscaling studies beyond the paper's single ramp.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= low <= high`, `period_secs > 0`,
    /// `steps_per_period >= 2`, and `periods >= 1`.
    #[expect(
        clippy::expect_used,
        reason = "steps start at 0 and rise strictly, with finite non-negative rates"
    )]
    pub fn diurnal(
        low: f64,
        high: f64,
        period_secs: f64,
        steps_per_period: usize,
        periods: usize,
    ) -> Self {
        assert!(low >= 0.0 && high >= low, "need 0 <= low <= high");
        assert!(
            period_secs > 0.0 && period_secs.is_finite(),
            "period must be positive"
        );
        assert!(steps_per_period >= 2, "need at least two steps per period");
        assert!(periods >= 1, "need at least one period");
        let mid = 0.5 * (low + high);
        let amp = 0.5 * (high - low);
        let mut steps = Vec::with_capacity(steps_per_period * periods);
        for p in 0..periods {
            for i in 0..steps_per_period {
                let t = (p * steps_per_period + i) as f64 * period_secs / steps_per_period as f64;
                let phase = 2.0 * std::f64::consts::PI * i as f64 / steps_per_period as f64;
                // Start at the trough so load ramps up first.
                let rate = mid - amp * phase.cos();
                steps.push((t, rate));
            }
        }
        Self::steps(&steps).expect("constructed valid")
    }

    /// Target rate at time `t` (clamped to the first segment before 0).
    #[expect(
        clippy::expect_used,
        reason = "segment starts are finite (checked in `steps`); a NaN `t` is a caller bug"
    )]
    pub fn rate_at(&self, t: f64) -> f64 {
        match self
            .segments
            .binary_search_by(|&(s, _)| s.partial_cmp(&t).expect("no NaN times"))
        {
            Ok(i) => self.segments[i].1,
            Err(0) => self.segments[0].1,
            Err(i) => self.segments[i - 1].1,
        }
    }

    /// The segments of the schedule.
    pub fn segments(&self) -> &[(f64, f64)] {
        &self.segments
    }

    /// The maximum rate anywhere in the schedule.
    pub fn peak_rate(&self) -> f64 {
        self.segments.iter().map(|&(_, q)| q).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_rate_everywhere() {
        let s = TrafficSchedule::constant(42.0);
        assert_eq!(s.rate_at(0.0), 42.0);
        assert_eq!(s.rate_at(1e6), 42.0);
        assert_eq!(s.peak_rate(), 42.0);
    }

    #[test]
    fn step_lookup() {
        let s = TrafficSchedule::steps(&[(0.0, 10.0), (5.0, 20.0)]).unwrap();
        assert_eq!(s.rate_at(4.999), 10.0);
        assert_eq!(s.rate_at(5.0), 20.0);
        assert_eq!(s.rate_at(-1.0), 10.0);
    }

    #[test]
    fn figure19_shape() {
        let s = TrafficSchedule::figure19(20.0, 4.0);
        // Five increments...
        assert_eq!(s.rate_at(0.0), 20.0);
        assert_eq!(s.rate_at(4.0), 40.0);
        assert_eq!(s.rate_at(17.0), 100.0);
        // ...then a decrease.
        assert_eq!(s.rate_at(21.0), 40.0);
        assert_eq!(s.peak_rate(), 100.0);
    }

    #[test]
    fn diurnal_oscillates_between_bounds() {
        let s = TrafficSchedule::diurnal(10.0, 110.0, 100.0, 20, 2);
        assert_eq!(s.segments().len(), 40);
        // Starts at the trough.
        assert!((s.rate_at(0.0) - 10.0).abs() < 1e-9);
        // Peaks mid-period.
        assert!((s.peak_rate() - 110.0).abs() < 1.0);
        let mid = s.rate_at(50.0);
        assert!(mid > 100.0, "mid-period rate {mid}");
        // Every rate stays within bounds.
        for &(_, q) in s.segments() {
            assert!((10.0..=110.0).contains(&q), "q={q}");
        }
        // Second period repeats the first.
        assert!((s.rate_at(25.0) - s.rate_at(125.0)).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "two steps")]
    fn diurnal_needs_steps() {
        TrafficSchedule::diurnal(1.0, 2.0, 10.0, 1, 1);
    }

    #[test]
    fn validation_errors() {
        assert!(TrafficSchedule::steps(&[]).is_err());
        assert!(TrafficSchedule::steps(&[(1.0, 5.0)]).is_err());
        assert!(TrafficSchedule::steps(&[(0.0, 5.0), (0.0, 6.0)]).is_err());
        assert!(TrafficSchedule::steps(&[(0.0, -5.0)]).is_err());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_constant_panics() {
        TrafficSchedule::constant(-1.0);
    }
}
