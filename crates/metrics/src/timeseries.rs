//! Append-only time series, used to record per-interval cluster observables
//! (achieved QPS, memory consumption, tail latency) for the dynamic-traffic
//! experiment (paper Figure 19).

use serde::{Deserialize, Serialize};

/// A single `(time, value)` observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimePoint {
    /// Simulated time in seconds.
    pub time: f64,
    /// Observed value.
    pub value: f64,
}

/// An append-only series of timestamped observations.
///
/// # Examples
///
/// ```
/// use er_metrics::TimeSeries;
///
/// let mut ts = TimeSeries::new("memory_gb");
/// ts.push(0.0, 10.0);
/// ts.push(1.0, 12.0);
/// assert_eq!(ts.last().unwrap().value, 12.0);
/// assert_eq!(ts.max_value(), 12.0);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    name: String,
    points: Vec<TimePoint>,
}

impl TimeSeries {
    /// Creates an empty series with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            points: Vec::new(),
        }
    }

    /// The series name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends an observation.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the last appended observation.
    pub fn push(&mut self, time: f64, value: f64) {
        if let Some(last) = self.points.last() {
            assert!(
                time >= last.time,
                "time series must be appended in order ({time} < {})",
                last.time
            );
        }
        self.points.push(TimePoint { time, value });
    }

    /// All observations in time order.
    pub fn points(&self) -> &[TimePoint] {
        &self.points
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the series has no observations.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The most recent observation, if any.
    pub fn last(&self) -> Option<TimePoint> {
        self.points.last().copied()
    }

    /// Largest observed value, or 0 when empty.
    pub fn max_value(&self) -> f64 {
        self.points.iter().map(|p| p.value).fold(0.0, f64::max)
    }

    /// Mean of observed values, or 0 when empty.
    pub fn mean_value(&self) -> f64 {
        if self.points.is_empty() {
            0.0
        } else {
            self.points.iter().map(|p| p.value).sum::<f64>() / self.points.len() as f64
        }
    }

    /// Value in effect at time `t`: the most recent observation at or before
    /// `t` (step interpolation), or `None` if `t` precedes the first point.
    #[expect(
        clippy::expect_used,
        reason = "simulated times are never NaN; a NaN time is a caller bug"
    )]
    pub fn value_at(&self, t: f64) -> Option<f64> {
        match self
            .points
            .binary_search_by(|p| p.time.partial_cmp(&t).expect("no NaN times"))
        {
            Ok(i) => Some(self.points[i].value),
            Err(0) => None,
            Err(i) => Some(self.points[i - 1].value),
        }
    }

    /// Iterates over observations.
    pub fn iter(&self) -> impl Iterator<Item = &TimePoint> {
        self.points.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        let mut ts = TimeSeries::new("qps");
        ts.push(0.0, 100.0);
        ts.push(10.0, 200.0);
        ts.push(20.0, 150.0);
        ts
    }

    #[test]
    fn push_and_read_back() {
        let ts = series();
        assert_eq!(ts.len(), 3);
        assert_eq!(ts.name(), "qps");
        assert_eq!(ts.last().unwrap().value, 150.0);
        assert_eq!(ts.max_value(), 200.0);
        assert!((ts.mean_value() - 150.0).abs() < 1e-12);
    }

    #[test]
    fn step_interpolation() {
        let ts = series();
        assert_eq!(ts.value_at(-1.0), None);
        assert_eq!(ts.value_at(0.0), Some(100.0));
        assert_eq!(ts.value_at(5.0), Some(100.0));
        assert_eq!(ts.value_at(10.0), Some(200.0));
        assert_eq!(ts.value_at(999.0), Some(150.0));
    }

    #[test]
    fn empty_series_behaviour() {
        let ts = TimeSeries::new("empty");
        assert!(ts.is_empty());
        assert_eq!(ts.last(), None);
        assert_eq!(ts.max_value(), 0.0);
        assert_eq!(ts.mean_value(), 0.0);
        assert_eq!(ts.value_at(0.0), None);
    }

    #[test]
    fn equal_timestamps_are_allowed() {
        let mut ts = TimeSeries::new("t");
        ts.push(1.0, 1.0);
        ts.push(1.0, 2.0);
        assert_eq!(ts.len(), 2);
    }

    #[test]
    #[should_panic(expected = "appended in order")]
    fn out_of_order_push_panics() {
        let mut ts = series();
        ts.push(5.0, 1.0);
    }
}
