//! Sliding-window queries-per-second estimation.

use std::collections::VecDeque;

/// Estimates throughput (QPS) over a trailing time window.
///
/// Completion timestamps are pushed as they occur (in non-decreasing order of
/// simulated time); [`QpsWindow::qps_at`] reports the rate over the window
/// ending at a given instant. This is the signal the sparse-shard HPA policy
/// consumes (paper Section IV-D).
///
/// # Examples
///
/// ```
/// use er_metrics::QpsWindow;
///
/// let mut w = QpsWindow::new(1.0);
/// for i in 0..100 {
///     w.record(i as f64 * 0.01); // 100 events in 1 second
/// }
/// assert!((w.qps_at(1.0) - 100.0).abs() < 2.0);
/// ```
#[derive(Debug, Clone)]
pub struct QpsWindow {
    window: f64,
    events: VecDeque<f64>,
    total: u64,
}

impl QpsWindow {
    /// Creates a window of `window_secs` seconds.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not strictly positive.
    pub fn new(window_secs: f64) -> Self {
        Self::with_capacity(window_secs, 64)
    }

    /// Creates a window of `window_secs` seconds with ring-buffer room for
    /// `capacity` in-window events before any reallocation.
    ///
    /// The deque is a preallocated ring: `record` is O(1) amortized, and
    /// once capacity covers the peak in-window occupancy the window never
    /// allocates again — eviction recycles the ring in place. Size this to
    /// `window_secs * peak_rate` on hot paths.
    ///
    /// # Panics
    ///
    /// Panics if `window_secs` is not strictly positive.
    pub fn with_capacity(window_secs: f64, capacity: usize) -> Self {
        assert!(
            window_secs > 0.0 && window_secs.is_finite(),
            "window must be positive, got {window_secs}"
        );
        Self {
            window: window_secs,
            events: VecDeque::with_capacity(capacity),
            total: 0,
        }
    }

    /// Records an event (e.g. query completion) at time `now` (seconds).
    ///
    /// # Panics
    ///
    /// Panics if `now` precedes the most recently recorded event.
    pub fn record(&mut self, now: f64) {
        if let Some(&last) = self.events.back() {
            assert!(
                now >= last,
                "events must be recorded in time order ({now} < {last})"
            );
        }
        self.events.push_back(now);
        self.total += 1;
        self.evict(now);
    }

    fn evict(&mut self, now: f64) {
        let cutoff = now - self.window;
        while self.events.front().is_some_and(|&t| t < cutoff) {
            self.events.pop_front();
        }
    }

    /// Events per second over the window ending at `now`.
    pub fn qps_at(&mut self, now: f64) -> f64 {
        self.evict(now);
        self.events.len() as f64 / self.window
    }

    /// Total events ever recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The window length in seconds.
    pub fn window_secs(&self) -> f64 {
        self.window
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_rate_is_reported() {
        let mut w = QpsWindow::new(2.0);
        for i in 0..200 {
            w.record(i as f64 * 0.02); // 50 events/sec for 4 seconds
        }
        let qps = w.qps_at(4.0);
        assert!((qps - 50.0).abs() < 2.0, "qps={qps}");
    }

    #[test]
    fn old_events_age_out() {
        let mut w = QpsWindow::new(1.0);
        for i in 0..10 {
            w.record(i as f64 * 0.1);
        }
        assert!(w.qps_at(0.95) > 0.0);
        assert_eq!(w.qps_at(100.0), 0.0);
        assert_eq!(w.total(), 10);
    }

    #[test]
    fn empty_window_reports_zero() {
        let mut w = QpsWindow::new(5.0);
        assert_eq!(w.qps_at(10.0), 0.0);
    }

    #[test]
    fn burst_then_silence_decays() {
        let mut w = QpsWindow::new(1.0);
        for _ in 0..100 {
            w.record(0.0);
        }
        assert_eq!(w.qps_at(0.5), 100.0);
        assert_eq!(w.qps_at(1.5), 0.0);
    }

    #[test]
    fn preallocated_window_matches_default() {
        let mut a = QpsWindow::new(2.0);
        let mut b = QpsWindow::with_capacity(2.0, 4096);
        for i in 0..500 {
            let t = i as f64 * 0.01;
            a.record(t);
            b.record(t);
            assert_eq!(a.qps_at(t), b.qps_at(t));
        }
        assert_eq!(a.total(), b.total());
    }

    #[test]
    fn steady_state_does_not_grow_capacity() {
        let mut w = QpsWindow::with_capacity(1.0, 256);
        // 100 events/sec for 20 seconds: occupancy stays ~100 << 256.
        for i in 0..2000 {
            w.record(i as f64 * 0.01);
        }
        assert!(w.qps_at(19.99) <= 101.0);
        assert_eq!(w.total(), 2000);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_events_panic() {
        let mut w = QpsWindow::new(1.0);
        w.record(5.0);
        w.record(4.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_window_panics() {
        QpsWindow::new(0.0);
    }
}
