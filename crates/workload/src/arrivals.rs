//! Poisson query arrivals over a traffic schedule.

use er_sim::SimRng;

use crate::TrafficSchedule;

/// Generates query arrival times as a (piecewise-homogeneous) Poisson
/// process whose rate follows a [`TrafficSchedule`].
///
/// # Examples
///
/// ```
/// use er_workload::{ArrivalProcess, TrafficSchedule};
/// use er_sim::SimRng;
///
/// let mut a = ArrivalProcess::new(TrafficSchedule::constant(1000.0), SimRng::seed_from(7));
/// let (mut t, mut arrivals) = (0.0, 0);
/// while let Some(next) = a.next_arrival(t).filter(|&next| next <= 1.0) {
///     t = next;
///     arrivals += 1;
/// }
/// assert!((arrivals as f64 - 1000.0).abs() < 150.0); // ~1000 in 1 s
/// ```
#[derive(Debug, Clone)]
pub struct ArrivalProcess {
    schedule: TrafficSchedule,
    rng: SimRng,
}

impl ArrivalProcess {
    /// Creates an arrival process over `schedule` driven by `rng`.
    pub fn new(schedule: TrafficSchedule, rng: SimRng) -> Self {
        Self { schedule, rng }
    }

    /// The traffic schedule.
    pub fn schedule(&self) -> &TrafficSchedule {
        &self.schedule
    }

    /// Draws the next arrival strictly after `now`, or `None` if the
    /// schedule's rate is zero from `now` onward (no arrival will ever
    /// come).
    pub fn next_arrival(&mut self, now: f64) -> Option<f64> {
        let mut t = now;
        // Walk segments: draw an exponential gap at the current rate; if it
        // crosses a rate change, restart from the boundary (memorylessness
        // makes this exact).
        loop {
            let rate = self.schedule.rate_at(t);
            let next_change = self
                .schedule
                .segments()
                .iter()
                .map(|&(s, _)| s)
                .find(|&s| s > t);
            if rate <= 0.0 {
                match next_change {
                    Some(s) => {
                        t = s;
                        continue;
                    }
                    None => return None,
                }
            }
            let gap = self.rng.exponential(rate);
            let candidate = t + gap;
            match next_change {
                Some(s) if candidate > s => {
                    t = s;
                    continue;
                }
                _ => return Some(candidate),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All arrivals in `(0, horizon]`.
    fn arrivals_until(a: &mut ArrivalProcess, horizon: f64) -> Vec<f64> {
        let mut out = Vec::new();
        let mut t = 0.0;
        while let Some(next) = a.next_arrival(t).filter(|&next| next <= horizon) {
            out.push(next);
            t = next;
        }
        out
    }

    #[test]
    fn constant_rate_mean_matches() {
        let mut a = ArrivalProcess::new(TrafficSchedule::constant(500.0), SimRng::seed_from(3));
        let times = arrivals_until(&mut a, 10.0);
        let rate = times.len() as f64 / 10.0;
        assert!((rate - 500.0).abs() < 25.0, "rate={rate}");
    }

    #[test]
    fn arrivals_are_strictly_increasing() {
        let mut a = ArrivalProcess::new(TrafficSchedule::constant(1000.0), SimRng::seed_from(4));
        let times = arrivals_until(&mut a, 2.0);
        for w in times.windows(2) {
            assert!(w[1] > w[0]);
        }
    }

    #[test]
    fn stepped_rate_changes_density() {
        let schedule = TrafficSchedule::steps(&[(0.0, 100.0), (10.0, 1000.0)]).unwrap();
        let mut a = ArrivalProcess::new(schedule, SimRng::seed_from(5));
        let times = arrivals_until(&mut a, 20.0);
        let early = times.iter().filter(|&&t| t <= 10.0).count() as f64 / 10.0;
        let late = times.iter().filter(|&&t| t > 10.0).count() as f64 / 10.0;
        assert!((early - 100.0).abs() < 40.0, "early={early}");
        assert!((late - 1000.0).abs() < 100.0, "late={late}");
    }

    #[test]
    fn zero_rate_tail_ends_the_process() {
        let schedule = TrafficSchedule::steps(&[(0.0, 100.0), (1.0, 0.0)]).unwrap();
        let mut a = ArrivalProcess::new(schedule, SimRng::seed_from(6));
        let times = arrivals_until(&mut a, 100.0);
        assert!(times.iter().all(|&t| t <= 1.0 + 1e-9));
        assert!(a.next_arrival(50.0).is_none());
    }

    #[test]
    fn zero_rate_head_waits_for_traffic() {
        let schedule = TrafficSchedule::steps(&[(0.0, 0.0), (5.0, 100.0)]).unwrap();
        let mut a = ArrivalProcess::new(schedule, SimRng::seed_from(7));
        let first = a.next_arrival(0.0).expect("traffic starts at t=5");
        assert!(first > 5.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let s = TrafficSchedule::constant(200.0);
        let t1 = arrivals_until(
            &mut ArrivalProcess::new(s.clone(), SimRng::seed_from(9)),
            1.0,
        );
        let t2 = arrivals_until(&mut ArrivalProcess::new(s, SimRng::seed_from(9)), 1.0);
        assert_eq!(t1, t2);
    }
}
