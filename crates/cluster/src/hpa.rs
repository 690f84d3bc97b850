//! Horizontal Pod Autoscaling.
//!
//! Reimplements the Kubernetes HPA semantics ElasticRec relies on
//! (Section IV-D): per-deployment targets, the
//! `desired = ceil(current × metric / target)` scaling rule, a tolerance
//! band so jitter does not flap replicas, and scale-down stabilization.
//! ElasticRec sets a *throughput* target for sparse shards (each shard's
//! profiled `QPS_max`) and a *latency* target for dense shards (65% of the
//! SLA).

use er_sim::SimTime;
use er_units::{Qps, Secs};
use serde::{Deserialize, Serialize};

/// What the autoscaler compares against its target.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ScalingTarget {
    /// Scale so each replica carries at most this traffic —
    /// ElasticRec's sparse-shard policy (threshold = profiled `QPS_max`).
    QpsPerReplica(Qps),
    /// Scale so observed p95 latency stays at or below this duration —
    /// ElasticRec's dense-shard policy (65% of the 400 ms SLA).
    LatencyP95(Secs),
}

/// A point-in-time metric observation for one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Observation {
    /// Aggregate traffic served by the deployment.
    pub qps: Qps,
    /// p95 latency over the observation window, if any queries completed.
    pub p95_latency: Option<Secs>,
}

/// Kubernetes' default tolerance: deviations of the metric/target ratio
/// from 1 by at most this much are ignored, so jitter does not flap
/// replicas.
const TOLERANCE: f64 = 0.10;

/// Kubernetes' default scale-down stabilization window
/// (`stabilizationWindowSeconds`): after a scale-down, wait this long
/// before shrinking again.
pub const SCALE_DOWN_STABILIZATION: Secs = Secs::of(60.0);

/// Kubernetes' default scale-up policy: per evaluation, grow to at most
/// `max(SCALE_UP_FACTOR x current, current + SCALE_UP_PODS)` (a 100%
/// increase or 4 pods, whichever is higher).
const SCALE_UP_FACTOR: f64 = 2.0;

/// See [`SCALE_UP_FACTOR`].
const SCALE_UP_PODS: usize = 4;

/// Autoscaling policy for one deployment. The replica floor is 1
/// (Kubernetes `minReplicas`); tolerance, stabilization and the scale-up
/// rate limit are Kubernetes' defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HpaPolicy {
    /// Ceiling on replicas (Kubernetes `maxReplicas`).
    pub max_replicas: usize,
    /// The metric/target pair.
    pub target: ScalingTarget,
}

impl HpaPolicy {
    /// A policy scaling between 1 and `max_replicas` replicas on `target`.
    ///
    /// # Panics
    ///
    /// Panics if `max_replicas` is 0.
    pub fn new(max_replicas: usize, target: ScalingTarget) -> Self {
        assert!(max_replicas >= 1, "need max ({max_replicas}) >= min (1)");
        Self {
            max_replicas,
            target,
        }
    }
}

/// The pure autoscaler state: everything [`HpaPolicy::step`] carries from
/// one evaluation to the next. A fresh deployment starts from
/// [`HpaState::default`] (no scaling history).
///
/// The state is a small value type so the explicit-state model checker
/// (`er-mc`) can enumerate and fingerprint it; the simulation engine keeps
/// one per deployment and threads it through the same transition.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HpaState {
    last_scale_down: Option<SimTime>,
}

impl HpaState {
    /// Reconstructs a state from an explicit scale-down history — how the
    /// model checker materializes enumerated states for replay.
    pub fn with_last_scale_down(last_scale_down: Option<SimTime>) -> Self {
        Self { last_scale_down }
    }

    /// When the controller last decided to scale down, if ever.
    pub fn last_scale_down(&self) -> Option<SimTime> {
        self.last_scale_down
    }
}

impl HpaPolicy {
    /// Raw desired replica count from the Kubernetes scaling rule, before
    /// bounds, tolerance, and stabilization.
    fn raw_desired(&self, current: usize, obs: &Observation) -> Option<(usize, f64)> {
        match self.target {
            ScalingTarget::QpsPerReplica(target) => {
                // metric per replica = qps/current; desired = ceil(current *
                // metric/target) = ceil(qps/target). Qps ÷ Qps is a
                // dimensionless ratio.
                let ratio = (obs.qps / current.max(1) as f64) / target;
                Some(((obs.qps / target).ceil().max(0.0) as usize, ratio))
            }
            ScalingTarget::LatencyP95(target) => {
                let p95 = obs.p95_latency?;
                let ratio = p95 / target;
                Some((((current as f64) * ratio).ceil().max(0.0) as usize, ratio))
            }
        }
    }

    /// The pure HPA transition: one policy evaluation as a
    /// `(state, msg) -> (state', decision)` handler. No clocks, no RNG, no
    /// ambient state — the same inputs always produce the same outputs,
    /// which is what lets `er-mc` exhaustively explore interleavings of the
    /// *exact* code the simulation engine runs.
    ///
    /// Returns the successor state and `Some(new_replicas)` when the
    /// deployment should be resized (`None` to leave it alone).
    ///
    /// # Examples
    ///
    /// ```
    /// use er_cluster::{HpaPolicy, HpaState, Observation, ScalingTarget};
    /// use er_sim::SimTime;
    /// use er_units::Qps;
    ///
    /// let policy = HpaPolicy::new(10, ScalingTarget::QpsPerReplica(Qps::of(100.0)));
    /// let obs = Observation { qps: Qps::of(450.0), p95_latency: None };
    /// // 450 QPS at 100 QPS/replica -> 5 replicas.
    /// let (_state, decision) = policy.step(&HpaState::default(), SimTime::ZERO, 2, obs);
    /// assert_eq!(decision, Some(5));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `current` is zero — an HPA never manages a deployment with
    /// no replicas.
    pub fn step(
        &self,
        state: &HpaState,
        now: SimTime,
        current: usize,
        obs: Observation,
    ) -> (HpaState, Option<usize>) {
        assert!(current > 0, "HPA requires at least one replica");
        let Some((desired, ratio)) = self.raw_desired(current, &obs) else {
            return (*state, None);
        };
        // Kubernetes' scale-up rate limit: without it a latency spike
        // during a backlog multiplies replicas straight to the cap.
        let up_limit =
            ((current as f64) * SCALE_UP_FACTOR).max((current + SCALE_UP_PODS) as f64) as usize;
        let desired = desired.min(up_limit).clamp(1, self.max_replicas);

        // Tolerance band: ignore small deviations (Kubernetes behaviour).
        if (ratio - 1.0).abs() <= TOLERANCE {
            return (*state, None);
        }
        if desired == current {
            return (*state, None);
        }
        if desired < current {
            // Scale-down stabilization window. SimTime subtraction yields
            // raw seconds; rewrap before comparing against the window.
            if let Some(last) = state.last_scale_down {
                if Secs::of(now - last) < SCALE_DOWN_STABILIZATION {
                    return (*state, None);
                }
            }
            return (
                HpaState {
                    last_scale_down: Some(now),
                },
                Some(desired),
            );
        }
        (*state, Some(desired))
    }
}

/// Bounds a latency-driven frontend decision by what the offered load
/// justifies. Latency-driven scaling assumes latency tracks replica count,
/// which breaks around queue backlogs: a backlog inflates p95
/// (over-scaling) and a freshly drained queue deflates it (under-scaling).
/// Scale-ups are capped at twice the load-derived need; scale-downs are
/// floored at need/0.85 so capacity never drops below what the traffic
/// requires.
///
/// Pure like [`HpaPolicy::step`]; the simulation engine applies it to the
/// frontend's decisions. The `er-mc` model has no latency-scaled frontend
/// and does not call it.
pub fn bound_frontend_desired(
    desired: usize,
    current: usize,
    load_qps: Qps,
    capacity_qps: Qps,
) -> usize {
    let need = load_qps / capacity_qps;
    if desired > current {
        desired.min(((2.0 * need).ceil() as usize).max(current))
    } else {
        desired.max((need / 0.85).ceil() as usize).min(current)
    }
}

/// Apply-time guard against stale scale-downs.
///
/// A scale decision is computed against a load observation, but by the
/// time it is *applied* the offered load may have risen — the `er-mc`
/// control-plane model found exactly this race (a scale-down delivered
/// after a traffic step leaves fewer replicas than the new load needs).
/// The guard clamps a scale-down so post-apply capacity still covers the
/// load offered at apply time; scale-ups and no-ops pass through
/// untouched. When decision and apply are atomic (the simulation engine),
/// the clamp is an exact no-op, because the decision already covers the
/// same observation.
pub fn clamp_scale_to_load(
    target: usize,
    current: usize,
    load_qps: Qps,
    capacity_qps: Qps,
) -> usize {
    if target >= current {
        return target;
    }
    let need = (load_qps / capacity_qps).ceil() as usize;
    target.max(need).min(current)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Threads the [`HpaState`] through successive [`HpaPolicy::step`]
    /// calls, the way the engine does for each deployment.
    struct Threaded {
        policy: HpaPolicy,
        state: HpaState,
    }

    impl Threaded {
        fn new(policy: HpaPolicy) -> Self {
            Self {
                policy,
                state: HpaState::default(),
            }
        }

        fn evaluate(&mut self, now: SimTime, current: usize, obs: Observation) -> Option<usize> {
            let (state, decision) = self.policy.step(&self.state, now, current, obs);
            self.state = state;
            decision
        }
    }

    fn qps_policy() -> HpaPolicy {
        HpaPolicy::new(100, ScalingTarget::QpsPerReplica(Qps::of(50.0)))
    }

    fn obs(qps: f64) -> Observation {
        Observation {
            qps: Qps::of(qps),
            p95_latency: None,
        }
    }

    #[test]
    fn qps_target_scales_to_traffic() {
        let mut hpa = Threaded::new(qps_policy());
        // 500 QPS at 50/replica wants 10 replicas; the scale-up rate limit
        // allows max(2x3, 3+4) = 7 this round.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 3, obs(500.0)), Some(7));
        // The next round reaches the full 10.
        assert_eq!(
            hpa.evaluate(SimTime::from_secs(2.0), 7, obs(500.0)),
            Some(10)
        );
    }

    #[test]
    fn scale_up_rate_limit_small_deployments_use_pod_floor() {
        let mut hpa = Threaded::new(qps_policy());
        // 1 replica wanting 100: limited to 1+4 = 5 (the pod floor beats 2x).
        assert_eq!(hpa.evaluate(SimTime::ZERO, 1, obs(5000.0)), Some(5));
    }

    #[test]
    fn within_tolerance_is_a_noop() {
        let mut hpa = Threaded::new(qps_policy());
        // 2 replicas at 52.5 QPS each = 105 total: ratio 1.05 < 1.1.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 2, obs(105.0)), None);
    }

    #[test]
    fn clamp_scale_to_load_cancels_stale_scale_down() {
        // The er-mc race: a down-to-1 decided at 100 QPS is delivered
        // after the load rose to 200 QPS — 2 replicas are still needed.
        assert_eq!(clamp_scale_to_load(1, 2, Qps::of(200.0), Qps::of(100.0)), 2);
        // Load rose above even current capacity: the down becomes a no-op,
        // never an up (scale-up stays the HPA's decision to make).
        assert_eq!(clamp_scale_to_load(1, 2, Qps::of(500.0), Qps::of(100.0)), 2);
    }

    #[test]
    fn clamp_scale_to_load_passes_covered_downs_and_all_ups() {
        // A down the current load still justifies is untouched.
        assert_eq!(clamp_scale_to_load(2, 3, Qps::of(200.0), Qps::of(100.0)), 2);
        // Scale-ups and no-ops pass through.
        assert_eq!(clamp_scale_to_load(5, 3, Qps::of(100.0), Qps::of(100.0)), 5);
        assert_eq!(clamp_scale_to_load(3, 3, Qps::of(900.0), Qps::of(100.0)), 3);
    }

    #[test]
    fn bound_frontend_desired_caps_ups_and_floors_downs_by_load() {
        // 300 QPS offered at 100 QPS per replica: a need of 3.
        let bound = |desired, current| {
            bound_frontend_desired(desired, current, Qps::of(300.0), Qps::of(100.0))
        };
        // Scale-ups are capped at twice the need.
        assert_eq!(bound(20, 4), 6);
        // An up the cap would turn into a down stays at current.
        assert_eq!(bound(10, 8), 8);
        // Scale-downs are floored at ceil(3 / 0.85) = 4.
        assert_eq!(bound(1, 8), 4);
        // A down the floor would turn into an up stays at current.
        assert_eq!(bound(2, 3), 3);
    }

    #[test]
    fn bounds_are_respected() {
        let policy = HpaPolicy::new(5, ScalingTarget::QpsPerReplica(Qps::of(50.0)));
        let mut hpa = Threaded::new(policy);
        // Rate limit allows 7, but max_replicas caps at 5.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 3, obs(10_000.0)), Some(5));
        // Zero traffic shrinks to the floor of 1.
        let mut hpa2 = Threaded::new(policy);
        assert_eq!(hpa2.evaluate(SimTime::ZERO, 4, obs(0.0)), Some(1));
    }

    #[test]
    fn latency_target_scales_up_under_pressure() {
        let policy = HpaPolicy::new(50, ScalingTarget::LatencyP95(Secs::of(0.26)));
        let mut hpa = Threaded::new(policy);
        let o = Observation {
            qps: Qps::of(100.0),
            p95_latency: Some(Secs::of(0.52)),
        };
        // ratio 2.0 -> double the replicas (exactly the rate limit).
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, o), Some(8));
    }

    #[test]
    fn latency_target_without_samples_is_noop() {
        let policy = HpaPolicy::new(50, ScalingTarget::LatencyP95(Secs::of(0.26)));
        let mut hpa = Threaded::new(policy);
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, obs(100.0)), None);
    }

    #[test]
    fn scale_down_is_stabilized() {
        let mut hpa = Threaded::new(qps_policy());
        // First scale-down goes through.
        assert_eq!(
            hpa.evaluate(SimTime::from_secs(100.0), 10, obs(100.0)),
            Some(2)
        );
        // A second one within the window is suppressed.
        assert_eq!(
            hpa.evaluate(SimTime::from_secs(110.0), 10, obs(100.0)),
            None
        );
        // After the window it proceeds.
        assert_eq!(
            hpa.evaluate(SimTime::from_secs(161.0), 10, obs(100.0)),
            Some(2)
        );
    }

    #[test]
    fn scale_up_is_never_stabilized() {
        let mut hpa = Threaded::new(qps_policy());
        assert_eq!(
            hpa.evaluate(SimTime::from_secs(1.0), 10, obs(100.0)),
            Some(2)
        );
        // Immediately after a scale-down, a burst still scales up (to the
        // rate limit: 2+4 = 6).
        assert_eq!(
            hpa.evaluate(SimTime::from_secs(2.0), 2, obs(1000.0)),
            Some(6)
        );
    }

    #[test]
    fn zero_traffic_shrinks_to_min() {
        let mut hpa = Threaded::new(qps_policy());
        assert_eq!(hpa.evaluate(SimTime::ZERO, 8, obs(0.0)), Some(1));
    }

    // ------------------------------------------------------------------
    // Boundary behaviour at exactly-on-target observations.
    // ------------------------------------------------------------------

    #[test]
    fn exactly_on_target_qps_is_a_noop() {
        let mut hpa = Threaded::new(qps_policy());
        // 4 replicas each carrying exactly the 50 QPS target: ratio 1.0.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, obs(200.0)), None);
        // The target the policy holds is the typed Qps we configured.
        assert_eq!(
            hpa.policy.target,
            ScalingTarget::QpsPerReplica(Qps::of(50.0))
        );
    }

    #[test]
    fn exactly_on_target_latency_is_a_noop() {
        let target = Secs::from_millis(260.0);
        let mut hpa = Threaded::new(HpaPolicy::new(50, ScalingTarget::LatencyP95(target)));
        let o = Observation {
            qps: Qps::of(100.0),
            p95_latency: Some(Secs::of(0.26)),
        };
        // p95 exactly at target: ratio 1.0, inside the tolerance band.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, o), None);
        assert_eq!(hpa.policy.target, ScalingTarget::LatencyP95(target));
    }

    #[test]
    fn tolerance_edge_is_inclusive() {
        let mut hpa = Threaded::new(qps_policy());
        // ratio 1.09375 (exactly representable): inside the band, noop even
        // though ceil(4 × 1.09375) = 5 > 4 — the band suppresses rounding.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, obs(218.75)), None);
        // Just past the band the policy acts.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, obs(221.0)), Some(5));
    }

    #[test]
    fn tolerance_edge_below_target_is_inclusive() {
        let mut hpa = Threaded::new(qps_policy());
        // ratio exactly 0.9: still inside the band, no scale-down.
        assert_eq!(hpa.evaluate(SimTime::from_secs(5.0), 10, obs(450.0)), None);
        // ratio 0.8 scales down (first scale-down needs no stabilization).
        assert_eq!(
            hpa.evaluate(SimTime::from_secs(6.0), 10, obs(400.0)),
            Some(8)
        );
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn zero_current_panics() {
        Threaded::new(qps_policy()).evaluate(SimTime::ZERO, 0, obs(1.0));
    }

    #[test]
    #[should_panic(expected = "min")]
    fn invalid_bounds_panic() {
        HpaPolicy::new(0, ScalingTarget::QpsPerReplica(Qps::of(1.0)));
    }
}
