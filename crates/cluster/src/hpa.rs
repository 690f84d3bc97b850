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

/// Error from the fallible HPA entry points ([`HpaPolicy::try_new`],
/// [`HpaController::try_evaluate`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HpaError {
    /// `min_replicas`/`max_replicas` do not satisfy `1 <= min <= max`.
    InvalidBounds {
        /// The rejected floor.
        min_replicas: usize,
        /// The rejected ceiling.
        max_replicas: usize,
    },
    /// The deployment under evaluation has zero replicas — an HPA never
    /// manages a deployment scaled to nothing.
    NoReplicas,
}

impl std::fmt::Display for HpaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HpaError::InvalidBounds {
                min_replicas,
                max_replicas,
            } => write!(f, "need 1 <= min ({min_replicas}) <= max ({max_replicas})"),
            HpaError::NoReplicas => f.write_str("HPA requires at least one replica"),
        }
    }
}

impl std::error::Error for HpaError {}

/// Autoscaling policy for one deployment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HpaPolicy {
    /// Floor on replicas (Kubernetes `minReplicas`).
    pub min_replicas: usize,
    /// Ceiling on replicas (Kubernetes `maxReplicas`).
    pub max_replicas: usize,
    /// The metric/target pair.
    pub target: ScalingTarget,
    /// Ignore deviations smaller than this fraction of the target
    /// (Kubernetes' default tolerance is 0.1).
    pub tolerance: f64,
    /// Wait this long after the last scale-down before shrinking again
    /// (Kubernetes' `stabilizationWindowSeconds`).
    pub scale_down_stabilization: Secs,
    /// Per-evaluation scale-up bound: grow to at most
    /// `max(factor x current, current + pods)` — Kubernetes' default
    /// scale-up policy (100% increase or 4 pods, whichever is higher).
    pub max_scale_up_factor: f64,
    /// See [`HpaPolicy::max_scale_up_factor`].
    pub max_scale_up_pods: usize,
}

impl HpaPolicy {
    /// A policy with Kubernetes-like defaults: tolerance 10%, 60 s
    /// scale-down stabilization.
    ///
    /// # Panics
    ///
    /// Panics if `min_replicas` is 0 or exceeds `max_replicas`.
    pub fn new(min_replicas: usize, max_replicas: usize, target: ScalingTarget) -> Self {
        assert!(
            min_replicas >= 1 && min_replicas <= max_replicas,
            "need 1 <= min ({min_replicas}) <= max ({max_replicas})"
        );
        Self {
            min_replicas,
            max_replicas,
            target,
            tolerance: 0.10,
            scale_down_stabilization: Secs::of(60.0),
            max_scale_up_factor: 2.0,
            max_scale_up_pods: 4,
        }
    }

    /// Fallible [`HpaPolicy::new`] for policies built from untrusted
    /// configuration (e.g. a parsed deployment manifest).
    ///
    /// # Errors
    ///
    /// Returns [`HpaError::InvalidBounds`] unless
    /// `1 <= min_replicas <= max_replicas`.
    pub fn try_new(
        min_replicas: usize,
        max_replicas: usize,
        target: ScalingTarget,
    ) -> Result<Self, HpaError> {
        if min_replicas < 1 || min_replicas > max_replicas {
            return Err(HpaError::InvalidBounds {
                min_replicas,
                max_replicas,
            });
        }
        Ok(Self::new(min_replicas, max_replicas, target))
    }
}

/// The pure autoscaler state: everything [`HpaPolicy::step`] carries from
/// one evaluation to the next. A fresh deployment starts from
/// [`HpaState::default`] (no scaling history).
///
/// The state is a small value type so the explicit-state model checker
/// (`er-mc`) can enumerate and fingerprint it; the simulation engine's
/// [`HpaController`] wraps the same state and the same transition.
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
        let up_limit = ((current as f64) * self.max_scale_up_factor)
            .max((current + self.max_scale_up_pods) as f64) as usize;
        let desired = desired
            .min(up_limit)
            .clamp(self.min_replicas, self.max_replicas);

        // Tolerance band: ignore small deviations (Kubernetes behaviour).
        if (ratio - 1.0).abs() <= self.tolerance {
            return (*state, None);
        }
        if desired == current {
            return (*state, None);
        }
        if desired < current {
            // Scale-down stabilization window. SimTime subtraction yields
            // raw seconds; rewrap before comparing against the window.
            if let Some(last) = state.last_scale_down {
                if Secs::of(now - last) < self.scale_down_stabilization {
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
/// Pure like [`HpaPolicy::step`]: the simulation engine and the `er-mc`
/// control-plane model call this exact function.
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

/// Stateful HPA evaluator for one deployment: a thin shell holding the
/// [`HpaState`] that [`HpaPolicy::step`] threads through evaluations.
///
/// # Examples
///
/// ```
/// use er_cluster::{HpaController, HpaPolicy, Observation, ScalingTarget};
/// use er_sim::SimTime;
/// use er_units::Qps;
///
/// let policy = HpaPolicy::new(1, 10, ScalingTarget::QpsPerReplica(Qps::of(100.0)));
/// let mut hpa = HpaController::new(policy);
/// let obs = Observation { qps: Qps::of(450.0), p95_latency: None };
/// // 450 QPS at 100 QPS/replica -> 5 replicas.
/// assert_eq!(hpa.evaluate(SimTime::ZERO, 2, obs), Some(5));
/// ```
#[derive(Debug, Clone)]
pub struct HpaController {
    policy: HpaPolicy,
    state: HpaState,
}

impl HpaController {
    /// Creates a controller with no scaling history.
    pub fn new(policy: HpaPolicy) -> Self {
        Self {
            policy,
            state: HpaState::default(),
        }
    }

    /// The controller's policy.
    pub fn policy(&self) -> &HpaPolicy {
        &self.policy
    }

    /// The controller's current pure state.
    pub fn state(&self) -> &HpaState {
        &self.state
    }

    /// Evaluates the policy. Returns `Some(new_replicas)` when the
    /// deployment should be resized, `None` to leave it alone.
    ///
    /// Delegates to the pure [`HpaPolicy::step`] transition — the
    /// controller only stores the successor state.
    ///
    /// # Panics
    ///
    /// Panics if `current` is zero — an HPA never manages a deployment with
    /// no replicas.
    pub fn evaluate(&mut self, now: SimTime, current: usize, obs: Observation) -> Option<usize> {
        let (state, decision) = self.policy.step(&self.state, now, current, obs);
        self.state = state;
        decision
    }

    /// Fallible [`HpaController::evaluate`] for callers that can observe a
    /// deployment mid-teardown: `Ok(None)` means "leave it alone",
    /// `Ok(Some(n))` means "resize to `n`".
    ///
    /// # Errors
    ///
    /// Returns [`HpaError::NoReplicas`] if `current` is zero.
    pub fn try_evaluate(
        &mut self,
        now: SimTime,
        current: usize,
        obs: Observation,
    ) -> Result<Option<usize>, HpaError> {
        if current == 0 {
            return Err(HpaError::NoReplicas);
        }
        Ok(self.evaluate(now, current, obs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qps_policy() -> HpaPolicy {
        HpaPolicy::new(1, 100, ScalingTarget::QpsPerReplica(Qps::of(50.0)))
    }

    fn obs(qps: f64) -> Observation {
        Observation {
            qps: Qps::of(qps),
            p95_latency: None,
        }
    }

    #[test]
    fn qps_target_scales_to_traffic() {
        let mut hpa = HpaController::new(qps_policy());
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
        let mut hpa = HpaController::new(qps_policy());
        // 1 replica wanting 100: limited to 1+4 = 5 (the pod floor beats 2x).
        assert_eq!(hpa.evaluate(SimTime::ZERO, 1, obs(5000.0)), Some(5));
    }

    #[test]
    fn within_tolerance_is_a_noop() {
        let mut hpa = HpaController::new(qps_policy());
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
    fn bounds_are_respected() {
        let mut hpa = HpaController::new(HpaPolicy::new(
            2,
            5,
            ScalingTarget::QpsPerReplica(Qps::of(50.0)),
        ));
        // Rate limit allows 7, but max_replicas caps at 5.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 3, obs(10_000.0)), Some(5));
        let mut hpa2 = HpaController::new(HpaPolicy::new(
            2,
            5,
            ScalingTarget::QpsPerReplica(Qps::of(50.0)),
        ));
        assert_eq!(hpa2.evaluate(SimTime::ZERO, 4, obs(0.0)), Some(2));
    }

    #[test]
    fn latency_target_scales_up_under_pressure() {
        let policy = HpaPolicy::new(1, 50, ScalingTarget::LatencyP95(Secs::of(0.26)));
        let mut hpa = HpaController::new(policy);
        let o = Observation {
            qps: Qps::of(100.0),
            p95_latency: Some(Secs::of(0.52)),
        };
        // ratio 2.0 -> double the replicas (exactly the rate limit).
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, o), Some(8));
    }

    #[test]
    fn latency_target_without_samples_is_noop() {
        let policy = HpaPolicy::new(1, 50, ScalingTarget::LatencyP95(Secs::of(0.26)));
        let mut hpa = HpaController::new(policy);
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, obs(100.0)), None);
    }

    #[test]
    fn scale_down_is_stabilized() {
        let mut hpa = HpaController::new(qps_policy());
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
        let mut hpa = HpaController::new(qps_policy());
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
        let mut hpa = HpaController::new(qps_policy());
        assert_eq!(hpa.evaluate(SimTime::ZERO, 8, obs(0.0)), Some(1));
    }

    // ------------------------------------------------------------------
    // Boundary behaviour at exactly-on-target observations.
    // ------------------------------------------------------------------

    #[test]
    fn exactly_on_target_qps_is_a_noop() {
        let mut hpa = HpaController::new(qps_policy());
        // 4 replicas each carrying exactly the 50 QPS target: ratio 1.0.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, obs(200.0)), None);
        // The target the controller holds is the typed Qps we configured.
        assert_eq!(
            hpa.policy().target,
            ScalingTarget::QpsPerReplica(Qps::of(50.0))
        );
    }

    #[test]
    fn exactly_on_target_latency_is_a_noop() {
        let target = Secs::from_millis(260.0);
        let mut hpa = HpaController::new(HpaPolicy::new(1, 50, ScalingTarget::LatencyP95(target)));
        let o = Observation {
            qps: Qps::of(100.0),
            p95_latency: Some(Secs::of(0.26)),
        };
        // p95 exactly at target: ratio 1.0, inside the tolerance band.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, o), None);
        assert_eq!(hpa.policy().target, ScalingTarget::LatencyP95(target));
    }

    #[test]
    fn tolerance_edge_is_inclusive() {
        let mut hpa = HpaController::new(qps_policy());
        // ratio 1.09375 (exactly representable): inside the band, noop even
        // though ceil(4 × 1.09375) = 5 > 4 — the band suppresses rounding.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, obs(218.75)), None);
        // Just past the band the controller acts.
        assert_eq!(hpa.evaluate(SimTime::ZERO, 4, obs(221.0)), Some(5));
    }

    #[test]
    fn tolerance_edge_below_target_is_inclusive() {
        let mut hpa = HpaController::new(qps_policy());
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
        HpaController::new(qps_policy()).evaluate(SimTime::ZERO, 0, obs(1.0));
    }

    #[test]
    #[should_panic(expected = "min")]
    fn invalid_bounds_panic() {
        HpaPolicy::new(5, 2, ScalingTarget::QpsPerReplica(Qps::of(1.0)));
    }

    #[test]
    fn try_new_reports_bad_bounds() {
        let err = HpaPolicy::try_new(5, 2, ScalingTarget::QpsPerReplica(Qps::of(1.0))).unwrap_err();
        assert_eq!(
            err,
            HpaError::InvalidBounds {
                min_replicas: 5,
                max_replicas: 2
            }
        );
        assert!(err.to_string().contains("1 <= min (5) <= max (2)"));
        assert!(HpaPolicy::try_new(1, 2, ScalingTarget::QpsPerReplica(Qps::of(1.0))).is_ok());
    }

    #[test]
    fn try_evaluate_errors_on_zero_replicas_and_matches_evaluate() {
        let mut hpa = HpaController::new(qps_policy());
        assert_eq!(
            hpa.try_evaluate(SimTime::ZERO, 0, obs(1.0)),
            Err(HpaError::NoReplicas)
        );
        assert_eq!(hpa.try_evaluate(SimTime::ZERO, 3, obs(500.0)), Ok(Some(7)));
    }

    #[test]
    fn try_evaluate_zero_replicas_is_an_error_for_every_target_kind() {
        for target in [
            ScalingTarget::QpsPerReplica(Qps::of(50.0)),
            ScalingTarget::LatencyP95(Secs::of(0.26)),
        ] {
            let mut hpa = HpaController::new(HpaPolicy::new(1, 10, target));
            let o = Observation {
                qps: Qps::ZERO,
                p95_latency: Some(Secs::of(1.0)),
            };
            assert_eq!(
                hpa.try_evaluate(SimTime::ZERO, 0, o),
                Err(HpaError::NoReplicas),
                "target={target:?}"
            );
        }
    }
}
