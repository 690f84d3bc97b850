//! Property-test bridge between the stateful engine components and the
//! pure handlers er-mc checks.
//!
//! Two directions, both randomized but fully deterministic (seeded
//! [`SimRng`], no wall clock):
//!
//! 1. **Engine → handler lockstep.** Random traffic driven through the
//!    engine's stateful [`HpaController`] and through the pure
//!    [`HpaPolicy::step`] the model calls must produce identical
//!    decisions and identical states. (Routing has no such bridge: the
//!    engine routes to the pod that can start soonest and keeps no
//!    counters, while the model's `er_rpc::pure` counters are the
//!    balancer shape property P3 checks.)
//! 2. **Model walks → invariants.** Random walks over the
//!    [`ControlPlane`] model must only visit states the `Always`
//!    properties accept, and only end in terminals the
//!    `EventuallyTerminal` properties accept — sampled corroboration of
//!    the exhaustive bounded run, cheap enough to fuzz far past the CI
//!    bound's depth.

use er_cluster::{HpaController, HpaPolicy, HpaState, Observation, ScalingTarget};
use er_mc::checker::{Model, PropertyKind};
use er_mc::control::{self, ControlPlane, CpConfig};
use er_sim::{SimRng, SimTime};
use er_units::Qps;

#[test]
fn hpa_controller_matches_pure_actor_across_random_traffic() {
    let mut rng = SimRng::seed_from(0x48A);
    for trial in 0..40 {
        let policy = HpaPolicy::new(1, 12, ScalingTarget::QpsPerReplica(Qps::of(100.0)));
        let mut ctl = HpaController::new(policy);
        let mut state = HpaState::default();
        let mut current = 1usize;
        for step in 0..30 {
            let obs = Observation {
                qps: Qps::of(rng.index(1200) as f64),
                p95_latency: None,
            };
            let now = SimTime::from_secs(f64::from(step) * 30.0);
            let engine = ctl.evaluate(now, current, obs);
            let (next, decision) = policy.step(&state, now, current, obs);
            state = next;
            assert_eq!(decision, engine, "trial {trial} step {step}");
            assert_eq!(state, *ctl.state(), "trial {trial} step {step}");
            if let Some(n) = decision {
                current = n;
            }
        }
    }
}

#[test]
fn random_walks_over_the_model_stay_within_the_invariants() {
    let model = ControlPlane::new(CpConfig::ci());
    let props = control::properties();
    let mut rng = SimRng::seed_from(0x7717);
    let mut acts = Vec::new();
    let mut terminals = 0usize;
    for _trial in 0..200 {
        let mut state = model.init();
        loop {
            for p in props.iter().filter(|p| p.kind == PropertyKind::Always) {
                assert!(
                    (p.check)(&model, &state),
                    "{} violated on a random walk:\n{state:#?}",
                    p.name
                );
            }
            acts.clear();
            model.actions(&state, &mut acts);
            let Some(i) = (!acts.is_empty()).then(|| rng.index(acts.len())) else {
                terminals += 1;
                for p in props
                    .iter()
                    .filter(|p| p.kind == PropertyKind::EventuallyTerminal)
                {
                    assert!(
                        (p.check)(&model, &state),
                        "{} violated at a random terminal:\n{state:#?}",
                        p.name
                    );
                }
                break;
            };
            let action = acts[i];
            state = model.next(&state, &action).expect("enabled action applies");
        }
    }
    assert!(terminals > 0, "no walk reached a terminal state");
}
