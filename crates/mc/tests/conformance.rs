//! Property-test bridge between the stateful engine components and the
//! pure handlers er-mc checks.
//!
//! Two directions, both randomized but fully deterministic (seeded
//! [`SimRng`], no wall clock):
//!
//! 1. **Engine → handler lockstep.** Random scenario traces driven through
//!    the stateful [`HpaController`] / [`LeastOutstanding`] /
//!    [`PowerOfTwoChoices`] and through the pure actors at the same time
//!    must produce identical decisions and identical states — the engine
//!    really does route through the code the checker checks.
//! 2. **Model walks → invariants.** Random walks over the
//!    [`ControlPlane`] model must only visit states the `Always`
//!    properties accept, and only end in terminals the
//!    `EventuallyTerminal` properties accept — sampled corroboration of
//!    the exhaustive bounded run, cheap enough to fuzz far past the CI
//!    bound's depth.

use er_cluster::{HpaController, HpaPolicy, Observation, ScalingTarget};
use er_mc::actor::{BalancerActor, HpaActor, HpaTick, LbMsg};
use er_mc::checker::{Model, PropertyKind};
use er_mc::control::{self, ControlPlane, CpConfig};
use er_mc::Actor;
use er_rpc::{Balancer, LeastOutstanding, PowerOfTwoChoices};
use er_sim::{SimRng, SimTime};
use er_units::Qps;

#[test]
fn least_outstanding_matches_pure_actor_on_random_churn() {
    let mut rng = SimRng::seed_from(0xE1A5);
    for trial in 0..50 {
        let mut lb = LeastOutstanding::new();
        let actor = BalancerActor;
        let mut state = actor.init();
        let mut n = 1 + rng.index(4);
        lb.on_scale(n);
        state = actor.on_msg(&state, &LbMsg::Scale { n }).0;
        for step in 0..40 {
            match rng.index(3) {
                0 => {
                    let engine_pick = lb.pick(n);
                    let (next, out) = actor.on_msg(&state, &LbMsg::PickLeast { n });
                    state = next;
                    assert_eq!(out, vec![engine_pick], "trial {trial} step {step}");
                }
                1 => {
                    // Completions may target dead replicas (scale-in races
                    // a late response); both sides must shrug them off.
                    let replica = rng.index(n + 2);
                    lb.on_complete(replica);
                    state = actor.on_msg(&state, &LbMsg::Complete { replica }).0;
                }
                _ => {
                    n = 1 + rng.index(4);
                    lb.on_scale(n);
                    state = actor.on_msg(&state, &LbMsg::Scale { n }).0;
                }
            }
            assert!(state.len() <= n, "trial {trial} step {step}");
            for (replica, &charge) in state.iter().enumerate() {
                assert_eq!(
                    charge,
                    lb.outstanding(replica),
                    "trial {trial} step {step} replica {replica}"
                );
            }
        }
    }
}

#[test]
fn p2c_matches_pure_actor_given_the_same_samples() {
    let mut rng = SimRng::seed_from(0x9C2);
    for trial in 0..20 {
        let seed = rng.next_u64();
        let mut lb = PowerOfTwoChoices::new(SimRng::seed_from(seed));
        // The stateful balancer draws its two samples internally; a shadow
        // stream over the same seed predicts them, and the actor takes
        // them as message fields — exactly how er-mc enumerates every
        // pair the RNG could have produced.
        let mut shadow = SimRng::seed_from(seed);
        let actor = BalancerActor;
        let mut state = actor.init();
        let mut n = 1 + rng.index(5);
        lb.on_scale(n);
        state = actor.on_msg(&state, &LbMsg::Scale { n }).0;
        for step in 0..60 {
            match rng.index(3) {
                0 => {
                    let engine_pick = lb.pick(n);
                    let a = shadow.index(n);
                    let b = shadow.index(n);
                    // The stateful pick re-syncs before sampling; mirror
                    // that with an explicit Scale message.
                    state = actor.on_msg(&state, &LbMsg::Scale { n }).0;
                    let (next, out) = actor.on_msg(&state, &LbMsg::PickBetween { a, b });
                    state = next;
                    assert_eq!(out, vec![engine_pick], "trial {trial} step {step}");
                }
                1 => {
                    let replica = rng.index(n + 2);
                    lb.on_complete(replica);
                    state = actor.on_msg(&state, &LbMsg::Complete { replica }).0;
                }
                _ => {
                    n = 1 + rng.index(5);
                    lb.on_scale(n);
                    state = actor.on_msg(&state, &LbMsg::Scale { n }).0;
                }
            }
            for (replica, &charge) in state.iter().enumerate() {
                assert_eq!(
                    charge,
                    lb.outstanding(replica),
                    "trial {trial} step {step} replica {replica}"
                );
            }
        }
    }
}

#[test]
fn hpa_controller_matches_pure_actor_across_random_traffic() {
    let mut rng = SimRng::seed_from(0x48A);
    for trial in 0..40 {
        let policy = HpaPolicy::new(1, 12, ScalingTarget::QpsPerReplica(Qps::of(100.0)));
        let mut ctl = HpaController::new(policy);
        let actor = HpaActor { policy };
        let mut state = actor.init();
        let mut current = 1usize;
        for step in 0..30 {
            let qps = Qps::of(rng.index(1200) as f64);
            let now = SimTime::from_secs(f64::from(step) * 30.0);
            let engine = ctl.evaluate(
                now,
                current,
                Observation {
                    qps,
                    p95_latency: None,
                },
            );
            let (next, out) = actor.on_msg(
                &state,
                &HpaTick {
                    now,
                    current,
                    qps,
                    p95_latency: None,
                },
            );
            state = next;
            assert_eq!(
                out,
                engine.into_iter().collect::<Vec<_>>(),
                "trial {trial} step {step}"
            );
            assert_eq!(state.0, *ctl.state(), "trial {trial} step {step}");
            if let Some(&n) = out.first() {
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
