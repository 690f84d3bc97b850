//! The property catalog under check, and the seeded-mutation regression
//! suite: every deliberately broken handler must be caught by exactly the
//! property that owns its bug class, with a minimized trace that replays.

use std::collections::BTreeSet;

use er_mc::{check, control, replay, Bounds, CpAction, CpConfig, Model, Mutation};

fn run(cfg: CpConfig) -> er_mc::CheckReport<control::ControlPlane> {
    let model = control::ControlPlane::new(cfg);
    check(&model, &control::properties(), Bounds::default())
}

/// A small single-deployment bound whose traffic staircase (1 → 3 → 2 → 1)
/// exercises scale-up, the double scale-down that arms the stabilization
/// window, and the decision/delivery race.
fn staircase() -> CpConfig {
    CpConfig {
        traffic: vec![vec![1], vec![3], vec![2], vec![1]],
        max_ticks: 10,
        ..CpConfig::ci()
    }
}

/// Asserts `report` explored its whole bound, found no counterexample,
/// and reached exactly the pinned `(states, max_depth, terminals)`. A
/// change to any count means the handlers or the model changed.
fn assert_clean_with_counts(
    report: &er_mc::CheckReport<control::ControlPlane>,
    counts: (usize, usize, usize),
) {
    assert!(!report.truncated, "the bound must be fully explored");
    for p in &report.properties {
        assert!(
            p.counterexample.is_none(),
            "property {} violated on the shipped handlers:\n{}",
            p.name,
            p.counterexample.as_ref().unwrap().render()
        );
    }
    assert_eq!(report.properties.len(), 5);
    assert_eq!(
        (report.states, report.max_depth, report.terminals),
        counts,
        "(states, max depth, terminals)"
    );
}

#[test]
fn ci_bound_is_exhaustive_and_clean() {
    assert_clean_with_counts(&run(CpConfig::ci()), (184_726, 32, 179));
}

#[test]
fn smoke_bound_is_exhaustive_and_clean() {
    assert_clean_with_counts(&run(CpConfig::smoke()), (14_245, 23, 32));
}

/// Runs a mutated config and asserts exactly `expect` fails, returning its
/// minimized counterexample.
fn catch(cfg: CpConfig, expect: &str) -> er_mc::Trace<control::ControlPlane> {
    let mutation = cfg.mutation;
    let report = run(cfg);
    for p in &report.properties {
        if p.name == expect {
            assert!(
                p.counterexample.is_some(),
                "{mutation:?} must violate {expect}"
            );
        } else {
            assert!(
                p.counterexample.is_none(),
                "{mutation:?} unexpectedly violated {} too",
                p.name
            );
        }
    }
    report
        .properties
        .into_iter()
        .find(|p| p.name == expect)
        .unwrap()
        .counterexample
        .unwrap()
}

#[test]
fn work_on_a_starting_pod_waits_for_readiness() {
    // `route` queues on a starting pod once every ready pod has two or
    // more requests in flight. Over every state of the smoke bound, such a
    // request must not complete before the tick that makes its pod ready.
    let model = control::ControlPlane::new(CpConfig::smoke());
    let mut seen = BTreeSet::new();
    let mut frontier = vec![model.init()];
    let mut actions = Vec::new();
    let mut queued_on_starting = 0;
    while let Some(state) = frontier.pop() {
        if !seen.insert(state.clone()) {
            continue;
        }
        actions.clear();
        model.actions(&state, &mut actions);
        for (d, dep) in state.deploys.iter().enumerate() {
            let ready = dep.pod_nodes.len() - usize::from(dep.starting);
            for r in ready..dep.inflight.len() {
                if dep.inflight[r] == 0 {
                    continue;
                }
                queued_on_starting += 1;
                let complete = CpAction::Complete {
                    d: d as u8,
                    r: r as u8,
                };
                assert!(
                    !actions.contains(&complete),
                    "{complete:?} offered on a starting pod in {state:?}"
                );
                assert_eq!(model.next(&state, &complete), None);
            }
        }
        frontier.extend(actions.iter().filter_map(|a| model.next(&state, a)));
    }
    assert!(queued_on_starting > 0, "no state queues on a starting pod");
}

#[test]
fn forgetting_stabilization_is_caught_as_thrash() {
    let cfg = CpConfig {
        mutation: Mutation::ForgetStabilization,
        ..staircase()
    };
    let cx = catch(cfg, "no_thrash_within_stabilization");
    // Two scale-downs need two HPA ticks plus the traffic staircase; a
    // minimized trace stays within a dozen-odd events.
    assert!(
        cx.actions.len() <= 16,
        "trace not minimized: {}",
        cx.render()
    );
}

#[test]
fn ignoring_readiness_is_caught_by_soonest_start() {
    // Sending traffic before readiness needs a pod still starting while
    // every ready pod is busy: scale up, then route twice within the tick.
    let cfg = CpConfig {
        mutation: Mutation::IgnoreReadiness,
        ..staircase()
    };
    let cx = catch(cfg, "routes_to_soonest_start");
    assert!(
        cx.actions.len() <= 16,
        "trace not minimized: {}",
        cx.render()
    );
}

#[test]
fn over_draining_is_caught_by_capacity_floor() {
    let cfg = CpConfig {
        mutation: Mutation::OverDrain,
        ..staircase()
    };
    let cx = catch(cfg, "no_scale_down_below_capacity");
    assert!(
        cx.actions.len() <= 12,
        "trace not minimized: {}",
        cx.render()
    );
}

#[test]
fn stuck_hpa_is_caught_by_convergence() {
    let cfg = CpConfig {
        mutation: Mutation::StuckHpa,
        ..staircase()
    };
    let cx = catch(cfg, "converges_to_target_replicas");
    assert!(!cx.actions.is_empty());
}

#[test]
fn missing_apply_clamp_reproduces_the_found_race() {
    // The bug the checker found in the original handlers: a scale-down
    // decided before a traffic step but delivered after it leaves fewer
    // replicas than the stepped-up load needs. `clamp_scale_to_load` is
    // the fix; removing it must resurface the race.
    let cfg = CpConfig {
        traffic: vec![vec![1], vec![2], vec![1], vec![2]],
        max_ticks: 10,
        mutation: Mutation::NoApplyClamp,
        ..CpConfig::ci()
    };
    let cx = catch(cfg, "no_scale_down_below_capacity");
    assert!(
        cx.actions.len() <= 10,
        "trace not minimized: {}",
        cx.render()
    );
}

#[test]
fn minimized_counterexamples_replay_deterministically() {
    let cfg = CpConfig {
        mutation: Mutation::OverDrain,
        ..staircase()
    };
    let mutation = cfg.mutation;
    let model = control::ControlPlane::new(cfg);
    let report = check(&model, &control::properties(), Bounds::default());
    let p = report
        .properties
        .iter()
        .find(|p| p.counterexample.is_some())
        .expect("mutation must produce a counterexample");
    let cx = p.counterexample.as_ref().unwrap();
    let replayed = replay(&model, &cx.actions).expect("trace must replay");
    assert_eq!(
        replayed, cx.end_state,
        "{mutation:?} trace must replay to the recorded end state"
    );
    // The end state itself must violate the property.
    let prop = control::properties()
        .into_iter()
        .find(|q| q.name == p.name)
        .unwrap();
    assert!(!(prop.check)(&model, &replayed));
}
