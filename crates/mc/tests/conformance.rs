//! Random walks over the [`ControlPlane`] model must only visit states the
//! `Always` properties accept, and only end in terminals the
//! `EventuallyTerminal` properties accept — sampled corroboration of the
//! exhaustive bounded run, cheap enough to fuzz far past the CI bound's
//! depth. The walks are randomized but fully deterministic (seeded
//! [`SimRng`], no wall clock).

use er_mc::checker::{Model, PropertyKind};
use er_mc::control::{self, ControlPlane, CpConfig};
use er_sim::SimRng;

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
