//! The explicit-state checker: bounded breadth-first exploration with
//! fingerprint dedup, invariant and terminal-liveness properties, and
//! minimal counterexample traces.
//!
//! Breadth-first order finds *shortest* counterexamples for invariants; a
//! greedy delete-one-action pass then shrinks traces further (dropping
//! actions that were irrelevant interleaving noise). Liveness is checked as "every terminal state
//! satisfies the predicate" — sound for the finite, acyclic, bounded
//! models this crate builds, where fairness is encoded in the action
//! guards (e.g. a tick cannot fire while a control message is undelivered).

use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::hash::{Hash, Hasher};

/// FNV-1a, the workspace's standard dependency-free fingerprint hash.
#[derive(Debug, Clone)]
pub struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Fingerprint of a state: the 64-bit FNV-1a hash of its `Hash` image.
/// Two distinct states colliding would silently prune exploration; at the
/// ~10^5–10^6 states of our bounds the collision odds are ~10^-8.
pub fn fingerprint<T: Hash>(value: &T) -> u64 {
    let mut h = FnvHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// A transition system the checker can explore.
///
/// `next` returns `None` when the action is not applicable in `state` —
/// which is what makes recorded traces *replayable*: minimization deletes
/// actions and replays the remainder, and inapplicable actions simply
/// invalidate the candidate instead of panicking.
pub trait Model {
    /// A state of the system. `Hash` feeds fingerprint dedup.
    type State: Clone + fmt::Debug + Hash;
    /// One atomic step (a message delivery, a tick, a routing decision).
    type Action: Clone + fmt::Debug;

    /// The single initial state.
    fn init(&self) -> Self::State;

    /// Appends every action enabled in `state` to `out`. An empty set
    /// marks `state` terminal.
    fn actions(&self, state: &Self::State, out: &mut Vec<Self::Action>);

    /// Applies `action` to `state`; `None` if not applicable.
    fn next(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State>;
}

/// What a property claims about the explored state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PropertyKind {
    /// Must hold in every reachable state (safety invariant).
    Always,
    /// Must hold in every terminal state — liveness under the fairness
    /// encoded in the model's action guards.
    EventuallyTerminal,
}

/// A named predicate over model states.
pub struct Property<M: Model> {
    /// Stable name, used in reports and JSON output.
    pub name: &'static str,
    /// Invariant or terminal-liveness.
    pub kind: PropertyKind,
    /// The predicate; `false` is a violation (per `kind`).
    pub check: fn(&M, &M::State) -> bool,
}

impl<M: Model> fmt::Debug for Property<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Property")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish()
    }
}

/// Exploration bounds: the checker stops expanding past these rather than
/// running forever on an unexpectedly large model.
#[derive(Debug, Clone, Copy)]
pub struct Bounds {
    /// Maximum trace depth explored.
    pub max_depth: usize,
    /// Maximum distinct states explored.
    pub max_states: usize,
}

impl Default for Bounds {
    fn default() -> Self {
        Self {
            max_depth: 64,
            max_states: 4_000_000,
        }
    }
}

/// A counterexample: the action sequence from the initial state to the
/// violating state, replayable through [`Model::next`].
#[derive(Debug, Clone)]
pub struct Trace<M: Model> {
    /// Actions from `init` to the violation, in order.
    pub actions: Vec<M::Action>,
    /// The violating state the actions reach.
    pub end_state: M::State,
}

impl<M: Model> Trace<M> {
    /// Renders the trace as numbered, replayable event lines.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (i, a) in self.actions.iter().enumerate() {
            out.push_str(&format!("  {:>3}. {:?}\n", i + 1, a));
        }
        out.push_str(&format!("  end state: {:?}\n", self.end_state));
        out
    }
}

/// Result of checking one property.
#[derive(Debug)]
pub struct PropertyResult<M: Model> {
    /// The property's name.
    pub name: &'static str,
    /// The property's kind.
    pub kind: PropertyKind,
    /// Minimized counterexample, `None` if the property held everywhere.
    pub counterexample: Option<Trace<M>>,
}

/// Result of one exploration run.
#[derive(Debug)]
pub struct CheckReport<M: Model> {
    /// Distinct states explored (after fingerprint dedup).
    pub states: usize,
    /// Deepest trace reached.
    pub max_depth: usize,
    /// Terminal states seen.
    pub terminals: usize,
    /// Whether a bound cut exploration short (results are then only valid
    /// up to the bound).
    pub truncated: bool,
    /// Per-property outcomes, in input order.
    pub properties: Vec<PropertyResult<M>>,
}

impl<M: Model> CheckReport<M> {
    /// Whether every property held within the explored bound.
    pub fn ok(&self) -> bool {
        self.properties.iter().all(|p| p.counterexample.is_none())
    }
}

/// Explores `model` breadth-first under `bounds` and checks `properties`.
///
/// One sweep serves all properties: `Always` predicates are evaluated on
/// every distinct state as it is discovered, `EventuallyTerminal`
/// predicates on every terminal state. The first (shortest) violation
/// per property is recorded, minimized, and reported; exploration
/// continues so the report's state/depth counts describe the full bound.
pub fn check<M: Model>(model: &M, properties: &[Property<M>], bounds: Bounds) -> CheckReport<M> {
    let init = model.init();
    let init_fp = fingerprint(&init);
    // fp -> how we first reached it (None for the root).
    let mut parents: BTreeMap<u64, Option<(u64, M::Action)>> = BTreeMap::new();
    parents.insert(init_fp, None);

    let mut frontier: VecDeque<(M::State, usize)> = VecDeque::new();
    frontier.push_back((init, 0));

    let mut states = 0usize;
    let mut deepest = 0usize;
    let mut terminals = 0usize;
    let mut truncated = false;
    let mut violations: Vec<Option<(u64, M::State)>> = vec![None; properties.len()];
    let mut actions_buf: Vec<M::Action> = Vec::new();

    while let Some((state, depth)) = frontier.pop_front() {
        states += 1;
        deepest = deepest.max(depth);
        let fp = fingerprint(&state);

        actions_buf.clear();
        model.actions(&state, &mut actions_buf);
        let terminal = actions_buf.is_empty();
        if terminal {
            terminals += 1;
        }

        for (i, prop) in properties.iter().enumerate() {
            if violations[i].is_some() {
                continue;
            }
            let applies = match prop.kind {
                PropertyKind::Always => true,
                PropertyKind::EventuallyTerminal => terminal,
            };
            if applies && !(prop.check)(model, &state) {
                violations[i] = Some((fp, state.clone()));
            }
        }

        if states >= bounds.max_states {
            truncated = true;
            break;
        }
        if depth >= bounds.max_depth {
            truncated = true;
            continue;
        }
        for action in actions_buf.drain(..) {
            let Some(succ) = model.next(&state, &action) else {
                continue;
            };
            let succ_fp = fingerprint(&succ);
            if let Entry::Vacant(e) = parents.entry(succ_fp) {
                e.insert(Some((fp, action)));
                frontier.push_back((succ, depth + 1));
            }
        }
    }

    let properties = properties
        .iter()
        .zip(violations)
        .map(|(prop, violation)| PropertyResult {
            name: prop.name,
            kind: prop.kind,
            counterexample: violation.map(|(fp, _)| {
                let raw = reconstruct(model, &parents, fp);
                minimize(model, prop, raw)
            }),
        })
        .collect();

    CheckReport {
        states,
        max_depth: deepest,
        terminals,
        truncated,
        properties,
    }
}

/// Walks parent pointers back from `fp` and replays the action sequence
/// forward to produce a verified trace.
fn reconstruct<M: Model>(
    model: &M,
    parents: &BTreeMap<u64, Option<(u64, M::Action)>>,
    mut fp: u64,
) -> Trace<M> {
    let mut actions = Vec::new();
    while let Some(Some((parent, action))) = parents.get(&fp) {
        actions.push(action.clone());
        fp = *parent;
    }
    actions.reverse();
    #[expect(
        clippy::expect_used,
        reason = "every recorded parent pointer is a transition the model took"
    )]
    let end_state = replay(model, &actions).expect("parent-pointer trace must replay");
    Trace { actions, end_state }
}

/// Replays `actions` from the initial state; `None` if any action is
/// inapplicable along the way.
pub fn replay<M: Model>(model: &M, actions: &[M::Action]) -> Option<M::State> {
    let mut state = model.init();
    for action in actions {
        state = model.next(&state, action)?;
    }
    Some(state)
}

/// Whether replaying `actions` still violates `prop`: for invariants the
/// *final* state must violate; for terminal-liveness the final state must
/// be terminal and violate.
fn still_violates<M: Model>(
    model: &M,
    prop: &Property<M>,
    actions: &[M::Action],
) -> Option<M::State> {
    let end = replay(model, actions)?;
    if prop.kind == PropertyKind::EventuallyTerminal {
        let mut out = Vec::new();
        model.actions(&end, &mut out);
        if !out.is_empty() {
            return None;
        }
    }
    if (prop.check)(model, &end) {
        return None;
    }
    Some(end)
}

/// Greedy delete-one-action minimization to a fixpoint: BFS already gives
/// a shortest-by-depth trace, but interleaved actions irrelevant to the
/// violation (e.g. routing on the *other* deployment) can still be
/// dropped, leaving a trace where every remaining event matters.
fn minimize<M: Model>(model: &M, prop: &Property<M>, mut trace: Trace<M>) -> Trace<M> {
    let mut changed = true;
    while changed {
        changed = false;
        let mut i = 0;
        while i < trace.actions.len() {
            let mut candidate = trace.actions.clone();
            candidate.remove(i);
            if let Some(end) = still_violates(model, prop, &candidate) {
                trace.actions = candidate;
                trace.end_state = end;
                changed = true;
            } else {
                i += 1;
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A counter that can +1 / +2 up to a cap; "violation" = hitting a
    /// designated value.
    #[derive(Debug)]
    struct Counter {
        cap: u32,
        bad: u32,
    }

    impl Model for Counter {
        type State = u32;
        type Action = u32;

        fn init(&self) -> u32 {
            0
        }

        fn actions(&self, state: &u32, out: &mut Vec<u32>) {
            for step in [1, 2] {
                if state + step <= self.cap {
                    out.push(step);
                }
            }
        }

        fn next(&self, state: &u32, action: &u32) -> Option<u32> {
            let n = state + action;
            (n <= self.cap).then_some(n)
        }
    }

    fn avoid_bad() -> Property<Counter> {
        Property {
            name: "never_bad",
            kind: PropertyKind::Always,
            check: |m, s| *s != m.bad,
        }
    }

    #[test]
    fn bfs_finds_the_shortest_counterexample() {
        let m = Counter { cap: 10, bad: 7 };
        let report = check(&m, &[avoid_bad()], Bounds::default());
        assert!(!report.ok());
        let cx = report.properties[0].counterexample.as_ref().unwrap();
        // Shortest path to 7 with steps of 1/2 is four actions; greedy
        // minimization cannot shrink it further (sum must stay 7).
        assert_eq!(cx.end_state, 7);
        assert_eq!(cx.actions.len(), 4);
        assert_eq!(cx.actions.iter().sum::<u32>(), 7);
    }

    #[test]
    fn clean_models_report_ok_with_exact_state_count() {
        let m = Counter { cap: 5, bad: 99 };
        let report = check(&m, &[avoid_bad()], Bounds::default());
        assert!(report.ok());
        // States 0..=5 exactly once each: dedup works.
        assert_eq!(report.states, 6);
        assert_eq!(report.terminals, 1); // only state 5 has no actions
        assert!(!report.truncated);
    }

    #[test]
    fn terminal_liveness_checks_only_terminal_states() {
        let m = Counter { cap: 6, bad: 99 };
        let converged = Property {
            name: "terminates_at_cap",
            kind: PropertyKind::EventuallyTerminal,
            check: |m: &Counter, s: &u32| *s == m.cap,
        };
        let report = check(&m, &[converged], Bounds::default());
        assert!(report.ok(), "intermediate states must not be checked");
    }

    #[test]
    fn depth_bound_truncates_and_reports_it() {
        let m = Counter { cap: 100, bad: 99 };
        let bounds = Bounds {
            max_depth: 3,
            max_states: 1_000_000,
        };
        let report = check(&m, &[avoid_bad()], bounds);
        assert!(report.truncated);
        assert!(report.ok(), "99 is unreachable within depth 3");
        assert_eq!(report.max_depth, 3);
    }

    #[test]
    fn replay_rejects_inapplicable_actions() {
        let m = Counter { cap: 3, bad: 99 };
        assert_eq!(replay(&m, &[1, 2]), Some(3));
        assert_eq!(replay(&m, &[2, 2]), None);
    }

    #[test]
    fn fingerprints_differ_across_simple_states() {
        assert_ne!(fingerprint(&0u32), fingerprint(&1u32));
        assert_ne!(fingerprint(&(1u32, 2u32)), fingerprint(&(2u32, 1u32)));
    }
}
