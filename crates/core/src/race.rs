//! Vector-clock happens-before checker for the parallel simulation core.
//!
//! Compiled only under the `race-check` feature. [`WindowRaceChecker`]
//! attaches to [`er_sim::ShardedSim`] through [`er_sim::WindowObserver`]
//! and turns its barrier and handoff invariants into runtime assertions:
//! each shard carries a [`VectorClock`], every event is logged with a
//! clock snapshot, and a violated edge fails loudly with the reconstructed
//! window trace so the offending shard pair is named in the panic message.

use std::fmt::Write as _;
use std::sync::Mutex;

/// A logical vector clock: one monotonic counter per participating thread.
///
/// Clock `a` *happens-before* clock `b` iff every component of `a` is
/// `<=` the matching component of `b` (and they differ). Joining takes the
/// componentwise max — receiving a message makes everything the sender had
/// seen visible to the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VectorClock {
    ticks: Vec<u64>,
}

impl VectorClock {
    /// The zero clock over `n` threads.
    pub fn new(n: usize) -> Self {
        Self { ticks: vec![0; n] }
    }

    /// Advances thread `i`'s component (a local step).
    pub fn tick(&mut self, i: usize) {
        self.ticks[i] += 1;
    }

    /// Componentwise max — the receive half of a message edge.
    pub fn join(&mut self, other: &VectorClock) {
        for (t, &o) in self.ticks.iter_mut().zip(&other.ticks) {
            *t = (*t).max(o);
        }
    }

    /// `true` iff `other` happens-before-or-equals `self` (componentwise
    /// `other <= self`).
    pub fn dominates(&self, other: &VectorClock) -> bool {
        self.ticks.iter().zip(&other.ticks).all(|(&s, &o)| s >= o)
    }
}

impl std::fmt::Display for VectorClock {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("{")?;
        for (i, t) in self.ticks.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{t}")?;
        }
        f.write_str("}")
    }
}

/// One observed event at the windowed simulator's barriers.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WindowRaceEvent {
    /// A synchronization window opened.
    Window {
        /// Window index (sequential from 0).
        index: u64,
        /// Window start time (seconds).
        start: f64,
        /// Window end time (seconds); equals `start` for control windows.
        end: f64,
        /// Zero-lookahead control window.
        control: bool,
    },
    /// A cross-shard message crossed the barrier of the emitting window.
    Handoff {
        /// Emitting LP.
        src: usize,
        /// Receiving LP.
        dst: usize,
        /// Delivery time of the message (seconds).
        at: f64,
        /// Earliest delivery time conservative correctness allows.
        floor: f64,
    },
}

impl std::fmt::Display for WindowRaceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            WindowRaceEvent::Window {
                index,
                start,
                end,
                control,
            } => {
                let kind = if control { "control" } else { "window " };
                write!(f, "[barrier]  {kind} #{index} [{start}, {end}]")
            }
            WindowRaceEvent::Handoff {
                src,
                dst,
                at,
                floor,
            } => {
                write!(
                    f,
                    "[handoff]  LP{src} -> LP{dst} at t={at} (floor t={floor})"
                )
            }
        }
    }
}

#[derive(Debug)]
struct WindowState {
    /// One clock per shard, then the barrier coordinator last.
    clocks: Vec<VectorClock>,
    log: Vec<(WindowRaceEvent, VectorClock)>,
    next_index: u64,
    last_start: f64,
    windows_seen: u64,
    handoffs_seen: u64,
}

/// Happens-before checker for the sharded windowed simulator
/// ([`er_sim::ShardedSim`]), attached through [`er_sim::WindowObserver`].
///
/// The parallel serving engine is deterministic *because* two edges hold
/// for every cross-shard message:
///
/// 1. **Barrier handoff** — a message emitted in window `w` is delivered
///    through `w`'s barrier, never earlier: its delivery time is `>=` the
///    window's conservative floor (the window end, or the start for a
///    zero-lookahead control window).
/// 2. **Barrier ordering** — windows execute in strictly sequential index
///    order with monotonically non-decreasing start times, so the barrier
///    clock that every shard joins at each boundary totally orders the
///    windows.
///
/// Each shard carries a vector clock; every barrier joins all shard clocks
/// into the coordinator's clock and broadcasts it back (the barrier is a
/// full synchronization). A handoff whose delivery time undercuts the
/// floor means a message would arrive *inside* a window another shard is
/// still executing — a read of unsynchronized state — and fails loudly
/// with the reconstructed window/handoff trace, before the runner's own
/// conservative assertion fires.
#[derive(Debug)]
pub struct WindowRaceChecker {
    shards: usize,
    state: Mutex<WindowState>,
}

impl WindowRaceChecker {
    /// A checker for a simulation grouped into `shards` shards (LP `i`
    /// belongs to shard `i % shards`, mirroring the runner's mapping).
    pub fn new(shards: usize) -> Self {
        let shards = shards.max(1);
        Self {
            shards,
            state: Mutex::new(WindowState {
                clocks: vec![VectorClock::new(shards + 1); shards + 1],
                log: Vec::new(),
                next_index: 0,
                last_start: f64::NEG_INFINITY,
                windows_seen: 0,
                handoffs_seen: 0,
            }),
        }
    }

    /// Windows observed so far.
    pub fn windows_seen(&self) -> u64 {
        self.lock().windows_seen
    }

    /// Cross-shard handoffs observed so far.
    pub fn handoffs_seen(&self) -> u64 {
        self.lock().handoffs_seen
    }

    /// The window/handoff interleaving observed so far, one event per line
    /// with its clock snapshot.
    pub fn trace(&self) -> String {
        let st = self.lock();
        let mut out = String::new();
        for (ev, clock) in &st.log {
            let _ = writeln!(out, "  {ev} @ {clock}");
        }
        if st.log.is_empty() {
            out.push_str("  (no events recorded)\n");
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, WindowState> {
        match self.state.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn violation(&self, st: &WindowState, rule: &str, detail: &str) -> ! {
        let mut trace = String::new();
        for (ev, clock) in &st.log {
            let _ = writeln!(trace, "  {ev} @ {clock}");
        }
        // lint::allow(no_panic): the checker's whole purpose is to fail loudly on a violated barrier edge
        panic!("race-check: {rule} violated: {detail}\nwindow trace:\n{trace}");
    }
}

impl er_sim::WindowObserver for WindowRaceChecker {
    fn on_window(&self, index: u64, start: f64, end: f64, control: bool) {
        let mut st = self.lock();
        if index != st.next_index {
            let expected = st.next_index;
            self.violation(
                &st,
                "barrier-ordering",
                &format!("window #{index} opened but #{expected} was expected next"),
            );
        }
        if start < st.last_start {
            let prev = st.last_start;
            self.violation(
                &st,
                "barrier-ordering",
                &format!(
                    "window #{index} starts at t={start}, before the previous window's t={prev}"
                ),
            );
        }
        if control != (end == start) {
            self.violation(
                &st,
                "barrier-ordering",
                &format!(
                    "window #{index} [{start}, {end}] control flag {control} contradicts its bounds"
                ),
            );
        }
        // The barrier: the coordinator joins every shard, steps, and
        // broadcasts back — all shards now share a common frontier.
        let bar = self.shards;
        for s in 0..self.shards {
            let shard_clock = st.clocks[s].clone();
            st.clocks[bar].join(&shard_clock);
        }
        st.clocks[bar].tick(bar);
        let barrier_clock = st.clocks[bar].clone();
        for s in 0..self.shards {
            st.clocks[s].join(&barrier_clock);
            debug_assert!(st.clocks[s].dominates(&barrier_clock));
        }
        st.next_index += 1;
        st.last_start = start;
        st.windows_seen += 1;
        st.log.push((
            WindowRaceEvent::Window {
                index,
                start,
                end,
                control,
            },
            barrier_clock,
        ));
    }

    fn on_handoff(&self, src: usize, dst: usize, at: f64, floor: f64, control: bool) {
        let mut st = self.lock();
        let (ss, ds) = (src % self.shards, dst % self.shards);
        if at < floor {
            let kind = if control { "control window" } else { "window" };
            self.violation(
                &st,
                "conservative-handoff",
                &format!(
                    "LP{src} (shard {ss}) -> LP{dst} (shard {ds}) message delivers at \
                     t={at}, inside the emitting {kind} whose conservative floor is \
                     t={floor}; the receiver would observe state another shard is \
                     still mutating"
                ),
            );
        }
        // The message edge: src steps, dst receives src's frontier.
        st.clocks[ss].tick(ss);
        let msg = st.clocks[ss].clone();
        st.clocks[ds].join(&msg);
        let dst_clock = st.clocks[ds].clone();
        debug_assert!(dst_clock.dominates(&msg), "join establishes dominance");
        st.handoffs_seen += 1;
        st.log.push((
            WindowRaceEvent::Handoff {
                src,
                dst,
                at,
                floor,
            },
            dst_clock,
        ));
    }

    fn on_run_end(&self, windows: u64) {
        let st = self.lock();
        if windows != st.windows_seen {
            let seen = st.windows_seen;
            self.violation(
                &st,
                "window-accounting",
                &format!("runner reports {windows} windows but the observer saw {seen}"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    fn violation_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
        let err = catch_unwind(f).expect_err("expected a race-check violation");
        err.downcast_ref::<String>()
            .cloned()
            .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("panic payload is a string")
    }

    #[test]
    fn clocks_join_and_dominate() {
        let mut a = VectorClock::new(3);
        let mut b = VectorClock::new(3);
        a.tick(0);
        a.tick(0);
        b.tick(1);
        assert!(!a.dominates(&b) && !b.dominates(&a)); // concurrent
        b.join(&a);
        assert!(b.dominates(&a)); // the join made a visible to b
        assert_eq!(b.to_string(), "{2,1,0}");
    }

    /// A two-LP toy whose LP 0 ping-pongs messages at honest delays —
    /// or, when `cheat` is set, undercuts the lookahead on purpose.
    struct Hop {
        lp: usize,
        cheat: bool,
    }

    impl er_sim::LpLogic for Hop {
        type Event = u8;

        fn on_event(&mut self, _now: er_sim::SimTime, hops: u8, ctx: &mut er_sim::LpCtx<'_, u8>) {
            if hops == 0 {
                return;
            }
            let delay = if self.cheat { 0.25 } else { 1.5 }; // lookahead is 1.0
            ctx.send_in(1 - self.lp, delay, hops - 1);
        }
    }

    fn hop_sim(cheat: bool) -> er_sim::ShardedSim<Hop> {
        let cfg = er_sim::WindowConfig {
            lookahead: 1.0,
            shards: 2,
            threads: 1,
            sync_points: Vec::new(),
        };
        let lps = vec![
            Hop { lp: 0, cheat },
            Hop {
                lp: 1,
                cheat: false,
            },
        ];
        let mut sim = er_sim::ShardedSim::new(lps, cfg);
        sim.schedule(0, er_sim::SimTime::from_secs(0.5), 4);
        sim
    }

    #[test]
    fn window_checker_accepts_a_conservative_run() {
        let rc = WindowRaceChecker::new(2);
        let (_, stats) = hop_sim(false).run_observed(&rc);
        // The observer's accounting agrees with the runner's.
        assert_eq!(rc.windows_seen(), stats.windows);
        assert_eq!(rc.handoffs_seen(), stats.cross_messages);
        assert!(rc.handoffs_seen() >= 4, "every hop crosses shards");
        let trace = rc.trace();
        assert!(trace.contains("[handoff]  LP0 -> LP1"), "{trace}");
        assert!(trace.contains("[barrier]  window  #0"), "{trace}");
    }

    /// The negative test the instrumentation exists for: a shard that
    /// hands a message off *inside* its own window (delivery before the
    /// conservative floor) must trip the checker — with the shard pair
    /// named — before the runner's own assertion fires.
    #[test]
    fn deliberately_early_handoff_trips_the_window_checker() {
        let rc = WindowRaceChecker::new(2);
        let msg = violation_message(AssertUnwindSafe(|| {
            hop_sim(true).run_observed(&rc);
        }));
        assert!(msg.contains("conservative-handoff"), "{msg}");
        assert!(msg.contains("LP0 (shard 0) -> LP1 (shard 1)"), "{msg}");
        assert!(msg.contains("window trace:"), "{msg}");
    }

    #[test]
    fn window_checker_runs_under_the_parallel_serving_engine() {
        use er_workload::TrafficSchedule;
        let calib = crate::Calibration::cpu_only();
        let model = er_model::configs::rm1().with_num_tables(2);
        let p = crate::plan(
            &model,
            crate::Platform::CpuOnly,
            crate::Strategy::Elastic,
            &calib,
        );
        let cfg = crate::SimulationConfig::new(TrafficSchedule::constant(30.0), 10.0, 5);
        let rc = WindowRaceChecker::new(4);
        let (out, stats) = crate::ParSimulation::run_detailed(
            &p,
            &calib,
            &cfg,
            &crate::ParSimConfig::new(4, 2),
            Some(&rc),
        );
        assert!(out.completed_queries > 0);
        assert_eq!(rc.windows_seen(), stats.windows);
        assert_eq!(rc.handoffs_seen(), stats.cross_messages);
        assert!(
            stats.control_windows > 0,
            "HPA ticks run as control windows"
        );
    }
}
