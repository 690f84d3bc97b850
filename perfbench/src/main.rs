//! The repository benchmark. Each workload serves one functional model
//! through `ShardedDlrm::forward_ws` (a closed loop: one caller, one query
//! in flight) and runs one fleet scenario through `Simulation::run` (a
//! batch job in host time; arrivals inside the simulation are open-loop
//! Poisson). See `README.md` beside this file for every metric.
//!
//! Usage (from the repository root):
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sparse_ramp|dense_failover> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line carries the end-to-end metrics;
//! with `--trace 1` it carries the per-layer metrics of a traced run.

// A benchmark measures real elapsed time, so it reads the wall clock.
#![allow(clippy::disallowed_methods)]

mod fwd;
mod sim;
mod stats;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use er_model::configs;
use er_units::ElemKind;

use fwd::FwdSpec;
use sim::SimSpec;
use stats::{peak_rss_mib, Metrics};

/// Setup repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// Length of one closed-loop forward block between simulations.
const FWD_BLOCK: Duration = Duration::from_millis(1000);

/// A workload: one forward model and one fleet scenario.
struct Workload {
    name: &'static str,
    fwd: FwdSpec,
    sim: SimSpec,
}

const WORKLOADS: [Workload; 2] = [
    // RM1 shape, f16 shards: gathers dominate the forward pass. RM1
    // Elastic under the Figure 19 ramp: few replicas, so the data path
    // dominates the simulator's host time.
    Workload {
        name: "sparse_ramp",
        fwd: FwdSpec {
            model: configs::rm1,
            rows: 500_000,
            elem: ElemKind::F16,
        },
        sim: SimSpec {
            base_qps: 60.0,
            step_secs: 40.0,
            fail_node_at: None,
            max_nodes: None,
            max_replicas: 512,
            sub_seeds: 32,
        },
    },
    // RM3 shape, f32 shards that stay in cache: the bottom MLP dominates.
    // RM1 Elastic at a high base rate with a node failure mid-run, a node
    // cap and a deep replica ceiling: balancer, re-placement and HPA churn.
    Workload {
        name: "dense_failover",
        fwd: FwdSpec {
            model: configs::rm3,
            rows: 20_000,
            elem: ElemKind::F32,
        },
        sim: SimSpec {
            base_qps: 400.0,
            step_secs: 30.0,
            fail_node_at: Some(90.0),
            max_nodes: Some(1000),
            max_replicas: 2048,
            sub_seeds: 10,
        },
    },
];

/// The forward half of a run: measured, or traced.
// One value lives on the stack for the whole run; its size is irrelevant.
#[allow(clippy::large_enum_variant)]
enum Fwd<'a> {
    Closed(fwd::Closed<'a>),
    Traced(fwd::Traced<'a>),
}

impl Fwd<'_> {
    fn block(&mut self, len: Duration) {
        match self {
            Fwd::Closed(c) => c.block(len),
            Fwd::Traced(t) => t.block(len),
        }
    }

    fn busy(&self) -> Duration {
        match self {
            Fwd::Closed(c) => c.busy,
            Fwd::Traced(t) => t.busy,
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let num = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    let seconds = num("--seconds")?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got {other}")),
        },
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {:?} (have {names:?})",
            args.workload
        );
        return ExitCode::from(2);
    };
    let total = Duration::from_secs_f64(args.seconds);
    let mut e2e = Metrics::default();
    let mut layer = Metrics::default();

    let served = fwd::setup(&w.fwd, args.seed, SETUP_REPS);
    let planned = sim::setup(SETUP_REPS);
    e2e.add("setup_s", served.setup.total_s + planned.plan_s, "s");
    println!(
        "setup: forward model {:.3} s (build {:.3}, plan {:.3}, shard {:.3}, quantize {:.3}), sim plan {:.3} s; median of {SETUP_REPS}",
        served.setup.total_s,
        served.setup.model_build_s,
        served.setup.plan_s,
        served.setup.sharded_new_s,
        served.setup.quantize_s,
        planned.plan_s
    );

    // Forward blocks and simulations alternate over the whole run, each
    // taking about half of it, so both sample the same stretch of host
    // time; the simulations always finish their sub-seeds and one re-run.
    let mut fwd = if args.trace {
        Fwd::Traced(fwd::Traced::new(&served, &w.fwd))
    } else {
        Fwd::Closed(fwd::Closed::new(&served, &w.fwd))
    };
    let mut sims = sim::Runner::new(&w.sim, &planned, args.seed);
    let start = Instant::now();
    while start.elapsed() < total || !sims.done() {
        if fwd.busy() <= sims.busy && start.elapsed() < total {
            fwd.block(FWD_BLOCK);
        } else {
            sims.step();
        }
    }
    let (fwd_queries, fwd_failed, mismatched) = match &fwd {
        Fwd::Closed(c) => {
            c.finish(&mut e2e);
            (c.queries, c.failed, 0)
        }
        Fwd::Traced(t) => {
            t.finish(&mut layer);
            (t.queries, t.failed, t.mismatched)
        }
    };
    let fwd_s = fwd.busy().as_secs_f64();
    let s = sims.finish(&mut e2e, args.trace.then_some(&mut layer));
    let mem = peak_rss_mib().unwrap_or(f64::NAN);
    e2e.add("mem_peak_mib", mem, "MiB");

    let fwd_fail_share = fwd_failed as f64 / fwd_queries.max(1) as f64;
    let sim_lost_share = s.lost as f64 / s.injected.max(1) as f64;
    println!(
        "forward: {fwd_queries} queries in {fwd_s:.2} s, fwd_fail_share {fwd_fail_share} ratio"
    );
    println!("sim: sim_lost_share {sim_lost_share} ratio");
    if args.trace {
        println!("trace: {mismatched} replays not bit-identical to forward_ws");
    }
    let failed = fwd_failed + mismatched + s.failed;
    let out = if args.trace { &layer } else { &e2e };
    out.print_lines();
    println!(
        "{}",
        out.result_json(
            failed == 0 && mem.is_finite(),
            fwd_queries + s.attempted,
            failed
        )
    );
    ExitCode::SUCCESS
}
