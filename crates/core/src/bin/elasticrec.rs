//! `elasticrec` — command-line front end for the ElasticRec reproduction.
//!
//! ```text
//! elasticrec plan     --model rm1 --platform cpu --strategy elastic
//! elasticrec size     --model rm2 --platform cpu-gpu --strategy model-wise --qps 200
//! elasticrec simulate --model rm1 --qps 100 --duration 60 [--figure19]
//! elasticrec utility  --model rm3 --queries 1000
//! ```
//!
//! Run `elasticrec help` for the full reference.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use elasticrec::{
    plan, Calibration, Platform, ServingPlan, Simulation, SimulationConfig, SteadyState, Strategy,
};
use er_model::{configs, ModelConfig};
use er_workload::TrafficSchedule;

const HELP: &str = "\
elasticrec — microservice-based RecSys model serving (ISCA'24 reproduction)

USAGE:
    elasticrec <COMMAND> [OPTIONS]

COMMANDS:
    plan        Show the shard deployment plan for a model
    size        Steady-state sizing (memory, nodes, replicas) at a target QPS
    simulate    Serve simulated traffic and report latency/SLA behaviour
    utility     Per-shard memory utility of the first embedding table
    help        Show this message

OPTIONS:
    --model <rm1|rm2|rm3>            Workload from the paper's Table II [default: rm1]
    --platform <cpu|cpu-gpu>         Testbed [default: cpu]
    --strategy <elastic|model-wise|cached>
                                     Allocation strategy [default: elastic]
    --qps <N>                        Target or offered QPS [default: 100]
    --duration <SECS>                Simulated seconds (simulate) [default: 60]
    --seed <N>                       RNG seed (simulate/utility) [default: 42]
    --queries <N>                    Queries to sample (utility) [default: 1000]
    --figure19                       Use the paper's stepped traffic (simulate)
";

/// Parsed command-line options.
#[derive(Debug, Clone)]
struct Options {
    command: String,
    model: ModelConfig,
    platform: Platform,
    strategy: Strategy,
    qps: f64,
    duration: f64,
    seed: u64,
    queries: usize,
    figure19: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let command = args.first().cloned().unwrap_or_else(|| "help".to_owned());
    let mut model = configs::rm1();
    let mut platform = Platform::CpuOnly;
    let mut strategy = Strategy::Elastic;
    let mut qps = 100.0;
    let mut duration = 60.0;
    let mut seed = 42;
    let mut queries = 1000;
    let mut figure19 = false;

    let mut i = 1;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = || -> Result<&String, String> {
            args.get(i + 1)
                .ok_or_else(|| format!("flag {flag} needs a value"))
        };
        match flag {
            "--model" => {
                model = match value()?.as_str() {
                    "rm1" => configs::rm1(),
                    "rm2" => configs::rm2(),
                    "rm3" => configs::rm3(),
                    other => return Err(format!("unknown model '{other}'")),
                };
                i += 2;
            }
            "--platform" => {
                platform = match value()?.as_str() {
                    "cpu" => Platform::CpuOnly,
                    "cpu-gpu" => Platform::CpuGpu,
                    other => return Err(format!("unknown platform '{other}'")),
                };
                i += 2;
            }
            "--strategy" => {
                strategy = match value()?.as_str() {
                    "elastic" => Strategy::Elastic,
                    "model-wise" => Strategy::ModelWise,
                    "cached" => Strategy::ModelWiseCached { gpu_hit_rate: 0.9 },
                    other => return Err(format!("unknown strategy '{other}'")),
                };
                i += 2;
            }
            "--qps" => {
                qps = value()?
                    .parse()
                    .map_err(|e| format!("bad --qps value: {e}"))?;
                i += 2;
            }
            "--duration" => {
                duration = value()?
                    .parse()
                    .map_err(|e| format!("bad --duration value: {e}"))?;
                i += 2;
            }
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|e| format!("bad --seed value: {e}"))?;
                i += 2;
            }
            "--queries" => {
                queries = value()?
                    .parse()
                    .map_err(|e| format!("bad --queries value: {e}"))?;
                i += 2;
            }
            "--figure19" => {
                figure19 = true;
                i += 1;
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Options {
        command,
        model,
        platform,
        strategy,
        qps,
        duration,
        seed,
        queries,
        figure19,
    })
}

fn calibration(platform: Platform) -> Calibration {
    match platform {
        Platform::CpuOnly => Calibration::cpu_only(),
        Platform::CpuGpu => Calibration::cpu_gpu(),
    }
}

fn build_plan(opts: &Options) -> ServingPlan {
    plan(
        &opts.model,
        opts.platform,
        opts.strategy,
        &calibration(opts.platform),
    )
}

fn cmd_plan(opts: &Options) {
    let p = build_plan(opts);
    println!(
        "{} on {:?} with {:?}: {} shard deployment(s)\n",
        opts.model.name,
        opts.platform,
        opts.strategy,
        p.num_shards()
    );
    println!(
        "{:<14} {:>10} {:>12} {:>10} {:>12}",
        "shard", "cores", "memory", "qps_max", "gathers/query"
    );
    for s in &p.shards {
        println!(
            "{:<14} {:>10} {:>9.2} GiB {:>10.1} {:>12.0}",
            s.name,
            s.pod.resources().cpu_millicores / 1000,
            s.pod.resources().memory_bytes as f64 / (1u64 << 30) as f64,
            s.qps_max(),
            s.expected_gathers,
        );
    }
    if !p.table_plans.is_empty() {
        println!(
            "\ntable partition (per table): cuts at {:?}",
            p.table_plans[0].cuts()
        );
    }
}

fn cmd_size(opts: &Options) -> Result<(), String> {
    let p = build_plan(opts);
    let calib = calibration(opts.platform);
    let s = SteadyState::size(&p, opts.qps, &calib).map_err(|e| e.to_string())?;
    println!(
        "{} / {:?} / {:?} at {} QPS:",
        opts.model.name, opts.platform, opts.strategy, opts.qps
    );
    println!("  memory:   {:.2} GiB", s.memory_gib());
    println!("  nodes:    {}", s.nodes_used);
    println!("  replicas: {}", s.total_replicas());
    for (name, n) in &s.replicas {
        println!("    {name:<14} x{n}");
    }
    Ok(())
}

fn cmd_simulate(opts: &Options) {
    let p = build_plan(opts);
    let calib = calibration(opts.platform);
    let schedule = if opts.figure19 {
        TrafficSchedule::figure19(opts.qps / 5.0, opts.duration / 8.0)
    } else {
        TrafficSchedule::constant(opts.qps)
    };
    let cfg = SimulationConfig::new(schedule, opts.duration, opts.seed);
    let out = Simulation::run(&p, &calib, &cfg);
    println!(
        "{} / {:?} / {:?}, {:.0} s of traffic:",
        opts.model.name, opts.platform, opts.strategy, opts.duration
    );
    println!(
        "  queries:      {} injected, {} completed",
        out.total_queries, out.completed_queries
    );
    println!(
        "  latency:      mean {:.0} ms, p95 {:.0} ms, p99 {:.0} ms",
        out.mean_latency_secs() * 1e3,
        out.latency.percentile(0.95) * 1e3,
        out.latency.percentile(0.99) * 1e3,
    );
    println!(
        "  SLA:          {}/{} intervals violated 400 ms p95",
        out.sla_violation_intervals, out.metric_intervals
    );
    println!(
        "  memory:       peak {:.1} GiB, final nodes {}",
        out.peak_memory_gib, out.final_nodes_used
    );
    let st = &out.stages;
    println!(
        "  breakdown:    wait {:.1} ms | frontend {:.1} ms | sparse phase {:.1} ms | top {:.1} ms | network {:.1} ms",
        st.frontend_wait.mean() * 1e3,
        st.frontend_service.mean() * 1e3,
        st.sparse_phase.mean() * 1e3,
        (st.top_wait.mean() + st.top_service.mean()) * 1e3,
        st.client_rtt.mean() * 1e3,
    );
}

fn cmd_utility(opts: &Options) {
    let p = build_plan(opts);
    let table = &p.table_plans[0];
    let gathers = opts.model.batch_size * opts.model.tables[0].pooling as usize;
    let report = elasticrec::utility::measure_table_utility(
        table,
        opts.model.locality_p,
        opts.queries,
        gathers,
        opts.seed,
    );
    println!(
        "{} table 0 under {:?} ({} shards), first {} queries:",
        opts.model.name,
        opts.strategy,
        table.num_shards(),
        opts.queries
    );
    for s in &report {
        println!(
            "  shard {}: {:>10} rows, {:>9} touched, utility {:.1}%",
            s.shard + 1,
            s.size,
            s.touched,
            100.0 * s.utility()
        );
    }
    println!(
        "  aggregate utility: {:.1}%",
        100.0 * elasticrec::utility::aggregate_utility(&report)
    );
}

#[allow(clippy::disallowed_methods)] // the binary's entry point parses its own arguments
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    };
    match opts.command.as_str() {
        "plan" => cmd_plan(&opts),
        "size" => {
            if let Err(e) = cmd_size(&opts) {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
        "simulate" => cmd_simulate(&opts),
        "utility" => cmd_utility(&opts),
        "help" | "--help" | "-h" => println!("{HELP}"),
        other => {
            eprintln!("error: unknown command '{other}'\n\n{HELP}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn defaults_are_sane() {
        let o = parse_args(&args(&["plan"])).unwrap();
        assert_eq!(o.command, "plan");
        assert_eq!(o.model.name, "RM1");
        assert_eq!(o.platform, Platform::CpuOnly);
        assert_eq!(o.qps, 100.0);
        assert!(!o.figure19);
    }

    #[test]
    fn all_flags_parse() {
        let o = parse_args(&args(&[
            "simulate",
            "--model",
            "rm3",
            "--platform",
            "cpu-gpu",
            "--strategy",
            "cached",
            "--qps",
            "250",
            "--duration",
            "30",
            "--seed",
            "7",
            "--queries",
            "500",
            "--figure19",
        ]))
        .unwrap();
        assert_eq!(o.model.name, "RM3");
        assert_eq!(o.platform, Platform::CpuGpu);
        assert!(matches!(o.strategy, Strategy::ModelWiseCached { .. }));
        assert_eq!(o.qps, 250.0);
        assert_eq!(o.duration, 30.0);
        assert_eq!(o.seed, 7);
        assert_eq!(o.queries, 500);
        assert!(o.figure19);
    }

    #[test]
    fn bad_inputs_are_rejected() {
        assert!(parse_args(&args(&["size", "--model", "rm9"])).is_err());
        assert!(parse_args(&args(&["size", "--platform", "tpu"])).is_err());
        assert!(parse_args(&args(&["size", "--qps"])).is_err());
        assert!(parse_args(&args(&["size", "--qps", "abc"])).is_err());
        assert!(parse_args(&args(&["size", "--wat"])).is_err());
    }

    #[test]
    fn empty_args_default_to_help() {
        let o = parse_args(&[]).unwrap();
        assert_eq!(o.command, "help");
    }
}
