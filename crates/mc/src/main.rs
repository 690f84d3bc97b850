//! The `er-mc` binary: explore the control-plane model, print the
//! property report, exit nonzero on any counterexample.
//!
//! ```text
//! er-mc [--smoke] [--mutate NAME]
//! ```
//!
//! The default bound is the documented CI bound (2 deployments × 3 max
//! replicas × 6 traffic steps); `--smoke` runs the small bound. `--mutate`
//! seeds a deliberately broken handler (`forget-stabilization`,
//! `ignore-readiness`, `over-drain`, `stuck-hpa`, `no-apply-clamp`) —
//! useful for inspecting the minimized trace each bug produces; mutated
//! runs still exit nonzero when (as intended) a property fails. The report
//! is text on stdout: the bound, the state counts, one PASS or FAIL line
//! per property and every minimized counterexample.

#![forbid(unsafe_code)]

use std::process::ExitCode;
use std::time::Instant;

use er_mc::{check, control, Bounds, CpConfig, Mutation};

struct Args {
    smoke: bool,
    mutate: Option<Mutation>,
}

#[allow(clippy::disallowed_methods)] // the binary's entry point parses its own arguments
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        smoke: false,
        mutate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--smoke" => args.smoke = true,
            "--mutate" => {
                args.mutate = Some(match it.next().as_deref() {
                    Some("forget-stabilization") => Mutation::ForgetStabilization,
                    Some("ignore-readiness") => Mutation::IgnoreReadiness,
                    Some("over-drain") => Mutation::OverDrain,
                    Some("stuck-hpa") => Mutation::StuckHpa,
                    Some("no-apply-clamp") => Mutation::NoApplyClamp,
                    other => return Err(format!("unknown mutation {other:?}")),
                });
            }
            flag => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

// The binary times the real exploration wall clock for its report — the
// handlers it drives stay pure; only the harness reads time.
#[allow(clippy::disallowed_methods)]
fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("er-mc: {msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut cfg = if args.smoke {
        CpConfig::smoke()
    } else {
        CpConfig::ci()
    };
    if let Some(m) = args.mutate {
        cfg.mutation = m;
    }
    let bound = format!(
        "{} deployments x {} max replicas x {} traffic steps, {} ticks, {} in-flight{}",
        cfg.deployments(),
        cfg.max_replicas,
        cfg.traffic.len(),
        cfg.max_ticks,
        cfg.inflight_budget,
        match cfg.mutation {
            Mutation::None => String::new(),
            m => format!(", mutation {m:?}"),
        },
    );

    let model = control::ControlPlane::new(cfg);
    let props = control::properties();
    let start = Instant::now();
    let report = check(&model, &props, Bounds::default());
    let elapsed = start.elapsed();

    println!("er-mc: bound: {bound}");
    println!(
        "er-mc: {} distinct states, depth {}, {} terminal states, {:.2}s{}",
        report.states,
        report.max_depth,
        report.terminals,
        elapsed.as_secs_f64(),
        if report.truncated { " (truncated)" } else { "" },
    );
    for p in &report.properties {
        match &p.counterexample {
            None => println!("er-mc: PASS {}", p.name),
            Some(cx) => {
                println!(
                    "er-mc: FAIL {} — minimized counterexample ({} events):",
                    p.name,
                    cx.actions.len()
                );
                print!("{}", cx.render());
            }
        }
    }

    if report.ok() {
        eprintln!(
            "er-mc: OK — all {} properties hold",
            report.properties.len()
        );
        ExitCode::SUCCESS
    } else {
        let failed = report
            .properties
            .iter()
            .filter(|p| p.counterexample.is_some())
            .count();
        eprintln!("er-mc: FAIL — {failed} property violation(s)");
        ExitCode::FAILURE
    }
}
