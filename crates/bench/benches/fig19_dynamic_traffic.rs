//! Figure 19: robustness to dynamically changing input traffic (RM1,
//! CPU-only). Traffic rises in five increments and then drops; the paper
//! compares achieved QPS, memory consumption, and tail latency between
//! model-wise allocation and ElasticRec under Kubernetes HPA.
//!
//! Paper reference points: model-wise peaks at ~3.1x ElasticRec's memory,
//! reacts much more slowly to traffic steps (whole-model container
//! startup), and shows more frequent SLA-violating latency spikes.

use elasticrec::{plan, Calibration, Platform, Simulation, SimulationConfig, Strategy};
use er_bench::report;
use er_model::configs;
use er_workload::TrafficSchedule;

/// Base rate of the stepped schedule; peaks at 5x.
const BASE_QPS: f64 = 20.0;
/// Seconds between traffic steps.
const STEP_SECS: f64 = 40.0;
/// Total simulated duration.
const DURATION: f64 = 320.0;

fn main() {
    let calib = Calibration::cpu_only();
    let cfg_model = configs::rm1();
    let schedule = TrafficSchedule::figure19(BASE_QPS, STEP_SECS);

    let mut outcomes = Vec::new();
    for strategy in [Strategy::ModelWise, Strategy::Elastic] {
        let p = plan(&cfg_model, Platform::CpuOnly, strategy, &calib);
        let cfg = SimulationConfig::new(schedule.clone(), DURATION, 1234);
        outcomes.push((strategy, Simulation::run(&p, &calib, &cfg)));
    }

    report::header(
        "Figure 19",
        "QPS / memory / p95 latency under stepped traffic (RM1, CPU-only)",
    );
    println!(
        "{:>6}  {:>7} | {:>9} {:>9} | {:>10} {:>10} | {:>9} {:>9}",
        "t(s)", "target", "qps(MW)", "qps(ER)", "mem(MW)", "mem(ER)", "p95(MW)", "p95(ER)"
    );
    let (_, mw) = &outcomes[0];
    let (_, er) = &outcomes[1];
    let mut t = 10.0;
    while t <= DURATION {
        println!(
            "{:>6.0}  {:>7.0} | {:>9.1} {:>9.1} | {:>7.1}GiB {:>7.1}GiB | {:>7.0}ms {:>7.0}ms",
            t,
            schedule.rate_at(t),
            mw.achieved_qps.value_at(t).unwrap_or(0.0),
            er.achieved_qps.value_at(t).unwrap_or(0.0),
            mw.memory_gib.value_at(t).unwrap_or(0.0),
            er.memory_gib.value_at(t).unwrap_or(0.0),
            mw.p95_ms.value_at(t).unwrap_or(0.0),
            er.p95_ms.value_at(t).unwrap_or(0.0),
        );
        t += 20.0;
    }

    report::header("Figure 19 summary", "aggregates over the run");
    let mut quoted = Vec::new();
    for (strategy, out) in &outcomes {
        let peak = format!("{:.1} GiB", out.peak_memory_gib);
        let violations = format!(
            "{}/{} intervals",
            out.sla_violation_intervals, out.metric_intervals
        );
        report::row(
            &format!("{strategy:?}"),
            &[
                ("completed", out.completed_queries.to_string()),
                ("peak_mem", peak.clone()),
                (
                    "mean_latency",
                    format!("{:.0} ms", out.mean_latency_secs() * 1e3),
                ),
                ("sla_violations", violations.clone()),
            ],
        );
        quoted.extend([peak, violations]);
    }

    // Paper shapes.
    assert!(
        mw.peak_memory_gib > 2.0 * er.peak_memory_gib,
        "model-wise peak memory ({:.1}) must far exceed elastic ({:.1}) — paper reports 3.1x",
        mw.peak_memory_gib,
        er.peak_memory_gib
    );
    assert!(
        mw.violation_fraction() >= er.violation_fraction(),
        "model-wise must violate the SLA at least as often (mw {} vs er {})",
        mw.violation_fraction(),
        er.violation_fraction()
    );
    // Both ultimately serve the traffic.
    for (name, out) in [("MW", mw), ("ER", er)] {
        let served = out.completed_queries as f64 / out.total_queries as f64;
        assert!(served > 0.9, "{name} served only {served:.2} of queries");
    }
    // EXPERIMENTS.md quotes both runs' peak memory and SLA violations.
    assert_eq!(
        quoted,
        [
            "120.5 GiB",
            "44/320 intervals",
            "40.2 GiB",
            "1/320 intervals"
        ]
    );
    println!("\n[ok] Figure 19 qualitative checks passed");
}
