//! Extension: fault injection — losing a server mid-run.
//!
//! Beyond the paper: a node fails while RM1 serves traffic at a level
//! where the lost capacity matters. The interesting contrast is
//! **time-to-recover**: a model-wise replacement replica must reload the
//! whole model (tens of GiB, ~30 s) before it serves again, while
//! ElasticRec's replacement shards are small and return in seconds — even
//! though dense packing gives ElasticRec a *larger blast radius* (more
//! pods lost per node), a finding this experiment reports honestly.

use elasticrec::{plan, Calibration, Platform, Simulation, SimulationConfig, Strategy};
use er_bench::report;
use er_metrics::TimeSeries;
use er_model::configs;
use er_workload::TrafficSchedule;

const QPS: f64 = 100.0;
const FAIL_AT: f64 = 40.0;
const DURATION: f64 = 160.0;
const SLA_MS: f64 = 400.0;

/// Last instant in `(from, to]` whose interval p95 exceeded the SLA, i.e.
/// when the system finished recovering (equal to `from` if it never
/// suffered).
fn recovered_at(p95: &TimeSeries, from: f64, to: f64) -> f64 {
    p95.points()
        .iter()
        .filter(|pt| pt.time > from && pt.time <= to && pt.value > SLA_MS)
        .map(|pt| pt.time)
        .fold(from, f64::max)
}

fn main() {
    let calib = Calibration::cpu_only();
    let model = configs::rm1();

    report::header(
        "Extension: node failure",
        "node 0 dies at t=40 s under 100 QPS (RM1, CPU-only)",
    );

    let mut results = Vec::new();
    let mut quoted = Vec::new();
    for strategy in [Strategy::ModelWise, Strategy::Elastic] {
        let p = plan(&model, Platform::CpuOnly, strategy, &calib);
        let mut cfg = SimulationConfig::new(TrafficSchedule::constant(QPS), DURATION, 404);
        cfg.fail_node_at = Some(FAIL_AT);
        let out = Simulation::run(&p, &calib, &cfg);

        let recovered = recovered_at(&out.p95_ms, FAIL_AT, DURATION);
        let spike = out
            .p95_ms
            .points()
            .iter()
            .filter(|pt| pt.time > FAIL_AT)
            .map(|pt| pt.value)
            .fold(0.0, f64::max);
        let replicas = out.total_replicas.value_at(FAIL_AT - 1.0).unwrap_or(0.0);
        let spike = format!("{spike:.0} ms");
        let recovery = format!("{:.0} s", recovered - FAIL_AT);
        report::row(
            &format!("{strategy:?}"),
            &[
                ("replicas", format!("{replicas:.0}")),
                ("recovery_spike", spike.clone()),
                ("recovered_after", recovery.clone()),
                (
                    "served",
                    format!(
                        "{:.1}%",
                        100.0 * out.completed_queries as f64 / out.total_queries as f64
                    ),
                ),
            ],
        );
        results.push((strategy, recovered - FAIL_AT, out));
        quoted.extend([spike, recovery]);
    }

    let (_, mw_recovery_secs, mw_out) = &results[0];
    let (_, er_recovery_secs, er_out) = &results[1];
    // Elastic recovers faster: replacement shards load MiB, the monolith
    // reloads the whole model.
    assert!(
        er_recovery_secs < mw_recovery_secs,
        "elastic recovery ({er_recovery_secs:.0} s) must beat model-wise ({mw_recovery_secs:.0} s)"
    );
    // Both systems end the run healthy and lose no queries outright.
    for (name, out) in [("MW", mw_out), ("ER", er_out)] {
        let tail = out
            .p95_ms
            .points()
            .iter()
            .filter(|pt| pt.time > DURATION - 20.0)
            .map(|pt| pt.value)
            .fold(0.0, f64::max);
        assert!(
            tail < SLA_MS,
            "{name} must end within the SLA (p95 {tail:.0} ms)"
        );
        assert!(out.completed_queries as f64 > 0.95 * out.total_queries as f64);
    }
    // EXPERIMENTS.md quotes both runs' p95 spike and recovery time.
    assert_eq!(quoted, ["2250 ms", "32 s", "3375 ms", "10 s"]);
    println!("\n[ok] node-failure extension checks passed");
}
