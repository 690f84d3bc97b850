//! Extension: long-horizon elasticity under diurnal traffic.
//!
//! The paper's Figure 19 covers one ramp; datacenter load is periodic.
//! This experiment drives RM1 through two full diurnal cycles
//! (20 ↔ 100 QPS) and measures the economics of elasticity: the average
//! memory an autoscaled deployment holds versus the peak-provisioned
//! static deployment a non-elastic operator must keep at all times.

use elasticrec::{
    plan, Calibration, Platform, Simulation, SimulationConfig, SteadyState, Strategy,
};
use er_bench::report;
use er_model::configs;
use er_workload::TrafficSchedule;

const LOW_QPS: f64 = 20.0;
const HIGH_QPS: f64 = 100.0;
const PERIOD_SECS: f64 = 600.0;

fn main() {
    let calib = Calibration::cpu_only();
    let model = configs::rm1();
    let schedule = TrafficSchedule::diurnal(LOW_QPS, HIGH_QPS, PERIOD_SECS, 10, 2);
    let duration = 2.0 * PERIOD_SECS;

    report::header(
        "Extension: diurnal",
        "two day/night cycles, 20-100 QPS (RM1, CPU-only)",
    );

    let mut avg_mems = Vec::new();
    for strategy in [Strategy::ModelWise, Strategy::Elastic] {
        let p = plan(&model, Platform::CpuOnly, strategy, &calib);
        let cfg = SimulationConfig::new(schedule.clone(), duration, 2024);
        let out = Simulation::run(&p, &calib, &cfg);

        // What a non-elastic operator would provision: peak, permanently.
        let static_peak = SteadyState::size(&p, HIGH_QPS, &calib)
            .expect("fits")
            .memory_gib();
        let avg = out.memory_gib.mean_value();
        report::row(
            &format!("{strategy:?}"),
            &[
                ("avg_mem", format!("{avg:.1} GiB")),
                ("peak_mem", format!("{:.1} GiB", out.peak_memory_gib)),
                ("static_peak", format!("{static_peak:.1} GiB")),
                ("elastic_saving", report::ratio(static_peak, avg)),
                (
                    "sla_violations",
                    format!("{}/{}", out.sla_violation_intervals, out.metric_intervals),
                ),
                (
                    "replicas(min..max)",
                    format!(
                        "{:.0}..{:.0}",
                        out.total_replicas
                            .points()
                            .iter()
                            .map(|p| p.value)
                            .fold(f64::INFINITY, f64::min),
                        out.total_replicas.max_value()
                    ),
                ),
            ],
        );
        avg_mems.push((strategy, avg, static_peak, out));
    }

    // Elasticity must pay for both strategies, and more for ElasticRec.
    let (_, mw_avg, mw_static, mw_out) = &avg_mems[0];
    let (_, er_avg, er_static, er_out) = &avg_mems[1];
    assert!(
        er_avg < mw_avg,
        "elastic average memory must undercut model-wise"
    );
    assert!(
        er_avg < er_static,
        "autoscaling must beat static peak provisioning"
    );
    let mw_saving = mw_static / mw_avg;
    let er_saving = er_static / er_avg;
    // ElasticRec scales small shards in and out; model-wise can only add or
    // remove whole-model replicas, so its footprint tracks load coarsely.
    let savings = [format!("{mw_saving:.2}x"), format!("{er_saving:.2}x")];
    report::row(
        "conclusion",
        &[
            ("mw_elastic_saving", savings[0].clone()),
            ("er_elastic_saving", savings[1].clone()),
        ],
    );
    // Both must keep serving across cycles.
    for (name, out) in [("MW", mw_out), ("ER", er_out)] {
        let served = out.completed_queries as f64 / out.total_queries as f64;
        assert!(served > 0.9, "{name} served only {served:.2}");
    }
    assert!(
        er_out.violation_fraction() <= mw_out.violation_fraction(),
        "elastic must not violate the SLA more often than model-wise"
    );
    assert_eq!(
        [format!("{mw_avg:.1} GiB"), format!("{er_avg:.1} GiB")],
        ["77.7 GiB", "37.3 GiB"]
    );
    assert_eq!(savings, ["1.24x", "1.07x"]);
    println!("\n[ok] diurnal extension checks passed");
}
