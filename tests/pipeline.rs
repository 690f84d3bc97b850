//! End-to-end integration tests: the full paper pipeline from model
//! configuration to deployed, autoscaled, SLA-checked serving.

use elasticrec::{
    plan, Calibration, Platform, Simulation, SimulationConfig, SteadyState, Strategy,
};
use er_model::configs;
use er_workload::{SlaConfig, TrafficSchedule};

#[test]
fn elastic_beats_model_wise_on_memory_everywhere() {
    for (platform, calib, target) in [
        (Platform::CpuOnly, Calibration::cpu_only(), 100.0),
        (Platform::CpuGpu, Calibration::cpu_gpu(), 200.0),
    ] {
        for cfg in configs::all_rms() {
            let mw = SteadyState::size(
                &plan(&cfg, platform, Strategy::ModelWise, &calib),
                target,
                &calib,
            )
            .expect("fits");
            let er = SteadyState::size(
                &plan(&cfg, platform, Strategy::Elastic, &calib),
                target,
                &calib,
            )
            .expect("fits");
            assert!(
                (er.memory_bytes as f64) < 0.6 * mw.memory_bytes as f64,
                "{:?} {}: {} vs {}",
                platform,
                cfg.name,
                er.memory_gib(),
                mw.memory_gib()
            );
        }
    }
}

#[test]
fn node_reduction_holds_on_cpu_only() {
    let calib = Calibration::cpu_only();
    for cfg in configs::all_rms() {
        let mw = SteadyState::size(
            &plan(&cfg, Platform::CpuOnly, Strategy::ModelWise, &calib),
            100.0,
            &calib,
        )
        .expect("fits");
        let er = SteadyState::size(
            &plan(&cfg, Platform::CpuOnly, Strategy::Elastic, &calib),
            100.0,
            &calib,
        )
        .expect("fits");
        assert!(
            er.nodes_used < mw.nodes_used,
            "{}: {} vs {}",
            cfg.name,
            er.nodes_used,
            mw.nodes_used
        );
    }
}

#[test]
fn steady_serving_meets_the_sla() {
    // The sized deployment must actually hold the 400 ms p95 SLA when
    // driven by real (simulated) traffic.
    let calib = Calibration::cpu_only();
    let sla = SlaConfig::paper_default();
    for cfg in [configs::rm1(), configs::rm3()] {
        let p = plan(&cfg, Platform::CpuOnly, Strategy::Elastic, &calib);
        let sim = SimulationConfig::new(TrafficSchedule::constant(100.0), 45.0, 21);
        let out = Simulation::run(&p, &calib, &sim);
        let p95 = out.latency.percentile(0.95);
        assert!(
            !sla.is_violated(p95),
            "{}: p95 {:.0} ms violates the SLA",
            cfg.name,
            p95 * 1e3
        );
        assert!(out.completed_queries > 3000);
    }
}

#[test]
fn elastic_pays_modest_rpc_latency_over_model_wise() {
    // Section VI-B: the microservice fan-out costs some latency (the paper
    // measures ~31 ms, 8% of the SLA) — real, but bounded.
    let calib = Calibration::cpu_only();
    let cfg = configs::rm1();
    // Light load isolates the service + network path from queueing noise.
    let schedule = TrafficSchedule::constant(5.0);
    let run = |strategy| {
        let p = plan(&cfg, Platform::CpuOnly, strategy, &calib);
        Simulation::run(
            &p,
            &calib,
            &SimulationConfig::new(schedule.clone(), 60.0, 3),
        )
        .mean_latency_secs()
    };
    let mw = run(Strategy::ModelWise);
    let er = run(Strategy::Elastic);
    assert!(
        er > mw,
        "fan-out must add latency (er {er:.3} vs mw {mw:.3})"
    );
    assert!(
        er - mw < 0.2,
        "the overhead must stay a fraction of the SLA ({:.0} ms)",
        (er - mw) * 1e3
    );
}

#[test]
fn sharding_respects_platform_placement_rules() {
    // Section IV-A: sparse shards are CPU-only containers on both
    // platforms; dense shards are GPU-centric only on CPU-GPU.
    for cfg in configs::all_rms() {
        let cpu = plan(
            &cfg,
            Platform::CpuOnly,
            Strategy::Elastic,
            &Calibration::cpu_only(),
        );
        assert!(
            cpu.shards.iter().all(|s| s.pod.resources().gpus == 0),
            "{}",
            cfg.name
        );

        let gpu = plan(
            &cfg,
            Platform::CpuGpu,
            Strategy::Elastic,
            &Calibration::cpu_gpu(),
        );
        assert_eq!(gpu.frontend().pod.resources().gpus, 1, "{}", cfg.name);
        assert!(
            gpu.embedding_shards().all(|s| s.pod.resources().gpus == 0),
            "{}",
            cfg.name
        );
    }
}

#[test]
fn shard_counts_match_plan_structure() {
    let calib = Calibration::cpu_only();
    for cfg in configs::all_rms() {
        let p = plan(&cfg, Platform::CpuOnly, Strategy::Elastic, &calib);
        let expected: usize = p.table_plans.iter().map(|t| t.num_shards()).sum();
        assert_eq!(p.embedding_shards().count(), expected, "{}", cfg.name);
        assert_eq!(p.table_plans.len(), cfg.tables.len());
        // Every shard's plan tiles its table exactly.
        for t in &p.table_plans {
            let covered: u64 = (0..t.num_shards()).map(|s| t.shard_size(s)).sum();
            assert_eq!(covered, t.table_len());
        }
    }
}

#[test]
fn higher_targets_never_reduce_resources() {
    let calib = Calibration::cpu_only();
    let p = plan(
        &configs::rm1(),
        Platform::CpuOnly,
        Strategy::Elastic,
        &calib,
    );
    let mut prev_mem = 0;
    let mut prev_nodes = 0;
    for target in [50.0, 100.0, 200.0, 400.0, 800.0] {
        let s = SteadyState::size(&p, target, &calib).expect("fits");
        assert!(s.memory_bytes >= prev_mem, "target {target}");
        assert!(s.nodes_used >= prev_nodes, "target {target}");
        prev_mem = s.memory_bytes;
        prev_nodes = s.nodes_used;
    }
}

#[test]
fn gpu_cache_sits_between_baselines() {
    let calib = Calibration::cpu_gpu();
    for cfg in configs::all_rms() {
        let target = 200.0;
        let mw = SteadyState::size(
            &plan(&cfg, Platform::CpuGpu, Strategy::ModelWise, &calib),
            target,
            &calib,
        )
        .expect("fits");
        let cached = SteadyState::size(
            &plan(
                &cfg,
                Platform::CpuGpu,
                Strategy::ModelWiseCached { gpu_hit_rate: 0.9 },
                &calib,
            ),
            target,
            &calib,
        )
        .expect("fits");
        let er = SteadyState::size(
            &plan(&cfg, Platform::CpuGpu, Strategy::Elastic, &calib),
            target,
            &calib,
        )
        .expect("fits");
        assert!(cached.memory_bytes <= mw.memory_bytes, "{}", cfg.name);
        assert!(er.memory_bytes < cached.memory_bytes, "{}", cfg.name);
    }
}
