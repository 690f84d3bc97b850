//! Figure 12 (with Table I): microbenchmark sensitivity of memory
//! consumption to (a) MLP size, (b) embedding-table locality, (c) number
//! of tables, and (d) the number of shards a table is partitioned into.
//! All runs use the CPU-only platform at the paper's 100 QPS target, on
//! the RM1-based microbenchmark model.
//!
//! Also prints the Figure 10 worked example of the DP partitioner.

use elasticrec::{plan, plan_elastic_fixed_shards, Calibration, Platform, SteadyState, Strategy};
use er_bench::report;
use er_model::{configs, MicrobenchGrid, ModelConfig};
use er_partition::partition_exact;

const TARGET_QPS: f64 = 100.0;

fn memory_gib(cfg: &ModelConfig, strategy: Strategy, calib: &Calibration) -> f64 {
    let p = plan(cfg, Platform::CpuOnly, strategy, calib);
    SteadyState::size(&p, TARGET_QPS, calib)
        .expect("sizing fits")
        .memory_gib()
}

/// Memory figures as the rows print them, e.g. `39.9 GiB`.
fn printed(gibs: &[f64]) -> Vec<String> {
    gibs.iter().map(|g| format!("{g:.1} GiB")).collect()
}

fn main() {
    let calib = Calibration::cpu_only();
    let grid = MicrobenchGrid::default();

    report::header("Table I", "microbenchmark parameter grid");
    report::row(
        "grid",
        &[
            ("mlp", format!("{:?}", grid.mlp_sizes)),
            ("locality", format!("{:?}", grid.localities)),
            ("tables", format!("{:?}", grid.table_counts)),
            ("shards", format!("{:?}", grid.shard_counts)),
        ],
    );

    // ---- Figure 10 worked example -------------------------------------
    report::header(
        "Figure 10",
        "DP worked example: COST=(end-start+1)^2/start, N=5, S=3",
    );
    let toy = partition_exact(5, 3, |k, j| ((j - k) as f64).powi(2) / (k + 1) as f64);
    let total: f64 = toy
        .shards()
        .iter()
        .map(|&(k, j)| ((j - k) as f64).powi(2) / (k + 1) as f64)
        .sum();
    report::row(
        "optimal plan",
        &[
            ("cuts", format!("{:?}", toy.cuts())),
            ("cost", format!("{total}")),
        ],
    );
    assert_eq!(toy.cuts(), &[1, 3, 5], "must match the paper's example");
    assert_eq!(total, 4.0, "must match the paper's Mem[3][5]=4");

    // ---- (a) MLP layer size -------------------------------------------
    report::header("Figure 12(a)", "memory vs MLP size (Light/Medium/Heavy)");
    let mut mw_growth = Vec::new();
    let mut el_growth = Vec::new();
    for &size in &grid.mlp_sizes {
        let cfg = configs::microbench(size);
        let mw = memory_gib(&cfg, Strategy::ModelWise, &calib);
        let el = memory_gib(&cfg, Strategy::Elastic, &calib);
        report::row(
            &size.to_string(),
            &[
                ("model-wise", format!("{mw:.1} GiB")),
                ("elastic", format!("{el:.1} GiB")),
                ("saving", report::ratio(mw, el)),
            ],
        );
        mw_growth.push(mw);
        el_growth.push(el);
    }
    // Paper shape: heavier MLPs balloon model-wise memory (whole tables
    // get duplicated) but only modestly grow ElasticRec's.
    let mw_delta = mw_growth.last().unwrap() - mw_growth[0];
    let el_delta = el_growth.last().unwrap() - el_growth[0];
    assert!(
        mw_delta > 4.0 * el_delta,
        "model-wise growth {mw_delta:.1} must dwarf elastic growth {el_delta:.1}"
    );
    assert_eq!(printed(&mw_growth), ["72.3 GiB", "96.4 GiB", "168.6 GiB"]);
    assert_eq!(printed(&el_growth), ["39.7 GiB", "39.9 GiB", "40.7 GiB"]);

    // ---- (b) locality ---------------------------------------------------
    report::header("Figure 12(b)", "memory vs table locality (P)");
    let mut el_by_locality = Vec::new();
    let mut mw_by_locality = Vec::new();
    for &p in &grid.localities {
        let cfg = configs::rm1().with_locality(p);
        let mw = memory_gib(&cfg, Strategy::ModelWise, &calib);
        let el = memory_gib(&cfg, Strategy::Elastic, &calib);
        report::row(
            &format!("P={:.0}%", p * 100.0),
            &[
                ("model-wise", format!("{mw:.1} GiB")),
                ("elastic", format!("{el:.1} GiB")),
                ("saving", report::ratio(mw, el)),
            ],
        );
        el_by_locality.push(el);
        mw_by_locality.push(mw);
    }
    // Paper shape: model-wise is locality-blind; ElasticRec's memory falls
    // as locality rises (2.2x savings at High in the paper).
    let mw_var = (mw_by_locality[2] - mw_by_locality[0]).abs() / mw_by_locality[0];
    assert!(mw_var < 0.05, "model-wise must be locality-insensitive");
    assert!(
        el_by_locality[2] < el_by_locality[0],
        "elastic memory must shrink with locality"
    );
    assert_eq!(printed(&mw_by_locality), ["96.4 GiB"; 3]);
    assert_eq!(
        printed(&el_by_locality),
        ["61.0 GiB", "47.9 GiB", "39.9 GiB"]
    );

    // ---- (c) number of tables -------------------------------------------
    report::header("Figure 12(c)", "memory vs number of embedding tables");
    let mut gaps = Vec::new();
    let mut mw_by_tables = Vec::new();
    let mut el_by_tables = Vec::new();
    for &n in &grid.table_counts {
        let cfg = configs::rm1().with_num_tables(n);
        let mw = memory_gib(&cfg, Strategy::ModelWise, &calib);
        let el = memory_gib(&cfg, Strategy::Elastic, &calib);
        report::row(
            &format!("{n} tables"),
            &[
                ("model-wise", format!("{mw:.1} GiB")),
                ("elastic", format!("{el:.1} GiB")),
                ("saving", report::ratio(mw, el)),
            ],
        );
        gaps.push(mw - el);
        mw_by_tables.push(mw);
        el_by_tables.push(el);
    }
    // The absolute gap must widen with table count (scalability claim).
    for w in gaps.windows(2) {
        assert!(w[1] > w[0], "gap must widen with more tables");
    }
    assert_eq!(
        printed(&mw_by_tables),
        ["10.5 GiB", "39.1 GiB", "96.4 GiB", "192.0 GiB"]
    );
    assert_eq!(
        printed(&el_by_tables),
        ["4.7 GiB", "16.4 GiB", "39.9 GiB", "63.7 GiB"]
    );

    // ---- (d) shards per table --------------------------------------------
    report::header("Figure 12(d)", "memory vs manual shard count per table");
    let cfg = configs::rm1();
    let auto = plan(&cfg, Platform::CpuOnly, Strategy::Elastic, &calib);
    let auto_shards = auto.table_plans[0].num_shards();
    let mut by_shards = Vec::new();
    for &k in &grid.shard_counts {
        let p = plan_elastic_fixed_shards(&cfg, Platform::CpuOnly, &calib, k);
        let mem = SteadyState::size(&p, TARGET_QPS, &calib)
            .expect("sizing fits")
            .memory_gib();
        report::row(
            &format!("{k} shard(s)"),
            &[("elastic", format!("{mem:.1} GiB"))],
        );
        by_shards.push((k, mem));
    }
    report::row("DP-chosen", &[("shards", auto_shards.to_string())]);
    // Paper shape: memory falls with shard count, then plateaus (diminishing
    // returns from per-container floors); the DP's choice sits at/near the
    // minimum.
    assert!(by_shards[1].1 < by_shards[0].1, "2 shards must beat 1");
    let best = by_shards
        .iter()
        .map(|&(_, m)| m)
        .fold(f64::INFINITY, f64::min);
    let dp_mem = SteadyState::size(&auto, TARGET_QPS, &calib)
        .expect("fits")
        .memory_gib();
    assert!(
        dp_mem <= best * 1.10,
        "DP plan ({dp_mem:.1} GiB) must be within 10% of the best manual plan ({best:.1} GiB)"
    );
    let last = by_shards.last().unwrap().1;
    let second_last = by_shards[by_shards.len() - 2].1;
    assert!(
        (last - second_last).abs() < 0.25 * by_shards[0].1,
        "memory must plateau at high shard counts"
    );
    let cheapest = by_shards
        .iter()
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("non-empty");
    assert_eq!((cheapest.0, auto_shards), (4, 4));
    println!("\n[ok] Figure 12 qualitative checks passed");
}
