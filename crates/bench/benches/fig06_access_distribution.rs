//! Figure 6: sorted access frequency of embedding vectors in the (synthetic
//! stand-ins for the) Amazon Books, Criteo, and MovieLens datasets, on a
//! log scale.
//!
//! The paper's observation: access patterns are power-law — e.g. 94% of
//! MovieLens lookups land on the hottest 10% of entries.

use er_bench::report;
use er_distribution::datasets;
use er_distribution::AccessModel;

const TOTAL_LOOKUPS: u64 = 10_000_000;
const POINTS: usize = 12;

fn main() {
    let mut coverages = Vec::new();
    for profile in datasets::ALL {
        report::header(
            &format!("Figure 6 ({})", profile.name),
            "expected access count by hotness rank (log-spaced)",
        );
        let curve = profile.frequency_curve(TOTAL_LOOKUPS, POINTS);
        for (rank, count) in &curve {
            report::row(
                &format!("rank {rank}"),
                &[("expected_accesses", format!("{count:.2}"))],
            );
        }
        // Power-law shape: monotone decreasing, head >> tail.
        for w in curve.windows(2) {
            assert!(
                w[0].1 >= w[1].1 - 1e-9,
                "{}: curve must decrease",
                profile.name
            );
        }
        let head = curve.first().expect("non-empty").1;
        let tail = curve.last().expect("non-empty").1;
        assert!(
            head / tail > 100.0,
            "{}: head/tail ratio {} too small for a power law",
            profile.name,
            head / tail
        );
        // Locality metric check (the paper quotes P=94% for MovieLens).
        let dist = profile.distribution();
        let p = dist.cdf(profile.num_items / 10);
        let coverage = format!("{:.1}%", 100.0 * p);
        report::row(
            "locality",
            &[(
                "top-10%-coverage",
                format!("{coverage} (target {:.0}%)", 100.0 * profile.locality_p),
            )],
        );
        assert!((p - profile.locality_p).abs() < 0.01);
        coverages.push(coverage);
    }
    assert_eq!(coverages, ["86.0%", "90.0%", "94.0%"]);
    println!("\n[ok] Figure 6 qualitative checks passed");
}
