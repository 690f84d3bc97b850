//! Pins every smoke-scale perfsuite digest.
//!
//! Each digest folds the bit patterns of a section's observable results,
//! so a change to event ordering, the forward pass, the simulation or a
//! quantized gather moves it. Changing a pinned value is then a one-line
//! diff here, not a claim in a change description. The full-scale
//! digests are checked by `perfsuite --fleet --baseline BENCH_perf.json`.

use er_bench::perf;

const PINNED: [(&str, &str); 7] = [
    ("event_queue", "cf95bf6639850c51"),
    ("forward", "96b257d7df626bd8"),
    ("fig19_sim", "141daeaf8d71741a"),
    ("par_seq", "a17f7ab9dd6e2ad1"),
    ("quant_f32_d64", "a3b513e48067c9a8"),
    ("quant_f16_d64", "078f0ae6c9f52273"),
    ("quant_i8_d64", "230d609fbb093108"),
];

#[test]
fn smoke_digests_match_the_pinned_values() {
    let (report, _) = perf::run(&perf::SMOKE, false);
    let got: Vec<(&str, &str)> = report
        .sections()
        .iter()
        .map(|s| (s.name(), s.digest()))
        .collect();
    assert_eq!(got, PINNED);
}
