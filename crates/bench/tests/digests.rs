//! Pins every smoke-scale perfsuite digest.
//!
//! Each digest folds the bit patterns of a section's observable results,
//! so a change to event ordering, the forward pass, the simulation, a
//! quantized gather or a paired kernel moves it. Changing a pinned value
//! is then a one-line diff here, not a claim in a change description.
//! The full-scale digests, `fleet_par`'s included, are checked by
//! `perfsuite --baseline BENCH_perf.json`.

use er_bench::perf;

const PINNED: [(&str, &str); 10] = [
    ("event_queue", "cf95bf6639850c51"),
    ("forward", "96b257d7df626bd8"),
    ("fig19_sim", "141daeaf8d71741a"),
    ("par_seq", "a17f7ab9dd6e2ad1"),
    ("quant_f32_d64", "a3b513e48067c9a8"),
    ("quant_f16_d64", "078f0ae6c9f52273"),
    ("quant_i8_d64", "230d609fbb093108"),
    ("matmul_rm3", "8c38361487a9c657"),
    ("gather_f16_rm1", "ab4f2f8d14627d33"),
    ("route_remap", "6148cef724436a4f"),
];

#[test]
fn smoke_digests_match_the_pinned_values() {
    let report = perf::run(&perf::SMOKE);
    let got: Vec<(&str, &str)> = report
        .sections()
        .iter()
        .map(|s| (s.name(), s.digest()))
        .collect();
    assert_eq!(got, PINNED);
}
