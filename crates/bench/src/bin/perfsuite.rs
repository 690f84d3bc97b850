//! Performance baseline suite: runs the sections of [`er_bench::perf`]
//! and writes `BENCH_perf.json` so every change leaves a perf trajectory
//! behind. Seven timed sections (eight with `--fleet`), each folding its
//! results into a determinism digest; the section list is in the
//! [`er_bench::perf`] docs.
//!
//! Usage:
//!   perfsuite [--smoke] [--out PATH] [--baseline PATH] [--fleet]
//!             [--quant-parity] [--no-enforce-speedup]
//!
//! `--smoke` runs a tiny configuration (CI-sized) and writes to
//! `target/BENCH_perf_smoke.json` by default; `tests/digests.rs` pins its
//! digests.
//! Every run validates the emitted JSON schema. `--baseline` points at a
//! previous `BENCH_perf.json`: the run exits nonzero if that file cannot
//! be read or is malformed, if a section of this run is missing from it,
//! or if any digest differs from it. Its `wall_secs` per section are
//! embedded, speedups computed, and any section slower than 0.95x of its
//! baseline fails the run (opt out with `--no-enforce-speedup`). Full
//! mode also enforces the quantized i8 gather at >= 1.8x of f32.
//! `--quant-parity` runs only the quantized-data-plane checks: f32, f16
//! and i8 gather digests bit-identical across every available SIMD
//! backend, every rung's f16 decode exact on all 65,536 bit patterns, and
//! quantized gathers within their analytic error bounds. `--fleet` adds
//! the 1000-node synthetic fleet scenario as a timed section,
//! `fleet_par`. An unknown argument, or `--out`/`--baseline` without a
//! value, is an error.

use std::process::exit;

use er_bench::perf::{self, Digest, QUANT_I8_SPEEDUP_FLOOR, QUANT_ROUNDS};
use er_model::EmbeddingTable;
use er_tensor::quant::f16_to_f32;
use er_tensor::simd::{
    gather_pool_csr_f16_with, gather_pool_csr_i8_with, gather_pool_csr_with, SimdBackend,
};
use er_tensor::{quantize_f16, quantize_i8_rows, Matrix};
use er_units::ElemKind;

/// Minimum acceptable speedup vs the attached baseline per section.
const SPEEDUP_FLOOR: f64 = 0.95;

/// The parsed command line.
#[derive(Default)]
struct Args {
    smoke: bool,
    fleet: bool,
    quant_parity: bool,
    no_enforce_speedup: bool,
    out: Option<String>,
    baseline: Option<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--smoke" => parsed.smoke = true,
                "--fleet" => parsed.fleet = true,
                "--quant-parity" => parsed.quant_parity = true,
                "--no-enforce-speedup" => parsed.no_enforce_speedup = true,
                "--out" => parsed.out = Some(path_after(&mut it, arg)?),
                "--baseline" => parsed.baseline = Some(path_after(&mut it, arg)?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }
}

/// The path following `flag`; a missing one, or a flag in its place, is
/// an error rather than a silent fallback to the default.
fn path_after(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<String, String> {
    it.next()
        .filter(|v| !v.starts_with("--"))
        .cloned()
        .ok_or_else(|| format!("{flag} needs a path"))
}

/// Prints `msg` as a perfsuite error and exits nonzero.
fn fail(msg: &str) -> ! {
    eprintln!("perfsuite: {msg}");
    exit(1)
}

#[allow(clippy::disallowed_methods)] // the binary's entry point parses its own arguments
fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = Args::parse(&raw).unwrap_or_else(|e| fail(&e));

    if args.quant_parity {
        // The CI stage: f32 gather digests must agree across every SIMD
        // backend this CPU offers, and quantized gathers must stay within
        // their analytic error bounds. Nothing written; nonzero exit on
        // the first violation.
        run_quant_parity();
        return;
    }

    // Read and validate the baseline before the (minutes-long) run.
    let baseline = args.baseline.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read baseline {path}: {e}")));
        if let Err(e) = perf::validate_schema(&text) {
            fail(&format!("malformed baseline {path}: {e}"));
        }
        text
    });

    let (scale, default_out) = if args.smoke {
        (&perf::SMOKE, "target/BENCH_perf_smoke.json")
    } else {
        (&perf::FULL, "BENCH_perf.json")
    };
    let out_path = args.out.clone().unwrap_or_else(|| default_out.to_string());

    let (mut report, quant) = perf::run(scale, args.fleet);
    println!(
        "quant gather d64: f16 {:.2}x, i8 {:.2}x vs f32 (median of {QUANT_ROUNDS} paired rounds)",
        quant.f16, quant.i8,
    );
    if !args.smoke && quant.i8 < QUANT_I8_SPEEDUP_FLOOR {
        fail(&format!(
            "i8 gather speedup {:.2}x below the {QUANT_I8_SPEEDUP_FLOOR}x floor vs f32",
            quant.i8
        ));
    }

    let baseline_check = baseline.as_ref().map(|text| report.check_baseline(text));

    let json = report.to_json();
    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).expect("create output directory");
        }
    }
    std::fs::write(&out_path, &json).expect("write perf report");

    println!("{}", report.summary_table());
    println!("report written to {out_path}");

    // The emitted file must round-trip the schema check — this is what the
    // CI smoke stage relies on.
    let reread = std::fs::read_to_string(&out_path).expect("reread perf report");
    match perf::validate_schema(&reread) {
        Ok(sections) => println!("schema ok ({sections} sections)"),
        Err(e) => fail(&format!("schema validation failed: {e}")),
    }

    // Digest drift is a behaviour change, not noise: any mismatch or
    // missing section fails the run.
    match baseline_check {
        Some(Err(e)) => fail(&format!("baseline check failed:\n{e}")),
        Some(Ok(())) => println!("baseline ok (every digest =base)"),
        None => {}
    }

    // The perf gate: with a baseline attached, any section below the
    // floor fails the suite (wall-time noise budget is the 5% margin).
    if !args.no_enforce_speedup && baseline.is_some() {
        if let Err(e) = report.enforce_speedups(SPEEDUP_FLOOR) {
            fail(&format!("speedup floor violated:\n{e}"));
        }
        println!("speedup floor ok (every section >= {SPEEDUP_FLOOR}x of baseline)");
    }
}

/// The `--quant-parity` CI stage: every SIMD backend this CPU offers must
/// produce bit-identical f32, f16 and i8 gathers and decode every f16 bit
/// pattern exactly (absent backends are skipped with an explicit log
/// line), and the quantized gathers must stay within their analytic error
/// bounds against the f32 reference.
fn run_quant_parity() {
    let dim = 64u32;
    let rows = 4096u32;
    let table = EmbeddingTable::with_seed(rows, dim, 97);
    let (indices, offsets) = perf::quant_lookup(rows, 512, 24);

    // Backend parity of the f32, f16 and i8 gathers, over a deterministic
    // buffer: one digest per backend and element kind.
    let raw: Vec<f32> = (0..u64::from(rows) * u64::from(dim))
        .map(|i| {
            let h = i.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31);
            ((h % 2001) as f32 - 1000.0) / 10_000.0
        })
        .collect();
    let half = quantize_f16(&raw);
    let (codes, scales) = quantize_i8_rows(&raw, dim as usize);
    let backends: Vec<SimdBackend> = SimdBackend::ALL
        .into_iter()
        .filter(|b| {
            if !b.is_available() {
                println!("quant-parity: SKIPPING backend {b}: not available on this CPU");
            }
            b.is_available()
        })
        .collect();
    for kind in [ElemKind::F32, ElemKind::F16, ElemKind::I8] {
        let mut digests = Vec::new();
        for &backend in &backends {
            let mut out = Matrix::zeros(offsets.len(), dim as usize);
            match kind {
                ElemKind::F32 => {
                    gather_pool_csr_with(backend, &raw, rows, &indices, &offsets, &mut out)
                }
                ElemKind::F16 => {
                    gather_pool_csr_f16_with(backend, &half, rows, &indices, &offsets, &mut out)
                }
                ElemKind::I8 => gather_pool_csr_i8_with(
                    backend, &codes, &scales, rows, &indices, &offsets, &mut out,
                ),
            }
            let mut digest = Digest::new();
            for &v in out.as_slice() {
                digest.fold_f64(f64::from(v));
            }
            println!(
                "quant-parity: {kind} backend {backend}: digest {}",
                digest.hex()
            );
            digests.push(digest.hex());
        }
        if digests.iter().any(|d| d != &digests[0]) {
            fail(&format!(
                "{kind} gather digests diverged across backends: {digests:?}"
            ));
        }
    }

    // The f16 decode of every rung against `f16_to_f32` on all 65,536 bit
    // patterns: one lookup per 16-lane row into an output of -0.0, which
    // the add returns unchanged (a signalling NaN comes back quiet, as
    // `f16_to_f32` returns it).
    let every: Vec<u16> = (0..=u16::MAX).collect();
    let lanes = 16;
    let n = (every.len() / lanes) as u32;
    let ids: Vec<u32> = (0..n).collect();
    for &backend in &backends {
        let mut out = Matrix::filled(n as usize, lanes, -0.0);
        gather_pool_csr_f16_with(backend, &every, n, &ids, &ids, &mut out);
        for (&h, &v) in every.iter().zip(out.as_slice()) {
            if v.to_bits() != f16_to_f32(h).to_bits() {
                fail(&format!(
                    "{backend} decodes f16 {h:#06x} to {:#010x}",
                    v.to_bits()
                ));
            }
        }
    }
    println!("quant-parity: f16 decode exact on all 65536 patterns on every backend");

    // Quantized error bounds against the f32 reference.
    let mut reference = Matrix::zeros(1, 1);
    table.gather_pool_into(&indices, &offsets, &mut reference);
    for kind in [ElemKind::F16, ElemKind::I8] {
        let q = table.quantized(kind);
        let mut got = Matrix::zeros(1, 1);
        q.gather_pool_into(&indices, &offsets, &mut got);
        let bound = table.quant_error_bound(kind, &indices, &offsets);
        let mut worst = 0.0f32;
        for r in 0..got.rows() {
            for j in 0..got.cols() {
                let err = (got.get(r, j) - reference.get(r, j)).abs();
                if err > bound.get(r, j) {
                    fail(&format!(
                        "{kind} gather error {err} exceeds bound {} at ({r},{j})",
                        bound.get(r, j)
                    ));
                }
                worst = worst.max(err / bound.get(r, j).max(f32::MIN_POSITIVE));
            }
        }
        println!("quant-parity: {kind} within analytic bound (worst {worst:.3} of bound)");
    }
    println!(
        "quant parity ok: {} backends agree, quantized errors bounded",
        backends.len()
    );
}
