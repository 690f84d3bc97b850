//! Performance baseline suite: runs the sections of [`er_bench::perf`]
//! and writes a `BENCH_perf.json` report so every change leaves a perf
//! trajectory behind. Eleven timed sections (ten with `--smoke`, which
//! skips the 1000-node `fleet_par`), each folding its results into a
//! determinism digest; the section list is in the [`er_bench::perf`] docs.
//!
//! Usage:
//!   perfsuite [--smoke] [--out PATH] [--baseline PATH] [--quant-parity]
//!
//! A full run writes to `target/BENCH_perf.json` by default and `--smoke`
//! (a tiny, CI-sized configuration whose digests `tests/digests.rs` pins)
//! to `target/BENCH_perf_smoke.json`; refreshing the committed
//! `BENCH_perf.json` takes an explicit `--out BENCH_perf.json`.
//! Every run validates the emitted JSON schema and prints each paired
//! ratio (median and IQR of same-run rounds against an in-process
//! reference) beside its floor. A full run fails if any ratio falls below
//! its floor in [`perf::FLOORS`]. `--baseline` points at a previous
//! `BENCH_perf.json`: the run exits nonzero if that file cannot be read or
//! is malformed, if a section of this run is missing from it, or if any
//! digest differs from it. Only names and digests are read from it.
//! `--quant-parity` runs only the quantized-data-plane checks: f32, f16
//! and i8 gather digests bit-identical across every available SIMD
//! backend, every rung's f16 decode exact on all 65,536 bit patterns,
//! every SIMD rung's f16 encode equal to `f16_from_f32` on all 2^32 f32
//! bit patterns (the scalar rung is that reference), and quantized
//! gathers within their analytic error bounds.
//! An unknown argument, `--out`/`--baseline` without a value, or an
//! `--out` naming the `--baseline` file is an error.

use std::process::exit;

use er_bench::perf::{self, Digest};
use er_model::EmbeddingTable;
use er_tensor::quant::{f16_from_f32, f16_to_f32};
use er_tensor::simd::{
    gather_pool_csr_f16_with, gather_pool_csr_i8_with, gather_pool_csr_with, quantize_f16_with,
    SimdBackend,
};
use er_tensor::{quantize_f16, quantize_i8_rows, Matrix};
use er_units::ElemKind;

/// The parsed command line.
#[derive(Default)]
struct Args {
    smoke: bool,
    quant_parity: bool,
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
                "--quant-parity" => parsed.quant_parity = true,
                "--out" => parsed.out = Some(path_after(&mut it, arg)?),
                "--baseline" => parsed.baseline = Some(path_after(&mut it, arg)?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }

    /// Where the report is written: `--out`, else a file under `target/`,
    /// so no run overwrites a committed baseline unless told to by name.
    /// An `--out` that names the `--baseline` file is an error: the run
    /// would replace the digests it is checked against.
    fn out_path(&self) -> Result<String, String> {
        let out = self.out.clone().unwrap_or_else(|| {
            let default = if self.smoke {
                "target/BENCH_perf_smoke.json"
            } else {
                "target/BENCH_perf.json"
            };
            default.to_string()
        });
        match &self.baseline {
            Some(base) if same_file(base, &out) => Err(format!(
                "--out {out} names the --baseline file; write the report elsewhere"
            )),
            _ => Ok(out),
        }
    }
}

/// Whether two paths name one file: equal as given, or resolving to the
/// same canonical path (`./x` and `x`, symlinks).
fn same_file(a: &str, b: &str) -> bool {
    a == b
        || matches!(
            (std::fs::canonicalize(a), std::fs::canonicalize(b)),
            (Ok(x), Ok(y)) if x == y
        )
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
    let out_path = args.out_path().unwrap_or_else(|e| fail(&e));

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

    let scale = if args.smoke {
        &perf::SMOKE
    } else {
        &perf::FULL
    };

    let mut report = perf::run(scale);
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

    // The speed gate: same-run paired ratios against their floors. Smoke
    // rounds are too short to time, so only a full run is gated.
    if !args.smoke {
        if let Err(e) = report.check_floors() {
            fail(&format!("paired floor violated:\n{e}"));
        }
        println!("floors ok (every gated ratio at or above its floor)");
    }
}

/// The `--quant-parity` CI stage: every SIMD backend this CPU offers must
/// produce bit-identical f32, f16 and i8 gathers, decode every f16 bit
/// pattern exactly and, on every SIMD rung, encode every f32 bit pattern
/// as `f16_from_f32` does (absent backends are skipped with an explicit
/// log line), and the quantized gathers must stay within their analytic
/// error bounds against the f32 reference.
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

    // The f16 encode of every SIMD rung against `f16_from_f32` on all 2^32
    // f32 bit patterns, a block at a time. The scalar rung *is*
    // `f16_from_f32` per element, so sweeping it would compare the
    // reference with itself; `dispatch_parity.rs` covers its loop and tail.
    println!("quant-parity: f16 encode backend scalar is the f16_from_f32 reference, not swept");
    const BLOCK: u64 = 1 << 20;
    let mut input = vec![0.0f32; BLOCK as usize];
    let mut want = vec![0u16; BLOCK as usize];
    let mut got = vec![0u16; BLOCK as usize];
    for base in (0..1u64 << 32).step_by(BLOCK as usize) {
        for (i, (x, w)) in input.iter_mut().zip(&mut want).enumerate() {
            *x = f32::from_bits((base + i as u64) as u32);
            *w = f16_from_f32(*x);
        }
        for &backend in backends.iter().filter(|&&b| b != SimdBackend::Scalar) {
            quantize_f16_with(backend, &input, &mut got);
            if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                fail(&format!(
                    "{backend} encodes f32 {:#010x} to f16 {:#06x}, f16_from_f32 gives {:#06x}",
                    input[i].to_bits(),
                    got[i],
                    want[i]
                ));
            }
        }
    }
    println!(
        "quant-parity: f16 encode equal to f16_from_f32 on all 2^32 patterns on every SIMD backend"
    );

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

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Args {
        let owned: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        Args::parse(&owned).expect("valid arguments")
    }

    #[test]
    fn reports_default_under_target() {
        let full = parse(&["--baseline", "BENCH_perf.json"]);
        assert_eq!(full.out_path().unwrap(), "target/BENCH_perf.json");
        let smoke = parse(&["--smoke"]);
        assert_eq!(smoke.out_path().unwrap(), "target/BENCH_perf_smoke.json");
        let named = parse(&["--out", "BENCH_perf.json"]);
        assert_eq!(named.out_path().unwrap(), "BENCH_perf.json");
    }

    #[test]
    fn out_naming_the_baseline_is_rejected() {
        let same = parse(&["--baseline", "BENCH_perf.json", "--out", "BENCH_perf.json"]);
        assert!(same.out_path().unwrap_err().contains("--baseline"));
        // The committed baseline, reached by two spellings of its path.
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        let base = format!("{root}/BENCH_perf.json");
        let dotted = format!("{root}/./BENCH_perf.json");
        let aliased = parse(&["--baseline", &base, "--out", &dotted]);
        assert!(aliased.out_path().is_err());
        let elsewhere = parse(&["--baseline", &base, "--out", "target/BENCH_perf.json"]);
        assert_eq!(elsewhere.out_path().unwrap(), "target/BENCH_perf.json");
    }
}
