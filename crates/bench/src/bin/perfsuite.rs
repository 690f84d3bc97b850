//! Performance baseline suite: runs the sections of [`er_bench::perf`]
//! at full scale and writes a `BENCH_perf.json` report so every change
//! leaves a perf trajectory behind. Eleven timed sections, each folding
//! its results into a determinism digest; the section list is in the
//! [`er_bench::perf`] docs. The smoke-scale run of the same sections is
//! tier-1's `tests/digests.rs`, which pins its ten digests.
//!
//! Usage:
//!   perfsuite [--baseline PATH] [--out PATH]
//!
//! The report goes to `target/BENCH_perf.json` by default; refreshing the
//! committed `BENCH_perf.json` takes an explicit `--out BENCH_perf.json`.
//! Every run validates the emitted JSON schema, prints each paired ratio
//! (median and IQR of same-run rounds against an in-process reference)
//! beside its floor, and fails if any ratio falls below its floor in
//! [`perf::FLOORS`]. `--baseline` points at a previous `BENCH_perf.json`:
//! the run exits nonzero if that file cannot be read or is malformed, if
//! a section of this run is missing from it, or if any digest differs
//! from it. Only names and digests are read from it.
//!
//! After the timed sections, every run also checks that each SIMD rung's
//! f16 encode equals `f16_from_f32` on all 2^32 f32 bit patterns (the
//! scalar rung is that reference). The sweep is too slow for a
//! dev-profile test; every other quantized-data-plane check is a tier-1
//! test in `er-tensor` or `er-model`.
//! An unknown argument, `--out`/`--baseline` without a value, or an
//! `--out` naming the `--baseline` file is an error.

use std::process::exit;

use er_bench::perf;
use er_tensor::quant::f16_from_f32;
use er_tensor::simd::{quantize_f16_with, SimdBackend};

/// The parsed command line.
#[derive(Default)]
struct Args {
    out: Option<String>,
    baseline: Option<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Args::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--out" => parsed.out = Some(path_after(&mut it, arg)?),
                "--baseline" => parsed.baseline = Some(path_after(&mut it, arg)?),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(parsed)
    }

    /// Where the report is written: `--out`, else `target/BENCH_perf.json`,
    /// so no run overwrites a committed baseline unless told to by name.
    /// An `--out` that names the `--baseline` file is an error: the run
    /// would replace the digests it is checked against.
    fn out_path(&self) -> Result<String, String> {
        let out = self
            .out
            .clone()
            .unwrap_or_else(|| "target/BENCH_perf.json".to_string());
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

    // Read and validate the baseline before the (minutes-long) run.
    let baseline = args.baseline.as_ref().map(|path| {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| fail(&format!("cannot read baseline {path}: {e}")));
        if let Err(e) = perf::validate_schema(&text) {
            fail(&format!("malformed baseline {path}: {e}"));
        }
        text
    });

    let mut report = perf::run(&perf::FULL);
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

    // The emitted file must round-trip the schema check.
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

    // The speed gate: same-run paired ratios against their floors.
    if let Err(e) = report.check_floors() {
        fail(&format!("paired floor violated:\n{e}"));
    }
    println!("floors ok (every gated ratio at or above its floor)");

    // Last, so the ~16 s sweep never overlaps a timed section.
    sweep_f16_encode();
}

/// The f16 encode of every SIMD rung against `f16_from_f32` on all 2^32
/// f32 bit patterns, a block at a time; exits nonzero at the first
/// mismatch. The scalar rung *is* `f16_from_f32` per element, so sweeping
/// it would compare the reference with itself; `dispatch_parity.rs`
/// covers its loop and tail. Absent rungs are logged as skipped.
fn sweep_f16_encode() {
    let rungs: Vec<SimdBackend> = SimdBackend::ALL
        .into_iter()
        .filter(|&b| b != SimdBackend::Scalar)
        .filter(|b| {
            if !b.is_available() {
                println!("f16 encode sweep: SKIPPING backend {b}: not available on this CPU");
            }
            b.is_available()
        })
        .collect();
    const BLOCK: u64 = 1 << 20;
    let mut input = vec![0.0f32; BLOCK as usize];
    let mut want = vec![0u16; BLOCK as usize];
    let mut got = vec![0u16; BLOCK as usize];
    for base in (0..1u64 << 32).step_by(BLOCK as usize) {
        for (i, (x, w)) in input.iter_mut().zip(&mut want).enumerate() {
            *x = f32::from_bits((base + i as u64) as u32);
            *w = f16_from_f32(*x);
        }
        for &backend in &rungs {
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
    let names: Vec<String> = rungs.iter().map(ToString::to_string).collect();
    println!(
        "f16 encode sweep ok: [{}] equal f16_from_f32 on all 2^32 patterns",
        names.join(", ")
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

    #[test]
    fn removed_flags_are_rejected_as_unknown() {
        for flag in ["--smoke", "--quant-parity"] {
            let err = Args::parse(&[flag.to_string()]).err().expect("rejected");
            assert!(err.contains("unknown argument"), "{flag}: {err}");
        }
    }
}
