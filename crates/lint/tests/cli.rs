//! The `er-lint` binary's exit gate, end to end: a small workspace is
//! written under the target tmp dir and the built binary is run over it.
//! Any diagnostic fails the run; a clean workspace passes; flags the
//! binary does not know are usage errors.

use std::path::{Path, PathBuf};
use std::process::Output;

/// A fresh workspace root named after the calling test. Its
/// `er-lint.toml` empties `hot_alloc_entries`, whose defaults name
/// functions this tiny workspace does not define.
fn workspace(name: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR"))
        .join("er-lint-cli")
        .join(name);
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(root.join("crates/rpc/src")).expect("create workspace");
    std::fs::write(root.join("er-lint.toml"), "hot_alloc_entries = []\n").expect("write config");
    root
}

fn er_lint(args: &[&str], root: &Path) -> Output {
    std::process::Command::new(env!("CARGO_BIN_EXE_er-lint"))
        .args(args)
        .arg(root)
        .output()
        .expect("run er-lint")
}

#[test]
fn any_violation_fails_the_run_and_a_clean_workspace_passes() {
    let root = workspace("gate");
    let lib = root.join("crates/rpc/src/lib.rs");

    std::fs::write(
        &lib,
        "pub fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }\n",
    )
    .expect("write");
    let out = er_lint(&[], &root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "an ad-hoc f32 reduction in a serving file must fail"
    );
    assert!(stdout.contains("[float_reduction]"), "{stdout}");

    std::fs::write(
        &lib,
        "pub fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f64>() as f32 }\n",
    )
    .expect("write");
    let out = er_lint(&[], &root);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert_eq!(stdout, "");
}

#[test]
fn removed_flags_are_rejected_as_unknown() {
    let root = workspace("flags");
    for flag in [
        "--no-cache",
        "--only",
        "--baseline",
        "--write-baseline",
        "--format",
    ] {
        let out = er_lint(&[flag], &root);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(!out.status.success(), "{flag} must be rejected");
        assert!(
            stderr.contains(&format!("unknown flag `{flag}`")),
            "{stderr}"
        );
    }
}
