//! The `er-lint` binary: lint the workspace, print diagnostics, exit
//! nonzero on any violation.
//!
//! ```text
//! er-lint [ROOT]
//! ```
//!
//! `ROOT` defaults to the current directory. The whole workspace is
//! scanned in one pass (the call graph needs every file).
//!
//! Reads `ROOT/er-lint.toml` when present (see [`er_lint::Config`]).
//! Prints `path:line:col: [rule] message` per violation to stdout (a
//! `hot_alloc` message spells out its call chain) and a per-rule count
//! summary to stderr.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use er_lint::facts::extract_facts;
use er_lint::{check_workspace, hot_entry_drift, walk, Config, FileContext, RULES};

/// The workspace root: the last positional argument, else `.`.
#[allow(clippy::disallowed_methods)] // the binary's entry point parses its own arguments
fn parse_root() -> Result<PathBuf, String> {
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        if arg.starts_with("--") {
            return Err(format!("unknown flag `{arg}`"));
        }
        root = PathBuf::from(arg);
    }
    Ok(root)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("er-lint: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<ExitCode, String> {
    let root = parse_root()?;
    let cfg = load_config(&root)?;
    let files =
        walk::rust_files(&root, &cfg).map_err(|e| format!("walking {}: {e}", root.display()))?;

    let mut facts = Vec::with_capacity(files.len());
    for path in &files {
        // Non-UTF-8 or unreadable: nothing for a Rust lexer to do.
        if let Ok(src) = std::fs::read_to_string(path) {
            let ctx = FileContext::new(walk::relative(&root, path), &src);
            facts.push(extract_facts(&ctx, &cfg));
        }
    }

    let mut diags = check_workspace(&facts, &cfg);
    diags.extend(hot_entry_drift(&facts, &cfg));
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    for d in &diags {
        println!("{d}");
    }

    let mut summary = String::new();
    for rule in RULES {
        let count = diags.iter().filter(|d| d.rule == rule).count();
        summary.push_str(&format!(" {rule}={count}"));
    }
    eprintln!("er-lint: per-rule:{summary}");
    eprintln!("er-lint: {} files scanned", facts.len());

    if diags.is_empty() {
        eprintln!("er-lint: OK — 0 violations");
        Ok(ExitCode::SUCCESS)
    } else {
        let files_with: std::collections::BTreeSet<&str> =
            diags.iter().map(|d| d.path.as_str()).collect();
        eprintln!(
            "er-lint: FAIL — {} violation(s) in {} file(s)",
            diags.len(),
            files_with.len(),
        );
        Ok(ExitCode::FAILURE)
    }
}

fn load_config(root: &std::path::Path) -> Result<Config, String> {
    let path = root.join("er-lint.toml");
    match std::fs::read_to_string(&path) {
        Ok(text) => Config::from_toml_str(&text),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Config::default()),
        Err(e) => Err(format!("reading {}: {e}", path.display())),
    }
}
