//! The `er-lint` binary: lint the workspace, print diagnostics, exit
//! nonzero on any violation.
//!
//! ```text
//! er-lint [--format json|text] [ROOT]
//! ```
//!
//! `ROOT` defaults to the current directory. The whole workspace is
//! scanned in one pass (the call graph needs every file).
//!
//! Reads `ROOT/er-lint.toml` when present (see [`er_lint::Config`]). Text
//! output prints `path:line:col: [rule] message` per violation; JSON output
//! prints one stable array of `{"rule", "path", "line", "col", "message",
//! "chain"}` objects to stdout. A per-rule count summary always goes to
//! stderr.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use er_lint::facts::extract_facts;
use er_lint::{check_workspace, hot_entry_drift, render_json, walk, Config, FileContext, RULES};

struct Args {
    root: PathBuf,
    json: bool,
}

#[allow(clippy::disallowed_methods)] // the binary's entry point parses its own arguments
fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        root: PathBuf::from("."),
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--format" => match it.next().as_deref() {
                Some("json") => args.json = true,
                Some("text") => args.json = false,
                other => return Err(format!("--format takes `json` or `text`, got {other:?}")),
            },
            flag if flag.starts_with("--") => return Err(format!("unknown flag `{flag}`")),
            root => args.root = PathBuf::from(root),
        }
    }
    Ok(args)
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
    let args = parse_args()?;
    let cfg = load_config(&args.root)?;
    let files = walk::rust_files(&args.root, &cfg)
        .map_err(|e| format!("walking {}: {e}", args.root.display()))?;

    let mut facts = Vec::with_capacity(files.len());
    for path in &files {
        // Non-UTF-8 or unreadable: nothing for a Rust lexer to do.
        if let Ok(src) = std::fs::read_to_string(path) {
            let ctx = FileContext::new(walk::relative(&args.root, path), &src);
            facts.push(extract_facts(&ctx, &cfg));
        }
    }

    let mut diags = check_workspace(&facts, &cfg);
    diags.extend(hot_entry_drift(&facts, &cfg));
    diags.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));

    if args.json {
        println!("{}", render_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
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
