//! Per-rule fixture tests: each fixture file is lexed and checked exactly
//! as the `er-lint` binary would, under a path class that activates the
//! rule in question, and must produce exactly the expected diagnostics.
//! The last test guards the bans that live in `clippy.toml` and the
//! crate roots instead of er-lint.

use er_lint::facts::extract_facts;
use er_lint::{check_file, check_workspace, render_json, Config, Diagnostic, FileContext};

/// The per-file token rules alone.
fn check(path_class: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileContext::new(path_class, src);
    check_file(&ctx, &Config::default())
}

/// The same source checked as a one-file workspace, so the call-graph
/// rules (`unused_allow` among them) run too.
fn check_graph(path_class: &str, src: &str) -> Vec<Diagnostic> {
    check_graph_files(&[(path_class, src)])
}

/// Several files checked as one mini-workspace, so `use` chains resolve
/// across crate boundaries.
fn check_graph_files(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let cfg = Config::default();
    let facts: Vec<_> = files
        .iter()
        .map(|&(p, s)| extract_facts(&FileContext::new(p, s), &cfg))
        .collect();
    check_workspace(&facts, &cfg)
}

fn rules_and_lines(diags: &[Diagnostic]) -> Vec<(&'static str, u32)> {
    diags.iter().map(|d| (d.rule, d.line)).collect()
}

#[test]
fn float_reduction_fixture_flags_f32_reductions_only() {
    let src = include_str!("fixtures/float_reduction_bad.rs");
    let diags = check("crates/model/src/float_reduction_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("float_reduction", 4), ("float_reduction", 8)],
        "{diags:#?}"
    );
    // The same file inside a blessed kernel module is clean.
    let blessed = check("crates/tensor/src/matrix.rs", src);
    assert!(blessed.is_empty(), "{blessed:#?}");
}

#[test]
fn quant_dequant_fixture_flags_unblessed_dequant_loops() {
    let src = include_str!("fixtures/quant_dequant_bad.rs");
    let diags = check("crates/model/src/quant_dequant_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("float_reduction", 6), ("float_reduction", 13)],
        "{diags:#?}"
    );
    // The same loops inside the blessed quantized-kernel module are fine:
    // that is where dequantization is supposed to live.
    let blessed = check("crates/tensor/src/quant.rs", src);
    assert!(blessed.is_empty(), "{blessed:#?}");
}

#[test]
fn fixtures_are_clean_when_classed_as_test_files() {
    // The same sources under tests/, benches/, examples/ or bin/ raise
    // nothing: no rule runs in test, bench, example or binary files.
    let src = include_str!("fixtures/float_reduction_bad.rs");
    for class in [
        "crates/model/tests/float_reduction_bad.rs",
        "crates/model/benches/float_reduction_bad.rs",
        "crates/model/examples/float_reduction_bad.rs",
        "crates/model/src/bin/float_reduction_bad.rs",
    ] {
        assert!(check(class, src).is_empty(), "{class}");
    }
    let diags = check_graph_files(&[
        (
            "crates/core/tests/entry.rs",
            include_str!("fixtures/hot_alloc_entry.rs"),
        ),
        (
            "crates/tensor/tests/scratch.rs",
            include_str!("fixtures/hot_alloc_bad.rs"),
        ),
    ]);
    assert!(diags.is_empty(), "{diags:#?}");
}

#[test]
fn config_override_can_extend_a_scope() {
    // `grow_scratch` is no default hot entry; naming it in the config
    // makes its allocation a finding.
    let src = include_str!("fixtures/hot_alloc_bad.rs");
    let facts = [extract_facts(
        &FileContext::new("crates/tensor/src/scratch.rs", src),
        &Config::default(),
    )];
    assert!(check_workspace(&facts, &Config::default()).is_empty());
    let cfg = Config::from_toml_str("hot_alloc_entries = [\"grow_scratch\"]").unwrap();
    let diags = check_workspace(&facts, &cfg);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("hot_alloc", 6)],
        "{diags:#?}"
    );
    assert_eq!(diags[0].chain, vec!["grow_scratch"]);
}

#[test]
fn unit_mixing_bytes_flops_fixture_flags_decls_and_the_add() {
    let src = include_str!("fixtures/unit_mixing_bytes_flops_bad.rs");
    let diags = check("crates/partition/src/cost.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("unit_mixing", 4), // shard_bytes: f64
            ("unit_mixing", 4), // dense_flops: f64
            ("unit_mixing", 6), // bytes + flops
        ],
        "{diags:#?}"
    );
    assert!(diags[2].message.contains("bytes"), "{}", diags[2].message);
    assert!(diags[2].message.contains("flops"), "{}", diags[2].message);
}

#[test]
fn unit_mixing_time_fixture_flags_the_ms_secs_mix() {
    let src = include_str!("fixtures/unit_mixing_time_bad.rs");
    let diags = check("crates/cluster/src/hpa.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("unit_mixing", 4), // p95_ms: f64
            ("unit_mixing", 4), // budget_secs: f64
            ("unit_mixing", 6), // secs - ms
        ],
        "{diags:#?}"
    );
    assert!(
        diags[2].message.contains("milliseconds"),
        "{}",
        diags[2].message
    );
}

#[test]
fn unit_mixing_qps_latency_fixture_flags_the_littles_law_product() {
    let src = include_str!("fixtures/unit_mixing_qps_latency_bad.rs");
    let diags = check("crates/cluster/src/hpa.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("unit_mixing", 5), // load_qps: f64
            ("unit_mixing", 5), // p95_latency: f64
            ("unit_mixing", 6), // qps * latency
        ],
        "{diags:#?}"
    );
    assert!(diags[2].message.contains("Little"), "{}", diags[2].message);
}

#[test]
fn raw_string_trap_fixture_flags_the_real_reduction_not_the_bait() {
    let src = include_str!("fixtures/raw_string_trap_bad.rs");
    let diags = check("crates/model/src/raw_string_trap_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("float_reduction", 11)],
        "{diags:#?}"
    );
}

#[test]
fn nested_comment_fixture_flags_the_real_reduction_not_the_bait() {
    let src = include_str!("fixtures/nested_comment_bad.rs");
    let diags = check("crates/model/src/nested_comment_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("float_reduction", 7)],
        "{diags:#?}"
    );
}

#[test]
fn unused_allow_fixture_flags_stale_and_unknown_markers() {
    let src = include_str!("fixtures/unused_allow_bad.rs");
    let diags = check_graph("crates/rpc/src/unused_allow_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("unused_allow", 4), ("unused_allow", 9)],
        "{diags:#?}"
    );
    assert!(
        diags[0].message.contains("no longer suppresses"),
        "{}",
        diags[0].message
    );
    assert!(
        diags[1].message.contains("names no known rule"),
        "{}",
        diags[1].message
    );
}

#[test]
fn hot_alloc_fixture_reports_the_cross_crate_chain_in_json() {
    let diags = check_graph_files(&[
        (
            "crates/core/src/entry.rs",
            include_str!("fixtures/hot_alloc_entry.rs"),
        ),
        (
            "crates/tensor/src/scratch.rs",
            include_str!("fixtures/hot_alloc_bad.rs"),
        ),
    ]);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("hot_alloc", 6)],
        "{diags:#?}"
    );
    assert_eq!(diags[0].path, "crates/tensor/src/scratch.rs");
    assert_eq!(
        diags[0].chain,
        vec!["forward_ws", "er_tensor::grow_scratch"]
    );
    let json = render_json(&diags);
    assert!(json.contains("\"rule\": \"hot_alloc\""), "{json}");
    assert!(
        json.contains("\"chain\": [\"forward_ws\", \"er_tensor::grow_scratch\"]"),
        "{json}"
    );
}

/// Every `*_bad.rs` fixture must be covered by an exact-expectation test
/// above AND must produce at least one diagnostic under its designated
/// path class — so adding a fixture without wiring its expectations fails
/// CI rather than rotting silently.
#[test]
fn every_bad_fixture_is_wired_to_expectations() {
    // fixture file -> (path class, graph pass?, count, companion files
    // checked in the same mini-workspace as (fixture name, path class)).
    type Companions = &'static [(&'static str, &'static str)];
    let expected: &[(&str, &str, bool, usize, Companions)] = &[
        (
            "float_reduction_bad.rs",
            "crates/model/src/f.rs",
            false,
            2,
            &[],
        ),
        (
            "quant_dequant_bad.rs",
            "crates/model/src/f.rs",
            false,
            2,
            &[],
        ),
        (
            "unit_mixing_bytes_flops_bad.rs",
            "crates/partition/src/cost.rs",
            false,
            3,
            &[],
        ),
        (
            "unit_mixing_time_bad.rs",
            "crates/cluster/src/hpa.rs",
            false,
            3,
            &[],
        ),
        (
            "unit_mixing_qps_latency_bad.rs",
            "crates/cluster/src/hpa.rs",
            false,
            3,
            &[],
        ),
        (
            "raw_string_trap_bad.rs",
            "crates/model/src/f.rs",
            false,
            1,
            &[],
        ),
        (
            "nested_comment_bad.rs",
            "crates/model/src/f.rs",
            false,
            1,
            &[],
        ),
        ("unused_allow_bad.rs", "crates/rpc/src/f.rs", true, 2, &[]),
        (
            "hot_alloc_bad.rs",
            "crates/tensor/src/scratch.rs",
            true,
            1,
            &[("hot_alloc_entry.rs", "crates/core/src/entry.rs")],
        ),
    ];
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let all_files: Vec<String> = std::fs::read_dir(&dir)
        .expect("fixtures dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    let mut on_disk: Vec<String> = all_files
        .iter()
        .filter(|n| n.ends_with("_bad.rs"))
        .cloned()
        .collect();
    on_disk.sort();
    let mut listed: Vec<String> = expected.iter().map(|(n, ..)| n.to_string()).collect();
    listed.sort();
    assert_eq!(
        on_disk, listed,
        "every *_bad.rs fixture needs an entry here (and a matching exact test)"
    );
    // Companion files (no `_bad` suffix) must be wired into some group —
    // an orphan companion means a half-deleted fixture.
    for name in &all_files {
        if name.ends_with("_bad.rs") {
            continue;
        }
        assert!(
            expected
                .iter()
                .any(|(.., comps)| comps.iter().any(|(c, _)| c == name)),
            "{name} is not referenced as a companion of any fixture group"
        );
    }
    for (name, class, graph, count, companions) in expected {
        let src = std::fs::read_to_string(dir.join(name)).expect("fixture readable");
        let diags = if companions.is_empty() {
            if *graph {
                check_graph(class, &src)
            } else {
                check(class, &src)
            }
        } else {
            let comp_srcs: Vec<(String, String)> = companions
                .iter()
                .map(|(f, p)| {
                    (
                        p.to_string(),
                        std::fs::read_to_string(dir.join(f)).expect("companion readable"),
                    )
                })
                .collect();
            let mut files: Vec<(&str, &str)> = vec![(class, src.as_str())];
            files.extend(comp_srcs.iter().map(|(p, s)| (p.as_str(), s.as_str())));
            check_graph_files(&files)
        };
        assert_eq!(diags.len(), *count, "{name} under {class}: {diags:#?}");
    }
}

/// The wall-clock, environment, thread-local and `HashMap`/`HashSet`
/// bans live only in the workspace `clippy.toml`, and the panic bans only
/// in each library crate root's deny line; `ci.sh` enforces both with
/// `cargo clippy --workspace --all-targets -D warnings`. Dropping an
/// entry, or adding a crate without the deny line, would narrow a ban
/// silently, so each one is pinned here.
#[test]
fn clippy_toml_keeps_every_ambient_input_ban() {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text =
        std::fs::read_to_string(root.join("clippy.toml")).expect("workspace clippy.toml readable");
    let entry = |key: &str, item: &str| {
        let section = text
            .split_once(&format!("{key} = ["))
            .and_then(|(_, rest)| rest.split_once(']'))
            .map_or("", |(body, _)| body);
        section.contains(&format!("path = \"{item}\""))
    };
    for method in [
        "std::time::Instant::now",
        "std::time::SystemTime::now",
        "std::env::var",
        "std::env::var_os",
        "std::env::vars",
        "std::env::vars_os",
        "std::env::args",
        "std::env::args_os",
        "std::env::temp_dir",
    ] {
        assert!(
            entry("disallowed-methods", method),
            "clippy.toml no longer bans `{method}`"
        );
    }
    assert!(
        entry("disallowed-macros", "std::thread_local"),
        "clippy.toml no longer bans `std::thread_local!`"
    );
    for ty in ["std::collections::HashMap", "std::collections::HashSet"] {
        assert!(
            entry("disallowed-types", ty),
            "clippy.toml no longer bans `{ty}`"
        );
    }
    // Test code may unwrap, expect and panic; library code may not.
    for key in [
        "allow-unwrap-in-tests",
        "allow-expect-in-tests",
        "allow-panic-in-tests",
    ] {
        assert!(
            text.lines().any(|l| l.trim() == format!("{key} = true")),
            "clippy.toml no longer sets `{key} = true`"
        );
    }

    // Every library crate root denies the panic shapes, with no exception
    // list: an intentional site carries `#[expect(clippy::..., reason)]`.
    let deny = "#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::allow_attributes_without_reason
)]";
    let mut roots = 0;
    for dir in std::fs::read_dir(root.join("crates")).expect("crates/ readable") {
        let lib = dir.expect("crates/ entry").path().join("src/lib.rs");
        let Ok(src) = std::fs::read_to_string(&lib) else {
            continue;
        };
        roots += 1;
        assert!(
            src.contains(deny),
            "{} lacks the crate-level panic deny line",
            lib.display()
        );
    }
    assert!(roots > 0, "no crate roots under crates/");
}
