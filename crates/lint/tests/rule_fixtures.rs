//! Per-rule fixture tests: each fixture file is lexed and checked exactly
//! as the `er-lint` binary would, under a path class that activates the
//! rule in question, and must produce exactly the expected diagnostics.
//! The last test guards the ambient-input bans that live in
//! `clippy.toml` instead of er-lint.

use er_lint::facts::extract_facts;
use er_lint::{check_file, check_workspace, render_json, Config, Diagnostic, FileContext};

/// The per-file token rules alone.
fn check(path_class: &str, src: &str) -> Vec<Diagnostic> {
    let ctx = FileContext::new(path_class, src);
    check_file(&ctx, &Config::default())
}

/// The same source checked as a one-file workspace, so the call-graph
/// rules (`no_panic` among them) run too.
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
fn hashmap_iter_fixture_flags_iteration_not_lookup() {
    let src = include_str!("fixtures/hashmap_iter_bad.rs");
    let diags = check("crates/sim/src/hashmap_iter_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![
            ("hashmap_iter", 12),
            ("hashmap_iter", 16),
            ("hashmap_iter", 30)
        ],
        "{diags:#?}"
    );
    // Diagnostics carry file:line:col and the rule name — the format the
    // CI gate greps for.
    assert!(diags[0]
        .to_string()
        .starts_with("crates/sim/src/hashmap_iter_bad.rs:12:"));
    assert!(diags[0].to_string().contains("[hashmap_iter]"));
}

#[test]
fn no_panic_fixture_flags_library_code_not_tests() {
    let src = include_str!("fixtures/no_panic_bad.rs");
    let diags = check_graph("crates/rpc/src/no_panic_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("no_panic", 4), ("no_panic", 5), ("no_panic", 7)],
        "{diags:#?}"
    );
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
    // The same sources under tests/ or benches/ raise nothing: no rule
    // runs in test, bench, example or binary files.
    let src = include_str!("fixtures/no_panic_bad.rs");
    assert!(check_graph("crates/rpc/tests/no_panic_bad.rs", src).is_empty());
    let src = include_str!("fixtures/float_reduction_bad.rs");
    assert!(check("crates/model/benches/float_reduction_bad.rs", src).is_empty());
}

#[test]
fn config_override_can_extend_a_scope() {
    let src = include_str!("fixtures/hashmap_iter_bad.rs");
    let ctx = FileContext::new("crates/metrics/src/qps.rs", src);
    assert!(check_file(&ctx, &Config::default()).is_empty());
    let cfg = Config::from_toml_str("deterministic = [\"crates/metrics/src\"]").unwrap();
    assert_eq!(check_file(&ctx, &cfg).len(), 3);
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
fn panic_reach_fixture_reports_the_cross_function_chain() {
    let src = include_str!("fixtures/panic_reach_bad.rs");
    let diags = check_graph("crates/rpc/src/panic_reach_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("no_panic", 15)],
        "{diags:#?}"
    );
    assert_eq!(diags[0].chain, vec!["serve", "helper", "inner"]);
    assert!(
        diags[0].message.contains("serve -> helper -> inner"),
        "{}",
        diags[0].message
    );
}

#[test]
fn raw_string_trap_fixture_flags_the_real_unwrap_not_the_bait() {
    let src = include_str!("fixtures/raw_string_trap_bad.rs");
    let diags = check_graph("crates/rpc/src/raw_string_trap_bad.rs", src);
    assert_eq!(
        rules_and_lines(&diags),
        vec![("no_panic", 11)],
        "{diags:#?}"
    );
    assert_eq!(diags[0].chain, vec!["serve"]);
}

#[test]
fn nested_comment_fixture_flags_the_real_unwrap_not_the_bait() {
    let src = include_str!("fixtures/nested_comment_bad.rs");
    let diags = check_graph("crates/rpc/src/nested_comment_bad.rs", src);
    assert_eq!(rules_and_lines(&diags), vec![("no_panic", 7)], "{diags:#?}");
    assert_eq!(diags[0].chain, vec!["serve"]);
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

#[test]
fn xcrate_panic_fixture_reports_the_three_crate_chain_in_json() {
    let diags = check_graph_files(&[
        (
            "crates/rpc/src/router.rs",
            include_str!("fixtures/xcrate_panic_root.rs"),
        ),
        (
            "crates/cluster/src/placement.rs",
            include_str!("fixtures/xcrate_panic_mid.rs"),
        ),
        (
            "crates/tensor/src/probe.rs",
            include_str!("fixtures/xcrate_panic_bad.rs"),
        ),
    ]);
    assert_eq!(rules_and_lines(&diags), vec![("no_panic", 7)], "{diags:#?}");
    assert_eq!(diags[0].path, "crates/tensor/src/probe.rs");
    assert_eq!(
        diags[0].chain,
        vec!["route", "er_cluster::choose_slot", "er_tensor::probe_len"]
    );
    let json = render_json(&diags);
    assert!(
        json.contains(
            "\"chain\": [\"route\", \"er_cluster::choose_slot\", \"er_tensor::probe_len\"]"
        ),
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
        ("hashmap_iter_bad.rs", "crates/sim/src/f.rs", false, 3, &[]),
        ("no_panic_bad.rs", "crates/rpc/src/f.rs", true, 3, &[]),
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
        ("panic_reach_bad.rs", "crates/rpc/src/f.rs", true, 1, &[]),
        (
            "raw_string_trap_bad.rs",
            "crates/rpc/src/f.rs",
            true,
            1,
            &[],
        ),
        ("nested_comment_bad.rs", "crates/rpc/src/f.rs", true, 1, &[]),
        ("unused_allow_bad.rs", "crates/rpc/src/f.rs", true, 2, &[]),
        (
            "hot_alloc_bad.rs",
            "crates/tensor/src/scratch.rs",
            true,
            1,
            &[("hot_alloc_entry.rs", "crates/core/src/entry.rs")],
        ),
        (
            "xcrate_panic_bad.rs",
            "crates/tensor/src/probe.rs",
            true,
            1,
            &[
                ("xcrate_panic_mid.rs", "crates/cluster/src/placement.rs"),
                ("xcrate_panic_root.rs", "crates/rpc/src/router.rs"),
            ],
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

/// The wall-clock, environment and thread-local bans live only in the
/// workspace `clippy.toml`, which `ci.sh` enforces with `cargo clippy
/// --workspace --all-targets -D warnings`. Dropping an entry would narrow
/// a ban silently, so each one is pinned here.
#[test]
fn clippy_toml_keeps_every_ambient_input_ban() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../clippy.toml");
    let text = std::fs::read_to_string(&path).expect("workspace clippy.toml readable");
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
}
