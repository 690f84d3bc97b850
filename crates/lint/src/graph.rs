//! Whole-workspace call-graph passes.
//!
//! The resolved imports of every file ([`crate::resolve`]) link calls
//! into one inter-crate graph, and two passes run over it:
//!
//! * **`hot_alloc`** — the warm serving fast path (the entry list in
//!   `er-lint.toml`, kept in sync with the dynamic `zero_alloc` test)
//!   must reach no allocation site *through calls*, across crate
//!   boundaries (`core → cluster → tensor`). The diagnostic carries the
//!   shortest call chain, crate-qualified where it crosses crates
//!   (`forward_ws -> er_cluster::choose -> er_tensor::probe`). A
//!   `lint::allow(hot_alloc)` marker on a *call* severs that edge
//!   (blessing a cold grow-only guard); on an allocation site it blesses
//!   the site itself.
//! * **`unused_allow`** — a `lint::allow(rule)` marker that no longer
//!   suppresses any diagnostic or site rots silently after refactors;
//!   report it (and unknown rule names) so markers stay honest. No rule
//!   runs in test, bench, example or binary files, so every marker there
//!   is stale.

use std::collections::VecDeque;

use crate::config::Config;
use crate::facts::FileFacts;
use crate::resolve::{crate_display, Workspace};
use crate::rules::{is_test_or_tool_path, Diagnostic, RULES};

/// Lints the workspace as one unit: every file's per-file rules (from its
/// [`FileFacts`], see [`crate::facts::extract_facts`]) plus the two
/// call-graph passes, in one deterministically sorted stream.
pub fn check_workspace(facts: &[FileFacts], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for f in facts {
        out.extend(
            f.diags
                .iter()
                .filter(|d| !f.suppressed(d.line, d.rule))
                .cloned(),
        );
    }
    let ws = Workspace::build(facts);
    hot_alloc_pass(&ws, cfg, &mut out);
    unused_allow_pass(facts, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.col, a.rule).cmp(&(&b.path, b.line, b.col, b.rule)));
    out
}

/// Multi-source BFS over the workspace graph, keeping parent pointers for
/// shortest-chain reconstruction. Call edges blessed by a
/// `lint::allow(hot_alloc)` marker are not followed.
fn bfs(ws: &Workspace<'_>, roots: &[usize]) -> (Vec<bool>, Vec<Option<usize>>) {
    let n = ws.nodes.len();
    let mut visited = vec![false; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut queue = VecDeque::new();
    for &r in roots {
        if !visited[r] {
            visited[r] = true;
            queue.push_back(r);
        }
    }
    while let Some(i) = queue.pop_front() {
        for e in &ws.edges[i] {
            if e.hot_suppressed {
                continue;
            }
            if !visited[e.to] {
                visited[e.to] = true;
                parent[e.to] = Some(i);
                queue.push_back(e.to);
            }
        }
    }
    (visited, parent)
}

/// The shortest call chain ending at `ni`, crate-qualified relative to
/// the chain's root (`forward_ws -> er_tensor::probe_len`).
fn chain_to(ws: &Workspace<'_>, parent: &[Option<usize>], ni: usize) -> Vec<String> {
    let mut idxs = vec![ni];
    let mut at = ni;
    while let Some(p) = parent[at] {
        idxs.push(p);
        at = p;
    }
    idxs.reverse();
    let root_crate = ws.nodes[idxs[0]].krate.clone();
    idxs.iter()
        .map(|&i| {
            let name = ws.func(i).name.clone();
            if ws.nodes[i].krate == root_crate {
                name
            } else {
                format!("{}::{name}", crate_display(&ws.nodes[i].krate))
            }
        })
        .collect()
}

/// Static allocation-freedom of the warm serving fast path.
fn hot_alloc_pass(ws: &Workspace<'_>, cfg: &Config, out: &mut Vec<Diagnostic>) {
    let roots = hot_entry_nodes(ws, cfg);
    let (visited, parent) = bfs(ws, &roots);
    for (i, _) in visited.iter().enumerate().filter(|(_, v)| **v) {
        let chain = chain_to(ws, &parent, i);
        let via = chain.join(" -> ");
        let root = chain[0].clone();
        for site in ws.func(i).sites.iter() {
            if site.suppressed {
                continue;
            }
            out.push(Diagnostic {
                path: ws.file(i).path.clone(),
                line: site.line,
                col: site.col,
                rule: "hot_alloc",
                message: format!(
                    "{} allocates and is reachable from hot entry `{root}` via {via}; the warm fast path must reuse workspace buffers — hoist the allocation into setup, or bless a grow-only guard with `// lint::allow(hot_alloc): <reason>`",
                    site.what
                ),
                chain: chain.clone(),
            });
        }
    }
}

/// The node indices the `hot_alloc_entries` config names. Each entry is a
/// bare fn name or `path.rs::name`.
fn hot_entry_nodes(ws: &Workspace<'_>, cfg: &Config) -> Vec<usize> {
    let mut roots = Vec::new();
    for entry in &cfg.hot_alloc_entries {
        roots.extend(match_entry(ws, entry));
    }
    roots.sort_unstable();
    roots.dedup();
    roots
}

/// Nodes matching one entry spec.
fn match_entry(ws: &Workspace<'_>, entry: &str) -> Vec<usize> {
    if let Some((path, name)) = entry.split_once("::") {
        (0..ws.nodes.len())
            .filter(|&i| ws.file(i).path == path && ws.func(i).name == name)
            .collect()
    } else {
        ws.nodes_named(entry)
    }
}

/// Config-drift check for the binary: `hot_alloc_entries` entries that
/// match no function in the scanned workspace. Kept out of
/// [`check_workspace`] so fixture-sized workspaces don't trip over the
/// real entry list.
pub fn hot_entry_drift(facts: &[FileFacts], cfg: &Config) -> Vec<Diagnostic> {
    let ws = Workspace::build(facts);
    let mut out = Vec::new();
    for entry in &cfg.hot_alloc_entries {
        if match_entry(&ws, entry).is_empty() {
            out.push(Diagnostic {
                path: "er-lint.toml".to_string(),
                line: 1,
                col: 1,
                rule: "hot_alloc",
                message: format!(
                    "hot_alloc entry `{entry}` matches no function in the workspace; the entry list has drifted from the code — update er-lint.toml (and keep zero_alloc.rs in sync)"
                ),
                chain: Vec::new(),
            });
        }
    }
    out
}

/// Stale-marker audit: every `lint::allow(rule)` marker must still
/// suppress a diagnostic or sit on a site/call of its rule. No rule runs
/// in a test, bench, example or binary file, so a marker there is stale.
fn unused_allow_pass(facts: &[FileFacts], out: &mut Vec<Diagnostic>) {
    for f in facts {
        let tool = is_test_or_tool_path(&f.path);
        for m in &f.markers {
            let mut stale = |message: String| {
                out.push(Diagnostic {
                    path: f.path.clone(),
                    line: m.line,
                    col: m.col,
                    rule: "unused_allow",
                    message,
                    chain: Vec::new(),
                });
            };
            if tool {
                stale(format!(
                    "`lint::allow({})` sits in a test, bench, example or binary file, where no rule runs; remove the marker",
                    m.rule
                ));
                continue;
            }
            if m.rule != "all" && !RULES.contains(&m.rule.as_str()) {
                stale(format!(
                    "`lint::allow({})` names no known rule; known rules: {}",
                    m.rule,
                    RULES.join(", ")
                ));
                continue;
            }
            let covered = |line: u32| line == m.line || line == m.line + 1;
            let matches_rule = |r: &str| m.rule == "all" || m.rule == r;
            let mut used = f
                .diags
                .iter()
                .any(|d| matches_rule(d.rule) && covered(d.line));
            for func in &f.fns {
                if used {
                    break;
                }
                used |= matches_rule("hot_alloc") && func.sites.iter().any(|s| covered(s.line));
                // A hot_alloc marker on a call line cuts that edge — that
                // is a use even with no allocation on the line itself.
                used |= matches_rule("hot_alloc") && func.calls.iter().any(|c| covered(c.line));
            }
            if !used {
                stale(format!(
                    "`lint::allow({})` no longer suppresses anything here; the code it blessed has moved or been fixed — remove the stale marker",
                    m.rule
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::extract_facts;
    use crate::rules::FileContext;

    fn workspace(files: &[(&str, &str)]) -> Vec<Diagnostic> {
        let cfg = Config::default();
        let facts: Vec<FileFacts> = files
            .iter()
            .map(|&(p, s)| extract_facts(&FileContext::new(p, s), &cfg))
            .collect();
        check_workspace(&facts, &cfg)
    }

    #[test]
    fn alloc_reachable_through_two_hops_reports_the_chain() {
        let src = "\
pub fn forward_ws(n: usize) -> usize { helper(n) }
fn helper(n: usize) -> usize { inner(n) }
fn inner(n: usize) -> usize { vec![0u8; n].len() }
";
        let d = workspace(&[("crates/core/src/fastpath.rs", src)]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, "hot_alloc");
        assert_eq!(d[0].line, 3);
        assert_eq!(d[0].chain, vec!["forward_ws", "helper", "inner"]);
        assert!(
            d[0].message.contains("forward_ws -> helper -> inner"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn unreachable_private_alloc_is_not_reported() {
        let src = "\
pub fn forward_ws(n: usize) -> usize { n }
fn dead(n: usize) -> usize { vec![0u8; n].len() }
";
        let d = workspace(&[("crates/core/src/fastpath.rs", src)]);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn reachability_crosses_files_within_a_crate_but_not_crates() {
        let entry = "pub fn forward_ws(n: usize) -> usize { shared_helper(n) }";
        let helper = "pub(crate) fn shared_helper(n: usize) -> usize { vec![0u8; n].len() }";
        // Same crate: the chain crosses the file boundary.
        let d = workspace(&[
            ("crates/core/src/fastpath.rs", entry),
            ("crates/core/src/util.rs", helper),
        ]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].path, "crates/core/src/util.rs");
        assert_eq!(d[0].chain, vec!["forward_ws", "shared_helper"]);
        // Different crates, no import: no edge, no report.
        let d = workspace(&[
            ("crates/core/src/fastpath.rs", entry),
            ("crates/metrics/src/util.rs", helper),
        ]);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn alloc_reachable_across_crates_through_imports() {
        // core → cluster → tensor, each hop through a `use`, so the
        // allocation is reachable only along the three-crate chain.
        let d = workspace(&[
            (
                "crates/core/src/entry.rs",
                "use er_cluster::placement::choose_slot;\n\
                 pub fn forward_ws(n: usize) -> usize { choose_slot(n) }\n",
            ),
            (
                "crates/cluster/src/placement.rs",
                "use er_tensor::align::probe_len;\n\
                 pub(crate) fn choose_slot(n: usize) -> usize { probe_len(n) }\n",
            ),
            (
                "crates/tensor/src/align.rs",
                "pub(crate) fn probe_len(n: usize) -> usize { vec![0u8; n].len() }\n",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, "hot_alloc");
        assert_eq!(d[0].path, "crates/tensor/src/align.rs");
        assert_eq!(
            d[0].chain,
            vec![
                "forward_ws",
                "er_cluster::choose_slot",
                "er_tensor::probe_len"
            ]
        );
        assert!(
            d[0].message
                .contains("forward_ws -> er_cluster::choose_slot -> er_tensor::probe_len"),
            "{}",
            d[0].message
        );
    }

    #[test]
    fn allow_marker_suppresses_the_reachable_site() {
        let src = "\
pub fn forward_ws(n: usize) -> usize {
    // lint::allow(hot_alloc): grow-only guard, cold after warm-up
    let v: Vec<f32> = Vec::new();
    v.len() + n
}
";
        let d = workspace(&[("crates/core/src/fastpath.rs", src)]);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn test_functions_and_tool_files_stay_out_of_the_graph() {
        let src = "\
pub fn forward_ws(n: usize) -> usize { n }

#[cfg(test)]
mod tests {
    fn forward_ws(n: usize) -> usize { vec![0u8; n].len() }
}
";
        assert!(workspace(&[("crates/core/src/fastpath.rs", src)]).is_empty());
        let bad = "pub fn forward_ws(n: usize) -> usize { vec![0u8; n].len() }";
        assert!(workspace(&[("crates/core/tests/it.rs", bad)]).is_empty());
    }

    #[test]
    fn method_calls_link_by_name() {
        let src = "\
pub fn forward_ws(b: Buffers) -> usize { b.grow() }
struct Buffers;
impl Buffers {
    fn grow(&self) -> usize { vec![0u8; 4].len() }
}
";
        let d = workspace(&[("crates/core/src/fastpath.rs", src)]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].chain, vec!["forward_ws", "grow"]);
    }

    #[test]
    fn hot_alloc_flags_allocation_reachable_from_an_entry() {
        // `forward_ws` is in the default entry list; the allocation sits
        // one import away in another crate. `cold` allocates too, but no
        // entry reaches it.
        let d = workspace(&[
            (
                "crates/core/src/fastpath.rs",
                "use er_tensor::scratch::grow_scratch;\n\
                 pub fn forward_ws(n: usize) { grow_scratch(n); }\n",
            ),
            (
                "crates/tensor/src/scratch.rs",
                "pub fn grow_scratch(n: usize) { let v: Vec<f32> = Vec::new(); let _ = (v, n); }\n\
                 pub fn cold(n: usize) { let v: Vec<f32> = Vec::new(); let _ = (v, n); }\n",
            ),
        ]);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, "hot_alloc");
        assert_eq!(d[0].path, "crates/tensor/src/scratch.rs");
        assert_eq!(d[0].chain, vec!["forward_ws", "er_tensor::grow_scratch"]);
        assert!(d[0].message.contains("`Vec::new`"), "{}", d[0].message);
    }

    #[test]
    fn hot_alloc_marker_on_a_call_cuts_the_edge() {
        let d = workspace(&[(
            "crates/core/src/fastpath.rs",
            "\
pub fn forward_ws(n: usize) {
    // lint::allow(hot_alloc): grow-only warm-up guard, cold after first call
    grow(n);
}
fn grow(n: usize) { let v: Vec<f32> = Vec::new(); let _ = (v, n); }
",
        )]);
        assert!(d.is_empty(), "{d:#?}");
    }

    #[test]
    fn unused_allow_flags_stale_and_unknown_markers() {
        let src = "\
// lint::allow(hot_alloc): this allocation was hoisted into setup long ago
pub fn forward_ws(n: usize) -> usize { n }
// lint::allow(no_such_rule): typo
pub fn other() -> u32 { 1 }
";
        let d = workspace(&[("crates/core/src/fastpath.rs", src)]);
        let got: Vec<(&str, u32)> = d.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(
            got,
            vec![("unused_allow", 1), ("unused_allow", 3)],
            "{d:#?}"
        );
        assert!(d[1].message.contains("no known rule"), "{}", d[1].message);
    }

    #[test]
    fn every_marker_in_a_tool_file_is_unused() {
        let src = "\
pub fn forward_ws(n: usize) -> usize {
    // lint::allow(hot_alloc): no rule runs in integration tests
    vec![0u8; n].len()
}
";
        let d = workspace(&[("crates/core/tests/it.rs", src)]);
        let got: Vec<(&str, u32)> = d.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(got, vec![("unused_allow", 2)], "{d:#?}");
        assert!(d[0].message.contains("no rule runs"), "{}", d[0].message);
    }

    #[test]
    fn live_markers_are_not_flagged_as_unused() {
        // A marker on an allocation site is live even where no entry
        // reaches the site.
        let src = "\
pub fn setup(n: usize) -> usize {
    // lint::allow(hot_alloc): sized once at startup
    vec![0u8; n].len()
}
";
        let d = workspace(&[("crates/core/src/fastpath.rs", src)]);
        assert!(d.is_empty(), "{d:#?}");
    }
}
