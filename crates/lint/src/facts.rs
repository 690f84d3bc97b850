//! Per-file structural fact extraction.
//!
//! The whole-workspace passes ([`crate::graph`]) operate on *facts*, not
//! token streams: every function a file defines (with its call sites and
//! panic / allocation sites), every `use` declaration
//! (including `pub use` re-exports and globs), every `lint::allow` marker,
//! and the file's per-file rule diagnostics computed *before* marker
//! suppression (so the unused-marker pass can tell which markers earned
//! their keep).

use crate::config::Config;
use crate::lexer::TokenKind;
use crate::rules::{rules_pass, Diagnostic, FileContext};

/// What kind of site a [`Site`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteKind {
    /// `.unwrap()` / `.expect(..)` / `panic!`-family — feeds `no_panic`.
    Panic,
    /// A heap-allocation shape (`Vec::new`, `vec!`, `Box::new`,
    /// `String::from`, `.clone()`, `.collect()`, `.to_vec()`) — feeds
    /// `hot_alloc`.
    Alloc,
}

/// One interesting token site inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// What the site feeds.
    pub kind: SiteKind,
    /// 1-based line of the site.
    pub line: u32,
    /// 1-based column of the site.
    pub col: u32,
    /// What the site spells, for the message (`` `.unwrap()` ``).
    pub what: String,
    /// Blessed by a `lint::allow(<rule>)` marker covering the site.
    pub suppressed: bool,
}

/// One outgoing call from a function body: the spelled path (one segment
/// for bare and method calls) plus its position, so `hot_alloc` markers
/// can bless individual call *edges* (a cold grow-only guard inside a hot
/// function cuts traversal at the call, not at the callee's body).
#[derive(Debug, Clone)]
pub struct CallRef {
    /// Path segments as spelled (`["er_tensor", "gather_pool_csr"]`,
    /// `["helper"]`).
    pub path: Vec<String>,
    /// True for `.name(..)` method calls.
    pub method: bool,
    /// 1-based line of the call's name token.
    pub line: u32,
    /// 1-based column of the call's name token.
    pub col: u32,
    /// A `lint::allow(hot_alloc)` marker covers the call line: the
    /// `hot_alloc` BFS does not follow this edge.
    pub hot_suppressed: bool,
}

/// One function definition with everything the graph passes need.
#[derive(Debug, Clone)]
pub struct FnFact {
    /// The function's name (methods and free functions alike).
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Declared with a bare `pub` (scoped `pub(..)` counts as private).
    pub is_pub: bool,
    /// Panic / alloc sites inside the body, in token order.
    pub sites: Vec<Site>,
    /// Outgoing calls, in token order (duplicates preserved — each call
    /// site carries its own position and suppression state).
    pub calls: Vec<CallRef>,
}

/// One binding introduced by a `use` declaration, group-expanded: `use
/// a::{b, c as d, e::*};` yields three imports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Import {
    /// Declared `pub use` (a re-export visible to path resolution from
    /// other modules). `pub(crate)`/`pub(super)` count too — the resolver
    /// does not model visibility, it errs on the side of linking.
    pub is_pub: bool,
    /// Full path segments of the target (`["er_tensor", "gather",
    /// "gather_pool_csr"]`; `self`/`super`/`crate` kept as segments).
    pub path: Vec<String>,
    /// The local name bound (`d` for `c as d`, the last segment
    /// otherwise); `None` for a glob (`::*`).
    pub alias: Option<String>,
}

/// One `lint::allow(rule)` marker occurrence with its own position (the
/// suppression map in [`FileContext`] covers lines; this is the raw list
/// the unused-marker pass audits).
#[derive(Debug, Clone)]
pub struct MarkerFact {
    /// 1-based line of the comment holding the marker.
    pub line: u32,
    /// 1-based column of the comment token.
    pub col: u32,
    /// The rule name inside `lint::allow(..)`, verbatim.
    pub rule: String,
}

/// Everything the workspace passes need to know about one file.
#[derive(Debug, Clone, Default)]
pub struct FileFacts {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// Function definitions outside `#[cfg(test)]` items.
    pub fns: Vec<FnFact>,
    /// `use` declarations outside `#[cfg(test)]` items.
    pub imports: Vec<Import>,
    /// Every `lint::allow` marker in the file.
    pub markers: Vec<MarkerFact>,
    /// Per-file rule diagnostics **before** marker suppression.
    pub diags: Vec<Diagnostic>,
}

impl FileFacts {
    /// The marker-suppression check over the raw marker list (a marker
    /// covers its own line and the next).
    pub fn suppressed(&self, line: u32, rule: &str) -> bool {
        self.markers
            .iter()
            .any(|m| (m.line == line || m.line + 1 == line) && (m.rule == rule || m.rule == "all"))
    }
}

/// Tokens that look like `name(` without being calls.
const NON_CALL_KEYWORDS: [&str; 14] = [
    "if", "while", "for", "match", "return", "loop", "fn", "as", "in", "move", "let", "else",
    "break", "continue",
];

/// True when the token before the `fn` keyword at `fn_ci` (skipping
/// `const`/`async`/`unsafe`/`extern "abi"` qualifiers) is a bare `pub`.
/// `pub(crate)`/`pub(super)` end on `)` and correctly read as private.
fn is_pub_fn(ctx: &FileContext<'_>, fn_ci: usize) -> bool {
    let mut j = fn_ci;
    while j >= 1 {
        let prev_kind = ctx.kind(j - 1);
        let qualifier = prev_kind == TokenKind::Literal
            || (prev_kind == TokenKind::Ident
                && matches!(ctx.text(j - 1), "const" | "async" | "unsafe" | "extern"));
        if !qualifier {
            break;
        }
        j -= 1;
    }
    j >= 1 && ctx.is_ident(j - 1, "pub")
}

/// Extracts all facts from one lexed file: runs the per-file rules
/// (pre-suppression) and walks the token stream once for function
/// definitions, sites, calls, and imports.
pub fn extract_facts(ctx: &FileContext<'_>, cfg: &Config) -> FileFacts {
    let mut facts = FileFacts {
        path: ctx.path.clone(),
        diags: rules_pass(ctx, cfg),
        markers: ctx
            .raw_markers()
            .iter()
            .map(|(line, col, rule)| MarkerFact {
                line: *line,
                col: *col,
                rule: rule.clone(),
            })
            .collect(),
        ..FileFacts::default()
    };
    extract_fns_and_imports(ctx, &mut facts);
    facts
}

/// The single structural pass: tracks brace depth and a stack of open
/// function bodies so calls and sites land on the innermost enclosing
/// function; `#[cfg(test)]` items are dropped entirely.
fn extract_fns_and_imports(ctx: &FileContext<'_>, facts: &mut FileFacts) {
    let n = ctx.code.len();
    let mut fns: Vec<FnFact> = Vec::new();
    let mut test_fn: Vec<bool> = Vec::new();
    // (index into `fns`, brace depth of the body's opening `{`).
    let mut stack: Vec<(usize, u32)> = Vec::new();
    // A declared fn whose body `{` has not opened yet, with the paren
    // depth accumulated since the declaration (the body brace sits at
    // paren depth 0; a `;` there instead means a bodyless trait method).
    let mut pending: Option<usize> = None;
    let mut pending_paren: u32 = 0;
    let mut depth: u32 = 0;
    let mut ci = 0usize;

    while ci < n {
        match ctx.kind(ci) {
            TokenKind::Punct('(') if pending.is_some() => pending_paren += 1,
            TokenKind::Punct(')') if pending.is_some() => {
                pending_paren = pending_paren.saturating_sub(1);
            }
            TokenKind::Punct('{') => {
                depth += 1;
                if pending_paren == 0 {
                    if let Some(fi) = pending.take() {
                        stack.push((fi, depth));
                    }
                }
            }
            TokenKind::Punct('}') => {
                if stack.last().is_some_and(|&(_, d)| d == depth) {
                    stack.pop();
                }
                depth = depth.saturating_sub(1);
            }
            TokenKind::Punct(';') if pending_paren == 0 => pending = None,
            _ => {}
        }

        // A `use` declaration (item position: not `.use`, not a path
        // segment). Group syntax expands to one Import per leaf.
        if ctx.is_ident(ci, "use")
            && !ctx.is_test_token(ci)
            && (ci == 0 || !matches!(ctx.kind(ci - 1), TokenKind::PathSep | TokenKind::Punct('.')))
        {
            let is_pub = use_is_pub(ctx, ci);
            let end = parse_use_tree(ctx, ci + 1, &mut Vec::new(), is_pub, &mut facts.imports);
            ci = end;
            continue;
        }

        // A new definition: `fn name` (a `fn(..)` pointer type has no
        // name ident and falls through).
        if ctx.is_ident(ci, "fn") && ci + 1 < n && ctx.kind(ci + 1) == TokenKind::Ident {
            let tok = ctx.tok(ci);
            fns.push(FnFact {
                name: ctx.text(ci + 1).to_string(),
                line: tok.line,
                is_pub: is_pub_fn(ctx, ci),
                sites: Vec::new(),
                calls: Vec::new(),
            });
            test_fn.push(ctx.is_test_token(ci));
            pending = Some(fns.len() - 1);
            pending_paren = 0;
            ci += 1;
            continue;
        }

        let Some(&(cur, _)) = stack.last() else {
            ci += 1;
            continue;
        };
        if ctx.is_test_token(ci) {
            ci += 1;
            continue;
        }
        scan_body_token(ctx, ci, &mut fns[cur]);
        ci += 1;
    }

    facts.fns = fns
        .into_iter()
        .zip(test_fn)
        .filter(|(_, in_test)| !in_test)
        .map(|(f, _)| f)
        .collect();
}

/// Classifies one in-body code token: panic site, alloc site, and/or a
/// call reference on `cur`.
fn scan_body_token(ctx: &FileContext<'_>, ci: usize, cur: &mut FnFact) {
    let n = ctx.code.len();
    if ctx.kind(ci) != TokenKind::Ident {
        return;
    }
    let t = ctx.text(ci);
    let tok = *ctx.tok(ci);
    let next_is = |k: TokenKind| ci + 1 < n && ctx.kind(ci + 1) == k;
    let prev_is_dot = ci >= 1 && ctx.kind(ci - 1) == TokenKind::Punct('.');
    let mut site = |kind: SiteKind, what: String, rule: &str| {
        cur.sites.push(Site {
            kind,
            line: tok.line,
            col: tok.col,
            what,
            suppressed: ctx.suppressed(tok.line, rule),
        });
    };

    // Panic sites: the `no_panic` shapes. The graph pass reports the
    // ones reachable from a public serving fn.
    if (t == "unwrap" || t == "expect") && prev_is_dot && next_is(TokenKind::Punct('(')) {
        site(SiteKind::Panic, format!("`.{t}()`"), "no_panic");
    } else if (t == "panic" || t == "todo" || t == "unimplemented")
        && next_is(TokenKind::Punct('!'))
    {
        site(SiteKind::Panic, format!("`{t}!`"), "no_panic");
    }

    // Alloc sites — exactly the documented shapes (see DESIGN §9): the
    // grow-only `resize`/`extend`/`with_capacity` family is deliberately
    // absent, so warm-up growth stays expressible while unconditional
    // per-call allocation is not.
    if (t == "Vec" || t == "Box" || t == "String")
        && ci + 2 < n
        && ctx.kind(ci + 1) == TokenKind::PathSep
        && ctx.kind(ci + 2) == TokenKind::Ident
    {
        let m = ctx.text(ci + 2);
        if ((t == "Vec" || t == "Box") && m == "new") || (t == "String" && m == "from") {
            site(SiteKind::Alloc, format!("`{t}::{m}`"), "hot_alloc");
        }
    } else if t == "vec" && next_is(TokenKind::Punct('!')) {
        site(SiteKind::Alloc, "`vec!`".to_string(), "hot_alloc");
    } else if prev_is_dot && (t == "clone" || t == "collect" || t == "to_vec") {
        // `.clone()` / `.to_vec()` need the call parens; `.collect` may
        // carry a turbofish first.
        let called =
            next_is(TokenKind::Punct('(')) || (t == "collect" && next_is(TokenKind::PathSep));
        if called {
            site(SiteKind::Alloc, format!("`.{t}()`"), "hot_alloc");
        }
    }

    // A call: `name(..)` or `.name(..)`, but not `name!(..)` macros and
    // not the name in a nested `fn name(` definition. The full spelled
    // path is reconstructed backwards over `seg::seg::name(`.
    if next_is(TokenKind::Punct('('))
        && !NON_CALL_KEYWORDS.contains(&t)
        && !(ci >= 1 && ctx.is_ident(ci - 1, "fn"))
    {
        let mut head = ci;
        while head >= 2
            && ctx.kind(head - 1) == TokenKind::PathSep
            && ctx.kind(head - 2) == TokenKind::Ident
        {
            head -= 2;
        }
        let path: Vec<String> = (head..=ci)
            .step_by(2)
            .map(|k| ctx.text(k).to_string())
            .collect();
        let method = head >= 1 && ctx.kind(head - 1) == TokenKind::Punct('.');
        cur.calls.push(CallRef {
            path,
            method,
            line: tok.line,
            col: tok.col,
            hot_suppressed: ctx.suppressed(tok.line, "hot_alloc"),
        });
    }
}

/// True when the `use` at code index `ci` is declared `pub` (bare or
/// scoped — re-export chains treat both as visible).
fn use_is_pub(ctx: &FileContext<'_>, ci: usize) -> bool {
    if ci == 0 {
        return false;
    }
    if ctx.is_ident(ci - 1, "pub") {
        return true;
    }
    // `pub(crate) use`: walk back over the `( .. )`.
    if ctx.kind(ci - 1) == TokenKind::Punct(')') {
        let mut j = ci - 1;
        let mut depth = 0usize;
        while j > 0 {
            match ctx.kind(j) {
                TokenKind::Punct(')') => depth += 1,
                TokenKind::Punct('(') => {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                _ => {}
            }
            j -= 1;
        }
        return j >= 1 && ctx.is_ident(j - 1, "pub");
    }
    false
}

/// Parses a use tree starting at `ci` (just past `use` or a group comma),
/// appending leaf imports. Returns the code index just past the tree's
/// terminating `;` / `,` / `}` (the terminator itself is consumed for
/// `;`, left for the group caller otherwise).
fn parse_use_tree(
    ctx: &FileContext<'_>,
    mut ci: usize,
    prefix: &mut Vec<String>,
    is_pub: bool,
    out: &mut Vec<Import>,
) -> usize {
    let n = ctx.code.len();
    let depth_at_entry = prefix.len();
    let mut segs: Vec<String> = Vec::new();
    let flush = |segs: &mut Vec<String>,
                 prefix: &[String],
                 out: &mut Vec<Import>,
                 alias: Option<String>| {
        if segs.is_empty() {
            return;
        }
        let mut path: Vec<String> = prefix.to_vec();
        // `use a::b::{self}` / trailing `self` binds the module itself
        // under its own name.
        if segs.last().is_some_and(|s| s == "self") && segs.len() + path.len() > 1 {
            segs.pop();
        }
        path.append(segs);
        let alias = alias.or_else(|| path.last().cloned());
        out.push(Import {
            is_pub,
            path,
            alias,
        });
    };
    while ci < n {
        match ctx.kind(ci) {
            TokenKind::Ident if ctx.text(ci) == "as" => {
                // `path as name`.
                let alias = (ci + 1 < n && ctx.kind(ci + 1) == TokenKind::Ident)
                    .then(|| ctx.text(ci + 1).to_string());
                flush(&mut segs, prefix, out, alias);
                ci += 2;
            }
            TokenKind::Ident => {
                segs.push(ctx.text(ci).to_string());
                ci += 1;
            }
            TokenKind::PathSep => ci += 1,
            TokenKind::Punct('*') => {
                // Glob: bind everything under the prefix path.
                let mut path = prefix.clone();
                path.append(&mut segs);
                out.push(Import {
                    is_pub,
                    path,
                    alias: None,
                });
                ci += 1;
            }
            TokenKind::Punct('{') => {
                // Group: recurse per element with the accumulated prefix.
                prefix.append(&mut segs);
                ci += 1;
                loop {
                    ci = parse_use_tree(ctx, ci, prefix, is_pub, out);
                    if ci >= n || ctx.kind(ci) != TokenKind::Punct(',') {
                        break;
                    }
                    ci += 1;
                }
                if ci < n && ctx.kind(ci) == TokenKind::Punct('}') {
                    ci += 1;
                }
                prefix.truncate(depth_at_entry);
            }
            TokenKind::Punct(',') | TokenKind::Punct('}') => {
                flush(&mut segs, prefix, out, None);
                return ci;
            }
            TokenKind::Punct(';') => {
                flush(&mut segs, prefix, out, None);
                return ci + 1;
            }
            _ => {
                // Attributes or anything unexpected: bail out of this use.
                return ci + 1;
            }
        }
    }
    flush(&mut segs, prefix, out, None);
    ci
}

#[cfg(test)]
mod tests {
    use super::*;

    fn facts(path: &str, src: &str) -> FileFacts {
        let ctx = FileContext::new(path, src);
        extract_facts(&ctx, &Config::default())
    }

    #[test]
    fn imports_expand_groups_renames_and_globs() {
        let src = "\
use er_tensor::gather::gather_pool_csr;
pub use er_model::{Dlrm, configs::rm1 as small, prelude::*};
use crate::queue::{self, EventQueue};
";
        let f = facts("crates/core/src/x.rs", src);
        let got: Vec<(bool, String, Option<&str>)> = f
            .imports
            .iter()
            .map(|i| (i.is_pub, i.path.join("::"), i.alias.as_deref()))
            .collect();
        assert_eq!(
            got,
            vec![
                (
                    false,
                    "er_tensor::gather::gather_pool_csr".into(),
                    Some("gather_pool_csr")
                ),
                (true, "er_model::Dlrm".into(), Some("Dlrm")),
                (true, "er_model::configs::rm1".into(), Some("small")),
                (true, "er_model::prelude".into(), None),
                (false, "crate::queue".into(), Some("queue")),
                (false, "crate::queue::EventQueue".into(), Some("EventQueue")),
            ],
            "{f:#?}"
        );
    }

    #[test]
    fn calls_keep_spelled_paths_and_positions() {
        let src = "\
fn f(x: &M) {
    helper(1);
    er_tensor::reduce::dot_f32(a, b);
    x.clone_from(y);
    x.pick();
}
";
        let f = facts("crates/core/src/x.rs", src);
        let calls: Vec<(String, bool, u32)> = f.fns[0]
            .calls
            .iter()
            .map(|c| (c.path.join("::"), c.method, c.line))
            .collect();
        assert_eq!(
            calls,
            vec![
                ("helper".into(), false, 2),
                ("er_tensor::reduce::dot_f32".into(), false, 3),
                ("clone_from".into(), true, 4),
                ("pick".into(), true, 5),
            ]
        );
    }

    #[test]
    fn alloc_sites_cover_the_documented_shapes_only() {
        let src = "\
fn f() {
    let a = Vec::new();
    let b = vec![0; 4];
    let c = Box::new(1);
    let d = String::from(\"x\");
    let e = a.clone();
    let g: Vec<u32> = e.iter().copied().collect();
    let h = g.to_vec();
    let ok = g.len();
    let grown = Vec::with_capacity(4);
    let _ = (b, c, d, h, ok, grown);
}
";
        let f = facts("crates/core/src/x.rs", src);
        let allocs: Vec<u32> = f.fns[0]
            .sites
            .iter()
            .filter(|s| s.kind == SiteKind::Alloc)
            .map(|s| s.line)
            .collect();
        assert_eq!(allocs, vec![2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn vec_new_as_a_bare_function_reference_is_still_a_site() {
        let src = "fn f(out: &mut Vec<Vec<u32>>) { out.resize_with(4, Vec::new); }";
        let f = facts("crates/core/src/x.rs", src);
        assert_eq!(
            f.fns[0]
                .sites
                .iter()
                .filter(|s| s.kind == SiteKind::Alloc)
                .count(),
            1
        );
    }

    #[test]
    fn hot_alloc_markers_bless_sites_and_call_edges() {
        let src = "\
fn f() {
    // lint::allow(hot_alloc): cold grow-only guard
    let a = Vec::new();
    grow_buffers();
    let _ = a;
}
";
        let f = facts("crates/core/src/x.rs", src);
        let site = f.fns[0]
            .sites
            .iter()
            .find(|s| s.kind == SiteKind::Alloc)
            .unwrap();
        assert!(site.suppressed);
        // The marker covers lines 2-3 only; the call on line 4 is live.
        let grow = f.fns[0]
            .calls
            .iter()
            .find(|c| c.path == ["grow_buffers"])
            .unwrap();
        assert!(!grow.hot_suppressed);
        let src2 = "\
fn f() {
    // lint::allow(hot_alloc): cold grow-only guard
    grow_buffers();
}
";
        let f2 = facts("crates/core/src/x.rs", src2);
        assert!(f2.fns[0].calls[0].hot_suppressed);
    }

    #[test]
    fn cfg_test_items_produce_no_facts() {
        let src = "\
pub fn live() -> u32 { 1 }

#[cfg(test)]
mod tests {
    use er_model::Dlrm;
    fn t() { let v = Vec::new(); let _ = v; }
}
";
        let f = facts("crates/core/src/x.rs", src);
        assert_eq!(f.fns.len(), 1);
        assert!(f.imports.is_empty());
    }
}
