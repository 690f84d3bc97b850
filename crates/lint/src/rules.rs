//! The rule engine: float-reduction order and unit-mixing checks over
//! the token stream.
//!
//! Rules are shape matchers over [`crate::lexer`] tokens, scoped by path
//! class (see [`Config`]) and aware of two escape hatches:
//!
//! * `#[cfg(test)]` items (and whole files under `tests/`, `benches/`,
//!   `examples/`, or `bin/`) are exempt from every rule;
//! * a comment containing `lint::allow(rule_name): reason` suppresses
//!   `rule_name` on its own line and the line directly below — the
//!   documented way to bless an intentional exception.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::Config;
use crate::lexer::{tokenize, Token, TokenKind};

/// Every rule the engine can emit, in stable summary order. This is also
/// the vocabulary `lint::allow(..)` markers are validated against.
pub const RULES: [&str; 4] = [
    "float_reduction",
    "unit_mixing",
    "hot_alloc",
    "unused_allow",
];

/// One rule violation, pointing at the first token of the match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path of the offending file.
    pub path: String,
    /// 1-based line of the match.
    pub line: u32,
    /// 1-based column of the match.
    pub col: u32,
    /// Stable rule name (what `lint::allow(..)` takes).
    pub rule: &'static str,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
    /// For `hot_alloc`, the function chain from the hot entry point to
    /// the function containing the match (`["forward_ws", "helper",
    /// "inner"]`). Empty for per-file token rules.
    pub chain: Vec<String>,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// A lexed file plus everything the rules need to scope their matches.
#[derive(Debug)]
pub struct FileContext<'a> {
    /// Workspace-relative path, forward slashes.
    pub path: String,
    /// The file's source text.
    pub src: &'a str,
    /// All tokens, comments included.
    pub tokens: Vec<Token>,
    /// Indices (into `tokens`) of non-comment tokens, in order.
    pub(crate) code: Vec<usize>,
    /// `in_test[i]` is true when `tokens[i]` sits inside a `#[cfg(test)]`
    /// item.
    in_test: Vec<bool>,
    /// Line -> rule names suppressed on that line by allow markers.
    allows: BTreeMap<u32, BTreeSet<String>>,
    /// Every non-doc-comment marker occurrence as `(line, col, rule)`,
    /// for the unused-marker audit.
    raw_allows: Vec<(u32, u32, String)>,
}

impl<'a> FileContext<'a> {
    /// Lexes `src` and precomputes test regions and allow markers.
    pub fn new(path: impl Into<String>, src: &'a str) -> Self {
        let tokens = tokenize(src);
        let code = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment { .. }))
            .map(|(i, _)| i)
            .collect();
        let in_test = test_regions(&tokens, src);
        let (allows, raw_allows) = allow_markers(&tokens, src);
        Self {
            path: path.into(),
            src,
            tokens,
            code,
            in_test,
            allows,
            raw_allows,
        }
    }

    pub(crate) fn text(&self, code_idx: usize) -> &str {
        self.tokens[self.code[code_idx]].text(self.src)
    }

    pub(crate) fn kind(&self, code_idx: usize) -> TokenKind {
        self.tokens[self.code[code_idx]].kind
    }

    pub(crate) fn tok(&self, code_idx: usize) -> &Token {
        &self.tokens[self.code[code_idx]]
    }

    pub(crate) fn is_test_token(&self, code_idx: usize) -> bool {
        self.in_test[self.code[code_idx]]
    }

    pub(crate) fn is_ident(&self, code_idx: usize, name: &str) -> bool {
        self.kind(code_idx) == TokenKind::Ident && self.text(code_idx) == name
    }

    pub(crate) fn suppressed(&self, line: u32, rule: &str) -> bool {
        self.allows
            .get(&line)
            .is_some_and(|set| set.contains(rule) || set.contains("all"))
    }

    /// The raw `(line, col, rule)` marker list, doc comments excluded —
    /// the unused-marker audit walks this.
    pub(crate) fn raw_markers(&self) -> &[(u32, u32, String)] {
        &self.raw_allows
    }
}

/// Marks every token inside a `#[cfg(test)]` item (attribute through the
/// item's closing brace or semicolon).
fn test_regions(tokens: &[Token], src: &str) -> Vec<bool> {
    let mut marked = vec![false; tokens.len()];
    let code: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| !matches!(t.kind, TokenKind::Comment { .. }))
        .map(|(i, _)| i)
        .collect();
    let is = |ci: usize, k: TokenKind| code.get(ci).is_some_and(|&i| tokens[i].kind == k);
    let mut ci = 0;
    while ci < code.len() {
        if is(ci, TokenKind::Punct('#')) && is(ci + 1, TokenKind::Punct('[')) {
            // Find the attribute's closing bracket and whether it is a
            // cfg(..test..) attribute.
            let mut depth = 0usize;
            let mut j = ci + 1;
            let mut mentions_cfg = false;
            let mut mentions_test = false;
            while j < code.len() {
                match tokens[code[j]].kind {
                    TokenKind::Punct('[') => depth += 1,
                    TokenKind::Punct(']') => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    TokenKind::Ident => {
                        let t = tokens[code[j]].text(src);
                        mentions_cfg |= t == "cfg";
                        mentions_test |= t == "test";
                    }
                    _ => {}
                }
                j += 1;
            }
            if mentions_cfg && mentions_test && j < code.len() {
                // Skip any further attributes on the same item, then mark
                // the item body: through the matching `}` of its first
                // top-level `{`, or through a terminating `;`.
                let mut k = j + 1;
                while is(k, TokenKind::Punct('#')) && is(k + 1, TokenKind::Punct('[')) {
                    let mut d = 0usize;
                    while k < code.len() {
                        match tokens[code[k]].kind {
                            TokenKind::Punct('[') => d += 1,
                            TokenKind::Punct(']') => {
                                d -= 1;
                                if d == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    k += 1;
                }
                let mut brace = 0usize;
                let mut paren = 0usize;
                let mut end = code.len().saturating_sub(1);
                while k < code.len() {
                    match tokens[code[k]].kind {
                        TokenKind::Punct('(') => paren += 1,
                        TokenKind::Punct(')') => paren = paren.saturating_sub(1),
                        TokenKind::Punct('{') => brace += 1,
                        TokenKind::Punct('}') => {
                            brace = brace.saturating_sub(1);
                            if brace == 0 {
                                end = k;
                                break;
                            }
                        }
                        TokenKind::Punct(';') if brace == 0 && paren == 0 => {
                            end = k;
                            break;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                // Mark raw token range (comments inside included).
                for slot in marked
                    .iter_mut()
                    .take(code[end.min(code.len() - 1)] + 1)
                    .skip(code[ci])
                {
                    *slot = true;
                }
                ci = end + 1;
                continue;
            }
        }
        ci += 1;
    }
    marked
}

/// Collects `lint::allow(rule, ...)` markers from comments. A marker
/// covers its own line and the next line, so it can sit inline or on the
/// line above the exception it blesses. Also returns the raw occurrence
/// list `(line, col, rule)` — minus doc comments, which merely *document*
/// the marker syntax — for the unused-marker audit.
#[allow(
    clippy::type_complexity,
    reason = "the line map and the raw list are built in one walk"
)]
fn allow_markers(
    tokens: &[Token],
    src: &str,
) -> (BTreeMap<u32, BTreeSet<String>>, Vec<(u32, u32, String)>) {
    let mut map: BTreeMap<u32, BTreeSet<String>> = BTreeMap::new();
    let mut raw: Vec<(u32, u32, String)> = Vec::new();
    for t in tokens {
        if !matches!(t.kind, TokenKind::Comment { .. }) {
            continue;
        }
        let text = t.text(src);
        let doc = text.starts_with("///")
            || text.starts_with("//!")
            || text.starts_with("/**")
            || text.starts_with("/*!");
        let mut rest = text;
        while let Some(at) = rest.find("lint::allow(") {
            let args = &rest[at + "lint::allow(".len()..];
            let Some(close) = args.find(')') else { break };
            for rule in args[..close].split(',') {
                let rule = rule.trim().to_string();
                if !rule.is_empty() {
                    map.entry(t.line).or_default().insert(rule.clone());
                    map.entry(t.line + 1).or_default().insert(rule.clone());
                    if !doc {
                        raw.push((t.line, t.col, rule));
                    }
                }
            }
            rest = &args[close..];
        }
    }
    (map, raw)
}

/// True for file classes exempt from every rule: test, bench, example,
/// and CLI-binary code.
pub fn is_test_or_tool_path(path: &str) -> bool {
    let p = format!("/{path}");
    ["/tests/", "/benches/", "/examples/", "/bin/", "/fixtures/"]
        .iter()
        .any(|seg| p.contains(seg))
}

/// Runs every applicable per-file rule over one file and drops the
/// matches an allow marker blesses. The call-graph rules (`hot_alloc`,
/// `unused_allow`) need the whole workspace;
/// [`crate::graph::check_workspace`] runs them.
pub fn check_file(ctx: &FileContext<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = rules_pass(ctx, cfg);
    out.retain(|d| !ctx.suppressed(d.line, d.rule));
    out
}

/// The per-file rule dispatcher *before* marker suppression — what the
/// fact extractor records, so the unused-marker audit can see which
/// markers actually suppress something.
pub(crate) fn rules_pass(ctx: &FileContext<'_>, cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // No rule runs in tool files; `unused_allow` relies on that.
    if is_test_or_tool_path(&ctx.path) {
        return out;
    }
    let blessed = Config::in_paths(&ctx.path, &cfg.blessed_kernels);
    if Config::in_paths(&ctx.path, &cfg.serving) && !blessed {
        float_reduction(ctx, &mut out);
    }
    if Config::in_paths(&ctx.path, &cfg.units) && !blessed {
        unit_mixing(ctx, &mut out);
    }
    out
}

fn push(
    out: &mut Vec<Diagnostic>,
    ctx: &FileContext<'_>,
    ci: usize,
    rule: &'static str,
    msg: String,
) {
    let t = ctx.tok(ci);
    out.push(Diagnostic {
        path: ctx.path.clone(),
        line: t.line,
        col: t.col,
        rule,
        message: msg,
        chain: Vec::new(),
    });
}

/// `float_reduction`: explicit `sum::<f32>` / `product::<f32>` outside the
/// blessed kernel modules. Reduction order decides the bits; go through
/// the oracle-ordered helpers in `er_tensor::reduce`.
fn float_reduction(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    for ci in 0..ctx.code.len().saturating_sub(3) {
        if ctx.is_test_token(ci) || ctx.kind(ci) != TokenKind::Ident {
            continue;
        }
        let t = ctx.text(ci);
        if (t == "sum" || t == "product")
            && ctx.kind(ci + 1) == TokenKind::PathSep
            && ctx.kind(ci + 2) == TokenKind::Punct('<')
            && ctx.is_ident(ci + 3, "f32")
        {
            push(
                out,
                ctx,
                ci,
                "float_reduction",
                format!("`{t}::<f32>` fixes a reduction order ad hoc; route float reductions through the oracle-ordered helpers in `er_tensor::reduce`"),
            );
        }
    }
}

/// The physical dimension a resource-named identifier carries, inferred
/// from its name suffix. This is the er-units catalogue plus the two time
/// scales (`_ms`, `_us`) whose mixing with `_secs` the rule exists to
/// catch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dim {
    Bytes,
    Flops,
    Secs,
    Millis,
    Micros,
    Qps,
    Cores,
    BytesPerSec,
    FlopsPerSec,
}

impl Dim {
    fn label(self) -> &'static str {
        match self {
            Dim::Bytes => "bytes",
            Dim::Flops => "flops",
            Dim::Secs => "seconds",
            Dim::Millis => "milliseconds",
            Dim::Micros => "microseconds",
            Dim::Qps => "queries/sec",
            Dim::Cores => "cores",
            Dim::BytesPerSec => "bytes/sec",
            Dim::FlopsPerSec => "flops/sec",
        }
    }

    fn is_time(self) -> bool {
        matches!(self, Dim::Secs | Dim::Millis | Dim::Micros)
    }
}

/// Infers a dimension from an identifier's name, most specific suffix
/// first (`bytes_per_sec` before `bytes`). Returns `None` for names that
/// carry no resource dimension.
fn dim_of(ident: &str) -> Option<Dim> {
    let s = ident.to_ascii_lowercase();
    if s.ends_with("bytes_per_sec") || s.ends_with("_bw") || s == "bw" || s.contains("bandwidth") {
        return Some(Dim::BytesPerSec);
    }
    if s.ends_with("flops_per_sec") {
        return Some(Dim::FlopsPerSec);
    }
    if s.ends_with("flops") {
        return Some(Dim::Flops);
    }
    if s.ends_with("bytes") {
        return Some(Dim::Bytes);
    }
    if s.ends_with("secs") || s.ends_with("latency") {
        return Some(Dim::Secs);
    }
    if s.ends_with("_ms") || s.ends_with("millis") {
        return Some(Dim::Millis);
    }
    if s.ends_with("_us") || s.ends_with("micros") {
        return Some(Dim::Micros);
    }
    if s.ends_with("qps") {
        return Some(Dim::Qps);
    }
    if s.ends_with("cores") {
        return Some(Dim::Cores);
    }
    None
}

/// Raw numeric types whose use on a dimension-named slot defeats er-units.
const RAW_NUMERIC: [&str; 10] = [
    "f64", "f32", "u64", "u32", "u16", "usize", "i64", "i32", "i16", "isize",
];

/// Resolves the operand ending at code index `ci` (its final `Ident`):
/// `self.policy.tolerance` resolves to `tolerance`. Returns the name and
/// dimension, or `None` when the final segment carries no dimension or
/// the operand participates in a higher-precedence `*`/`/` (so this rule
/// cannot tell what the `+`/`-` actually combines).
fn operand_before<'a>(ctx: &'a FileContext<'_>, op: usize) -> Option<(&'a str, Dim)> {
    if op == 0 || ctx.kind(op - 1) != TokenKind::Ident {
        return None;
    }
    let name = ctx.text(op - 1);
    let dim = dim_of(name)?;
    // Walk to the chain head over `a.b` / `a::b` segments.
    let mut head = op - 1;
    while head >= 2
        && matches!(
            ctx.kind(head - 1),
            TokenKind::Punct('.') | TokenKind::PathSep
        )
        && ctx.kind(head - 2) == TokenKind::Ident
    {
        head -= 2;
    }
    if head >= 1
        && matches!(
            ctx.kind(head - 1),
            TokenKind::Punct('*') | TokenKind::Punct('/')
        )
    {
        return None;
    }
    Some((name, dim))
}

/// Resolves the operand starting at code index `start`: walks forward over
/// `a.b` / `a::b` segments and dimensions the final identifier. `None` for
/// calls (`name(..)` — the return type is unknown) and for operands feeding
/// a higher-precedence `*`/`/`.
fn operand_after<'a>(ctx: &'a FileContext<'_>, start: usize) -> Option<(&'a str, Dim)> {
    let n = ctx.code.len();
    if start >= n || ctx.kind(start) != TokenKind::Ident {
        return None;
    }
    let mut i = start;
    while i + 2 < n
        && matches!(ctx.kind(i + 1), TokenKind::Punct('.') | TokenKind::PathSep)
        && ctx.kind(i + 2) == TokenKind::Ident
    {
        i += 2;
    }
    let name = ctx.text(i);
    let dim = dim_of(name)?;
    if i + 1 < n
        && matches!(
            ctx.kind(i + 1),
            TokenKind::Punct('(') | TokenKind::Punct('*') | TokenKind::Punct('/')
        )
    {
        return None;
    }
    Some((name, dim))
}

/// `unit_mixing`: raw-f64 arithmetic on resource-named symbols in files
/// that have adopted er-units. Four shapes:
///
/// 1. declaring a dimension-named slot with a raw numeric type
///    (`shard_bytes: f64`) instead of the er-units newtype;
/// 2. adding/subtracting identifiers of *different* dimensions
///    (`shard_bytes + dense_flops`, `p95_ms - budget_secs`);
/// 3. multiplying a QPS by a latency — the Little's-law in-flight count
///    er-units deliberately refuses to express implicitly;
/// 4. casting a dimension-named identifier to a raw numeric
///    (`shard_bytes as f64`) instead of calling `.raw()`.
fn unit_mixing(ctx: &FileContext<'_>, out: &mut Vec<Diagnostic>) {
    let n = ctx.code.len();
    for ci in 0..n {
        if ctx.is_test_token(ci) {
            continue;
        }
        // Shapes 1 and 4 anchor on the dimension-named identifier.
        if ctx.kind(ci) == TokenKind::Ident {
            if let Some(dim) = dim_of(ctx.text(ci)) {
                let name = ctx.text(ci);
                // 1. `name: [Option<] f64`.
                if ci + 2 < n && ctx.kind(ci + 1) == TokenKind::Punct(':') {
                    let mut j = ci + 2;
                    if ctx.is_ident(j, "Option")
                        && j + 2 < n
                        && ctx.kind(j + 1) == TokenKind::Punct('<')
                    {
                        j += 2;
                    }
                    if ctx.kind(j) == TokenKind::Ident && RAW_NUMERIC.contains(&ctx.text(j)) {
                        push(
                            out,
                            ctx,
                            ci,
                            "unit_mixing",
                            format!(
                                "`{name}` carries a dimension ({}) but is declared as raw `{}`; use the er-units newtype",
                                dim.label(),
                                ctx.text(j)
                            ),
                        );
                    }
                }
                // 4. `name as f64`.
                if ci + 2 < n
                    && ctx.is_ident(ci + 1, "as")
                    && ctx.kind(ci + 2) == TokenKind::Ident
                    && RAW_NUMERIC.contains(&ctx.text(ci + 2))
                {
                    push(
                        out,
                        ctx,
                        ci,
                        "unit_mixing",
                        format!(
                            "`{name} as {}` strips the {} dimension; convert explicitly via `.raw()`",
                            ctx.text(ci + 2),
                            dim.label()
                        ),
                    );
                }
            }
        }
        // Shapes 2 and 3 anchor on the operator.
        let (op, is_mul) = match ctx.kind(ci) {
            TokenKind::Punct('+') => ('+', false),
            TokenKind::Punct('-') => ('-', false),
            TokenKind::Punct('*') => ('*', true),
            _ => continue,
        };
        // `->` is the return-type arrow, not a subtraction.
        if op == '-' && ci + 1 < n && ctx.kind(ci + 1) == TokenKind::Punct('>') {
            continue;
        }
        // Compound assignment `+=` / `-=` / `*=`: the right operand starts
        // after the `=`.
        let rhs = if ci + 1 < n && ctx.kind(ci + 1) == TokenKind::Punct('=') {
            ci + 2
        } else {
            ci + 1
        };
        let Some((lname, ldim)) = operand_before(ctx, ci) else {
            continue;
        };
        let Some((rname, rdim)) = operand_after(ctx, rhs) else {
            continue;
        };
        if is_mul {
            // 3. QPS × latency.
            if (ldim == Dim::Qps && rdim.is_time()) || (rdim == Dim::Qps && ldim.is_time()) {
                push(
                    out,
                    ctx,
                    ci,
                    "unit_mixing",
                    format!(
                        "`{lname} * {rname}` multiplies {} by {} — an implicit Little's-law in-flight count er-units refuses to express; compute it explicitly from `.raw()` values",
                        ldim.label(),
                        rdim.label()
                    ),
                );
            }
        } else if ldim != rdim {
            // 2. Cross-dimension addition/subtraction.
            push(
                out,
                ctx,
                ci,
                "unit_mixing",
                format!(
                    "`{lname} {op} {rname}` mixes {} with {}; convert to one er-units dimension first",
                    ldim.label(),
                    rdim.label()
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(path: &str, src: &str) -> Vec<Diagnostic> {
        let ctx = FileContext::new(path, src);
        check_file(&ctx, &Config::default())
    }

    #[test]
    fn float_reduction_fires_with_position_and_skips_comments() {
        let d = check(
            "crates/model/src/interaction.rs",
            "// xs.iter().sum::<f32>() would fix the order ad hoc\nfn t(xs: &[f32]) -> f32 {\n    xs.iter().sum::<f32>()\n}\n",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].rule, "float_reduction");
        assert_eq!((d[0].line, d[0].col), (3, 15));
        assert!(d[0]
            .to_string()
            .contains("crates/model/src/interaction.rs:3:15"));
    }

    #[test]
    fn allow_marker_suppresses_on_its_line_and_the_next() {
        let src = "\
// lint::allow(float_reduction): reference-order oracle for a test fixture
let a = xs.iter().sum::<f32>();
let b = xs.iter().sum::<f32>();
";
        let d = check("crates/model/src/interaction.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 3);
    }

    #[test]
    fn float_reduction_fires_outside_blessed_kernels_only() {
        let src = "fn f(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }";
        assert_eq!(check("crates/model/src/interaction.rs", src).len(), 1);
        assert!(check("crates/tensor/src/matrix.rs", src).is_empty());
        // `sum::<f64>` and untyped `.sum()` are out of scope for this rule.
        let f64_src = "fn f(xs: &[f64]) -> f64 { xs.iter().sum::<f64>() }";
        assert!(check("crates/model/src/interaction.rs", f64_src).is_empty());
    }

    #[test]
    fn strings_and_raw_strings_never_match_rules() {
        let src = r##"pub fn f() -> &'static str { r#"sum::<f32>() shard_bytes + dense_flops"# }"##;
        assert!(check("crates/model/src/flops.rs", src).is_empty());
    }

    #[test]
    fn unit_mixing_flags_cross_dimension_addition() {
        let src = "pub fn f(a: Bytes, b: Flops) -> f64 { a.raw() + shard_bytes - dense_flops }";
        // Only identifiers with dimension suffixes participate; `a.raw()`
        // ends in `)` so the `+` has no resolvable left operand, while
        // `shard_bytes - dense_flops` mixes bytes with flops.
        let d = check("crates/partition/src/cost.rs", src);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert_eq!(d[0].rule, "unit_mixing");
        assert!(d[0].message.contains("bytes"), "{}", d[0].message);
        assert!(d[0].message.contains("flops"), "{}", d[0].message);
    }

    #[test]
    fn unit_mixing_flags_raw_decls_and_casts() {
        let src = "\
struct S { shard_bytes: f64 }
fn f(s: &S) -> u64 { s.shard_bytes as u64 }
";
        let d = check("crates/partition/src/cost.rs", src);
        let rules: Vec<_> = d.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(
            rules,
            vec![("unit_mixing", 1), ("unit_mixing", 2)],
            "{d:#?}"
        );
    }

    #[test]
    fn unit_mixing_flags_qps_times_latency() {
        let src = "fn f(load_qps: Qps, p95_latency: Secs) -> f64 { load_qps * p95_latency }";
        let d = check("crates/cluster/src/hpa.rs", src);
        assert_eq!(d.len(), 1, "{d:#?}");
        assert!(d[0].message.contains("Little"), "{}", d[0].message);
    }

    #[test]
    fn unit_mixing_ignores_same_dimension_and_unknown_operands() {
        // Same dimension adds, dimensionless names, and typed decls are
        // all fine; higher-precedence `*`/`/` neighbours disable the
        // `+`/`-` check rather than mis-attributing operands.
        let ok = "\
fn f(a_bytes: Bytes, b_bytes: Bytes, gathers: f64) -> Bytes {
    a_bytes + b_bytes * gathers / bandwidth
}
";
        assert!(check("crates/partition/src/qps_model.rs", ok).is_empty());
    }

    #[test]
    fn unit_mixing_only_applies_to_adopter_files() {
        let src = "fn f(shard_bytes: f64, dense_flops: f64) -> f64 { shard_bytes + dense_flops }";
        assert!(check("crates/core/src/engine.rs", src).is_empty());
        assert_eq!(check("crates/model/src/flops.rs", src).len(), 3);
    }

    #[test]
    fn float_reduction_skips_cfg_test_modules() {
        let src = "\
pub fn ok() -> u32 { 1 }

#[cfg(test)]
mod tests {
    #[test]
    pub fn t() {
        let xs = [1.0f32, 2.0];
        let _ = xs.iter().sum::<f32>();
    }
}
";
        assert!(check("crates/core/src/sharded.rs", src).is_empty());
    }

    #[test]
    fn float_reduction_skips_test_bench_example_and_bin_files() {
        let src = "pub fn main() { let _ = [1.0f32].iter().sum::<f32>(); }";
        assert_eq!(check("crates/core/src/sharded.rs", src).len(), 1);
        assert!(check("crates/core/src/bin/elasticrec.rs", src).is_empty());
        assert!(check("crates/core/tests/it.rs", src).is_empty());
        assert!(check("crates/model/benches/b.rs", src).is_empty());
        assert!(check("crates/model/examples/e.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_fn_item_is_exempt_not_the_rest_of_the_file() {
        let src = "\
#[cfg(test)]
pub fn helper(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }

pub fn hot(xs: &[f32]) -> f32 { xs.iter().sum::<f32>() }

#[cfg(test)]
mod tests {
    #[test]
    fn t() {
        let _ = [1.0f32].iter().sum::<f32>();
    }
}
";
        let d = check("crates/core/src/planning.rs", src);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].line, 4);
    }
}
