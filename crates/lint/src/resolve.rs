//! Whole-workspace symbol resolution.
//!
//! Turns the per-file [`crate::facts`] into one inter-crate call graph.
//! Modules are derived from file paths (`crates/tensor/src/gather.rs` is
//! module `gather` of crate `tensor`), `use` declarations — including
//! `pub use` re-export chains, `{..}` groups, `as` renames, and globs —
//! are resolved against that module tree, and every recorded call is
//! linked to the function definitions it can reach.
//!
//! Resolution is deliberately *lenient* where the type system would be
//! needed and *precise* where paths suffice:
//!
//! * A spelled-out path whose root is `crate`/`self`/`super` or a
//!   workspace extern crate (`er_tensor::reduce::dot_f32`, the package
//!   names map `er_x` → `crates/x`, `elasticrec` → `crates/core`) is
//!   walked through the module tree, following `pub use` re-exports and
//!   globs up to a fixed depth.
//! * A bare call `f(..)` prefers functions defined in the *same file*
//!   (local definitions shadow imports), then `use`-imported ones, then
//!   falls back to every same-named function in the crate — an
//!   over-approximation, kept so untyped code keeps its edges.
//! * A method call `.f(..)` links by name within the crate only; cross
//!   crates the `hot_alloc` entry list names the kernels individually
//!   instead, so no method edge is silently missing from the hot path.
//! * `Type::method(..)` where `Type` is `use`-imported from another crate
//!   links by name into *that* crate (no visibility or self-type
//!   modelling — it errs on the side of reporting).
//!
//! Unresolvable roots (`std`, vendored stubs) fall back to intra-crate
//! by-name linking.

use std::collections::BTreeMap;

use crate::facts::{CallRef, FileFacts, FnFact};
use crate::rules::is_test_or_tool_path;

/// How deep re-export / glob chains are followed before giving up (guards
/// against `pub use` cycles).
const MAX_RESOLVE_DEPTH: u32 = 16;

/// Which crate a workspace-relative path belongs to. Top-level `src/`,
/// `tests/`, etc. form one "workspace-root" crate.
pub fn crate_of(path: &str) -> String {
    path.strip_prefix("crates/")
        .and_then(|rest| rest.split('/').next())
        .unwrap_or("workspace-root")
        .to_string()
}

/// The crate directory a root path segment names, when it is a workspace
/// extern crate as spelled in source: `er_tensor` → `tensor`,
/// `elasticrec` → `core`.
pub fn extern_crate_dir(seg: &str) -> Option<String> {
    if seg == "elasticrec" {
        return Some("core".to_string());
    }
    seg.strip_prefix("er_").map(|s| s.to_string())
}

/// The package-style display name of a crate directory, for call chains
/// that cross crates: `tensor` → `er_tensor`, `core` → `elasticrec`.
pub fn crate_display(dir: &str) -> String {
    if dir == "core" {
        "elasticrec".to_string()
    } else {
        format!("er_{dir}")
    }
}

/// The `(crate, module path)` a file defines: `crates/x/src/lib.rs` is
/// `(x, [])`, `crates/x/src/a.rs` and `crates/x/src/a/mod.rs` are
/// `(x, [a])`, `crates/x/src/main.rs` is `(x, [main])` (a binary module
/// nothing imports from).
pub fn module_of(path: &str) -> (String, Vec<String>) {
    let krate = crate_of(path);
    let prefix = format!("crates/{krate}/src/");
    let rest = path.strip_prefix(&prefix).unwrap_or(path);
    let rest = rest.strip_suffix(".rs").unwrap_or(rest);
    let mut segs: Vec<String> = rest.split('/').map(str::to_string).collect();
    if segs.len() == 1 && segs[0] == "lib" {
        segs.clear();
    } else if segs.len() > 1 && segs.last().is_some_and(|s| s == "mod") {
        segs.pop();
    }
    (krate, segs)
}

/// One function node in the workspace graph: indices into the facts
/// slice, plus cached identity.
#[derive(Debug, Clone)]
pub struct Node {
    /// Index of the defining file in the facts slice.
    pub file: usize,
    /// Index of the function within that file's `fns`.
    pub func: usize,
    /// Crate directory of the defining file.
    pub krate: String,
}

/// One resolved call edge. The same callee can appear several times when
/// a function calls it at several sites; each occurrence carries its own
/// `hot_suppressed` flag so `lint::allow(hot_alloc)` cuts exactly the
/// marked edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    /// Target node index.
    pub to: usize,
    /// A `lint::allow(hot_alloc)` marker covers the call site: the
    /// `hot_alloc` traversal skips this occurrence.
    pub hot_suppressed: bool,
}

/// Per-module symbol data.
#[derive(Debug, Default)]
struct ModData {
    /// Function name → node indices defined in this module.
    fns: BTreeMap<String, Vec<usize>>,
    /// `(is_pub, path, alias)` imports declared by this module's files.
    imports: Vec<(bool, Vec<String>, Option<String>)>,
}

/// What a use-path resolves to.
enum Target {
    /// Function definitions.
    Fns(Vec<usize>),
    /// A module, identified by `(crate, module path)`.
    Module(String, Vec<String>),
    /// Nothing the workspace knows about (std, vendored stubs, types).
    Unknown,
}

/// The whole-workspace call graph: nodes for every function defined in
/// non-test, non-tool files, and resolved call edges between them.
#[derive(Debug)]
pub struct Workspace<'a> {
    facts: &'a [FileFacts],
    /// All graph nodes, in deterministic (file path, fn index) order.
    pub nodes: Vec<Node>,
    /// `edges[i]` are the resolved outgoing calls of `nodes[i]`.
    pub edges: Vec<Vec<Edge>>,
    /// (crate, fn name) → node indices, the by-name fallback index.
    by_crate_name: BTreeMap<(String, String), Vec<usize>>,
    /// (crate, module path) → symbol data.
    modules: BTreeMap<(String, Vec<String>), ModData>,
    /// Node indices defined per file, aligned with `facts`.
    file_nodes: Vec<Vec<usize>>,
}

impl<'a> Workspace<'a> {
    /// Builds the graph over every non-test, non-tool file in `facts`.
    pub fn build(facts: &'a [FileFacts]) -> Self {
        let mut ws = Workspace {
            facts,
            nodes: Vec::new(),
            edges: Vec::new(),
            by_crate_name: BTreeMap::new(),
            modules: BTreeMap::new(),
            file_nodes: vec![Vec::new(); facts.len()],
        };
        // Deterministic node order regardless of input file order.
        let mut order: Vec<usize> = (0..facts.len()).collect();
        order.sort_by(|&a, &b| facts[a].path.cmp(&facts[b].path));
        for fi in order {
            let f = &facts[fi];
            if is_test_or_tool_path(&f.path) {
                continue;
            }
            let (krate, module) = module_of(&f.path);
            let slot = ws
                .modules
                .entry((krate.clone(), module.clone()))
                .or_default();
            for imp in &f.imports {
                slot.imports
                    .push((imp.is_pub, imp.path.clone(), imp.alias.clone()));
            }
            // Node creation mutates other workspace fields, so the module
            // slot is re-filled after the borrow on it ends.
            let mut mod_fns: Vec<(String, usize)> = Vec::new();
            for (fj, func) in f.fns.iter().enumerate() {
                let ni = ws.nodes.len();
                ws.nodes.push(Node {
                    file: fi,
                    func: fj,
                    krate: krate.clone(),
                });
                ws.file_nodes[fi].push(ni);
                ws.by_crate_name
                    .entry((krate.clone(), func.name.clone()))
                    .or_default()
                    .push(ni);
                mod_fns.push((func.name.clone(), ni));
            }
            let slot = ws
                .modules
                .entry((krate.clone(), module.clone()))
                .or_default();
            for (name, ni) in mod_fns {
                slot.fns.entry(name).or_default().push(ni);
            }
        }
        ws.edges = ws.nodes.iter().map(|n| ws.link_calls(n)).collect();
        ws
    }

    /// The [`FnFact`] behind a node.
    pub fn func(&self, ni: usize) -> &FnFact {
        let n = &self.nodes[ni];
        &self.facts[n.file].fns[n.func]
    }

    /// The facts of the file defining a node.
    pub fn file(&self, ni: usize) -> &FileFacts {
        &self.facts[self.nodes[ni].file]
    }

    /// All node indices whose function name is `name`, across crates.
    pub fn nodes_named(&self, name: &str) -> Vec<usize> {
        self.by_crate_name
            .iter()
            .filter(|((_, n), _)| n == name)
            .flat_map(|(_, v)| v.iter().copied())
            .collect()
    }

    /// Resolves every call of one function into edges.
    fn link_calls(&self, n: &Node) -> Vec<Edge> {
        let f = &self.facts[n.file].fns[n.func];
        let mut out = Vec::new();
        for call in &f.calls {
            for to in self.resolve_call(n, call) {
                let e = Edge {
                    to,
                    hot_suppressed: call.hot_suppressed,
                };
                if !out.contains(&e) {
                    out.push(e);
                }
            }
        }
        out
    }

    /// All node indices one call can reach, per the precedence rules in
    /// the module docs.
    fn resolve_call(&self, n: &Node, call: &CallRef) -> Vec<usize> {
        let name = call.path.last().map(String::as_str).unwrap_or_default();
        let by_name_here = |ws: &Self| -> Vec<usize> {
            ws.by_crate_name
                .get(&(n.krate.clone(), name.to_string()))
                .cloned()
                .unwrap_or_default()
        };
        if call.method {
            return by_name_here(self);
        }
        if call.path.len() == 1 {
            // Local definitions shadow imports.
            let local: Vec<usize> = self.file_nodes[n.file]
                .iter()
                .copied()
                .filter(|&ni| self.func(ni).name == name)
                .collect();
            if !local.is_empty() {
                return local;
            }
            if let Some(found) = self.resolve_via_file_imports(n.file, name) {
                return found;
            }
            return by_name_here(self);
        }
        // A spelled-out path.
        match self.resolve_path_call(n, &call.path) {
            Some(found) if !found.is_empty() => found,
            _ => by_name_here(self),
        }
    }

    /// Resolves a bare name through the calling file's own `use`
    /// declarations (named imports first, then globs). `None` means "no
    /// import mentions this name" — distinct from an import that resolves
    /// to something callable-free.
    fn resolve_via_file_imports(&self, fi: usize, name: &str) -> Option<Vec<usize>> {
        let (krate, module) = module_of(&self.facts[fi].path);
        let mut mentioned = false;
        let mut found = Vec::new();
        for imp in &self.facts[fi].imports {
            match &imp.alias {
                Some(alias) if alias == name => {
                    mentioned = true;
                    if let Target::Fns(f) =
                        self.resolve_use_path(&krate, &module, &imp.path, MAX_RESOLVE_DEPTH)
                    {
                        found.extend(f);
                    }
                }
                None => {
                    // A glob: look the name up inside the target module.
                    if let Target::Module(k, m) =
                        self.resolve_use_path(&krate, &module, &imp.path, MAX_RESOLVE_DEPTH)
                    {
                        if let Target::Fns(f) =
                            self.resolve_in_module(&k, &m, name, MAX_RESOLVE_DEPTH)
                        {
                            mentioned = true;
                            found.extend(f);
                        }
                    }
                }
                _ => {}
            }
        }
        if found.is_empty() && !mentioned {
            None
        } else {
            Some(found)
        }
    }

    /// Resolves a multi-segment call path (`er_tensor::reduce::dot_f32`,
    /// `self::util::clamp`, `Matrix::zeros`). `None` means the path is
    /// not workspace-resolvable and the caller should fall back.
    fn resolve_path_call(&self, n: &Node, path: &[String]) -> Option<Vec<usize>> {
        let (krate, module) = module_of(&self.facts[n.file].path);
        // Root handling mirrors rustc name lookup, leniently.
        let seg0 = path[0].as_str();
        let (start_k, start_m, rest): (String, Vec<String>, &[String]) = match seg0 {
            "crate" => (krate.clone(), Vec::new(), &path[1..]),
            "self" => (krate.clone(), module.clone(), &path[1..]),
            "super" => {
                let mut m = module.clone();
                let mut rest = &path[1..];
                m.pop();
                while rest.first().is_some_and(|s| s == "super") {
                    m.pop();
                    rest = &rest[1..];
                }
                (krate.clone(), m, rest)
            }
            _ => {
                if let Some(dir) = extern_crate_dir(seg0) {
                    if self.crate_exists(&dir) {
                        (dir, Vec::new(), &path[1..])
                    } else {
                        return None;
                    }
                } else {
                    // A bare module or type name: child module of the
                    // current module, crate-root module, or an imported
                    // name.
                    let mut child = module.clone();
                    child.push(seg0.to_string());
                    if self.modules.contains_key(&(krate.clone(), child.clone())) {
                        (krate.clone(), child, &path[1..])
                    } else if self
                        .modules
                        .contains_key(&(krate.clone(), vec![seg0.to_string()]))
                    {
                        (krate.clone(), vec![seg0.to_string()], &path[1..])
                    } else {
                        return self.resolve_rooted_in_import(n.file, path);
                    }
                }
            }
        };
        Some(self.walk_modules(&start_k, &start_m, rest))
    }

    /// Walks `segs` from a module: every segment but the last must reach
    /// a module (directly or through a `pub use` re-export); the last must
    /// reach functions. Empty result means a dead end.
    fn walk_modules(&self, krate: &str, module: &[String], segs: &[String]) -> Vec<usize> {
        let mut k = krate.to_string();
        let mut m = module.to_vec();
        for (i, seg) in segs.iter().enumerate() {
            let last = i + 1 == segs.len();
            match self.resolve_in_module(&k, &m, seg, MAX_RESOLVE_DEPTH) {
                Target::Fns(f) if last => return f,
                Target::Module(nk, nm) if !last => {
                    k = nk;
                    m = nm;
                }
                _ => return Vec::new(),
            }
        }
        Vec::new()
    }

    /// A path whose root is a `use`-imported name in the calling file:
    /// either the import targets a module (continue walking from it) or a
    /// type re-exported from another workspace crate, in which case
    /// `Type::method` links by name into that crate.
    fn resolve_rooted_in_import(&self, fi: usize, path: &[String]) -> Option<Vec<usize>> {
        let (krate, module) = module_of(&self.facts[fi].path);
        let seg0 = &path[0];
        for imp in &self.facts[fi].imports {
            if imp.alias.as_ref() != Some(seg0) {
                continue;
            }
            match self.resolve_use_path(&krate, &module, &imp.path, MAX_RESOLVE_DEPTH) {
                Target::Module(k, m) => {
                    return Some(self.walk_modules(&k, &m, &path[1..]));
                }
                _ => {
                    // `Type::method(..)` heuristic: the import names a
                    // type; when it comes from a workspace extern crate,
                    // the method lives somewhere in that crate.
                    if let Some(dir) = imp.path.first().and_then(|s| extern_crate_dir(s)) {
                        if self.crate_exists(&dir) {
                            let name = path.last().cloned().unwrap_or_default();
                            return Some(
                                self.by_crate_name
                                    .get(&(dir, name))
                                    .cloned()
                                    .unwrap_or_default(),
                            );
                        }
                    }
                    return None;
                }
            }
        }
        None
    }

    /// Resolves a `use` path declared in `(krate, module)` to its target.
    fn resolve_use_path(
        &self,
        krate: &str,
        module: &[String],
        path: &[String],
        depth: u32,
    ) -> Target {
        if depth == 0 || path.is_empty() {
            return Target::Unknown;
        }
        let seg0 = path[0].as_str();
        let (k, m, rest): (String, Vec<String>, &[String]) = match seg0 {
            "crate" => (krate.to_string(), Vec::new(), &path[1..]),
            "self" => (krate.to_string(), module.to_vec(), &path[1..]),
            "super" => {
                let mut m = module.to_vec();
                let mut rest = &path[1..];
                m.pop();
                while rest.first().is_some_and(|s| s == "super") {
                    m.pop();
                    rest = &rest[1..];
                }
                (krate.to_string(), m, rest)
            }
            _ => match extern_crate_dir(seg0) {
                Some(dir) if self.crate_exists(&dir) => (dir, Vec::new(), &path[1..]),
                _ => {
                    // 2015-style / crate-root-relative module path.
                    if self
                        .modules
                        .contains_key(&(krate.to_string(), vec![seg0.to_string()]))
                    {
                        (krate.to_string(), vec![seg0.to_string()], &path[1..])
                    } else {
                        return Target::Unknown;
                    }
                }
            },
        };
        let mut k = k;
        let mut m = m;
        for (i, seg) in rest.iter().enumerate() {
            let last = i + 1 == rest.len();
            match self.resolve_in_module(&k, &m, seg, depth - 1) {
                Target::Module(nk, nm) => {
                    if last {
                        return Target::Module(nk, nm);
                    }
                    k = nk;
                    m = nm;
                }
                Target::Fns(f) if last => return Target::Fns(f),
                _ => return Target::Unknown,
            }
        }
        Target::Module(k, m)
    }

    /// Resolves one name inside a module: child module first, then
    /// functions defined there, then `pub use` re-exports (named, then
    /// glob).
    fn resolve_in_module(&self, krate: &str, module: &[String], name: &str, depth: u32) -> Target {
        if depth == 0 {
            return Target::Unknown;
        }
        let mut child = module.to_vec();
        child.push(name.to_string());
        if self
            .modules
            .contains_key(&(krate.to_string(), child.clone()))
        {
            return Target::Module(krate.to_string(), child);
        }
        let Some(data) = self.modules.get(&(krate.to_string(), module.to_vec())) else {
            return Target::Unknown;
        };
        if let Some(fns) = data.fns.get(name) {
            return Target::Fns(fns.clone());
        }
        for (is_pub, path, alias) in &data.imports {
            if !is_pub {
                continue;
            }
            match alias {
                Some(a) if a == name => {
                    let t = self.resolve_use_path(krate, module, path, depth - 1);
                    if !matches!(t, Target::Unknown) {
                        return t;
                    }
                }
                None => {
                    if let Target::Module(k, m) =
                        self.resolve_use_path(krate, module, path, depth - 1)
                    {
                        let t = self.resolve_in_module(&k, &m, name, depth - 1);
                        if !matches!(t, Target::Unknown) {
                            return t;
                        }
                    }
                }
                _ => {}
            }
        }
        Target::Unknown
    }

    /// True when any scanned file belongs to crate directory `dir`.
    fn crate_exists(&self, dir: &str) -> bool {
        self.modules.keys().any(|(k, _)| k == dir)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Config;
    use crate::facts::extract_facts;
    use crate::rules::FileContext;

    #[allow(clippy::type_complexity)]
    fn build(files: &[(&str, &str)]) -> (Vec<FileFacts>, Vec<(String, String, Vec<String>)>) {
        let cfg = Config::default();
        let facts: Vec<FileFacts> = files
            .iter()
            .map(|&(p, s)| extract_facts(&FileContext::new(p, s), &cfg))
            .collect();
        let ws = Workspace::build(&facts);
        // Flatten edges to (caller path, caller name, callee names).
        let mut flat = Vec::new();
        for (ni, edges) in ws.edges.iter().enumerate() {
            let callees: Vec<String> = edges
                .iter()
                .map(|e| format!("{}::{}", ws.nodes[e.to].krate, ws.func(e.to).name))
                .collect();
            flat.push((ws.file(ni).path.clone(), ws.func(ni).name.clone(), callees));
        }
        (facts, flat)
    }

    fn edges_of(flat: &[(String, String, Vec<String>)], path: &str, name: &str) -> Vec<String> {
        flat.iter()
            .find(|(p, n, _)| p == path && n == name)
            .map(|(_, _, e)| e.clone())
            .expect("caller present")
    }

    #[test]
    fn module_paths_follow_file_layout() {
        assert_eq!(
            module_of("crates/tensor/src/lib.rs"),
            ("tensor".into(), vec![])
        );
        assert_eq!(
            module_of("crates/tensor/src/gather.rs"),
            ("tensor".into(), vec!["gather".into()])
        );
        assert_eq!(
            module_of("crates/mc/src/sub/mod.rs"),
            ("mc".into(), vec!["sub".into()])
        );
        assert_eq!(
            module_of("crates/mc/src/main.rs"),
            ("mc".into(), vec!["main".into()])
        );
    }

    #[test]
    fn direct_cross_crate_import_links_to_the_definition() {
        let (_f, flat) = build(&[
            (
                "crates/rpc/src/entry.rs",
                "use er_cluster::placement::choose_slot;\npub fn route() { choose_slot(); }\n",
            ),
            (
                "crates/cluster/src/placement.rs",
                "pub fn choose_slot() {}\n",
            ),
        ]);
        assert_eq!(
            edges_of(&flat, "crates/rpc/src/entry.rs", "route"),
            vec!["cluster::choose_slot"]
        );
    }

    #[test]
    fn pub_use_reexport_chain_resolves_through_two_crates() {
        // rpc imports from cluster's root, which re-exports from a
        // submodule, which itself re-exports from er_tensor.
        let (_f, flat) = build(&[
            (
                "crates/rpc/src/entry.rs",
                "use er_cluster::probe_len;\npub fn route() { probe_len(); }\n",
            ),
            (
                "crates/cluster/src/lib.rs",
                "pub use wiring::probe_len;\npub mod wiring;\n",
            ),
            (
                "crates/cluster/src/wiring.rs",
                "pub use er_tensor::align::probe_len;\n",
            ),
            ("crates/tensor/src/align.rs", "pub fn probe_len() {}\n"),
        ]);
        assert_eq!(
            edges_of(&flat, "crates/rpc/src/entry.rs", "route"),
            vec!["tensor::probe_len"]
        );
    }

    #[test]
    fn glob_imports_bind_the_target_modules_functions() {
        let (_f, flat) = build(&[
            (
                "crates/rpc/src/entry.rs",
                "use er_cluster::placement::*;\npub fn route() { choose_slot(); }\n",
            ),
            (
                "crates/cluster/src/placement.rs",
                "pub fn choose_slot() {}\npub fn other() {}\n",
            ),
        ]);
        assert_eq!(
            edges_of(&flat, "crates/rpc/src/entry.rs", "route"),
            vec!["cluster::choose_slot"]
        );
    }

    #[test]
    fn renamed_imports_link_under_the_alias() {
        let (_f, flat) = build(&[
            (
                "crates/rpc/src/entry.rs",
                "use er_cluster::placement::choose_slot as pick;\npub fn route() { pick(); }\n",
            ),
            (
                "crates/cluster/src/placement.rs",
                "pub fn choose_slot() {}\npub fn pick() {}\n",
            ),
        ]);
        // The alias wins over the same-named `pick` in the other crate —
        // and over the intra-crate fallback.
        assert_eq!(
            edges_of(&flat, "crates/rpc/src/entry.rs", "route"),
            vec!["cluster::choose_slot"]
        );
    }

    #[test]
    fn local_definitions_shadow_imports() {
        let (_f, flat) = build(&[
            (
                "crates/rpc/src/entry.rs",
                "use er_cluster::placement::choose_slot;\n\
                 pub fn route() { choose_slot(); }\n\
                 fn choose_slot() {}\n",
            ),
            (
                "crates/cluster/src/placement.rs",
                "pub fn choose_slot() {}\n",
            ),
        ]);
        assert_eq!(
            edges_of(&flat, "crates/rpc/src/entry.rs", "route"),
            vec!["rpc::choose_slot"]
        );
    }

    #[test]
    fn unresolved_bare_calls_fall_back_to_intra_crate_by_name() {
        let (_f, flat) = build(&[
            ("crates/rpc/src/entry.rs", "pub fn route() { helper(); }\n"),
            ("crates/rpc/src/util.rs", "pub(crate) fn helper() {}\n"),
            ("crates/metrics/src/util.rs", "pub fn helper() {}\n"),
        ]);
        // Same crate links, other crates do not (the by-name fallback).
        assert_eq!(
            edges_of(&flat, "crates/rpc/src/entry.rs", "route"),
            vec!["rpc::helper"]
        );
    }

    #[test]
    fn spelled_out_extern_paths_link_without_imports() {
        let (_f, flat) = build(&[
            (
                "crates/model/src/interaction.rs",
                "pub fn dot() { er_tensor::reduce::dot_f32(); }\n",
            ),
            ("crates/tensor/src/reduce.rs", "pub fn dot_f32() {}\n"),
        ]);
        assert_eq!(
            edges_of(&flat, "crates/model/src/interaction.rs", "dot"),
            vec!["tensor::dot_f32"]
        );
    }

    #[test]
    fn imported_type_method_links_by_name_into_the_source_crate() {
        let (_f, flat) = build(&[
            (
                "crates/core/src/sharded.rs",
                "use er_tensor::Matrix;\npub fn warm() { let m = Matrix::zeros(1, 1); }\n",
            ),
            (
                "crates/tensor/src/matrix.rs",
                "pub fn zeros(r: usize, c: usize) {}\n",
            ),
        ]);
        assert_eq!(
            edges_of(&flat, "crates/core/src/sharded.rs", "warm"),
            vec!["tensor::zeros"]
        );
    }

    #[test]
    fn method_calls_stay_intra_crate() {
        let (_f, flat) = build(&[
            (
                "crates/rpc/src/entry.rs",
                "pub fn route(b: B) { b.pick(); }\nfn pick() {}\n",
            ),
            ("crates/cluster/src/placement.rs", "pub fn pick() {}\n"),
        ]);
        assert_eq!(
            edges_of(&flat, "crates/rpc/src/entry.rs", "route"),
            vec!["rpc::pick"]
        );
    }
}
