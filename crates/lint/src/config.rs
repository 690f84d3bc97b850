//! Rule-set configuration: which path classes each rule applies to.
//!
//! The configuration lives in `er-lint.toml` at the workspace root and is
//! parsed by a deliberately tiny reader (single-line string arrays only —
//! the workspace is offline, so no `toml` crate). Every key falls back to
//! the baked-in default when absent, so an empty or missing file means
//! "lint the workspace the standard way".

/// Path classes driving rule applicability. All paths are
/// workspace-relative with forward slashes; matching is by prefix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Serving hot-path crates: ad-hoc `f32` reductions
    /// (`float_reduction`) are banned in non-test library code here.
    pub serving: Vec<String>,
    /// Blessed kernel modules: the only places allowed to spell out raw
    /// `f32` reductions (everything else goes through `er_tensor::reduce`).
    pub blessed_kernels: Vec<String>,
    /// Files that have adopted er-units typed quantities: raw-f64
    /// arithmetic on resource-named symbols (`unit_mixing`) is banned here.
    pub units: Vec<String>,
    /// Paths the workspace walk skips entirely.
    pub skip: Vec<String>,
    /// Entry points of the warm serving fast path for the `hot_alloc`
    /// rule: functions statically proven to reach no allocation site.
    /// Each entry is a bare fn name (`forward_ws`, matching every fn of
    /// that name) or `path.rs::name` to pin one definition
    /// (`crates/core/src/engine.rs::event_loop`). The list mirrors what
    /// the dynamic counting-allocator test drives (`zero_alloc.rs`); the
    /// `hot_alloc_sync` test keeps the two in lockstep.
    pub hot_alloc_entries: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            serving: strs(&[
                "crates/tensor/src",
                "crates/model/src",
                "crates/core/src",
                "crates/rpc/src",
            ]),
            blessed_kernels: strs(&[
                "crates/tensor/src/matrix.rs",
                "crates/tensor/src/simd.rs",
                "crates/tensor/src/gather.rs",
                "crates/tensor/src/reduce.rs",
                "crates/tensor/src/quant.rs",
            ]),
            units: strs(&[
                "crates/partition/src/cost.rs",
                "crates/partition/src/qps_model.rs",
                "crates/cluster/src/hardware.rs",
                "crates/cluster/src/hpa.rs",
                "crates/model/src/flops.rs",
            ]),
            skip: strs(&["vendor", "target", ".git", "crates/lint/tests/fixtures"]),
            hot_alloc_entries: strs(&[
                "forward_ws",
                "crates/core/src/engine.rs::event_loop",
                "bucketize_into",
                "gather_pool_into",
                "dot_interaction_into",
                "forward_into",
                "matmul_packed_into",
                "gather_pool_csr",
                "gather_pool_csr_f16",
                "gather_pool_csr_i8",
            ]),
        }
    }
}

fn strs(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

impl Config {
    /// Parses the `er-lint.toml` subset: `key = ["a", "b"]` lines, `#`
    /// comments, section headers ignored. Unknown keys are errors so typos
    /// fail loudly rather than silently disabling a rule.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line on malformed input.
    pub fn from_toml_str(text: &str) -> Result<Self, String> {
        let mut cfg = Config::default();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') || line.starts_with('[') {
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "er-lint.toml line {}: expected `key = [..]`",
                    i + 1
                ));
            };
            let items = parse_string_array(value.trim())
                .ok_or_else(|| format!("er-lint.toml line {}: expected a string array", i + 1))?;
            match key.trim() {
                "serving" => cfg.serving = items,
                "blessed_kernels" => cfg.blessed_kernels = items,
                "units" => cfg.units = items,
                "skip" => cfg.skip = items,
                "hot_alloc_entries" => cfg.hot_alloc_entries = items,
                other => {
                    return Err(format!(
                        "er-lint.toml line {}: unknown key `{other}`",
                        i + 1
                    ));
                }
            }
        }
        Ok(cfg)
    }

    /// True when `path` (workspace-relative, forward slashes) falls under
    /// any prefix in `prefixes`.
    pub fn in_paths(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| {
            path == p
                || path
                    .strip_prefix(p.as_str())
                    .is_some_and(|r| r.starts_with('/'))
        })
    }
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let inner = value.strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for part in inner.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue; // trailing comma
        }
        out.push(part.strip_prefix('"')?.strip_suffix('"')?.to_string());
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefix_match_is_per_component() {
        let p = vec!["crates/sim/src".to_string()];
        assert!(Config::in_paths("crates/sim/src/rng.rs", &p));
        // A sibling directory sharing the prefix string must not match.
        assert!(!Config::in_paths("crates/sim/srcfoo/x.rs", &p));
    }

    #[test]
    fn toml_overrides_one_key_and_keeps_the_rest() {
        let cfg = Config::from_toml_str("# comment\n[paths]\nserveing_typo = []");
        assert!(cfg.is_err());
        let cfg = Config::from_toml_str("serving = [\"x/y\"]").unwrap();
        assert_eq!(cfg.serving, vec!["x/y".to_string()]);
        assert_eq!(cfg.units, Config::default().units);
    }

    #[test]
    fn arrays_allow_trailing_commas() {
        let cfg = Config::from_toml_str("skip = [\"a\", \"b\",]").unwrap();
        assert_eq!(cfg.skip, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn malformed_lines_are_reported_with_line_numbers() {
        let err = Config::from_toml_str("serving = not-an-array").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }
}
