//! `lint.toml` loader.
//!
//! A deliberately tiny TOML-subset parser (sections, `key = <int>`,
//! `key = ["str", ...]`, `#` comments) so the lint pass stays
//! dependency-free. Unknown sections or keys are hard errors: the config is
//! checked in, so typos should fail loudly instead of silently relaxing a
//! rule.

use std::collections::BTreeMap;

/// Parsed contents of `lint.toml`.
#[derive(Debug, Default, Clone)]
pub struct LintConfig {
    /// Max number of `LINT-ALLOW(<rule>)` sites permitted per rule.
    /// Rules absent from the map get a budget of zero.
    pub budgets: BTreeMap<String, usize>,
    /// Workspace-relative crate directories excluded from scanning
    /// (benches and other non-library code).
    pub exclude: Vec<String>,
    /// Workspace-relative files subject to the `as-truncation` rule
    /// (the hot kernels).
    pub truncation_files: Vec<String>,
    /// Cast-target type names considered narrowing in those files.
    pub narrow_types: Vec<String>,
    /// Workspace-relative directory prefixes where wall-clock reads are
    /// banned (virtual-clock discipline).
    pub virtual_clock_paths: Vec<String>,
    /// Workspace-relative files and directories that may cite a roadmap
    /// item by number.
    pub roadmap_exempt: Vec<String>,
}

impl LintConfig {
    /// Parse the TOML-subset text. Returns a human-readable error with a
    /// line number on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut cfg = LintConfig::default();
        let mut section = String::new();
        let mut lines = text.lines().enumerate();
        while let Some((idx, raw)) = lines.next() {
            let lineno = idx + 1;
            let mut line = strip_comment(raw).trim().to_string();
            if line.is_empty() {
                continue;
            }
            // Multi-line arrays: accumulate until the closing bracket.
            while line.contains('[') && !line.starts_with('[') && !line.trim_end().ends_with(']') {
                match lines.next() {
                    Some((_, cont)) => {
                        line.push(' ');
                        line.push_str(strip_comment(cont).trim());
                    }
                    None => {
                        return Err(format!("lint.toml:{lineno}: unterminated array"));
                    }
                }
            }
            if let Some(name) = line.strip_prefix('[').and_then(|s| s.strip_suffix(']')) {
                section = name.trim().to_string();
                match section.as_str() {
                    "budgets" | "scope" | "as-truncation" | "virtual-clock" | "roadmap-number" => {}
                    other => return Err(format!("lint.toml:{lineno}: unknown section [{other}]")),
                }
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!("lint.toml:{lineno}: expected `key = value`"));
            };
            let key = key.trim();
            let value = value.trim();
            match (section.as_str(), key) {
                ("budgets", rule) => {
                    let n: usize = value.parse().map_err(|_| {
                        format!("lint.toml:{lineno}: budget for `{rule}` must be an integer")
                    })?;
                    cfg.budgets.insert(rule.to_string(), n);
                }
                ("scope", "exclude") => cfg.exclude = parse_string_array(value, lineno)?,
                ("as-truncation", "files") => {
                    cfg.truncation_files = parse_string_array(value, lineno)?;
                }
                ("as-truncation", "narrow_types") => {
                    cfg.narrow_types = parse_string_array(value, lineno)?;
                }
                ("virtual-clock", "paths") => {
                    cfg.virtual_clock_paths = parse_string_array(value, lineno)?;
                }
                ("roadmap-number", "exempt") => {
                    cfg.roadmap_exempt = parse_string_array(value, lineno)?;
                }
                (sec, key) => {
                    return Err(format!(
                        "lint.toml:{lineno}: unknown key `{key}` in [{sec}]"
                    ));
                }
            }
        }
        Ok(cfg)
    }
}

/// Strip a trailing `#` comment, respecting (single-line) string literals.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parse `["a", "b", ...]` (trailing comma tolerated).
fn parse_string_array(value: &str, lineno: usize) -> Result<Vec<String>, String> {
    let inner = value
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("lint.toml:{lineno}: expected a `[\"...\"]` array"))?;
    let mut out = Vec::new();
    for item in inner.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        let s = item
            .strip_prefix('"')
            .and_then(|s| s.strip_suffix('"'))
            .ok_or_else(|| format!("lint.toml:{lineno}: array items must be quoted strings"))?;
        out.push(s.to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_config() {
        let cfg = LintConfig::parse(
            r#"
# comment
[budgets]
no-panic = 12
as-truncation = 3   # trailing comment

[scope]
exclude = ["crates/bench"]

[as-truncation]
files = ["a.rs", "b.rs",]
narrow_types = ["u32", "f32"]

[virtual-clock]
paths = ["crates/estimators/src"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.budgets["no-panic"], 12);
        assert_eq!(cfg.budgets["as-truncation"], 3);
        assert_eq!(cfg.exclude, ["crates/bench"]);
        assert_eq!(cfg.truncation_files, ["a.rs", "b.rs"]);
        assert_eq!(cfg.narrow_types, ["u32", "f32"]);
        assert_eq!(cfg.virtual_clock_paths, ["crates/estimators/src"]);
    }

    #[test]
    fn rejects_unknown_section_and_key() {
        assert!(LintConfig::parse("[nope]\n").is_err());
        assert!(LintConfig::parse("[scope]\nincluded = []\n").is_err());
        assert!(LintConfig::parse("[budgets]\nno-panic = many\n").is_err());
    }

    #[test]
    fn multiline_arrays_accumulate() {
        let cfg =
            LintConfig::parse("[as-truncation]\nfiles = [\n  \"a.rs\",  # hot\n  \"b.rs\",\n]\n")
                .unwrap();
        assert_eq!(cfg.truncation_files, ["a.rs", "b.rs"]);
        assert!(LintConfig::parse("[as-truncation]\nfiles = [\n  \"a.rs\",\n").is_err());
    }

    #[test]
    fn hash_inside_string_is_not_a_comment() {
        let cfg = LintConfig::parse("[scope]\nexclude = [\"crates/a#b\"]\n").unwrap();
        assert_eq!(cfg.exclude, ["crates/a#b"]);
    }
}
