//! The repo lint pass: a hand-rolled line/token scanner enforcing four
//! repo-specific rules over all library crates (see `lint.toml` at the
//! workspace root for scope and budgets):
//!
//! * `no-panic` — no `.unwrap()` / `.expect(` / `panic!` / `todo!` in
//!   non-test library code. Surviving sites carry a
//!   `// LINT-ALLOW(no-panic): <justification>` marker and are counted
//!   against the checked-in budget, so the number can only shrink
//!   deliberately.
//! * `as-truncation` — no bare `as` casts to narrowing numeric types inside
//!   the hot kernels (`estimators/src/store.rs`, `exactdb/src/store.rs`,
//!   `exactdb/src/inverted.rs`, `exactdb/src/grid.rs`): slot/generation
//!   packing bugs hide in silent truncation.
//! * `atomic-ordering` — every `Ordering::{Relaxed,Acquire,Release,AcqRel,
//!   SeqCst}` use must be accompanied by a nearby comment containing the
//!   word "ordering" explaining why that ordering is sufficient.
//! * `virtual-clock` — no `Instant::now()` / `SystemTime` in the stream
//!   data-path crates: window time is driven by object timestamps
//!   (`SlidingWindow::now`), never the wall clock, so replays are
//!   deterministic. The observability layer's instrumentation surface
//!   (`WallTimer` in `latest-core`) holds the one budgeted
//!   `LINT-ALLOW(virtual-clock)` site — real latency must be measured
//!   with a real clock, but every such measurement funnels through it.
//!
//! The scanner strips string literals and comments with a small state
//! machine (line comments, nested block comments, escaped strings, raw
//! strings, char literals vs. lifetimes) and skips `#[cfg(test)]` items by
//! brace matching, and whole files that open with `#![cfg(test)]` — no
//! external parser, by design.

use std::collections::BTreeMap;
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::config::LintConfig;

/// All rules the pass knows about; `LINT-ALLOW` markers must name one.
pub const RULES: [&str; 4] = [
    "no-panic",
    "as-truncation",
    "atomic-ordering",
    "virtual-clock",
];

/// How many lines above an atomic-ordering use a rationale comment may sit.
pub(crate) const RATIONALE_WINDOW: usize = 10;
/// How many lines below a standalone `LINT-ALLOW` comment it may cover.
const ALLOW_REACH: usize = 3;
/// Justifications shorter than this are rejected as non-explanations.
pub(crate) const MIN_JUSTIFICATION: usize = 10;

/// One finding, printed as `file:line: [rule] message`.
#[derive(Debug, Clone)]
pub struct Diagnostic {
    pub file: String,
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Aggregated result of a lint run.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// `LINT-ALLOW` markers that suppressed at least one finding, per rule.
    pub allows_used: BTreeMap<String, usize>,
    /// Budgets loaded from `lint.toml` (for the summary line).
    pub budgets: BTreeMap<String, usize>,
    pub files_scanned: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// Lint the workspace rooted at `root` using `<root>/lint.toml`.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let cfg_path = root.join("lint.toml");
    let cfg_text = fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = LintConfig::parse(&cfg_text)?;

    let mut report = Report::default();
    report.budgets.clone_from(&cfg.budgets);
    for file in collect_files(root, &cfg)? {
        let text = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        lint_text(&rel, &text, &cfg, &mut report);
        report.files_scanned += 1;
    }
    enforce_budgets(&cfg, &mut report);
    Ok(report)
}

/// After all files are scanned, compare used allows against the budgets.
fn enforce_budgets(cfg: &LintConfig, report: &mut Report) {
    for (rule, used) in report.allows_used.clone() {
        let budget = cfg.budgets.get(&rule).copied().unwrap_or(0);
        if used > budget {
            report.diagnostics.push(Diagnostic {
                file: "lint.toml".into(),
                line: 0,
                rule: "budget",
                message: format!(
                    "{used} LINT-ALLOW({rule}) sites exceed the budget of {budget}; \
                     fix sites or raise the budget deliberately"
                ),
            });
        }
    }
}

pub fn print_report(report: &Report) {
    for d in &report.diagnostics {
        println!("{d}");
    }
    let mut summary: Vec<String> = Vec::new();
    for rule in RULES {
        let used = report.allows_used.get(rule).copied().unwrap_or(0);
        let budget = report.budgets.get(rule).copied().unwrap_or(0);
        summary.push(format!("{rule} {used}/{budget}"));
    }
    println!(
        "xtask lint: {} files scanned; allows used (per-rule, used/budget): {}",
        report.files_scanned,
        summary.join(", ")
    );
    if report.is_clean() {
        println!("xtask lint: clean");
    } else {
        println!(
            "xtask lint: FAILED ({} diagnostics)",
            report.diagnostics.len()
        );
    }
}

/// Enumerate `crates/*/src/**/*.rs`, skipping excluded crates, sorted for
/// deterministic diagnostics order.
fn collect_files(root: &Path, cfg: &LintConfig) -> Result<Vec<PathBuf>, String> {
    let crates_dir = root.join("crates");
    let entries = fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    let mut files = Vec::new();
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir error under crates/: {e}"))?;
        let crate_dir = entry.path();
        if !crate_dir.is_dir() {
            continue;
        }
        let rel = format!(
            "crates/{}",
            crate_dir.file_name().unwrap_or_default().to_string_lossy()
        );
        if cfg.exclude.iter().any(|e| e == &rel) {
            continue;
        }
        let src = crate_dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut files)?;
        }
    }
    files.sort();
    Ok(files)
}

pub(crate) fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries = fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("readdir error under {}: {e}", dir.display()))?;
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Source scanning
// ---------------------------------------------------------------------------

/// One source line split into disjoint channels.
#[derive(Default)]
pub(crate) struct SrcLine {
    /// Code text with string literals blanked out.
    pub(crate) code: String,
    /// All comment text on the line (doc comments included) — used for
    /// ordering-rationale detection.
    pub(crate) comment: String,
    /// Non-doc comment text only — `LINT-ALLOW` markers are parsed from
    /// here, so *talking about* the marker syntax in rustdoc never counts
    /// as placing a marker.
    pub(crate) marker: String,
}

/// Per-line split of a source file into code / comment / marker channels.
pub(crate) fn split_code_comments(text: &str) -> Vec<SrcLine> {
    #[derive(PartialEq, Clone, Copy)]
    enum State {
        Normal,
        Line { doc: bool },
        Block { depth: u32, doc: bool },
        Str,
        RawStr(u32),
    }
    let chars: Vec<char> = text.chars().collect();
    let mut lines = Vec::new();
    let mut cur = SrcLine::default();
    let mut state = State::Normal;
    let mut i = 0usize;
    let push_comment = |cur: &mut SrcLine, c: char, doc: bool| {
        cur.comment.push(c);
        if !doc {
            cur.marker.push(c);
        }
    };
    while i < chars.len() {
        let c = chars[i];
        if c == '\n' {
            lines.push(std::mem::take(&mut cur));
            if matches!(state, State::Line { .. }) {
                state = State::Normal;
            }
            i += 1;
            continue;
        }
        match state {
            State::Normal => {
                if c == '/' && chars.get(i + 1) == Some(&'/') {
                    let doc = matches!(chars.get(i + 2), Some('/' | '!'));
                    state = State::Line { doc };
                    i += 2 + usize::from(doc);
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    let doc = matches!(chars.get(i + 2), Some('*' | '!'));
                    state = State::Block { depth: 1, doc };
                    i += 2;
                } else if c == '"' {
                    state = State::Str;
                    cur.code.push(' ');
                    i += 1;
                } else if c == 'b' && chars.get(i + 1) == Some(&'"') {
                    state = State::Str;
                    cur.code.push(' ');
                    i += 2;
                } else if c == 'r' || (c == 'b' && chars.get(i + 1) == Some(&'r')) {
                    // Possible raw string r"..", r#".."#, br".." — count hashes.
                    let mut j = i + 1 + usize::from(c == 'b');
                    let mut hashes = 0u32;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if chars.get(j) == Some(&'"') {
                        state = State::RawStr(hashes);
                        cur.code.push(' ');
                        i = j + 1;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else if c == '\'' {
                    // Char literal vs. lifetime.
                    if chars.get(i + 1) == Some(&'\\') {
                        // Escaped char literal: skip to the closing quote.
                        let mut j = i + 2;
                        while j < chars.len() && chars[j] != '\'' && chars[j] != '\n' {
                            j += 1;
                        }
                        cur.code.push(' ');
                        i = (j + 1).min(chars.len());
                    } else if chars.get(i + 2) == Some(&'\'') && chars.get(i + 1) != Some(&'\'') {
                        cur.code.push(' ');
                        i += 3;
                    } else {
                        cur.code.push(c);
                        i += 1;
                    }
                } else {
                    cur.code.push(c);
                    i += 1;
                }
            }
            State::Line { doc } => {
                push_comment(&mut cur, c, doc);
                i += 1;
            }
            State::Block { depth, doc } => {
                if c == '*' && chars.get(i + 1) == Some(&'/') {
                    state = if depth == 1 {
                        State::Normal
                    } else {
                        State::Block {
                            depth: depth - 1,
                            doc,
                        }
                    };
                    i += 2;
                } else if c == '/' && chars.get(i + 1) == Some(&'*') {
                    state = State::Block {
                        depth: depth + 1,
                        doc,
                    };
                    i += 2;
                } else {
                    push_comment(&mut cur, c, doc);
                    i += 1;
                }
            }
            State::Str => {
                if c == '\\' {
                    // Skip the escaped char, but let a line-continuation
                    // newline be handled by the top-of-loop line tracking.
                    i += if chars.get(i + 1) == Some(&'\n') {
                        1
                    } else {
                        2
                    };
                } else {
                    if c == '"' {
                        state = State::Normal;
                    }
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if c == '"' {
                    let mut j = i + 1;
                    let mut k = 0u32;
                    while k < hashes && chars.get(j) == Some(&'#') {
                        k += 1;
                        j += 1;
                    }
                    if k == hashes {
                        state = State::Normal;
                        i = j;
                        continue;
                    }
                }
                i += 1;
            }
        }
    }
    if !cur.code.is_empty() || !cur.comment.is_empty() {
        lines.push(cur);
    }
    lines
}

pub(crate) fn is_ident_char(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// Find `pat` in `code` at a token boundary: when the pattern starts with an
/// identifier char (`panic!`, `SystemTime`), the char before the match must
/// not be part of an identifier (so `debug_panic!` never matches `panic!`).
/// Patterns starting with `.` need no boundary check.
pub(crate) fn has_token(code: &str, pat: &str) -> bool {
    let needs_boundary = pat.chars().next().is_some_and(is_ident_char);
    let mut start = 0;
    while let Some(pos) = code[start..].find(pat) {
        let abs = start + pos;
        let ok_before = !needs_boundary
            || abs == 0
            || !is_ident_char(code[..abs].chars().next_back().unwrap_or(' '));
        if ok_before {
            return true;
        }
        start = abs + pat.len();
    }
    false
}

/// Which per-line `#[cfg(test)]`-skipping mode the scanner is in.
enum TestSkip {
    Code,
    /// Saw a `#[cfg(test)]` attribute; waiting for the item it gates.
    PendingAttr,
    /// Inside the gated item; tracking brace depth until it closes.
    SkipItem {
        depth: i64,
        seen_brace: bool,
    },
}

/// Compute, per line, whether the line belongs to a `#[cfg(test)]` item and
/// should be exempt from all rules. A file that opens with the inner
/// attribute `#![cfg(test)]` is an out-of-line test module: all of it is.
pub(crate) fn test_region_mask(lines: &[SrcLine]) -> Vec<bool> {
    let test_file = lines
        .iter()
        .map(|l| l.code.trim())
        .filter(|c| !c.is_empty())
        .take_while(|c| c.starts_with("#!["))
        .any(|c| c == "#![cfg(test)]");
    if test_file {
        return vec![true; lines.len()];
    }
    let mut mask = vec![false; lines.len()];
    let mut mode = TestSkip::Code;
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        match mode {
            TestSkip::SkipItem {
                ref mut depth,
                ref mut seen_brace,
            } => {
                mask[idx] = true;
                for ch in code.chars() {
                    match ch {
                        '{' => {
                            *depth += 1;
                            *seen_brace = true;
                        }
                        '}' => *depth -= 1,
                        ';' if !*seen_brace && *depth == 0 => {
                            // Braceless item (e.g. `#[cfg(test)] use ...;`).
                            mode = TestSkip::Code;
                            break;
                        }
                        _ => {}
                    }
                }
                if let TestSkip::SkipItem { depth, seen_brace } = mode {
                    if seen_brace && depth <= 0 {
                        mode = TestSkip::Code;
                    }
                }
            }
            TestSkip::PendingAttr => {
                mask[idx] = true;
                let trimmed = code.trim();
                // Another attribute or a blank line: keep waiting for the item.
                if !trimmed.is_empty() && !trimmed.starts_with("#[") {
                    mode = enter_skip(code);
                }
            }
            TestSkip::Code => {
                if let Some(pos) = code.find("cfg(test") {
                    mask[idx] = true;
                    // Text after the attribute's closing bracket, if the
                    // gated item starts on the same line.
                    let rest = code[pos..].find(']').map(|j| &code[pos + j + 1..]);
                    match rest {
                        Some(r) if !r.trim().is_empty() => mode = enter_skip(r),
                        _ => mode = TestSkip::PendingAttr,
                    }
                }
            }
        }
    }
    mask
}

/// Begin skipping an item whose first line of code is `code`.
fn enter_skip(code: &str) -> TestSkip {
    let mut depth = 0i64;
    let mut seen_brace = false;
    for ch in code.chars() {
        match ch {
            '{' => {
                depth += 1;
                seen_brace = true;
            }
            '}' => depth -= 1,
            ';' if !seen_brace && depth == 0 => return TestSkip::Code,
            _ => {}
        }
    }
    if seen_brace && depth <= 0 {
        TestSkip::Code
    } else {
        TestSkip::SkipItem { depth, seen_brace }
    }
}

/// A `LINT-ALLOW(rule): justification` marker parsed from a comment.
struct Allow {
    rule: String,
    /// 0-based line the marker suppresses findings on.
    covers: usize,
    /// 0-based line the marker itself sits on (for diagnostics).
    at: usize,
    used: bool,
}

/// Parse all allow markers in the file and resolve which line each covers.
fn collect_allows(rel: &str, lines: &[SrcLine], report: &mut Report) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let code = &line.code;
        let Some(pos) = line.marker.find("LINT-ALLOW(") else {
            continue;
        };
        let rest = &line.marker[pos + "LINT-ALLOW(".len()..];
        let Some(close) = rest.find(')') else {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: idx + 1,
                rule: "lint-allow",
                message: "malformed LINT-ALLOW marker: missing `)`".into(),
            });
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !RULES.contains(&rule.as_str()) {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: idx + 1,
                rule: "lint-allow",
                message: format!("LINT-ALLOW names unknown rule `{rule}`"),
            });
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let justification = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if justification.len() < MIN_JUSTIFICATION {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: idx + 1,
                rule: "lint-allow",
                message: format!(
                    "LINT-ALLOW({rule}) needs a real justification after `:` \
                     (≥{MIN_JUSTIFICATION} chars)"
                ),
            });
            continue;
        }
        // Marker on a code line covers that line; a standalone comment
        // covers the next line bearing code, within ALLOW_REACH lines.
        let covers = if !code.trim().is_empty() {
            Some(idx)
        } else {
            (idx + 1..lines.len().min(idx + 1 + ALLOW_REACH))
                .find(|&j| !lines[j].code.trim().is_empty())
        };
        match covers {
            Some(covers) => allows.push(Allow {
                rule,
                covers,
                at: idx,
                used: false,
            }),
            None => report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: idx + 1,
                rule: "lint-allow",
                message: "dangling LINT-ALLOW: no code line within reach".into(),
            }),
        }
    }
    allows
}

/// Lint one file's text, appending findings to `report`.
pub fn lint_text(rel: &str, text: &str, cfg: &LintConfig, report: &mut Report) {
    let lines = split_code_comments(text);
    let skip = test_region_mask(&lines);
    let mut allows = collect_allows(rel, &lines, report);

    let truncation_scoped = cfg.truncation_files.iter().any(|f| f == rel);
    let clock_scoped = cfg
        .virtual_clock_paths
        .iter()
        .any(|p| rel.starts_with(p.as_str()));

    let emit = |report: &mut Report,
                allows: &mut Vec<Allow>,
                idx: usize,
                rule: &'static str,
                message: String| {
        if let Some(a) = allows
            .iter_mut()
            .find(|a| a.covers == idx && a.rule == rule)
        {
            a.used = true;
            return;
        }
        report.diagnostics.push(Diagnostic {
            file: rel.into(),
            line: idx + 1,
            rule,
            message,
        });
    };

    for (idx, line) in lines.iter().enumerate() {
        if skip[idx] {
            continue;
        }
        let code = &line.code;
        // no-panic
        for (pat, what) in [
            (".unwrap()", "`.unwrap()`"),
            (".expect(", "`.expect()`"),
            ("panic!", "`panic!`"),
            ("todo!", "`todo!`"),
        ] {
            if code.contains(pat) && has_token(code, pat) {
                emit(
                    report,
                    &mut allows,
                    idx,
                    "no-panic",
                    format!(
                        "{what} in library code: return a typed error or add \
                         `// LINT-ALLOW(no-panic): <why this cannot fail>`"
                    ),
                );
            }
        }
        // as-truncation (hot-kernel files only)
        if truncation_scoped {
            if let Some(target) = narrowing_cast(code, &cfg.narrow_types) {
                emit(
                    report,
                    &mut allows,
                    idx,
                    "as-truncation",
                    format!(
                        "bare `as {target}` narrowing cast in a hot kernel: use \
                         a checked conversion or add `// LINT-ALLOW(as-truncation): \
                         <why the value fits>`"
                    ),
                );
            }
        }
        // atomic-ordering
        if let Some(variant) = atomic_ordering_use(code) {
            // Same-line comments count too: the window is inclusive of idx.
            let has_rationale = (idx.saturating_sub(RATIONALE_WINDOW)..=idx)
                .any(|j| lines[j].comment.to_ascii_lowercase().contains("ordering"));
            if !has_rationale {
                emit(
                    report,
                    &mut allows,
                    idx,
                    "atomic-ordering",
                    format!(
                        "`Ordering::{variant}` without a nearby ordering-rationale \
                         comment: explain why this ordering is sufficient"
                    ),
                );
            }
        }
        // virtual-clock (stream data-path crates only)
        if clock_scoped {
            for pat in ["Instant::now", "SystemTime"] {
                if code.contains(pat) && has_token(code, pat) {
                    emit(
                        report,
                        &mut allows,
                        idx,
                        "virtual-clock",
                        format!(
                            "`{pat}` in a stream data-path crate: window time is \
                             virtual (driven by object timestamps), not wall-clock"
                        ),
                    );
                }
            }
        }
    }

    for a in &allows {
        if a.used {
            *report.allows_used.entry(a.rule.clone()).or_insert(0) += 1;
        } else {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: a.at + 1,
                rule: "lint-allow",
                message: format!(
                    "unused LINT-ALLOW({}): no matching finding on the covered line",
                    a.rule
                ),
            });
        }
    }
}

/// Detect `as <narrow-type>` casts; returns the offending target type.
fn narrowing_cast<'a>(code: &str, narrow: &'a [String]) -> Option<&'a str> {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(pos) = code[start..].find("as") {
        let abs = start + pos;
        start = abs + 2;
        let before_ok = abs == 0 || !is_ident_char(code[..abs].chars().next_back().unwrap_or(' '));
        let after_ok = bytes
            .get(abs + 2)
            .is_none_or(|&b| !is_ident_char(b as char));
        if !before_ok || !after_ok {
            continue;
        }
        // Read the next identifier token after the `as`.
        let rest = code[abs + 2..].trim_start();
        let token: String = rest.chars().take_while(|&c| is_ident_char(c)).collect();
        if let Some(t) = narrow.iter().find(|t| t.as_str() == token) {
            return Some(t);
        }
    }
    None
}

/// Detect uses of `std::sync::atomic::Ordering` variants (lexically disjoint
/// from `cmp::Ordering`'s `Less`/`Equal`/`Greater`, so no false positives).
pub(crate) fn atomic_ordering_use(code: &str) -> Option<&'static str> {
    const VARIANTS: [&str; 5] = ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
    let mut start = 0;
    while let Some(pos) = code[start..].find("Ordering::") {
        let abs = start + pos + "Ordering::".len();
        start = abs;
        let rest = &code[abs..];
        for v in VARIANTS {
            if rest.starts_with(v) && !rest[v.len()..].chars().next().is_some_and(is_ident_char) {
                return Some(v);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> LintConfig {
        LintConfig::parse(
            r#"
[budgets]
no-panic = 0
as-truncation = 0
atomic-ordering = 0
virtual-clock = 0

[as-truncation]
files = ["crates/hot/src/kernel.rs"]
narrow_types = ["u8", "u16", "u32", "i8", "i16", "i32", "f32"]

[virtual-clock]
paths = ["crates/stream/src"]
"#,
        )
        .unwrap()
    }

    fn run(rel: &str, src: &str) -> Report {
        let mut report = Report::default();
        lint_text(rel, src, &cfg(), &mut report);
        report
    }

    fn rules(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn flags_unwrap_expect_panic_todo() {
        let r = run(
            "crates/a/src/lib.rs",
            "fn f(x: Option<u32>) -> u32 {\n    let a = x.unwrap();\n    let b = x.expect(\"m\");\n    if a == 0 { panic!(\"boom\") }\n    todo!()\n}\n",
        );
        assert_eq!(rules(&r), ["no-panic", "no-panic", "no-panic", "no-panic"]);
        assert_eq!(r.diagnostics[0].line, 2);
        assert_eq!(r.diagnostics[3].line, 5);
    }

    #[test]
    fn ignores_panics_in_strings_and_comments() {
        let r = run(
            "crates/a/src/lib.rs",
            "// calling .unwrap() here would panic!\nfn f() -> &'static str {\n    \"don't .unwrap() or panic! or todo! in strings\"\n}\n/* block comment .expect( */\n",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn ignores_doctest_code_in_doc_comments() {
        let r = run(
            "crates/a/src/lib.rs",
            "/// ```\n/// let v = Some(1).unwrap();\n/// ```\nfn documented() {}\n",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn unwrap_or_else_is_not_flagged() {
        let r = run(
            "crates/a/src/lib.rs",
            "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n",
        );
        assert!(r.is_clean(), "{:?}", r.diagnostics);
    }

    #[test]
    fn skips_cfg_test_modules_and_items() {
        let src = "\
fn lib_code() {}\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() {\n\
        Some(1).unwrap();\n\
        panic!(\"fine in tests\");\n\
    }\n\
}\n\
#[cfg(test)]\n\
fn helper() { Some(1).unwrap(); }\n\
fn after() { Some(1).unwrap(); }\n";
        let r = run("crates/a/src/lib.rs", src);
        assert_eq!(rules(&r), ["no-panic"]);
        assert_eq!(r.diagnostics[0].line, 12, "{:?}", r.diagnostics);
    }

    #[test]
    fn skips_files_gated_by_an_inner_cfg_test() {
        let src = "\
//! Tests of the parent module, declared there as `mod tests;`.\n\
#![cfg(test)]\n\
use super::*;\n\
fn helper() { Some(1).unwrap(); }\n";
        assert!(run("crates/a/src/sys/tests.rs", src).is_clean());
        // An inner attribute only counts before the first item.
        let late = "fn f() { Some(1).unwrap(); }\nmod m {\n#![cfg(test)]\n}\n";
        assert_eq!(rules(&run("crates/a/src/lib.rs", late)), ["no-panic"]);
    }

    #[test]
    fn lint_allow_suppresses_and_is_counted() {
        let src = "\
fn f(x: Option<u32>) -> u32 {\n\
    // LINT-ALLOW(no-panic): x is checked non-empty by the caller contract\n\
    x.unwrap()\n\
}\n";
        let r = run("crates/a/src/lib.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.allows_used["no-panic"], 1);
    }

    #[test]
    fn same_line_lint_allow_works() {
        let src =
            "fn f(x: Option<u32>) -> u32 { x.unwrap() } // LINT-ALLOW(no-panic): caller guarantees Some by construction\n";
        let r = run("crates/a/src/lib.rs", src);
        assert!(r.is_clean(), "{:?}", r.diagnostics);
        assert_eq!(r.allows_used["no-panic"], 1);
    }

    #[test]
    fn short_or_unknown_or_unused_allows_are_diagnosed() {
        let short = run(
            "crates/a/src/lib.rs",
            "// LINT-ALLOW(no-panic): ok\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n",
        );
        assert_eq!(rules(&short), ["lint-allow", "no-panic"]);

        let unknown = run(
            "crates/a/src/lib.rs",
            "// LINT-ALLOW(no-such-rule): a very long justification\nfn f() {}\n",
        );
        assert_eq!(rules(&unknown), ["lint-allow"]);

        let unused = run(
            "crates/a/src/lib.rs",
            "// LINT-ALLOW(no-panic): nothing here actually panics at all\nfn f() {}\n",
        );
        assert_eq!(rules(&unused), ["lint-allow"]);
    }

    #[test]
    fn doc_comments_never_carry_allow_markers_but_do_carry_rationale() {
        // Rustdoc *describing* the marker syntax must not count as a marker.
        let doc = "/// Use `// LINT-ALLOW(no-panic): why` to justify a site.\nfn f() {}\n//! module doc: LINT-ALLOW(as-truncation): not a marker either\n";
        assert!(run("crates/a/src/lib.rs", doc).is_clean());
        // ...but a doc comment can still satisfy the ordering-rationale rule.
        let atomic = "/// Relaxed ordering: pure statistic, nothing synchronizes on it.\nfn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(run("crates/a/src/lib.rs", atomic).is_clean());
    }

    #[test]
    fn narrowing_casts_flagged_only_in_hot_files() {
        let src = "fn f(x: u64) -> u32 { x as u32 }\n";
        assert_eq!(
            rules(&run("crates/hot/src/kernel.rs", src)),
            ["as-truncation"]
        );
        assert!(run("crates/cold/src/lib.rs", src).is_clean());
        // Widening casts stay allowed even in hot files.
        let widen = "fn f(x: u32) -> u64 { x as u64 }\nfn g(x: u32) -> usize { x as usize }\n";
        assert!(run("crates/hot/src/kernel.rs", widen).is_clean());
    }

    #[test]
    fn atomic_ordering_needs_rationale_comment() {
        let bare = "fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert_eq!(
            rules(&run("crates/a/src/lib.rs", bare)),
            ["atomic-ordering"]
        );

        let with = "\
// Relaxed ordering: the counter is a statistic; nothing synchronizes on it.\n\
fn f(c: &AtomicU64) { c.fetch_add(1, Ordering::Relaxed); }\n";
        assert!(run("crates/a/src/lib.rs", with).is_clean());

        // cmp::Ordering variants must not trip the rule.
        let cmp =
            "fn f(a: u32, b: u32) -> Ordering { a.cmp(&b) }\nconst X: Ordering = Ordering::Less;\n";
        assert!(run("crates/a/src/lib.rs", cmp).is_clean());
    }

    #[test]
    fn virtual_clock_scoped_to_data_path_crates() {
        let src = "fn f() { let t = Instant::now(); let _ = t; }\nfn g() -> SystemTime { SystemTime::now() }\n";
        let r = run("crates/stream/src/window.rs", src);
        assert_eq!(rules(&r), ["virtual-clock", "virtual-clock"]);
        assert!(run("crates/other/src/lib.rs", src).is_clean());
    }

    #[test]
    fn virtual_clock_allow_covers_the_instrumentation_surface() {
        // The observability layer's budgeted wall-clock read: a justified
        // allow marker for the virtual-clock rule silences the finding and
        // is counted against the [budgets] cap (`lint.toml` grants exactly
        // one, for `WallTimer::start`).
        let src = "\
fn start() -> Instant {\n\
    // LINT-ALLOW(virtual-clock): budgeted instrumentation-surface read; stream time stays virtual\n\
    Instant::now()\n\
}\n";
        let r = run("crates/stream/src/obsv.rs", src);
        assert!(
            r.is_clean(),
            "justified allow must silence the finding: {:?}",
            r.diagnostics
        );
        assert_eq!(r.allows_used.get("virtual-clock"), Some(&1));
        // Outside the scoped paths the marker is dangling (unused) — the
        // allow must not grant wall-clock reads where the rule is off.
        let off = run("crates/other/src/lib.rs", src);
        assert!(!off.is_clean(), "unused allow must be flagged off-scope");
    }

    #[test]
    fn raw_strings_and_char_literals_do_not_confuse_the_scanner() {
        let src = "\
fn f() -> char { '\"' }\n\
fn g() -> &'static str { r#\"panic! .unwrap() \"#}\n\
fn h<'a>(x: &'a str) -> &'a str { x }\n\
fn bad(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = run("crates/a/src/lib.rs", src);
        assert_eq!(rules(&r), ["no-panic"]);
        assert_eq!(r.diagnostics[0].line, 4);
    }

    #[test]
    fn multiline_string_spanning_lines_is_blanked() {
        let src = "const S: &str = \"line one .unwrap()\n line two panic! \";\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let r = run("crates/a/src/lib.rs", src);
        assert_eq!(rules(&r), ["no-panic"]);
        assert_eq!(r.diagnostics[0].line, 3);
    }

    /// Acceptance-criterion self-test: an unjustified `.unwrap()` introduced
    /// into a library crate makes the workspace lint fail with a file:line
    /// diagnostic and a nonzero-style (non-clean) report.
    #[test]
    fn workspace_lint_fails_on_unjustified_unwrap() {
        let root = std::env::temp_dir().join(format!(
            "xtask-lint-selftest-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let src_dir = root.join("crates/demo/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(root.join("lint.toml"), "[budgets]\nno-panic = 0\n").unwrap();
        std::fs::write(
            src_dir.join("lib.rs"),
            "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
        )
        .unwrap();

        let report = lint_workspace(&root).unwrap();
        assert!(!report.is_clean());
        assert_eq!(report.diagnostics.len(), 1);
        let d = &report.diagnostics[0];
        assert_eq!(d.file, "crates/demo/src/lib.rs");
        assert_eq!(d.line, 2);
        assert_eq!(d.rule, "no-panic");
        // file:line formatting used by CI annotations
        assert!(d
            .to_string()
            .starts_with("crates/demo/src/lib.rs:2: [no-panic]"));

        // Justifying the site under a budget of 1 turns the tree clean.
        std::fs::write(
            src_dir.join("lib.rs"),
            "pub fn f(x: Option<u32>) -> u32 {\n    // LINT-ALLOW(no-panic): caller contract guarantees Some here\n    x.unwrap()\n}\n",
        )
        .unwrap();
        std::fs::write(root.join("lint.toml"), "[budgets]\nno-panic = 1\n").unwrap();
        let report = lint_workspace(&root).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.allows_used["no-panic"], 1);

        // ...but exceeding the checked-in budget fails again.
        std::fs::write(root.join("lint.toml"), "[budgets]\nno-panic = 0\n").unwrap();
        let report = lint_workspace(&root).unwrap();
        assert!(!report.is_clean());
        assert!(report.diagnostics.iter().any(|d| d.rule == "budget"));

        std::fs::remove_dir_all(&root).unwrap();
    }
}
