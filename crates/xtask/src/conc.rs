//! The `cargo xtask conc` pass: a whole-repo concurrency protocol registry
//! check over the hand-threaded serving layer.
//!
//! Every concurrency construct in library code — `thread::spawn` /
//! scoped-spawn sites, `Mutex`/`Condvar`/`RwLock` constructions, channel
//! endpoint creations (`bounded`/`unbounded`/`mpsc::channel`), and every
//! `Ordering::*` atomic-access site — must carry a
//!
//! ```text
//! // CONC(<protocol>/<site>): <why this site is correct>
//! ```
//!
//! marker within ten lines, and `(kind, site)` must be declared in the
//! checked-in `conc.toml` registry under the named protocol. The pass then
//! enforces, on top of that cross-reference:
//!
//! * **(a) lock order** — `[lock-order] edges` must form a DAG over
//!   declared lock sites; a cycle (a potential ABBA deadlock blessed into
//!   the registry) is a hard diagnostic;
//! * **(b) channel pairing** — every `[channel.*]` entry documents its
//!   receiver-side `drain` and its `shutdown` edge (how senders hang up);
//! * **(c) join coverage** — every `[thread.*]` entry documents exactly one
//!   of `join` (who joins it on the drop path) or `detach` (why not);
//! * **(d) atomic cross-reference** — every `Ordering::*` site names its
//!   protocol through the marker, replacing trust in comment proximity
//!   with a checked registry lookup.
//!
//! The registry is *taut* in both directions: an unregistered site fails,
//! and a registered site that no longer matches any code line fails
//! (`stale`), so the registry can never drift from the tree. With
//! `--check-docs` the pass additionally requires DESIGN.md's "Concurrency
//! protocols" section to mention every protocol and every site by name.
//!
//! Scanning reuses the `lint.rs` machinery: string literals blanked,
//! comments split into doc/non-doc channels, `#[cfg(test)]` items masked.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

use crate::conc_config::{ConcConfig, SiteDecl};
use crate::lint::{
    atomic_ordering_use, has_token, is_ident_char, split_code_comments, test_region_mask, walk_rs,
    Diagnostic, SrcLine, MIN_JUSTIFICATION, RATIONALE_WINDOW,
};

/// Heading the `--check-docs` mode anchors on in DESIGN.md.
const DOCS_HEADING: &str = "## Concurrency protocols";

/// Subsection of [`DOCS_HEADING`] whose `* **name** —` bullets are one per
/// registered protocol.
const PROTOCOL_LIST_HEADING: &str = "### Protocols and their happens-before arguments";

/// Site kinds the scanner discovers, in reporting order.
const KINDS: [&str; 4] = ["atomic", "lock", "channel", "thread"];

/// Aggregated result of a conc run.
#[derive(Debug, Default)]
pub struct Report {
    pub diagnostics: Vec<Diagnostic>,
    /// Discovered-and-registered sites per kind (for the summary line).
    pub sites_matched: BTreeMap<String, usize>,
    pub files_scanned: usize,
    pub protocols: usize,
}

impl Report {
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }
}

/// One discovered code site.
struct Site {
    kind: &'static str,
    /// 0-based line index.
    line: usize,
    /// What the scanner saw (for diagnostics): `Ordering::Relaxed`,
    /// `spawn(`, `bounded(`, `Mutex::new(`, …
    token: String,
}

/// One parsed `CONC(protocol/site): rationale` marker.
struct Marker {
    protocol: String,
    site: String,
    /// 0-based line index the marker sits on.
    at: usize,
    used: bool,
}

/// Run the conc pass over the workspace rooted at `root` using
/// `<root>/conc.toml` (and `<root>/DESIGN.md` when `check_docs`).
pub fn conc_workspace(root: &Path, check_docs: bool) -> Result<Report, String> {
    let cfg_path = root.join("conc.toml");
    let cfg_text = fs::read_to_string(&cfg_path)
        .map_err(|e| format!("cannot read {}: {e}", cfg_path.display()))?;
    let cfg = ConcConfig::parse(&cfg_text)?;

    let mut report = Report {
        protocols: cfg.protocols.len(),
        ..Report::default()
    };
    for kind in KINDS {
        report.sites_matched.insert(kind.to_string(), 0);
    }
    // (kind, site-name) pairs some code line matched — for staleness.
    let mut matched: BTreeSet<(String, String)> = BTreeSet::new();

    for file in collect_files(root, &cfg)? {
        let text = fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        conc_text(&rel, &text, &cfg, &mut matched, &mut report);
        report.files_scanned += 1;
    }

    check_registry(&cfg, &matched, &mut report);
    check_lock_order(&cfg, &mut report);
    if check_docs {
        check_docs_section(root, &cfg, &mut report);
    }
    Ok(report)
}

/// Enumerate `crates/*/src/**/*.rs`, skipping excluded crates.
fn collect_files(root: &Path, cfg: &ConcConfig) -> Result<Vec<PathBuf>, String> {
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

/// Scan one file: discover sites, parse markers, cross-reference both
/// against the registry.
fn conc_text(
    rel: &str,
    text: &str,
    cfg: &ConcConfig,
    matched: &mut BTreeSet<(String, String)>,
    report: &mut Report,
) {
    let lines = split_code_comments(text);
    let skip = test_region_mask(&lines);
    let mut markers = collect_markers(rel, &lines, cfg, report);

    let mut sites: Vec<Site> = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        if skip[idx] {
            continue;
        }
        discover_sites(&line.code, idx, &mut sites);
    }

    for site in &sites {
        // The covering marker: nearest one within the window above (same
        // line allowed — trailing comments count).
        let found = markers
            .iter_mut()
            .filter(|m| m.at <= site.line && site.line - m.at <= RATIONALE_WINDOW)
            .max_by_key(|m| m.at);
        let Some(marker) = found else {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: site.line + 1,
                rule: "conc-site",
                message: format!(
                    "unregistered {} site `{}`: add `// CONC(<protocol>/<site>): <rationale>` \
                     within {RATIONALE_WINDOW} lines and declare [{}.<site>] in conc.toml",
                    site.kind, site.token, site.kind
                ),
            });
            continue;
        };
        marker.used = true;
        let Some(decl) = cfg.sites(site.kind).and_then(|m| m.get(&marker.site)) else {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: site.line + 1,
                rule: "conc-site",
                message: format!(
                    "{} site `{}` is marked CONC({}/{}) but conc.toml has no [{}.{}] entry",
                    site.kind, site.token, marker.protocol, marker.site, site.kind, marker.site
                ),
            });
            continue;
        };
        if decl.protocol != marker.protocol {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: site.line + 1,
                rule: "conc-site",
                message: format!(
                    "marker names protocol `{}` but [{}.{}] declares `{}`",
                    marker.protocol, site.kind, marker.site, decl.protocol
                ),
            });
            continue;
        }
        if decl.file != rel {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: site.line + 1,
                rule: "conc-site",
                message: format!(
                    "[{}.{}] is declared for `{}` but matched in `{}`",
                    site.kind, marker.site, decl.file, rel
                ),
            });
            continue;
        }
        matched.insert((site.kind.to_string(), marker.site.clone()));
        *report
            .sites_matched
            .entry(site.kind.to_string())
            .or_insert(0) += 1;
    }

    for marker in &markers {
        if !marker.used {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: marker.at + 1,
                rule: "conc-marker",
                message: format!(
                    "dangling CONC({}/{}): no concurrency site within {RATIONALE_WINDOW} \
                     lines below",
                    marker.protocol, marker.site
                ),
            });
        }
    }
}

/// Parse all `CONC(protocol/site): rationale` markers in a file. Markers
/// live in the non-doc comment channel, like `LINT-ALLOW`, so rustdoc
/// *describing* the syntax never counts.
fn collect_markers(
    rel: &str,
    lines: &[SrcLine],
    cfg: &ConcConfig,
    report: &mut Report,
) -> Vec<Marker> {
    let mut markers = Vec::new();
    for (idx, line) in lines.iter().enumerate() {
        let Some(pos) = line.marker.find("CONC(") else {
            continue;
        };
        let bad = |report: &mut Report, message: String| {
            report.diagnostics.push(Diagnostic {
                file: rel.into(),
                line: idx + 1,
                rule: "conc-marker",
                message,
            });
        };
        let rest = &line.marker[pos + "CONC(".len()..];
        let Some(close) = rest.find(')') else {
            bad(report, "malformed CONC marker: missing `)`".into());
            continue;
        };
        let name = rest[..close].trim();
        let Some((protocol, site)) = name.split_once('/') else {
            bad(
                report,
                format!("CONC marker `{name}` must be `<protocol>/<site>`"),
            );
            continue;
        };
        let (protocol, site) = (protocol.trim(), site.trim());
        if !cfg.protocols.contains_key(protocol) {
            bad(
                report,
                format!("CONC marker names unknown protocol `{protocol}` (not in conc.toml)"),
            );
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let rationale = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if rationale.len() < MIN_JUSTIFICATION {
            bad(
                report,
                format!(
                    "CONC({protocol}/{site}) needs a real rationale after `:` \
                     (≥{MIN_JUSTIFICATION} chars)"
                ),
            );
            continue;
        }
        markers.push(Marker {
            protocol: protocol.to_string(),
            site: site.to_string(),
            at: idx,
            used: false,
        });
    }
    markers
}

/// Find every concurrency construct on one (string-blanked) code line.
fn discover_sites(code: &str, idx: usize, out: &mut Vec<Site>) {
    if let Some(variant) = atomic_ordering_use(code) {
        out.push(Site {
            kind: "atomic",
            line: idx,
            token: format!("Ordering::{variant}"),
        });
    }
    for pat in ["Mutex::new(", "RwLock::new(", "Condvar::new("] {
        if code.contains(pat) && has_token(code, pat) {
            out.push(Site {
                kind: "lock",
                line: idx,
                token: pat.into(),
            });
        }
    }
    for tok in ["bounded", "unbounded", "channel"] {
        if called_token(code, tok) {
            out.push(Site {
                kind: "channel",
                line: idx,
                token: format!("{tok}("),
            });
        }
    }
    if spawn_site(code) {
        out.push(Site {
            kind: "thread",
            line: idx,
            token: "spawn(".into(),
        });
    }
}

/// True when `tok` appears as a *call* — an ident-boundary token followed
/// by `(` or a turbofish `::<` — so `use` lists, paths like
/// `channel::TrySendError`, and identifiers such as `spawn_scraper` never
/// match.
fn called_token(code: &str, tok: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find(tok) {
        let abs = start + pos;
        start = abs + tok.len();
        let before_ok = abs == 0 || !is_ident_char(code[..abs].chars().next_back().unwrap_or(' '));
        let rest = &code[abs + tok.len()..];
        if before_ok && (rest.starts_with('(') || rest.starts_with("::<")) {
            return true;
        }
    }
    false
}

/// True when the line *calls* `spawn` — `.spawn(`, `::spawn(`, bare
/// `spawn(` — excluding `fn spawn(` definitions.
fn spawn_site(code: &str) -> bool {
    let mut start = 0;
    while let Some(pos) = code[start..].find("spawn") {
        let abs = start + pos;
        start = abs + "spawn".len();
        let before = code[..abs].trim_end();
        let before_ok = abs == 0 || !is_ident_char(code[..abs].chars().next_back().unwrap_or(' '));
        if !before_ok {
            continue;
        }
        let rest = &code[abs + "spawn".len()..];
        if !(rest.starts_with('(') || rest.starts_with("::<")) {
            continue;
        }
        if before.ends_with("fn") {
            continue; // a definition, not a spawn
        }
        return true;
    }
    false
}

/// Registry-level rules: channel pairing (b), join coverage (c), protocol
/// references, and two-way tautness.
fn check_registry(cfg: &ConcConfig, matched: &BTreeSet<(String, String)>, report: &mut Report) {
    let mut referenced: BTreeSet<&str> = BTreeSet::new();
    let entry_diag = |report: &mut Report, kind: &str, name: &str, message: String| {
        report.diagnostics.push(Diagnostic {
            file: "conc.toml".into(),
            line: 0,
            rule: "conc-registry",
            message: format!("[{kind}.{name}] {message}"),
        });
    };

    for kind in KINDS {
        let Some(map) = cfg.sites(kind) else { continue };
        for (name, decl) in map {
            if !cfg.protocols.contains_key(&decl.protocol) {
                entry_diag(
                    report,
                    kind,
                    name,
                    format!("references unknown protocol `{}`", decl.protocol),
                );
            } else {
                referenced.insert(decl.protocol.as_str());
            }
            if decl.file.is_empty() {
                entry_diag(report, kind, name, "lacks a `file`".into());
            }
            if kind == "channel" {
                check_channel_pairing(decl, name, report, &entry_diag);
            }
            if kind == "thread" {
                check_join_coverage(decl, name, report, &entry_diag);
            }
            if !matched.contains(&(kind.to_string(), name.clone())) {
                entry_diag(
                    report,
                    kind,
                    name,
                    format!(
                        "is stale: no {kind} site in `{}` matches it (remove the entry or \
                         fix the marker)",
                        decl.file
                    ),
                );
            }
        }
    }

    for (name, protocol) in &cfg.protocols {
        if protocol.justification.len() < MIN_JUSTIFICATION {
            report.diagnostics.push(Diagnostic {
                file: "conc.toml".into(),
                line: 0,
                rule: "conc-registry",
                message: format!(
                    "[protocol.{name}] needs a real happens-before `justification` \
                     (≥{MIN_JUSTIFICATION} chars)"
                ),
            });
        }
        if !referenced.contains(name.as_str()) {
            report.diagnostics.push(Diagnostic {
                file: "conc.toml".into(),
                line: 0,
                rule: "conc-registry",
                message: format!("[protocol.{name}] is referenced by no site entry"),
            });
        }
    }
}

/// Rule (b): every channel documents its drain side and shutdown edge.
fn check_channel_pairing(
    decl: &SiteDecl,
    name: &str,
    report: &mut Report,
    entry_diag: &impl Fn(&mut Report, &str, &str, String),
) {
    if decl.drain.len() < MIN_JUSTIFICATION {
        entry_diag(
            report,
            "channel",
            name,
            format!("lacks a `drain` (who consumes the receiver side; ≥{MIN_JUSTIFICATION} chars)"),
        );
    }
    if decl.shutdown.len() < MIN_JUSTIFICATION {
        entry_diag(
            report,
            "channel",
            name,
            format!("lacks a `shutdown` edge (how senders hang up; ≥{MIN_JUSTIFICATION} chars)"),
        );
    }
}

/// Rule (c): every thread documents exactly one of join / detach.
fn check_join_coverage(
    decl: &SiteDecl,
    name: &str,
    report: &mut Report,
    entry_diag: &impl Fn(&mut Report, &str, &str, String),
) {
    let has_join = decl.join.len() >= MIN_JUSTIFICATION;
    let has_detach = decl.detach.len() >= MIN_JUSTIFICATION;
    match (has_join, has_detach) {
        (false, false) => entry_diag(
            report,
            "thread",
            name,
            format!(
                "lacks join coverage: document `join` (who joins it on the drop path) or \
                 `detach` (why not); ≥{MIN_JUSTIFICATION} chars"
            ),
        ),
        (true, true) => entry_diag(
            report,
            "thread",
            name,
            "declares both `join` and `detach`: pick exactly one".into(),
        ),
        _ => {}
    }
}

/// Rule (a): the declared lock-acquisition order must be a DAG over
/// declared lock sites.
fn check_lock_order(cfg: &ConcConfig, report: &mut Report) {
    let diag = |report: &mut Report, message: String| {
        report.diagnostics.push(Diagnostic {
            file: "conc.toml".into(),
            line: 0,
            rule: "lock-order",
            message,
        });
    };
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in &cfg.lock_order {
        for node in [from, to] {
            if !cfg.locks.contains_key(node) {
                diag(
                    report,
                    format!("edge endpoint `{node}` is not a declared [lock.*] site"),
                );
            }
        }
        adj.entry(from.as_str()).or_default().push(to.as_str());
    }
    // Iterative DFS three-coloring for cycle detection.
    let mut color: BTreeMap<&str, u8> = BTreeMap::new(); // 0 white, 1 grey, 2 black
    for &start in adj.keys().collect::<Vec<_>>().iter() {
        if color.get(start).copied().unwrap_or(0) != 0 {
            continue;
        }
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        color.insert(start, 1);
        while let Some(&(node, next)) = stack.last() {
            let succs = adj.get(node).map(Vec::as_slice).unwrap_or(&[]);
            if next >= succs.len() {
                color.insert(node, 2);
                stack.pop();
                continue;
            }
            if let Some(last) = stack.last_mut() {
                last.1 += 1;
            }
            let succ = succs[next];
            match color.get(succ).copied().unwrap_or(0) {
                0 => {
                    color.insert(succ, 1);
                    stack.push((succ, 0));
                }
                1 => {
                    let mut cycle: Vec<&str> = stack.iter().map(|&(n, _)| n).collect();
                    cycle.push(succ);
                    diag(
                        report,
                        format!(
                            "lock-acquisition-order cycle: {} — an ABBA deadlock is \
                             declared into the registry",
                            cycle.join(" -> ")
                        ),
                    );
                    return;
                }
                _ => {}
            }
        }
    }
}

/// `--check-docs`: DESIGN.md's "Concurrency protocols" section must
/// mention every protocol and every registered site by name, and its
/// protocol list must not keep a bullet for a protocol the registry dropped.
fn check_docs_section(root: &Path, cfg: &ConcConfig, report: &mut Report) {
    let path = root.join("DESIGN.md");
    let diag = |report: &mut Report, message: String| {
        report.diagnostics.push(Diagnostic {
            file: "DESIGN.md".into(),
            line: 0,
            rule: "conc-docs",
            message,
        });
    };
    let text = match fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            diag(report, format!("cannot read DESIGN.md: {e}"));
            return;
        }
    };
    let Some(start) = text.find(DOCS_HEADING) else {
        diag(
            report,
            format!("missing `{DOCS_HEADING}` section (required by --check-docs)"),
        );
        return;
    };
    let body = &text[start + DOCS_HEADING.len()..];
    let section = match body.find("\n## ") {
        Some(end) => &body[..end],
        None => body,
    };
    for name in cfg.protocols.keys() {
        if !section.contains(name.as_str()) {
            diag(
                report,
                format!("protocol `{name}` is not documented under `{DOCS_HEADING}`"),
            );
        }
    }
    for kind in KINDS {
        let Some(map) = cfg.sites(kind) else { continue };
        for name in map.keys() {
            if !section.contains(name.as_str()) {
                diag(
                    report,
                    format!("{kind} site `{name}` is not documented under `{DOCS_HEADING}`"),
                );
            }
        }
    }
    let Some(start) = section.find(PROTOCOL_LIST_HEADING) else {
        return;
    };
    let list = &section[start + PROTOCOL_LIST_HEADING.len()..];
    let list = list.find("\n### ").map_or(list, |end| &list[..end]);
    let bullets = list
        .lines()
        .filter_map(|line| Some(line.strip_prefix("* **")?.split_once("**")?.0));
    for name in bullets {
        if !cfg.protocols.contains_key(name) {
            diag(
                report,
                format!(
                    "`{PROTOCOL_LIST_HEADING}` documents protocol `{name}`, which conc.toml does not register"
                ),
            );
        }
    }
}

pub fn print_report(report: &Report) {
    for d in &report.diagnostics {
        println!("{d}");
    }
    let summary: Vec<String> = report
        .sites_matched
        .iter()
        .map(|(kind, n)| format!("{kind} {n}"))
        .collect();
    println!(
        "xtask conc: {} files scanned; {} protocols; registered sites: {}",
        report.files_scanned,
        report.protocols,
        summary.join(", ")
    );
    if report.is_clean() {
        println!("xtask conc: clean");
    } else {
        println!(
            "xtask conc: FAILED ({} diagnostics)",
            report.diagnostics.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal registry + source pair that passes every rule.
    const CLEAN_TOML: &str = r#"
[scope]
exclude = []

[protocol.demo]
justification = "the job channel send happens-before the worker recv; join on drop"

[atomic.counter]
protocol = "demo"
file = "crates/a/src/lib.rs"

[lock.state]
protocol = "demo"
file = "crates/a/src/lib.rs"

[lock.inner]
protocol = "demo"
file = "crates/a/src/lib.rs"

[channel.jobs]
protocol = "demo"
file = "crates/a/src/lib.rs"
drain = "worker loop drains until disconnect"
shutdown = "stop() drops the sender; worker exits on Disconnected"

[thread.worker]
protocol = "demo"
file = "crates/a/src/lib.rs"
join = "stop() joins the handle after dropping the sender"

[lock-order]
edges = ["state -> inner"]
"#;

    const CLEAN_SRC: &str = "\
use std::sync::atomic::{AtomicU64, Ordering};\n\
use std::sync::{Mutex, mpsc};\n\
pub fn build() {\n\
    // CONC(demo/state): guards the shared map; never held across user code\n\
    let state = Mutex::new(0u64);\n\
    // CONC(demo/inner): leaf lock; ordered after state by the declared DAG\n\
    let inner = Mutex::new(0u64);\n\
    // CONC(demo/jobs): bounded handoff; send is the publication edge\n\
    let (tx, rx) = mpsc::channel::<u64>();\n\
    // CONC(demo/worker): drains jobs; joined by stop() before drop returns\n\
    let h = std::thread::Builder::new().spawn(move || drop(rx));\n\
    // Relaxed ordering: pure statistic, nothing synchronizes on it.\n\
    // CONC(demo/counter): relaxed statistic counter; no ordering claimed\n\
    let c = AtomicU64::new(0);\n\
    c.fetch_add(1, Ordering::Relaxed);\n\
    drop((state, inner, tx, h));\n\
}\n";

    fn write_tree(toml: &str, src: &str) -> std::path::PathBuf {
        use std::sync::atomic::{AtomicU32, Ordering};
        // Unique per call: some tests hold two fixture trees at once.
        static SEQ: AtomicU32 = AtomicU32::new(0);
        let root = std::env::temp_dir().join(format!(
            "xtask-conc-selftest-{}-{:?}-{}",
            std::process::id(),
            std::thread::current().id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&root);
        let src_dir = root.join("crates/a/src");
        std::fs::create_dir_all(&src_dir).unwrap();
        std::fs::write(root.join("conc.toml"), toml).unwrap();
        std::fs::write(src_dir.join("lib.rs"), src).unwrap();
        root
    }

    fn rules(report: &Report) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.rule).collect()
    }

    #[test]
    fn clean_fixture_passes_every_rule() {
        let root = write_tree(CLEAN_TOML, CLEAN_SRC);
        let report = conc_workspace(&root, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        assert_eq!(report.sites_matched["atomic"], 1);
        assert_eq!(report.sites_matched["lock"], 2);
        assert_eq!(report.sites_matched["channel"], 1);
        assert_eq!(report.sites_matched["thread"], 1);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Seeded mutation (a): blessing a lock-order cycle into the registry.
    #[test]
    fn mutation_lock_order_cycle_is_caught() {
        let toml = CLEAN_TOML.replace(
            "edges = [\"state -> inner\"]",
            "edges = [\"state -> inner\", \"inner -> state\"]",
        );
        let root = write_tree(&toml, CLEAN_SRC);
        let report = conc_workspace(&root, false).unwrap();
        assert!(
            rules(&report).contains(&"lock-order"),
            "{:?}",
            report.diagnostics
        );
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "lock-order")
            .unwrap();
        assert!(d.message.contains("cycle"), "{d}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Seeded mutation (b): a channel whose shutdown edge is undocumented.
    #[test]
    fn mutation_missing_channel_shutdown_is_caught() {
        let toml = CLEAN_TOML.replace(
            "shutdown = \"stop() drops the sender; worker exits on Disconnected\"\n",
            "",
        );
        let root = write_tree(&toml, CLEAN_SRC);
        let report = conc_workspace(&root, false).unwrap();
        let msgs: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("shutdown")), "{msgs:?}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Seeded mutation (c): a spawned thread with no join/detach annotation.
    #[test]
    fn mutation_missing_join_coverage_is_caught() {
        let toml = CLEAN_TOML.replace(
            "join = \"stop() joins the handle after dropping the sender\"\n",
            "",
        );
        let root = write_tree(&toml, CLEAN_SRC);
        let report = conc_workspace(&root, false).unwrap();
        let msgs: Vec<_> = report
            .diagnostics
            .iter()
            .map(|d| d.message.as_str())
            .collect();
        assert!(msgs.iter().any(|m| m.contains("join coverage")), "{msgs:?}");
        // Declaring both is also rejected.
        let both = CLEAN_TOML.replace(
            "join = \"stop() joins the handle after dropping the sender\"\n",
            "join = \"stop() joins the handle after dropping the sender\"\ndetach = \"also detached, somehow, which is contradictory\"\n",
        );
        let root2 = write_tree(&both, CLEAN_SRC);
        let report2 = conc_workspace(&root2, false).unwrap();
        assert!(
            report2
                .diagnostics
                .iter()
                .any(|d| d.message.contains("exactly one")),
            "{:?}",
            report2.diagnostics
        );
        std::fs::remove_dir_all(&root).unwrap();
        std::fs::remove_dir_all(&root2).unwrap();
    }

    /// Seeded mutation (d): an `Ordering::*` site with no protocol marker.
    #[test]
    fn mutation_unregistered_atomic_site_is_caught() {
        // Pad past RATIONALE_WINDOW so the demo/counter marker cannot cover
        // the sneaked site.
        let pad = "\n".repeat(RATIONALE_WINDOW + 2);
        let src = format!(
            "{CLEAN_SRC}{pad}pub fn sneak(c: &std::sync::atomic::AtomicU64) {{\n    c.store(1, std::sync::atomic::Ordering::Release);\n}}\n"
        );
        let root = write_tree(CLEAN_TOML, &src);
        let report = conc_workspace(&root, false).unwrap();
        let d = report
            .diagnostics
            .iter()
            .find(|d| d.rule == "conc-site")
            .expect("unregistered atomic must be diagnosed");
        assert!(d.message.contains("unregistered atomic site"), "{d}");
        assert!(d.message.contains("Ordering::Release"), "{d}");
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// Tautness, reverse direction: a registry entry no code line matches.
    #[test]
    fn stale_registry_entry_is_caught() {
        let toml = format!(
            "{CLEAN_TOML}\n[atomic.ghost]\nprotocol = \"demo\"\nfile = \"crates/a/src/lib.rs\"\n"
        );
        let root = write_tree(&toml, CLEAN_SRC);
        let report = conc_workspace(&root, false).unwrap();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("stale")),
            "{:?}",
            report.diagnostics
        );
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// A marker with no site under it is dangling; a marker naming an
    /// unknown protocol is rejected.
    #[test]
    fn dangling_and_unknown_markers_are_caught() {
        let src =
            format!("{CLEAN_SRC}// CONC(demo/counter): floating marker with nothing under it\n");
        let root = write_tree(CLEAN_TOML, &src);
        let report = conc_workspace(&root, false).unwrap();
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.message.contains("dangling")),
            "{:?}",
            report.diagnostics
        );
        std::fs::remove_dir_all(&root).unwrap();

        let src2 = CLEAN_SRC.replace("CONC(demo/counter)", "CONC(nope/counter)");
        let root2 = write_tree(CLEAN_TOML, &src2);
        let report2 = conc_workspace(&root2, false).unwrap();
        assert!(
            report2
                .diagnostics
                .iter()
                .any(|d| d.message.contains("unknown protocol")),
            "{:?}",
            report2.diagnostics
        );
        std::fs::remove_dir_all(&root2).unwrap();
    }

    /// `--check-docs`: the DESIGN.md section must name every protocol and
    /// site.
    #[test]
    fn check_docs_requires_every_name() {
        let root = write_tree(CLEAN_TOML, CLEAN_SRC);
        // No DESIGN.md at all:
        let report = conc_workspace(&root, true).unwrap();
        assert!(rules(&report).contains(&"conc-docs"));
        // Section present but one site missing:
        std::fs::write(
            root.join("DESIGN.md"),
            "# X\n\n## Concurrency protocols\n\ndemo: counter, state, inner, jobs\n\n## Next\n",
        )
        .unwrap();
        let report = conc_workspace(&root, true).unwrap();
        assert_eq!(report.diagnostics.len(), 1, "{:?}", report.diagnostics);
        assert!(report.diagnostics[0].message.contains("worker"));
        // Complete section: clean.
        std::fs::write(
            root.join("DESIGN.md"),
            "# X\n\n## Concurrency protocols\n\ndemo: counter, state, inner, jobs, worker\n",
        )
        .unwrap();
        let report = conc_workspace(&root, true).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        std::fs::remove_dir_all(&root).unwrap();
    }

    /// `--check-docs`, reverse direction: a protocol bullet that outlived
    /// its registry entry.
    #[test]
    fn check_docs_rejects_bullets_for_unregistered_protocols() {
        let root = write_tree(CLEAN_TOML, CLEAN_SRC);
        let design = |bullets: &str| {
            format!(
                "# X\n\n## Concurrency protocols\n\n\
                 ### Protocols and their happens-before arguments\n\n{bullets}\n\
                 ### Another subsection\n\n* **not-a-protocol** — outside the list\n\n## Next\n"
            )
        };
        let demo = "* **demo** — counter, state, inner, jobs, worker\n";
        std::fs::write(root.join("DESIGN.md"), design(demo)).unwrap();
        let report = conc_workspace(&root, true).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);

        let stale = format!("{demo}* **retired-flag** — a protocol conc.toml no longer has\n");
        std::fs::write(root.join("DESIGN.md"), design(&stale)).unwrap();
        let report = conc_workspace(&root, true).unwrap();
        assert_eq!(rules(&report), ["conc-docs"], "{:?}", report.diagnostics);
        assert!(report.diagnostics[0].message.contains("retired-flag"));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn cfg_test_regions_and_fn_defs_are_exempt() {
        let src = "\
pub fn lib() {}\n\
// A method *named* spawn is a definition, not a spawn site.\n\
impl S { pub fn spawn(&self) {} }\n\
#[cfg(test)]\n\
mod tests {\n\
    #[test]\n\
    fn t() {\n\
        let _ = std::thread::spawn(|| 1);\n\
        let (tx, rx) = std::sync::mpsc::channel::<u64>();\n\
        drop((tx, rx));\n\
    }\n\
}\n";
        // Registry with no entries at all: only non-test sites would fail.
        let toml = "[scope]\nexclude = []\n";
        let root = write_tree(toml, src);
        let report = conc_workspace(&root, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn excluded_crates_are_not_scanned() {
        let root = write_tree(CLEAN_TOML, CLEAN_SRC);
        // A second crate full of unregistered sites, excluded from scope.
        let dir = root.join("crates/wild/src");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("lib.rs"),
            "pub fn f() { let _ = std::thread::spawn(|| 1); }\n",
        )
        .unwrap();
        let toml = CLEAN_TOML.replace("exclude = []", "exclude = [\"crates/wild\"]");
        std::fs::write(root.join("conc.toml"), toml).unwrap();
        let report = conc_workspace(&root, false).unwrap();
        assert!(report.is_clean(), "{:?}", report.diagnostics);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
