//! `orv-lint` — the workspace invariant checker.
//!
//! PRs 1–3 built the resilience story (typed-error recovery, cancellable
//! 250 ms sleep slices, sealed-then-verified checksums, replayable event
//! logs); this crate turns the conventions they rely on into
//! machine-checked gates. It is a project-specific static-analysis pass:
//! a hand-rolled Rust token scanner (same pattern as the layout/query DSL
//! lexers) feeding two rule tiers, with per-site suppression comments and
//! both human and JSON-lines output.
//!
//! * **File rules** (`L003`, `L005`, `L007`) are token-pattern passes
//!   over one file at a time.
//! * **Workspace rules** (`L008`–`L010`) are structural: a brace-tree
//!   item parser ([`items`]) finds every function, a summary pass
//!   ([`summary`]) reduces each body to lock acquisitions / blocking
//!   waits / cancellation polls / calls, and an approximate call graph
//!   ([`callgraph`]) propagates those facts workspace-wide — catching
//!   lock-order cycles, unkillable waits, and dead or phantom metric
//!   names that no single-file scan can see.
//!
//! Run it locally with:
//!
//! ```text
//! cargo run --release --bin orv-lint
//! ```
//!
//! What clippy can check (no panics, bare waits, unchecksummed writes or
//! ambient clock) is clippy's: `clippy.toml` and each crate root's `deny`.
//!
//! See [`rules`] for the rule table, `DESIGN.md` §10 for the invariant
//! each rule protects, and `DESIGN.md` §15 for the structural engine and
//! its known approximations.

#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), deny(clippy::panic, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::disallowed_types))]

pub mod allowlist;
pub mod callgraph;
pub mod classify;
pub mod items;
pub mod lexer;
pub mod rules;
pub mod summary;
pub mod suppress;

pub use rules::{Diagnostic, Evidence, RULE_IDS};

use lexer::Tok;
use rules::FileCtx;
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Lint one file's source text with the **file rules only** —
/// the workspace rules (`L008`–`L010`) need the whole file set; use
/// [`lint_files`] or [`lint_workspace`] for those. `rel_path` must be
/// workspace-relative with `/` separators — rules use it for scoping
/// and allowlists.
///
/// The pipeline: scan → classify test/runtime lines → collect
/// suppressions → run rules → filter. Test code is exempt from every
/// rule; well-formed suppressions waive findings on their own and the
/// following line; malformed suppressions surface as `L000` and cannot
/// themselves be waived.
pub fn lint_source(rel_path: &str, src: &str) -> Vec<Diagnostic> {
    let toks = lexer::scan(src);
    let class = classify::classify(rel_path, &toks);
    let sup = suppress::collect(&toks);
    let ctx = FileCtx::new(rel_path, &toks);
    let mut out: Vec<Diagnostic> = rules::run_rules(&ctx)
        .into_iter()
        .filter(|d| !class.is_test(d.line))
        .filter(|d| !sup.allows(d.rule, d.line))
        .collect();
    for bad in &sup.bad {
        out.push(Diagnostic {
            file: rel_path.to_string(),
            line: bad.line,
            rule: "L000",
            message: format!("malformed suppression: {}", bad.problem),
            evidence: Vec::new(),
        });
    }
    out.sort();
    out
}

/// The canonical location of the metric-name registry; when this file is
/// in the linted set, L010 cross-checks every other file against it.
const NAMES_PATH: &str = "crates/obs/src/names.rs";

/// Lint a set of files together: the per-file rules on each, then the
/// structural workspace rules (`L008`–`L010`) across all of them. This is
/// the full engine, callable on in-memory sources (the fixture tests) as
/// well as a real tree ([`lint_workspace`]).
///
/// Workspace findings are filtered against the suppressions and
/// test-line classification of the file each finding *anchors* in, so
/// `// orv-lint: allow(L008) -- reason` works at the acquisition site a
/// cycle report points at, just like file-rule suppressions.
pub fn lint_files(files: &[(String, String)]) -> Vec<Diagnostic> {
    struct Loaded {
        rel: String,
        toks: Vec<Tok>,
        class: classify::LineClass,
        sup: suppress::Suppressions,
    }
    let loaded: Vec<Loaded> = files
        .iter()
        .map(|(rel, src)| {
            let toks = lexer::scan(src);
            let class = classify::classify(rel, &toks);
            let sup = suppress::collect(&toks);
            Loaded {
                rel: rel.clone(),
                toks,
                class,
                sup,
            }
        })
        .collect();

    let mut out: Vec<Diagnostic> = Vec::new();
    for f in &loaded {
        let ctx = FileCtx::new(&f.rel, &f.toks);
        out.extend(
            rules::run_rules(&ctx)
                .into_iter()
                .filter(|d| !f.class.is_test(d.line))
                .filter(|d| !f.sup.allows(d.rule, d.line)),
        );
        for bad in &f.sup.bad {
            out.push(Diagnostic {
                file: f.rel.clone(),
                line: bad.line,
                rule: "L000",
                message: format!("malformed suppression: {}", bad.problem),
                evidence: Vec::new(),
            });
        }
    }

    // Structural pass: summarize every runtime function, build the call
    // graph, and run the workspace rules.
    let mut fns = Vec::new();
    let mut metrics: Option<rules::MetricNames> = None;
    for f in &loaded {
        if f.class.is_all_test() {
            continue;
        }
        let code: Vec<&Tok> = f.toks.iter().filter(|t| !t.kind.is_comment()).collect();
        fns.extend(summary::summarize_file(&f.rel, &code, |l| {
            f.class.is_test(l)
        }));
        if f.rel == NAMES_PATH {
            metrics = Some(rules::MetricNames::from_names_file(&code, |l| {
                f.class.is_test(l)
            }));
        }
    }
    let ws = callgraph::Workspace::build(fns);
    let reach = callgraph::analyze(&ws);
    let mut wdiags = Vec::new();
    rules::l008_lock_order(&ws, &reach, &mut wdiags);
    rules::l009_cancellation(&ws, &reach, &mut wdiags);
    if let Some(mut metrics) = metrics {
        for f in &loaded {
            if f.rel == NAMES_PATH || f.class.is_all_test() {
                continue;
            }
            let code: Vec<&Tok> = f.toks.iter().filter(|t| !t.kind.is_comment()).collect();
            metrics.scan_usage(&f.rel, &code, |l| f.class.is_test(l));
        }
        metrics.diagnostics(NAMES_PATH, &mut wdiags);
    }

    let by_rel: BTreeMap<&str, &Loaded> = loaded.iter().map(|f| (f.rel.as_str(), f)).collect();
    out.extend(
        wdiags
            .into_iter()
            .filter(|d| match by_rel.get(d.file.as_str()) {
                Some(f) => !f.class.is_test(d.line) && !f.sup.allows(d.rule, d.line),
                None => true,
            }),
    );
    out.sort();
    out
}

/// Directories never descended into: build output, the offline stand-ins
/// for external crates (not our invariant surface), and VCS metadata.
const SKIP_DIRS: &[&str] = &["target", "local_stubs", ".git"];

/// Recursively collect every workspace `.rs` file under `root`, sorted by
/// relative path for deterministic output.
pub fn workspace_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    walk(root, &mut out)?;
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            walk(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lint the whole workspace rooted at `root` — file rules and workspace
/// rules. Findings are sorted by (file, line, rule) so output is stable
/// across runs and platforms.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    for path in workspace_files(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        let src = fs::read_to_string(&path)?;
        files.push((rel, src));
    }
    Ok(lint_files(&files))
}

/// The process exit code the driver should return for a set of findings:
/// 0 when clean, 1 when anything (including `L000`) fired.
pub fn exit_code(diags: &[Diagnostic]) -> u8 {
    u8::from(!diags.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_filters_test_code_and_suppressions() {
        let src = "\
fn runtime() {
    o.emit(\"a\", v); // orv-lint: allow(L005) -- one-off diagnostic event
    o.emit(\"b\", v);
}

#[cfg(test)]
mod tests {
    fn t() {
        o.emit(\"c\", v);
    }
}
";
        let diags = lint_source("crates/x/src/lib.rs", src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L005");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn malformed_suppression_is_l000_and_does_not_waive() {
        let src = "fn f() {\n    o.emit(\"a\", v); // orv-lint: allow(L005)\n}\n";
        let diags = lint_source("crates/x/src/lib.rs", src);
        let rules: Vec<_> = diags.iter().map(|d| d.rule).collect();
        assert!(rules.contains(&"L000"), "{diags:?}");
        assert!(
            rules.contains(&"L005"),
            "missing reason must not waive: {diags:?}"
        );
    }

    #[test]
    fn exit_codes() {
        assert_eq!(exit_code(&[]), 0);
        assert_eq!(
            exit_code(&lint_source(
                "crates/x/src/lib.rs",
                "fn f() { o.emit(\"boom\", v) }"
            )),
            1
        );
    }

    #[test]
    fn findings_sorted_by_file_line_rule() {
        let src = "fn f() {\n    o.emit(\"b\", v);\n    BdsService::for_all_nodes(d);\n}\n";
        let diags = lint_source("crates/x/src/lib.rs", src);
        let lines: Vec<_> = diags.iter().map(|d| d.line).collect();
        let mut sorted = lines.clone();
        sorted.sort_unstable();
        assert_eq!(lines, sorted);
    }
}
