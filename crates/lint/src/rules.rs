//! The workspace invariant rules.
//!
//! Every rule is a check on the per-function summaries
//! ([`crate::summary`]), the one pass that reads function bodies.
//! `L003`, `L005` and `L007` look at one function's summary at a time.
//! `L008` and `L009` follow the approximate call graph
//! ([`crate::callgraph`]), so they can see facts no single file contains
//! — a lock-order cycle split across two modules, a blocking wait three
//! calls below a loop — and `L010` checks the names registry against
//! every file. All rules are deliberately heuristic — tokens and name
//! resolution, not a typed AST — but every pattern is chosen so the
//! *sanctioned* idiom in this workspace cannot trip it, and anything it
//! does flag is either a real invariant break or a site that deserves a
//! written suppression reason.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L003 | no lock guard held across a send/sleep/file-I/O in join+cluster+query |
//! | L005 | obs event/span/latency names come from `orv-obs::names`, not literals |
//! | L007 | mechanisms written once stay single: retry loops go through `RecoveryPolicy`/`Governor`, never ad-hoc counters; sub-table reads go through `SubTableReader`, never a hand-built `BdsService` |
//! | L008 | the workspace lock-order graph is acyclic (no two-path deadlock) |
//! | L009 | every loop reaching a blocking wait also reaches a cancel/deadline check |
//! | L010 | every `orv_obs::names` constant has a runtime sink |
//!
//! `L000` is the meta-rule: malformed suppression comments (missing
//! reason, unknown rule id) are themselves findings and cannot be waived.

use crate::allowlist;
use crate::callgraph::{self, Reach, Workspace};
use crate::lexer::{Tok, TokKind};
use crate::summary::{FnSummary, Via};
use std::collections::BTreeSet;

/// Every rule id the engine knows, in report order. `L000` is the
/// suppression-hygiene meta-rule; `L003`, `L005` and `L007` are checked
/// per function; `L008`..`L010` across the workspace. The gaps are ids
/// of rules clippy enforces (DESIGN.md §10); they are not reused.
pub const RULE_IDS: &[&str] = &["L000", "L003", "L005", "L007", "L008", "L009", "L010"];

/// One step of supporting evidence for a structural finding: a source
/// location plus what it shows. L008 cycles carry one step per
/// acquisition/call on each path; L009 carries the blocking site a loop
/// reaches.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Evidence {
    pub file: String,
    pub line: usize,
    pub note: String,
}

/// One finding, pointing at a file:line.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Diagnostic {
    /// Workspace-relative path with `/` separators.
    pub file: String,
    /// 1-based source line.
    pub line: usize,
    /// Rule id (`L003`, ...).
    pub rule: &'static str,
    /// Human explanation of the finding.
    pub message: String,
    /// Supporting locations (empty for `L003`, `L005` and `L007`).
    pub evidence: Vec<Evidence>,
}

impl Diagnostic {
    /// `file:line: RULE message` — the clickable terminal form, with one
    /// indented line per evidence step.
    pub fn human(&self) -> String {
        let mut s = format!(
            "{}:{}: {} {}",
            self.file, self.line, self.rule, self.message
        );
        for ev in &self.evidence {
            s.push_str(&format!("\n    {}:{}: {}", ev.file, ev.line, ev.note));
        }
        s
    }

    /// One stable JSON object per finding (JSON-lines output). Key order
    /// is fixed so diffs and golden tests stay byte-stable; the
    /// `evidence` array is only present when non-empty, so the output of
    /// `L003`, `L005` and `L007` has no such key.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            r#"{{"rule":"{}","file":"{}","line":{},"message":"{}"#,
            self.rule,
            json_escape(&self.file),
            self.line,
            json_escape(&self.message)
        );
        s.push('"');
        if !self.evidence.is_empty() {
            s.push_str(r#","evidence":["#);
            for (i, ev) in self.evidence.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!(
                    r#"{{"file":"{}","line":{},"note":"{}"}}"#,
                    json_escape(&ev.file),
                    ev.line,
                    json_escape(&ev.note)
                ));
            }
            s.push(']');
        }
        s.push('}');
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Crates with worker pools, interconnect waits and admission queues:
/// L003, L007's retry half and L009 watch these.
const CONCURRENCY_DIRS: &[&str] = &[
    "crates/join/src/",
    "crates/cluster/src/",
    "crates/query/src/",
];

fn diag(file: &str, line: usize, rule: &'static str, message: String) -> Diagnostic {
    Diagnostic {
        file: file.to_string(),
        line,
        rule,
        message,
        evidence: Vec::new(),
    }
}

/// Run the per-function rules (`L003`, `L005`, `L007`) over every
/// summary, each in its scope; returns unfiltered findings (the engine
/// applies test-code exemption and suppressions afterwards).
pub fn check_functions(fns: &[FnSummary], out: &mut Vec<Diagnostic>) {
    for f in fns {
        let file = f.file.as_str();
        let concurrent = CONCURRENCY_DIRS.iter().any(|d| file.starts_with(d));
        if concurrent {
            l003_no_guard_across_blocking(f, out);
        }
        if !allowlist::L005_ALLOWED.contains(&file) {
            l005_obs_names_from_registry(f, out);
        }
        if concurrent && !allowlist::L007_ALLOWED.contains(&file) {
            l007_no_adhoc_retry_loops(f, out);
        }
        if !(allowlist::L007_READ_ALLOWED.contains(&file)
            || allowlist::L007_READ_ALLOWED_DIRS
                .iter()
                .any(|d| file.starts_with(d)))
        {
            l007_one_read_path(f, out);
        }
    }
}

/// L003 — in `crates/join`, `crates/cluster` and `crates/query`, a
/// `let`-bound lock guard must not stay live across a channel send or
/// recv, a sleep, or file I/O.
///
/// The GH interconnect, the IJ Caching Service and the QueryService's
/// admission queue all run under worker-shared locks; holding one
/// across a blocking call turns a slow peer into a stalled cluster.
/// Guards and hazards are the summary's; each guard is reported once,
/// at the first hazard it is held across.
fn l003_no_guard_across_blocking(f: &FnSummary, out: &mut Vec<Diagnostic>) {
    let mut reported = vec![false; f.guards.len()];
    for h in &f.held_hazards {
        let fresh: Vec<usize> = h.held.iter().copied().filter(|&g| !reported[g]).collect();
        let Some(born) = fresh.iter().map(|&g| f.guards[g].line).min() else {
            continue;
        };
        let held: Vec<&str> = fresh.iter().map(|&g| f.guards[g].name.as_str()).collect();
        for &g in &fresh {
            reported[g] = true;
        }
        out.push(diag(&f.file, h.line, "L003", format!(
            "{} while lock guard `{}` (taken line {born}) is live; drop or scope the guard first — a blocked holder stalls every peer on the interconnect",
            h.what, held.join("`, `"))));
    }
}

/// L005 — event/span/latency-metric names must be `orv_obs::names`
/// constants, not inline string literals. A typo'd literal name silently
/// breaks replay-from-log, the predicted-vs-measured phase mapping, and
/// every consumer that finds a latency histogram by its `names::LAT_*`
/// constant.
fn l005_obs_names_from_registry(f: &FnSummary, out: &mut Vec<Diagnostic>) {
    for s in &f.sink_literals {
        out.push(diag(&f.file, s.line, "L005", format!(
            "inline name literal \"{}\" passed to `{}`; use a constant or builder from `orv_obs::names` so replay and phase mapping cannot drift",
            s.literal, s.callee)));
    }
}

/// L007 — retry loops in runtime paths must be governed by
/// `RecoveryPolicy` (attempt cap + deadline + backoff) or the
/// federation's `Governor` (success-funded token draws).
///
/// An ad-hoc `loop { attempt += 1 }` has no attempt cap a chaos test can
/// assert against, no backoff, and no budget linking retry volume to
/// downstream health — under overload it is exactly the retry-storm
/// amplifier the brownout controller exists to prevent. A retry-shaped
/// loop (see [`crate::summary::LoopSummary`]) fires unless it mentions a
/// sanctioned policy/budget identifier.
fn l007_no_adhoc_retry_loops(f: &FnSummary, out: &mut Vec<Diagnostic>) {
    for lp in f.loops.iter().filter(|lp| lp.retry_shaped && !lp.governed) {
        out.push(diag(&f.file, lp.line, "L007", format!(
            "ad-hoc retry loop (`{}` counter); bound it with `RecoveryPolicy` (attempt cap + backoff) or draw from the `Governor` so chaos tests can assert total retry volume",
            lp.retry_counter.as_deref().unwrap_or("retry"))));
    }
}

/// L007 (read path) — a sub-table is fetched through
/// `orv_bds::SubTableReader`, the one function that locates the chunk's
/// home node, retries the read under the execution's `RecoveryPolicy`,
/// and accounts for it.
///
/// A runtime path that builds its own `BdsService` set, or calls
/// `subtable` on one, is a second read path: it silently drops whatever
/// the reader carries (fault injection, `bds{n}` spans, retries,
/// corruption accounting), which is how base-table scans once came to be
/// the only reads chaos never reached. `crates/bds` implements the
/// interface and the reference oracle reads below it on purpose.
fn l007_one_read_path(f: &FnSummary, out: &mut Vec<Diagnostic>) {
    for c in &f.calls {
        if matches!(&c.via, Via::Path(t) if t == "BdsService") {
            out.push(diag(&f.file, c.line, "L007",
                "`BdsService` built outside `crates/bds`; fetch through the execution's `SubTableReader` so the read is retried, injectable, traced and accounted like every other".into()));
        }
        if c.via == Via::Method && c.callee == "subtable" {
            out.push(diag(&f.file, c.line, "L007",
                "direct `BdsService::subtable` call; `SubTableReader::fetch` is the one read path (locate, retry, verify, filter, account)".into()));
        }
    }
}

// ---------------------------------------------------------------------
// Workspace rules: L008–L010 run over the whole file set at once.
// ---------------------------------------------------------------------

/// L008 — the workspace lock-order graph must be acyclic.
///
/// Two threads acquiring the same pair of locks in opposite orders is
/// the classic deadlock: each holds one and waits forever for the other,
/// and under load (PR 5's worker pool, PR 6's federation fan-out) the
/// whole service wedges. The graph has an edge A→B whenever some
/// function acquires B while holding a guard on A — directly, or by
/// calling (transitively) into a function that acquires B. Every cycle
/// is reported once, with the full acquisition chain of each path as
/// evidence.
pub fn l008_lock_order(ws: &Workspace, reach: &Reach, out: &mut Vec<Diagnostic>) {
    let edges = callgraph::lock_order_edges(ws, reach);
    for cycle in callgraph::find_cycles(&edges) {
        let keys: Vec<&str> = cycle.iter().map(|e| e.from.as_str()).collect();
        let ring = format!("{} -> {}", keys.join(" -> "), keys[0]);
        let mut evidence = Vec::new();
        for (n, e) in cycle.iter().enumerate() {
            for (file, line, note) in &e.evidence {
                evidence.push(Evidence {
                    file: file.clone(),
                    line: *line,
                    note: format!("[path {}] {}", n + 1, note),
                });
            }
        }
        let anchor = &cycle[0].evidence[0];
        out.push(Diagnostic {
            file: anchor.0.clone(),
            line: anchor.1,
            rule: "L008",
            message: format!(
                "lock-order cycle {ring}: two paths acquire these locks in opposite orders — a deadlock under concurrent load; pick one order and refactor the minority path"
            ),
            evidence,
        });
    }
}

/// L009 — every loop that reaches a blocking wait must also reach a
/// cancellation or deadline check in the same loop.
///
/// PR 3 threaded `CancelToken` through every blocking loop by hand;
/// this rule keeps refactors from quietly reintroducing an unkillable
/// wait. "Reaches" is transitive through the call graph: a loop calling
/// `drain()` which calls `recv_frame()` which parks on a condvar is just
/// as unkillable as one parking directly. A loop is compliant when its
/// body (nested loops included) mentions a cancel/deadline marker or
/// calls into code that does.
pub fn l009_cancellation(ws: &Workspace, reach: &Reach, out: &mut Vec<Diagnostic>) {
    for f in &ws.fns {
        if !CONCURRENCY_DIRS.iter().any(|d| f.file.starts_with(d)) {
            continue;
        }
        // Innermost-first: an outer loop is not re-reported when the
        // finding really lives in a nested loop it contains.
        let mut order: Vec<usize> = (0..f.loops.len()).collect();
        order.sort_by_key(|&i| f.loops[i].range.1 - f.loops[i].range.0);
        let mut fired: Vec<(usize, usize)> = Vec::new();
        for li in order {
            let lp = &f.loops[li];
            if fired
                .iter()
                .any(|&(s, e)| lp.range.0 <= s && e <= lp.range.1)
            {
                continue;
            }
            let mut evidence: Option<Evidence> = None;
            if let Some(b) = lp.blocking.first() {
                evidence = Some(Evidence {
                    file: f.file.clone(),
                    line: b.line,
                    note: format!("blocking `{}` directly in the loop body", b.what),
                });
            } else {
                'calls: for c in &lp.calls {
                    for &t in ws.resolve(&c.callee) {
                        if let Some(b) = &reach.blocks[t] {
                            let via = if b.chain.is_empty() {
                                ws.fns[t].qual.clone()
                            } else {
                                format!("{} -> {}", ws.fns[t].qual, b.chain.join(" -> "))
                            };
                            evidence = Some(Evidence {
                                file: b.file.clone(),
                                line: b.line,
                                note: format!(
                                    "loop calls `{}` (line {}), reaching blocking `{}` via {}",
                                    c.callee, c.line, b.what, via
                                ),
                            });
                            break 'calls;
                        }
                    }
                }
            }
            let Some(evidence) = evidence else { continue };
            let cancels = lp.cancel
                || lp
                    .calls
                    .iter()
                    .any(|c| ws.resolve(&c.callee).iter().any(|&t| reach.cancels[t]));
            if cancels {
                continue;
            }
            fired.push(lp.range);
            out.push(Diagnostic {
                file: f.file.clone(),
                line: lp.line,
                rule: "L009",
                message: format!(
                    "loop in `{}` reaches a blocking wait but no CancelToken/deadline check — an unkillable wait once the peer stalls; poll `cancel.check()` or bound the wait with a budget inside the loop",
                    f.qual
                ),
                evidence: vec![evidence],
            });
        }
    }
}

/// `{NAME}` identifiers interpolated into a format-string literal.
fn interpolated_names(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let bytes = s.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'{' {
            let start = i + 1;
            let mut j = start;
            while j < bytes.len() && (bytes[j].is_ascii_alphanumeric() || bytes[j] == b'_') {
                j += 1;
            }
            if j > start && bytes.get(j) == Some(&b'}') {
                out.push(s[start..j].to_string());
            }
            i = j;
        }
        i += 1;
    }
    out
}

/// What `crates/obs/src/names.rs` declares, plus every runtime use site
/// seen so far. Build with [`MetricNames::from_names_file`], feed every
/// other runtime file through [`MetricNames::scan_usage`], then collect
/// findings with [`MetricNames::diagnostics`].
pub struct MetricNames {
    /// (ident, declaration line, declared as a plain `&str` constant).
    decls: Vec<(String, usize, bool)>,
    declared: BTreeSet<String>,
    used: BTreeSet<String>,
}

impl MetricNames {
    /// Parse the declarations out of the names registry's token stream:
    /// `pub const NAME: … = …;` and `pub fn builder(…)`. A constant
    /// whose initializer is a single string literal is a *name* constant
    /// (subject to the dead-name check); aggregate constants like
    /// `LAT_ALL: &[&str]` and builder functions only join the resolution
    /// set.
    ///
    /// A constant referenced from a (non-test) builder *body* — as an
    /// identifier or interpolated into a format string, e.g.
    /// `format!("bds{node}/{PHASE_EXTRACT}")` — counts as covered: the
    /// builder is the emitting path. References from other constants'
    /// initializers (the `LAT_ALL` aggregate) deliberately do not count;
    /// being listed in an export table is not being emitted.
    pub fn from_names_file(code: &[&Tok], is_test_line: impl Fn(usize) -> bool) -> MetricNames {
        let mut decls = Vec::new();
        let ident = |i: usize| code.get(i).and_then(|t: &&Tok| t.kind.ident());
        for i in 0..code.len() {
            match ident(i) {
                Some("const") => {
                    let Some(name) = ident(i + 1) else { continue };
                    // Find `=` then check for `Str ;`.
                    let mut j = i + 2;
                    let mut is_str = false;
                    while j < code.len() {
                        match code[j].kind {
                            TokKind::Punct('=') => {
                                is_str = matches!(
                                    code.get(j + 1).map(|t| &t.kind),
                                    Some(TokKind::Str(_))
                                ) && matches!(
                                    code.get(j + 2).map(|t| &t.kind),
                                    Some(TokKind::Punct(';'))
                                );
                                break;
                            }
                            TokKind::Punct(';') => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    decls.push((name.to_string(), code[i].line, is_str));
                }
                Some("fn") => {
                    if let Some(name) = ident(i + 1) {
                        decls.push((name.to_string(), code[i].line, false));
                    }
                }
                _ => {}
            }
        }
        let declared: BTreeSet<String> = decls.iter().map(|d| d.0.clone()).collect();
        let mut used = BTreeSet::new();
        for f in crate::items::parse_fns(code) {
            if is_test_line(f.line) {
                continue;
            }
            for tok in &code[f.body.0 + 1..f.body.1] {
                match &tok.kind {
                    TokKind::Ident(id) if declared.contains(id) => {
                        used.insert(id.clone());
                    }
                    TokKind::Str(s) => {
                        for name in interpolated_names(s) {
                            if declared.contains(&name) {
                                used.insert(name);
                            }
                        }
                    }
                    _ => {}
                }
            }
        }
        MetricNames {
            decls,
            declared,
            used,
        }
    }

    /// Record every `names::X` reference in one runtime file (plus bare
    /// references inside the obs crate, which imports the constants
    /// directly). `is_test_line` excludes test code: a counter only
    /// asserted on in tests is still dead in production.
    pub fn scan_usage(
        &mut self,
        rel_path: &str,
        code: &[&Tok],
        is_test_line: impl Fn(usize) -> bool,
    ) {
        let in_obs = rel_path.starts_with("crates/obs/src/");
        for i in 0..code.len() {
            let Some(id) = code[i].kind.ident() else {
                continue;
            };
            if is_test_line(code[i].line) {
                continue;
            }
            let qualified = i >= 3
                && code[i - 1].kind == TokKind::Punct(':')
                && code[i - 2].kind == TokKind::Punct(':')
                && code[i - 3].kind.ident() == Some("names");
            if (qualified || in_obs) && self.declared.contains(id) {
                self.used.insert(id.to_string());
            }
        }
    }

    /// L010 — dead name constants.
    ///
    /// A declared-but-never-emitted counter means a dashboard or chaos
    /// assertion is silently reading zeros. Findings anchor at the
    /// declaration in `names.rs`. (An undeclared `names::X` needs no
    /// rule: rustc rejects it.)
    pub fn diagnostics(&self, names_path: &str, out: &mut Vec<Diagnostic>) {
        for (name, line, is_str) in &self.decls {
            if *is_str && !self.used.contains(name) {
                out.push(Diagnostic {
                    file: names_path.to_string(),
                    line: *line,
                    rule: "L010",
                    message: format!(
                        "metric name `{name}` is declared but never emitted from any runtime path — remove it or wire up the increment/record/observe site"
                    ),
                    evidence: Vec::new(),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn findings(path: &str, src: &str) -> Vec<Diagnostic> {
        crate::lint_source(path, src)
    }

    #[test]
    fn diagnostic_json_is_stable_and_escaped() {
        let d = Diagnostic {
            file: "a/b.rs".into(),
            line: 3,
            rule: "L003",
            message: "say \"no\"\\".into(),
            evidence: Vec::new(),
        };
        assert_eq!(
            d.to_json(),
            r#"{"rule":"L003","file":"a/b.rs","line":3,"message":"say \"no\"\\"}"#
        );
        assert_eq!(d.human(), r#"a/b.rs:3: L003 say "no"\"#);
    }

    #[test]
    fn diagnostic_json_carries_evidence_when_present() {
        let d = Diagnostic {
            file: "a/b.rs".into(),
            line: 3,
            rule: "L008",
            message: "cycle".into(),
            evidence: vec![
                Evidence {
                    file: "a/b.rs".into(),
                    line: 4,
                    note: "takes \"x\"".into(),
                },
                Evidence {
                    file: "c/d.rs".into(),
                    line: 9,
                    note: "acquires y".into(),
                },
            ],
        };
        assert_eq!(
            d.to_json(),
            r#"{"rule":"L008","file":"a/b.rs","line":3,"message":"cycle","evidence":[{"file":"a/b.rs","line":4,"note":"takes \"x\""},{"file":"c/d.rs","line":9,"note":"acquires y"}]}"#
        );
        assert!(d.human().contains("\n    a/b.rs:4: takes \"x\""));
    }

    #[test]
    fn l003_guard_scoped_out_is_clean() {
        let src = "fn f() {\n    {\n        let mut g = self.crcs.lock();\n        g.insert(1);\n    }\n    file.write_all(data);\n}\n";
        let hits = findings("crates/cluster/src/x.rs", src);
        assert!(hits.iter().all(|d| d.rule != "L003"), "{hits:?}");
    }

    #[test]
    fn l003_guard_across_send_fires() {
        let src = "fn f() {\n    let g = state.lock();\n    tx.send(msg);\n}\n";
        let hits = findings("crates/join/src/x.rs", src);
        assert_eq!(hits.iter().filter(|d| d.rule == "L003").count(), 1);
        assert!(hits[0].message.contains('g'));
    }

    #[test]
    fn l003_drop_releases_guard() {
        let src = "fn f() {\n    let g = state.lock();\n    drop(g);\n    tx.send(msg);\n}\n";
        let hits = findings("crates/join/src/x.rs", src);
        assert!(hits.iter().all(|d| d.rule != "L003"));
    }

    #[test]
    fn l003_let_with_braces_is_not_a_guard() {
        // `let x = match ... { ... .lock() ... };` must not register `x`
        // as a guard (the temporary dies inside the statement).
        let src = "fn f() {\n    let data = match kind {\n        K::M => mem.lock().get(n).cloned(),\n        K::F => { file.read_to_end(&mut buf); buf }\n    };\n}\n";
        let hits = findings("crates/cluster/src/x.rs", src);
        assert!(hits.iter().all(|d| d.rule != "L003"), "{hits:?}");
    }

    #[test]
    fn l003_watches_join_cluster_and_query_only() {
        let src = "fn f() {\n    let g = state.lock();\n    tx.send(msg);\n}\n";
        assert_eq!(
            findings("crates/query/src/x.rs", src)
                .iter()
                .filter(|d| d.rule == "L003")
                .count(),
            1,
            "the service layer's locks are watched too"
        );
        for outside in ["crates/costmodel/src/x.rs", "crates/obs/src/x.rs"] {
            assert!(findings(outside, src).iter().all(|d| d.rule != "L003"));
        }
    }

    #[test]
    fn l003_rwlock_guard_across_send_fires() {
        let src = "fn f() {\n    let cat = self.catalog.read();\n    tx.send(cat.names());\n}\n";
        let hits = findings("crates/query/src/x.rs", src);
        assert_eq!(hits.iter().filter(|d| d.rule == "L003").count(), 1);
        assert!(hits[0].message.contains("cat"));
    }

    #[test]
    fn l003_chained_rwlock_temporary_is_not_a_guard() {
        // The engine's catalog idiom: the read guard is a temporary that
        // dies at the end of the statement, so later blocking calls are
        // fine.
        let src = "fn f() {\n    let view = self.catalog.read().get(name).cloned();\n    tx.send(view);\n}\n";
        let hits = findings("crates/query/src/x.rs", src);
        assert!(hits.iter().all(|d| d.rule != "L003"), "{hits:?}");
    }

    #[test]
    fn l003_helper_acquired_guard_across_send_fires() {
        // The cache's shard idiom: guards born from the `Self::lock(..)`
        // helper (or a `relock(..)` wrapper) are guards all the same —
        // holding one across a channel send must fire.
        for src in [
            "fn f() {\n    let mut state = Self::lock(shard);\n    tx.send(state.take());\n}\n",
            "fn f() {\n    let mut queue = relock(self.queue.lock());\n    tx.send(queue.pop());\n}\n",
        ] {
            let hits = findings("crates/join/src/x.rs", src);
            assert_eq!(hits.iter().filter(|d| d.rule == "L003").count(), 1, "{src}");
        }
    }

    #[test]
    fn l003_helper_acquired_guard_dropped_before_send_is_clean() {
        let src = "fn f() {\n    let mut state = Self::lock(shard);\n    state.bump();\n    drop(state);\n    tx.send(msg);\n}\n";
        let hits = findings("crates/join/src/x.rs", src);
        assert!(hits.iter().all(|d| d.rule != "L003"), "{hits:?}");
    }

    #[test]
    fn l003_covers_the_federation_router() {
        // The federation router lives in `crates/query/src`, so the
        // no-guard-across-blocking invariant binds it like the rest of
        // the serving layer: holding the breaker-state lock across a
        // sub-query send must fire.
        let src = "fn f() {\n    let state = self.health.lock();\n    tx.send(spec);\n}\n";
        let hits = findings("crates/query/src/federation.rs", src);
        assert_eq!(hits.iter().filter(|d| d.rule == "L003").count(), 1);
        assert!(hits[0].message.contains("state"));
        // The router's actual idiom — drop the guard before dispatching —
        // stays clean.
        let ok = "fn f() {\n    let state = self.health.lock();\n    drop(state);\n    tx.send(spec);\n}\n";
        let clean = findings("crates/query/src/federation.rs", ok);
        assert!(clean.iter().all(|d| d.rule != "L003"), "{clean:?}");
    }

    #[test]
    fn l005_covers_the_federation_router() {
        // Federation counters and spans must come from the names
        // registry, not string literals, so dashboards and tests can't
        // drift from the emitting site.
        let hit = findings(
            "crates/query/src/federation.rs",
            "fn f() { obs.events.emit(\"fed_hedge\", || vec![(\"shard\", s)]); }",
        );
        assert_eq!(hit.iter().filter(|d| d.rule == "L005").count(), 1);
        let clean = findings(
            "crates/query/src/federation.rs",
            "fn f() { obs.events.emit(names::FED_HEDGES, || vec![(\"shard\", s)]); }",
        );
        assert!(clean.iter().all(|d| d.rule != "L005"), "{clean:?}");
    }

    #[test]
    fn l005_first_arg_literal_fires_but_payload_does_not() {
        let hit = findings(
            "crates/query/src/engine.rs",
            "fn f() { obs.events.emit(\"qes_choice\", || vec![(\"algorithm\", x)]); }",
        );
        assert_eq!(hit.iter().filter(|d| d.rule == "L005").count(), 1);
        let clean = findings(
            "crates/query/src/engine.rs",
            "fn f() { obs.events.emit(names::QES_CHOICE, || vec![(\"algorithm\", x)]); }",
        );
        assert!(clean.iter().all(|d| d.rule != "L005"), "{clean:?}");
    }

    #[test]
    fn l005_span_with_format_literal_fires() {
        let hit = findings(
            "crates/bds/src/service.rs",
            "fn f() { spans.span_with(|| format!(\"bds{}/read\", n)); }",
        );
        assert_eq!(hit.iter().filter(|d| d.rule == "L005").count(), 1);
        let clean = findings(
            "crates/bds/src/service.rs",
            "fn f() { spans.span_with(|| names::span_bds_read(n)); }",
        );
        assert!(clean.iter().all(|d| d.rule != "L005"));
    }

    #[test]
    fn l005_record_latency_literal_fires() {
        // Consumers look a latency histogram up by its `names::LAT_*`
        // constant; a literal name here records samples they never find.
        let hit = findings(
            "crates/query/src/service.rs",
            "fn f() { obs.metrics.record_latency(\"lat/exec_secs\", secs); }",
        );
        assert_eq!(hit.iter().filter(|d| d.rule == "L005").count(), 1);
        let clean = findings(
            "crates/query/src/service.rs",
            "fn f() { obs.metrics.record_latency(names::LAT_EXEC, secs); }",
        );
        assert!(clean.iter().all(|d| d.rule != "L005"), "{clean:?}");
    }

    #[test]
    fn l007_adhoc_for_attempt_loop_fires() {
        let src = "fn f() {\n    for attempt in 0..3 {\n        if send(attempt).is_ok() { return Ok(()); }\n    }\n    Err(e)\n}\n";
        let hits = findings("crates/query/src/x.rs", src);
        assert_eq!(hits.iter().filter(|d| d.rule == "L007").count(), 1);
        assert!(hits[0].message.contains("attempt"), "{hits:?}");
    }

    #[test]
    fn l007_adhoc_while_and_loop_counters_fire() {
        let wh = "fn f() {\n    let mut retries = 0;\n    while retries < 5 {\n        retries += 1;\n    }\n}\n";
        assert_eq!(
            findings("crates/cluster/src/x.rs", wh)
                .iter()
                .filter(|d| d.rule == "L007")
                .count(),
            1
        );
        let lp = "fn f() {\n    let mut tries = 0u32;\n    loop {\n        if go().is_ok() { break; }\n        tries += 1;\n    }\n}\n";
        assert_eq!(
            findings("crates/join/src/x.rs", lp)
                .iter()
                .filter(|d| d.rule == "L007")
                .count(),
            1
        );
    }

    #[test]
    fn l007_policy_governed_loops_are_clean() {
        // The federation idiom: the attempt cap comes from the policy.
        let for_src = "fn f(&self) {\n    for attempt in 0..self.cfg.recovery.max_attempts {\n        self.cancel.sleep(self.cfg.recovery.backoff(attempt));\n    }\n}\n";
        assert!(findings("crates/query/src/federation.rs", for_src)
            .iter()
            .all(|d| d.rule != "L007"));
        // The attempt as a closure under the policy's own loop: no
        // counter, no loop, nothing to flag.
        let closure_src = "fn f() -> Result<u64> {\n    let (written, retries) = policy.run_cancellable(cancel, || injector.before_scratch_write(stream));\n    written?;\n    Ok(retries)\n}\n";
        assert!(findings("crates/join/src/grace.rs", closure_src)
            .iter()
            .all(|d| d.rule != "L007"));
        // Re-issue loops that draw from the governor are sanctioned too.
        let budget_src = "fn f() {\n    let mut retries = 0u64;\n    loop {\n        if !governor.reissue(shard) { return Err(e); }\n        retries += 1;\n    }\n}\n";
        assert!(findings("crates/query/src/federation.rs", budget_src)
            .iter()
            .all(|d| d.rule != "L007"));
    }

    #[test]
    fn l007_open_coded_policy_loop_fires() {
        // What `grace.rs` used to do three times: a hand-written loop that
        // borrows the policy's helpers. It is a copy of `run_cancellable`.
        let loop_src = "fn f() {\n    let mut retries = 0u64;\n    loop {\n        if policy.attempts_exhausted(retries) { return Err(e); }\n        cancel.sleep(policy.backoff(retries as u32))?;\n        retries += 1;\n    }\n}\n";
        for path in [
            "crates/join/src/grace.rs",
            "crates/cluster/src/runtime.rs",
            "crates/query/src/service.rs",
        ] {
            let hits = findings(path, loop_src);
            assert_eq!(
                hits.iter().filter(|d| d.rule == "L007").count(),
                1,
                "{path}: {hits:?}"
            );
        }
    }

    #[test]
    fn l007_scoped_to_runtime_crates_and_policy_impls() {
        let src = "fn f() {\n    for attempt in 0..3 {\n        go(attempt);\n    }\n}\n";
        assert!(findings("crates/bench/src/x.rs", src)
            .iter()
            .all(|d| d.rule != "L007"));
        // The machinery's own files are the policy; their internal loops
        // are exempt.
        assert!(findings("crates/cluster/src/fault.rs", src)
            .iter()
            .all(|d| d.rule != "L007"));
    }

    #[test]
    fn l007_ordinary_loops_never_fire() {
        let src = "fn f() {\n    for chunk in chunks {\n        go(chunk);\n    }\n    loop {\n        count += 1;\n        if count > 3 { break; }\n    }\n}\n";
        assert!(findings("crates/query/src/x.rs", src)
            .iter()
            .all(|d| d.rule != "L007"));
    }

    #[test]
    fn allowlisted_files_skip_their_rule() {
        let literal = "fn f() { o.events.emit(\"qes_choice\", Vec::new); }";
        assert!(findings("crates/obs/src/names.rs", literal)
            .iter()
            .all(|d| d.rule != "L005"));
        assert_eq!(
            findings("crates/join/src/grace.rs", literal)
                .iter()
                .filter(|d| d.rule == "L005")
                .count(),
            1
        );

        let read = "fn f(d: &Deployment) { let s = BdsService::for_all_nodes(d); }";
        assert!(findings("crates/join/src/reference.rs", read)
            .iter()
            .all(|d| d.rule != "L007"));
        assert_eq!(
            findings("crates/join/src/grace.rs", read)
                .iter()
                .filter(|d| d.rule == "L007")
                .count(),
            1
        );
    }
}
