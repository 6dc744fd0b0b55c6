//! The workspace invariant rules.
//!
//! Rules come in two shapes. `L003`, `L005` and `L007` are **file
//! rules**: token-pattern passes over the comment-free token stream of
//! one file.
//! `L008`–`L010` are **workspace rules**: they run over per-function
//! summaries ([`crate::summary`]) propagated through the approximate
//! call graph ([`crate::callgraph`]), so they can see facts no single
//! file contains — a lock-order cycle split across two modules, a
//! blocking wait three calls below a loop, a metric constant nobody
//! increments. All rules are deliberately heuristic — tokens and name
//! resolution, not a typed AST — but every pattern is chosen so the
//! *sanctioned* idiom in this workspace cannot trip it, and anything it
//! does flag is either a real invariant break or a site that deserves a
//! written suppression reason.
//!
//! | Rule | Invariant |
//! |------|-----------|
//! | L003 | no lock guard held across a send/sleep/file-I/O in join+cluster+query |
//! | L005 | obs event/span/latency names come from `orv-obs::names`, not literals |
//! | L007 | mechanisms written once stay single: retry loops go through `RecoveryPolicy`/`RetryBudget`, never ad-hoc counters; sub-table reads go through `SubTableReader`, never a hand-built `BdsService` |
//! | L008 | the workspace lock-order graph is acyclic (no two-path deadlock) |
//! | L009 | every loop reaching a blocking wait also reaches a cancel/deadline check |
//! | L010 | every `orv_obs::names` constant has a runtime sink; every sink name is declared |
//!
//! `L000` is the meta-rule: malformed suppression comments (missing
//! reason, unknown rule id) are themselves findings and cannot be waived.

use crate::allowlist;
use crate::callgraph::{self, Reach, Workspace};
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeSet;

/// Every rule id the engine knows, in report order. `L000` is the
/// suppression-hygiene meta-rule; `L003`, `L005` and `L007` are the
/// per-file invariants; `L008`..`L010` are the whole-workspace structural
/// rules. The gaps are ids of rules clippy enforces (DESIGN.md §10);
/// they are not reused.
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
    /// Supporting locations (empty for the per-file token rules).
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
    /// `evidence` array is only present when non-empty, so the per-file
    /// rules' output is unchanged from PR 4.
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

/// A comment-free view of one file's tokens plus its path, handed to each
/// rule pass.
pub struct FileCtx<'a> {
    /// Workspace-relative path, `/`-separated.
    pub rel_path: &'a str,
    /// Tokens with comments stripped.
    pub code: Vec<&'a Tok>,
}

impl<'a> FileCtx<'a> {
    /// Build the comment-free view.
    pub fn new(rel_path: &'a str, toks: &'a [Tok]) -> Self {
        FileCtx {
            rel_path,
            code: toks.iter().filter(|t| !t.kind.is_comment()).collect(),
        }
    }

    fn ident_at(&self, i: usize, name: &str) -> bool {
        self.code
            .get(i)
            .is_some_and(|t| t.kind.ident() == Some(name))
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.code
            .get(i)
            .is_some_and(|t| t.kind == TokKind::Punct(c))
    }

    /// Does `path::seg` (two colons) start at `i`?
    fn path_sep_at(&self, i: usize) -> bool {
        self.punct_at(i, ':') && self.punct_at(i + 1, ':')
    }

    fn in_dir(&self, prefix: &str) -> bool {
        self.rel_path.starts_with(prefix)
    }
}

/// Run every rule over one file; returns unfiltered findings (the engine
/// applies test-code exemption and suppressions afterwards).
pub fn run_rules(ctx: &FileCtx<'_>) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    l003_no_guard_across_blocking(ctx, &mut out);
    l005_obs_names_from_registry(ctx, &mut out);
    l007_no_adhoc_retry_loops(ctx, &mut out);
    l007_one_read_path(ctx, &mut out);
    out
}

fn push(
    out: &mut Vec<Diagnostic>,
    ctx: &FileCtx<'_>,
    line: usize,
    rule: &'static str,
    message: String,
) {
    out.push(Diagnostic {
        file: ctx.rel_path.to_string(),
        line,
        rule,
        message,
        evidence: Vec::new(),
    });
}

/// L003 — in `crates/join`, `crates/cluster` and `crates/query`, a
/// `let`-bound lock guard must not stay live across a channel send, a
/// sleep, or file I/O.
///
/// The GH interconnect, the IJ Caching Service and the QueryService's
/// admission queue all run under worker-shared locks; holding one
/// across a blocking call turns a slow peer into a stalled cluster.
/// Heuristic: a guard is born at
/// `let [mut] NAME = <brace-free expr containing .lock()>;`, at the
/// same form over a lock helper — `relock(..)` or a path-qualified
/// `Self::lock(..)` / `Mutex::lock(..)`, the sharded cache's idiom —
/// or at a statement-final `.read();` / `.write();` (the RwLock
/// catalog pattern — chained temporaries like `.read().get(n)
/// .cloned();` die inside their own statement and are not guards),
/// and dies at `drop(NAME)` or when its enclosing brace scope closes.
fn l003_no_guard_across_blocking(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !(ctx.in_dir("crates/join/src/")
        || ctx.in_dir("crates/cluster/src/")
        || ctx.in_dir("crates/query/src/"))
    {
        return;
    }
    struct Guard {
        name: String,
        depth: usize,
        line: usize,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < ctx.code.len() {
        match &ctx.code[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokKind::Ident(kw) if kw == "let" => {
                // Brace-free statement lookahead for a `.lock()` call.
                let mut j = i + 1;
                let mut name = None;
                if ctx.ident_at(j, "mut") {
                    j += 1;
                }
                if let Some(TokKind::Ident(n)) = ctx.code.get(j).map(|t| &t.kind) {
                    name = Some(n.clone());
                }
                let mut k = i + 1;
                let mut has_lock = false;
                while k < ctx.code.len() {
                    match ctx.code[k].kind {
                        TokKind::Punct(';') | TokKind::Punct('{') => break,
                        TokKind::Punct('.')
                            if ctx.ident_at(k + 1, "lock")
                                && ctx.punct_at(k + 2, '(')
                                && ctx.punct_at(k + 3, ')') =>
                        {
                            has_lock = true;
                        }
                        // RwLock guards: only the statement-final
                        // `.read();` / `.write();` binds one — a chained
                        // `.read().get(..)` is a temporary that dies
                        // inside the statement.
                        TokKind::Punct('.')
                            if (ctx.ident_at(k + 1, "read") || ctx.ident_at(k + 1, "write"))
                                && ctx.punct_at(k + 2, '(')
                                && ctx.punct_at(k + 3, ')')
                                && ctx.punct_at(k + 4, ';') =>
                        {
                            has_lock = true;
                        }
                        // Helper-acquired guards: `relock(..)` (the
                        // poison-stripping wrapper) and path-qualified
                        // `Self::lock(shard)` / `Mutex::lock(&m)` bind a
                        // guard just like a method-form `.lock()` does.
                        TokKind::Ident(ref h) if h == "relock" && ctx.punct_at(k + 1, '(') => {
                            has_lock = true;
                        }
                        TokKind::Ident(ref h)
                            if h == "lock"
                                && ctx.punct_at(k + 1, '(')
                                && k >= 2
                                && ctx.punct_at(k - 1, ':')
                                && ctx.punct_at(k - 2, ':') =>
                        {
                            has_lock = true;
                        }
                        _ => {}
                    }
                    k += 1;
                }
                if let (true, Some(name)) = (has_lock, name) {
                    guards.push(Guard {
                        name,
                        depth,
                        line: ctx.code[i].line,
                    });
                }
                i = k;
                continue;
            }
            TokKind::Ident(kw) if kw == "drop" && ctx.punct_at(i + 1, '(') => {
                if let Some(TokKind::Ident(n)) = ctx.code.get(i + 2).map(|t| &t.kind) {
                    guards.retain(|g| &g.name != n);
                }
            }
            _ => {}
        }
        if !guards.is_empty() {
            let hazard = blocking_hazard(ctx, i);
            if let Some(what) = hazard {
                let held: Vec<&str> = guards.iter().map(|g| g.name.as_str()).collect();
                let born = guards
                    .iter()
                    .map(|g| g.line)
                    .min()
                    .unwrap_or(ctx.code[i].line);
                push(out, ctx, ctx.code[i].line, "L003", format!(
                    "{what} while lock guard `{}` (taken line {born}) is live; drop or scope the guard first — a blocked holder stalls every peer on the interconnect",
                    held.join("`, `")));
                // One finding per hazard site is enough; clear to avoid
                // cascading duplicates for the same held guard.
                guards.clear();
            }
        }
        i += 1;
    }
}

/// Is the token at `i` the start of a blocking call (send, sleep, file
/// I/O)? Returns a short description when it is.
fn blocking_hazard(ctx: &FileCtx<'_>, i: usize) -> Option<&'static str> {
    if ctx.punct_at(i, '.') && ctx.punct_at(i + 2, '(') {
        match ctx.code.get(i + 1).and_then(|t| t.kind.ident()) {
            Some("send") => return Some("channel `send`"),
            Some("recv") => return Some("channel `recv`"),
            Some("sleep") => return Some("`sleep`"),
            Some("write_all") | Some("read_to_end") | Some("sync_all") | Some("read_exact") => {
                return Some("file I/O")
            }
            _ => {}
        }
    }
    if ctx.ident_at(i, "sleep") && ctx.punct_at(i + 1, '(') && !ctx.punct_at(i.wrapping_sub(1), '.')
    {
        return Some("`sleep`");
    }
    if (ctx.ident_at(i, "File") || ctx.ident_at(i, "OpenOptions")) && ctx.path_sep_at(i + 1) {
        return Some("file I/O");
    }
    if ctx.ident_at(i, "fs") && ctx.path_sep_at(i + 1) {
        return Some("file I/O");
    }
    None
}

/// Obs call sites whose *first argument* is the event/span/metric name.
const L005_SINKS: &[&str] = &[
    "emit",
    "span",
    "span_with",
    "events_of_kind",
    "record_latency",
];

/// L005 — event/span/latency-metric names must be `orv_obs::names`
/// constants, not inline string literals. A typo'd literal name silently
/// breaks replay-from-log, the predicted-vs-measured phase mapping, and
/// every consumer that finds a latency histogram by its `names::LAT_*`
/// constant.
fn l005_obs_names_from_registry(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if allowlist::L005_ALLOWED.contains(&ctx.rel_path) {
        return;
    }
    for i in 0..ctx.code.len() {
        if !ctx.punct_at(i, '.') || !ctx.punct_at(i + 2, '(') {
            continue;
        }
        let Some(callee) = ctx.code.get(i + 1).and_then(|t| t.kind.ident()) else {
            continue;
        };
        if !L005_SINKS.contains(&callee) {
            continue;
        }
        // Scan the first argument: from after `(` to the first top-level
        // `,` or the matching `)`.
        let mut depth = 0usize;
        let mut j = i + 3;
        while j < ctx.code.len() {
            match ctx.code[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    if depth == 0 {
                        break;
                    }
                    depth -= 1;
                }
                TokKind::Punct(',') if depth == 0 => break,
                TokKind::Str(ref s) => {
                    push(out, ctx, ctx.code[j].line, "L005", format!(
                        "inline name literal \"{s}\" passed to `{callee}`; use a constant or builder from `orv_obs::names` so replay and phase mapping cannot drift"));
                    break;
                }
                _ => {}
            }
            j += 1;
        }
    }
}

/// Loop-counter names that mark a loop as a retry loop.
const L007_RETRY_IDENTS: &[&str] = &["attempt", "attempts", "retry", "retries", "tries"];

/// Identifiers whose presence in the loop (header or body) shows the
/// retry is governed: the policy/budget types themselves, the policy's
/// attempt cap, or a budget draw. Merely *calling* the policy's helpers
/// (`backoff`, an exhaustion test) from a hand-written loop is not
/// governance — that loop is a second copy of
/// `RecoveryPolicy::run_cancellable`; pass the attempt to it as a closure.
const L007_SANCTIONED: &[&str] = &[
    "RecoveryPolicy",
    "RetryBudget",
    "max_attempts",
    "try_draw",
    "run_with_retries",
];

/// L007 — retry loops in runtime paths must be governed by
/// [`RecoveryPolicy`] (attempt cap + deadline + backoff) or a
/// [`RetryBudget`] (success-funded token draws).
///
/// An ad-hoc `loop { attempt += 1 }` has no attempt cap a chaos test can
/// assert against, no backoff, and no budget linking retry volume to
/// downstream health — under overload it is exactly the retry-storm
/// amplifier the brownout controller exists to prevent. Heuristic: a
/// `for`/`while` loop whose header names a retry counter, or a `loop`
/// whose body increments one, fires unless the loop mentions a sanctioned
/// policy/budget identifier.
fn l007_no_adhoc_retry_loops(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if !(ctx.in_dir("crates/join/src/")
        || ctx.in_dir("crates/cluster/src/")
        || ctx.in_dir("crates/query/src/"))
        || allowlist::L007_ALLOWED.contains(&ctx.rel_path)
    {
        return;
    }
    let is_retry_ident = |i: usize| {
        ctx.code
            .get(i)
            .and_then(|t| t.kind.ident())
            .is_some_and(|n| L007_RETRY_IDENTS.contains(&n))
    };
    let is_sanctioned = |i: usize| {
        ctx.code
            .get(i)
            .and_then(|t| t.kind.ident())
            .is_some_and(|n| L007_SANCTIONED.contains(&n))
    };
    // Index of the matching `}` for the `{` at `open` (saturates at EOF).
    let close_of = |open: usize| {
        let mut depth = 0usize;
        let mut j = open;
        while j < ctx.code.len() {
            match ctx.code[j].kind {
                TokKind::Punct('{') => depth += 1,
                TokKind::Punct('}') => {
                    depth -= 1;
                    if depth == 0 {
                        return j;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        ctx.code.len()
    };
    let mut i = 0usize;
    while i < ctx.code.len() {
        let kw = ctx.code[i].kind.ident();
        let retry_shaped = match kw {
            // `for attempt in ...` / `while retries < N`: the header
            // names the counter.
            Some("for") | Some("while") => {
                let open = (i + 1..ctx.code.len())
                    .find(|&j| ctx.punct_at(j, '{'))
                    .unwrap_or(ctx.code.len());
                (i + 1..open).any(is_retry_ident).then_some(open)
            }
            // Bare `loop` with a counter increment (`retries += 1`) in
            // the body.
            Some("loop") if ctx.punct_at(i + 1, '{') => {
                let open = i + 1;
                let close = close_of(open);
                (open..close)
                    .any(|j| {
                        is_retry_ident(j) && ctx.punct_at(j + 1, '+') && ctx.punct_at(j + 2, '=')
                    })
                    .then_some(open)
            }
            _ => None,
        };
        if let Some(open) = retry_shaped {
            let close = close_of(open);
            if !(i..close).any(is_sanctioned) {
                push(out, ctx, ctx.code[i].line, "L007", format!(
                    "ad-hoc retry loop (`{}` counter); bound it with `RecoveryPolicy` (attempt cap + backoff) or draw from a `RetryBudget` so chaos tests can assert total retry volume",
                    (i..close)
                        .find_map(|j| ctx.code.get(j).and_then(|t| t.kind.ident())
                            .filter(|n| L007_RETRY_IDENTS.contains(n)))
                        .unwrap_or("retry")));
            }
            // Skip the header; the body may contain nested loops worth
            // their own scan.
            i = open + 1;
            continue;
        }
        i += 1;
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
fn l007_one_read_path(ctx: &FileCtx<'_>, out: &mut Vec<Diagnostic>) {
    if allowlist::L007_READ_ALLOWED.contains(&ctx.rel_path)
        || allowlist::L007_READ_ALLOWED_DIRS
            .iter()
            .any(|d| ctx.in_dir(d))
    {
        return;
    }
    for i in 0..ctx.code.len() {
        let line = ctx.code[i].line;
        if ctx.ident_at(i, "BdsService") && ctx.path_sep_at(i + 1) {
            push(out, ctx, line, "L007",
                "`BdsService` built outside `crates/bds`; fetch through the execution's `SubTableReader` so the read is retried, injectable, traced and accounted like every other".into());
        }
        if ctx.punct_at(i, '.') && ctx.ident_at(i + 1, "subtable") && ctx.punct_at(i + 2, '(') {
            push(out, ctx, line, "L007",
                "direct `BdsService::subtable` call; `SubTableReader::fetch` is the one read path (locate, retry, verify, filter, account)".into());
        }
    }
}

// ---------------------------------------------------------------------
// Workspace rules: L008–L010 run over the whole file set at once.
// ---------------------------------------------------------------------

/// Crates whose runtime loops L009 watches — the ones with worker pools,
/// interconnect waits and admission queues. (Same scope as L003/L007.)
const L009_DIRS: &[&str] = &[
    "crates/join/src/",
    "crates/cluster/src/",
    "crates/query/src/",
];

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
        if !L009_DIRS.iter().any(|d| f.file.starts_with(d)) {
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
    /// `names::X` references whose `X` is not declared: (file, line, X).
    phantoms: Vec<(String, usize, String)>,
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
            phantoms: Vec::new(),
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
            if qualified {
                if self.declared.contains(id) {
                    self.used.insert(id.to_string());
                } else {
                    self.phantoms
                        .push((rel_path.to_string(), code[i].line, id.to_string()));
                }
            } else if in_obs && self.declared.contains(id) {
                self.used.insert(id.to_string());
            }
        }
    }

    /// L010 — dead name constants and phantom `names::` references.
    ///
    /// A declared-but-never-emitted counter means a dashboard or chaos
    /// assertion is silently reading zeros; an undeclared name at a sink
    /// would never be found by the exporters that walk the registry.
    /// Dead-name findings anchor at the declaration in `names.rs`;
    /// phantom findings anchor at the use site.
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
        for (file, line, name) in &self.phantoms {
            out.push(Diagnostic {
                file: file.clone(),
                line: *line,
                rule: "L010",
                message: format!(
                    "`names::{name}` does not resolve to a declared constant/builder in orv_obs::names — exporters walking the registry will never see it"
                ),
                evidence: Vec::new(),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn findings(path: &str, src: &str) -> Vec<Diagnostic> {
        let toks = scan(src);
        run_rules(&FileCtx::new(path, &toks))
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
        // Budget-drawn re-issue loops are sanctioned too.
        let budget_src = "fn f() {\n    let mut retries = 0u64;\n    loop {\n        if !budget.try_draw() { return Err(e); }\n        retries += 1;\n    }\n}\n";
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
        assert!(findings("crates/cluster/src/retry_budget.rs", src)
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
