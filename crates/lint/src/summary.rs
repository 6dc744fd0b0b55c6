//! Per-function summaries: everything the rules know about a function.
//!
//! [`crate::items`] finds the functions; this pass reads each body once,
//! left to right, and reduces it to the facts the rules check;
//! [`crate::callgraph`] propagates the cross-function ones along the
//! (approximate) call graph. It is the only code that decides what counts
//! as a guard, a loop or a call. Facts collected per function:
//!
//! * **Lock acquisitions** — every zero-argument `.lock()` / `.read()` /
//!   `.write()` call, keyed by `crate/receiver` (e.g. `query/catalog`).
//!   Receiver extraction walks back over `?` and balanced `(..)`/`[..]`
//!   groups, so `relock(self.queue.lock())` keys as `query/queue`. A call
//!   to a helper of the same file whose signature returns a guard takes
//!   the helper's lock (`Self::lock(shard)` → `join/state`); a
//!   path-qualified `T::lock(x)` with no such helper takes `x`'s
//!   (`Mutex::lock(&m)` → `m`).
//! * **Guards** — a `let` binds one when its statement ends in `;` right
//!   after an acquisition and pure unwrapping (`)` / `?`):
//!   `let g = relock(self.q.lock());` binds, while chained temporaries
//!   like `let n = m.lock().len();` die inside their own statement. A
//!   guard dies at `drop(name)` or when its scope closes.
//! * **Held edges, calls and hazards** — a lock acquired, a call made, or
//!   a send / recv / sleep / file I/O reached while a guard is live.
//! * **Calls** — every `name(`, with how it names its callee ([`Via`]).
//! * **Blocking waits** — `recv` / `wait` / `wait_timeout` / `park` /
//!   `sleep` call sites.
//! * **Cancellation markers** — identifiers that show the surrounding
//!   loop observes a `CancelToken`, a deadline, or a shutdown flag.
//! * **Sink literals** — a string literal in the first argument of an obs
//!   name sink (`emit`, `span`, …).
//! * **Loops** — header line plus the body's blocking/cancel/call facts
//!   and its retry shape.

use crate::items::{self, FnItem};
use crate::lexer::{Tok, TokKind};
use std::collections::BTreeMap;

/// One lock acquisition site.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LockSite {
    /// `crate/receiver` key, e.g. `query/catalog`. Two locks reached
    /// through same-named receivers in the same crate alias to one key —
    /// a documented imprecision (DESIGN.md §15).
    pub key: String,
    /// 1-based acquisition line.
    pub line: usize,
}

/// Lock `to` acquired while a guard on `from` was live, in one function.
#[derive(Clone, Debug)]
pub struct HeldEdge {
    pub from: LockSite,
    pub to: LockSite,
}

/// A call made while a guard was live.
#[derive(Clone, Debug)]
pub struct HeldCall {
    pub held: LockSite,
    pub callee: String,
    pub line: usize,
}

/// How a call site names its callee.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Via {
    /// `f(..)`.
    Free,
    /// `x.f(..)`.
    Method,
    /// `T::f(..)`, carrying `T`.
    Path(String),
}

/// One call site (by bare callee name).
#[derive(Clone, Debug)]
pub struct CallSite {
    pub callee: String,
    pub line: usize,
    pub via: Via,
}

/// One blocking-wait site.
#[derive(Clone, Debug)]
pub struct BlockSite {
    /// The blocking callee (`recv`, `wait`, ...).
    pub what: String,
    pub line: usize,
}

/// A `let` that bound a lock guard.
#[derive(Clone, Debug)]
pub struct GuardBinding {
    pub name: String,
    /// 1-based line of the `let`.
    pub line: usize,
}

/// A send, recv, sleep or file-I/O call reached while guards were live.
#[derive(Clone, Debug)]
pub struct HeldHazard {
    /// What blocks, e.g. "channel `send`".
    pub what: &'static str,
    pub line: usize,
    /// The live guards, as indices into [`FnSummary::guards`].
    pub held: Vec<usize>,
}

/// A string literal in the first argument of an obs name sink.
#[derive(Clone, Debug)]
pub struct SinkLiteral {
    pub callee: String,
    pub literal: String,
    pub line: usize,
}

/// One loop inside a function.
#[derive(Clone, Debug, Default)]
pub struct LoopSummary {
    /// 1-based line of the `loop`/`while`/`for` keyword.
    pub line: usize,
    /// Token-index range (keyword ..= closing brace) — used to detect
    /// loop nesting.
    pub range: (usize, usize),
    /// Blocking waits directly inside the loop (header included).
    pub blocking: Vec<BlockSite>,
    /// Does the loop directly mention a cancellation/deadline marker?
    pub cancel: bool,
    /// Calls made inside the loop.
    pub calls: Vec<CallSite>,
    /// A `for`/`while` header naming a retry counter, or a `loop` body
    /// incrementing one (`retries += 1`).
    pub retry_shaped: bool,
    /// The first retry counter named anywhere in the loop.
    pub retry_counter: Option<String>,
    /// Does the loop mention the retry policy or a budget draw?
    pub governed: bool,
}

/// Everything the rules need to know about one function.
#[derive(Clone, Debug, Default)]
pub struct FnSummary {
    /// Workspace-relative file path.
    pub file: String,
    /// Bare name (call-graph key) and human label.
    pub name: String,
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub acquires: Vec<LockSite>,
    pub guards: Vec<GuardBinding>,
    pub held_edges: Vec<HeldEdge>,
    pub held_calls: Vec<HeldCall>,
    pub held_hazards: Vec<HeldHazard>,
    pub calls: Vec<CallSite>,
    pub blocking: Vec<BlockSite>,
    /// Any direct cancellation/deadline marker in the body.
    pub cancel: bool,
    pub sink_literals: Vec<SinkLiteral>,
    pub loops: Vec<LoopSummary>,
}

/// Methods whose zero-argument call acquires a lock guard.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Callees that block the calling thread until an external event.
const BLOCKING: &[&str] = &["recv", "wait", "wait_timeout", "park", "sleep"];

/// Method calls that must not run under a guard, and what they are.
const HAZARDS: &[(&str, &str)] = &[
    ("send", "channel `send`"),
    ("recv", "channel `recv`"),
    ("sleep", "`sleep`"),
    ("write_all", "file I/O"),
    ("read_to_end", "file I/O"),
    ("sync_all", "file I/O"),
    ("read_exact", "file I/O"),
];

/// Identifiers that show cancellation/deadline/shutdown is observed.
/// `sleep` is both: the only sanctioned `.sleep` is `CancelToken::sleep`
/// (clippy.toml bans `thread::sleep`), which returns `Err(Cancelled)`
/// between 250 ms slices.
const CANCEL_MARKERS: &[&str] = &[
    "check",
    "is_cancelled",
    "sleep",
    "wait_cancellable",
    "run_cancellable",
    "expired",
    "remaining",
    "hard_deadline",
    "shutdown",
];

/// Obs methods whose *first argument* is the event/span/metric name;
/// `phase` is the traced-query lifecycle's (and `Obs`'s) timed phase,
/// named by its `lat/*` histogram.
const NAME_SINKS: &[&str] = &[
    "emit",
    "span",
    "span_with",
    "events_of_kind",
    "record_latency",
    "phase",
];

/// Loop-counter names that mark a loop as a retry loop.
const RETRY_COUNTERS: &[&str] = &["attempt", "attempts", "retry", "retries", "tries"];

/// Identifiers whose presence in a loop (header or body) shows the retry
/// is governed: the policy type or the federation's re-issue `Governor`,
/// the policy's attempt cap, or the governor's token draw. Merely *calling* the policy's helpers
/// (`backoff`, an exhaustion test) from a hand-written loop is not
/// governance — that loop is a second copy of
/// `RecoveryPolicy::run_cancellable`; pass the attempt to it as a closure.
const RETRY_GOVERNORS: &[&str] = &[
    "RecoveryPolicy",
    "Governor",
    "max_attempts",
    "reissue",
    "run_with_retries",
];

/// Keywords that look like `ident (` but are not calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "while", "for", "match", "loop", "return", "fn", "in", "as", "move", "else", "let",
];

/// The lock-key crate prefix for a workspace-relative path:
/// `crates/query/src/…` → `query`, the root `src/…` → `orv`.
pub fn crate_key(rel_path: &str) -> &str {
    let mut parts = rel_path.split('/');
    match parts.next() {
        Some("crates") => parts.next().unwrap_or("crates"),
        Some("src") => "orv",
        Some(first) => first,
        None => "?",
    }
}

/// Summarize every function of one file. `code` must be the comment-free
/// token view; `is_test_line` filters out test items (their panics and
/// busy-waits are idiomatic and never run in a serving path).
pub fn summarize_file(
    rel_path: &str,
    code: &[&Tok],
    is_test_line: impl Fn(usize) -> bool,
) -> Vec<FnSummary> {
    let ckey = crate_key(rel_path);
    let fns = items::parse_fns(code);
    // Helpers whose signature returns a guard, with the lock they take.
    let none = BTreeMap::new();
    let helpers: BTreeMap<&str, String> = fns
        .iter()
        .filter(|f| {
            (0..f.body.0)
                .rev()
                .take_while(|&t| !ident_at(code, t, "fn"))
                .any(|t| code[t].kind.ident().is_some_and(|id| id.ends_with("Guard")))
        })
        .filter_map(|f| {
            let (site, _) = (f.body.0..f.body.1).find_map(|i| acquisition(code, ckey, &none, i))?;
            Some((f.name.as_str(), site.key))
        })
        .collect();
    fns.iter()
        .filter(|f| !is_test_line(f.line))
        .map(|f| summarize_fn(rel_path, ckey, f, code, &helpers))
        .collect()
}

fn ident_at(code: &[&Tok], i: usize, name: &str) -> bool {
    code.get(i).is_some_and(|t| t.kind.ident() == Some(name))
}

fn punct_at(code: &[&Tok], i: usize, c: char) -> bool {
    code.get(i).is_some_and(|t| t.kind == TokKind::Punct(c))
}

fn path_sep_at(code: &[&Tok], i: usize) -> bool {
    punct_at(code, i, ':') && punct_at(code, i + 1, ':')
}

/// The path qualifier of the identifier at `i`: `T` in `T::f`.
fn path_of<'a>(code: &'a [&Tok], i: usize) -> Option<&'a str> {
    if i < 3 || !path_sep_at(code, i - 2) {
        return None;
    }
    code[i - 3].kind.ident()
}

/// The lock acquired by the call named at `i`, with the index just past
/// the call: a zero-argument `.lock()` / `.read()` / `.write()` (zero
/// arguments is what separates `catalog.read()` from
/// `file.read(&mut buf)`), a free or path-qualified call to one of
/// `helpers`, or a path-qualified `T::lock(x)`, keyed by `x` unless
/// `helpers` has a `lock` and `T` is not `Mutex` / `RwLock`.
fn acquisition(
    code: &[&Tok],
    ckey: &str,
    helpers: &BTreeMap<&str, String>,
    i: usize,
) -> Option<(LockSite, usize)> {
    let name = call_at(code, i)?;
    let line = code[i].line;
    if i > 0 && punct_at(code, i - 1, '.') {
        if !LOCK_METHODS.contains(&name) || !punct_at(code, i + 2, ')') {
            return None;
        }
        let recv = receiver_name(code, i - 1).unwrap_or("anon");
        let key = format!("{ckey}/{recv}");
        return Some((LockSite { key, line }, i + 3));
    }
    let path = path_of(code, i);
    let helper = helpers
        .get(name)
        .filter(|_| !matches!(path, Some("Mutex" | "RwLock")));
    if helper.is_none() && (name != "lock" || path.is_none()) {
        return None;
    }
    let close = items::match_brace(code, i + 1);
    let key = helper.cloned().unwrap_or_else(|| {
        let arg = (i + 2..close).rev().find_map(|t| code[t].kind.ident());
        format!("{ckey}/{}", arg.unwrap_or("anon"))
    });
    Some((LockSite { key, line }, close + 1))
}

/// The receiver identifier of the method call whose `.` sits at `dot`:
/// walk left over `?` and balanced `(..)` / `[..]` groups, then take the
/// identifier. `self.cfg.queue.lock()` → `queue`; `store(n)?.lock()` →
/// `store`; `shards[i].lock()` → `shards`.
fn receiver_name<'a>(code: &'a [&Tok], dot: usize) -> Option<&'a str> {
    let mut j = dot.checked_sub(1)?;
    loop {
        match &code.get(j)?.kind {
            TokKind::Punct('?') => j = j.checked_sub(1)?,
            TokKind::Punct(close @ (')' | ']')) => {
                let open = if *close == ')' { '(' } else { '[' };
                let mut depth = 0usize;
                loop {
                    match &code.get(j)?.kind {
                        TokKind::Punct(c) if *c == *close => depth += 1,
                        TokKind::Punct(c) if *c == open => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j = j.checked_sub(1)?;
                }
                j = j.checked_sub(1)?;
            }
            TokKind::Ident(s) => return Some(s),
            _ => return None,
        }
    }
}

/// Is `i` a call site? Returns the callee name: an identifier directly
/// followed by `(` (methods and free calls alike; macros have a `!`
/// between and never match).
fn call_at<'a>(code: &'a [&Tok], i: usize) -> Option<&'a str> {
    let name = code.get(i)?.kind.ident()?;
    if NON_CALL_KEYWORDS.contains(&name) || !punct_at(code, i + 1, '(') {
        return None;
    }
    Some(name)
}

/// Is `i` a blocking-wait site? Either `.recv(` / `.wait(` /… method
/// forms or the `thread::park` / `thread::sleep` path forms.
fn blocking_at<'a>(code: &'a [&Tok], i: usize) -> Option<&'a str> {
    let name = code.get(i)?.kind.ident()?;
    if !BLOCKING.contains(&name) || !punct_at(code, i + 1, '(') {
        return None;
    }
    let method = i > 0 && punct_at(code, i - 1, '.');
    (method || path_of(code, i) == Some("thread")).then_some(name)
}

/// Is `i` a call no guard may be held across? `.send(` and the other
/// [`HAZARDS`] methods, a bare or path-qualified `sleep(`, and any
/// `File::` / `OpenOptions::` / `fs::` path.
fn hazard_at(code: &[&Tok], i: usize) -> Option<&'static str> {
    let name = code.get(i)?.kind.ident()?;
    if matches!(name, "File" | "OpenOptions" | "fs") && path_sep_at(code, i + 1) {
        return Some("file I/O");
    }
    if !punct_at(code, i + 1, '(') {
        return None;
    }
    if i > 0 && punct_at(code, i - 1, '.') {
        return HAZARDS.iter().find(|h| h.0 == name).map(|h| h.1);
    }
    (name == "sleep").then_some("`sleep`")
}

/// The guard a `let` at `i` binds once its statement ends: (the closing
/// `;`, the bound name, the lock). A statement that opens a `{` first
/// binds nothing; nor does one whose acquisitions are all followed by
/// more than unwrapping.
fn let_binding(
    code: &[&Tok],
    ckey: &str,
    helpers: &BTreeMap<&str, String>,
    i: usize,
    close: usize,
) -> Option<(usize, String, LockSite)> {
    let end = (i + 1..close).find(|&k| punct_at(code, k, ';') || punct_at(code, k, '{'))?;
    let at = i + 1 + usize::from(ident_at(code, i + 1, "mut"));
    let name = code.get(at)?.kind.ident()?;
    if !punct_at(code, end, ';') {
        return None;
    }
    let site = (i + 1..end).find_map(|k| {
        let (site, after) = acquisition(code, ckey, helpers, k)?;
        (after..end)
            .all(|t| matches!(code[t].kind, TokKind::Punct(')' | '?')))
            .then_some(site)
    })?;
    Some((end, name.to_string(), site))
}

/// One open bracket of the body being read.
struct Open {
    /// The obs name sink whose arguments this `(` opens.
    sink: Option<String>,
    /// Top-level commas seen so far: the argument index.
    arg: usize,
    /// The loop whose body this `{` opens.
    body_of: Option<usize>,
}

/// A guard that is live at the current token.
struct Live {
    name: String,
    site: LockSite,
    /// Open brackets at its birth; it dies when that many close.
    depth: usize,
    /// Index into [`FnSummary::guards`].
    idx: usize,
}

fn summarize_fn(
    rel_path: &str,
    ckey: &str,
    item: &FnItem,
    code: &[&Tok],
    helpers: &BTreeMap<&str, String>,
) -> FnSummary {
    let mut s = FnSummary {
        file: rel_path.to_string(),
        name: item.name.clone(),
        qual: item.qual.clone(),
        line: item.line,
        ..FnSummary::default()
    };
    let (open, close) = item.body;
    let mut stack: Vec<Open> = Vec::new();
    let mut live: Vec<Live> = Vec::new();
    // The guard the current `let` binds at its `;`, with the `let` line.
    let mut binding: Option<(usize, String, LockSite, usize)> = None;
    // The loop whose keyword was read but whose body `{` was not yet.
    let mut header: Option<usize> = None;
    for i in open + 1..close {
        let line = code[i].line;
        match &code[i].kind {
            TokKind::Punct(c @ ('(' | '[' | '{')) => {
                let sink = (*c == '(' && i >= 2 && punct_at(code, i - 2, '.'))
                    .then(|| code[i - 1].kind.ident())
                    .flatten()
                    .filter(|n| NAME_SINKS.contains(n))
                    .map(String::from);
                let body_of = if *c == '{' { header.take() } else { None };
                stack.push(Open {
                    sink,
                    arg: 0,
                    body_of,
                });
            }
            TokKind::Punct(')' | ']' | '}') => {
                let body_of = stack.pop().and_then(|o| o.body_of);
                if let Some(lp) = body_of.and_then(|l| s.loops.get_mut(l)) {
                    lp.range.1 = i;
                }
                live.retain(|g| g.depth <= stack.len());
            }
            TokKind::Punct(',') => {
                if let Some(top) = stack.last_mut() {
                    top.arg += 1;
                }
            }
            TokKind::Punct(';') => {
                // `for` followed by `;` before any `{` was no loop.
                if let Some(l) = header.take() {
                    s.loops.truncate(l);
                }
                if let Some((_, name, site, line)) = binding.take_if(|b| b.0 == i) {
                    s.guards.push(GuardBinding {
                        name: name.clone(),
                        line,
                    });
                    live.push(Live {
                        name,
                        site,
                        depth: stack.len(),
                        idx: s.guards.len() - 1,
                    });
                }
            }
            TokKind::Str(lit) => {
                // One finding per sink call: its first literal.
                for o in stack.iter_mut().filter(|o| o.arg == 0) {
                    if let Some(callee) = o.sink.take() {
                        s.sink_literals.push(SinkLiteral {
                            callee,
                            literal: lit.clone(),
                            line,
                        });
                    }
                }
            }
            TokKind::Ident(id) => {
                let id = id.as_str();
                if id == "let" {
                    binding = let_binding(code, ckey, helpers, i, close)
                        .map(|(end, name, site)| (end, name, site, line));
                }
                if id == "drop" && punct_at(code, i + 1, '(') {
                    if let Some(n) = code.get(i + 2).and_then(|t| t.kind.ident()) {
                        live.retain(|g| g.name != n);
                    }
                }
                if matches!(id, "loop" | "while" | "for") {
                    header = Some(s.loops.len());
                    s.loops.push(LoopSummary {
                        line,
                        range: (i, usize::MAX),
                        ..LoopSummary::default()
                    });
                }
                // An acquisition is not also a call: `.lock()` must not
                // resolve to every workspace function named `lock`.
                let acquired = acquisition(code, ckey, helpers, i).map(|(site, _)| site);
                let call = call_at(code, i)
                    .filter(|_| acquired.is_none())
                    .map(|callee| CallSite {
                        callee: callee.to_string(),
                        line,
                        via: match path_of(code, i) {
                            _ if punct_at(code, i.wrapping_sub(1), '.') => Via::Method,
                            Some(t) => Via::Path(t.to_string()),
                            None => Via::Free,
                        },
                    });
                let block = blocking_at(code, i).map(|what| BlockSite {
                    what: what.to_string(),
                    line,
                });
                let cancel = CANCEL_MARKERS.contains(&id);
                let counter = RETRY_COUNTERS.contains(&id);
                let bumped = punct_at(code, i + 1, '+') && punct_at(code, i + 2, '=');
                for (l, lp) in s.loops.iter_mut().enumerate() {
                    if lp.range.1 != usize::MAX {
                        continue;
                    }
                    lp.cancel |= cancel;
                    lp.governed |= RETRY_GOVERNORS.contains(&id);
                    if counter {
                        lp.retry_counter.get_or_insert_with(|| id.to_string());
                        lp.retry_shaped |= if ident_at(code, lp.range.0, "loop") {
                            bumped
                        } else {
                            header == Some(l)
                        };
                    }
                    lp.calls.extend(call.clone());
                    lp.blocking.extend(block.clone());
                }
                if let (Some(what), false) = (hazard_at(code, i), live.is_empty()) {
                    s.held_hazards.push(HeldHazard {
                        what,
                        line,
                        held: live.iter().map(|g| g.idx).collect(),
                    });
                }
                if let Some(site) = acquired {
                    for g in live.iter().filter(|g| g.site != site) {
                        s.held_edges.push(HeldEdge {
                            from: g.site.clone(),
                            to: site.clone(),
                        });
                    }
                    s.acquires.push(site);
                }
                if let Some(c) = &call {
                    for g in &live {
                        s.held_calls.push(HeldCall {
                            held: g.site.clone(),
                            callee: c.callee.clone(),
                            line,
                        });
                    }
                }
                s.cancel |= cancel;
                s.calls.extend(call);
                s.blocking.extend(block);
            }
            _ => {}
        }
    }
    s.loops.retain(|lp| lp.range.1 != usize::MAX);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn summaries(path: &str, src: &str) -> Vec<FnSummary> {
        let toks = scan(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.kind.is_comment()).collect();
        summarize_file(path, &code, |_| false)
    }

    #[test]
    fn crate_keys() {
        assert_eq!(crate_key("crates/query/src/service.rs"), "query");
        assert_eq!(crate_key("src/obs_report.rs"), "orv");
    }

    #[test]
    fn held_edge_between_two_locks() {
        let s = &summaries(
            "crates/query/src/x.rs",
            "fn f(&self) {\n    let g = self.catalog.read();\n    let h = self.shards.lock();\n    drop(h);\n    drop(g);\n}",
        )[0];
        assert_eq!(s.acquires.len(), 2);
        assert_eq!(s.held_edges.len(), 1);
        assert_eq!(s.held_edges[0].from.key, "query/catalog");
        assert_eq!(s.held_edges[0].to.key, "query/shards");
    }

    #[test]
    fn relock_wrapped_guard_keys_by_receiver() {
        let s = &summaries(
            "crates/query/src/x.rs",
            "fn f(&self) {\n    let mut queue = relock(self.queue.lock());\n    queue.pop();\n}",
        )[0];
        assert_eq!(s.acquires[0].key, "query/queue");
        // The relock() call itself is made before the guard binds: no
        // held-call on the guard's own binding statement.
        assert!(s.held_calls.iter().all(|c| c.callee != "relock"));
    }

    #[test]
    fn chained_temporary_acquires_but_does_not_guard() {
        let s = &summaries(
            "crates/query/src/x.rs",
            "fn f(&self) {\n    let v = self.catalog.read().get(n).cloned();\n    let w = self.other.lock();\n    drop(w);\n    let _ = v;\n}",
        )[0];
        // Both acquisitions recorded, but the chained read guard died in
        // its own statement: no held edge catalog → other.
        assert_eq!(s.acquires.len(), 2);
        assert!(s.held_edges.is_empty(), "{:?}", s.held_edges);
    }

    #[test]
    fn scope_close_and_drop_release_guards() {
        let s = &summaries(
            "crates/query/src/x.rs",
            "fn f(&self) {\n    {\n        let g = self.a.lock();\n        g.touch();\n    }\n    let h = self.b.lock();\n    drop(h);\n    let k = self.c.lock();\n}",
        )[0];
        // a died at scope close, b at drop: only c is ever acquired
        // under another guard — and it is not, so no edges at all.
        assert!(s.held_edges.is_empty(), "{:?}", s.held_edges);
    }

    #[test]
    fn held_call_recorded() {
        let s = &summaries(
            "crates/query/src/x.rs",
            "fn f(&self) {\n    let g = self.state.lock();\n    self.publish(g.value);\n}",
        )[0];
        assert!(s
            .held_calls
            .iter()
            .any(|c| c.callee == "publish" && c.held.key == "query/state"));
    }

    #[test]
    fn loop_facts() {
        let s = &summaries(
            "crates/query/src/x.rs",
            "fn f(&self, rx: &Receiver<u32>, cancel: &CancelToken) {\n    loop {\n        cancel.check()?;\n        let _ = rx.recv();\n    }\n    while ready() {\n        step();\n    }\n}",
        )[0];
        assert_eq!(s.loops.len(), 2);
        assert_eq!(s.loops[0].blocking[0].what, "recv");
        assert!(s.loops[0].cancel);
        assert!(s.loops[1].blocking.is_empty());
        assert!(!s.loops[1].cancel);
        assert!(s.loops[1].calls.iter().any(|c| c.callee == "step"));
    }

    #[test]
    fn blocking_forms() {
        let s = &summaries(
            "crates/query/src/x.rs",
            "fn f() {\n    std::thread::park();\n    cond.wait(g);\n    rx.recv_timeout(d);\n}",
        )[0];
        let whats: Vec<_> = s.blocking.iter().map(|b| b.what.as_str()).collect();
        assert!(whats.contains(&"park"));
        assert!(whats.contains(&"wait"));
        // recv_timeout is its own identifier — not the unbounded recv.
        assert!(!whats.contains(&"recv"));
    }

    #[test]
    fn test_items_are_skipped() {
        let toks = scan("fn runtime() {}\nfn testish() { x.lock(); }\n");
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.kind.is_comment()).collect();
        let sums = summarize_file("crates/query/src/x.rs", &code, |line| line == 2);
        assert_eq!(sums.len(), 1);
        assert_eq!(sums[0].name, "runtime");
    }
}
