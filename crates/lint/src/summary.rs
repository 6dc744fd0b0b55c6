//! Per-function summaries: what each function acquires, blocks on,
//! polls, and calls.
//!
//! This is the middle layer of the structural engine: [`crate::items`]
//! finds the functions, this pass reduces each body to the facts the
//! whole-workspace rules need, and [`crate::callgraph`] propagates those
//! facts along the (approximate) call graph. Facts collected per
//! function:
//!
//! * **Lock acquisitions** — every zero-argument `.lock()` / `.read()` /
//!   `.write()` call, keyed by `crate/receiver` (e.g. `query/catalog`).
//!   Receiver extraction walks back over `?` and balanced `(..)`/`[..]`
//!   groups, so `relock(self.queue.lock())` keys as `query/queue`.
//! * **Held edges** — lock B acquired while a `let`-bound guard on lock A
//!   is live (the same liveness heuristic as rule L003: guards die at
//!   `drop(name)` or scope close; chained temporaries are not guards).
//! * **Held calls** — a function call made while a guard is live; the
//!   call graph turns these into propagated lock-order edges.
//! * **Blocking waits** — `recv` / `wait` / `wait_timeout` / `park` /
//!   `sleep` call sites.
//! * **Cancellation markers** — identifiers that show the surrounding
//!   loop observes a `CancelToken`, a deadline, or a shutdown flag.
//! * **Loops** — header line plus the body's blocking/cancel/call facts,
//!   for rule L009.

use crate::items::{self, FnItem};
use crate::lexer::{Tok, TokKind};

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

/// One call site (by bare callee name).
#[derive(Clone, Debug)]
pub struct CallSite {
    pub callee: String,
    pub line: usize,
}

/// One blocking-wait site.
#[derive(Clone, Debug)]
pub struct BlockSite {
    /// The blocking callee (`recv`, `wait`, ...).
    pub what: String,
    pub line: usize,
}

/// One loop inside a function, with the facts L009 needs.
#[derive(Clone, Debug)]
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
}

/// Everything the workspace rules need to know about one function.
#[derive(Clone, Debug)]
pub struct FnSummary {
    /// Workspace-relative file path.
    pub file: String,
    /// Bare name (call-graph key) and human label.
    pub name: String,
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    pub acquires: Vec<LockSite>,
    pub held_edges: Vec<HeldEdge>,
    pub held_calls: Vec<HeldCall>,
    pub calls: Vec<CallSite>,
    pub blocking: Vec<BlockSite>,
    /// Any direct cancellation/deadline marker in the body.
    pub cancel: bool,
    pub loops: Vec<LoopSummary>,
}

/// Methods whose zero-argument call acquires a lock guard.
const LOCK_METHODS: &[&str] = &["lock", "read", "write"];

/// Callees that block the calling thread until an external event.
const BLOCKING: &[&str] = &["recv", "wait", "wait_timeout", "park", "sleep"];

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
    items::parse_fns(code)
        .into_iter()
        .filter(|f| !is_test_line(f.line))
        .map(|f| summarize_fn(rel_path, ckey, &f, code))
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

/// Is token `i` a `.` starting a zero-argument lock/read/write call?
/// Returns the lock site on match. Zero arguments is what separates
/// `catalog.read()` (RwLock) from `file.read(&mut buf)` (I/O).
fn lock_acquisition(code: &[&Tok], ckey: &str, i: usize) -> Option<LockSite> {
    if !punct_at(code, i, '.') || !punct_at(code, i + 2, '(') || !punct_at(code, i + 3, ')') {
        return None;
    }
    let callee = code.get(i + 1)?.kind.ident()?;
    if !LOCK_METHODS.contains(&callee) {
        return None;
    }
    let recv = receiver_name(code, i).unwrap_or("anon");
    Some(LockSite {
        key: format!("{ckey}/{recv}"),
        line: code[i].line,
    })
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
    let path = i >= 2 && path_sep_at(code, i - 2) && ident_at(code, i - 3, "thread");
    (method || path).then_some(name)
}

fn summarize_fn(rel_path: &str, ckey: &str, item: &FnItem, code: &[&Tok]) -> FnSummary {
    let (open, close) = item.body;
    let body = open + 1..close;

    // Pass A — flat facts: calls, blocking waits, cancel markers, loops.
    let mut calls = Vec::new();
    let mut blocking = Vec::new();
    let mut cancel = false;
    let mut loops: Vec<LoopSummary> = Vec::new();
    for i in body.clone() {
        if let Some(callee) = call_at(code, i) {
            calls.push(CallSite {
                callee: callee.to_string(),
                line: code[i].line,
            });
        }
        if let Some(what) = blocking_at(code, i) {
            blocking.push(BlockSite {
                what: what.to_string(),
                line: code[i].line,
            });
        }
        if let Some(id) = code[i].kind.ident() {
            if CANCEL_MARKERS.contains(&id) {
                cancel = true;
            }
            if matches!(id, "loop" | "while" | "for") {
                // `for` also appears in `impl Trait for T`; inside a fn
                // body that cannot occur. Find the body brace.
                if let Some(lopen) = (i + 1..close).find(|&j| punct_at(code, j, '{')) {
                    // Skip `for` used as a loop only when a `{` follows
                    // before any `;` (defends against stray tokens).
                    if (i + 1..lopen).any(|j| punct_at(code, j, ';')) {
                        continue;
                    }
                    let lclose = items::match_brace(code, lopen);
                    loops.push(LoopSummary {
                        line: code[i].line,
                        range: (i, lclose),
                        blocking: Vec::new(),
                        cancel: false,
                        calls: Vec::new(),
                    });
                }
            }
        }
    }
    for lp in &mut loops {
        let (s, e) = lp.range;
        for i in s..=e.min(close) {
            if let Some(what) = blocking_at(code, i) {
                lp.blocking.push(BlockSite {
                    what: what.to_string(),
                    line: code[i].line,
                });
            }
            if let Some(callee) = call_at(code, i) {
                lp.calls.push(CallSite {
                    callee: callee.to_string(),
                    line: code[i].line,
                });
            }
            if code[i]
                .kind
                .ident()
                .is_some_and(|id| CANCEL_MARKERS.contains(&id))
            {
                lp.cancel = true;
            }
        }
    }

    // Pass B — guard liveness: acquisitions, held edges, held calls.
    struct Guard {
        name: String,
        site: LockSite,
        depth: usize,
    }
    let mut acquires = Vec::new();
    let mut held_edges = Vec::new();
    let mut held_calls = Vec::new();
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;

    // Record one acquisition: remember it and edge it from live guards.
    let note_acquire = |site: &LockSite,
                        guards: &[Guard],
                        acquires: &mut Vec<LockSite>,
                        held_edges: &mut Vec<HeldEdge>| {
        acquires.push(site.clone());
        for g in guards {
            if g.site.key != site.key || g.site.line != site.line {
                held_edges.push(HeldEdge {
                    from: g.site.clone(),
                    to: site.clone(),
                });
            }
        }
    };

    let mut i = open + 1;
    while i < close {
        match &code[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            TokKind::Ident(kw) if kw == "let" => {
                // Brace-free statement lookahead (the L003 heuristic):
                // find the bound name and any lock acquisitions inside.
                let mut j = i + 1;
                if ident_at(code, j, "mut") {
                    j += 1;
                }
                let bound = code.get(j).and_then(|t| t.kind.ident()).map(String::from);
                let mut k = i + 1;
                let mut binds: Option<LockSite> = None;
                while k < close {
                    match code[k].kind {
                        TokKind::Punct(';') | TokKind::Punct('{') => break,
                        _ => {}
                    }
                    if let Some(site) = lock_acquisition(code, ckey, k) {
                        note_acquire(&site, &guards, &mut acquires, &mut held_edges);
                        // The acquisition binds a guard only when the
                        // rest of the statement is pure unwrapping
                        // (`)` / `?`): `relock(self.q.lock());` binds,
                        // while chained temporaries like
                        // `.read().get(..)` or `.lock().append(..)?`
                        // die inside their own statement.
                        let tail_unwraps_only = (k + 4..close)
                            .take_while(|&t| !punct_at(code, t, ';'))
                            .all(|t| {
                                matches!(code[t].kind, TokKind::Punct(')') | TokKind::Punct('?'))
                            });
                        if binds.is_none() && tail_unwraps_only {
                            binds = Some(site);
                        }
                    } else if let Some(callee) = call_at(code, k) {
                        for g in &guards {
                            held_calls.push(HeldCall {
                                held: g.site.clone(),
                                callee: callee.to_string(),
                                line: code[k].line,
                            });
                        }
                    }
                    k += 1;
                }
                if let (Some(site), Some(name), true) = (binds, bound, punct_at(code, k, ';')) {
                    guards.push(Guard { name, site, depth });
                }
                i = k;
                continue;
            }
            TokKind::Ident(kw) if kw == "drop" && punct_at(code, i + 1, '(') => {
                if let Some(TokKind::Ident(n)) = code.get(i + 2).map(|t| &t.kind) {
                    guards.retain(|g| &g.name != n);
                }
            }
            _ => {}
        }
        if let Some(site) = lock_acquisition(code, ckey, i) {
            note_acquire(&site, &guards, &mut acquires, &mut held_edges);
        } else if let Some(callee) = call_at(code, i) {
            for g in &guards {
                held_calls.push(HeldCall {
                    held: g.site.clone(),
                    callee: callee.to_string(),
                    line: code[i].line,
                });
            }
        }
        i += 1;
    }

    FnSummary {
        file: rel_path.to_string(),
        name: item.name.clone(),
        qual: item.qual.clone(),
        line: item.line,
        acquires,
        held_edges,
        held_calls,
        calls,
        blocking,
        cancel,
        loops,
    }
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
