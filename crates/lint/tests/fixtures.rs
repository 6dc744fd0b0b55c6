//! Fixture-driven integration coverage: one positive (fires), one
//! negative (clean), and one suppressed variant per rule, plus the
//! classification, suppression-grammar, JSON-stability and exit-code
//! contracts the CI gate depends on. The workspace rules (`L008`–`L010`)
//! are exercised through [`lint_files`] with multi-file fixture sets.

use orv_lint::{exit_code, lint_files, lint_source, Diagnostic, RULE_IDS};

/// Rules that fired for `src` at `path`, in output order.
fn fired(path: &str, src: &str) -> Vec<&'static str> {
    lint_source(path, src).iter().map(|d| d.rule).collect()
}

fn assert_clean(path: &str, src: &str) {
    let diags = lint_source(path, src);
    assert!(diags.is_empty(), "expected clean, got: {diags:?}");
}

/// Run the full engine (file + workspace rules) over a fixture file set.
fn lint_set(files: &[(&str, &str)]) -> Vec<Diagnostic> {
    let owned: Vec<(String, String)> = files
        .iter()
        .map(|(p, s)| (p.to_string(), s.to_string()))
        .collect();
    lint_files(&owned)
}

// A runtime path no rule allowlists, in a crate L003 watches.
const JOIN_PATH: &str = "crates/join/src/fixture.rs";
// The service layer: L003 watches its RwLock catalog + queue locks.
const QUERY_PATH: &str = "crates/query/src/fixture.rs";

#[test]
fn l003_guard_across_blocking_positive_negative_suppressed() {
    let hold =
        "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n    let g = m.lock();\n    tx.send(*g);\n}";
    assert_eq!(fired(JOIN_PATH, hold), ["L003"]);
    // Dropping the guard before the send is the fix.
    assert_clean(
        JOIN_PATH,
        "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n    let v = { let g = m.lock(); *g };\n    tx.send(v);\n}",
    );
    assert_clean(
        JOIN_PATH,
        "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n    let g = m.lock();\n    let v = *g;\n    drop(g);\n    tx.send(v);\n}",
    );
    // The rule only watches the concurrency crates.
    assert_clean("crates/layout/src/fixture.rs", hold);
    assert_clean(
        JOIN_PATH,
        "fn f(m: &Mutex<u32>, tx: &Sender<u32>) {\n    let g = m.lock();\n    // orv-lint: allow(L003) -- fixture: bounded channel is never full here\n    tx.send(*g);\n}",
    );
}

#[test]
fn l003_rwlock_catalog_pattern_positive_negative_suppressed() {
    // The service layer is watched: a statement-final `.read();` binds a
    // catalog guard, and holding it across a send fires.
    let hold = "fn f(&self, tx: &Sender<Vec<String>>) {\n    let cat = self.catalog.read();\n    tx.send(cat.names());\n}";
    assert_eq!(fired(QUERY_PATH, hold), ["L003"]);
    // A write guard is a guard too.
    assert_eq!(
        fired(
            QUERY_PATH,
            "fn f(&self, tx: &Sender<u32>) {\n    let mut cat = self.catalog.write();\n    tx.send(cat.register(v));\n}"
        ),
        ["L003"]
    );
    // The engine's sanctioned idiom: chain off the temporary guard so it
    // dies inside the statement, then block freely.
    assert_clean(
        QUERY_PATH,
        "fn f(&self, tx: &Sender<Option<ViewDef>>) {\n    let view = self.catalog.read().get(name).cloned();\n    tx.send(view);\n}",
    );
    // Scoping the guard out before blocking is also clean…
    assert_clean(
        QUERY_PATH,
        "fn f(&self, tx: &Sender<Vec<String>>) {\n    let names = {\n        let cat = self.catalog.read();\n        cat.names()\n    };\n    tx.send(names);\n}",
    );
    // …and a documented suppression still works.
    assert_clean(
        QUERY_PATH,
        "fn f(&self, tx: &Sender<Vec<String>>) {\n    let cat = self.catalog.read();\n    // orv-lint: allow(L003) -- fixture: rendezvous channel, receiver never blocks\n    tx.send(cat.names());\n}",
    );
}

#[test]
fn l005_literal_obs_names_positive_negative_suppressed() {
    assert_eq!(
        fired(
            JOIN_PATH,
            "fn f(o: &Obs) { o.events.emit(\"qes_choice\", Vec::new); }"
        ),
        ["L005"]
    );
    assert_eq!(
        fired(
            JOIN_PATH,
            "fn f(o: &Obs) { let _s = o.spans.span(\"n0/build\"); }"
        ),
        ["L005"]
    );
    // Latency recording is a name sink too: consumers find a histogram
    // by its `names::LAT_*` constant.
    assert_eq!(
        fired(
            JOIN_PATH,
            "fn f(o: &Obs) { o.metrics.record_latency(\"lat/exec_secs\", secs); }"
        ),
        ["L005"]
    );
    assert_clean(
        JOIN_PATH,
        "fn f(o: &Obs) { o.metrics.record_latency(names::LAT_EXEC, secs); }",
    );
    // So is a traced query's phase: its name is its `lat/*` histogram.
    assert_eq!(
        fired(
            JOIN_PATH,
            "fn f(t: &mut TracedQuery) { t.phase(\"lat/exec_secs\", Some(&exec)); }"
        ),
        ["L005"]
    );
    assert_clean(
        JOIN_PATH,
        "fn f(t: &mut TracedQuery) { t.phase(names::LAT_EXEC, Some(&exec)); }",
    );
    // Registry constants and builders are the sanctioned spelling; later
    // arguments (payload keys) may stay literal.
    assert_clean(
        JOIN_PATH,
        "fn f(o: &Obs) { o.events.emit(names::QES_CHOICE, || vec![(\"algo\", v)]); }",
    );
    assert_clean(
        JOIN_PATH,
        "fn f(o: &Obs) { let _s = o.spans.span(names::span_ij(0, names::PHASE_BUILD)); }",
    );
    // The registry itself defines the strings.
    assert_clean(
        "crates/obs/src/names.rs",
        "pub fn f(o: &Obs) { o.events.emit(\"qes_choice\", Vec::new); }",
    );
    assert_clean(
        JOIN_PATH,
        "fn f(o: &Obs) {\n    // orv-lint: allow(L005) -- fixture: ad-hoc diagnostic event, not replayed\n    o.events.emit(\"one_off\", Vec::new);\n}",
    );
}

#[test]
fn l007_adhoc_retry_loops_positive_negative_suppressed() {
    // An unbounded-by-policy retry loop is a retry-storm amplifier.
    assert_eq!(
        fired(
            QUERY_PATH,
            "fn f() {\n    for attempt in 0..3 {\n        if send(attempt).is_ok() { return; }\n    }\n}"
        ),
        ["L007"]
    );
    assert_eq!(
        fired(
            JOIN_PATH,
            "fn f() {\n    let mut retries = 0;\n    loop {\n        if go().is_ok() { break; }\n        retries += 1;\n    }\n}"
        ),
        ["L007"]
    );
    // Policy-capped and governor-drawn retries are the sanctioned forms.
    assert_clean(
        QUERY_PATH,
        "fn f(&self) {\n    for attempt in 0..self.cfg.recovery.max_attempts {\n        self.cancel.sleep(self.cfg.recovery.backoff(attempt));\n    }\n}",
    );
    assert_clean(
        QUERY_PATH,
        "fn f() {\n    let mut retries = 0;\n    loop {\n        if !governor.reissue(shard) { return Err(e); }\n        retries += 1;\n    }\n}",
    );
    // Borrowing the policy's helpers inside a hand-written loop is still a
    // second retry loop; the attempt belongs in a closure under the
    // policy's own.
    assert_eq!(
        fired(
            JOIN_PATH,
            "fn f() {\n    let mut retries = 0u64;\n    loop {\n        if go().is_ok() { return; }\n        cancel.sleep(policy.backoff(retries as u32))?;\n        retries += 1;\n    }\n}"
        ),
        ["L007"]
    );
    assert_clean(
        JOIN_PATH,
        "fn f() -> Result<u64> {\n    let (sent, retries) = policy.run_cancellable(cancel, || link.try_send(stream));\n    sent?;\n    Ok(retries)\n}",
    );
    // The rule only watches runtime crates…
    assert_clean(
        "crates/bench/src/fixture.rs",
        "fn f() {\n    for attempt in 0..3 {\n        go(attempt);\n    }\n}",
    );
    // …and a documented suppression still works.
    assert_clean(
        QUERY_PATH,
        "fn f() {\n    // orv-lint: allow(L007) -- fixture: bounded by caller's deadline budget\n    for attempt in 0..3 {\n        go(attempt);\n    }\n}",
    );
}

#[test]
fn l007_one_read_path_positive_negative_suppressed() {
    // A hand-built BDS set and a direct `subtable` call are a second read
    // path: no retries, no injector, no spans.
    assert_eq!(
        fired(
            QUERY_PATH,
            "fn f(d: &Deployment) -> Result<()> {\n    let services = BdsService::for_all_nodes(d)?;\n    Ok(())\n}"
        ),
        ["L007"]
    );
    assert_eq!(
        fired(
            JOIN_PATH,
            "fn f(&self, id: SubTableId) -> Result<SubTable> {\n    self.services[0].subtable(id)\n}"
        ),
        ["L007"]
    );
    // The reader is the sanctioned form; naming the type is not a call.
    assert_clean(
        JOIN_PATH,
        "use orv_bds::{BdsService, SubTableReader};\nfn f(&self, id: SubTableId, delta: &mut RunStats) -> Result<SubTable> {\n    self.reader.fetch(id, self.cfg.range.as_ref(), delta)\n}",
    );
    // The interface's own crate and the reference oracle read below it.
    for p in ["crates/bds/src/service.rs", "crates/join/src/reference.rs"] {
        assert_clean(
            p,
            "fn f(d: &Deployment, id: SubTableId) -> Result<SubTable> {\n    BdsService::for_all_nodes(d)?[0].subtable(id)\n}",
        );
    }
    // A documented suppression still works.
    assert_clean(
        QUERY_PATH,
        "fn f(&self, id: SubTableId) -> Result<SubTable> {\n    // orv-lint: allow(L007) -- fixture: diagnostic dump reads one raw page\n    self.services[0].subtable(id)\n}",
    );
}

#[test]
fn test_code_is_exempt_everywhere() {
    let nasty = "fn f(m: &Mutex<u32>) { let g = m.lock(); tx.send(*g); o.events.emit(\"x\", Vec::new); BdsService::for_all_nodes(d); }";
    // Path-classified test/dev files.
    for p in [
        "crates/join/tests/chaos.rs",
        "examples/demo.rs",
        "crates/bench/src/bin/figures.rs",
        // The benchmark package: a timing harness, wherever it is checked out.
        "orvbench/src/ladder.rs",
        "checkout/orvbench/src/run.rs",
    ] {
        assert_clean(p, nasty);
    }
    // The same source at a runtime path is not exempt.
    assert_eq!(fired(JOIN_PATH, nasty), ["L003", "L005", "L007"]);
    // Item-classified test code inside a runtime file.
    let src = "fn runtime() -> u32 { 1 }\n#[cfg(test)]\nmod tests {\n    fn helper(o: &Obs) { o.events.emit(\"x\", Vec::new); }\n}\n";
    assert_clean(JOIN_PATH, src);
    // …while the runtime part of the same file still gets linted.
    let mixed = "fn runtime(o: &Obs) { o.events.emit(\"x\", Vec::new); }\n#[cfg(test)]\nmod tests {\n    fn helper(o: &Obs) { o.events.emit(\"x\", Vec::new); }\n}\n";
    let diags = lint_source(JOIN_PATH, mixed);
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].rule, diags[0].line), ("L005", 1));
}

#[test]
fn malformed_suppressions_become_l000() {
    // Missing reason.
    let no_reason =
        "fn f(o: &Obs) {\n    // orv-lint: allow(L005)\n    o.events.emit(\"x\", Vec::new);\n}";
    let diags = lint_source(JOIN_PATH, no_reason);
    assert!(diags.iter().any(|d| d.rule == "L000"), "{diags:?}");
    // Unknown rule id.
    let unknown = "fn f() {\n    // orv-lint: allow(L099) -- nope\n    g();\n}";
    let diags = lint_source(JOIN_PATH, unknown);
    assert_eq!(diags.len(), 1);
    assert_eq!(diags[0].rule, "L000");
    // A malformed suppression cannot waive the finding it sits on, and
    // L000 itself cannot be suppressed away.
    assert!(lint_source(JOIN_PATH, no_reason)
        .iter()
        .any(|d| d.rule == "L005"));
    // Doc comments that merely *quote* the syntax are inert.
    assert_clean(
        JOIN_PATH,
        "/// Write `// orv-lint: allow(L005)` to waive.\nfn f() {}\n",
    );
}

#[test]
fn retired_rule_ids_are_unknown() {
    // L001, L002, L004 and L006 are clippy's now: a suppression naming one
    // waives nothing, so it must not survive silently.
    for id in ["L001", "L002", "L004", "L006"] {
        let src = format!("fn f() {{\n    // orv-lint: allow({id}) -- reason\n    g();\n}}");
        let diags = lint_source(JOIN_PATH, &src);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].rule, "L000");
        assert!(
            diags[0].message.contains(&format!("unknown rule `{id}`")),
            "{diags:?}"
        );
    }
}

#[test]
fn trailing_suppression_covers_only_its_own_line() {
    let src = "fn f(o: &Obs) {\n    o.events.emit(\"a\", Vec::new); // orv-lint: allow(L005) -- fixture: this line only\n    o.events.emit(\"b\", Vec::new);\n}";
    let diags = lint_source(JOIN_PATH, src);
    assert_eq!(diags.len(), 1);
    assert_eq!((diags[0].rule, diags[0].line), ("L005", 3));
}

#[test]
fn json_lines_output_is_stable() {
    let d = Diagnostic {
        file: "crates/x/src/a.rs".into(),
        line: 7,
        rule: "L005",
        message: "`emit` has a \"quote\"".into(),
        evidence: Vec::new(),
    };
    assert_eq!(
        d.to_json(),
        r#"{"rule":"L005","file":"crates/x/src/a.rs","line":7,"message":"`emit` has a \"quote\""}"#
    );
    assert_eq!(
        d.human(),
        "crates/x/src/a.rs:7: L005 `emit` has a \"quote\""
    );
}

#[test]
fn findings_sort_stably_and_drive_exit_code() {
    let src = "fn f(m: &Mutex<u32>) {\n    o.events.emit(\"x\", Vec::new);\n    let g = m.lock();\n    tx.send(*g);\n    BdsService::for_all_nodes(d);\n}";
    let diags = lint_source(JOIN_PATH, src);
    let mut sorted = diags.clone();
    sorted.sort();
    assert_eq!(diags, sorted, "lint_source must return sorted findings");
    assert_eq!(
        diags.iter().map(|d| (d.line, d.rule)).collect::<Vec<_>>(),
        [(2, "L005"), (4, "L003"), (5, "L007")]
    );
    assert_eq!(exit_code(&diags), 1);
    assert_eq!(exit_code(&[]), 0);
    assert_eq!(RULE_IDS.len(), 7, "L000 + six substantive rules");
}

// ---------------------------------------------------------------------
// Workspace rules (L008–L010): multi-file fixture sets through the full
// engine.
// ---------------------------------------------------------------------

/// The two-path lock-order cycle of the acceptance criterion: path 1
/// takes `a` then `b` directly; path 2 takes `b` then reaches `a` through
/// a call. The diagnostic must name both acquisition chains.
#[test]
fn l008_two_path_cycle_positive_names_both_chains() {
    let src = "\
fn path_one(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}
fn path_two(a: &Mutex<u32>, b: &Mutex<u32>) {
    let gb = b.lock();
    reach_a(a);
    drop(gb);
}
fn reach_a(a: &Mutex<u32>) {
    let ga = a.lock();
    drop(ga);
}
";
    let diags = lint_set(&[(QUERY_PATH, src)]);
    let l008: Vec<_> = diags.iter().filter(|d| d.rule == "L008").collect();
    assert_eq!(l008.len(), 1, "{diags:?}");
    let d = l008[0];
    assert!(d.message.contains("query/a -> query/b -> query/a"), "{d:?}");
    let notes: String = d.evidence.iter().map(|e| format!("{}\n", e.note)).collect();
    assert!(
        notes.contains("[path 1]") && notes.contains("[path 2]"),
        "{notes}"
    );
    assert!(
        notes.contains("path_one") && notes.contains("path_two"),
        "{notes}"
    );
    assert!(notes.contains("reach_a"), "propagated chain named: {notes}");
    // Evidence survives into the JSON schema CI renders annotations from.
    assert!(
        d.to_json().contains(r#""evidence":[{"file":"#),
        "{}",
        d.to_json()
    );
}

#[test]
fn l008_consistent_order_negative_and_suppressed() {
    // Same pair, same order on both paths: no cycle.
    let consistent = "\
fn path_one(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}
fn path_two(a: &Mutex<u32>, b: &Mutex<u32>) {
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}
";
    assert!(
        lint_set(&[(QUERY_PATH, consistent)]).is_empty(),
        "consistent order must be clean"
    );
    // A documented suppression at the anchor (path 1's first acquisition)
    // waives the cycle.
    let suppressed = "\
fn path_one(a: &Mutex<u32>, b: &Mutex<u32>) {
    // orv-lint: allow(L008) -- fixture: path_two is init-only, never concurrent with path_one
    let ga = a.lock();
    let gb = b.lock();
    drop(gb);
    drop(ga);
}
fn path_two(a: &Mutex<u32>, b: &Mutex<u32>) {
    let gb = b.lock();
    let ga = a.lock();
    drop(ga);
    drop(gb);
}
";
    let diags = lint_set(&[(QUERY_PATH, suppressed)]);
    assert!(diags.iter().all(|d| d.rule != "L008"), "{diags:?}");
    // A malformed suppression waives nothing and adds L000.
    let malformed = suppressed.replace(
        "allow(L008) -- fixture: path_two is init-only, never concurrent with path_one",
        "allow(L008)",
    );
    let diags = lint_set(&[(QUERY_PATH, malformed.as_str())]);
    assert!(diags.iter().any(|d| d.rule == "L000"), "{diags:?}");
    assert!(diags.iter().any(|d| d.rule == "L008"), "{diags:?}");
}

/// A guard taken through a helper that returns one is a guard on the
/// helper's lock: one path takes `state` through `Self::lock`, the other
/// locks it directly, and the two orders close a cycle.
#[test]
fn l008_cycle_through_a_guard_returning_helper() {
    let src = "\
impl Cache {
    fn lock(s: &Shard) -> MutexGuard<'_, ShardState> {
        relock(s.state.lock())
    }
    fn path_one(&self, s: &Shard) {
        let state = Self::lock(s);
        let samples = relock(self.samples.lock());
        drop(samples);
        drop(state);
    }
    fn path_two(&self, s: &Shard) {
        let samples = relock(self.samples.lock());
        let state = relock(s.state.lock());
        drop(state);
        drop(samples);
    }
}
";
    let diags = lint_set(&[(JOIN_PATH, src)]);
    let l008: Vec<_> = diags.iter().filter(|d| d.rule == "L008").collect();
    assert_eq!(l008.len(), 1, "{diags:?}");
    assert!(
        l008[0]
            .message
            .contains("join/samples -> join/state -> join/samples"),
        "{:?}",
        l008[0]
    );
}

/// A guard chained into a value dies inside its own statement: the
/// bound `n` is a plain number, so the send holds no lock.
#[test]
fn l003_chained_temporary_is_not_a_guard() {
    assert_clean(
        JOIN_PATH,
        "fn f(m: &Mutex<Vec<u32>>, tx: &Sender<usize>) {\n    let n = m.lock().len();\n    tx.send(n);\n}",
    );
}

#[test]
fn l009_blocking_loop_positive_negative_suppressed() {
    // Condvar wait loop with no cancellation: unkillable.
    let unkillable = "\
fn f(m: &Mutex<bool>, c: &Condvar) {
    let mut g = m.lock();
    loop {
        if *g { return; }
        g = c.wait(g);
    }
}
";
    let diags = lint_set(&[(QUERY_PATH, unkillable)]);
    assert!(diags.iter().any(|d| d.rule == "L009"), "{diags:?}");
    // Polling the token in the loop makes it killable.
    let polite = "\
fn f(m: &Mutex<bool>, c: &Condvar, cancel: &CancelToken) -> Result<()> {
    let mut g = m.lock();
    loop {
        cancel.check()?;
        if *g { return Ok(()); }
        g = c.wait(g);
    }
}
";
    assert!(
        lint_set(&[(QUERY_PATH, polite)]).is_empty(),
        "cancel-polling loop must be clean"
    );
    // A deadline-budget bound counts as a cancellation point too.
    let budgeted = "\
fn f(m: &Mutex<bool>, c: &Condvar, budget: &DeadlineBudget) {
    let mut g = m.lock();
    loop {
        if budget.expired() { return; }
        let (h, _) = c.wait_timeout(g, budget.remaining());
        g = h;
    }
}
";
    assert!(
        lint_set(&[(QUERY_PATH, budgeted)]).is_empty(),
        "budget-bounded loop must be clean"
    );
    let suppressed = "\
fn f(m: &Mutex<bool>, c: &Condvar) {
    let mut g = m.lock();
    // orv-lint: allow(L009) -- fixture: resolver thread always signals before exit
    loop {
        if *g { return; }
        g = c.wait(g);
    }
}
";
    assert!(
        lint_set(&[(QUERY_PATH, suppressed)]).is_empty(),
        "documented suppression waives L009"
    );
}

#[test]
fn l009_blocking_reached_through_the_call_graph() {
    // The loop itself looks innocent; the wait is one call down.
    let src = "\
fn pump(m: &Mutex<bool>, c: &Condvar) {
    loop {
        step_once(m, c);
    }
}
fn step_once(m: &Mutex<bool>, c: &Condvar) {
    let g = m.lock();
    let _ = c.wait(g);
}
";
    let diags = lint_set(&[(QUERY_PATH, src)]);
    let l009: Vec<_> = diags.iter().filter(|d| d.rule == "L009").collect();
    assert_eq!(l009.len(), 1, "{diags:?}");
    assert!(l009[0].message.contains("pump"), "{:?}", l009[0]);
    assert!(
        l009[0].evidence[0].note.contains("step_once"),
        "evidence names the call chain: {:?}",
        l009[0]
    );
    // If the callee observes cancellation, the loop inherits that too.
    let polite = "\
fn pump(m: &Mutex<bool>, c: &Condvar, t: &CancelToken) {
    loop {
        step_once(m, c, t);
    }
}
fn step_once(m: &Mutex<bool>, c: &Condvar, t: &CancelToken) -> Result<()> {
    t.check()?;
    let g = m.lock();
    let _ = c.wait(g);
    Ok(())
}
";
    assert!(
        lint_set(&[(QUERY_PATH, polite)]).is_empty(),
        "cancel-aware callee clears the loop"
    );
    // Outside the concurrency crates the rule does not apply.
    assert!(
        lint_set(&[("crates/layout/src/fixture.rs", src)]).is_empty(),
        "L009 watches join/cluster/query only"
    );
}

/// A miniature names registry for the L010 fixtures.
const NAMES_FIXTURE_PATH: &str = "crates/obs/src/names.rs";

#[test]
fn l010_dead_names_positive() {
    let names = "\
pub const USED: &str = \"used/metric\";
pub const DEAD: &str = \"dead/metric\";
";
    let emitter = "\
fn f(o: &Obs) {
    o.events.emit(names::USED, Vec::new);
}
";
    let diags = lint_set(&[(NAMES_FIXTURE_PATH, names), (QUERY_PATH, emitter)]);
    let l010: Vec<_> = diags.iter().filter(|d| d.rule == "L010").collect();
    assert_eq!(l010.len(), 1, "{diags:?}");
    // The dead constant anchors at its declaration in the registry.
    assert!(
        l010.iter()
            .any(|d| d.file == NAMES_FIXTURE_PATH && d.line == 2 && d.message.contains("DEAD")),
        "{l010:?}"
    );
}

#[test]
fn l010_negative_builder_coverage_and_suppression() {
    // Fully covered registry: direct emit, builder interpolation, and an
    // aggregate constant (not a name itself, so never "dead").
    let names = "\
pub const USED: &str = \"used/metric\";
pub const PHASE_X: &str = \"x\";
pub const ALL: &[&str] = &[USED, PHASE_X];
pub fn span_x(n: u32) -> String {
    format!(\"grp{n}/{PHASE_X}\")
}
";
    let emitter = "\
fn f(o: &Obs) {
    o.events.emit(names::USED, Vec::new);
    let _s = o.spans.span_with(|| names::span_x(3));
}
";
    assert!(
        lint_set(&[(NAMES_FIXTURE_PATH, names), (QUERY_PATH, emitter)]).is_empty(),
        "builder interpolation covers PHASE_X"
    );
    // Without the registry in the file set, L010 has nothing to check.
    assert!(
        lint_set(&[(QUERY_PATH, emitter)]).is_empty(),
        "no registry, no L010"
    );
    // Test-only usage does not count as coverage…
    let test_only_emit = "\
#[cfg(test)]
mod tests {
    fn t(o: &Obs) {
        o.events.emit(names::DEAD, Vec::new);
    }
}
";
    let names_with_dead = "pub const DEAD: &str = \"dead/metric\";\n";
    let diags = lint_set(&[
        (NAMES_FIXTURE_PATH, names_with_dead),
        (QUERY_PATH, test_only_emit),
    ]);
    assert!(
        diags.iter().any(|d| d.rule == "L010"),
        "test-only emit is still dead: {diags:?}"
    );
    // …and a documented suppression at the declaration waives it.
    let names_suppressed = "\
// orv-lint: allow(L010) -- fixture: reserved for the next ingest PR, dashboard already provisioned
pub const DEAD: &str = \"dead/metric\";
";
    assert!(
        lint_set(&[(NAMES_FIXTURE_PATH, names_suppressed)]).is_empty(),
        "suppression at the declaration waives the dead-name finding"
    );
}
