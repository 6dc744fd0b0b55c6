//! Test-vs-runtime classification.
//!
//! The rules only bite on *runtime* code: anything that executes in a
//! production query path. Test code is exempt wholesale — `unwrap()` in a
//! test is idiomatic, a literal event name in an assertion is fine.
//!
//! Two levels:
//!
//! * **File level** — files under a `tests/`, `examples/`, `benches/` or
//!   `orvbench/` directory component, and `build.rs`, are entirely
//!   test/dev code.
//! * **Item level** — inside runtime files, items annotated `#[test]`,
//!   `#[cfg(test)]` (including `#[cfg(all(test, ...))]`) mark their whole
//!   body (to the matching closing brace, or to `;` for brace-less items)
//!   as test lines. A `#[cfg(test)] mod tests { ... }` therefore exempts
//!   the entire module.

use crate::lexer::{Tok, TokKind};

/// Which source lines of one file are test code.
#[derive(Debug)]
pub struct LineClass {
    /// Whole file is test/dev code (path-based).
    all_test: bool,
    /// Sorted, disjoint `(first_line, last_line)` test ranges.
    ranges: Vec<(usize, usize)>,
}

impl LineClass {
    /// Is `line` (1-based) test code?
    pub fn is_test(&self, line: usize) -> bool {
        self.all_test || self.ranges.iter().any(|&(lo, hi)| lo <= line && line <= hi)
    }

    /// Whether the whole file was classified as test/dev code.
    pub fn is_all_test(&self) -> bool {
        self.all_test
    }
}

/// Does the relative path put the whole file in test territory?
/// `crates/bench` and `orvbench` are the measurement harnesses — dev
/// tools end to end, whose job is to read the wall clock and to stop on
/// the first error — so those whole packages count as non-runtime code.
fn path_is_test(rel_path: &str) -> bool {
    let is = |comp: &str| rel_path.split('/').any(|c| c == comp);
    is("tests")
        || is("examples")
        || is("benches")
        || is("orvbench")
        || rel_path.ends_with("build.rs")
        || rel_path.starts_with("crates/bench/")
}

/// Classify every line of a file given its path and token stream.
pub fn classify(rel_path: &str, toks: &[Tok]) -> LineClass {
    if path_is_test(rel_path) {
        return LineClass {
            all_test: true,
            ranges: Vec::new(),
        };
    }
    // Work on a comment-free view: attribute/body scanning must not be
    // confused by `{` or `]` inside comments (strings are already opaque).
    let code: Vec<&Tok> = toks.iter().filter(|t| !t.kind.is_comment()).collect();
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        if code[i].kind == TokKind::Punct('#')
            && matches!(code.get(i + 1), Some(t) if t.kind == TokKind::Punct('['))
        {
            let start_line = code[i].line;
            let (attr_end, is_test_attr) = scan_attribute(&code, i + 1);
            if is_test_attr {
                // Skip any further attributes stacked on the same item.
                let mut j = attr_end;
                while j < code.len()
                    && code[j].kind == TokKind::Punct('#')
                    && matches!(code.get(j + 1), Some(t) if t.kind == TokKind::Punct('['))
                {
                    let (next_end, _) = scan_attribute(&code, j + 1);
                    j = next_end;
                }
                let end_line = item_end_line(&code, j);
                ranges.push((start_line, end_line));
                i = j;
                continue;
            }
            i = attr_end;
            continue;
        }
        i += 1;
    }
    ranges.sort_unstable();
    LineClass {
        all_test: false,
        ranges,
    }
}

/// Starting at the `[` of an attribute, return (index one past the
/// matching `]`, whether the attribute marks test code).
///
/// "Marks test code" means the attribute tokens contain the identifier
/// `test`: that covers `#[test]`, `#[cfg(test)]`, and
/// `#[cfg(all(test, feature = "x"))]`. Identifiers like `tests` do not
/// match, and feature names are string literals so they cannot match.
fn scan_attribute(code: &[&Tok], open: usize) -> (usize, bool) {
    let mut depth = 0usize;
    let mut is_test = false;
    let mut i = open;
    while i < code.len() {
        match &code[i].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return (i + 1, is_test);
                }
            }
            TokKind::Ident(s) if s == "test" => is_test = true,
            _ => {}
        }
        i += 1;
    }
    (code.len(), is_test)
}

/// From the first token of an item (after its attributes), find the line
/// on which the item ends: the matching `}` of its first brace, or the
/// first `;` at nesting depth zero for brace-less items (`#[cfg(test)]
/// use ...;`).
fn item_end_line(code: &[&Tok], start: usize) -> usize {
    let mut i = start;
    let mut paren_depth = 0usize;
    while i < code.len() {
        match code[i].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => paren_depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => {
                paren_depth = paren_depth.saturating_sub(1)
            }
            TokKind::Punct(';') if paren_depth == 0 => return code[i].line,
            TokKind::Punct('{') => {
                // Walk to the matching close brace.
                let mut depth = 0usize;
                while i < code.len() {
                    match code[i].kind {
                        TokKind::Punct('{') => depth += 1,
                        TokKind::Punct('}') => {
                            depth -= 1;
                            if depth == 0 {
                                return code[i].line;
                            }
                        }
                        _ => {}
                    }
                    i += 1;
                }
                break;
            }
            _ => {}
        }
        i += 1;
    }
    code.last().map(|t| t.line).unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn classed(path: &str, src: &str) -> LineClass {
        classify(path, &scan(src))
    }

    #[test]
    fn test_dirs_are_all_test() {
        for p in [
            "crates/join/tests/prop_schedule.rs",
            "tests/end_to_end.rs",
            "examples/chaos.rs",
            "crates/bench/benches/fig9.rs",
            "crates/bench/src/bin/figures.rs",
            "orvbench/src/ladder.rs",
            "vendor/orvbench/src/main.rs",
            "build.rs",
        ] {
            assert!(classed(p, "fn f() {}").is_all_test(), "{p}");
        }
        assert!(!classed("crates/join/src/grace.rs", "fn f() {}").is_all_test());
        // A crate named e.g. `testsuite` must not match by substring.
        assert!(!classed("crates/testsuite-x/src/lib.rs", "fn f() {}").is_all_test());
        assert!(!classed("crates/orvbench-x/src/lib.rs", "fn f() {}").is_all_test());
    }

    #[test]
    fn cfg_test_mod_is_exempt() {
        let src =
            "fn runtime() {}\n\n#[cfg(test)]\nmod tests {\n    fn helper() {}\n}\nfn late() {}\n";
        let c = classed("crates/x/src/lib.rs", src);
        assert!(!c.is_test(1));
        assert!(c.is_test(3)); // the attribute line
        assert!(c.is_test(4));
        assert!(c.is_test(5));
        assert!(c.is_test(6)); // closing brace
        assert!(!c.is_test(7));
    }

    #[test]
    fn test_fn_and_stacked_attributes() {
        let src = "#[test]\n#[ignore]\nfn t() {\n    body();\n}\nfn r() {}\n";
        let c = classed("crates/x/src/lib.rs", src);
        assert!(c.is_test(1));
        assert!(c.is_test(4));
        assert!(!c.is_test(6));
    }

    #[test]
    fn cfg_all_test_matches() {
        let src = "#[cfg(all(test, unix))]\nmod helpers {\n    fn h() {}\n}\n";
        let c = classed("crates/x/src/lib.rs", src);
        assert!(c.is_test(3));
    }

    #[test]
    fn braceless_cfg_test_item() {
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\nfn r() {}\n";
        let c = classed("crates/x/src/lib.rs", src);
        assert!(c.is_test(2));
        assert!(!c.is_test(3));
    }

    #[test]
    fn other_attributes_do_not_exempt() {
        let src = "#[derive(Debug)]\nstruct S;\n#[cfg(feature = \"test\")]\nfn f() {}\n";
        let c = classed("crates/x/src/lib.rs", src);
        assert!(!c.is_test(2));
        // `test` here is a *string*, not an identifier.
        assert!(!c.is_test(4));
    }

    #[test]
    fn nested_braces_in_test_mod() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn a() { if x { y() } }\n    fn b() {}\n}\nfn r() {}\n";
        let c = classed("crates/x/src/lib.rs", src);
        assert!(c.is_test(4));
        assert!(c.is_test(5));
        assert!(!c.is_test(6));
    }
}
