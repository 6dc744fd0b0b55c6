//! Per-site suppression comments.
//!
//! Syntax (anywhere a `//` comment can appear):
//!
//! ```text
//! // orv-lint: allow(L003) -- bounded channel is never full here
//! // orv-lint: allow(L005, L007) -- diagnostic dump reads one raw page
//! ```
//!
//! A suppression applies to findings on **its own line** (trailing
//! comment) and on the **next source line** (comment-above style). The
//! reason after `--` is mandatory: a suppression without one is itself
//! reported (rule `L000`), so every waiver in the tree carries its
//! justification next to the code it excuses.

use crate::lexer::{Tok, TokKind};
use crate::rules::RULE_IDS;

/// One parsed `orv-lint: allow(...)` comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Suppression {
    /// Rule ids this comment waives (upper-cased, e.g. `L003`).
    pub rules: Vec<String>,
    /// 1-based line the comment sits on.
    pub line: usize,
    /// Trailing comments (code before them on the same line) waive only
    /// that line; standalone comments waive the line below.
    pub trailing: bool,
}

/// A malformed suppression comment, reported as rule `L000`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BadSuppression {
    /// 1-based line of the offending comment.
    pub line: usize,
    /// What is wrong with it.
    pub problem: String,
}

/// All suppressions of one file plus the malformed ones.
#[derive(Debug, Default)]
pub struct Suppressions {
    entries: Vec<Suppression>,
    /// Malformed comments, surfaced by the engine as L000 findings.
    pub bad: Vec<BadSuppression>,
}

impl Suppressions {
    /// Is `rule` waived at `line`? A trailing suppression covers its own
    /// line; a standalone one covers its own line and the line below.
    pub fn allows(&self, rule: &str, line: usize) -> bool {
        self.entries.iter().any(|s| {
            let in_range = s.line == line || (!s.trailing && s.line + 1 == line);
            in_range && s.rules.iter().any(|r| r == rule)
        })
    }

    /// Number of well-formed suppressions (for reporting).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no well-formed suppressions were found.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

const MARKER: &str = "orv-lint:";

/// Collect suppression comments from a token stream.
pub fn collect(toks: &[Tok]) -> Suppressions {
    let mut out = Suppressions::default();
    for (i, t) in toks.iter().enumerate() {
        let TokKind::LineComment(text) = &t.kind else {
            continue;
        };
        // Doc comments (`///`, `//!`) are documentation — they may quote
        // the suppression syntax without being directives.
        if text.starts_with('/') || text.starts_with('!') {
            continue;
        }
        let Some(idx) = text.find(MARKER) else {
            continue;
        };
        // Trailing iff a non-comment token precedes it on the same line.
        let trailing = toks[..i]
            .iter()
            .rev()
            .take_while(|p| p.line == t.line)
            .any(|p| !p.kind.is_comment());
        let directive = text[idx + MARKER.len()..].trim();
        match parse_directive(directive) {
            Ok(rules) => out.entries.push(Suppression {
                rules,
                line: t.line,
                trailing,
            }),
            Err(problem) => out.bad.push(BadSuppression {
                line: t.line,
                problem,
            }),
        }
    }
    out
}

/// Parse `allow(L003, L005) -- reason` (the part after `orv-lint:`).
fn parse_directive(s: &str) -> Result<Vec<String>, String> {
    let Some(rest) = s.strip_prefix("allow") else {
        return Err(format!(
            "expected `allow(<rules>) -- <reason>`, found `{s}`"
        ));
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix('(') else {
        return Err("missing `(` after `allow`".into());
    };
    let Some(close) = rest.find(')') else {
        return Err("missing `)` in allow(...)".into());
    };
    let (list, tail) = rest.split_at(close);
    let tail = tail[1..].trim(); // drop `)`
    let Some(reason) = tail.strip_prefix("--") else {
        return Err("missing `-- <reason>`: every suppression must say why".into());
    };
    if reason.trim().is_empty() {
        return Err("empty reason after `--`".into());
    }
    let mut rules = Vec::new();
    for part in list.split(',') {
        let id = part.trim().to_ascii_uppercase();
        if id.is_empty() {
            return Err("empty rule id in allow(...)".into());
        }
        if !RULE_IDS.contains(&id.as_str()) {
            return Err(format!(
                "unknown rule `{id}` (known: {})",
                RULE_IDS.join(", ")
            ));
        }
        rules.push(id);
    }
    if rules.is_empty() {
        return Err("allow(...) names no rules".into());
    }
    Ok(rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn parse(src: &str) -> Suppressions {
        collect(&scan(src))
    }

    #[test]
    fn trailing_and_above_both_apply() {
        let s = parse(
            "// orv-lint: allow(L005) -- provable\no.emit(\"a\", v);\no.emit(\"b\", v); // orv-lint: allow(L005) -- also provable\n",
        );
        assert!(s.allows("L005", 1));
        assert!(s.allows("L005", 2)); // line under the comment
        assert!(s.allows("L005", 3)); // trailing
        assert!(!s.allows("L005", 4));
        assert!(!s.allows("L003", 2));
        assert!(s.bad.is_empty());
    }

    #[test]
    fn multiple_rules_one_comment() {
        let s = parse("// orv-lint: allow(L005, l007) -- diagnostic dump\n");
        assert!(s.allows("L005", 2));
        assert!(s.allows("L007", 2)); // ids are case-insensitive
    }

    #[test]
    fn missing_reason_is_malformed() {
        let s = parse("// orv-lint: allow(L005)\n");
        assert!(s.is_empty());
        assert_eq!(s.bad.len(), 1);
        assert!(s.bad[0].problem.contains("reason"));
        let s = parse("// orv-lint: allow(L005) -- \n");
        assert_eq!(s.bad.len(), 1, "blank reason must not count");
    }

    #[test]
    fn unknown_rule_is_malformed() {
        let s = parse("// orv-lint: allow(L999) -- because\n");
        assert!(s.is_empty());
        assert!(s.bad[0].problem.contains("L999"));
    }

    #[test]
    fn garbage_directives_are_malformed() {
        for bad in [
            "// orv-lint: deny(L005) -- x",
            "// orv-lint: allow L005 -- x",
            "// orv-lint: allow() -- x",
            "// orv-lint: allow(L005 -- x",
        ] {
            let s = parse(bad);
            assert_eq!(s.bad.len(), 1, "{bad}");
        }
    }

    #[test]
    fn ordinary_comments_ignored() {
        let s = parse("// just a note about orv lint things\nx();\n");
        assert!(s.is_empty());
        assert!(s.bad.is_empty());
    }

    #[test]
    fn doc_comments_quoting_syntax_are_inert() {
        for doc in [
            "/// Quote: `// orv-lint: allow(L005)` has no reason.\n",
            "//! // orv-lint: allow(L999) -- docs may show anything\n",
        ] {
            let s = parse(doc);
            assert!(s.is_empty(), "{doc}");
            assert!(s.bad.is_empty(), "{doc}");
        }
    }

    #[test]
    fn suppression_inside_string_is_inert() {
        let s = parse(r#"let x = "// orv-lint: allow(L005) -- nope";"#);
        assert!(s.is_empty());
    }
}
