//! Brace-tree item parsing: functions (with impl/mod context) and their
//! body token spans.
//!
//! Every rule is a check on a per-function summary, so the engine needs
//! to know *which function* a token belongs to. This parser is
//! deliberately shallow — it does not understand expressions,
//! only the item skeleton: `mod`/`impl` blocks contribute a context name,
//! `fn` items contribute a named body span. Everything inside a body is
//! left to the summary pass.
//!
//! Known approximations (documented in `DESIGN.md` §15):
//!
//! * The body of a `fn` is taken to start at the first `{` after its
//!   name. Const-generic braces in signatures (`Foo<{N + 1}>`) would
//!   confuse it; the workspace has none.
//! * `impl Trait for Type` records `Type`; a bare `impl Type` records
//!   `Type`. Generic parameters are skipped.
//! * Trait method *declarations* (`fn f(&self);`) have no body and
//!   produce no item.

use crate::lexer::{Tok, TokKind};

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Bare function name — the call-graph resolution key.
    pub name: String,
    /// Human label with impl/mod context, e.g. `QueryTicket::wait`.
    pub qual: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token-index range `[open, close]` of the body braces, inclusive,
    /// into the comment-free token slice handed to [`parse_fns`].
    pub body: (usize, usize),
}

/// Parse every `fn` item (with its impl/mod context) out of a
/// comment-free token slice.
pub fn parse_fns(code: &[&Tok]) -> Vec<FnItem> {
    let mut out = Vec::new();
    // (context name, brace depth at which it was entered)
    let mut ctx: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0usize;
    while i < code.len() {
        match &code[i].kind {
            TokKind::Punct('{') => depth += 1,
            TokKind::Punct('}') => {
                depth = depth.saturating_sub(1);
                ctx.retain(|&(_, d)| d <= depth);
            }
            TokKind::Ident(kw) if kw == "mod" => {
                // `mod name {` opens a context; `mod name;` declares only.
                if let (Some(TokKind::Ident(name)), true) = (
                    code.get(i + 1).map(|t| &t.kind),
                    matches!(code.get(i + 2), Some(t) if t.kind == TokKind::Punct('{')),
                ) {
                    ctx.push((name.clone(), depth + 1));
                    depth += 1;
                    i += 3;
                    continue;
                }
            }
            TokKind::Ident(kw) if kw == "impl" => {
                if let Some((name, open)) = impl_context(code, i) {
                    ctx.push((name, depth + 1));
                    depth += 1;
                    i = open + 1;
                    continue;
                }
            }
            TokKind::Ident(kw) if kw == "fn" => {
                // `fn(` is a function-pointer type, not an item.
                if let Some(TokKind::Ident(name)) = code.get(i + 1).map(|t| &t.kind) {
                    let line = code[i].line;
                    // Signature runs to the first `{` (body) or `;`
                    // (trait declaration, no body).
                    let mut j = i + 2;
                    let mut open = None;
                    while j < code.len() {
                        match code[j].kind {
                            TokKind::Punct('{') => {
                                open = Some(j);
                                break;
                            }
                            TokKind::Punct(';') => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(open) = open {
                        let close = match_brace(code, open);
                        let qual = match ctx.last() {
                            Some((c, _)) => format!("{c}::{name}"),
                            None => name.clone(),
                        };
                        out.push(FnItem {
                            name: name.clone(),
                            qual,
                            line,
                            body: (open, close),
                        });
                        // Keep scanning *inside* the body: depth tracking
                        // continues naturally and nested items are found.
                        i = open;
                        continue;
                    }
                    i = j;
                    continue;
                }
            }
            _ => {}
        }
        i += 1;
    }
    out
}

/// For an `impl` at `i`, return (type name, index of the opening `{`).
/// Handles `impl<T> Type<T>`, `impl Trait for Type`, `impl a::b::Type`.
fn impl_context(code: &[&Tok], i: usize) -> Option<(String, usize)> {
    let mut j = i + 1;
    // Skip the generic parameter list right after `impl`.
    if matches!(code.get(j), Some(t) if t.kind == TokKind::Punct('<')) {
        let mut angle = 0usize;
        while j < code.len() {
            match code[j].kind {
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') => {
                    angle -= 1;
                    if angle == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    // Collect path segments up to `{`; the name is the last segment seen
    // before the `{`, restarting at `for` (`impl Trait for Type`) and
    // freezing at `where` (bound types are not the impl target).
    let mut name: Option<String> = None;
    let mut frozen = false;
    while j < code.len() {
        match &code[j].kind {
            TokKind::Punct('{') => {
                let name = name?;
                return Some((name, j));
            }
            TokKind::Punct(';') => return None, // `impl Type;` — not real Rust, bail
            TokKind::Punct('<') => {
                // Skip a generic argument list (`Holder<'a, T>`): its
                // parameters must not overwrite the path segment.
                let mut angle = 0usize;
                while j < code.len() {
                    match code[j].kind {
                        TokKind::Punct('<') => angle += 1,
                        TokKind::Punct('>') => {
                            angle -= 1;
                            if angle == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            TokKind::Ident(s) if s == "for" => name = None,
            TokKind::Ident(s) if s == "where" => frozen = true,
            TokKind::Ident(s) if !frozen && !["dyn", "mut"].contains(&s.as_str()) => {
                name = Some(s.clone());
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// Index of the bracket matching the `{` or `(` at `open` (saturating at
/// EOF).
pub fn match_brace(code: &[&Tok], open: usize) -> usize {
    let (o, c) = match code.get(open).map(|t| &t.kind) {
        Some(TokKind::Punct('(')) => ('(', ')'),
        _ => ('{', '}'),
    };
    let mut depth = 0usize;
    let mut j = open;
    while j < code.len() {
        match code[j].kind {
            TokKind::Punct(x) if x == o => depth += 1,
            TokKind::Punct(x) if x == c => {
                depth -= 1;
                if depth == 0 {
                    return j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    code.len().saturating_sub(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::scan;

    fn fns(src: &str) -> Vec<FnItem> {
        let toks = scan(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.kind.is_comment()).collect();
        parse_fns(&code)
    }

    #[test]
    fn free_fn_and_impl_method() {
        let items =
            fns("fn free() { body(); }\nimpl Widget {\n    fn method(&self) -> u32 { 1 }\n}\n");
        assert_eq!(items.len(), 2);
        assert_eq!(items[0].qual, "free");
        assert_eq!(items[1].qual, "Widget::method");
        assert_eq!(items[1].line, 3);
    }

    #[test]
    fn trait_impl_records_the_type() {
        let items = fns("impl fmt::Display for TokKind {\n    fn fmt(&self) -> R { x }\n}\n");
        assert_eq!(items[0].qual, "TokKind::fmt");
    }

    #[test]
    fn generic_impl_skips_parameters() {
        let items =
            fns("impl<'a, T: Clone> Holder<'a, T> {\n    fn get(&self) -> &T { &self.0 }\n}\n");
        assert_eq!(items[0].qual, "Holder::get");
    }

    #[test]
    fn mod_context_and_nesting() {
        let items = fns(
            "mod outer {\n    mod inner {\n        fn deep() {}\n    }\n    fn shallow() {}\n}\n",
        );
        let quals: Vec<_> = items.iter().map(|f| f.qual.as_str()).collect();
        assert_eq!(quals, ["inner::deep", "outer::shallow"]);
    }

    #[test]
    fn trait_declarations_have_no_body() {
        let items =
            fns("trait T {\n    fn decl(&self);\n    fn with_default(&self) -> u32 { 0 }\n}\n");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "with_default");
    }

    #[test]
    fn fn_pointer_types_are_not_items() {
        let items = fns("fn takes(cb: fn(u32) -> u32) { cb(1); }\n");
        assert_eq!(items.len(), 1);
        assert_eq!(items[0].name, "takes");
    }

    #[test]
    fn body_span_matches_braces() {
        let src = "fn f() { if x { y() } }";
        let toks = scan(src);
        let code: Vec<&Tok> = toks.iter().filter(|t| !t.kind.is_comment()).collect();
        let items = parse_fns(&code);
        let (open, close) = items[0].body;
        assert_eq!(code[open].kind, TokKind::Punct('{'));
        assert_eq!(code[close].kind, TokKind::Punct('}'));
        assert_eq!(close, code.len() - 1);
    }
}
