//! A lightweight Rust token scanner.
//!
//! This is not a full Rust lexer — it is the minimum needed to run token
//! pattern rules reliably: it separates identifiers, punctuation, and
//! numeric/char literals, keeps string literals (including raw and byte
//! strings) as single opaque tokens so code-looking text inside them can
//! never trip a rule, and keeps comments as tokens so the classifier and
//! the suppression parser can see them. The same hand-rolled style as the
//! layout/query DSL lexers (`crates/layout/src/lexer.rs`), scaled up to
//! Rust's literal forms.

use std::fmt;

/// One scanned token with its 1-based source line.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Tok {
    /// Token kind/payload.
    pub kind: TokKind,
    /// 1-based line of the token's first character.
    pub line: usize,
}

/// Token kinds. Everything a rule never inspects is collapsed into the
/// simplest bucket that keeps token boundaries correct.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TokKind {
    /// Identifier or keyword (`unwrap`, `thread`, `fn`, ...).
    Ident(String),
    /// One punctuation character (`.`, `:`, `(`, `!`, ...). Multi-char
    /// operators appear as consecutive single-char tokens.
    Punct(char),
    /// A string literal (`"..."`, `r#"..."#`, `b"..."`); payload is the
    /// raw contents without quotes/escape processing.
    Str(String),
    /// A character or byte literal (`'a'`, `b'\n'`).
    Char,
    /// A lifetime (`'a`) or loop label.
    Lifetime(String),
    /// A numeric literal (payload dropped; rules only care that it is one).
    Num,
    /// A `//` line comment, payload without the leading slashes.
    LineComment(String),
    /// A `/* ... */` block comment (possibly spanning lines).
    BlockComment,
}

impl TokKind {
    /// Is this token a comment of either form?
    pub fn is_comment(&self) -> bool {
        matches!(self, TokKind::LineComment(_) | TokKind::BlockComment)
    }

    /// The identifier payload, if this is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match self {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }
}

impl fmt::Display for TokKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TokKind::Ident(s) => write!(f, "`{s}`"),
            TokKind::Punct(c) => write!(f, "`{c}`"),
            TokKind::Str(_) => write!(f, "string literal"),
            TokKind::Char => write!(f, "char literal"),
            TokKind::Lifetime(s) => write!(f, "'{s}"),
            TokKind::Num => write!(f, "numeric literal"),
            TokKind::LineComment(_) => write!(f, "line comment"),
            TokKind::BlockComment => write!(f, "block comment"),
        }
    }
}

/// Scan `src` into tokens. The scanner is total: unrecognized bytes become
/// `Punct` tokens rather than errors, so a stray character can never make
/// a whole file invisible to the rules.
pub fn scan(src: &str) -> Vec<Tok> {
    Scanner {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Scanner {
    chars: Vec<char>,
    pos: usize,
    line: usize,
    out: Vec<Tok>,
}

impl Scanner {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<char> {
        self.chars.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, line: usize) {
        self.out.push(Tok { kind, line });
    }

    fn run(mut self) -> Vec<Tok> {
        while let Some(c) = self.peek() {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek_at(1) == Some('/') => self.line_comment(line),
                '/' if self.peek_at(1) == Some('*') => self.block_comment(line),
                '"' => self.string(line),
                'r' | 'b' if self.starts_raw_or_byte_literal() => self.raw_or_byte_literal(line),
                '\'' => self.char_or_lifetime(line),
                c if c.is_ascii_digit() => self.number(line),
                c if c.is_alphabetic() || c == '_' => self.ident(line),
                other => {
                    self.bump();
                    self.push(TokKind::Punct(other), line);
                }
            }
        }
        self.out
    }

    fn line_comment(&mut self, line: usize) {
        self.bump();
        self.bump(); // the two slashes
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.push(TokKind::LineComment(text), line);
    }

    fn block_comment(&mut self, line: usize) {
        self.bump();
        self.bump(); // `/*`
        let mut depth = 1usize;
        while depth > 0 {
            match (self.peek(), self.peek_at(1)) {
                (Some('/'), Some('*')) => {
                    depth += 1;
                    self.bump();
                    self.bump();
                }
                (Some('*'), Some('/')) => {
                    depth -= 1;
                    self.bump();
                    self.bump();
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => break, // unterminated: tolerate
            }
        }
        self.push(TokKind::BlockComment, line);
    }

    fn string(&mut self, line: usize) {
        self.bump(); // opening quote
        let mut text = String::new();
        while let Some(c) = self.bump() {
            match c {
                '"' => break,
                '\\' => {
                    text.push(c);
                    if let Some(esc) = self.bump() {
                        text.push(esc);
                    }
                }
                c => text.push(c),
            }
        }
        self.push(TokKind::Str(text), line);
    }

    /// Does the cursor sit on `r"`, `r#`, `b"`, `b'`, `br"`, `br#`?
    /// (`rb` is not a Rust literal prefix.) Plain identifiers starting
    /// with `r`/`b` fall through to `ident`.
    fn starts_raw_or_byte_literal(&self) -> bool {
        matches!(
            (self.peek(), self.peek_at(1), self.peek_at(2)),
            (Some('r'), Some('"' | '#'), _)
                | (Some('b'), Some('"' | '\''), _)
                | (Some('b'), Some('r'), Some('"' | '#'))
        )
    }

    fn raw_or_byte_literal(&mut self, line: usize) {
        let mut raw = false;
        if self.peek() == Some('b') {
            self.bump();
        }
        if self.peek() == Some('r') {
            raw = true;
            self.bump();
        }
        if self.peek() == Some('\'') {
            // b'x' byte literal.
            self.bump();
            self.char_body();
            self.push(TokKind::Char, line);
            return;
        }
        if !raw {
            // b"..." — ordinary escaped string body.
            self.string(line);
            return;
        }
        // Raw string: count hashes, then scan to `"` followed by that many.
        let mut hashes = 0usize;
        while self.peek() == Some('#') {
            hashes += 1;
            self.bump();
        }
        let mut text = String::new();
        if self.peek() == Some('"') {
            self.bump();
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for i in 0..hashes {
                        if self.peek_at(i) != Some('#') {
                            text.push('"');
                            continue 'outer;
                        }
                    }
                    for _ in 0..hashes {
                        self.bump();
                    }
                    break;
                }
                text.push(c);
            }
        }
        self.push(TokKind::Str(text), line);
    }

    /// Consume the remainder of a char literal after the opening `'`.
    fn char_body(&mut self) {
        if self.bump() == Some('\\') {
            self.bump(); // the escaped character
        }
        // Closing quote (tolerate absence).
        if self.peek() == Some('\'') {
            self.bump();
        }
    }

    fn char_or_lifetime(&mut self, line: usize) {
        // `'a` (lifetime) vs `'a'` (char). A lifetime is `'` + ident not
        // followed by a closing `'`.
        self.bump(); // `'`
        let is_ident_start = self.peek().is_some_and(|c| c.is_alphabetic() || c == '_');
        if is_ident_start {
            // Look ahead past the identifier for a closing quote.
            let mut j = 0usize;
            while self
                .peek_at(j)
                .is_some_and(|c| c.is_alphanumeric() || c == '_')
            {
                j += 1;
            }
            if self.peek_at(j) != Some('\'') {
                let mut name = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        name.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                self.push(TokKind::Lifetime(name), line);
                return;
            }
        }
        self.char_body();
        self.push(TokKind::Char, line);
    }

    fn number(&mut self, line: usize) {
        // Digits, then `.` only when followed by a digit (so `1.max(2)`
        // leaves the dot as punctuation), then an alphanumeric suffix
        // (covers hex/exponents/type suffixes without validating them).
        while self
            .peek()
            .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
        {
            self.bump();
        }
        if self.peek() == Some('.') && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()) {
            self.bump();
            while self
                .peek()
                .is_some_and(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                self.bump();
            }
        }
        self.push(TokKind::Num, line);
    }

    fn ident(&mut self, line: usize) {
        let mut s = String::new();
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' {
                s.push(c);
                self.bump();
            } else {
                break;
            }
        }
        self.push(TokKind::Ident(s), line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokKind> {
        scan(src).into_iter().map(|t| t.kind).collect()
    }

    #[test]
    fn idents_and_punct() {
        assert_eq!(
            kinds("a.unwrap()"),
            vec![
                TokKind::Ident("a".into()),
                TokKind::Punct('.'),
                TokKind::Ident("unwrap".into()),
                TokKind::Punct('('),
                TokKind::Punct(')'),
            ]
        );
    }

    #[test]
    fn strings_are_opaque() {
        // Code-looking text inside a string must not produce idents.
        let toks = kinds(r#"let s = "x.unwrap() // not a comment";"#);
        assert!(toks
            .iter()
            .all(|t| t.ident() != Some("unwrap") && !t.is_comment()));
        assert!(toks.contains(&TokKind::Str("x.unwrap() // not a comment".into())));
    }

    #[test]
    fn raw_and_byte_strings() {
        assert!(kinds(r##"r#"a "quoted" b"#"##).contains(&TokKind::Str(r#"a "quoted" b"#.into())));
        assert!(kinds(r#"b"bytes\n""#).contains(&TokKind::Str("bytes\\n".into())));
        assert!(kinds("br#\"raw bytes\"#").contains(&TokKind::Str("raw bytes".into())));
        // Identifiers starting with r/b are still identifiers.
        assert_eq!(
            kinds("rate bytes"),
            vec![
                TokKind::Ident("rate".into()),
                TokKind::Ident("bytes".into())
            ]
        );
    }

    #[test]
    fn escaped_quote_in_string() {
        assert!(kinds(r#""a\"b""#).contains(&TokKind::Str(r#"a\"b"#.into())));
    }

    #[test]
    fn chars_vs_lifetimes() {
        assert_eq!(kinds("'a'"), vec![TokKind::Char]);
        assert_eq!(kinds("'\\n'"), vec![TokKind::Char]);
        assert_eq!(kinds("&'a str")[1], TokKind::Lifetime("a".into()));
        assert_eq!(kinds("b'\\0'"), vec![TokKind::Char]);
    }

    #[test]
    fn comments_kept_with_text() {
        let toks = scan("x // orv-lint: allow(L003) -- why\ny");
        assert_eq!(
            toks[1].kind,
            TokKind::LineComment(" orv-lint: allow(L003) -- why".into())
        );
        assert_eq!(toks[2].line, 2);
    }

    #[test]
    fn nested_block_comments() {
        let toks = kinds("a /* outer /* inner */ still */ b");
        assert_eq!(
            toks,
            vec![
                TokKind::Ident("a".into()),
                TokKind::BlockComment,
                TokKind::Ident("b".into()),
            ]
        );
    }

    #[test]
    fn numbers_do_not_eat_method_calls() {
        let toks = kinds("1.max(2) 1.5 0xFFu64 1_000");
        assert_eq!(toks[0], TokKind::Num);
        assert_eq!(toks[1], TokKind::Punct('.'));
        assert_eq!(toks[2], TokKind::Ident("max".into()));
        assert!(toks.contains(&TokKind::Punct('(')));
    }

    #[test]
    fn line_numbers_track_multiline_tokens() {
        let toks = scan("a\n/* two\nlines */\nb");
        assert_eq!(toks[0].line, 1);
        assert_eq!(toks[1].line, 2);
        assert_eq!(toks[2].line, 4);
    }

    #[test]
    fn unknown_bytes_are_tolerated() {
        // Total scanner: nothing panics, everything becomes a token.
        let toks = scan("§ @ #");
        assert_eq!(toks.len(), 3);
    }
}
