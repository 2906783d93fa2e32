//! A hand-rolled Rust token scanner.
//!
//! The build container has no crates.io access, so `syn`-style full parsing
//! is off the table; the rules in [`crate::rules`] only need a faithful
//! token stream with line numbers — identifiers, punctuation and brace
//! structure — with comments and every string/char literal form correctly
//! skipped (a `"Instant::now"` inside a string must never trip the
//! determinism rule). Suppression markers (`// davix-lint: allow(..)`)
//! live in comments, so the scanner collects those as a side channel
//! instead of discarding them with the comment text.

/// What a scanned token is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokKind {
    /// Identifier or keyword (`let`, `Instant`, `wait_for`, ...).
    Ident,
    /// A lifetime (`'a`, `'static`). Kept distinct so `'a` is never
    /// confused with a char literal.
    Lifetime,
    /// Any literal: string, raw string, byte string, char, number. The
    /// text is not preserved (rules never look inside literals).
    Literal,
    /// Punctuation. Single characters, except `::` which is joined into
    /// one token because every rule pattern is a `::` path.
    Punct,
}

/// One token with its 1-based source line.
#[derive(Debug, Clone)]
pub(crate) struct Token {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
}

impl Token {
    /// True when the token is the identifier `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokKind::Ident && self.text == s
    }

    /// True when the token is the punctuation `s`.
    pub(crate) fn is_punct(&self, s: &str) -> bool {
        self.kind == TokKind::Punct && self.text == s
    }
}

/// A suppression marker found in a comment:
/// `// davix-lint: allow(<rule>) — <reason>`.
#[derive(Debug, Clone)]
pub(crate) struct AllowMarker {
    /// The rule name inside `allow(...)`, verbatim.
    pub rule: String,
    /// The trimmed reason text after the closing paren, empty when the
    /// author forgot one (which is itself a finding: every exemption must
    /// be documented).
    pub reason: String,
    /// 1-based line the marker sits on.
    pub line: u32,
}

/// Scanner output: the token stream plus every allow marker.
#[derive(Debug, Default)]
pub(crate) struct Scanned {
    pub tokens: Vec<Token>,
    pub markers: Vec<AllowMarker>,
}

/// Scan `src` into tokens and markers. Never fails: unterminated literals
/// or comments simply end the scan at EOF — the linter degrades to fewer
/// findings rather than refusing a malformed file (rustc will reject it
/// anyway).
pub(crate) fn scan(src: &str) -> Scanned {
    Lexer { chars: src.chars().collect(), pos: 0, line: 1, out: Scanned::default() }.run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Scanned,
}

impl Lexer {
    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    fn peek2(&self) -> Option<char> {
        self.chars.get(self.pos + 1).copied()
    }

    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += 1;
        if c == '\n' {
            self.line += 1;
        }
        Some(c)
    }

    fn push(&mut self, kind: TokKind, text: String, line: u32) {
        self.out.tokens.push(Token { kind, text, line });
    }

    fn run(mut self) -> Scanned {
        while let Some(c) = self.peek() {
            let line = self.line;
            match c {
                c if c.is_whitespace() => {
                    self.bump();
                }
                '/' if self.peek2() == Some('/') => self.line_comment(),
                '/' if self.peek2() == Some('*') => self.block_comment(),
                '"' => {
                    self.bump();
                    self.string_body();
                    self.push(TokKind::Literal, String::new(), line);
                }
                'r' | 'b' if self.raw_or_byte_literal(line) => {}
                '\'' => self.char_or_lifetime(line),
                c if c.is_alphanumeric() || c == '_' => self.ident_or_number(line),
                ':' if self.peek2() == Some(':') => {
                    self.bump();
                    self.bump();
                    self.push(TokKind::Punct, "::".into(), line);
                }
                c => {
                    self.bump();
                    self.push(TokKind::Punct, c.to_string(), line);
                }
            }
        }
        self.out
    }

    /// `//` comment: consumed to end of line, mined for allow markers.
    fn line_comment(&mut self) {
        let line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek() {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.bump();
        }
        self.mine_marker(&text, line);
    }

    /// `/* ... */` comment with nesting, per the Rust grammar.
    fn block_comment(&mut self) {
        self.bump();
        self.bump();
        let mut depth = 1u32;
        while depth > 0 {
            match (self.peek(), self.peek2()) {
                (Some('/'), Some('*')) => {
                    self.bump();
                    self.bump();
                    depth += 1;
                }
                (Some('*'), Some('/')) => {
                    self.bump();
                    self.bump();
                    depth -= 1;
                }
                (Some(_), _) => {
                    self.bump();
                }
                (None, _) => return,
            }
        }
    }

    /// Body of a `"..."` string after the opening quote.
    fn string_body(&mut self) {
        while let Some(c) = self.bump() {
            match c {
                '\\' => {
                    self.bump();
                }
                '"' => return,
                _ => {}
            }
        }
    }

    /// Handles `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'…'`. Returns false
    /// when the leading `r`/`b` is actually the start of an identifier, in
    /// which case nothing was consumed.
    fn raw_or_byte_literal(&mut self, line: u32) -> bool {
        let start = self.pos;
        let mut idx = self.pos;
        if self.chars.get(idx) == Some(&'b') {
            idx += 1;
        }
        let raw = self.chars.get(idx) == Some(&'r');
        if raw {
            idx += 1;
        }
        let mut hashes = 0usize;
        while self.chars.get(idx) == Some(&'#') {
            hashes += 1;
            idx += 1;
        }
        match self.chars.get(idx) {
            Some('"') if raw || hashes == 0 => {}
            Some('\'') if !raw && hashes == 0 && self.chars.get(start) == Some(&'b') => {
                // b'x' byte char: delegate to the char scanner.
                self.bump(); // the `b`
                self.char_or_lifetime(line);
                return true;
            }
            _ => return false,
        }
        // Consume up to and including the opening quote.
        while self.pos <= idx {
            self.bump();
        }
        if raw {
            // Raw string: ends at `"` followed by `hashes` hash marks.
            'outer: while let Some(c) = self.bump() {
                if c == '"' {
                    for _ in 0..hashes {
                        if self.peek() != Some('#') {
                            continue 'outer;
                        }
                        self.bump();
                    }
                    break;
                }
            }
        } else {
            self.string_body();
        }
        self.push(TokKind::Literal, String::new(), line);
        true
    }

    /// A `'` starts either a char literal or a lifetime. `'a'` is a char;
    /// `'a` followed by anything but `'` is a lifetime.
    fn char_or_lifetime(&mut self, line: u32) {
        self.bump(); // opening quote
        match self.peek() {
            Some('\\') => {
                // Escaped char literal: consume escape then closing quote.
                self.bump();
                self.bump();
                if self.peek() == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::Literal, String::new(), line);
            }
            Some(c) if c.is_alphanumeric() || c == '_' => {
                let mut text = String::new();
                while let Some(c) = self.peek() {
                    if c.is_alphanumeric() || c == '_' {
                        text.push(c);
                        self.bump();
                    } else {
                        break;
                    }
                }
                if self.peek() == Some('\'') && text.chars().count() == 1 {
                    self.bump();
                    self.push(TokKind::Literal, String::new(), line);
                } else {
                    self.push(TokKind::Lifetime, text, line);
                }
            }
            _ => {
                // `'('`-style punctuation char literal.
                self.bump();
                if self.peek() == Some('\'') {
                    self.bump();
                }
                self.push(TokKind::Literal, String::new(), line);
            }
        }
    }

    fn ident_or_number(&mut self, line: u32) {
        let mut text = String::new();
        let numeric = self.peek().is_some_and(|c| c.is_ascii_digit());
        while let Some(c) = self.peek() {
            if c.is_alphanumeric() || c == '_' || (numeric && c == '.') {
                // `1.5` stays one literal; `a.b` must split on the dot.
                if c == '.' && self.peek2() == Some('.') {
                    break; // range `0..n`
                }
                text.push(c);
                self.bump();
            } else {
                break;
            }
        }
        if numeric {
            self.push(TokKind::Literal, text, line);
        } else {
            self.push(TokKind::Ident, text, line);
        }
    }

    /// Extract a `davix-lint: allow(<rule>) — <reason>` marker from a line
    /// comment's text. The marker must be the first thing in the comment
    /// (after the `//`/`///`/`//!` introducer) — prose *mentioning* the
    /// syntax, as this sentence does, is not a marker.
    fn mine_marker(&mut self, comment: &str, line: u32) {
        let body = comment.trim_start_matches('/').trim_start_matches('!').trim_start();
        let Some(rest) = body.strip_prefix("davix-lint:") else { return };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix("allow") else { return };
        let rest = rest.trim_start();
        let Some(rest) = rest.strip_prefix('(') else { return };
        let Some(close) = rest.find(')') else { return };
        let rule = rest[..close].trim().to_string();
        let mut reason = rest[close + 1..].trim();
        // The documented form is `— <reason>`; a plain hyphen or colon
        // separator is accepted too. What matters is that a reason exists.
        for sep in ["—", "–", "-", ":"] {
            if let Some(r) = reason.strip_prefix(sep) {
                reason = r.trim();
                break;
            }
        }
        self.out.markers.push(AllowMarker { rule, reason: reason.to_string(), line });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        scan(src).tokens.into_iter().filter(|t| t.kind == TokKind::Ident).map(|t| t.text).collect()
    }

    #[test]
    fn strings_and_comments_are_opaque() {
        let src = r##"
            // Instant::now in a comment
            /* thread::sleep in /* a nested */ block */
            let a = "Instant::now()";
            let b = r#"thread::spawn"#;
            let c = b"SystemTime";
            let d = 'x';
            let e: &'static str = "s";
        "##;
        let ids = idents(src);
        assert!(!ids.iter().any(|i| i == "Instant" || i == "sleep" || i == "spawn"));
        assert!(ids.contains(&"let".to_string()));
    }

    #[test]
    fn lifetimes_do_not_eat_code() {
        let toks = scan("fn f<'a>(x: &'a str) { x.wait() }").tokens;
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime && t.text == "a"));
        assert!(toks.iter().any(|t| t.is_ident("wait")));
    }

    #[test]
    fn double_colon_is_one_token() {
        let toks = scan("Instant::now()").tokens;
        assert!(toks[1].is_punct("::"));
        assert!(toks[0].is_ident("Instant") && toks[2].is_ident("now"));
    }

    #[test]
    fn lines_are_tracked() {
        let toks = scan("a\nb\nc").tokens;
        assert_eq!(toks.iter().map(|t| t.line).collect::<Vec<_>>(), vec![1, 2, 3]);
    }

    #[test]
    fn markers_are_mined_with_reason() {
        let s = scan("x(); // davix-lint: allow(determinism) — bench wall time\n");
        assert_eq!(s.markers.len(), 1);
        assert_eq!(s.markers[0].rule, "determinism");
        assert_eq!(s.markers[0].reason, "bench wall time");
        assert_eq!(s.markers[0].line, 1);
    }

    #[test]
    fn marker_without_reason_has_empty_reason() {
        let s = scan("// davix-lint: allow(lock-discipline)\n");
        assert_eq!(s.markers.len(), 1);
        assert!(s.markers[0].reason.is_empty());
    }

    #[test]
    fn raw_ident_prefix_r_is_still_ident() {
        let ids = idents("rate r2 br0ken");
        assert_eq!(ids, vec!["rate", "r2", "br0ken"]);
    }

    #[test]
    fn numbers_are_literals() {
        let toks = scan("1.5 + x0").tokens;
        assert_eq!(toks[0].kind, TokKind::Literal);
        assert!(toks[2].is_ident("x0"));
    }
}
