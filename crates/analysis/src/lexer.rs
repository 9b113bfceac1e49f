//! A hand-rolled, dependency-free lexer for Rust source.
//!
//! The rules in this crate reason about *token* streams, never raw
//! text: a name inside a doc comment, a string literal, or a raw
//! string is not a caller, and `.lock()` inside one is no guard. The lexer therefore understands every
//! construct that can hide arbitrary text inside a Rust file —
//! line/doc comments, (nested) block comments, plain and raw strings
//! with arbitrary hash fences, byte strings, char literals — and
//! disambiguates lifetimes (`'a`) from char literals (`'a'`), which is
//! the one genuinely ambiguous spot in Rust's lexical grammar.
//!
//! Comments are not discarded: they come back in a side channel
//! ([`Lexed::comments`]) because the allow-directive syntax
//! (`// vitcod-lint: allow(V00x, reason)`) lives in them.

/// What a [`Token`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokenKind {
    /// Identifier or keyword (`fn`, `unwrap`, `self`, …).
    Ident,
    /// Lifetime (`'a`, `'static`) — *not* a char literal.
    Lifetime,
    /// Character literal (`'x'`, `'\n'`, `'\u{1F600}'`).
    CharLit,
    /// String literal of any flavour (`"…"`, `r#"…"#`, `b"…"`).
    StrLit,
    /// Numeric literal, integer or float.
    NumLit,
    /// A single punctuation byte (`.`, `(`, `[`, `=`, …).
    Punct,
}

/// One lexed token with its source position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Kind of token.
    pub kind: TokenKind,
    /// The token's text, as written (escapes unprocessed).
    pub text: String,
    /// 1-based line the token starts on.
    pub line: u32,
}

impl Token {
    /// Whether this is the identifier or punctuation `s`.
    pub fn is(&self, s: &str) -> bool {
        self.text == s
    }
}

/// One comment, for directive scanning.
#[derive(Debug, Clone)]
pub struct Comment {
    /// Comment text including its delimiters.
    pub text: String,
    /// 1-based line the comment starts on.
    pub line: u32,
    /// Whether any token precedes the comment on its starting line
    /// (trailing comments attach to their own line; leading comments
    /// attach to the next code line).
    pub has_code_before: bool,
}

/// Lexer output: code tokens plus the comment side channel.
#[derive(Debug, Default)]
pub struct Lexed {
    /// Code tokens, comments and whitespace stripped.
    pub tokens: Vec<Token>,
    /// Comments, in source order.
    pub comments: Vec<Comment>,
}

/// Lexes `source`. Unterminated constructs never panic: the lexer
/// consumes to end of input and returns what it has (a linter must
/// degrade gracefully on code `rustc` would reject).
pub fn lex(source: &str) -> Lexed {
    Lexer {
        bytes: source.as_bytes(),
        pos: 0,
        line: 1,
        last_token_line: 0,
        out: Lexed::default(),
    }
    .run()
}

struct Lexer<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: u32,
    /// Line of the most recent code token (trailing-comment detection).
    last_token_line: u32,
    out: Lexed,
}

impl Lexer<'_> {
    fn run(mut self) -> Lexed {
        while let Some(&b) = self.bytes.get(self.pos) {
            match b {
                b'\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                b if b.is_ascii_whitespace() => self.pos += 1,
                b'/' if self.peek(1) == Some(b'/') => self.line_comment(),
                b'/' if self.peek(1) == Some(b'*') => self.block_comment(),
                b'\'' => self.lifetime_or_char(),
                b'"' => self.string(self.pos),
                b'r' | b'b' | b'c' if self.starts_literal_prefix() => self.prefixed_literal(),
                b if b == b'_' || b.is_ascii_alphabetic() || b >= 0x80 => self.ident(),
                b if b.is_ascii_digit() => self.number(),
                _ => {
                    self.push(TokenKind::Punct, self.pos, self.pos + 1);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<u8> {
        self.bytes.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, start: usize, end: usize) {
        let text = String::from_utf8_lossy(&self.bytes[start..end]).into_owned();
        self.out.tokens.push(Token {
            kind,
            text,
            line: self.line,
        });
        self.last_token_line = self.line;
    }

    fn line_comment(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\n' {
                break;
            }
            self.pos += 1;
        }
        self.out.comments.push(Comment {
            text: String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
            line: start_line,
            has_code_before: self.last_token_line == start_line,
        });
    }

    fn block_comment(&mut self) {
        let start = self.pos;
        let start_line = self.line;
        let had_code = self.last_token_line == self.line;
        self.pos += 2;
        let mut depth = 1usize;
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b'\n' {
                self.line += 1;
                self.pos += 1;
            } else if b == b'/' && self.peek(1) == Some(b'*') {
                depth += 1;
                self.pos += 2;
            } else if b == b'*' && self.peek(1) == Some(b'/') {
                depth -= 1;
                self.pos += 2;
                if depth == 0 {
                    break;
                }
            } else {
                self.pos += 1;
            }
        }
        self.out.comments.push(Comment {
            text: String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned(),
            line: start_line,
            has_code_before: had_code,
        });
    }

    /// `'` starts either a lifetime or a char literal. A char literal
    /// closes with `'` after one (possibly escaped) character; a
    /// lifetime is `'` + identifier with no closing quote.
    fn lifetime_or_char(&mut self) {
        let start = self.pos;
        match self.peek(1) {
            // `'\…'` — always a char literal.
            Some(b'\\') => {
                self.pos += 2; // past '\
                while let Some(&b) = self.bytes.get(self.pos) {
                    self.pos += 1;
                    if b == b'\'' {
                        break;
                    }
                    if b == b'\n' {
                        self.line += 1;
                        break; // unterminated; bail at EOL
                    }
                }
                self.push_span(TokenKind::CharLit, start);
            }
            Some(c) if c == b'_' || c.is_ascii_alphanumeric() => {
                // Run of identifier chars after the quote.
                let mut end = self.pos + 2;
                while self
                    .bytes
                    .get(end)
                    .is_some_and(|&b| b == b'_' || b.is_ascii_alphanumeric())
                {
                    end += 1;
                }
                if self.bytes.get(end) == Some(&b'\'') {
                    // `'a'`, `'字'` … closed: char literal.
                    self.pos = end + 1;
                    self.push_span(TokenKind::CharLit, start);
                } else {
                    // `'a`, `'static` … unclosed: lifetime.
                    self.pos = end;
                    self.push_span(TokenKind::Lifetime, start);
                }
            }
            // `'('`-style single-punct char literal, or a stray quote.
            Some(_) if self.peek(2) == Some(b'\'') => {
                self.pos += 3;
                self.push_span(TokenKind::CharLit, start);
            }
            _ => {
                self.pos += 1;
                self.push(TokenKind::Punct, start, self.pos);
            }
        }
    }

    fn push_span(&mut self, kind: TokenKind, start: usize) {
        self.push(kind, start, self.pos);
    }

    /// Whether the `r`/`b`/`c` at `pos` prefixes a string literal
    /// (`r"`, `r#"`, `br"`, `b"`, `b'`, `c"` …) rather than starting an
    /// identifier (including raw identifiers like `r#match`).
    fn starts_literal_prefix(&self) -> bool {
        let rest = &self.bytes[self.pos..];
        let after_prefix = |mut i: usize| -> Option<u8> {
            // Skip hash fence for raw forms.
            if rest.get(i) == Some(&b'#') {
                while rest.get(i) == Some(&b'#') {
                    i += 1;
                }
                // `r#ident` (raw identifier) has no quote after hashes.
                return rest.get(i).copied().filter(|&b| b == b'"');
            }
            rest.get(i).copied().filter(|&b| b == b'"' || b == b'\'')
        };
        match rest.first() {
            Some(b'r') | Some(b'c') => after_prefix(1).is_some(),
            Some(b'b') => match rest.get(1) {
                Some(b'r') => after_prefix(2) == Some(b'"'),
                Some(b'"') | Some(b'\'') => true,
                _ => false,
            },
            _ => false,
        }
    }

    /// Lexes `r"…"`, `r#"…"#`, `b"…"`, `br#"…"#`, `b'x'`, `c"…"`.
    fn prefixed_literal(&mut self) {
        let start = self.pos;
        // Consume the letter prefix.
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b == b'r' || b == b'b' || b == b'c')
        {
            self.pos += 1;
            if self.pos - start >= 2 {
                break;
            }
        }
        let raw = self.bytes[start..self.pos].contains(&b'r');
        if raw {
            let mut hashes = 0usize;
            while self.bytes.get(self.pos) == Some(&b'#') {
                hashes += 1;
                self.pos += 1;
            }
            self.pos += 1; // opening quote
                           // Raw string: ends at `"` followed by `hashes` hashes.
            while let Some(&b) = self.bytes.get(self.pos) {
                if b == b'\n' {
                    self.line += 1;
                }
                if b == b'"' {
                    let mut k = 0usize;
                    while k < hashes && self.bytes.get(self.pos + 1 + k) == Some(&b'#') {
                        k += 1;
                    }
                    if k == hashes {
                        self.pos += 1 + hashes;
                        self.push_span(TokenKind::StrLit, start);
                        return;
                    }
                }
                self.pos += 1;
            }
            self.push_span(TokenKind::StrLit, start); // unterminated
        } else if self.bytes.get(self.pos) == Some(&b'\'') {
            // Byte char literal `b'x'`.
            self.pos += 1;
            self.char_body();
            self.push_span(TokenKind::CharLit, start);
        } else {
            self.string(start);
        }
    }

    /// Consumes a (possibly escaped) char-literal body up to and
    /// including the closing quote.
    fn char_body(&mut self) {
        let mut escaped = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                return;
            }
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'\'' {
                return;
            }
        }
    }

    /// Lexes a plain `"…"` string starting the token at `tok_start`
    /// (which may precede `pos` by a `b`/`c` prefix).
    fn string(&mut self, tok_start: usize) {
        self.pos += 1; // opening quote
        let mut escaped = false;
        while let Some(&b) = self.bytes.get(self.pos) {
            self.pos += 1;
            if b == b'\n' {
                self.line += 1;
                escaped = false;
                continue;
            }
            if escaped {
                escaped = false;
            } else if b == b'\\' {
                escaped = true;
            } else if b == b'"' {
                break;
            }
        }
        self.push_span(TokenKind::StrLit, tok_start);
    }

    fn ident(&mut self) {
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b == b'_' || b.is_ascii_alphanumeric() || b >= 0x80)
        {
            self.pos += 1;
        }
        self.push_span(TokenKind::Ident, start);
    }

    fn number(&mut self) {
        let start = self.pos;
        let radix_prefixed = self.bytes[self.pos] == b'0'
            && matches!(self.peek(1), Some(b'x') | Some(b'o') | Some(b'b'));
        if radix_prefixed {
            self.pos += 2;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
            {
                self.pos += 1;
            }
            self.push_span(TokenKind::NumLit, start);
            return;
        }
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_digit() || b == b'_')
        {
            self.pos += 1;
        }
        // Fraction — but `1..2` is a range and `1.method()` a call.
        if self.bytes.get(self.pos) == Some(&b'.')
            && self.peek(1).is_some_and(|b| b.is_ascii_digit())
        {
            self.pos += 1;
            while self
                .bytes
                .get(self.pos)
                .is_some_and(|&b| b.is_ascii_digit() || b == b'_')
            {
                self.pos += 1;
            }
        } else if self.bytes.get(self.pos) == Some(&b'.')
            && !self
                .peek(1)
                .is_some_and(|b| b == b'.' || b == b'_' || b.is_ascii_alphabetic())
        {
            // Trailing-dot float like `1.`.
            self.pos += 1;
        }
        // Exponent.
        if self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b == b'e' || b == b'E')
            && self
                .peek(1)
                .is_some_and(|b| b.is_ascii_digit() || b == b'+' || b == b'-')
        {
            self.pos += 1;
            if matches!(self.bytes.get(self.pos), Some(b'+') | Some(b'-')) {
                self.pos += 1;
            }
            while self.bytes.get(self.pos).is_some_and(|b| b.is_ascii_digit()) {
                self.pos += 1;
            }
        }
        // Type suffix (`f32`, `u64`, …).
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
        {
            self.pos += 1;
        }
        self.push_span(TokenKind::NumLit, start);
    }
}
