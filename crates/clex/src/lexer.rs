//! The lexer proper: turns C source text into a token stream.

use std::collections::HashSet;

use crate::defines::MacroDef;
use crate::error::LexError;
use crate::keywords::Keyword;
use crate::token::{PpKind, Punct, Span, Symbol, Token, TokenKind};

/// Configuration for a [`Lexer`].
#[derive(Debug, Clone, Copy)]
pub struct LexOptions {
    /// Emit [`TokenKind::Comment`] tokens instead of discarding comments.
    pub keep_comments: bool,
    /// Emit [`TokenKind::PpDirective`] tokens instead of discarding
    /// preprocessor lines.
    pub keep_preprocessor: bool,
}

impl Default for LexOptions {
    fn default() -> Self {
        LexOptions {
            keep_comments: false,
            keep_preprocessor: true,
        }
    }
}

/// A streaming lexer over a single source file.
///
/// The lexer is lossless with respect to positions: every token carries a
/// [`Span`] into the original text. It never fails hard — unexpected bytes
/// are reported through [`Lexer::errors`] and skipped, so downstream
/// consumers always receive a best-effort token stream (the same
/// error-tolerance philosophy the paper needed to process a tree that
/// cannot be compiled whole).
///
/// # Examples
///
/// ```
/// use refminer_clex::{Lexer, TokenKind};
///
/// let tokens = Lexer::new("int x = 42;").tokenize();
/// assert_eq!(tokens.len(), 5);
/// assert!(matches!(tokens[0].kind, TokenKind::Keyword(_)));
/// ```
pub struct Lexer<'a> {
    src: &'a [u8],
    text: &'a str,
    pos: usize,
    line: u32,
    col: u32,
    opts: LexOptions,
    errors: Vec<LexError>,
    /// Per-file identifier interner: one allocation per distinct
    /// spelling; every further occurrence is a refcount bump.
    interner: HashSet<Symbol>,
    /// The `#define`s lexed so far, when the caller asked for them.
    defines: Option<Vec<MacroDef>>,
}

impl<'a> Lexer<'a> {
    /// Creates a lexer with default options.
    pub fn new(text: &'a str) -> Self {
        Self::with_options(text, LexOptions::default())
    }

    /// Creates a lexer with explicit options.
    pub fn with_options(text: &'a str, opts: LexOptions) -> Self {
        Lexer {
            src: text.as_bytes(),
            text,
            pos: 0,
            line: 1,
            col: 1,
            opts,
            errors: Vec::new(),
            interner: HashSet::new(),
            defines: None,
        }
    }

    /// Returns the interned form of `text`, allocating only on the
    /// first occurrence per file.
    fn intern(&mut self, text: &str) -> Symbol {
        if let Some(s) = self.interner.get(text) {
            s.clone()
        } else {
            let s: Symbol = Symbol::from(text);
            self.interner.insert(s.clone());
            s
        }
    }

    /// Lexes the whole input, returning the tokens.
    pub fn tokenize(mut self) -> Vec<Token> {
        let mut out = Vec::new();
        while let Some(tok) = self.next_token() {
            out.push(tok);
        }
        out
    }

    /// Lexes the whole input, returning tokens and any recovered errors.
    pub fn tokenize_with_errors(mut self) -> (Vec<Token>, Vec<LexError>) {
        let mut out = Vec::new();
        while let Some(tok) = self.next_token() {
            out.push(tok);
        }
        (out, self.errors)
    }

    /// Lexes at most `max_tokens` tokens — the resource guard the audit
    /// pipeline uses against pathological inputs (macro bombs, binary
    /// garbage that lexes to endless one-byte tokens). The final `bool`
    /// reports whether the input was truncated at the cap.
    pub fn tokenize_limited(mut self, max_tokens: usize) -> (Vec<Token>, Vec<LexError>, bool) {
        let (out, truncated) = self.lex_capped(max_tokens);
        (out, self.errors, truncated)
    }

    /// Like [`Lexer::tokenize_limited`], additionally returning every
    /// `#define` the lexer walked over, in source order — the parse's
    /// one lex doubles as the smartloop scan of §6.1. Directives are
    /// collected whether or not they are also kept as tokens; when they
    /// are dropped, as in the parser's lex, they never count toward
    /// `max_tokens`. Directives past a truncation point are never
    /// reached; a caller that needs them all after a truncated lex
    /// runs [`crate::scan_defines`].
    pub fn tokenize_limited_with_defines(
        mut self,
        max_tokens: usize,
    ) -> (Vec<Token>, Vec<LexError>, bool, Vec<MacroDef>) {
        self.defines = Some(Vec::new());
        let (out, truncated) = self.lex_capped(max_tokens);
        (
            out,
            self.errors,
            truncated,
            self.defines.unwrap_or_default(),
        )
    }

    /// Lexes at most `max_tokens` tokens; the `bool` reports whether
    /// input was left over at the cap.
    fn lex_capped(&mut self, max_tokens: usize) -> (Vec<Token>, bool) {
        let mut out = Vec::new();
        while let Some(tok) = self.next_token() {
            out.push(tok);
            if out.len() >= max_tokens {
                // Anything left beyond whitespace means we cut off.
                self.skip_whitespace();
                let truncated = self.peek().is_some();
                return (out, truncated);
            }
        }
        (out, false)
    }

    /// Errors recovered so far.
    pub fn errors(&self) -> &[LexError] {
        &self.errors
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }

    fn span_from(&self, start: usize, line: u32, col: u32) -> Span {
        Span {
            start: start as u32,
            end: self.pos as u32,
            line,
            col,
        }
    }

    fn skip_whitespace(&mut self) {
        while let Some(b) = self.peek() {
            match b {
                b' ' | b'\t' | b'\r' | b'\n' | 0x0b | 0x0c => {
                    self.bump();
                }
                // A lone backslash-newline (line continuation outside a
                // directive) is whitespace for our purposes.
                b'\\' if matches!(self.peek_at(1), Some(b'\n') | Some(b'\r')) => {
                    self.bump();
                    if self.peek() == Some(b'\r') {
                        self.bump();
                    }
                    if self.peek() == Some(b'\n') {
                        self.bump();
                    }
                }
                _ => break,
            }
        }
    }

    /// Returns the next token, or `None` at end of input.
    pub fn next_token(&mut self) -> Option<Token> {
        loop {
            self.skip_whitespace();
            let start = self.pos;
            let (line, col) = (self.line, self.col);
            let b = self.peek()?;

            // Comments.
            if b == b'/' && self.peek_at(1) == Some(b'/') {
                while let Some(c) = self.peek() {
                    if c == b'\n' {
                        break;
                    }
                    self.bump();
                }
                if self.opts.keep_comments {
                    let text = self.text[start..self.pos].to_string();
                    return Some(Token {
                        kind: TokenKind::Comment(text),
                        span: self.span_from(start, line, col),
                    });
                }
                continue;
            }
            if b == b'/' && self.peek_at(1) == Some(b'*') {
                self.bump();
                self.bump();
                loop {
                    match self.peek() {
                        None => {
                            self.errors
                                .push(LexError::UnterminatedComment { line, col });
                            break;
                        }
                        Some(b'*') if self.peek_at(1) == Some(b'/') => {
                            self.bump();
                            self.bump();
                            break;
                        }
                        _ => {
                            self.bump();
                        }
                    }
                }
                if self.opts.keep_comments {
                    let text = self.text[start..self.pos].to_string();
                    return Some(Token {
                        kind: TokenKind::Comment(text),
                        span: self.span_from(start, line, col),
                    });
                }
                continue;
            }

            // Preprocessor directives (only when `#` is the first
            // non-whitespace byte of the line, which `col` tracks after
            // whitespace skipping well enough for kernel style).
            if b == b'#' {
                let tok = self.lex_pp_line(start, line, col);
                if let Some(defines) = &mut self.defines {
                    defines.extend(MacroDef::of_token(&tok));
                }
                if self.opts.keep_preprocessor {
                    return Some(tok);
                }
                continue;
            }

            match self.lex_normal(start, line, col) {
                Some(tok) => return Some(tok),
                // A stray byte was consumed and recorded; keep scanning
                // from the next byte (loop, not recursion, so a run of
                // garbage bytes cannot overflow the stack).
                None => continue,
            }
        }
    }

    /// Consumes a whole preprocessor logical line (splicing backslash
    /// continuations) and classifies the directive.
    fn lex_pp_line(&mut self, start: usize, line: u32, col: u32) -> Token {
        let mut raw = String::new();
        loop {
            match self.peek() {
                None => break,
                Some(b'\\') => {
                    // Continuation: splice out backslash-newline.
                    if matches!(self.peek_at(1), Some(b'\n') | Some(b'\r')) {
                        self.bump();
                        if self.peek() == Some(b'\r') {
                            self.bump();
                        }
                        if self.peek() == Some(b'\n') {
                            self.bump();
                        }
                        raw.push(' ');
                    } else {
                        raw.push('\\');
                        self.bump();
                    }
                }
                Some(b'\n') => break,
                // Block comment inside a directive: skip it so `raw`
                // stays a clean logical line.
                Some(b'/') if self.peek_at(1) == Some(b'*') => {
                    self.bump();
                    self.bump();
                    while let Some(c) = self.peek() {
                        if c == b'*' && self.peek_at(1) == Some(b'/') {
                            self.bump();
                            self.bump();
                            break;
                        }
                        self.bump();
                    }
                    raw.push(' ');
                }
                Some(b'/') if self.peek_at(1) == Some(b'/') => {
                    while let Some(c) = self.peek() {
                        if c == b'\n' {
                            break;
                        }
                        self.bump();
                    }
                }
                Some(c) => {
                    raw.push(c as char);
                    self.bump();
                }
            }
        }
        let body = raw.trim_start_matches('#').trim_start();
        let kind = if body.starts_with("include") {
            PpKind::Include
        } else if body.starts_with("define") {
            PpKind::Define
        } else if body.starts_with("undef") {
            PpKind::Undef
        } else if body.starts_with("if") {
            PpKind::If
        } else if body.starts_with("el") {
            PpKind::Else
        } else if body.starts_with("endif") {
            PpKind::Endif
        } else if body.starts_with("pragma") {
            PpKind::Pragma
        } else {
            PpKind::Other
        };
        Token {
            kind: TokenKind::PpDirective { kind, raw },
            span: self.span_from(start, line, col),
        }
    }

    /// Lexes one non-directive token. Returns `None` after consuming a
    /// stray byte (recorded in `errors`) so the caller's loop retries.
    fn lex_normal(&mut self, start: usize, line: u32, col: u32) -> Option<Token> {
        let b = self.peek()?;
        // Wide string/char literals must be checked before identifiers,
        // since `L` is also a valid identifier start.
        if (b == b'L' || b == b'u' || b == b'U')
            && matches!(self.peek_at(1), Some(b'"') | Some(b'\''))
        {
            self.bump();
            return Some(if self.peek() == Some(b'"') {
                self.lex_string(start, line, col)
            } else {
                self.lex_char(start, line, col)
            });
        }
        if b.is_ascii_alphabetic() || b == b'_' || b == b'$' {
            return Some(self.lex_ident(start, line, col));
        }
        if b.is_ascii_digit() || (b == b'.' && self.peek_at(1).is_some_and(|c| c.is_ascii_digit()))
        {
            return Some(self.lex_number(start, line, col));
        }
        if b == b'"' {
            return Some(self.lex_string(start, line, col));
        }
        if b == b'\'' {
            return Some(self.lex_char(start, line, col));
        }
        self.lex_punct(start, line, col)
    }

    fn lex_ident(&mut self, start: usize, line: u32, col: u32) -> Token {
        while let Some(b) = self.peek() {
            if b.is_ascii_alphanumeric() || b == b'_' || b == b'$' {
                self.bump();
            } else {
                break;
            }
        }
        // `self.text` is a `&'a str`; copying the reference out lets
        // the slice outlive the `&mut self` call into the interner.
        let full: &str = self.text;
        let text = &full[start..self.pos];
        let kind = match Keyword::from_str(text) {
            Some(k) => TokenKind::Keyword(k),
            None => TokenKind::Ident(self.intern(text)),
        };
        Token {
            kind,
            span: self.span_from(start, line, col),
        }
    }

    fn lex_number(&mut self, start: usize, line: u32, col: u32) -> Token {
        let mut is_float = false;
        // Hex / binary / octal prefix.
        if self.peek() == Some(b'0')
            && matches!(
                self.peek_at(1),
                Some(b'x') | Some(b'X') | Some(b'b') | Some(b'B')
            )
        {
            self.bump();
            self.bump();
            while let Some(b) = self.peek() {
                if b.is_ascii_hexdigit() {
                    self.bump();
                } else {
                    break;
                }
            }
        } else {
            while let Some(b) = self.peek() {
                match b {
                    b'0'..=b'9' => {
                        self.bump();
                    }
                    b'.' => {
                        is_float = true;
                        self.bump();
                    }
                    b'e' | b'E' => {
                        // Exponent only if followed by digit or sign.
                        match self.peek_at(1) {
                            Some(c) if c.is_ascii_digit() || c == b'+' || c == b'-' => {
                                is_float = true;
                                self.bump();
                                self.bump();
                            }
                            _ => break,
                        }
                    }
                    _ => break,
                }
            }
        }
        // Suffixes: u, l, ll, f, ull, etc.
        while let Some(b) = self.peek() {
            match b {
                b'u' | b'U' | b'l' | b'L' => {
                    self.bump();
                }
                b'f' | b'F' if is_float => {
                    self.bump();
                }
                _ => break,
            }
        }
        let raw = self.text[start..self.pos].to_string();
        let span = self.span_from(start, line, col);
        if is_float {
            return Token {
                kind: TokenKind::FloatLit(raw),
                span,
            };
        }
        let digits = raw.trim_end_matches(['u', 'U', 'l', 'L']);
        let value = if let Some(hex) = digits
            .strip_prefix("0x")
            .or_else(|| digits.strip_prefix("0X"))
        {
            i64::from_str_radix(hex, 16).unwrap_or(i64::MAX)
        } else if let Some(bin) = digits
            .strip_prefix("0b")
            .or_else(|| digits.strip_prefix("0B"))
        {
            i64::from_str_radix(bin, 2).unwrap_or(i64::MAX)
        } else if digits.len() > 1 && digits.starts_with('0') {
            i64::from_str_radix(&digits[1..], 8).unwrap_or(i64::MAX)
        } else {
            digits.parse::<i64>().unwrap_or(i64::MAX)
        };
        Token {
            kind: TokenKind::IntLit { value, raw },
            span,
        }
    }

    fn lex_string(&mut self, start: usize, line: u32, col: u32) -> Token {
        self.bump(); // Opening quote.
        let body_start = self.pos;
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    self.errors.push(LexError::UnterminatedString { line, col });
                    break;
                }
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(b'"') => break,
                _ => {
                    self.bump();
                }
            }
        }
        let body = self.text[body_start..self.pos].to_string();
        if self.peek() == Some(b'"') {
            self.bump();
        }
        Token {
            kind: TokenKind::StrLit(body),
            span: self.span_from(start, line, col),
        }
    }

    fn lex_char(&mut self, start: usize, line: u32, col: u32) -> Token {
        self.bump(); // Opening quote.
        let body_start = self.pos;
        loop {
            match self.peek() {
                None | Some(b'\n') => {
                    self.errors.push(LexError::UnterminatedChar { line, col });
                    break;
                }
                Some(b'\\') => {
                    self.bump();
                    self.bump();
                }
                Some(b'\'') => break,
                _ => {
                    self.bump();
                }
            }
        }
        let body = self.text[body_start..self.pos].to_string();
        if self.peek() == Some(b'\'') {
            self.bump();
        }
        Token {
            kind: TokenKind::CharLit(body),
            span: self.span_from(start, line, col),
        }
    }

    fn lex_punct(&mut self, start: usize, line: u32, col: u32) -> Option<Token> {
        use Punct::*;
        let b = self.bump()?;
        let b1 = self.peek();
        let b2 = self.peek_at(1);
        let mut take = |n: usize, p: Punct| {
            for _ in 0..n {
                self.bump();
            }
            p
        };
        let p = match b {
            b'(' => LParen,
            b')' => RParen,
            b'{' => LBrace,
            b'}' => RBrace,
            b'[' => LBracket,
            b']' => RBracket,
            b';' => Semi,
            b',' => Comma,
            b'?' => Question,
            b':' => Colon,
            b'~' => Tilde,
            b'.' => {
                if b1 == Some(b'.') && b2 == Some(b'.') {
                    take(2, Ellipsis)
                } else {
                    Dot
                }
            }
            b'-' => match b1 {
                Some(b'>') => take(1, Arrow),
                Some(b'-') => take(1, Dec),
                Some(b'=') => take(1, MinusAssign),
                _ => Minus,
            },
            b'+' => match b1 {
                Some(b'+') => take(1, Inc),
                Some(b'=') => take(1, PlusAssign),
                _ => Plus,
            },
            b'*' => match b1 {
                Some(b'=') => take(1, StarAssign),
                _ => Star,
            },
            b'/' => match b1 {
                Some(b'=') => take(1, SlashAssign),
                _ => Slash,
            },
            b'%' => match b1 {
                Some(b'=') => take(1, PercentAssign),
                _ => Percent,
            },
            b'=' => match b1 {
                Some(b'=') => take(1, Eq),
                _ => Assign,
            },
            b'!' => match b1 {
                Some(b'=') => take(1, Ne),
                _ => Not,
            },
            b'<' => match (b1, b2) {
                (Some(b'<'), Some(b'=')) => take(2, ShlAssign),
                (Some(b'<'), _) => take(1, Shl),
                (Some(b'='), _) => take(1, Le),
                _ => Lt,
            },
            b'>' => match (b1, b2) {
                (Some(b'>'), Some(b'=')) => take(2, ShrAssign),
                (Some(b'>'), _) => take(1, Shr),
                (Some(b'='), _) => take(1, Ge),
                _ => Gt,
            },
            b'&' => match b1 {
                Some(b'&') => take(1, AndAnd),
                Some(b'=') => take(1, AmpAssign),
                _ => Amp,
            },
            b'|' => match b1 {
                Some(b'|') => take(1, OrOr),
                Some(b'=') => take(1, PipeAssign),
                _ => Pipe,
            },
            b'^' => match b1 {
                Some(b'=') => take(1, CaretAssign),
                _ => Caret,
            },
            other => {
                self.errors.push(LexError::UnexpectedByte {
                    byte: other,
                    line,
                    col,
                });
                // The byte is already consumed; tell the caller to keep
                // scanning. (This used to recurse into `next_token`,
                // which let a long run of garbage bytes overflow the
                // stack.)
                return None;
            }
        };
        Some(Token {
            kind: TokenKind::Punct(p),
            span: self.span_from(start, line, col),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<TokenKind> {
        Lexer::new(src)
            .tokenize()
            .into_iter()
            .map(|t| t.kind)
            .collect()
    }

    #[test]
    fn lexes_simple_declaration() {
        let k = kinds("int x = 42;");
        assert_eq!(k.len(), 5);
        assert!(k[0].is_keyword(Keyword::Int));
        assert_eq!(k[1].ident(), Some("x"));
        assert!(k[2].is_punct(Punct::Assign));
        assert!(matches!(k[3], TokenKind::IntLit { value: 42, .. }));
        assert!(k[4].is_punct(Punct::Semi));
    }

    #[test]
    fn lexes_arrow_and_deref() {
        let k = kinds("dev->refcount");
        assert_eq!(k.len(), 3);
        assert!(k[1].is_punct(Punct::Arrow));
    }

    #[test]
    fn skips_comments_by_default() {
        let k = kinds("a /* comment */ b // trailing\nc");
        assert_eq!(k.len(), 3);
        assert_eq!(k[0].ident(), Some("a"));
        assert_eq!(k[2].ident(), Some("c"));
    }

    #[test]
    fn keeps_comments_when_asked() {
        let opts = LexOptions {
            keep_comments: true,
            keep_preprocessor: true,
        };
        let toks = Lexer::with_options("a /* c */ b", opts).tokenize();
        assert_eq!(toks.len(), 3);
        assert!(matches!(toks[1].kind, TokenKind::Comment(_)));
    }

    #[test]
    fn lexes_hex_and_octal() {
        let k = kinds("0x1f 017 0b101");
        assert!(matches!(k[0], TokenKind::IntLit { value: 31, .. }));
        assert!(matches!(k[1], TokenKind::IntLit { value: 15, .. }));
        assert!(matches!(k[2], TokenKind::IntLit { value: 5, .. }));
    }

    #[test]
    fn lexes_suffixed_integers() {
        let k = kinds("10UL 3ull");
        assert!(matches!(k[0], TokenKind::IntLit { value: 10, .. }));
        assert!(matches!(k[1], TokenKind::IntLit { value: 3, .. }));
    }

    #[test]
    fn lexes_floats() {
        let k = kinds("1.5 2e10 .25f");
        assert!(matches!(k[0], TokenKind::FloatLit(_)));
        assert!(matches!(k[1], TokenKind::FloatLit(_)));
        assert!(matches!(k[2], TokenKind::FloatLit(_)));
    }

    #[test]
    fn lexes_strings_with_escapes() {
        let k = kinds(r#""hello \"world\"""#);
        match &k[0] {
            TokenKind::StrLit(s) => assert_eq!(s, r#"hello \"world\""#),
            other => panic!("expected string, got {other:?}"),
        }
    }

    #[test]
    fn lexes_char_literals() {
        let k = kinds(r"'a' '\n'");
        assert!(matches!(&k[0], TokenKind::CharLit(s) if s == "a"));
        assert!(matches!(&k[1], TokenKind::CharLit(s) if s == r"\n"));
    }

    #[test]
    fn pp_define_with_continuation_is_one_token() {
        let src = "#define for_each_node(n) \\\n  for (n = first(); n; n = next(n))\nint x;";
        let toks = Lexer::new(src).tokenize();
        match &toks[0].kind {
            TokenKind::PpDirective { kind, raw } => {
                assert_eq!(*kind, PpKind::Define);
                assert!(raw.contains("for_each_node"));
                assert!(raw.contains("next(n)"));
                assert!(!raw.contains('\\'));
            }
            other => panic!("expected directive, got {other:?}"),
        }
        assert!(toks[1].kind.is_keyword(Keyword::Int));
    }

    #[test]
    fn pp_kinds_classified() {
        let classify = |src: &str| match &Lexer::new(src).tokenize()[0].kind {
            TokenKind::PpDirective { kind, .. } => *kind,
            _ => panic!("not a directive"),
        };
        assert_eq!(classify("#include <linux/of.h>"), PpKind::Include);
        assert_eq!(classify("#ifdef CONFIG_OF"), PpKind::If);
        assert_eq!(classify("#else"), PpKind::Else);
        assert_eq!(classify("#endif"), PpKind::Endif);
        assert_eq!(classify("#pragma once"), PpKind::Pragma);
    }

    #[test]
    fn spans_track_lines() {
        let toks = Lexer::new("a\n  b").tokenize();
        assert_eq!(toks[0].span.line, 1);
        assert_eq!(toks[1].span.line, 2);
        assert_eq!(toks[1].span.col, 3);
    }

    #[test]
    fn three_char_operators() {
        let k = kinds("a <<= b >>= c");
        assert!(k[1].is_punct(Punct::ShlAssign));
        assert!(k[3].is_punct(Punct::ShrAssign));
    }

    #[test]
    fn ellipsis_vs_dot() {
        let k = kinds("f(a, ...) s.x");
        assert!(k.iter().any(|t| t.is_punct(Punct::Ellipsis)));
        assert!(k.iter().any(|t| t.is_punct(Punct::Dot)));
    }

    #[test]
    fn recovers_from_stray_bytes() {
        let (toks, errs) = Lexer::new("int @ x;").tokenize_with_errors();
        assert_eq!(errs.len(), 1);
        assert_eq!(toks.len(), 3);
        assert_eq!(toks[1].ident(), Some("x"));
    }

    #[test]
    fn long_garbage_runs_lex_without_overflow() {
        // A run of stray bytes used to recurse once per byte; 1 MiB of
        // them must now lex flat (loop) with one error per byte.
        let src = "@".repeat(1 << 20);
        let (toks, errs) = Lexer::new(&src).tokenize_with_errors();
        assert!(toks.is_empty());
        assert_eq!(errs.len(), 1 << 20);
    }

    #[test]
    fn token_cap_truncates_and_reports() {
        let src = "a b c d e f g h";
        let (toks, _errs, truncated) = Lexer::new(src).tokenize_limited(3);
        assert_eq!(toks.len(), 3);
        assert!(truncated);
        let (toks, _errs, truncated) = Lexer::new(src).tokenize_limited(100);
        assert_eq!(toks.len(), 8);
        assert!(!truncated);
    }

    #[test]
    fn unterminated_string_reports_error() {
        let (_, errs) = Lexer::new("\"abc\nint x;").tokenize_with_errors();
        assert!(matches!(errs[0], LexError::UnterminatedString { .. }));
    }

    #[test]
    fn wide_string_literal() {
        let k = kinds("L\"wide\"");
        assert!(matches!(&k[0], TokenKind::StrLit(s) if s == "wide"));
    }

    #[test]
    fn kernel_snippet_round_trip() {
        let src = r#"
static int stm32_crc_remove(struct platform_device *pdev)
{
        int ret = pm_runtime_get_sync(crc->dev);
        if (ret < 0)
                return ret;
}
"#;
        let toks = Lexer::new(src).tokenize();
        assert!(toks
            .iter()
            .any(|t| t.ident() == Some("pm_runtime_get_sync")));
        assert!(toks.iter().any(|t| t.kind.is_keyword(Keyword::Return)));
    }
}
