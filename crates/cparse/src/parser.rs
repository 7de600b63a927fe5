//! The parser core: token cursor, recovery, and top-level grammar.
//!
//! The expression and statement grammars live in [`crate::expr`] and
//! [`crate::stmt`]; this module owns the cursor plumbing and everything
//! at file scope (functions, structs, typedefs, globals).

use refminer_clex::{Keyword, LexOptions, Lexer, MacroDef, Punct, Span, Token, TokenKind};

use crate::ast::{
    Declaration, EnumDef, Expr, Field, FunctionDef, Initializer, Item, Param, Prototype, Stmt,
    StructDef, TranslationUnit, TypeName, Typedef,
};
use crate::error::ParseError;

/// Identifier annotations the kernel sprinkles into declarations that we
/// can skip outright wherever they appear.
const SKIPPABLE_ANNOTATIONS: &[&str] = &[
    "__init",
    "__exit",
    "__initdata",
    "__exitdata",
    "__read_mostly",
    "__maybe_unused",
    "__unused",
    "__used",
    "__weak",
    "__cold",
    "__hot",
    "__iomem",
    "__user",
    "__kernel",
    "__force",
    "__rcu",
    "__percpu",
    "__must_check",
    "__must_hold",
    "__acquires",
    "__releases",
    "__printf",
    "__pure",
    "__packed",
    "__aligned",
    "__cacheline_aligned",
    "__deprecated",
    "__devinit",
    "__devexit",
    "notrace",
    "asmlinkage",
];

/// Words that act like types in kernel code without a typedef in scope.
const KNOWN_TYPE_WORDS: &[&str] = &[
    "u8",
    "u16",
    "u32",
    "u64",
    "s8",
    "s16",
    "s32",
    "s64",
    "__u8",
    "__u16",
    "__u32",
    "__u64",
    "__s8",
    "__s16",
    "__s32",
    "__s64",
    "size_t",
    "ssize_t",
    "loff_t",
    "off_t",
    "pid_t",
    "uid_t",
    "gid_t",
    "dev_t",
    "umode_t",
    "gfp_t",
    "dma_addr_t",
    "phys_addr_t",
    "resource_size_t",
    "atomic_t",
    "atomic64_t",
    "refcount_t",
    "kref_t",
    "spinlock_t",
    "raw_spinlock_t",
    "mutex_t",
    "wait_queue_head_t",
    "irqreturn_t",
    "cpumask_t",
    "nodemask_t",
    "uint8_t",
    "uint16_t",
    "uint32_t",
    "uint64_t",
    "int8_t",
    "int16_t",
    "int32_t",
    "int64_t",
    "uintptr_t",
    "intptr_t",
    "ptrdiff_t",
    "bool",
];

/// A recursive-descent, error-tolerant parser for kernel-style C.
///
/// The parser never fails a whole file: on an unparseable construct it
/// records a [`ParseError`], skips to a synchronization point (`;` or a
/// balanced `}`), and keeps going — the same property that let the paper
/// analyze every architecture and config combination that LLVM could not
/// compile (§6.1 "Why not LLVM").
///
/// # Examples
///
/// ```
/// use refminer_cparse::parse_str;
///
/// let tu = parse_str("drivers/foo.c", "static int f(void) { return 0; }");
/// assert_eq!(tu.functions().count(), 1);
/// ```
pub struct Parser {
    pub(crate) toks: Vec<Token>,
    pub(crate) pos: usize,
    pub(crate) errors: Vec<ParseError>,
    path: String,
    depth: u32,
    max_depth: u32,
    depth_capped: bool,
    /// Scratch stacks the statement, declarator and argument lists are
    /// built on. A list pushes its elements on top and moves them off
    /// with [`take_above`] when it ends, so it is allocated once, at its
    /// final length, with no growth or shrink; a list nested inside
    /// another ends first and leaves the stack as it found it.
    pub(crate) stmt_stack: Vec<Stmt>,
    pub(crate) decl_stack: Vec<Declaration>,
    pub(crate) expr_stack: Vec<Expr>,
}

/// Moves the elements `stack` holds above `mark` into an exact-size list.
pub(crate) fn take_above<T>(stack: &mut Vec<T>, mark: usize) -> Box<[T]> {
    stack.drain(mark..).collect()
}

/// Resource caps applied while lexing and parsing one unit, sized so a
/// hostile or machine-generated file degrades instead of exhausting the
/// stack or memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Maximum tokens to lex; the stream is truncated past this point.
    pub max_tokens: usize,
    /// Maximum recursion depth across nested expressions, statements,
    /// initializers, and struct bodies combined.
    pub max_depth: u32,
}

impl Default for ParseLimits {
    fn default() -> Self {
        ParseLimits {
            max_tokens: 2_000_000,
            max_depth: 128,
        }
    }
}

/// The result of a limit-aware parse: the (possibly degraded) unit plus
/// what a caller needs to diagnose anything that was lost.
#[derive(Debug)]
pub struct ParseOutcome {
    /// The parsed unit; degraded subtrees appear as `Unknown`/`Empty`
    /// nodes rather than being dropped silently.
    pub unit: TranslationUnit,
    /// Errors the parser recovered from.
    pub errors: Vec<ParseError>,
    /// Byte-level errors the lexer recovered from.
    pub lex_errors: Vec<refminer_clex::LexError>,
    /// The token stream hit [`ParseLimits::max_tokens`] before the end
    /// of input.
    pub truncated: bool,
    /// Some subtree hit [`ParseLimits::max_depth`] and was degraded.
    pub depth_capped: bool,
    /// Every `#define` the parse's lexer walked over, in source order:
    /// the smartloop candidates of §6.1, read off the same single lex
    /// as the tokens. Directives do not count toward
    /// [`ParseLimits::max_tokens`]. Complete — equal to
    /// [`refminer_clex::scan_defines`] of the source — unless
    /// `truncated`, in which case the directives past the cap are
    /// missing.
    pub defines: Vec<MacroDef>,
}

/// Parses a source string into a [`TranslationUnit`], discarding errors.
pub fn parse_str(path: &str, src: &str) -> TranslationUnit {
    parse_str_with_errors(path, src).0
}

/// Parses a source string, returning recovered errors alongside the unit.
pub fn parse_str_with_errors(path: &str, src: &str) -> (TranslationUnit, Vec<ParseError>) {
    let out = parse_str_limited(path, src, &ParseLimits::default());
    (out.unit, out.errors)
}

/// Parses under explicit resource caps, reporting everything that was
/// truncated or degraded along the way. This is the entry point the
/// fault-isolated audit pipeline uses.
pub fn parse_str_limited(path: &str, src: &str, limits: &ParseLimits) -> ParseOutcome {
    let opts = LexOptions {
        keep_comments: false,
        keep_preprocessor: false,
    };
    let (toks, lex_errors, truncated, defines) =
        Lexer::with_options(src, opts).tokenize_limited_with_defines(limits.max_tokens);
    let mut p = Parser::new(toks, path, limits.max_depth);
    let unit = p.parse_translation_unit();
    ParseOutcome {
        unit,
        errors: p.errors,
        lex_errors,
        truncated,
        depth_capped: p.depth_capped,
        defines,
    }
}

impl Parser {
    fn new(toks: Vec<Token>, path: &str, max_depth: u32) -> Parser {
        Parser {
            toks,
            pos: 0,
            errors: Vec::new(),
            path: path.to_string(),
            depth: 0,
            max_depth,
            depth_capped: false,
            stmt_stack: Vec::new(),
            decl_stack: Vec::new(),
            expr_stack: Vec::new(),
        }
    }

    /// Builds a parser over an arbitrary token fragment (used by the
    /// expression/statement fragment helpers and tests).
    pub(crate) fn new_for_fragment(toks: Vec<Token>) -> Parser {
        Parser::new(toks, "", ParseLimits::default().max_depth)
    }

    /// Enters one recursion level. Returns `false` at the depth cap,
    /// recording [`ParseError::TooDeep`] the first time; callers must
    /// then consume input and return a degraded node instead of
    /// recursing.
    pub(crate) fn enter_depth(&mut self) -> bool {
        if self.depth >= self.max_depth {
            if !self.depth_capped {
                self.depth_capped = true;
                let span = self.cur_span();
                self.errors.push(ParseError::TooDeep { span });
            }
            return false;
        }
        self.depth += 1;
        true
    }

    /// Leaves a recursion level entered via [`Parser::enter_depth`].
    pub(crate) fn leave_depth(&mut self) {
        self.depth = self.depth.saturating_sub(1);
    }

    // ------------------------------------------------------------------
    // Cursor primitives.
    // ------------------------------------------------------------------

    pub(crate) fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos)
    }

    pub(crate) fn peek_at(&self, off: usize) -> Option<&Token> {
        self.toks.get(self.pos + off)
    }

    pub(crate) fn bump(&mut self) -> Option<&Token> {
        let t = self.toks.get(self.pos);
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    pub(crate) fn at_eof(&self) -> bool {
        self.pos >= self.toks.len()
    }

    pub(crate) fn cur_span(&self) -> Span {
        self.peek()
            .map(|t| t.span)
            .or_else(|| self.toks.last().map(|t| t.span))
            .unwrap_or_default()
    }

    pub(crate) fn at_punct(&self, p: Punct) -> bool {
        self.peek().is_some_and(|t| t.kind.is_punct(p))
    }

    pub(crate) fn at_keyword(&self, k: Keyword) -> bool {
        self.peek().is_some_and(|t| t.kind.is_keyword(k))
    }

    pub(crate) fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    pub(crate) fn eat_keyword(&mut self, k: Keyword) -> bool {
        if self.at_keyword(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    /// Consumes an expected punctuator, recording an error if absent.
    pub(crate) fn expect_punct(&mut self, p: Punct) {
        if !self.eat_punct(p) {
            let span = self.cur_span();
            self.errors.push(ParseError::Expected {
                what: p.as_str(),
                span,
            });
        }
    }

    pub(crate) fn take_ident(&mut self) -> Option<String> {
        if let Some(t) = self.peek() {
            if let TokenKind::Ident(s) = &t.kind {
                let s = s.to_string();
                self.pos += 1;
                return Some(s);
            }
        }
        None
    }

    /// Skips a balanced token group assuming the cursor sits *on* the
    /// opener. Returns the span covered.
    pub(crate) fn skip_balanced(&mut self, open: Punct, close: Punct) -> Span {
        let start = self.cur_span();
        let mut depth = 0usize;
        let mut end = start;
        while let Some(t) = self.peek() {
            end = t.span;
            if t.kind.is_punct(open) {
                depth += 1;
            } else if t.kind.is_punct(close) {
                depth -= 1;
                self.pos += 1;
                if depth == 0 {
                    break;
                }
                continue;
            }
            self.pos += 1;
            if depth == 0 {
                break;
            }
        }
        start.join(end)
    }

    /// Skips forward to just past the next `;` at brace depth zero, or
    /// past a balanced `{...}` block — the parser's panic-mode recovery.
    /// It stops *before* an unmatched `}`: that brace closes the block
    /// the recovery started in, and belongs to that block's parser. At
    /// top level, where no block is open, the translation-unit loop
    /// drops the stray brace to make progress.
    pub(crate) fn recover_to_sync(&mut self) {
        let mut depth = 0usize;
        while let Some(t) = self.peek() {
            match &t.kind {
                TokenKind::Punct(Punct::LBrace) => depth += 1,
                TokenKind::Punct(Punct::RBrace) => {
                    if depth == 0 {
                        return;
                    }
                    self.pos += 1;
                    if depth == 1 {
                        return;
                    }
                    depth -= 1;
                    continue;
                }
                TokenKind::Punct(Punct::Semi) if depth == 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Skips `__attribute__((...))` and similar annotation groups.
    #[allow(clippy::while_let_loop)] // The match needs the cursor back.
    pub(crate) fn skip_annotations(&mut self) {
        loop {
            let Some(t) = self.peek() else { break };
            match t.ident() {
                Some("__attribute__") | Some("__attribute") | Some("__declspec") => {
                    self.pos += 1;
                    if self.at_punct(Punct::LParen) {
                        self.skip_balanced(Punct::LParen, Punct::RParen);
                    }
                }
                Some(name) if SKIPPABLE_ANNOTATIONS.contains(&name) => {
                    self.pos += 1;
                    // Some annotations are function-like: `__aligned(8)`.
                    if self.at_punct(Punct::LParen) {
                        self.skip_balanced(Punct::LParen, Punct::RParen);
                    }
                }
                _ => break,
            }
        }
    }

    // ------------------------------------------------------------------
    // Top level.
    // ------------------------------------------------------------------

    fn parse_translation_unit(&mut self) -> TranslationUnit {
        let mut items = Vec::new();
        while !self.at_eof() {
            let before = self.pos;
            items.extend(self.parse_top_item());
            if self.pos == before {
                // Guaranteed progress: drop one token.
                self.pos += 1;
            }
        }
        TranslationUnit {
            path: self.path.clone(),
            items: items.into(),
        }
    }

    fn parse_top_item(&mut self) -> Vec<Item> {
        self.skip_annotations();
        let Some(t) = self.peek() else {
            return Vec::new();
        };
        let start = t.span;
        match &t.kind {
            TokenKind::Punct(Punct::Semi) => {
                self.pos += 1;
                Vec::new()
            }
            TokenKind::Keyword(Keyword::Typedef) => vec![self.parse_typedef()],
            TokenKind::Keyword(Keyword::Struct) | TokenKind::Keyword(Keyword::Union) => {
                // Could be a definition `struct x { .. };`, a forward
                // declaration, or a global of struct type.
                self.parse_struct_or_decl()
            }
            TokenKind::Keyword(Keyword::Enum) => self.parse_enum_or_decl(),
            TokenKind::Keyword(k) if k.is_decl_specifier() => self.parse_decl_or_function(),
            TokenKind::Ident(name) => {
                // Top-level macro invocations: `MODULE_LICENSE("GPL");`
                // `module_platform_driver(drv);` `EXPORT_SYMBOL(f);`
                if self
                    .peek_at(1)
                    .is_some_and(|t| t.kind.is_punct(Punct::LParen))
                    && looks_like_toplevel_macro(name)
                {
                    self.pos += 1;
                    self.skip_balanced(Punct::LParen, Punct::RParen);
                    self.eat_punct(Punct::Semi);
                    return vec![Item::Skipped(start.join(self.cur_span()))];
                }
                self.parse_decl_or_function()
            }
            _ => {
                let span = self.cur_span();
                self.errors.push(ParseError::UnexpectedToken { span });
                self.recover_to_sync();
                vec![Item::Skipped(span)]
            }
        }
    }

    fn parse_typedef(&mut self) -> Item {
        let start = self.cur_span();
        self.bump(); // `typedef`.
        let ty = self.parse_type_specifiers();
        // Handle `typedef struct { .. } name_t;` where the specifier
        // parsing consumed the struct body; the remaining declarator is
        // usually a simple name, possibly with pointers.
        let mut pointer = 0u8;
        while self.eat_punct(Punct::Star) {
            pointer += 1;
        }
        self.skip_annotations();
        let name = self.take_ident().unwrap_or_default();
        // Function-pointer typedefs and array typedefs: skip the rest.
        while !self.at_punct(Punct::Semi) && !self.at_eof() {
            if self.at_punct(Punct::LParen) {
                self.skip_balanced(Punct::LParen, Punct::RParen);
            } else if self.at_punct(Punct::LBracket) {
                self.skip_balanced(Punct::LBracket, Punct::RBracket);
            } else {
                self.pos += 1;
            }
        }
        self.eat_punct(Punct::Semi);
        Item::Typedef(Typedef {
            name,
            ty: TypeName {
                base: ty.base,
                pointer,
            },
            span: start.join(self.cur_span()),
        })
    }

    /// Parses at `struct`/`union`: either a type definition or the start
    /// of a declaration whose type is a struct.
    fn parse_struct_or_decl(&mut self) -> Vec<Item> {
        // Lookahead: `struct [ident] {` is a definition;
        // anything else is a declaration using the struct type.
        let is_union = self.at_keyword(Keyword::Union);
        let mut off = 1usize;
        let mut tag: Option<String> = None;
        if let Some(t) = self.peek_at(off) {
            if let TokenKind::Ident(s) = &t.kind {
                tag = Some(s.to_string());
                off += 1;
            }
        }
        let opens_body = self
            .peek_at(off)
            .is_some_and(|t| t.kind.is_punct(Punct::LBrace));
        if opens_body {
            let start = self.cur_span();
            self.pos += off; // Past `struct [tag]`.
            let fields = self.parse_struct_body();
            self.skip_annotations();
            // `struct x { .. } instance;` — a definition immediately
            // followed by declarators. We keep the definition and skip
            // the instance declarators for simplicity.
            if !self.at_punct(Punct::Semi) {
                self.recover_to_sync();
            } else {
                self.pos += 1;
            }
            return vec![Item::Struct(StructDef {
                name: tag,
                is_union,
                fields: fields.into(),
                span: start.join(self.cur_span()),
            })];
        }
        // Forward declaration `struct x;`.
        if self
            .peek_at(off)
            .is_some_and(|t| t.kind.is_punct(Punct::Semi))
        {
            self.pos += off + 1;
            return Vec::new();
        }
        self.parse_decl_or_function()
    }

    fn parse_enum_or_decl(&mut self) -> Vec<Item> {
        let mut off = 1usize;
        let mut tag: Option<String> = None;
        if let Some(t) = self.peek_at(off) {
            if let TokenKind::Ident(s) = &t.kind {
                tag = Some(s.to_string());
                off += 1;
            }
        }
        let opens_body = self
            .peek_at(off)
            .is_some_and(|t| t.kind.is_punct(Punct::LBrace));
        if !opens_body {
            if self
                .peek_at(off)
                .is_some_and(|t| t.kind.is_punct(Punct::Semi))
            {
                self.pos += off + 1;
                return Vec::new();
            }
            return self.parse_decl_or_function();
        }
        let start = self.cur_span();
        self.pos += off + 1; // Past `enum [tag] {`.
        let mut variants = Vec::new();
        let mut depth = 1usize;
        while let Some(t) = self.peek() {
            match &t.kind {
                TokenKind::Punct(Punct::LBrace) => {
                    depth += 1;
                    self.pos += 1;
                }
                TokenKind::Punct(Punct::RBrace) => {
                    depth -= 1;
                    self.pos += 1;
                    if depth == 0 {
                        break;
                    }
                }
                TokenKind::Ident(s) if depth == 1 => {
                    variants.push(s.to_string());
                    self.pos += 1;
                    // Skip an optional `= value` part.
                    while let Some(t) = self.peek() {
                        if t.kind.is_punct(Punct::Comma) || t.kind.is_punct(Punct::RBrace) {
                            break;
                        }
                        self.pos += 1;
                    }
                }
                _ => {
                    self.pos += 1;
                }
            }
        }
        self.eat_punct(Punct::Semi);
        vec![Item::Enum(EnumDef {
            name: tag,
            variants: variants.into(),
            span: start.join(self.cur_span()),
        })]
    }

    /// Parses struct fields assuming the cursor is on `{`. Guarded: at
    /// the depth cap the body is skipped and no fields are produced.
    fn parse_struct_body(&mut self) -> Vec<Field> {
        if !self.enter_depth() {
            if self.at_punct(Punct::LBrace) {
                self.skip_balanced(Punct::LBrace, Punct::RBrace);
            }
            return Vec::new();
        }
        let fields = self.parse_struct_body_inner();
        self.leave_depth();
        fields
    }

    fn parse_struct_body_inner(&mut self) -> Vec<Field> {
        self.expect_punct(Punct::LBrace);
        let mut fields = Vec::new();
        while !self.at_eof() && !self.at_punct(Punct::RBrace) {
            let start = self.cur_span();
            self.skip_annotations();
            // Nested anonymous struct/union.
            if (self.at_keyword(Keyword::Struct) || self.at_keyword(Keyword::Union))
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.kind.is_punct(Punct::LBrace))
            {
                self.pos += 1;
                let nested = self.parse_struct_body();
                // Named instance of the anonymous struct, or truly
                // anonymous (fields flatten into the parent).
                if let Some(name) = self.take_ident() {
                    fields.push(Field {
                        name,
                        ty: TypeName::new("struct <anon>"),
                        span: start.join(self.cur_span()),
                    });
                } else {
                    fields.extend(nested);
                }
                self.eat_punct(Punct::Semi);
                continue;
            }
            let ty = self.parse_type_specifiers();
            if ty.base.is_empty() {
                // Could not make sense of this member; skip the line.
                self.recover_member();
                continue;
            }
            // One or more declarators.
            loop {
                let mut pointer = 0u8;
                while self.eat_punct(Punct::Star) {
                    pointer += 1;
                    self.skip_type_qualifiers();
                }
                self.skip_annotations();
                // Function-pointer field `ret (*name)(args)`.
                if self.at_punct(Punct::LParen) {
                    let name = self.skip_fn_ptr_name();
                    if self.at_punct(Punct::LParen) {
                        self.skip_balanced(Punct::LParen, Punct::RParen);
                    }
                    fields.push(Field {
                        name,
                        ty: TypeName {
                            base: format!("{} (*)()", ty.base),
                            pointer: 1,
                        },
                        span: start.join(self.cur_span()),
                    });
                } else if let Some(name) = self.take_ident() {
                    // Array / bitfield suffixes.
                    while self.at_punct(Punct::LBracket) {
                        self.skip_balanced(Punct::LBracket, Punct::RBracket);
                    }
                    if self.eat_punct(Punct::Colon) {
                        self.bump(); // Bitfield width.
                    }
                    self.skip_annotations();
                    fields.push(Field {
                        name,
                        ty: TypeName {
                            base: ty.base.clone(),
                            pointer,
                        },
                        span: start.join(self.cur_span()),
                    });
                } else if self.eat_punct(Punct::Colon) {
                    // Anonymous bitfield.
                    self.bump();
                } else {
                    self.recover_member();
                    break;
                }
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.eat_punct(Punct::Semi);
        }
        self.eat_punct(Punct::RBrace);
        fields
    }

    fn recover_member(&mut self) {
        while let Some(t) = self.peek() {
            if t.kind.is_punct(Punct::Semi) {
                self.pos += 1;
                return;
            }
            if t.kind.is_punct(Punct::RBrace) {
                return;
            }
            if t.kind.is_punct(Punct::LBrace) {
                self.skip_balanced(Punct::LBrace, Punct::RBrace);
                continue;
            }
            self.pos += 1;
        }
    }

    /// Skips the `( * name )` group of a function-pointer declarator,
    /// cursor on its `(`, and returns the last identifier inside it
    /// (empty if there is none). Only the group's own tokens are read.
    fn skip_fn_ptr_name(&mut self) -> String {
        let first = self.pos;
        self.skip_balanced(Punct::LParen, Punct::RParen);
        self.toks[first..self.pos]
            .iter()
            .rev()
            .find_map(|t| match &t.kind {
                TokenKind::Ident(s) => Some(s.to_string()),
                _ => None,
            })
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Declarations and functions.
    // ------------------------------------------------------------------

    /// Skips `const`/`volatile`/`restrict` runs.
    pub(crate) fn skip_type_qualifiers(&mut self) {
        while self.eat_keyword(Keyword::Const)
            || self.eat_keyword(Keyword::Volatile)
            || self.eat_keyword(Keyword::Restrict)
        {}
    }

    /// Parses declaration specifiers into a [`TypeName`] base (pointer
    /// depth comes later from the declarator). Returns an empty base if
    /// nothing type-like was found.
    pub(crate) fn parse_type_specifiers(&mut self) -> TypeName {
        let mut words: Vec<String> = Vec::new();
        let mut saw_type = false;
        loop {
            self.skip_annotations();
            let Some(t) = self.peek() else { break };
            match &t.kind {
                TokenKind::Keyword(
                    Keyword::Static
                    | Keyword::Extern
                    | Keyword::Inline
                    | Keyword::Auto
                    | Keyword::Register
                    | Keyword::Const
                    | Keyword::Volatile
                    | Keyword::Restrict,
                ) => {
                    // Storage/qualifier words are dropped from the base.
                    self.pos += 1;
                }
                TokenKind::Keyword(Keyword::Struct) | TokenKind::Keyword(Keyword::Union) => {
                    let kw = if t.kind.is_keyword(Keyword::Struct) {
                        "struct"
                    } else {
                        "union"
                    };
                    self.pos += 1;
                    let tag = self.take_ident().unwrap_or_default();
                    if self.at_punct(Punct::LBrace) {
                        // Inline definition in a declaration; skip body.
                        self.skip_balanced(Punct::LBrace, Punct::RBrace);
                    }
                    words.push(format!("{kw} {tag}"));
                    saw_type = true;
                }
                TokenKind::Keyword(Keyword::Enum) => {
                    self.pos += 1;
                    let tag = self.take_ident().unwrap_or_default();
                    if self.at_punct(Punct::LBrace) {
                        self.skip_balanced(Punct::LBrace, Punct::RBrace);
                    }
                    words.push(format!("enum {tag}"));
                    saw_type = true;
                }
                TokenKind::Keyword(Keyword::Typeof) => {
                    self.pos += 1;
                    if self.at_punct(Punct::LParen) {
                        self.skip_balanced(Punct::LParen, Punct::RParen);
                    }
                    words.push("typeof".into());
                    saw_type = true;
                }
                TokenKind::Keyword(k) if k.is_type_start() => {
                    words.push(k.as_str().to_string());
                    saw_type = true;
                    self.pos += 1;
                }
                TokenKind::Ident(name) => {
                    if saw_type {
                        // Already have a type: the identifier is the
                        // declarator name.
                        break;
                    }
                    // Heuristic: `ident` is a type when it is a known
                    // kernel type word, ends in `_t`, or is followed by
                    // another identifier or `*`+ident.
                    let is_known = KNOWN_TYPE_WORDS.contains(&&**name) || name.ends_with("_t");
                    let next_suggests_type = match self.peek_at(1).map(|t| &t.kind) {
                        Some(TokenKind::Ident(_)) => true,
                        Some(TokenKind::Punct(Punct::Star)) => {
                            // `name * x` — declaration if `x` then ends.
                            matches!(
                                self.peek_at(2).map(|t| &t.kind),
                                Some(TokenKind::Ident(_)) | Some(TokenKind::Punct(Punct::Star))
                            )
                        }
                        _ => false,
                    };
                    if is_known || next_suggests_type {
                        words.push(name.to_string());
                        saw_type = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                _ => break,
            }
        }
        TypeName {
            base: words.join(" "),
            pointer: 0,
        }
    }

    /// After type specifiers, parses `* ... name` and decides between a
    /// function definition, prototype, or (list of) global declarations.
    fn parse_decl_or_function(&mut self) -> Vec<Item> {
        let start = self.cur_span();
        let is_static = self
            .toks
            .get(self.pos..)
            .into_iter()
            .flatten()
            .take_while(|t| !t.kind.is_punct(Punct::Semi) && !t.kind.is_punct(Punct::LBrace))
            .take(8)
            .any(|t| t.kind.is_keyword(Keyword::Static));
        let ty = self.parse_type_specifiers();
        if ty.base.is_empty() {
            // Not a declaration after all; bail out with recovery.
            let span = self.cur_span();
            self.errors.push(ParseError::UnexpectedToken { span });
            self.recover_to_sync();
            return vec![Item::Skipped(span)];
        }
        let mut pointer = 0u8;
        while self.eat_punct(Punct::Star) {
            pointer += 1;
            self.skip_type_qualifiers();
        }
        self.skip_annotations();
        let Some(name) = self.take_ident() else {
            // E.g. `struct x;` already handled; anything else here is
            // noise (or a function pointer global, which we skip).
            self.recover_to_sync();
            return vec![Item::Skipped(start.join(self.cur_span()))];
        };
        self.skip_annotations();

        if self.at_punct(Punct::LParen) {
            // Function definition or prototype.
            let params = self.parse_param_list();
            self.skip_annotations();
            if self.at_punct(Punct::LBrace) {
                let body = self.parse_block();
                return vec![Item::Function(FunctionDef {
                    name,
                    ret: TypeName {
                        base: ty.base,
                        pointer,
                    },
                    params,
                    is_static,
                    span: start.join(self.cur_span()),
                    body,
                })];
            }
            // Prototype (possibly `;` or attribute-terminated).
            self.recover_to_semi();
            return vec![Item::Prototype(Prototype {
                name,
                ret: TypeName {
                    base: ty.base,
                    pointer,
                },
                params,
                span: start.join(self.cur_span()),
            })];
        }

        // Global variable declaration(s).
        let mut decls = Vec::new();
        let mut cur_name = name;
        let mut cur_ptr = pointer;
        loop {
            while self.at_punct(Punct::LBracket) {
                self.skip_balanced(Punct::LBracket, Punct::RBracket);
            }
            self.skip_annotations();
            let init = if self.eat_punct(Punct::Assign) {
                Some(Box::new(self.parse_initializer()))
            } else {
                None
            };
            decls.push(Declaration {
                name: cur_name,
                ty: TypeName {
                    base: ty.base.clone(),
                    pointer: cur_ptr,
                },
                init,
                is_static,
                span: start.join(self.cur_span()),
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
            cur_ptr = 0;
            while self.eat_punct(Punct::Star) {
                cur_ptr += 1;
            }
            self.skip_annotations();
            match self.take_ident() {
                Some(n) => cur_name = n,
                None => break,
            }
        }
        self.recover_to_semi();
        decls.into_iter().map(Item::Global).collect()
    }

    fn recover_to_semi(&mut self) {
        while let Some(t) = self.peek() {
            if t.kind.is_punct(Punct::Semi) {
                self.pos += 1;
                return;
            }
            if t.kind.is_punct(Punct::LBrace) {
                self.skip_balanced(Punct::LBrace, Punct::RBrace);
                continue;
            }
            self.pos += 1;
        }
    }

    /// Parses a parenthesized parameter list, cursor on `(`.
    pub(crate) fn parse_param_list(&mut self) -> Box<[Param]> {
        self.expect_punct(Punct::LParen);
        let mut params = Vec::new();
        if self.at_punct(Punct::RParen) {
            self.pos += 1;
            return params.into();
        }
        loop {
            self.skip_annotations();
            if self.at_punct(Punct::Ellipsis) {
                self.pos += 1;
                params.push(Param {
                    name: None,
                    ty: TypeName::new("..."),
                });
            } else if self.at_keyword(Keyword::Void)
                && self
                    .peek_at(1)
                    .is_some_and(|t| t.kind.is_punct(Punct::RParen))
            {
                self.pos += 1;
            } else {
                let ty = self.parse_type_specifiers();
                let mut pointer = 0u8;
                while self.eat_punct(Punct::Star) {
                    pointer += 1;
                    self.skip_type_qualifiers();
                }
                self.skip_annotations();
                let name = if self.at_punct(Punct::LParen) {
                    // Function-pointer parameter.
                    let n = self.skip_fn_ptr_name();
                    if self.at_punct(Punct::LParen) {
                        self.skip_balanced(Punct::LParen, Punct::RParen);
                    }
                    if n.is_empty() {
                        None
                    } else {
                        Some(n)
                    }
                } else {
                    self.take_ident()
                };
                while self.at_punct(Punct::LBracket) {
                    self.skip_balanced(Punct::LBracket, Punct::RBracket);
                }
                params.push(Param {
                    name,
                    ty: TypeName {
                        base: ty.base,
                        pointer,
                    },
                });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::RParen);
        params.into()
    }

    /// Parses an initializer: expression or braced (designated) list.
    /// Guarded: at the depth cap the initializer is skipped wholesale.
    pub(crate) fn parse_initializer(&mut self) -> Initializer {
        if !self.enter_depth() {
            if self.at_punct(Punct::LBrace) {
                self.skip_balanced(Punct::LBrace, Punct::RBrace);
            } else if !self.at_punct(Punct::RBrace) {
                self.bump();
            }
            return Initializer::List(Box::default());
        }
        let init = self.parse_initializer_inner();
        self.leave_depth();
        init
    }

    fn parse_initializer_inner(&mut self) -> Initializer {
        if self.at_punct(Punct::LBrace) {
            self.pos += 1;
            let mut items = Vec::new();
            while !self.at_eof() && !self.at_punct(Punct::RBrace) {
                let designator = if self.at_punct(Punct::Dot) {
                    self.pos += 1;
                    let name = self.take_ident();
                    self.eat_punct(Punct::Assign);
                    name
                } else if self.at_punct(Punct::LBracket) {
                    // `[index] = init` array designator; keep the index
                    // out of the name.
                    self.skip_balanced(Punct::LBracket, Punct::RBracket);
                    self.eat_punct(Punct::Assign);
                    None
                } else {
                    None
                };
                let init = self.parse_initializer();
                items.push((designator, init));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.eat_punct(Punct::RBrace);
            Initializer::List(items.into())
        } else {
            Initializer::Expr(self.parse_assignment_expr())
        }
    }
}

/// Heuristic for statement-less top-level macro invocations.
fn looks_like_toplevel_macro(name: &str) -> bool {
    let all_caps = name
        .chars()
        .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_');
    all_caps
        || name.starts_with("module_")
        || name.starts_with("late_initcall")
        || name.starts_with("early_initcall")
        || name.starts_with("core_initcall")
        || name.starts_with("subsys_initcall")
        || name.starts_with("device_initcall")
        || name.starts_with("arch_initcall")
        || name.starts_with("fs_initcall")
        || name.starts_with("postcore_initcall")
        || name.starts_with("builtin_platform_driver")
        || name.starts_with("DEFINE_")
        || name.starts_with("DECLARE_")
}
