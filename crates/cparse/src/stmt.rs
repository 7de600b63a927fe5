//! Statement grammar, including the *smartloop* (macro loop) heuristic.

use refminer_clex::{Keyword, Punct, TokenKind};

use crate::ast::{Block, Declaration, Else, ElseIf, Expr, Stmt, StmtKind, TypeName};
use crate::parser::{take_above, Parser};

impl Parser {
    /// Parses a `{ ... }` block, cursor on `{`.
    pub(crate) fn parse_block(&mut self) -> Block {
        let start = self.cur_span();
        self.expect_punct(Punct::LBrace);
        let mark = self.stmt_stack.len();
        while !self.at_eof() && !self.at_punct(Punct::RBrace) {
            let before = self.pos;
            let stmt = self.parse_stmt();
            self.stmt_stack.push(stmt);
            if self.pos == before {
                // Guaranteed progress even on pathological input.
                self.pos += 1;
            }
        }
        self.eat_punct(Punct::RBrace);
        Block {
            stmts: take_above(&mut self.stmt_stack, mark),
            span: start.join(self.cur_span()),
        }
    }

    /// Parses one statement. Every statement-grammar cycle passes
    /// through here, so the recursion-depth guard lives on this entry:
    /// at the cap the parser synchronizes past the construct and emits
    /// an `Empty` statement.
    pub(crate) fn parse_stmt(&mut self) -> Stmt {
        if !self.enter_depth() {
            let span = self.cur_span();
            self.recover_to_sync();
            return Stmt {
                kind: StmtKind::Empty,
                span,
            };
        }
        let s = self.parse_stmt_inner();
        self.leave_depth();
        s
    }

    /// Parses `if (cond) stmt`, cursor on `if`.
    fn parse_if_arm(&mut self) -> (Expr, Stmt) {
        self.pos += 1;
        self.expect_punct(Punct::LParen);
        let cond = self.parse_expr();
        self.expect_punct(Punct::RParen);
        (cond, self.parse_stmt())
    }

    fn parse_stmt_inner(&mut self) -> Stmt {
        let start = self.cur_span();
        let Some(t) = self.peek() else {
            return Stmt {
                kind: StmtKind::Empty,
                span: start,
            };
        };
        match &t.kind {
            TokenKind::Punct(Punct::LBrace) => {
                let block = self.parse_block();
                Stmt {
                    span: block.span,
                    kind: StmtKind::Block(block),
                }
            }
            TokenKind::Punct(Punct::Semi) => {
                self.pos += 1;
                Stmt {
                    kind: StmtKind::Empty,
                    span: start,
                }
            }
            TokenKind::Keyword(Keyword::If) => {
                let (cond, then) = self.parse_if_arm();
                // An `else if` chain is read here in a loop, not by
                // recursion, so it costs one level of nesting.
                let (mut arms, mut last) = (Vec::new(), None);
                while self.eat_keyword(Keyword::Else) {
                    if !self.at_keyword(Keyword::If) {
                        last = Some(self.parse_stmt());
                        break;
                    }
                    let arm_start = self.cur_span();
                    arms.push((arm_start, self.parse_if_arm()));
                }
                let end = self.cur_span();
                let els = (!arms.is_empty() || last.is_some()).then(|| {
                    let arms = arms.into_iter().map(|(arm_start, (cond, then))| ElseIf {
                        cond,
                        then,
                        span: arm_start.join(end),
                    });
                    Box::new(Else {
                        arms: arms.collect(),
                        stmt: last,
                    })
                });
                Stmt {
                    span: start.join(end),
                    kind: StmtKind::If {
                        cond,
                        then: Box::new(then),
                        els,
                    },
                }
            }
            TokenKind::Keyword(Keyword::While) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr();
                self.expect_punct(Punct::RParen);
                let body = Box::new(self.parse_stmt());
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::While { cond, body },
                }
            }
            TokenKind::Keyword(Keyword::Do) => {
                self.pos += 1;
                let body = Box::new(self.parse_stmt());
                self.eat_keyword(Keyword::While);
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr();
                self.expect_punct(Punct::RParen);
                self.eat_punct(Punct::Semi);
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::DoWhile { body, cond },
                }
            }
            TokenKind::Keyword(Keyword::For) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen);
                let init = if self.at_punct(Punct::Semi) {
                    self.pos += 1;
                    None
                } else {
                    Some(Box::new(self.parse_simple_stmt_for_init()))
                };
                let cond = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(Box::new(self.parse_expr()))
                };
                self.eat_punct(Punct::Semi);
                let step = if self.at_punct(Punct::RParen) {
                    None
                } else {
                    Some(Box::new(self.parse_expr()))
                };
                self.expect_punct(Punct::RParen);
                let body = Box::new(self.parse_stmt());
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::For {
                        init,
                        cond,
                        step,
                        body,
                    },
                }
            }
            TokenKind::Keyword(Keyword::Switch) => {
                self.pos += 1;
                self.expect_punct(Punct::LParen);
                let cond = self.parse_expr();
                self.expect_punct(Punct::RParen);
                let body = Box::new(self.parse_stmt());
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Switch { cond, body },
                }
            }
            TokenKind::Keyword(Keyword::Case) => {
                self.pos += 1;
                let e = self.parse_expr();
                // Tolerate gcc case ranges `case A ... B:`.
                if self.at_punct(Punct::Ellipsis) {
                    self.pos += 1;
                    let _ = self.parse_expr();
                }
                self.expect_punct(Punct::Colon);
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Case(e),
                }
            }
            TokenKind::Keyword(Keyword::Default) => {
                self.pos += 1;
                self.expect_punct(Punct::Colon);
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Default,
                }
            }
            TokenKind::Keyword(Keyword::Goto) => {
                self.pos += 1;
                let label = self.take_ident().unwrap_or_default();
                self.eat_punct(Punct::Semi);
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Goto(label),
                }
            }
            TokenKind::Keyword(Keyword::Return) => {
                self.pos += 1;
                let value = if self.at_punct(Punct::Semi) {
                    None
                } else {
                    Some(self.parse_expr())
                };
                self.eat_punct(Punct::Semi);
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Return(value),
                }
            }
            TokenKind::Keyword(Keyword::Break) => {
                self.pos += 1;
                self.eat_punct(Punct::Semi);
                Stmt {
                    kind: StmtKind::Break,
                    span: start,
                }
            }
            TokenKind::Keyword(Keyword::Continue) => {
                self.pos += 1;
                self.eat_punct(Punct::Semi);
                Stmt {
                    kind: StmtKind::Continue,
                    span: start,
                }
            }
            TokenKind::Keyword(k) if k.is_decl_specifier() => {
                let decls = self.parse_local_decl();
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Decl(decls),
                }
            }
            TokenKind::Ident(name) if matches!(&**name, "asm" | "__asm__" | "__asm") => {
                // Inline assembly: skip qualifiers and the balanced
                // operand group; the analyses treat it as opaque.
                self.pos += 1;
                while self.at_keyword(Keyword::Volatile)
                    || self.at_keyword(Keyword::Goto)
                    || self.at_keyword(Keyword::Inline)
                {
                    self.pos += 1;
                }
                if self.at_punct(Punct::LParen) {
                    self.skip_balanced(Punct::LParen, Punct::RParen);
                }
                self.eat_punct(Punct::Semi);
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Empty,
                }
            }
            TokenKind::Ident(name) => {
                // Label: `name:` not followed by another `:` (to dodge
                // the rare `a ? b : c` misparse at statement start).
                if self
                    .peek_at(1)
                    .is_some_and(|t| t.kind.is_punct(Punct::Colon))
                {
                    let label = name.to_string();
                    self.pos += 2;
                    return Stmt {
                        span: start.join(self.cur_span()),
                        kind: StmtKind::Label(label),
                    };
                }
                // Macro loop (smartloop) detection.
                if let Some(stmt) = self.try_parse_macro_loop() {
                    return stmt;
                }
                // Declaration with an identifier type (`u32 x;`,
                // `spinlock_t *l;`) vs an expression statement.
                if self.stmt_looks_like_decl() {
                    let decls = self.parse_local_decl();
                    return Stmt {
                        span: start.join(self.cur_span()),
                        kind: StmtKind::Decl(decls),
                    };
                }
                let e = self.parse_expr();
                self.eat_punct(Punct::Semi);
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Expr(e),
                }
            }
            _ => {
                let e = self.parse_expr();
                self.eat_punct(Punct::Semi);
                Stmt {
                    span: start.join(self.cur_span()),
                    kind: StmtKind::Expr(e),
                }
            }
        }
    }

    /// Parses the init clause of a `for`: declaration or expression,
    /// consuming the trailing `;`.
    fn parse_simple_stmt_for_init(&mut self) -> Stmt {
        let start = self.cur_span();
        let is_decl = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Keyword(k)) => k.is_decl_specifier(),
            Some(TokenKind::Ident(_)) => self.stmt_looks_like_decl(),
            _ => false,
        };
        if is_decl {
            let decls = self.parse_local_decl();
            Stmt {
                span: start.join(self.cur_span()),
                kind: StmtKind::Decl(decls),
            }
        } else {
            let e = self.parse_expr();
            self.eat_punct(Punct::Semi);
            Stmt {
                span: start.join(self.cur_span()),
                kind: StmtKind::Expr(e),
            }
        }
    }

    /// Lookahead heuristic: does the statement starting at an identifier
    /// look like a declaration (`type name ...`)?
    fn stmt_looks_like_decl(&self) -> bool {
        // Pattern: Ident (Ident | `*`+ Ident) (`;` | `=` | `,` | `[` | `(`).
        let mut off = 1usize;
        let mut stars = 0usize;
        while self
            .peek_at(off)
            .is_some_and(|t| t.kind.is_punct(Punct::Star))
        {
            stars += 1;
            off += 1;
        }
        let Some(t) = self.peek_at(off) else {
            return false;
        };
        if !matches!(t.kind, TokenKind::Ident(_)) {
            return false;
        }
        match self.peek_at(off + 1).map(|t| &t.kind) {
            Some(TokenKind::Punct(Punct::Semi))
            | Some(TokenKind::Punct(Punct::Assign))
            | Some(TokenKind::Punct(Punct::Comma))
            | Some(TokenKind::Punct(Punct::LBracket)) => true,
            // `type name;` with no stars could also be `a b;` nonsense;
            // accept as declaration either way.
            _ => {
                // `ident ident ident` (e.g. annotated types) — too
                // ambiguous; only accept with stars.
                stars == 0
                    && matches!(
                        self.peek_at(off + 1).map(|t| &t.kind),
                        Some(TokenKind::Ident(_))
                    )
            }
        }
    }

    /// Parses a local declaration statement, returning one
    /// [`Declaration`] per declarator. Consumes the trailing `;`.
    fn parse_local_decl(&mut self) -> Box<[Declaration]> {
        let start = self.cur_span();
        let is_static = self.at_keyword(Keyword::Static);
        let ty = self.parse_type_specifiers();
        let mark = self.decl_stack.len();
        loop {
            let dstart = self.cur_span();
            let mut pointer = 0u8;
            while self.eat_punct(Punct::Star) {
                pointer += 1;
                self.skip_type_qualifiers();
            }
            self.skip_annotations();
            let Some(name) = self.take_ident() else {
                // Unparseable declarator; recover to `;`.
                while !self.at_eof() && !self.at_punct(Punct::Semi) {
                    if self.at_punct(Punct::LBrace) {
                        self.skip_balanced(Punct::LBrace, Punct::RBrace);
                    } else {
                        self.pos += 1;
                    }
                }
                self.eat_punct(Punct::Semi);
                return take_above(&mut self.decl_stack, mark);
            };
            while self.at_punct(Punct::LBracket) {
                self.skip_balanced(Punct::LBracket, Punct::RBracket);
            }
            let init = if self.eat_punct(Punct::Assign) {
                Some(Box::new(self.parse_initializer()))
            } else {
                None
            };
            self.decl_stack.push(Declaration {
                name,
                ty: TypeName {
                    base: ty.base.clone(),
                    pointer,
                },
                init,
                is_static,
                span: dstart.join(self.cur_span()),
            });
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.eat_punct(Punct::Semi);
        let _ = start;
        take_above(&mut self.decl_stack, mark)
    }

    /// Attempts to parse `name(args) { body }` or `for_each_x(args) stmt`
    /// as a macro loop. Returns `None` (cursor unchanged) if the shape
    /// does not match.
    fn try_parse_macro_loop(&mut self) -> Option<Stmt> {
        let save = self.pos;
        let start = self.cur_span();
        let name = match self.peek().and_then(|t| t.ident()) {
            Some(n) => n.to_string(),
            None => return None,
        };
        if !self
            .peek_at(1)
            .is_some_and(|t| t.kind.is_punct(Punct::LParen))
        {
            return None;
        }
        self.pos += 2; // Past `name (`.
        let mark = self.expr_stack.len();
        if !self.at_punct(Punct::RParen) {
            loop {
                let arg = self.parse_assignment_expr();
                self.expr_stack.push(arg);
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
        }
        // `name(args) { ... }` is always a macro loop shape; `name(args)
        // stmt;` only for loop-named macros. Otherwise `foo(x);` is a
        // plain call, which the caller parses again as an expression, so
        // the arguments never leave the stack.
        let closed = self.eat_punct(Punct::RParen);
        let braced = closed && self.at_punct(Punct::LBrace);
        let loopish = name.contains("for_each") || name.starts_with("foreach");
        if !(braced || (closed && loopish && !self.at_punct(Punct::Semi))) {
            self.expr_stack.truncate(mark);
            self.pos = save;
            return None;
        }
        let args = take_above(&mut self.expr_stack, mark);
        let body = if braced {
            let block = self.parse_block();
            Stmt {
                span: block.span,
                kind: StmtKind::Block(block),
            }
        } else {
            self.parse_stmt()
        };
        Some(Stmt {
            kind: StmtKind::MacroLoop {
                name,
                args,
                body: Box::new(body),
            },
            span: start.join(self.cur_span()),
        })
    }
}

/// Parses a standalone statement-list fragment (test convenience).
///
/// # Examples
///
/// ```
/// use refminer_cparse::parse_stmts_str;
///
/// let stmts = parse_stmts_str("x = 1; if (x) return;");
/// assert_eq!(stmts.len(), 2);
/// ```
pub fn parse_stmts_str(src: &str) -> Vec<Stmt> {
    let toks = refminer_clex::Lexer::new(src).tokenize();
    let mut p = Parser::new_for_fragment(toks);
    let mut out = Vec::new();
    while !p.at_eof() {
        let before = p.pos;
        out.push(p.parse_stmt());
        if p.pos == before {
            break;
        }
    }
    out
}

#[allow(unused)]
fn _unused(_e: &Expr) {}
