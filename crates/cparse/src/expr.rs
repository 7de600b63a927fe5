//! Expression grammar: precedence climbing over the token cursor.

use refminer_clex::{Keyword, Punct, Span, TokenKind};

use crate::ast::{AssignOp, BinOp, Expr, ExprKind, PostOp, TypeName, UnOp};
use crate::parser::{take_above, Parser};

impl Parser {
    /// Parses a full expression (including the comma operator).
    pub(crate) fn parse_expr(&mut self) -> Expr {
        let first = self.parse_assignment_expr();
        if !self.at_punct(Punct::Comma) {
            return first;
        }
        let start = first.span;
        let mark = self.expr_stack.len();
        self.expr_stack.push(first);
        while self.eat_punct(Punct::Comma) {
            let item = self.parse_assignment_expr();
            self.expr_stack.push(item);
        }
        let span = start.join(self.cur_span());
        Expr {
            kind: ExprKind::Comma(take_above(&mut self.expr_stack, mark)),
            span,
        }
    }

    /// Parses an assignment expression (no top-level comma).
    pub(crate) fn parse_assignment_expr(&mut self) -> Expr {
        let lhs = self.parse_ternary();
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Punct(Punct::Assign)) => Some(AssignOp::Assign),
            Some(TokenKind::Punct(Punct::PlusAssign)) => Some(AssignOp::Add),
            Some(TokenKind::Punct(Punct::MinusAssign)) => Some(AssignOp::Sub),
            Some(TokenKind::Punct(Punct::StarAssign)) => Some(AssignOp::Mul),
            Some(TokenKind::Punct(Punct::SlashAssign)) => Some(AssignOp::Div),
            Some(TokenKind::Punct(Punct::PercentAssign)) => Some(AssignOp::Rem),
            Some(TokenKind::Punct(Punct::ShlAssign)) => Some(AssignOp::Shl),
            Some(TokenKind::Punct(Punct::ShrAssign)) => Some(AssignOp::Shr),
            Some(TokenKind::Punct(Punct::AmpAssign)) => Some(AssignOp::BitAnd),
            Some(TokenKind::Punct(Punct::CaretAssign)) => Some(AssignOp::BitXor),
            Some(TokenKind::Punct(Punct::PipeAssign)) => Some(AssignOp::BitOr),
            _ => None,
        };
        let Some(op) = op else { return lhs };
        self.pos += 1;
        // `a = b = c = ...` recurses without passing `parse_unary`, so
        // the chain carries its own depth charge.
        let rhs = if self.enter_depth() {
            let r = self.parse_assignment_expr();
            self.leave_depth();
            r
        } else {
            self.unknown_operand()
        };
        let span = lhs.span.join(rhs.span);
        Expr {
            kind: ExprKind::Assign {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
            span,
        }
    }

    fn parse_ternary(&mut self) -> Expr {
        let cond = self.parse_binary(0);
        if !self.eat_punct(Punct::Question) {
            return cond;
        }
        // gcc extension `a ?: b`. Both arms recurse without passing
        // `parse_unary`, so `a ? a ? ... : b : b` chains carry their
        // own depth charge.
        let then = if self.at_punct(Punct::Colon) {
            cond.clone()
        } else if self.enter_depth() {
            let t = self.parse_expr();
            self.leave_depth();
            t
        } else {
            self.unknown_operand()
        };
        self.expect_punct(Punct::Colon);
        let els = if self.enter_depth() {
            let e = self.parse_assignment_expr();
            self.leave_depth();
            e
        } else {
            self.unknown_operand()
        };
        let span = cond.span.join(els.span);
        Expr {
            kind: ExprKind::Ternary {
                cond: Box::new(cond),
                then: Box::new(then),
                els: Box::new(els),
            },
            span,
        }
    }

    /// Precedence-climbing binary expression parser. `min_bp` is the
    /// minimum binding power to accept.
    fn parse_binary(&mut self, min_bp: u8) -> Expr {
        let mut lhs = self.parse_unary();
        // The loop builds a left-deep tree with no parser recursion, so
        // each wrap layer is charged against the depth budget; past the
        // cap the operand is still consumed but the node is dropped.
        let mut held = 0usize;
        while let Some((op, bp)) = self.peek_binop() {
            if bp < min_bp {
                break;
            }
            self.pos += 1;
            let rhs = self.parse_binary(bp + 1);
            if self.enter_depth() {
                held += 1;
                let span = lhs.span.join(rhs.span);
                lhs = Expr {
                    kind: ExprKind::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    },
                    span,
                };
            }
        }
        for _ in 0..held {
            self.leave_depth();
        }
        lhs
    }

    fn peek_binop(&self) -> Option<(BinOp, u8)> {
        use BinOp::*;
        let p = match self.peek().map(|t| &t.kind)? {
            TokenKind::Punct(p) => *p,
            _ => return None,
        };
        Some(match p {
            Punct::OrOr => (Or, 1),
            Punct::AndAnd => (And, 2),
            Punct::Pipe => (BitOr, 3),
            Punct::Caret => (BitXor, 4),
            Punct::Amp => (BitAnd, 5),
            Punct::Eq => (Eq, 6),
            Punct::Ne => (Ne, 6),
            Punct::Lt => (Lt, 7),
            Punct::Gt => (Gt, 7),
            Punct::Le => (Le, 7),
            Punct::Ge => (Ge, 7),
            Punct::Shl => (Shl, 8),
            Punct::Shr => (Shr, 8),
            Punct::Plus => (Add, 9),
            Punct::Minus => (Sub, 9),
            Punct::Star => (Mul, 10),
            Punct::Slash => (Div, 10),
            Punct::Percent => (Rem, 10),
            _ => return None,
        })
    }

    /// Every expression-grammar cycle passes through here, so this is
    /// where the recursion-depth guard lives: at the cap it returns
    /// `unknown_operand`'s `Unknown` node.
    fn parse_unary(&mut self) -> Expr {
        if !self.enter_depth() {
            return self.unknown_operand();
        }
        let e = self.parse_unary_inner();
        self.leave_depth();
        e
    }

    fn parse_unary_inner(&mut self) -> Expr {
        let start = self.cur_span();
        let op = match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Punct(Punct::Star)) => Some(UnOp::Deref),
            Some(TokenKind::Punct(Punct::Amp)) => Some(UnOp::AddrOf),
            Some(TokenKind::Punct(Punct::Minus)) => Some(UnOp::Neg),
            Some(TokenKind::Punct(Punct::Plus)) => Some(UnOp::Plus),
            Some(TokenKind::Punct(Punct::Not)) => Some(UnOp::Not),
            Some(TokenKind::Punct(Punct::Tilde)) => Some(UnOp::BitNot),
            Some(TokenKind::Punct(Punct::Inc)) => Some(UnOp::PreInc),
            Some(TokenKind::Punct(Punct::Dec)) => Some(UnOp::PreDec),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let operand = self.parse_unary();
            let span = start.join(operand.span);
            return Expr {
                kind: ExprKind::Unary {
                    op,
                    operand: Box::new(operand),
                },
                span,
            };
        }
        if self.at_keyword(Keyword::Sizeof) {
            self.pos += 1;
            if self.at_punct(Punct::LParen) && self.looks_like_type_paren() {
                let ty = self.parse_paren_type();
                let span = start.join(self.cur_span());
                return Expr {
                    kind: ExprKind::SizeofType(ty),
                    span,
                };
            }
            let operand = self.parse_unary();
            let span = start.join(operand.span);
            return Expr {
                kind: ExprKind::Sizeof(Box::new(operand)),
                span,
            };
        }
        // Cast: `(type) unary-expr`.
        if self.at_punct(Punct::LParen) && self.looks_like_type_paren() {
            let save = self.pos;
            let ty = self.parse_paren_type();
            // A compound literal `(type){...}` or a following operand.
            if self.at_punct(Punct::LBrace) {
                let items = self.parse_brace_expr_list();
                let span = start.join(self.cur_span());
                return Expr {
                    kind: ExprKind::Cast {
                        ty,
                        expr: Box::new(Expr {
                            kind: ExprKind::InitList(items),
                            span,
                        }),
                    },
                    span,
                };
            }
            if self.starts_operand() {
                let expr = self.parse_unary();
                let span = start.join(expr.span);
                return Expr {
                    kind: ExprKind::Cast {
                        ty,
                        expr: Box::new(expr),
                    },
                    span,
                };
            }
            // Not a cast after all; rewind and parse as parenthesized.
            self.pos = save;
        }
        self.parse_postfix()
    }

    /// Whether the current token can start an operand expression.
    fn starts_operand(&self) -> bool {
        match self.peek().map(|t| &t.kind) {
            Some(TokenKind::Ident(_))
            | Some(TokenKind::IntLit { .. })
            | Some(TokenKind::FloatLit(_))
            | Some(TokenKind::StrLit(_))
            | Some(TokenKind::CharLit(_)) => true,
            Some(TokenKind::Keyword(Keyword::Sizeof)) => true,
            Some(TokenKind::Punct(p)) => matches!(
                p,
                Punct::LParen
                    | Punct::Star
                    | Punct::Amp
                    | Punct::Minus
                    | Punct::Plus
                    | Punct::Not
                    | Punct::Tilde
                    | Punct::Inc
                    | Punct::Dec
            ),
            _ => false,
        }
    }

    /// Heuristic: does the `( ... )` group at the cursor contain a type?
    fn looks_like_type_paren(&self) -> bool {
        let mut off = 1usize;
        let mut saw_word = false;
        loop {
            match self.peek_at(off).map(|t| &t.kind) {
                Some(TokenKind::Keyword(
                    k @ (Keyword::Struct | Keyword::Union | Keyword::Enum),
                )) => {
                    let _ = k;
                    saw_word = true;
                    off += 1;
                    // The tag identifier belongs to the type.
                    if matches!(
                        self.peek_at(off).map(|t| &t.kind),
                        Some(TokenKind::Ident(_))
                    ) {
                        off += 1;
                    }
                }
                Some(TokenKind::Keyword(k)) if k.is_type_start() => {
                    saw_word = true;
                    off += 1;
                }
                Some(TokenKind::Keyword(Keyword::Typeof)) => return true,
                Some(TokenKind::Ident(name)) => {
                    // Unknown single identifier: a type only if `_t`-ish
                    // or followed by `*` then `)`.
                    if saw_word {
                        return false;
                    }
                    let tyish = name.ends_with("_t")
                        || matches!(
                            &**name,
                            "u8" | "u16"
                                | "u32"
                                | "u64"
                                | "s8"
                                | "s16"
                                | "s32"
                                | "s64"
                                | "uintptr_t"
                                | "intptr_t"
                        );
                    saw_word = true;
                    if !tyish {
                        // Look for `ident * )` or `ident * *` patterns.
                        let mut j = off + 1;
                        let mut stars = 0;
                        while self
                            .peek_at(j)
                            .is_some_and(|t| t.kind.is_punct(Punct::Star))
                        {
                            stars += 1;
                            j += 1;
                        }
                        return stars > 0
                            && self
                                .peek_at(j)
                                .is_some_and(|t| t.kind.is_punct(Punct::RParen));
                    }
                    off += 1;
                }
                Some(TokenKind::Punct(Punct::Star)) => {
                    off += 1;
                }
                Some(TokenKind::Punct(Punct::RParen)) => return saw_word,
                _ => return false,
            }
        }
    }

    /// Parses `( type )`, cursor on `(`.
    fn parse_paren_type(&mut self) -> TypeName {
        self.expect_punct(Punct::LParen);
        let base = self.parse_type_specifiers();
        let mut pointer = 0u8;
        while self.eat_punct(Punct::Star) {
            pointer += 1;
            self.skip_type_qualifiers();
        }
        // Tolerate abstract declarator noise up to `)`.
        while !self.at_eof() && !self.at_punct(Punct::RParen) {
            if self.at_punct(Punct::LParen) {
                self.skip_balanced(Punct::LParen, Punct::RParen);
            } else if self.at_punct(Punct::LBracket) {
                self.skip_balanced(Punct::LBracket, Punct::RBracket);
            } else {
                self.pos += 1;
            }
        }
        self.eat_punct(Punct::RParen);
        TypeName {
            base: base.base,
            pointer,
        }
    }

    #[allow(clippy::while_let_loop)] // The match needs the cursor back.
    fn parse_postfix(&mut self) -> Expr {
        let mut e = self.parse_primary();
        // Like `parse_binary`, this loop nests the AST with no parser
        // recursion (`f(x)(y)(z)...`, `a.b.c...`), so every wrap layer
        // is charged against the depth budget. Past the cap the
        // operand tokens are still consumed — recovery on hostile
        // input lands long `(`-runs here — but the node is dropped.
        let mut held = 0usize;
        loop {
            let Some(t) = self.peek() else { break };
            match &t.kind {
                TokenKind::Punct(Punct::LParen) => {
                    self.pos += 1;
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
                    self.expect_punct(Punct::RParen);
                    let args = take_above(&mut self.expr_stack, mark);
                    if self.enter_depth() {
                        held += 1;
                        let span = e.span.join(self.cur_span());
                        e = Expr {
                            kind: ExprKind::Call {
                                callee: Box::new(e),
                                args,
                            },
                            span,
                        };
                    }
                }
                TokenKind::Punct(Punct::LBracket) => {
                    self.pos += 1;
                    let index = self.parse_expr();
                    self.expect_punct(Punct::RBracket);
                    if self.enter_depth() {
                        held += 1;
                        let span = e.span.join(self.cur_span());
                        e = Expr {
                            kind: ExprKind::Index {
                                base: Box::new(e),
                                index: Box::new(index),
                            },
                            span,
                        };
                    }
                }
                TokenKind::Punct(Punct::Dot) | TokenKind::Punct(Punct::Arrow) => {
                    let arrow = t.kind.is_punct(Punct::Arrow);
                    self.pos += 1;
                    let field = self.take_ident().unwrap_or_default();
                    if self.enter_depth() {
                        held += 1;
                        let span = e.span.join(self.cur_span());
                        e = Expr {
                            kind: ExprKind::Member {
                                base: Box::new(e),
                                field,
                                arrow,
                            },
                            span,
                        };
                    }
                }
                TokenKind::Punct(Punct::Inc) => {
                    self.pos += 1;
                    if self.enter_depth() {
                        held += 1;
                        let span = e.span.join(self.cur_span());
                        e = Expr {
                            kind: ExprKind::Postfix {
                                op: PostOp::Inc,
                                operand: Box::new(e),
                            },
                            span,
                        };
                    }
                }
                TokenKind::Punct(Punct::Dec) => {
                    self.pos += 1;
                    if self.enter_depth() {
                        held += 1;
                        let span = e.span.join(self.cur_span());
                        e = Expr {
                            kind: ExprKind::Postfix {
                                op: PostOp::Dec,
                                operand: Box::new(e),
                            },
                            span,
                        };
                    }
                }
                _ => break,
            }
        }
        for _ in 0..held {
            self.leave_depth();
        }
        e
    }

    fn parse_primary(&mut self) -> Expr {
        let span = self.cur_span();
        let Some(t) = self.peek() else {
            return Expr {
                kind: ExprKind::Unknown,
                span,
            };
        };
        match &t.kind {
            TokenKind::Ident(name) => {
                let name = name.to_string();
                self.pos += 1;
                Expr {
                    kind: ExprKind::Ident(name),
                    span,
                }
            }
            TokenKind::IntLit { value, .. } => {
                let v = *value;
                self.pos += 1;
                Expr {
                    kind: ExprKind::IntLit(v),
                    span,
                }
            }
            TokenKind::FloatLit(raw) => {
                let raw = raw.clone();
                self.pos += 1;
                Expr {
                    kind: ExprKind::FloatLit(raw),
                    span,
                }
            }
            TokenKind::StrLit(s) => {
                // Adjacent string literal concatenation.
                let mut text = s.clone();
                self.pos += 1;
                while let Some(TokenKind::StrLit(next)) = self.peek().map(|t| &t.kind) {
                    text.push_str(next);
                    self.pos += 1;
                }
                Expr {
                    kind: ExprKind::StrLit(text),
                    span: span.join(self.cur_span()),
                }
            }
            TokenKind::CharLit(s) => {
                let s = s.clone();
                self.pos += 1;
                Expr {
                    kind: ExprKind::CharLit(s),
                    span,
                }
            }
            TokenKind::Punct(Punct::LParen) => {
                // Statement expression `({ ... })`.
                if self
                    .peek_at(1)
                    .is_some_and(|t| t.kind.is_punct(Punct::LBrace))
                {
                    self.pos += 1;
                    let block = self.parse_block();
                    self.expect_punct(Punct::RParen);
                    return Expr {
                        kind: ExprKind::StmtExpr(block),
                        span: span.join(self.cur_span()),
                    };
                }
                self.pos += 1;
                let inner = self.parse_expr();
                self.expect_punct(Punct::RParen);
                inner
            }
            TokenKind::Punct(Punct::LBrace) => {
                // Brace list in expression position (rare; initializer
                // context mostly handles this path).
                let items = self.parse_brace_expr_list();
                Expr {
                    kind: ExprKind::InitList(items),
                    span: span.join(self.cur_span()),
                }
            }
            TokenKind::Keyword(Keyword::Sizeof) => {
                // Reached via parse_unary normally; degrade gracefully.
                self.pos += 1;
                Expr {
                    kind: ExprKind::Unknown,
                    span,
                }
            }
            _ => {
                self.errors
                    .push(crate::error::ParseError::UnexpectedToken { span });
                self.unknown_operand()
            }
        }
    }

    /// The `Unknown` operand recovery leaves where no operand could be
    /// parsed (past the depth cap, or at a token no operand starts
    /// with). It consumes that one token to make progress, unless the
    /// token is a `}`: that brace closes the enclosing block and belongs
    /// to the block's parser. Consuming it (`return 0;+}`) would fold
    /// every function after it into this one.
    fn unknown_operand(&mut self) -> Expr {
        let span = self.cur_span();
        if !self.at_punct(Punct::RBrace) {
            self.bump();
        }
        Expr {
            kind: ExprKind::Unknown,
            span,
        }
    }

    /// Parses `{ [.name =] expr, ... }` in expression position.
    /// Guarded: nested brace lists recurse here without passing through
    /// `parse_unary`, so the depth cap is checked again.
    fn parse_brace_expr_list(&mut self) -> Box<[(Option<String>, Box<Expr>)]> {
        if !self.enter_depth() {
            if self.at_punct(Punct::LBrace) {
                self.skip_balanced(Punct::LBrace, Punct::RBrace);
            }
            return Box::default();
        }
        let items = self.parse_brace_expr_list_inner();
        self.leave_depth();
        items
    }

    fn parse_brace_expr_list_inner(&mut self) -> Box<[(Option<String>, Box<Expr>)]> {
        self.expect_punct(Punct::LBrace);
        let mut items = Vec::new();
        while !self.at_eof() && !self.at_punct(Punct::RBrace) {
            let designator = if self.at_punct(Punct::Dot) {
                self.pos += 1;
                let n = self.take_ident();
                self.eat_punct(Punct::Assign);
                n
            } else {
                None
            };
            let e = if self.at_punct(Punct::LBrace) {
                let items = self.parse_brace_expr_list();
                let span = self.cur_span();
                Expr {
                    kind: ExprKind::InitList(items),
                    span,
                }
            } else {
                self.parse_assignment_expr()
            };
            items.push((designator, Box::new(e)));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.eat_punct(Punct::RBrace);
        items.into()
    }
}

/// Parses a standalone expression string (test/tooling convenience).
///
/// # Examples
///
/// ```
/// use refminer_cparse::parse_expr_str;
///
/// let e = parse_expr_str("dev->kobj.kref");
/// assert_eq!(e.root_var(), Some("dev"));
/// ```
pub fn parse_expr_str(src: &str) -> Expr {
    let toks = refminer_clex::Lexer::new(src).tokenize();
    let mut p = Parser::new_for_fragment(toks);
    p.parse_expr()
}

#[allow(unused)]
fn _span_dummy() -> Span {
    Span::default()
}
