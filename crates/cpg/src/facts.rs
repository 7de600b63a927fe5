//! Per-node semantic facts extracted from CFG node payloads.
//!
//! The checkers never re-walk ASTs: every node of a
//! [`FunctionGraph`](crate::FunctionGraph) carries a [`NodeFacts`] with
//! the calls, assignments, dereferences, NULL/error checks and return
//! shape found in its payload. These correspond to the paper's semantic
//! operators (𝒢, 𝒫, 𝒜, 𝒟, ...) once an API knowledge base assigns
//! refcounting meaning to call names.
//!
//! Facts name variables, fields and callees by `&str`s borrowed from the
//! function's AST, like the CFG nodes they are read from.

use refminer_cparse::{BinOp, Expr, ExprKind, UnOp};

use crate::cfg::{CfgNode, NodeKind, Payload};

/// One argument of a call, reduced to what the checkers need.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArgFact<'a> {
    /// The root variable of the argument expression, if any
    /// (`&serial->disc_mutex` → `serial`).
    pub root: Option<&'a str>,
    /// Whether the argument is syntactically `NULL` or literal `0`.
    pub is_null: bool,
}

/// A direct call `name(args...)` found in a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact<'a> {
    /// Callee name.
    pub name: &'a str,
    /// Reduced arguments.
    pub args: Vec<ArgFact<'a>>,
}

impl<'a> CallFact<'a> {
    /// Root variable of argument `i`, if present.
    pub fn arg_root(&self, i: usize) -> Option<&'a str> {
        self.args.get(i).and_then(|a| a.root)
    }
}

/// Where an assignment stores to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreTarget<'a> {
    /// A plain local variable: `v = ...`.
    Var(&'a str),
    /// A field of some object: `obj->field = ...` (root kept).
    Field {
        /// Root variable of the written object.
        root: &'a str,
        /// The field name.
        field: &'a str,
    },
    /// A dereference store `*p = ...` or array store `p[i] = ...`.
    Indirect(&'a str),
    /// Anything else.
    Other,
}

/// An assignment found in a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AssignFact<'a> {
    /// Destination shape.
    pub target: StoreTarget<'a>,
    /// If the right-hand side is (or ends in) a direct call, its name.
    pub rhs_call: Option<&'a str>,
    /// If the right-hand side is a plain variable/member chain, its
    /// root variable.
    pub rhs_root: Option<&'a str>,
}

/// A NULL-ness or error-ness test appearing in a condition node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckFact<'a> {
    /// `!p` or `p == NULL` — true branch means the pointer is NULL.
    NullOnTrue(&'a str),
    /// `p` or `p != NULL` — true branch means the pointer is valid.
    NonNullOnTrue(&'a str),
    /// `ret < 0`, `ret`, `IS_ERR(p)`, `unlikely(err)` — true branch is
    /// the error path.
    ErrOnTrue(&'a str),
    /// `IS_ERR(p)` / `IS_ERR_OR_NULL(p)` specifically — the pointer is
    /// an error sentinel on the true branch (no reference held).
    ErrPtrOnTrue(&'a str),
    /// `!ret`, `ret == 0` — true branch is the success path.
    OkOnTrue(&'a str),
}

/// The digest of a single CFG node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeFacts<'a> {
    /// All direct calls, outermost-first.
    pub calls: Vec<CallFact<'a>>,
    /// All assignments (including declaration initializers; a
    /// declaration `T *v = f(x)` yields `v = f(x)`).
    pub assigns: Vec<AssignFact<'a>>,
    /// Root variables dereferenced in the node (through `->`, `*`, `[]`,
    /// or `.` on a pointer-ish chain).
    pub derefs: Vec<&'a str>,
    /// For condition nodes, the recognized checks.
    pub checks: Vec<CheckFact<'a>>,
    /// For return nodes: the returned root variable, if a simple one.
    pub returns_var: Option<&'a str>,
    /// For return nodes: whether the value is a (possibly wrapped)
    /// negative error constant, `-EINVAL`-style.
    pub returns_error: bool,
    /// Whether this node is a `return` at all.
    pub is_return: bool,
}

impl<'a> NodeFacts<'a> {
    /// Extracts facts from a CFG node.
    pub fn of(node: &CfgNode<'a>) -> NodeFacts<'a> {
        let mut f = NodeFacts::default();
        match node.kind {
            NodeKind::Stmt(Payload::Expr(e)) => {
                f.absorb_expr(e);
            }
            NodeKind::Stmt(Payload::Decl(decls)) => {
                for d in decls {
                    if let Some(refminer_cparse::Initializer::Expr(init)) = d.init.as_deref() {
                        f.absorb_expr(init);
                        f.assigns.push(AssignFact {
                            target: StoreTarget::Var(&d.name),
                            rhs_call: init.as_direct_call().map(|(n, _)| n),
                            rhs_root: init.root_var(),
                        });
                    }
                }
            }
            NodeKind::Stmt(Payload::Return(value)) => {
                f.is_return = true;
                if let Some(v) = value {
                    f.absorb_expr(v);
                    f.returns_var = v.root_var();
                    f.returns_error = is_error_value(v);
                }
            }
            NodeKind::Cond(c) => {
                f.absorb_expr(c);
                extract_checks(c, true, &mut f.checks);
            }
            NodeKind::MacroLoopHead { args, .. } => {
                for a in args {
                    f.absorb_expr(a);
                }
            }
            NodeKind::Case(e) => {
                f.absorb_expr(e);
            }
            _ => {}
        }
        f
    }

    /// Whether the node calls `name` at all.
    pub fn calls_named(&self, name: &str) -> bool {
        self.calls.iter().any(|c| c.name == name)
    }

    /// The first call to `name`, if any.
    pub fn call(&self, name: &str) -> Option<&CallFact<'a>> {
        self.calls.iter().find(|c| c.name == name)
    }

    /// Whether the node dereferences the variable `var`.
    pub fn derefs_var(&self, var: &str) -> bool {
        self.derefs.contains(&var)
    }

    fn absorb_expr(&mut self, e: &'a Expr) {
        collect_calls(e, &mut self.calls);
        collect_derefs(e, &mut self.derefs);
        collect_assigns(e, &mut self.assigns);
    }
}

fn reduce_arg(e: &Expr) -> ArgFact<'_> {
    let is_null = match &e.kind {
        ExprKind::Ident(s) => s == "NULL",
        ExprKind::IntLit(0) => true,
        ExprKind::Cast { expr, .. } => matches!(expr.kind, ExprKind::IntLit(0)),
        _ => false,
    };
    ArgFact {
        root: e.root_var(),
        is_null,
    }
}

fn collect_calls<'a>(e: &'a Expr, out: &mut Vec<CallFact<'a>>) {
    e.walk(&mut |sub| {
        if let ExprKind::Call { callee, args } = &sub.kind {
            if let Some(name) = callee.as_ident() {
                out.push(CallFact {
                    name,
                    args: args.iter().map(reduce_arg).collect(),
                });
            }
        }
    });
}

fn collect_derefs<'a>(e: &'a Expr, out: &mut Vec<&'a str>) {
    e.walk(&mut |sub| {
        let root = match &sub.kind {
            ExprKind::Member { base, arrow, .. } => {
                if *arrow {
                    base.root_var()
                } else {
                    None
                }
            }
            ExprKind::Unary {
                op: UnOp::Deref,
                operand,
            } => operand.root_var(),
            ExprKind::Index { base, .. } => base.root_var(),
            _ => None,
        };
        if let Some(r) = root {
            if !out.contains(&r) {
                out.push(r);
            }
        }
    });
}

fn collect_assigns<'a>(e: &'a Expr, out: &mut Vec<AssignFact<'a>>) {
    e.walk(&mut |sub| {
        if let ExprKind::Assign { lhs, rhs, .. } = &sub.kind {
            let target = match &lhs.kind {
                ExprKind::Ident(v) => StoreTarget::Var(v),
                ExprKind::Member { base, field, .. } => match base.root_var() {
                    Some(root) => StoreTarget::Field { root, field },
                    None => StoreTarget::Other,
                },
                ExprKind::Unary {
                    op: UnOp::Deref,
                    operand,
                } => operand
                    .root_var()
                    .map_or(StoreTarget::Other, StoreTarget::Indirect),
                ExprKind::Index { base, .. } => base
                    .root_var()
                    .map_or(StoreTarget::Other, StoreTarget::Indirect),
                _ => StoreTarget::Other,
            };
            out.push(AssignFact {
                target,
                rhs_call: rhs.as_direct_call().map(|(n, _)| n),
                rhs_root: rhs.root_var(),
            });
        }
    });
}

/// Whether an expression is an error value: `-E...`, `ERR_PTR(..)`,
/// a negative literal, or `NULL`.
fn is_error_value(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Unary {
            op: UnOp::Neg,
            operand,
        } => {
            matches!(
                &operand.kind,
                ExprKind::Ident(name) if name.starts_with('E')
            ) || matches!(operand.kind, ExprKind::IntLit(_))
        }
        ExprKind::IntLit(v) => *v < 0,
        ExprKind::Ident(name) => name == "NULL",
        ExprKind::Call { callee, .. } => {
            matches!(callee.as_ident(), Some("ERR_PTR") | Some("ERR_CAST"))
        }
        ExprKind::Cast { expr, .. } => is_error_value(expr),
        _ => false,
    }
}

/// Whether a variable name conventionally holds an error code.
pub(crate) fn errish_name(name: &str) -> bool {
    matches!(
        name,
        "ret" | "err" | "error" | "rc" | "status" | "res" | "result" | "retval" | "rv"
    ) || name.ends_with("_ret")
        || name.ends_with("_err")
        || name.ends_with("_rc")
}

/// Recognizes NULL/error checks in a condition expression.
///
/// `polarity` is true when the expression's truth selects the True CFG
/// edge; `!` flips it.
pub(crate) fn extract_checks<'a>(e: &'a Expr, polarity: bool, out: &mut Vec<CheckFact<'a>>) {
    match &e.kind {
        ExprKind::Unary {
            op: UnOp::Not,
            operand,
        } => {
            // `!x` — recurse with flipped polarity, but also recognize
            // the direct `!ptr` / `!ret` shapes.
            match &operand.kind {
                ExprKind::Ident(v) => {
                    if polarity {
                        out.push(CheckFact::NullOnTrue(v));
                        if errish_name(v) {
                            out.push(CheckFact::OkOnTrue(v));
                        }
                    } else {
                        out.push(CheckFact::NonNullOnTrue(v));
                        if errish_name(v) {
                            out.push(CheckFact::ErrOnTrue(v));
                        }
                    }
                }
                _ => extract_checks(operand, !polarity, out),
            }
        }
        ExprKind::Ident(v) => {
            // A bare `if (x)` is an error check only when the variable
            // *names* an error code (`ret`, `err`, ...); for pointers
            // the true branch means "valid", which must not be
            // classified as error handling.
            if polarity {
                out.push(CheckFact::NonNullOnTrue(v));
                if errish_name(v) {
                    out.push(CheckFact::ErrOnTrue(v));
                }
            } else {
                out.push(CheckFact::NullOnTrue(v));
                if errish_name(v) {
                    out.push(CheckFact::OkOnTrue(v));
                }
            }
        }
        ExprKind::Binary { op, lhs, rhs } => match op {
            BinOp::Eq | BinOp::Ne => {
                // For `p == NULL` with normal polarity, the True edge
                // means p *is* NULL; `!=` or a negation flips that.
                let eq_on_true = (*op == BinOp::Eq) == polarity;
                let flipped = !eq_on_true;
                // `p == NULL` (flipped=false when polarity true & Eq).
                let (var, against_null, against_zero) = match (&lhs.kind, &rhs.kind) {
                    (ExprKind::Ident(v), other) | (other, ExprKind::Ident(v)) if matches!(other, ExprKind::Ident(n) if n == "NULL") => {
                        (Some(v), true, false)
                    }
                    (ExprKind::Ident(v), ExprKind::IntLit(0))
                    | (ExprKind::IntLit(0), ExprKind::Ident(v)) => (Some(v), false, true),
                    _ => (None, false, false),
                };
                if let Some(v) = var {
                    if against_null {
                        if flipped {
                            out.push(CheckFact::NonNullOnTrue(v));
                        } else {
                            out.push(CheckFact::NullOnTrue(v));
                        }
                    } else if against_zero {
                        if flipped {
                            out.push(CheckFact::ErrOnTrue(v));
                        } else {
                            out.push(CheckFact::OkOnTrue(v));
                        }
                    }
                }
            }
            BinOp::Lt => {
                // `ret < 0`.
                if let (ExprKind::Ident(v), ExprKind::IntLit(0)) = (&lhs.kind, &rhs.kind) {
                    if polarity {
                        out.push(CheckFact::ErrOnTrue(v));
                    } else {
                        out.push(CheckFact::OkOnTrue(v));
                    }
                }
            }
            BinOp::And | BinOp::Or => {
                extract_checks(lhs, polarity, out);
                extract_checks(rhs, polarity, out);
            }
            _ => {}
        },
        ExprKind::Call { callee, args } => match callee.as_ident() {
            Some("IS_ERR") | Some("IS_ERR_OR_NULL") => {
                if let Some(v) = args.first().and_then(|a| a.root_var()) {
                    if polarity {
                        out.push(CheckFact::ErrOnTrue(v));
                        out.push(CheckFact::ErrPtrOnTrue(v));
                    } else {
                        out.push(CheckFact::OkOnTrue(v));
                    }
                }
            }
            Some("unlikely") | Some("likely") => {
                if let Some(a) = args.first() {
                    extract_checks(a, polarity, out);
                }
            }
            _ => {}
        },
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_clex::Span;
    use refminer_cparse::{parse_expr_str, parse_stmts_str, Stmt, StmtKind};

    fn node(kind: NodeKind<'_>) -> CfgNode<'_> {
        CfgNode {
            kind,
            span: Span::default(),
            loop_head: None,
        }
    }

    /// The facts of the node built for the first of `stmts`.
    fn stmt_facts(stmts: &[Stmt]) -> NodeFacts<'_> {
        let payload = match &stmts[0].kind {
            StmtKind::Expr(e) => Payload::Expr(e),
            StmtKind::Decl(d) => Payload::Decl(d),
            StmtKind::Return(v) => Payload::Return(v.as_ref()),
            other => panic!("unsupported test stmt {other:?}"),
        };
        NodeFacts::of(&node(NodeKind::Stmt(payload)))
    }

    fn cond_facts(e: &Expr) -> NodeFacts<'_> {
        NodeFacts::of(&node(NodeKind::Cond(e)))
    }

    #[test]
    fn call_facts() {
        let s = parse_stmts_str("of_node_put(np);");
        let f = stmt_facts(&s);
        assert!(f.calls_named("of_node_put"));
        assert_eq!(f.call("of_node_put").unwrap().arg_root(0), Some("np"));
    }

    #[test]
    fn nested_call_facts() {
        let s = parse_stmts_str("register_thing(of_find_node_by_name(NULL, name));");
        let f = stmt_facts(&s);
        assert!(f.calls_named("register_thing"));
        assert!(f.calls_named("of_find_node_by_name"));
        assert!(f.call("of_find_node_by_name").unwrap().args[0].is_null);
    }

    #[test]
    fn decl_initializer_becomes_assign() {
        let s = parse_stmts_str("struct device *dev = bus_find_device(bus, NULL, np, m);");
        let f = stmt_facts(&s);
        assert_eq!(f.assigns.len(), 1);
        assert_eq!(f.assigns[0].target, StoreTarget::Var("dev"));
        assert_eq!(f.assigns[0].rhs_call, Some("bus_find_device"));
    }

    #[test]
    fn member_store_target() {
        let s = parse_stmts_str("priv->node = np;");
        let f = stmt_facts(&s);
        assert_eq!(
            f.assigns[0].target,
            StoreTarget::Field {
                root: "priv",
                field: "node"
            }
        );
        assert_eq!(f.assigns[0].rhs_root, Some("np"));
    }

    #[test]
    fn deref_detection() {
        let s = parse_stmts_str("x = serial->port[0];");
        let f = stmt_facts(&s);
        assert!(f.derefs_var("serial"));
        let s = parse_stmts_str("y = *ptr;");
        let f = stmt_facts(&s);
        assert!(f.derefs_var("ptr"));
        let s = parse_stmts_str("z = plain;");
        let f = stmt_facts(&s);
        assert!(f.derefs.is_empty());
    }

    #[test]
    fn return_error_shapes() {
        for src in [
            "return -EINVAL;",
            "return ERR_PTR(-ENOMEM);",
            "return NULL;",
        ] {
            let s = parse_stmts_str(src);
            assert!(stmt_facts(&s).returns_error, "{src}");
        }
        let s = parse_stmts_str("return ret;");
        let f = stmt_facts(&s);
        assert!(!f.returns_error);
        assert_eq!(f.returns_var, Some("ret"));
    }

    #[test]
    fn null_checks() {
        let e = parse_expr_str("!dev");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::NullOnTrue("dev")));
        let e = parse_expr_str("dev == NULL");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::NullOnTrue("dev")));
        let e = parse_expr_str("dev != NULL");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::NonNullOnTrue("dev")));
        let e = parse_expr_str("dev");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::NonNullOnTrue("dev")));
    }

    #[test]
    fn error_checks() {
        let e = parse_expr_str("ret < 0");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::ErrOnTrue("ret")));
        let e = parse_expr_str("IS_ERR(clk)");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::ErrOnTrue("clk")));
        let e = parse_expr_str("unlikely(ret < 0)");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::ErrOnTrue("ret")));
        let e = parse_expr_str("!ret");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::OkOnTrue("ret")));
    }

    #[test]
    fn compound_condition_checks() {
        let e = parse_expr_str("!np || ret < 0");
        let f = cond_facts(&e);
        assert!(f.checks.contains(&CheckFact::NullOnTrue("np")));
        assert!(f.checks.contains(&CheckFact::ErrOnTrue("ret")));
    }
}
