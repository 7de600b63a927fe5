//! Per-node semantic facts extracted from CFG node payloads.
//!
//! The checkers never re-walk ASTs: every node of a
//! [`FunctionGraph`](crate::FunctionGraph) carries a [`NodeFacts`] with
//! the calls, assignments, dereferences, NULL/error checks and return
//! shape found in its payload. These correspond to the paper's semantic
//! operators (𝒢, 𝒫, 𝒜, 𝒟, ...) once an API knowledge base assigns
//! refcounting meaning to call names.

use refminer_cparse::{BinOp, Expr, ExprKind, UnOp};

use crate::cfg::{CfgNode, NodeKind, Payload};

/// One argument of a call, reduced to what the checkers need.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgFact {
    /// The root variable of the argument expression, if any
    /// (`&serial->disc_mutex` → `serial`).
    pub root: Option<String>,
    /// Whether the argument is syntactically `NULL` or literal `0`.
    pub is_null: bool,
}

/// A direct call `name(args...)` found in a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallFact {
    /// Callee name.
    pub name: String,
    /// Reduced arguments.
    pub args: Vec<ArgFact>,
}

impl CallFact {
    /// Root variable of argument `i`, if present.
    pub fn arg_root(&self, i: usize) -> Option<&str> {
        self.args.get(i).and_then(|a| a.root.as_deref())
    }
}

/// Where an assignment stores to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreTarget {
    /// A plain local variable: `v = ...`.
    Var(String),
    /// A field of some object: `obj->field = ...` (root kept).
    Field {
        /// Root variable of the written object.
        root: String,
        /// The field name.
        field: String,
    },
    /// A dereference store `*p = ...` or array store `p[i] = ...`.
    Indirect(String),
    /// Anything else.
    Other,
}

/// An assignment found in a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignFact {
    /// Destination shape.
    pub target: StoreTarget,
    /// If the right-hand side is (or ends in) a direct call, its name.
    pub rhs_call: Option<String>,
    /// If the right-hand side is a plain variable/member chain, its
    /// root variable.
    pub rhs_root: Option<String>,
}

/// A NULL-ness or error-ness test appearing in a condition node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckFact {
    /// `!p` or `p == NULL` — true branch means the pointer is NULL.
    NullOnTrue(String),
    /// `p` or `p != NULL` — true branch means the pointer is valid.
    NonNullOnTrue(String),
    /// `ret < 0`, `ret`, `IS_ERR(p)`, `unlikely(err)` — true branch is
    /// the error path.
    ErrOnTrue(String),
    /// `IS_ERR(p)` / `IS_ERR_OR_NULL(p)` specifically — the pointer is
    /// an error sentinel on the true branch (no reference held).
    ErrPtrOnTrue(String),
    /// `!ret`, `ret == 0` — true branch is the success path.
    OkOnTrue(String),
}

/// The digest of a single CFG node.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NodeFacts {
    /// All direct calls, outermost-first.
    pub calls: Vec<CallFact>,
    /// All assignments (including declaration initializers; a
    /// declaration `T *v = f(x)` yields `v = f(x)`).
    pub assigns: Vec<AssignFact>,
    /// Root variables dereferenced in the node (through `->`, `*`, `[]`,
    /// or `.` on a pointer-ish chain).
    pub derefs: Vec<String>,
    /// For condition nodes, the recognized checks.
    pub checks: Vec<CheckFact>,
    /// For return nodes: the returned root variable, if a simple one.
    pub returns_var: Option<String>,
    /// For return nodes: whether the value is a (possibly wrapped)
    /// negative error constant, `-EINVAL`-style.
    pub returns_error: bool,
    /// Whether this node is a `return` at all.
    pub is_return: bool,
}

impl NodeFacts {
    /// Extracts facts from a CFG node.
    pub fn of(node: &CfgNode) -> NodeFacts {
        let mut f = NodeFacts::default();
        match &node.kind {
            NodeKind::Stmt(Payload::Expr(e)) => {
                f.absorb_expr(e);
            }
            NodeKind::Stmt(Payload::Decl(decls)) => {
                for d in decls {
                    if let Some(refminer_cparse::Initializer::Expr(init)) = d.init.as_deref() {
                        f.absorb_expr(init);
                        f.assigns.push(AssignFact {
                            target: StoreTarget::Var(d.name.clone()),
                            rhs_call: init.as_direct_call().map(|(n, _)| n.to_string()),
                            rhs_root: init.root_var().map(str::to_string),
                        });
                    }
                }
            }
            NodeKind::Stmt(Payload::Return(value)) => {
                f.is_return = true;
                if let Some(v) = value {
                    f.absorb_expr(v);
                    f.returns_var = v.root_var().map(str::to_string);
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
    pub fn call(&self, name: &str) -> Option<&CallFact> {
        self.calls.iter().find(|c| c.name == name)
    }

    /// Whether the node dereferences the variable `var`.
    pub fn derefs_var(&self, var: &str) -> bool {
        self.derefs.iter().any(|d| d == var)
    }

    fn absorb_expr(&mut self, e: &Expr) {
        collect_calls(e, &mut self.calls);
        collect_derefs(e, &mut self.derefs);
        collect_assigns(e, &mut self.assigns);
    }
}

fn reduce_arg(e: &Expr) -> ArgFact {
    let is_null = match &e.kind {
        ExprKind::Ident(s) => s == "NULL",
        ExprKind::IntLit(0) => true,
        ExprKind::Cast { expr, .. } => matches!(expr.kind, ExprKind::IntLit(0)),
        _ => false,
    };
    ArgFact {
        root: e.root_var().map(str::to_string),
        is_null,
    }
}

fn collect_calls(e: &Expr, out: &mut Vec<CallFact>) {
    e.walk(&mut |sub| {
        if let ExprKind::Call { callee, args } = &sub.kind {
            if let Some(name) = callee.as_ident() {
                out.push(CallFact {
                    name: name.to_string(),
                    args: args.iter().map(reduce_arg).collect(),
                });
            }
        }
    });
}

fn collect_derefs(e: &Expr, out: &mut Vec<String>) {
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
            if !out.iter().any(|o| o == r) {
                out.push(r.to_string());
            }
        }
    });
}

fn collect_assigns(e: &Expr, out: &mut Vec<AssignFact>) {
    e.walk(&mut |sub| {
        if let ExprKind::Assign { lhs, rhs, .. } = &sub.kind {
            let target = match &lhs.kind {
                ExprKind::Ident(v) => StoreTarget::Var(v.clone()),
                ExprKind::Member { base, field, .. } => match base.root_var() {
                    Some(root) => StoreTarget::Field {
                        root: root.to_string(),
                        field: field.clone(),
                    },
                    None => StoreTarget::Other,
                },
                ExprKind::Unary {
                    op: UnOp::Deref,
                    operand,
                } => match operand.root_var() {
                    Some(root) => StoreTarget::Indirect(root.to_string()),
                    None => StoreTarget::Other,
                },
                ExprKind::Index { base, .. } => match base.root_var() {
                    Some(root) => StoreTarget::Indirect(root.to_string()),
                    None => StoreTarget::Other,
                },
                _ => StoreTarget::Other,
            };
            out.push(AssignFact {
                target,
                rhs_call: rhs.as_direct_call().map(|(n, _)| n.to_string()),
                rhs_root: rhs.root_var().map(str::to_string),
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
pub(crate) fn extract_checks(e: &Expr, polarity: bool, out: &mut Vec<CheckFact>) {
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
                        out.push(CheckFact::NullOnTrue(v.clone()));
                        if errish_name(v) {
                            out.push(CheckFact::OkOnTrue(v.clone()));
                        }
                    } else {
                        out.push(CheckFact::NonNullOnTrue(v.clone()));
                        if errish_name(v) {
                            out.push(CheckFact::ErrOnTrue(v.clone()));
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
                out.push(CheckFact::NonNullOnTrue(v.clone()));
                if errish_name(v) {
                    out.push(CheckFact::ErrOnTrue(v.clone()));
                }
            } else {
                out.push(CheckFact::NullOnTrue(v.clone()));
                if errish_name(v) {
                    out.push(CheckFact::OkOnTrue(v.clone()));
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
                        (Some(v.clone()), true, false)
                    }
                    (ExprKind::Ident(v), ExprKind::IntLit(0))
                    | (ExprKind::IntLit(0), ExprKind::Ident(v)) => (Some(v.clone()), false, true),
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
                        out.push(CheckFact::ErrOnTrue(v.clone()));
                    } else {
                        out.push(CheckFact::OkOnTrue(v.clone()));
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
                        out.push(CheckFact::ErrOnTrue(v.to_string()));
                        out.push(CheckFact::ErrPtrOnTrue(v.to_string()));
                    } else {
                        out.push(CheckFact::OkOnTrue(v.to_string()));
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
    use refminer_cparse::{parse_expr_str, parse_stmts_str, StmtKind};

    fn facts_of_stmt(src: &str) -> NodeFacts {
        let stmts = parse_stmts_str(src);
        let node = match &stmts[0].kind {
            StmtKind::Expr(e) => CfgNode {
                kind: NodeKind::Stmt(Payload::Expr(e.clone())),
                span: Span::default(),
                loops: Vec::new(),
            },
            StmtKind::Decl(d) => CfgNode {
                kind: NodeKind::Stmt(Payload::Decl(d.clone())),
                span: Span::default(),
                loops: Vec::new(),
            },
            StmtKind::Return(v) => CfgNode {
                kind: NodeKind::Stmt(Payload::Return(v.clone())),
                span: Span::default(),
                loops: Vec::new(),
            },
            other => panic!("unsupported test stmt {other:?}"),
        };
        NodeFacts::of(&node)
    }

    fn facts_of_cond(src: &str) -> NodeFacts {
        let e = parse_expr_str(src);
        NodeFacts::of(&CfgNode {
            kind: NodeKind::Cond(e),
            span: Span::default(),
            loops: Vec::new(),
        })
    }

    #[test]
    fn call_facts() {
        let f = facts_of_stmt("of_node_put(np);");
        assert!(f.calls_named("of_node_put"));
        assert_eq!(f.call("of_node_put").unwrap().arg_root(0), Some("np"));
    }

    #[test]
    fn nested_call_facts() {
        let f = facts_of_stmt("register_thing(of_find_node_by_name(NULL, name));");
        assert!(f.calls_named("register_thing"));
        assert!(f.calls_named("of_find_node_by_name"));
        assert!(f.call("of_find_node_by_name").unwrap().args[0].is_null);
    }

    #[test]
    fn decl_initializer_becomes_assign() {
        let f = facts_of_stmt("struct device *dev = bus_find_device(bus, NULL, np, m);");
        assert_eq!(f.assigns.len(), 1);
        assert_eq!(f.assigns[0].target, StoreTarget::Var("dev".to_string()));
        assert_eq!(f.assigns[0].rhs_call.as_deref(), Some("bus_find_device"));
    }

    #[test]
    fn member_store_target() {
        let f = facts_of_stmt("priv->node = np;");
        assert_eq!(
            f.assigns[0].target,
            StoreTarget::Field {
                root: "priv".into(),
                field: "node".into()
            }
        );
        assert_eq!(f.assigns[0].rhs_root.as_deref(), Some("np"));
    }

    #[test]
    fn deref_detection() {
        let f = facts_of_stmt("x = serial->port[0];");
        assert!(f.derefs_var("serial"));
        let f = facts_of_stmt("y = *ptr;");
        assert!(f.derefs_var("ptr"));
        let f = facts_of_stmt("z = plain;");
        assert!(f.derefs.is_empty());
    }

    #[test]
    fn return_error_shapes() {
        assert!(facts_of_stmt("return -EINVAL;").returns_error);
        assert!(facts_of_stmt("return ERR_PTR(-ENOMEM);").returns_error);
        assert!(facts_of_stmt("return NULL;").returns_error);
        let f = facts_of_stmt("return ret;");
        assert!(!f.returns_error);
        assert_eq!(f.returns_var.as_deref(), Some("ret"));
    }

    #[test]
    fn null_checks() {
        let f = facts_of_cond("!dev");
        assert!(f.checks.contains(&CheckFact::NullOnTrue("dev".into())));
        let f = facts_of_cond("dev == NULL");
        assert!(f.checks.contains(&CheckFact::NullOnTrue("dev".into())));
        let f = facts_of_cond("dev != NULL");
        assert!(f.checks.contains(&CheckFact::NonNullOnTrue("dev".into())));
        let f = facts_of_cond("dev");
        assert!(f.checks.contains(&CheckFact::NonNullOnTrue("dev".into())));
    }

    #[test]
    fn error_checks() {
        let f = facts_of_cond("ret < 0");
        assert!(f.checks.contains(&CheckFact::ErrOnTrue("ret".into())));
        let f = facts_of_cond("IS_ERR(clk)");
        assert!(f.checks.contains(&CheckFact::ErrOnTrue("clk".into())));
        let f = facts_of_cond("unlikely(ret < 0)");
        assert!(f.checks.contains(&CheckFact::ErrOnTrue("ret".into())));
        let f = facts_of_cond("!ret");
        assert!(f.checks.contains(&CheckFact::OkOnTrue("ret".into())));
    }

    #[test]
    fn compound_condition_checks() {
        let f = facts_of_cond("!np || ret < 0");
        assert!(f.checks.contains(&CheckFact::NullOnTrue("np".into())));
        assert!(f.checks.contains(&CheckFact::ErrOnTrue("ret".into())));
    }
}
