//! The abstract syntax tree produced by the parser.
//!
//! The tree is deliberately *syntactic*: there is no symbol table and no
//! type checking. Types are kept as lightly-structured text
//! ([`TypeName`]), which is all the downstream refcounting analyses need
//! (they match on struct names like `kref` and pointer-ness, never on
//! full C semantics).

use refminer_clex::Span;

/// A parsed source file.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslationUnit {
    /// The path the file was parsed from (informational).
    pub path: String,
    /// Top-level items in source order.
    pub items: Box<[Item]>,
}

impl TranslationUnit {
    /// Iterates over the function definitions in the unit.
    pub fn functions(&self) -> impl Iterator<Item = &FunctionDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Function(f) => Some(f),
            _ => None,
        })
    }

    /// Finds a function definition by name.
    pub fn function(&self, name: &str) -> Option<&FunctionDef> {
        self.functions().find(|f| f.name == name)
    }

    /// Iterates over struct definitions (including unions).
    pub fn structs(&self) -> impl Iterator<Item = &StructDef> {
        self.items.iter().filter_map(|i| match i {
            Item::Struct(s) => Some(s),
            _ => None,
        })
    }

    /// Iterates over top-level variable declarations.
    pub fn globals(&self) -> impl Iterator<Item = &Declaration> {
        self.items.iter().filter_map(|i| match i {
            Item::Global(d) => Some(d),
            _ => None,
        })
    }
}

/// A top-level item.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    /// A function definition with a body.
    Function(FunctionDef),
    /// A struct or union definition with fields.
    Struct(StructDef),
    /// An enum definition.
    Enum(EnumDef),
    /// A `typedef`.
    Typedef(Typedef),
    /// A global variable declaration (possibly initialized — driver
    /// ops tables land here).
    Global(Declaration),
    /// A function *declaration* (prototype without body).
    Prototype(Prototype),
    /// Anything the parser skipped while recovering; the raw text span
    /// is preserved so nothing is silently lost.
    Skipped(Span),
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionDef {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: TypeName,
    /// Parameters in order.
    pub params: Box<[Param]>,
    /// Whether the definition is `static`.
    pub is_static: bool,
    /// The body.
    pub body: Block,
    /// Span of the whole definition.
    pub span: Span,
}

/// A function prototype (no body).
#[derive(Debug, Clone, PartialEq)]
pub struct Prototype {
    /// Function name.
    pub name: String,
    /// Return type.
    pub ret: TypeName,
    /// Parameters.
    pub params: Box<[Param]>,
    /// Span of the prototype.
    pub span: Span,
}

/// A single function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    /// Parameter name, if present (prototypes may omit it).
    pub name: Option<String>,
    /// Parameter type.
    pub ty: TypeName,
}

/// A lightly-structured type.
///
/// `base` is the core type word(s) — e.g. `struct device_node`,
/// `unsigned long`, `u32` — and `pointer` counts the `*`s applied by the
/// declarator.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct TypeName {
    /// The base type text, qualifiers stripped.
    pub base: String,
    /// Pointer depth from the declarator.
    pub pointer: u8,
}

impl TypeName {
    /// Creates a non-pointer type from its base text.
    pub fn new(base: impl Into<String>) -> TypeName {
        TypeName {
            base: base.into(),
            pointer: 0,
        }
    }

    /// Creates a pointer type.
    pub fn ptr(base: impl Into<String>, depth: u8) -> TypeName {
        TypeName {
            base: base.into(),
            pointer: depth,
        }
    }

    /// Whether the type is a pointer.
    pub fn is_pointer(&self) -> bool {
        self.pointer > 0
    }

    /// The struct tag if the base is `struct <tag>` (or `union <tag>`).
    pub fn struct_tag(&self) -> Option<&str> {
        self.base
            .strip_prefix("struct ")
            .or_else(|| self.base.strip_prefix("union "))
    }
}

impl std::fmt::Display for TypeName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.base)?;
        for _ in 0..self.pointer {
            write!(f, " *")?;
        }
        Ok(())
    }
}

/// A struct or union definition.
#[derive(Debug, Clone, PartialEq)]
pub struct StructDef {
    /// The tag, if any.
    pub name: Option<String>,
    /// Whether this is a `union`.
    pub is_union: bool,
    /// Fields in order.
    pub fields: Box<[Field]>,
    /// Span of the definition.
    pub span: Span,
}

/// A struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct Field {
    /// Field name (anonymous bitfields get an empty name).
    pub name: String,
    /// Field type.
    pub ty: TypeName,
    /// Span of the field declaration.
    pub span: Span,
}

/// An enum definition.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumDef {
    /// The tag, if any.
    pub name: Option<String>,
    /// Enumerator names in order.
    pub variants: Box<[String]>,
    /// Span of the definition.
    pub span: Span,
}

/// A `typedef` alias.
#[derive(Debug, Clone, PartialEq)]
pub struct Typedef {
    /// The new type name.
    pub name: String,
    /// The aliased type.
    pub ty: TypeName,
    /// Span of the typedef.
    pub span: Span,
}

/// A variable declaration (global or local declarator).
#[derive(Debug, Clone, PartialEq)]
pub struct Declaration {
    /// Declared name.
    pub name: String,
    /// Declared type.
    pub ty: TypeName,
    /// Initializer, if present. Boxed: most declarators have none, and
    /// an inline one would grow every declaration from 88 to 144 bytes.
    pub init: Option<Box<Initializer>>,
    /// Whether declared `static`.
    pub is_static: bool,
    /// Span of the declarator.
    pub span: Span,
}

/// An initializer: a plain expression or a (possibly designated) list.
#[derive(Debug, Clone, PartialEq)]
pub enum Initializer {
    /// `= expr`
    Expr(Expr),
    /// `= { .field = init, init, ... }`
    List(Box<[(Option<String>, Initializer)]>),
}

impl Initializer {
    /// Looks up a designated field in a list initializer,
    /// e.g. `.probe = foo_probe`.
    pub fn designated(&self, field: &str) -> Option<&Initializer> {
        match self {
            Initializer::List(items) => items
                .iter()
                .find(|(name, _)| name.as_deref() == Some(field))
                .map(|(_, init)| init),
            Initializer::Expr(_) => None,
        }
    }

    /// If the initializer is a bare identifier expression, its name.
    pub fn as_ident(&self) -> Option<&str> {
        match self {
            Initializer::Expr(e) => e.as_ident(),
            Initializer::List(_) => None,
        }
    }
}

/// A brace-enclosed statement block.
#[derive(Debug, Clone, PartialEq)]
pub struct Block {
    /// Statements in order.
    pub stmts: Box<[Stmt]>,
    /// Span from `{` to `}`.
    pub span: Span,
}

/// A statement with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Stmt {
    /// What the statement is.
    pub kind: StmtKind,
    /// Where it is.
    pub span: Span,
}

/// Statement forms.
#[derive(Debug, Clone, PartialEq)]
pub enum StmtKind {
    /// A nested block.
    Block(Block),
    /// One or more local declarations from a single declaration
    /// statement (`int a = 1, *b;` yields two entries).
    Decl(Box<[Declaration]>),
    /// An expression statement.
    Expr(Expr),
    /// `if (cond) then`, then its `else if` arms and final `else`.
    If {
        cond: Expr,
        then: Box<Stmt>,
        els: Option<Box<Else>>,
    },
    /// `while (cond) body`
    While { cond: Expr, body: Box<Stmt> },
    /// `do body while (cond);`
    DoWhile { body: Box<Stmt>, cond: Expr },
    /// `for (init; cond; step) body`. The clauses are boxed, like every
    /// rare payload, so that this variant does not set the size of
    /// every statement.
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Box<Expr>>,
        step: Option<Box<Expr>>,
        body: Box<Stmt>,
    },
    /// A macro-defined loop such as `for_each_child_of_node(p, c) { .. }`
    /// — the paper's *smartloop*. The macro is not expanded; its
    /// arguments are kept as expressions.
    MacroLoop {
        name: String,
        args: Box<[Expr]>,
        body: Box<Stmt>,
    },
    /// `switch (cond) body`
    Switch { cond: Expr, body: Box<Stmt> },
    /// `case expr:` marker (statements follow as siblings).
    Case(Expr),
    /// `default:` marker.
    Default,
    /// `label:` marker.
    Label(String),
    /// `goto label;`
    Goto(String),
    /// `return [expr];`
    Return(Option<Expr>),
    /// `break;`
    Break,
    /// `continue;`
    Continue,
    /// `;`
    Empty,
}

/// What follows an `if`'s first arm: its `else if` arms in source
/// order, then the final `else` statement, if any. A chain of `else if`s
/// is one list, so it costs one level of nesting however long it is.
#[derive(Debug, Clone, PartialEq)]
pub struct Else {
    /// The `else if (cond) then` arms.
    pub arms: Box<[ElseIf]>,
    /// The statement of a final bare `else`.
    pub stmt: Option<Stmt>,
}

/// One `else if (cond) then` arm.
#[derive(Debug, Clone, PartialEq)]
pub struct ElseIf {
    /// The arm's condition.
    pub cond: Expr,
    /// The statement the condition guards.
    pub then: Stmt,
    /// From the arm's `if` to the end of the whole `if` statement.
    pub span: Span,
}

/// An expression with its source span.
#[derive(Debug, Clone, PartialEq)]
pub struct Expr {
    /// What the expression is.
    pub kind: ExprKind,
    /// Where it is.
    pub span: Span,
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnOp {
    /// `*e`
    Deref,
    /// `&e`
    AddrOf,
    /// `-e`
    Neg,
    /// `+e`
    Plus,
    /// `!e`
    Not,
    /// `~e`
    BitNot,
    /// `++e`
    PreInc,
    /// `--e`
    PreDec,
}

/// Postfix update operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PostOp {
    /// `e++`
    Inc,
    /// `e--`
    Dec,
}

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    And,
    Or,
}

/// Assignment operators (`=` and the compound forms).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AssignOp {
    Assign,
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    BitAnd,
    BitXor,
    BitOr,
}

/// Expression forms.
#[derive(Debug, Clone, PartialEq)]
pub enum ExprKind {
    /// An identifier use.
    Ident(String),
    /// An integer literal.
    IntLit(i64),
    /// A float literal (raw text).
    FloatLit(String),
    /// A string literal (adjacent literals concatenated).
    StrLit(String),
    /// A character literal (raw text).
    CharLit(String),
    /// `callee(args...)`
    Call {
        callee: Box<Expr>,
        args: Box<[Expr]>,
    },
    /// `base.field` or `base->field`
    Member {
        base: Box<Expr>,
        field: String,
        arrow: bool,
    },
    /// `base[index]`
    Index { base: Box<Expr>, index: Box<Expr> },
    /// A unary operation.
    Unary { op: UnOp, operand: Box<Expr> },
    /// A postfix `++`/`--`.
    Postfix { op: PostOp, operand: Box<Expr> },
    /// A binary operation.
    Binary {
        op: BinOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// An assignment.
    Assign {
        op: AssignOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
    },
    /// `cond ? then : els` (gcc's `cond ?: els` sets `then == cond`).
    Ternary {
        cond: Box<Expr>,
        then: Box<Expr>,
        els: Box<Expr>,
    },
    /// `(type)expr`
    Cast { ty: TypeName, expr: Box<Expr> },
    /// `sizeof expr` / `sizeof(type)`
    Sizeof(Box<Expr>),
    /// `sizeof(type)` where the operand parsed as a type.
    SizeofType(TypeName),
    /// `a, b, c`
    Comma(Box<[Expr]>),
    /// A brace initializer appearing in expression position
    /// (compound literal payload).
    InitList(Box<[(Option<String>, Box<Expr>)]>),
    /// A gcc statement expression `({ ...; v; })` — body is kept.
    StmtExpr(Block),
    /// Anything the parser had to give up on (span preserved).
    Unknown,
}

impl Expr {
    /// The identifier name if this is a bare identifier.
    pub fn as_ident(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// The *root variable* of an access path: for `a->b.c[i]` this is
    /// `a`; for `&x` it is `x`; for `f(x)` it is `None`.
    ///
    /// The refcounting checkers key objects by root variable — the same
    /// granularity the paper's templates use for their `p0` parameters.
    pub fn root_var(&self) -> Option<&str> {
        match &self.kind {
            ExprKind::Ident(s) => Some(s),
            ExprKind::Member { base, .. } => base.root_var(),
            ExprKind::Index { base, .. } => base.root_var(),
            ExprKind::Unary {
                op: UnOp::Deref | UnOp::AddrOf,
                operand,
            } => operand.root_var(),
            ExprKind::Cast { expr, .. } => expr.root_var(),
            _ => None,
        }
    }

    /// If this expression is a direct call `name(args...)`, the callee
    /// name and arguments.
    pub fn as_direct_call(&self) -> Option<(&str, &[Expr])> {
        match &self.kind {
            ExprKind::Call { callee, args } => callee.as_ident().map(|name| (name, &args[..])),
            _ => None,
        }
    }

    /// Walks this expression and all sub-expressions, pre-order.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        f(self);
        match &self.kind {
            ExprKind::Call { callee, args } => {
                callee.walk(f);
                for a in args {
                    a.walk(f);
                }
            }
            ExprKind::Member { base, .. } => base.walk(f),
            ExprKind::Index { base, index } => {
                base.walk(f);
                index.walk(f);
            }
            ExprKind::Unary { operand, .. } | ExprKind::Postfix { operand, .. } => operand.walk(f),
            ExprKind::Binary { lhs, rhs, .. } | ExprKind::Assign { lhs, rhs, .. } => {
                lhs.walk(f);
                rhs.walk(f);
            }
            ExprKind::Ternary { cond, then, els } => {
                cond.walk(f);
                then.walk(f);
                els.walk(f);
            }
            ExprKind::Cast { expr, .. } | ExprKind::Sizeof(expr) => expr.walk(f),
            ExprKind::Comma(items) => {
                for e in items {
                    e.walk(f);
                }
            }
            ExprKind::InitList(items) => {
                for (_, e) in items {
                    e.walk(f);
                }
            }
            ExprKind::StmtExpr(_)
            | ExprKind::Ident(_)
            | ExprKind::IntLit(_)
            | ExprKind::FloatLit(_)
            | ExprKind::StrLit(_)
            | ExprKind::CharLit(_)
            | ExprKind::SizeofType(_)
            | ExprKind::Unknown => {}
        }
    }

    /// Collects all direct calls `(name, args)` in this expression tree.
    pub fn direct_calls(&self) -> Vec<(&str, &[Expr])> {
        let mut out = Vec::new();
        self.walk(&mut |e| {
            if let Some(c) = e.as_direct_call() {
                out.push(c);
            }
        });
        out
    }
}

impl Stmt {
    /// Walks this statement and all nested statements, pre-order.
    pub fn walk<'a>(&'a self, f: &mut dyn FnMut(&'a Stmt)) {
        f(self);
        match &self.kind {
            StmtKind::Block(b) => {
                for s in &b.stmts {
                    s.walk(f);
                }
            }
            StmtKind::If { then, els, .. } => {
                then.walk(f);
                if let Some(els) = els {
                    for arm in &els.arms {
                        arm.then.walk(f);
                    }
                    if let Some(s) = &els.stmt {
                        s.walk(f);
                    }
                }
            }
            StmtKind::While { body, .. }
            | StmtKind::DoWhile { body, .. }
            | StmtKind::Switch { body, .. }
            | StmtKind::MacroLoop { body, .. } => body.walk(f),
            StmtKind::For { init, body, .. } => {
                if let Some(i) = init {
                    i.walk(f);
                }
                body.walk(f);
            }
            _ => {}
        }
    }

    /// Walks every expression contained in this statement subtree: a
    /// statement's own expressions before those of the statements it
    /// holds, and each `else if` arm's condition just before its
    /// statement's.
    pub fn walk_exprs<'a>(&'a self, f: &mut dyn FnMut(&'a Expr)) {
        match &self.kind {
            StmtKind::Block(b) => {
                for s in &b.stmts {
                    s.walk_exprs(f);
                }
            }
            StmtKind::Expr(e) | StmtKind::Case(e) | StmtKind::Return(Some(e)) => e.walk(f),
            StmtKind::If { cond, then, els } => {
                cond.walk(f);
                then.walk_exprs(f);
                if let Some(els) = els {
                    for arm in &els.arms {
                        arm.cond.walk(f);
                        arm.then.walk_exprs(f);
                    }
                    if let Some(s) = &els.stmt {
                        s.walk_exprs(f);
                    }
                }
            }
            StmtKind::While { cond, body }
            | StmtKind::DoWhile { body, cond }
            | StmtKind::Switch { cond, body } => {
                cond.walk(f);
                body.walk_exprs(f);
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(c) = cond {
                    c.walk(f);
                }
                if let Some(st) = step {
                    st.walk(f);
                }
                if let Some(i) = init {
                    i.walk_exprs(f);
                }
                body.walk_exprs(f);
            }
            StmtKind::MacroLoop { args, body, .. } => {
                for a in args {
                    a.walk(f);
                }
                body.walk_exprs(f);
            }
            StmtKind::Decl(decls) => {
                for d in decls {
                    if let Some(init) = &d.init {
                        walk_init(init, f);
                    }
                }
            }
            _ => {}
        }
    }
}

fn walk_init<'a>(init: &'a Initializer, f: &mut dyn FnMut(&'a Expr)) {
    match init {
        Initializer::Expr(e) => e.walk(f),
        Initializer::List(items) => {
            for (_, i) in items {
                walk_init(i, f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ident(name: &str) -> Expr {
        Expr {
            kind: ExprKind::Ident(name.into()),
            span: Span::default(),
        }
    }

    /// Every list of the tree holds these nodes inline, so a variant
    /// that grows one of them grows every list it appears in.
    #[test]
    fn node_sizes_stay_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<Stmt>() <= 96,
            "Stmt is {} bytes",
            size_of::<Stmt>()
        );
        assert!(
            size_of::<Declaration>() <= 88,
            "Declaration is {} bytes",
            size_of::<Declaration>()
        );
        assert!(
            size_of::<Expr>() <= 64,
            "Expr is {} bytes",
            size_of::<Expr>()
        );
    }

    #[test]
    fn root_var_chases_member_chains() {
        let e = Expr {
            kind: ExprKind::Member {
                base: Box::new(Expr {
                    kind: ExprKind::Member {
                        base: Box::new(ident("dev")),
                        field: "kobj".into(),
                        arrow: true,
                    },
                    span: Span::default(),
                }),
                field: "refcount".into(),
                arrow: false,
            },
            span: Span::default(),
        };
        assert_eq!(e.root_var(), Some("dev"));
    }

    #[test]
    fn direct_call_extraction() {
        let call = Expr {
            kind: ExprKind::Call {
                callee: Box::new(ident("of_node_put")),
                args: Box::new([ident("np")]),
            },
            span: Span::default(),
        };
        let (name, args) = call.as_direct_call().unwrap();
        assert_eq!(name, "of_node_put");
        assert_eq!(args[0].as_ident(), Some("np"));
    }

    #[test]
    fn type_name_struct_tag() {
        let t = TypeName::ptr("struct device_node", 1);
        assert_eq!(t.struct_tag(), Some("device_node"));
        assert!(t.is_pointer());
        assert_eq!(t.to_string(), "struct device_node *");
    }

    #[test]
    fn designated_initializer_lookup() {
        let init = Initializer::List(Box::new([
            (Some("probe".into()), Initializer::Expr(ident("foo_probe"))),
            (
                Some("remove".into()),
                Initializer::Expr(ident("foo_remove")),
            ),
        ]));
        assert_eq!(
            init.designated("probe").and_then(|i| i.as_ident()),
            Some("foo_probe")
        );
        assert!(init.designated("missing").is_none());
    }
}
