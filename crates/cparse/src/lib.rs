//! # refminer-cparse
//!
//! An error-tolerant recursive-descent parser for kernel-style C.
//!
//! The parser produces per-function ASTs without a preprocessor, symbol
//! table, or type checker — exactly the trade the SOSP '23 refcounting
//! study makes (§6.1): the Linux tree cannot be compiled whole, so the
//! analyses run on syntax plus heuristics. Two kernel-specific features
//! matter for refcounting analysis and are first-class here:
//!
//! - **Smartloops** — `for_each_*(...) { ... }` macro loops are parsed
//!   as [`StmtKind::MacroLoop`] without expansion, so the checkers can
//!   reason about iteration-embedded refcounting (Anti-Pattern 3).
//! - **Designated initializers** — driver ops tables
//!   (`.probe = foo_probe, .remove = foo_remove`) survive into
//!   [`Initializer::List`], enabling inter-paired API analysis
//!   (Anti-Pattern 6).
//!
//! # Layout
//!
//! An audit holds every unit's tree until it ends, so the tree is
//! compact. It never grows after parsing, so every list in it is a
//! `Box<[T]>` at its final length (the statement, declarator and
//! argument lists are built on scratch stacks, so each is allocated
//! once), and the rare large payloads (a
//! `for`'s condition and step, a declarator's initializer) are boxed:
//! a [`Stmt`] takes at most 96 bytes, a [`Declaration`] 88 and an
//! [`Expr`] 64. Parsed, a kernel-style tree takes under 8 bytes of AST
//! per byte of source.
//!
//! # Examples
//!
//! ```
//! use refminer_cparse::{parse_str, StmtKind};
//!
//! let tu = parse_str(
//!     "drivers/soc/pm.c",
//!     r#"
//!     static int brcmstb_pm_probe(struct platform_device *pdev)
//!     {
//!             struct device_node *dn;
//!             for_each_matching_node(dn, sram_dt_ids) {
//!                     if (!dn)
//!                             break;
//!             }
//!             return 0;
//!     }
//!     "#,
//! );
//! let f = tu.function("brcmstb_pm_probe").unwrap();
//! let mut saw_loop = false;
//! f.body.stmts.iter().for_each(|s| {
//!     s.walk(&mut |s| {
//!         if let StmtKind::MacroLoop { name, .. } = &s.kind {
//!             assert_eq!(name, "for_each_matching_node");
//!             saw_loop = true;
//!         }
//!     })
//! });
//! assert!(saw_loop);
//! ```

mod ast;
mod error;
mod expr;
mod parser;
mod stmt;

pub use ast::{
    AssignOp, BinOp, Block, Declaration, Else, ElseIf, EnumDef, Expr, ExprKind, Field, FunctionDef,
    Initializer, Item, Param, PostOp, Prototype, Stmt, StmtKind, StructDef, TranslationUnit,
    TypeName, Typedef, UnOp,
};
pub use error::ParseError;
pub use expr::parse_expr_str;
pub use parser::{parse_str, parse_str_limited, parse_str_with_errors, ParseLimits, ParseOutcome};
pub use stmt::parse_stmts_str;
