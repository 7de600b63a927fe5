//! # refminer-clex
//!
//! A lossless, error-tolerant lexer for kernel-style C.
//!
//! This is the bottom layer of the `refminer` static-analysis stack
//! (reproducing the SOSP '23 refcounting-bug study). The paper's checkers
//! process the entire Linux tree *without* compiling it — so this lexer
//! never requires include resolution or a working preprocessor: it keeps
//! directives as opaque logical lines, recovers from stray bytes, and
//! tracks exact source spans on every token.
//!
//! Three pieces make up the public surface:
//!
//! - [`Lexer`] — the token stream itself;
//! - [`Token`]/[`TokenKind`]/[`Punct`]/[`Keyword`] — the token model;
//! - [`MacroDef`] — structured `#define` lines, from which smartloop
//!   macros (`for_each_*`) are discovered per the paper's §6.1. The
//!   audit reads a unit's defines off its one parse lex
//!   ([`Lexer::tokenize_limited_with_defines`]); [`scan_defines`], a
//!   second, uncapped lex, is the fallback for a unit truncated at the
//!   token cap, whose lex never reached the directives past the cap.
//!
//! # Examples
//!
//! ```
//! use refminer_clex::{Lexer, TokenKind};
//!
//! let toks = Lexer::new("ret = pm_runtime_get_sync(dev);").tokenize();
//! let names: Vec<_> = toks.iter().filter_map(|t| t.ident()).collect();
//! assert!(names.contains(&"pm_runtime_get_sync"));
//! ```

mod defines;
mod error;
mod keywords;
mod lexer;
mod token;

pub use defines::{scan_defines, MacroDef};
pub use error::LexError;
pub use keywords::Keyword;
pub use lexer::{LexOptions, Lexer};
pub use token::{PpKind, Punct, Span, Symbol, Token, TokenKind};
