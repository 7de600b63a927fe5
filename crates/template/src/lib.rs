//! # refminer-template
//!
//! The semantic-template language the SOSP '23 refcounting study uses to
//! describe bugs (§3.2) and anti-patterns (§5): operators 𝒢/𝒫/𝒜/𝒟/ℒ/𝒰
//! over contexts 𝒮/𝐵/𝐹/𝑀 along a potential execution path.
//!
//! Three layers:
//!
//! - [`Template`] and friends — the AST of the notation;
//! - [`parse_template`] — the ASCII text syntax
//!   (`"F_start -> S_{G_E} -> B_error -> F_end"`);
//! - [`TemplateMatcher`] — compiles a template to a CPG path query and
//!   searches function graphs for witnesses.
//!
//! A template is a necessary condition, not a detector. The nine
//! anti-patterns' texts live on `AntiPattern::template_text` in
//! `refminer-checkers`, whose checkers add the avoidance constraints
//! that make each one precise without calling this crate. Its callers
//! are the Table 1 experiment, the invariant test in
//! `tests/paper_listings.rs` (every template-engine finding matches its
//! pattern's template) and unit tests here and in the checkers that
//! parse the nine texts.

mod ast;
mod matcher;
mod parse;

pub use ast::{pretty, Atom, ContextKind, OpSpec, Operator, Subscript, Template};
pub use matcher::{TemplateMatch, TemplateMatcher};
pub use parse::{parse_template, TemplateParseError};
