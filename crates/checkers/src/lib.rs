//! # refminer-checkers
//!
//! The nine anti-pattern static checkers of the SOSP '23 refcounting
//! study (§5–§6), implemented as path queries over `refminer-cpg`
//! function graphs with `refminer-rcapi` giving call names their
//! refcounting meaning:
//!
//! | Checker | Anti-pattern | Root cause | Impact |
//! |---------|--------------|------------|--------|
//! | [`ReturnErrorChecker`]   | P1 | implementation deviation | leak |
//! | [`ReturnNullChecker`]    | P2 | implementation deviation | NPD |
//! | [`SmartLoopBreakChecker`]| P3 | hidden refcounting | leak |
//! | [`HiddenApiChecker`]     | P4 | hidden refcounting | leak / UAF |
//! | [`ErrorPathChecker`]     | P5 | overlooked location | leak |
//! | [`InterUnpairedChecker`] | P6 | overlooked location | leak |
//! | [`DirectFreeChecker`]    | P7 | overlooked location | leak |
//! | [`UadChecker`]           | P8 | future risk | UAF |
//! | [`EscapeChecker`]        | P9 | future risk | UAF |
//!
//! The checkers are one [`AnalysisEngine`], the [`TemplateEngine`];
//! the ownership-delta dataflow engine in `refminer-delta` is the
//! other. [`run_engines_traced`] is the one entry point: it runs a
//! list of engines over every function of a unit. [`check_unit`] is its
//! single-unit view with the full checker set. Findings carry an
//! `engines` attribution and derive a [`Confidence`]
//! (corroborated / template-only / delta-only) from it.
//!
//! Each pattern's id, number, semantic template and checker name live
//! on [`AntiPattern`]. Each path-based witness query the delta engine
//! shares has one constructor, next to its checker:
//! [`return_error_query`] (P1), [`never_paired_query`] (P4),
//! [`error_path_query`] (P5) and [`use_after_decrease_query`] (P8).
//! Both engines run the same query, so they report a site on the same
//! line with the same verdict.

mod checker;
mod ctx;
mod deviation;
mod engine;
mod finding;
mod hidden;
mod location;
mod risk;

pub use checker::{
    check_unit, checker_set_fingerprint, checkers_for_patterns, dedup_findings, default_checkers,
    has_any_paired_dec, inc_sites, Checker, IncSite,
};
pub use ctx::CheckCtx;
pub use deviation::{return_error_query, ReturnErrorChecker, ReturnNullChecker};
pub use engine::{run_engines_traced, AnalysisEngine, EngineSet, TemplateEngine};
pub use finding::{
    merge_duplicate_findings, sort_findings_canonical, AntiPattern, Confidence, EngineId, Finding,
    Impact,
};
// The feasibility verdict each finding carries (see `refminer-cpg`).
pub use hidden::{never_paired_query, HiddenApiChecker, SmartLoopBreakChecker};
pub use location::{error_path_query, DirectFreeChecker, ErrorPathChecker, InterUnpairedChecker};
pub use refminer_cpg::Feasibility;
// Helper-effect summaries live in `refminer-progdb` now; re-exported so
// downstream code keeps one import path for checker-facing types.
pub use refminer_progdb::{CallSite, FnExport, FnSummary, ProgramDb, UnitExports};
pub use risk::{use_after_decrease_query, EscapeChecker, UadChecker};
