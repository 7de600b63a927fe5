//! # refminer
//!
//! A reproduction of *"One Simple API Can Cause Hundreds of Bugs: An
//! Analysis of Refcounting Bugs in All Modern Linux Kernels"*
//! (SOSP '23) as a Rust library: anti-pattern static checkers for
//! refcounting bugs in C codebases, plus the empirical-study pipeline
//! (commit mining, taxonomy, statistics, word2vec keyword analysis).
//!
//! The facade re-exports the analysis crates and offers the
//! end-to-end [`audit`] pipeline; the study's `refminer-dataset` and
//! `refminer-w2v` crates stand on their own:
//!
//! ```
//! use refminer::{audit, AuditConfig, Project};
//!
//! let project = Project::from_sources(vec![(
//!     "drivers/demo/demo.c".to_string(),
//!     "int f(struct device *d) { int r = pm_runtime_get_sync(d); if (r < 0) return r; pm_runtime_put(d); return 0; }".to_string(),
//! )]);
//! let report = audit(&project, &AuditConfig::default());
//! assert_eq!(report.findings.len(), 1); // the P1 leak
//! ```

mod audit;
mod binfmt;
mod cache;
pub mod cancel;
mod diff;
mod eval;
mod fixcheck;
mod history;
pub mod parallel;
mod project;
pub mod serve;

pub use audit::{
    audit, audit_cancellable, audit_traced, audit_with_cache, AuditConfig, AuditDiagnostics,
    AuditLimits, AuditReport, UnitDiagnostic, UnitErrorKind, UnitOutcome,
};
pub use cache::{
    content_hash, kb_fingerprint, AuditCache, CacheLoadOutcome, CacheStats, CACHE_FILE,
    QUARANTINE_SUFFIX,
};
pub use cancel::{CancelReason, CancelToken, Cancelled};
pub use diff::{
    diff_delta, diff_findings, diff_projects, render_diff_lines, sweep_clones, DiffDelta,
    DiffOptions, DiffReport, LeftBehind, Revision,
};
pub use eval::{
    evaluate, evaluate_engines, evaluate_sweep, finding_attributed, Counts, EngineEvalReport,
    EvalReport, EvalRow, SweepCounts, SweepEvalReport, SweepGroupRow,
};
pub use fixcheck::{
    evaluate_fixcheck, fixcheck_project, render_fixcheck_lines, FixcheckEvalReport,
    FixcheckEvalRow, FixcheckReport,
};
pub use history::{
    history_audit, render_history_lines, subsystem_of, HistoryRelease, HistoryReport, HistoryRow,
};
pub use parallel::{effective_jobs, run_indexed};
pub use project::{Project, ScanDiagnostic, ScanErrorKind, ScanOptions, SourceUnit};

pub use refminer_checkers as checkers;
pub use refminer_checkers::{AntiPattern, Confidence, EngineId, EngineSet, Finding, Impact};
pub use refminer_clex as clex;
pub use refminer_corpus as corpus;
pub use refminer_cparse as cparse;
pub use refminer_cpg as cpg;
pub use refminer_delta as delta;
pub use refminer_delta::DeltaEngine;
pub use refminer_fixcheck as fixdiff;
pub use refminer_fixcheck::{infer_intents, parse_diff, render_file_diff, FixDiff, FixIntent};
pub use refminer_progdb as progdb;
pub use refminer_progdb::ProgramDb;
pub use refminer_rcapi as rcapi;
pub use refminer_rcapi::ApiKb;
pub use refminer_report as report;
pub use refminer_sweep as sweep;
pub use refminer_sweep::{BugTemplate, CloneMatch, StructSig};
pub use refminer_template as template;
pub use refminer_trace as trace;
pub use refminer_trace::{TraceHandle, TraceLog, TraceSummary};
