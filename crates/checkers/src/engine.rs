//! The analysis-engine substrate: the trait boundary the template
//! checkers sit behind.
//!
//! Phase 2 of the audit hands every function graph to a list of
//! [`AnalysisEngine`]s through the shared [`CheckCtx`]; the audit's
//! list is one [`TemplateEngine`]. The within-unit dedup collapses
//! same-site findings, unioning their checker lists.
//!
//! The feasibility pass lives on the substrate too: every engine
//! classifies its witness paths through `graph.feas` (reachable via
//! the ctx), and the report layer suppresses `Infeasible` findings
//! uniformly — an engine cannot opt out of the pruning.

use std::cell::Cell;
use std::collections::HashSet;
use std::time::Instant;

use refminer_trace::TraceHandle;

use crate::checker::Checker;
use crate::ctx::CheckCtx;
use crate::finding::Finding;

/// One analysis engine: a strategy producing findings for a single
/// function, given the shared [`CheckCtx`] substrate (graphs, API
/// knowledge base, program database, feasibility engine, trace).
/// Engine instances are cheap; each audit worker builds its own list,
/// so the trait carries no thread-safety bound (mirroring [`Checker`]).
pub trait AnalysisEngine {
    /// Stable engine name (`"template"`), used in the engine's
    /// `engine.{name}.us` trace counter.
    fn name(&self) -> &'static str;

    /// Runs the engine over one function.
    fn analyze(&self, ctx: &CheckCtx<'_>) -> Vec<Finding>;

    /// Adds the time the engine accumulated on its own counters since
    /// the last flush to `trace`, and resets them. [`run_engines_traced`]
    /// calls it once per unit; engines without counters of their own
    /// keep this no-op.
    fn flush_trace(&self, _trace: &TraceHandle) {}
}

/// The template engine: the paper's nine anti-pattern checkers behind
/// the [`AnalysisEngine`] trait. Owns its checker set so `--only`
/// scoping composes (a filtered set is just a smaller engine).
pub struct TemplateEngine {
    checkers: Vec<Box<dyn Checker>>,
    /// Nanoseconds each checker spent since the last
    /// [`AnalysisEngine::flush_trace`], index-parallel to `checkers`.
    spent_ns: Vec<Cell<u64>>,
}

impl TemplateEngine {
    /// The engine over an explicit checker set (ablations, `--only`).
    pub fn new(checkers: Vec<Box<dyn Checker>>) -> TemplateEngine {
        let spent_ns = checkers.iter().map(|_| Cell::new(0)).collect();
        TemplateEngine { checkers, spent_ns }
    }

    /// The engine over the full default checker set.
    pub fn default_set() -> TemplateEngine {
        TemplateEngine::new(crate::checker::default_checkers())
    }
}

impl AnalysisEngine for TemplateEngine {
    fn name(&self) -> &'static str {
        "template"
    }

    /// Runs the checkers over one function graph, accumulating
    /// per-checker wall time for the `checker.{name}.us` trace counters
    /// (flushed once per unit) and stamping each finding with its
    /// checker name.
    fn analyze(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let timing = ctx.trace.is_enabled();
        let mut out = Vec::new();
        for (checker, spent) in self.checkers.iter().zip(&self.spent_ns) {
            let start = timing.then(Instant::now);
            let mut found = checker.check(ctx);
            if let Some(start) = start {
                spent.set(spent.get() + start.elapsed().as_nanos() as u64);
            }
            for f in &mut found {
                if f.checkers.is_empty() {
                    f.checkers.push(checker.name().to_string());
                }
            }
            out.extend(found);
        }
        out
    }

    fn flush_trace(&self, trace: &TraceHandle) {
        for (checker, spent) in self.checkers.iter().zip(&self.spent_ns) {
            trace.add(
                &format!("checker.{}.us", checker.name()),
                spent.take() / 1000,
            );
        }
    }
}

/// Runs a list of engines over every function of a translation unit —
/// the phase-2 entry point of the audit. Engines run in list order per
/// graph, each engine's wall time on the unit is summed in nanoseconds
/// and added to its `engine.{name}.us` trace counter once, after the
/// unit (when each engine flushes its own counters too), and the
/// combined findings are deduped with their checker lists unioned. The
/// unit's global variable names are collected once, for every context.
pub fn run_engines_traced(
    unit: &refminer_cparse::TranslationUnit,
    kb: &refminer_rcapi::ApiKb,
    graphs: &[refminer_cpg::FunctionGraph],
    engines: &[Box<dyn AnalysisEngine>],
    program: &refminer_progdb::ProgramDb,
    trace: &TraceHandle,
) -> Vec<Finding> {
    let timing = trace.is_enabled();
    let mut spent_ns = vec![0u64; engines.len()];
    let mut out = Vec::new();
    let globals: HashSet<&str> = unit.globals().map(|g| g.name.as_str()).collect();
    for graph in graphs {
        let ctx = CheckCtx {
            file: &unit.path,
            graph,
            kb,
            unit,
            globals: &globals,
            all_graphs: graphs,
            program,
            trace: trace.clone(),
        };
        for (engine, spent) in engines.iter().zip(&mut spent_ns) {
            let start = timing.then(Instant::now);
            let found = engine.analyze(&ctx);
            if let Some(start) = start {
                *spent += start.elapsed().as_nanos() as u64;
            }
            out.extend(found);
        }
    }
    if timing {
        for (engine, spent) in engines.iter().zip(spent_ns) {
            trace.add(&format!("engine.{}.us", engine.name()), spent / 1000);
            engine.flush_trace(trace);
        }
    }
    crate::checker::dedup_findings(&mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;
    use refminer_cpg::FunctionGraph;
    use refminer_progdb::ProgramDb;
    use refminer_rcapi::ApiKb;

    #[test]
    fn template_engine_matches_checker_runner() {
        let src = r#"
int f(struct device *d)
{
        int r = pm_runtime_get_sync(d);
        if (r < 0)
                return r;
        pm_runtime_put(d);
        return 0;
}
"#;
        let tu = parse_str("t.c", src);
        let graphs = FunctionGraph::build_all(&tu);
        let kb = ApiKb::builtin();
        let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
        let db = ProgramDb::local(&tu.path, &graphs, &globals, &kb);
        let engines: Vec<Box<dyn AnalysisEngine>> = vec![Box::new(TemplateEngine::default_set())];
        let via_engines = run_engines_traced(
            &tu,
            &kb,
            &graphs,
            &engines,
            &db,
            &refminer_trace::TraceHandle::disabled(),
        );
        let via_check_unit = crate::checker::check_unit(&tu, &kb);
        assert_eq!(via_engines, via_check_unit);
        assert_eq!(via_check_unit.len(), 1);
    }
}
