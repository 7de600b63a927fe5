//! The analysis-engine substrate: the trait boundary both the template
//! checkers and the ownership-delta dataflow engine sit behind.
//!
//! Phase 2 of the audit no longer hardwires the template checkers: it
//! builds a list of [`AnalysisEngine`]s and hands every function graph
//! to each of them through the shared [`CheckCtx`]. Engines stamp the
//! findings they produce with their [`EngineId`]; the within-unit dedup
//! and the report-layer merge union those stamps, so a site flagged by
//! both engines independently surfaces once, `Corroborated`.
//!
//! The feasibility pass lives on the substrate too: every engine
//! classifies its witness paths through `graph.feas` (reachable via
//! the ctx), and the report layer suppresses `Infeasible` findings
//! uniformly — an engine cannot opt out of the pruning.

use std::cell::Cell;
use std::time::Instant;

use refminer_trace::TraceHandle;

use crate::checker::Checker;
use crate::ctx::CheckCtx;
use crate::finding::{EngineId, Finding};

/// One analysis engine: a strategy producing findings for a single
/// function, given the shared [`CheckCtx`] substrate (graphs, API
/// knowledge base, program database, feasibility engine, trace).
/// Engine instances are cheap; each audit worker builds its own list,
/// so the trait carries no thread-safety bound (mirroring [`Checker`]).
pub trait AnalysisEngine {
    /// The engine's identity, stamped into every finding it produces.
    fn id(&self) -> EngineId;

    /// Stable engine name (`"template"`, `"delta"`), used in trace
    /// counters and reports.
    fn name(&self) -> &'static str {
        self.id().name()
    }

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
    fn id(&self) -> EngineId {
        EngineId::Template
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
                f.add_engine(EngineId::Template);
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

/// Which engines an audit runs. The default is both: the template
/// checkers find, the delta engine cross-validates (and contributes
/// its own net-delta findings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineSet {
    /// Run the template checkers.
    pub template: bool,
    /// Run the ownership-delta dataflow engine.
    pub delta: bool,
}

impl Default for EngineSet {
    fn default() -> EngineSet {
        EngineSet {
            template: true,
            delta: true,
        }
    }
}

impl EngineSet {
    /// The template-only set (the pre-two-engine behavior).
    pub fn template_only() -> EngineSet {
        EngineSet {
            template: true,
            delta: false,
        }
    }

    /// Parses a comma-separated engine list (`"template,delta"`).
    /// Rejects unknown names and empty lists.
    pub fn parse(s: &str) -> Result<EngineSet, String> {
        let mut set = EngineSet {
            template: false,
            delta: false,
        };
        for name in s.split(',').map(str::trim).filter(|n| !n.is_empty()) {
            match EngineId::from_name(name) {
                Some(EngineId::Template) => set.template = true,
                Some(EngineId::Delta) => set.delta = true,
                None => return Err(format!("unknown engine '{name}' (template, delta)")),
            }
        }
        if set
            == (EngineSet {
                template: false,
                delta: false,
            })
        {
            return Err("engine list selects no engine".to_string());
        }
        Ok(set)
    }

    /// Whether the set enables `engine`.
    pub fn enables(&self, engine: EngineId) -> bool {
        match engine {
            EngineId::Template => self.template,
            EngineId::Delta => self.delta,
        }
    }

    /// The enabled engines in canonical order.
    pub fn ids(&self) -> Vec<EngineId> {
        EngineId::all()
            .into_iter()
            .filter(|e| self.enables(*e))
            .collect()
    }

    /// Canonical comma-separated rendering (`"template,delta"`).
    pub fn render(&self) -> String {
        self.ids()
            .iter()
            .map(|e| e.name())
            .collect::<Vec<_>>()
            .join(",")
    }
}

/// Runs a list of engines over every function of a translation unit —
/// the phase-2 entry point of the two-engine audit. Engines run in
/// list order per graph (the caller supplies them in canonical
/// template-then-delta order), each engine's wall time on the unit is
/// summed in nanoseconds and added to its `engine.{name}.us` trace
/// counter once, after the unit (when each engine flushes its own
/// counters too), and the combined findings are deduped with
/// attribution union, so a site both engines flag comes out once with
/// `engines: [template, delta]`.
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
    for graph in graphs {
        let ctx = CheckCtx {
            file: &unit.path,
            graph,
            kb,
            unit,
            all_graphs: graphs,
            program,
            trace: trace.clone(),
        };
        for (engine, spent) in engines.iter().zip(&mut spent_ns) {
            let start = timing.then(Instant::now);
            let mut found = engine.analyze(&ctx);
            if let Some(start) = start {
                *spent += start.elapsed().as_nanos() as u64;
            }
            for f in &mut found {
                f.add_engine(engine.id());
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
    fn engine_set_parses_and_renders() {
        assert_eq!(EngineSet::parse("template,delta"), Ok(EngineSet::default()));
        assert_eq!(EngineSet::parse("template"), Ok(EngineSet::template_only()));
        assert_eq!(
            EngineSet::parse("delta"),
            Ok(EngineSet {
                template: false,
                delta: true
            })
        );
        assert!(EngineSet::parse("bogus").is_err());
        assert!(EngineSet::parse("").is_err());
        assert_eq!(EngineSet::default().render(), "template,delta");
        assert_eq!(EngineSet::template_only().render(), "template");
    }

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
        assert_eq!(via_check_unit[0].engines, vec![EngineId::Template]);
    }
}
