//! The checker trait, shared helpers, and the all-checkers runner.

use refminer_cparse::TranslationUnit;
use refminer_cpg::{CallFact, FunctionGraph, NodeId, StoreTarget};
use refminer_progdb::{fnv1a_fold, mix, ProgramDb, FNV_OFFSET};
use refminer_rcapi::{ApiKb, RcApi};

use crate::ctx::CheckCtx;
use crate::engine::{run_engines_traced, AnalysisEngine, TemplateEngine};
use crate::finding::{AntiPattern, Finding};

/// A static checker for one anti-pattern.
pub trait Checker {
    /// The anti-pattern this checker detects.
    fn pattern(&self) -> AntiPattern;
    /// Stable checker name, recorded in each finding's `checkers` list
    /// (and combined when the report layer merges same-site findings).
    fn name(&self) -> &'static str {
        self.pattern().checker_name()
    }
    /// Runs the checker on one function.
    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding>;
}

/// The default checker set: one per anti-pattern, P1 through P9.
pub fn default_checkers() -> Vec<Box<dyn Checker>> {
    vec![
        Box::new(crate::deviation::ReturnErrorChecker),
        Box::new(crate::deviation::ReturnNullChecker),
        Box::new(crate::hidden::SmartLoopBreakChecker),
        Box::new(crate::hidden::HiddenApiChecker),
        Box::new(crate::location::ErrorPathChecker),
        Box::new(crate::location::InterUnpairedChecker),
        Box::new(crate::location::DirectFreeChecker),
        Box::new(crate::risk::UadChecker),
        Box::new(crate::risk::EscapeChecker),
    ]
}

/// The default checker set restricted to a subset of anti-patterns —
/// the `--only-pattern` audit scope. Order is preserved, so a filtered
/// run emits findings in the same relative order as a full run.
pub fn checkers_for_patterns(patterns: &[AntiPattern]) -> Vec<Box<dyn Checker>> {
    default_checkers()
        .into_iter()
        .filter(|c| patterns.contains(&c.pattern()))
        .collect()
}

/// Runs every template checker over every function of a translation
/// unit, resolving helper effects against a unit-local [`ProgramDb`]:
/// the single-unit view of the whole-program audit's
/// [`run_engines_traced`].
///
/// # Examples
///
/// ```
/// use refminer_cparse::parse_str;
/// use refminer_rcapi::ApiKb;
/// use refminer_checkers::check_unit;
///
/// let tu = parse_str("drivers/nvmem/core.c", r#"
/// int probe(struct bus_type *bus, void *np)
/// {
///         struct device *dev = bus_find_device(bus, NULL, np, match_fn);
///         if (!dev)
///                 return -EPROBE_DEFER;
///         return 0;
/// }
/// "#);
/// let findings = check_unit(&tu, &ApiKb::builtin());
/// assert!(!findings.is_empty());
/// ```
pub fn check_unit(unit: &TranslationUnit, kb: &ApiKb) -> Vec<Finding> {
    let graphs = FunctionGraph::build_all(unit);
    let globals: Vec<String> = unit.globals().map(|g| g.name.clone()).collect();
    let program = ProgramDb::local(&unit.path, &graphs, &globals, kb);
    let engines: Vec<Box<dyn AnalysisEngine>> = vec![Box::new(TemplateEngine::default_set())];
    run_engines_traced(
        unit,
        kb,
        &graphs,
        &engines,
        &program,
        &refminer_trace::TraceHandle::disabled(),
    )
}

/// Collapses duplicate findings (same pattern, file, line, api) into
/// one that [absorbs](Finding::absorb) the others' checker lists and
/// feasibility verdicts.
///
/// The sort key excludes checker names, so when two checkers flag the
/// same site the finding emitted first survives and absorbs the
/// other's.
pub fn dedup_findings(findings: &mut Vec<Finding>) {
    fn site(f: &Finding) -> (&str, u32, AntiPattern, &str) {
        (f.file.as_str(), f.line, f.pattern, f.api.as_str())
    }
    findings.sort_by(|a, b| site(a).cmp(&site(b)));
    findings.dedup_by(|f, kept| {
        let same_site = site(kept) == site(f);
        if same_site {
            kept.absorb(f);
        }
        same_site
    });
    // A unit's findings live as long as its check-layer cache entry:
    // keep no growth slack.
    findings.shrink_to_fit();
}

/// A fingerprint of the default checker set, for cache keying.
///
/// Cached per-unit check results are only valid for the checker set
/// that produced them. The fingerprint folds in every anti-pattern id
/// and its semantic template, plus a version counter bumped whenever
/// checker *logic* changes without the template text moving. Any
/// difference invalidates previously cached findings.
pub fn checker_set_fingerprint() -> u64 {
    // Bump when checker behavior changes in a way the templates don't
    // capture (new heuristics, changed dedup rules, ...).
    // v2: helper summaries resolve through the linkage-aware ProgramDb
    // (cross-unit release/store/consumer refinements).
    // v3: findings carry feasibility verdicts and checker lists; the
    // path-feasibility engine classifies every path-based witness.
    // v4: findings carry engine attributions; the within-unit dedup
    // unions checker/engine lists instead of dropping duplicates.
    const CHECKER_LOGIC_VERSION: u64 = 4;
    let mut h = mix(FNV_OFFSET, CHECKER_LOGIC_VERSION);
    for p in AntiPattern::all() {
        h = fnv1a_fold(h, p.id().as_bytes());
        h = fnv1a_fold(h, p.template_text().as_bytes());
    }
    h
}

/// An increment-API call site: the node, the API, and the variable the
/// acquired reference landed in (if any). Shared between the template
/// checkers and the delta engine's seed enumeration.
pub struct IncSite<'a> {
    /// The CFG node performing the increment call.
    pub node: NodeId,
    /// The increment API called.
    pub api: &'a RcApi,
    /// The increment call itself.
    pub call: &'a CallFact<'a>,
    /// The object variable holding the new reference. `None` when the
    /// returned reference was discarded.
    pub object: Option<&'a str>,
}

/// Finds every increment-API call site in a function, with the object
/// variable the reference flows into.
pub fn inc_sites<'a>(ctx: &'a CheckCtx<'_>) -> Vec<IncSite<'a>> {
    let mut out = Vec::new();
    for n in ctx.graph.cfg.node_ids() {
        let facts = &ctx.graph.facts[n];
        for call in &facts.calls {
            let Some(api) = ctx.kb.get(call.name) else {
                continue;
            };
            if api.dir != refminer_rcapi::RcDir::Inc {
                continue;
            }
            let object = if api.returns_object() {
                facts
                    .assigns
                    .iter()
                    .find(|a| a.rhs_call == Some(api.name.as_str()))
                    .and_then(|a| match a.target {
                        StoreTarget::Var(v) => Some(v),
                        _ => None,
                    })
            } else {
                api.object_arg().and_then(|i| call.arg_root(i))
            };
            out.push(IncSite {
                node: n,
                api,
                call,
                object,
            });
        }
    }
    out
}

/// Whether any node in the function pairs the increment `api` on `obj`.
pub fn has_any_paired_dec(ctx: &CheckCtx<'_>, api: &RcApi, obj: &str) -> bool {
    ctx.graph
        .cfg
        .node_ids()
        .any(|n| ctx.is_paired_dec(n, api, obj))
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;
    use std::collections::HashSet;

    #[test]
    fn inc_sites_extraction() {
        let tu = parse_str(
            "t.c",
            r#"
int f(struct device *dev)
{
        struct device_node *np = of_find_node_by_path("/soc");
        pm_runtime_get_sync(dev);
        of_find_node_by_path("/discarded");
        return 0;
}
"#,
        );
        let graphs = FunctionGraph::build_all(&tu);
        let globals: HashSet<&str> = tu.globals().map(|g| g.name.as_str()).collect();
        let kb = ApiKb::builtin();
        let db = ProgramDb::empty();
        let ctx = CheckCtx {
            file: "t.c",
            graph: &graphs[0],
            kb: &kb,
            unit: &tu,
            globals: &globals,
            all_graphs: &graphs,
            program: &db,
            trace: refminer_trace::TraceHandle::disabled(),
        };
        let sites = inc_sites(&ctx);
        assert_eq!(sites.len(), 3);
        assert_eq!(sites[0].object, Some("np"));
        assert_eq!(sites[1].object, Some("dev"));
        assert_eq!(sites[2].object, None);
    }

    #[test]
    fn checker_fingerprint_is_stable_and_nonzero() {
        let a = checker_set_fingerprint();
        let b = checker_set_fingerprint();
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }

    #[test]
    fn dedup_removes_duplicates() {
        use crate::finding::{AntiPattern, Impact};
        let f = Finding {
            pattern: AntiPattern::P4,
            impact: Impact::Leak,
            file: "a.c".into(),
            function: "f".into(),
            line: 3,
            api: "x".into(),
            object: None,
            message: String::new(),
            feasibility: refminer_cpg::Feasibility::Assumed,
            checkers: Vec::new(),
        };
        let mut v = vec![f.clone(), f.clone()];
        dedup_findings(&mut v);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn dedup_unions_checker_and_engine_attribution() {
        use crate::finding::{AntiPattern, Impact};
        let mk = |checker: &str, feasibility| Finding {
            pattern: AntiPattern::P5,
            impact: Impact::Leak,
            file: "a.c".into(),
            function: "f".into(),
            line: 3,
            api: "x".into(),
            object: None,
            message: String::new(),
            feasibility,
            checkers: vec![checker.into()],
        };
        let mut v = vec![
            mk("ErrorPathChecker", refminer_cpg::Feasibility::Assumed),
            mk("DirectFreeChecker", refminer_cpg::Feasibility::Proven),
        ];
        dedup_findings(&mut v);
        assert_eq!(v.len(), 1);
        assert_eq!(
            v[0].checkers,
            vec![
                "ErrorPathChecker".to_string(),
                "DirectFreeChecker".to_string()
            ]
        );
        assert_eq!(v[0].feasibility, refminer_cpg::Feasibility::Proven);
    }
}
