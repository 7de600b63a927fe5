//! Checkers P1 and P2: implementation-deviation bugs (§5.1).

use refminer_cpg::{null_guard_nodes, CheckFact, NodeKind, PathQuery, Step};
use refminer_rcapi::RcApi;

use crate::checker::{inc_sites, Checker};
use crate::ctx::CheckCtx;
use crate::finding::{AntiPattern, Finding, Impact};

/// **P1 — Return-Error** (`F_start → S_{G_E} → B_error → F_end`).
///
/// APIs like `pm_runtime_get_sync` increment the usage counter even
/// when they fail and return an error code (§5.1.1). Callers that jump
/// straight into the error path on failure leak the reference: the
/// decrement must happen on *every* path once the call was made.
pub struct ReturnErrorChecker;

impl Checker for ReturnErrorChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P1
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        for site in inc_sites(ctx) {
            if !site.api.inc_on_error {
                continue;
            }
            let Some(obj) = site.object else {
                continue;
            };
            let graph = ctx.graph;
            let q = return_error_query(ctx, site.api, obj);
            if q.search(&graph.cfg, site.node).is_some() {
                out.push(Finding {
                    pattern: AntiPattern::P1,
                    impact: Impact::Leak,
                    file: ctx.file.to_string(),
                    function: graph.name().to_string(),
                    line: graph.line_of(site.node),
                    api: site.api.name.clone(),
                    object: Some(obj.to_string()),
                    message: format!(
                        "{} increments the refcounter even on failure; the error \
                         path returns without the paired decrement",
                        site.api.name
                    ),
                    feasibility: graph.feas.classify(&q, &graph.cfg, site.node),
                    checkers: Vec::new(),
                });
            }
        }
        out
    }
}

/// P1's witness query, searched from the `G_E` call: a path through an
/// error block to the exit that never decrements `obj`. NULL-guard
/// bailouts of the object are not error paths for pairing purposes (no
/// reference was taken when NULL). The delta engine runs the same query
/// so both engines report the same line.
pub fn return_error_query<'a>(ctx: &'a CheckCtx<'a>, api: &'a RcApi, obj: &str) -> PathQuery<'a> {
    let graph = ctx.graph;
    let exit = graph.cfg.exit;
    let null_guard = null_guard_nodes(&graph.cfg, &graph.facts, obj);
    let (o1, o2) = (obj.to_string(), obj.to_string());
    PathQuery::new(vec![
        Step::new(move |n| graph.is_error_node(n) && !null_guard.contains(&n))
            .avoiding(move |n| ctx.is_paired_dec(n, api, &o1)),
        Step::new(move |n| n == exit).avoiding(move |n| ctx.is_paired_dec(n, api, &o2)),
    ])
}

/// **P2 — Return-NULL** (`F_start → S_{G_N} → S_{D_N} → F_end`).
///
/// Increment APIs that hand the object back through the return value
/// may return NULL (§5.1.2); dereferencing the result without a NULL
/// check is a NULL-pointer dereference.
pub struct ReturnNullChecker;

impl Checker for ReturnNullChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P2
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        for site in inc_sites(ctx) {
            if !site.api.may_return_null || !site.api.returns_object() {
                continue;
            }
            let Some(obj) = site.object else {
                continue;
            };
            let graph = ctx.graph;
            // Path: call → deref(obj), never passing a NULL-ness check
            // of obj (in either polarity: any test guards the deref).
            let q = PathQuery::new(vec![Step::new(move |n| {
                n != 0 && graph.facts[n].derefs_var(obj) && n != graph.cfg.entry
            })
            .avoiding(move |n| {
                matches!(graph.cfg.nodes[n].kind, NodeKind::Cond(_))
                    && graph.facts[n].checks.iter().any(|c| match *c {
                        CheckFact::NullOnTrue(v) | CheckFact::NonNullOnTrue(v) => v == obj,
                        _ => false,
                    })
            })]);
            if let Some(witness) = q.search(&graph.cfg, site.node) {
                let deref_node = witness[0];
                if deref_node == site.node {
                    // The acquiring statement itself (e.g. the
                    // assignment) — not a use-before-check.
                    continue;
                }
                out.push(Finding {
                    pattern: AntiPattern::P2,
                    impact: Impact::Npd,
                    file: ctx.file.to_string(),
                    function: graph.name().to_string(),
                    line: graph.line_of(deref_node),
                    api: site.api.name.clone(),
                    object: Some(obj.to_string()),
                    message: format!(
                        "result of {} may be NULL but is dereferenced without a check",
                        site.api.name
                    ),
                    feasibility: graph.feas.classify(&q, &graph.cfg, site.node),
                    checkers: Vec::new(),
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;
    use refminer_cpg::FunctionGraph;
    use refminer_rcapi::ApiKb;
    use std::collections::HashSet;

    fn run(checker: &dyn Checker, src: &str) -> Vec<Finding> {
        let tu = parse_str("t.c", src);
        let graphs = FunctionGraph::build_all(&tu);
        let globals: HashSet<&str> = tu.globals().map(|g| g.name.as_str()).collect();
        let kb = ApiKb::builtin();
        let db = refminer_progdb::ProgramDb::empty();
        let mut out = Vec::new();
        for graph in &graphs {
            let ctx = CheckCtx {
                file: "t.c",
                graph,
                kb: &kb,
                unit: &tu,
                globals: &globals,
                all_graphs: &graphs,
                program: &db,
                trace: refminer_trace::TraceHandle::disabled(),
            };
            out.extend(checker.check(&ctx));
        }
        out
    }

    #[test]
    fn p1_detects_listing3_bug() {
        let findings = run(
            &ReturnErrorChecker,
            r#"
static int stm32_crc_remove(struct platform_device *pdev)
{
        struct stm32_crc *crc = platform_get_drvdata(pdev);
        int ret = pm_runtime_get_sync(crc->dev);
        if (ret < 0)
                return ret;
        pm_runtime_put(crc->dev);
        return 0;
}
"#,
        );
        // NOTE: the object here is `crc->dev`, whose root is `crc`.
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, AntiPattern::P1);
        assert_eq!(findings[0].impact, Impact::Leak);
        assert_eq!(findings[0].api, "pm_runtime_get_sync");
    }

    #[test]
    fn p1_clean_when_error_path_puts() {
        let findings = run(
            &ReturnErrorChecker,
            r#"
static int good_remove(struct device *dev)
{
        int ret = pm_runtime_get_sync(dev);
        if (ret < 0) {
                pm_runtime_put_noidle(dev);
                return ret;
        }
        pm_runtime_put(dev);
        return 0;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p2_detects_unchecked_deref() {
        let findings = run(
            &ReturnNullChecker,
            r#"
static int probe(void)
{
        struct mdesc_handle *hp = mdesc_grab();
        const char *name = hp->name;
        mdesc_release(hp);
        return 0;
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, AntiPattern::P2);
        assert_eq!(findings[0].impact, Impact::Npd);
    }

    #[test]
    fn p2_clean_with_null_check() {
        let findings = run(
            &ReturnNullChecker,
            r#"
static int probe(void)
{
        struct mdesc_handle *hp = mdesc_grab();
        if (!hp)
                return -ENODEV;
        use_name(hp->name);
        mdesc_release(hp);
        return 0;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p1_ignores_regular_incs() {
        let findings = run(
            &ReturnErrorChecker,
            r#"
static int probe(struct device_node *np)
{
        struct device_node *child = of_get_parent(np);
        if (!child)
                return -ENODEV;
        return 0;
}
"#,
        );
        assert!(findings.is_empty());
    }
}
