//! Checkers P5, P6 and P7: overlooked-location bugs (§5.3).

use refminer_cparse::{Initializer, TranslationUnit};
use refminer_cpg::{null_guard_nodes, FunctionGraph, PathQuery, Step};
use refminer_rcapi::{is_kfree_family, RcApi, RcDir};

use crate::checker::{has_any_paired_dec, inc_sites, Checker};
use crate::ctx::CheckCtx;
use crate::finding::{AntiPattern, Finding, Impact};

/// **P5 — Error-handle** (`F_start → S_G → S_P | B_error → F_end`).
///
/// The decrement exists on the normal paths but an error-handling path
/// slips out without it (§5.3.1: 110 historical bugs).
pub struct ErrorPathChecker;

impl Checker for ErrorPathChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P5
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        let graph = ctx.graph;
        for site in inc_sites(ctx) {
            if site.api.inc_on_error {
                continue; // P1's territory.
            }
            let Some(obj) = site.object.clone() else {
                continue;
            };
            // P5 requires the pairing to exist *somewhere* — the
            // developer paired the common paths and overlooked one.
            if !has_any_paired_dec(ctx, site.api, &obj) {
                continue; // P4's territory (never paired at all).
            }
            let q = error_path_query(ctx, site.api, &obj);
            if let Some(witness) = q.search(&graph.cfg, site.node) {
                out.push(Finding {
                    pattern: AntiPattern::P5,
                    impact: Impact::Leak,
                    file: ctx.file.to_string(),
                    function: graph.name().to_string(),
                    line: graph.line_of(witness[0]),
                    api: site.api.name.clone(),
                    object: Some(obj),
                    message: format!(
                        "error path exits without the {} that other paths perform",
                        ctx.kb
                            .accepted_decs(&site.api.name)
                            .first()
                            .cloned()
                            .unwrap_or_else(|| "paired decrement".into())
                    ),
                    feasibility: graph.feas.classify(&q, &graph.cfg, site.node),
                    checkers: Vec::new(),
                });
            }
        }
        out
    }
}

/// P5's witness query, searched from the increment: a path into an
/// error block (not a NULL-guard bailout of `obj`) and on to the exit
/// that never pairs, returns or stores `obj`, nor overwrites it before
/// the error block. The witness's first node is the error block the
/// finding reports. The delta engine runs the same query so both
/// engines report the same line and verdict.
pub fn error_path_query<'a>(ctx: &'a CheckCtx<'a>, api: &'a RcApi, obj: &str) -> PathQuery<'a> {
    let graph = ctx.graph;
    let exit = graph.cfg.exit;
    let null_guard = null_guard_nodes(&graph.cfg, &graph.facts, obj);
    let (o1, o2) = (obj.to_string(), obj.to_string());
    PathQuery::new(vec![
        Step::new(move |n| graph.is_error_node(n) && !null_guard.contains(&n)).avoiding(move |n| {
            ctx.is_paired_dec(n, api, &o1)
                || ctx.returns_object(n, &o1)
                || ctx.escapes_object(n, &o1)
                || ctx.reassigns_object(n, &o1)
        }),
        Step::new(move |n| n == exit).avoiding(move |n| {
            ctx.is_paired_dec(n, api, &o2)
                || ctx.returns_object(n, &o2)
                || ctx.escapes_object(n, &o2)
        }),
    ])
    .without_back_edges()
}

/// **P6 — Inter-unpaired / indirect call**
/// (`F⊤_start → S_G → F⊤_end ∧ F⊥_start → F⊥_end`).
///
/// Driver ops tables pair functions through function pointers
/// (`.probe`/`.remove`, `.open`/`.release`); an increment in the ⊤ side
/// must be matched in the ⊥ side (§5.3.2). Name-paired functions
/// (`xx_init`/`xx_exit`) are matched the same way (§7).
pub struct InterUnpairedChecker;

/// The designated-field pairs the checker understands.
const OPS_PAIRS: &[(&str, &str)] = &[
    ("probe", "remove"),
    ("probe", "disconnect"),
    ("open", "release"),
    ("open", "close"),
    ("connect", "shutdown"),
    ("bind", "unbind"),
    ("attach", "detach"),
    ("start", "stop"),
    ("init", "exit"),
];

/// Name-suffix pairs for direct (non-table) pairing.
const NAME_PAIRS: &[(&str, &str)] = &[
    ("probe", "remove"),
    ("register", "unregister"),
    ("create", "destroy"),
    ("init", "uninit"),
    ("init", "exit"),
    ("open", "release"),
    ("start", "stop"),
];

impl Checker for InterUnpairedChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P6
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        // Run once per unit: only on the first function to avoid
        // duplicate reports.
        if ctx
            .all_graphs
            .first()
            .map(|g| g.name() != ctx.graph.name())
            .unwrap_or(true)
        {
            return Vec::new();
        }
        let mut pairs = ops_table_pairs(ctx.unit);
        pairs.extend(name_pairs(ctx.all_graphs));
        pairs.sort();
        pairs.dedup();

        let mut out = Vec::new();
        for (top_name, bottom_name) in pairs {
            let Some(top) = ctx.all_graphs.iter().find(|g| g.name() == top_name) else {
                continue;
            };
            let bottom = ctx.all_graphs.iter().find(|g| g.name() == bottom_name);
            let top_ctx = CheckCtx {
                file: ctx.file,
                graph: top,
                kb: ctx.kb,
                unit: ctx.unit,
                all_graphs: ctx.all_graphs,
                program: ctx.program,
                trace: ctx.trace.clone(),
            };
            for site in inc_sites(&top_ctx) {
                // Only references that survive the ⊤ function matter:
                // ones stored into long-lived state (escaped) — either
                // via a tracked local, or directly into a field
                // (`priv->node = of_find_...(..)`).
                let (obj, escapes) = match site.object.clone() {
                    Some(obj) => {
                        let escapes = top.cfg.node_ids().any(|n| top_ctx.escapes_object(n, &obj));
                        (Some(obj), escapes)
                    }
                    None => {
                        let direct = top.facts[site.node].assigns.iter().any(|a| {
                            a.rhs_call.as_deref() == Some(site.api.name.as_str())
                                && matches!(
                                    a.target,
                                    refminer_cpg::StoreTarget::Field { .. }
                                        | refminer_cpg::StoreTarget::Indirect(_)
                                )
                        });
                        (None, direct)
                    }
                };
                if !escapes {
                    continue;
                }
                // Paired inside ⊤ itself? (By object when tracked, by
                // accepted dec name otherwise.)
                let accepted_top = ctx.kb.accepted_decs(&site.api.name);
                let paired_in_top = match &obj {
                    Some(o) => has_any_paired_dec(&top_ctx, site.api, o),
                    None => top.cfg.node_ids().any(|n| {
                        top.facts[n]
                            .calls
                            .iter()
                            .any(|c| accepted_top.iter().any(|d| d == &c.name))
                    }),
                };
                if paired_in_top {
                    continue;
                }
                // Paired in ⊥ by API name (the object variable differs
                // across functions, so match on accepted dec names) —
                // or through a helper defined in another unit whose
                // summary releases one of the bottom call's arguments.
                let accepted = ctx.kb.accepted_decs(&site.api.name);
                let paired_in_bottom = bottom.is_some_and(|b| {
                    b.cfg.node_ids().any(|n| {
                        b.facts[n].calls.iter().any(|c| {
                            accepted.iter().any(|d| d == &c.name)
                                || ctx
                                    .program
                                    .cross_unit_release(ctx.file, &c.name, c.args.len())
                        })
                    })
                });
                if paired_in_bottom {
                    continue;
                }
                out.push(Finding {
                    pattern: AntiPattern::P6,
                    impact: Impact::Leak,
                    file: ctx.file.to_string(),
                    function: top_name.clone(),
                    line: top.line_of(site.node),
                    api: site.api.name.clone(),
                    object: obj,
                    message: format!(
                        "{} acquires a reference in {top_name}() but the paired \
                         {bottom_name}() never releases it",
                        site.api.name
                    ),
                    // Cross-function pairing has no single witness path
                    // to test against the intra-function constraints.
                    feasibility: refminer_cpg::Feasibility::Assumed,
                    checkers: Vec::new(),
                });
            }
        }
        out
    }
}

/// Extracts (top, bottom) function-name pairs from ops-table globals.
fn ops_table_pairs(unit: &TranslationUnit) -> Vec<(String, String)> {
    let mut out = Vec::new();
    for g in unit.globals() {
        let Some(init @ Initializer::List(_)) = &g.init else {
            continue;
        };
        for (top_field, bottom_field) in OPS_PAIRS {
            let top = init.designated(top_field).and_then(|i| i.as_ident());
            let bottom = init.designated(bottom_field).and_then(|i| i.as_ident());
            if let (Some(t), Some(b)) = (top, bottom) {
                out.push((t.to_string(), b.to_string()));
            }
        }
    }
    out
}

/// Pairs functions by name suffix: `foo_probe` ↔ `foo_remove`.
fn name_pairs(graphs: &[FunctionGraph]) -> Vec<(String, String)> {
    let names: Vec<&str> = graphs.iter().map(|g| g.name()).collect();
    let mut out = Vec::new();
    for name in &names {
        for (top_suffix, bottom_suffix) in NAME_PAIRS {
            let Some(stem) = name.strip_suffix(&format!("_{top_suffix}")) else {
                continue;
            };
            let bottom = format!("{stem}_{bottom_suffix}");
            if names.iter().any(|n| *n == bottom) {
                out.push((name.to_string(), bottom));
            }
        }
    }
    out
}

/// **P7 — Direct-free** (`F_start → S_G → S_free → F_end`).
///
/// `kfree` on a refcounted object skips the release callback, leaking
/// everything the decrement API would have cleaned up (§5.3.3:
/// commit-258ad2fe's leaked name string; 44 historical bugs).
pub struct DirectFreeChecker;

impl Checker for DirectFreeChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P7
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        let graph = ctx.graph;
        for n in graph.cfg.node_ids() {
            for call in &graph.facts[n].calls {
                if !is_kfree_family(&call.name) {
                    continue;
                }
                let Some(obj) = call.arg_root(0).map(str::to_string) else {
                    continue;
                };
                // The freed object is refcounted if it originates from a
                // known increment API...
                let from_inc = graph
                    .origins
                    .call_origins(&graph.cfg, n, &obj)
                    .iter()
                    .any(|name| ctx.kb.is_inc(name));
                // ...or an increment was applied to it in this function.
                let inc_applied = graph.cfg.node_ids().any(|m| {
                    m != n
                        && graph.facts[m].calls.iter().any(|c| {
                            ctx.kb
                                .get(&c.name)
                                .filter(|a| a.dir == RcDir::Inc)
                                .and_then(|a| a.object_arg())
                                .and_then(|i| c.arg_root(i))
                                == Some(&obj)
                        })
                });
                if from_inc || inc_applied {
                    out.push(Finding {
                        pattern: AntiPattern::P7,
                        impact: Impact::Leak,
                        file: ctx.file.to_string(),
                        function: graph.name().to_string(),
                        line: graph.line_of(n),
                        api: call.name.clone(),
                        object: Some(obj.clone()),
                        message: format!(
                            "{obj} is refcounted; freeing it with {} skips the \
                             release callback and leaks attached resources",
                            call.name
                        ),
                        // The free itself is the witness — no path
                        // condition to refute.
                        feasibility: refminer_cpg::Feasibility::Assumed,
                        checkers: Vec::new(),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;
    use refminer_rcapi::ApiKb;

    fn run(checker: &dyn Checker, src: &str) -> Vec<Finding> {
        let tu = parse_str("t.c", src);
        let graphs = FunctionGraph::build_all(&tu);
        let kb = ApiKb::builtin();
        let db = refminer_progdb::ProgramDb::empty();
        let mut out = Vec::new();
        for graph in &graphs {
            let ctx = CheckCtx {
                file: "t.c",
                graph,
                kb: &kb,
                unit: &tu,
                all_graphs: &graphs,
                program: &db,
                trace: refminer_trace::TraceHandle::disabled(),
            };
            out.extend(checker.check(&ctx));
        }
        out
    }

    #[test]
    fn p5_detects_missing_dec_on_error_path() {
        let findings = run(
            &ErrorPathChecker,
            r#"
int probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_path("/soc");
        int ret;
        if (!np)
                return -ENODEV;
        ret = setup_hw(np);
        if (ret)
                goto err_disable;
        of_node_put(np);
        return 0;
err_disable:
        disable_hw();
        return ret;
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, AntiPattern::P5);
    }

    #[test]
    fn p5_clean_when_error_path_puts() {
        let findings = run(
            &ErrorPathChecker,
            r#"
int probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_path("/soc");
        int ret;
        if (!np)
                return -ENODEV;
        ret = setup_hw(np);
        if (ret)
                goto err_put;
        of_node_put(np);
        return 0;
err_put:
        of_node_put(np);
        return ret;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p6_detects_probe_without_remove_put() {
        let findings = run(
            &InterUnpairedChecker,
            r#"
static int foo_probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_name(NULL, "codec");
        pdev->priv = np;
        return 0;
}
static int foo_remove(struct platform_device *pdev)
{
        disable_hw(pdev);
        return 0;
}
static const struct platform_driver foo_driver = {
        .probe = foo_probe,
        .remove = foo_remove,
};
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, AntiPattern::P6);
        assert_eq!(findings[0].function, "foo_probe");
    }

    #[test]
    fn p6_clean_when_remove_puts() {
        let findings = run(
            &InterUnpairedChecker,
            r#"
static int foo_probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_name(NULL, "codec");
        pdev->priv = np;
        return 0;
}
static int foo_remove(struct platform_device *pdev)
{
        of_node_put(pdev->priv);
        return 0;
}
static const struct platform_driver foo_driver = {
        .probe = foo_probe,
        .remove = foo_remove,
};
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p6_pairs_by_name_without_table() {
        let findings = run(
            &InterUnpairedChecker,
            r#"
static int bar_init(struct bar *b)
{
        b->node = of_find_node_by_name(NULL, "bar");
        return 0;
}
static void bar_exit(struct bar *b)
{
        stop_bar(b);
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].function, "bar_init");
    }

    #[test]
    fn p7_detects_kfree_of_refcounted() {
        let findings = run(
            &DirectFreeChecker,
            r#"
void teardown(void)
{
        struct device *dev = bus_find_device(&bus, NULL, NULL, m);
        kfree(dev);
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, AntiPattern::P7);
        assert_eq!(findings[0].object.as_deref(), Some("dev"));
    }

    #[test]
    fn p7_clean_for_plain_allocation() {
        let findings = run(
            &DirectFreeChecker,
            r#"
void teardown(void)
{
        char *buf = kmalloc(64, GFP_KERNEL);
        kfree(buf);
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p7_detects_free_after_explicit_get() {
        let findings = run(
            &DirectFreeChecker,
            r#"
void teardown(struct device_node *np)
{
        of_node_get(np);
        kfree(np);
}
"#,
        );
        assert_eq!(findings.len(), 1);
    }
}
