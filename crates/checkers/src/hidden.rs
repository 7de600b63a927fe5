//! Checkers P3 and P4: hidden-refcounting bugs (§5.2).

use refminer_cpg::{null_guard_nodes, NodeKind, PathQuery, Payload, Step};
use refminer_rcapi::{ObjectFlow, RcApi, RcClass};

use crate::checker::{has_any_paired_dec, inc_sites, Checker};
use crate::ctx::CheckCtx;
use crate::finding::{AntiPattern, Finding, Impact};

/// **P3 — Smartloop break** (`F_start → M_SL → S_break → F_end`).
///
/// Macro loops like `for_each_child_of_node` hold a reference on the
/// iterator during each iteration and release it when advancing; a
/// `break`/`goto`/`return` that leaves the loop early keeps the last
/// reference, which must be dropped explicitly (§5.2.1, Listing 4).
pub struct SmartLoopBreakChecker;

impl Checker for SmartLoopBreakChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P3
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        let graph = ctx.graph;
        for head in graph.cfg.node_ids() {
            let NodeKind::MacroLoopHead { name, args } = &graph.cfg.nodes[head].kind else {
                continue;
            };
            let Some(sl) = ctx.kb.smartloop(name) else {
                continue;
            };
            let Some(iter_var) = args.get(sl.iter_arg).and_then(|a| a.as_ident()) else {
                continue;
            };
            let iter_var = iter_var.to_string();
            // Early exits from this loop: break/goto/return nodes whose
            // loop context contains this head.
            for exit_node in graph.cfg.node_ids() {
                if !graph.cfg.nodes[exit_node].loops.contains(&head) {
                    continue;
                }
                let leaves = match &graph.cfg.nodes[exit_node].kind {
                    NodeKind::Stmt(Payload::Break) => {
                        // Only breaks of *this* loop (innermost).
                        graph.cfg.nodes[exit_node].loops.last() == Some(&head)
                    }
                    NodeKind::Stmt(Payload::Goto(_)) => true,
                    NodeKind::Stmt(Payload::Return(_)) => true,
                    _ => false,
                };
                if !leaves {
                    continue;
                }
                // Ownership transfer excuses the missing put.
                if ctx.returns_object(exit_node, &iter_var)
                    || ctx.escapes_object(exit_node, &iter_var)
                {
                    continue;
                }
                // Does some path head → early-exit → function exit skip
                // the iterator's put entirely? Searching from the head
                // lets a put placed *before* the break satisfy the
                // pairing (avoidance wins over matching).
                let fexit = graph.cfg.exit;
                let dec_name = sl.dec_name.clone();
                let put_or_transfer = |n: refminer_cpg::NodeId| {
                    graph.facts[n].calls.iter().any(|c| {
                        (c.name == dec_name || ctx.kb.is_dec(&c.name))
                            && c.arg_root(0) == Some(&iter_var)
                    }) || ctx.helper_releases(n, &iter_var)
                        || ctx.returns_object(n, &iter_var)
                        || ctx.escapes_object(n, &iter_var)
                        || ctx.passes_to_consumer(n, &iter_var)
                };
                let q = PathQuery::new(vec![
                    Step::new(move |n| n == exit_node).avoiding(put_or_transfer),
                    Step::new(move |n| n == fexit).avoiding(put_or_transfer),
                ])
                .without_back_edges();
                if q.search(&graph.cfg, head).is_some() {
                    out.push(Finding {
                        pattern: AntiPattern::P3,
                        impact: Impact::Leak,
                        file: ctx.file.to_string(),
                        function: graph.name().to_string(),
                        line: graph.line_of(exit_node),
                        api: name.clone(),
                        object: Some(iter_var.clone()),
                        message: format!(
                            "early exit from {name} leaves the iterator's hidden \
                             reference unpaired; add {}({iter_var}) before leaving",
                            sl.dec_name
                        ),
                        feasibility: graph.feas.classify(&q, &graph.cfg, head),
                        checkers: Vec::new(),
                    });
                }
            }
        }
        out
    }
}

/// **P4 — Hidden API, intra-unpaired** (`F_start → S_{G_H|P_H} → F_end`).
///
/// Refcounting-embedded (find-like) APIs acquire a reference the caller
/// often does not realize exists (§5.2.2, Table 3's low name
/// similarities). Two sub-shapes:
///
/// - **hidden increment**: the returned reference is never put on any
///   path (and never returned/escaped) → leak;
/// - **hidden decrement**: APIs with `ArgAndReturned` flow *put* their
///   `from` argument, so passing a borrowed reference without a prior
///   get prematurely drops it → UAF.
pub struct HiddenApiChecker;

impl Checker for HiddenApiChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P4
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        let graph = ctx.graph;
        for site in inc_sites(ctx) {
            if site.api.class != RcClass::Embedded || site.api.inc_on_error {
                continue;
            }
            // Skip calls inside smartloop heads; P3 owns those.
            if matches!(
                graph.cfg.nodes[site.node].kind,
                NodeKind::MacroLoopHead { .. }
            ) {
                continue;
            }
            // Hidden-increment shape.
            if site.api.returns_object() {
                match &site.object {
                    None => {
                        // Result (and its reference) dropped on the
                        // floor: an unconditional leak — unless the
                        // result feeds another call, is stored into a
                        // long-lived location (field/indirect), or is
                        // returned directly.
                        let consumed = feeds_enclosing_call(ctx, site.node, &site.api.name)
                            || graph.facts[site.node]
                                .assigns
                                .iter()
                                .any(|a| a.rhs_call.as_deref() == Some(site.api.name.as_str()))
                            || graph.facts[site.node].is_return;
                        if !consumed {
                            out.push(Finding {
                                pattern: AntiPattern::P4,
                                impact: Impact::Leak,
                                file: ctx.file.to_string(),
                                function: graph.name().to_string(),
                                line: graph.line_of(site.node),
                                api: site.api.name.clone(),
                                object: None,
                                message: format!(
                                    "reference returned by {} is discarded",
                                    site.api.name
                                ),
                                // A discarded result leaks on every
                                // path; no path constraint applies.
                                feasibility: refminer_cpg::Feasibility::Assumed,
                                checkers: Vec::new(),
                            });
                        }
                    }
                    Some(obj) => {
                        // When the object is paired on *some* path, the
                        // leak (if any) is either on an error path —
                        // P5's finding — or on a plain forgotten branch
                        // (e.g. a switch case), which stays P4's: we
                        // additionally require the witness path to pass
                        // through no error block.
                        let paired_somewhere = has_any_paired_dec(ctx, site.api, obj);
                        let q = never_paired_query(ctx, site.api, obj, paired_somewhere);
                        if q.search(&graph.cfg, site.node).is_some() {
                            out.push(Finding {
                                pattern: AntiPattern::P4,
                                impact: Impact::Leak,
                                file: ctx.file.to_string(),
                                function: graph.name().to_string(),
                                line: graph.line_of(site.node),
                                api: site.api.name.clone(),
                                object: Some(obj.clone()),
                                message: format!(
                                    "{} takes a hidden reference on {obj} that is \
                                     never released",
                                    site.api.name
                                ),
                                feasibility: graph.feas.classify(&q, &graph.cfg, site.node),
                                checkers: Vec::new(),
                            });
                        }
                    }
                }
            }
            // Hidden-decrement shape: the `from` argument is put.
            if let ObjectFlow::ArgAndReturned(idx) = site.api.flow {
                let facts = &graph.facts[site.node];
                let Some(call) = facts.call(&site.api.name) else {
                    continue;
                };
                if call.args.get(idx).is_some_and(|a| a.is_null) {
                    continue; // NULL `from`: nothing is put.
                }
                let Some(from) = call.arg_root(idx).map(str::to_string) else {
                    continue;
                };
                // Borrowed (parameter-origin) references must be
                // re-taken before being consumed.
                let origins = graph.origins.at(&graph.cfg, site.node, &from);
                let borrowed = !origins.is_empty()
                    && origins
                        .iter()
                        .all(|o| matches!(o, refminer_cpg::Origin::Param));
                if borrowed && !preceded_by_get(ctx, site.node, &from) {
                    out.push(Finding {
                        pattern: AntiPattern::P4,
                        impact: Impact::Uaf,
                        file: ctx.file.to_string(),
                        function: graph.name().to_string(),
                        line: graph.line_of(site.node),
                        api: site.api.name.clone(),
                        object: Some(from.clone()),
                        message: format!(
                            "{} drops a hidden reference on {from}, which this \
                             function only borrows; take a reference first",
                            site.api.name
                        ),
                        // Structural (origin-based) shape: the drop
                        // happens wherever the call executes.
                        feasibility: refminer_cpg::Feasibility::Assumed,
                        checkers: Vec::new(),
                    });
                }
            }
        }
        out
    }
}

/// P4's witness query for a hidden increment, searched from the call:
/// a path to the exit on which `obj` is never paired, returned, stored,
/// handed to a consumer or freed. Paths through a NULL-guard bailout of
/// the object, or down its NULL branch, hold no reference and cannot
/// witness the leak. With `paired_somewhere` the path must also pass
/// no error block, since a leak there is P5's finding. The delta engine
/// runs the same query, with `paired_somewhere` false, so both engines
/// report the same line.
pub fn never_paired_query<'a>(
    ctx: &'a CheckCtx<'a>,
    api: &'a RcApi,
    obj: &str,
    paired_somewhere: bool,
) -> PathQuery<'a> {
    let graph = ctx.graph;
    let exit = graph.cfg.exit;
    let null_guard = null_guard_nodes(&graph.cfg, &graph.facts, obj);
    let o = obj.to_string();
    PathQuery::new(vec![Step::new(move |n| n == exit)
        .avoiding(move |n| {
            null_guard.contains(&n)
                || (paired_somewhere && graph.is_error_node(n))
                || ctx.is_paired_dec(n, api, &o)
                || ctx.returns_object(n, &o)
                || ctx.escapes_object(n, &o)
                || ctx.passes_to_consumer(n, &o)
                // A direct kfree is wrong too, but it is P7's finding,
                // not P4's.
                || ctx.frees_object(n, &o)
        })
        .avoiding_edges(ctx.null_branch_of(obj))])
    .without_back_edges()
}

/// Whether the call result flows directly into an enclosing call
/// (`register(of_find_x(..))`), i.e. is consumed rather than discarded.
fn feeds_enclosing_call(ctx: &CheckCtx<'_>, node: refminer_cpg::NodeId, api: &str) -> bool {
    // The facts list calls outermost-first; if another call appears in
    // the same statement, the find result most likely feeds it.
    ctx.graph.facts[node].calls.iter().any(|c| c.name != api)
}

/// Whether any node before `node` takes a reference on `var`.
fn preceded_by_get(ctx: &CheckCtx<'_>, node: refminer_cpg::NodeId, var: &str) -> bool {
    ctx.graph.cfg.node_ids().any(|n| {
        n != node
            && ctx.graph.cfg.reachable(n, node)
            && ctx.graph.facts[n].calls.iter().any(|c| {
                ctx.kb.is_inc(&c.name)
                    && ctx
                        .kb
                        .get(&c.name)
                        .and_then(|a| a.object_arg())
                        .and_then(|i| c.arg_root(i))
                        == Some(var)
            })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;
    use refminer_cpg::FunctionGraph;
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
    fn p3_detects_listing4_break() {
        let findings = run(
            &SmartLoopBreakChecker,
            r#"
static int brcmstb_pm_probe(struct platform_device *pdev)
{
        struct device_node *dn;
        for_each_matching_node(dn, sram_dt_ids) {
                if (bad(dn))
                        break;
        }
        return 0;
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, AntiPattern::P3);
        assert_eq!(findings[0].api, "for_each_matching_node");
        assert_eq!(findings[0].object.as_deref(), Some("dn"));
    }

    #[test]
    fn p3_clean_with_put_before_break() {
        let findings = run(
            &SmartLoopBreakChecker,
            r#"
static int probe(struct platform_device *pdev)
{
        struct device_node *dn;
        for_each_matching_node(dn, ids) {
                if (bad(dn)) {
                        of_node_put(dn);
                        break;
                }
        }
        return 0;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p3_clean_with_put_after_loop() {
        let findings = run(
            &SmartLoopBreakChecker,
            r#"
static int probe(struct platform_device *pdev)
{
        struct device_node *dn;
        for_each_matching_node(dn, ids) {
                if (bad(dn))
                        break;
        }
        of_node_put(dn);
        return 0;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p3_return_inside_loop() {
        let findings = run(
            &SmartLoopBreakChecker,
            r#"
static int scan(struct device_node *parent)
{
        struct device_node *child;
        for_each_child_of_node(parent, child) {
                if (match(child))
                        return 0;
        }
        return -ENODEV;
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].object.as_deref(), Some("child"));
    }

    #[test]
    fn p3_returning_iterator_is_ownership_transfer() {
        let findings = run(
            &SmartLoopBreakChecker,
            r#"
static struct device_node *find_first(struct device_node *parent)
{
        struct device_node *child;
        for_each_child_of_node(parent, child) {
                if (match(child))
                        return child;
        }
        return NULL;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p4_detects_listing1_shape() {
        let findings = run(
            &HiddenApiChecker,
            r#"
struct nvmem_device *__nvmem_device_get(struct device_node *np)
{
        struct device *dev;
        dev = bus_find_device(&nvmem_bus_type, NULL, np, of_nvmem_match);
        if (!dev)
                return ERR_PTR(-EPROBE_DEFER);
        return ERR_PTR(-EINVAL);
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].api, "bus_find_device");
        assert_eq!(findings[0].impact, Impact::Leak);
    }

    #[test]
    fn p4_clean_when_put_everywhere() {
        let findings = run(
            &HiddenApiChecker,
            r#"
int probe(void)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        if (!np)
                return -ENODEV;
        use_node(np);
        of_node_put(np);
        return 0;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p4_clean_when_object_returned() {
        let findings = run(
            &HiddenApiChecker,
            r#"
struct device_node *find_it(void)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        return np;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p4_discarded_result() {
        let findings = run(
            &HiddenApiChecker,
            r#"
void probe(void)
{
        of_find_node_by_name(NULL, "x");
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("discarded"));
    }

    #[test]
    fn p4_hidden_dec_on_borrowed_from() {
        // `of_find_matching_node(from, ..)` puts `from`; passing the
        // borrowed parameter without a get is the missing-increase bug
        // (§5.2.2, "16 new such missing-increasing bugs").
        let findings = run(
            &HiddenApiChecker,
            r#"
struct device_node *next_node(struct device_node *from)
{
        struct device_node *np = of_find_matching_node(from, ids);
        return np;
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].impact, Impact::Uaf);
        assert_eq!(findings[0].object.as_deref(), Some("from"));
    }

    #[test]
    fn p4_hidden_dec_ok_with_prior_get() {
        let findings = run(
            &HiddenApiChecker,
            r#"
struct device_node *next_node(struct device_node *from)
{
        struct device_node *np;
        of_node_get(from);
        np = of_find_matching_node(from, ids);
        return np;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p4_hidden_dec_ok_with_null_from() {
        let findings = run(
            &HiddenApiChecker,
            r#"
struct device_node *first_node(void)
{
        struct device_node *np = of_find_matching_node(NULL, ids);
        return np;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }
}
