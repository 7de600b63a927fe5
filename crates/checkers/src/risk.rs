//! Checkers P8 and P9: future-risk bugs (§5.4).

use refminer_cpg::{NodeId, Origin, PathQuery, Step, StoreTarget};
use refminer_rcapi::RcDir;

use crate::checker::Checker;
use crate::ctx::CheckCtx;
use crate::finding::{AntiPattern, Finding, Impact};

/// **P8 — Use-after-decrease (UAD)**
/// (`F_start → S_P(p0) → S_D(p0) → F_end`).
///
/// Accessing an object after dropping a reference to it assumes the
/// refcounter cannot have reached zero — an assumption that a future
/// caller can silently break (§5.4.1: 94 historical bugs; Listing 6's
/// `ping_unhash`).
pub struct UadChecker;

impl Checker for UadChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P8
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        let graph = ctx.graph;
        for n in graph.cfg.node_ids() {
            for call in &graph.facts[n].calls {
                let Some(api) = ctx.kb.get(&call.name) else {
                    continue;
                };
                if api.dir != RcDir::Dec {
                    continue;
                }
                let Some(obj) = api
                    .object_arg()
                    .and_then(|i| call.arg_root(i))
                    .map(str::to_string)
                else {
                    continue;
                };
                let q = use_after_decrease_query(ctx, n, &obj);
                if let Some(witness) = q.search(&graph.cfg, n) {
                    let deref_node = witness[0];
                    out.push(Finding {
                        pattern: AntiPattern::P8,
                        impact: Impact::Uaf,
                        file: ctx.file.to_string(),
                        function: graph.name().to_string(),
                        line: graph.line_of(deref_node),
                        api: call.name.clone(),
                        object: Some(obj.clone()),
                        message: format!(
                            "{obj} is accessed after {}({obj}) may have dropped \
                             the last reference",
                            call.name
                        ),
                        feasibility: graph.feas.classify(&q, &graph.cfg, n),
                        checkers: Vec::new(),
                    });
                }
            }
        }
        out
    }
}

/// P8's witness query, searched from the decrement at `dec_node`: a
/// path to a node that dereferences `obj`, without an intervening
/// re-take or reassignment of the pointer. Back-edges stay enabled: a
/// put at the bottom of a loop body makes the deref at the top of the
/// *next* iteration a UAD too. The delta engine runs the same query for
/// objects the function never acquired, so both engines report the
/// same line.
pub fn use_after_decrease_query<'a>(
    ctx: &'a CheckCtx<'a>,
    dec_node: NodeId,
    obj: &str,
) -> PathQuery<'a> {
    let graph = ctx.graph;
    let (o1, o2, o3) = (obj.to_string(), obj.to_string(), obj.to_string());
    PathQuery::new(vec![Step::new(move |m| {
        m != dec_node && graph.facts[m].derefs_var(&o1)
    })
    .avoiding(move |m| {
        ctx.reassigns_object(m, &o2)
            || graph.facts[m].calls.iter().any(|c| {
                ctx.kb
                    .get(&c.name)
                    .filter(|a| a.dir == RcDir::Inc)
                    .and_then(|a| a.object_arg())
                    .and_then(|i| c.arg_root(i))
                    == Some(&o3)
            })
    })])
}

/// **P9 — Reference escape** (`F_start → S_{A_{G|O}} → F_end`).
///
/// Storing a *borrowed* reference (a parameter the function does not
/// own) into a global or out-parameter location without an increment
/// around the escape point leaves a dangling path for the future
/// (§5.4.2: 74 historical bugs).
pub struct EscapeChecker;

impl Checker for EscapeChecker {
    fn pattern(&self) -> AntiPattern {
        AntiPattern::P9
    }

    fn check(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = Vec::new();
        let graph = ctx.graph;
        let params = graph.pointer_params();
        let globals: Vec<&str> = ctx.unit.globals().map(|g| g.name.as_str()).collect();
        for n in graph.cfg.node_ids() {
            for assign in &graph.facts[n].assigns {
                let Some(src) = assign.rhs_root.as_deref() else {
                    continue;
                };
                // Only borrowed references: parameters that still hold
                // their incoming value (origin == Param).
                if !params.contains(&src) {
                    continue;
                }
                let origins = graph.origins.at(&graph.cfg, n, src);
                let borrowed =
                    !origins.is_empty() && origins.iter().all(|o| matches!(o, Origin::Param));
                if !borrowed {
                    continue;
                }
                // The escape target must outlive the call: a global
                // variable, an out-parameter store (`*out = src` or
                // `out->field = src` where out is another parameter).
                let escapes = match &assign.target {
                    StoreTarget::Var(v) => globals.contains(&v.as_str()),
                    StoreTarget::Indirect(root) => params.contains(&root.as_str()) && root != src,
                    StoreTarget::Field { root, .. } => {
                        (params.contains(&root.as_str()) || globals.contains(&root.as_str()))
                            && root != src
                    }
                    StoreTarget::Other => false,
                };
                if !escapes {
                    continue;
                }
                // An increment on src anywhere in the function (the
                // paper asks for it *around the escape point*; we accept
                // the whole function to stay conservative on FPs).
                let has_inc = graph.cfg.node_ids().any(|m| {
                    graph.facts[m].calls.iter().any(|c| {
                        ctx.kb
                            .get(&c.name)
                            .filter(|a| a.dir == RcDir::Inc)
                            .and_then(|a| a.object_arg())
                            .and_then(|i| c.arg_root(i))
                            == Some(src)
                    })
                });
                if has_inc {
                    continue;
                }
                // Only refcounted types are interesting; approximate by
                // "struct pointer" parameters whose struct tag looks
                // refcounted or device-tree related.
                let src_param = graph
                    .func
                    .params
                    .iter()
                    .find(|p| p.name.as_deref() == Some(src));
                let refcounted_ty = src_param
                    .and_then(|p| p.ty.struct_tag())
                    .map(|t| {
                        t.contains("node")
                            || t.contains("device")
                            || t.contains("sock")
                            || t.contains("kobject")
                            || t.ends_with("_ref")
                    })
                    .unwrap_or(false);
                if !refcounted_ty {
                    continue;
                }
                out.push(Finding {
                    pattern: AntiPattern::P9,
                    impact: Impact::Uaf,
                    file: ctx.file.to_string(),
                    function: graph.name().to_string(),
                    line: graph.line_of(n),
                    api: String::new(),
                    object: Some(src.to_string()),
                    message: format!(
                        "borrowed reference {src} escapes through a long-lived \
                         store without an increment around the escape point"
                    ),
                    // A single-statement structural match; the escape
                    // happens wherever the store executes.
                    feasibility: refminer_cpg::Feasibility::Assumed,
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
    fn p8_detects_listing6_ping_unhash() {
        let findings = run(
            &UadChecker,
            r#"
void ping_unhash(struct sock *sk)
{
        sock_put(sk);
        isk->inet_num = 0;
        sock_prot_inuse_add(net, sk->sk_prot, -1);
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, AntiPattern::P8);
        assert_eq!(findings[0].impact, Impact::Uaf);
        assert_eq!(findings[0].object.as_deref(), Some("sk"));
    }

    #[test]
    fn p8_detects_listing2_unlock_after_put() {
        let findings = run(
            &UadChecker,
            r#"
static int usb_console_setup(struct console *co, char *options)
{
        usb_serial_put(serial);
        mutex_unlock(&serial->disc_mutex);
        return 0;
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].api, "usb_serial_put");
    }

    #[test]
    fn p8_clean_when_use_precedes_put() {
        let findings = run(
            &UadChecker,
            r#"
static int usb_console_setup(struct console *co, char *options)
{
        mutex_unlock(&serial->disc_mutex);
        usb_serial_put(serial);
        return 0;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p8_clean_when_pointer_nulled() {
        let findings = run(
            &UadChecker,
            r#"
void drop(struct sock *sk)
{
        sock_put(sk);
        sk = NULL;
        if (sk)
                use_sock(sk->prot);
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p9_detects_borrowed_escape() {
        let findings = run(
            &EscapeChecker,
            r#"
static struct device_node *cached;
void stash(struct device_node *np)
{
        cached = np;
}
"#,
        );
        assert_eq!(findings.len(), 1);
        assert_eq!(findings[0].pattern, AntiPattern::P9);
        assert_eq!(findings[0].object.as_deref(), Some("np"));
    }

    #[test]
    fn p9_clean_with_increment() {
        let findings = run(
            &EscapeChecker,
            r#"
static struct device_node *cached;
void stash(struct device_node *np)
{
        of_node_get(np);
        cached = np;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p9_detects_out_param_escape() {
        let findings = run(
            &EscapeChecker,
            r#"
void fill(struct priv_data *priv, struct device_node *np)
{
        priv->node = np;
}
"#,
        );
        assert_eq!(findings.len(), 1);
    }

    #[test]
    fn p9_ignores_owned_references() {
        // np was acquired by a find: storing it transfers the owned
        // reference, which is correct.
        let findings = run(
            &EscapeChecker,
            r#"
void fill(struct priv_data *priv)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        priv->node = np;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn p9_ignores_non_refcounted_types() {
        let findings = run(
            &EscapeChecker,
            r#"
static char *cached_name;
void stash(char *name)
{
        cached_name = name;
}
"#,
        );
        assert!(findings.is_empty(), "got {findings:?}");
    }
}
