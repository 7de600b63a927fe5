//! # refminer-delta
//!
//! The ownership-delta dataflow engine: an independent abstraction of
//! the refcount bugs the semantic-template checkers find. The audit
//! does not run it: on every tree measured it added no finding and
//! removed none. The benchmark builds it directly for its per-layer
//! `delta.*` rows, and it goes once those rows do.
//!
//! Where the template engine pattern-matches the paper's nine
//! anti-pattern shapes, this engine *counts*. For every acquisition
//! site it runs a forward dataflow over the function's CFG with an
//! interval abstract domain: each node carries the possible net
//! refcount delta the function still owes on the acquired object,
//! as an interval `[lo, hi]` saturated at ±`CAP`. Transfer effects
//! come from the same substrate the checkers use — paired decrements
//! (including alias- and helper-resolved ones through the
//! [`ProgramDb`](refminer_progdb::ProgramDb) effect summaries, which
//! makes the engine interprocedural), further increments, hidden
//! decrements of `ArgAndReturned` find-APIs, and helper acquires.
//! Ownership transfers (return, escape, consumer hand-off,
//! reassignment, direct free) kill the path: the delta is no longer
//! this function's debt.
//! Branch edges on which the object is known NULL propagate nothing —
//! no reference is held there.
//!
//! A site whose interval still admits a positive delta at the function
//! exit (`hi > 0`) leaks on some path. The engine then *refines* the
//! candidate with the checkers' own witness queries
//! ([`return_error_query`], [`error_path_query`],
//! [`never_paired_query`]) and feasibility classification, so a site
//! both analyses flag lands on the same line with the same verdict. A
//! candidate whose delta is positive on **every** exit path (`lo > 0`)
//! but which no template query witnesses (e.g. a double-get with a
//! single put on straight-line code) is reported structurally: that is
//! the delta engine's own territory.
//!
//! The over-put direction mirrors P8: a decrement of an object the
//! function never acquired drives the interval negative; a subsequent
//! dereference on some path ([`use_after_decrease_query`]) is a
//! use-after-decrease.

use refminer_checkers::{
    error_path_query, has_any_paired_dec, inc_sites, never_paired_query, return_error_query,
    use_after_decrease_query, AnalysisEngine, AntiPattern, CheckCtx, Finding, Impact,
};
use refminer_cpg::{Feasibility, NodeId, NodeKind};
use refminer_rcapi::{ObjectFlow, RcApi, RcClass, RcDir};

/// The checker-style name stamped into delta findings' `checkers`
/// list, so reports and eval can tell which analysis stood up a site.
pub const DELTA_CHECKER_NAME: &str = "DeltaEngine";

/// Interval saturation bound: deltas beyond ±3 carry no extra signal.
const CAP: i8 = 3;

/// A saturated refcount-delta interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Smallest possible net delta.
    pub lo: i8,
    /// Largest possible net delta.
    pub hi: i8,
}

impl Interval {
    /// The exact interval `[d, d]`.
    pub fn exact(d: i8) -> Interval {
        Interval { lo: d, hi: d }
    }

    /// Shifts both bounds by `d`, saturating at ±`CAP`.
    pub fn shift(self, d: i8) -> Interval {
        Interval {
            lo: (self.lo + d).clamp(-CAP, CAP),
            hi: (self.hi + d).clamp(-CAP, CAP),
        }
    }

    /// The least interval containing both operands.
    pub fn join(self, other: Interval) -> Interval {
        Interval {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }
}

/// The ownership-delta dataflow engine behind the [`AnalysisEngine`]
/// trait, over every anti-pattern it can attribute.
#[derive(Default)]
pub struct DeltaEngine;

impl DeltaEngine {
    /// A new engine; it holds no state.
    pub fn new() -> DeltaEngine {
        DeltaEngine
    }
}

impl AnalysisEngine for DeltaEngine {
    fn name(&self) -> &'static str {
        "delta"
    }

    fn analyze(&self, ctx: &CheckCtx<'_>) -> Vec<Finding> {
        let mut out = leak_findings(ctx);
        out.extend(overput_findings(ctx));
        out
    }
}

/// One acquisition the dataflow tracks: like the checkers' inc sites,
/// but with arg-rooted objects recovered for bare `get(obj)` calls of
/// `ArgAndReturned` APIs (which the template site extraction leaves
/// object-less).
struct Seed<'a> {
    node: NodeId,
    api: &'a RcApi,
    object: &'a str,
}

fn seeds<'a>(ctx: &'a CheckCtx<'_>) -> Vec<Seed<'a>> {
    inc_sites(ctx)
        .into_iter()
        // Smartloop iterator references are P3's hidden protocol, not
        // a per-site delta; skip the loop-head acquisitions entirely.
        .filter(|s| {
            !matches!(
                ctx.graph.cfg.nodes[s.node].kind,
                NodeKind::MacroLoopHead { .. }
            )
        })
        .filter_map(|s| {
            // No object at all is a discarded result: the template's P4
            // discard shape owns it; a delta over a nameless object is
            // moot.
            let object = s.object.or_else(|| {
                // A bare `of_node_get(np)`-style call: the reference
                // lands back on the argument itself. Only for the
                // non-Embedded `ArgAndReturned` APIs — the embedded
                // find-family's argument is the search *start*, which
                // the call puts rather than acquires.
                if !s.api.returns_object() || s.api.class == RcClass::Embedded {
                    return None;
                }
                let i = s.api.object_arg()?;
                s.call.arg_root(i)
            })?;
            Some(Seed {
                node: s.node,
                api: s.api,
                object,
            })
        })
        .collect()
}

/// The net refcount effect node `n` applies to `obj` (excluding the
/// seed's own acquisition, which is seeded directly).
fn node_effect(ctx: &CheckCtx<'_>, seed: &Seed<'_>, n: NodeId) -> i8 {
    let graph = ctx.graph;
    let obj = seed.object;
    let mut e: i8 = 0;
    // Any paired decrement — direct, alias-resolved, or a helper whose
    // ProgramDb summary releases the argument.
    if ctx.is_paired_dec(n, seed.api, obj) {
        e -= 1;
    }
    let mut inc = false;
    let mut hidden_dec = false;
    let mut helper_acq = false;
    for call in &graph.facts[n].calls {
        match ctx.kb.get(call.name) {
            Some(api) if api.dir == RcDir::Inc => {
                if n != seed.node
                    && api
                        .object_arg()
                        .and_then(|i| call.arg_root(i))
                        .is_some_and(|r| r == obj)
                {
                    inc = true;
                }
                // Embedded find-APIs put their `from` argument (the
                // hidden-decrement of §5.2.2) even while acquiring a
                // new reference on their result.
                if api.class == RcClass::Embedded {
                    if let ObjectFlow::ArgAndReturned(i) = api.flow {
                        let null_from = call.args.get(i).is_some_and(|a| a.is_null);
                        if !null_from && call.arg_root(i) == Some(obj) {
                            hidden_dec = true;
                        }
                    }
                }
            }
            Some(_) => {}
            None => {
                // Helper acquires resolve through the same program
                // database as helper releases.
                if call.args.iter().enumerate().any(|(i, a)| {
                    a.root == Some(obj)
                        && ctx
                            .program
                            .summary_of(ctx.file, call.name)
                            .is_some_and(|s| s.acquires.contains(&i))
                }) {
                    helper_acq = true;
                }
            }
        }
    }
    if inc {
        e += 1;
    }
    if helper_acq {
        e += 1;
    }
    if hidden_dec {
        e -= 1;
    }
    e
}

/// Whether node `n` transfers ownership of the object out of the
/// function — return, escape, consumer hand-off, reassignment, or a
/// direct free (P7's territory). The path dies for delta purposes.
fn transfers(ctx: &CheckCtx<'_>, obj: &str, n: NodeId) -> bool {
    ctx.returns_object(n, obj)
        || ctx.escapes_object(n, obj)
        || ctx.passes_to_consumer(n, obj)
        || ctx.reassigns_object(n, obj)
        || ctx.frees_object(n, obj)
}

/// Forward interval dataflow from the seed. Returns the interval at
/// the function exit, or `None` when every path transfers ownership
/// (nothing is owed at exit).
fn exit_interval(ctx: &CheckCtx<'_>, seed: &Seed<'_>) -> Option<Interval> {
    let graph = ctx.graph;
    let cfg = &graph.cfg;
    let null_edge = ctx.null_branch_of(seed.object);
    // out[n]: delta interval after n executes, on live paths.
    let mut out: Vec<Option<Interval>> = vec![None; cfg.nodes.len()];
    out[seed.node] = Some(Interval::exact(1));
    let mut work: Vec<NodeId> = vec![seed.node];
    while let Some(n) = work.pop() {
        let Some(cur) = out[n] else { continue };
        for &(m, kind) in cfg.succs(n) {
            if null_edge(n, m, kind) {
                // The object is NULL on this branch: no reference held.
                continue;
            }
            if transfers(ctx, seed.object, m) {
                continue;
            }
            let next = cur.shift(node_effect(ctx, seed, m));
            let joined = match out[m] {
                Some(prev) => prev.join(next),
                None => next,
            };
            if out[m] != Some(joined) {
                out[m] = Some(joined);
                work.push(m);
            }
        }
    }
    out[cfg.exit]
}

/// The leak direction: candidates with a possibly-positive exit delta,
/// refined through the template witness queries for line and
/// feasibility parity, with the structural net-positive fallback.
fn leak_findings(ctx: &CheckCtx<'_>) -> Vec<Finding> {
    let graph = ctx.graph;
    let mut out = Vec::new();
    for seed in seeds(ctx) {
        let Some(iv) = exit_interval(ctx, &seed) else {
            continue;
        };
        if iv.hi <= 0 {
            continue;
        }
        let obj = seed.object;
        let api = seed.api;
        if api.inc_on_error {
            // P1's shape: the increment survives even the failure path.
            let q = return_error_query(ctx, api, obj);
            if q.search(&graph.cfg, seed.node).is_some() {
                out.push(delta_finding(
                    ctx,
                    AntiPattern::P1,
                    Impact::Leak,
                    graph.line_of(seed.node),
                    &seed,
                    format!(
                        "net refcount delta after {} stays positive through the \
                         error path (interval [{}, {}] at exit)",
                        api.name, iv.lo, iv.hi
                    ),
                    graph.feas.classify(&q, &graph.cfg, seed.node),
                ));
            }
            continue;
        }
        if has_any_paired_dec(ctx, api, obj) {
            // P5's shape: paired on the common paths, an error path
            // slips out.
            let q = error_path_query(ctx, api, obj);
            if let Some(witness) = q.search(&graph.cfg, seed.node) {
                out.push(delta_finding(
                    ctx,
                    AntiPattern::P5,
                    Impact::Leak,
                    graph.line_of(witness[0]),
                    &seed,
                    format!(
                        "path with net refcount delta in [{}, {}] at exit misses \
                         the decrement other paths perform",
                        iv.lo, iv.hi
                    ),
                    graph.feas.classify(&q, &graph.cfg, seed.node),
                ));
            } else if iv.lo > 0 {
                // No template query witnesses it, yet the delta is
                // positive on *every* live path — e.g. two gets paired
                // by a single put on straight-line code. The delta
                // engine's own finding.
                out.push(delta_finding(
                    ctx,
                    AntiPattern::P5,
                    Impact::Leak,
                    graph.line_of(seed.node),
                    &seed,
                    format!(
                        "{} leaves a net refcount delta of at least +{} on every \
                         path to exit despite a paired decrement",
                        api.name, iv.lo
                    ),
                    Feasibility::Assumed,
                ));
            }
            continue;
        }
        // Never paired at all: the hidden-API leak, for the find-like
        // APIs whose reference the caller plausibly missed.
        if api.class == RcClass::Embedded && api.returns_object() {
            let q = never_paired_query(ctx, api, obj, false);
            if q.search(&graph.cfg, seed.node).is_some() {
                out.push(delta_finding(
                    ctx,
                    AntiPattern::P4,
                    Impact::Leak,
                    graph.line_of(seed.node),
                    &seed,
                    format!(
                        "hidden reference from {} is never paired: net delta \
                         interval [{}, {}] at exit",
                        api.name, iv.lo, iv.hi
                    ),
                    graph.feas.classify(&q, &graph.cfg, seed.node),
                ));
            }
        }
    }
    out
}

/// The over-put direction: decrementing an object this function never
/// acquired drives the delta negative; a subsequent dereference is a
/// use-after-decrease. The witness query is the UadChecker's,
/// restricted to the never-acquired (net-negative) case.
fn overput_findings(ctx: &CheckCtx<'_>) -> Vec<Finding> {
    let graph = ctx.graph;
    let acquired: Vec<&str> = inc_sites(ctx)
        .into_iter()
        .filter_map(|s| s.object)
        .collect();
    let mut out = Vec::new();
    for n in graph.cfg.node_ids() {
        for call in &graph.facts[n].calls {
            let Some(api) = ctx.kb.get(call.name) else {
                continue;
            };
            if api.dir != RcDir::Dec {
                continue;
            }
            let Some(obj) = api.object_arg().and_then(|i| call.arg_root(i)) else {
                continue;
            };
            if acquired.contains(&obj) {
                // The function owns a reference; the plain P8 checker
                // covers the use-after-put there.
                continue;
            }
            let q = use_after_decrease_query(ctx, n, obj);
            if let Some(witness) = q.search(&graph.cfg, n) {
                let deref_node = witness[0];
                out.push(Finding {
                    pattern: AntiPattern::P8,
                    impact: Impact::Uaf,
                    file: ctx.file.to_string(),
                    function: graph.name().to_string(),
                    line: graph.line_of(deref_node),
                    api: call.name.to_string(),
                    object: Some(obj.to_string()),
                    message: format!(
                        "net refcount delta on {obj} goes negative at {}({obj}) \
                         and the object is used afterwards",
                        call.name
                    ),
                    feasibility: graph.feas.classify(&q, &graph.cfg, n),
                    checkers: vec![DELTA_CHECKER_NAME.to_string()],
                });
            }
        }
    }
    out
}

fn delta_finding(
    ctx: &CheckCtx<'_>,
    pattern: AntiPattern,
    impact: Impact,
    line: u32,
    seed: &Seed<'_>,
    message: String,
    feasibility: Feasibility,
) -> Finding {
    Finding {
        pattern,
        impact,
        file: ctx.file.to_string(),
        function: ctx.graph.name().to_string(),
        line,
        api: seed.api.name.clone(),
        object: Some(seed.object.to_string()),
        message,
        feasibility,
        checkers: vec![DELTA_CHECKER_NAME.to_string()],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;
    use refminer_cpg::FunctionGraph;
    use refminer_progdb::ProgramDb;
    use refminer_rcapi::ApiKb;

    fn run(src: &str) -> Vec<Finding> {
        let tu = parse_str("t.c", src);
        let graphs = FunctionGraph::build_all(&tu);
        let kb = ApiKb::builtin();
        let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
        let db = ProgramDb::local(&tu.path, &graphs, &globals, &kb);
        let global_names = globals.iter().map(String::as_str).collect();
        let mut out = Vec::new();
        for graph in &graphs {
            let ctx = CheckCtx {
                file: "t.c",
                graph,
                kb: &kb,
                unit: &tu,
                globals: &global_names,
                all_graphs: &graphs,
                program: &db,
                trace: refminer_trace::TraceHandle::disabled(),
            };
            out.extend(DeltaEngine::new().analyze(&ctx));
        }
        out
    }

    #[test]
    fn interval_arithmetic_saturates() {
        let iv = Interval::exact(1).shift(5);
        assert_eq!(iv, Interval { lo: 3, hi: 3 });
        let iv = Interval::exact(-1).shift(-5);
        assert_eq!(iv, Interval { lo: -3, hi: -3 });
        assert_eq!(
            Interval::exact(0).join(Interval::exact(1)),
            Interval { lo: 0, hi: 1 }
        );
    }

    #[test]
    fn finds_error_path_leak_on_template_line() {
        let findings = run(r#"
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
"#);
        assert_eq!(findings.len(), 1, "got {findings:?}");
        assert_eq!(findings[0].pattern, AntiPattern::P5);
        assert_eq!(findings[0].checkers, vec![DELTA_CHECKER_NAME.to_string()]);
    }

    #[test]
    fn finds_inc_on_error_leak() {
        let findings = run(r#"
static int stm32_crc_remove(struct platform_device *pdev)
{
        struct stm32_crc *crc = platform_get_drvdata(pdev);
        int ret = pm_runtime_get_sync(crc->dev);
        if (ret < 0)
                return ret;
        pm_runtime_put(crc->dev);
        return 0;
}
"#);
        assert_eq!(findings.len(), 1, "got {findings:?}");
        assert_eq!(findings[0].pattern, AntiPattern::P1);
    }

    #[test]
    fn finds_never_paired_hidden_reference() {
        let findings = run(r#"
struct nvmem_device *__nvmem_device_get(struct device_node *np)
{
        struct device *dev;
        dev = bus_find_device(&nvmem_bus_type, NULL, np, of_nvmem_match);
        if (!dev)
                return ERR_PTR(-EPROBE_DEFER);
        return ERR_PTR(-EINVAL);
}
"#);
        assert_eq!(findings.len(), 1, "got {findings:?}");
        assert_eq!(findings[0].pattern, AntiPattern::P4);
    }

    #[test]
    fn finds_use_after_decrease() {
        let findings = run(r#"
void ping_unhash(struct sock *sk)
{
        sock_put(sk);
        sock_prot_inuse_add(net, sk->sk_prot, -1);
}
"#);
        assert_eq!(findings.len(), 1, "got {findings:?}");
        assert_eq!(findings[0].pattern, AntiPattern::P8);
        assert_eq!(findings[0].impact, Impact::Uaf);
    }

    #[test]
    fn silent_on_fully_paired_code() {
        let findings = run(r#"
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
"#);
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn silent_on_ownership_transfer() {
        let findings = run(r#"
struct device_node *find_it(void)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        return np;
}
"#);
        assert!(findings.is_empty(), "got {findings:?}");
    }

    #[test]
    fn double_get_is_delta_only_territory() {
        // Two gets, one put, no error path: no template query
        // witnesses this, but the net delta is +1 on every path.
        let findings = run(r#"
void pin_twice(struct device_node *np)
{
        of_node_get(np);
        of_node_get(np);
        use_node(np);
        of_node_put(np);
}
"#);
        assert_eq!(findings.len(), 1, "got {findings:?}");
        assert_eq!(findings[0].pattern, AntiPattern::P5);
        assert_eq!(findings[0].feasibility, Feasibility::Assumed);
        assert!(findings[0].message.contains("net refcount delta"));
    }

    #[test]
    fn helper_release_resolves_interprocedurally() {
        let findings = run(r#"
static void cleanup(struct device_node *np)
{
        of_node_put(np);
}
int probe(void)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        if (!np)
                return -ENODEV;
        cleanup(np);
        return 0;
}
"#);
        assert!(findings.is_empty(), "got {findings:?}");
    }
}
