//! Path-feasibility constraint analysis.
//!
//! The path-query engine enumerates *syntactic* paths; this module asks
//! whether the branch conditions along them can hold simultaneously.
//! It tracks, flow-sensitively per function, a small abstract value for
//! each scalar variable — known integer constant (`ret = 0`, `flag =
//! 1`, `p = NULL`), known nonzero, or unknown — refined by the
//! NULL/error checks on branch edges, and from the fixpoint derives the
//! set of **infeasible branch edges**: edges whose condition contradicts
//! everything that can reach them (`if (ret) goto err;` after `ret =
//! 0`, a re-test of an already-decided error code, a constant-folded
//! flag guard).
//!
//! Checkers keep their existing unpruned queries for *detection* and
//! call [`FeasAnalysis::classify`] afterwards: a witness that survives
//! the pruned re-search is [`Feasibility::Proven`] (the path exists even
//! under active adversarial pruning) or [`Feasibility::Assumed`] (the
//! analysis had no constraints to prune with); a witness that only
//! exists through an infeasible edge is [`Feasibility::Infeasible`] and
//! is suppressed by default in the audit report.
//!
//! The lattice is deliberately conservative: any construct it does not
//! model (address-taken variables, compound assignments, non-constant
//! right-hand sides, merges of differing constants) degrades to
//! *unknown*, which can only ever cause a finding to be kept, never
//! suppressed.

use std::collections::{BTreeMap, HashSet, VecDeque};

use refminer_cparse::{AssignOp, BinOp, Expr, ExprKind, Initializer, UnOp};

use crate::cfg::{Cfg, EdgeKind, NodeId, NodeKind, Payload};
use crate::facts::{errish_name, extract_checks, CheckFact, NodeFacts};
use crate::paths::PathQuery;

/// The feasibility verdict attached to a checker finding.
///
/// Ordered by certainty: `Infeasible < Assumed < Proven`, so merged
/// findings keep the most credible verdict.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Feasibility {
    /// The bug-witnessing path requires an infeasible branch edge; the
    /// finding is a false path and is suppressed by default.
    Infeasible,
    /// No feasibility constraints applied to this function (or the
    /// finding is structural, not path-based); the verdict stands on
    /// the syntactic path alone.
    #[default]
    Assumed,
    /// The witnessing path survived active pruning: the function had
    /// infeasible edges and the path needs none of them.
    Proven,
}

impl Feasibility {
    /// Stable lowercase name, used in JSON and cache files.
    pub fn name(&self) -> &'static str {
        match self {
            Feasibility::Infeasible => "infeasible",
            Feasibility::Assumed => "assumed",
            Feasibility::Proven => "proven",
        }
    }

    /// Parses a [`name`](Feasibility::name) back.
    pub fn from_name(s: &str) -> Option<Feasibility> {
        match s {
            "infeasible" => Some(Feasibility::Infeasible),
            "assumed" => Some(Feasibility::Assumed),
            "proven" => Some(Feasibility::Proven),
            _ => None,
        }
    }
}

impl std::fmt::Display for Feasibility {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Abstract value of one scalar variable at one program point.
/// `NULL` is folded into `Int(0)`, matching C's null-pointer constant,
/// so pointer guards and integer flags share one domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AbsVal {
    /// Known to hold exactly this value.
    Int(i64),
    /// Known nonzero (valid pointer, set flag, error code), value
    /// unknown.
    NonZero,
}

impl AbsVal {
    fn is_nonzero(self) -> bool {
        !matches!(self, AbsVal::Int(0))
    }
}

/// Join two known values; `None` means unknown (drop the entry).
fn join_val(a: AbsVal, b: AbsVal) -> Option<AbsVal> {
    match (a, b) {
        _ if a == b => Some(a),
        (AbsVal::Int(x), AbsVal::Int(y)) if x != 0 && y != 0 => Some(AbsVal::NonZero),
        (AbsVal::Int(x), AbsVal::NonZero) | (AbsVal::NonZero, AbsVal::Int(x)) if x != 0 => {
            Some(AbsVal::NonZero)
        }
        _ => None,
    }
}

/// A per-point environment, keyed by variable names borrowed from the
/// AST; absent variables are unknown.
type Env<'a> = BTreeMap<&'a str, AbsVal>;

/// Join `b` into `a`, returning whether `a` changed.
fn join_env(a: &mut Env, b: &Env) -> bool {
    let before = a.len();
    let mut changed = false;
    a.retain(|k, av| match b.get(k).and_then(|&bv| join_val(*av, bv)) {
        Some(v) => {
            changed |= v != *av;
            *av = v;
            true
        }
        None => false,
    });
    changed || a.len() != before
}

/// One write observed in a node, in evaluation order: the variable and
/// its value if it is a recognizable constant.
fn collect_writes<'a>(e: &'a Expr, out: &mut Vec<(&'a str, Option<i64>)>) {
    e.walk(&mut |sub| match &sub.kind {
        ExprKind::Assign { op, lhs, rhs } => {
            if let ExprKind::Ident(v) = &lhs.kind {
                let val = if *op == AssignOp::Assign {
                    const_of(rhs)
                } else {
                    None
                };
                out.push((v, val));
            }
        }
        ExprKind::Unary {
            op: UnOp::AddrOf | UnOp::PreInc | UnOp::PreDec,
            operand,
        }
        | ExprKind::Postfix { operand, .. } => {
            // `&v` may alias a write through the pointer; `++v`/`--v`
            // and `v++`/`v--` change the value. All degrade the
            // variable to unknown.
            if let ExprKind::Ident(v) = &operand.kind {
                out.push((v, None));
            }
        }
        _ => {}
    });
}

/// The integer constant an expression evaluates to, if statically
/// obvious: literals, `NULL`, negated literals, casts thereof.
fn const_of(e: &Expr) -> Option<i64> {
    match &e.kind {
        ExprKind::IntLit(v) => Some(*v),
        ExprKind::Ident(name) if name == "NULL" => Some(0),
        ExprKind::Unary {
            op: UnOp::Neg,
            operand,
        } => const_of(operand).map(|v| -v),
        ExprKind::Cast { expr, .. } => const_of(expr),
        _ => None,
    }
}

/// All writes performed by a CFG node, in order.
fn node_writes<'a>(kind: &NodeKind<'a>) -> Vec<(&'a str, Option<i64>)> {
    let mut out = Vec::new();
    match *kind {
        NodeKind::Stmt(Payload::Expr(e)) | NodeKind::Cond(e) => collect_writes(e, &mut out),
        NodeKind::Stmt(Payload::Decl(decls)) => {
            for d in decls {
                if let Some(Initializer::Expr(init)) = d.init.as_deref() {
                    collect_writes(init, &mut out);
                    out.push((&d.name, const_of(init)));
                }
            }
        }
        NodeKind::Stmt(Payload::Return(Some(e))) => collect_writes(e, &mut out),
        NodeKind::MacroLoopHead { args, .. } => {
            // The macro rebinds its iteration variable(s) every trip.
            for a in args {
                if let ExprKind::Ident(v) = &a.kind {
                    out.push((v, None));
                }
            }
        }
        _ => {}
    }
    out
}

/// Applies a node's writes to an environment.
fn transfer<'a>(env: &mut Env<'a>, writes: &[(&'a str, Option<i64>)]) {
    for &(v, val) in writes {
        match val {
            Some(k) => {
                env.insert(v, AbsVal::Int(k));
            }
            None => {
                env.remove(v);
            }
        }
    }
}

/// Whether a check's error-code reading should be trusted for variable
/// `v`: `IS_ERR(p)` also emits `ErrOnTrue(p)`, but an error pointer is
/// not an integer comparison, so those variables are excluded.
fn errptr_vars<'a>(checks: &[CheckFact<'a>]) -> HashSet<&'a str> {
    checks
        .iter()
        .filter_map(|c| match *c {
            CheckFact::ErrPtrOnTrue(v) => Some(v),
            _ => None,
        })
        .collect()
}

/// The truth value a branch edge asserts for its condition; edges that
/// are not branch outcomes carry no constraint.
fn edge_truth(kind: EdgeKind) -> Option<bool> {
    match kind {
        EdgeKind::True => Some(true),
        EdgeKind::False => Some(false),
        _ => None,
    }
}

/// Refines an environment with what one atomic check asserts when its
/// literal has the given truth value. Overwrites: if the edge
/// contradicts the incoming value it is infeasible anyway and the
/// refined environment only flows into dead territory.
fn fact_refine<'a>(env: &mut Env<'a>, c: &CheckFact<'a>, errptr: &HashSet<&str>, truth: bool) {
    match *c {
        CheckFact::NullOnTrue(v) => {
            let val = if truth {
                AbsVal::Int(0)
            } else {
                AbsVal::NonZero
            };
            env.insert(v, val);
        }
        CheckFact::NonNullOnTrue(v) => {
            let val = if truth {
                AbsVal::NonZero
            } else {
                AbsVal::Int(0)
            };
            env.insert(v, val);
        }
        CheckFact::OkOnTrue(v) if errish_name(v) && !errptr.contains(v) => {
            let val = if truth {
                AbsVal::Int(0)
            } else {
                AbsVal::NonZero
            };
            env.insert(v, val);
        }
        // True branch: nonzero for both `if (ret)` and `ret < 0`. The
        // false branch of `ret < 0` only means non-negative, which this
        // domain cannot express.
        CheckFact::ErrOnTrue(v) if truth && errish_name(v) && !errptr.contains(v) => {
            env.insert(v, AbsVal::NonZero);
        }
        _ => {}
    }
}

/// Whether the environment proves one atomic check's literal cannot
/// have the given truth value. Only contradictions every source shape
/// of the check agrees on are reported (e.g. `ErrOnTrue` may come from
/// `if (ret)` or `ret < 0`; both are false exactly when `ret == 0`).
fn fact_contradicts(env: &Env, c: &CheckFact, errptr: &HashSet<&str>, truth: bool) -> bool {
    match *c {
        CheckFact::NullOnTrue(v) => env.get(v).is_some_and(|&val| {
            if truth {
                val.is_nonzero()
            } else {
                val == AbsVal::Int(0)
            }
        }),
        CheckFact::NonNullOnTrue(v) => env.get(v).is_some_and(|&val| {
            if truth {
                val == AbsVal::Int(0)
            } else {
                val.is_nonzero()
            }
        }),
        CheckFact::OkOnTrue(v) if errish_name(v) && !errptr.contains(v) => {
            env.get(v).is_some_and(|&val| {
                if truth {
                    val.is_nonzero()
                } else {
                    val == AbsVal::Int(0)
                }
            })
        }
        CheckFact::ErrOnTrue(v) if errish_name(v) && !errptr.contains(v) => {
            env.get(v).is_some_and(|&val| {
                if truth {
                    val == AbsVal::Int(0)
                } else {
                    matches!(val, AbsVal::Int(k) if k < 0)
                }
            })
        }
        _ => false,
    }
}

/// Connective structure of one condition node's checks.
///
/// The flat [`NodeFacts::checks`] list loses whether facts were joined
/// by `&&` or `||`. Treating `||`-joined facts as conjuncts prunes
/// feasible edges — e.g. the true edge of `if (!np || ret < 0)` when
/// `np` is known non-NULL but `ret` is unknown — so the feasibility
/// pass rebuilds the connective tree from the condition expression.
enum CondChecks<'a> {
    /// One atomic comparison; the facts are consistent readings of the
    /// same literal (`truth` means the literal holds).
    Leaf(Vec<CheckFact<'a>>),
    /// `||` — true iff at least one child is.
    AnyOf(Vec<CondChecks<'a>>),
    /// `&&` — true iff every child is.
    AllOf(Vec<CondChecks<'a>>),
}

/// Builds the connective tree for a condition expression. `negated`
/// tracks an odd number of enclosing `!`s; De Morgan pushes the
/// negation through connectives and [`extract_checks`]' polarity
/// absorbs it at the leaves.
fn cond_tree(e: &Expr, negated: bool) -> CondChecks<'_> {
    match &e.kind {
        ExprKind::Unary {
            op: UnOp::Not,
            operand,
        } if cond_connective(operand) => cond_tree(operand, !negated),
        ExprKind::Binary { op, lhs, rhs } if matches!(op, BinOp::And | BinOp::Or) => {
            let kids = vec![cond_tree(lhs, negated), cond_tree(rhs, negated)];
            if (*op == BinOp::Or) != negated {
                CondChecks::AnyOf(kids)
            } else {
                CondChecks::AllOf(kids)
            }
        }
        ExprKind::Call { callee, args }
            if matches!(callee.as_ident(), Some("likely") | Some("unlikely")) =>
        {
            match args.first() {
                Some(a) => cond_tree(a, negated),
                None => CondChecks::Leaf(Vec::new()),
            }
        }
        _ => {
            let mut facts = Vec::new();
            extract_checks(e, !negated, &mut facts);
            CondChecks::Leaf(facts)
        }
    }
}

/// Whether an expression is a connective the tree builder splits on;
/// `!` over anything else is left to `extract_checks`.
fn cond_connective(e: &Expr) -> bool {
    match &e.kind {
        ExprKind::Binary { op, .. } => matches!(op, BinOp::And | BinOp::Or),
        ExprKind::Unary {
            op: UnOp::Not,
            operand,
        } => cond_connective(operand),
        ExprKind::Call { callee, args } => {
            matches!(callee.as_ident(), Some("likely") | Some("unlikely"))
                && args.first().is_some_and(cond_connective)
        }
        _ => false,
    }
}

impl<'a> CondChecks<'a> {
    /// Whether the environment proves this formula cannot have the
    /// given truth value.
    fn contradicted(&self, env: &Env, errptr: &HashSet<&str>, truth: bool) -> bool {
        match self {
            CondChecks::Leaf(facts) => facts
                .iter()
                .any(|f| fact_contradicts(env, f, errptr, truth)),
            CondChecks::AnyOf(kids) => {
                if truth {
                    // All disjuncts must be individually impossible.
                    !kids.is_empty() && kids.iter().all(|k| k.contradicted(env, errptr, true))
                } else {
                    // Some disjunct is provably true.
                    kids.iter().any(|k| k.contradicted(env, errptr, false))
                }
            }
            CondChecks::AllOf(kids) => {
                if truth {
                    kids.iter().any(|k| k.contradicted(env, errptr, true))
                } else {
                    !kids.is_empty() && kids.iter().all(|k| k.contradicted(env, errptr, false))
                }
            }
        }
    }

    /// Refines `env` with what taking an edge of the given truth
    /// asserts about this formula.
    fn refine(&self, env: &mut Env<'a>, errptr: &HashSet<&str>, truth: bool) {
        match self {
            CondChecks::Leaf(facts) => {
                for f in facts {
                    fact_refine(env, f, errptr, truth);
                }
            }
            CondChecks::AnyOf(kids) if !truth => {
                // `!(a || b)` — every disjunct is false.
                for k in kids {
                    k.refine(env, errptr, false);
                }
            }
            CondChecks::AllOf(kids) if truth => {
                // `a && b` — every conjunct is true.
                for k in kids {
                    k.refine(env, errptr, true);
                }
            }
            // A true disjunction (or false conjunction) pins nothing
            // down by itself — unless the environment already rules
            // out every child but one.
            CondChecks::AnyOf(kids) | CondChecks::AllOf(kids) => {
                let open: Vec<usize> = (0..kids.len())
                    .filter(|&i| !kids[i].contradicted(env, errptr, truth))
                    .collect();
                if let [only] = open[..] {
                    kids[only].refine(env, errptr, truth);
                }
            }
        }
    }
}

/// The per-function feasibility analysis result: the set of branch
/// edges no execution can take.
///
/// # Examples
///
/// ```
/// use refminer_cparse::parse_str;
/// use refminer_cpg::{FeasAnalysis, NodeFacts, Cfg};
///
/// let tu = parse_str(
///     "t.c",
///     "int f(void) { int ret = 0; if (ret) return -1; return 0; }",
/// );
/// let cfg = Cfg::build(tu.function("f").unwrap());
/// let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
/// let feas = FeasAnalysis::compute(&cfg, &facts);
/// assert!(feas.active()); // the `if (ret)` true edge is dead
/// ```
#[derive(Debug, Clone, Default)]
pub struct FeasAnalysis {
    infeasible: HashSet<(NodeId, NodeId, EdgeKind)>,
}

impl FeasAnalysis {
    /// Runs the forward constant/guard analysis to its fixpoint and
    /// collects contradicted branch edges. Deterministic: the fixpoint
    /// of a monotone system is unique, and the contradiction pass is a
    /// plain scan in node order.
    pub fn compute(cfg: &Cfg, facts: &[NodeFacts]) -> FeasAnalysis {
        let n = cfg.nodes.len();
        let writes: Vec<Vec<(&str, Option<i64>)>> =
            cfg.nodes.iter().map(|nd| node_writes(&nd.kind)).collect();
        // Connective trees for condition nodes: the flat check lists in
        // `facts` lose `&&`/`||` structure, which pruning must respect.
        let trees: Vec<Option<CondChecks>> = cfg
            .nodes
            .iter()
            .map(|nd| match nd.kind {
                NodeKind::Cond(e) => Some(cond_tree(e, false)),
                _ => None,
            })
            .collect();
        let errptrs: Vec<HashSet<&str>> = facts.iter().map(|f| errptr_vars(&f.checks)).collect();
        let mut env_in: Vec<Option<Env>> = vec![None; n];
        env_in[cfg.entry] = Some(Env::new());
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        let mut queued = vec![false; n];
        queue.push_back(cfg.entry);
        queued[cfg.entry] = true;
        // Each (node, variable) ascends a 3-step chain, so the true
        // bound is tiny; the budget is a defensive backstop that, if
        // ever hit, abandons pruning rather than over-pruning.
        let mut budget = (n + 1) * 64;
        while let Some(node) = queue.pop_front() {
            queued[node] = false;
            if budget == 0 {
                return FeasAnalysis::default();
            }
            budget -= 1;
            let mut out = env_in[node].clone().unwrap_or_default();
            transfer(&mut out, &writes[node]);
            for &(succ, kind) in cfg.succs(node) {
                let mut e = out.clone();
                if let (Some(tree), Some(truth)) = (&trees[node], edge_truth(kind)) {
                    tree.refine(&mut e, &errptrs[node], truth);
                }
                let changed = match &mut env_in[succ] {
                    Some(cur) => join_env(cur, &e),
                    slot @ None => {
                        *slot = Some(e);
                        true
                    }
                };
                if changed && !queued[succ] {
                    queued[succ] = true;
                    queue.push_back(succ);
                }
            }
        }
        let mut infeasible = HashSet::new();
        for node in cfg.node_ids() {
            if facts[node].checks.is_empty() {
                continue;
            }
            let Some(tree) = &trees[node] else { continue };
            let Some(env) = &env_in[node] else { continue };
            let mut out = env.clone();
            transfer(&mut out, &writes[node]);
            for &(succ, kind) in cfg.succs(node) {
                if let Some(truth) = edge_truth(kind) {
                    if tree.contradicted(&out, &errptrs[node], truth) {
                        infeasible.insert((node, succ, kind));
                    }
                }
            }
        }
        FeasAnalysis { infeasible }
    }

    /// Whether taking this edge contradicts the constraints that reach
    /// it.
    pub fn infeasible_edge(&self, from: NodeId, to: NodeId, kind: EdgeKind) -> bool {
        self.infeasible.contains(&(from, to, kind))
    }

    /// Whether the analysis found any infeasible edge in this function
    /// — i.e. whether pruning is *active* here.
    pub fn active(&self) -> bool {
        !self.infeasible.is_empty()
    }

    /// Number of infeasible edges found.
    pub fn infeasible_count(&self) -> usize {
        self.infeasible.len()
    }

    /// Classifies a query whose **unpruned** search already produced a
    /// witness: re-run it with infeasible edges vetoed and report
    /// whether the witness survives.
    pub fn classify(&self, q: &PathQuery, cfg: &Cfg, start: NodeId) -> Feasibility {
        if !self.active() {
            return Feasibility::Assumed;
        }
        let veto = |f: NodeId, t: NodeId, k: EdgeKind| self.infeasible_edge(f, t, k);
        if q.search_with_veto(cfg, start, &veto).is_some() {
            Feasibility::Proven
        } else {
            Feasibility::Infeasible
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paths::Step;
    use refminer_cparse::{parse_str, TranslationUnit};

    fn unit(body: &str) -> TranslationUnit {
        parse_str(
            "t.c",
            &format!("int f(struct device *dev) {{ struct device_node *np; int ret; {body} }}"),
        )
    }

    fn build(tu: &TranslationUnit) -> (Cfg<'_>, Vec<NodeFacts<'_>>, FeasAnalysis) {
        let cfg = Cfg::build(tu.function("f").unwrap());
        let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
        let feas = FeasAnalysis::compute(&cfg, &facts);
        (cfg, facts, feas)
    }

    fn leak_query<'a>(facts: &'a [NodeFacts], exit: NodeId, put: &'a str) -> PathQuery<'a> {
        PathQuery::new(vec![
            Step::new(move |n| facts[n].calls_named("get_thing")),
            Step::new(move |n| n == exit).avoiding(move |n| facts[n].calls_named(put)),
        ])
    }

    #[test]
    fn correlated_error_branch_is_infeasible() {
        // `ret = 0; if (ret) goto err;` — the classic correlated
        // cleanup false path.
        let tu = unit(
            "get_thing(np); ret = 0; if (ret) goto err; \
             put_thing(np); return 0; err: return -EINVAL;",
        );
        let (cfg, facts, feas) = build(&tu);
        assert!(feas.active());
        let q = leak_query(&facts, cfg.exit, "put_thing");
        assert!(q.search_from_entry(&cfg).is_some(), "syntactic path exists");
        assert_eq!(feas.classify(&q, &cfg, cfg.entry), Feasibility::Infeasible);
    }

    #[test]
    fn real_error_branch_stays_feasible() {
        let tu = unit(
            "get_thing(np); ret = do_thing(dev); if (ret) goto err; \
             put_thing(np); return 0; err: return ret;",
        );
        let (cfg, facts, feas) = build(&tu);
        let q = leak_query(&facts, cfg.exit, "put_thing");
        assert!(q.search_from_entry(&cfg).is_some());
        // `ret` came from a call: unknown, so the leaky path stands.
        assert_ne!(feas.classify(&q, &cfg, cfg.entry), Feasibility::Infeasible);
    }

    #[test]
    fn rechecked_error_code_is_infeasible() {
        // After `if (ret) return ret;` falls through, ret == 0, so the
        // second test cannot take its true branch.
        let tu = unit(
            "ret = do_thing(dev); if (ret) return ret; get_thing(np); \
             if (ret) goto err; put_thing(np); return 0; err: return ret;",
        );
        let (cfg, facts, feas) = build(&tu);
        assert!(feas.active());
        let q = leak_query(&facts, cfg.exit, "put_thing");
        assert!(q.search_from_entry(&cfg).is_some());
        assert_eq!(feas.classify(&q, &cfg, cfg.entry), Feasibility::Infeasible);
    }

    #[test]
    fn constant_flag_guard_is_infeasible() {
        let tu = unit(
            "int on = 1; get_thing(np); if (!on) goto skip; \
             put_thing(np); skip: return 0;",
        );
        let (cfg, facts, feas) = build(&tu);
        assert!(feas.active());
        let q = leak_query(&facts, cfg.exit, "put_thing");
        assert!(q.search_from_entry(&cfg).is_some());
        assert_eq!(feas.classify(&q, &cfg, cfg.entry), Feasibility::Infeasible);
    }

    #[test]
    fn repeated_null_guard_is_infeasible() {
        let tu = unit(
            "np = find_thing(dev); if (!np) return -ENODEV; \
             if (!np) return -EBUSY; return 0;",
        );
        let (_cfg, _facts, feas) = build(&tu);
        // The second `!np` true edge contradicts the first guard's
        // fall-through.
        assert!(feas.active());
    }

    #[test]
    fn loop_reassignment_defeats_constancy() {
        // `ret` changes inside the loop, so the test is genuinely
        // two-valued and nothing is pruned.
        let tu = unit("ret = 0; while (dev) { if (ret) break; ret = do_thing(dev); } return ret;");
        let (_cfg, _facts, feas) = build(&tu);
        assert!(!feas.active());
    }

    #[test]
    fn address_taken_variable_is_unknown() {
        let tu = unit("ret = 0; probe_thing(&ret); if (ret) return ret; return 0;");
        let (_cfg, _facts, feas) = build(&tu);
        assert!(!feas.active());
    }

    #[test]
    fn merge_of_distinct_constants_is_unknown() {
        let tu = unit("if (dev) ret = 0; else ret = 1; if (ret) return -EINVAL; return 0;");
        let (_cfg, _facts, feas) = build(&tu);
        assert!(!feas.active());
    }

    #[test]
    fn surviving_query_is_proven() {
        // Function has one dead branch, but the leak path does not
        // need it: classification upgrades to Proven.
        let tu = unit(
            "int on = 1; if (!on) return 0; get_thing(np); \
             if (ret < 0) return ret; put_thing(np); return 0;",
        );
        let (cfg, facts, feas) = build(&tu);
        assert!(feas.active());
        let q = leak_query(&facts, cfg.exit, "put_thing");
        assert!(q.search_from_entry(&cfg).is_some());
        assert_eq!(feas.classify(&q, &cfg, cfg.entry), Feasibility::Proven);
    }

    #[test]
    fn no_constraints_means_assumed() {
        let tu = unit("get_thing(np); if (ret < 0) return ret; put_thing(np); return 0;");
        let (cfg, facts, feas) = build(&tu);
        assert!(!feas.active());
        let q = leak_query(&facts, cfg.exit, "put_thing");
        assert!(q.search_from_entry(&cfg).is_some());
        assert_eq!(feas.classify(&q, &cfg, cfg.entry), Feasibility::Assumed);
    }

    #[test]
    fn is_err_pointer_checks_are_not_folded() {
        // IS_ERR(p) emits ErrOnTrue(p), but p = NULL does not make
        // IS_ERR's edges prunable in the integer domain.
        let tu = unit("np = NULL; if (IS_ERR(np)) return -EINVAL; return 0;");
        let (_cfg, _facts, feas) = build(&tu);
        assert!(!feas.active());
    }

    #[test]
    fn feasibility_names_round_trip() {
        for f in [
            Feasibility::Infeasible,
            Feasibility::Assumed,
            Feasibility::Proven,
        ] {
            assert_eq!(Feasibility::from_name(f.name()), Some(f));
        }
        assert_eq!(Feasibility::from_name("bogus"), None);
        assert!(Feasibility::Infeasible < Feasibility::Assumed);
        assert!(Feasibility::Assumed < Feasibility::Proven);
    }
}
