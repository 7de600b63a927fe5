//! Variable-origin analysis: a forward may-analysis over the CFG that
//! tracks, for every program point, which call (or parameter) each
//! pointer variable may currently hold the result of.
//!
//! This is the light-weight stand-in for full def-use chains: the
//! refcounting checkers need to know "`np` was obtained from
//! `of_find_node_by_name`" at the point of a `put`/deref/escape, with
//! one level of copy propagation (`alias = np;`).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use crate::cfg::{Cfg, NodeId, NodeKind};
use crate::facts::{NodeFacts, StoreTarget};

/// Where a variable's current value may have come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Origin<'a> {
    /// The return value of a direct call, with the originating node.
    Call {
        /// Callee name.
        name: &'a str,
        /// Node where the call was assigned.
        node: NodeId,
    },
    /// A function parameter (never reassigned so far).
    Param,
    /// Anything else (literal, arithmetic, unparsed).
    Other,
}

/// One variable's origins, shared between the environments that agree
/// on them.
type Set<'a> = Arc<BTreeSet<Origin<'a>>>;

/// One program point's environment: each bound variable's origins,
/// keyed by the variable's name in the AST.
type Env<'a> = BTreeMap<&'a str, Set<'a>>;

/// Per-node origin environments (the state *after* the node executes).
/// A node that passes its one predecessor's state through unchanged
/// shares that predecessor's environment instead of copying it, and a
/// copy (`alias = np;`) or a join shares the origin sets it passes on.
#[derive(Debug, Clone)]
pub struct Origins<'a> {
    out: Vec<Arc<Env<'a>>>,
}

impl<'a> Origins<'a> {
    /// Runs the analysis to a fixpoint.
    ///
    /// `facts` must be parallel to `cfg.nodes`. `params` seeds the entry
    /// environment.
    ///
    /// The worklist is a stack seeded with every node and visited in a
    /// fixed order. That order is part of the result: the strong update
    /// of a copy (`alias = np;`) is not monotone, and the loop stops
    /// after `max(64·n, 1024)` visits, so another order may settle
    /// elsewhere.
    pub fn compute(cfg: &Cfg<'a>, facts: &[NodeFacts<'a>], params: &[&'a str]) -> Origins<'a> {
        let n = cfg.nodes.len();
        // Every node starts from one shared empty environment.
        let empty = Arc::new(Env::new());
        let mut out: Vec<Arc<Env>> = vec![empty; n];
        // Seed entry with parameters.
        let mut seed = Env::new();
        for &p in params {
            seed.insert(p, Arc::new(BTreeSet::from([Origin::Param])));
        }
        out[cfg.entry] = Arc::new(seed);
        let pass_from: Vec<Option<NodeId>> = cfg
            .node_ids()
            .map(|node| pass_through_pred(cfg, facts, node))
            .collect();
        let mut work: Vec<NodeId> = cfg.node_ids().collect();
        // `queued[s]` is exactly `work.contains(&s)`.
        let mut queued = vec![true; n];
        let mut iterations = 0usize;
        let cap = n.saturating_mul(64).max(1024);
        while let Some(node) = work.pop() {
            queued[node] = false;
            iterations += 1;
            if iterations > cap {
                break;
            }
            let env = match pass_from[node] {
                Some(p) => Arc::clone(&out[p]),
                None => Arc::new(transfer(cfg, facts, node, &out)),
            };
            // A shared environment compares equal by pointer first.
            if env != out[node] {
                out[node] = env;
                for &(s, _) in cfg.succs(node) {
                    if !queued[s] {
                        queued[s] = true;
                        work.push(s);
                    }
                }
            }
        }
        Origins { out }
    }

    /// The origins of `var` *after* node `n` executes (i.e. visible to
    /// its successors). For queries about the state at `n` itself, ask
    /// about a predecessor — or use [`Origins::at`], which unions the
    /// predecessors.
    pub fn after(&self, n: NodeId, var: &str) -> impl Iterator<Item = &Origin<'a>> {
        self.out[n].get(var).into_iter().flat_map(|set| set.iter())
    }

    /// The origins of `var` as seen *by* node `n` (union over preds).
    pub fn at(&self, cfg: &Cfg, n: NodeId, var: &str) -> BTreeSet<&Origin<'a>> {
        let mut set = BTreeSet::new();
        for &(p, _) in cfg.preds(n) {
            if let Some(origins) = self.out[p].get(var) {
                set.extend(origins.iter());
            }
        }
        if n == cfg.entry {
            if let Some(origins) = self.out[cfg.entry].get(var) {
                set.extend(origins.iter());
            }
        }
        set
    }

    /// Whether `var`, as seen by node `n`, may hold the result of a call
    /// to `callee`.
    pub fn var_from_call(&self, cfg: &Cfg, n: NodeId, var: &str, callee: &str) -> bool {
        self.at(cfg, n, var)
            .iter()
            .any(|o| matches!(o, Origin::Call { name, .. } if *name == callee))
    }

    /// All call names `var` may originate from, as seen by node `n`.
    pub fn call_origins(&self, cfg: &Cfg, n: NodeId, var: &str) -> Vec<&'a str> {
        self.at(cfg, n, var)
            .iter()
            .filter_map(|o| match **o {
                Origin::Call { name, .. } => Some(name),
                _ => None,
            })
            .collect()
    }
}

/// The predecessor whose out-state node `node` passes through
/// unchanged, if it has exactly one (however many edges lead from it)
/// and nothing at `node` rebinds a variable. Its out-state is then that
/// predecessor's, which it can share rather than copy.
fn pass_through_pred(cfg: &Cfg, facts: &[NodeFacts], node: NodeId) -> Option<NodeId> {
    if node == cfg.entry {
        return None;
    }
    let (&(p, _), rest) = cfg.preds(node).split_first()?;
    if rest.iter().any(|&(q, _)| q != p) {
        return None;
    }
    if facts[node]
        .assigns
        .iter()
        .any(|a| matches!(a.target, StoreTarget::Var(_)))
    {
        return None;
    }
    match &cfg.nodes[node].kind {
        NodeKind::MacroLoopHead { args, .. } if args.iter().any(|a| a.as_ident().is_some()) => None,
        _ => Some(p),
    }
}

/// The state after `node`: its in-state — the union of its
/// predecessors' out-states, or its own seeded state at the entry —
/// through its assignments and, at a smartloop head, the iterator
/// binding.
fn transfer<'a>(
    cfg: &Cfg<'a>,
    facts: &[NodeFacts<'a>],
    node: NodeId,
    out: &[Arc<Env<'a>>],
) -> Env<'a> {
    let mut env: Env = if node == cfg.entry {
        (*out[cfg.entry]).clone()
    } else {
        let mut preds = cfg.preds(node).iter().map(|&(p, _)| &out[p]);
        let mut e = preds
            .next()
            .map(|first| (**first).clone())
            .unwrap_or_default();
        for pred in preds {
            for (&var, origins) in pred.iter() {
                match e.get_mut(var) {
                    None => {
                        e.insert(var, Arc::clone(origins));
                    }
                    Some(set) => {
                        if !Arc::ptr_eq(set, origins) && !origins.is_subset(set) {
                            Arc::make_mut(set).extend(origins.iter().cloned());
                        }
                    }
                }
            }
        }
        e
    };
    // Transfer: apply this node's assignments.
    apply_transfer(&facts[node], node, &mut env);
    // Macro loop heads bind their iterator argument to the loop
    // macro itself (the hidden find-like call).
    // Which argument is the iterator differs per macro
    // (`for_each_matching_node(dn, ids)` vs
    // `for_each_child_of_node(parent, child)`), so bind every
    // bare-identifier argument; the checkers narrow with their
    // smartloop knowledge base.
    if let NodeKind::MacroLoopHead { name, args } = cfg.nodes[node].kind {
        for arg in args {
            if let Some(var) = arg.as_ident() {
                let call = Origin::Call { name, node };
                env.insert(var, Arc::new(BTreeSet::from([call])));
            }
        }
    }
    env
}

fn apply_transfer<'a>(facts: &NodeFacts<'a>, node: NodeId, env: &mut Env<'a>) {
    for a in &facts.assigns {
        let StoreTarget::Var(dest) = a.target else {
            continue;
        };
        let set = if let Some(name) = a.rhs_call {
            Arc::new(BTreeSet::from([Origin::Call { name, node }]))
        } else if let Some(origins) = a.rhs_root.and_then(|src| env.get(src)) {
            // Copy propagation: inherit the source's origins.
            Arc::clone(origins)
        } else {
            Arc::new(BTreeSet::from([Origin::Other]))
        };
        // Strong update: assignment replaces previous origins.
        env.insert(dest, set);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::NodeFacts;
    use refminer_cparse::{parse_str, TranslationUnit};

    fn unit(body: &str) -> TranslationUnit {
        let src = format!(
            "int f(struct device *pdev) {{ struct device_node *np; struct device_node *alias; int ret; {body} }}"
        );
        parse_str("t.c", &src)
    }

    fn setup(tu: &TranslationUnit) -> (Cfg<'_>, Vec<NodeFacts<'_>>, Origins<'_>) {
        let cfg = Cfg::build(tu.function("f").unwrap());
        let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
        let origins = Origins::compute(&cfg, &facts, &["pdev"]);
        (cfg, facts, origins)
    }

    #[test]
    fn call_origin_tracked() {
        let tu = unit("np = of_find_node_by_name(NULL, \"x\"); of_node_put(np); return 0;");
        let (cfg, facts, origins) = setup(&tu);
        // Find the put node.
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(origins.var_from_call(&cfg, put, "np", "of_find_node_by_name"));
    }

    #[test]
    fn copy_propagation() {
        let tu = unit(
            "np = of_find_node_by_name(NULL, \"x\"); alias = np; of_node_put(alias); return 0;",
        );
        let (cfg, facts, origins) = setup(&tu);
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(origins.var_from_call(&cfg, put, "alias", "of_find_node_by_name"));
    }

    #[test]
    fn strong_update_kills_origin() {
        let tu =
            unit("np = of_find_node_by_name(NULL, \"x\"); np = NULL; of_node_put(np); return 0;");
        let (cfg, facts, origins) = setup(&tu);
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(!origins.var_from_call(&cfg, put, "np", "of_find_node_by_name"));
    }

    #[test]
    fn merge_over_branches() {
        let tu = unit(
            "if (ret) np = of_find_node_by_name(NULL, \"a\"); else np = of_get_parent(pdev); of_node_put(np); return 0;",
        );
        let (cfg, facts, origins) = setup(&tu);
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(origins.var_from_call(&cfg, put, "np", "of_find_node_by_name"));
        assert!(origins.var_from_call(&cfg, put, "np", "of_get_parent"));
    }

    #[test]
    fn params_are_params() {
        let tu = unit("return 0;");
        let (cfg, _facts, origins) = setup(&tu);
        let at_exit = origins.at(&cfg, cfg.exit, "pdev");
        assert!(at_exit.iter().any(|o| matches!(o, Origin::Param)));
    }

    #[test]
    fn macro_loop_binds_iterator() {
        let tu = unit("for_each_child_of_node(pdev, np) { of_node_put(np); } return 0;");
        let (cfg, facts, origins) = setup(&tu);
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(origins.var_from_call(&cfg, put, "np", "for_each_child_of_node"));
    }
}
