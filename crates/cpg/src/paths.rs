//! The path-query engine: existential execution-path search over a CFG.
//!
//! A [`PathQuery`] is the executable form of the paper's semantic
//! templates (§3.2): an ordered sequence of node predicates
//! (`F_start → S_G → B_error → F_end`), each optionally guarded by an
//! *avoid* predicate that prunes paths passing through unwanted nodes
//! (e.g. "reach the exit *without* a paired `put`"). The search runs on
//! the product of the CFG and the step index, so it is polynomial, not
//! path-enumerating.

use crate::cfg::{Cfg, EdgeKind, NodeId};

/// Edge predicate type for [`Step::avoid_edge`]: `(from, to, kind)`.
pub type EdgePredicate<'a> = Box<dyn Fn(NodeId, NodeId, EdgeKind) -> bool + 'a>;

/// A single step of a path query.
pub struct Step<'a> {
    /// Node predicate that advances the query when matched.
    pub matcher: Box<dyn Fn(NodeId) -> bool + 'a>,
    /// Nodes that must *not* be traversed while searching for this
    /// step's match. Avoidance wins: a node that both matches and is
    /// avoided prunes the path (e.g. an error-block node that performs
    /// the paired decrement satisfies the pairing, not the bug).
    pub avoid: Option<Box<dyn Fn(NodeId) -> bool + 'a>>,
    /// Edges that must not be traversed while searching for this
    /// step's match (`(from, to, kind)`). Lets queries express
    /// branch-sensitive facts node predicates cannot, e.g. "never take
    /// the NULL branch of a check on the object".
    pub avoid_edge: Option<EdgePredicate<'a>>,
}

impl<'a> Step<'a> {
    /// A step matching `matcher` with no avoidance constraint.
    pub fn new(matcher: impl Fn(NodeId) -> bool + 'a) -> Step<'a> {
        Step {
            matcher: Box::new(matcher),
            avoid: None,
            avoid_edge: None,
        }
    }

    /// Adds an avoidance constraint to the step.
    pub fn avoiding(mut self, avoid: impl Fn(NodeId) -> bool + 'a) -> Step<'a> {
        self.avoid = Some(Box::new(avoid));
        self
    }

    /// Adds an edge-avoidance constraint to the step.
    pub fn avoiding_edges(
        mut self,
        avoid: impl Fn(NodeId, NodeId, EdgeKind) -> bool + 'a,
    ) -> Step<'a> {
        self.avoid_edge = Some(Box::new(avoid));
        self
    }
}

/// An ordered sequence of [`Step`]s to satisfy along one execution path.
pub struct PathQuery<'a> {
    steps: Vec<Step<'a>>,
    /// Whether back-edges may be traversed (allows reasoning about a
    /// second loop iteration). Default: true.
    follow_back_edges: bool,
}

impl<'a> PathQuery<'a> {
    /// Creates a query from its steps.
    pub fn new(steps: Vec<Step<'a>>) -> PathQuery<'a> {
        PathQuery {
            steps,
            follow_back_edges: true,
        }
    }

    /// Disallows traversing loop back-edges.
    pub fn without_back_edges(mut self) -> PathQuery<'a> {
        self.follow_back_edges = false;
        self
    }

    /// Searches for a path from `start` satisfying every step in order.
    ///
    /// Returns a witness: the node that matched each step. The search
    /// visits each (node, step) state at most once, so runtime is
    /// `O(steps × edges)`.
    pub fn search(&self, cfg: &Cfg, start: NodeId) -> Option<Vec<NodeId>> {
        self.search_inner(cfg, start, None)
    }

    /// [`search`](PathQuery::search) with an additional query-wide edge
    /// veto: an edge for which `veto` returns true is never traversed,
    /// on any step. Used by the feasibility engine to re-run a query
    /// with infeasible branch edges removed.
    pub fn search_with_veto(
        &self,
        cfg: &Cfg,
        start: NodeId,
        veto: &dyn Fn(NodeId, NodeId, EdgeKind) -> bool,
    ) -> Option<Vec<NodeId>> {
        self.search_inner(cfg, start, Some(veto))
    }

    fn search_inner(
        &self,
        cfg: &Cfg,
        start: NodeId,
        veto: Option<&dyn Fn(NodeId, NodeId, EdgeKind) -> bool>,
    ) -> Option<Vec<NodeId>> {
        // A start node outside the CFG can only come from a malformed
        // caller-built query; report "no path" instead of indexing out
        // of bounds.
        if start >= cfg.nodes.len() {
            return None;
        }
        if self.steps.is_empty() {
            return Some(Vec::new());
        }
        let n = cfg.nodes.len();
        let k = self.steps.len();
        // parent[state] = previous state, for witness reconstruction;
        // state = step * n + node.
        let mut seen = vec![false; n * k.max(1) + n];
        let mut parent: Vec<Option<usize>> = vec![None; seen.len()];
        let state = |step: usize, node: NodeId| step * n + node;

        let mut queue = std::collections::VecDeque::new();

        // Process the start node itself: it may match step 0. The
        // avoid predicate is *not* applied to the start node — the
        // caller chose to start there (e.g. the acquiring statement,
        // which often looks like a reassignment of the object).
        let mut start_step = 0usize;
        if (self.steps[0].matcher)(start) {
            start_step = 1;
            if start_step == k {
                return Some(vec![start]);
            }
        }
        let s0 = state(start_step, start);
        seen[s0] = true;
        queue.push_back(s0);

        while let Some(st) = queue.pop_front() {
            let step = st / n;
            let node = st % n;
            for &(succ, kind) in cfg.succs(node) {
                if kind == EdgeKind::Back && !self.follow_back_edges {
                    continue;
                }
                if veto.is_some_and(|v| v(node, succ, kind)) {
                    continue; // Edge vetoed query-wide (infeasible).
                }
                // Decide the successor's step index. Avoidance is
                // checked first and wins over matching.
                if self.steps[step]
                    .avoid_edge
                    .as_ref()
                    .is_some_and(|a| a(node, succ, kind))
                {
                    continue; // Edge pruned.
                }
                if self.steps[step].avoid.as_ref().is_some_and(|a| a(succ)) {
                    continue; // Pruned.
                }
                let next_step = if (self.steps[step].matcher)(succ) {
                    step + 1
                } else {
                    step
                };
                if next_step == k {
                    // Success. Witness = the node that matched each
                    // step: a state whose step exceeds its parent's was
                    // entered by matching.
                    let mut witness = vec![succ];
                    let mut cur = st;
                    loop {
                        let c_step = cur / n;
                        match parent[cur] {
                            Some(p) => {
                                if c_step == p / n + 1 {
                                    witness.push(cur % n);
                                }
                                cur = p;
                            }
                            None => {
                                if c_step == 1 {
                                    // The start node itself matched
                                    // step 0.
                                    witness.push(cur % n);
                                }
                                break;
                            }
                        }
                    }
                    witness.reverse();
                    return Some(witness);
                }
                let nst = state(next_step, succ);
                if !seen[nst] {
                    seen[nst] = true;
                    parent[nst] = Some(st);
                    queue.push_back(nst);
                }
            }
        }
        None
    }

    /// Convenience: search from the CFG entry.
    pub fn search_from_entry(&self, cfg: &Cfg) -> Option<Vec<NodeId>> {
        self.search(cfg, cfg.entry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{Cfg, NodeKind, Payload};
    use crate::facts::NodeFacts;
    use refminer_cparse::{parse_str, TranslationUnit};

    fn unit(body: &str) -> TranslationUnit {
        parse_str(
            "t.c",
            &format!("int f(struct device *dev) {{ struct device_node *np; int ret; {body} }}"),
        )
    }

    fn build(tu: &TranslationUnit) -> (Cfg<'_>, Vec<NodeFacts<'_>>) {
        let cfg = Cfg::build(tu.function("f").unwrap());
        let facts = cfg.nodes.iter().map(NodeFacts::of).collect();
        (cfg, facts)
    }

    fn call_step<'a>(facts: &'a [NodeFacts], name: &'a str) -> Step<'a> {
        Step::new(move |n| facts[n].calls_named(name))
    }

    #[test]
    fn finds_simple_sequence() {
        let tu = unit("get_thing(np); put_thing(np); return 0;");
        let (cfg, facts) = build(&tu);
        let q = PathQuery::new(vec![
            call_step(&facts, "get_thing"),
            call_step(&facts, "put_thing"),
        ]);
        let witness = q.search_from_entry(&cfg).expect("path exists");
        assert_eq!(witness.len(), 2);
    }

    #[test]
    fn order_matters() {
        let tu = unit("put_thing(np); get_thing(np); return 0;");
        let (cfg, facts) = build(&tu);
        let q = PathQuery::new(vec![
            call_step(&facts, "get_thing"),
            call_step(&facts, "put_thing"),
        ])
        .without_back_edges();
        assert!(q.search_from_entry(&cfg).is_none());
    }

    #[test]
    fn avoidance_prunes() {
        // get → put on every path to exit: the "reach exit avoiding put"
        // query must fail.
        let tu = unit("get_thing(np); put_thing(np); return 0;");
        let (cfg, facts) = build(&tu);
        let exit = cfg.exit;
        let q = PathQuery::new(vec![
            call_step(&facts, "get_thing"),
            Step::new(move |n| n == exit).avoiding(|n| facts[n].calls_named("put_thing")),
        ]);
        assert!(q.search_from_entry(&cfg).is_none());
    }

    #[test]
    fn avoidance_finds_leaky_branch() {
        // One branch returns early without the put.
        let tu = unit("get_thing(np); if (ret) return ret; put_thing(np); return 0;");
        let (cfg, facts) = build(&tu);
        let exit = cfg.exit;
        let q = PathQuery::new(vec![
            call_step(&facts, "get_thing"),
            Step::new(move |n| n == exit).avoiding(|n| facts[n].calls_named("put_thing")),
        ]);
        let witness = q.search_from_entry(&cfg).expect("leaky path exists");
        assert_eq!(*witness.last().unwrap(), cfg.exit);
    }

    #[test]
    fn three_step_query() {
        let tu =
            unit("get_thing(np); if (ret) goto out; use_thing(np); out: put_thing(np); return 0;");
        let (cfg, facts) = build(&tu);
        let q = PathQuery::new(vec![
            call_step(&facts, "get_thing"),
            call_step(&facts, "use_thing"),
            call_step(&facts, "put_thing"),
        ]);
        assert!(q.search_from_entry(&cfg).is_some());
    }

    #[test]
    fn back_edges_allow_second_iteration() {
        // put before get, but inside a loop: a second iteration sees
        // get → (back) → put.
        let tu = unit("while (ret) { put_thing(np); get_thing(np); } return 0;");
        let (cfg, facts) = build(&tu);
        let with_back = PathQuery::new(vec![
            call_step(&facts, "get_thing"),
            call_step(&facts, "put_thing"),
        ]);
        assert!(with_back.search_from_entry(&cfg).is_some());
        let without = PathQuery::new(vec![
            call_step(&facts, "get_thing"),
            call_step(&facts, "put_thing"),
        ])
        .without_back_edges();
        assert!(without.search_from_entry(&cfg).is_none());
    }

    #[test]
    fn empty_query_matches_trivially() {
        let tu = unit("return 0;");
        let (cfg, _facts) = build(&tu);
        let q = PathQuery::new(Vec::new());
        assert_eq!(q.search_from_entry(&cfg), Some(Vec::new()));
    }

    #[test]
    fn out_of_range_start_finds_nothing() {
        // Regression: this used to index out of bounds instead of
        // returning None.
        let tu = unit("return 0;");
        let (cfg, _facts) = build(&tu);
        let q = PathQuery::new(vec![Step::new(|_| true)]);
        assert_eq!(q.search(&cfg, cfg.nodes.len()), None);
        assert_eq!(q.search(&cfg, usize::MAX), None);
        let empty = PathQuery::new(Vec::new());
        assert_eq!(empty.search(&cfg, cfg.nodes.len() + 7), None);
    }

    #[test]
    fn start_node_can_match_first_step() {
        let tu = unit("return 0;");
        let (cfg, _facts) = build(&tu);
        let entry = cfg.entry;
        let q = PathQuery::new(vec![Step::new(move |n| n == entry)]);
        assert_eq!(q.search_from_entry(&cfg), Some(vec![cfg.entry]));
    }

    #[test]
    fn witness_reports_matching_nodes() {
        let tu = unit("get_thing(np); mid_thing(np); put_thing(np); return 0;");
        let (cfg, facts) = build(&tu);
        let q = PathQuery::new(vec![
            call_step(&facts, "get_thing"),
            call_step(&facts, "put_thing"),
        ]);
        let witness = q.search_from_entry(&cfg).unwrap();
        assert!(facts[witness[0]].calls_named("get_thing"));
        assert!(facts[witness[1]].calls_named("put_thing"));
        // Verify node kinds are statements.
        for &w in &witness {
            assert!(matches!(
                cfg.nodes[w].kind,
                NodeKind::Stmt(Payload::Expr(_))
            ));
        }
    }
}
