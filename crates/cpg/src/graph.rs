//! The assembled per-function code property graph.

use std::collections::HashSet;
use std::time::{Duration, Instant};

use refminer_cparse::{FunctionDef, Param, TranslationUnit};

use crate::cfg::{Cfg, NodeId};
use crate::errorpath::error_nodes;
use crate::facts::NodeFacts;
use crate::feasibility::FeasAnalysis;
use crate::origins::Origins;

/// A per-function *code property graph*: the CFG enriched with node
/// facts, variable origins, and error-block classification — the same
/// bundle the paper builds with JOERN and queries via line-ordered
/// paths (§6.1).
///
/// The graph is a view of the function's AST: its header, node payloads,
/// facts and origins borrow the definition's names, parameters,
/// declarations and expressions rather than copying them, so the AST
/// stays the one owner of statement data. A graph lives as long as the
/// unit it was built from.
///
/// # Examples
///
/// ```
/// use refminer_cparse::parse_str;
/// use refminer_cpg::FunctionGraph;
///
/// let tu = parse_str("t.c", r#"
/// int probe(struct device *dev)
/// {
///         struct device_node *np = of_find_node_by_name(NULL, "x");
///         if (!np)
///                 return -ENODEV;
///         of_node_put(np);
///         return 0;
/// }
/// "#);
/// let g = FunctionGraph::build(tu.function("probe").unwrap());
/// assert_eq!(g.name(), "probe");
/// assert!(g.nodes_calling("of_node_put").len() == 1);
/// ```
#[derive(Debug, Clone)]
pub struct FunctionGraph<'a> {
    /// The function's name.
    pub name: &'a str,
    /// The function's parameters, in order.
    pub params: &'a [Param],
    /// Whether the function is `static`.
    pub is_static: bool,
    /// The control-flow graph.
    pub cfg: Cfg<'a>,
    /// Per-node facts, parallel to `cfg.nodes`.
    pub facts: Vec<NodeFacts<'a>>,
    /// Variable-origin analysis results.
    pub origins: Origins<'a>,
    /// Nodes classified as error-handling blocks (`B_error`).
    pub error_nodes: HashSet<NodeId>,
    /// Path-feasibility constraints: infeasible branch edges derived
    /// from constant/guard tracking.
    pub feas: FeasAnalysis,
}

/// A function whose graph was rejected by the node cap before the
/// expensive analyses ran — the audit layer's defense against
/// machine-generated functions with pathological control flow.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphCapExceeded {
    /// The function that blew the cap.
    pub function: String,
    /// How many CFG nodes it produced.
    pub nodes: usize,
    /// The cap in force.
    pub max_nodes: usize,
}

impl std::fmt::Display for GraphCapExceeded {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "function `{}` produced {} CFG nodes (cap {})",
            self.function, self.nodes, self.max_nodes
        )
    }
}

impl<'a> FunctionGraph<'a> {
    /// Builds the full graph for one function.
    pub fn build(func: &'a FunctionDef) -> FunctionGraph<'a> {
        let mut feas_time = Duration::ZERO;
        Self::of_cfg(func, Cfg::build(func), &mut feas_time)
    }

    /// Runs the per-node analyses over a built CFG, adding the wall time
    /// the feasibility fixpoint takes to `feas_time`.
    fn of_cfg(func: &'a FunctionDef, cfg: Cfg<'a>, feas_time: &mut Duration) -> FunctionGraph<'a> {
        let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
        let params: Vec<&str> = func
            .params
            .iter()
            .filter_map(|p| p.name.as_deref())
            .collect();
        let origins = Origins::compute(&cfg, &facts, &params);
        let error_nodes = error_nodes(&cfg, &facts);
        let feas_start = Instant::now();
        let feas = FeasAnalysis::compute(&cfg, &facts);
        *feas_time += feas_start.elapsed();
        FunctionGraph {
            name: &func.name,
            params: &func.params,
            is_static: func.is_static,
            cfg,
            facts,
            origins,
            error_nodes,
            feas,
        }
    }

    /// Builds graphs for every function in a translation unit.
    pub fn build_all(tu: &'a TranslationUnit) -> Vec<FunctionGraph<'a>> {
        tu.functions().map(FunctionGraph::build).collect()
    }

    /// Builds graphs for every function whose CFG stays within
    /// `max_nodes`, collecting the functions over the cap instead of
    /// analyzing them: the per-node analyses (facts, origins, error
    /// classification, feasibility) never run on an over-cap function,
    /// bounding both time and memory. Also returns the unit's total
    /// feasibility-fixpoint wall time, for the audit pipeline's
    /// `feasibility` trace spans; the timing never influences a graph.
    pub fn build_all_limited_timed(
        tu: &'a TranslationUnit,
        max_nodes: usize,
    ) -> (Vec<FunctionGraph<'a>>, Vec<GraphCapExceeded>, Duration) {
        let mut graphs = Vec::new();
        let mut skipped = Vec::new();
        let mut feas_time = Duration::ZERO;
        for f in tu.functions() {
            match Cfg::build_limited(f, max_nodes) {
                Ok(cfg) => graphs.push(Self::of_cfg(f, cfg, &mut feas_time)),
                Err(e) => skipped.push(e),
            }
        }
        (graphs, skipped, feas_time)
    }

    /// The function name.
    pub fn name(&self) -> &str {
        self.name
    }

    /// Node ids whose facts contain a call to `name`.
    pub fn nodes_calling(&self, name: &str) -> Vec<NodeId> {
        self.cfg
            .node_ids()
            .filter(|&i| self.facts[i].calls_named(name))
            .collect()
    }

    /// Whether node `n` lies in an error-handling block.
    pub fn is_error_node(&self, n: NodeId) -> bool {
        self.error_nodes.contains(&n)
    }

    /// The 1-based source line of node `n`.
    pub fn line_of(&self, n: NodeId) -> u32 {
        self.cfg.nodes[n].span.line
    }

    /// Names of the function's pointer parameters.
    pub fn pointer_params(&self) -> Vec<&'a str> {
        self.params
            .iter()
            .filter(|p| p.ty.is_pointer())
            .filter_map(|p| p.name.as_deref())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;

    #[test]
    fn builds_all_functions() {
        let tu = parse_str("t.c", "int a(void) { return 0; } int b(void) { return 1; }");
        let graphs = FunctionGraph::build_all(&tu);
        assert_eq!(graphs.len(), 2);
        assert_eq!(graphs[0].name(), "a");
        assert_eq!(graphs[1].name(), "b");
    }

    #[test]
    fn pointer_params_extracted() {
        let tu = parse_str(
            "t.c",
            "int f(struct device *dev, int count, char *name) { return 0; }",
        );
        let g = FunctionGraph::build(tu.function("f").unwrap());
        assert_eq!(g.pointer_params(), vec!["dev", "name"]);
    }

    #[test]
    fn error_nodes_wired_in() {
        let tu = parse_str(
            "t.c",
            r#"
int f(void)
{
        int ret = do_thing();
        if (ret < 0)
                return ret;
        return 0;
}
"#,
        );
        let g = FunctionGraph::build(tu.function("f").unwrap());
        assert!(!g.error_nodes.is_empty());
    }

    #[test]
    fn node_cap_skips_big_functions_only() {
        let mut body = String::from("int big(void) {\n");
        for i in 0..200 {
            body.push_str(&format!("        if (x{i}) do_thing({i});\n"));
        }
        body.push_str("        return 0;\n}\nint small(void) { return 0; }\n");
        let tu = parse_str("t.c", &body);
        let (graphs, skipped, _) = FunctionGraph::build_all_limited_timed(&tu, 50);
        assert_eq!(graphs.len(), 1);
        assert_eq!(graphs[0].name(), "small");
        assert_eq!(skipped.len(), 1);
        assert_eq!(skipped[0].function, "big");
        assert!(skipped[0].nodes > 50);
    }

    #[test]
    fn line_numbers_exposed() {
        let tu = parse_str(
            "t.c",
            "int f(void)\n{\n        do_thing();\n        return 0;\n}\n",
        );
        let g = FunctionGraph::build(tu.function("f").unwrap());
        let call = g.nodes_calling("do_thing")[0];
        assert_eq!(g.line_of(call), 3);
    }
}
