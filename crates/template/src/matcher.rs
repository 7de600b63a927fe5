//! Template matching: compiling a semantic template into a CPG path
//! query and searching a function graph for witnesses.

use std::collections::BTreeSet;

use refminer_cpg::{
    Feasibility, FunctionGraph, NodeId, NodeKind, PathQuery, Payload, Step, StoreTarget,
};
use refminer_rcapi::{is_kfree_family, ApiKb, RcClass, RcDir};

use crate::ast::{Atom, ContextKind, OpSpec, Operator, Subscript, Template};

/// A successful template match.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TemplateMatch {
    /// The nodes that matched each atom, in order.
    pub witness: Vec<NodeId>,
    /// The variable bound to each template parameter, in
    /// [`Template::params`] order.
    pub bindings: Vec<(String, String)>,
    /// Whether the witnessing path survives the graph's path-feasibility
    /// constraints (correlated branches, constant flags, NULL guards).
    pub feasibility: Feasibility,
}

/// Matches templates against function graphs using an API knowledge
/// base to give call names their refcounting meaning.
///
/// # Examples
///
/// ```
/// use refminer_cparse::parse_str;
/// use refminer_cpg::FunctionGraph;
/// use refminer_rcapi::ApiKb;
/// use refminer_template::{parse_template, TemplateMatcher};
///
/// let tu = parse_str("t.c", r#"
/// int f(struct sock *sk)
/// {
///         sock_put(sk);
///         return sk->sk_err;
/// }
/// "#);
/// let g = FunctionGraph::build(tu.function("f").unwrap());
/// let kb = ApiKb::builtin();
/// let t = parse_template("F_start -> S_P(p0) -> S_D(p0) -> F_end").unwrap();
/// let matches = TemplateMatcher::new(&kb).find(&t, &g);
/// assert_eq!(matches.len(), 1);
/// assert_eq!(matches[0].bindings[0], ("p0".to_string(), "sk".to_string()));
/// ```
pub struct TemplateMatcher<'kb> {
    kb: &'kb ApiKb,
}

impl<'kb> TemplateMatcher<'kb> {
    /// Creates a matcher over a knowledge base.
    pub fn new(kb: &'kb ApiKb) -> TemplateMatcher<'kb> {
        TemplateMatcher { kb }
    }

    /// Finds all matches of `template` in `graph`, one per satisfiable
    /// parameter binding (plus a single match for parameterless
    /// templates).
    pub fn find(&self, template: &Template, graph: &FunctionGraph) -> Vec<TemplateMatch> {
        let params = template.params();
        if params.is_empty() {
            return self
                .find_with_binding(template, graph, &[])
                .into_iter()
                .collect();
        }
        // Enumerate candidate variables: pointer parameters plus every
        // assignment target in the function.
        let candidates = candidate_vars(graph);
        let mut out = Vec::new();
        // Templates in the paper bind at most one parameter; support
        // that directly and fall back to the first candidate set
        // otherwise.
        let param = params[0];
        for var in &candidates {
            let binding = vec![(param.to_string(), var.clone())];
            if let Some(m) = self.find_with_binding(template, graph, &binding) {
                out.push(m);
            }
        }
        out
    }

    /// Attempts a match under a fixed parameter binding.
    pub fn find_with_binding(
        &self,
        template: &Template,
        graph: &FunctionGraph,
        bindings: &[(String, String)],
    ) -> Option<TemplateMatch> {
        let steps: Vec<Step<'_>> = template
            .atoms
            .iter()
            .map(|atom| self.compile_atom(atom, graph, bindings))
            .collect();
        let query = PathQuery::new(steps);
        let witness = query.search_from_entry(&graph.cfg)?;
        let feasibility = graph.feas.classify(&query, &graph.cfg, graph.cfg.entry);
        Some(TemplateMatch {
            witness,
            bindings: bindings.to_vec(),
            feasibility,
        })
    }

    /// Compiles one atom into a path-query step.
    fn compile_atom<'a>(
        &'a self,
        atom: &'a Atom,
        graph: &'a FunctionGraph,
        bindings: &'a [(String, String)],
    ) -> Step<'a>
    where
        'kb: 'a,
    {
        let lookup = move |p: &str| -> Option<String> {
            bindings
                .iter()
                .find(|(name, _)| name == p)
                .map(|(_, var)| var.clone())
        };
        let kb = self.kb;
        match (&atom.ctx, &atom.sub) {
            (ContextKind::Func, Subscript::Start) => {
                Step::new(move |n: NodeId| n == graph.cfg.entry)
            }
            (ContextKind::Func, Subscript::End) => Step::new(move |n: NodeId| n == graph.cfg.exit),
            (ContextKind::Func, Subscript::Named(_)) => {
                // Named function contexts (e.g. `F_interpaired`) cannot
                // be checked intra-procedurally; treat as the entry so
                // the rest of the template still constrains the path.
                Step::new(move |n: NodeId| n == graph.cfg.entry)
            }
            (ContextKind::Block, Subscript::Error) => {
                Step::new(move |n: NodeId| graph.is_error_node(n))
            }
            (ContextKind::Macro, Subscript::SmartLoop) => Step::new(move |n: NodeId| {
                matches!(
                    &graph.cfg.nodes[n].kind,
                    NodeKind::MacroLoopHead { name, .. } if kb.smartloop(name).is_some()
                )
            }),
            // Leaving a loop early: a `break`, or a `goto` or `return`
            // inside one.
            (_, Subscript::Break) => Step::new(move |n: NodeId| {
                let node = &graph.cfg.nodes[n];
                match &node.kind {
                    NodeKind::Stmt(Payload::Break) => true,
                    NodeKind::Stmt(Payload::Goto(_) | Payload::Return(_)) => {
                        node.loop_head.is_some()
                    }
                    _ => false,
                }
            }),
            (_, Subscript::Op(spec)) => {
                let spec = spec.clone();
                Step::new(move |n: NodeId| op_matches(kb, graph, n, &spec, &lookup))
            }
            // Remaining combinations (named statements/blocks, macro
            // names) match nothing rather than everything, keeping
            // queries conservative.
            _ => Step::new(move |_n: NodeId| false),
        }
    }
}

/// Candidate variables for parameter binding: pointer params and all
/// assignment-target variables.
fn candidate_vars(graph: &FunctionGraph) -> Vec<String> {
    let mut set: BTreeSet<String> = BTreeSet::new();
    for p in graph.pointer_params() {
        set.insert(p.to_string());
    }
    for facts in &graph.facts {
        for a in &facts.assigns {
            if let StoreTarget::Var(v) = a.target {
                set.insert(v.to_string());
            }
        }
    }
    set.into_iter().collect()
}

/// Whether node `n` exhibits the operator spec (every operator in the
/// composition must hold on the node, with parameter constraints).
fn op_matches(
    kb: &ApiKb,
    graph: &FunctionGraph,
    n: NodeId,
    spec: &OpSpec,
    lookup: &dyn Fn(&str) -> Option<String>,
) -> bool {
    let var = spec.bound_param().and_then(lookup);
    spec.operators()
        .iter()
        .all(|op| single_op_matches(kb, graph, n, *op, var.as_deref()))
}

fn single_op_matches(
    kb: &ApiKb,
    graph: &FunctionGraph,
    n: NodeId,
    op: Operator,
    var: Option<&str>,
) -> bool {
    let facts = &graph.facts[n];
    let call_matches = |pred: &dyn Fn(&refminer_rcapi::RcApi) -> bool| -> bool {
        facts.calls.iter().any(|c| {
            let Some(api) = kb.get(c.name) else {
                return false;
            };
            if !pred(api) {
                return false;
            }
            match (var, api.object_arg()) {
                (Some(v), Some(idx)) => c.arg_root(idx) == Some(v),
                // Object flows via return value: accept if the node
                // assigns the result to the bound variable (or no
                // binding requested).
                (Some(v), None) => facts
                    .assigns
                    .iter()
                    .any(|a| a.rhs_call == Some(c.name) && a.target == StoreTarget::Var(v)),
                (None, _) => true,
            }
        })
    };
    match op {
        Operator::G => call_matches(&|api| api.dir == RcDir::Inc),
        Operator::GE => call_matches(&|api| api.dir == RcDir::Inc && api.inc_on_error),
        Operator::GN => call_matches(&|api| api.dir == RcDir::Inc && api.may_return_null),
        Operator::GH => {
            call_matches(&|api| api.dir == RcDir::Inc && api.class == RcClass::Embedded)
        }
        Operator::P => call_matches(&|api| api.dir == RcDir::Dec),
        Operator::PH => {
            // A hidden decrement: an *increment*-classified embedded
            // API that also puts its argument (ArgAndReturned flow).
            call_matches(&|api| {
                api.dir == RcDir::Inc
                    && api.class == RcClass::Embedded
                    && api.object_arg().is_some()
            })
        }
        Operator::A => !facts.assigns.is_empty(),
        Operator::AEsc => facts.assigns.iter().any(|a| {
            let stored = match var {
                Some(v) => a.rhs_root == Some(v),
                None => true,
            };
            stored
                && match &a.target {
                    StoreTarget::Field { .. } | StoreTarget::Indirect(_) => true,
                    // A name the function does not declare is
                    // file-scope: a global or a static.
                    StoreTarget::Var(v) => !declares(graph, v),
                    StoreTarget::Other => false,
                }
        }),
        Operator::D => match var {
            Some(v) => facts.derefs_var(v),
            None => !facts.derefs.is_empty(),
        },
        Operator::DN => {
            // A dereference with no NULL check between: the checker
            // layer adds the avoidance; at the node level this is a
            // plain dereference.
            match var {
                Some(v) => facts.derefs_var(v),
                None => !facts.derefs.is_empty(),
            }
        }
        Operator::L => facts.calls.iter().any(|c| is_lock_name(c.name, false)),
        Operator::U => facts.calls.iter().any(|c| is_lock_name(c.name, true)),
        Operator::Free => facts.calls.iter().any(|c| is_kfree_family(c.name)),
    }
}

/// Whether the function declares `name`: a parameter, or a name some
/// CFG `Decl` node declares.
fn declares(graph: &FunctionGraph, name: &str) -> bool {
    graph.params.iter().any(|p| p.name.as_deref() == Some(name))
        || graph.cfg.nodes.iter().any(|node| {
            matches!(
                &node.kind,
                NodeKind::Stmt(Payload::Decl(decls)) if decls.iter().any(|d| d.name == name)
            )
        })
}

/// Whether `name` is a lock (`unlock == false`) or unlock
/// (`unlock == true`) primitive.
fn is_lock_name(name: &str, unlock: bool) -> bool {
    let has_unlock = name.contains("unlock");
    if unlock {
        has_unlock
    } else {
        name.contains("lock") && !has_unlock
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_template;
    use refminer_cparse::{parse_str, TranslationUnit};

    fn unit(src: &str) -> TranslationUnit {
        parse_str("t.c", src)
    }

    fn graph(tu: &TranslationUnit) -> FunctionGraph<'_> {
        let f = tu.functions().next().expect("one function");
        FunctionGraph::build(f)
    }

    #[test]
    fn matches_inc_then_error_block() {
        let tu = unit(
            r#"
int probe(struct device *dev)
{
        int ret = pm_runtime_get_sync(dev);
        if (ret < 0)
                return ret;
        pm_runtime_put(dev);
        return 0;
}
"#,
        );
        let g = graph(&tu);
        let kb = ApiKb::builtin();
        let t = parse_template("F_start -> S_{G_E} -> B_error -> F_end").unwrap();
        let matches = TemplateMatcher::new(&kb).find(&t, &g);
        assert_eq!(matches.len(), 1);
    }

    #[test]
    fn correlated_branch_match_is_tagged_infeasible() {
        // `ret` is constant 0 at the test, so the error block is
        // unreachable: the match survives structurally but carries an
        // Infeasible verdict.
        let tu = unit(
            r#"
int probe(struct device *dev)
{
        int ret = pm_runtime_get_sync(dev);
        ret = 0;
        if (ret)
                return ret;
        pm_runtime_put(dev);
        return 0;
}
"#,
        );
        let g = graph(&tu);
        let kb = ApiKb::builtin();
        let t = parse_template("F_start -> S_{G_E} -> B_error -> F_end").unwrap();
        let matches = TemplateMatcher::new(&kb).find(&t, &g);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].feasibility, Feasibility::Infeasible);
    }

    #[test]
    fn no_match_without_error_block() {
        let tu = unit(
            r#"
int probe(struct device *dev)
{
        pm_runtime_get_sync(dev);
        pm_runtime_put(dev);
        return 0;
}
"#,
        );
        let g = graph(&tu);
        let kb = ApiKb::builtin();
        let t = parse_template("F_start -> S_{G_E} -> B_error -> F_end").unwrap();
        assert!(TemplateMatcher::new(&kb).find(&t, &g).is_empty());
    }

    #[test]
    fn uad_template_binds_parameter() {
        let tu = unit(
            r#"
void unhash(struct sock *sk)
{
        sock_put(sk);
        sk->sk_state = 0;
}
"#,
        );
        let g = graph(&tu);
        let kb = ApiKb::builtin();
        let t = parse_template("F_start -> S_P(p0) -> S_D(p0) -> F_end").unwrap();
        let matches = TemplateMatcher::new(&kb).find(&t, &g);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].bindings[0].1, "sk");
    }

    #[test]
    fn uad_template_rejects_deref_before_put() {
        let tu = unit(
            r#"
void unhash(struct sock *sk)
{
        sk->sk_state = 0;
        sock_put(sk);
}
"#,
        );
        let g = graph(&tu);
        let kb = ApiKb::builtin();
        let t = parse_template("F_start -> S_P(p0) -> S_D(p0) -> F_end").unwrap();
        assert!(TemplateMatcher::new(&kb).find(&t, &g).is_empty());
    }

    #[test]
    fn smartloop_break_template() {
        let tu = unit(
            r#"
int scan(void)
{
        struct device_node *dn;
        for_each_matching_node(dn, ids) {
                if (found)
                        break;
        }
        return 0;
}
"#,
        );
        let g = graph(&tu);
        let kb = ApiKb::builtin();
        let t = parse_template("F_start -> M_SL -> S_break -> F_end").unwrap();
        assert_eq!(TemplateMatcher::new(&kb).find(&t, &g).len(), 1);

        // A `return` inside the loop leaves it just as early.
        let tu = unit(
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
        let g = graph(&tu);
        assert_eq!(TemplateMatcher::new(&kb).find(&t, &g).len(), 1);
    }

    #[test]
    fn unlock_nested_deref_template() {
        let tu = unit(
            r#"
int setup(struct usb_serial *serial)
{
        usb_serial_put(serial);
        mutex_unlock(&serial->disc_mutex);
        return 0;
}
"#,
        );
        let g = graph(&tu);
        let kb = ApiKb::builtin();
        let t = parse_template("F_start -> S_P(p0) -> S_{U.D}(p0) -> F_end").unwrap();
        let matches = TemplateMatcher::new(&kb).find(&t, &g);
        assert_eq!(matches.len(), 1);
        assert_eq!(matches[0].bindings[0].1, "serial");
    }

    #[test]
    fn escape_assignment_template() {
        let tu = unit(
            r#"
void attach(struct priv *priv, struct device_node *np)
{
        priv->node = np;
}
"#,
        );
        let g = graph(&tu);
        let kb = ApiKb::builtin();
        let t = parse_template("F_start -> S_{A_GO} -> F_end").unwrap();
        assert_eq!(TemplateMatcher::new(&kb).find(&t, &g).len(), 1);

        // A store into a file-scope static escapes too; one into a
        // local does not.
        let tu = parse_str(
            "t.c",
            r#"
static struct device_node *cached;
void stash(struct device_node *np)
{
        cached = np;
}
void keep(struct device_node *np)
{
        struct device_node *local;
        local = np;
        use_node(local);
}
"#,
        );
        let stash = FunctionGraph::build(tu.function("stash").unwrap());
        assert_eq!(TemplateMatcher::new(&kb).find(&t, &stash).len(), 1);
        let keep = FunctionGraph::build(tu.function("keep").unwrap());
        assert!(TemplateMatcher::new(&kb).find(&t, &keep).is_empty());
    }
}
