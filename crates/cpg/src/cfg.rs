//! Control-flow graph construction from function ASTs.

use refminer_clex::Span;
use refminer_cparse::{Block, Declaration, Expr, FunctionDef, Stmt, StmtKind};

use crate::graph::GraphCapExceeded;

/// Index of a node in a [`Cfg`].
pub type NodeId = usize;

/// The kind of a control-flow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EdgeKind {
    /// Sequential fall-through.
    Fall,
    /// Taken branch of a condition.
    True,
    /// Not-taken branch of a condition.
    False,
    /// Loop back-edge.
    Back,
    /// A resolved `goto`.
    Goto,
    /// Dispatch from a `switch` head to a `case`/`default` marker.
    Case,
}

/// Statement payload carried by ordinary CFG nodes, borrowed from the
/// function's AST.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Payload<'a> {
    /// An expression statement.
    Expr(&'a Expr),
    /// A declaration statement (one entry per declarator).
    Decl(&'a [Declaration]),
    /// A `return`, with its value.
    Return(Option<&'a Expr>),
    /// A `goto` (kept even after resolution, for matching).
    Goto(&'a str),
    /// A `break`.
    Break,
    /// A `continue`.
    Continue,
    /// An empty statement.
    Empty,
}

/// What a CFG node is.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeKind<'a> {
    /// The unique function entry.
    Entry,
    /// The unique function exit; all returns and the final fall-through
    /// lead here.
    Exit,
    /// An ordinary statement.
    Stmt(Payload<'a>),
    /// A branch condition (`if`/`while`/`for`/`do-while`/`switch`).
    Cond(&'a Expr),
    /// The head of a macro-defined loop (*smartloop*). Iteration both
    /// tests and — for refcounting-embedded macros — adjusts refcounters,
    /// which is why it gets its own node kind.
    MacroLoopHead {
        /// Macro name, e.g. `for_each_child_of_node`.
        name: &'a str,
        /// Macro arguments as written.
        args: &'a [Expr],
    },
    /// A synthetic join used as a loop head for `do`/`for` loops.
    LoopHead,
    /// A `label:` marker.
    Label(&'a str),
    /// A `case expr:` marker.
    Case(&'a Expr),
    /// A `default:` marker.
    Default,
}

/// One node of the CFG.
#[derive(Debug, Clone)]
pub struct CfgNode<'a> {
    /// What the node is.
    pub kind: NodeKind<'a>,
    /// Source location.
    pub span: Span,
    /// The innermost loop head enclosing the node, if any. A loop
    /// head's own link names the loop around it, so the chain of links
    /// is the stack of enclosing loops ([`Cfg::loops_of`]).
    pub loop_head: Option<NodeId>,
}

/// A per-function control-flow graph: a view of the function's AST, whose
/// nodes borrow the statements and expressions they stand for.
///
/// # Examples
///
/// ```
/// use refminer_cparse::parse_str;
/// use refminer_cpg::Cfg;
///
/// let tu = parse_str("t.c", "int f(int a) { if (a) return 1; return 0; }");
/// let cfg = Cfg::build(tu.function("f").unwrap());
/// assert!(cfg.nodes.len() >= 4);
/// assert!(!cfg.succs(cfg.entry).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct Cfg<'a> {
    /// All nodes; indices are [`NodeId`]s.
    pub nodes: Vec<CfgNode<'a>>,
    /// Successor adjacency (parallel to `nodes`).
    pub succ: Vec<Vec<(NodeId, EdgeKind)>>,
    /// Predecessor adjacency (parallel to `nodes`).
    pub pred: Vec<Vec<(NodeId, EdgeKind)>>,
    /// The entry node id.
    pub entry: NodeId,
    /// The exit node id.
    pub exit: NodeId,
}

impl<'a> Cfg<'a> {
    /// Builds the CFG of a function body.
    pub fn build(func: &'a FunctionDef) -> Cfg<'a> {
        let mut b = Builder::new(func.span);
        let preds = vec![(b.cfg.entry, EdgeKind::Fall)];
        let dangling = b.build_block(&func.body, preds);
        for (n, k) in dangling {
            b.connect(n, b.cfg.exit, k);
        }
        b.resolve_gotos();
        b.cfg
    }

    /// Builds the CFG only if it stays within `max_nodes` — the node
    /// cap every per-function analysis of the audit runs under.
    pub fn build_limited(
        func: &'a FunctionDef,
        max_nodes: usize,
    ) -> Result<Cfg<'a>, GraphCapExceeded> {
        let cfg = Cfg::build(func);
        if cfg.nodes.len() > max_nodes {
            return Err(GraphCapExceeded {
                function: func.name.clone(),
                nodes: cfg.nodes.len(),
                max_nodes,
            });
        }
        Ok(cfg)
    }

    /// Successors of a node.
    pub fn succs(&self, n: NodeId) -> &[(NodeId, EdgeKind)] {
        &self.succ[n]
    }

    /// Predecessors of a node.
    pub fn preds(&self, n: NodeId) -> &[(NodeId, EdgeKind)] {
        &self.pred[n]
    }

    /// Iterates node ids in creation (roughly source) order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        0..self.nodes.len()
    }

    /// All nodes whose kind matches a predicate.
    pub fn find_nodes(&self, mut pred: impl FnMut(&CfgNode<'a>) -> bool) -> Vec<NodeId> {
        self.node_ids().filter(|&i| pred(&self.nodes[i])).collect()
    }

    /// The loop heads enclosing node `n`, innermost first.
    pub fn loops_of(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors(self.nodes[n].loop_head, |&h| self.nodes[h].loop_head)
    }

    /// Whether `to` is reachable from `from` along CFG edges.
    pub fn reachable(&self, from: NodeId, to: NodeId) -> bool {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![from];
        seen[from] = true;
        while let Some(n) = stack.pop() {
            if n == to {
                return true;
            }
            for &(s, _) in &self.succ[n] {
                if !seen[s] {
                    seen[s] = true;
                    stack.push(s);
                }
            }
        }
        false
    }
}

/// Dangling exits of a partially built region: edges waiting for their
/// destination node.
type Dangling = Vec<(NodeId, EdgeKind)>;

struct Builder<'a> {
    cfg: Cfg<'a>,
    /// Stack of break-collectors (innermost last).
    breaks: Vec<Vec<NodeId>>,
    /// Stack of continue targets (loop head ids, innermost last).
    continues: Vec<NodeId>,
    /// The innermost loop head around the nodes being created.
    loop_head: Option<NodeId>,
    /// Label name → node id.
    labels: std::collections::HashMap<&'a str, NodeId>,
    /// Goto node id → target label, resolved at the end.
    gotos: Vec<(NodeId, &'a str)>,
}

impl<'a> Builder<'a> {
    fn new(span: Span) -> Builder<'a> {
        let entry = CfgNode {
            kind: NodeKind::Entry,
            span,
            loop_head: None,
        };
        let exit = CfgNode {
            kind: NodeKind::Exit,
            span,
            loop_head: None,
        };
        Builder {
            cfg: Cfg {
                nodes: vec![entry, exit],
                succ: vec![Vec::new(), Vec::new()],
                pred: vec![Vec::new(), Vec::new()],
                entry: 0,
                exit: 1,
            },
            breaks: Vec::new(),
            continues: Vec::new(),
            loop_head: None,
            labels: std::collections::HashMap::new(),
            gotos: Vec::new(),
        }
    }

    fn add_node(&mut self, kind: NodeKind<'a>, span: Span) -> NodeId {
        let id = self.cfg.nodes.len();
        self.cfg.nodes.push(CfgNode {
            kind,
            span,
            loop_head: self.loop_head,
        });
        self.cfg.succ.push(Vec::new());
        self.cfg.pred.push(Vec::new());
        id
    }

    fn connect(&mut self, from: NodeId, to: NodeId, kind: EdgeKind) {
        if !self.cfg.succ[from].contains(&(to, kind)) {
            self.cfg.succ[from].push((to, kind));
            self.cfg.pred[to].push((from, kind));
        }
    }

    fn connect_all(&mut self, preds: &Dangling, to: NodeId) {
        for &(n, k) in preds {
            self.connect(n, to, k);
        }
    }

    fn build_block(&mut self, block: &'a Block, mut preds: Dangling) -> Dangling {
        for stmt in &block.stmts {
            preds = self.build_stmt(stmt, preds);
        }
        preds
    }

    fn build_stmt(&mut self, stmt: &'a Stmt, preds: Dangling) -> Dangling {
        match &stmt.kind {
            StmtKind::Block(b) => self.build_block(b, preds),
            StmtKind::Empty => {
                // Do not materialize empty statements; pass through.
                preds
            }
            StmtKind::Expr(e) => {
                let n = self.add_node(NodeKind::Stmt(Payload::Expr(e)), stmt.span);
                self.connect_all(&preds, n);
                vec![(n, EdgeKind::Fall)]
            }
            StmtKind::Decl(decls) => {
                let n = self.add_node(NodeKind::Stmt(Payload::Decl(decls)), stmt.span);
                self.connect_all(&preds, n);
                vec![(n, EdgeKind::Fall)]
            }
            StmtKind::Return(v) => {
                let n = self.add_node(NodeKind::Stmt(Payload::Return(v.as_ref())), stmt.span);
                self.connect_all(&preds, n);
                let exit = self.cfg.exit;
                self.connect(n, exit, EdgeKind::Fall);
                Vec::new()
            }
            StmtKind::Goto(label) => {
                let n = self.add_node(NodeKind::Stmt(Payload::Goto(label)), stmt.span);
                self.connect_all(&preds, n);
                self.gotos.push((n, label));
                Vec::new()
            }
            StmtKind::Break => {
                let n = self.add_node(NodeKind::Stmt(Payload::Break), stmt.span);
                self.connect_all(&preds, n);
                if let Some(collector) = self.breaks.last_mut() {
                    collector.push(n);
                } else {
                    // `break` outside a loop/switch: treat as exit.
                    let exit = self.cfg.exit;
                    self.connect(n, exit, EdgeKind::Fall);
                }
                Vec::new()
            }
            StmtKind::Continue => {
                let n = self.add_node(NodeKind::Stmt(Payload::Continue), stmt.span);
                self.connect_all(&preds, n);
                if let Some(&head) = self.continues.last() {
                    self.connect(n, head, EdgeKind::Back);
                } else {
                    let exit = self.cfg.exit;
                    self.connect(n, exit, EdgeKind::Fall);
                }
                Vec::new()
            }
            StmtKind::Label(name) => {
                let n = self.add_node(NodeKind::Label(name), stmt.span);
                self.connect_all(&preds, n);
                self.labels.insert(name, n);
                vec![(n, EdgeKind::Fall)]
            }
            StmtKind::Case(e) => {
                let n = self.add_node(NodeKind::Case(e), stmt.span);
                self.connect_all(&preds, n);
                vec![(n, EdgeKind::Fall)]
            }
            StmtKind::Default => {
                let n = self.add_node(NodeKind::Default, stmt.span);
                self.connect_all(&preds, n);
                vec![(n, EdgeKind::Fall)]
            }
            StmtKind::If { cond, then, els } => {
                let c = self.add_node(NodeKind::Cond(cond), stmt.span);
                self.connect_all(&preds, c);
                let mut out = self.build_stmt(then, vec![(c, EdgeKind::True)]);
                let mut rest = vec![(c, EdgeKind::False)];
                if let Some(els) = els {
                    // Each `else if` arm hangs off the previous arm's
                    // False edge, as if it were nested in its `else`.
                    for arm in &els.arms {
                        let c = self.add_node(NodeKind::Cond(&arm.cond), arm.span);
                        self.connect_all(&rest, c);
                        out.extend(self.build_stmt(&arm.then, vec![(c, EdgeKind::True)]));
                        rest = vec![(c, EdgeKind::False)];
                    }
                    if let Some(s) = &els.stmt {
                        rest = self.build_stmt(s, rest);
                    }
                }
                out.extend(rest);
                out
            }
            StmtKind::While { cond, body } => {
                let c = self.add_node(NodeKind::Cond(cond), stmt.span);
                self.connect_all(&preds, c);
                let (body_out, broken) = self.build_loop_body(c, c, body, (c, EdgeKind::True));
                for (n, _) in body_out {
                    self.connect(n, c, EdgeKind::Back);
                }
                let mut out: Dangling = vec![(c, EdgeKind::False)];
                out.extend(broken.into_iter().map(|n| (n, EdgeKind::Fall)));
                out
            }
            StmtKind::DoWhile { body, cond } => {
                let head = self.add_node(NodeKind::LoopHead, stmt.span);
                self.connect_all(&preds, head);
                let c = self.add_node(NodeKind::Cond(cond), stmt.span);
                let (body_out, broken) =
                    self.build_loop_body(head, c, body, (head, EdgeKind::Fall));
                self.connect_all(&body_out, c);
                self.connect(c, head, EdgeKind::Back);
                let mut out: Dangling = vec![(c, EdgeKind::False)];
                out.extend(broken.into_iter().map(|n| (n, EdgeKind::Fall)));
                out
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                let mut cur = preds;
                if let Some(i) = init {
                    cur = self.build_stmt(i, cur);
                }
                let head = match cond {
                    Some(c) => self.add_node(NodeKind::Cond(c), stmt.span),
                    None => self.add_node(NodeKind::LoopHead, stmt.span),
                };
                self.connect_all(&cur, head);
                // The step node sits between body end and head.
                let step_node = step
                    .as_deref()
                    .map(|s| self.add_node(NodeKind::Stmt(Payload::Expr(s)), stmt.span));
                let back_target = head;
                let cont = step_node.unwrap_or(head);
                let (body_out, broken) =
                    self.build_loop_body(head, cont, body, (head, EdgeKind::True));
                match step_node {
                    Some(sn) => {
                        self.connect_all(&body_out, sn);
                        self.connect(sn, back_target, EdgeKind::Back);
                    }
                    None => {
                        for (n, _) in body_out {
                            self.connect(n, back_target, EdgeKind::Back);
                        }
                    }
                }
                let mut out: Dangling = match cond {
                    Some(_) => vec![(head, EdgeKind::False)],
                    None => Vec::new(),
                };
                out.extend(broken.into_iter().map(|n| (n, EdgeKind::Fall)));
                out
            }
            StmtKind::MacroLoop { name, args, body } => {
                let head = self.add_node(NodeKind::MacroLoopHead { name, args }, stmt.span);
                self.connect_all(&preds, head);
                let (body_out, broken) =
                    self.build_loop_body(head, head, body, (head, EdgeKind::True));
                for (n, _) in body_out {
                    self.connect(n, head, EdgeKind::Back);
                }
                let mut out: Dangling = vec![(head, EdgeKind::False)];
                out.extend(broken.into_iter().map(|n| (n, EdgeKind::Fall)));
                out
            }
            StmtKind::Switch { cond, body } => {
                let c = self.add_node(NodeKind::Cond(cond), stmt.span);
                self.connect_all(&preds, c);
                self.breaks.push(Vec::new());
                // Build the body with *no* fall-in; case markers receive
                // Case edges from the switch head afterwards.
                let body_out = self.build_stmt(body, Vec::new());
                let broken = self.breaks.pop().unwrap_or_default();
                // Wire dispatch edges.
                let mut has_default = false;
                let case_ids: Vec<NodeId> = self
                    .cfg
                    .nodes
                    .iter()
                    .enumerate()
                    .filter(|(i, n)| {
                        *i > c
                            && matches!(n.kind, NodeKind::Case(_) | NodeKind::Default)
                            && n.loop_head == self.cfg.nodes[c].loop_head
                            // A case already dispatched belongs to a
                            // nested switch built earlier.
                            && self.cfg.pred[*i].iter().all(|&(_, k)| k != EdgeKind::Case)
                    })
                    .map(|(i, _)| i)
                    .collect();
                for id in case_ids {
                    if matches!(self.cfg.nodes[id].kind, NodeKind::Default) {
                        has_default = true;
                    }
                    self.connect(c, id, EdgeKind::Case);
                }
                let mut out: Dangling = body_out;
                if !has_default {
                    out.push((c, EdgeKind::False));
                }
                out.extend(broken.into_iter().map(|n| (n, EdgeKind::Fall)));
                out
            }
        }
    }

    /// Builds the body of the loop headed by `head`, entered by `entry`,
    /// where `continue` jumps to `cont`. Returns the body's dangling
    /// exits and its `break` nodes.
    fn build_loop_body(
        &mut self,
        head: NodeId,
        cont: NodeId,
        body: &'a Stmt,
        entry: (NodeId, EdgeKind),
    ) -> (Dangling, Vec<NodeId>) {
        self.breaks.push(Vec::new());
        self.continues.push(cont);
        self.loop_head = Some(head);
        let body_out = self.build_stmt(body, vec![entry]);
        self.loop_head = self.cfg.nodes[head].loop_head;
        self.continues.pop();
        (body_out, self.breaks.pop().unwrap_or_default())
    }

    fn resolve_gotos(&mut self) {
        let gotos = std::mem::take(&mut self.gotos);
        for (n, label) in gotos {
            match self.labels.get(label) {
                Some(&target) => self.connect(n, target, EdgeKind::Goto),
                None => {
                    // Unknown label (macro-hidden or parse loss): treat
                    // as function exit so paths stay conservative.
                    let exit = self.cfg.exit;
                    self.connect(n, exit, EdgeKind::Goto);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::{parse_str, TranslationUnit};

    fn unit(body: &str) -> TranslationUnit {
        parse_str("t.c", &format!("int f(int a, int b) {{ {body} }}"))
    }

    fn cfg_of(tu: &TranslationUnit) -> Cfg<'_> {
        Cfg::build(tu.function("f").expect("parsed"))
    }

    #[test]
    fn straight_line() {
        let tu = unit("a = 1; b = 2; return a;");
        let cfg = cfg_of(&tu);
        // entry, exit + 3 statements.
        assert_eq!(cfg.nodes.len(), 5);
        assert!(cfg.reachable(cfg.entry, cfg.exit));
    }

    #[test]
    fn if_has_two_branches() {
        let tu = unit("if (a) b = 1; return b;");
        let cfg = cfg_of(&tu);
        let conds = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Cond(_)));
        assert_eq!(conds.len(), 1);
        let kinds: Vec<EdgeKind> = cfg.succs(conds[0]).iter().map(|&(_, k)| k).collect();
        assert!(kinds.contains(&EdgeKind::True));
        assert!(kinds.contains(&EdgeKind::False));
    }

    #[test]
    fn early_return_bypasses_rest() {
        let tu = unit("if (a) return 1; b = 2; return b;");
        let cfg = cfg_of(&tu);
        let returns = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Stmt(Payload::Return(_))));
        assert_eq!(returns.len(), 2);
        // Both returns flow to exit.
        for r in returns {
            assert!(cfg.succs(r).iter().any(|&(t, _)| t == cfg.exit));
        }
    }

    #[test]
    fn while_loop_has_back_edge() {
        let tu = unit("while (a) { a = a - 1; } return 0;");
        let cfg = cfg_of(&tu);
        let mut back = 0;
        for n in cfg.node_ids() {
            back += cfg
                .succs(n)
                .iter()
                .filter(|&&(_, k)| k == EdgeKind::Back)
                .count();
        }
        assert_eq!(back, 1);
    }

    #[test]
    fn break_leaves_loop() {
        let tu = unit("while (a) { if (b) break; } return 0;");
        let cfg = cfg_of(&tu);
        let breaks = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Stmt(Payload::Break)));
        assert_eq!(breaks.len(), 1);
        // The break's successor is the return statement, not the head.
        let (succ, _) = cfg.succs(breaks[0])[0];
        assert!(matches!(
            cfg.nodes[succ].kind,
            NodeKind::Stmt(Payload::Return(_))
        ));
    }

    #[test]
    fn continue_goes_to_head() {
        let tu = unit("while (a) { if (b) continue; b = 1; } return 0;");
        let cfg = cfg_of(&tu);
        let conts = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Stmt(Payload::Continue)));
        assert_eq!(conts.len(), 1);
        let (succ, kind) = cfg.succs(conts[0])[0];
        assert_eq!(kind, EdgeKind::Back);
        assert!(matches!(cfg.nodes[succ].kind, NodeKind::Cond(_)));
    }

    #[test]
    fn goto_resolves_to_label() {
        let tu = unit("if (a) goto out; b = 1; out: return b;");
        let cfg = cfg_of(&tu);
        let gotos = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Stmt(Payload::Goto(_))));
        let labels = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Label(_)));
        assert_eq!(gotos.len(), 1);
        assert_eq!(labels.len(), 1);
        assert!(cfg
            .succs(gotos[0])
            .iter()
            .any(|&(t, k)| t == labels[0] && k == EdgeKind::Goto));
    }

    #[test]
    fn unknown_goto_goes_to_exit() {
        let tu = unit("goto nowhere;");
        let cfg = cfg_of(&tu);
        let gotos = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Stmt(Payload::Goto(_))));
        assert!(cfg.succs(gotos[0]).iter().any(|&(t, _)| t == cfg.exit));
    }

    #[test]
    fn macro_loop_head_created() {
        let tu = unit(
            "struct device_node *dn; for_each_matching_node(dn, ids) { if (a) break; } return 0;",
        );
        let cfg = cfg_of(&tu);
        let heads = cfg.find_nodes(|n| matches!(n.kind, NodeKind::MacroLoopHead { .. }));
        assert_eq!(heads.len(), 1);
        // The break records the enclosing loop head in its context.
        let breaks = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Stmt(Payload::Break)));
        assert_eq!(cfg.loops_of(breaks[0]).collect::<Vec<_>>(), vec![heads[0]]);
    }

    #[test]
    fn for_loop_step_runs_before_back_edge() {
        let tu = unit("int i; for (i = 0; i < a; i++) { b += i; } return b;");
        let cfg = cfg_of(&tu);
        // The step node exists and has a Back edge to the cond.
        let mut found = false;
        for n in cfg.node_ids() {
            if cfg.succs(n).iter().any(|&(_, k)| k == EdgeKind::Back) {
                found = true;
            }
        }
        assert!(found);
    }

    #[test]
    fn switch_dispatches_to_cases() {
        let tu = unit(
            "switch (a) { case 1: b = 1; break; case 2: b = 2; break; default: b = 0; } return b;",
        );
        let cfg = cfg_of(&tu);
        let case_edges: usize = cfg
            .node_ids()
            .map(|n| {
                cfg.succs(n)
                    .iter()
                    .filter(|&&(_, k)| k == EdgeKind::Case)
                    .count()
            })
            .sum();
        assert_eq!(case_edges, 3);
    }

    #[test]
    fn switch_without_default_falls_through() {
        let tu = unit("switch (a) { case 1: b = 1; } return b;");
        let cfg = cfg_of(&tu);
        let conds = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Cond(_)));
        // The switch head has a False edge to the code after.
        assert!(cfg
            .succs(conds[0])
            .iter()
            .any(|&(_, k)| k == EdgeKind::False));
    }

    #[test]
    fn nested_loops_context() {
        let tu = unit("while (a) { while (b) { if (a) break; } } return 0;");
        let cfg = cfg_of(&tu);
        let breaks = cfg.find_nodes(|n| matches!(n.kind, NodeKind::Stmt(Payload::Break)));
        assert_eq!(cfg.loops_of(breaks[0]).count(), 2);
    }

    /// A graph holds one node per statement and condition of its body,
    /// so the node's size sets most of a graph's bytes.
    #[test]
    fn node_size_stays_compact() {
        use std::mem::size_of;
        assert!(
            size_of::<CfgNode>() <= 72,
            "CfgNode is {} bytes",
            size_of::<CfgNode>()
        );
    }

    /// Node kinds and edges, in creation order.
    type Shape<'a> = Vec<(
        std::mem::Discriminant<NodeKind<'a>>,
        &'a [(NodeId, EdgeKind)],
    )>;

    fn shape<'a>(cfg: &'a Cfg) -> Shape<'a> {
        cfg.node_ids()
            .map(|n| (std::mem::discriminant(&cfg.nodes[n].kind), cfg.succs(n)))
            .collect()
    }

    #[test]
    fn else_if_arms_build_like_nested_ifs() {
        for tail in ["", " else b = 4;"] {
            let chain = unit(&format!(
                "if (a) b = 1; else if (b) b = 2; else if (a < b) b = 3;{tail} return b;"
            ));
            let nested = unit(&format!(
                "if (a) b = 1; else {{ if (b) b = 2; else {{ if (a < b) b = 3;{tail} }} }} return b;"
            ));
            let (chain, nested) = (cfg_of(&chain), cfg_of(&nested));
            assert_eq!(shape(&chain), shape(&nested), "tail {tail:?}");
            let conds = chain.find_nodes(|n| matches!(n.kind, NodeKind::Cond(_)));
            let lines: Vec<u32> = conds.iter().map(|&c| chain.nodes[c].span.line).collect();
            assert_eq!(lines, vec![1, 1, 1]);
        }
    }

    #[test]
    fn do_while_executes_body_first() {
        let tu = unit("do { a = 1; } while (b); return a;");
        let cfg = cfg_of(&tu);
        let heads = cfg.find_nodes(|n| matches!(n.kind, NodeKind::LoopHead));
        assert_eq!(heads.len(), 1);
        // Entry's successor chain passes through the loop head into the
        // body before any condition.
        let (first, _) = cfg.succs(cfg.entry)[0];
        assert_eq!(first, heads[0]);
    }
}
