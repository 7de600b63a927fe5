//! Error-handling-block classification (the paper's `B_error` context).
//!
//! Two shapes count as error handling in kernel code (§7 "two kinds of
//! error-handling locations"):
//!
//! 1. the *premature exit*: the True branch of a check like
//!    `if (ret < 0)`, `if (!ptr)`, `if (IS_ERR(x))` that leads to a
//!    `return`/`goto` before the function's main work completes;
//! 2. the *error label*: statements following labels named `err*`,
//!    `out*`, `fail*`, `cleanup*`, ...

use std::collections::HashSet;

use crate::cfg::{Cfg, EdgeKind, NodeId, NodeKind};
use crate::facts::{CheckFact, NodeFacts};

/// Label names that conventionally begin error-handling code.
pub fn is_error_label(name: &str) -> bool {
    let n = name.to_ascii_lowercase();
    n.starts_with("err")
        || n.starts_with("out")
        || n.starts_with("fail")
        || n.starts_with("bail")
        || n.starts_with("cleanup")
        || n.starts_with("unwind")
        || n.starts_with("free")
        || n.starts_with("put")
        || n.starts_with("release")
        || n.starts_with("undo")
        || n.starts_with("abort")
        || n.starts_with("drop")
        || n.starts_with("unlock")
        || n.starts_with("unmap")
        || n.starts_with("disable")
        || n.starts_with("exit")
}

/// Computes the set of nodes that belong to error-handling blocks.
///
/// `facts` must be parallel to `cfg.nodes`.
pub fn error_nodes(cfg: &Cfg, facts: &[NodeFacts]) -> HashSet<NodeId> {
    let mut marked: HashSet<NodeId> = HashSet::new();

    // Shape 2: error labels color everything that follows them up to
    // the exit (flood along Fall/Goto edges, stopping at fresh labels
    // that are *not* error labels).
    for n in cfg.node_ids() {
        if let NodeKind::Label(name) = &cfg.nodes[n].kind {
            if is_error_label(name) {
                flood_forward(cfg, n, &mut marked);
            }
        }
    }

    // Shape 1: the True branch of an error check, when it is a short
    // bail-out region (reaches exit without re-joining long code). We
    // approximate "bail-out" as: every node in the flooded region is a
    // straight-line statement, and the region ends in return/goto.
    for n in cfg.node_ids() {
        let is_err_cond = matches!(cfg.nodes[n].kind, NodeKind::Cond(_))
            && facts[n]
                .checks
                .iter()
                .any(|c| matches!(c, CheckFact::ErrOnTrue(_) | CheckFact::NullOnTrue(_)));
        if !is_err_cond {
            continue;
        }
        for &(succ, kind) in cfg.succs(n) {
            if kind != EdgeKind::True {
                continue;
            }
            if let Some(region) = bailout_region(cfg, succ) {
                marked.extend(region);
            }
        }
    }
    marked
}

/// Computes the nodes belonging to NULL-guard bailouts of `var`: the
/// True-branch regions of checks like `if (!var) return -ENODEV;` or
/// `if (IS_ERR(var)) return PTR_ERR(var);`.
///
/// When an acquired pointer is NULL (or an `ERR_PTR` sentinel), no
/// reference was taken, so the bailout legitimately skips the
/// decrement; checkers exclude these regions from "leaky error path"
/// matching.
pub fn null_guard_nodes(cfg: &Cfg, facts: &[NodeFacts], var: &str) -> HashSet<NodeId> {
    let mut marked = HashSet::new();
    for n in cfg.node_ids() {
        let guards = matches!(cfg.nodes[n].kind, NodeKind::Cond(_))
            && facts[n].checks.iter().any(|c| {
                matches!(c,
                    CheckFact::NullOnTrue(v) | CheckFact::ErrPtrOnTrue(v) if *v == var)
            });
        if !guards {
            continue;
        }
        for &(succ, kind) in cfg.succs(n) {
            if kind != EdgeKind::True {
                continue;
            }
            if let Some(region) = bailout_region(cfg, succ) {
                marked.extend(region);
            }
        }
    }
    marked
}

/// Floods forward along non-back edges from `start`, inserting into
/// `marked`.
fn flood_forward(cfg: &Cfg, start: NodeId, marked: &mut HashSet<NodeId>) {
    let mut stack = vec![start];
    while let Some(n) = stack.pop() {
        if !marked.insert(n) {
            continue;
        }
        for &(s, kind) in cfg.succs(n) {
            if kind == EdgeKind::Back {
                continue;
            }
            stack.push(s);
        }
    }
}

/// If the region starting at `start` is a short straight bail-out
/// (statements then return/goto/exit, no branching back into main
/// code), returns its node set.
fn bailout_region(cfg: &Cfg, start: NodeId) -> Option<Vec<NodeId>> {
    let mut region = Vec::new();
    let mut cur = start;
    for _ in 0..32 {
        match &cfg.nodes[cur].kind {
            NodeKind::Exit => return Some(region),
            NodeKind::Stmt(payload) => {
                region.push(cur);
                use crate::cfg::Payload;
                match payload {
                    Payload::Return(_) | Payload::Goto(_) | Payload::Break | Payload::Continue => {
                        return Some(region);
                    }
                    _ => {}
                }
            }
            NodeKind::Label(_) => {
                // Entering a label means joining shared code; only an
                // error label keeps the region an error region (it is
                // already flooded by shape 2 anyway).
                return Some(region);
            }
            NodeKind::Cond(_) | NodeKind::MacroLoopHead { .. } => return None,
            _ => region.push(cur),
        }
        let mut next = None;
        for &(s, kind) in cfg.succs(cur) {
            if kind == EdgeKind::Back {
                continue;
            }
            if next.is_some() {
                return None; // Branches: not a straight bail-out.
            }
            next = Some(s);
        }
        cur = next?;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::NodeFacts;
    use refminer_cparse::{parse_str, TranslationUnit};

    fn unit(body: &str) -> TranslationUnit {
        parse_str(
            "t.c",
            &format!("int f(struct device *dev) {{ struct device_node *np; int ret; {body} }}"),
        )
    }

    fn analyze(tu: &TranslationUnit) -> (Cfg<'_>, Vec<NodeFacts<'_>>, HashSet<NodeId>) {
        let cfg = Cfg::build(tu.function("f").unwrap());
        let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
        let errs = error_nodes(&cfg, &facts);
        (cfg, facts, errs)
    }

    #[test]
    fn error_label_names() {
        assert!(is_error_label("err"));
        assert!(is_error_label("err_unmap"));
        assert!(is_error_label("out_free"));
        assert!(is_error_label("fail2"));
        assert!(!is_error_label("retry"));
        assert!(!is_error_label("loop_top"));
    }

    #[test]
    fn premature_return_is_error_block() {
        let tu = unit("ret = do_thing(); if (ret < 0) return ret; do_more(); return 0;");
        let (cfg, facts, errs) = analyze(&tu);
        // The `return ret` inside the check must be marked.
        let ret_nodes: Vec<_> = cfg
            .node_ids()
            .filter(|&i| facts[i].is_return && facts[i].returns_var == Some("ret"))
            .collect();
        assert!(ret_nodes.iter().any(|n| errs.contains(n)));
        // The trailing `return 0` must not be.
        let final_ret = cfg
            .node_ids()
            .find(|&i| facts[i].is_return && facts[i].returns_var.is_none())
            .unwrap();
        assert!(!errs.contains(&final_ret));
    }

    #[test]
    fn error_label_block_marked() {
        let tu = unit(
            "ret = do_thing(); if (ret) goto err_put; return 0; err_put: of_node_put(np); return ret;",
        );
        let (cfg, facts, errs) = analyze(&tu);
        let put = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("of_node_put"))
            .unwrap();
        assert!(errs.contains(&put));
    }

    #[test]
    fn null_check_bailout_marked() {
        let tu = unit("np = find_thing(); if (!np) return -ENODEV; use_thing(np); return 0;");
        let (cfg, facts, errs) = analyze(&tu);
        let bail = cfg
            .node_ids()
            .find(|&i| facts[i].is_return && facts[i].returns_error)
            .unwrap();
        assert!(errs.contains(&bail));
        let use_node = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("use_thing"))
            .unwrap();
        assert!(!errs.contains(&use_node));
    }

    #[test]
    fn success_path_not_marked() {
        let tu = unit("do_a(); do_b(); return 0;");
        let (cfg, facts, errs) = analyze(&tu);
        for i in cfg.node_ids() {
            let _ = &facts[i];
            assert!(!errs.contains(&i));
        }
    }

    #[test]
    fn nested_goto_chain_into_shared_label() {
        // The staged-teardown idiom: a later failure jumps to `err_b`,
        // which falls through into the shared `err_a` tail. Every stage
        // of the chain is error-handling code.
        let tu = unit(
            "ret = do_a(); if (ret) goto err_a; \
             ret = do_b(); if (ret) goto err_b; \
             return 0; \
             err_b: undo_b(np); \
             err_a: undo_a(np); return ret;",
        );
        let (cfg, facts, errs) = analyze(&tu);
        let undo_b = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("undo_b"))
            .unwrap();
        let undo_a = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("undo_a"))
            .unwrap();
        assert!(errs.contains(&undo_b), "first chain stage marked");
        assert!(errs.contains(&undo_a), "shared tail label marked");
        // The success return before the labels stays clean.
        let ok_ret = cfg
            .node_ids()
            .find(|&i| facts[i].is_return && facts[i].returns_var.is_none())
            .unwrap();
        assert!(!errs.contains(&ok_ret));
    }

    #[test]
    fn is_err_or_null_guard_marked() {
        let tu = unit(
            "np = find_thing(); if (IS_ERR_OR_NULL(np)) return -EINVAL; \
             use_thing(np); return 0;",
        );
        let (cfg, facts, errs) = analyze(&tu);
        let bail = cfg
            .node_ids()
            .find(|&i| facts[i].is_return && facts[i].returns_error)
            .unwrap();
        assert!(
            errs.contains(&bail),
            "IS_ERR_OR_NULL bailout is an error block"
        );
        // And it counts as a NULL guard of `np` for the checkers'
        // acquisition-failed exclusion.
        let guards = null_guard_nodes(&cfg, &facts, "np");
        assert!(guards.contains(&bail));
        let use_node = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("use_thing"))
            .unwrap();
        assert!(!errs.contains(&use_node));
    }

    #[test]
    fn early_return_einval_without_label() {
        // Argument validation with no cleanup label at all.
        let tu = unit("if (!dev) return -EINVAL; do_work(dev); return 0;");
        let (cfg, facts, errs) = analyze(&tu);
        let bail = cfg
            .node_ids()
            .find(|&i| facts[i].is_return && facts[i].returns_error)
            .unwrap();
        assert!(
            errs.contains(&bail),
            "label-less early return is an error block"
        );
        let work = cfg
            .node_ids()
            .find(|&i| facts[i].calls_named("do_work"))
            .unwrap();
        assert!(!errs.contains(&work));
    }

    #[test]
    fn error_shapes_keep_stable_feasibility_tags() {
        // Genuine error paths through each shape must never be tagged
        // Infeasible, and the tag must be deterministic across
        // recomputation (findings cache on it).
        use crate::feasibility::{FeasAnalysis, Feasibility};
        use crate::paths::{PathQuery, Step};
        let bodies = [
            // Nested goto chain into a shared label.
            "get_thing(np); ret = do_a(dev); if (ret) goto err_b; \
             put_thing(np); return 0; err_b: undo_b(np); err_a: return ret;",
            // IS_ERR_OR_NULL guard.
            "get_thing(np); if (IS_ERR_OR_NULL(np)) return -EINVAL; \
             ret = do_a(dev); if (ret) return ret; put_thing(np); return 0;",
            // Early return without a label.
            "get_thing(np); if (!dev) return -EINVAL; \
             ret = do_a(dev); if (ret) return ret; put_thing(np); return 0;",
        ];
        for body in bodies {
            let tu = unit(body);
            let (cfg, facts, _) = analyze(&tu);
            let q = PathQuery::new(vec![
                Step::new(|n| facts[n].calls_named("get_thing")),
                Step::new(|n| n == cfg.exit).avoiding(|n| facts[n].calls_named("put_thing")),
            ]);
            assert!(
                q.search_from_entry(&cfg).is_some(),
                "leaky path exists: {body}"
            );
            let first = FeasAnalysis::compute(&cfg, &facts).classify(&q, &cfg, cfg.entry);
            let second = FeasAnalysis::compute(&cfg, &facts).classify(&q, &cfg, cfg.entry);
            assert_ne!(
                first,
                Feasibility::Infeasible,
                "real error path pruned: {body}"
            );
            assert_eq!(first, second, "feasibility tag unstable: {body}");
        }
    }
}
