//! Integration tests for the path-feasibility engine, exercising the
//! full parse → CFG → facts → fixpoint → classify stack on function
//! bodies. Complements the unit tests inside `src/feasibility.rs`,
//! which cover the abstract domain and single-check pruning; these
//! focus on connective structure (`&&`/`||`) and write modeling that
//! once wrongly suppressed real leaks.

use refminer_cparse::{parse_str, TranslationUnit};
use refminer_cpg::{Cfg, FeasAnalysis, Feasibility, NodeFacts, PathQuery, Step};

fn unit(body: &str) -> TranslationUnit {
    let src = format!("int f(struct device *dev) {{ struct device_node *np; int ret; {body} }}");
    parse_str("t.c", &src)
}

fn build(tu: &TranslationUnit) -> (Cfg<'_>, Vec<NodeFacts<'_>>, FeasAnalysis) {
    let cfg = Cfg::build(tu.function("f").unwrap());
    let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
    let feas = FeasAnalysis::compute(&cfg, &facts);
    (cfg, facts, feas)
}

fn leak_query<'a>(cfg: &'a Cfg, facts: &'a [NodeFacts]) -> PathQuery<'a> {
    PathQuery::new(vec![
        Step::new(move |n| facts[n].calls_named("get_thing")),
        Step::new(move |n| n == cfg.exit).avoiding(move |n| facts[n].calls_named("put_thing")),
    ])
}

#[test]
fn disjunction_true_edge_is_not_pruned() {
    // np is known non-NULL after the guard, but `!np || ret < 0` can
    // still be true via ret < 0 — the goto err edge is feasible and the
    // leak is real.
    let tu = unit(
        "np = find_thing(dev); if (!np) return -ENODEV; \
         get_thing(np); ret = do_thing(dev); \
         if (!np || ret < 0) goto err; \
         put_thing(np); return 0; err: return ret;",
    );
    let (cfg, facts, feas) = build(&tu);
    let q = leak_query(&cfg, &facts);
    assert!(q.search_from_entry(&cfg).is_some(), "leaky path exists");
    let v = feas.classify(&q, &cfg, cfg.entry);
    assert_ne!(v, Feasibility::Infeasible, "real leak wrongly suppressed");
}

#[test]
fn fully_dead_disjunction_is_still_pruned() {
    // Both disjuncts are individually impossible (np non-NULL, ret ==
    // 0), so the structural fix must not stop pruning genuinely dead
    // disjunction edges.
    let tu = unit(
        "np = find_thing(dev); if (!np) return -ENODEV; \
         get_thing(np); ret = 0; \
         if (!np || ret) goto err; \
         put_thing(np); return 0; err: return -EINVAL;",
    );
    let (cfg, facts, feas) = build(&tu);
    let q = leak_query(&cfg, &facts);
    assert!(q.search_from_entry(&cfg).is_some(), "syntactic path exists");
    let v = feas.classify(&q, &cfg, cfg.entry);
    assert_eq!(v, Feasibility::Infeasible, "dead disjunction not pruned");
}

#[test]
fn conjunction_false_edge_is_not_pruned() {
    // `np && !ret` false with np known non-NULL only says `!ret` may
    // have failed; the else edge must not assert np == NULL or prune.
    let tu = unit(
        "np = find_thing(dev); if (!np) return -ENODEV; \
         get_thing(np); ret = do_thing(dev); \
         if (np && !ret) { put_thing(np); return 0; } \
         return ret;",
    );
    let (cfg, facts, feas) = build(&tu);
    let q = leak_query(&cfg, &facts);
    assert!(q.search_from_entry(&cfg).is_some(), "leaky path exists");
    let v = feas.classify(&q, &cfg, cfg.entry);
    assert_ne!(v, Feasibility::Infeasible, "real leak wrongly suppressed");
}

#[test]
fn postfix_increment_defeats_constancy() {
    // ret++ makes ret == 1 at the test; the error path is real.
    let tu = unit(
        "get_thing(np); ret = 0; ret++; if (ret) goto err; \
         put_thing(np); return 0; err: return -EINVAL;",
    );
    let (cfg, facts, feas) = build(&tu);
    let q = leak_query(&cfg, &facts);
    assert!(q.search_from_entry(&cfg).is_some(), "leaky path exists");
    let v = feas.classify(&q, &cfg, cfg.entry);
    assert_ne!(v, Feasibility::Infeasible, "real leak wrongly suppressed");
}

#[test]
fn postfix_decrement_defeats_constancy() {
    let tu = unit(
        "get_thing(np); ret = 1; ret--; if (!ret) goto err; \
         put_thing(np); return 0; err: return -EINVAL;",
    );
    let (cfg, facts, feas) = build(&tu);
    let q = leak_query(&cfg, &facts);
    assert!(q.search_from_entry(&cfg).is_some(), "leaky path exists");
    let v = feas.classify(&q, &cfg, cfg.entry);
    assert_ne!(v, Feasibility::Infeasible, "real leak wrongly suppressed");
}

#[test]
fn negated_conjunction_distributes() {
    // `!(np && ret == 0)` is `!np || ret != 0`; with np non-NULL the
    // true edge can still fire via ret != 0.
    let tu = unit(
        "np = find_thing(dev); if (!np) return -ENODEV; \
         get_thing(np); ret = do_thing(dev); \
         if (!(np && ret == 0)) goto err; \
         put_thing(np); return 0; err: return ret;",
    );
    let (cfg, facts, feas) = build(&tu);
    let q = leak_query(&cfg, &facts);
    assert!(q.search_from_entry(&cfg).is_some(), "leaky path exists");
    let v = feas.classify(&q, &cfg, cfg.entry);
    assert_ne!(v, Feasibility::Infeasible, "real leak wrongly suppressed");
}
