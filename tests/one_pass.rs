//! Phase 1's one-pass shortcuts against the slower paths they replace.
//!
//! The audit lexes each unit once and reads its `#define`s off that lex,
//! extracts each unit's exports from CFGs and node facts instead of full
//! function graphs, and computes variable origins with a sharing
//! fixpoint. Each shortcut must give exactly what the plain path gives,
//! on generated, cross-unit, fp-trap and chaos-mutated trees:
//!
//! - an untruncated parse's defines equal `scan_defines` of the text;
//! - `UnitExports::of_unit` equals `UnitExports::extract` over the
//!   unit's graphs built under the same node cap;
//! - `Origins::compute` answers `after` and `at` exactly as the plain
//!   fixpoint below, kept here as the reference.

use std::collections::{BTreeMap, BTreeSet};

use refminer::clex::scan_defines;
use refminer::corpus::{apply_chaos, generate_tree, ChaosConfig, TreeConfig};
use refminer::cparse::{parse_str_limited, ParseLimits, TranslationUnit};
use refminer::cpg::{
    Cfg, FunctionGraph, NodeFacts, NodeId, NodeKind, Origin, Origins, StoreTarget,
};
use refminer::progdb::UnitExports;
use refminer::AuditLimits;

/// A named list of `(path, source)` units.
type Corpus = (&'static str, Vec<(String, String)>);

fn sources(config: &TreeConfig) -> Vec<(String, String)> {
    generate_tree(config)
        .files
        .into_iter()
        .map(|f| (f.path, f.content))
        .collect()
}

/// The Table 4 tree.
fn table4() -> Corpus {
    ("table4", sources(&TreeConfig::default()))
}

fn fp_traps() -> Corpus {
    let config = TreeConfig {
        scale: 0.2,
        fp_traps: true,
        ..Default::default()
    };
    ("fp-trap", sources(&config))
}

fn cross_unit() -> Corpus {
    let config = TreeConfig {
        scale: 0.2,
        cross_unit: true,
        ..Default::default()
    };
    ("cross-unit", sources(&config))
}

/// A tree with the vendor module's custom smartloops, half its files
/// corrupted by every mutation kind.
fn chaos() -> Corpus {
    let tree = generate_tree(&TreeConfig {
        scale: 0.1,
        include_vendor: true,
        ..Default::default()
    });
    let config = ChaosConfig {
        seed: 7,
        ratio: 0.5,
        ..Default::default()
    };
    ("chaos", apply_chaos(&tree, &config).to_sources())
}

fn parse(path: &str, text: &str) -> TranslationUnit {
    parse_str_limited(path, text, &ParseLimits::default()).unit
}

#[test]
fn untruncated_parse_defines_equal_scan_defines() {
    for (name, units) in [table4(), cross_unit(), chaos()] {
        let mut compared = 0;
        for (path, text) in &units {
            let out = parse_str_limited(path, text, &ParseLimits::default());
            assert!(!out.truncated, "{name}: {path} hit the default token cap");
            assert_eq!(
                out.defines,
                scan_defines(text),
                "{name}: {path}: the parse's defines differ from scan_defines"
            );
            compared += out.defines.len();
        }
        assert!(compared > 0, "{name}: no #define compared");
    }
}

#[test]
fn unit_exports_from_cfgs_equal_exports_from_graphs() {
    let default_cap = AuditLimits::default().max_graph_nodes;
    for (name, units) in [table4(), fp_traps(), cross_unit(), chaos()] {
        // The small cap skips some functions, which must drop out of
        // both paths alike.
        for cap in [default_cap, 24] {
            for (path, text) in &units {
                let tu = parse(path, text);
                let (graphs, _, _) = FunctionGraph::build_all_limited_timed(&tu, cap);
                let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
                assert_eq!(
                    UnitExports::of_unit(path, &tu, cap),
                    UnitExports::extract(path, &graphs, &globals),
                    "{name}: {path} at cap {cap}"
                );
            }
        }
    }
}

type Env<'a> = BTreeMap<String, BTreeSet<Origin<'a>>>;

/// The plain origin fixpoint: a full environment per node, worklist
/// membership by linear search. Same visit order and transfer function
/// as `Origins::compute`.
fn reference_origins<'a>(cfg: &Cfg<'a>, facts: &[NodeFacts<'a>], params: &[&str]) -> Vec<Env<'a>> {
    let n = cfg.nodes.len();
    let mut out: Vec<Env> = vec![Env::new(); n];
    for p in params {
        out[cfg.entry]
            .entry(p.to_string())
            .or_default()
            .insert(Origin::Param);
    }
    let mut work: Vec<NodeId> = cfg.node_ids().collect();
    let mut iterations = 0usize;
    let cap = n.saturating_mul(64).max(1024);
    while let Some(node) = work.pop() {
        iterations += 1;
        if iterations > cap {
            break;
        }
        let mut env = if node == cfg.entry {
            out[cfg.entry].clone()
        } else {
            let mut e = Env::new();
            for &(p, _) in cfg.preds(node) {
                for (var, origins) in &out[p] {
                    e.entry(var.clone())
                        .or_default()
                        .extend(origins.iter().cloned());
                }
            }
            e
        };
        for a in &facts[node].assigns {
            let StoreTarget::Var(dest) = a.target else {
                continue;
            };
            let mut set = BTreeSet::new();
            if let Some(name) = a.rhs_call {
                set.insert(Origin::Call { name, node });
            } else if let Some(src) = a.rhs_root {
                match env.get(src) {
                    Some(origins) => set.extend(origins.iter().cloned()),
                    None => {
                        set.insert(Origin::Other);
                    }
                }
            } else {
                set.insert(Origin::Other);
            }
            env.insert(dest.to_string(), set);
        }
        if let NodeKind::MacroLoopHead { name, args } = cfg.nodes[node].kind {
            for arg in args {
                if let Some(var) = arg.as_ident() {
                    let call = Origin::Call { name, node };
                    env.insert(var.to_string(), BTreeSet::from([call]));
                }
            }
        }
        if env != out[node] {
            out[node] = env;
            for &(s, _) in cfg.succs(node) {
                if !work.contains(&s) {
                    work.push(s);
                }
            }
        }
    }
    out
}

#[test]
fn origins_match_the_reference_fixpoint() {
    let cap = AuditLimits::default().max_graph_nodes;
    for (name, units) in [table4(), fp_traps(), cross_unit(), chaos()] {
        let mut functions = 0;
        for (path, text) in &units {
            let tu = parse(path, text);
            for func in tu.functions() {
                let Ok(cfg) = Cfg::build_limited(func, cap) else {
                    continue;
                };
                let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
                let params: Vec<&str> = func
                    .params
                    .iter()
                    .filter_map(|p| p.name.as_deref())
                    .collect();
                let reference = reference_origins(&cfg, &facts, &params);
                let origins = Origins::compute(&cfg, &facts, &params);
                let vars: BTreeSet<&str> = reference
                    .iter()
                    .flat_map(|env| env.keys().map(String::as_str))
                    .collect();
                let at_ref = |n: NodeId, var: &str| -> BTreeSet<&Origin> {
                    let mut preds: Vec<NodeId> = cfg.preds(n).iter().map(|&(p, _)| p).collect();
                    if n == cfg.entry {
                        preds.push(n);
                    }
                    preds
                        .into_iter()
                        .filter_map(|p| reference[p].get(var))
                        .flatten()
                        .collect()
                };
                for n in cfg.node_ids() {
                    for &var in &vars {
                        let after: BTreeSet<&Origin> = origins.after(n, var).collect();
                        let after_ref: BTreeSet<&Origin> =
                            reference[n].get(var).into_iter().flatten().collect();
                        assert_eq!(
                            after, after_ref,
                            "{name}: {path}: {}: after node {n}, `{var}`",
                            func.name
                        );
                        assert_eq!(
                            origins.at(&cfg, n, var),
                            at_ref(n, var),
                            "{name}: {path}: {}: at node {n}, `{var}`",
                            func.name
                        );
                    }
                }
                functions += 1;
            }
        }
        assert!(functions > 0, "{name}: no function compared");
    }
}
