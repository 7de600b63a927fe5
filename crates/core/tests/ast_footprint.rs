//! Pins the memory the parser's tree, and the graphs built over it, take.
//!
//! An audit holds every unit's AST from its parse to the end of the run,
//! so the tree's bytes per source byte set the audit's memory at scale.
//! The graph layer borrows its statements, expressions and names from
//! that tree, so a function's CFG and node facts hold only their own
//! structure. A counting allocator reads the bytes live after parsing a
//! fixed generated tree, then after building every function's CFG and
//! node facts over it. The counts are exact, so the bounds hold on any
//! host. The allocator counts for the whole process, so this file holds
//! one test.

use refminer::corpus::{generate_big_tree, BigTreeConfig};
use refminer::cparse::{parse_str_limited, ParseLimits};
use refminer::cpg::{Cfg, NodeFacts};

#[global_allocator]
static HEAP: refminer_heapcount::Counting = refminer_heapcount::Counting;

/// Live AST bytes allowed per source byte. With exact-size lists and
/// statement nodes of at most 96 bytes the tree below reads 7.7; with
/// `Vec` slack and inline `for` clauses and initializers it read 15.6.
const MAX_AST_BYTES_PER_SOURCE_BYTE: f64 = 8.0;

/// Live CFG and node-fact bytes allowed per AST byte. Graphs that
/// borrow their payloads and link each node to its innermost loop head
/// read 2.16; graphs that cloned expressions, names and loop stacks into
/// their nodes and facts read 3.12.
const MAX_GRAPH_BYTES_PER_AST_BYTE: f64 = 2.5;

#[test]
fn the_ast_takes_at_most_eight_bytes_per_source_byte() {
    let tree = generate_big_tree(&BigTreeConfig {
        seed: 1,
        replicas: 1,
        scale: 1.0,
    });
    assert_eq!(tree.files.len(), 123);
    let source: usize = tree.files.iter().map(|f| f.content.len()).sum();
    let limits = ParseLimits::default();
    let mut units = Vec::with_capacity(tree.files.len());
    let before = refminer_heapcount::live_bytes();
    for f in &tree.files {
        units.push(parse_str_limited(&f.path, &f.content, &limits).unit);
    }
    let ast = refminer_heapcount::live_bytes() - before;
    let ratio = ast as f64 / source as f64;
    assert!(
        ratio <= MAX_AST_BYTES_PER_SOURCE_BYTE,
        "{} units hold {ast} AST bytes for {source} source bytes: {ratio:.2} per byte",
        units.len()
    );

    let functions = units.iter().map(|tu| tu.functions().count()).sum();
    let mut graphs = Vec::with_capacity(functions);
    let before = refminer_heapcount::live_bytes();
    for f in units.iter().flat_map(|tu| tu.functions()) {
        let cfg = Cfg::build(f);
        let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
        graphs.push((cfg, facts));
    }
    let graph = refminer_heapcount::live_bytes() - before;
    let ratio = graph as f64 / ast as f64;
    assert!(
        ratio <= MAX_GRAPH_BYTES_PER_AST_BYTE,
        "{} functions' CFGs and node facts hold {graph} bytes over {ast} AST bytes: {ratio:.2}x",
        graphs.len()
    );
}
