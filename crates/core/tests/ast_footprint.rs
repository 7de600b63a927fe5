//! Pins the memory the parser's tree takes per byte of source.
//!
//! An audit holds every unit's AST from its parse to the end of the run,
//! so the tree's bytes per source byte set the audit's memory at scale.
//! A counting allocator reads the bytes live after parsing a fixed
//! generated tree. The count is exact, so the bound holds on any host.

use refminer::corpus::{generate_big_tree, BigTreeConfig};
use refminer::cparse::{parse_str_limited, ParseLimits};

#[global_allocator]
static HEAP: refminer_heapcount::Counting = refminer_heapcount::Counting;

/// Live AST bytes allowed per source byte. With exact-size lists and
/// statement nodes of at most 96 bytes the tree below reads 7.7; with
/// `Vec` slack and inline `for` clauses and initializers it read 15.6.
const MAX_AST_BYTES_PER_SOURCE_BYTE: f64 = 8.0;

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
}
