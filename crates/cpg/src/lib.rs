//! # refminer-cpg
//!
//! Code property graphs for kernel-style C functions.
//!
//! This crate turns `refminer-cparse` ASTs into per-function
//! [`FunctionGraph`]s — a control-flow graph ([`Cfg`]) whose nodes carry
//! extracted semantic facts ([`NodeFacts`]), a variable-origin analysis
//! ([`Origins`]), and an error-block classification — and provides the
//! [`PathQuery`] engine that the anti-pattern checkers use to search for
//! bug-witnessing execution paths.
//!
//! Every graph is a view of the unit's AST, which stays the one owner of
//! statement data: CFG node payloads, node facts, origins and a graph's
//! header borrow the AST's expressions, declarations, parameters and
//! names for the lifetime `'a` instead of copying them, and each node
//! names its innermost loop head instead of copying the loop stack. A
//! graph therefore lives inside the scope of the unit it was built
//! from.
//!
//! The design follows §6.1 of the SOSP '23 refcounting study: the
//! paper's JOERN-built CPGs with "line numbers embedded in the graph
//! nodes to represent the execution orders" become explicit CFG edges
//! here, and its template matching becomes product-graph path search.

mod cfg;
mod errorpath;
mod facts;
mod feasibility;
mod graph;
mod origins;
mod paths;

pub use cfg::{Cfg, CfgNode, EdgeKind, NodeId, NodeKind, Payload};
pub use errorpath::{error_nodes, is_error_label, null_guard_nodes};
pub use facts::{ArgFact, AssignFact, CallFact, CheckFact, NodeFacts, StoreTarget};
pub use feasibility::{FeasAnalysis, Feasibility};
pub use graph::{FunctionGraph, GraphCapExceeded};
pub use origins::{Origin, Origins};
pub use paths::{PathQuery, Step};
