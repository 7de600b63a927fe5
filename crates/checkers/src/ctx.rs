//! Checker context and shared helper predicates.

use std::collections::HashSet;

use refminer_cparse::TranslationUnit;
use refminer_cpg::{FunctionGraph, NodeId, StoreTarget};
use refminer_progdb::ProgramDb;
use refminer_rcapi::{is_kfree_family, ApiKb, RcApi};
use refminer_trace::TraceHandle;

/// Everything a checker sees for one function.
pub struct CheckCtx<'a> {
    /// The file the function lives in.
    pub file: &'a str,
    /// The function's code property graph.
    pub graph: &'a FunctionGraph<'a>,
    /// The API knowledge base.
    pub kb: &'a ApiKb,
    /// The containing translation unit (ops tables, globals).
    pub unit: &'a TranslationUnit,
    /// The names of the unit's global variables, collected once per
    /// unit: a store into one is an escape.
    pub globals: &'a HashSet<&'a str>,
    /// Graphs of all functions in the unit (for inter-paired lookups).
    pub all_graphs: &'a [FunctionGraph<'a>],
    /// The program-wide function-summary database. Helper effects
    /// resolve through it under linkage rules: same-unit definitions
    /// first, external definitions tree-wide in whole-program audits.
    pub program: &'a ProgramDb,
    /// Span handle for the trace recorder. Disabled outside traced
    /// audits; checkers may use it for fine-grained counters but must
    /// never let it influence findings.
    pub trace: TraceHandle,
}

impl<'a> CheckCtx<'a> {
    /// Whether node `n` decrements `obj` in a way that pairs with the
    /// increment API `inc` — either directly by name, or through an
    /// alias that the origin analysis traces back to the same call.
    pub fn is_paired_dec(&self, n: NodeId, inc: &RcApi, obj: &str) -> bool {
        let facts = &self.graph.facts[n];
        let accepted = self.kb.accepted_decs(&inc.name);
        facts.calls.iter().any(|c| {
            if !accepted.iter().any(|d| d == c.name) && !self.kb.is_dec(c.name) {
                // Not a refcounting API by name: maybe a helper whose
                // summary says it releases the object.
                return c.args.iter().enumerate().any(|(i, a)| {
                    a.root == Some(obj) && self.program.call_releases(self.file, c.name, i)
                });
            }
            // Any decrement on the object variable (or an alias of the
            // same acquisition) counts.
            let Some(arg) = c.arg_root(0) else {
                return false;
            };
            if arg == obj {
                return true;
            }
            self.graph
                .origins
                .var_from_call(&self.graph.cfg, n, arg, &inc.name)
        })
    }

    /// Whether node `n` is a `return` whose value transfers ownership
    /// of `obj` to the caller — directly (`return obj;`) or wrapped
    /// (`return to_nvmem_device(dev);`, `return ERR_CAST(np);`).
    pub fn returns_object(&self, n: NodeId, obj: &str) -> bool {
        let facts = &self.graph.facts[n];
        if !facts.is_return {
            return false;
        }
        facts.returns_var == Some(obj)
            || facts
                .calls
                .iter()
                .any(|c| c.args.iter().any(|a| a.root == Some(obj)))
    }

    /// Whether node `n` stores `obj` into a longer-lived location
    /// (struct field, indirect store, or a file-scope global), i.e.
    /// transfers ownership out of the function.
    pub fn escapes_object(&self, n: NodeId, obj: &str) -> bool {
        let direct = self.graph.facts[n].assigns.iter().any(|a| {
            if a.rhs_root != Some(obj) {
                return false;
            }
            match a.target {
                StoreTarget::Field { .. } | StoreTarget::Indirect(_) => true,
                StoreTarget::Var(v) => self.globals.contains(v),
                StoreTarget::Other => false,
            }
        });
        // A call into another unit whose summary stores the argument in
        // a long-lived location escapes the object just as surely as a
        // local field store. Same-unit helpers keep the pre-refactor
        // behavior (their stores were never counted as escapes).
        direct
            || self.graph.facts[n].calls.iter().any(|c| {
                c.args.iter().enumerate().any(|(i, a)| {
                    a.root == Some(obj) && self.program.cross_unit_stores(self.file, c.name, i)
                })
            })
    }

    /// Whether node `n` overwrites `obj` with a fresh value (the old
    /// reference is gone; subsequent paths cannot pair it anymore, but
    /// neither should they be blamed on this acquisition).
    pub fn reassigns_object(&self, n: NodeId, obj: &str) -> bool {
        self.graph.facts[n]
            .assigns
            .iter()
            .any(|a| a.target == StoreTarget::Var(obj) && a.rhs_root != Some(obj))
    }

    /// Whether node `n` frees `obj` with a kfree-family call (P7's
    /// direct free).
    pub fn frees_object(&self, n: NodeId, obj: &str) -> bool {
        self.graph.facts[n]
            .calls
            .iter()
            .any(|c| is_kfree_family(c.name) && c.arg_root(0) == Some(obj))
    }

    /// Whether node `n` passes `obj` to any call that is *not* a
    /// recognized refcounting API — a sink that may consume or stash
    /// the reference (used to lower false positives on registration
    /// patterns like `foo_register(np)`).
    pub fn passes_to_consumer(&self, n: NodeId, obj: &str) -> bool {
        self.graph.facts[n].calls.iter().any(|c| {
            if self.kb.get(c.name).is_some() || !consumer_name(c.name) {
                return false;
            }
            c.args.iter().enumerate().any(|(i, a)| {
                if a.root != Some(obj) {
                    return false;
                }
                // When the consumer-named callee is *defined* in another
                // unit, its summary settles the question: it consumes the
                // reference only if it actually releases or stores the
                // argument. Undefined or same-unit callees keep the
                // conservative name-based suppression.
                match self.program.cross_unit_summary(self.file, c.name) {
                    Some(s) => s.releases.contains(&i) || s.stores.contains(&i),
                    None => true,
                }
            })
        })
    }
}

impl<'a> CheckCtx<'a> {
    /// An edge predicate pruning the branches on which `obj` is known
    /// to be NULL (the True edge of `if (!obj)`, the False edge of
    /// `if (obj)`): no reference is held there, so no pairing is owed.
    pub fn null_branch_of(
        &self,
        obj: &str,
    ) -> impl Fn(refminer_cpg::NodeId, refminer_cpg::NodeId, refminer_cpg::EdgeKind) -> bool + '_
    {
        use refminer_cpg::{CheckFact, EdgeKind};
        let obj = obj.to_string();
        move |from, _to, kind| {
            self.graph.facts[from].checks.iter().any(|c| match *c {
                CheckFact::NullOnTrue(v) | CheckFact::ErrPtrOnTrue(v) => {
                    v == obj && kind == EdgeKind::True
                }
                CheckFact::NonNullOnTrue(v) => v == obj && kind == EdgeKind::False,
                _ => false,
            })
        }
    }
}

impl<'a> CheckCtx<'a> {
    /// Whether node `n` calls a helper that releases `obj` (resolved
    /// through the program database under linkage rules).
    pub fn helper_releases(&self, n: NodeId, obj: &str) -> bool {
        self.graph.facts[n].calls.iter().any(|c| {
            c.args.iter().enumerate().any(|(i, a)| {
                a.root == Some(obj) && self.program.call_releases(self.file, c.name, i)
            })
        })
    }
}

/// Call names that conventionally take ownership of their argument.
fn consumer_name(name: &str) -> bool {
    name.contains("register")
        || name.contains("add")
        || name.contains("attach")
        || name.contains("install")
        || name.contains("insert")
        || name.contains("publish")
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;

    /// Runs `check` on the context of the first function of `src`.
    fn with_ctx(src: &str, check: impl FnOnce(&CheckCtx<'_>)) {
        let tu = parse_str("t.c", src);
        let graphs = FunctionGraph::build_all(&tu);
        let globals: HashSet<&str> = tu.globals().map(|g| g.name.as_str()).collect();
        let kb = ApiKb::builtin();
        let db = ProgramDb::empty();
        check(&CheckCtx {
            file: "t.c",
            graph: &graphs[0],
            kb: &kb,
            unit: &tu,
            globals: &globals,
            all_graphs: &graphs,
            program: &db,
            trace: TraceHandle::disabled(),
        });
    }

    #[test]
    fn paired_dec_matches_alias() {
        let src = r#"
int f(void)
{
        struct device_node *np = of_find_node_by_name(NULL, "x");
        struct device_node *alias = np;
        of_node_put(alias);
        return 0;
}
"#;
        with_ctx(src, |ctx| {
            let inc = ctx.kb.get("of_find_node_by_name").unwrap();
            let put = ctx.graph.nodes_calling("of_node_put")[0];
            assert!(ctx.is_paired_dec(put, inc, "np"));
        });
    }

    #[test]
    fn escape_to_global_detected() {
        let src = r#"
static struct device_node *cached;
int f(struct device_node *np)
{
        cached = np;
        return 0;
}
"#;
        with_ctx(src, |ctx| {
            let store = ctx
                .graph
                .cfg
                .node_ids()
                .find(|&i| !ctx.graph.facts[i].assigns.is_empty())
                .unwrap();
            assert!(ctx.escapes_object(store, "np"));
        });
    }

    #[test]
    fn consumer_call_detected() {
        let src = r#"
int f(struct device_node *np)
{
        snd_soc_register_card(np);
        return 0;
}
"#;
        with_ctx(src, |ctx| {
            let call = ctx.graph.nodes_calling("snd_soc_register_card")[0];
            assert!(ctx.passes_to_consumer(call, "np"));
        });
    }
}
