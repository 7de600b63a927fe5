//! # refminer-progdb
//!
//! The whole-program function-summary database behind the two-phase
//! audit. Phase 1 extracts a [`UnitExports`] per translation unit — for
//! every function definition, which refcounting effects it applies to
//! which of its parameters (directly, through calls, or by storing them
//! into long-lived locations). The exports are pure data: no ASTs, no
//! graphs, so they serialize into the incremental cache. A barrier then
//! merges all exports into a [`ProgramDb`], resolving calls under
//! **linkage-aware identity**: a `static` helper is visible only inside
//! its own unit, while an external definition is visible tree-wide (the
//! first external definition in unit order wins, mirroring the one-
//! definition rule). Phase 2 checkers query the db through `CheckCtx`,
//! so `InterUnpairedChecker` and `HiddenApiChecker` resolve helpers
//! defined anywhere in the tree.
//!
//! The effect propagation replicates what the old per-unit
//! `HelperSummaries` fixpoint computed — a knowledge-base match on the
//! callee name always shadows helper resolution, release/acquire
//! effects flow from callee parameters to caller parameters through the
//! argument map — and extends it with a `stores` effect (the callee
//! parks the parameter in a field, out-parameter, or global) used for
//! cross-unit escape reasoning.

use std::collections::HashMap;

use refminer_cparse::{Param, TranslationUnit};
use refminer_cpg::{Cfg, FunctionGraph, NodeFacts, NodeKind, StoreTarget};
use refminer_rcapi::{ApiKb, ObjectFlow, RcApi, RcClass, RcDir, SmartLoop};

/// The refcounting effects one function applies to its parameters.
///
/// Each vector is a set of 0-based parameter indices, in ascending
/// order; `releases`/`acquires` mean the function decrements/increments
/// the refcounter of that argument on some path, `stores` means it
/// parks the argument in a long-lived location (field, out-parameter or
/// global), i.e. the reference escapes into the callee.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Parameters whose refcounter the function decrements.
    pub releases: Vec<usize>,
    /// Parameters whose refcounter the function increments.
    pub acquires: Vec<usize>,
    /// Parameters the function stores into a long-lived location.
    pub stores: Vec<usize>,
}

impl FnSummary {
    /// Effect set `k`: `releases`, `acquires`, `stores` for 0, 1, 2.
    fn part(&self, k: usize) -> &Vec<usize> {
        match k {
            0 => &self.releases,
            1 => &self.acquires,
            _ => &self.stores,
        }
    }

    fn part_mut(&mut self, k: usize) -> &mut Vec<usize> {
        match k {
            0 => &mut self.releases,
            1 => &mut self.acquires,
            _ => &mut self.stores,
        }
    }
}

/// One call made by a function, reduced to what summary propagation
/// needs: the callee name and, per argument position, which caller
/// parameter (if any) the argument is rooted in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CallSite {
    /// Callee name.
    pub callee: String,
    /// `args[i]` is the caller parameter index the `i`-th argument is
    /// rooted in, or `None` for literals, locals, and globals.
    pub args: Vec<Option<usize>>,
}

/// The exportable digest of one function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnExport {
    /// Function name.
    pub name: String,
    /// Whether the definition is `static` (unit-local linkage).
    pub is_static: bool,
    /// Every direct call, in CFG-node order.
    pub calls: Vec<CallSite>,
    /// Parameters stored directly into long-lived locations.
    pub stores: Vec<usize>,
}

/// All function exports of one translation unit.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UnitExports {
    /// Unit path (the identity used for linkage scoping).
    pub path: String,
    /// One export per function definition, in source order.
    pub fns: Vec<FnExport>,
    /// The macro names the exported functions open macro loops with
    /// (`for_each_child_of_node`), each once, in first-use order. The
    /// checkers look these names up in the knowledge base, as
    /// smartloops and as call origins.
    pub loop_heads: Vec<String>,
}

fn push_unique(v: &mut Vec<usize>, idx: usize) {
    if !v.contains(&idx) {
        v.push(idx);
    }
}

impl FnExport {
    /// Extracts one function's export from its header, its CFG and the
    /// CFG's node facts — all the digest reads. The origin, error-block
    /// and feasibility analyses of a full [`FunctionGraph`] never enter
    /// it.
    ///
    /// `globals` are the unit's global variable names; a store into one
    /// of them counts as an escape (mirroring the checkers' notion of
    /// "escapes to a long-lived location").
    pub fn extract(
        name: &str,
        params: &[Param],
        is_static: bool,
        cfg: &Cfg,
        facts: &[NodeFacts],
        globals: &[String],
    ) -> Self {
        let params: Vec<Option<&str>> = params.iter().map(|p| p.name.as_deref()).collect();
        let param_index = |root: Option<&str>| -> Option<usize> {
            let root = root?;
            params.iter().position(|p| *p == Some(root))
        };
        let mut calls = Vec::new();
        let mut stores = Vec::new();
        for n in cfg.node_ids() {
            for call in &facts[n].calls {
                calls.push(CallSite {
                    callee: call.name.to_string(),
                    args: call.args.iter().map(|a| param_index(a.root)).collect(),
                });
            }
            for assign in &facts[n].assigns {
                let Some(idx) = param_index(assign.rhs_root) else {
                    continue;
                };
                let escapes = match &assign.target {
                    StoreTarget::Field { .. } | StoreTarget::Indirect(_) => true,
                    StoreTarget::Var(v) => globals.iter().any(|name| name == v),
                    StoreTarget::Other => false,
                };
                if escapes {
                    push_unique(&mut stores, idx);
                }
            }
        }
        FnExport {
            name: name.to_string(),
            is_static,
            calls,
            stores,
        }
    }
}

/// Adds the macro name of each of `cfg`'s macro-loop heads to `heads`,
/// unless it is there already.
fn add_loop_heads(cfg: &Cfg, heads: &mut Vec<String>) {
    for node in &cfg.nodes {
        if let NodeKind::MacroLoopHead { name, .. } = node.kind {
            if !heads.iter().any(|h| h == name) {
                heads.push(name.to_string());
            }
        }
    }
}

impl UnitExports {
    /// Extracts the exports of one unit from its function graphs.
    ///
    /// `globals` are the unit's global variable names (see
    /// [`FnExport::extract`]).
    pub fn extract(path: &str, graphs: &[FunctionGraph], globals: &[String]) -> UnitExports {
        let mut loop_heads = Vec::new();
        for g in graphs {
            add_loop_heads(&g.cfg, &mut loop_heads);
        }
        UnitExports {
            path: path.to_string(),
            fns: graphs
                .iter()
                .map(|g| {
                    FnExport::extract(g.name, g.params, g.is_static, &g.cfg, &g.facts, globals)
                })
                .collect(),
            loop_heads,
        }
    }

    /// Extracts the exports of one unit straight from its AST: every
    /// function whose CFG stays within `max_nodes` gets its CFG and
    /// node facts, never a full graph. Equal to [`UnitExports::extract`]
    /// over the unit's graphs built under the same cap.
    pub fn of_unit(path: &str, tu: &TranslationUnit, max_nodes: usize) -> UnitExports {
        let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
        let mut loop_heads = Vec::new();
        let fns = tu
            .functions()
            .filter_map(|f| {
                let cfg = Cfg::build_limited(f, max_nodes).ok()?;
                add_loop_heads(&cfg, &mut loop_heads);
                let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
                Some(FnExport::extract(
                    &f.name,
                    &f.params,
                    f.is_static,
                    &cfg,
                    &facts,
                    &globals,
                ))
            })
            .collect();
        UnitExports {
            path: path.to_string(),
            fns,
            loop_heads,
        }
    }
}

struct FnInfo {
    is_static: bool,
    unit: usize,
}

/// Build-time names: every function, callee and macro-loop name of the
/// merged units gets a dense id on first sight, so the rest of the
/// build compares and indexes integers. The strings are borrowed from
/// the exports being merged, and each name's knowledge-base API entry
/// is looked up once, on first sight.
struct Names<'a> {
    ids: HashMap<&'a str, u32>,
    names: Vec<&'a str>,
    apis: Vec<Option<&'a RcApi>>,
}

impl<'a> Names<'a> {
    fn id(&mut self, name: &'a str, kb: &'a ApiKb) -> u32 {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = self.names.len() as u32;
        self.ids.insert(name, id);
        self.names.push(name);
        self.apis.push(kb.get(name));
        id
    }

    /// Sorts `ids` by name and drops repeats: the order the deps
    /// fingerprint folds names in.
    fn sort_dedup(&self, ids: &mut Vec<u32>) {
        ids.sort_unstable_by(|&a, &b| self.names[a as usize].cmp(self.names[b as usize]));
        ids.dedup();
    }
}

/// A resolved helper call: the calling and the called definition, and
/// the caller parameter each argument is rooted in.
struct Edge<'a> {
    caller: usize,
    callee: usize,
    args: &'a [Option<usize>],
}

/// Inserts `idx` into the ascending set `set`; whether it was new.
fn insert_sorted(set: &mut Vec<usize>, idx: usize) -> bool {
    match set.binary_search(&idx) {
        Ok(_) => false,
        Err(at) => {
            set.insert(at, idx);
            true
        }
    }
}

/// The merged whole-program view: every function's effect summary,
/// resolvable by `(unit, name)` under C linkage rules.
#[derive(Default)]
pub struct ProgramDb {
    fns: Vec<FnInfo>,
    summaries: Vec<FnSummary>,
    /// Name id of every name with at least one definition; the other
    /// build-time names never resolve, so lookups need only these.
    defined: HashMap<Box<str>, u32>,
    /// `(unit, name id)` → the unit's first definition of the name
    /// (file-scope lookup).
    local: HashMap<(usize, u32), usize>,
    /// Per defined name id: its first non-`static` definition, in unit
    /// order.
    extern_first: Vec<Option<usize>>,
    unit_of_path: HashMap<Box<str>, usize>,
    /// Per unit: the FNV-1a hash of its path, which the deps
    /// fingerprint folds for a resolution's defining unit.
    unit_path_fp: Vec<u64>,
    /// Per unit: the ids of its callee names, sorted by name,
    /// deduplicated (for fingerprints).
    unit_callees: Vec<Vec<u32>>,
    /// Per name id: the FNV-1a hash of the name (0 for names no unit
    /// calls or opens a macro loop with).
    name_fp: Vec<u64>,
    /// Per unit: the fingerprint of the knowledge-base entries of every
    /// name its functions call or open a macro loop with.
    unit_kb: Vec<u64>,
    whole_program: bool,
}

fn resolve(
    local: &HashMap<(usize, u32), usize>,
    extern_first: &[Option<usize>],
    whole_program: bool,
    unit: usize,
    name: u32,
) -> Option<usize> {
    if let Some(&id) = local.get(&(unit, name)) {
        return Some(id);
    }
    if whole_program {
        extern_first.get(name as usize).copied().flatten()
    } else {
        None
    }
}

impl ProgramDb {
    /// An empty database: every lookup misses. The neutral element for
    /// tests and for callers with no program context.
    pub fn empty() -> ProgramDb {
        ProgramDb::default()
    }

    /// Builds the database for a single unit (no cross-unit
    /// resolution) — the shape `check_unit` uses when auditing one
    /// translation unit in isolation.
    pub fn local(
        path: &str,
        graphs: &[FunctionGraph],
        globals: &[String],
        kb: &ApiKb,
    ) -> ProgramDb {
        let exports = UnitExports::extract(path, graphs, globals);
        ProgramDb::build(&[&exports], kb, false)
    }

    /// Merges per-unit exports into the whole-program database.
    ///
    /// `units` must be in a deterministic order (the audit uses unit
    /// index order); external resolution picks the first external
    /// definition in that order. With `whole_program == false` every
    /// lookup stays unit-local, reproducing the pre-refactor per-unit
    /// behavior exactly.
    ///
    /// Every call is resolved once, to its knowledge-base effect or to
    /// a definition, and every distinct name is hashed once; the effect
    /// fixpoint then runs over definition ids alone. Each summary part
    /// is a set, kept as an ascending vector.
    pub fn build(units: &[&UnitExports], kb: &ApiKb, whole_program: bool) -> ProgramDb {
        // Sized up front: growing a map re-hashes every key it holds.
        let (n_fns, n_calls) = units
            .iter()
            .flat_map(|u| &u.fns)
            .fold((0, 0), |(f, c), fun| (f + 1, c + fun.calls.len()));
        let mut names = Names {
            ids: HashMap::with_capacity(n_fns + n_calls),
            names: Vec::new(),
            apis: Vec::new(),
        };
        let mut fns = Vec::with_capacity(n_fns);
        let mut local: HashMap<(usize, u32), usize> = HashMap::with_capacity(n_fns);
        let mut extern_first: Vec<Option<usize>> = Vec::new();
        let mut unit_of_path: HashMap<Box<str>, usize> = HashMap::with_capacity(units.len());
        let mut unit_path_fp = Vec::with_capacity(units.len());
        for (ui, unit) in units.iter().enumerate() {
            if !unit_of_path.contains_key(unit.path.as_str()) {
                unit_of_path.insert(unit.path.as_str().into(), ui);
            }
            unit_path_fp.push(fnv1a(unit.path.as_bytes()));
            for f in &unit.fns {
                let id = fns.len();
                fns.push(FnInfo {
                    is_static: f.is_static,
                    unit: ui,
                });
                let name = names.id(&f.name, kb);
                local.entry((ui, name)).or_insert(id);
                if extern_first.len() <= name as usize {
                    extern_first.resize(name as usize + 1, None);
                }
                if !f.is_static && extern_first[name as usize].is_none() {
                    extern_first[name as usize] = Some(id);
                }
            }
        }
        let defined: HashMap<Box<str>, u32> = names
            .names
            .iter()
            .enumerate()
            .map(|(id, &name)| (name.into(), id as u32))
            .collect();

        // Resolve every call once. A knowledge-base match on the callee
        // name always shadows helper resolution, and its effect on the
        // caller's parameters is final at once; a call resolving to a
        // definition becomes an edge of the fixpoint below.
        let mut summaries = Vec::with_capacity(fns.len());
        let mut edges: Vec<Edge<'_>> = Vec::new();
        let mut unit_callees = Vec::with_capacity(units.len());
        let mut unit_kb = Vec::with_capacity(units.len());
        // Per name id: its FNV-1a hash and KB-entry fingerprint, each
        // computed the first time a unit names it.
        let mut name_fps: Vec<Option<(u64, u64)>> = Vec::new();
        for (ui, unit) in units.iter().enumerate() {
            let mut callees = Vec::new();
            for f in &unit.fns {
                let caller = summaries.len();
                let mut stores = f.stores.clone();
                stores.sort_unstable();
                stores.dedup();
                let mut summary = FnSummary {
                    stores,
                    ..FnSummary::default()
                };
                for call in &f.calls {
                    let name = names.id(&call.callee, kb);
                    callees.push(name);
                    if let Some(api) = names.apis[name as usize] {
                        let obj = api.object_arg();
                        if let Some(idx) = obj.and_then(|o| call.args.get(o).copied().flatten()) {
                            match api.dir {
                                RcDir::Dec => insert_sorted(&mut summary.releases, idx),
                                RcDir::Inc => insert_sorted(&mut summary.acquires, idx),
                            };
                        }
                        continue;
                    }
                    if let Some(callee) = resolve(&local, &extern_first, whole_program, ui, name) {
                        edges.push(Edge {
                            caller,
                            callee,
                            args: &call.args,
                        });
                    }
                }
                summaries.push(summary);
            }
            let mut kb_names = callees.clone();
            names.sort_dedup(&mut callees);
            kb_names.extend(unit.loop_heads.iter().map(|h| names.id(h, kb)));
            names.sort_dedup(&mut kb_names);
            name_fps.resize(names.names.len(), None);
            let mut h = FNV_OFFSET;
            for id in kb_names {
                let (name_fp, entry_fp) = *name_fps[id as usize].get_or_insert_with(|| {
                    let name = names.names[id as usize];
                    let entry = kb_entry_fingerprint(names.apis[id as usize], kb.smartloop(name));
                    (fnv1a(name.as_bytes()), entry)
                });
                h = mix(mix(h, name_fp), entry_fp);
            }
            unit_callees.push(callees);
            unit_kb.push(h);
        }

        // Effect fixpoint over the resolved edges: each callee's effects
        // flow through the argument map into its caller's sets. A round
        // only ever inserts into a set, and each set is bounded by the
        // caller's parameter indices that appear in its stores and call
        // arguments, so the loop ends once a round inserts nothing —
        // at the least fixed point, whatever order the calls run in.
        // That also makes the result independent of which *other* units
        // are in the database: any subset of units closed under call
        // resolution converges to the same summaries.
        let mut flowed = Vec::new();
        loop {
            let mut grew = false;
            for e in &edges {
                for part in 0..3 {
                    flowed.clear();
                    flowed.extend(
                        summaries[e.callee]
                            .part(part)
                            .iter()
                            .filter_map(|&p| e.args.get(p).copied().flatten()),
                    );
                    let into = summaries[e.caller].part_mut(part);
                    for &idx in &flowed {
                        grew |= insert_sorted(into, idx);
                    }
                }
            }
            if !grew {
                break;
            }
        }

        ProgramDb {
            fns,
            summaries,
            defined,
            local,
            extern_first,
            unit_of_path,
            unit_path_fp,
            unit_callees,
            name_fp: name_fps
                .into_iter()
                .map(|fp| fp.map_or(0, |(name_fp, _)| name_fp))
                .collect(),
            unit_kb,
            whole_program,
        }
    }

    /// The defining unit and definition `name` resolves to from `file`.
    fn resolve_from(&self, file: &str, name: &str) -> Option<(usize, usize)> {
        let ui = *self.unit_of_path.get(file)?;
        let name = *self.defined.get(name)?;
        let id = resolve(
            &self.local,
            &self.extern_first,
            self.whole_program,
            ui,
            name,
        )?;
        Some((ui, id))
    }

    /// The summary of `name` as visible from `file`, or `None` if the
    /// name does not resolve to a definition from there.
    pub fn summary_of(&self, file: &str, name: &str) -> Option<&FnSummary> {
        self.resolve_from(file, name)
            .map(|(_, id)| &self.summaries[id])
    }

    /// Whether calling `callee` from `file` releases a reference held
    /// by argument `arg`.
    pub fn call_releases(&self, file: &str, callee: &str, arg: usize) -> bool {
        self.summary_of(file, callee)
            .is_some_and(|s| s.releases.contains(&arg))
    }

    /// The summary of `callee` *only if* it resolves to a definition in
    /// a different unit than `file` — the gate for every behavior
    /// refinement that must leave single-unit results untouched.
    pub fn cross_unit_summary(&self, file: &str, callee: &str) -> Option<&FnSummary> {
        let (ui, id) = self.resolve_from(file, callee)?;
        if self.fns[id].unit == ui {
            return None;
        }
        Some(&self.summaries[id])
    }

    /// Whether `callee`, defined in a *different* unit than `file`,
    /// stores argument `arg` into a long-lived location.
    pub fn cross_unit_stores(&self, file: &str, callee: &str, arg: usize) -> bool {
        self.cross_unit_summary(file, callee)
            .is_some_and(|s| s.stores.contains(&arg))
    }

    /// Whether `callee`, defined in a *different* unit than `file`,
    /// releases any of its first `nargs` parameters.
    pub fn cross_unit_release(&self, file: &str, callee: &str, nargs: usize) -> bool {
        self.cross_unit_summary(file, callee)
            .is_some_and(|s| s.releases.iter().any(|&j| j < nargs))
    }

    /// A fingerprint of everything `file`'s checking consumes from
    /// outside its own text: what the knowledge base says about each
    /// name its functions call or open a macro loop with (its API and
    /// smartloop entries, or their absence), and for each distinct
    /// callee name, where it resolves to and what its merged summary
    /// says. Those are the only names the checkers and the delta engine
    /// look up, and nothing iterates the knowledge base, so this value
    /// changes for exactly the units that call an edited helper or name
    /// a changed KB entry — which is what keys their check-layer
    /// invalidation.
    pub fn deps_fingerprint(&self, file: &str) -> u64 {
        let Some(&ui) = self.unit_of_path.get(file) else {
            return 0;
        };
        let mut h = mix(FNV_OFFSET, self.unit_kb[ui]);
        for &name in &self.unit_callees[ui] {
            h = mix(h, self.name_fp[name as usize]);
            match resolve(
                &self.local,
                &self.extern_first,
                self.whole_program,
                ui,
                name,
            ) {
                Some(id) => {
                    let info = &self.fns[id];
                    h = mix(h, self.unit_path_fp[info.unit]);
                    h = mix(h, info.is_static as u64 + 1);
                    let s = &self.summaries[id];
                    for part in [&s.releases, &s.acquires, &s.stores] {
                        h = mix(h, part.len() as u64 + 1);
                        for &idx in part.iter() {
                            h = mix(h, idx as u64 + 1);
                        }
                    }
                }
                None => h = mix(h, 0),
            }
        }
        h
    }
}

/// Fingerprint of a name's knowledge-base entries: its API entry `api`
/// and its smartloop entry `smartloop`, each or its absence. Both entry
/// types are destructured whole, so a field added to either cannot be
/// left out of the check keys this feeds.
fn kb_entry_fingerprint(api: Option<&RcApi>, smartloop: Option<&SmartLoop>) -> u64 {
    let str_fp = |h: u64, s: &str| mix(h, fnv1a(s.as_bytes()));
    let mut h = FNV_OFFSET;
    match api {
        None => h = mix(h, 0),
        Some(RcApi {
            name,
            class,
            dir,
            flow,
            dec_names,
            inc_on_error,
            may_return_null,
            releases_resources,
        }) => {
            h = str_fp(mix(h, 1), name);
            h = mix(
                h,
                match class {
                    RcClass::General => 0,
                    RcClass::Specific => 1,
                    RcClass::Embedded => 2,
                },
            );
            h = mix(
                h,
                match dir {
                    RcDir::Inc => 0,
                    RcDir::Dec => 1,
                },
            );
            let (tag, arg) = match flow {
                ObjectFlow::Arg(i) => (0, *i),
                ObjectFlow::Returned => (1, 0),
                ObjectFlow::ArgAndReturned(i) => (2, *i),
            };
            h = mix(mix(h, tag), arg as u64);
            h = mix(h, dec_names.len() as u64);
            for d in dec_names {
                h = str_fp(h, d);
            }
            for flag in [inc_on_error, may_return_null, releases_resources] {
                h = mix(h, *flag as u64);
            }
        }
    }
    match smartloop {
        None => h = mix(h, 0),
        Some(SmartLoop {
            name,
            iter_arg,
            dec_name,
            embedded_api,
        }) => {
            h = str_fp(mix(h, 1), name);
            h = mix(h, *iter_arg as u64);
            h = str_fp(h, dec_name);
            h = match embedded_api {
                None => mix(h, 0),
                Some(api) => str_fp(mix(h, 1), api),
            };
        }
    }
    h
}

/// The FNV-1a offset basis: the state before any byte is folded in.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Folds `bytes` into the FNV-1a state `h`. Folding two slices in turn
/// hashes their concatenation.
pub fn fnv1a_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// FNV-1a over a byte slice: fast, dependency-free, and stable across
/// platforms and runs, which every cache key and fingerprint needs
/// (`DefaultHasher` makes no cross-version guarantee).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_fold(FNV_OFFSET, bytes)
}

/// Folds a word's little-endian bytes into the FNV-1a state `h`; used
/// to combine hashes and configuration values into one key.
pub fn mix(h: u64, word: u64) -> u64 {
    fnv1a_fold(h, &word.to_le_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_cparse::parse_str;

    fn exports(path: &str, src: &str) -> UnitExports {
        let tu = parse_str(path, src);
        let graphs = FunctionGraph::build_all(&tu);
        let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
        UnitExports::extract(path, &graphs, &globals)
    }

    fn local_db(src: &str) -> ProgramDb {
        let ex = exports("t.c", src);
        ProgramDb::build(&[&ex], &ApiKb::builtin(), false)
    }

    #[test]
    fn direct_release_summarized() {
        let db = local_db(
            r#"
static void foo_cleanup(struct device_node *np)
{
        of_node_put(np);
}
"#,
        );
        assert_eq!(
            db.summary_of("t.c", "foo_cleanup").unwrap().releases,
            vec![0]
        );
        assert!(db.call_releases("t.c", "foo_cleanup", 0));
        assert!(!db.call_releases("t.c", "foo_cleanup", 1));
    }

    #[test]
    fn transitive_release_through_helper() {
        let db = local_db(
            r#"
static void inner(struct device_node *np)
{
        of_node_put(np);
}
static void outer(struct device_node *np)
{
        inner(np);
}
"#,
        );
        assert!(db.call_releases("t.c", "inner", 0));
        assert!(db.call_releases("t.c", "outer", 0));
    }

    #[test]
    fn mutual_recursion_with_swapped_arguments_ends_with_both_sets() {
        // `f` and `g` pass their parameters to each other swapped, so the
        // releases flow back and forth between the two parameters. The
        // build runs on its own thread against a deadline: a fixpoint
        // that never ends fails the test instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let db = local_db(
                r#"
static void g(struct device_node *a, struct device_node *b);
static void f(struct device_node *a, struct device_node *b)
{
        g(a, b);
        of_node_put(b);
}
static void g(struct device_node *a, struct device_node *b)
{
        f(b, a);
}
"#,
            );
            let releases = |name| db.summary_of("t.c", name).unwrap().releases.clone();
            tx.send((releases("f"), releases("g"))).ok();
        });
        let (f, g) = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the effect fixpoint ends");
        assert_eq!(f, vec![0, 1]);
        assert_eq!(g, vec![0, 1]);
    }

    #[test]
    fn acquire_summarized() {
        let db = local_db(
            r#"
static void pin_node(struct device_node *np)
{
        of_node_get(np);
}
"#,
        );
        assert_eq!(db.summary_of("t.c", "pin_node").unwrap().acquires, vec![0]);
        assert!(!db.call_releases("t.c", "pin_node", 0));
    }

    #[test]
    fn unrelated_helper_has_empty_summary() {
        let db = local_db(
            r#"
static int helper(struct device_node *np)
{
        return np->flags;
}
"#,
        );
        assert_eq!(
            db.summary_of("t.c", "helper").unwrap(),
            &FnSummary::default()
        );
    }

    #[test]
    fn second_parameter_tracked() {
        let db = local_db(
            r#"
static void detach(struct device *dev, struct device_node *np)
{
        of_node_put(np);
}
"#,
        );
        assert_eq!(db.summary_of("t.c", "detach").unwrap().releases, vec![1]);
        assert!(db.call_releases("t.c", "detach", 1));
        assert!(!db.call_releases("t.c", "detach", 0));
    }

    #[test]
    fn static_helpers_with_same_name_do_not_collide() {
        // The latent HelperSummaries bug: summaries keyed by bare name
        // attached unit A's effects to unit B's same-named static.
        let a = exports(
            "a.c",
            r#"
static void foo_put(struct device_node *np)
{
        of_node_put(np);
}
"#,
        );
        let b = exports(
            "b.c",
            r#"
static void foo_put(struct device_node *np)
{
        np->flags = 0;
}
"#,
        );
        for whole_program in [false, true] {
            let db = ProgramDb::build(&[&a, &b], &ApiKb::builtin(), whole_program);
            assert!(db.call_releases("a.c", "foo_put", 0));
            assert!(
                !db.call_releases("b.c", "foo_put", 0),
                "b.c's static foo_put must keep its own (empty) summary \
                 (whole_program={whole_program})"
            );
        }
    }

    #[test]
    fn extern_helper_resolves_cross_unit_only_in_whole_program_mode() {
        let helpers = exports(
            "helpers.c",
            r#"
void lib_release(struct device_node *np)
{
        of_node_put(np);
}
"#,
        );
        let caller = exports(
            "caller.c",
            r#"
static void drop(struct device_node *np)
{
        lib_release(np);
}
"#,
        );
        let on = ProgramDb::build(&[&helpers, &caller], &ApiKb::builtin(), true);
        assert!(on.call_releases("caller.c", "lib_release", 0));
        assert!(on.call_releases("caller.c", "drop", 0), "transitive");
        let off = ProgramDb::build(&[&helpers, &caller], &ApiKb::builtin(), false);
        assert!(!off.call_releases("caller.c", "lib_release", 0));
        assert!(!off.call_releases("caller.c", "drop", 0));
    }

    #[test]
    fn same_unit_definition_shadows_external_one() {
        let lib = exports(
            "lib.c",
            r#"
void reap(struct device_node *np)
{
        of_node_put(np);
}
"#,
        );
        let own = exports(
            "own.c",
            r#"
static void reap(struct device_node *np)
{
        np->flags = 0;
}
static void use_it(struct device_node *np)
{
        reap(np);
}
"#,
        );
        let db = ProgramDb::build(&[&lib, &own], &ApiKb::builtin(), true);
        assert!(!db.call_releases("own.c", "reap", 0));
        assert!(!db.call_releases("own.c", "use_it", 0));
        assert!(db.call_releases("lib.c", "reap", 0));
    }

    #[test]
    fn stores_tracked_directly_and_transitively() {
        let helpers = exports(
            "helpers.c",
            r#"
void stash(struct priv *p, void *cookie)
{
        p->node = cookie;
}
void stash_via(struct priv *p, void *cookie)
{
        stash(p, cookie);
}
"#,
        );
        let caller = exports(
            "caller.c",
            r#"
static void keep(struct priv *p, struct device_node *np)
{
        stash(p, np);
}
"#,
        );
        let db = ProgramDb::build(&[&helpers, &caller], &ApiKb::builtin(), true);
        assert_eq!(db.summary_of("helpers.c", "stash").unwrap().stores, vec![1]);
        assert_eq!(
            db.summary_of("helpers.c", "stash_via").unwrap().stores,
            vec![1]
        );
        // Cross-unit view from the caller: argument 1 escapes.
        assert!(db.cross_unit_stores("caller.c", "stash", 1));
        assert!(!db.cross_unit_stores("caller.c", "stash", 0));
        // Same-unit resolution is never reported as cross-unit.
        assert!(!db.cross_unit_stores("helpers.c", "stash", 1));
    }

    #[test]
    fn cross_unit_release_respects_arity() {
        let helpers = exports(
            "helpers.c",
            r#"
void teardown(struct device *dev, struct device_node *np)
{
        of_node_put(np);
}
"#,
        );
        let caller = exports("caller.c", "static void f(void) { }\n");
        let db = ProgramDb::build(&[&helpers, &caller], &ApiKb::builtin(), true);
        assert!(db.cross_unit_release("caller.c", "teardown", 2));
        assert!(!db.cross_unit_release("caller.c", "teardown", 1));
        assert!(!db.cross_unit_release("helpers.c", "teardown", 2));
    }

    #[test]
    fn deps_fingerprint_tracks_helper_summary_changes() {
        let caller_src = r#"
static void drop(struct device_node *np)
{
        lib_release(np);
}
"#;
        let releasing = exports(
            "helpers.c",
            "void lib_release(struct device_node *np) { of_node_put(np); }\n",
        );
        let inert = exports(
            "helpers.c",
            "void lib_release(struct device_node *np) { np->flags = 0; }\n",
        );
        let caller = exports("caller.c", caller_src);
        let db1 = ProgramDb::build(&[&releasing, &caller], &ApiKb::builtin(), true);
        let db2 = ProgramDb::build(&[&inert, &caller], &ApiKb::builtin(), true);
        let db3 = ProgramDb::build(&[&releasing, &caller], &ApiKb::builtin(), true);
        assert_ne!(
            db1.deps_fingerprint("caller.c"),
            db2.deps_fingerprint("caller.c"),
            "dependent unit's fingerprint must follow the helper's summary"
        );
        assert_eq!(
            db1.deps_fingerprint("caller.c"),
            db3.deps_fingerprint("caller.c"),
            "identical inputs yield identical fingerprints"
        );
        assert_ne!(db1.deps_fingerprint("caller.c"), 0);
    }

    #[test]
    fn kb_names_shadow_helper_definitions() {
        // A unit defining its own `of_node_put` does not override the
        // knowledge base: the KB branch wins, exactly like the old
        // HelperSummaries fixpoint.
        let db = local_db(
            r#"
void of_node_put(struct device_node *np)
{
        np->flags = 0;
}
static void drop(struct device_node *np)
{
        of_node_put(np);
}
"#,
        );
        assert!(db.call_releases("t.c", "drop", 0));
    }

    #[test]
    fn empty_db_misses_everything() {
        let db = ProgramDb::empty();
        assert!(!db.call_releases("t.c", "anything", 0));
        assert!(db.summary_of("t.c", "anything").is_none());
        assert_eq!(db.deps_fingerprint("t.c"), 0);
    }
}
