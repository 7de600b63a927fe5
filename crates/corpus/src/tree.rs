//! Synthetic source-tree assembly: the "latest release" the checkers
//! audit, with ground truth recorded in a manifest.

use refminer_json::{obj, ToJson, Value};
use refminer_prng::{ChaCha8Rng, Rng, SeedableRng};

use refminer_rcapi::ApiKb;

use crate::codegen::{emit_bug, emit_clean, emit_filler, emit_tricky, NameGen};
use crate::subsystems::NEW_BUG_PLAN;

/// One injected bug, as ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedBug {
    /// File path within the tree.
    pub path: String,
    /// Function the bug lives in.
    pub function: String,
    /// Anti-pattern number (1..=9).
    pub pattern: u8,
    /// The bug-caused API.
    pub api: String,
    /// Expected impact (`Leak` / `UAF` / `NPD`).
    pub impact: String,
    /// Subsystem and module, for grouping reports.
    pub subsystem: String,
    /// Module within the subsystem.
    pub module: String,
    /// Whether the bug only manifests under whole-program analysis:
    /// the helper whose summary decides the verdict is defined in a
    /// *different* translation unit than the buggy caller.
    pub inter_unit: bool,
}

/// A deterministic non-bug the checkers are *expected* to flag unless
/// they reason about path feasibility: a correlated cleanup branch, a
/// flag-guarded put, a re-checked error code. Recorded in the manifest
/// with `bug: false` so evaluations count any finding on it as a false
/// positive by construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FpTrap {
    /// File path within the tree.
    pub path: String,
    /// Function the trap lives in.
    pub function: String,
    /// The anti-pattern the trap baits (1..=9).
    pub pattern: u8,
    /// Trap family (`correlated_branch`, `flag_guard`, `recheck`,
    /// `const_guard`).
    pub kind: String,
}

/// One member site of a clone group: a function instantiating the
/// group's shared bug shape with different identifiers.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloneMember {
    /// File path within the tree (one file per member, so a partial
    /// fix touches exactly one file).
    pub path: String,
    /// Function the clone site lives in.
    pub function: String,
    /// Whether this member has been repaired (only ever `true` in the
    /// manifests of [`generate_fix_history`] revisions).
    pub fixed: bool,
}

/// A group of injected clones of one bug: the same anti-pattern and
/// API instantiated at several sites with different identifiers — the
/// paper's "one bug, hundreds behind" shape, as measurable ground
/// truth for the propagation-search sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CloneGroup {
    /// Stable group id (`cg0`, `cg1`, ...).
    pub group: String,
    /// The shared anti-pattern (1..=9).
    pub pattern: u8,
    /// The shared bug-caused API.
    pub api: String,
    /// The member sites, in emission order.
    pub members: Vec<CloneMember>,
}

/// The ground-truth record of a generated tree.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// Every injected bug.
    pub bugs: Vec<InjectedBug>,
    /// Correct-but-tricky functions (paper's Listing 5 shapes); any
    /// finding on these counts as a false positive by construction.
    pub tricky: Vec<(String, String)>,
    /// Number of clean functions emitted (denominator for FP rates).
    pub clean_functions: usize,
    /// False-positive traps (see [`FpTrap`]); empty unless the tree was
    /// generated with [`TreeConfig::fp_traps`].
    pub fp_traps: Vec<FpTrap>,
    /// Clone groups (see [`CloneGroup`]); empty unless the tree was
    /// generated with [`TreeConfig::clone_groups`] > 0.
    pub clone_groups: Vec<CloneGroup>,
}

impl ToJson for InjectedBug {
    fn to_json(&self) -> Value {
        obj([
            ("path", self.path.to_json()),
            ("function", self.function.to_json()),
            ("pattern", self.pattern.to_json()),
            ("api", self.api.to_json()),
            ("impact", self.impact.to_json()),
            ("subsystem", self.subsystem.to_json()),
            ("module", self.module.to_json()),
            ("inter_unit", self.inter_unit.to_json()),
        ])
    }
}

impl ToJson for FpTrap {
    fn to_json(&self) -> Value {
        obj([
            ("path", self.path.to_json()),
            ("function", self.function.to_json()),
            ("pattern", self.pattern.to_json()),
            ("kind", self.kind.to_json()),
            ("bug", false.to_json()),
        ])
    }
}

impl ToJson for CloneMember {
    fn to_json(&self) -> Value {
        obj([
            ("path", self.path.to_json()),
            ("function", self.function.to_json()),
            ("fixed", self.fixed.to_json()),
        ])
    }
}

impl ToJson for CloneGroup {
    fn to_json(&self) -> Value {
        obj([
            ("group", self.group.to_json()),
            ("pattern", self.pattern.to_json()),
            ("api", self.api.to_json()),
            ("members", self.members.to_json()),
        ])
    }
}

impl ToJson for Manifest {
    fn to_json(&self) -> Value {
        obj([
            ("bugs", self.bugs.to_json()),
            (
                "tricky",
                Value::Arr(
                    self.tricky
                        .iter()
                        .map(|(p, f)| Value::Arr(vec![p.to_json(), f.to_json()]))
                        .collect(),
                ),
            ),
            ("clean_functions", self.clean_functions.to_json()),
            ("fp_traps", self.fp_traps.to_json()),
            ("clone_groups", self.clone_groups.to_json()),
        ])
    }
}

impl Manifest {
    /// Whether a (path, function) pair is one of the tricky snippets.
    pub fn is_tricky(&self, path: &str, function: &str) -> bool {
        self.tricky.iter().any(|(p, f)| p == path && f == function)
    }

    /// Parses the JSON written by [`SyntheticTree::write_to`] back into
    /// a manifest. Returns `None` on any malformed member — a partially
    /// loaded ground truth would silently skew evaluation scores — and
    /// on any bug, trap or clone-group pattern outside 1..=9.
    pub fn from_json(v: &Value) -> Option<Manifest> {
        let bugs = v
            .get("bugs")?
            .as_array()?
            .iter()
            .map(|b| {
                Some(InjectedBug {
                    path: b.get("path")?.as_str()?.to_string(),
                    function: b.get("function")?.as_str()?.to_string(),
                    pattern: pattern_member(b)?,
                    api: b.get("api")?.as_str()?.to_string(),
                    impact: b.get("impact")?.as_str()?.to_string(),
                    subsystem: b.get("subsystem")?.as_str()?.to_string(),
                    module: b.get("module")?.as_str()?.to_string(),
                    inter_unit: b.get("inter_unit")?.as_bool()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let tricky = v
            .get("tricky")?
            .as_array()?
            .iter()
            .map(|t| {
                let pair = t.as_array()?;
                Some((
                    pair.first()?.as_str()?.to_string(),
                    pair.get(1)?.as_str()?.to_string(),
                ))
            })
            .collect::<Option<Vec<_>>>()?;
        let clean_functions = v.get("clean_functions")?.as_u64()? as usize;
        // Absent in manifests written before the knob existed.
        let fp_traps = match v.get("fp_traps") {
            None => Vec::new(),
            Some(arr) => arr
                .as_array()?
                .iter()
                .map(|t| {
                    Some(FpTrap {
                        path: t.get("path")?.as_str()?.to_string(),
                        function: t.get("function")?.as_str()?.to_string(),
                        pattern: pattern_member(t)?,
                        kind: t.get("kind")?.as_str()?.to_string(),
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        };
        // Absent in manifests written before the knob existed.
        let clone_groups = match v.get("clone_groups") {
            None => Vec::new(),
            Some(arr) => arr
                .as_array()?
                .iter()
                .map(|g| {
                    Some(CloneGroup {
                        group: g.get("group")?.as_str()?.to_string(),
                        pattern: pattern_member(g)?,
                        api: g.get("api")?.as_str()?.to_string(),
                        members: g
                            .get("members")?
                            .as_array()?
                            .iter()
                            .map(|m| {
                                Some(CloneMember {
                                    path: m.get("path")?.as_str()?.to_string(),
                                    function: m.get("function")?.as_str()?.to_string(),
                                    fixed: m.get("fixed")?.as_bool()?,
                                })
                            })
                            .collect::<Option<Vec<_>>>()?,
                    })
                })
                .collect::<Option<Vec<_>>>()?,
        };
        Some(Manifest {
            bugs,
            tricky,
            clean_functions,
            fp_traps,
            clone_groups,
        })
    }
}

/// An object's `pattern` member, when it is an anti-pattern number
/// (1..=9).
fn pattern_member(v: &Value) -> Option<u8> {
    let n = v.get("pattern")?.as_u64()?;
    (1..=9).contains(&n).then_some(n as u8)
}

/// One file of the generated tree.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Tree-relative path.
    pub path: String,
    /// C source text.
    pub content: String,
}

/// A generated tree plus its ground truth.
#[derive(Debug, Clone)]
pub struct SyntheticTree {
    /// All files (headers first, then sources).
    pub files: Vec<SourceFile>,
    /// Ground truth.
    pub manifest: Manifest,
}

/// Generation parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// RNG seed; everything is deterministic given it.
    pub seed: u64,
    /// Scale factor on the Table 5 plan counts (1.0 = the paper's 351
    /// instances; 0.1 ≈ 35 for quick tests).
    pub scale: f64,
    /// Buggy functions per generated file.
    pub bugs_per_file: usize,
    /// Clean functions per generated file.
    pub clean_per_file: usize,
    /// Whether to add the Listing 5-style tricky snippets.
    pub include_tricky: bool,
    /// Whether to add the *vendor* module: bugs built on custom
    /// refcounting wrappers and a custom smartloop that only API
    /// discovery (§6.1) can classify — the substrate for the discovery
    /// ablation. Off by default so Table 4's totals stay the paper's.
    pub include_vendor: bool,
    /// Whether to add the *crossunit* module: helper definitions and
    /// their buggy callers split across translation units, so the
    /// verdicts hinge on cross-unit summary resolution. The injected
    /// bugs are tagged `inter_unit: true` in the manifest. Off by
    /// default so Table 4's totals stay the paper's.
    pub cross_unit: bool,
    /// Whether to add the *fptrap* module: deterministic non-bug
    /// functions whose anti-pattern shapes only come apart under
    /// path-feasibility reasoning — correlated cleanup branches,
    /// flag-guarded puts, re-checked error codes, constant-false debug
    /// guards. Recorded in [`Manifest::fp_traps`] with `bug: false`.
    /// Off by default so Table 4's totals stay the paper's.
    pub fp_traps: bool,
    /// Number of clone groups to inject under `drivers/clones/`: each
    /// group is [`CLONE_GROUP_SIZE`] sites instantiating the *same*
    /// bug shape (pattern + API) with different identifiers, one site
    /// per file, recorded in [`Manifest::clone_groups`]. The ground
    /// truth for the propagation-search sweep and the partial-fix
    /// history ([`generate_fix_history`]). 0 (off) by default so
    /// Table 4's totals stay the paper's.
    pub clone_groups: usize,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            seed: 0x54ab1e5,
            scale: 1.0,
            bugs_per_file: 4,
            clean_per_file: 3,
            include_tricky: true,
            include_vendor: false,
            cross_unit: false,
            fp_traps: false,
            clone_groups: 0,
        }
    }
}

/// Per-subsystem quota of P4 instances generated in the missing-increase
/// (UAF) flavour, calibrated so Table 4's impact split (296 leak /
/// 48 UAF / 7 NPD) reproduces.
fn p4_uaf_quota(subsystem: &str) -> u32 {
    match subsystem {
        "arch" => 7,
        "drivers" => 18,
        _ => 0,
    }
}

/// Generates the synthetic tree from the Table 5 plan.
///
/// # Examples
///
/// ```
/// use refminer_corpus::{generate_tree, TreeConfig};
///
/// let tree = generate_tree(&TreeConfig { scale: 0.05, ..Default::default() });
/// assert!(!tree.files.is_empty());
/// assert!(!tree.manifest.bugs.is_empty());
/// ```
pub fn generate_tree(cfg: &TreeConfig) -> SyntheticTree {
    let kb = ApiKb::builtin();
    let mut ng = NameGen::new(ChaCha8Rng::seed_from_u64(cfg.seed));
    let mut files = vec![
        SourceFile {
            path: "include/linux/of.h".to_string(),
            content: OF_HEADER.to_string(),
        },
        SourceFile {
            path: "include/linux/kref.h".to_string(),
            content: KREF_HEADER.to_string(),
        },
        SourceFile {
            path: "drivers/base/core.c".to_string(),
            content: BASE_CORE.to_string(),
        },
    ];
    let mut manifest = Manifest::default();
    let mut uaf_left: Vec<(String, u32)> = Vec::new();

    // Group plan rows by (subsystem, module) so a module's bugs share
    // files.
    let mut module_rows: Vec<((&str, &str), Vec<&crate::subsystems::PlanRow>)> = Vec::new();
    for row in NEW_BUG_PLAN {
        let key = (row.subsystem, row.module);
        match module_rows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(row),
            None => module_rows.push((key, vec![row])),
        }
    }

    for ((subsystem, module), rows) in module_rows {
        // Build the instance list for this module.
        let mut instances: Vec<(u8, &str)> = Vec::new();
        for row in rows {
            let scaled = ((row.count as f64) * cfg.scale).ceil() as u32;
            let scaled = scaled
                .min(row.count)
                .max(if cfg.scale > 0.0 { 1 } else { 0 });
            for _ in 0..scaled {
                instances.push((row.pattern, row.api));
            }
        }
        let mut file_idx = 0usize;
        while !instances.is_empty() {
            file_idx += 1;
            // The paper's two include/ bugs live in header files
            // (§6.2: hypervisor.h, trusted_foundation.h).
            let ext = if subsystem == "include" { "h" } else { "c" };
            let path = format!("{subsystem}/{module}/{module}_unit{file_idx}.{ext}");
            let take = cfg.bugs_per_file.min(instances.len());
            let chunk: Vec<(u8, &str)> = instances.drain(..take).collect();
            let mut content = format!(
                "// SPDX-License-Identifier: GPL-2.0\n\
                 // {subsystem}/{module}: generated driver unit {file_idx}.\n\
                 #include <linux/of.h>\n#include <linux/kref.h>\n\n\
                 struct {module}_priv {{\n\tstruct device_node *node;\n\tint ready;\n}};\n\n"
            );
            for (pattern, api) in chunk {
                // The UAF (hidden-decrement) flavour of P4 only exists
                // for APIs that consume their `from` argument.
                let uaf_capable = pattern == 4
                    && kb.get(api).is_some_and(|a| {
                        matches!(a.flow, refminer_rcapi::ObjectFlow::ArgAndReturned(_))
                    });
                let uaf = if uaf_capable {
                    if !uaf_left.iter().any(|(s, _)| s == subsystem) {
                        uaf_left.push((subsystem.to_string(), p4_uaf_quota(subsystem)));
                    }
                    let q = uaf_left
                        .iter_mut()
                        .find(|(s, _)| s == subsystem)
                        .map(|e| &mut e.1)
                        .expect("just inserted");
                    if *q > 0 {
                        *q -= 1;
                        true
                    } else {
                        false
                    }
                } else {
                    false
                };
                let fn_name = ng.ident(&format!("{module}_op"));
                let src = emit_bug(pattern, api, &fn_name, &kb, &mut ng, uaf);
                content.push_str(&src);
                content.push('\n');
                let impact = match (pattern, uaf) {
                    (2, _) => "NPD",
                    (8, _) | (9, _) | (4, true) => "UAF",
                    _ => "Leak",
                };
                let function = if pattern == 6 {
                    format!("{fn_name}_probe")
                } else {
                    fn_name.clone()
                };
                manifest.bugs.push(InjectedBug {
                    path: path.clone(),
                    function,
                    pattern,
                    api: api.to_string(),
                    impact: impact.to_string(),
                    subsystem: subsystem.to_string(),
                    module: module.to_string(),
                    inter_unit: false,
                });
            }
            // Clean twins and neutral filler.
            for i in 0..cfg.clean_per_file {
                let fn_name = ng.ident(&format!("{module}_helper"));
                let src = if i % 2 == 0 {
                    let (pattern, api) = clean_shape_for(i, file_idx);
                    emit_clean(pattern, api, &fn_name, &kb, &mut ng)
                } else {
                    emit_filler(&fn_name, &mut ng)
                };
                content.push_str(&src);
                content.push('\n');
                manifest.clean_functions += 1;
            }
            files.push(SourceFile { path, content });
        }
    }

    if cfg.include_vendor {
        emit_vendor_module(&mut files, &mut manifest);
    }

    if cfg.cross_unit {
        emit_cross_unit_module(&mut files, &mut manifest, cfg.scale);
    }

    if cfg.fp_traps {
        emit_fp_trap_module(&mut files, &mut manifest);
    }

    if cfg.clone_groups > 0 {
        emit_clone_module(&mut files, &mut manifest, cfg, &kb);
    }

    if cfg.include_tricky {
        for i in 0..5 {
            // The paper's five false positives: one in arch, four in
            // drivers (Table 4's #FP column).
            let path = if i == 0 {
                format!("arch/powerpc/tricky_unit{i}.c")
            } else {
                format!("drivers/scsi/tricky_unit{i}.c")
            };
            let fn_name = ng.ident("lpfc_evt");
            let mut content =
                String::from("// SPDX-License-Identifier: GPL-2.0\n#include <linux/of.h>\n\n");
            content.push_str(&emit_tricky(&fn_name, &mut ng));
            manifest.tricky.push((path.clone(), fn_name));
            files.push(SourceFile { path, content });
        }
    }

    SyntheticTree { files, manifest }
}

/// Produces the next revision of a tree: `edits` distinct `.c` files,
/// chosen deterministically from `seed`, each gain one appended
/// finding-neutral helper function. Every other file is byte-identical
/// to the base revision.
///
/// This is the fixture for incremental re-audit tests: a revision
/// changes exactly the returned paths' content hashes, and because the
/// appended helpers are clean the finding set of the tree is unchanged.
/// Returns the edited tree and the edited paths in tree order.
///
/// # Examples
///
/// ```
/// use refminer_corpus::{generate_tree, next_revision, TreeConfig};
///
/// let base = generate_tree(&TreeConfig { scale: 0.05, ..Default::default() });
/// let (rev, edited) = next_revision(&base, 7, 2);
/// assert_eq!(edited.len(), 2);
/// assert_eq!(rev.files.len(), base.files.len());
/// ```
pub fn next_revision(
    base: &SyntheticTree,
    seed: u64,
    edits: usize,
) -> (SyntheticTree, Vec<String>) {
    let mut tree = base.clone();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut ng = NameGen::new(ChaCha8Rng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15));
    let candidates: Vec<usize> = tree
        .files
        .iter()
        .enumerate()
        .filter(|(_, f)| f.path.ends_with(".c"))
        .map(|(i, _)| i)
        .collect();
    let edits = edits.min(candidates.len());
    let mut chosen: Vec<usize> = Vec::new();
    while chosen.len() < edits {
        let i = candidates[rng.gen_range(0..candidates.len())];
        if !chosen.contains(&i) {
            chosen.push(i);
        }
    }
    // Tree order so the edit pass (and the NameGen stream) is
    // independent of the draw order above.
    chosen.sort_unstable();
    let mut edited = Vec::new();
    for i in chosen {
        let fn_name = ng.ident("rev_helper");
        let src = emit_filler(&fn_name, &mut ng);
        let file = &mut tree.files[i];
        file.content.push('\n');
        file.content.push_str(&src);
        tree.manifest.clean_functions += 1;
        edited.push(file.path.clone());
    }
    (tree, edited)
}

/// Emits the vendor module: custom refcounting wrappers implemented on
/// `kref`, a custom find-like API and a custom smartloop macro — all
/// unknown to the builtin knowledge base — plus six bugs using them.
/// Only API/smartloop discovery can give the checkers the vocabulary to
/// find these.
fn emit_vendor_module(files: &mut Vec<SourceFile>, manifest: &mut Manifest) {
    files.push(SourceFile {
        path: "include/vendor/widget.h".to_string(),
        content: r#"/* SPDX-License-Identifier: GPL-2.0 */
#ifndef _VENDOR_WIDGET_H
#define _VENDOR_WIDGET_H

struct vendor_widget {
        struct kref refs;
        const char *label;
        struct vendor_widget *next;
};

extern struct vendor_widget *vendor_widget_get(struct vendor_widget *w);
extern void vendor_widget_put(struct vendor_widget *w);
extern struct vendor_widget *vendor_widget_find_next(struct vendor_pool *pool, struct vendor_widget *from);

#define for_each_vendor_widget(pool, w) \
        for (w = vendor_widget_find_next(pool, NULL); w; \
             w = vendor_widget_find_next(pool, w))

#endif
"#
        .to_string(),
    });
    files.push(SourceFile {
        path: "drivers/vendor/vendor_core.c".to_string(),
        content: r#"// SPDX-License-Identifier: GPL-2.0
#include <vendor/widget.h>

struct vendor_widget *vendor_widget_get(struct vendor_widget *w)
{
        if (w)
                kref_get(&w->refs);
        return w;
}

void vendor_widget_put(struct vendor_widget *w)
{
        if (w)
                kref_put(&w->refs, vendor_widget_release);
}

struct vendor_widget *vendor_widget_find_next(struct vendor_pool *pool, struct vendor_widget *from)
{
        struct vendor_widget *w = pool_next(pool, from);
        if (w)
                kref_get(&w->refs);
        if (from)
                kref_put(&from->refs, vendor_widget_release);
        return w;
}
"#
        .to_string(),
    });
    let bugs_src = r#"// SPDX-License-Identifier: GPL-2.0
#include <vendor/widget.h>

static int vendor_scan_first(struct vendor_pool *pool)
{
        struct vendor_widget *w;
        for_each_vendor_widget(pool, w) {
                if (w->label)
                        break;
        }
        return 0;
}

static int vendor_probe_label(struct vendor_pool *pool)
{
        struct vendor_widget *w = vendor_widget_find_next(pool, NULL);
        if (!w)
                return -ENODEV;
        use_label(w->label);
        return 0;
}

static void vendor_flush(struct vendor_widget *w)
{
        vendor_widget_put(w);
        update_stats(w->label);
}
"#;
    files.push(SourceFile {
        path: "drivers/vendor/vendor_scan.c".to_string(),
        content: bugs_src.to_string(),
    });
    for (function, pattern, api, impact) in [
        ("vendor_scan_first", 3u8, "for_each_vendor_widget", "Leak"),
        ("vendor_probe_label", 4, "vendor_widget_find_next", "Leak"),
        ("vendor_flush", 8, "vendor_widget_put", "UAF"),
    ] {
        manifest.bugs.push(InjectedBug {
            path: "drivers/vendor/vendor_scan.c".to_string(),
            function: function.to_string(),
            pattern,
            api: api.to_string(),
            impact: impact.to_string(),
            subsystem: "drivers".to_string(),
            module: "vendor".to_string(),
            inter_unit: false,
        });
    }
}

/// Emits the crossunit module: helper/caller file pairs under
/// `drivers/crossunit/` in which every helper the callers lean on is
/// defined in the *other* translation unit. A per-unit pipeline sees
/// only opaque call sites; the whole-program summary database resolves
/// the helper bodies, which both *reveals* the injected P4/P6 bugs
/// (cross-unit escapes and pass-to-consumer summaries) and *suppresses*
/// the clean shapes (cross-unit releases). Manifest entries for these
/// bugs carry `inter_unit: true` so evaluations can split single-unit
/// from cross-unit recall.
fn emit_cross_unit_module(files: &mut Vec<SourceFile>, manifest: &mut Manifest, scale: f64) {
    let pairs = ((4.0 * scale).round() as usize).max(1);
    for i in 0..pairs {
        let core_path = format!("drivers/crossunit/xu{i}_core.c");
        files.push(SourceFile {
            path: format!("drivers/crossunit/xu{i}_helpers.c"),
            content: format!(
                r#"// SPDX-License-Identifier: GPL-2.0
// drivers/crossunit: helper library for module xu{i}. The callers
// live in xu{i}_core.c; only whole-program summaries connect these
// bodies to their call sites.
#include <linux/of.h>

struct xu{i}_priv {{
        struct device_node *node;
        int ready;
}};

void xu{i}_stash_node(struct xu{i}_priv *p, void *cookie)
{{
        p->node = cookie;
}}

void xu{i}_put_inner(struct device_node *np)
{{
        of_node_put(np);
}}

void xu{i}_teardown(struct device_node *np)
{{
        xu{i}_put_inner(np);
}}

void xu{i}_register_stats(struct device_node *np)
{{
        update_counter(np->name);
}}
"#
            ),
        });
        files.push(SourceFile {
            path: core_path.clone(),
            content: format!(
                r#"// SPDX-License-Identifier: GPL-2.0
// drivers/crossunit: module xu{i}. Every xu{i}_* helper called below
// is defined in xu{i}_helpers.c.
#include <linux/of.h>

struct xu{i}_priv {{
        struct device_node *node;
        int ready;
}};

static int xu{i}_probe(struct platform_device *pdev)
{{
        struct xu{i}_priv *priv = devm_kzalloc(&pdev->dev, sizeof(*priv), GFP_KERNEL);
        struct device_node *np;

        if (!priv)
                return -ENOMEM;
        np = of_node_get(pdev->dev.of_node);
        xu{i}_stash_node(priv, np);
        return 0;
}}

static int xu{i}_remove(struct platform_device *pdev)
{{
        struct xu{i}_priv *priv = platform_get_drvdata(pdev);

        priv->ready = 0;
        return 0;
}}

static void xu{i}_collect(void)
{{
        struct device_node *np = of_find_node_by_name(NULL, "xu{i}");

        if (!np)
                return;
        xu{i}_register_stats(np);
}}

static void xu{i}_shutdown_path(void)
{{
        struct device_node *np = of_find_node_by_name(NULL, "xu{i}");

        if (!np)
                return;
        xu{i}_teardown(np);
}}

static int xu{i}_open(struct platform_device *pdev)
{{
        struct xu{i}_priv *priv = platform_get_drvdata(pdev);
        struct device_node *np = of_node_get(pdev->dev.of_node);

        if (!np)
                return -ENODEV;
        xu{i}_stash_node(priv, np);
        return 0;
}}

static void xu{i}_release(struct platform_device *pdev)
{{
        struct xu{i}_priv *priv = platform_get_drvdata(pdev);

        xu{i}_teardown(priv->node);
}}

static const struct platform_driver xu{i}_driver = {{
        .probe = xu{i}_probe,
        .remove = xu{i}_remove,
}};
"#
            ),
        });
        for (function, pattern, api) in [
            (format!("xu{i}_probe"), 6u8, "of_node_get"),
            (format!("xu{i}_collect"), 4, "of_find_node_by_name"),
        ] {
            manifest.bugs.push(InjectedBug {
                path: core_path.clone(),
                function,
                pattern,
                api: api.to_string(),
                impact: "Leak".to_string(),
                subsystem: "drivers".to_string(),
                module: "crossunit".to_string(),
                inter_unit: true,
            });
        }
        // shutdown_path/open/release plus the four helpers are clean by
        // construction — any finding on them is a false positive.
        manifest.clean_functions += 7;
    }
}

/// Emits the fptrap module: five deterministic non-bug functions whose
/// control flow *looks* like an anti-pattern but whose "bad" path is
/// unreachable — a correlated error branch tested after the code zeroes
/// it, a constant flag guarding the put, an error code re-checked after
/// it was proven zero, and a deref behind a constant-false debug guard.
/// A checker without path-feasibility reasoning flags every one of
/// them; the manifest records them with `bug: false` so evaluations
/// count those findings as false positives.
fn emit_fp_trap_module(files: &mut Vec<SourceFile>, manifest: &mut Manifest) {
    let path = "drivers/fptrap/fptrap_unit1.c".to_string();
    files.push(SourceFile {
        path: path.clone(),
        content: r#"// SPDX-License-Identifier: GPL-2.0
// drivers/fptrap: feasibility traps. Every function here is correct;
// the anti-pattern path each one exhibits cannot execute.
#include <linux/of.h>

static int fptrap_corr_ret(struct device *dev)
{
        int ret = pm_runtime_get_sync(dev);

        ret = 0;
        if (ret)
                return ret;
        pm_runtime_put(dev);
        return 0;
}

static int fptrap_corr_err(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_path("/soc");
        int err;

        if (!np)
                return -ENODEV;
        err = 0;
        if (err)
                goto fail;
        of_node_put(np);
        return 0;
fail:
        disable_hw();
        return err;
}

static int fptrap_flag_guard(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_path("/chosen");
        int cleanup = 1;
        int ret;

        if (!np)
                return -ENODEV;
        ret = setup_hw(np);
        if (ret) {
                if (cleanup)
                        of_node_put(np);
                return ret;
        }
        of_node_put(np);
        return 0;
}

static int fptrap_recheck(struct device *unused)
{
        struct device_node *np = of_find_node_by_path("/firmware");
        int ret;

        if (!np)
                return -ENODEV;
        ret = start_hw(np);
        if (ret) {
                of_node_put(np);
                return ret;
        }
        enable_hw(np);
        if (ret)
                goto err;
        of_node_put(np);
        return 0;
err:
        stop_hw();
        return ret;
}

static void fptrap_uad_guard(struct sock *sk)
{
        int debug = 0;

        sock_put(sk);
        if (debug)
                log_state(sk->sk_err);
}
"#
        .to_string(),
    });
    for (function, pattern, kind) in [
        ("fptrap_corr_ret", 1u8, "correlated_branch"),
        ("fptrap_corr_err", 5, "correlated_branch"),
        ("fptrap_flag_guard", 5, "flag_guard"),
        ("fptrap_recheck", 5, "recheck"),
        ("fptrap_uad_guard", 8, "const_guard"),
    ] {
        manifest.fp_traps.push(FpTrap {
            path: path.clone(),
            function: function.to_string(),
            pattern,
            kind: kind.to_string(),
        });
    }
    manifest.clean_functions += 5;
}

/// Sites per clone group (see [`TreeConfig::clone_groups`]).
pub const CLONE_GROUP_SIZE: usize = 4;

/// The bug shapes clone groups rotate over: pattern families whose
/// buggy emitter has a verified clean twin, so a "fix" of one member
/// is a real repair, not a different function.
const CLONE_SHAPES: &[(u8, &str)] = &[
    (1, "pm_runtime_get_sync"),
    (4, "of_find_compatible_node"),
    (5, "of_find_node_by_path"),
    (7, "of_find_node_by_name"),
    (2, "mdesc_grab"),
];

/// Table 4's impact for a clone-shape pattern.
fn clone_impact(pattern: u8) -> &'static str {
    match pattern {
        2 => "NPD",
        8 | 9 => "UAF",
        _ => "Leak",
    }
}

/// Emits one clone-group member file, buggy or fixed. The identifier
/// stream is seeded per `(seed, g, k)` so regenerating one member (to
/// fix it) leaves every other member's file byte-identical, and the
/// fixed variant keeps the member's function name.
fn clone_member_file(
    seed: u64,
    g: usize,
    k: usize,
    pattern: u8,
    api: &str,
    kb: &ApiKb,
    fixed: bool,
) -> (SourceFile, String) {
    let member_seed = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(((g as u64) << 32) | (k as u64 + 1));
    let mut ng = NameGen::new(ChaCha8Rng::seed_from_u64(member_seed));
    let fn_name = format!("cg{g}_site{k}");
    let body = if fixed {
        emit_clean(pattern, api, &fn_name, kb, &mut ng)
    } else {
        emit_bug(pattern, api, &fn_name, kb, &mut ng, false)
    };
    let content = format!(
        "// SPDX-License-Identifier: GPL-2.0\n\
         // drivers/clones/cg{g}: clone-group member {k}.\n\
         #include <linux/of.h>\n#include <linux/kref.h>\n\n\
         struct cg{g}_priv {{\n\tstruct device_node *node;\n\tint ready;\n}};\n\n{body}"
    );
    (
        SourceFile {
            path: format!("drivers/clones/cg{g}_unit{k}.c"),
            content,
        },
        fn_name,
    )
}

/// Emits the clones module: `cfg.clone_groups` groups of
/// [`CLONE_GROUP_SIZE`] sites each instantiating one shared bug shape
/// with per-site identifiers, one site per translation unit. Ground
/// truth lands both in [`Manifest::bugs`] (each site is a real bug)
/// and [`Manifest::clone_groups`] (the sibling structure the sweep is
/// scored against).
fn emit_clone_module(
    files: &mut Vec<SourceFile>,
    manifest: &mut Manifest,
    cfg: &TreeConfig,
    kb: &ApiKb,
) {
    for g in 0..cfg.clone_groups {
        let (pattern, api) = CLONE_SHAPES[g % CLONE_SHAPES.len()];
        let mut members = Vec::new();
        for k in 0..CLONE_GROUP_SIZE {
            let (file, function) = clone_member_file(cfg.seed, g, k, pattern, api, kb, false);
            manifest.bugs.push(InjectedBug {
                path: file.path.clone(),
                function: function.clone(),
                pattern,
                api: api.to_string(),
                impact: clone_impact(pattern).to_string(),
                subsystem: "drivers".to_string(),
                module: "clones".to_string(),
                inter_unit: false,
            });
            members.push(CloneMember {
                path: file.path.clone(),
                function,
                fixed: false,
            });
            files.push(file);
        }
        manifest.clone_groups.push(CloneGroup {
            group: format!("cg{g}"),
            pattern,
            api: api.to_string(),
            members,
        });
    }
}

/// One revision of a simulated partial-fix history (see
/// [`generate_fix_history`]).
#[derive(Debug, Clone)]
pub struct TreeRev {
    /// Stable revision id (`rev0`, `rev1`, ...).
    pub id: String,
    /// Commit-style one-line message.
    pub message: String,
    /// The full tree at this revision, manifest included.
    pub tree: SyntheticTree,
    /// Clone members repaired *by this revision*, as
    /// `(group, path, function)` triples. Empty for the base import
    /// and for neutral churn.
    pub fixed: Vec<(String, String, String)>,
}

/// Generates a partial-fix revision history: a base tree (which must
/// have `cfg.clone_groups > 0` to be interesting), then one commit per
/// clone group that repairs *only the group's first member* — the
/// incomplete-fix shape the sweep's `left_behind` detector exists to
/// catch — and a final finding-neutral churn commit. Each revision's
/// manifest is ground truth for that revision: the repaired member's
/// bug entry is dropped, its `fixed` flag set, and the repaired
/// function counted clean.
///
/// Deterministic given `cfg`; every unrepaired file is byte-identical
/// across consecutive revisions, so an incremental differ re-audits
/// exactly one unit per fix commit.
pub fn generate_fix_history(cfg: &TreeConfig) -> Vec<TreeRev> {
    let kb = ApiKb::builtin();
    let base = generate_tree(cfg);
    let mut revs = vec![TreeRev {
        id: "rev0".to_string(),
        message: "import base tree".to_string(),
        tree: base.clone(),
        fixed: Vec::new(),
    }];
    let mut cur = base;
    for g in 0..cfg.clone_groups {
        let (pattern, api) = CLONE_SHAPES[g % CLONE_SHAPES.len()];
        let (fixed_file, function) = clone_member_file(cfg.seed, g, 0, pattern, api, &kb, true);
        let mut tree = cur.clone();
        let slot = tree
            .files
            .iter_mut()
            .find(|f| f.path == fixed_file.path)
            .expect("clone member file exists in base tree");
        slot.content = fixed_file.content;
        tree.manifest
            .bugs
            .retain(|b| !(b.path == fixed_file.path && b.function == function));
        tree.manifest.clean_functions += 1;
        if let Some(grp) = tree
            .manifest
            .clone_groups
            .iter_mut()
            .find(|c| c.group == format!("cg{g}"))
        {
            if let Some(m) = grp.members.iter_mut().find(|m| m.function == function) {
                m.fixed = true;
            }
        }
        revs.push(TreeRev {
            id: format!("rev{}", revs.len()),
            message: format!("cg{g}: fix {api} refcount bug in {function}"),
            tree: tree.clone(),
            fixed: vec![(format!("cg{g}"), fixed_file.path, function)],
        });
        cur = tree;
    }
    let (neutral, _) = next_revision(&cur, cfg.seed ^ 0x5eed_d1ff, 1);
    revs.push(TreeRev {
        id: format!("rev{}", revs.len()),
        message: "refactor: append helper, no functional change".to_string(),
        tree: neutral,
        fixed: Vec::new(),
    });
    revs
}

/// Rotates clean-twin shapes for variety.
fn clean_shape_for(i: usize, salt: usize) -> (u8, &'static str) {
    const SHAPES: &[(u8, &str)] = &[
        (5, "of_find_node_by_path"),
        (1, "pm_runtime_get_sync"),
        (3, "for_each_child_of_node"),
        (4, "of_find_compatible_node"),
        (7, "of_find_node_by_name"),
        (8, "sock_put"),
        (9, "of_node_get"),
        (2, "mdesc_grab"),
    ];
    SHAPES[(i + salt) % SHAPES.len()]
}

impl SyntheticTree {
    /// Writes the tree to a directory (creating parents), plus the
    /// manifest as `manifest.json` at the root.
    pub fn write_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        for f in &self.files {
            let full = dir.join(&f.path);
            if let Some(parent) = full.parent() {
                std::fs::create_dir_all(parent)?;
            }
            std::fs::write(full, &f.content)?;
        }
        let manifest = self.manifest.to_json().to_string_pretty();
        std::fs::write(dir.join("manifest.json"), manifest)
    }

    /// Total lines of C code in the tree.
    pub fn total_lines(&self) -> usize {
        self.files.iter().map(|f| f.content.lines().count()).sum()
    }
}

/// The device-tree header: smartloop macros and the `device_node`
/// definition — input for the discovery pipeline.
const OF_HEADER: &str = r#"/* SPDX-License-Identifier: GPL-2.0 */
#ifndef _LINUX_OF_H
#define _LINUX_OF_H

struct device_node {
        const char *name;
        const char *full_name;
        struct kobject kobj;
        struct device_node *parent;
        struct device_node *child;
        struct device_node *sibling;
};

extern struct device_node *of_node_get(struct device_node *node);
extern void of_node_put(struct device_node *node);
extern struct device_node *of_find_node_by_name(struct device_node *from, const char *name);
extern struct device_node *of_find_compatible_node(struct device_node *from, const char *type, const char *compat);
extern struct device_node *of_find_matching_node(struct device_node *from, const struct of_device_id *matches);
extern struct device_node *of_get_next_child(const struct device_node *node, struct device_node *prev);

#define for_each_child_of_node(parent, child) \
        for (child = of_get_next_child(parent, NULL); child != NULL; \
             child = of_get_next_child(parent, child))

#define for_each_matching_node(dn, matches) \
        for (dn = of_find_matching_node(NULL, matches); dn; \
             dn = of_find_matching_node(dn, matches))

#define for_each_node_by_name(dn, name) \
        for (dn = of_find_node_by_name(NULL, name); dn; \
             dn = of_find_node_by_name(dn, name))

#define for_each_compatible_node(dn, type, compatible) \
        for (dn = of_find_compatible_node(NULL, type, compatible); dn; \
             dn = of_find_compatible_node(dn, type, compatible))

#endif
"#;

/// The kref header: the basic refcounted structures.
const KREF_HEADER: &str = r#"/* SPDX-License-Identifier: GPL-2.0 */
#ifndef _LINUX_KREF_H
#define _LINUX_KREF_H

typedef struct refcount_struct {
        int refs;
} refcount_t;

struct kref {
        refcount_t refcount;
};

struct kobject {
        const char *name;
        struct kref kref;
        unsigned int state_initialized;
};

static inline void kref_get(struct kref *kref)
{
        refcount_inc(&kref->refcount);
}

#endif
"#;

/// Reference implementations of the device get/put wrappers; the
/// discovery stage classifies these as Specific APIs.
const BASE_CORE: &str = r#"// SPDX-License-Identifier: GPL-2.0
#include <linux/kref.h>

struct device {
        struct kobject kobj;
        struct device *parent;
        void *driver_data;
};

struct device *get_device(struct device *dev)
{
        if (dev)
                kobject_get(&dev->kobj);
        return dev;
}

void put_device(struct device *dev)
{
        if (dev)
                kobject_put(&dev->kobj);
}
"#;

/// Parameters for [`generate_big_tree`]: a kernel-scale tree stamped
/// out of deterministic replicas of the Table 5 plan.
///
/// Each replica is a full [`generate_tree`] run with a seed derived
/// from `seed` and the replica index, so every replica's identifiers,
/// file contents, and content hashes differ while the bug *mix* (and
/// therefore the per-replica ground truth) stays the paper's. Replica
/// files are nested one directory deeper (`drivers/gpu/r17/...`) so
/// paths never collide, and the three shared preamble files
/// (`include/linux/of.h`, `include/linux/kref.h`,
/// `drivers/base/core.c`) appear exactly once.
#[derive(Debug, Clone)]
pub struct BigTreeConfig {
    /// RNG seed; everything is deterministic given it.
    pub seed: u64,
    /// Number of replicas stamped out. At `scale: 1.0` each replica is
    /// roughly a hundred files, so ~100 replicas ≈ 10k files / ~1 MLoC.
    pub replicas: usize,
    /// Scale within each replica (forwarded to [`TreeConfig::scale`]).
    pub scale: f64,
}

impl Default for BigTreeConfig {
    fn default() -> Self {
        BigTreeConfig {
            seed: 0xb16_c0de,
            replicas: 100,
            scale: 1.0,
        }
    }
}

/// The preamble files every [`generate_tree`] run emits verbatim; kept
/// once in the big tree rather than per replica.
const SHARED_PREAMBLE: [&str; 3] = [
    "include/linux/of.h",
    "include/linux/kref.h",
    "drivers/base/core.c",
];

/// Nests a replica's file one directory deeper, keyed by the replica
/// index: `drivers/gpu/gpu_unit1.c` → `drivers/gpu/r17/gpu_unit1.c`.
/// The subsystem/module prefix is preserved so grouped reporting and
/// `--subsystem` trims behave exactly as on the base tree.
fn replica_path(path: &str, replica: usize) -> String {
    match path.rfind('/') {
        Some(i) => format!("{}/r{}/{}", &path[..i], replica, &path[i + 1..]),
        None => format!("r{replica}/{path}"),
    }
}

/// Generates a kernel-scale synthetic tree: `cfg.replicas` independent
/// stampings of the Table 5 plan, merged into one tree with one
/// combined ground-truth manifest. Deterministic given `cfg`.
pub fn generate_big_tree(cfg: &BigTreeConfig) -> SyntheticTree {
    let mut files: Vec<SourceFile> = Vec::new();
    let mut manifest = Manifest::default();
    for r in 0..cfg.replicas {
        let replica_cfg = TreeConfig {
            seed: cfg
                .seed
                .wrapping_add((r as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            scale: cfg.scale,
            ..TreeConfig::default()
        };
        let tree = generate_tree(&replica_cfg);
        for f in tree.files {
            if SHARED_PREAMBLE.contains(&f.path.as_str()) {
                if r == 0 {
                    files.push(f);
                }
                continue;
            }
            files.push(SourceFile {
                path: replica_path(&f.path, r),
                content: f.content,
            });
        }
        manifest
            .bugs
            .extend(tree.manifest.bugs.into_iter().map(|mut b| {
                b.path = replica_path(&b.path, r);
                b
            }));
        manifest.tricky.extend(
            tree.manifest
                .tricky
                .into_iter()
                .map(|(path, func)| (replica_path(&path, r), func)),
        );
        manifest.clean_functions += tree.manifest.clean_functions;
        manifest
            .fp_traps
            .extend(tree.manifest.fp_traps.into_iter().map(|mut t| {
                t.path = replica_path(&t.path, r);
                t
            }));
    }
    SyntheticTree { files, manifest }
}

/// Release labels for [`generate_release_history`], spanning the
/// paper's v2.6.12 → v6.x study window (Faults-in-Linux Figure 1).
pub const RELEASE_LADDER: [&str; 10] = [
    "v2.6.12", "v2.6.27", "v3.0", "v3.10", "v4.0", "v4.14", "v5.0", "v5.10", "v6.0", "v6.6",
];

/// Configuration for [`generate_release_history`].
#[derive(Debug, Clone)]
pub struct ReleaseHistoryConfig {
    /// RNG seed; everything is deterministic given it.
    pub seed: u64,
    /// Scale factor forwarded to every stamped [`TreeConfig`].
    pub scale: f64,
    /// Number of releases, the base import included.
    pub releases: usize,
    /// Clone groups injected into the base release (partial fixes
    /// repair one member per release while groups remain).
    pub clone_groups: usize,
}

impl Default for ReleaseHistoryConfig {
    fn default() -> Self {
        ReleaseHistoryConfig {
            seed: 0x6e1ea5e,
            scale: 0.25,
            releases: 5,
            clone_groups: 2,
        }
    }
}

/// One release of a simulated kernel history.
#[derive(Debug, Clone)]
pub struct ReleaseRev {
    /// Version label from [`RELEASE_LADDER`] (`v2.6.12`, …).
    pub version: String,
    /// The full tree at this release, manifest included.
    pub tree: SyntheticTree,
    /// Files this release added over the previous one (LoC growth).
    pub added_files: usize,
    /// Clone members repaired by this release, as
    /// `(group, path, function)` triples.
    pub fixed: Vec<(String, String, String)>,
}

/// The version label for release index `i`: the ladder while it
/// lasts, then synthetic `v6.x` labels beyond it.
pub fn release_version(i: usize) -> String {
    if i < RELEASE_LADDER.len() {
        RELEASE_LADDER[i].to_string()
    } else {
        format!("v6.{}", 6 + 2 * (i - RELEASE_LADDER.len() + 1))
    }
}

/// Generates a seeded v2.6 → v6.x-style release sequence: the base
/// release is a [`generate_tree`] stamping (clone groups included);
/// every later release *grows* the tree by one independently-seeded
/// replica (nested via the big-tree path scheme so earlier files stay
/// byte-identical) and, while unfixed clone groups remain, repairs
/// one group's first member — the incomplete-fix shape. Each
/// release's manifest is ground truth for that release.
///
/// Deterministic given `cfg`; because untouched files are
/// byte-identical across consecutive releases, a shared audit cache
/// re-parses only each release's delta.
pub fn generate_release_history(cfg: &ReleaseHistoryConfig) -> Vec<ReleaseRev> {
    let kb = ApiKb::builtin();
    let base = generate_tree(&TreeConfig {
        seed: cfg.seed,
        scale: cfg.scale,
        clone_groups: cfg.clone_groups,
        ..TreeConfig::default()
    });
    let base_files = base.files.len();
    let mut revs = vec![ReleaseRev {
        version: release_version(0),
        tree: base.clone(),
        added_files: base_files,
        fixed: Vec::new(),
    }];
    let mut cur = base;
    for i in 1..cfg.releases {
        let mut tree = cur.clone();
        let mut fixed = Vec::new();
        // (a) Partial fix: repair the next clone group's first member,
        // exactly like a fix-history commit.
        let g = i - 1;
        if g < cfg.clone_groups {
            let (pattern, api) = CLONE_SHAPES[g % CLONE_SHAPES.len()];
            let (fixed_file, function) = clone_member_file(cfg.seed, g, 0, pattern, api, &kb, true);
            let slot = tree
                .files
                .iter_mut()
                .find(|f| f.path == fixed_file.path)
                .expect("clone member file exists in base release");
            slot.content = fixed_file.content;
            tree.manifest
                .bugs
                .retain(|b| !(b.path == fixed_file.path && b.function == function));
            tree.manifest.clean_functions += 1;
            if let Some(grp) = tree
                .manifest
                .clone_groups
                .iter_mut()
                .find(|c| c.group == format!("cg{g}"))
            {
                if let Some(m) = grp.members.iter_mut().find(|m| m.function == function) {
                    m.fixed = true;
                }
            }
            fixed.push((format!("cg{g}"), fixed_file.path, function));
        }
        // (b) LoC growth: stamp one fresh replica of the Table 5 plan
        // under release-keyed nested paths (shared headers already
        // exist and are kept verbatim).
        let replica_cfg = TreeConfig {
            seed: cfg
                .seed
                .wrapping_add((i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
            scale: cfg.scale,
            ..TreeConfig::default()
        };
        let replica = generate_tree(&replica_cfg);
        let mut added_files = 0usize;
        for f in replica.files {
            if SHARED_PREAMBLE.contains(&f.path.as_str()) {
                continue;
            }
            added_files += 1;
            tree.files.push(SourceFile {
                path: replica_path(&f.path, i),
                content: f.content,
            });
        }
        tree.manifest
            .bugs
            .extend(replica.manifest.bugs.into_iter().map(|mut b| {
                b.path = replica_path(&b.path, i);
                b
            }));
        tree.manifest.tricky.extend(
            replica
                .manifest
                .tricky
                .into_iter()
                .map(|(path, func)| (replica_path(&path, i), func)),
        );
        tree.manifest.clean_functions += replica.manifest.clean_functions;
        tree.manifest
            .fp_traps
            .extend(replica.manifest.fp_traps.into_iter().map(|mut t| {
                t.path = replica_path(&t.path, i);
                t
            }));
        revs.push(ReleaseRev {
            version: release_version(i),
            tree: tree.clone(),
            added_files,
            fixed,
        });
        cur = tree;
    }
    revs
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn release_history_grows_and_stays_deterministic() {
        let cfg = ReleaseHistoryConfig {
            seed: 0xfeed,
            scale: 0.05,
            releases: 4,
            clone_groups: 2,
        };
        let a = generate_release_history(&cfg);
        let b = generate_release_history(&cfg);
        assert_eq!(a.len(), 4);
        assert_eq!(a[0].version, "v2.6.12");
        assert_eq!(a[1].version, "v2.6.27");
        for (ra, rb) in a.iter().zip(&b) {
            assert_eq!(ra.tree.files.len(), rb.tree.files.len());
            for (fa, fb) in ra.tree.files.iter().zip(&rb.tree.files) {
                assert_eq!(fa.path, fb.path);
                assert_eq!(fa.content, fb.content);
            }
        }
        // LoC growth is monotone, and no paths collide.
        for w in a.windows(2) {
            assert!(w[1].tree.total_lines() > w[0].tree.total_lines());
            assert!(w[1].tree.files.len() > w[0].tree.files.len());
        }
        for rel in &a {
            let paths: HashSet<&str> = rel.tree.files.iter().map(|f| f.path.as_str()).collect();
            assert_eq!(paths.len(), rel.tree.files.len(), "paths collide");
        }
    }

    #[test]
    fn release_history_fixes_one_clone_member_per_release() {
        let cfg = ReleaseHistoryConfig {
            seed: 0xfeed,
            scale: 0.05,
            releases: 4,
            clone_groups: 2,
        };
        let revs = generate_release_history(&cfg);
        assert_eq!(revs[0].fixed.len(), 0);
        assert_eq!(revs[1].fixed.len(), 1);
        assert_eq!(revs[1].fixed[0].0, "cg0");
        assert_eq!(revs[2].fixed[0].0, "cg1");
        assert!(revs[3].fixed.is_empty(), "groups exhausted, growth only");
        // The repaired member's bug entry is gone and its flag set.
        let (_, path, function) = &revs[1].fixed[0];
        let m = &revs[1].tree.manifest;
        assert!(!m
            .bugs
            .iter()
            .any(|b| b.path == *path && b.function == *function));
        let member = m
            .clone_groups
            .iter()
            .find(|g| g.group == "cg0")
            .unwrap()
            .members
            .iter()
            .find(|mm| mm.function == *function)
            .unwrap();
        assert!(member.fixed);
        // Untouched base files are byte-identical across releases, so
        // a shared cache re-parses only the delta.
        let base: std::collections::HashMap<&str, &str> = revs[0]
            .tree
            .files
            .iter()
            .map(|f| (f.path.as_str(), f.content.as_str()))
            .collect();
        let changed: Vec<&str> = revs[1]
            .tree
            .files
            .iter()
            .filter(|f| base.get(f.path.as_str()).is_some_and(|c| *c != f.content))
            .map(|f| f.path.as_str())
            .collect();
        assert_eq!(changed, vec![path.as_str()]);
    }

    #[test]
    fn release_version_ladder_extends() {
        assert_eq!(release_version(0), "v2.6.12");
        assert_eq!(release_version(9), "v6.6");
        assert_eq!(release_version(10), "v6.8");
        assert_eq!(release_version(11), "v6.10");
    }

    #[test]
    fn big_tree_is_deterministic_and_collision_free() {
        let cfg = BigTreeConfig {
            seed: 0xfeed,
            replicas: 3,
            scale: 0.05,
        };
        let a = generate_big_tree(&cfg);
        let b = generate_big_tree(&cfg);
        assert_eq!(a.files.len(), b.files.len());
        for (fa, fb) in a.files.iter().zip(&b.files) {
            assert_eq!(fa.path, fb.path);
            assert_eq!(fa.content, fb.content);
        }
        assert_eq!(a.manifest.bugs.len(), b.manifest.bugs.len());

        let paths: HashSet<&str> = a.files.iter().map(|f| f.path.as_str()).collect();
        assert_eq!(paths.len(), a.files.len(), "replica paths collide");
        for shared in SHARED_PREAMBLE {
            assert!(paths.contains(shared));
        }
    }

    #[test]
    fn big_tree_scales_ground_truth_with_replicas() {
        let one = generate_tree(&TreeConfig {
            scale: 0.05,
            ..TreeConfig::default()
        });
        let big = generate_big_tree(&BigTreeConfig {
            seed: 0xfeed,
            replicas: 4,
            scale: 0.05,
        });
        assert_eq!(big.manifest.bugs.len(), 4 * one.manifest.bugs.len());
        assert_eq!(big.manifest.tricky.len(), 4 * one.manifest.tricky.len());
        assert_eq!(
            big.manifest.clean_functions,
            4 * one.manifest.clean_functions
        );
        // Replica files nest one level deeper; every manifest path
        // names a real file.
        let paths: HashSet<&str> = big.files.iter().map(|f| f.path.as_str()).collect();
        for bug in &big.manifest.bugs {
            assert!(paths.contains(bug.path.as_str()), "missing {}", bug.path);
            assert!(bug.path.contains("/r"), "path not replica-nested");
        }
        // Replicas use distinct identifier streams, so their contents
        // (and content hashes) differ.
        let unit0: Vec<&SourceFile> = big
            .files
            .iter()
            .filter(|f| f.path.ends_with("_unit0.c") && f.path.contains("/r0/"))
            .collect();
        let unit1: Vec<&SourceFile> = big
            .files
            .iter()
            .filter(|f| f.path.ends_with("_unit0.c") && f.path.contains("/r1/"))
            .collect();
        assert!(!unit0.is_empty() && unit0.len() == unit1.len());
        assert!(unit0
            .iter()
            .zip(&unit1)
            .all(|(a, b)| a.content != b.content));
    }

    #[test]
    fn full_scale_matches_plan_total() {
        let tree = generate_tree(&TreeConfig::default());
        assert_eq!(tree.manifest.bugs.len(), 351);
        assert_eq!(tree.manifest.tricky.len(), 5);
        assert!(tree.files.len() > 90);
    }

    #[test]
    fn impacts_match_table4() {
        let tree = generate_tree(&TreeConfig::default());
        let count = |imp: &str| {
            tree.manifest
                .bugs
                .iter()
                .filter(|b| b.impact == imp)
                .count()
        };
        assert_eq!(count("Leak"), 296);
        assert_eq!(count("UAF"), 48);
        assert_eq!(count("NPD"), 7);
    }

    #[test]
    fn per_subsystem_counts_match_table4() {
        let tree = generate_tree(&TreeConfig::default());
        let count = |s: &str| {
            tree.manifest
                .bugs
                .iter()
                .filter(|b| b.subsystem == s)
                .count()
        };
        assert_eq!(count("arch"), 156);
        assert_eq!(count("drivers"), 182);
        assert_eq!(count("include"), 2);
        assert_eq!(count("net"), 2);
        assert_eq!(count("sound"), 9);
    }

    #[test]
    fn deterministic_generation() {
        let a = generate_tree(&TreeConfig::default());
        let b = generate_tree(&TreeConfig::default());
        assert_eq!(a.files.len(), b.files.len());
        assert_eq!(a.files[5].content, b.files[5].content);
    }

    #[test]
    fn scaled_generation_shrinks() {
        let tree = generate_tree(&TreeConfig {
            scale: 0.1,
            ..Default::default()
        });
        assert!(tree.manifest.bugs.len() < 150);
        assert!(!tree.manifest.bugs.is_empty());
    }

    #[test]
    fn next_revision_edits_exactly_the_named_files() {
        let base = generate_tree(&TreeConfig {
            scale: 0.05,
            ..Default::default()
        });
        let (rev, edited) = next_revision(&base, 42, 3);
        assert_eq!(edited.len(), 3);
        assert_eq!(rev.files.len(), base.files.len());
        for (a, b) in base.files.iter().zip(&rev.files) {
            assert_eq!(a.path, b.path);
            if edited.contains(&a.path) {
                assert_ne!(a.content, b.content, "{} should have changed", a.path);
                assert!(b.content.starts_with(&a.content), "edits are appends");
            } else {
                assert_eq!(a.content, b.content, "{} should be untouched", a.path);
            }
        }
        assert_eq!(rev.manifest.bugs, base.manifest.bugs);
        assert_eq!(
            rev.manifest.clean_functions,
            base.manifest.clean_functions + 3
        );
    }

    #[test]
    fn next_revision_is_deterministic_and_seed_sensitive() {
        let base = generate_tree(&TreeConfig {
            scale: 0.05,
            ..Default::default()
        });
        let (a, ea) = next_revision(&base, 7, 2);
        let (b, eb) = next_revision(&base, 7, 2);
        assert_eq!(ea, eb);
        assert!(a
            .files
            .iter()
            .zip(&b.files)
            .all(|(x, y)| x.content == y.content));
        let (_, ec) = next_revision(&base, 8, 2);
        assert_ne!(ea, ec, "different seeds pick different files");
    }

    #[test]
    fn next_revision_clamps_to_available_files() {
        let base = generate_tree(&TreeConfig {
            scale: 0.02,
            ..Default::default()
        });
        let c_files = base.files.iter().filter(|f| f.path.ends_with(".c")).count();
        let (_, edited) = next_revision(&base, 1, usize::MAX);
        assert_eq!(edited.len(), c_files);
    }

    #[test]
    fn cross_unit_knob_adds_tagged_pairs() {
        let base = generate_tree(&TreeConfig {
            scale: 0.25,
            ..Default::default()
        });
        let tree = generate_tree(&TreeConfig {
            scale: 0.25,
            cross_unit: true,
            ..Default::default()
        });
        // 4.0 * 0.25 rounds to one helper/caller pair → two files.
        assert_eq!(tree.files.len(), base.files.len() + 2);
        let tagged: Vec<_> = tree.manifest.bugs.iter().filter(|b| b.inter_unit).collect();
        assert_eq!(tagged.len(), 2);
        assert!(tagged
            .iter()
            .all(|b| b.path.starts_with("drivers/crossunit/") && b.module == "crossunit"));
        assert!(tagged.iter().any(|b| b.pattern == 6));
        assert!(tagged.iter().any(|b| b.pattern == 4));
        // The helper definitions live in a different file than every
        // tagged bug — that is the point of the module.
        assert!(tree
            .files
            .iter()
            .any(|f| f.path == "drivers/crossunit/xu0_helpers.c"));
        assert_eq!(
            tree.manifest.clean_functions,
            base.manifest.clean_functions + 7
        );
    }

    #[test]
    fn default_tree_has_no_cross_unit_material() {
        let tree = generate_tree(&TreeConfig::default());
        assert!(tree.manifest.bugs.iter().all(|b| !b.inter_unit));
        assert!(!tree.files.iter().any(|f| f.path.contains("crossunit")));
    }

    #[test]
    fn fp_trap_knob_adds_tagged_non_bugs() {
        let base = generate_tree(&TreeConfig {
            scale: 0.05,
            ..Default::default()
        });
        let tree = generate_tree(&TreeConfig {
            scale: 0.05,
            fp_traps: true,
            ..Default::default()
        });
        assert_eq!(tree.files.len(), base.files.len() + 1);
        assert_eq!(tree.manifest.fp_traps.len(), 5);
        assert_eq!(
            tree.manifest.clean_functions,
            base.manifest.clean_functions + 5
        );
        // Traps are non-bugs: the bug list is untouched.
        assert_eq!(tree.manifest.bugs, base.manifest.bugs);
        assert!(tree
            .manifest
            .fp_traps
            .iter()
            .all(|t| t.path.starts_with("drivers/fptrap/")));
        // At least two distinct anti-patterns are baited.
        let mut patterns: Vec<u8> = tree.manifest.fp_traps.iter().map(|t| t.pattern).collect();
        patterns.sort_unstable();
        patterns.dedup();
        assert!(patterns.len() >= 2, "traps must bait >= 2 patterns");
    }

    #[test]
    fn default_tree_has_no_fp_traps() {
        let tree = generate_tree(&TreeConfig::default());
        assert!(tree.manifest.fp_traps.is_empty());
        assert!(!tree.files.iter().any(|f| f.path.contains("fptrap")));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let tree = generate_tree(&TreeConfig {
            scale: 0.05,
            fp_traps: true,
            cross_unit: true,
            clone_groups: 2,
            ..Default::default()
        });
        let json = tree.manifest.to_json();
        // Trap records carry the explicit `bug: false` marker.
        assert!(json.to_string().contains("\"bug\":false"));
        let back = Manifest::from_json(&json).expect("round trip");
        assert_eq!(back.bugs, tree.manifest.bugs);
        assert_eq!(back.tricky, tree.manifest.tricky);
        assert_eq!(back.clean_functions, tree.manifest.clean_functions);
        assert_eq!(back.fp_traps, tree.manifest.fp_traps);
        assert_eq!(back.clone_groups, tree.manifest.clone_groups);
        // A pattern outside 1..=9 in any bug, trap or clone group makes
        // the whole manifest malformed; 257 must not wrap to 1.
        for member in ["bugs", "fp_traps", "clone_groups"] {
            for bad in [0.0, 10.0, 257.0] {
                let mut v = json.clone();
                let Value::Obj(root) = &mut v else {
                    unreachable!()
                };
                let Some((_, Value::Arr(items))) = root.iter_mut().find(|(k, _)| k == member)
                else {
                    unreachable!()
                };
                let Value::Obj(first) = &mut items[0] else {
                    unreachable!()
                };
                first.iter_mut().find(|(k, _)| k == "pattern").unwrap().1 = Value::Num(bad);
                assert!(
                    Manifest::from_json(&v).is_none(),
                    "{member} pattern {bad} was accepted"
                );
            }
        }
    }

    #[test]
    fn clone_groups_knob_injects_sibling_sites() {
        let base = generate_tree(&TreeConfig {
            scale: 0.05,
            ..Default::default()
        });
        let tree = generate_tree(&TreeConfig {
            scale: 0.05,
            clone_groups: 3,
            ..Default::default()
        });
        assert_eq!(tree.files.len(), base.files.len() + 3 * CLONE_GROUP_SIZE);
        assert_eq!(tree.manifest.clone_groups.len(), 3);
        assert_eq!(
            tree.manifest.bugs.len(),
            base.manifest.bugs.len() + 3 * CLONE_GROUP_SIZE
        );
        for grp in &tree.manifest.clone_groups {
            assert_eq!(grp.members.len(), CLONE_GROUP_SIZE);
            // One site per translation unit, so a partial fix touches
            // exactly one file.
            let paths: HashSet<&str> = grp.members.iter().map(|m| m.path.as_str()).collect();
            assert_eq!(paths.len(), CLONE_GROUP_SIZE);
            for m in &grp.members {
                assert!(!m.fixed);
                assert!(tree.manifest.bugs.iter().any(|b| b.path == m.path
                    && b.function == m.function
                    && b.pattern == grp.pattern
                    && b.api == grp.api));
                assert!(tree.files.iter().any(|f| f.path == m.path));
            }
        }
        // Groups rotate over distinct shapes.
        assert_ne!(
            tree.manifest.clone_groups[0].api,
            tree.manifest.clone_groups[1].api
        );
        // Sibling sites use distinct identifier streams.
        let m0 = &tree.manifest.clone_groups[0].members[0];
        let m1 = &tree.manifest.clone_groups[0].members[1];
        let c0 = &tree
            .files
            .iter()
            .find(|f| f.path == m0.path)
            .unwrap()
            .content;
        let c1 = &tree
            .files
            .iter()
            .find(|f| f.path == m1.path)
            .unwrap()
            .content;
        assert_ne!(c0, c1);
    }

    #[test]
    fn default_tree_has_no_clone_groups() {
        let tree = generate_tree(&TreeConfig::default());
        assert!(tree.manifest.clone_groups.is_empty());
        assert!(!tree.files.iter().any(|f| f.path.contains("/clones/")));
    }

    #[test]
    fn fix_history_repairs_one_member_per_commit() {
        let cfg = TreeConfig {
            scale: 0.05,
            clone_groups: 2,
            ..Default::default()
        };
        let revs = generate_fix_history(&cfg);
        // Base import, one partial fix per group, neutral churn.
        assert_eq!(revs.len(), 1 + 2 + 1);
        assert!(revs[0].fixed.is_empty());
        for i in 1..=2 {
            let (prev, rev) = (&revs[i - 1], &revs[i]);
            assert_eq!(rev.fixed.len(), 1);
            let (grp, path, func) = &rev.fixed[0];
            // Exactly one file differs from the previous revision.
            let changed: Vec<&str> = prev
                .tree
                .files
                .iter()
                .zip(&rev.tree.files)
                .filter(|(a, b)| a.content != b.content)
                .map(|(a, _)| a.path.as_str())
                .collect();
            assert_eq!(changed, vec![path.as_str()]);
            // The repaired member's bug entry is gone; its siblings stay.
            assert!(prev
                .tree
                .manifest
                .bugs
                .iter()
                .any(|b| b.path == *path && b.function == *func));
            assert!(!rev
                .tree
                .manifest
                .bugs
                .iter()
                .any(|b| b.path == *path && b.function == *func));
            let g = rev
                .tree
                .manifest
                .clone_groups
                .iter()
                .find(|c| c.group == *grp)
                .unwrap();
            assert_eq!(g.members.iter().filter(|m| m.fixed).count(), 1);
            assert!(
                g.members
                    .iter()
                    .find(|m| m.function == *func)
                    .unwrap()
                    .fixed
            );
            assert_eq!(
                rev.tree.manifest.clean_functions,
                prev.tree.manifest.clean_functions + 1
            );
        }
        // The final churn commit changes no findings-relevant state.
        let last = revs.last().unwrap();
        assert!(last.fixed.is_empty());
        assert_eq!(
            last.tree.manifest.bugs,
            revs[revs.len() - 2].tree.manifest.bugs
        );
        // Deterministic given the config.
        let again = generate_fix_history(&cfg);
        assert_eq!(revs.len(), again.len());
        for (a, b) in revs.iter().zip(&again) {
            assert_eq!(a.message, b.message);
            assert_eq!(a.tree.files.len(), b.tree.files.len());
            for (fa, fb) in a.tree.files.iter().zip(&b.tree.files) {
                assert_eq!(fa.path, fb.path);
                assert_eq!(fa.content, fb.content);
            }
        }
    }

    #[test]
    fn manifest_lookup() {
        let tree = generate_tree(&TreeConfig {
            scale: 0.05,
            ..Default::default()
        });
        // Every recorded bug names an anti-pattern, so ground-truth
        // matching (`Finding::claims`) can score it.
        for b in &tree.manifest.bugs {
            assert!(
                refminer_checkers::AntiPattern::from_number(b.pattern).is_some(),
                "{b:?}"
            );
            assert!(!tree.manifest.is_tricky(&b.path, &b.function), "{b:?}");
        }
        let (path, function) = &tree.manifest.tricky[0];
        assert!(tree.manifest.is_tricky(path, function));
    }
}
