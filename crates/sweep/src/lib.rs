//! # refminer-sweep
//!
//! The "one bug, hundreds behind" propagation search: given one
//! confirmed finding, abstract it into a [`BugTemplate`] — anti-pattern
//! family, acquire/release API pair, and the structural context of the
//! buggy function captured as a [`StructSig`] — then sweep every other
//! finding of a full audit for *clone sites*: functions that
//! instantiate the same template with different identifiers.
//!
//! The sweep never re-discovers bugs on its own; it *ranks and groups*
//! what the checkers already reported, so a clone match inherits the
//! report layer's feasibility suppression. That is what keeps the sweep
//! at zero spurious matches on the FP-trap corpus: a trap suppressed by
//! the feasibility engine never enters the candidate pool.

use std::collections::HashMap;
use std::sync::Arc;

use refminer_checkers::{AntiPattern, Finding, Impact};
use refminer_cparse::{parse_str, FunctionDef, TranslationUnit};
use refminer_cpg::{error_nodes, Cfg, CheckFact, NodeFacts, StoreTarget};
use refminer_json::{obj, ToJson, Value};
use refminer_rcapi::ApiKb;

/// The structural context of a bug site, as a fixed set of boolean
/// facts computed from the function's code property graph. Clone
/// ranking is the fraction of these bits two sites agree on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StructSig {
    /// The acquired object is NULL-guarded somewhere in the function.
    pub null_guard: bool,
    /// Some path returns an error constant (`-EINVAL`, `ERR_PTR`,
    /// `NULL`).
    pub error_return: bool,
    /// The function has classified error-handling blocks.
    pub error_blocks: bool,
    /// An accepted release API for the acquire is called somewhere.
    pub paired_dec: bool,
    /// Some path returns the object itself (ownership transfer to the
    /// caller).
    pub returns_object: bool,
    /// The object is stored into a field or through a pointer
    /// (ownership escape).
    pub stores_object: bool,
    /// The object is dereferenced.
    pub derefs_object: bool,
    /// The acquire site sits inside a loop.
    pub in_loop: bool,
    /// The object is passed as the *sole* argument to a helper outside
    /// the API knowledge base — the custom-release / ownership-transfer
    /// shape (the paper's Listing 5 lookalikes). A candidate exhibiting
    /// this when the template does not is vetoed outright, not merely
    /// scored down: the helper may drop the reference, so the seed's
    /// bug does not generalize to it.
    pub release_like: bool,
}

/// Number of facts in a [`StructSig`].
pub const SIG_BITS: u32 = 9;

/// Minimum similarity score (percent) for a candidate to count as a
/// clone match.
pub const MIN_SCORE: u32 = 50;

impl StructSig {
    fn bits(&self) -> [bool; SIG_BITS as usize] {
        [
            self.null_guard,
            self.error_return,
            self.error_blocks,
            self.paired_dec,
            self.returns_object,
            self.stores_object,
            self.derefs_object,
            self.in_loop,
            self.release_like,
        ]
    }

    /// How many of the [`SIG_BITS`] facts two signatures agree on.
    pub fn matched(&self, other: &StructSig) -> u32 {
        self.bits()
            .iter()
            .zip(other.bits())
            .filter(|(a, b)| **a == *b)
            .count() as u32
    }

    /// Similarity as an integer percentage, rounded to nearest
    /// (JSON-stable). At the [`MIN_SCORE`] boundary this makes the
    /// reported number honest about which side it falls on: 5 of 9
    /// bits is 55.6% → 56 (a match), 4 of 9 is 44.4% → 44 (not one),
    /// so "score ≥ 50" is exactly the "at least half the bits agree"
    /// contract — with 9 bits that means ≥5 matched.
    pub fn score(&self, other: &StructSig) -> u32 {
        (self.matched(other) * 200 + SIG_BITS) / (2 * SIG_BITS)
    }
}

impl ToJson for StructSig {
    fn to_json(&self) -> Value {
        obj([
            ("null_guard", self.null_guard.to_json()),
            ("error_return", self.error_return.to_json()),
            ("error_blocks", self.error_blocks.to_json()),
            ("paired_dec", self.paired_dec.to_json()),
            ("returns_object", self.returns_object.to_json()),
            ("stores_object", self.stores_object.to_json()),
            ("derefs_object", self.derefs_object.to_json()),
            ("in_loop", self.in_loop.to_json()),
            ("release_like", self.release_like.to_json()),
        ])
    }
}

/// The seed finding a template was abstracted from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeedSite {
    /// Source file of the seed finding.
    pub file: String,
    /// Containing function.
    pub function: String,
    /// 1-based line.
    pub line: u32,
}

impl ToJson for SeedSite {
    fn to_json(&self) -> Value {
        obj([
            ("file", self.file.to_json()),
            ("function", self.function.to_json()),
            ("line", self.line.to_json()),
        ])
    }
}

/// One confirmed finding abstracted away from its identifiers: the
/// anti-pattern, its root-cause family, the acquire/release API pair,
/// and the structural shape of the buggy function.
#[derive(Debug, Clone)]
pub struct BugTemplate {
    /// The seed finding's anti-pattern.
    pub pattern: AntiPattern,
    /// The root-cause family (§5 headings) clone candidates must share.
    pub family: &'static str,
    /// The bug-caused API.
    pub api: String,
    /// Release APIs accepted for `api` per the knowledge base.
    pub accepted_decs: Vec<String>,
    /// Projected impact of the seed.
    pub impact: Impact,
    /// Where the template came from.
    pub origin: SeedSite,
    /// Structural signature of the seed function.
    pub sig: StructSig,
}

impl ToJson for BugTemplate {
    fn to_json(&self) -> Value {
        obj([
            ("pattern", self.pattern.to_json()),
            ("family", Value::Str(self.family.to_string())),
            ("api", self.api.to_json()),
            ("accepted_decs", self.accepted_decs.to_json()),
            ("impact", self.impact.to_json()),
            ("origin", self.origin.to_json()),
            ("sig", self.sig.to_json()),
        ])
    }
}

/// A clone site the sweep matched against a template.
#[derive(Debug, Clone)]
pub struct CloneMatch {
    /// The matched finding.
    pub finding: Finding,
    /// Structural similarity to the template, in percent.
    pub score: u32,
    /// The candidate's own signature (for explanation output).
    pub sig: StructSig,
}

impl ToJson for CloneMatch {
    fn to_json(&self) -> Value {
        obj([
            ("score", self.score.to_json()),
            ("finding", self.finding.to_json()),
            ("sig", self.sig.to_json()),
        ])
    }
}

/// Computes the structural signature of one function with respect to an
/// acquire API and (optionally) the acquired object variable. It reads
/// only the function's CFG, the CFG's node facts and whether any node
/// lies in an error-handling block, so it builds just those — never the
/// origin and feasibility analyses of a full [`FunctionGraph`].
///
/// [`FunctionGraph`]: refminer_cpg::FunctionGraph
pub fn struct_sig(func: &FunctionDef, api: &str, object: Option<&str>, kb: &ApiKb) -> StructSig {
    let cfg = Cfg::build(func);
    let facts: Vec<NodeFacts> = cfg.nodes.iter().map(NodeFacts::of).collect();
    let decs = kb.accepted_decs(api);
    let mut sig = StructSig {
        error_blocks: !error_nodes(&cfg, &facts).is_empty(),
        ..StructSig::default()
    };
    for (node, facts) in cfg.nodes.iter().zip(&facts) {
        if facts.calls_named(api) && node.loop_head.is_some() {
            sig.in_loop = true;
        }
        if facts.is_return && facts.returns_error {
            sig.error_return = true;
        }
        if decs.iter().any(|d| facts.calls_named(d)) {
            sig.paired_dec = true;
        }
        let Some(obj) = object else { continue };
        if facts.returns_var == Some(obj) {
            sig.returns_object = true;
        }
        if facts.derefs_var(obj) {
            sig.derefs_object = true;
        }
        if facts
            .checks
            .iter()
            .any(|c| matches!(c, CheckFact::NullOnTrue(v) if *v == obj))
        {
            sig.null_guard = true;
        }
        if facts.assigns.iter().any(|a| {
            a.rhs_root == Some(obj)
                && matches!(
                    a.target,
                    StoreTarget::Field { .. } | StoreTarget::Indirect(_)
                )
        }) {
            sig.stores_object = true;
        }
        if facts.calls.iter().any(|c| {
            c.name != api
                && !decs.iter().any(|d| d == c.name)
                && c.args.len() == 1
                && c.arg_root(0) == Some(obj)
        }) {
            sig.release_like = true;
        }
    }
    sig
}

/// Abstracts one confirmed finding into a [`BugTemplate`], given the
/// source text of the file it lives in. Returns `None` when the seed
/// function cannot be found in the source (stale report).
pub fn abstract_template(finding: &Finding, source: &str, kb: &ApiKb) -> Option<BugTemplate> {
    abstract_template_parsed(finding, &parse_str(&finding.file, source), kb)
}

/// [`abstract_template`] over the already-parsed unit the finding lives
/// in — what a caller holding the audit's ASTs passes instead of text.
pub fn abstract_template_parsed(
    finding: &Finding,
    tu: &TranslationUnit,
    kb: &ApiKb,
) -> Option<BugTemplate> {
    let func = tu.function(&finding.function)?;
    let sig = struct_sig(func, &finding.api, finding.object.as_deref(), kb);
    Some(BugTemplate {
        pattern: finding.pattern,
        family: finding.pattern.root_cause(),
        api: finding.api.clone(),
        accepted_decs: kb.accepted_decs(&finding.api),
        impact: finding.impact,
        origin: SeedSite {
            file: finding.file.clone(),
            function: finding.function.clone(),
            line: finding.line,
        },
        sig,
    })
}

/// Whether a candidate finding's API instantiates the template's API
/// slot: the same API, or one sharing an accepted release API (the
/// paper's "same pair, different wrapper" clones).
fn api_related(template: &BugTemplate, api: &str, kb: &ApiKb) -> bool {
    if api == template.api {
        return true;
    }
    let decs = kb.accepted_decs(api);
    !template.accepted_decs.is_empty() && decs.iter().any(|d| template.accepted_decs.contains(d))
}

/// Sweeps a full audit's findings for clone sites of `template`.
///
/// Candidates must share the template's root-cause family and
/// instantiate its API slot; each surviving candidate is re-analyzed
/// structurally (via `source_of`, a path → source-text lookup) and kept
/// when its [`StructSig`] agrees with the template's on at least
/// [`MIN_SCORE`] percent of the bits. The seed site itself is excluded.
///
/// Matches come back ranked: score descending, then canonical
/// `(file, line)` order — deterministic for byte-stable reports.
pub fn sweep<F>(
    template: &BugTemplate,
    findings: &[Finding],
    kb: &ApiKb,
    mut source_of: F,
) -> Vec<CloneMatch>
where
    F: FnMut(&str) -> Option<String>,
{
    sweep_parsed(template, findings, kb, |path| {
        source_of(path).map(|s| Arc::new(parse_str(path, &s)))
    })
}

/// [`sweep`] over parsed units: `unit_of` is a path → parsed-unit
/// lookup, asked at most once per candidate file, so a caller holding
/// the audit's ASTs hands them over instead of their text.
pub fn sweep_parsed<F>(
    template: &BugTemplate,
    findings: &[Finding],
    kb: &ApiKb,
    mut unit_of: F,
) -> Vec<CloneMatch>
where
    F: FnMut(&str) -> Option<Arc<TranslationUnit>>,
{
    let mut parsed: HashMap<&str, Option<Arc<TranslationUnit>>> = HashMap::new();
    let mut out = Vec::new();
    for f in findings {
        if f.file == template.origin.file && f.line == template.origin.line {
            continue;
        }
        if f.pattern.root_cause() != template.family {
            continue;
        }
        if !api_related(template, &f.api, kb) {
            continue;
        }
        let tu = parsed
            .entry(f.file.as_str())
            .or_insert_with(|| unit_of(&f.file));
        let Some(tu) = tu else { continue };
        let Some(func) = tu.function(&f.function) else {
            continue;
        };
        let sig = struct_sig(func, &f.api, f.object.as_deref(), kb);
        // Ownership-transfer veto: a candidate handing the object to a
        // custom-release-shaped helper the seed never used is
        // structurally *explained*, not cloned — listing it would be a
        // spurious match, however many other bits agree.
        if sig.release_like && !template.sig.release_like {
            continue;
        }
        let score = template.sig.score(&sig);
        if score >= MIN_SCORE {
            out.push(CloneMatch {
                finding: f.clone(),
                score,
                sig,
            });
        }
    }
    out.sort_by(|a, b| {
        b.score.cmp(&a.score).then_with(|| {
            (a.finding.file.as_str(), a.finding.line)
                .cmp(&(b.finding.file.as_str(), b.finding.line))
        })
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_checkers::Feasibility;

    fn mk_finding(file: &str, function: &str, line: u32, api: &str, object: &str) -> Finding {
        Finding {
            pattern: AntiPattern::P4,
            impact: Impact::Leak,
            file: file.into(),
            function: function.into(),
            line,
            api: api.into(),
            object: Some(object.into()),
            message: "reference never released".into(),
            feasibility: Feasibility::Assumed,
            checkers: vec!["HiddenApiChecker".into()],
        }
    }

    const SEED_SRC: &str = r#"
static int alpha_probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_compatible_node(NULL, NULL, "a,b");

        if (!np)
                return -ENODEV;
        use_node(np->name);
        return 0;
}
"#;

    const CLONE_SRC: &str = r#"
static int beta_attach(struct platform_device *pdev)
{
        struct device_node *dn = of_find_compatible_node(NULL, NULL, "c,d");

        if (!dn)
                return -ENODEV;
        use_node(dn->name);
        return 0;
}
"#;

    const UNRELATED_SRC: &str = r#"
static struct device_node *gamma_lookup(void)
{
        struct device_node *np = of_find_compatible_node(NULL, NULL, "e,f");

        return np;
}
"#;

    #[test]
    fn template_captures_structural_context() {
        let kb = ApiKb::builtin();
        let seed = mk_finding("a.c", "alpha_probe", 4, "of_find_compatible_node", "np");
        let t = abstract_template(&seed, SEED_SRC, &kb).expect("template");
        assert_eq!(t.family, "hidden refcounting");
        assert!(t.sig.null_guard);
        assert!(t.sig.error_return);
        assert!(t.sig.derefs_object);
        assert!(!t.sig.paired_dec);
        assert!(!t.sig.returns_object);
        // `use_node(np->name)` is a sole-argument helper rooted at np.
        assert!(t.sig.release_like);
        assert!(t.accepted_decs.contains(&"of_node_put".to_string()));
        let json = t.to_json().to_string();
        assert!(json.contains("\"origin\""));
    }

    #[test]
    fn sweep_finds_identifier_renamed_clone_and_ranks_it() {
        let kb = ApiKb::builtin();
        let seed = mk_finding("a.c", "alpha_probe", 4, "of_find_compatible_node", "np");
        let t = abstract_template(&seed, SEED_SRC, &kb).unwrap();
        let findings = vec![
            seed.clone(),
            mk_finding("b.c", "beta_attach", 4, "of_find_compatible_node", "dn"),
            mk_finding("c.c", "gamma_lookup", 4, "of_find_compatible_node", "np"),
        ];
        let matches = sweep(&t, &findings, &kb, |path| match path {
            "a.c" => Some(SEED_SRC.to_string()),
            "b.c" => Some(CLONE_SRC.to_string()),
            "c.c" => Some(UNRELATED_SRC.to_string()),
            _ => None,
        });
        // The seed itself is excluded; the renamed clone outranks the
        // ownership-transferring lookalike.
        assert!(matches.iter().all(|m| m.finding.function != "alpha_probe"));
        assert_eq!(matches[0].finding.function, "beta_attach");
        assert_eq!(matches[0].score, 100);
        if let Some(second) = matches.get(1) {
            assert!(second.score < 100);
        }
    }

    #[test]
    fn sweep_skips_other_families_and_unrelated_apis() {
        let kb = ApiKb::builtin();
        let seed = mk_finding("a.c", "alpha_probe", 4, "of_find_compatible_node", "np");
        let t = abstract_template(&seed, SEED_SRC, &kb).unwrap();
        let mut other_family = mk_finding("d.c", "delta", 9, "sock_put", "sk");
        other_family.pattern = AntiPattern::P8;
        let findings = vec![other_family];
        let matches = sweep(&t, &findings, &kb, |_| None);
        assert!(matches.is_empty());
    }

    #[test]
    fn api_relation_accepts_shared_release() {
        let kb = ApiKb::builtin();
        let seed = mk_finding("a.c", "alpha_probe", 4, "of_find_compatible_node", "np");
        let t = abstract_template(&seed, SEED_SRC, &kb).unwrap();
        // of_find_node_by_name pairs with of_node_put too.
        assert!(api_related(&t, "of_find_node_by_name", &kb));
        assert!(!api_related(&t, "pm_runtime_get_sync", &kb));
    }

    #[test]
    fn ownership_transfer_candidates_are_vetoed() {
        // A seed that never hands the object off alone must not match a
        // Listing 5-style lookalike whose helper may drop the reference
        // internally — even though every other bit lines up.
        const PLAIN_SEED: &str = r#"
static int delta_probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_compatible_node(NULL, NULL, "a,b");
        u32 v;
        if (!np)
                return -ENODEV;
        if (read_cfg(np, &v))
                return -EIO;
        return 0;
}
"#;
        const TEARDOWN_SRC: &str = r#"
static int epsilon_probe(struct platform_device *pdev)
{
        struct device_node *np = of_find_node_by_name(NULL, "ports");
        if (!np)
                return -ENODEV;
        if (setup_hw(np) < 0) {
                teardown(np);
                return -EIO;
        }
        teardown(np);
        return 0;
}
"#;
        let kb = ApiKb::builtin();
        let seed = mk_finding("a.c", "delta_probe", 4, "of_find_compatible_node", "np");
        let t = abstract_template(&seed, PLAIN_SEED, &kb).unwrap();
        assert!(!t.sig.release_like);
        let lookalike = mk_finding("e.c", "epsilon_probe", 4, "of_find_node_by_name", "np");
        let matches = sweep(&t, &[lookalike], &kb, |path| match path {
            "e.c" => Some(TEARDOWN_SRC.to_string()),
            _ => None,
        });
        assert!(matches.is_empty(), "teardown lookalike must be vetoed");
    }

    #[test]
    fn sig_score_is_symmetric_and_bounded() {
        let a = StructSig {
            null_guard: true,
            error_return: true,
            ..StructSig::default()
        };
        let b = StructSig::default();
        assert_eq!(a.score(&b), b.score(&a));
        assert_eq!(a.score(&a), 100);
        assert!(a.score(&b) < 100);
    }

    /// The MIN_SCORE boundary in bits: 5 of 9 matched bits rounds to
    /// 56 and clears the floor, 4 of 9 rounds to 44 and does not —
    /// "score ≥ 50" is exactly "at least half the bits agree".
    #[test]
    fn score_floor_boundary_at_four_and_five_bits() {
        // All-true vs a signature with exactly N bits flipped back.
        let all = StructSig {
            null_guard: true,
            error_return: true,
            error_blocks: true,
            paired_dec: true,
            returns_object: true,
            stores_object: true,
            derefs_object: true,
            in_loop: true,
            release_like: true,
        };
        let five_matched = StructSig {
            null_guard: false,
            error_return: false,
            error_blocks: false,
            paired_dec: false,
            ..all
        };
        let four_matched = StructSig {
            returns_object: false,
            ..five_matched
        };
        assert_eq!(all.matched(&five_matched), 5);
        assert_eq!(all.score(&five_matched), 56);
        assert!(all.score(&five_matched) >= MIN_SCORE);
        assert_eq!(all.matched(&four_matched), 4);
        assert_eq!(all.score(&four_matched), 44);
        assert!(all.score(&four_matched) < MIN_SCORE);
    }
}
