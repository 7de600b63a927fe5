//! The revision delta: the one computation under `refminer diff`,
//! `refminer fixcheck` and the daemon's `auditdiff` and `fixcheck`
//! RPCs.
//!
//! Each caller audits two revisions through one shared [`AuditCache`]
//! — so revision B re-parses and re-checks only the units the commit
//! touched — and hands both finding lists to [`diff_delta`], which
//! reports findings introduced by the commit, findings it fixed, and
//! findings that merely moved (identical up to their line number,
//! e.g. pushed down by an inserted comment). [`diff_projects`] is the
//! two-tree form `refminer diff` uses; fixcheck rebuilds revision A
//! from a fix diff; the daemon's revision A is its previous snapshot.
//!
//! The delta is computed as a set difference over finding *values*.
//! [`Finding`]'s JSON rendering covers every field, so two findings are
//! equal exactly when the JSONL lines the one-shot `--json` CLI and the
//! daemon print for them are. Because a cached audit is byte-identical
//! to a cold one at any `--jobs`, the delta is byte-identical to
//! diffing two full `--json` runs — the property `tests/diff_sweep.rs`
//! replays the simulated fix history to check.
//!
//! When a commit fixes a finding, the sweep engine abstracts the fixed
//! bug into a template and searches revision B's surviving findings
//! for unfixed clones — the incomplete-fix ("one bug, hundreds
//! behind") detector. Those surface as `left_behind` lines, additive
//! to the delta. The sweep reads the ASTs both audits left in the
//! shared cache, found by the reports' unit keys; it parses a file
//! only when its entry holds no AST (loaded from disk, or a unit that
//! did not parse) or the audits ran under non-default parse limits,
//! whose ASTs can differ from the sweep's default parse. `sweep --at`
//! and `eval --sweep` run the same sweep ([`sweep_clones`]) over one
//! audited revision.

use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

use refminer_checkers::Finding;
use refminer_cparse::{parse_str, ParseLimits, TranslationUnit};
use refminer_json::{obj, ToJson, Value};
use refminer_rcapi::ApiKb;
use refminer_sweep::{abstract_template_parsed, sweep_parsed, BugTemplate, CloneMatch};

use crate::audit::{audit_with_cache, AuditConfig, AuditReport};
use crate::cache::AuditCache;
use crate::project::Project;

/// Clones of a fixed bug that the fixing commit left unfixed.
#[derive(Debug, Clone)]
pub struct LeftBehind {
    /// The finding the commit fixed (revision-A side).
    pub origin: Finding,
    /// Surviving clone sites in revision B, ranked by similarity.
    pub matches: Vec<CloneMatch>,
}

/// The findings delta between two revisions — the part of a
/// [`DiffReport`] the daemon also produces (it has no revision-A
/// [`AuditReport`], only the previous snapshot's findings).
#[derive(Debug, Default)]
pub struct DiffDelta {
    /// Findings present in B but not in A, in B's canonical order.
    pub introduced: Vec<Finding>,
    /// Findings present in A but not in B, in A's canonical order.
    pub fixed: Vec<Finding>,
    /// Findings identical up to their line number, as `(A, B)` pairs
    /// in A's canonical order. Not counted as introduced or fixed.
    pub moved: Vec<(Finding, Finding)>,
    /// Unfixed clones of each fixed finding (empty when the sweep is
    /// disabled).
    pub left_behind: Vec<LeftBehind>,
}

impl DiffDelta {
    /// Whether the commit is clean: nothing introduced, nothing left
    /// behind. (Fixes and moves never block a commit.)
    pub fn is_clean(&self) -> bool {
        self.introduced.is_empty() && self.left_behind.iter().all(|l| l.matches.is_empty())
    }

    /// Surviving clone sites across all fixed findings.
    pub fn left_behind_total(&self) -> usize {
        self.left_behind.iter().map(|l| l.matches.len()).sum()
    }
}

/// The findings delta between two revisions, with both full audits.
#[derive(Debug)]
pub struct DiffReport {
    /// The delta itself.
    pub delta: DiffDelta,
    /// The full revision-A audit.
    pub report_a: AuditReport,
    /// The full revision-B audit.
    pub report_b: AuditReport,
}

/// A finding's identity with the line number masked out, for detecting
/// pure moves.
fn line_masked(f: &Finding) -> Finding {
    Finding {
        line: 0,
        ..f.clone()
    }
}

/// Computes the delta between two canonical finding lists.
///
/// `introduced` = B − A and `fixed` = A − B as set differences over
/// finding values; pairs equal after masking the line number are then
/// reclassified as `moved`. The invariant the smoke tests script
/// against: `introduced ∪ moved.B == B − A` and
/// `fixed ∪ moved.A == A − B`.
pub fn diff_findings(
    a: &[Finding],
    b: &[Finding],
) -> (Vec<Finding>, Vec<Finding>, Vec<(Finding, Finding)>) {
    let a_set: HashSet<&Finding> = a.iter().collect();
    let b_set: HashSet<&Finding> = b.iter().collect();
    let introduced: Vec<Finding> = b.iter().filter(|f| !a_set.contains(f)).cloned().collect();
    let gone: Vec<Finding> = a.iter().filter(|f| !b_set.contains(f)).cloned().collect();
    // Pair up pure moves by *ordinal within signature bucket*: the
    // k-th vanished finding with a given line-masked identity pairs
    // with the k-th appearing one, both in canonical order. With two
    // byte-identical clone findings in one file (clone groups make
    // this reachable) a first-match scan over a shared key could
    // cross-pair them; ordinal pairing keeps each pure line shift
    // matched to its own twin and never reports it introduced+fixed.
    // Masked keys are computed once per finding, not once per probe.
    let mut buckets: HashMap<Finding, VecDeque<usize>> = HashMap::new();
    for (i, g) in introduced.iter().enumerate() {
        buckets.entry(line_masked(g)).or_default().push_back(i);
    }
    let mut intro_slots: Vec<Option<Finding>> = introduced.into_iter().map(Some).collect();
    let mut moved = Vec::new();
    let mut fixed = Vec::new();
    for f in gone {
        let slot = buckets
            .get_mut(&line_masked(&f))
            .and_then(|bucket| bucket.pop_front());
        match slot {
            Some(i) => moved.push((f, intro_slots[i].take().expect("each slot pairs once"))),
            None => fixed.push(f),
        }
    }
    let introduced = intro_slots.into_iter().flatten().collect();
    (introduced, fixed, moved)
}

/// A revision as the clone sweep ([`sweep_clones`]) reads it: its tree
/// and, when its audit's cache is at hand, the unit keys that find its
/// ASTs there.
pub struct Revision<'a> {
    project: &'a Project,
    asts: Option<(&'a AuditCache, &'a [u64])>,
}

impl<'a> Revision<'a> {
    /// A revision whose units the sweep parses from their text.
    pub(crate) fn text(project: &'a Project) -> Revision<'a> {
        Revision {
            project,
            asts: None,
        }
    }

    /// `project` as `report` audited it through `cache` under `config`.
    /// The sweep reads the ASTs that audit left in the cache when it
    /// parsed under the default limits the sweep's own parse uses, and
    /// parses a unit from its text only when its entry holds no AST.
    pub fn audited(
        project: &'a Project,
        report: &'a AuditReport,
        cache: &'a AuditCache,
        config: &AuditConfig,
    ) -> Revision<'a> {
        Revision::cached(project, &report.unit_keys, cache, config)
    }

    /// [`Revision::audited`] for a caller that kept only the report's
    /// unit keys, `keys`.
    pub(crate) fn cached(
        project: &'a Project,
        keys: &'a [u64],
        cache: &'a AuditCache,
        config: &AuditConfig,
    ) -> Revision<'a> {
        let sweep_limits = ParseLimits::default();
        let same_parse = config.limits.max_tokens == sweep_limits.max_tokens
            && config.limits.max_parse_depth == sweep_limits.max_depth;
        Revision {
            project,
            asts: same_parse.then_some((cache, keys)),
        }
    }

    /// The parsed unit at `path`: the cached AST when there is one,
    /// else a parse of its text.
    fn unit(&self, path: &str) -> Option<Arc<TranslationUnit>> {
        let i = self.project.units().iter().position(|u| u.path == path)?;
        if let Some(tu) = self.asts.and_then(|(cache, keys)| cache.ast(keys[i])) {
            return Some(tu);
        }
        let u = &self.project.units()[i];
        Some(Arc::new(parse_str(&u.path, &u.text)))
    }
}

/// Abstracts `origin`, a finding of revision `a`, into a bug template
/// and sweeps `findings_b`, revision `b`'s findings, for its clones —
/// the one sweep under `diff`, `fixcheck`, the daemon, `sweep --at` and
/// `eval --sweep`. `None` when `origin`'s function is not in `a`.
pub fn sweep_clones(
    origin: &Finding,
    a: &Revision<'_>,
    b: &Revision<'_>,
    findings_b: &[Finding],
    kb: &ApiKb,
) -> Option<(BugTemplate, Vec<CloneMatch>)> {
    let seed = a.unit(&origin.file)?;
    let template = abstract_template_parsed(origin, &seed, kb)?;
    let matches = sweep_parsed(&template, findings_b, kb, |path| b.unit(path));
    Some((template, matches))
}

/// Sweeps revision B's findings for unfixed clones of each fixed
/// finding, reading seed units from revision A (where the bug still
/// exists) and candidate units from revision B.
fn sweep_left_behind(
    fixed: &[Finding],
    a: &Revision<'_>,
    b: &Revision<'_>,
    findings_b: &[Finding],
    kb: &ApiKb,
) -> Vec<LeftBehind> {
    fixed
        .iter()
        .filter_map(|origin| {
            let (_, matches) = sweep_clones(origin, a, b, findings_b, kb)?;
            Some(LeftBehind {
                origin: origin.clone(),
                matches,
            })
        })
        .collect()
}

/// Options for [`diff_projects`].
#[derive(Debug, Clone, Copy)]
pub struct DiffOptions {
    /// Run the left-behind sweep on fixed findings (the default).
    pub sweep: bool,
}

impl Default for DiffOptions {
    fn default() -> Self {
        DiffOptions { sweep: true }
    }
}

/// Computes the full delta between two finding lists, optionally
/// sweeping for left-behind clones. `project_a` is `None` when no
/// revision-A sources exist (e.g. the daemon's very first audit):
/// the delta is still exact, only the sweep is skipped.
pub fn diff_delta(
    findings_a: &[Finding],
    findings_b: &[Finding],
    project_a: Option<&Project>,
    project_b: &Project,
    kb: &ApiKb,
    run_sweep: bool,
) -> DiffDelta {
    revision_delta(
        findings_a,
        findings_b,
        project_a.map(Revision::text).as_ref(),
        &Revision::text(project_b),
        kb,
        run_sweep,
    )
}

/// [`diff_delta`] over revisions whose ASTs the sweep may read from
/// the cache: the one delta computation under `diff`, `fixcheck` and
/// the daemon.
pub(crate) fn revision_delta(
    findings_a: &[Finding],
    findings_b: &[Finding],
    a: Option<&Revision<'_>>,
    b: &Revision<'_>,
    kb: &ApiKb,
    run_sweep: bool,
) -> DiffDelta {
    let (introduced, fixed, moved) = diff_findings(findings_a, findings_b);
    let left_behind = match (run_sweep, a) {
        (true, Some(a)) => sweep_left_behind(&fixed, a, b, findings_b, kb),
        _ => Vec::new(),
    };
    DiffDelta {
        introduced,
        fixed,
        moved,
        left_behind,
    }
}

/// Audits two in-memory revisions through one shared cache and
/// computes the findings delta.
pub fn diff_projects(
    project_a: &Project,
    project_b: &Project,
    config: &AuditConfig,
    cache: &mut AuditCache,
    opts: &DiffOptions,
) -> DiffReport {
    let report_a = audit_with_cache(project_a, config, cache);
    let report_b = audit_with_cache(project_b, config, cache);
    let delta = revision_delta(
        &report_a.findings,
        &report_b.findings,
        Some(&Revision::audited(project_a, &report_a, cache, config)),
        &Revision::audited(project_b, &report_b, cache, config),
        &report_b.kb,
        opts.sweep,
    );
    DiffReport {
        delta,
        report_a,
        report_b,
    }
}

/// Renders the delta as JSONL lines (no trailing newlines), grouped
/// `introduced` → `fixed` → `moved` → `left_behind`. The `finding`
/// objects are the exact serializations the `--json` report prints, so
/// extracting them reproduces the set difference of two full `--json`
/// runs byte for byte.
pub fn render_diff_lines(d: &DiffDelta) -> Vec<String> {
    let mut out = Vec::new();
    for f in &d.introduced {
        out.push(
            obj([
                ("delta", Value::Str("introduced".to_string())),
                ("finding", f.to_json()),
            ])
            .to_string(),
        );
    }
    for f in &d.fixed {
        out.push(
            obj([
                ("delta", Value::Str("fixed".to_string())),
                ("finding", f.to_json()),
            ])
            .to_string(),
        );
    }
    for (from, to) in &d.moved {
        out.push(
            obj([
                ("delta", Value::Str("moved".to_string())),
                ("from", from.to_json()),
                ("finding", to.to_json()),
            ])
            .to_string(),
        );
    }
    for lb in &d.left_behind {
        for m in &lb.matches {
            out.push(
                obj([
                    ("delta", Value::Str("left_behind".to_string())),
                    ("origin", lb.origin.to_json()),
                    ("score", m.score.to_json()),
                    ("finding", m.finding.to_json()),
                ])
                .to_string(),
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_checkers::{AntiPattern, Impact};

    fn finding_at(line: u32) -> Finding {
        Finding {
            pattern: AntiPattern::P1,
            impact: Impact::Leak,
            file: "drivers/clones/cg0_unit0.c".to_string(),
            function: "cg0_site0".to_string(),
            line,
            api: "of_find_compatible_node".to_string(),
            object: Some("np".to_string()),
            message: "missing of_node_put on the error path".to_string(),
            feasibility: Default::default(),
            checkers: vec!["return_error_no_put".to_string()],
        }
    }

    /// Two byte-identical findings in one file (same function, same
    /// API, different lines only) shifted down by a pure edit must
    /// both classify as `moved` — never cross-pair into a spurious
    /// introduced+fixed pair.
    #[test]
    fn identical_twins_shift_as_two_moves() {
        let a = vec![finding_at(10), finding_at(50)];
        let b = vec![finding_at(12), finding_at(52)];
        let (introduced, fixed, moved) = diff_findings(&a, &b);
        assert!(introduced.is_empty(), "pure shift introduced nothing");
        assert!(fixed.is_empty(), "pure shift fixed nothing");
        let pairs: Vec<(u32, u32)> = moved.iter().map(|(f, g)| (f.line, g.line)).collect();
        assert_eq!(pairs, vec![(10, 12), (50, 52)], "ordinal pairing per twin");
    }

    /// When one twin is fixed and the other shifts, exactly one move
    /// and one fix come back, and the pairing stays ordinal.
    #[test]
    fn fixed_twin_does_not_steal_the_survivors_move() {
        let a = vec![finding_at(10), finding_at(50)];
        let b = vec![finding_at(52)];
        let (introduced, fixed, moved) = diff_findings(&a, &b);
        assert!(introduced.is_empty());
        assert_eq!(fixed.len(), 1);
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].1.line, 52);
    }

    /// Two probes that each leak `np` on the error path; `fixed` patches
    /// only the first.
    fn partial_fix() -> (Project, Project) {
        let probe = |name: &str| {
            format!(
                "static int {name}(void)\n{{\n\tstruct device_node *np;\n\
                 \tnp = of_find_node_by_name(NULL, \"{name}\");\n\
                 \tif (!np)\n\t\treturn -ENODEV;\n\
                 \tif ({name}_setup(np))\n\t\treturn -EIO;\n\
                 \tof_node_put(np);\n\treturn 0;\n}}\n"
            )
        };
        let buggy = format!("{}\n{}", probe("alpha"), probe("beta"));
        let fixed = buggy.replacen(
            "\tif (alpha_setup(np))\n\t\treturn -EIO;\n",
            "\tif (alpha_setup(np)) {\n\t\tof_node_put(np);\n\t\treturn -EIO;\n\t}\n",
            1,
        );
        let tree = |text: String| Project::from_sources(vec![("drivers/d/pair.c".into(), text)]);
        (tree(buggy), tree(fixed))
    }

    #[test]
    fn sweep_over_cached_asts_equals_the_sweep_over_text() {
        let (a, b) = partial_fix();
        let dr = diff_projects(
            &a,
            &b,
            &AuditConfig::default(),
            &mut AuditCache::new(),
            &DiffOptions::default(),
        );
        assert_eq!(dr.delta.left_behind_total(), 1, "beta is left behind");
        let from_text = diff_delta(
            &dr.report_a.findings,
            &dr.report_b.findings,
            Some(&a),
            &b,
            &dr.report_b.kb,
            true,
        );
        assert_eq!(
            format!("{:?}", dr.delta.left_behind),
            format!("{:?}", from_text.left_behind)
        );
    }

    #[test]
    fn sweep_reads_cached_asts_only_under_the_default_parse_limits() {
        let (_, b) = partial_fix();
        let path = "drivers/d/pair.c";
        let mut cache = AuditCache::new();
        let cfg = AuditConfig::default();
        let report = audit_with_cache(&b, &cfg, &mut cache);
        let cached = cache
            .ast(report.unit_keys[0])
            .expect("the audit kept its AST");
        let tu = Revision::cached(&b, &report.unit_keys, &cache, &cfg).unit(path);
        assert!(Arc::ptr_eq(&tu.unwrap(), &cached), "the sweep re-parsed");

        let shallow = AuditConfig {
            limits: crate::AuditLimits {
                max_parse_depth: 16,
                ..Default::default()
            },
            ..AuditConfig::default()
        };
        let report = audit_with_cache(&b, &shallow, &mut cache);
        let cached = cache
            .ast(report.unit_keys[0])
            .expect("the audit kept its AST");
        let tu = Revision::cached(&b, &report.unit_keys, &cache, &shallow).unit(path);
        assert!(
            !Arc::ptr_eq(&tu.unwrap(), &cached),
            "an AST parsed under other limits than the sweep's served it"
        );
    }

    /// Findings that differ in anything but the line never pair as
    /// moves, even at identical lines.
    #[test]
    fn different_identity_is_introduced_plus_fixed() {
        let mut other = finding_at(10);
        other.function = "cg0_site1".to_string();
        let a = vec![finding_at(10)];
        let b = vec![other];
        let (introduced, fixed, moved) = diff_findings(&a, &b);
        assert!(moved.is_empty());
        assert_eq!(introduced.len(), 1);
        assert_eq!(fixed.len(), 1);
    }
}
