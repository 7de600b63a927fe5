//! `refminer fixcheck`: audit both sides of a fix and report what the
//! fix left behind.
//!
//! A fix check is the revision delta `refminer diff` computes, with
//! revision A rebuilt from the fix diff instead of read from disk:
//!
//! 1. reverse-apply the fix diff onto the *post-fix* tree to
//!    reconstruct the pre-fix sources in memory (the diff-side
//!    mechanics live in `refminer-fixcheck`);
//! 2. audit both trees through one shared [`AuditCache`] (only the
//!    touched units differ, so the second audit re-parses just the
//!    delta);
//! 3. [`diff_delta`] over the two audits: `fixed` is exactly the set
//!    of findings the fix resolved, `introduced` is what the fix itself
//!    broke, and `left_behind` — this report's `incomplete` — holds
//!    the sibling sites of each fixed finding the fix did not touch;
//! 4. when rendering, attribute each fixed finding to a diff intent
//!    (the acquire or release API named on a changed line).
//!
//! A neutral diff (refactor, comment churn) reverse-applies to a tree
//! with identical findings, so `fixed` is empty and the report is
//! clean by construction — intent inference annotates, it never
//! filters recall.

use std::path::Path;

use refminer_checkers::Finding;
use refminer_corpus::Manifest;
use refminer_fixcheck::{
    infer_intents, intent_covers, parse_diff, paths_match, render_file_diff, FixDiff, FixIntent,
};
use refminer_json::{obj, ToJson, Value};
use refminer_trace::TraceHandle;

use crate::audit::{audit_cancellable, AuditConfig, AuditReport};
use crate::cache::AuditCache;
use crate::cancel::{CancelToken, Cancelled};
use crate::diff::{revision_delta, LeftBehind, Revision};
use crate::eval::{names_injected_bug, SweepCounts};
use crate::history::discover_revisions;
use crate::project::{is_source_path, Project};
use crate::serve::render_finding_line;

/// Everything `refminer fixcheck` reports for one fix diff.
#[derive(Debug)]
pub struct FixcheckReport {
    /// The acquire/release APIs the diff's changed lines name.
    pub intents: Vec<FixIntent>,
    /// Findings present before the fix and gone after it.
    pub fixed: Vec<Finding>,
    /// Findings the fix itself introduced.
    pub introduced: Vec<Finding>,
    /// Per fixed finding: the clone sites still buggy after the fix.
    pub incomplete: Vec<LeftBehind>,
    /// Source files the diff touched in the tree.
    pub files_changed: usize,
    /// The post-fix audit (findings, KB, cache stats).
    pub report: AuditReport,
}

impl FixcheckReport {
    /// Total left-behind clone matches across all fixed findings.
    pub fn incomplete_total(&self) -> usize {
        self.incomplete.iter().map(|i| i.matches.len()).sum()
    }

    /// A fix is complete when it left nothing behind and broke
    /// nothing: no incomplete matches, no introduced findings.
    pub fn is_clean(&self) -> bool {
        self.incomplete_total() == 0 && self.introduced.is_empty()
    }
}

/// The pre-fix side of a fix diff, rebuilt from the post-fix tree.
pub(crate) struct PreFix {
    diff: FixDiff,
    tree: Project,
    files_changed: usize,
}

/// Finds the unit in `project` a diff path names, tolerating the
/// `a/`-style and directory prefixes `paths_match` accepts.
fn unit_index(project: &Project, diff_path: &str) -> Option<usize> {
    project
        .units()
        .iter()
        .position(|u| paths_match(diff_path, &u.path))
}

/// Parses `diff_text` and reverse-applies it onto `post`, failing as
/// [`fixcheck_project`] documents; the daemon maps those errors to
/// `bad_request`.
pub(crate) fn reconstruct_pre_fix(post: &Project, diff_text: &str) -> Result<PreFix, String> {
    let diff = parse_diff(diff_text)?;
    let mut pre_sources: Vec<(String, String)> = post
        .units()
        .iter()
        .map(|u| (u.path.clone(), u.text.clone()))
        .collect();
    let mut files_changed = 0usize;
    for file in &diff.files {
        // Diffs routinely also touch manifests, Makefiles and docs,
        // which the scan never reads and so have no units to match.
        if !is_source_path(Path::new(file.path())) {
            continue;
        }
        if file.is_added() {
            if unit_index(post, file.path()).is_none() {
                return Err(format!(
                    "diff adds `{}` but the tree does not contain it",
                    file.path()
                ));
            }
            // An added file has no pre-fix text: drop it from the
            // reconstructed pre tree.
            pre_sources.retain(|(p, _)| !paths_match(file.path(), p));
            files_changed += 1;
            continue;
        }
        if file.is_deleted() {
            let pre_text = file.reverse_apply("")?;
            pre_sources.push((file.path().to_string(), pre_text));
            files_changed += 1;
            continue;
        }
        let Some(idx) = unit_index(post, file.path()) else {
            return Err(format!(
                "diff touches `{}` but the tree does not contain it",
                file.path()
            ));
        };
        let unit = &post.units()[idx];
        let pre_text = file.reverse_apply(&unit.text)?;
        if let Some(slot) = pre_sources.iter_mut().find(|(p, _)| *p == unit.path) {
            slot.1 = pre_text;
        }
        files_changed += 1;
    }
    if files_changed == 0 {
        return Err("diff does not touch any C source file in the tree".to_string());
    }
    Ok(PreFix {
        diff,
        tree: Project::from_sources(pre_sources),
        files_changed,
    })
}

/// Audits both sides of a fix under a [`CancelToken`] — the daemon
/// entry point, where every request carries a deadline — and computes
/// their delta with the left-behind sweep.
pub(crate) fn fixcheck_cancellable(
    post: &Project,
    pre: PreFix,
    config: &AuditConfig,
    cache: &mut AuditCache,
    trace: &TraceHandle,
    cancel: &CancelToken,
) -> Result<FixcheckReport, Cancelled> {
    let report_pre = audit_cancellable(&pre.tree, config, cache, trace, cancel)?;
    let report_post = audit_cancellable(post, config, cache, trace, cancel)?;
    let delta = revision_delta(
        &report_pre.findings,
        &report_post.findings,
        Some(&Revision::audited(&pre.tree, &report_pre, cache, config)),
        &Revision::audited(post, &report_post, cache, config),
        &report_post.kb,
        true,
    );
    Ok(FixcheckReport {
        intents: infer_intents(&pre.diff, &report_post.kb),
        fixed: delta.fixed,
        introduced: delta.introduced,
        incomplete: delta.left_behind,
        files_changed: pre.files_changed,
        report: report_post,
    })
}

/// Runs the full fixcheck pipeline against an in-memory post-fix tree,
/// never cancelled.
///
/// Errors (all of which the CLI maps to exit 2) when the diff is not
/// unified-diff text, names a source file the tree does not contain,
/// does not apply to the tree's contents, or touches no source file
/// at all.
pub fn fixcheck_project(
    post: &Project,
    diff_text: &str,
    config: &AuditConfig,
    cache: &mut AuditCache,
) -> Result<FixcheckReport, String> {
    let pre = reconstruct_pre_fix(post, diff_text)?;
    Ok(fixcheck_cancellable(
        post,
        pre,
        config,
        cache,
        &TraceHandle::disabled(),
        &CancelToken::never(),
    )
    .expect("a never-cancelled fixcheck cannot be cancelled"))
}

/// Renders a fixcheck report as the JSONL lines `refminer fixcheck
/// --json` prints: intents, fixed findings, introduced findings, one
/// line per left-behind clone match (ranked by sweep score within
/// each origin), then a summary line. Deterministic for a given tree
/// and diff at any `--jobs` or cache temperature.
pub fn render_fixcheck_lines(r: &FixcheckReport) -> Vec<String> {
    let mut lines = Vec::new();
    for intent in &r.intents {
        let mut v = intent.to_json();
        if let Value::Obj(members) = &mut v {
            members.insert(
                0,
                ("fixcheck".to_string(), Value::Str("intent".to_string())),
            );
        }
        lines.push(v.to_string());
    }
    for f in &r.fixed {
        lines.push(
            obj([
                ("fixcheck", Value::Str("fixed".to_string())),
                ("line", Value::Str(render_finding_line(f))),
            ])
            .to_string(),
        );
    }
    for f in &r.introduced {
        lines.push(
            obj([
                ("fixcheck", Value::Str("introduced".to_string())),
                ("line", Value::Str(render_finding_line(f))),
            ])
            .to_string(),
        );
    }
    for inc in &r.incomplete {
        for m in &inc.matches {
            lines.push(
                obj([
                    ("fixcheck", Value::Str("incomplete".to_string())),
                    (
                        "origin",
                        obj([
                            ("file", inc.origin.file.to_json()),
                            ("function", inc.origin.function.to_json()),
                            ("line", inc.origin.line.to_json()),
                            ("api", inc.origin.api.to_json()),
                        ]),
                    ),
                    (
                        "intent",
                        match r
                            .intents
                            .iter()
                            .find(|i| intent_covers(i, &inc.origin, &r.report.kb))
                        {
                            Some(i) => Value::Str(i.api.clone()),
                            None => Value::Null,
                        },
                    ),
                    ("score", m.score.to_json()),
                    ("line", Value::Str(render_finding_line(&m.finding))),
                ])
                .to_string(),
            );
        }
    }
    lines.push(
        obj([
            ("fixcheck", Value::Str("summary".to_string())),
            ("files_changed", r.files_changed.to_json()),
            ("fixed", r.fixed.len().to_json()),
            ("introduced", r.introduced.len().to_json()),
            ("incomplete", r.incomplete_total().to_json()),
            ("clean", r.is_clean().into()),
        ])
        .to_string(),
    );
    lines
}

/// One replayed fix commit in `eval --fixcheck`.
#[derive(Debug)]
pub struct FixcheckEvalRow {
    /// Revision id (`rev01`, …).
    pub revision: String,
    /// The clone group the commit fixed (`cg0`, …), when it fixed one.
    pub group: Option<String>,
    /// Unfixed sibling sites the manifest says should be reported.
    pub expected: usize,
    /// Found / missed / spurious against that ground truth.
    pub counts: SweepCounts,
}

/// `eval --fixcheck` over a `histgen` fix-history root.
#[derive(Debug)]
pub struct FixcheckEvalReport {
    /// One row per non-base revision.
    pub rows: Vec<FixcheckEvalRow>,
    /// Column sums.
    pub totals: SweepCounts,
}

impl ToJson for FixcheckEvalReport {
    fn to_json(&self) -> Value {
        obj([
            (
                "rows",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            obj([
                                ("revision", r.revision.to_json()),
                                (
                                    "group",
                                    match &r.group {
                                        Some(g) => g.to_json(),
                                        None => Value::Null,
                                    },
                                ),
                                ("expected", r.expected.to_json()),
                                ("found", r.counts.found.to_json()),
                                ("missed", r.counts.missed.to_json()),
                                ("spurious", r.counts.spurious.to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("totals", self.totals.to_json()),
        ])
    }
}

/// Replays every commit of a `histgen` fix-history root through the
/// fixcheck pipeline and scores the incomplete-fix reports against
/// the manifest's clone-group ground truth.
///
/// Revisions are found the way `refminer history` finds them. The
/// group a commit repaired is the one whose `fixed` flags its
/// manifest adds over the previous revision's. For a commit that
/// fixes group `g` member 0, the expected reports are exactly the
/// group's still-unfixed members; `found`/`missed` score those, and
/// any reported site that is not an injected bug at all counts as
/// `spurious`. The trailing neutral-churn commit must come back clean
/// — everything it reports is spurious.
pub fn evaluate_fixcheck(root: &Path, config: &AuditConfig) -> Result<FixcheckEvalReport, String> {
    let revisions = discover_revisions(root)?;
    if revisions.len() < 2 {
        return Err(format!(
            "fix history under {} has {} revision(s); need a base plus at least one commit",
            root.display(),
            revisions.len()
        ));
    }
    let mut cache = AuditCache::new();
    let mut rows = Vec::new();
    let mut totals = SweepCounts::default();
    let mut prev: Option<(Project, Manifest)> = None;
    for rev in revisions {
        let id = rev.version;
        let dir = root.join(&rev.dir);
        let post = Project::scan(&dir).map_err(|e| format!("cannot scan revision {id}: {e}"))?;
        let manifest_text = std::fs::read_to_string(dir.join("manifest.json"))
            .map_err(|e| format!("cannot read manifest for {id}: {e}"))?;
        let manifest_json = Value::parse(&manifest_text)
            .map_err(|e| format!("malformed manifest for {id}: {e:?}"))?;
        let manifest = Manifest::from_json(&manifest_json)
            .ok_or_else(|| format!("manifest for {id} does not parse"))?;
        let Some((pre, pre_manifest)) = prev.take() else {
            prev = Some((post, manifest));
            continue; // the base import has no diff to check
        };
        let mut diff_text = String::new();
        for unit in post.units() {
            let old = pre
                .units()
                .iter()
                .find(|u| u.path == unit.path)
                .map(|u| u.text.as_str())
                .unwrap_or("");
            if let Some(d) = render_file_diff(&unit.path, old, &unit.text) {
                diff_text.push_str(&d);
            }
        }
        let r = fixcheck_project(&post, &diff_text, config, &mut cache)
            .map_err(|e| format!("fixcheck failed on {id}: {e}"))?;
        let was_fixed: Vec<_> = pre_manifest
            .clone_groups
            .iter()
            .flat_map(|cg| &cg.members)
            .filter(|m| m.fixed)
            .collect();
        let repaired = manifest.clone_groups.iter().find(|cg| {
            cg.members
                .iter()
                .any(|m| m.fixed && !was_fixed.contains(&m))
        });
        let expected: Vec<(&str, &str)> = repaired
            .iter()
            .flat_map(|cg| &cg.members)
            .filter(|m| !m.fixed)
            .map(|m| (m.path.as_str(), m.function.as_str()))
            .collect();
        let reported: Vec<(&str, &str)> = r
            .incomplete
            .iter()
            .flat_map(|i| &i.matches)
            .map(|m| (m.finding.file.as_str(), m.finding.function.as_str()))
            .collect();
        let mut counts = SweepCounts::default();
        for site in &expected {
            if reported.contains(site) {
                counts.found += 1;
            } else {
                counts.missed += 1;
            }
        }
        counts.spurious = reported
            .iter()
            .filter(|(file, function)| !names_injected_bug(&manifest, file, function))
            .count();
        totals.add(&counts);
        rows.push(FixcheckEvalRow {
            revision: id,
            group: repaired.map(|cg| cg.group.clone()),
            expected: expected.len(),
            counts,
        });
        prev = Some((post, manifest));
    }
    Ok(FixcheckEvalReport { rows, totals })
}

#[cfg(test)]
mod tests {
    use super::*;

    // A P4 two-site shape: both functions forget `of_node_put` on the
    // error path; the "fix" patches only `alpha_probe`.
    fn buggy_unit() -> (String, String) {
        (
            "drivers/demo/pair.c".to_string(),
            "static int alpha_probe(void)\n{\n\
             \tstruct device_node *np;\n\
             \tnp = of_find_node_by_name(NULL, \"alpha\");\n\
             \tif (!np)\n\t\treturn -ENODEV;\n\
             \tif (alpha_setup(np))\n\t\treturn -EIO;\n\
             \tof_node_put(np);\n\treturn 0;\n}\n\
             \n\
             static int beta_probe(void)\n{\n\
             \tstruct device_node *np;\n\
             \tnp = of_find_node_by_name(NULL, \"beta\");\n\
             \tif (!np)\n\t\treturn -ENODEV;\n\
             \tif (beta_setup(np))\n\t\treturn -EIO;\n\
             \tof_node_put(np);\n\treturn 0;\n}\n"
                .to_string(),
        )
    }

    fn fixed_alpha(text: &str) -> String {
        text.replacen(
            "\tif (alpha_setup(np))\n\t\treturn -EIO;\n",
            "\tif (alpha_setup(np)) {\n\t\tof_node_put(np);\n\t\treturn -EIO;\n\t}\n",
            1,
        )
    }

    #[test]
    fn partial_fix_reports_the_sibling_left_behind() {
        let (path, pre_text) = buggy_unit();
        let post_text = fixed_alpha(&pre_text);
        let diff = render_file_diff(&path, &pre_text, &post_text).expect("texts differ");
        let post = Project::from_sources(vec![(path.clone(), post_text)]);
        let mut cache = AuditCache::new();
        let r = fixcheck_project(&post, &diff, &AuditConfig::default(), &mut cache)
            .expect("fixcheck runs");
        assert_eq!(r.files_changed, 1);
        assert!(
            r.fixed.iter().any(|f| f.function == "alpha_probe"),
            "the patched error path should count as fixed; fixed = {:?}",
            r.fixed
        );
        assert!(!r.is_clean());
        assert!(
            r.incomplete
                .iter()
                .flat_map(|i| &i.matches)
                .any(|m| m.finding.function == "beta_probe"),
            "beta_probe still leaks and must be reported as left behind"
        );
        let intent = r.intents.iter().find(|i| i.api == "of_node_put");
        assert!(intent.is_some(), "the added release names the intent");
        let lines = render_fixcheck_lines(&r);
        assert!(lines.iter().any(|l| l.contains("\"incomplete\"")));
        assert!(lines.last().unwrap().contains("\"clean\":false"));
    }

    #[test]
    fn neutral_diff_is_clean() {
        let (path, pre_text) = buggy_unit();
        // Rename-only churn: the tree still has both bugs, but the
        // diff fixes nothing, so fixcheck has nothing to hold against
        // it — pre and post findings are identical.
        let post_text = pre_text.replace("alpha_setup", "alpha_setup_hw");
        let diff = render_file_diff(&path, &pre_text, &post_text).expect("texts differ");
        let post = Project::from_sources(vec![(path, post_text)]);
        let mut cache = AuditCache::new();
        let r = fixcheck_project(&post, &diff, &AuditConfig::default(), &mut cache)
            .expect("fixcheck runs");
        assert!(r.fixed.is_empty());
        assert!(r.is_clean());
        let lines = render_fixcheck_lines(&r);
        assert!(lines.last().unwrap().contains("\"clean\":true"));
    }

    #[test]
    fn errors_are_diagnostic_not_panics() {
        let post = Project::from_sources(vec![("a.c".to_string(), "int x;\n".to_string())]);
        let mut cache = AuditCache::new();
        let cfg = AuditConfig::default();
        assert!(fixcheck_project(&post, "not a diff", &cfg, &mut cache).is_err());
        let wrong_file = "--- a/missing.c\n+++ b/missing.c\n@@ -1,1 +1,1 @@\n-old\n+new\n";
        let err = fixcheck_project(&post, wrong_file, &cfg, &mut cache).unwrap_err();
        assert!(err.contains("missing.c"), "got: {err}");
        let stale = "--- a/a.c\n+++ b/a.c\n@@ -1,1 +1,1 @@\n-int y;\n+int z;\n";
        let err = fixcheck_project(&post, stale, &cfg, &mut cache).unwrap_err();
        assert!(err.contains("does not apply"), "got: {err}");
    }
}
