//! The correctness checks every workload runs before it reports.

use std::collections::BTreeSet;

use refminer::corpus::{CloneGroup, Manifest};
use refminer::serve::render_finding_line;
use refminer::{evaluate, Finding};

use crate::{Measured, MetricSpec};

/// F1 floor on `cold-audit`'s tree: seeds 1 to 20 all score 0.9929
/// at the commit that introduced this benchmark.
pub const COLD_F1_FLOOR: f64 = 0.99;

/// F1 floor on the partial-fix history's base revision, where seeds 1
/// to 20 all score 1.0.
pub const FIX_HISTORY_F1_FLOOR: f64 = 0.99;

/// Findings rendered as the JSONL lines the CLI and the daemon print.
pub fn finding_lines(findings: &[Finding]) -> Vec<String> {
    findings.iter().map(render_finding_line).collect()
}

/// Fails unless `got` equals `expected` line for line.
pub fn same_lines(what: &str, expected: &[String], got: &[String]) -> Result<(), String> {
    if let Some(i) = (0..expected.len().max(got.len())).find(|&i| expected.get(i) != got.get(i)) {
        return Err(format!(
            "{what}: findings differ at line {} of {} (expected {:?}, got {:?})",
            i + 1,
            expected.len(),
            expected.get(i),
            got.get(i)
        ));
    }
    Ok(())
}

/// F1 of `findings` against `manifest`, failing below `floor`.
pub fn f1_at_least(
    what: &str,
    findings: &[Finding],
    manifest: &Manifest,
    floor: f64,
) -> Result<f64, String> {
    let f1 = evaluate(findings, manifest).totals.f1();
    if f1 < floor {
        return Err(format!("{what}: F1 {f1:.4} is below the floor {floor}"));
    }
    Ok(f1)
}

/// Checks one commit's verdict against the fix history's ground truth.
/// A commit that fixed `fixed_member` of `group` must report exactly
/// that finding fixed and name every still-unfixed sibling among the
/// left-behind `matches`; a neutral commit (`None`) must fix nothing
/// and leave nothing behind.
pub fn fix_verdict(
    what: &str,
    fixed_member: Option<(&CloneGroup, &str, &str)>,
    fixed: &[Finding],
    matches: &[&Finding],
) -> Result<(), String> {
    let Some((group, path, function)) = fixed_member else {
        if !fixed.is_empty() || !matches.is_empty() {
            return Err(format!(
                "{what}: a neutral commit reported {} fixed and {} left behind",
                fixed.len(),
                matches.len()
            ));
        }
        return Ok(());
    };
    if fixed.len() != 1 || fixed[0].file != path || fixed[0].function != function {
        return Err(format!(
            "{what}: expected `{function}` in {path} fixed, got {:?}",
            fixed
                .iter()
                .map(|f| (&f.file, &f.function))
                .collect::<Vec<_>>()
        ));
    }
    let reported: BTreeSet<(&str, &str)> = matches
        .iter()
        .map(|f| (f.file.as_str(), f.function.as_str()))
        .collect();
    for m in group.members.iter().filter(|m| !m.fixed) {
        if !reported.contains(&(m.path.as_str(), m.function.as_str())) {
            return Err(format!(
                "{what}: sibling `{}` in {} of {} was not reported left behind",
                m.function, m.path, group.group
            ));
        }
    }
    Ok(())
}

/// Fails unless `metrics` names each declared metric exactly once.
pub fn metric_set(metrics: &[Measured], declared: &[MetricSpec]) -> Result<(), String> {
    let got: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    let unique: BTreeSet<&str> = got.iter().copied().collect();
    let want: BTreeSet<&str> = declared.iter().map(|m| m.name).collect();
    if unique.len() != got.len() || unique != want {
        return Err(format!(
            "reported metrics {got:?} are not the declared set {want:?}"
        ));
    }
    Ok(())
}
