//! Ground-truth evaluation: scoring an audit against a corpus
//! manifest (the Table 4/5 analog for the synthetic tree).
//!
//! The corpus manifest records every injected bug as
//! `(path, function, pattern)` and — when the tree was generated with
//! FP traps — every deliberate non-bug. Scoring is per anti-pattern:
//!
//! - **TP** — an injected bug matched by at least one finding in the
//!   same file and function whose checker set covers the bug's pattern.
//! - **FN** — an injected bug no finding matches.
//! - **FP** — a finding that matches no injected bug, attributed to the
//!   finding's own pattern.
//!
//! Matching is [`Finding::claims`], which goes through the finding's
//! `checkers` list rather than its pattern alone: the report layer
//! merges same-site findings of one root-cause family, so a P7 bug
//! caught by both `DirectFreeChecker` and `ErrorPathChecker` surfaces
//! as a single P5-labelled finding whose checker list still names
//! `DirectFreeChecker`.

use std::collections::BTreeMap;

use refminer_checkers::{AntiPattern, Finding};
use refminer_corpus::Manifest;
use refminer_json::{obj, ToJson, Value};
use refminer_rcapi::ApiKb;

use crate::diff::{sweep_clones, Revision};

/// TP/FP/FN counts with the derived metrics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Injected bugs matched by at least one finding.
    pub tp: usize,
    /// Findings matching no injected bug.
    pub fp: usize,
    /// Injected bugs no finding matched.
    pub missed: usize,
}

impl Counts {
    /// Precision `tp / (tp + fp)`; 1.0 when nothing was reported.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 1.0 when nothing was injected.
    pub fn recall(&self) -> f64 {
        if self.tp + self.missed == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.missed) as f64
        }
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let (p, r) = (self.precision(), self.recall());
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }
}

impl ToJson for Counts {
    fn to_json(&self) -> Value {
        obj([
            ("tp", self.tp.to_json()),
            ("fp", self.fp.to_json()),
            ("fn", self.missed.to_json()),
            ("precision", self.precision().to_json()),
            ("recall", self.recall().to_json()),
            ("f1", self.f1().to_json()),
        ])
    }
}

/// Per-anti-pattern scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvalRow {
    /// The anti-pattern the row scores.
    pub pattern: AntiPattern,
    /// The counts and metrics.
    pub counts: Counts,
}

/// A scored audit.
#[derive(Debug, Clone, Default)]
pub struct EvalReport {
    /// One row per anti-pattern with any activity (a bug injected or a
    /// finding reported), in P1..P9 order.
    pub rows: Vec<EvalRow>,
    /// Counts summed over all patterns.
    pub totals: Counts,
    /// Findings landing on a manifest-recorded FP trap (`bug: false`).
    /// A subset of the FP count; nonzero means the feasibility traps
    /// are biting.
    pub trap_hits: usize,
}

impl ToJson for EvalReport {
    fn to_json(&self) -> Value {
        obj([
            (
                "per_pattern",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            obj([
                                ("pattern", r.pattern.to_json()),
                                ("tp", r.counts.tp.to_json()),
                                ("fp", r.counts.fp.to_json()),
                                ("fn", r.counts.missed.to_json()),
                                ("precision", r.counts.precision().to_json()),
                                ("recall", r.counts.recall().to_json()),
                                ("f1", r.counts.f1().to_json()),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("totals", self.totals.to_json()),
            ("trap_hits", self.trap_hits.to_json()),
        ])
    }
}

/// Scores `findings` against the manifest's ground truth. See the
/// module docs for the matching rules.
pub fn evaluate(findings: &[Finding], manifest: &Manifest) -> EvalReport {
    let mut per: BTreeMap<AntiPattern, Counts> = BTreeMap::new();

    for bug in &manifest.bugs {
        let Some(pattern) = AntiPattern::from_number(bug.pattern) else {
            continue;
        };
        let hit = findings
            .iter()
            .any(|f| f.claims(&bug.path, &bug.function, pattern));
        let counts = per.entry(pattern).or_default();
        if hit {
            counts.tp += 1;
        } else {
            counts.missed += 1;
        }
    }

    let mut trap_hits = 0usize;
    for f in findings {
        let claims_some_bug = manifest.bugs.iter().any(|b| {
            AntiPattern::from_number(b.pattern).is_some_and(|p| f.claims(&b.path, &b.function, p))
        });
        if claims_some_bug {
            continue;
        }
        per.entry(f.pattern).or_default().fp += 1;
        if manifest
            .fp_traps
            .iter()
            .any(|t| t.path == f.file && t.function == f.function)
        {
            trap_hits += 1;
        }
    }

    let mut totals = Counts::default();
    let rows: Vec<EvalRow> = per
        .into_iter()
        .map(|(pattern, counts)| {
            totals.tp += counts.tp;
            totals.fp += counts.fp;
            totals.missed += counts.missed;
            EvalRow { pattern, counts }
        })
        .collect();

    EvalReport {
        rows,
        totals,
        trap_hits,
    }
}

/// Found/missed/spurious counts for the clone sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepCounts {
    /// Injected clone siblings the sweep matched.
    pub found: usize,
    /// Injected clone siblings the sweep did not match.
    pub missed: usize,
    /// Sweep matches naming no injected bug at all (a trap or a clean
    /// function) — the zero-spurious acceptance metric.
    pub spurious: usize,
}

impl SweepCounts {
    /// Clone recall `found / (found + missed)`; 1.0 when the group had
    /// no siblings to find.
    pub fn recall(&self) -> f64 {
        if self.found + self.missed == 0 {
            1.0
        } else {
            self.found as f64 / (self.found + self.missed) as f64
        }
    }

    pub(crate) fn add(&mut self, other: &SweepCounts) {
        self.found += other.found;
        self.missed += other.missed;
        self.spurious += other.spurious;
    }
}

impl ToJson for SweepCounts {
    fn to_json(&self) -> Value {
        obj([
            ("found", self.found.to_json()),
            ("missed", self.missed.to_json()),
            ("spurious", self.spurious.to_json()),
            ("recall", self.recall().to_json()),
        ])
    }
}

/// One clone group's sweep score.
#[derive(Debug, Clone)]
pub struct SweepGroupRow {
    /// The manifest group id (`cg0`, `cg1`, …).
    pub group: String,
    /// The group's anti-pattern.
    pub pattern: AntiPattern,
    /// The group's acquire API.
    pub api: String,
    /// Whether a seed finding existed to sweep from at all.
    pub seeded: bool,
    /// The counts.
    pub counts: SweepCounts,
}

/// `refminer eval --sweep`: sweep scores per clone group, aggregated
/// per pattern family and overall.
#[derive(Debug, Clone, Default)]
pub struct SweepEvalReport {
    /// One row per manifest clone group, in manifest order.
    pub rows: Vec<SweepGroupRow>,
    /// Counts aggregated per pattern family, in P1..P9 order.
    pub per_pattern: Vec<(AntiPattern, SweepCounts)>,
    /// Counts summed over all groups.
    pub totals: SweepCounts,
}

impl ToJson for SweepEvalReport {
    fn to_json(&self) -> Value {
        obj([
            (
                "groups",
                Value::Arr(
                    self.rows
                        .iter()
                        .map(|r| {
                            let mut members = match r.counts.to_json() {
                                Value::Obj(pairs) => pairs,
                                _ => unreachable!("SweepCounts serializes to an object"),
                            };
                            members.insert(0, ("group".to_string(), r.group.as_str().into()));
                            members.insert(1, ("pattern".to_string(), r.pattern.to_json()));
                            members.insert(2, ("api".to_string(), r.api.as_str().into()));
                            members.insert(3, ("seeded".to_string(), r.seeded.into()));
                            Value::Obj(members)
                        })
                        .collect(),
                ),
            ),
            (
                "per_pattern",
                Value::Obj(
                    self.per_pattern
                        .iter()
                        .map(|(p, c)| (p.id().to_string(), c.to_json()))
                        .collect(),
                ),
            ),
            ("totals", self.totals.to_json()),
        ])
    }
}

/// Whether `manifest` injected a bug into `function` of `path`: a sweep
/// or fixcheck report naming anything else is spurious.
pub(crate) fn names_injected_bug(manifest: &Manifest, path: &str, function: &str) -> bool {
    manifest
        .bugs
        .iter()
        .any(|b| b.path == path && b.function == function)
}

/// Scores the sweep engine against the manifest's clone groups.
///
/// For each group, the seed is the first unfixed member a finding
/// lands on (path + function); its template, abstracted from
/// `revision`, the tree `findings` were audited from, is swept over
/// `findings` and the matches are scored against the group's *other*
/// unfixed members. A match naming any manifest bug — this group's or, for
/// repeated-API shapes, another group's — is never spurious; spurious
/// counts only matches on functions the corpus injected no bug into.
/// A group whose pattern number names no anti-pattern is skipped;
/// [`Manifest::from_json`] never loads one.
pub fn evaluate_sweep(
    findings: &[Finding],
    manifest: &Manifest,
    kb: &ApiKb,
    revision: &Revision<'_>,
) -> SweepEvalReport {
    let mut rows = Vec::new();
    for group in &manifest.clone_groups {
        let Some(pattern) = AntiPattern::from_number(group.pattern) else {
            continue;
        };
        let unfixed: Vec<_> = group.members.iter().filter(|m| !m.fixed).collect();
        let seed = unfixed.iter().find_map(|m| {
            findings
                .iter()
                .find(|f| f.file == m.path && f.function == m.function)
                .map(|f| (*m, f))
        });
        let mut counts = SweepCounts::default();
        let seeded = seed.is_some();
        match seed {
            None => {
                // Nothing to sweep from: every sibling is a miss.
                counts.missed = unfixed.len();
            }
            Some((seed_member, seed_finding)) => {
                let matches = sweep_clones(seed_finding, revision, revision, findings, kb)
                    .map(|(_, matches)| matches)
                    .unwrap_or_default();
                for m in &unfixed {
                    if m.path == seed_member.path && m.function == seed_member.function {
                        continue;
                    }
                    let hit = matches
                        .iter()
                        .any(|c| c.finding.file == m.path && c.finding.function == m.function);
                    if hit {
                        counts.found += 1;
                    } else {
                        counts.missed += 1;
                    }
                }
                counts.spurious += matches
                    .iter()
                    .filter(|c| !names_injected_bug(manifest, &c.finding.file, &c.finding.function))
                    .count();
            }
        }
        rows.push(SweepGroupRow {
            group: group.group.clone(),
            pattern,
            api: group.api.clone(),
            seeded,
            counts,
        });
    }
    let mut per: BTreeMap<AntiPattern, SweepCounts> = BTreeMap::new();
    let mut totals = SweepCounts::default();
    for row in &rows {
        per.entry(row.pattern).or_default().add(&row.counts);
        totals.add(&row.counts);
    }
    SweepEvalReport {
        rows,
        per_pattern: per.into_iter().collect(),
        totals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use refminer_checkers::{Feasibility, Impact};
    use refminer_corpus::{FpTrap, InjectedBug};

    fn bug(path: &str, function: &str, pattern: u8) -> InjectedBug {
        InjectedBug {
            path: path.into(),
            function: function.into(),
            pattern,
            api: "x".into(),
            impact: "Leak".into(),
            subsystem: "drivers".into(),
            module: "m".into(),
            inter_unit: false,
        }
    }

    fn finding(path: &str, function: &str, pattern: AntiPattern, checkers: &[&str]) -> Finding {
        Finding {
            pattern,
            impact: Impact::Leak,
            file: path.into(),
            function: function.into(),
            line: 1,
            api: "x".into(),
            object: None,
            message: String::new(),
            feasibility: Feasibility::Assumed,
            checkers: checkers.iter().map(|c| c.to_string()).collect(),
        }
    }

    #[test]
    fn scores_tp_fp_fn_per_pattern() {
        let mut manifest = Manifest::default();
        manifest.bugs.push(bug("a.c", "f1", 1));
        manifest.bugs.push(bug("a.c", "f2", 1));
        manifest.bugs.push(bug("b.c", "g", 5));
        let findings = vec![
            finding("a.c", "f1", AntiPattern::P1, &["ReturnErrorChecker"]),
            finding("c.c", "h", AntiPattern::P1, &["ReturnErrorChecker"]),
            finding("b.c", "g", AntiPattern::P5, &["ErrorPathChecker"]),
        ];
        let report = evaluate(&findings, &manifest);
        let p1 = report
            .rows
            .iter()
            .find(|r| r.pattern == AntiPattern::P1)
            .unwrap();
        assert_eq!(
            p1.counts,
            Counts {
                tp: 1,
                fp: 1,
                missed: 1
            }
        );
        assert!((p1.counts.precision() - 0.5).abs() < 1e-9);
        assert!((p1.counts.recall() - 0.5).abs() < 1e-9);
        let p5 = report
            .rows
            .iter()
            .find(|r| r.pattern == AntiPattern::P5)
            .unwrap();
        assert_eq!(
            p5.counts,
            Counts {
                tp: 1,
                fp: 0,
                missed: 0
            }
        );
        assert_eq!(
            report.totals,
            Counts {
                tp: 2,
                fp: 1,
                missed: 1
            }
        );
    }

    #[test]
    fn merged_findings_claim_through_checker_list() {
        // A P7 bug surfaced inside a finding the merge relabelled P5:
        // the checker list still claims it.
        let mut manifest = Manifest::default();
        manifest.bugs.push(bug("a.c", "f", 7));
        let findings = vec![finding(
            "a.c",
            "f",
            AntiPattern::P5,
            &["ErrorPathChecker", "DirectFreeChecker"],
        )];
        let report = evaluate(&findings, &manifest);
        assert_eq!(
            report.totals,
            Counts {
                tp: 1,
                fp: 0,
                missed: 0
            }
        );
    }

    #[test]
    fn trap_hits_are_counted() {
        let mut manifest = Manifest::default();
        manifest.fp_traps.push(FpTrap {
            path: "t.c".into(),
            function: "trap".into(),
            pattern: 1,
            kind: "correlated_branch".into(),
        });
        let findings = vec![finding(
            "t.c",
            "trap",
            AntiPattern::P1,
            &["ReturnErrorChecker"],
        )];
        let report = evaluate(&findings, &manifest);
        assert_eq!(report.totals.fp, 1);
        assert_eq!(report.trap_hits, 1);
    }

    /// Parses the report back out of its JSON text, so assertions see
    /// exactly what `refminer eval --json` consumers see.
    fn json_round_trip(report: &EvalReport) -> Value {
        Value::parse(&report.to_json().to_string()).expect("eval report is valid JSON")
    }

    fn totals_metric(v: &Value, key: &str) -> f64 {
        v.get("totals")
            .and_then(|t| t.get(key))
            .and_then(|m| m.as_f64())
            .unwrap_or_else(|| panic!("totals.{key} missing"))
    }

    #[test]
    fn empty_manifest_and_no_findings_score_perfect() {
        // Nothing injected, nothing reported: both denominators are
        // empty, and the convention is 1.0, not NaN or 0/0 panic.
        let report = evaluate(&[], &Manifest::default());
        assert!(report.rows.is_empty());
        assert_eq!(report.totals, Counts::default());
        let v = json_round_trip(&report);
        let rows = v
            .get("per_pattern")
            .and_then(|p| p.as_array())
            .expect("per_pattern array");
        assert!(rows.is_empty(), "no activity → no per-pattern rows");
        assert_eq!(totals_metric(&v, "precision"), 1.0);
        assert_eq!(totals_metric(&v, "recall"), 1.0);
        assert_eq!(totals_metric(&v, "f1"), 1.0);
        assert_eq!(
            v.get("trap_hits").and_then(|t| t.as_u64()),
            Some(0),
            "no traps, no hits"
        );
    }

    #[test]
    fn zero_finding_audit_keeps_precision_but_loses_recall() {
        // A silent audit against a real manifest: precision stays 1.0
        // (nothing wrong was reported), recall collapses to 0.
        let mut manifest = Manifest::default();
        manifest.bugs.push(bug("a.c", "f", 1));
        manifest.bugs.push(bug("b.c", "g", 5));
        let report = evaluate(&[], &manifest);
        let v = json_round_trip(&report);
        assert_eq!(totals_metric(&v, "precision"), 1.0);
        assert_eq!(totals_metric(&v, "recall"), 0.0);
        assert_eq!(totals_metric(&v, "f1"), 0.0);
        let rows = v
            .get("per_pattern")
            .and_then(|p| p.as_array())
            .expect("per_pattern array");
        assert_eq!(rows.len(), 2, "each missed pattern still gets a row");
        for row in rows {
            assert_eq!(row.get("tp").and_then(|n| n.as_u64()), Some(0));
            assert_eq!(row.get("fn").and_then(|n| n.as_u64()), Some(1));
            assert_eq!(row.get("precision").and_then(|p| p.as_f64()), Some(1.0));
            assert_eq!(row.get("recall").and_then(|r| r.as_f64()), Some(0.0));
        }
    }

    #[test]
    fn trap_only_manifest_scores_clean_audit_perfect() {
        // A manifest holding only `bug: false` FP traps injects zero
        // bugs; an audit that stays silent is perfect on both axes.
        let mut manifest = Manifest::default();
        manifest.fp_traps.push(FpTrap {
            path: "t.c".into(),
            function: "trap".into(),
            pattern: 1,
            kind: "correlated_branch".into(),
        });
        let report = evaluate(&[], &manifest);
        assert!(report.rows.is_empty());
        let v = json_round_trip(&report);
        assert_eq!(totals_metric(&v, "precision"), 1.0);
        assert_eq!(totals_metric(&v, "recall"), 1.0);
        assert_eq!(v.get("trap_hits").and_then(|t| t.as_u64()), Some(0));
    }

    #[test]
    fn trap_only_manifest_charges_trap_findings_as_fp() {
        // Same trap-only manifest, but the audit bites: the finding is
        // an FP *and* a trap hit, precision drops to 0, while recall
        // stays 1.0 because nothing injected was missed.
        let mut manifest = Manifest::default();
        manifest.fp_traps.push(FpTrap {
            path: "t.c".into(),
            function: "trap".into(),
            pattern: 1,
            kind: "correlated_branch".into(),
        });
        let findings = vec![finding(
            "t.c",
            "trap",
            AntiPattern::P1,
            &["ReturnErrorChecker"],
        )];
        let v = json_round_trip(&evaluate(&findings, &manifest));
        assert_eq!(totals_metric(&v, "precision"), 0.0);
        assert_eq!(totals_metric(&v, "recall"), 1.0);
        assert_eq!(totals_metric(&v, "f1"), 0.0);
        assert_eq!(v.get("trap_hits").and_then(|t| t.as_u64()), Some(1));
        let rows = v
            .get("per_pattern")
            .and_then(|p| p.as_array())
            .expect("per_pattern array");
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].get("fp").and_then(|n| n.as_u64()), Some(1));
        assert_eq!(
            rows[0].get("recall").and_then(|r| r.as_f64()),
            Some(1.0),
            "nothing injected → per-pattern recall stays 1.0"
        );
    }

    #[test]
    fn report_serializes_metrics() {
        let mut manifest = Manifest::default();
        manifest.bugs.push(bug("a.c", "f", 1));
        let findings = vec![finding(
            "a.c",
            "f",
            AntiPattern::P1,
            &["ReturnErrorChecker"],
        )];
        let json = evaluate(&findings, &manifest).to_json().to_string();
        assert!(json.contains("\"per_pattern\""));
        assert!(json.contains("\"precision\":1"));
        assert!(json.contains("\"trap_hits\":0"));
    }
}
