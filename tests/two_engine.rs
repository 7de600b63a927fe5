//! Acceptance suite for the two-engine audit core: the template
//! checkers and the ownership-delta dataflow engine cross-validating
//! each other.
//!
//! The contract under test: (1) every bug class the corpus injects is
//! found by at least one engine, (2) the delta engine *alone* has
//! nonzero recall on the leak-family anti-patterns, (3) `Corroborated`
//! findings — flagged independently by both engines — have zero false
//! positives even on the trap corpus built to bait the checkers, and
//! the combined F1 there is no worse than the template engine's alone
//! and stays at or above a committed floor, (4) the `--json` report
//! stays byte-identical across job counts, cache temperature, and
//! scheduling mode with both engines on, and
//! (5) the feasibility flag applies uniformly to both engines and
//! never keys the cache.

use refminer::checkers::Feasibility;
use refminer::corpus::{generate_tree, SyntheticTree, TreeConfig};
use refminer::{
    audit, audit_with_cache, evaluate, AuditCache, AuditConfig, AuditReport, Confidence, EngineSet,
    Project,
};
use refminer_dataset::triage;
use refminer_json::ToJson;

/// Committed floor for the combined two-engine F1 on the trap corpus.
/// Update deliberately, never to paper over a regression.
const EVAL_F1_FLOOR: f64 = 0.99;

fn small_tree() -> SyntheticTree {
    generate_tree(&TreeConfig {
        scale: 0.05,
        ..Default::default()
    })
}

fn config(engines: EngineSet) -> AuditConfig {
    AuditConfig {
        engines,
        ..Default::default()
    }
}

/// The exact bytes `refminer --json` prints for a report.
fn json_lines(report: &AuditReport) -> String {
    let mut out = String::new();
    for f in &report.findings {
        out.push_str(&f.to_json().to_string());
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Coverage: engine attribution spans every injected bug class.
// ----------------------------------------------------------------------

#[test]
fn every_bug_class_is_found_by_at_least_one_engine() {
    let tree = generate_tree(&TreeConfig::default());
    let project = Project::from_tree(&tree);
    let report = audit(&project, &config(EngineSet::default()));

    // Attribution is total: no finding escapes the engine stamp.
    for f in &report.findings {
        assert!(
            !f.engines.is_empty(),
            "unattributed finding: {}:{} {}",
            f.file,
            f.line,
            f.pattern.id()
        );
    }

    let t = triage(&report.findings, &tree.manifest);
    let mut classes: Vec<u8> = tree.manifest.bugs.iter().map(|b| b.pattern).collect();
    classes.sort_unstable();
    classes.dedup();
    assert!(classes.len() >= 8, "corpus should span the taxonomy");
    for class in classes {
        let hit = t.rows.iter().any(|r| {
            r.true_positive
                && r.finding.pattern.id() == format!("P{class}")
                && !r.finding.engines.is_empty()
        });
        assert!(hit, "no engine found any P{class} bug");
    }
}

#[test]
fn delta_engine_alone_has_recall_on_the_leak_family() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);
    let delta_only = EngineSet {
        template: false,
        delta: true,
    };
    let report = audit(&project, &config(delta_only));

    let t = triage(&report.findings, &tree.manifest);
    let leak_hits = t
        .rows
        .iter()
        .filter(|r| {
            r.true_positive
                && matches!(r.finding.pattern.id(), "P1" | "P4" | "P5")
                && r.finding.confidence() == Confidence::DeltaOnly
        })
        .count();
    assert!(
        leak_hits > 0,
        "delta engine alone found no leak-family bugs"
    );
}

// ----------------------------------------------------------------------
// Cross-validation: corroboration is a precision signal.
// ----------------------------------------------------------------------

#[test]
fn corroborated_findings_have_zero_false_positives_on_the_trap_corpus() {
    // The trap corpus proper: traps, clean functions, and injected
    // bugs. The tricky-snippet family is excluded — those are the
    // audit's five *known* whitelisted organic FPs (see the
    // `end_to_end_audit` suite), not what corroboration is measured
    // against.
    let tree = generate_tree(&TreeConfig {
        scale: 0.1,
        fp_traps: true,
        include_tricky: false,
        ..Default::default()
    });
    assert!(!tree.manifest.fp_traps.is_empty(), "traps were generated");
    let project = Project::from_tree(&tree);
    let report = audit(&project, &config(EngineSet::default()));

    let t = triage(&report.findings, &tree.manifest);
    let mut corroborated = 0usize;
    for r in &t.rows {
        if r.finding.confidence() == Confidence::Corroborated {
            corroborated += 1;
            assert!(
                r.true_positive,
                "corroborated false positive: {}:{} {} ({})",
                r.finding.file,
                r.finding.line,
                r.finding.pattern.id(),
                r.finding.api
            );
        }
    }
    assert!(corroborated > 0, "cross-validation never corroborated");

    // The delta engine must pay for its recall without costing
    // precision.
    let template_only = audit(&project, &config(EngineSet::template_only()));
    let combined_f1 = evaluate(&report.findings, &tree.manifest).totals.f1();
    let template_f1 = evaluate(&template_only.findings, &tree.manifest)
        .totals
        .f1();
    assert!(
        combined_f1 >= template_f1,
        "combined two-engine F1 {combined_f1:.4} below template-only {template_f1:.4}"
    );
    assert!(
        combined_f1 >= EVAL_F1_FLOOR,
        "combined F1 {combined_f1:.4} below the committed floor {EVAL_F1_FLOOR}"
    );
}

// ----------------------------------------------------------------------
// Determinism with both engines on.
// ----------------------------------------------------------------------

#[test]
fn json_is_byte_identical_across_jobs_cache_and_scheduling() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);

    let baseline = audit(
        &project,
        &AuditConfig {
            jobs: 1,
            ..config(EngineSet::default())
        },
    );
    let expected = json_lines(&baseline);

    for jobs in [2, 8] {
        let cfg = AuditConfig {
            jobs,
            ..config(EngineSet::default())
        };
        let mut cache = AuditCache::new();
        let cold = audit_with_cache(&project, &cfg, &mut cache);
        let warm = audit_with_cache(&project, &cfg, &mut cache);
        assert_eq!(json_lines(&cold), expected, "cold diverged (jobs={jobs})");
        assert_eq!(json_lines(&warm), expected, "warm diverged (jobs={jobs})");
        assert_eq!(warm.cache.check_misses, 0, "warm run re-checked");
    }
}

// ----------------------------------------------------------------------
// Feasibility interplay: one verdict layer, two engines, zero cache
// keys.
// ----------------------------------------------------------------------

#[test]
fn feasibility_flag_never_keys_the_cache() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);
    let mut cache = AuditCache::new();

    let with = AuditConfig {
        feasibility: true,
        ..config(EngineSet::default())
    };
    let without = AuditConfig {
        feasibility: false,
        ..with.clone()
    };

    let cold = audit_with_cache(&project, &with, &mut cache);
    assert!(cold.cache.check_misses > 0);

    // Flipping the flag must be a pure report-layer change: the warm
    // run re-checks nothing and re-parses nothing.
    let flipped = audit_with_cache(&project, &without, &mut cache);
    assert_eq!(flipped.cache.check_misses, 0, "flag keyed the check cache");
    assert_eq!(flipped.cache.parse_misses, 0, "flag keyed the parse cache");
    assert!(flipped.findings.len() >= cold.findings.len());

    // And back again: still fully warm, and byte-identical to the cold
    // suppressed report.
    let back = audit_with_cache(&project, &with, &mut cache);
    assert_eq!(back.cache.check_misses, 0);
    assert_eq!(json_lines(&back), json_lines(&cold));
}

#[test]
fn feasibility_verdicts_apply_uniformly_to_both_engines() {
    let tree = generate_tree(&TreeConfig {
        scale: 0.1,
        fp_traps: true,
        ..Default::default()
    });
    let project = Project::from_tree(&tree);

    for engines in [EngineSet::template_only(), EngineSet::default()] {
        let on = audit(
            &project,
            &AuditConfig {
                feasibility: true,
                ..config(engines)
            },
        );
        let off = audit(
            &project,
            &AuditConfig {
                feasibility: false,
                ..config(engines)
            },
        );
        // The suppressed report is exactly the unsuppressed one minus
        // `Infeasible`-tagged findings — for any engine set.
        let filtered: Vec<_> = off
            .findings
            .iter()
            .filter(|f| f.feasibility != Feasibility::Infeasible)
            .cloned()
            .collect();
        assert_eq!(
            json_lines(&on),
            filtered.iter().fold(String::new(), |mut s, f| {
                s.push_str(&f.to_json().to_string());
                s.push('\n');
                s
            }),
            "feasibility suppression is not a pure filter (engines: {})",
            engines.render()
        );
    }
}
