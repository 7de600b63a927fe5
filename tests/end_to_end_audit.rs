//! The headline reproduction test: the full Table 4 run, end to end —
//! generate the synthetic "latest release" tree, audit it with all
//! nine checkers, triage against ground truth, and require the paper's
//! numbers. Beside it, the audit-level contracts: the committed F1
//! floor on the trap corpus, a `--json` report that is byte-identical
//! across job counts and cache temperature, and a feasibility flag
//! that filters the report without keying the cache.

use refminer::checkers::Feasibility;
use refminer::corpus::{generate_tree, SyntheticTree, TreeConfig};
use refminer::{audit, audit_with_cache, evaluate, AuditCache, AuditConfig, Project};
use refminer_dataset::triage;
use refminer_json::ToJson;

/// Committed floor for the audit's F1 on the trap corpus. Update
/// deliberately, never to paper over a regression.
const EVAL_F1_FLOOR: f64 = 0.99;

fn small_tree() -> SyntheticTree {
    generate_tree(&TreeConfig {
        scale: 0.05,
        ..Default::default()
    })
}

/// The exact bytes `refminer --json` prints for these findings.
fn json_lines<'a>(findings: impl IntoIterator<Item = &'a refminer::Finding>) -> String {
    let mut out = String::new();
    for f in findings {
        out.push_str(&f.to_json().to_string());
        out.push('\n');
    }
    out
}

#[test]
fn table4_reproduces_exactly() {
    let tree = generate_tree(&TreeConfig::default());
    let project = Project::from_tree(&tree);
    let report = audit(&project, &AuditConfig::default());
    let t = triage(&report.findings, &tree.manifest);
    let tot = t.totals();

    // Table 4's grand totals.
    assert_eq!(tot.bugs, 351, "new bugs");
    assert_eq!(tot.leak, 296, "leak impact");
    assert_eq!(tot.uaf, 48, "UAF impact");
    assert_eq!(tot.npd, 7, "NPD impact");
    assert_eq!(tot.confirmed, 240, "confirmed");
    assert_eq!(tot.rejected, 3, "rejected");
    assert_eq!(tot.false_positives, 5, "false positives");

    // Per-subsystem rows.
    let by = t.by_subsystem();
    let row = |s: &str| by.iter().find(|(n, _)| n == s).map(|(_, r)| r).unwrap();
    assert_eq!(row("arch").bugs, 156);
    assert_eq!(row("drivers").bugs, 182);
    assert_eq!(row("include").bugs, 2);
    assert_eq!(row("net").bugs, 2);
    assert_eq!(row("sound").bugs, 9);
    assert_eq!(row("arch").false_positives, 1);
    assert_eq!(row("drivers").false_positives, 4);

    // Ground-truth measurement (beyond the paper's reach).
    assert!(
        (t.recall(&tree.manifest) - 1.0).abs() < 1e-9,
        "perfect recall"
    );
    assert!(t.precision() > 0.98, "precision {}", t.precision());
}

#[test]
fn every_bug_class_is_found() {
    let tree = generate_tree(&TreeConfig::default());
    let report = audit(&Project::from_tree(&tree), &AuditConfig::default());
    let t = triage(&report.findings, &tree.manifest);

    // The tree spans the taxonomy, and every injected bug class is
    // found.
    let mut classes: Vec<u8> = tree.manifest.bugs.iter().map(|b| b.pattern).collect();
    classes.sort_unstable();
    classes.dedup();
    assert!(classes.len() >= 8, "corpus should span the taxonomy");
    for class in classes {
        let hit = t
            .rows
            .iter()
            .any(|r| r.true_positive && r.finding.pattern.number() == class);
        assert!(hit, "no P{class} bug found");
    }
}

#[test]
fn every_false_positive_is_a_tricky_snippet() {
    let tree = generate_tree(&TreeConfig::default());
    let project = Project::from_tree(&tree);
    let report = audit(&project, &AuditConfig::default());
    let t = triage(&report.findings, &tree.manifest);
    for row in &t.rows {
        if !row.true_positive {
            assert!(
                row.on_tricky,
                "unexpected organic false positive: {}",
                row.finding
            );
        }
    }
}

#[test]
fn audit_scales_down_consistently() {
    for scale in [0.02, 0.1, 0.25] {
        let tree = generate_tree(&TreeConfig {
            scale,
            include_tricky: false,
            ..Default::default()
        });
        let project = Project::from_tree(&tree);
        let report = audit(&project, &AuditConfig::default());
        let t = triage(&report.findings, &tree.manifest);
        assert!(
            (t.recall(&tree.manifest) - 1.0).abs() < 1e-9,
            "recall at scale {scale}"
        );
        assert!(
            (t.precision() - 1.0).abs() < 1e-9,
            "precision at scale {scale}: {}",
            t.precision()
        );
    }
}

#[test]
fn filesystem_round_trip_preserves_findings() {
    let tree = generate_tree(&TreeConfig {
        scale: 0.05,
        ..Default::default()
    });
    let in_memory = audit(&Project::from_tree(&tree), &AuditConfig::default());
    let dir = std::env::temp_dir().join(format!("refminer_e2e_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    tree.write_to(&dir).expect("write");
    let from_disk = audit(&Project::scan(&dir).expect("scan"), &AuditConfig::default());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(in_memory.findings.len(), from_disk.findings.len());
    for (a, b) in in_memory.findings.iter().zip(&from_disk.findings) {
        assert_eq!(a, b);
    }
}

#[test]
fn trap_corpus_f1_stays_above_the_committed_floor() {
    // The trap corpus proper: traps, clean functions, and injected
    // bugs. The tricky-snippet family is excluded: those are the
    // audit's five known organic FPs (see
    // `every_false_positive_is_a_tricky_snippet`).
    let tree = generate_tree(&TreeConfig {
        scale: 0.1,
        fp_traps: true,
        include_tricky: false,
        ..Default::default()
    });
    assert!(!tree.manifest.fp_traps.is_empty(), "traps were generated");
    let report = audit(&Project::from_tree(&tree), &AuditConfig::default());
    let f1 = evaluate(&report.findings, &tree.manifest).totals.f1();
    assert!(
        f1 >= EVAL_F1_FLOOR,
        "F1 {f1:.4} below the committed floor {EVAL_F1_FLOOR}"
    );
}

#[test]
fn json_is_byte_identical_across_jobs_cache_and_scheduling() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);

    let baseline = audit(
        &project,
        &AuditConfig {
            jobs: 1,
            ..Default::default()
        },
    );
    let expected = json_lines(&baseline.findings);

    for jobs in [2, 8] {
        let cfg = AuditConfig {
            jobs,
            ..Default::default()
        };
        let mut cache = AuditCache::new();
        let cold = audit_with_cache(&project, &cfg, &mut cache);
        let warm = audit_with_cache(&project, &cfg, &mut cache);
        assert_eq!(
            json_lines(&cold.findings),
            expected,
            "cold diverged (jobs={jobs})"
        );
        assert_eq!(
            json_lines(&warm.findings),
            expected,
            "warm diverged (jobs={jobs})"
        );
        assert_eq!(warm.cache.check_misses, 0, "warm run re-checked");
    }
}

#[test]
fn feasibility_flag_never_keys_the_cache() {
    let tree = small_tree();
    let project = Project::from_tree(&tree);
    let mut cache = AuditCache::new();

    let with = AuditConfig {
        feasibility: true,
        ..Default::default()
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
    assert_eq!(json_lines(&back.findings), json_lines(&cold.findings));
}

#[test]
fn feasibility_suppression_is_a_pure_filter() {
    let tree = generate_tree(&TreeConfig {
        scale: 0.1,
        fp_traps: true,
        ..Default::default()
    });
    let project = Project::from_tree(&tree);
    let on = audit(&project, &AuditConfig::default());
    let off = audit(
        &project,
        &AuditConfig {
            feasibility: false,
            ..Default::default()
        },
    );
    // The suppressed report is exactly the unsuppressed one minus
    // `Infeasible`-tagged findings.
    assert!(off.findings.len() > on.findings.len(), "traps were pruned");
    let filtered = off
        .findings
        .iter()
        .filter(|f| f.feasibility != Feasibility::Infeasible);
    assert_eq!(json_lines(&on.findings), json_lines(filtered));
}
