//! The headline reproduction test: the full Table 4 run, end to end —
//! generate the synthetic "latest release" tree, audit it with all
//! nine checkers, triage against ground truth, and require the paper's
//! numbers.

use refminer::corpus::{generate_tree, TreeConfig};
use refminer::{audit, AuditConfig, Project};
use refminer_dataset::triage;

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
