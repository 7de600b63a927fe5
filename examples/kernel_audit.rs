//! Kernel-scale audit: generate the synthetic "latest release" tree
//! (the paper's Table 4/5 substrate), write it to a temp directory,
//! scan it back from disk, run all nine checkers, and evaluate the
//! findings against the injection ground truth.
//!
//! ```sh
//! cargo run --example kernel_audit            # full 351-bug plan
//! cargo run --example kernel_audit -- --quick # ~10% scale
//! ```

use refminer::corpus::{generate_tree, TreeConfig};
use refminer::report::Table;
use refminer::{audit, AuditConfig, Project};
use refminer_dataset::triage;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let tree = generate_tree(&TreeConfig {
        scale: if quick { 0.1 } else { 1.0 },
        ..Default::default()
    });

    // Round-trip through the filesystem to exercise the scanner.
    let dir = std::env::temp_dir().join(format!("refminer_audit_{}", std::process::id()));
    tree.write_to(&dir).expect("write tree");
    println!(
        "generated {} files / {} lines into {}",
        tree.files.len(),
        tree.total_lines(),
        dir.display()
    );

    let project = Project::scan(&dir).expect("scan tree");
    let report = audit(&project, &AuditConfig::default());
    println!(
        "audited {} functions; knowledge base holds {} APIs ({} smartloops)",
        report.functions,
        report.kb.len(),
        report.kb.smartloops().count()
    );

    let t = triage(&report.findings, &tree.manifest);
    let mut table = Table::new(vec!["Pattern", "Findings"]).numeric();
    for (pattern, count) in report.by_pattern() {
        table.row(vec![
            format!("{pattern} ({})", pattern.root_cause()),
            count.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nagainst ground truth: recall {:.3}, precision {:.3} ({} injected bugs, {} findings)",
        t.recall(&tree.manifest),
        t.precision(),
        tree.manifest.bugs.len(),
        report.findings.len()
    );

    std::fs::remove_dir_all(&dir).ok();
}
