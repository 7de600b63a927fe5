//! Table 5 — the per-module detail of the new bugs: top bug-caused
//! APIs, anti-pattern instance counts, and confirmations.

use std::collections::BTreeMap;

use refminer::report::Table;
use refminer::AntiPattern;
use refminer_dataset::{triage, PatchStatus};
use refminer_experiments::{header, standard_audit};

fn main() {
    header("Table 5: per-module details of the new bugs");
    let (tree, report) = standard_audit();
    let t = triage(&report.findings, &tree.manifest);

    // Group true positives by (subsystem, module).
    #[derive(Default)]
    struct ModuleRow {
        apis: BTreeMap<String, usize>,
        patterns: BTreeMap<AntiPattern, usize>,
        bugs: usize,
        confirmed: usize,
        rejected: usize,
    }
    let mut modules: BTreeMap<(String, String), ModuleRow> = BTreeMap::new();
    for row in &t.rows {
        if !row.true_positive {
            continue;
        }
        let mut parts = row.finding.file.split('/');
        let subsystem = parts.next().unwrap_or("").to_string();
        let module = parts.next().unwrap_or("").to_string();
        let e = modules.entry((subsystem, module)).or_default();
        e.bugs += 1;
        if !row.finding.api.is_empty() {
            *e.apis.entry(row.finding.api.clone()).or_default() += 1;
        }
        *e.patterns.entry(row.finding.pattern).or_default() += 1;
        match row.status {
            PatchStatus::Confirmed => e.confirmed += 1,
            PatchStatus::Rejected => e.rejected += 1,
            _ => {}
        }
    }

    let mut table = Table::new(vec![
        "Subsystem",
        "Module",
        "Bug-Caused API (Top-2)",
        "#Anti-Pattern Instance",
        "#Bug",
        "Confirm",
    ]);
    for ((subsystem, module), row) in &modules {
        // Top-2 APIs by count.
        let mut apis: Vec<(&String, &usize)> = row.apis.iter().collect();
        apis.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
        let top2 = apis
            .iter()
            .take(2)
            .map(|(a, c)| format!("{a}[{c}]"))
            .collect::<Vec<_>>()
            .join(", ");
        let patterns = row
            .patterns
            .iter()
            .map(|(p, c)| format!("{p}[{c}]"))
            .collect::<Vec<_>>()
            .join(", ");
        let confirm = if row.rejected > 0 && row.confirmed == 0 {
            "PR".to_string()
        } else if row.confirmed == 0 {
            "NR".to_string()
        } else {
            row.confirmed.to_string()
        };
        table.row(vec![
            subsystem.clone(),
            module.clone(),
            top2,
            patterns,
            row.bugs.to_string(),
            confirm,
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nmodules: {}; long-tail check: largest module holds {} of {} bugs",
        modules.len(),
        modules.values().map(|r| r.bugs).max().unwrap_or(0),
        modules.values().map(|r| r.bugs).sum::<usize>()
    );
}
