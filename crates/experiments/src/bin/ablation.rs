//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **Leave-one-checker-out** — how much of the 351-bug plan each
//!    anti-pattern checker is uniquely responsible for (and how much
//!    cross-coverage exists between checkers);
//! 2. **API discovery on/off** — what §6.1's lexer-parsing stage buys
//!    on code using project-specific refcounting wrappers;
//! 3. **Tricky snippets** — the measured precision cost of the paper's
//!    false-positive root cause.

use refminer::checkers::{
    default_checkers, run_engines_traced, AnalysisEngine, AntiPattern, TemplateEngine,
};
use refminer::corpus::{generate_tree, TreeConfig};
use refminer::cparse::parse_str;
use refminer::cpg::FunctionGraph;
use refminer::report::Table;
use refminer::{audit, AuditConfig, ProgramDb, Project, TraceHandle};
use refminer_dataset::triage;
use refminer_experiments::header;

fn main() {
    leave_one_out();
    discovery_ablation();
    tricky_ablation();
}

/// Runs the audit with one checker removed and reports the recall drop.
fn leave_one_out() {
    header("Ablation 1: leave-one-checker-out (full 351-bug plan)");
    let tree = generate_tree(&TreeConfig {
        include_tricky: false,
        ..Default::default()
    });
    // Pre-parse once; re-running nine audits on fresh parses would be
    // needlessly slow.
    let tus: Vec<_> = tree
        .files
        .iter()
        .map(|f| parse_str(&f.path, &f.content))
        .collect();
    let graphs: Vec<_> = tus.iter().map(FunctionGraph::build_all).collect();
    let kb = {
        // Same KB the full audit would use.
        audit(&Project::from_tree(&tree), &AuditConfig::default()).kb
    };

    // Helper effects resolve against each unit's own program database:
    // the single-unit view, as in `check_unit`.
    let programs: Vec<_> = tus
        .iter()
        .zip(&graphs)
        .map(|(tu, gs)| {
            let globals: Vec<String> = tu.globals().map(|g| g.name.clone()).collect();
            ProgramDb::local(&tu.path, gs, &globals, &kb)
        })
        .collect();

    let recall_with = |skip: Option<AntiPattern>| -> (usize, usize) {
        let checkers: Vec<_> = default_checkers()
            .into_iter()
            .filter(|c| Some(c.pattern()) != skip)
            .collect();
        let engines: Vec<Box<dyn AnalysisEngine>> = vec![Box::new(TemplateEngine::new(checkers))];
        let mut findings = Vec::new();
        for ((tu, gs), program) in tus.iter().zip(&graphs).zip(&programs) {
            findings.extend(run_engines_traced(
                tu,
                &kb,
                gs,
                &engines,
                program,
                &TraceHandle::disabled(),
            ));
        }
        let t = triage(&findings, &tree.manifest);
        let found = tree
            .manifest
            .bugs
            .iter()
            .filter(|b| {
                t.rows.iter().any(|r| {
                    r.true_positive && r.finding.file == b.path && r.finding.function == b.function
                })
            })
            .count();
        (found, findings.len())
    };

    let (baseline_found, _) = recall_with(None);
    let total = tree.manifest.bugs.len();
    println!("baseline: {baseline_found}/{total} injected bugs found\n");

    let mut table = Table::new(vec![
        "Removed checker",
        "Bugs found",
        "Missed vs baseline",
        "Cross-covered",
    ])
    .numeric();
    for pattern in AntiPattern::all() {
        let planned: usize = tree
            .manifest
            .bugs
            .iter()
            .filter(|b| b.pattern == pattern.number())
            .count();
        let (found, _) = recall_with(Some(pattern));
        let missed = baseline_found - found;
        // Bugs of this pattern still found by *other* checkers.
        let cross = planned.saturating_sub(missed);
        table.row(vec![
            format!("{pattern} ({} planned)", planned),
            found.to_string(),
            missed.to_string(),
            cross.to_string(),
        ]);
    }
    print!("{}", table.render());
    println!(
        "\nreading: `Missed` is each checker's unique contribution; \
         `Cross-covered` counts its planned bugs that another checker still reports."
    );
}

/// Audits the vendor module (custom wrappers + custom smartloop) with
/// discovery on and off.
fn discovery_ablation() {
    header("Ablation 2: API/smartloop discovery (vendor-wrapper module)");
    let tree = generate_tree(&TreeConfig {
        scale: 0.0,
        include_tricky: false,
        include_vendor: true,
        ..Default::default()
    });
    let project = Project::from_tree(&tree);
    let vendor_bugs = tree
        .manifest
        .bugs
        .iter()
        .filter(|b| b.module == "vendor")
        .count();
    for discover in [true, false] {
        let report = audit(
            &project,
            &AuditConfig {
                discover_apis: discover,
                ..Default::default()
            },
        );
        let found = tree
            .manifest
            .bugs
            .iter()
            .filter(|b| {
                report
                    .findings
                    .iter()
                    .any(|f| f.file == b.path && f.function == b.function)
            })
            .count();
        println!(
            "discovery {}: {found}/{vendor_bugs} vendor bugs found (KB size {})",
            if discover { "ON " } else { "OFF" },
            report.kb.len()
        );
    }
    println!(
        "\nreading: without §6.1's discovery stage the checkers have no \
         vocabulary for project-specific wrappers — exactly the paper's \
         motivation for the lexer-parsing front end."
    );
}

/// Measures the precision cost of the deliberately-correct tricky code.
fn tricky_ablation() {
    header("Ablation 3: precision with/without the Listing-5-style snippets");
    for tricky in [false, true] {
        let tree = generate_tree(&TreeConfig {
            include_tricky: tricky,
            ..Default::default()
        });
        let report = audit(&Project::from_tree(&tree), &AuditConfig::default());
        let t = triage(&report.findings, &tree.manifest);
        println!(
            "tricky snippets {}: precision {:.3}, recall {:.3}, {} false positive(s)",
            if tricky { "ON " } else { "OFF" },
            t.precision(),
            t.recall(&tree.manifest),
            t.totals().false_positives
        );
    }
    println!(
        "\nreading: the only false positives come from semantics the \
         intra-procedural checkers cannot see (release hidden in an \
         extern helper) — the same root cause as the paper's five FPs (§6.4)."
    );
}
