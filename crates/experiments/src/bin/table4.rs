//! Table 4 — the new refcounting bugs detected by the nine checkers on
//! the synthetic "latest release" tree, with impacts, patch status and
//! false positives, plus measured precision/recall against the
//! injection ground truth (something the paper could not measure).

use refminer::report::Table;
use refminer_dataset::{compare, triage, PAPER};
use refminer_experiments::{header, standard_audit};

fn main() {
    header("Table 4: new refcounting bugs (checker audit of the synthetic tree)");
    let (tree, report) = standard_audit();
    println!(
        "audited {} files / {} functions / {} lines; KB holds {} APIs",
        report.files,
        report.functions,
        report.lines,
        report.kb.len()
    );
    let t = triage(&report.findings, &tree.manifest);

    let mut table = Table::new(vec![
        "Subsystem",
        "New Bugs",
        "Leak",
        "UAF",
        "NPD",
        "#CFM",
        "#PR",
        "#FP",
    ])
    .numeric();
    for (subsystem, row) in t.by_subsystem() {
        table.row(vec![
            subsystem,
            row.bugs.to_string(),
            row.leak.to_string(),
            row.uaf.to_string(),
            row.npd.to_string(),
            row.confirmed.to_string(),
            row.rejected.to_string(),
            row.false_positives.to_string(),
        ]);
    }
    table.rule();
    let tot = t.totals();
    table.row(vec![
        "Total".into(),
        tot.bugs.to_string(),
        tot.leak.to_string(),
        tot.uaf.to_string(),
        tot.npd.to_string(),
        tot.confirmed.to_string(),
        tot.rejected.to_string(),
        tot.false_positives.to_string(),
    ]);
    print!("{}", table.render());

    header("Paper comparison + ground-truth measurement");
    println!(
        "{}",
        compare("new bugs", PAPER.new_bugs as f64, tot.bugs as f64)
    );
    println!(
        "{}",
        compare("leak impact", PAPER.new_leak as f64, tot.leak as f64)
    );
    println!(
        "{}",
        compare("UAF impact", PAPER.new_uaf as f64, tot.uaf as f64)
    );
    println!(
        "{}",
        compare("NPD impact", PAPER.new_npd as f64, tot.npd as f64)
    );
    println!(
        "{}",
        compare("confirmed", PAPER.confirmed as f64, tot.confirmed as f64)
    );
    println!(
        "{}",
        compare("rejected", PAPER.rejected as f64, tot.rejected as f64)
    );
    println!(
        "{}",
        compare(
            "false positives",
            PAPER.false_positives as f64,
            tot.false_positives as f64
        )
    );
    println!(
        "\nground truth (unavailable to the paper): recall {:.3}, precision {:.3}",
        t.recall(&tree.manifest),
        t.precision()
    );
}
