//! Table 2 — the percentage of different kinds of refcounting bugs
//! (Findings 1 & 2), recovered by mining and classifying the simulated
//! history.

use refminer::report::Table;
use refminer_dataset::{compare, BugKind, HistImpact, ImpactStats, PAPER};
use refminer_experiments::{header, standard_bugs};

fn main() {
    header("Table 2: kinds of refcounting bugs (mined dataset)");
    let bugs = standard_bugs();
    let stats = ImpactStats::compute(&bugs);

    let mut t = Table::new(vec!["Impact", "Refcounting Bug", "Share"]).numeric();
    let pct = |k: BugKind| format!("{:.1}%", stats.pct(stats.count(k)));
    let leak_pct = format!("{:.1}%", stats.pct(stats.leaks));
    let uaf_pct = format!("{:.1}%", stats.pct(stats.uafs));
    t.row(vec![
        format!("Leak ({leak_pct})"),
        "1.1 Intra-Unpaired (missing dec)".into(),
        pct(BugKind::MissingDecIntra),
    ]);
    t.row(vec![
        String::new(),
        "1.2 Inter-Unpaired (missing dec)".into(),
        pct(BugKind::MissingDecInter),
    ]);
    t.row(vec![
        String::new(),
        "2.  Others".into(),
        pct(BugKind::LeakOther),
    ]);
    t.rule();
    t.row(vec![
        format!("UAF ({uaf_pct})"),
        "3.1 Misplacing-Dec (UAD)".into(),
        pct(BugKind::MisplacedDecUad),
    ]);
    t.row(vec![
        String::new(),
        "3.1 Misplacing-Dec (other)".into(),
        pct(BugKind::MisplacedDecOther),
    ]);
    t.row(vec![
        String::new(),
        "3.2 Misplacing-Inc".into(),
        pct(BugKind::MisplacedInc),
    ]);
    t.row(vec![
        String::new(),
        "4.1 Intra-Unpaired (missing inc)".into(),
        pct(BugKind::MissingIncIntra),
    ]);
    t.row(vec![
        String::new(),
        "4.2 Inter-Unpaired (missing inc)".into(),
        pct(BugKind::MissingIncInter),
    ]);
    t.row(vec![
        String::new(),
        "5.  Others".into(),
        pct(BugKind::UafOther),
    ]);
    print!("{}", t.render());

    header("Findings 1 & 2 comparison");
    println!(
        "{}",
        compare("total bugs", PAPER.total_bugs as f64, stats.total as f64)
    );
    println!(
        "{}",
        compare("leak share (%)", PAPER.leak_pct, stats.pct(stats.leaks))
    );
    println!(
        "{}",
        compare("UAF share (%)", PAPER.uaf_pct, stats.pct(stats.uafs))
    );
    println!(
        "{}",
        compare(
            "intra-unpaired dec (%)",
            PAPER.intra_unpaired_pct,
            stats.pct(stats.count(BugKind::MissingDecIntra))
        )
    );
    println!(
        "{}",
        compare(
            "inter-unpaired dec (%)",
            PAPER.inter_unpaired_pct,
            stats.pct(stats.count(BugKind::MissingDecInter))
        )
    );
    println!(
        "{}",
        compare(
            "UAD (%)",
            PAPER.uad_pct,
            stats.pct(stats.count(BugKind::MisplacedDecUad))
        )
    );
    // Sanity: every bug has exactly one impact.
    let check = bugs
        .iter()
        .filter(|b| matches!(b.impact, HistImpact::Leak | HistImpact::Uaf))
        .count();
    assert_eq!(check, bugs.len());
}
