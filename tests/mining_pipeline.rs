//! Cross-crate test of the empirical-study pipeline: history → mining →
//! classification → statistics, against the paper's Findings 1–5.

use refminer::corpus::{generate_history, HistoryConfig};
use refminer::rcapi::ApiKb;
use refminer_dataset::{
    classify_history, growth_by_year, mine, BugKind, DistributionStats, ImpactStats, LifetimeStats,
};

fn standard() -> (refminer::corpus::History, Vec<refminer_dataset::HistBug>) {
    let h = generate_history(&HistoryConfig::default());
    let bugs = classify_history(&h.commits, &ApiKb::builtin());
    (h, bugs)
}

#[test]
fn dataset_scale_matches_paper() {
    let (h, bugs) = standard();
    let mined = mine(&h.commits, &ApiKb::builtin());
    // Paper: 1,825 candidates → 1,033 confirmed. Ours lands nearby.
    assert!(
        (1400..=2000).contains(&mined.candidates.len()),
        "candidates {}",
        mined.candidates.len()
    );
    assert!(
        (980..=1100).contains(&bugs.len()),
        "confirmed {}",
        bugs.len()
    );
    // Every wrong patch carries the revert signature.
    assert_eq!(mined.reverted.len(), 12);
}

#[test]
fn finding_1_and_2_impact_split() {
    let (_, bugs) = standard();
    let s = ImpactStats::compute(&bugs);
    let leak_pct = s.pct(s.leaks);
    assert!(
        (leak_pct - 71.7).abs() < 4.0,
        "leak share {leak_pct} (paper 71.7)"
    );
    let intra_pct = s.pct(s.count(BugKind::MissingDecIntra));
    assert!(
        (intra_pct - 57.1).abs() < 4.0,
        "intra share {intra_pct} (paper 57.1)"
    );
    let uad_pct = s.pct(s.count(BugKind::MisplacedDecUad));
    assert!(
        (uad_pct - 9.1).abs() < 3.0,
        "UAD share {uad_pct} (paper 9.1)"
    );
}

#[test]
fn finding_3_distribution() {
    let (_, bugs) = standard();
    let d = DistributionStats::compute(&bugs);
    assert_eq!(d.counts[0].0, "drivers");
    let top3 = 100.0 * d.top_share(3);
    assert!((top3 - 82.4).abs() < 5.0, "top-3 {top3} (paper 82.4)");
    assert_eq!(d.density[0].0, "block", "block densest (Figure 2 right)");
}

#[test]
fn finding_4_and_5_lifetimes() {
    let (_, bugs) = standard();
    let l = LifetimeStats::compute(&bugs);
    let share = l.over_one_year as f64 / l.tagged as f64;
    assert!(
        (share - 0.757).abs() < 0.06,
        "over-one-year share {share} (paper 75.7%)"
    );
    assert!(
        (5..=40).contains(&l.over_ten_years),
        ">10y {} (paper 19)",
        l.over_ten_years
    );
    assert!(l.ancient >= 8, "ancient {} (paper 23)", l.ancient);
    // Ordering of Figure 3's spans.
    assert!(l.span(5, 5) > l.span(4, 5), "within-v5 > v4→v5");
    assert!(l.span(4, 5) > l.span(3, 5), "v4→v5 > v3→v5");
}

#[test]
fn figure_1_growth_monotone_by_era() {
    let (_, bugs) = standard();
    let g = growth_by_year(&bugs);
    let sum = |lo: u32, hi: u32| -> usize {
        g.iter()
            .filter(|(y, _)| *y >= lo && *y <= hi)
            .map(|(_, c)| c)
            .sum()
    };
    let e1 = sum(2005, 2010);
    let e2 = sum(2011, 2016);
    let e3 = sum(2017, 2022);
    assert!(e1 < e2 && e2 < e3, "eras must grow: {e1} {e2} {e3}");
}

#[test]
fn classification_is_deterministic() {
    let (_, a) = standard();
    let (_, b) = standard();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.commit_id, y.commit_id);
        assert_eq!(x.kind, y.kind);
    }
}
