//! Figure 3 — the lifetime of refcounting bugs: introduced-version to
//! fixed-version lines, sorted by introduction time, plus Findings 4–5
//! (75.7% need over a year; 19 live >10 years; 23 span v2.6 → v5/v6).

use refminer::report::series_plot;
use refminer_dataset::{compare, LifetimeStats, PAPER};
use refminer_experiments::{header, standard_bugs};

fn main() {
    let bugs = standard_bugs();
    let life = LifetimeStats::compute(&bugs);

    header("Figure 3: bug lifetimes (x = bug index sorted by intro year; y = year)");
    let intro: Vec<(f64, f64)> = life
        .lines
        .iter()
        .enumerate()
        .map(|(i, &(iy, _))| (i as f64, iy as f64))
        .collect();
    let fixed: Vec<(f64, f64)> = life
        .lines
        .iter()
        .enumerate()
        .map(|(i, &(_, fy))| (i as f64, fy as f64))
        .collect();
    print!(
        "{}",
        series_plot(&[("introduced", intro), ("fixed", fixed)], 64, 16)
    );

    header("Findings 4 & 5 comparison (Fixes-tagged subset)");
    println!(
        "{}",
        compare("tagged bugs", PAPER.tagged as f64, life.tagged as f64)
    );
    println!(
        "{}",
        compare(
            "fixed after >1 year",
            PAPER.over_one_year as f64,
            life.over_one_year as f64
        )
    );
    println!(
        "{}",
        compare(
            "lived >10 years",
            PAPER.over_ten_years as f64,
            life.over_ten_years as f64
        )
    );
    println!(
        "{}",
        compare(
            "v2.6-era bugs alive in v5/v6",
            PAPER.ancient as f64,
            life.ancient as f64
        )
    );
    println!(
        "{}",
        compare(
            "span v4.x -> v5.x",
            PAPER.span_v4_v5 as f64,
            life.span(4, 5) as f64
        )
    );
    println!(
        "{}",
        compare(
            "span v3.x -> v5.x",
            PAPER.span_v3_v5 as f64,
            life.span(3, 5) as f64
        )
    );
    println!(
        "{}",
        compare(
            "within v5.x",
            PAPER.within_v5 as f64,
            life.span(5, 5) as f64
        )
    );
}
