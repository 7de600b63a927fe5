//! Figure 2 — distribution of refcounting bugs over subsystems (left)
//! and bug density in bugs/KLOC (right). Finding 3: long-tailed, top-3
//! subsystems hold 82.4%, drivers alone 56.9%; `block` is the densest.

use refminer::report::bar_chart;
use refminer_dataset::{compare, DistributionStats, PAPER};
use refminer_experiments::{header, standard_bugs};

fn main() {
    let bugs = standard_bugs();
    let dist = DistributionStats::compute(&bugs);

    header("Figure 2 (left): bugs per subsystem");
    let counts: Vec<(String, f64)> = dist
        .counts
        .iter()
        .map(|(s, c)| (s.clone(), *c as f64))
        .collect();
    print!("{}", bar_chart(&counts, 50));

    header("Figure 2 (right): bug density (bugs per KLOC)");
    let dens: Vec<(String, f64)> = dist
        .density
        .iter()
        .map(|(s, d)| (s.clone(), (*d * 1000.0).round() / 1000.0))
        .collect();
    print!("{}", bar_chart(&dens, 50));

    header("Finding 3 comparison");
    let total: usize = dist.counts.iter().map(|(_, c)| c).sum();
    let drivers = dist
        .counts
        .iter()
        .find(|(s, _)| s == "drivers")
        .map(|(_, c)| *c)
        .unwrap_or(0);
    println!(
        "{}",
        compare(
            "drivers share (%)",
            PAPER.drivers_pct,
            100.0 * drivers as f64 / total as f64
        )
    );
    println!(
        "{}",
        compare("top-3 share (%)", PAPER.top3_pct, 100.0 * dist.top_share(3))
    );
    println!(
        "densest subsystem: {} (paper: block)",
        dist.density.first().map(|(s, _)| s.as_str()).unwrap_or("?")
    );
}
