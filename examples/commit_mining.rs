//! Commit mining: run the paper's two-level filtering over the
//! simulated 2005–2022 history, classify the confirmed bugs into the
//! Table 2 taxonomy, and print the headline findings.
//!
//! ```sh
//! cargo run --example commit_mining
//! ```

use refminer::corpus::{generate_history, HistoryConfig};
use refminer::rcapi::ApiKb;
use refminer_dataset::{classify_history, mine, DistributionStats, ImpactStats, LifetimeStats};

fn main() {
    let history = generate_history(&HistoryConfig::default());
    println!("simulated history: {} commits", history.commits.len());

    let kb = ApiKb::builtin();
    let mined = mine(&history.commits, &kb);
    println!(
        "stage 1 candidates: {}; stage 2 confirmed: {}; wrong patches removed: {}",
        mined.candidates.len(),
        mined.confirmed.len(),
        mined.reverted.len()
    );

    let bugs = classify_history(&history.commits, &kb);
    let impacts = ImpactStats::compute(&bugs);
    println!(
        "\nFinding 1: {:.1}% of {} bugs lead to memory leaks (paper: 71.7% of 1,033)",
        impacts.pct(impacts.leaks),
        impacts.total
    );
    println!(
        "Finding 2: {:.1}% lead to use-after-free (paper: 28.3%)",
        impacts.pct(impacts.uafs)
    );

    let dist = DistributionStats::compute(&bugs);
    println!(
        "Finding 3: top-3 subsystems hold {:.1}% (paper: 82.4%); densest: {}",
        100.0 * dist.top_share(3),
        dist.density.first().map(|(s, _)| s.as_str()).unwrap_or("?")
    );

    let life = LifetimeStats::compute(&bugs);
    println!(
        "Finding 4: {}/{} tagged bugs needed more than a year (paper: 429/567)",
        life.over_one_year, life.tagged
    );
    println!(
        "Finding 5: {} bugs span v2.6 → v5/v6 (paper: 23); {} lived >10 years (paper: 19)",
        life.ancient, life.over_ten_years
    );
}
