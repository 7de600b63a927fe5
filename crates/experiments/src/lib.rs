//! # refminer-experiments
//!
//! One binary per table and figure of the paper, each regenerating its
//! rows/series from the simulated substrates and printing a
//! paper-vs-measured comparison. Run them all with
//! `cargo run -p refminer-experiments --bin all`.
//!
//! | Binary   | Reproduces |
//! |----------|------------|
//! | `fig1`   | Figure 1 — growth trend of refcounting bugs 2005–2022 |
//! | `fig2`   | Figure 2 — subsystem distribution and bug density |
//! | `fig3`   | Figure 3 — bug lifetimes across releases (Findings 4–5) |
//! | `table1` | Table 1 — semantic templates for Listings 1 & 2 |
//! | `table2` | Table 2 — bug-kind percentages (Findings 1–2) |
//! | `table3` | Table 3 — word2vec keyword similarities |
//! | `table4` | Table 4 — new bugs per subsystem, impacts, status |
//! | `table5` | Table 5 — per-module details |
//! | `table6` | Table 6 — error-prone API inventory |

use refminer::corpus::{
    generate_history, generate_tree, History, HistoryConfig, SyntheticTree, TreeConfig,
};
use refminer::rcapi::ApiKb;
use refminer::{audit, AuditConfig, AuditReport, Project};
use refminer_dataset::{classify_history, HistBug};

/// The standard simulated history used by the historical-study
/// experiments (Figures 1–3, Tables 2–3). One seed, shared everywhere,
/// so the experiments agree with each other.
pub fn standard_history() -> History {
    generate_history(&HistoryConfig::default())
}

/// A smaller history for quick runs (`--quick`).
pub fn quick_history() -> History {
    generate_history(&HistoryConfig {
        n_bugs: 300,
        n_noise: 200,
        n_reverts: 6,
        n_neutral: 3_000,
        ..Default::default()
    })
}

/// Mines and classifies the standard history.
pub fn standard_bugs() -> Vec<HistBug> {
    let h = standard_history();
    classify_history(&h.commits, &ApiKb::builtin())
}

/// The standard "latest release" tree used by the checker experiments
/// (Tables 4–6).
pub fn standard_tree() -> SyntheticTree {
    generate_tree(&TreeConfig::default())
}

/// Audits the standard tree.
pub fn standard_audit() -> (SyntheticTree, AuditReport) {
    let tree = standard_tree();
    let project = Project::from_tree(&tree);
    let report = audit(&project, &AuditConfig::default());
    (tree, report)
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n{}", "=".repeat(72));
    println!("{title}");
    println!("{}", "=".repeat(72));
}

/// Whether `--quick` was passed on the command line.
pub fn quick_mode() -> bool {
    std::env::args().any(|a| a == "--quick")
}
