//! Table 3 — word2vec (CBOW) semantic similarities between the key
//! words of refcounting API names and the key words of bug-caused API
//! names, trained on the simulated commit logs.

use refminer::report::Table;
use refminer_dataset::{PAPER_TABLE3, TABLE3_COLUMNS};
use refminer_experiments::{header, quick_history, quick_mode, standard_history};
use refminer_w2v::{W2vConfig, Word2Vec};

const RC_KEYWORDS: [&str; 11] = [
    "refcount", "increase", "get", "hold", "grab", "retain", "decrease", "put", "unhold", "drop",
    "release",
];

fn main() {
    header("Table 3: keyword similarities (word2vec/CBOW on commit logs)");
    let history = if quick_mode() {
        quick_history()
    } else {
        standard_history()
    };
    // One sentence per commit: summary + body text + patch code — the
    // paper trains on "more than one million of the historical commit
    // logs, including the code and comment text" (§5.2.2).
    let corpus: String = history
        .commits
        .iter()
        .map(|c| {
            format!(
                "{} {}",
                c.message.replace('\n', " "),
                c.diff.replace('\n', " ")
            )
        })
        .collect::<Vec<_>>()
        .join("\n");
    let cfg = W2vConfig {
        dim: 64,
        window: 6,
        epochs: if quick_mode() { 3 } else { 8 },
        min_count: 3,
        subsample: 5e-3,
        ..Default::default()
    };
    println!(
        "training CBOW (dim {}, window {}, epochs {}) on {} commit logs ...",
        cfg.dim,
        cfg.window,
        cfg.epochs,
        history.commits.len()
    );
    let model = Word2Vec::train_text(&corpus, &cfg);
    println!("vocabulary: {} words\n", model.vocab().len());

    let mut t = Table::new(vec![
        "RC keyword",
        "foreach",
        "find",
        "parse",
        "open",
        "probe",
        "register",
    ])
    .numeric();
    for rc in RC_KEYWORDS {
        let mut row = vec![rc.to_string()];
        for bug in TABLE3_COLUMNS {
            let cell = match model.similarity(rc, bug) {
                Some(s) => format!("{s:.2}"),
                None => "oov".to_string(),
            };
            row.push(cell);
        }
        t.row(row);
    }
    print!("{}", t.render());

    header("Paper's Table 3 (for comparison)");
    let mut p = Table::new(vec![
        "RC keyword",
        "foreach",
        "find",
        "parse",
        "open",
        "probe",
        "register",
    ])
    .numeric();
    for (rc, vals) in PAPER_TABLE3 {
        let mut row = vec![rc.to_string()];
        row.extend(vals.iter().map(|v| format!("{v:.2}")));
        p.row(row);
    }
    print!("{}", p.render());

    header("Shape checks (§5.2.2)");
    let sim = |a: &str, b: &str| model.similarity(a, b).unwrap_or(0.0);
    let find_get = sim("find", "get");
    let find_put = sim("find", "put");
    let foreach_get = sim("foreach", "get");
    let unhold_find = sim("unhold", "find");
    println!(
        "find~get   = {find_get:.2}  (paper 0.73; expected high — find-like APIs pair with gets)"
    );
    println!("find~put   = {find_put:.2}  (paper 0.58; expected high — fixes add puts for finds)");
    println!("foreach~get= {foreach_get:.2}  (paper 0.32; expected lower than find~get)");
    println!("unhold~find= {unhold_find:.2}  (paper 0.10; expected near zero — barely used)");
    println!(
        "\nordering reproduced: find~get > foreach~get: {}; find~put > unhold~find: {}",
        find_get > foreach_get,
        find_put > unhold_find
    );
}
