//! Semantic similarity: train the from-scratch CBOW word2vec on the
//! simulated commit logs and explore the keyword space of Table 3 —
//! why "find"-named APIs hide refcounting from developers.
//!
//! ```sh
//! cargo run --release --example semantic_similarity
//! ```

use refminer::corpus::{generate_history, HistoryConfig};
use refminer_w2v::{W2vConfig, Word2Vec};

fn main() {
    let history = generate_history(&HistoryConfig {
        n_bugs: 600,
        n_noise: 300,
        n_reverts: 6,
        n_neutral: 6_000,
        ..Default::default()
    });
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
        dim: 48,
        window: 6,
        epochs: 6,
        min_count: 3,
        subsample: 5e-3,
        ..Default::default()
    };
    println!("training CBOW on {} commits ...", history.commits.len());
    let model = Word2Vec::train_text(&corpus, &cfg);
    println!("vocabulary: {} words\n", model.vocab().len());

    for word in ["find", "put", "get", "foreach", "leak"] {
        let neighbours = model.most_similar(word, 6);
        let pretty: Vec<String> = neighbours
            .iter()
            .map(|(w, s)| format!("{w} ({s:.2})"))
            .collect();
        println!("{word:<8} ≈ {}", pretty.join(", "));
    }

    let analogy = model.analogy("get", "put", "hold", 3);
    let pretty: Vec<String> = analogy
        .iter()
        .map(|(w, s)| format!("{w} ({s:.2})"))
        .collect();
    println!("\nget - put + hold ≈ {}", pretty.join(", "));

    println!(
        "\nthe hidden-refcounting story (§5.2): find~put = {:?}, foreach~put = {:?} — \
         iteration and lookup keywords sit measurably apart from the \
         refcounting vocabulary, which is why developers miss the pairing.",
        model.similarity("find", "put"),
        model.similarity("foreach", "put"),
    );
}
