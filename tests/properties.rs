//! Property-style tests over the core data structures and invariants:
//! the lexer/parser never panic and preserve ordering invariants, the
//! template syntax round-trips, path queries respect their contracts,
//! and generated corpora always parse cleanly.
//!
//! Each property runs over a deterministic, seeded input stream
//! (refminer-prng) instead of an external property-testing framework,
//! so failures reproduce exactly and the suite builds offline.

use refminer::clex::{Lexer, TokenKind};
use refminer::corpus::{generate_history, generate_tree, HistoryConfig, TreeConfig};
use refminer::cparse::{parse_str, parse_str_with_errors};
use refminer::cpg::{Cfg, FunctionGraph, PathQuery, Step};
use refminer::rcapi::{name_direction, paired_dec_name, ApiKb};
use refminer::template::parse_template;
use refminer_prng::{ChaCha8Rng, Rng, SeedableRng};
use refminer_w2v::tokenize;

/// Draws a random string of length `0..=max_len` over `charset`.
fn rand_string(rng: &mut ChaCha8Rng, charset: &[u8], max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| charset[rng.gen_range(0..charset.len())] as char)
        .collect()
}

/// All printable ASCII plus newline/tab — the classic fuzz alphabet.
fn printable() -> Vec<u8> {
    let mut cs: Vec<u8> = (b' '..=b'~').collect();
    cs.push(b'\n');
    cs.push(b'\t');
    cs
}

/// The lexer never panics and its spans are sorted and
/// non-overlapping for any input.
#[test]
fn lexer_total_and_spans_ordered() {
    let charset = printable();
    let mut rng = ChaCha8Rng::seed_from_u64(0x1e8a);
    for _ in 0..200 {
        let src = rand_string(&mut rng, &charset, 400);
        let toks = Lexer::new(&src).tokenize();
        for w in toks.windows(2) {
            assert!(w[0].span.start <= w[1].span.start, "spans out of order");
            assert!(w[0].span.end <= w[1].span.start, "spans overlap");
        }
        for t in &toks {
            assert!(t.span.end as usize <= src.len());
        }
    }
}

/// Lexing only identifier soup loses nothing: the token stream has one
/// token per word, each an identifier or keyword.
#[test]
fn lexer_covers_simple_input() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xc0f3);
    let first: Vec<u8> = (b'a'..=b'z').chain([b'_']).collect();
    let rest: Vec<u8> = (b'a'..=b'z').chain(b'0'..=b'9').chain([b'_']).collect();
    for _ in 0..200 {
        let n_words = rng.gen_range(1..20usize);
        let words: Vec<String> = (0..n_words)
            .map(|_| {
                let mut w = String::new();
                w.push(first[rng.gen_range(0..first.len())] as char);
                for _ in 0..rng.gen_range(0..8usize) {
                    w.push(rest[rng.gen_range(0..rest.len())] as char);
                }
                w
            })
            .collect();
        let src = words.join(" ");
        let toks = Lexer::new(&src).tokenize();
        assert_eq!(toks.len(), words.len());
        for (t, w) in toks.iter().zip(&words) {
            match &t.kind {
                TokenKind::Ident(s) => assert_eq!(&**s, w.as_str()),
                TokenKind::Keyword(_) => {} // C keywords are fine.
                other => panic!("unexpected token {other:?}"),
            }
        }
    }
}

/// The parser never panics on arbitrary printable input, and recovery
/// always terminates.
#[test]
fn parser_total() {
    let charset: Vec<u8> = (b' '..=b'~').chain([b'\n']).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0x9a25e);
    for _ in 0..200 {
        let src = rand_string(&mut rng, &charset, 400);
        let (_tu, _errs) = parse_str_with_errors("fuzz.c", &src);
    }
}

/// The parser is total on brace/paren/semicolon soup — the worst case
/// for recovery logic.
#[test]
fn parser_total_on_brace_soup() {
    let charset: Vec<u8> = b"(){};,=+*<> \n"
        .iter()
        .copied()
        .chain(b'a'..=b'z')
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0x50b5);
    for _ in 0..200 {
        let src = rand_string(&mut rng, &charset, 300);
        let tu = parse_str("soup.c", &src);
        // Walking the result must also be safe.
        for f in tu.functions() {
            let _ = Cfg::build(f);
        }
    }
}

/// CFG invariants for any parseable function: edges are dual
/// (succ/pred agree), the exit has no successors, and entry has no
/// predecessors.
#[test]
fn cfg_edge_duality() {
    let charset: Vec<u8> = b"abcdefghijklmnopqrstuvwxyz0123456789_ =+;(){}<>!&|\n".to_vec();
    let mut rng = ChaCha8Rng::seed_from_u64(0xcf6);
    for _ in 0..150 {
        let body = rand_string(&mut rng, &charset, 200);
        let src = format!("int f(int a, int b) {{ {body} }}");
        let tu = parse_str("t.c", &src);
        if let Some(f) = tu.function("f") {
            let cfg = Cfg::build(f);
            assert!(cfg.succs(cfg.exit).is_empty());
            assert!(cfg.preds(cfg.entry).is_empty());
            for n in cfg.node_ids() {
                for &(s, k) in cfg.succs(n) {
                    assert!(cfg.preds(s).contains(&(n, k)), "missing dual edge {n}->{s}");
                }
            }
        }
    }
}

/// A path-query witness always has exactly one node per step, in
/// graph-reachable order.
#[test]
fn path_query_witness_shape() {
    for n_steps in 1usize..4 {
        let src = "int f(int a) { s1(); s2(); s3(); s4(); return 0; }";
        let tu = parse_str("t.c", src);
        let g = FunctionGraph::build(tu.function("f").unwrap());
        let names = ["s1", "s2", "s3", "s4"];
        let steps: Vec<Step> = names[..n_steps]
            .iter()
            .map(|name| {
                let facts = &g.facts;
                Step::new(move |n| facts[n].calls_named(name))
            })
            .collect();
        let witness = PathQuery::new(steps).search_from_entry(&g.cfg);
        let w = witness.expect("straight-line calls always match");
        assert_eq!(w.len(), n_steps);
        for pair in w.windows(2) {
            assert!(g.cfg.reachable(pair[0], pair[1]));
        }
    }
}

/// Template text syntax round-trips through Display for any
/// composition of atoms the printer can emit.
#[test]
fn template_round_trip() {
    const OPS: [&str; 13] = [
        "G",
        "P",
        "A",
        "D",
        "L",
        "U",
        "{G_E}",
        "{G_N}",
        "{P_H}",
        "{A_GO}",
        "{U.D}(p0)",
        "P(p0)",
        "D(p0)",
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0x7e41);
    for _ in 0..200 {
        let n = rng.gen_range(1..4usize);
        let middle: Vec<String> = (0..n)
            .map(|_| format!("S_{}", OPS[rng.gen_range(0..OPS.len())]))
            .collect();
        let text = format!("F_start -> {} -> F_end", middle.join(" -> "));
        let t = parse_template(&text).unwrap();
        let printed = t.to_string();
        let reparsed = parse_template(&printed).unwrap();
        assert_eq!(t, reparsed);
    }
}

/// Keyword direction and pairing are consistent: a derived paired name
/// always classifies as a decrement.
#[test]
fn paired_name_is_dec() {
    const KEYWORDS: [&str; 5] = ["get", "hold", "grab", "pin", "ref"];
    let stems: Vec<u8> = (b'a'..=b'z').collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0xdec);
    for _ in 0..300 {
        let stem: String = (0..rng.gen_range(2..=8usize))
            .map(|_| stems[rng.gen_range(0..stems.len())] as char)
            .collect();
        let kw = KEYWORDS[rng.gen_range(0..KEYWORDS.len())];
        let inc_name = format!("{stem}_{kw}");
        if name_direction(&inc_name) != Some(refminer::rcapi::RcDir::Inc) {
            continue;
        }
        if let Some(dec) = paired_dec_name(&inc_name) {
            assert_eq!(
                name_direction(&dec),
                Some(refminer::rcapi::RcDir::Dec),
                "paired name {dec} not a dec"
            );
        }
    }
}

/// Commit-log tokenization produces lowercase alphanumeric tokens of
/// length ≥ 2, never panicking.
#[test]
fn tokenizer_invariants() {
    let charset: Vec<u8> = (b' '..=b'~').chain([b'\n']).collect();
    let mut rng = ChaCha8Rng::seed_from_u64(0x70c);
    for _ in 0..200 {
        let text = rand_string(&mut rng, &charset, 300);
        for tok in tokenize(&text) {
            assert!(tok.len() >= 2);
            assert!(tok
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()));
            assert!(!tok.chars().all(|c| c.is_ascii_digit()));
        }
    }
}

/// Every file of a generated tree parses without recovery errors — the
/// corpus generator only emits well-formed C.
#[test]
fn generated_trees_parse_cleanly() {
    for seed in 0u64..8 {
        let tree = generate_tree(&TreeConfig {
            seed,
            scale: 0.02,
            ..Default::default()
        });
        for f in &tree.files {
            let (_tu, errs) = parse_str_with_errors(&f.path, &f.content);
            assert!(errs.is_empty(), "parse errors in {}: {:?}", f.path, errs);
        }
    }
}

/// Tree generation is injective on bug identity: no two manifest
/// entries collide on (path, function).
#[test]
fn manifest_bugs_unique() {
    for seed in 0u64..8 {
        let tree = generate_tree(&TreeConfig {
            seed,
            scale: 0.05,
            ..Default::default()
        });
        let mut seen = std::collections::HashSet::new();
        for b in &tree.manifest.bugs {
            assert!(
                seen.insert((b.path.clone(), b.function.clone())),
                "duplicate bug site {}:{}",
                b.path,
                b.function
            );
        }
    }
}

/// History generation: Fixes tags always resolve, whatever the seed
/// and sizes.
#[test]
fn history_fixes_tags_resolve() {
    let mut rng = ChaCha8Rng::seed_from_u64(0xf1e5);
    for seed in 0u64..10 {
        let n_bugs = rng.gen_range(10..60usize);
        let h = generate_history(&HistoryConfig {
            seed,
            n_bugs,
            n_noise: 10,
            n_reverts: 2,
            n_neutral: 20,
        });
        let ids: std::collections::HashSet<&str> =
            h.commits.iter().map(|c| c.id.as_str()).collect();
        for c in &h.commits {
            if let Some(t) = c.fixes_tag() {
                assert!(ids.contains(t));
            }
        }
    }
}

/// The KB pairing relation is sound for every seeded inc API: each
/// accepted dec is itself a known dec or keyword-dec.
#[test]
fn kb_pairings_are_decs() {
    let kb = ApiKb::builtin();
    for api in kb.apis().filter(|a| a.dir == refminer::rcapi::RcDir::Inc) {
        for dec in &api.dec_names {
            assert!(
                kb.is_dec(dec) || name_direction(dec) == Some(refminer::rcapi::RcDir::Dec),
                "{} pairs with non-dec {}",
                api.name,
                dec
            );
        }
    }
}

/// For any seed, auditing a small generated tree finds every injected
/// bug with zero organic false positives — the recall and precision
/// invariant of the checker suite.
#[test]
fn audit_invariant_across_seeds() {
    for seed in 0u64..6 {
        let tree = generate_tree(&TreeConfig {
            seed,
            scale: 0.02,
            include_tricky: false,
            ..Default::default()
        });
        let project = refminer::Project::from_tree(&tree);
        let report = refminer::audit(&project, &refminer::AuditConfig::default());
        let t = refminer_dataset::triage(&report.findings, &tree.manifest);
        assert!(
            (t.recall(&tree.manifest) - 1.0).abs() < 1e-9,
            "recall {} at seed {seed}",
            t.recall(&tree.manifest)
        );
        assert!(
            (t.precision() - 1.0).abs() < 1e-9,
            "precision {} at seed {seed}",
            t.precision()
        );
    }
}

/// Origin analysis invariants: a parameter never loses its Param
/// origin unless assigned.
#[test]
fn origins_params_stable() {
    let charset: Vec<u8> = b"abcdefghijklmnopqrstuvwxyz_ =;()\n".to_vec();
    let mut rng = ChaCha8Rng::seed_from_u64(0x0817);
    for _ in 0..150 {
        let body = rand_string(&mut rng, &charset, 120);
        let src = format!(
            "int f(struct device_node *alpha) {{ struct device_node *beta; {body} return 0; }}"
        );
        let tu = parse_str("t.c", &src);
        if let Some(func) = tu.function("f") {
            let g = FunctionGraph::build(func);
            // If `alpha` is never an assignment target, it keeps the
            // Param origin at exit.
            let reassigned = g.facts.iter().any(|f| {
                f.assigns
                    .iter()
                    .any(|a| a.target == refminer::cpg::StoreTarget::Var("alpha"))
            });
            if !reassigned {
                let at_exit = g.origins.at(&g.cfg, g.cfg.exit, "alpha");
                assert!(
                    at_exit
                        .iter()
                        .any(|o| matches!(o, refminer::cpg::Origin::Param)),
                    "alpha lost its Param origin without an assignment"
                );
            }
        }
    }
}

/// word2vec text persistence round-trips for any trained model shape.
#[test]
fn w2v_persistence_round_trip() {
    use refminer_w2v::{W2vConfig, Word2Vec};
    let mut rng = ChaCha8Rng::seed_from_u64(0x2f2f);
    for _ in 0..6 {
        let dim = rng.gen_range(2..12usize);
        let seed = rng.gen_range(0..20u64);
        let corpus = "alpha beta gamma delta\nbeta gamma alpha delta\n".repeat(10);
        let m = Word2Vec::train_text(
            &corpus,
            &W2vConfig {
                dim,
                epochs: 2,
                min_count: 1,
                subsample: 0.0,
                seed,
                ..Default::default()
            },
        );
        let text = m.to_text();
        let loaded = Word2Vec::read_text(&mut text.as_bytes()).unwrap();
        assert_eq!(loaded.dim(), dim);
        assert_eq!(loaded.vector("alpha"), m.vector("alpha"));
    }
}
