//! Seeded fuzz regression tests for the JSON parser and writer.
//!
//! The parser runs on input-derived text everywhere in the pipeline —
//! ground-truth manifests, daemon requests and responses — so a
//! reachable panic here is a crash a corrupt file can trigger at will.
//! These tests drive the parser with deterministic (ChaCha8-seeded)
//! garbage, mutated valid documents, and generated values, asserting it
//! always returns `Ok`/`Err` instead of panicking and that the
//! writer/parser pair round-trips.

use std::panic::{catch_unwind, AssertUnwindSafe};

use refminer_json::Value;
use refminer_prng::{ChaCha8Rng, Rng, SeedableRng};

/// Characters the generators draw from: JSON structure, escapes,
/// digits, exponent/sign marks, whitespace, multi-byte unicode, and a
/// control character — everything the parser special-cases.
const PALETTE: &[char] = &[
    '{', '}', '[', ']', ':', ',', '"', '\\', '/', 'a', 'z', 'A', '0', '1', '9', '.', '-', '+', 'e',
    'E', 't', 'r', 'u', 'n', 'f', 'l', 's', ' ', '\t', '\n', '\r', 'é', '✓', '\u{0}', '\u{7f}',
    '𝄞',
];

fn gen_text(rng: &mut ChaCha8Rng, max_len: usize) -> String {
    let len = rng.gen_range(0..=max_len);
    (0..len)
        .map(|_| PALETTE[rng.gen_range(0..PALETTE.len())])
        .collect()
}

/// Parses under `catch_unwind`, failing the test with the offending
/// input on panic — the input is the whole bug report.
fn parse_must_not_panic(input: &str) -> Result<Value, refminer_json::ParseJsonError> {
    catch_unwind(AssertUnwindSafe(|| Value::parse(input)))
        .unwrap_or_else(|_| panic!("Value::parse panicked on {input:?}"))
}

#[test]
fn parser_survives_random_garbage() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0001);
    for _ in 0..4000 {
        let text = gen_text(&mut rng, 64);
        let _ = parse_must_not_panic(&text);
    }
}

#[test]
fn parser_survives_mutated_valid_documents() {
    let seeds = [
        r#"{"version":3,"runs":{"warm":{"secs":0.25,"hits":[1,2,3]}}}"#,
        r#"[null,true,false,-1.5e-3,"a\"b\\cé",{"k":[{}]}]"#,
        r#"{"findings":[{"file":"a.c","line":12,"msg":"x ✓"}]}"#,
    ];
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0002);
    for _ in 0..3000 {
        let base = seeds[rng.gen_range(0..seeds.len())];
        let mut chars: Vec<char> = base.chars().collect();
        for _ in 0..rng.gen_range(1..=4usize) {
            let at = rng.gen_range(0..chars.len());
            chars[at] = PALETTE[rng.gen_range(0..PALETTE.len())];
        }
        let mutated: String = chars.into_iter().collect();
        let _ = parse_must_not_panic(&mutated);
    }
}

fn gen_value(rng: &mut ChaCha8Rng, depth: usize) -> Value {
    match rng.gen_range(0..6u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen::<bool>()),
        // Integral doubles round-trip exactly through the writer.
        2 => Value::Num(rng.gen_range(-1_000_000_000i64..1_000_000_000) as f64),
        3 => Value::Str(gen_text(rng, 12)),
        4 if depth < 3 => {
            let n = rng.gen_range(0..4usize);
            Value::Arr((0..n).map(|_| gen_value(rng, depth + 1)).collect())
        }
        5 if depth < 3 => {
            let n = rng.gen_range(0..4usize);
            Value::Obj(
                (0..n)
                    .map(|i| {
                        (
                            format!("k{i}_{}", gen_text(rng, 4)),
                            gen_value(rng, depth + 1),
                        )
                    })
                    .collect(),
            )
        }
        _ => Value::Null,
    }
}

#[test]
fn generated_values_round_trip() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5EED_0003);
    for _ in 0..1000 {
        let v = gen_value(&mut rng, 0);
        let text = v.to_string();
        let back = parse_must_not_panic(&text)
            .unwrap_or_else(|e| panic!("writer emitted unparseable JSON {text:?}: {e:?}"));
        assert_eq!(back, v, "round trip diverged through {text:?}");
        // A second trip is a fixpoint: print(parse(print(v))) == print(v).
        assert_eq!(back.to_string(), text);
    }
}
