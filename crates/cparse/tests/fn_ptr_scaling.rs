//! Pins that naming a function-pointer declarator reads only its own
//! `( * name )` group: a unit's parse time grows linearly with the
//! number of function-pointer fields, not quadratically.
//!
//! The test is alone in its binary so that no other test competes for
//! the CPU while it times. Each size keeps its fastest of three parses.

use std::time::{Duration, Instant};

use refminer_cparse::{parse_str, Item};

/// Linear growth reads about 4 from 1,000 to 4,000 fields; a parse that
/// scans the whole unit per field read about 27.
const MAX_RATIO: f64 = 8.0;

fn ops_struct(fields: usize) -> String {
    let mut src = String::from("struct big_ops {\n");
    for i in 0..fields {
        src.push_str(&format!(
            "        int (*f{i})(struct device *dev, int x);\n"
        ));
    }
    src.push_str("};\n");
    src
}

fn fastest_parse(fields: usize) -> Duration {
    let src = ops_struct(fields);
    (0..3)
        .map(|_| {
            let start = Instant::now();
            let tu = parse_str("ops.c", &src);
            let took = start.elapsed();
            let Some(Item::Struct(s)) = tu.items.first() else {
                panic!("no struct parsed");
            };
            assert_eq!(s.fields.len(), fields);
            assert_eq!(s.fields[fields - 1].name, format!("f{}", fields - 1));
            took
        })
        .min()
        .expect("three timings")
}

#[test]
fn function_pointer_fields_parse_in_linear_time() {
    let small = fastest_parse(1_000);
    let large = fastest_parse(4_000);
    let ratio = large.as_secs_f64() / small.as_secs_f64();
    assert!(
        ratio <= MAX_RATIO,
        "4,000 fields took {large:?} against {small:?} for 1,000: {ratio:.1}x"
    );
}
